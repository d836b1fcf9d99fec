#include "runtime/ingest.h"

#include <algorithm>
#include <string>
#include <unordered_set>

namespace lahar {

bool IngestQueue::TryPush(TickBatch batch) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      ++closed_rejected_;
      return false;
    }
    if (batches_.size() >= capacity_) {
      ++dropped_;
      return false;
    }
    batches_.push_back(std::move(batch));
  }
  not_empty_.notify_one();
  return true;
}

Status IngestQueue::Push(TickBatch batch, std::chrono::milliseconds deadline) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (!not_full_.wait_for(lock, deadline, [&] {
          return closed_ || batches_.size() < capacity_;
        })) {
      return Status::OutOfRange("ingest queue full past deadline (" +
                                std::to_string(deadline.count()) + "ms)");
    }
    if (closed_) return Status::InvalidArgument("ingest queue closed");
    batches_.push_back(std::move(batch));
  }
  not_empty_.notify_one();
  return Status::OK();
}

size_t IngestQueue::DrainWait(std::vector<TickBatch>* out) {
  size_t drained = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] {
      return closed_ || wake_pending_ || !batches_.empty();
    });
    wake_pending_ = false;
    drained = batches_.size();
    while (!batches_.empty()) {
      out->push_back(std::move(batches_.front()));
      batches_.pop_front();
    }
  }
  // Every slot freed at once: wake all producers parked in Push.
  if (drained > 0) not_full_.notify_all();
  return drained;
}

void IngestQueue::Wake() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    wake_pending_ = true;
  }
  not_empty_.notify_all();
}

void IngestQueue::Close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

bool IngestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

size_t IngestQueue::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return batches_.size();
}

uint64_t IngestQueue::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

uint64_t IngestQueue::closed_rejected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_rejected_;
}

void Watermark::Track(StreamId id, Timestamp covered) {
  if (id >= covered_.size()) {
    covered_.resize(id + 1, 0);
    tracked_.resize(id + 1, false);
  }
  if (!tracked_[id]) {
    tracked_[id] = true;
    ++num_tracked_;
  }
  covered_[id] = covered;
}

void Watermark::Advance(StreamId id, Timestamp t) {
  if (id >= covered_.size() || !tracked_[id]) return;
  if (covered_[id] != kEnded) covered_[id] = std::max(covered_[id], t);
}

void Watermark::MarkEnded(StreamId id) {
  if (id >= covered_.size() || !tracked_[id]) return;
  covered_[id] = kEnded;
}

Timestamp Watermark::Safe() const {
  Timestamp safe = kEnded;
  for (size_t i = 0; i < covered_.size(); ++i) {
    if (tracked_[i] && covered_[i] != kEnded) {
      safe = std::min(safe, covered_[i]);
    }
  }
  return safe;
}

bool Watermark::ended(StreamId id) const {
  return id < covered_.size() && tracked_[id] && covered_[id] == kEnded;
}

namespace {

// Full validation for one update at tick `t`, with no mutation. Every check
// the apply path would perform runs here first, so the apply loop below
// cannot fail mid-batch.
Status ValidateUpdate(const EventDatabase& db, Timestamp t,
                      const StreamUpdate& u) {
  if (u.stream >= db.num_streams()) {
    return Status::OutOfRange("batch references unknown stream " +
                              std::to_string(u.stream));
  }
  const Stream& s = db.stream(u.stream);
  if (t != s.horizon() + 1) {
    return Status::InvalidArgument(
        "batch for t=" + std::to_string(t) + " but stream " +
        std::to_string(u.stream) + " is at horizon " +
        std::to_string(s.horizon()) + " (ticks must arrive in order)");
  }
  if (u.cpt.has_value()) {
    if (!s.markovian()) {
      return Status::InvalidArgument("CPT update for independent stream " +
                                     std::to_string(u.stream));
    }
    if (s.horizon() < 1 || s.MarginalAt(s.horizon()).empty()) {
      return Status::InvalidArgument(
          "CPT update for Markovian stream " + std::to_string(u.stream) +
          " before its initial marginal");
    }
    return s.CheckCpt(*u.cpt);
  }
  if (s.markovian() && s.horizon() != 0) {
    return Status::InvalidArgument(
        "marginal update for Markovian stream " + std::to_string(u.stream) +
        " past t=1 (expected a CPT)");
  }
  return s.CheckMarginal(u.marginal);
}

}  // namespace

Status ApplyBatch(EventDatabase* db, const TickBatch& batch,
                  Watermark* watermark) {
  // Phase 1: validate everything. No mutation happens until every update
  // (including duplicates within the batch) has passed.
  std::unordered_set<StreamId> seen;
  seen.reserve(batch.updates.size());
  for (const StreamUpdate& u : batch.updates) {
    if (!seen.insert(u.stream).second) {
      return Status::InvalidArgument("batch contains stream " +
                                     std::to_string(u.stream) + " twice");
    }
    LAHAR_RETURN_NOT_OK(ValidateUpdate(*db, batch.t, u));
  }
  // Phase 2: apply. Validation ran the stream's own apply-side checks, so a
  // failure here is a programming error, not a data error — surface it as
  // Internal but note the transaction guarantee no longer holds.
  for (const StreamUpdate& u : batch.updates) {
    Status st;
    if (u.cpt.has_value()) {
      st = db->AppendMarkovStep(u.stream, *u.cpt);
    } else if (db->stream(u.stream).markovian()) {
      st = db->AppendInitial(u.stream, u.marginal);
    } else {
      st = db->AppendMarginal(u.stream, u.marginal);
    }
    if (!st.ok()) {
      return Status::Internal("validated update failed to apply: " +
                              st.ToString());
    }
    if (watermark != nullptr) watermark->Advance(u.stream, batch.t);
  }
  return Status::OK();
}

Status ReorderBuffer::Offer(const EventDatabase& db, TickBatch batch,
                            std::vector<StreamUpdate>* due) {
  // Classification pass — nothing is consumed until every update has a
  // home, so a rejected batch leaves the buffer exactly as it was.
  enum class Slot { kLate, kDue, kBuffer, kMergedAway };
  std::vector<Slot> slots(batch.updates.size());
  for (size_t i = 0; i < batch.updates.size(); ++i) {
    const StreamUpdate& u = batch.updates[i];
    if (u.stream >= db.num_streams()) {
      return Status::OutOfRange("batch references unknown stream " +
                                std::to_string(u.stream));
    }
    const Timestamp horizon = db.stream(u.stream).horizon();
    if (batch.t <= horizon) {
      slots[i] = Slot::kLate;
    } else if (batch.t == horizon + 1) {
      slots[i] = Slot::kDue;
    } else if (batch.t <= horizon + 1 + window_) {
      slots[i] = buffered_.count({batch.t, u.stream}) != 0
                     ? Slot::kMergedAway
                     : Slot::kBuffer;
    } else {
      return Status::OutOfRange(
          "batch for t=" + std::to_string(batch.t) + " is beyond the reorder "
          "window (stream " + std::to_string(u.stream) + " at horizon " +
          std::to_string(horizon) + ", window " + std::to_string(window_) +
          "); resend once earlier ticks have been applied");
    }
  }
  for (size_t i = 0; i < batch.updates.size(); ++i) {
    StreamUpdate& u = batch.updates[i];
    switch (slots[i]) {
      case Slot::kLate:
        ++late_dropped_;
        break;
      case Slot::kDue:
        due->push_back(std::move(u));
        break;
      case Slot::kBuffer:
        buffered_.emplace(std::make_pair(batch.t, u.stream), std::move(u));
        break;
      case Slot::kMergedAway:
        ++merged_;
        break;
    }
  }
  return Status::OK();
}

bool ReorderBuffer::PopDue(const EventDatabase& db, TickBatch* out) {
  // buffered_ is ordered by (tick, stream), so the first due entry found
  // has the smallest due tick; collect its whole (tick, per-stream-due)
  // group and stop.
  out->updates.clear();
  Timestamp due_tick = 0;
  for (auto it = buffered_.begin(); it != buffered_.end();) {
    const Timestamp t = it->first.first;
    const StreamId id = it->first.second;
    if (!out->updates.empty() && t != due_tick) break;
    if (id < db.num_streams() && t == db.stream(id).horizon() + 1) {
      if (out->updates.empty()) due_tick = t;
      out->updates.push_back(std::move(it->second));
      it = buffered_.erase(it);
    } else {
      ++it;
    }
  }
  out->t = due_tick;
  return !out->updates.empty();
}

}  // namespace lahar
