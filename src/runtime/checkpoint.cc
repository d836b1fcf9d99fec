// StreamRuntime::Checkpoint / Restore. Kept out of executor.cc so the tick
// loop stays focused; format documented in runtime/checkpoint.h.
#include <string>
#include <vector>

#include "runtime/checkpoint.h"
#include "runtime/executor.h"

namespace lahar {

Result<std::string> StreamRuntime::Checkpoint() const {
  // The state mutex serializes against the coordinator: a checkpoint taken
  // while running lands between windows, seeing a database and session pool
  // that are exactly at tick_.
  std::unique_lock<std::mutex> lock(state_mu_);
  // A checkpoint taken from *inside* the tick callback is special under
  // windowed execution: the callback for tick t fires after t's whole
  // window ran, so the sessions may already sit several ticks past t. The
  // snapshot must still be "as of t" (that is the contract the caller's
  // trigger logic sees), so it records tick = t and skips direct session
  // state — restore rebuilds every session by catching up over the
  // archived prefix to t, which is bit-identical to having saved at t. The
  // archive itself is saved in full, so the restored runtime re-executes the
  // ticks past t from its own database. Only the coordinator thread can be
  // inside a callback, which is why the thread-id check gates the
  // (unsynchronized, coordinator-only) callback_tick_ read.
  const bool mid_window = coordinator_.joinable() &&
                          std::this_thread::get_id() ==
                              coordinator_.get_id() &&
                          callback_tick_ != tick_;
  const Timestamp snap_tick = mid_window ? callback_tick_ : tick_;
  serial::Writer w;
  w.U32(kCheckpointMagic);
  w.U32(kCheckpointVersion);
  LAHAR_RETURN_NOT_OK(db_->SaveTo(&w));
  w.U32(snap_tick);
  std::vector<StreamId> ended;
  for (StreamId id = 0; id < db_->num_streams(); ++id) {
    if (watermark_.ended(id)) ended.push_back(id);
  }
  w.U64(ended.size());
  for (StreamId id : ended) w.U32(id);
  w.U64(registry_.size());
  for (const auto& q : registry_.queries()) {
    w.U64(q->id);
    w.Str(q->text);
    if (!mid_window && q->session->SupportsStateRestore()) {
      serial::Writer state;
      LAHAR_RETURN_NOT_OK(q->session->SaveState(&state));
      w.U8(1);
      w.Str(state.str());
    } else {
      // Sampling sessions rebuild on restore by drawing the same worlds
      // over the database prefix (their determinism comes from the seed).
      w.U8(0);
    }
  }
  // Sealed outside the lock: the coordinator only waits for serialization.
  lock.unlock();
  w.U32(serial::Crc32(w.str()));
  return w.str();
}

Status StreamRuntime::Restore(std::string_view snapshot) {
  if (started_.load()) {
    return Status::InvalidArgument(
        "Restore requires a runtime that has not been started");
  }
  std::lock_guard<std::mutex> lock(state_mu_);
  if (registry_.size() != 0) {
    return Status::InvalidArgument(
        "Restore requires an empty registry (queries come from the "
        "snapshot)");
  }
  if (snapshot.size() < kCheckpointTrailerBytes) {
    return Status::InvalidArgument("checkpoint shorter than its CRC trailer");
  }
  const std::string_view body =
      snapshot.substr(0, snapshot.size() - kCheckpointTrailerBytes);
  serial::Reader trailer(snapshot.substr(body.size()));
  uint32_t crc = 0;
  LAHAR_RETURN_NOT_OK(trailer.U32(&crc));
  if (crc != serial::Crc32(body)) {
    return Status::InvalidArgument("checkpoint CRC mismatch (corrupt file)");
  }
  serial::Reader r(body);
  uint32_t magic, version;
  LAHAR_RETURN_NOT_OK(r.U32(&magic));
  if (magic != kCheckpointMagic) {
    return Status::InvalidArgument("not a lahar checkpoint (bad magic)");
  }
  LAHAR_RETURN_NOT_OK(r.U32(&version));
  if (version != kCheckpointVersion) {
    return Status::InvalidArgument(
        "unsupported checkpoint version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kCheckpointVersion) +
        ")");
  }
  LAHAR_ASSIGN_OR_RETURN(std::unique_ptr<EventDatabase> loaded,
                         EventDatabase::LoadFrom(&r));
  uint32_t tick;
  LAHAR_RETURN_NOT_OK(r.U32(&tick));
  uint64_t num_ended;
  LAHAR_RETURN_NOT_OK(r.U64(&num_ended));
  std::vector<StreamId> ended(num_ended);
  for (uint64_t i = 0; i < num_ended; ++i) {
    LAHAR_RETURN_NOT_OK(r.U32(&ended[i]));
  }

  // Swap the snapshot's content into the caller's database in place: the
  // registry and every session hold the db_ pointer, so the object must
  // stay put.
  *db_ = std::move(*loaded);
  tick_ = tick;
  watermark_ = Watermark();
  for (StreamId id = 0; id < db_->num_streams(); ++id) {
    watermark_.Track(id, db_->stream(id).horizon());
  }
  for (StreamId id : ended) watermark_.MarkEnded(id);
  // Buffered updates were never part of the checkpoint; producers resend
  // everything newer than the checkpoint tick.
  reorder_.Clear();

  uint64_t num_queries;
  LAHAR_RETURN_NOT_OK(r.U64(&num_queries));
  for (uint64_t i = 0; i < num_queries; ++i) {
    uint64_t id;
    std::string text;
    uint8_t has_state;
    LAHAR_RETURN_NOT_OK(r.U64(&id));
    LAHAR_RETURN_NOT_OK(r.Str(&text));
    LAHAR_RETURN_NOT_OK(r.U8(&has_state));
    if (has_state != 0) {
      std::string blob;
      LAHAR_RETURN_NOT_OK(r.Str(&blob));
      serial::Reader state(blob);
      LAHAR_RETURN_NOT_OK(registry_.RestoreQuery(id, text, tick_, &state));
    } else {
      LAHAR_RETURN_NOT_OK(registry_.RestoreQuery(id, text, tick_, nullptr));
    }
  }

  {
    std::lock_guard<std::mutex> tick_lock(tick_mu_);
    published_tick_ = tick_;
    latest_.reset();
  }
  return Status::OK();
}

}  // namespace lahar
