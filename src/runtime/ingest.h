// Ingestion for the multi-query streaming runtime: per-timestep batches of
// inference output (marginals for independent streams, CPTs for Markovian
// ones) flow through a bounded MPSC queue into the runtime's database.
//
// Backpressure is explicit: TryPush never blocks (the caller decides to
// drop), Push blocks until space frees up or a deadline expires. A
// Watermark tracks the highest timestep each stream has covered; the
// executor only runs tick t once min-over-streams reaches t, so no session
// ever reads a half-filled timestep.
#ifndef LAHAR_RUNTIME_INGEST_H_
#define LAHAR_RUNTIME_INGEST_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "model/database.h"

namespace lahar {

/// \brief One stream's payload for one timestep.
///
/// Exactly one of `marginal` / `cpt` is set, matching the stream's flavour:
/// independent streams take a marginal every timestep; Markovian streams
/// take a marginal at t=1 (the initial distribution) and a CPT afterwards.
struct StreamUpdate {
  StreamId stream = 0;
  std::vector<double> marginal;
  std::optional<Matrix> cpt;
};

/// \brief Everything the producers learned about timestep `t`.
///
/// A batch need not cover every stream (multiple producers can each own a
/// stream subset and push their own batches for the same tick); the
/// watermark holds tick execution until the union of batches covers t.
struct TickBatch {
  Timestamp t = 0;
  std::vector<StreamUpdate> updates;
};

/// \brief Bounded multi-producer single-consumer queue of TickBatches.
class IngestQueue {
 public:
  explicit IngestQueue(size_t capacity) : capacity_(capacity) {}

  /// Non-blocking push; returns false (and counts a drop) when the queue is
  /// full or closed.
  bool TryPush(TickBatch batch);

  /// Blocking push with a deadline. Returns OutOfRange when the queue stays
  /// full past the deadline, InvalidArgument when the queue is closed.
  Status Push(TickBatch batch, std::chrono::milliseconds deadline);

  /// Bulk drain (consumer side): blocks until at least one batch is queued,
  /// the queue is closed, or Wake() is called, then moves *every* queued
  /// batch onto the back of `*out` and returns the number drained. There is
  /// no polling interval — the wait is a condition variable signaled by
  /// Push/TryPush/Close/Wake, so a quiet queue costs zero wakeups and a
  /// push is seen immediately. Returns 0 only on close or an explicit Wake
  /// with nothing queued.
  size_t DrainWait(std::vector<TickBatch>* out);

  /// Wakes a blocked DrainWait even though no batch arrived. Used when
  /// consumer-visible state *outside* the queue changed (e.g. the runtime's
  /// watermark after MarkStreamEnded) and the consumer must re-check it.
  void Wake();

  /// Rejects all future pushes and wakes every waiter. Queued batches can
  /// still be drained; DrainWait returns 0 at once when none are left.
  void Close();

  bool closed() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }
  /// Number of TryPush calls shed because the queue was at capacity.
  /// Shutdown rejections are counted separately (closed_rejected) so
  /// backpressure telemetry is not polluted by producers racing Close().
  uint64_t dropped() const;
  /// Number of TryPush calls rejected because the queue was closed.
  uint64_t closed_rejected() const;

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<TickBatch> batches_;
  bool closed_ = false;
  bool wake_pending_ = false;
  uint64_t dropped_ = 0;
  uint64_t closed_rejected_ = 0;
};

/// \brief Tracks, per stream, the highest timestep whose data has been
/// applied to the database. Safe() is the min across tracked streams: the
/// highest tick every session may consume.
class Watermark {
 public:
  /// Safe() when no stream gates ticks (none tracked, or all ended): there
  /// is no bound to enforce, but also nothing arriving — the executor runs
  /// no further ticks.
  static constexpr Timestamp kUnbounded = UINT32_MAX;

  /// Starts tracking `id` with `covered` timesteps already present.
  void Track(StreamId id, Timestamp covered);

  /// Records that `id` now covers timestep `t` (monotone; lower t ignored).
  void Advance(StreamId id, Timestamp t);

  /// Excludes `id` from Safe(): the stream has ended and will not gate
  /// ticks any more (its sessions keep consuming certain-bottom).
  void MarkEnded(StreamId id);

  /// Min covered timestep across tracked, non-ended streams; kUnbounded
  /// when nothing gates (no tracked streams or all ended).
  Timestamp Safe() const;

  /// True when `id` is tracked and has been MarkEnded.
  bool ended(StreamId id) const;

  size_t num_tracked() const { return num_tracked_; }

 private:
  static constexpr Timestamp kEnded = kUnbounded;
  std::vector<Timestamp> covered_;  // indexed by StreamId; kEnded = excluded
  std::vector<bool> tracked_;
  size_t num_tracked_ = 0;
};

/// Applies one batch to the database **transactionally**: every update is
/// validated (stream bounds, flavour, distribution/CPT shape and sums,
/// `batch.t == stream.horizon()+1`, no duplicate stream within the batch)
/// before anything is mutated. A rejected batch therefore leaves the
/// database and the watermark untouched, and the producer can retry the
/// identical batch once whatever it was missing has been fixed — retries
/// are idempotent, never wedged on a half-advanced horizon.
///
/// On success, marginals append to independent streams (or seed empty
/// Markovian streams at t=1), CPTs append Markov steps, and `watermark`
/// advances for each applied stream.
Status ApplyBatch(EventDatabase* db, const TickBatch& batch,
                  Watermark* watermark);

/// \brief Bounded per-stream reorder stage in front of ApplyBatch.
///
/// Multi-producer races deliver batches out of order and occasionally twice.
/// The buffer classifies every update against its stream's current horizon:
///
///  * `t <= horizon`        — data already applied; dropped as a benign
///                            duplicate (counted in late_dropped()).
///  * `t == horizon + 1`    — due now; handed back to the caller to apply.
///  * within the window     — held until its tick is next. A second update
///                            for the same (tick, stream) slot merges
///                            first-wins (counted in merged()).
///  * beyond the window, or an unknown stream — the *whole* batch is
///                            rejected untouched (the bound keeps a
///                            runaway producer from ballooning memory).
///
/// Single-consumer, like ApplyBatch: the runtime coordinator owns it.
class ReorderBuffer {
 public:
  /// `window` = how far past horizon+1 an update may arrive and still be
  /// buffered (0 = strict in-order ingest).
  explicit ReorderBuffer(size_t window) : window_(window) {}

  /// Classifies `batch` (see class comment). Due updates are appended to
  /// `*due`; buffered ones are held. Returns non-OK — with the buffer and
  /// `*due` untouched — when any update is out of window or unknown.
  Status Offer(const EventDatabase& db, TickBatch batch,
               std::vector<StreamUpdate>* due);

  /// Pops every buffered update that has become due (its tick is now
  /// horizon+1 for its stream), for the smallest such tick, into `*out`.
  /// Returns false when nothing is due. Callers loop: applying one due
  /// group advances horizons, which may make the next group due.
  bool PopDue(const EventDatabase& db, TickBatch* out);

  /// Number of updates currently held.
  size_t depth() const { return buffered_.size(); }
  size_t window() const { return window_; }
  /// Updates dropped because their tick was already applied (duplicates).
  uint64_t late_dropped() const { return late_dropped_; }
  /// Updates merged away because the same (tick, stream) slot was already
  /// buffered (first write wins).
  uint64_t merged() const { return merged_; }

  /// Discards everything held (checkpoint restore: producers resend).
  void Clear() { buffered_.clear(); }

 private:
  const size_t window_;
  // Ordered by (tick, stream) so PopDue scans due ticks smallest-first.
  std::map<std::pair<Timestamp, StreamId>, StreamUpdate> buffered_;
  uint64_t late_dropped_ = 0;
  uint64_t merged_ = 0;
};

}  // namespace lahar

#endif  // LAHAR_RUNTIME_INGEST_H_
