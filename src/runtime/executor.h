// The multi-query streaming runtime: owns an EventDatabase, a registry of
// standing QuerySessions (one per registered query, of whatever class), and
// a worker pool that advances every registered query through *batched tick
// windows*.
//
// Data flow per window:
//
//   producers --TickBatch--> IngestQueue --(bulk DrainWait)--> coordinator
//   applies every drained batch to the database and advances the
//   Watermark; if the watermark now covers ticks (tick_, tick_ + W]
//   (W <= RuntimeOptions::max_window_ticks), the coordinator publishes ONE
//   work epoch for the whole window. Each worker advances its
//   persistently-assigned sessions through all W ticks back to back —
//   PrepareAdvance / AdvanceShard / CommitAdvance per tick, results
//   committed lock-free into a preallocated window buffer — then raises
//   its per-shard completion flag. After the single end-of-window barrier
//   the coordinator harvests the buffer and publishes one immutable
//   TickResult per tick, in order.
//
// Windowing changes only where barriers happen, never what is computed:
// within a session the per-tick protocol (prepare, step units, commit) is
// exactly the sequential Advance() loop, so published probabilities and
// checkpoint bytes are bit-identical to per-tick execution
// (max_window_ticks == 1) and to a single-threaded run. The tick callback
// also still fires once per tick in order — checkpoint triggers and the
// net front-end's fan-out (src/net/server.cc) observe no difference
// beyond latency.
//
// Work assignment is persistent, not per-tick: the plan maps whole
// sessions to workers (cost-weighted greedy) and is rebuilt only when the
// registry version changes. A session heavier than ~1.5x the per-shard
// quota is split into unit ranges spread over several workers; those
// ranges synchronize per tick through the group's atomics (an atomic
// countdown elects the committing range; no mutex, no condvar). When a
// shard's measured window cost drifts >2x above the mean, the coordinator
// rebuilds the plan from measured per-session costs instead of static
// estimates and counts every session that changed owner as a steal.
//
// Synchronization budget per window: one mutex/condvar handshake to wake
// the pool and one to park the coordinator at the end-of-window barrier —
// per-tick work never takes a lock. The epoch counter and the per-shard
// completion flags are atomics; the window buffer is written by exactly
// one thread per (tick, query) slot.
//
// Threading contract: the database is written only by the coordinator, and
// only while no window is in flight; workers read it during the window.
// Register/Unregister/Checkpoint take the same state mutex the window loop
// holds, so they land between windows ("hot" but never mid-window).
// TickResult snapshots are immutable and handed to readers as shared_ptrs,
// so polling never contends with execution beyond a pointer copy.
#ifndef LAHAR_RUNTIME_EXECUTOR_H_
#define LAHAR_RUNTIME_EXECUTOR_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/ingest.h"
#include "runtime/registry.h"
#include "runtime/stats.h"

namespace lahar {

/// \brief Immutable per-tick snapshot: P[q@t] for every standing query.
struct TickResult {
  Timestamp t = 0;
  /// (QueryId, probability) in registration order (ascending id). A query
  /// whose CommitAdvance failed this tick is absent (see
  /// StandingQuery::last_error in the stats).
  std::vector<std::pair<QueryId, double>> probs;

  /// Probability for one query, or nullptr if it was not registered at t
  /// (or errored this tick).
  const double* Find(QueryId id) const;
};

/// Options for StreamRuntime.
struct RuntimeOptions {
  /// Worker threads stepping sessions. 0 means hardware_concurrency; 1 runs
  /// window work inline on the coordinator (no worker pool).
  size_t num_threads = 0;
  /// IngestQueue capacity, in TickBatches.
  size_t queue_capacity = 256;
  /// How far past a stream's next expected timestep (horizon+1) an update
  /// may arrive and still be buffered for later application (multi-producer
  /// reordering). 0 = strict in-order ingest: anything not immediately
  /// applicable is rejected. See ReorderBuffer in runtime/ingest.h.
  size_t reorder_window = 64;
  /// Upper bound on how many watermark-covered ticks one window executes
  /// (one worker handoff + one barrier per window, so the handshake cost is
  /// amortized up to this factor when producers run ahead). 1 restores
  /// per-tick barriers; 0 is treated as 1. Results are bit-identical for
  /// every value — only latency and throughput change.
  size_t max_window_ticks = 16;
  /// Session routing options (safe-plan compilation, sampling parameters,
  /// and whether Safe/Unsafe queries may fall back to sampling).
  LaharOptions session;
  /// Cross-query shared evaluation (docs/SHARING.md). `sharing.enabled =
  /// false` selects the bit-identical `unshared` verification mode.
  SharingOptions sharing;
};

/// \brief Concurrent multi-query streaming runtime over one database.
class StreamRuntime {
 public:
  /// The runtime adopts the database's current horizon as its starting
  /// tick: a preloaded archive is treated as already-consumed history
  /// (sessions registered later replay it to catch up), and fresh ticks
  /// begin at horizon+1. The caller keeps `db` alive and must not touch it
  /// while the runtime is running.
  explicit StreamRuntime(EventDatabase* db, RuntimeOptions options = {});
  ~StreamRuntime();

  StreamRuntime(const StreamRuntime&) = delete;
  StreamRuntime& operator=(const StreamRuntime&) = delete;

  /// Registers a standing query (see QueryRegistry::Register). Safe to call
  /// before Start or while running; while running, the registration lands
  /// between windows and the session is caught up to the current tick.
  Result<QueryId> Register(std::string_view text);
  Result<QueryId> Register(const PreparedQuery& prepared,
                           std::string_view text);
  Status Unregister(QueryId id);

  /// True while `id` names a registered standing query (used by the network
  /// front-end to validate subscriptions without snapshotting full stats).
  bool HasQuery(QueryId id) const;

  /// The ingestion queue producers push TickBatches into.
  IngestQueue& ingest() { return queue_; }

  /// Excludes a stream from the watermark (it has ended; sessions keep
  /// consuming certain-bottom for it). Wakes the coordinator so any ticks
  /// the ended stream was gating run immediately.
  void MarkStreamEnded(StreamId id);

  /// Launches the worker pool and the coordinator. Start/Stop are one-shot:
  /// a stopped runtime stays stopped.
  void Start();

  /// Stops ingesting (closes the queue), finishes the window in flight, and
  /// joins all threads. Idempotent.
  void Stop();

  bool running() const;

  /// Last completed tick (== database horizon at construction before any
  /// tick runs).
  Timestamp tick() const;

  /// Latest published snapshot (nullptr before the first tick). Costs one
  /// mutex-protected shared_ptr copy; never blocks on tick execution.
  std::shared_ptr<const TickResult> Latest() const;

  /// Blocks until tick `t` has completed, the runtime stops, or `timeout`
  /// expires. Returns true iff tick() >= t. Wakes promptly — and returns
  /// false — when the runtime stops mid-wait instead of sleeping out the
  /// timeout.
  bool WaitForTick(Timestamp t, std::chrono::milliseconds timeout) const;

  /// Called on the coordinator thread once per tick, in order, with the
  /// published snapshot (a window of W ticks fires it W times back to
  /// back). Settable any time (guarded against the coordinator's reads);
  /// keep it fast and do not call back into the runtime from it — except
  /// Checkpoint(), which is explicitly callback-safe.
  void SetTickCallback(std::function<void(const TickResult&)> callback);

  /// Snapshot of all counters. Callable any time; may wait for the window
  /// in flight.
  RuntimeStats Stats() const;

  /// One query's entry of Stats(), without snapshotting the rest; NotFound
  /// when `id` is not registered. Same locking as Stats().
  Result<QueryStats> QuerySnapshot(QueryId id) const;

  /// Ids of the registered queries, in registration order.
  std::vector<QueryId> QueryIds() const;

  /// Serializes the runtime's recoverable state — the database, the current
  /// tick, ended streams, and every standing query (with direct session
  /// state for the streaming engines) — into a versioned binary snapshot
  /// sealed with a CRC-32 trailer (runtime/checkpoint.h).
  /// Callable while running: it takes the state mutex, so it lands between
  /// windows, never mid-window (the tick callback is a natural place to
  /// call it from — the coordinator invokes callbacks with no locks held).
  /// Batches still buffered in the reorder stage are NOT part of a
  /// checkpoint; producers must resend ticks newer than the checkpoint tick
  /// on restart.
  Result<std::string> Checkpoint() const;

  /// Restores a snapshot produced by Checkpoint() into this runtime. Must
  /// be called before Start(), on a runtime whose database holds the same
  /// *declarations* (schemas, streams with full domains, relations) the
  /// checkpointed one started from — e.g. a CloneDeclarations() clone; the
  /// archived timesteps are replaced by the snapshot's. Registered queries
  /// are restored under their original ids; subsequent ticks produce
  /// results bit-identical to a runtime that was never interrupted. A
  /// snapshot whose CRC does not match fails with InvalidArgument before
  /// any of it is parsed.
  Status Restore(std::string_view snapshot);

 private:
  // One whole session owned end to end by one worker for the window (the
  // common case): the owner runs the per-tick protocol W times with no
  // synchronization at all.
  struct OwnedItem {
    StandingQuery* query;
    size_t index;  // registry position == window-buffer column
  };
  // A session too heavy for one worker: its unit ranges run on several
  // workers, synchronized per tick through these atomics (no locks). The
  // range that decrements `remaining` to zero commits the tick, prepares
  // the next one, and opens it by bumping `ready_tick`.
  struct SharedGroup {
    StandingQuery* query = nullptr;
    size_t index = 0;
    uint32_t nranges = 0;
    std::atomic<uint32_t> remaining{0};
    // Highest window tick (1-based) ranges may step; the coordinator arms
    // it to 1 after running the session's first PrepareAdvance.
    std::atomic<uint32_t> ready_tick{0};
  };
  struct SharedRange {
    SharedGroup* group;
    size_t begin;
    size_t end;
  };
  // Per-worker work for one window. `shared` is ordered by ascending group
  // index on every worker — all workers visit split sessions in the same
  // global order, which (with shared-before-owned execution) rules out
  // cross-group waiting cycles.
  struct ShardPlan {
    std::vector<SharedRange> shared;
    std::vector<OwnedItem> owned;
  };
  // One query's slot for one window tick. Written during the window by
  // exactly one thread (the owner, or the committing range of a split
  // session; `ns` alone takes concurrent relaxed adds from ranges), read
  // by the coordinator after the end-of-window barrier.
  struct WindowEntry {
    double prob = 0;
    bool ok = false;
    Status error;
    std::atomic<uint64_t> ns{0};
    WindowEntry() = default;
    // Vector growth only; never copied while a window is in flight.
    WindowEntry(const WindowEntry& o)
        : prob(o.prob), ok(o.ok), error(o.error), ns(o.ns.load()) {}
  };
  // Per-worker scratch: written exclusively by the owning worker during a
  // window, read by the coordinator after the barrier. done_epoch is the
  // per-shard completion flag of the epoch handshake.
  struct ShardScratch {
    uint64_t chains = 0;   // units stepped this window (summed per tick)
    uint64_t busy_ns = 0;  // wall time this worker spent on the window
    std::atomic<uint64_t> done_epoch{0};
  };
  struct ShardCounters {
    uint64_t ticks = 0;
    uint64_t chains = 0;
    LatencyRecorder latency;
  };

  // Builds one query's stats entry; requires state_mu_ held.
  QueryStats QueryEntry(const StandingQuery& q) const;
  void CoordinatorLoop();
  void ShardLoop(size_t shard);
  // Executes one window of `window` ticks, appending one published
  // snapshot per tick to *out; requires state_mu_ held and watermark
  // coverage through tick_ + window.
  void RunWindow(size_t window,
                 std::vector<std::shared_ptr<const TickResult>>* out);
  // One worker's share of the current window (also the inline path's body).
  void RunWindowShard(size_t shard);
  // Rebuilds the persistent plan; requires state_mu_ held and no window in
  // flight. `measured` switches the cost model from static UnitCost
  // estimates to measured per-session nanoseconds (drift rebalances) and
  // counts owner changes as steals.
  void RebuildPlan(bool measured);

  EventDatabase* db_;
  RuntimeOptions options_;
  size_t num_threads_;
  size_t window_cap_;  // max(1, options_.max_window_ticks)
  IngestQueue queue_;

  // --- state guarded by state_mu_ ---------------------------------------
  mutable std::mutex state_mu_;
  QueryRegistry registry_;
  Watermark watermark_;
  ReorderBuffer reorder_;
  Timestamp tick_ = 0;
  uint64_t ticks_processed_ = 0;
  uint64_t batches_applied_ = 0;
  uint64_t batches_rejected_ = 0;
  Status last_ingest_error_;
  LatencyRecorder tick_latency_;
  // Per-query-class advance latency, indexed by QueryClass enum order.
  std::array<LatencyRecorder, 4> class_latency_;
  uint64_t windows_executed_ = 0;
  // Window sizes, log2 buckets: [1] [2] [3-4] [5-8] [9-16] [17-32] [33-64]
  // and 65+.
  std::array<uint64_t, 8> window_size_hist_{};
  uint64_t steals_ = 0;      // whole sessions moved by drift rebalances
  uint64_t split_placements_ = 0;  // split-group primary-shard moves
  uint64_t rebalances_ = 0;  // drift-triggered plan rebuilds
  uint64_t plan_rebuilds_ = 0;  // all plan rebuilds (registry churn + drift)
  uint64_t last_rebalance_window_ = 0;
  LatencyRecorder barrier_wait_;  // coordinator wait at the window barrier
  uint64_t work_version_ = ~0ULL;  // registry version the plan matches

  // The window plan and buffer: written by the coordinator between windows
  // (under state_mu_), read by workers during one. Publication to the pool
  // happens-before via the work_mu_ handshake; completion happens-before
  // via the per-shard flags and the running-count decrement chain.
  size_t window_size_ = 0;
  std::vector<ShardPlan> shard_plan_;
  std::deque<SharedGroup> shared_groups_;  // stable addresses for the plan
  std::vector<std::vector<WindowEntry>> window_entries_;  // [tick][query]
  std::vector<ShardScratch> shard_scratch_;

  // --- worker pool handshake (work_mu_: sleep/wake only) ------------------
  mutable std::mutex work_mu_;
  std::condition_variable work_cv_;  // coordinator -> pool: new epoch
  std::condition_variable done_cv_;  // last worker -> coordinator
  std::atomic<uint64_t> epoch_{0};
  std::atomic<size_t> shards_running_{0};
  std::atomic<bool> shard_stop_{false};
  std::vector<ShardCounters> shard_counters_;  // merged under work_mu_

  // --- published results (tick_mu_) --------------------------------------
  mutable std::mutex tick_mu_;
  mutable std::condition_variable tick_cv_;
  Timestamp published_tick_ = 0;
  std::shared_ptr<const TickResult> latest_;

  // callback_mu_ guards tick_callback_: SetTickCallback may race the
  // coordinator's per-tick reads, so both sides lock (the coordinator
  // copies the callback out and invokes the copy without the lock).
  mutable std::mutex callback_mu_;
  std::function<void(const TickResult&)> tick_callback_;
  // Tick whose callback the coordinator is currently dispatching. Written
  // and read only on the coordinator thread (Checkpoint checks the thread
  // id before touching it), so it needs no lock: it lets a checkpoint
  // taken from inside the tick-t callback serialize at t even though the
  // sessions already sit at the end of t's window (see Checkpoint()).
  Timestamp callback_tick_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  std::vector<std::thread> shards_;
  std::thread coordinator_;
};

}  // namespace lahar

#endif  // LAHAR_RUNTIME_EXECUTOR_H_
