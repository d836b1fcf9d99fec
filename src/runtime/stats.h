// Counters for the multi-query streaming runtime: per-query and per-shard
// advance latency, ticks processed, queue depth, and drops. Everything is a
// plain struct so benches and the CLI can print or serialize them without
// pulling in the runtime itself.
//
// Each struct lists its fields exactly once, in a static
// `template <class V> static void Fields(V&& v)` that calls
// `v(key, &Struct::member)` per field in export order, plus
// `v.Section(label)` to start a new line of the text form
// (`v.Section(nullptr)` goes back to the struct's first line). ToJson and
// ToString are generic walkers over those lists, so a counter added to a
// list reaches the text, the JSON and the wire kStats reply together.
#ifndef LAHAR_RUNTIME_STATS_H_
#define LAHAR_RUNTIME_STATS_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/counters.h"
#include "model/value.h"

namespace lahar {

/// Stable identifier of a registered standing query (see runtime/registry.h).
using QueryId = uint64_t;

/// Field-list flag: kWhenNonZero drops the field from the JSON while every
/// value in it is zero (the text form drops all-zero lines regardless).
enum class Presence { kAlways, kWhenNonZero };

/// \brief Summary of a latency distribution, in microseconds.
///
/// Percentiles come from a log-scale histogram (power-of-two nanosecond
/// buckets), so they are accurate to within a factor of ~2 — enough to spot
/// stragglers, not a substitute for a profiler.
struct LatencySummary {
  uint64_t count = 0;
  double min_us = 0;
  double mean_us = 0;
  double p50_us = 0;
  double p99_us = 0;
  double max_us = 0;

  template <class V>
  static void Fields(V&& v) {
    v("count", &LatencySummary::count);
    v("min_us", &LatencySummary::min_us);
    v("mean_us", &LatencySummary::mean_us);
    v("p50_us", &LatencySummary::p50_us);
    v("p99_us", &LatencySummary::p99_us);
    v("max_us", &LatencySummary::max_us);
  }
};

/// \brief Cheap fixed-size latency histogram (no allocation on record).
class LatencyRecorder {
 public:
  void Record(uint64_t ns);
  LatencySummary Summarize() const;
  void Reset();

 private:
  static constexpr size_t kBuckets = 64;  // bucket b covers [2^b, 2^{b+1}) ns
  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
  uint64_t min_ns_ = UINT64_MAX;
  uint64_t max_ns_ = 0;
  double sum_ns_ = 0;
};

/// \brief Per-query counters, snapshot at Stats() time. The session's own
/// counters (sharing, SIMD kernel, memory, safe-plan caches) are
/// the SessionCounters base.
struct QueryStats : SessionCounters {
  QueryId id = 0;
  std::string text;
  /// Query class and serving engine names (strings so this header stays
  /// free of analysis/engine includes).
  std::string query_class;
  std::string engine;
  /// False when the session serves (epsilon, delta) sampling estimates.
  bool exact = true;
  /// Shardable units: chains for streaming sessions, samples for sampling
  /// sessions, 1 for a safe plan.
  size_t num_chains = 0;
  uint64_t ticks = 0;
  uint64_t errors = 0;      ///< ticks whose CommitAdvance failed
  std::string last_error;   ///< empty when the last commit succeeded
  /// Wall time spent stepping this query's units per tick (summed across
  /// the shards that shared them).
  LatencySummary advance;
  /// Kernel-cache lookups attributable to building this query's session
  /// (hits mean a structurally equal kernel compiled earlier — by this
  /// query or any other — was reused; see docs/SHARING.md).
  uint64_t kernel_hits = 0;
  uint64_t kernel_misses = 0;

  template <class V>
  static void Fields(V&& v) {
    v("id", &QueryStats::id);
    v("class", &QueryStats::query_class);
    v("engine", &QueryStats::engine);
    v("exact", &QueryStats::exact);
    v("units", &QueryStats::num_chains);
    v("ticks", &QueryStats::ticks);
    v("errors", &QueryStats::errors);
    v("kernel_hits", &QueryStats::kernel_hits);
    v("kernel_misses", &QueryStats::kernel_misses);
    v.Section("sharing");
    KernelFields(v);
    v.Section("memory");
    MemoryFields(v);
    v.Section(nullptr);
    v("text", &QueryStats::text);
    v("last_error", &QueryStats::last_error);
    v.Section("safe");
    MemoFields(v);
    v("advance", &QueryStats::advance);
  }
};

/// \brief Per-shard counters, snapshot at Stats() time.
struct ShardStats {
  size_t shard = 0;
  uint64_t ticks = 0;
  uint64_t chains_stepped = 0;
  /// Wall time the shard spent on its work items per tick.
  LatencySummary tick;

  template <class V>
  static void Fields(V&& v) {
    v("shard", &ShardStats::shard);
    v("ticks", &ShardStats::ticks);
    v("chains_stepped", &ShardStats::chains_stepped);
    v("tick", &ShardStats::tick);
  }
};

/// \brief Per-tenant admission-control counters (see net/server.h).
struct NetTenantStats {
  uint64_t ingest_frames = 0;   ///< ingest frames accepted into the queue
  uint64_t quota_rejected = 0;  ///< ingest frames shed by the token bucket

  template <class V>
  static void Fields(V&& v) {
    v("ingest", &NetTenantStats::ingest_frames);
    v("quota_rejected", &NetTenantStats::quota_rejected);
  }
};

/// \brief Counters for the TCP serving front-end (net/server.h), merged
/// into RuntimeStats by Server::Stats(). All zero when no server is
/// attached, in which case both exports omit the net section.
struct NetStats {
  size_t connections = 0;          ///< currently open
  uint64_t total_connections = 0;  ///< accepted since Start
  uint64_t frames_in = 0;
  uint64_t frames_out = 0;
  uint64_t bytes_in = 0;
  uint64_t bytes_out = 0;
  uint64_t protocol_errors = 0;   ///< error frames sent for malformed input
  uint64_t quota_rejected = 0;    ///< ingest frames shed by tenant quotas
  uint64_t backpressure_rejected = 0;  ///< ingest frames shed, queue full
  uint64_t slow_disconnects = 0;  ///< connections dropped at the outbound cap
  size_t subscriptions = 0;       ///< live (connection, query) subscriptions
  /// (tenant name, counters), sorted by tenant name.
  std::vector<std::pair<std::string, NetTenantStats>> tenants;

  template <class V>
  static void Fields(V&& v) {
    v("connections", &NetStats::connections);
    v("total_connections", &NetStats::total_connections);
    v("subscriptions", &NetStats::subscriptions);
    v("frames_in", &NetStats::frames_in);
    v("frames_out", &NetStats::frames_out);
    v("bytes_in", &NetStats::bytes_in);
    v("bytes_out", &NetStats::bytes_out);
    v("protocol_errors", &NetStats::protocol_errors);
    v("quota_rejected", &NetStats::quota_rejected);
    v("backpressure_rejected", &NetStats::backpressure_rejected);
    v("slow_disconnects", &NetStats::slow_disconnects);
    v("tenants", &NetStats::tenants);
  }
};

/// \brief Full runtime snapshot. The SessionCounters base holds the totals
/// of every query's session counters.
struct RuntimeStats : SessionCounters {
  Timestamp tick = 0;            ///< last completed tick
  uint64_t ticks_processed = 0;  ///< ticks executed since Start
  size_t num_queries = 0;
  size_t total_chains = 0;
  size_t num_threads = 0;
  size_t queue_depth = 0;
  size_t queue_capacity = 0;
  uint64_t queue_dropped = 0;    ///< TryPush load-shed (queue at capacity)
  uint64_t queue_closed_rejected = 0;  ///< TryPush after Close (shutdown)
  uint64_t batches_applied = 0;
  uint64_t batches_rejected = 0;  ///< malformed batches skipped by ingest
  std::string last_ingest_error;  ///< empty when every batch applied cleanly
  size_t reorder_depth = 0;       ///< updates held in the reorder buffer
  size_t reorder_window = 0;      ///< configured reorder window (ticks)
  uint64_t reorder_late_dropped = 0;  ///< stale duplicates dropped
  uint64_t reorder_merged = 0;        ///< buffered duplicates merged away
  /// The live database's stored CPT entries (nonzero transitions) and the
  /// bytes their sparse slices hold (model/cpt.h).
  size_t cpt_entries = 0;
  size_t cpt_bytes = 0;
  /// Registered queries per class, (class name, count) in class order —
  /// every class the runtime is currently serving, including approximate
  /// sampling sessions.
  std::vector<std::pair<std::string, size_t>> class_counts;
  /// Per-tick advance latency aggregated per query class, (class name,
  /// summary) in class order, for the classes that have run a tick —
  /// makes a regression in one class observable even when the mixed tick
  /// latency hides it.
  std::vector<std::pair<std::string, LatencySummary>> class_latency;
  // --- cross-query sharing counters (docs/SHARING.md) ---------------------
  /// Materialized sharing groups: sub-chain units stepped once per tick
  /// and read by >= 2 sessions.
  size_t sharing_groups = 0;
  /// Chain steps executed by shared units since Start.
  uint64_t shared_steps_executed = 0;
  /// Chain steps the readers did NOT execute thanks to sharing: every unit
  /// step saves (readers - 1) private steps.
  uint64_t shared_steps_saved = 0;
  /// Group fan-out (readers per materialized group), log2 buckets like
  /// window_size_hist: [1] [2] [3-4] [5-8] ... 65+.
  std::vector<uint64_t> sharing_fanout_hist;
  /// Textually identical registrations served from the prepared-plan cache
  /// instead of reparsing and reclassifying.
  uint64_t prepared_dedup_hits = 0;
  /// Catch-ups that adopted a complete set of live shared units instead
  /// of replaying the history (docs/SHARING.md), and catch-ups that
  /// replayed it (no complete twin, sharing off, Safe or sampled queries,
  /// restores without saved state).
  uint64_t registrations_adopted = 0;
  uint64_t registrations_replayed = 0;
  /// Registry-wide compiled-kernel cache: lookups across every session
  /// build plus the number of distinct kernels held.
  uint64_t kernel_cache_hits = 0;
  uint64_t kernel_cache_misses = 0;
  size_t kernel_cache_entries = 0;
  /// End-to-end per-tick wall time. Under windowed execution each tick of
  /// a window records the window's wall time divided by its width, so the
  /// count still equals ticks_processed and the mean is the true
  /// amortized per-tick cost.
  LatencySummary tick_latency;
  // --- windowed-executor counters (see runtime/executor.h) ---------------
  uint64_t windows_executed = 0;  ///< batched windows run (>= 1 tick each)
  size_t max_window_ticks = 0;    ///< configured window cap (W <= this)
  /// Window widths, log2 buckets: [1] [2] [3-4] [5-8] [9-16] [17-32]
  /// [33-64] and 65+. Mass in the first bucket means producers never run
  /// ahead (per-tick barriers); mass to the right is amortized handshakes.
  std::vector<uint64_t> window_size_hist;
  uint64_t steals = 0;      ///< whole sessions moved between shards by rebalances
  uint64_t split_placements = 0;  ///< split-group primary-shard moves
  uint64_t rebalances = 0;  ///< drift-triggered plan rebuilds
  /// Work-plan rebuilds of any cause: registry churn (register/unregister
  /// bumps the version; the next window rebuilds from static costs) plus
  /// the drift rebalances above. Deterministically >= 1 once a window has
  /// run, and grows with each churn batch — unlike steals, which require a
  /// measured drift rebalance to move an owner.
  uint64_t plan_rebuilds = 0;
  /// Coordinator wait at the end-of-window barrier (one record per window,
  /// multi-threaded runs only) — the pool's straggler skew.
  LatencySummary barrier_wait;
  /// TCP front-end counters; all-zero unless the stats came through
  /// net::Server::Stats() (a bare StreamRuntime has no server attached).
  NetStats net;
  std::vector<QueryStats> queries;
  std::vector<ShardStats> shards;

  template <class V>
  static void Fields(V&& v) {
    v("tick", &RuntimeStats::tick);
    v("ticks_processed", &RuntimeStats::ticks_processed);
    v("queries", &RuntimeStats::num_queries);
    v("chains", &RuntimeStats::total_chains);
    v("threads", &RuntimeStats::num_threads);
    v.Section("ingest");
    v("queue_depth", &RuntimeStats::queue_depth);
    v("queue_capacity", &RuntimeStats::queue_capacity);
    v("queue_dropped", &RuntimeStats::queue_dropped);
    v("queue_closed_rejected", &RuntimeStats::queue_closed_rejected);
    v("batches_applied", &RuntimeStats::batches_applied);
    v("batches_rejected", &RuntimeStats::batches_rejected);
    v("last_ingest_error", &RuntimeStats::last_ingest_error);
    v.Section("reorder");
    v("reorder_depth", &RuntimeStats::reorder_depth);
    v("reorder_window", &RuntimeStats::reorder_window);
    v("reorder_late_dropped", &RuntimeStats::reorder_late_dropped);
    v("reorder_merged", &RuntimeStats::reorder_merged);
    v.Section("cpt");
    v("cpt_entries", &RuntimeStats::cpt_entries);
    v("cpt_bytes", &RuntimeStats::cpt_bytes);
    v.Section("windows");
    v("windows_executed", &RuntimeStats::windows_executed);
    v("max_window_ticks", &RuntimeStats::max_window_ticks);
    v("steals", &RuntimeStats::steals);
    v("split_placements", &RuntimeStats::split_placements);
    v("rebalances", &RuntimeStats::rebalances);
    v("plan_rebuilds", &RuntimeStats::plan_rebuilds);
    v("window_size_hist", &RuntimeStats::window_size_hist);
    v("barrier_wait", &RuntimeStats::barrier_wait);
    v("classes", &RuntimeStats::class_counts);
    v.Section("safe");
    MemoFields(v);
    v.Section("memory");
    MemoryFields(v);
    v.Section("sharing");
    v("sharing_groups", &RuntimeStats::sharing_groups);
    v("shared_steps_executed", &RuntimeStats::shared_steps_executed);
    v("shared_steps_saved", &RuntimeStats::shared_steps_saved);
    v("prepared_dedup_hits", &RuntimeStats::prepared_dedup_hits);
    v("registrations_adopted", &RuntimeStats::registrations_adopted);
    v("registrations_replayed", &RuntimeStats::registrations_replayed);
    v("kernel_cache_hits", &RuntimeStats::kernel_cache_hits);
    v("kernel_cache_misses", &RuntimeStats::kernel_cache_misses);
    v("kernel_cache_entries", &RuntimeStats::kernel_cache_entries);
    KernelFields(v);
    v("sharing_fanout_hist", &RuntimeStats::sharing_fanout_hist);
    v("class_latency", &RuntimeStats::class_latency);
    v("net", &RuntimeStats::net, Presence::kWhenNonZero);
    v("query_stats", &RuntimeStats::queries);
    v("shards", &RuntimeStats::shards);
    v("tick_latency", &RuntimeStats::tick_latency);
  }

  /// Multi-line human-readable form: one `label: key=value ...` line per
  /// section, nested objects indented below, all-zero lines dropped.
  std::string ToString() const;
  /// One JSON object (the shape bench_t04_runtime_scaling emits per cell,
  /// and the body of the wire kStats reply). All embedded strings — query
  /// text, error messages, tenant names — are JSON-escaped, so a query
  /// containing `"` stays parseable.
  std::string ToJson() const;
};

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes, and control characters).
std::string JsonEscape(std::string_view s);

}  // namespace lahar

#endif  // LAHAR_RUNTIME_STATS_H_
