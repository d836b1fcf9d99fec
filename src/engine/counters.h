// The stats-only counters of one standing-query session, declared once.
// Every QuerySession reports them through Counters(); the runtime embeds
// the struct per query and sums it into its totals, and the stats exports
// (runtime/stats.h) render it from the field lists below, so no counter is
// named twice.
#ifndef LAHAR_ENGINE_COUNTERS_H_
#define LAHAR_ENGINE_COUNTERS_H_

#include <cstddef>
#include <cstdint>

namespace lahar {

/// \brief Counters of one session. Sessions that lack a layer leave its
/// counters at zero; step counts are lifetime totals.
struct SessionCounters {
  // --- cross-query sharing and the SIMD kernel path -----------------------
  /// Units currently delegated to cross-query shared sub-chains
  /// (docs/SHARING.md).
  size_t shared_units = 0;
  /// Units stepping on the vectorized SoA kernel path (docs/PERF.md).
  size_t simd_units = 0;
  /// Whole-stripe steps taken / stripes demoted to per-unit steps.
  /// Fallbacks are data-dependent and scheduler-independent: the executor
  /// aligns shard splits on stripe boundaries, so rebalances and steals
  /// must not grow them (asserted by tests/chain_state_test.cc).
  uint64_t stripe_steps = 0;
  uint64_t stripe_fallbacks = 0;
  // --- memory -------------------------------------------------------------
  /// Chain memory footprint in bytes: the state arena, per-chain owned
  /// heap and pooled transition rows (ExtendedRegularEngine::Footprint).
  size_t bytes_resident = 0;
  // --- safe-plan caches (engine/safe_engine.h) ----------------------------
  size_t memo_entries = 0;      ///< live (ts, tf) interval memo entries
  uint64_t memo_hits = 0;       ///< interval memo hits
  uint64_t memo_misses = 0;     ///< interval memo misses (computed fresh)
  uint64_t memo_evictions = 0;  ///< entries overwritten by the bounded memo
  size_t rows_live = 0;         ///< live reg-leaf interval rows
  uint64_t row_evictions = 0;   ///< LRU reg-row evictions
  uint64_t row_rebuilds = 0;    ///< evicted rows rebuilt from a keyframe

  // Field lists: each counter once, as (export key, member). The groups
  // are separate because the runtime snapshot interleaves them with its
  // own counters; Fields walks all three.
  template <class V>
  static void KernelFields(V&& v) {
    v("shared_units", &SessionCounters::shared_units);
    v("simd_units", &SessionCounters::simd_units);
    v("stripe_steps", &SessionCounters::stripe_steps);
    v("stripe_fallbacks", &SessionCounters::stripe_fallbacks);
  }
  template <class V>
  static void MemoryFields(V&& v) {
    v("bytes_resident", &SessionCounters::bytes_resident);
  }
  template <class V>
  static void MemoFields(V&& v) {
    v("safe_memo_entries", &SessionCounters::memo_entries);
    v("safe_memo_hits", &SessionCounters::memo_hits);
    v("safe_memo_misses", &SessionCounters::memo_misses);
    v("safe_memo_evictions", &SessionCounters::memo_evictions);
    v("safe_rows_live", &SessionCounters::rows_live);
    v("safe_row_evictions", &SessionCounters::row_evictions);
    v("safe_row_rebuilds", &SessionCounters::row_rebuilds);
  }
  template <class V>
  static void Fields(V&& v) {
    KernelFields(v);
    MemoryFields(v);
    MemoFields(v);
  }

  /// Field-wise sum (runtime totals across sessions).
  SessionCounters& operator+=(const SessionCounters& o) {
    Fields([&](const char*, auto m) { this->*m += o.*m; });
    return *this;
  }
};

}  // namespace lahar

#endif  // LAHAR_ENGINE_COUNTERS_H_
