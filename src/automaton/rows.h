// Interned dense transition rows for the vectorized step path.
//
// The scalar kernel path (RegularChain::StepKernel) rebuilds sparse CSR
// successor rows per chain per tick. For the m per-key chains of one
// Extended query those rows are usually *identical*: every tag shares the
// same CPTs, only the initial marginal (t == 1) differs. This module makes
// that sharing explicit:
//
//   * TransitionRowSet — the dense per-source successor rows of one
//     timestep, laid out in the kernel's class-sorted slot space so the
//     vectorized step writes contiguous destination runs. Values are built
//     with exactly the scalar path's enumeration (left-associated products,
//     q <= 0 skipped), so the nonzero entries are bit-identical to the CSR
//     values; the extra zeros only ever add +0.0 to non-negative
//     accumulators, which is a bitwise no-op.
//   * TransitionRowClass — the per-timestep row sets of one *structure
//     class*: all chains with equal kernel signature and
//     per-Markovian-participant domains. Each resident timestep is keyed
//     by a content fingerprint of that tick's CPT slices, so reuse is
//     validated against the data actually stepped through — structurally
//     identical streams whose CPTs diverge at some tick simply hash to
//     different entries. A small per-class window of timestamps is kept so
//     chains stepping in loose lockstep share one build.
//   * TransitionRowPool — fingerprint-keyed registry of row classes,
//     shared registry-wide like the KernelCache. Neither key covers the
//     t == 1 initial marginal: per-key chains with distinct initials still
//     land in one class (t == 1 rows are always built chain-locally,
//     never pooled).
//
// Sharing assumes stream CPT slices are immutable once written; in-place
// mutation (Stream::PruneCpts) must happen before chains are created when
// a pool is in use. Horizon *growth* is safe by construction: appending
// tick t's slices never changes the content key of any earlier tick, so
// live-database chains keep pooling (and striping) as the stream extends —
// only a not-yet-covered tick builds an "ended" row, and that row's key
// differs from the post-append key, so it can never be read stale.
#ifndef LAHAR_AUTOMATON_ROWS_H_
#define LAHAR_AUTOMATON_ROWS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "model/value.h"

namespace lahar {

/// Dense successor rows for one timestep, in kernel slot space:
/// Row(h)[slot] = P(joint hidden h -> h_of[slot]). Immutable once built.
struct TransitionRowSet {
  uint64_t R = 0;
  /// No participant is in CPT phase this step (t == 1 marginal, or every
  /// stream ended): all sources share one successor row, stored once.
  bool broadcast = false;
  std::vector<double> rows;  ///< (broadcast ? 1 : R) x R

  const double* Row(uint64_t h) const {
    return rows.data() + (broadcast ? 0 : h * R);
  }
  size_t bytes() const { return rows.capacity() * sizeof(double); }
};

/// 128-bit content fingerprint (dual FNV-1a). Used twice: as the class key
/// (kernel signature and per-Markovian-participant domains —
/// structural identity only, stable while a live stream's horizon grows)
/// and as the per-timestep content key (that tick's CPT slices), which is
/// what actually guards row reuse. Splitting the two is what keeps pooling
/// and striping alive under the streaming runtime: appends move horizons
/// every tick, but never rewrite a CPT slice already stepped through.
struct RowFingerprint {
  uint64_t lo = 0xcbf29ce484222325ULL;
  uint64_t hi = 0x84222325cbf29ce4ULL;

  void Mix(const void* data, size_t n) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      lo = (lo ^ p[i]) * 0x100000001b3ULL;
      hi = (hi ^ p[i]) * 0x00000100000001b3ULL + 0x9e3779b97f4a7c15ULL;
    }
  }
  void MixU64(uint64_t v) { Mix(&v, sizeof(v)); }

  bool operator==(const RowFingerprint& o) const {
    return lo == o.lo && hi == o.hi;
  }
};

/// The per-timestep row sets of one content class. Thread-safe; keeps a
/// small window of timestamps so loosely-lockstepped chains share builds
/// without the window growing with the horizon.
class TransitionRowClass {
 public:
  /// Row set for timestep t with the given content key, or null if not
  /// resident. Class members whose streams diverge at t (same structure,
  /// different CPT slice) hash to different keys and never cross-read.
  std::shared_ptr<const TransitionRowSet> Find(Timestamp t,
                                              const RowFingerprint& fp) const;

  /// Inserts the row set for (t, fp) and returns the canonical resident
  /// set: the already-present one if another chain won the build race
  /// (both builds are deterministic and value-identical, but converging on
  /// one pointer lets stripes recognize shared content by identity).
  std::shared_ptr<const TransitionRowSet> Insert(
      Timestamp t, const RowFingerprint& fp,
      std::shared_ptr<const TransitionRowSet> set);

  /// Cumulative rebuilds of a timestep that had already been evicted
  /// (chains stepping further apart than the residency window).
  uint64_t rebuilds() const;
  /// Bytes held by the resident row sets.
  size_t bytes() const;

 private:
  // Residency window: chains step within a few ticks of each other under
  // every executor mode (batched windows are <= 16 ticks), so a handful of
  // timestamps covers the live spread; lowest t is the least useful.
  static constexpr size_t kMaxResident = 4;

  struct Entry {
    RowFingerprint fp;
    std::shared_ptr<const TransitionRowSet> set;
  };

  mutable std::mutex mu_;
  // One short vector per timestep: almost always a single entry; longer
  // only when structurally identical streams carry divergent CPT slices.
  std::map<Timestamp, std::vector<Entry>> sets_;
  uint64_t rebuilds_ = 0;
  Timestamp max_seen_ = 0;
};

/// Fingerprint-keyed registry of row classes. One pool hangs off every
/// PreparedQuery (runtime registry shares it across sessions, like the
/// KernelCache); the extended engine falls back to a Create-local pool so
/// the per-key chains of a single query still share. Chains hold their
/// class by shared_ptr, so a pool may die before the chains using it.
class TransitionRowPool {
 public:
  struct Stats {
    uint64_t hits = 0;    ///< chain creations that joined an existing class
    uint64_t misses = 0;  ///< chain creations that opened a new class
  };

  std::shared_ptr<TransitionRowClass> FindOrCreate(const RowFingerprint& fp);

  size_t size() const;
  Stats stats() const;

 private:
  struct FpHash {
    size_t operator()(const RowFingerprint& fp) const {
      return static_cast<size_t>(fp.lo ^ (fp.hi * 0x9e3779b97f4a7c15ULL));
    }
  };

  mutable std::mutex mu_;
  Stats stats_;
  std::unordered_map<RowFingerprint, std::shared_ptr<TransitionRowClass>,
                     FpHash>
      classes_;
};

}  // namespace lahar

#endif  // LAHAR_AUTOMATON_ROWS_H_
