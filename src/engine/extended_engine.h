// Extended Regular Queries (Section 3.2): one regular Markov chain per
// grounding of the shared variables; the groundings use disjoint tuples, so
// their truths are independent and combine as 1 - prod(1 - p_i).
//
// Space is O(m) in the number of distinct keys m, independent of stream
// length (Theorem 3.7), and each timestep costs O(m) chain steps. Every
// grounding holds one live RegularChain from query start; checkpoints
// encode each chain through its ChainState value (engine/regular_engine.h).
#ifndef LAHAR_ENGINE_EXTENDED_ENGINE_H_
#define LAHAR_ENGINE_EXTENDED_ENGINE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "analysis/prepared.h"
#include "engine/regular_engine.h"
#include "engine/session.h"

namespace lahar {

/// \brief Engine for Extended Regular (and Regular) queries; the session
/// that serves them.
///
/// Units are the per-grounding chains (the O(m) of Theorem 3.7). Shard
/// groups are the lane-interleaved stripes, and every grounded chain is a
/// shareable unit keyed by the canonical form of its grounded query
/// (docs/SHARING.md).
class ExtendedRegularEngine : public QuerySession {
 public:
  /// Builds one chain per grounding of the shared variables. Fails with
  /// UnsafeQuery (carrying the class in the kQueryClassPayload payload)
  /// unless the prepared query is Regular or Extended Regular. Keys and
  /// value domains visible at creation are final: streams added or domain
  /// values interned later are not picked up (the paper's per-key chains
  /// are likewise fixed at query start).
  ///
  /// All groundings share one NFA structure, so their compiled kernels
  /// dedupe through prepared.kernel_cache and their dense rows through
  /// prepared.row_pool: the m per-key chains hold one shared
  /// CompiledKernel. The compiled chains' state vectors are additionally
  /// packed into one engine-owned contiguous arena ([chain0 cur | chain0
  /// nxt | chain1 cur | ...]) so a timestep walks memory linearly instead
  /// of m scattered heap blocks.
  static Result<ExtendedRegularEngine> Create(const PreparedQuery& prepared,
                                              const EventDatabase& db,
                                              const ChainOptions& options = {});

  // --- QuerySession --------------------------------------------------------
  Timestamp time() const override { return t_; }
  size_t num_units() const override { return chains_.size(); }
  /// Delegated chains cost one frontier read.
  size_t UnitCost(size_t i) const override {
    return IsDelegated(i) ? 1 : chains_[i].StepCost();
  }
  /// The whole lane-interleaved stripe for stripe lanes, i + 1 otherwise:
  /// splitting a stripe across shards would demote every lane to per-chain
  /// fallback steps.
  size_t UnitGroupEnd(size_t i) const override {
    if (i >= stripe_width_.size()) return i + 1;
    size_t j = i;
    while (j > 0 && stripe_width_[j] == 0) --j;  // member lane -> leader
    const uint32_t w = stripe_width_[j];
    return w > 1 ? j + w : i + 1;
  }
  /// Advances the chains in [begin, end) to time()+1. Chains are
  /// independent, so disjoint ranges may run on different threads.
  void AdvanceShard(size_t begin, size_t end) override;
  /// Advances the clock and combines the per-chain probabilities in chain
  /// order as 1 - prod(1 - p_i); surfaces ChainStatus().
  Result<double> CommitAdvance() override;
  /// Sharing, SIMD-kernel and memory counters (docs/PERF.md).
  SessionCounters Counters() const override;

  /// Serializes the clock, chain probabilities, and every chain's state
  /// distribution: chain state is O(chains), so checkpoints store it
  /// instead of replaying the archived prefix. LoadState restores into an
  /// engine built by the same query over an identical database snapshot —
  /// chain count and per-chain hidden-slot layout must match — after which
  /// stepping continues bit-identically.
  bool SupportsStateRestore() const override { return true; }
  Status SaveState(serial::Writer* w) const override;
  Status LoadState(serial::Reader* r) override;

  size_t NumShareableUnits() const override { return chains_.size(); }
  std::string ShareableUnitKey(size_t i) const override;
  std::shared_ptr<SharedSubChain> MakeSharedUnit(
      size_t i, size_t frontier_history) const override;
  /// Delegation stops stepping chain i's private copy and reads per-tick
  /// probabilities from the unit's frontier; refused when either side has
  /// a latched error or the unit's clock is not time(). The private chain
  /// stays frozen as a fallback until undelegation (null `unit`) copies the
  /// shared state back.
  bool DelegateUnit(size_t i,
                    const std::shared_ptr<SharedSubChain>& unit) override;
  /// Joins one unit per chain at `tick` without stepping: every chain is
  /// delegated, the clock jumps to `tick` and each chain probability is
  /// its unit's ProbAt(tick) — the state a replay to `tick` would hold,
  /// since equal canonical keys step to equal doubles. The private chains
  /// stay at time 0 and are never stepped while delegated; undelegation
  /// copies the unit's chain back as usual.
  bool AdoptUnits(const std::vector<std::shared_ptr<SharedSubChain>>& units,
                  Timestamp tick) override;

  // --- diagnostics ---------------------------------------------------------
  /// Per-grounding probabilities at the current time (diagnostics).
  const std::vector<double>& chain_probs() const { return chain_probs_; }
  /// The grounding behind chain i.
  const Binding& binding(size_t i) const { return bindings_[i]; }
  /// The live chain of grounding i (for seeding shared units; when the
  /// chain is delegated this is its frozen pre-delegation state, or its
  /// time-0 state after AdoptUnits).
  const RegularChain& chain(size_t i) const { return chains_[i]; }

  /// First error latched by any chain (e.g. a failed symbol-table refresh
  /// after mid-stream domain growth); OK in normal operation.
  Status ChainStatus() const;
  /// Number of chains running on a compiled kernel (vs. the map path).
  size_t num_compiled() const {
    size_t n = 0;
    for (const RegularChain& c : chains_) n += c.compiled() ? 1 : 0;
    return n;
  }
  /// Number of chains on the vectorized dense-row step path.
  size_t num_simd() const {
    size_t n = 0;
    for (const RegularChain& c : chains_) n += c.simd() ? 1 : 0;
    return n;
  }
  /// Number of chains packed into lane-interleaved stripes (stepped
  /// simd::kLanes at a time when eligible).
  size_t num_striped() const {
    size_t n = 0;
    for (uint32_t w : stripe_width_) {
      if (w > 1) n += w;
    }
    return n;
  }
  /// Whole-stripe steps taken / stripes that fell back to per-chain steps
  /// this run (a fallback still computes bit-identical results).
  uint64_t stripe_steps() const {
    return counters_->stripe_steps.load(std::memory_order_relaxed);
  }
  uint64_t stripe_fallbacks() const {
    return counters_->stripe_fallbacks.load(std::memory_order_relaxed);
  }
  /// Doubles in the shared SoA state arena (0 when unused).
  size_t arena_size() const { return arena_.size(); }

  /// Steady-state memory accounting for the bytes-per-chain model
  /// (docs/PERF.md): the SoA arena, per-chain owned heap (state buffers,
  /// scratch, local rows), pooled transition rows counted once per
  /// distinct class across all chains.
  struct MemoryFootprint {
    size_t arena_bytes = 0;
    size_t owned_bytes = 0;
    size_t shared_row_bytes = 0;
    size_t bytes() const {
      return arena_bytes + owned_bytes + shared_row_bytes;
    }
  };
  MemoryFootprint Footprint() const;

 private:
  explicit ExtendedRegularEngine(QueryClass query_class)
      : QuerySession(query_class,
                     query_class == QueryClass::kRegular
                         ? EngineKind::kRegular
                         : EngineKind::kExtendedRegular,
                     /*exact=*/true) {}

  // True while chain i reads a shared unit's frontier instead of stepping.
  bool IsDelegated(size_t i) const {
    return i < delegates_.size() && delegates_[i] != nullptr;
  }

  // One live chain per binding, in binding order.
  std::vector<RegularChain> chains_;
  std::vector<Binding> bindings_;
  std::vector<double> chain_probs_;
  // Sized lazily on first delegation; delegates_[i] != null means chain i
  // reads the shared frontier instead of stepping.
  std::vector<std::shared_ptr<SharedSubChain>> delegates_;
  size_t num_delegated_ = 0;
  // Contiguous cur|nxt state buffers of all compiled chains (SoA batching).
  // Chains hold raw pointers into this vector; the engine is movable (the
  // heap buffer survives a move) but each chain's copy ctor re-owns its
  // slice, so copied engines simply stop using the arena.
  std::vector<double> arena_;
  // Stripe layout over chains_: stripe_width_[i] is simd::kLanes at a
  // stripe leader, 0 at its member lanes (the leader steps them), and 1
  // for chains stepped alone. Empty when no arena was packed.
  std::vector<uint32_t> stripe_width_;
  // Heap-held so the engine stays movable; AdvanceShard runs concurrently
  // across shard threads, hence atomics (relaxed: they are pure counters).
  struct StripeCounters {
    std::atomic<uint64_t> stripe_steps{0};
    std::atomic<uint64_t> stripe_fallbacks{0};
  };
  std::unique_ptr<StripeCounters> counters_ =
      std::make_unique<StripeCounters>();

  // The query the bindings ground; it keys the shareable units.
  NormalizedQuery query_;
  Timestamp t_ = 0;
};

}  // namespace lahar

#endif  // LAHAR_ENGINE_EXTENDED_ENGINE_H_
