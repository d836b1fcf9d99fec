// Extended Regular Queries (Section 3.2): one regular Markov chain per
// grounding of the shared variables; the groundings use disjoint tuples, so
// their truths are independent and combine as 1 - prod(1 - p_i).
//
// Space is O(m) in the number of distinct keys m, independent of stream
// length (Theorem 3.7), and each timestep costs O(m) chain steps.
//
// Chain lifecycle (docs/PERF.md "Chain lifecycle"): with
// ChainOptions::lazy_materialize / spill_cold_chains set, a binding is one
// of three residency states —
//   * resident: a live RegularChain (the only state without the knobs);
//   * stub:     ~16 bytes (NFA mask + idle counter). Valid while every
//               participating stream is "quiet" (contributes no symbols and
//               multiplies probabilities by exactly 1.0), in which case the
//               real chain's state is the closed-form single entry
//               {mask, hidden=0, p=1.0} with mask evolving by
//               Transition(mask, 0). Promoted to resident on first
//               evidence, bit-identically by construction.
//   * spilled:  the chain's exported ChainState parked in a compact side
//               arena. Only entered when every state-set mask is a fixed
//               point of the empty-input transition, so quiet ticks are
//               bitwise no-ops; rehydrated transparently on the next loud
//               tick.
// Every residency change and checkpoint goes through one ChainState value
// (engine/regular_engine.h): spilling exports it, promotion, rehydration
// and restore import it into a freshly built chain, and all three
// residencies encode through its one encoder, so engine snapshots are
// byte-identical to the always-materialized reference.
#ifndef LAHAR_ENGINE_EXTENDED_ENGINE_H_
#define LAHAR_ENGINE_EXTENDED_ENGINE_H_

#include <atomic>
#include <memory>
#include <mutex>
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
/// (docs/SHARING.md). Lifecycle engines decline sharing: stubs and spilled
/// bindings hold no live chain to seed or adopt a shared unit with.
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
  /// Delegated chains cost one frontier read, stubs and spilled chains one
  /// quiet check.
  size_t UnitCost(size_t i) const override {
    if (IsDelegated(i)) return 1;
    if (lifecycle_ && residency_[i] != kResident) return 1;
    return chains_[i]->StepCost();
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
  /// Sharing, SIMD-kernel and chain-lifecycle counters (docs/PERF.md).
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

  size_t NumShareableUnits() const override {
    return lifecycle_ ? 0 : chains_.size();
  }
  std::string ShareableUnitKey(size_t i) const override;
  std::shared_ptr<SharedSubChain> MakeSharedUnit(
      size_t i, size_t frontier_history) const override;
  /// Delegation stops stepping chain i's private copy and reads per-tick
  /// probabilities from the unit's frontier; refused when either side has
  /// a latched error, the unit's clock is not time(), or the binding holds
  /// no resident chain. The private chain stays frozen as a fallback until
  /// undelegation (null `unit`) copies the shared state back.
  bool DelegateUnit(size_t i,
                    const std::shared_ptr<SharedSubChain>& unit) override;

  // --- diagnostics ---------------------------------------------------------
  /// Per-grounding probabilities at the current time (diagnostics).
  const std::vector<double>& chain_probs() const { return chain_probs_; }
  /// The grounding behind chain i.
  const Binding& binding(size_t i) const { return bindings_[i]; }
  /// The live chain of grounding i (for seeding shared units; when the
  /// chain is delegated this is its frozen pre-delegation state). Requires
  /// a materialized chain — stub/spilled bindings hold none.
  const RegularChain& chain(size_t i) const { return *chains_[i]; }

  /// First error latched by any chain (e.g. a failed symbol-table refresh
  /// after mid-stream domain growth); OK in normal operation.
  Status ChainStatus() const;
  /// Number of chains running on a compiled kernel (vs. the map path).
  size_t num_compiled() const {
    size_t n = 0;
    for (const auto& c : chains_) n += (c != nullptr && c->compiled()) ? 1 : 0;
    return n;
  }
  /// Number of chains on the vectorized dense-row step path.
  size_t num_simd() const {
    size_t n = 0;
    for (const auto& c : chains_) n += (c != nullptr && c->simd()) ? 1 : 0;
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

  // --- chain lifecycle (lazy materialization / cold spill) ----------------
  /// True when this engine runs the stub/resident/spilled lifecycle
  /// (ChainOptions::lazy_materialize or spill_cold_chains).
  bool lifecycle_enabled() const { return lifecycle_; }
  /// Registered bindings currently holding a live chain.
  size_t num_resident() const;
  /// Registered bindings currently held as closed-form stubs.
  size_t num_stub() const;
  /// Registered bindings currently spilled to the side arena.
  size_t num_spilled() const;
  /// Lifetime lifecycle transitions (relaxed counters).
  uint64_t promotions() const {
    return counters_->promotions.load(std::memory_order_relaxed);
  }
  uint64_t spills() const {
    return counters_->spills.load(std::memory_order_relaxed);
  }
  uint64_t rehydrations() const {
    return counters_->rehydrations.load(std::memory_order_relaxed);
  }

  /// Steady-state memory accounting for the bytes-per-chain model
  /// (docs/PERF.md): the SoA arena, per-chain owned heap (state buffers,
  /// scratch, local rows), pooled transition rows counted once per
  /// distinct class across all chains, and the lifecycle side arenas
  /// (stub tables + spilled entries).
  struct MemoryFootprint {
    size_t arena_bytes = 0;
    size_t owned_bytes = 0;
    size_t shared_row_bytes = 0;
    size_t lifecycle_bytes = 0;  ///< stub tables + spilled side arena
    size_t bytes() const {
      return arena_bytes + owned_bytes + shared_row_bytes + lifecycle_bytes;
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

  // Residency of a binding (lifecycle mode; everything is kResident
  // otherwise). Stored as uint8_t so 1M bindings cost 1MB.
  static constexpr uint8_t kResident = 0;
  static constexpr uint8_t kStub = 1;
  static constexpr uint8_t kSpilled = 2;

  // One participating stream of one binding, flattened: enough to decide
  // per tick whether the stream is quiet (contributes no symbols, scales
  // probabilities by exactly 1.0) without a live chain.
  struct LifecyclePart {
    StreamId stream = 0;
    bool markovian = false;
    // Independent streams: bit d of trigger_words_[trigger_begin + d/64]
    // set means domain value d produces a symbol (creation-time masks;
    // existing values never change masks under domain growth). Mass on a
    // value >= trigger_bits (interned after creation) conservatively
    // promotes.
    uint32_t trigger_begin = 0;
    uint32_t trigger_bits = 0;
  };

  // True while chain i reads a shared unit's frontier instead of stepping.
  bool IsDelegated(size_t i) const {
    return i < delegates_.size() && delegates_[i] != nullptr;
  }
  // True when every participating stream of binding i is quiet at `next`:
  // stepping is then the empty-input transition with all probability
  // multipliers exactly 1.0 (see BuildIndependentMaskDist /
  // EnumerateSuccessors in regular_engine.cc).
  bool QuietAt(size_t i, Timestamp next) const;
  // Appends the next binding's lifecycle tables from its symbol table.
  void AppendLifecycleParts(const SymbolTable& table);
  // Binding i's hidden-code layout (its Markovian streams, radices over the
  // current domain sizes) in an otherwise empty state.
  ChainState BindingLayout(size_t i) const;
  // Stub binding i's closed-form state at time t_: the single entry
  // {stub mask, hidden 0, p 1.0}.
  ChainState StubState(size_t i) const;
  // Makes binding i resident: builds a fresh chain over the creation-time
  // participants and imports `state` (promotion, rehydration, restore;
  // thread-safe for disjoint i).
  Status Materialize(size_t i, const ChainState& state);
  // A stub's closed form: the single entry {mask, hidden 0, p 1.0}.
  static bool IsClosedForm(const ChainState& s);
  // Every mask is a fixed point of the empty-input transition, so quiet
  // ticks are bitwise no-ops on the state (probabilities are already
  // exact-1.0 multiplies on quiet ticks). Accept tracking never freezes.
  bool IsFrozen(const ChainState& s) const;
  // Drops binding i's chain and keeps `s` as a stub (closed form) or in
  // the spill arena (otherwise; `s` must be frozen).
  void Park(size_t i, ChainState s);
  // Parks resident binding i when its state is closed-form or frozen.
  void TrySpill(size_t i);
  // Serializes binding i's snapshot — same bytes as a live chain's
  // SaveState — from whichever residency it is in.
  void SaveChainState(size_t i, serial::Writer* w) const;
  // Restores binding i from one chain snapshot inside an engine snapshot
  // taken at time `t`: decodes it once and classifies the value into the
  // cheapest residency that reproduces it exactly (stub, spilled, or
  // materialized).
  Status RestoreChainState(size_t i, serial::Reader* r, uint32_t t);
  void LatchLifecycleError(const Status& s);

  // Heap-held per binding so non-resident bindings cost a null pointer, not
  // a sizeof(RegularChain) slot (~half a KB of empty vectors): the slot is
  // null exactly while residency is kStub/kSpilled.
  std::vector<std::unique_ptr<RegularChain>> chains_;
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
    std::atomic<uint64_t> promotions{0};
    std::atomic<uint64_t> spills{0};
    std::atomic<uint64_t> rehydrations{0};
    // First error from a concurrent promote/rehydrate (ChainStatus()).
    std::mutex mu;
    Status first_error;
  };
  std::unique_ptr<StripeCounters> counters_ =
      std::make_unique<StripeCounters>();

  // --- lifecycle state (empty unless lifecycle_) --------------------------
  bool lifecycle_ = false;
  bool lazy_ = false;
  bool spill_ = false;
  uint32_t cold_after_ = 64;
  // Rebuilding chains mid-run needs the query, database, options and
  // caches that built the engine; the engine holds the prepared query's
  // caches so they outlive every promotion. The query also grounds the
  // sharing keys.
  NormalizedQuery query_;
  const EventDatabase* db_ = nullptr;
  ChainOptions chain_options_;
  std::shared_ptr<KernelCache> kernels_;
  std::shared_ptr<TransitionRowPool> rows_;
  std::unique_ptr<StreamKeyIndex> stream_index_;
  // Memoization-free automaton copy for stub evolution: Transition() is
  // then pure/const and safe from concurrent shard threads. One copy
  // serves every binding (groundings share the NFA structure).
  std::unique_ptr<QueryNfa> stub_nfa_;
  std::vector<uint8_t> residency_;
  std::vector<StateMask> stub_mask_;
  std::vector<uint32_t> idle_ticks_;
  std::vector<uint32_t> part_begin_;  // [n + 1] offsets into parts_
  std::vector<LifecyclePart> parts_;
  std::vector<uint64_t> trigger_words_;
  // Exported state of each spilled binding; its clock is stale (the
  // binding's clock is t_ while spilled).
  std::vector<std::unique_ptr<ChainState>> spilled_;

  Timestamp t_ = 0;
};

}  // namespace lahar

#endif  // LAHAR_ENGINE_EXTENDED_ENGINE_H_
