// Exact evaluation of Regular Queries on probabilistic streams
// (Sections 3.1.2): the query automaton is run as a Markov chain whose state
// joins the NFA state *set* with the hidden values of the participating
// Markovian streams; probabilities propagate by (sparse) matrix
// multiplication. Independent streams need no hidden state, so the chain
// collapses to a distribution over NFA state sets.
//
// The chain advances one timestep per Step() in O(1) amortized work per
// (state, successor-value) pair — the streaming evaluation of Theorem 3.3.
//
// Two execution paths implement the same semantics (see docs/PERF.md):
//
//  * the compiled-kernel path (default): the reachable joint space is
//    enumerated once at Create time (automaton/kernel.h) and Step() is a
//    double-buffered flat-array sparse mat-vec — no hashing, no per-step
//    allocation;
//  * the dynamic map path: the original hash-map evaluation, used when the
//    reachable space exceeds ChainOptions::kernel budgets (or the kernel is
//    disabled). Both paths enumerate successors in one canonical order, so
//    their per-tick probabilities are bit-identical.
//
// The live distribution leaves and re-enters a chain only as a ChainState
// value (Export / Import), whose one encoder and one validating decoder
// serve every checkpoint, spill, promotion and restore.
#ifndef LAHAR_ENGINE_REGULAR_ENGINE_H_
#define LAHAR_ENGINE_REGULAR_ENGINE_H_

#include <memory>
#include <unordered_map>
#include <vector>

#include "automaton/kernel.h"
#include "automaton/nfa.h"
#include "automaton/rows.h"
#include "automaton/symbols.h"
#include "common/serial.h"
#include "model/database.h"
#include "query/normalize.h"

namespace lahar {

/// How a compiled chain executes its per-tick transition (docs/PERF.md):
///   kScalar - the CSR sparse mat-vec (StepKernel), the bit-identity
///             reference for every other path;
///   kSimd   - dense vectorized rows over the class-sorted slot layout
///             (StepKernelSimd / StepStripe), bit-identical to kScalar;
///   kAuto   - kSimd where the dense-row model pays for itself (see
///             kSimdMaxHidden / kSimdMinDensity), kScalar elsewhere.
enum class KernelStepMode { kAuto, kScalar, kSimd };

/// kAuto/kSimd ceiling on the joint hidden space: dense rows cost R*R
/// doubles per (class, timestep), so past this the CSR walk wins.
inline constexpr uint32_t kSimdMaxHidden = 512;
/// kAuto floor on the joint CPT nonzero fraction: below it the CSR skip of
/// zero successors beats dense multiply-accumulate.
inline constexpr double kSimdMinDensity = 0.35;

/// Options controlling chain construction (kernel compilation and batching).
struct ChainOptions {
  /// Kernel budgets; kernel.max_flat_states = 0 forces the dynamic map path.
  KernelLimits kernel;
  /// Step-path selection for compiled chains.
  KernelStepMode step_mode = KernelStepMode::kAuto;
};

/// Shared structures a chain build borrows, all optional. The engines pass
/// their PreparedQuery's caches here, so no user-settable option names them.
struct ChainCaches {
  /// Cross-chain kernel reuse; null compiles a private kernel. Kernels are
  /// held by shared_ptr, so the cache may die before the chains.
  KernelCache* kernels = nullptr;
  /// Cross-chain dense-row reuse; null makes a SIMD chain build its rows
  /// locally. Classes are held by shared_ptr, so the pool may die first.
  TransitionRowPool* rows = nullptr;
  /// (type, key) -> streams index; makes SymbolTable::Build O(subgoals)
  /// instead of O(streams) for grounded-query builds.
  const StreamKeyIndex* stream_index = nullptr;
};

/// \brief The live state of one RegularChain as a value: clock, accept
/// tracking, hidden-code layout (one slot per Markovian participant: its
/// stream and radix), and every nonzero (state set, hidden code) entry.
/// Owns the checkpoint encoding; docs/RUNTIME.md "Chain state encoding".
struct ChainState {
  /// Bit 63 of an entry mask: the latched "accepted" flag.
  static constexpr StateMask kAcceptedFlag = 1ULL << 63;
  /// How far past 1 a probability may lie: rounding (and the 1e-6 slack
  /// streams allow in a distribution's sum) can lift a near-certain entry
  /// just above 1.
  static constexpr double kProbSlack = 1e-6;
  /// True for a finite p in [0, 1 + kProbSlack].
  static bool ValidProb(double p) { return p >= 0.0 && p <= 1.0 + kProbSlack; }

  struct Entry {
    StateMask mask = 0;
    uint64_t hidden = 0;  ///< sum of radix x digit over the slots
    double p = 0.0;
  };

  Timestamp t = 0;
  bool track = false;
  std::vector<StreamId> markov_streams;  ///< per hidden slot
  std::vector<uint64_t> radices;         ///< per hidden slot
  std::vector<Entry> entries;            ///< ascending (mask, hidden)

  /// Writes the encoding, hidden codes as per-slot digits derived against
  /// the streams' *current* domain sizes.
  void Encode(const EventDatabase& db, serial::Writer* w) const;

  /// Reads one encoding into this value, whose `markov_streams` must name
  /// the receiving layout; `radices` become the running product of the
  /// domain sizes the digits describe. Validates everything (slots,
  /// domains, digits, masks against the automaton's `nfa_states`,
  /// ValidProb) and returns InvalidArgument on a violation, after which
  /// the value is unspecified.
  Status Decode(serial::Reader* r, const EventDatabase& db,
                size_t nfa_states);
};

/// \brief The Markov chain M(t) of Section 3.1.2 for one grounded regular
/// query: a joint distribution over (NFA state set, hidden stream values).
///
/// Copyable: safe plans snapshot chains to compute interval probabilities.
/// Copies share the immutable compiled structures (NFA, symbol table,
/// kernel) via shared_ptr and only duplicate the live state vector.
class RegularChain {
 public:
  /// Builds the chain for a normalized query that must be regular once the
  /// caller has substituted its shared variables (this class does not check
  /// classification; see analysis/classify.h).
  static Result<RegularChain> Create(const NormalizedQuery& q,
                                     const EventDatabase& db,
                                     const ChainOptions& options = {},
                                     const ChainCaches& caches = {});

  RegularChain() = default;
  RegularChain(const RegularChain& o);
  RegularChain& operator=(const RegularChain& o);
  RegularChain(RegularChain&& o) noexcept;
  RegularChain& operator=(RegularChain&& o) noexcept;

  /// Timeline position: 0 before the first step, then 1..horizon.
  Timestamp time() const { return t_; }
  /// Last timestep of the chain (the database horizon).
  Timestamp horizon() const { return horizon_; }

  /// Advances one timestep and returns P[q@t] at the new time. Calling past
  /// the horizon keeps consuming certain-bottom inputs (all streams ended).
  double Step();

  /// Current P[q@t]: total mass on state sets containing the accept state.
  double AcceptProb() const;

  /// Latches an "accepted" flag on every state from the *next* Step on:
  /// after calling this at time a-1, AcceptedProb() at time b equals
  /// P[q true at some t in [a, b]] — the interval probability of the
  /// Section 3.3 reg operator.
  void EnableAcceptTracking();

  /// Probability that the accepted flag is set (see EnableAcceptTracking).
  double AcceptedProb() const;

  /// Number of live (state set, hidden) pairs — the chain's working size.
  size_t NumStates() const;

  /// Streams contributing symbols to this chain (safe plans use this to
  /// keep operator event sets disjoint).
  const std::vector<StreamId>& participating() const {
    return symbols_->participating();
  }

  /// The symbol table (shared, immutable until RefreshSymbols swaps it).
  const std::shared_ptr<const SymbolTable>& symbols() const {
    return symbols_;
  }

  /// True when this chain stepped onto a compiled kernel (vs. the map path).
  bool compiled() const { return kernel_ != nullptr; }

  /// True when this chain runs the vectorized dense-row step (state stored
  /// in the kernel's class-sorted slot layout).
  bool simd() const { return simd_; }

  /// The interned row class this chain shares (null when rows are local).
  const std::shared_ptr<TransitionRowClass>& row_class() const {
    return row_class_;
  }

  /// Heap bytes owned by this chain itself: state buffers, scratch, and
  /// chain-local (non-pooled) rows. Pooled row bytes are amortized across
  /// the class and reported by the engine (see
  /// ExtendedRegularEngine::Footprint).
  size_t OwnedBytes() const;

  /// Steps a full lane-interleaved stripe of `n` chains (each bound with
  /// BindArena lane_stride == n over one interleaved block) through one
  /// timestep, bit-identically to stepping each alone. Returns false
  /// WITHOUT mutating anything when the stripe is not eligible this tick
  /// (mixed structure, a chain fell off the kernel, distinct row content,
  /// ...); the caller then steps each chain individually.
  static bool StepStripe(RegularChain* const* chains, size_t n,
                         Timestamp next);

  /// First error latched by Step() (e.g. a failed symbol-table refresh
  /// after mid-stream domain growth); OK in normal operation. A chain with
  /// a latched error keeps stepping, treating unknown values as producing
  /// no symbols.
  const Status& status() const { return status_; }

  /// Doubles per state buffer on the kernel path (planes x |masks| x R);
  /// 0 on the map path. A chain owns two such buffers (double-buffering).
  size_t FlatStride() const;

  /// Relative per-step cost estimate, used by the runtime executor to
  /// balance chain ranges across shards.
  size_t StepCost() const;

  /// Moves the chain's kernel state into caller-owned storage (the extended
  /// engine's SoA arena). `cur` and `nxt` must each address FlatStride()
  /// doubles at spacing `lane_stride` (flat index i lives at cur[i *
  /// lane_stride]) and stay valid for the chain's lifetime; the current
  /// state is copied into `cur`. lane_stride > 1 lane-interleaves SIMD
  /// chains for StepStripe. No-op on the map path.
  void BindArena(double* cur, double* nxt, size_t lane_stride = 1);

  /// The live distribution as a value (canonical entry order, this
  /// chain's radices). Execution path (kernel vs. map) is NOT part of the
  /// state: both are bit-identical.
  ChainState Export() const;
  /// Replaces the live distribution with `s`, which must come from Export
  /// of a chain over the same grounding or from Decode against this chain's
  /// layout. Hidden codes are re-encoded for this chain's radices exactly as
  /// an Encode/Decode round trip would; the state lands on the kernel when
  /// every entry fits it and on the map path otherwise.
  void Import(const ChainState& s);

  /// Checkpointing: Export().Encode and Decode-then-Import.
  void SaveState(serial::Writer* w) const;
  Status LoadState(serial::Reader* r);

 private:
  static constexpr StateMask kAcceptedFlag = ChainState::kAcceptedFlag;

  struct Key {
    StateMask mask;
    uint64_t hidden;  // mixed-radix code of Markovian stream values
    bool operator==(const Key& o) const {
      return mask == o.mask && hidden == o.hidden;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return std::hash<uint64_t>()(k.mask * 0x9e3779b97f4a7c15ULL ^ k.hidden);
    }
  };
  using StateMap = std::unordered_map<Key, double, KeyHash>;

  // Per participating stream: how it contributes to the joint transition.
  struct Participant {
    StreamId id;
    size_t position;       // index into SymbolTable::participating()
    bool markovian;
    uint64_t radix;        // multiplier in the hidden code (1 if independent)
    size_t hidden_slot;    // position among Markovian participants
  };

  void BuildIndependentMaskDist(Timestamp next);
  void EnumerateSuccessors(const Key& key, double p, Timestamp next,
                           StateMap* out);
  // Map-path step over the canonically sorted live states.
  void StepMap(Timestamp next);
  // Kernel-path step; returns false after falling back to the map path
  // (the state was dematerialized and the step must be re-run on the map).
  bool StepKernel(Timestamp next);
  // Vectorized dense-row step (state in slot layout, possibly strided);
  // same fallback contract as StepKernel.
  bool StepKernelSimd(Timestamp next);
  // Fills scratch indep_p/step_cls from indep_dist_; false (mutating
  // nothing else) when a structural assumption broke and the caller must
  // dematerialize.
  bool FillStepTables();
  // Dense rows for timestep `next`: pooled when the class has them (or this
  // chain builds and publishes), chain-local otherwise (t == 1 or no
  // pool). Cached per timestep.
  std::shared_ptr<const TransitionRowSet> ResolveRows(Timestamp next);
  std::shared_ptr<const TransitionRowSet> BuildRowSet(Timestamp next) const;
  // Content key of the rows for timestep `next`: the write-time digests of
  // the CPT slices stepped through (or an ended marker past a horizon).
  // Validates pooled reuse — see automaton/rows.h. O(participants) per
  // tick; Stream maintains the slice digests.
  RowFingerprint RowContentKey(Timestamp next) const;
  // Builds the per-step CSR rows (successor hidden code, probability) for
  // every live joint hidden code; mirrors EnumerateSuccessors' enumeration
  // order exactly.
  void BuildHiddenRows(Timestamp next);
  // Abandons the kernel mid-stream: converts the flat state back into the
  // dynamic map (used when a structural assumption breaks, e.g. a stream's
  // domain grew after creation).
  void DematerializeToMap();
  // Swaps in a symbol table extended over domain values interned since
  // creation (copy-on-grow: the old table stays untouched for other chains
  // sharing it). On failure, latches status_ and keeps the old table.
  void RefreshSymbols();
  void FixupStorage(const RegularChain& o);
  // This chain's hidden-code layout in an otherwise empty state.
  ChainState EmptyState() const;

  std::shared_ptr<const QueryNfa> nfa_;
  std::shared_ptr<const SymbolTable> symbols_;
  const EventDatabase* db_ = nullptr;
  std::vector<Participant> participants_;
  std::vector<Participant> markov_participants_;
  std::vector<Participant> indep_participants_;
  // Per-step OR-distribution of independent streams' symbol masks.
  std::vector<std::pair<SymbolMask, double>> indep_dist_;
  // Markovian domain sizes the kernel was compiled against (per hidden
  // slot); checked each step so a domain change falls back to the map path.
  std::vector<uint32_t> kernel_domains_;
  Timestamp horizon_ = 0;
  Timestamp t_ = 0;
  bool track_accept_ = false;
  Status status_;  // first Step()-time error (see status())

  // --- dynamic map path ----------------------------------------------------
  StateMap states_;

  // --- compiled kernel path ------------------------------------------------
  std::shared_ptr<const CompiledKernel> kernel_;
  size_t planes_ = 1;            // 2 once accept tracking is enabled
  std::vector<double> flat_;     // owned cur|nxt storage (empty when arena-bound)
  double* cur_ = nullptr;
  double* nxt_ = nullptr;

  // --- vectorized step path (simd_ implies kernel_) ------------------------
  bool simd_ = false;       // state lives in slot layout; step via dense rows
  size_t lane_stride_ = 1;  // arena lane interleave (1 = contiguous)
  std::shared_ptr<TransitionRowClass> row_class_;  // null = always local rows
  std::shared_ptr<const TransitionRowSet> step_rows_;  // cache for step t
  Timestamp step_rows_t_ = 0;
  RowFingerprint step_rows_fp_;  // content key of step_rows_ (pooled path)

  // Per-step scratch (reused, never copied with meaning).
  struct Scratch {
    std::vector<std::pair<SymbolMask, double>> stream_dist;
    std::vector<std::pair<SymbolMask, double>> merged;
    std::vector<std::pair<Key, double>> sorted;   // map path canonical order
    std::vector<uint8_t> live;                    // [R]
    std::vector<uint32_t> row_ptr;                // [R + 1]
    std::vector<uint32_t> csr_h;
    std::vector<double> csr_p;
    std::vector<std::pair<uint64_t, double>> frames, frames2;
    std::vector<uint32_t> step_cls;               // [markov classes x E]
    std::vector<double> indep_p;                  // [E]
    std::vector<double> w;                        // simd weights [R or R*L]
    std::vector<double> ip_lanes;                 // stripe indep_p [E*L]
  };
  Scratch scratch_;
};

}  // namespace lahar

#endif  // LAHAR_ENGINE_REGULAR_ENGINE_H_
