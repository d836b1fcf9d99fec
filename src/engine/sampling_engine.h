// Naive random sampling (Section 3.5): estimate mu(q@t) by running the
// query over n sampled possible worlds. Works for ANY query — including the
// provably #P-hard ones of Section 3.4 — with the (epsilon, delta) guarantee
// of Prop. 3.20: n = ceil(ln(2/delta) / (2 epsilon^2)) samples give
// P[|estimate - truth| <= epsilon] >= 1 - delta at each timestep (Hoeffding).
//
// Two execution paths, picked from the PreparedQuery's classification:
//  * Queries whose groundings are regular run n parallel NFAs over sampled
//    symbol streams, incrementally per timestep (the paper's "n copies of
//    the query" with bitvector-style batched state).
//  * Everything else (safe and unsafe queries) samples possible worlds and
//    invokes the reference evaluator per world — slower, but fully general.
//
// The engine is served through SamplingSession (engine/session.h), which
// Lahar::Run also drives. Run() below is the one batch loop kept beside a
// session's Advance(): on the general path it draws each world whole, in
// O(T) per sample, where per-tick stepping re-evaluates a growing prefix.
#ifndef LAHAR_ENGINE_SAMPLING_ENGINE_H_
#define LAHAR_ENGINE_SAMPLING_ENGINE_H_

#include <memory>
#include <vector>

#include "analysis/prepared.h"
#include "automaton/nfa.h"
#include "engine/reference.h"

namespace lahar {

/// Options for the sampling engine.
struct SamplingOptions {
  double epsilon = 0.1;  ///< additive error bound
  double delta = 0.1;    ///< failure probability
  uint64_t seed = 0xC0FFEE;
  /// Overrides the Hoeffding sample count when non-zero.
  size_t num_samples = 0;
};

/// Samples required for the (epsilon, delta) guarantee.
size_t HoeffdingSamples(double epsilon, double delta);

/// \brief Monte-Carlo engine over possible worlds.
class SamplingEngine {
 public:
  /// Builds the engine; picks the NFA path when the prepared query is
  /// Regular or Extended Regular (every grounding is then regular), the
  /// reference-evaluator path otherwise. Fails with InvalidArgument unless
  /// epsilon is finite and > 0 and 0 < delta < 1.
  static Result<SamplingEngine> Create(const PreparedQuery& prepared,
                                       const EventDatabase& db,
                                       const SamplingOptions& options = {});

  /// Estimated mu(q@t) for t = 1..horizon (index 0 unused), from a fresh
  /// engine. The NFA path steps; the general path samples whole worlds
  /// (a different draw order than Step(), so the estimates differ from a
  /// stepped run's) and leaves time() at the horizon.
  Result<std::vector<double>> Run();

  /// Advances one timestep and returns the estimate at the new time.
  /// Regular groundings use the incremental NFA path; everything else
  /// extends per-sample world prefixes and re-evaluates the reference
  /// semantics on each — O(t * |W|) per tick, but it hosts even unsafe
  /// queries as standing queries. Equivalent to StepSampleRange(0, n)
  /// followed by CommitStep().
  Result<double> Step();

  /// Single-threaded preparation before a (possibly sharded) step: extends
  /// the NFA path's shared symbol tables over domain values interned since
  /// the last tick. Must not run concurrently with StepSampleRange; Step()
  /// calls it itself. No-op on the general path.
  Status PrepareStep();

  /// Split form of Step() for the sharded runtime executor: advances only
  /// the samples in [begin, end) to time()+1. Samples are independent, so
  /// disjoint ranges may run on different threads; the database must be
  /// quiescent meanwhile. Errors are recorded per sample and surface at
  /// CommitStep.
  void StepSampleRange(size_t begin, size_t end);

  /// Completes a split step once every sample range has been advanced:
  /// bumps time() and returns the acceptance fraction (an integer count
  /// over samples, so the estimate is independent of sharding).
  Result<double> CommitStep();

  bool incremental() const { return !chains_.empty(); }
  size_t num_samples() const { return num_samples_; }
  Timestamp time() const { return t_; }
  Timestamp horizon() const { return horizon_; }

 private:
  // One tick of one sample; `next` is t_ + 1.
  void StepNfaSample(size_t i, Timestamp next, std::vector<double>* row);
  Status StepWorldSample(size_t i, Timestamp next);
  // One grounded regular query: its automaton, symbol table, and the
  // per-sample NFA state masks.
  struct GroundedChain {
    std::shared_ptr<const QueryNfa> nfa;
    std::shared_ptr<const SymbolTable> symbols;
    std::vector<StateMask> states;  // per sample
  };

  QueryPtr query_;
  const EventDatabase* db_ = nullptr;
  size_t num_samples_ = 0;
  uint64_t seed_ = 0;
  Timestamp horizon_ = 0;
  Timestamp t_ = 0;

  std::vector<GroundedChain> chains_;  // NFA path (empty => general path)
  // Streams sampled per timestep (union over chains); each chain maps its
  // participant positions into these slots so a shared stream is sampled
  // exactly once per sample per timestep.
  std::vector<StreamId> slot_streams_;
  std::vector<std::vector<size_t>> chain_slots_;
  std::vector<DomainIndex> values_;  // [sample * num_slots + slot]
  std::vector<Rng> sample_rngs_;     // one generator per sample
  // Per-sample outcome of the tick in flight (written by StepSampleRange,
  // folded by CommitStep). uint8_t, not vector<bool>: samples on different
  // shards must not share bytes.
  std::vector<uint8_t> accepted_;
  std::vector<Status> sample_status_;
  // General path only: per-sample sampled world prefixes, extended lazily
  // as streams grow (empty until the first Step).
  std::vector<World> worlds_;
};

}  // namespace lahar

#endif  // LAHAR_ENGINE_SAMPLING_ENGINE_H_
