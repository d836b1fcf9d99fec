// The possible-world engine. Naive random sampling (Section 3.5) estimates
// mu(q@t) by running the query over n sampled possible worlds. Works for
// ANY query — including the provably #P-hard ones of Section 3.4 — with the
// (epsilon, delta) guarantee of Prop. 3.20: n = ceil(ln(2/delta) /
// (2 epsilon^2)) samples give P[|estimate - truth| <= epsilon] >= 1 - delta
// at each timestep (Hoeffding). The MLE and Viterbi baselines of Section 4
// are the one-world case: each stream collapses to its most likely tuple
// per timestep or its MAP path, and the estimate is W |= q@t, 1 or 0.
//
// Two execution paths, picked from the PreparedQuery's classification:
//  * Queries whose groundings are regular run one NFA per world over the
//    drawn symbol streams, incrementally per timestep.
//  * Everything else draws world prefixes and invokes the reference
//    evaluator per world — slower, but fully general.
//
// Every caller draws the same worlds, one draw per (world, stream, tick) in
// tick order, whether it steps one tick at a time (serving) or runs to a
// target tick in one pass (RunToHorizon: batch, catch-up, restore). The
// engine is a QuerySession (engine/session.h) whose units are samples, so
// even provably #P-hard queries (Section 3.4) host as standing queries.
#ifndef LAHAR_ENGINE_SAMPLING_ENGINE_H_
#define LAHAR_ENGINE_SAMPLING_ENGINE_H_

#include <memory>
#include <vector>

#include "analysis/prepared.h"
#include "automaton/nfa.h"
#include "engine/reference.h"
#include "engine/session.h"

namespace lahar {

/// Options for the sampling engine.
struct SamplingOptions {
  double epsilon = 0.1;  ///< additive error bound
  double delta = 0.1;    ///< failure probability
  uint64_t seed = 0xC0FFEE;
  /// Overrides the Hoeffding sample count when non-zero.
  size_t num_samples = 0;
};

/// Samples required for the (epsilon, delta) guarantee; 0 when that count
/// is not finite or does not fit size_t.
size_t HoeffdingSamples(double epsilon, double delta);

/// How Determinized collapses each stream to one trajectory.
enum class Determinization {
  kMle,      ///< per-timestep argmax of marginals (real-time baseline)
  kViterbi,  ///< most likely trajectory (archived MAP baseline)
};

/// \brief Possible-world engine: Monte-Carlo over sampled worlds, or one
/// determinized world.
class SamplingEngine : public QuerySession {
 public:
  /// Builds the sampler; picks the NFA path when the prepared query is
  /// Regular or Extended Regular, the reference-evaluator path otherwise.
  /// Fails with InvalidArgument unless epsilon is finite and > 0, 0 < delta
  /// < 1, and the sample count is nonzero and small enough to allocate.
  static Result<SamplingEngine> Create(const PreparedQuery& prepared,
                                       const EventDatabase& db,
                                       const SamplingOptions& options = {});

  /// The Section 4 baseline: one world whose streams follow their MlePath
  /// or ViterbiPath, computed here from the database as it stands.
  static Result<SamplingEngine> Determinized(const PreparedQuery& prepared,
                                             const EventDatabase& db,
                                             Determinization mode);

  // --- QuerySession --------------------------------------------------------
  Timestamp time() const override { return t_; }
  size_t num_units() const override { return num_samples_; }
  size_t UnitCost(size_t) const override { return 1; }
  /// Extends the NFA path's shared symbol tables over domain values
  /// interned since the last tick; an error latches and surfaces at
  /// CommitAdvance. No-op on the general path.
  void PrepareAdvance() override;
  /// Advances the samples in [begin, end) to time()+1. The world path
  /// re-evaluates each world's whole prefix — O(t * |W|) per tick, but it
  /// hosts even unsafe queries as standing queries. Errors are recorded
  /// per sample.
  void AdvanceShard(size_t begin, size_t end) override;
  /// Bumps time() (even when the prepare failed, so the clock stays in step
  /// with the executor's tick) and returns the acceptance fraction — an
  /// integer count over samples, so the estimate is independent of
  /// sharding. A latched error wins over the estimate.
  Result<double> CommitAdvance() override;
  /// The world path extends each world through `horizon` with the
  /// Advance() loop's draws and evaluates it once: W |= q@t depends only on
  /// the world through t, so a stepped run agrees.
  Result<std::vector<double>> RunToHorizon(Timestamp horizon) override;

  bool incremental() const { return !chains_.empty(); }
  size_t num_samples() const { return num_samples_; }

 private:
  explicit SamplingEngine(QueryClass query_class)
      : QuerySession(query_class, EngineKind::kSampling, /*exact=*/false) {}

  // Grounds the query and picks the path for `num_samples` worlds.
  static Result<SamplingEngine> Build(const PreparedQuery& prepared,
                                      const EventDatabase& db,
                                      size_t num_samples);
  // World i's value of stream s at tick t given `prev` at t - 1: read off
  // the determinized path, or drawn from sample i's generator (bottom,
  // drawing nothing, past the stream's horizon).
  DomainIndex Draw(size_t i, StreamId s, Timestamp t, DomainIndex prev);
  // Extends the NFA path's symbol tables over newly interned values.
  Status RefreshSymbols();
  // One NFA tick of sample i; `next` is t_ + 1.
  void StepNfaSample(size_t i, Timestamp next);
  // Extends world i tick-major through `to` and no further, even when
  // streams hold later ticks (the windowed executor applies batches ahead),
  // so the draw order is fixed however far ingestion has run ahead.
  void ExtendWorld(size_t i, Timestamp to);

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
  Timestamp t_ = 0;

  std::vector<GroundedChain> chains_;  // NFA path (empty => general path)
  // Streams drawn per timestep (union over chains); each chain maps its
  // participant positions into these slots so a shared stream is drawn
  // exactly once per sample per timestep.
  std::vector<StreamId> slot_streams_;
  std::vector<std::vector<size_t>> chain_slots_;
  std::vector<DomainIndex> values_;  // [sample * num_slots + slot]
  std::vector<Rng> sample_rngs_;     // one generator per sample
  // Determinized only: the one world's trajectory per drawn stream.
  std::vector<std::vector<DomainIndex>> paths_;
  // Per-sample outcome of the tick in flight (written by AdvanceShard,
  // folded by CommitAdvance). uint8_t, not vector<bool>: samples on
  // different shards must not share bytes.
  std::vector<uint8_t> accepted_;
  std::vector<Status> sample_status_;
  Status prepare_status_;
  // General path only: per-sample world prefixes.
  std::vector<World> worlds_;
};

}  // namespace lahar

#endif  // LAHAR_ENGINE_SAMPLING_ENGINE_H_
