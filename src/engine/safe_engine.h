// Evaluation of Safe Queries via the probabilistic stream algebra
// (Section 3.3): every plan node computes interval probabilities
// P[q[ts, tf]] — the probability that its subquery is satisfied at some
// timestep in [ts, tf] — and the operators combine them:
//
//   reg<V>(q)   — the Markov-chain algorithm extended to intervals with an
//                 absorbing "accepted" flag (the conditional decomposition
//                 on M(t) of Section 3.3.1).
//   seq(P, g)   — the precursor/witness decomposition, Eq. (3): condition
//                 on the latest g-event before ts (T_p) and the latest
//                 witness in [ts, tf] (T_w); q' must hold in [T_p, T_w - 1].
//   pi_-x(P)    — independent-project: 1 - prod over groundings of x.
//
// All tables are evaluated lazily and memoized. The engine is a
// QuerySession (engine/session.h) driven one tick at a time — for standing
// queries and for batch Lahar::Run alike, which is that session run to the
// horizon. Each tick extends the plan's bounded reg-leaf rows and seq
// witness tables by one column (they grow monotonically in tf) instead of
// recomputing the whole horizon. Over an unbounded stream the evaluator
// keeps per-tick cost and memory flat instead of growing with the horizon:
//
//  * seq nodes walk only the timesteps whose witness probability is
//    nonzero (a sorted index of the w[u] != 0 positions), skipping the
//    exact-zero factors the dense Eq. (3) loops would multiply by 1.0 —
//    the same IEEE operations in the same order, so answers stay
//    bit-identical to the reference loops (selectable via
//    SafePlanOptions::incremental);
//  * the (ts, tf) interval memo is a bounded direct-mapped cache and the
//    reg leaves keep a bounded LRU row arena over sparse chain keyframes
//    instead of one chain snapshot per timestep — evictions recompute
//    deterministically, so capacity never changes an answer;
//  * independent grounding groups (project children) advance as separate
//    shard units, so a safe session no longer serializes a runtime tick.
//
// Preconditions (checked at Create): the streams matched by a seq operator's
// right-hand subgoal must be independent (non-Markovian) — the paper's
// Section 3.3 assumption. Markovian streams are still fine inside reg
// leaves, whose chain tracks the hidden state exactly.
#ifndef LAHAR_ENGINE_SAFE_ENGINE_H_
#define LAHAR_ENGINE_SAFE_ENGINE_H_

#include <memory>
#include <set>
#include <vector>

#include "analysis/plan.h"
#include "analysis/prepared.h"
#include "common/serial.h"
#include "engine/counters.h"
#include "engine/regular_engine.h"
#include "engine/session.h"

namespace lahar {

/// \brief Engine for Safe Queries: compiles a safe plan and serves it as a
/// session.
///
/// Units are the plan's independent grounding groups — the children of its
/// projection node, which touch disjoint streams by the safety
/// precondition. AdvanceShard extends each group's tables and warms its
/// diagonal memo entry, and CommitAdvance combines the warmed values, so
/// the answer does not depend on how the units were split.
class SafePlanEngine : public QuerySession {
 public:
  /// Compiles the plan (Algorithm 1) for prepared.normalized and prepares
  /// evaluation; reg leaves compile through prepared.kernel_cache, so
  /// structurally equal leaves across plans — and standalone regular
  /// queries — compile once. Fails with UnsafeQuery if no safe plan exists.
  static Result<SafePlanEngine> Create(const PreparedQuery& prepared,
                                       const EventDatabase& db,
                                       const PlanOptions& options = {});

  /// P[q satisfied at some t in [ts, tf]] from the plan root. Requires a
  /// well-formed 1-based interval: ts >= 1 and ts <= tf (InvalidArgument
  /// otherwise — an empty or negative interval is a caller bug, not a
  /// zero-probability event).
  Result<double> IntervalProb(Timestamp ts, Timestamp tf);

  // --- QuerySession --------------------------------------------------------
  Timestamp time() const override { return t_; }
  size_t num_units() const override;
  /// A unit's cost reflects its live rows, witness density, and grounding
  /// fan-out, not just its leaf count.
  size_t UnitCost(size_t unit) const override;
  /// Resets the per-unit status slots for the tick.
  void PrepareAdvance() override;
  /// Extends units [begin, end) to time()+1 and pre-computes their
  /// grounding probabilities into the (bounded) memos. Errors latch per
  /// unit and surface at CommitAdvance.
  void AdvanceShard(size_t begin, size_t end) override;
  /// Surfaces any latched shard error, extends whatever the shards did not
  /// cover, and returns mu(q@t).
  Result<double> CommitAdvance() override;
  /// Memo/row-cache counters aggregated over the whole evaluator tree.
  SessionCounters Counters() const override;

  /// Serializes the clock and the incremental evaluation state (frontier
  /// chains, witness tables). The blob must be loaded into an engine
  /// created over an identical database snapshot by the same query;
  /// bounded caches are not serialized — they refill bit-identically on
  /// demand.
  bool SupportsStateRestore() const override { return true; }
  Status SaveState(serial::Writer* w) const override;
  Status LoadState(serial::Reader* r) override;

  /// The compiled plan (for inspection / the query_classifier example).
  const SafePlanNode& plan() const { return *plan_; }

  // Implementation detail, public for the evaluator factory.
  class NodeEval;
  class RegEval;
  class SeqEval;
  class ProjectEval;

 private:
  explicit SafePlanEngine(QueryClass query_class)
      : QuerySession(query_class, EngineKind::kSafePlan, /*exact=*/true) {}

  SafePlanPtr plan_;
  std::shared_ptr<void> root_holder_;  // owns the eval tree
  NodeEval* root_ = nullptr;
  // Per-unit shard status, sized by PrepareAdvance; slot i is written only
  // by the shard that owns unit i, then read single-threaded at
  // CommitAdvance.
  std::vector<Status> shard_status_;
  Timestamp t_ = 0;
};

}  // namespace lahar

#endif  // LAHAR_ENGINE_SAFE_ENGINE_H_
