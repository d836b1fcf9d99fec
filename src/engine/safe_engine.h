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
// All tables are evaluated lazily and memoized. The engine is driven one
// tick at a time through the shard protocol below, by SafeQuerySession
// (engine/session.h) — for standing queries and for batch Lahar::Run
// alike, which is that session run to the horizon. Over an unbounded
// stream the evaluator keeps per-tick cost and memory flat instead of
// growing with the horizon:
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
#include "common/serial.h"
#include "engine/counters.h"
#include "engine/regular_engine.h"

namespace lahar {

/// \brief Engine for Safe Queries: compiles a safe plan and evaluates it.
class SafePlanEngine {
 public:
  /// Compiles the plan (Algorithm 1) and prepares evaluation. Fails with
  /// UnsafeQuery if no safe plan exists.
  static Result<SafePlanEngine> Create(const NormalizedQuery& q,
                                       const EventDatabase& db,
                                       const PlanOptions& options = {});

  /// P[q satisfied at some t in [ts, tf]] from the plan root. Requires a
  /// well-formed 1-based interval: ts >= 1 and ts <= tf (InvalidArgument
  /// otherwise — an empty or negative interval is a caller bug, not a
  /// zero-probability event).
  Result<double> IntervalProb(Timestamp ts, Timestamp tf);

  // --- sharded serving protocol (SafeQuerySession) -----------------------
  // Independent grounding groups — the children of a projection node, which
  // touch disjoint streams by the safety precondition — are exposed as
  // shard units. Per tick t: PrepareShard once, ShardAdvance over disjoint
  // unit ranges (any threads, database quiescent), then FinishAdvance
  // single-threaded. Reg-leaf rows and seq witness tables gain one column
  // per tick (they grow monotonically in tf), and the combined answer does
  // not depend on how the units were split.

  /// Number of independently advanceable units (>= 1).
  size_t NumShardUnits() const;

  /// Single-threaded per-tick preparation: resets the per-unit status
  /// slots for tick `t`.
  void PrepareShard(Timestamp t);

  /// Advances units [begin, end) to tick `t`: extends their tables and
  /// pre-computes their grounding probabilities into the (bounded) memos.
  /// Errors latch per unit and surface at FinishAdvance.
  void ShardAdvance(size_t begin, size_t end, Timestamp t);

  /// Completes the tick: surfaces any latched shard error, extends whatever
  /// the shards did not cover, and returns mu(q@t).
  Result<double> FinishAdvance(Timestamp t);

  /// Per-unit cost estimate (a unit is one grounding subtree) for runtime
  /// shard balancing: reflects live rows, witness density, and grounding
  /// fan-out, not just leaf count.
  size_t UnitCost(size_t unit) const;

  /// Memo/row-cache counters aggregated over the whole evaluator tree
  /// (the memo fields of SessionCounters; the rest stay zero).
  SessionCounters MemoStats() const;

  /// Serializes the incremental evaluation state (frontier chains, witness
  /// tables, clock-free: the clock lives in SafeQuerySession). The blob
  /// must be loaded into an engine created over an identical database
  /// snapshot by the same query; bounded caches are not serialized — they
  /// refill bit-identically on demand.
  Status SaveState(serial::Writer* w) const;
  Status LoadState(serial::Reader* r);

  /// The compiled plan (for inspection / the query_classifier example).
  const SafePlanNode& plan() const { return *plan_; }

  // Implementation detail, public for the evaluator factory.
  class NodeEval;
  class RegEval;
  class SeqEval;
  class ProjectEval;

 private:
  const EventDatabase* db_ = nullptr;
  PlanOptions options_;
  SafePlanPtr plan_;
  std::shared_ptr<void> root_holder_;  // owns the eval tree
  NodeEval* root_ = nullptr;
  // Per-unit shard status, sized by PrepareShard; slot i is written only by
  // the shard that owns unit i, then read single-threaded at FinishAdvance.
  std::vector<Status> shard_status_;
};

}  // namespace lahar

#endif  // LAHAR_ENGINE_SAFE_ENGINE_H_
