// Safe plans and the plan compiler (Section 3.3.2, Algorithm 1).
//
// A safe plan is a left-linear tree whose leftmost leaf is a regular
// expression operator reg<Vreg>(q) — a prefix of the query whose shared
// variables Vreg have been eliminated by enclosing projections — combined
// upward by seq (sequencing with the precursor/witness decomposition of
// Eq. 3) and pi_{-x} (independent-project) operators. Selections are folded
// into subgoal predicates during normalization, so no explicit sigma
// operator remains.
#ifndef LAHAR_ANALYSIS_PLAN_H_
#define LAHAR_ANALYSIS_PLAN_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/classify.h"
#include "model/database.h"
#include "query/normalize.h"

namespace lahar {

struct SafePlanNode;
using SafePlanPtr = std::shared_ptr<const SafePlanNode>;

/// \brief One operator of a safe plan.
struct SafePlanNode {
  enum class Kind { kReg, kProject, kSeq };
  Kind kind = Kind::kReg;

  /// Subgoals [0, prefix_len) of the normalized query are this node's scope.
  size_t prefix_len = 0;

  // kReg: the (still-parameterized) regular prefix and its grounded vars.
  NormalizedQuery reg_query;
  std::vector<SymbolId> reg_vars;

  // kProject: the eliminated variable.
  SymbolId project_var = 0;

  // kSeq: the right-hand base subgoal. When seq_exclude_left_streams is set
  // (assume_distinct_keys relaxation), the witness probabilities for this
  // subgoal exclude every stream consumed by the left subplan.
  NormalizedSubgoal seq_goal;
  bool seq_exclude_left_streams = false;

  SafePlanPtr child;  // kProject / kSeq
};

/// Options controlling safe-plan *serving*: the incremental per-tick
/// kernels and bounded caches of engine/safe_engine.cc. Every knob here is
/// numerically neutral — the fast kernels skip exact zeros and reuse
/// deterministic rebuilds, so answers are bit-identical to the reference
/// loops at any capacity setting; the knobs trade recompute time against
/// resident memory.
struct SafePlanOptions {
  /// Use the sparse incremental seq kernels (skip timesteps whose witness
  /// probability is exactly 0 and reuse a per-node scratch buffer). false
  /// selects the reference dense loops — same doubles, O(t) per call —
  /// kept selectable for verification and as the bench's "pre-PR" cell.
  bool incremental = true;

  /// Bounded (ts, tf) interval memo per seq node (direct-mapped; collisions
  /// evict). Evicted entries recompute bit-identically on the next miss.
  size_t seq_memo_capacity = 1024;

  /// Bounded interval-row arena per reg leaf (LRU). An evicted row rebuilds
  /// bit-identically from the nearest chain keyframe when re-requested.
  /// Eviction scans the arena for the coldest row, so the capacity also
  /// bounds per-eviction work — keep it a small multiple of the live
  /// precursor window, not "as big as memory allows".
  size_t reg_row_capacity = 128;

  /// Spacing of reg-leaf chain keyframes (snapshots kept for row rebuilds);
  /// memory is O(horizon / interval) chains instead of one per timestep,
  /// and a row rebuild steps at most this many transitions from the
  /// preceding keyframe.
  size_t reg_keyframe_interval = 256;
};

/// Options controlling plan compilation.
struct PlanOptions {
  /// Relaxes the cannotUnify precondition of seq: subgoals whose key terms
  /// are syntactically different are treated as matching *distinct* keys
  /// (e.g. At(p, l2); At(q, l3) reads "another tag q"), and the seq
  /// operator's witness probabilities exclude the streams consumed by the
  /// left subplan. This matches the evaluation queries of Fig. 14; without
  /// it, such queries are rejected as potentially overlapping.
  bool assume_distinct_keys = false;

  /// The seq operator drops precursor/witness terms whose probability falls
  /// below this (0 disables truncation — the eager ablation). With dense
  /// witness streams the truncated sums are near-constant work per
  /// timestep, the behaviour behind Fig. 14(b).
  double seq_truncate = 1e-12;

  /// Incremental serving knobs (see SafePlanOptions above).
  SafePlanOptions safe;
};

/// Compiles a safe plan per Algorithm 1. Returns an UnsafeQuery status when
/// no safe plan exists (the query is #P-hard, Sections 3.4), or
/// Unimplemented for a Kleene tail that cannot fold into the reg leaf.
Result<SafePlanPtr> CompileSafePlan(const NormalizedQuery& q,
                                    const EventDatabase& db,
                                    const PlanOptions& options = {});

/// Renders the plan, e.g. "seq(pi_-x(reg<x>(R(x); S(x))), T('a', y))".
std::string PlanToString(const SafePlanNode& plan, const Interner& interner);

/// True if no event can unify with both subgoals (conservative syntactic
/// check; used by the seq precondition).
bool CanUnifySubgoals(const Subgoal& a, const Subgoal& b,
                      const EventDatabase& db);

// ---------------------------------------------------------------------------
// Cross-query sharing analysis (docs/SHARING.md).
//
// The canonicalizing rewrite maps a normalized query to a canonical byte
// key: variables are alpha-renamed by order of first occurrence (scanning
// subgoal terms left to right), CNF predicate clauses and their atoms are
// sorted into a canonical byte order, and comparisons are orientation-
// normalized. Two queries that drive the same automaton/chain structure
// therefore hash equal regardless of variable names or predicate spelling
// order. Keys are raw byte strings (may contain NULs); they are stable
// within one interner context, not across processes.
// ---------------------------------------------------------------------------

/// Canonical structural key of the whole query (subgoals + residual).
std::string CanonicalQueryKey(const NormalizedQuery& q);

/// keys[i] is the canonical key of the subgoal prefix [0, i] (residual
/// excluded). First-occurrence renaming makes keys[i] depend only on
/// subgoals 0..i, so two queries share an automaton prefix of length k iff
/// their keys[k-1] compare equal.
std::vector<std::string> CanonicalPrefixKeys(const NormalizedQuery& q);

/// Human-readable canonical form (variables rendered as $0, $1, ...); the
/// "after rewrite" view printed by `lahar_cli --explain`.
std::string CanonicalToString(const NormalizedQuery& q,
                              const Interner& interner);

/// \brief What the sharing pass discovered about one prepared query.
struct QuerySharingInfo {
  /// Whole-query canonical key: queries with equal keys are structurally
  /// identical and can share live evaluation state.
  std::string query_key;
  /// Per-prefix canonical keys (see CanonicalPrefixKeys).
  std::vector<std::string> prefix_keys;
  /// Standalone canonical key of each subgoal (the query's "alphabet"):
  /// position-independent, used to report partial structural overlap.
  std::vector<std::string> subgoal_keys;
  /// True when the runtime may share live chain state for this class.
  bool sharable = false;
  /// Why runtime chain sharing is declined (empty when sharable).
  std::string decline_reason;
};

/// Classifies a query's sharing potential. Regular/extended-regular queries
/// are chain-sharable; safe plans share only compiled kernels (their
/// operator state is plan-local); sampling sessions are never shared.
QuerySharingInfo AnalyzeSharing(const NormalizedQuery& q,
                                const Classification& c);

/// \brief Index of prepared queries keyed by canonical structure.
///
/// Detects (a) structurally identical queries — same canonical key, the
/// groups the runtime evaluates as one shared unit — and (b) common
/// automaton prefixes / shared subgoal alphabets across different queries,
/// reported by `lahar_cli --explain`. Not internally synchronized.
class SharedPlanIndex {
 public:
  struct Group {
    std::string key;
    std::vector<uint64_t> members;  // insertion order
  };
  struct PrefixOverlap {
    size_t subgoals = 0;  // longest shared automaton prefix, 0 if none
    uint64_t with = 0;    // some other member sharing that prefix
  };

  /// Registers a query; returns how many queries now share its key.
  size_t Add(uint64_t id, QuerySharingInfo info);
  void Remove(uint64_t id);

  size_t num_queries() const { return entries_.size(); }
  /// Number of canonical keys held by two or more queries.
  size_t num_groups() const;
  /// All key groups in first-insertion order.
  std::vector<Group> Groups() const;
  /// Longest automaton prefix `id` shares with any *other* indexed query.
  PrefixOverlap LongestPrefixOverlap(uint64_t id) const;
  /// Number of other queries sharing at least one subgoal-alphabet symbol.
  size_t NumAlphabetPeers(uint64_t id) const;
  const QuerySharingInfo* Find(uint64_t id) const;

 private:
  std::map<uint64_t, QuerySharingInfo> entries_;
};

}  // namespace lahar

#endif  // LAHAR_ANALYSIS_PLAN_H_
