#include "engine/safe_engine.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "analysis/bindings.h"

namespace lahar {

// ---------------------------------------------------------------------------
// Node evaluators. Each instance is one (plan node, grounding) pair and
// computes memoized interval probabilities P[q[ts, tf]].
// ---------------------------------------------------------------------------

class SafePlanEngine::NodeEval {
 public:
  virtual ~NodeEval() = default;

  /// P[subquery satisfied at some t in [ts, tf]]; ts >= 1.
  virtual Result<double> Prob(Timestamp ts, Timestamp tf) = 0;

  /// Extends the node's tables to cover timesteps up to `t`. Already
  /// computed entries are never recomputed: the tables grow monotonically
  /// in tf (Section 3.3's lazy evaluation), so extension is bit-identical
  /// to building them at the larger horizon in the first place.
  virtual Status ExtendTo(Timestamp t) = 0;

  /// Relative per-tick cost estimate (runtime shard balancing).
  virtual size_t StepCost() const = 0;

  /// Number of independently advanceable shard units under this node.
  virtual size_t NumUnits() const { return 1; }

  /// Advances shard unit `unit` to tick `t`. `warm` asks the unit to also
  /// pre-compute its diagonal probability P[t, t] into its (bounded) memo,
  /// so the single-threaded combine at CommitAdvance is a pure memo hit.
  /// Units are disjoint subtrees (the safety precondition keeps their
  /// streams disjoint), so distinct units may advance concurrently.
  virtual Status AdvanceUnit(size_t unit, Timestamp t, bool warm) {
    (void)unit;
    Status s = ExtendTo(t);
    if (s.ok() && warm) s = Prob(t, t).status();
    return s;
  }

  /// Per-unit cost estimate (runtime shard balancing).
  virtual size_t UnitCostOf(size_t unit) const {
    (void)unit;
    return StepCost();
  }

  /// Accumulates memo/row-cache counters over this subtree.
  virtual void AddMemoStats(SessionCounters* out) const { (void)out; }

  /// Serializes / restores the incremental evaluation state (frontier
  /// chains, witness tables). Bounded caches are not part of the state:
  /// they refill bit-identically on demand.
  virtual Status SaveNode(serial::Writer* w) const = 0;
  virtual Status LoadNode(serial::Reader* r) = 0;

  /// Streams whose events this subplan's probability depends on.
  const std::set<StreamId>& used_streams() const { return used_; }

 protected:
  std::set<StreamId> used_;
};

namespace {

using NodeEval = SafePlanEngine::NodeEval;

// Node tags in the serialized evaluator state (SaveNode/LoadNode).
constexpr uint8_t kRegTag = 1;
constexpr uint8_t kSeqTag = 2;
constexpr uint8_t kProjectTag = 3;

}  // namespace

// The reg<V> leaf: interval probabilities from the Markov-chain algorithm
// with an absorbing accept flag. Rows (fixed ts, all tf) are computed on
// demand and kept in a bounded LRU arena; instead of one chain snapshot per
// timestep, a single frontier chain advances with the stream and sparse
// keyframes (every reg_keyframe_interval steps) let an evicted row rebuild
// its start-of-row chain deterministically — the rebuilt chain replays the
// exact Step() sequence of the original, so row values are bit-identical.
class SafePlanEngine::RegEval : public SafePlanEngine::NodeEval {
 public:
  static Result<std::unique_ptr<RegEval>> Make(const NormalizedQuery& grounded,
                                               const EventDatabase& db,
                                               KernelCache* kernel_cache,
                                               const SafePlanOptions& safe) {
    // Every grounding (plus every keyframe/row copy) shares the plan's
    // compiled kernel.
    LAHAR_ASSIGN_OR_RETURN(
        RegularChain chain,
        RegularChain::Create(grounded, db, {}, {kernel_cache}));
    auto eval = std::make_unique<RegEval>();
    eval->horizon_ = chain.horizon();
    for (StreamId s : chain.participating()) eval->used_.insert(s);
    eval->row_capacity_ = std::max<size_t>(1, safe.reg_row_capacity);
    eval->keyframe_interval_ = std::max<size_t>(1, safe.reg_keyframe_interval);
    eval->base_ = chain;
    eval->frontier_ = std::move(chain);
    return eval;
  }

  Result<double> Prob(Timestamp ts, Timestamp tf) override {
    if (ts < 1) ts = 1;
    if (tf > horizon_) tf = horizon_;
    if (ts > tf || ts > horizon_) return 0.0;
    return RowValue(ts, tf);
  }

  // The chains read the database live and rows extend on demand, so growing
  // the leaf is just widening the clamp: O(1) per tick, the frontier chain
  // advances lazily the first time a row past its position is requested.
  Status ExtendTo(Timestamp t) override {
    if (t > horizon_) horizon_ = t;
    return Status::OK();
  }

  size_t StepCost() const override {
    return base_.StepCost() * (1 + rows_.size());
  }

  void AddMemoStats(SessionCounters* out) const override {
    out->rows_live += rows_.size();
    out->row_evictions += row_evictions_;
    out->row_rebuilds += row_rebuilds_;
  }

  Status SaveNode(serial::Writer* w) const override {
    w->U8(kRegTag);
    w->U32(horizon_);
    frontier_.SaveState(w);
    w->U64(keyframes_.size());
    for (const RegularChain& kf : keyframes_) kf.SaveState(w);
    return Status::OK();
  }

  Status LoadNode(serial::Reader* r) override {
    uint8_t tag = 0;
    LAHAR_RETURN_NOT_OK(r->U8(&tag));
    if (tag != kRegTag) {
      return Status::InvalidArgument("safe-plan state: expected reg leaf");
    }
    LAHAR_RETURN_NOT_OK(r->U32(&horizon_));
    LAHAR_RETURN_NOT_OK(frontier_.LoadState(r));
    uint64_t n = 0;
    LAHAR_RETURN_NOT_OK(r->U64(&n));
    keyframes_.clear();
    for (uint64_t i = 0; i < n; ++i) {
      RegularChain kf = base_;
      LAHAR_RETURN_NOT_OK(kf.LoadState(r));
      keyframes_.push_back(std::move(kf));
    }
    rows_.clear();
    created_.clear();
    return Status::OK();
  }

 private:
  // A partially computed row: the accept-tracking chain frozen at the last
  // computed timestep, extended only as far as callers actually ask — the
  // lazy evaluation behind Fig. 14(b).
  struct LazyRow {
    RegularChain chain;
    std::vector<double> values;  // values[b - a] = P[accept in [a, b]]
    uint64_t last_used = 0;
  };

  void AdvanceFrontierTo(Timestamp t) {
    while (frontier_.time() < t) {
      frontier_.Step();
      if (frontier_.time() % keyframe_interval_ == 0) {
        keyframes_.push_back(frontier_);
      }
    }
  }

  // Chain state after consuming timesteps 1..t: the frontier itself when t
  // is at or past it, else a copy of the nearest keyframe stepped forward.
  // Copies are exact and Step() is deterministic, so the result is the same
  // chain state no matter which start it was replayed from.
  RegularChain ChainAt(Timestamp t) {
    if (t >= frontier_.time()) {
      AdvanceFrontierTo(t);
      return frontier_;
    }
    const RegularChain* start = &base_;
    for (const RegularChain& kf : keyframes_) {
      if (kf.time() <= t) {
        start = &kf;
      } else {
        break;
      }
    }
    RegularChain chain = *start;
    while (chain.time() < t) chain.Step();
    return chain;
  }

  double RowValue(Timestamp a, Timestamp b) {
    auto it = rows_.find(a);
    if (it == rows_.end()) {
      if (created_.count(a)) {
        ++row_rebuilds_;  // evicted earlier, rebuilt from a keyframe
      } else {
        created_.insert(a);
      }
      RegularChain chain = ChainAt(a - 1);
      chain.EnableAcceptTracking();
      it = rows_.emplace(a, LazyRow{std::move(chain), {}, 0}).first;
      if (rows_.size() > row_capacity_) EvictColdestRow(a);
    }
    LazyRow& row = it->second;
    row.last_used = ++use_clock_;
    while (row.values.size() <= static_cast<size_t>(b - a)) {
      row.chain.Step();
      row.values.push_back(row.chain.AcceptedProb());
    }
    return row.values[b - a];
  }

  void EvictColdestRow(Timestamp keep) {
    auto victim = rows_.end();
    for (auto it = rows_.begin(); it != rows_.end(); ++it) {
      if (it->first == keep) continue;
      if (victim == rows_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim != rows_.end()) {
      rows_.erase(victim);
      ++row_evictions_;
    }
  }

  Timestamp horizon_ = 0;
  size_t row_capacity_ = 512;
  size_t keyframe_interval_ = 4096;
  RegularChain base_;      // chain at time 0 (keyframe of last resort)
  RegularChain frontier_;  // advances with the stream; rebuild source
  std::vector<RegularChain> keyframes_;  // ascending time()
  std::unordered_map<Timestamp, LazyRow> rows_;
  std::unordered_set<Timestamp> created_;  // row starts ever materialized
  uint64_t use_clock_ = 0;
  uint64_t row_evictions_ = 0;
  uint64_t row_rebuilds_ = 0;
};

// The seq operator: Eq. (3)'s precursor/witness decomposition. Serving keeps
// a sorted index of the timesteps whose witness probability is nonzero; the
// sparse kernels walk only those, skipping the exact-zero factors the dense
// loops would multiply through (x * 1.0 and 0.0-valued terms are IEEE
// no-ops, so the answers are bit-identical — see docs/PERF.md).
class SafePlanEngine::SeqEval : public SafePlanEngine::NodeEval {
 public:
  static Result<std::unique_ptr<SeqEval>> Make(
      std::unique_ptr<NodeEval> child, const NormalizedSubgoal& goal,
      const Binding& binding, const EventDatabase& db, bool exclude_left,
      const PlanOptions& options) {
    auto eval = std::make_unique<SeqEval>();
    eval->db_ = &db;
    eval->truncate_ = options.seq_truncate;
    eval->incremental_ = options.safe.incremental;
    eval->memo_.assign(std::max<size_t>(1, options.safe.seq_memo_capacity),
                       MemoEntry{});
    eval->exclude_left_ = exclude_left;
    eval->used_ = child->used_streams();
    eval->child_ = std::move(child);

    // Ground the subgoal and localize its predicates.
    eval->goal_sub_ = goal.goal;
    for (Term& t : eval->goal_sub_.terms) {
      if (!t.is_var) continue;
      auto it = binding.find(t.var);
      if (it != binding.end()) t = Term::Const(it->second);
    }
    eval->match_ = goal.match_pred.Substitute(binding);
    eval->accept_ = goal.accept_pred.Substitute(binding);

    eval->schema_ = db.FindSchema(eval->goal_sub_.type);
    if (eval->schema_ == nullptr) {
      return Status::NotFound("no schema for seq subgoal");
    }
    // Classify every candidate witness stream up front so structural errors
    // (Markovian witness streams) surface at Create time, as they did when
    // the whole table was built eagerly.
    for (StreamId sid : db.StreamsOfType(eval->goal_sub_.type)) {
      if (eval->exclude_left_ && eval->child_->used_streams().count(sid)) {
        continue;
      }
      LAHAR_RETURN_NOT_OK(eval->RefreshWitness(sid));
    }
    eval->w_.assign(1, 0.0);
    LAHAR_RETURN_NOT_OK(eval->ExtendTo(db.horizon()));
    return eval;
  }

  // Per-timestep probability that *some* stream produces a witness event,
  // appended one column per new timestep. Per t, the (1 - pa) factors
  // multiply in StreamsOfType order — the same sequence a from-scratch
  // build walks — so extension is bit-identical to eager evaluation.
  Status ExtendTo(Timestamp target) override {
    LAHAR_RETURN_NOT_OK(child_->ExtendTo(target));
    if (target <= horizon_) return Status::OK();
    w_.resize(target + 1, 0.0);
    for (Timestamp t = horizon_ + 1; t <= target; ++t) {
      double none = 1.0;
      for (StreamId sid : db_->StreamsOfType(goal_sub_.type)) {
        if (exclude_left_ && child_->used_streams().count(sid)) continue;
        const Stream& stream = db_->stream(sid);
        if (t > stream.horizon()) continue;
        LAHAR_RETURN_NOT_OK(RefreshWitness(sid));
        const Witness& wit = witnesses_[sid];
        if (!wit.can_match) continue;
        const auto& marg = stream.MarginalAt(t);
        double pa = 0, pm_only = 0;
        for (DomainIndex d = 1; d < marg.size(); ++d) {
          if (wit.matches[d]) pa += marg[d];
          if (wit.matches_m_only[d]) pm_only += marg[d];
        }
        if (pm_only > 1e-12) {
          return Status::Unimplemented(
              "the seq operator's right-hand subgoal has a trailing "
              "selection that can fail on matching events (q_s blocking "
              "semantics); rewrite the condition into the subgoal predicate "
              "(':' form) or use the sampling engine");
        }
        none *= 1.0 - pa;
      }
      w_[t] = 1.0 - none;
      if (w_[t] != 0.0) active_.push_back(t);
    }
    horizon_ = target;
    return Status::OK();
  }

  size_t StepCost() const override {
    size_t groundings = 0;
    for (const auto& [sid, wit] : witnesses_) {
      if (wit.can_match) ++groundings;
    }
    return child_->StepCost() + groundings + last_live_window_ + 1;
  }

  size_t NumUnits() const override { return child_->NumUnits(); }

  // Shard work forwards to the child's grounding groups. warm is forced off:
  // this node queries the child at (lo, tfp - 1) intervals, so warming the
  // child's (t, t) diagonal would only churn its row caches.
  Status AdvanceUnit(size_t unit, Timestamp t, bool warm) override {
    (void)warm;
    return child_->AdvanceUnit(unit, t, false);
  }

  size_t UnitCostOf(size_t unit) const override {
    return child_->UnitCostOf(unit) + 1;
  }

  void AddMemoStats(SessionCounters* out) const override {
    out->memo_entries += memo_live_;
    out->memo_hits += memo_hits_;
    out->memo_misses += memo_misses_;
    out->memo_evictions += memo_evictions_;
    child_->AddMemoStats(out);
  }

  Status SaveNode(serial::Writer* w) const override {
    w->U8(kSeqTag);
    w->U32(horizon_);
    w->DoubleVec(w_);
    return child_->SaveNode(w);
  }

  Status LoadNode(serial::Reader* r) override {
    uint8_t tag = 0;
    LAHAR_RETURN_NOT_OK(r->U8(&tag));
    if (tag != kSeqTag) {
      return Status::InvalidArgument("safe-plan state: expected seq node");
    }
    LAHAR_RETURN_NOT_OK(r->U32(&horizon_));
    LAHAR_RETURN_NOT_OK(r->DoubleVec(&w_));
    if (w_.size() < static_cast<size_t>(horizon_) + 1) {
      return Status::InvalidArgument("safe-plan state: witness table short");
    }
    active_.clear();
    for (Timestamp t = 1; t <= horizon_; ++t) {
      if (w_[t] != 0.0) active_.push_back(t);
    }
    memo_.assign(memo_.size(), MemoEntry{});
    memo_live_ = 0;
    memo_hits_ = memo_misses_ = memo_evictions_ = 0;
    return child_->LoadNode(r);
  }

  Result<double> Prob(Timestamp ts, Timestamp tf) override {
    if (ts < 1) ts = 1;
    if (tf > horizon_) tf = horizon_;
    if (ts > tf) return 0.0;
    MemoEntry& entry = memo_[MemoSlot(ts, tf)];
    if (entry.valid && entry.ts == ts && entry.tf == tf) {
      ++memo_hits_;
      return entry.value;
    }
    ++memo_misses_;
    double total = 0.0;
    if (incremental_) {
      LAHAR_ASSIGN_OR_RETURN(total, ComputeSparse(ts, tf));
    } else {
      LAHAR_ASSIGN_OR_RETURN(total, ComputeDense(ts, tf));
    }
    if (entry.valid) {
      ++memo_evictions_;
    } else {
      ++memo_live_;
    }
    entry = MemoEntry{ts, tf, total, true};
    return total;
  }

 private:
  // Which of a stream's domain values satisfy the grounded subgoal, cached
  // across ExtendTo calls and re-evaluated only for domain values interned
  // after the last refresh.
  struct Witness {
    std::vector<bool> matches;         // accept-qualified values
    std::vector<bool> matches_m_only;  // match- but not accept-qualified
    bool can_match = false;
  };

  // One direct-mapped (ts, tf) interval memo slot; collisions overwrite
  // (counted as evictions) and recompute bit-identically on the next miss.
  struct MemoEntry {
    Timestamp ts = 0;
    Timestamp tf = 0;
    double value = 0.0;
    bool valid = false;
  };

  size_t MemoSlot(Timestamp ts, Timestamp tf) const {
    uint64_t key = (static_cast<uint64_t>(ts) << 32) | tf;
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> 32) %
           memo_.size();
  }

  // Eq. (3) over the nonzero witness positions only. The dense loops below
  // walk every u in [1, tf]; at a position with w[u] == 0 they multiply the
  // suffix products by 1.0 - 0.0 (a bit-exact no-op), produce a 0.0-valued
  // precursor/witness term that the <= kTruncate / > kTruncate tests then
  // drop (for any kTruncate >= 0, including the seq_truncate = 0 eager
  // ablation), and leave the break conditions unchanged. So walking only
  // active_ performs the same IEEE operations in the same order: answers
  // are bit-identical, and per-call work is O(live window), not O(t).
  Result<double> ComputeSparse(Timestamp ts, Timestamp tf) {
    const double kTruncate = truncate_;
    // Precursor terms over T_p in descending order; pp = w[tsp] * suffix.
    scratch_.clear();
    double suffix = 1.0;  // prod of (1 - w[u]) for u in (tsp, ts)
    auto lo_it = std::lower_bound(active_.begin(), active_.end(), ts);
    for (auto it = lo_it; it != active_.begin();) {
      --it;
      Timestamp tsp = *it;
      scratch_.emplace_back(tsp, w_[tsp] * suffix);
      suffix *= 1.0 - w_[tsp];
      if (suffix < kTruncate) {
        suffix = 0.0;
        break;
      }
    }
    const double precursor0 = suffix;  // no g-event before ts at all

    double total = 0.0;
    double wit_suffix = 1.0;  // prod of (1 - w[u]) for u in (tfp, tf]
    auto hi_it = std::upper_bound(active_.begin(), active_.end(), tf);
    for (auto it = hi_it; it != lo_it;) {
      --it;
      Timestamp tfp = *it;
      double pw = w_[tfp] * wit_suffix;
      wit_suffix *= 1.0 - w_[tfp];
      if (pw > kTruncate) {
        double inner = 0.0;
        if (precursor0 > kTruncate && tfp >= 2) {
          LAHAR_ASSIGN_OR_RETURN(double pc, child_->Prob(1, tfp - 1));
          inner += precursor0 * pc;
        }
        for (size_t k = scratch_.size(); k-- > 0;) {  // ascending tsp
          const auto& [tsp, pp] = scratch_[k];
          if (pp <= kTruncate) continue;
          if (tfp < tsp + 1) continue;  // empty interval [tsp, tfp - 1]
          LAHAR_ASSIGN_OR_RETURN(double pc, child_->Prob(tsp, tfp - 1));
          inner += pp * pc;
        }
        total += pw * inner;
      }
      if (wit_suffix < kTruncate) break;
    }
    last_live_window_ = scratch_.size();
    return total;
  }

  // Reference path (SafePlanOptions::incremental = false): the dense
  // Eq. (3) loops over every timestep. Kept selectable for verification —
  // ComputeSparse must match it bit-for-bit — and as the benchmarks'
  // "pre-PR" cell.
  Result<double> ComputeDense(Timestamp ts, Timestamp tf) {
    // Precursor distribution over T_p (shared across all witnesses).
    // precursor[i]: i = 0 means "no precursor", else T_p = i. Terms whose
    // probability falls below kTruncate contribute nothing measurable and
    // are dropped — with dense witness streams this keeps each evaluation
    // near-constant work, which is what makes the measured Fig. 14(b)
    // scaling so much better than the O(T^3) analytic bound.
    const double kTruncate = truncate_;
    std::vector<double> precursor(ts, 0.0);
    size_t window = 0;
    {
      double suffix = 1.0;  // prod of (1 - w[u]) for u in (ts', ts)
      for (Timestamp tsp = ts; tsp-- > 1;) {
        precursor[tsp] = w_[tsp] * suffix;
        suffix *= 1.0 - w_[tsp];
        ++window;
        if (suffix < kTruncate) {
          suffix = 0.0;
          break;
        }
      }
      precursor[0] = suffix;  // no g-event before ts at all
    }

    double total = 0.0;
    double wit_suffix = 1.0;  // prod of (1 - w[u]) for u in (tf', tf]
    for (Timestamp tfp = tf + 1; tfp-- > ts;) {
      double pw = w_[tfp] * wit_suffix;
      wit_suffix *= 1.0 - w_[tfp];
      if (pw > kTruncate) {
        double inner = 0.0;
        for (Timestamp tsp = 0; tsp < ts; ++tsp) {
          if (precursor[tsp] <= kTruncate) continue;
          Timestamp lo = tsp == 0 ? 1 : tsp;
          if (tfp < lo + 1) continue;  // empty interval [lo, tfp - 1]
          LAHAR_ASSIGN_OR_RETURN(double pc, child_->Prob(lo, tfp - 1));
          inner += precursor[tsp] * pc;
        }
        total += pw * inner;
      }
      if (wit_suffix < kTruncate) break;
    }
    last_live_window_ = window;
    return total;
  }

  Status RefreshWitness(StreamId sid) {
    const Stream& stream = db_->stream(sid);
    Witness& wit = witnesses_[sid];
    if (wit.matches.size() >= stream.domain_size()) return Status::OK();
    DomainIndex from = static_cast<DomainIndex>(wit.matches.size());
    if (from < 1) from = 1;  // index 0 is bottom
    wit.matches.resize(stream.domain_size(), false);
    wit.matches_m_only.resize(stream.domain_size(), false);
    Binding scratch;
    for (DomainIndex d = from; d < stream.domain_size(); ++d) {
      scratch.clear();
      if (!UnifyEvent(goal_sub_, stream.key(), stream.TupleOf(d),
                      schema_->num_key_attrs, &scratch)) {
        continue;
      }
      LAHAR_ASSIGN_OR_RETURN(bool m, match_.Eval(scratch, *db_));
      if (!m) continue;
      LAHAR_ASSIGN_OR_RETURN(bool a, accept_.Eval(scratch, *db_));
      if (a) {
        wit.matches[d] = true;
      } else {
        wit.matches_m_only[d] = true;
      }
      wit.can_match = true;
    }
    if (!wit.can_match) return Status::OK();
    if (stream.markovian()) {
      return Status::InvalidArgument(
          "the seq operator requires witness streams of type '" +
          db_->interner().Name(stream.type()) +
          "' to be independent across time (Section 3.3 assumption); "
          "archived Markovian streams are only supported inside reg "
          "leaves");
    }
    used_.insert(sid);
    return Status::OK();
  }

  const EventDatabase* db_ = nullptr;
  const EventSchema* schema_ = nullptr;
  Subgoal goal_sub_;  // grounded right-hand subgoal
  Condition match_;   // localized predicates
  Condition accept_;
  bool exclude_left_ = false;
  bool incremental_ = true;
  Timestamp horizon_ = 0;
  double truncate_ = 1e-12;
  std::unique_ptr<NodeEval> child_;
  std::unordered_map<StreamId, Witness> witnesses_;
  std::vector<double> w_;            // witness probability per timestep
  std::vector<Timestamp> active_;    // sorted timesteps with w_[t] != 0
  std::vector<MemoEntry> memo_;      // direct-mapped (ts, tf) memo
  size_t memo_live_ = 0;
  uint64_t memo_hits_ = 0;
  uint64_t memo_misses_ = 0;
  uint64_t memo_evictions_ = 0;
  // Reused per ComputeSparse call: (tsp, precursor probability) descending.
  std::vector<std::pair<Timestamp, double>> scratch_;
  size_t last_live_window_ = 0;  // precursor terms walked by the last call
};

// The independent-project operator: groundings of x use disjoint tuples, so
// P = 1 - prod over groundings (1 - P_grounding). The groundings are the
// natural shard units: their streams are disjoint by construction, so
// distinct children advance concurrently and the combine at CommitAdvance
// reads their warmed (t, t) memo entries.
class SafePlanEngine::ProjectEval : public SafePlanEngine::NodeEval {
 public:
  explicit ProjectEval(std::vector<std::unique_ptr<NodeEval>> children)
      : children_(std::move(children)) {
    for (const auto& c : children_) {
      used_.insert(c->used_streams().begin(), c->used_streams().end());
    }
  }

  Result<double> Prob(Timestamp ts, Timestamp tf) override {
    double none = 1.0;
    for (const auto& c : children_) {
      LAHAR_ASSIGN_OR_RETURN(double p, c->Prob(ts, tf));
      none *= 1.0 - p;
    }
    return 1.0 - none;
  }

  Status ExtendTo(Timestamp t) override {
    for (const auto& c : children_) LAHAR_RETURN_NOT_OK(c->ExtendTo(t));
    return Status::OK();
  }

  size_t StepCost() const override {
    size_t total = 1;
    for (const auto& c : children_) total += c->StepCost();
    return total;
  }

  size_t NumUnits() const override {
    return children_.empty() ? 1 : children_.size();
  }

  Status AdvanceUnit(size_t unit, Timestamp t, bool warm) override {
    if (children_.empty()) return Status::OK();
    if (unit >= children_.size()) {
      return Status::Internal("project shard unit out of range");
    }
    NodeEval& child = *children_[unit];
    LAHAR_RETURN_NOT_OK(child.ExtendTo(t));
    if (warm) return child.Prob(t, t).status();
    return Status::OK();
  }

  size_t UnitCostOf(size_t unit) const override {
    if (unit >= children_.size()) return 1;
    return children_[unit]->StepCost();
  }

  void AddMemoStats(SessionCounters* out) const override {
    for (const auto& c : children_) c->AddMemoStats(out);
  }

  Status SaveNode(serial::Writer* w) const override {
    w->U8(kProjectTag);
    w->U64(children_.size());
    for (const auto& c : children_) LAHAR_RETURN_NOT_OK(c->SaveNode(w));
    return Status::OK();
  }

  Status LoadNode(serial::Reader* r) override {
    uint8_t tag = 0;
    LAHAR_RETURN_NOT_OK(r->U8(&tag));
    if (tag != kProjectTag) {
      return Status::InvalidArgument("safe-plan state: expected project");
    }
    uint64_t n = 0;
    LAHAR_RETURN_NOT_OK(r->U64(&n));
    if (n != children_.size()) {
      return Status::InvalidArgument(
          "safe-plan state: grounding count mismatch (database snapshot "
          "differs from the checkpointed one)");
    }
    for (const auto& c : children_) LAHAR_RETURN_NOT_OK(c->LoadNode(r));
    return Status::OK();
  }

 private:
  std::vector<std::unique_ptr<NodeEval>> children_;
};

namespace {

// Builds the evaluator tree for `node` under `binding`.
Result<std::unique_ptr<NodeEval>> MakeEval(const SafePlanNode& node,
                                           const NormalizedQuery& full_query,
                                           const Binding& binding,
                                           const EventDatabase& db,
                                           const PlanOptions& options,
                                           KernelCache* kernel_cache) {
  switch (node.kind) {
    case SafePlanNode::Kind::kReg: {
      NormalizedQuery grounded = node.reg_query.Substitute(binding);
      LAHAR_ASSIGN_OR_RETURN(
          std::unique_ptr<SafePlanEngine::RegEval> eval,
          SafePlanEngine::RegEval::Make(grounded, db, kernel_cache,
                                        options.safe));
      return std::unique_ptr<NodeEval>(std::move(eval));
    }
    case SafePlanNode::Kind::kProject: {
      std::vector<std::unique_ptr<NodeEval>> children;
      std::set<Value> values = CandidateValues(
          full_query, db, node.project_var, binding, 0, node.prefix_len);
      for (const Value& v : values) {
        Binding extended = binding;
        extended[node.project_var] = v;
        LAHAR_ASSIGN_OR_RETURN(
            std::unique_ptr<NodeEval> child,
            MakeEval(*node.child, full_query, extended, db, options,
                     kernel_cache));
        children.push_back(std::move(child));
      }
      return std::unique_ptr<NodeEval>(
          new SafePlanEngine::ProjectEval(std::move(children)));
    }
    case SafePlanNode::Kind::kSeq: {
      LAHAR_ASSIGN_OR_RETURN(
          std::unique_ptr<NodeEval> child,
          MakeEval(*node.child, full_query, binding, db, options,
                   kernel_cache));
      LAHAR_ASSIGN_OR_RETURN(
          std::unique_ptr<SafePlanEngine::SeqEval> eval,
          SafePlanEngine::SeqEval::Make(std::move(child), node.seq_goal,
                                        binding, db,
                                        node.seq_exclude_left_streams,
                                        options));
      return std::unique_ptr<NodeEval>(std::move(eval));
    }
  }
  return Status::Internal("bad plan node");
}

// Version bytes of the session state (clock) and of the engine-level
// incremental state blob that follows it.
constexpr uint8_t kSafeSessionVersion = 1;
constexpr uint8_t kSafeStateVersion = 1;

}  // namespace

Result<SafePlanEngine> SafePlanEngine::Create(const PreparedQuery& prepared,
                                              const EventDatabase& db,
                                              const PlanOptions& options) {
  const NormalizedQuery& q = prepared.normalized;
  SafePlanEngine engine(prepared.classification.query_class);
  LAHAR_ASSIGN_OR_RETURN(engine.plan_, CompileSafePlan(q, db, options));
  // Reg leaves share compiled kernels through the prepared query's cache
  // (plan-local when it has none): the project operator grounds the same
  // subquery once per key, and every grounding shares one kernel.
  KernelCache local_cache;
  KernelCache* kernel_cache = prepared.kernel_cache != nullptr
                                  ? prepared.kernel_cache.get()
                                  : &local_cache;
  LAHAR_ASSIGN_OR_RETURN(
      std::unique_ptr<NodeEval> root,
      MakeEval(*engine.plan_, q, Binding{}, db, options, kernel_cache));
  auto holder = std::shared_ptr<NodeEval>(std::move(root));
  engine.root_ = holder.get();
  engine.root_holder_ = holder;
  return engine;
}

Result<double> SafePlanEngine::IntervalProb(Timestamp ts, Timestamp tf) {
  if (ts < 1) {
    return Status::InvalidArgument(
        "IntervalProb requires ts >= 1 (timesteps are 1-based)");
  }
  if (ts > tf) {
    return Status::InvalidArgument(
        "IntervalProb requires ts <= tf (empty interval)");
  }
  return root_->Prob(ts, tf);
}

size_t SafePlanEngine::num_units() const { return root_->NumUnits(); }

void SafePlanEngine::PrepareAdvance() {
  shard_status_.assign(num_units(), Status::OK());
}

void SafePlanEngine::AdvanceShard(size_t begin, size_t end) {
  const size_t n = shard_status_.size();
  for (size_t i = begin; i < end && i < n; ++i) {
    shard_status_[i] = root_->AdvanceUnit(i, t_ + 1, /*warm=*/true);
  }
}

Result<double> SafePlanEngine::CommitAdvance() {
  ++t_;
  for (Status& s : shard_status_) {
    if (!s.ok()) {
      Status failed = std::move(s);
      shard_status_.clear();
      return failed;
    }
  }
  shard_status_.clear();
  // Extends whatever the shards did not cover (e.g. a root seq node's
  // witness table) and combines: the warmed child values are memo hits, so
  // the result is bit-identical to an unsharded extend-and-combine.
  LAHAR_RETURN_NOT_OK(root_->ExtendTo(t_));
  return root_->Prob(t_, t_);
}

size_t SafePlanEngine::UnitCost(size_t unit) const {
  return root_->UnitCostOf(unit);
}

SessionCounters SafePlanEngine::Counters() const {
  SessionCounters out;
  root_->AddMemoStats(&out);
  return out;
}

// The session-state version byte and clock, then the engine-level blob
// under its own version byte.
Status SafePlanEngine::SaveState(serial::Writer* w) const {
  w->U8(kSafeSessionVersion);
  w->U32(t_);
  w->U8(kSafeStateVersion);
  return root_->SaveNode(w);
}

Status SafePlanEngine::LoadState(serial::Reader* r) {
  uint8_t version = 0;
  LAHAR_RETURN_NOT_OK(r->U8(&version));
  if (version != kSafeSessionVersion) {
    return Status::InvalidArgument("unsupported safe-session state");
  }
  LAHAR_RETURN_NOT_OK(r->U32(&t_));
  LAHAR_RETURN_NOT_OK(r->U8(&version));
  if (version != kSafeStateVersion) {
    return Status::InvalidArgument("unsupported safe-plan state version");
  }
  return root_->LoadNode(r);
}

}  // namespace lahar
