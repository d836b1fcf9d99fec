// The engine-agnostic standing-query abstraction: one QuerySession per
// registered query, regardless of its class. Every evaluation method —
// the Markov chains of Theorems 3.3/3.7, the safe-plan algebra of Section
// 3.3, and the Monte-Carlo sampler of Section 3.5 — is an engine that
// implements this incremental protocol itself, so the runtime
// (src/runtime/) multiplexes all four query classes through a single
// serving path, and batch evaluation (Lahar::Run) is the same session run
// to the horizon (RunToHorizon):
//
//   class            session                per-tick cost   answers
//   Regular          ExtendedRegularEngine  O(1)            exact
//   ExtendedRegular  ExtendedRegularEngine  O(m)            exact
//   Safe             SafePlanEngine         O(live window)  exact
//   Unsafe           SamplingEngine         O(T * |W|)      (eps, delta)
//
// RunToHorizon is batch evaluation, registration catch-up and checkpoint
// restore alike. The exact engines run it as the Advance() loop; the
// SamplingEngine extends each world through the horizon and evaluates it
// once (O(T * |W|) per sample in total), drawing exactly the worlds the
// Advance() loop would, so every class publishes exactly the batch answers.
//
// The protocol has two forms. Advance() consumes one timestep and returns
// P[q@t] at the new time. The split PrepareAdvance() / AdvanceShard(begin,
// end) / CommitAdvance() form is what the sharded executor speaks: per
// session and per tick, one prepare, then disjoint unit ranges stepped
// (possibly on different threads) while the database is quiescent, then one
// commit that combines them bit-identically to a plain Advance().
//
// The phases are per-SESSION, not global: the windowed executor
// (runtime/executor.h) runs different sessions' phases concurrently and
// out of lockstep — one worker may drive its sessions through W ticks of
// prepare/step/commit back to back while another is still on the window's
// first tick. A session only has to be consistent with its own protocol
// order; it must not assume all sessions sit at the same tick while a
// window is in flight (all of them do again by the time the window's
// results are published).
#ifndef LAHAR_ENGINE_SESSION_H_
#define LAHAR_ENGINE_SESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "analysis/classify.h"
#include "analysis/prepared.h"
#include "common/serial.h"
#include "engine/counters.h"
#include "engine/regular_engine.h"

namespace lahar {

/// Which engine evaluates a query.
enum class EngineKind {
  kRegular,
  kExtendedRegular,
  kSafePlan,
  kSampling,
};

const char* EngineKindName(EngineKind kind);

struct LaharOptions;  // engine/lahar.h

/// \brief A cross-session shared evaluation unit (docs/SHARING.md): one
/// RegularChain stepped once per tick on behalf of every structurally
/// identical grounded chain (equal canonical key) across standing queries.
///
/// The runtime steps the unit through AdvanceTo exactly once per window,
/// recording each tick's accept probability in a bounded frontier ring;
/// delegated sessions then read ProbAt(t) instead of stepping their own
/// copy. Chains are cloned *from* a live member at creation and copied
/// *back* at undelegation, so membership churn never loses state. Not
/// internally synchronized: AdvanceTo runs on the runtime coordinator
/// before worker fan-out, and workers only call the const readers.
class SharedSubChain {
 public:
  /// `frontier_history` bounds how many recent ticks ProbAt can answer; it
  /// must exceed the deepest read lag (the executor sizes it to the window
  /// cap plus slack).
  SharedSubChain(RegularChain chain, size_t frontier_history);

  Timestamp time() const { return chain_.time(); }

  /// Steps the chain up to timestep `to` (idempotent for to <= time()),
  /// recording per-tick probabilities in the frontier ring. Returns the
  /// number of steps executed.
  size_t AdvanceTo(Timestamp to);

  /// P[q@t] recorded by AdvanceTo; `t` must lie within the frontier
  /// history of time().
  double ProbAt(Timestamp t) const { return ring_[t % ring_.size()]; }

  const RegularChain& chain() const { return chain_; }
  /// Checkpoint restore loads directly into the chain, then calls
  /// ResyncFrontier to re-prime the current tick's ring entry.
  RegularChain* mutable_chain() { return &chain_; }
  void ResyncFrontier();

  /// Membership bookkeeping (maintained by the registry's sharing pool).
  size_t readers() const { return readers_; }
  void AddReader() { ++readers_; }
  void DropReader() { --readers_; }

  /// Cumulative steps executed by AdvanceTo.
  uint64_t steps() const { return steps_; }
  const Status& status() const { return chain_.status(); }

 private:
  RegularChain chain_;
  std::vector<double> ring_;
  size_t readers_ = 0;
  uint64_t steps_ = 0;
};

/// \brief Incremental evaluation session for one standing query.
class QuerySession {
 public:
  virtual ~QuerySession() = default;

  /// Consumes timestep time()+1 (which every participating stream must
  /// already cover via Append*, unless it has ended) and returns P[q@t] at
  /// the new time. Equivalent to AdvanceShard(0, num_units()) followed by
  /// CommitAdvance().
  virtual Result<double> Advance();

  /// Advances to `horizon` and returns P[q@t] for t in (time(), horizon]
  /// (index 0 and already-consumed ticks stay 0), exactly as the Advance()
  /// loop would. This is batch evaluation (Lahar::Run is a fresh session run
  /// to the database horizon) and the registry's catch-up. Default: the
  /// Advance() loop.
  virtual Result<std::vector<double>> RunToHorizon(Timestamp horizon);

  /// The last consumed timestep (0 before the first Advance).
  virtual Timestamp time() const = 0;

  /// Number of independently steppable units: per-grounding chains for the
  /// chain engine, Monte-Carlo samples for the sampling engine, and
  /// independent grounding groups (project children) for a safe plan.
  virtual size_t num_units() const = 0;

  /// Relative per-tick cost estimate of unit `i` (shard balancing).
  virtual size_t UnitCost(size_t i) const = 0;

  /// One past the last unit of the indivisible shard group containing unit
  /// i. The executor aligns shard-range boundaries on group ends so a split
  /// never shears a group whose units must be stepped together to stay on
  /// their fast path (e.g. a lane-interleaved SIMD stripe). Groups are a
  /// performance hint only — any split is still correct. Default: every
  /// unit is its own group.
  virtual size_t UnitGroupEnd(size_t i) const { return i + 1; }

  /// Stats-only counters (see engine/counters.h). Default: all zero.
  virtual SessionCounters Counters() const { return {}; }

  /// Total per-tick cost estimate: sum of UnitCost over all units.
  size_t StepCost() const;

  /// Single-threaded (per session) preparation before the tick's shard
  /// fan-out: sessions refresh state shared across units here (e.g. the
  /// sampling engine's symbol tables after a stream interned new domain
  /// values). The executor calls it exactly once per tick of this session,
  /// before the tick's first AdvanceShard — under windowed execution that
  /// is W times back to back, interleaved only with this session's own
  /// steps and commits. Errors latch inside the session and surface at
  /// CommitAdvance. Default: no-op.
  virtual void PrepareAdvance() {}

  /// Advances only the units in [begin, end) to time()+1. Disjoint ranges
  /// of this session may run on different threads; the database must be
  /// quiescent and this session's CommitAdvance must not be called while
  /// any of its ranges is in flight. Other sessions advance independently
  /// and may be at different ticks of the same window.
  virtual void AdvanceShard(size_t begin, size_t end) = 0;

  /// Completes a split advance once every unit range has been stepped:
  /// bumps time() and returns P[q@t], combined bit-identically to
  /// Advance(). Errors raised by shard work (e.g. a safe-plan operator
  /// hitting an unsupported construct mid-stream) surface here.
  virtual Result<double> CommitAdvance() = 0;

  QueryClass query_class() const { return query_class_; }
  EngineKind engine_kind() const { return engine_kind_; }
  /// False when answers carry the sampling engine's (eps, delta) guarantee
  /// instead of being exact.
  bool exact() const { return exact_; }

  /// True when the session serializes its state directly (SaveState /
  /// LoadState). Sessions without direct support are restored by
  /// RunToHorizon over the database prefix instead — bit-identical either
  /// way (it is the catch-up hot registration uses; the sampler's
  /// determinism comes from its fixed seed).
  virtual bool SupportsStateRestore() const { return false; }

  /// Serializes the session's evaluation state (checkpoint). Only valid
  /// when SupportsStateRestore(); the blob is opaque and versioned by the
  /// enclosing checkpoint, and must be loaded into a session created over
  /// an identical database snapshot by the same query text.
  virtual Status SaveState(serial::Writer* w) const {
    (void)w;
    return Status::Unimplemented("session does not serialize state");
  }

  /// Restores state written by SaveState on an equivalent session.
  virtual Status LoadState(serial::Reader* r) {
    (void)r;
    return Status::Unimplemented("session does not serialize state");
  }

  // --- Cross-session sharing hooks (docs/SHARING.md) ----------------------
  // The registry's sharing pool groups sessions whose units carry equal
  // canonical keys and swaps their private chains for one SharedSubChain.
  // Classes that decline sharing keep the no-op defaults.

  /// Units eligible for cross-session sharing (grounded chains with a
  /// canonical key); indices coincide with the unit indices of AdvanceShard.
  virtual size_t NumShareableUnits() const { return 0; }

  /// Canonical structural key of shareable unit `i` (see
  /// analysis/plan.h CanonicalQueryKey), computed on demand: only sharing
  /// registrations ask for it.
  virtual std::string ShareableUnitKey(size_t i) const {
    (void)i;
    return {};
  }

  /// Clones unit `i`'s live chain into a fresh shared unit that other
  /// sessions with the same key can adopt. Null when the unit cannot seed
  /// one (latched error, already delegated).
  virtual std::shared_ptr<SharedSubChain> MakeSharedUnit(
      size_t i, size_t frontier_history) const {
    (void)i;
    (void)frontier_history;
    return nullptr;
  }

  /// Delegates unit `i` to `unit`: the session stops stepping its private
  /// chain and reads per-tick probabilities from the shared frontier.
  /// Passing null undelegates (the shared state is copied back into the
  /// private chain). Returns false when delegation is refused (time
  /// mismatch or latched error); the caller must then leave the session
  /// evaluating privately.
  virtual bool DelegateUnit(size_t i,
                            const std::shared_ptr<SharedSubChain>& unit) {
    (void)i;
    (void)unit;
    return false;
  }

  /// Catch-up by adoption: a fresh session (time() == 0) delegates every
  /// unit i to `units[i]`, all live at `tick`, and takes their state at
  /// `tick` as its own instead of replaying timesteps 1..tick. All or
  /// nothing: returns false and leaves the session untouched unless every
  /// unit can be delegated. Default: refused (the caller replays).
  virtual bool AdoptUnits(
      const std::vector<std::shared_ptr<SharedSubChain>>& units,
      Timestamp tick) {
    (void)units;
    (void)tick;
    return false;
  }

 protected:
  QuerySession(QueryClass query_class, EngineKind engine_kind, bool exact)
      : query_class_(query_class), engine_kind_(engine_kind), exact_(exact) {}
  QuerySession(QuerySession&&) = default;
  QuerySession& operator=(QuerySession&&) = default;

 private:
  QueryClass query_class_;
  EngineKind engine_kind_;
  bool exact_;
};

/// Routes a prepared query to the cheapest engine able to serve it:
/// Regular/ExtendedRegular -> ExtendedRegularEngine, Safe -> SafePlanEngine
/// (falling back to sampling when no safe plan compiles and
/// options.allow_sampling_fallback is set), Unsafe -> SamplingEngine (or
/// an UnsafeQuery error when fallback is disabled). Rejections carry the
/// query's class in the kQueryClassPayload status payload. The engines take
/// their compiled-kernel cache and row pool from `prepared`.
Result<std::unique_ptr<QuerySession>> CreateQuerySession(
    EventDatabase* db, const PreparedQuery& prepared,
    const LaharOptions& options);

}  // namespace lahar

#endif  // LAHAR_ENGINE_SESSION_H_
