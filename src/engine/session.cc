#include "engine/session.h"

#include <utility>

#include "engine/safe_engine.h"
#include "engine/sampling_engine.h"
#include "engine/streaming.h"

namespace lahar {

SharedSubChain::SharedSubChain(std::string key, RegularChain chain,
                               size_t frontier_history)
    : key_(std::move(key)), chain_(std::move(chain)) {
  ring_.assign(frontier_history < 2 ? 2 : frontier_history, 0.0);
  ResyncFrontier();
}

size_t SharedSubChain::AdvanceTo(Timestamp to) {
  size_t executed = 0;
  while (chain_.time() < to) {
    double p = chain_.Step();
    ring_[chain_.time() % ring_.size()] = p;
    ++steps_;
    ++executed;
  }
  return executed;
}

void SharedSubChain::ResyncFrontier() {
  ring_[chain_.time() % ring_.size()] = chain_.AcceptProb();
}

Result<double> QuerySession::Advance() {
  PrepareAdvance();
  AdvanceShard(0, num_units());
  return CommitAdvance();
}

Result<std::vector<double>> QuerySession::RunToHorizon(Timestamp horizon) {
  std::vector<double> probs(horizon + 1, 0.0);
  while (time() < horizon) {
    LAHAR_ASSIGN_OR_RETURN(double p, Advance());
    probs[time()] = p;
  }
  return probs;
}

size_t QuerySession::StepCost() const {
  size_t total = 0;
  for (size_t i = 0; i < num_units(); ++i) total += UnitCost(i);
  return total;
}

const std::string& QuerySession::ShareableUnitKey(size_t i) const {
  (void)i;
  static const std::string kEmpty;
  return kEmpty;
}

namespace {

// Incremental serving of a Safe query: each tick extends the plan's
// bounded reg-leaf rows and seq witness tables by one column (they grow
// monotonically in tf, Section 3.3) instead of recomputing the whole
// horizon. Units are the plan's independent grounding groups (the
// children of its projection node, disjoint streams by the safety
// precondition): AdvanceShard extends each group's tables and warms its
// diagonal memo entry, and CommitAdvance combines the warmed values —
// bit-identical however the units were split.
class SafeQuerySession : public QuerySession {
 public:
  explicit SafeQuerySession(SafePlanEngine engine)
      : QuerySession(QueryClass::kSafe, EngineKind::kSafePlan,
                     /*exact=*/true),
        engine_(std::move(engine)) {}

  Timestamp time() const override { return t_; }
  size_t num_units() const override { return engine_.NumShardUnits(); }
  size_t UnitCost(size_t i) const override { return engine_.UnitCost(i); }

  void PrepareAdvance() override { engine_.PrepareShard(t_ + 1); }

  void AdvanceShard(size_t begin, size_t end) override {
    engine_.ShardAdvance(begin, end, t_ + 1);
  }

  Result<double> CommitAdvance() override {
    ++t_;
    return engine_.FinishAdvance(t_);
  }

  SessionCounters Counters() const override {
    SessionCounters c = engine_.MemoStats();
    c.resident_units = num_units();
    return c;
  }

  bool SupportsStateRestore() const override { return true; }

  Status SaveState(serial::Writer* w) const override {
    w->U8(1);  // session-state version
    w->U32(t_);
    return engine_.SaveState(w);
  }

  Status LoadState(serial::Reader* r) override {
    uint8_t version = 0;
    LAHAR_RETURN_NOT_OK(r->U8(&version));
    if (version != 1) {
      return Status::InvalidArgument("unsupported safe-session state");
    }
    LAHAR_RETURN_NOT_OK(r->U32(&t_));
    return engine_.LoadState(r);
  }

 private:
  SafePlanEngine engine_;
  Timestamp t_ = 0;
};

// Approximate serving of Safe-without-plan and Unsafe queries: the sampling
// engine steps its per-sample state one tick at a time, so even provably
// #P-hard queries (Section 3.4) host as standing queries with the
// (epsilon, delta) guarantee of Prop. 3.20. Units are samples. Batch runs,
// catch-up and restore go through RunToHorizon, which draws the same worlds
// in one pass.
class SamplingSession : public QuerySession {
 public:
  SamplingSession(SamplingEngine engine, QueryClass query_class)
      : QuerySession(query_class, EngineKind::kSampling, /*exact=*/false),
        engine_(std::move(engine)) {}

  Timestamp time() const override { return engine_.time(); }
  size_t num_units() const override { return engine_.num_samples(); }
  size_t UnitCost(size_t) const override { return 1; }

  void PrepareAdvance() override {
    Status s = engine_.PrepareStep();
    if (prepare_status_.ok()) prepare_status_ = std::move(s);
  }

  void AdvanceShard(size_t begin, size_t end) override {
    engine_.StepSampleRange(begin, end);
  }

  Result<std::vector<double>> RunToHorizon(Timestamp horizon) override {
    return engine_.RunTo(horizon);
  }

  Result<double> CommitAdvance() override {
    // Commit unconditionally so time() stays in step with the executor's
    // tick even when the prepare failed; the error wins over the estimate.
    Result<double> p = engine_.CommitStep();
    Status prep = std::exchange(prepare_status_, Status::OK());
    if (!prep.ok()) return prep;
    return p;
  }

 private:
  SamplingEngine engine_;
  Status prepare_status_;
};

}  // namespace

Result<std::unique_ptr<QuerySession>> CreateQuerySession(
    EventDatabase* db, const PreparedQuery& prepared,
    const LaharOptions& options) {
  QueryClass cls = prepared.classification.query_class;

  auto sample = [&]() -> Result<std::unique_ptr<QuerySession>> {
    LAHAR_ASSIGN_OR_RETURN(
        SamplingEngine engine,
        SamplingEngine::Create(prepared, *db, options.sampling));
    return std::unique_ptr<QuerySession>(
        new SamplingSession(std::move(engine), cls));
  };

  switch (cls) {
    case QueryClass::kRegular:
    case QueryClass::kExtendedRegular: {
      LAHAR_ASSIGN_OR_RETURN(StreamingSession session,
                             StreamingSession::Create(db, prepared,
                                                      options.chain));
      return std::unique_ptr<QuerySession>(
          new StreamingSession(std::move(session)));
    }
    case QueryClass::kSafe: {
      auto engine =
          SafePlanEngine::Create(prepared.normalized, *db, options.plan);
      if (engine.ok()) {
        return std::unique_ptr<QuerySession>(
            new SafeQuerySession(std::move(*engine)));
      }
      if (!options.allow_sampling_fallback) {
        Status status = engine.status();
        return std::move(status).WithPayload(kQueryClassPayload,
                                             QueryClassName(cls));
      }
      return sample();
    }
    case QueryClass::kUnsafe: {
      if (!options.allow_sampling_fallback) {
        return Status::UnsafeQuery(prepared.classification.reason)
            .WithPayload(kQueryClassPayload, QueryClassName(cls));
      }
      return sample();
    }
  }
  return Status::Internal("bad query class");
}

}  // namespace lahar
