#include "engine/session.h"

#include <utility>

#include "engine/extended_engine.h"
#include "engine/lahar.h"
#include "engine/safe_engine.h"
#include "engine/sampling_engine.h"

namespace lahar {

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kRegular: return "Regular";
    case EngineKind::kExtendedRegular: return "ExtendedRegular";
    case EngineKind::kSafePlan: return "SafePlan";
    case EngineKind::kSampling: return "Sampling";
  }
  return "?";
}

SharedSubChain::SharedSubChain(RegularChain chain, size_t frontier_history)
    : chain_(std::move(chain)) {
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

Result<std::unique_ptr<QuerySession>> CreateQuerySession(
    EventDatabase* db, const PreparedQuery& prepared,
    const LaharOptions& options) {
  // Moves a built engine behind the session interface.
  auto session = [](auto engine) -> std::unique_ptr<QuerySession> {
    using Engine = decltype(engine);
    return std::make_unique<Engine>(std::move(engine));
  };
  auto sample = [&]() -> Result<std::unique_ptr<QuerySession>> {
    LAHAR_ASSIGN_OR_RETURN(
        SamplingEngine engine,
        SamplingEngine::Create(prepared, *db, options.sampling));
    return session(std::move(engine));
  };

  QueryClass cls = prepared.classification.query_class;
  switch (cls) {
    case QueryClass::kRegular:
    case QueryClass::kExtendedRegular: {
      LAHAR_ASSIGN_OR_RETURN(
          ExtendedRegularEngine engine,
          ExtendedRegularEngine::Create(prepared, *db, options.chain));
      return session(std::move(engine));
    }
    case QueryClass::kSafe: {
      auto engine = SafePlanEngine::Create(prepared, *db, options.plan);
      if (engine.ok()) return session(std::move(*engine));
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
