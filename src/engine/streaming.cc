#include "engine/streaming.h"

#include "analysis/classify.h"
#include "analysis/plan.h"

namespace lahar {

Result<StreamingSession> StreamingSession::Create(EventDatabase* db,
                                                  std::string_view text) {
  LAHAR_ASSIGN_OR_RETURN(PreparedQuery prepared, PrepareQuery(text, db));
  return Create(db, prepared);
}

Result<StreamingSession> StreamingSession::Create(
    EventDatabase* db, const PreparedQuery& prepared) {
  return Create(db, prepared, ChainOptions{});
}

Result<StreamingSession> StreamingSession::Create(
    EventDatabase* db, const PreparedQuery& prepared,
    const ChainOptions& chain_options) {
  QueryClass cls = prepared.classification.query_class;
  if (cls != QueryClass::kRegular && cls != QueryClass::kExtendedRegular) {
    return Status::UnsafeQuery(
               "only Regular and Extended Regular queries evaluate in "
               "streaming fashion (Thms 3.3/3.7); Safe queries need the "
               "archived history")
        .WithPayload(kQueryClassPayload, QueryClassName(cls));
  }
  ChainOptions options = chain_options;
  options.kernel_cache = prepared.kernel_cache.get();
  options.row_pool = prepared.row_pool.get();
  options.stream_index = nullptr;  // the engine builds/owns its own
  LAHAR_ASSIGN_OR_RETURN(ExtendedRegularEngine engine,
                         ExtendedRegularEngine::Create(prepared.normalized,
                                                       *db, options));
  StreamingSession session(std::move(engine), cls);
  // Canonical key per grounded chain: two chains across any sessions with
  // equal keys are structurally identical and step to identical doubles,
  // so the runtime may evaluate them as one shared unit. Lifecycle
  // sessions decline sharing, so they skip materializing the keys (at a
  // million registered bindings the key strings alone would rival the
  // stub tables).
  if (!session.engine_.lifecycle_enabled()) {
    session.unit_keys_.reserve(session.engine_.num_chains());
    for (size_t i = 0; i < session.engine_.num_chains(); ++i) {
      session.unit_keys_.push_back(CanonicalQueryKey(
          prepared.normalized.Substitute(session.engine_.binding(i))));
    }
  }
  return session;
}

std::shared_ptr<SharedSubChain> StreamingSession::MakeSharedUnit(
    size_t i, size_t frontier_history) const {
  if (i >= engine_.num_chains() || engine_.IsDelegated(i)) return nullptr;
  const RegularChain& c = engine_.chain(i);
  if (!c.status().ok()) return nullptr;
  return std::make_shared<SharedSubChain>(unit_keys_[i], c,
                                          frontier_history);
}

bool StreamingSession::DelegateUnit(
    size_t i, const std::shared_ptr<SharedSubChain>& unit) {
  if (i >= engine_.num_chains()) return false;
  if (unit == nullptr) {
    engine_.UndelegateChain(i);
    return true;
  }
  return engine_.DelegateChain(i, unit);
}

SessionCounters StreamingSession::Counters() const {
  SessionCounters c;
  c.shared_units = engine_.num_delegated();
  c.simd_units = engine_.num_simd();
  c.stripe_steps = engine_.stripe_steps();
  c.stripe_fallbacks = engine_.stripe_fallbacks();
  c.bytes_resident = engine_.Footprint().bytes();
  c.resident_units = engine_.num_resident();
  c.stub_units = engine_.num_stub();
  c.spilled_units = engine_.num_spilled();
  c.promotions = engine_.promotions();
  c.spills = engine_.spills();
  c.rehydrations = engine_.rehydrations();
  return c;
}

Result<double> StreamingSession::Advance() {
  double p = engine_.Step();
  LAHAR_RETURN_NOT_OK(engine_.ChainStatus());
  return p;
}

void StreamingSession::AdvanceShard(size_t begin, size_t end) {
  engine_.StepChainRange(begin, end);
}

Result<double> StreamingSession::CommitAdvance() {
  double p = engine_.CommitParallelStep();
  LAHAR_RETURN_NOT_OK(engine_.ChainStatus());
  return p;
}

}  // namespace lahar
