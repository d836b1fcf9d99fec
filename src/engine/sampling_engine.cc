#include "engine/sampling_engine.h"

#include <cmath>
#include <unordered_map>

#include "analysis/bindings.h"

namespace lahar {

size_t HoeffdingSamples(double epsilon, double delta) {
  return static_cast<size_t>(
      std::ceil(std::log(2.0 / delta) / (2.0 * epsilon * epsilon)));
}

Result<SamplingEngine> SamplingEngine::Create(const PreparedQuery& prepared,
                                              const EventDatabase& db,
                                              const SamplingOptions& options) {
  if (prepared.ast == nullptr) return Status::InvalidArgument("null query");
  if (!std::isfinite(options.epsilon) || !(options.epsilon > 0)) {
    return Status::InvalidArgument("sampling epsilon must be finite and > 0");
  }
  if (!(options.delta > 0 && options.delta < 1)) {
    return Status::InvalidArgument("sampling delta must lie in (0, 1)");
  }
  SamplingEngine engine;
  engine.query_ = prepared.ast;
  engine.db_ = &db;
  engine.horizon_ = db.horizon();
  engine.num_samples_ = options.num_samples > 0
                            ? options.num_samples
                            : HoeffdingSamples(options.epsilon, options.delta);
  engine.seed_ = options.seed;
  engine.accepted_.assign(engine.num_samples_, 0);
  engine.sample_status_.assign(engine.num_samples_, Status::OK());

  // Try the incremental NFA path: every grounding must be regular.
  const QueryClass cls = prepared.classification.query_class;
  if (cls == QueryClass::kRegular || cls == QueryClass::kExtendedRegular) {
    const NormalizedQuery& nq = prepared.normalized;
    std::vector<Binding> bindings = EnumerateBindings(nq, db, nq.SharedVars());
    std::unordered_map<StreamId, size_t> slot_of_stream;
    std::vector<std::vector<size_t>> chain_slots;
    bool ok = true;
    for (const Binding& b : bindings) {
      NormalizedQuery grounded = nq.Substitute(b);
      auto nfa = QueryNfa::Build(grounded);
      auto table = SymbolTable::Build(grounded, db);
      if (!nfa.ok() || !table.ok()) {
        ok = false;
        break;
      }
      GroundedChain chain;
      chain.nfa = std::make_shared<const QueryNfa>(std::move(*nfa));
      chain.symbols = std::make_shared<const SymbolTable>(std::move(*table));
      std::vector<size_t> slots;
      for (StreamId s : chain.symbols->participating()) {
        auto [it, inserted] = slot_of_stream.emplace(s, slot_of_stream.size());
        slots.push_back(it->second);
      }
      chain_slots.push_back(std::move(slots));
      engine.chains_.push_back(std::move(chain));
    }
    if (ok) {
      engine.slot_streams_.resize(slot_of_stream.size());
      for (const auto& [sid, slot] : slot_of_stream) {
        engine.slot_streams_[slot] = sid;
      }
      engine.chain_slots_ = std::move(chain_slots);
      for (GroundedChain& chain : engine.chains_) {
        chain.states.assign(engine.num_samples_, chain.nfa->InitialStates());
      }
      engine.values_.assign(
          engine.num_samples_ * std::max<size_t>(1, slot_of_stream.size()),
          kBottom);
      Rng seeder(engine.seed_);
      for (size_t i = 0; i < engine.num_samples_; ++i) {
        engine.sample_rngs_.push_back(seeder.Split());
      }
      return engine;
    }
    engine.chains_.clear();
  }
  // General path: batch per-world reference evaluation in Run(), per-tick
  // world-prefix extension in Step(). Seeded identically to the NFA path so
  // incremental estimates are reproducible.
  Rng seeder(engine.seed_);
  for (size_t i = 0; i < engine.num_samples_; ++i) {
    engine.sample_rngs_.push_back(seeder.Split());
  }
  engine.worlds_.resize(engine.num_samples_);
  return engine;
}

void SamplingEngine::StepNfaSample(size_t i, Timestamp next,
                                   std::vector<double>* row) {
  const size_t num_slots = slot_streams_.size();
  Rng& rng = sample_rngs_[i];
  DomainIndex* vals = &values_[i * std::max<size_t>(1, num_slots)];
  // Sample each participating stream's next value exactly once.
  for (size_t slot = 0; slot < num_slots; ++slot) {
    const Stream& s = db_->stream(slot_streams_[slot]);
    if (next > s.horizon()) {
      vals[slot] = kBottom;
      continue;
    }
    if (s.markovian() && next > 1) {
      const Matrix& cpt = s.CptAt(next - 1);
      const double* r = cpt.Row(vals[slot]);
      row->assign(r, r + cpt.cols());
      size_t d = rng.Categorical(*row);
      vals[slot] = d >= row->size() ? kBottom : static_cast<DomainIndex>(d);
    } else {
      const auto& m = s.MarginalAt(next);
      if (m.empty()) {
        vals[slot] = kBottom;
      } else {
        size_t d = rng.Categorical(m);
        vals[slot] = d >= m.size() ? kBottom : static_cast<DomainIndex>(d);
      }
    }
  }
  // Advance every chain; the sample satisfies q@t if any chain accepts.
  bool any = false;
  for (size_t c = 0; c < chains_.size(); ++c) {
    GroundedChain& chain = chains_[c];
    SymbolMask input = 0;
    const std::vector<size_t>& slots = chain_slots_[c];
    for (size_t j = 0; j < slots.size(); ++j) {
      input |= chain.symbols->MaskFor(j, vals[slots[j]]);
    }
    chain.states[i] = chain.nfa->Transition(chain.states[i], input);
    any = any || chain.nfa->Accepts(chain.states[i]);
  }
  accepted_[i] = any ? 1 : 0;
}

Status SamplingEngine::StepWorldSample(size_t i, Timestamp next) {
  // Extend the sample's world prefix through `next` — and no further, even
  // when streams already hold later timesteps (the windowed executor
  // applies batches ahead of execution). Capping at `next` fixes the RNG
  // consumption order to one draw per (sample, stream, tick) in tick
  // order, so estimates are bit-identical no matter how far ingestion has
  // run ahead of the tick being executed. Forward-samples exactly as
  // Stream::SampleTrajectory does, then re-evaluates the reference
  // semantics on the (deterministic) prefix.
  World& w = worlds_[i];
  Rng& rng = sample_rngs_[i];
  if (w.values.size() < db_->num_streams()) {
    w.values.resize(db_->num_streams());
  }
  for (StreamId s = 0; s < db_->num_streams(); ++s) {
    const Stream& stream = db_->stream(s);
    const Timestamp limit = std::min<Timestamp>(stream.horizon(), next);
    std::vector<DomainIndex>& traj = w.values[s];
    if (traj.empty()) traj.push_back(kBottom);  // index 0 unused
    for (Timestamp t = static_cast<Timestamp>(traj.size());
         t <= limit; ++t) {
      if (stream.markovian() && t > 1) {
        const Matrix& cpt = stream.CptAt(t - 1);
        const double* r = cpt.Row(traj[t - 1]);
        std::vector<double> row(r, r + cpt.cols());
        size_t d = rng.Categorical(row);
        traj.push_back(d >= row.size() ? kBottom
                                       : static_cast<DomainIndex>(d));
      } else {
        const auto& m = stream.MarginalAt(t);
        if (m.empty()) {
          traj.push_back(kBottom);
        } else {
          size_t d = rng.Categorical(m);
          traj.push_back(d >= m.size() ? kBottom
                                       : static_cast<DomainIndex>(d));
        }
      }
    }
  }
  LAHAR_ASSIGN_OR_RETURN(std::vector<bool> sat,
                         SatisfiedAt(*query_, *db_, w));
  accepted_[i] =
      next < static_cast<Timestamp>(sat.size()) && sat[next] ? 1 : 0;
  return Status::OK();
}

Status SamplingEngine::PrepareStep() {
  for (GroundedChain& chain : chains_) {
    if (chain.symbols->CoversDomains(*db_)) continue;
    LAHAR_ASSIGN_OR_RETURN(SymbolTable grown,
                           chain.symbols->WithGrownDomains(*db_));
    chain.symbols = std::make_shared<const SymbolTable>(std::move(grown));
  }
  return Status::OK();
}

void SamplingEngine::StepSampleRange(size_t begin, size_t end) {
  end = std::min(end, num_samples_);
  Timestamp next = t_ + 1;
  if (incremental()) {
    std::vector<double> row;
    for (size_t i = begin; i < end; ++i) StepNfaSample(i, next, &row);
  } else {
    for (size_t i = begin; i < end; ++i) {
      sample_status_[i] = StepWorldSample(i, next);
    }
  }
}

Result<double> SamplingEngine::CommitStep() {
  t_ = t_ + 1;
  size_t accepted = 0;
  for (size_t i = 0; i < accepted_.size(); ++i) {
    if (!sample_status_.empty()) LAHAR_RETURN_NOT_OK(sample_status_[i]);
    accepted += accepted_[i];
  }
  return static_cast<double>(accepted) / static_cast<double>(num_samples_);
}

Result<double> SamplingEngine::Step() {
  LAHAR_RETURN_NOT_OK(PrepareStep());
  StepSampleRange(0, num_samples_);
  return CommitStep();
}

Result<std::vector<double>> SamplingEngine::Run() {
  std::vector<double> probs(horizon_ + 1, 0.0);
  if (incremental()) {
    for (Timestamp t = 1; t <= horizon_; ++t) {
      LAHAR_ASSIGN_OR_RETURN(probs[t], Step());
    }
    return probs;
  }
  Rng seeder(seed_);
  for (size_t i = 0; i < num_samples_; ++i) {
    Rng rng = seeder.Split();
    World w = SampleWorld(*db_, &rng);
    LAHAR_ASSIGN_OR_RETURN(std::vector<bool> sat,
                           SatisfiedAt(*query_, *db_, w));
    for (Timestamp t = 1; t <= horizon_; ++t) {
      if (sat[t]) probs[t] += 1.0;
    }
  }
  for (double& p : probs) p /= static_cast<double>(num_samples_);
  // Later Steps extend fresh per-sample prefixes from each sample's own
  // generator, so every tick past the horizon is still an (eps, delta)
  // estimate.
  t_ = horizon_;
  return probs;
}

}  // namespace lahar
