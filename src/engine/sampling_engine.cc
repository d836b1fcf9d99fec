#include "engine/sampling_engine.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <unordered_map>
#include <utility>

#include "analysis/bindings.h"
#include "inference/viterbi.h"

namespace lahar {

size_t HoeffdingSamples(double epsilon, double delta) {
  const double n =
      std::ceil(std::log(2.0 / delta) / (2.0 * epsilon * epsilon));
  // Casting a value past size_t's range is undefined; 2^64 is exact.
  return n >= 1 && n < 0x1p64 ? static_cast<size_t>(n) : 0;
}

namespace {

// Every sample owns at least a generator, a status slot and an outcome
// byte; a count whose arrays alone exceed physical memory (or the address
// space) cannot be allocated.
size_t MaxSamples() {
  double bytes =
      static_cast<double>(std::numeric_limits<std::ptrdiff_t>::max());
  const long pages = sysconf(_SC_PHYS_PAGES);
  const long page_size = sysconf(_SC_PAGESIZE);
  if (pages > 0 && page_size > 0) {
    bytes = std::min(bytes, static_cast<double>(pages) * page_size);
  }
  return static_cast<size_t>(bytes / (sizeof(Rng) + sizeof(Status) + 1));
}

}  // namespace

Result<SamplingEngine> SamplingEngine::Build(const PreparedQuery& prepared,
                                             const EventDatabase& db,
                                             size_t num_samples) {
  if (prepared.ast == nullptr) return Status::InvalidArgument("null query");
  SamplingEngine engine(prepared.classification.query_class);
  engine.query_ = prepared.ast;
  engine.db_ = &db;
  engine.num_samples_ = num_samples;
  engine.accepted_.assign(num_samples, 0);
  engine.sample_status_.assign(num_samples, Status::OK());

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
        chain.states.assign(num_samples, chain.nfa->InitialStates());
      }
      engine.values_.assign(
          num_samples * std::max<size_t>(1, slot_of_stream.size()), kBottom);
      return engine;
    }
    engine.chains_.clear();
  }
  // General path: per-world reference evaluation over world prefixes.
  engine.worlds_.resize(num_samples);
  return engine;
}

Result<SamplingEngine> SamplingEngine::Create(const PreparedQuery& prepared,
                                              const EventDatabase& db,
                                              const SamplingOptions& options) {
  if (!std::isfinite(options.epsilon) || !(options.epsilon > 0)) {
    return Status::InvalidArgument("sampling epsilon must be finite and > 0");
  }
  if (!(options.delta > 0 && options.delta < 1)) {
    return Status::InvalidArgument("sampling delta must lie in (0, 1)");
  }
  const size_t n = options.num_samples > 0
                       ? options.num_samples
                       : HoeffdingSamples(options.epsilon, options.delta);
  if (n == 0 || n > MaxSamples()) {
    return Status::InvalidArgument(
        "sampling needs a nonzero sample count small enough to allocate; "
        "raise epsilon or set num_samples");
  }
  LAHAR_ASSIGN_OR_RETURN(SamplingEngine engine, Build(prepared, db, n));
  Rng seeder(options.seed);
  for (size_t i = 0; i < engine.num_samples_; ++i) {
    engine.sample_rngs_.push_back(seeder.Split());
  }
  return engine;
}

Result<SamplingEngine> SamplingEngine::Determinized(
    const PreparedQuery& prepared, const EventDatabase& db,
    Determinization mode) {
  LAHAR_ASSIGN_OR_RETURN(SamplingEngine engine, Build(prepared, db, 1));
  // Only the streams the path draws pay for determinization.
  engine.paths_.resize(db.num_streams());
  auto determinize = [&](StreamId s) {
    engine.paths_[s] = mode == Determinization::kViterbi
                           ? ViterbiPath(db.stream(s))
                           : MlePath(db.stream(s));
  };
  if (engine.incremental()) {
    for (StreamId s : engine.slot_streams_) determinize(s);
  } else {
    for (StreamId s = 0; s < db.num_streams(); ++s) determinize(s);
  }
  return engine;
}

DomainIndex SamplingEngine::Draw(size_t i, StreamId s, Timestamp t,
                                 DomainIndex prev) {
  if (!paths_.empty()) {
    const std::vector<DomainIndex>& path = paths_[s];
    return t < path.size() ? path[t] : kBottom;
  }
  const Stream& stream = db_->stream(s);
  if (t > stream.horizon()) return kBottom;  // the stream has ended
  Rng& rng = sample_rngs_[i];
  if (stream.markovian() && t > 1) {
    const CptView cpt = stream.CptAt(t - 1);
    const CptRow row = cpt.Row(prev);
    const size_t d =
        rng.Categorical(row.cols(), row.probs(), row.size(), cpt.cols());
    return d >= cpt.cols() ? kBottom : static_cast<DomainIndex>(d);
  }
  const std::vector<double>& m = stream.MarginalAt(t);
  if (m.empty()) return kBottom;
  const size_t d = rng.Categorical(m);
  return d >= m.size() ? kBottom : static_cast<DomainIndex>(d);
}

void SamplingEngine::StepNfaSample(size_t i, Timestamp next) {
  const size_t num_slots = slot_streams_.size();
  DomainIndex* vals = &values_[i * std::max<size_t>(1, num_slots)];
  // Draw each participating stream's next value exactly once, in slot order.
  for (size_t slot = 0; slot < num_slots; ++slot) {
    vals[slot] = Draw(i, slot_streams_[slot], next, vals[slot]);
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

void SamplingEngine::ExtendWorld(size_t i, Timestamp to) {
  World& w = worlds_[i];
  if (w.values.size() < db_->num_streams()) {
    w.values.resize(db_->num_streams());
  }
  // Tick-major: tick `next` draws every stream in id order, first catching
  // up any stream whose earlier ticks arrived late.
  for (Timestamp next = t_ + 1; next <= to; ++next) {
    for (StreamId s = 0; s < db_->num_streams(); ++s) {
      const Timestamp limit =
          std::min<Timestamp>(db_->stream(s).horizon(), next);
      std::vector<DomainIndex>& traj = w.values[s];
      if (traj.empty()) traj.push_back(kBottom);  // index 0 unused
      for (Timestamp t = static_cast<Timestamp>(traj.size()); t <= limit;
           ++t) {
        traj.push_back(Draw(i, s, t, traj[t - 1]));
      }
    }
  }
}

Status SamplingEngine::RefreshSymbols() {
  for (GroundedChain& chain : chains_) {
    if (chain.symbols->CoversDomains(*db_)) continue;
    LAHAR_ASSIGN_OR_RETURN(SymbolTable grown,
                           chain.symbols->WithGrownDomains(*db_));
    chain.symbols = std::make_shared<const SymbolTable>(std::move(grown));
  }
  return Status::OK();
}

void SamplingEngine::PrepareAdvance() {
  Status s = RefreshSymbols();
  if (prepare_status_.ok()) prepare_status_ = std::move(s);
}

void SamplingEngine::AdvanceShard(size_t begin, size_t end) {
  end = std::min(end, num_samples_);
  const Timestamp next = t_ + 1;
  for (size_t i = begin; i < end; ++i) {
    if (incremental()) {
      StepNfaSample(i, next);
      continue;
    }
    ExtendWorld(i, next);
    Result<std::vector<bool>> sat = SatisfiedAt(*query_, *db_, worlds_[i]);
    sample_status_[i] = sat.status();
    accepted_[i] = sat.ok() && next < sat->size() && (*sat)[next] ? 1 : 0;
  }
}

Result<double> SamplingEngine::CommitAdvance() {
  t_ = t_ + 1;
  Status prep = std::exchange(prepare_status_, Status::OK());
  if (!prep.ok()) return prep;
  size_t accepted = 0;
  for (size_t i = 0; i < num_samples_; ++i) {
    if (!sample_status_[i].ok()) return sample_status_[i];
    accepted += accepted_[i];
  }
  return static_cast<double>(accepted) / static_cast<double>(num_samples_);
}

Result<std::vector<double>> SamplingEngine::RunToHorizon(Timestamp horizon) {
  std::vector<double> probs(horizon + 1, 0.0);
  if (incremental()) {
    // The database holds still for the run: one refresh covers it.
    LAHAR_RETURN_NOT_OK(RefreshSymbols());
    while (t_ < horizon) {
      AdvanceShard(0, num_samples_);
      LAHAR_ASSIGN_OR_RETURN(double p, CommitAdvance());
      probs[t_] = p;
    }
    return probs;
  }
  std::vector<size_t> accepted(horizon + 1, 0);
  for (size_t i = 0; i < num_samples_; ++i) {
    ExtendWorld(i, horizon);
    LAHAR_ASSIGN_OR_RETURN(std::vector<bool> sat,
                           SatisfiedAt(*query_, *db_, worlds_[i]));
    for (Timestamp t = t_ + 1; t <= horizon && t < sat.size(); ++t) {
      accepted[t] += sat[t] ? 1 : 0;
    }
  }
  for (Timestamp t = t_ + 1; t <= horizon; ++t) {
    probs[t] =
        static_cast<double>(accepted[t]) / static_cast<double>(num_samples_);
  }
  t_ = std::max(t_, horizon);
  return probs;
}

}  // namespace lahar
