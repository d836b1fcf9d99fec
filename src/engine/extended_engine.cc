#include "engine/extended_engine.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "analysis/bindings.h"
#include "analysis/plan.h"
#include "automaton/simd.h"
#include "engine/session.h"

namespace lahar {

Result<ExtendedRegularEngine> ExtendedRegularEngine::Create(
    const PreparedQuery& prepared, const EventDatabase& db,
    const ChainOptions& options) {
  const QueryClass cls = prepared.classification.query_class;
  if (cls != QueryClass::kRegular && cls != QueryClass::kExtendedRegular) {
    return Status::UnsafeQuery(
               "only Regular and Extended Regular queries evaluate as "
               "Markov chains (Thms 3.3/3.7); Safe queries need the "
               "archived history")
        .WithPayload(kQueryClassPayload, QueryClassName(cls));
  }
  const NormalizedQuery& q = prepared.normalized;
  ExtendedRegularEngine engine(cls);
  engine.lazy_ = options.lazy_materialize;
  engine.spill_ = options.spill_cold_chains;
  engine.lifecycle_ = engine.lazy_ || engine.spill_;
  engine.cold_after_ = std::max<uint32_t>(1, options.cold_after_ticks);
  std::set<SymbolId> shared = q.SharedVars();
  std::vector<Binding> bindings = EnumerateBindings(q, db, shared);
  // The groundings share one automaton structure, so the prepared query's
  // kernel cache collapses the m compilations into one and its row pool
  // shares dense rows across keys. The engine holds both: lifecycle
  // engines rebuild chains mid-run.
  engine.kernels_ = prepared.kernel_cache != nullptr
                        ? prepared.kernel_cache
                        : std::make_shared<KernelCache>();
  engine.rows_ = prepared.row_pool != nullptr
                     ? prepared.row_pool
                     : std::make_shared<TransitionRowPool>();
  // Grounded builds over many bindings pay O(bindings x streams) in
  // SymbolTable::Build full scans; one O(streams) index drops that to
  // O(bindings x subgoals). Lifecycle engines keep it for promotions.
  std::unique_ptr<StreamKeyIndex> index;
  if (engine.lifecycle_ || bindings.size() >= 64) {
    index = std::make_unique<StreamKeyIndex>(StreamKeyIndex::Build(db));
  }
  const ChainCaches caches{engine.kernels_.get(), engine.rows_.get(),
                           index.get()};
  engine.query_ = q;
  if (engine.lifecycle_) {
    engine.db_ = &db;
    engine.chain_options_ = options;
    LAHAR_ASSIGN_OR_RETURN(QueryNfa stub_nfa, QueryNfa::Build(q));
    // Memoization off makes Transition() pure, so concurrent shard threads
    // can evolve stubs through the one shared automaton.
    stub_nfa.set_memoization(false);
    engine.stub_nfa_ = std::make_unique<QueryNfa>(std::move(stub_nfa));
    engine.part_begin_.push_back(0);
  }
  for (Binding& b : bindings) {
    NormalizedQuery grounded = q.Substitute(b);
    if (engine.lazy_) {
      // Lazy materialization: register the binding as a ~16-byte stub; the
      // real chain is compiled on its first loud tick (Materialize), which
      // reproduces the skipped all-quiet prefix in closed form.
      LAHAR_ASSIGN_OR_RETURN(
          SymbolTable table,
          SymbolTable::Build(grounded, db, caches.stream_index));
      engine.AppendLifecycleParts(table);
      engine.chains_.push_back(nullptr);
      engine.residency_.push_back(kStub);
      engine.stub_mask_.push_back(engine.stub_nfa_->InitialStates());
      engine.bindings_.push_back(std::move(b));
      continue;
    }
    LAHAR_ASSIGN_OR_RETURN(RegularChain chain,
                           RegularChain::Create(grounded, db, options, caches));
    if (engine.lifecycle_) {
      engine.AppendLifecycleParts(*chain.symbols());
      engine.residency_.push_back(kResident);
      engine.stub_mask_.push_back(engine.stub_nfa_->InitialStates());
    }
    engine.chains_.push_back(std::make_unique<RegularChain>(std::move(chain)));
    engine.bindings_.push_back(std::move(b));
  }
  engine.chain_probs_.resize(engine.chains_.size(), 0.0);
  if (engine.lifecycle_) {
    engine.idle_ticks_.assign(engine.chains_.size(), 0);
    engine.spilled_.resize(engine.chains_.size());
    engine.stream_index_ = std::move(index);
  }
  size_t total = 0;
  for (const auto& c : engine.chains_) {
    if (c != nullptr) total += 2 * c->FlatStride();
  }
  if (total > 0) {
    const size_t n = engine.chains_.size();
    engine.arena_.assign(total, 0.0);
    engine.stripe_width_.assign(n, 1);
    double* base = engine.arena_.data();
    // Pack consecutive runs of same-kernel SIMD chains into
    // lane-interleaved stripes of exactly simd::kLanes (flat index i of
    // lane j at block[i * kLanes + j]) so StepStripe advances all lanes
    // with one wide pass; leftovers and everything else get the plain
    // contiguous cur|nxt layout. Stubs have no flat state and are skipped.
    constexpr size_t kLanes = simd::kLanes;
    size_t i = 0;
    while (i < n) {
      if (engine.chains_[i] == nullptr) {  // stub: no flat state
        ++i;
        continue;
      }
      RegularChain& c = *engine.chains_[i];
      const size_t stride = c.FlatStride();
      if (stride == 0) {
        ++i;
        continue;
      }
      size_t run = 1;
      if (c.simd()) {
        while (i + run < n && engine.chains_[i + run] != nullptr &&
               engine.chains_[i + run]->simd() &&
               engine.chains_[i + run]->row_class() == c.row_class() &&
               engine.chains_[i + run]->FlatStride() == stride) {
          ++run;
        }
      }
      while (run >= kLanes) {
        for (size_t j = 0; j < kLanes; ++j) {
          engine.chains_[i + j]->BindArena(
              base + j, base + stride * kLanes + j, kLanes);
          engine.stripe_width_[i + j] = j == 0 ? kLanes : 0;
        }
        base += 2 * stride * kLanes;
        i += kLanes;
        run -= kLanes;
      }
      for (; run > 0; --run, ++i) {
        engine.chains_[i]->BindArena(base, base + stride);
        base += 2 * stride;
      }
    }
  }
  return engine;
}

void ExtendedRegularEngine::AppendLifecycleParts(const SymbolTable& table) {
  const std::vector<StreamId>& streams = table.participating();
  for (size_t p = 0; p < streams.size(); ++p) {
    LifecyclePart part;
    part.stream = streams[p];
    part.markovian = db_->stream(streams[p]).markovian();
    const size_t bits = table.domain_size(p);
    part.trigger_bits = static_cast<uint32_t>(bits);
    part.trigger_begin = static_cast<uint32_t>(trigger_words_.size());
    trigger_words_.resize(trigger_words_.size() + (bits + 63) / 64, 0);
    for (size_t d = 0; d < bits; ++d) {
      if (table.MaskFor(p, d) != 0) {
        trigger_words_[part.trigger_begin + d / 64] |= 1ULL << (d % 64);
      }
    }
    parts_.push_back(part);
  }
  part_begin_.push_back(static_cast<uint32_t>(parts_.size()));
}

bool ExtendedRegularEngine::QuietAt(size_t i, Timestamp next) const {
  for (uint32_t k = part_begin_[i]; k < part_begin_[i + 1]; ++k) {
    const LifecyclePart& part = parts_[k];
    const Stream& s = db_->stream(part.stream);
    if (next > s.horizon()) continue;  // stream over: certain bottom
    if (part.markovian) {
      // Only the t == 1 marginal can be certainly-bottom with an exact 1.0
      // multiplier and hidden digit 0; the CPT phase would need per-entry
      // digit tracking to prove quiet, so it is conservatively loud.
      if (next != 1) return false;
      const std::vector<double>& m = s.MarginalAt(1);
      if (m.empty()) continue;
      if (m[0] != 1.0) return false;
      for (size_t d = 1; d < m.size(); ++d) {
        if (m[d] > 0) return false;
      }
      continue;
    }
    // Independent stream: quiet iff no mass sits on a symbol-producing
    // value, exactly the case BuildIndependentMaskDist skips (a single
    // (mask 0, p) entry multiplies nothing in).
    const std::vector<double>& m = s.MarginalAt(next);
    for (size_t d = 0; d < m.size(); ++d) {
      if (m[d] <= 0) continue;
      if (d >= part.trigger_bits) return false;  // interned after creation
      if ((trigger_words_[part.trigger_begin + d / 64] >> (d % 64)) & 1) {
        return false;
      }
    }
  }
  return true;
}

ChainState ExtendedRegularEngine::BindingLayout(size_t i) const {
  ChainState s;
  uint64_t radix = 1;
  for (uint32_t k = part_begin_[i]; k < part_begin_[i + 1]; ++k) {
    if (!parts_[k].markovian) continue;
    s.markov_streams.push_back(parts_[k].stream);
    s.radices.push_back(radix);
    radix *= db_->stream(parts_[k].stream).domain_size();
  }
  return s;
}

ChainState ExtendedRegularEngine::StubState(size_t i) const {
  ChainState s = BindingLayout(i);
  s.t = t_;
  s.entries.push_back({stub_mask_[i], 0, 1.0});
  return s;
}

Status ExtendedRegularEngine::Materialize(size_t i, const ChainState& state) {
  NormalizedQuery grounded = query_.Substitute(bindings_[i]);
  LAHAR_ASSIGN_OR_RETURN(
      RegularChain chain,
      RegularChain::Create(grounded, *db_, chain_options_,
                           {kernels_.get(), rows_.get(), stream_index_.get()}));
  // A rebuilt chain must see exactly the creation-time participant set: the
  // always-materialized reference fixes participation at Create, so a
  // stream added since (without re-grounding the query) would diverge.
  const std::vector<StreamId>& now = chain.participating();
  const uint32_t pb = part_begin_[i];
  const uint32_t pe = part_begin_[i + 1];
  bool same = now.size() == pe - pb;
  for (uint32_t k = pb; same && k < pe; ++k) {
    same = parts_[k].stream == now[k - pb];
  }
  if (!same) {
    return Status::Internal(
        "binding's participating streams changed since engine creation; "
        "re-ground the query to pick up new streams");
  }
  chain.Import(state);
  chains_[i] = std::make_unique<RegularChain>(std::move(chain));
  spilled_[i].reset();
  residency_[i] = kResident;
  idle_ticks_[i] = 0;
  return Status::OK();
}

bool ExtendedRegularEngine::IsClosedForm(const ChainState& s) {
  return !s.track && s.entries.size() == 1 && s.entries[0].hidden == 0 &&
         s.entries[0].p == 1.0;
}

bool ExtendedRegularEngine::IsFrozen(const ChainState& s) const {
  return !s.track && !s.entries.empty() &&
         std::all_of(s.entries.begin(), s.entries.end(),
                     [&](const ChainState::Entry& e) {
                       return stub_nfa_->Transition(e.mask, 0) == e.mask;
                     });
}

void ExtendedRegularEngine::Park(size_t i, ChainState s) {
  chains_[i].reset();
  if (IsClosedForm(s)) {
    stub_mask_[i] = s.entries[0].mask;
    spilled_[i].reset();
    residency_[i] = kStub;
  } else {
    spilled_[i] = std::make_unique<ChainState>(std::move(s));
    residency_[i] = kSpilled;
  }
}

void ExtendedRegularEngine::TrySpill(size_t i) {
  if (IsDelegated(i) || !chains_[i]->status().ok()) return;
  ChainState s = chains_[i]->Export();
  if (!IsClosedForm(s) && !IsFrozen(s)) return;
  Park(i, std::move(s));
  counters_->spills.fetch_add(1, std::memory_order_relaxed);
}

void ExtendedRegularEngine::SaveChainState(size_t i, serial::Writer* w) const {
  if (!lifecycle_ || residency_[i] == kResident) {
    // A delegated chain serializes the shared unit's live state — the same
    // canonical bytes the private chain would have written unshared, so
    // checkpoints are bit-identical across sharing modes.
    (IsDelegated(i) ? delegates_[i]->chain() : *chains_[i]).SaveState(w);
    return;
  }
  if (residency_[i] == kStub) {
    StubState(i).Encode(*db_, w);
    return;
  }
  ChainState s = *spilled_[i];
  s.t = t_;
  s.Encode(*db_, w);
}

Status ExtendedRegularEngine::RestoreChainState(size_t i, serial::Reader* r,
                                                uint32_t t) {
  ChainState s = BindingLayout(i);
  LAHAR_RETURN_NOT_OK(s.Decode(r, *db_, stub_nfa_->num_states()));
  // Park what the engine's options would have parked, so a cold chain
  // round-trips without a forced rehydration (docs/RUNTIME.md). Chains
  // saved at a different clock than the engine (should not happen in
  // well-formed snapshots) always materialize.
  if (s.t == t && ((lazy_ && IsClosedForm(s)) || (spill_ && IsFrozen(s)))) {
    Park(i, std::move(s));
    return Status::OK();
  }
  return Materialize(i, s);
}

void ExtendedRegularEngine::LatchLifecycleError(const Status& s) {
  if (s.ok()) return;
  std::lock_guard<std::mutex> lock(counters_->mu);
  if (counters_->first_error.ok()) counters_->first_error = s;
}

void ExtendedRegularEngine::AdvanceShard(size_t begin, size_t end) {
  end = std::min(end, chains_.size());
  const Timestamp next = t_ + 1;
  size_t i = begin;
  while (i < end) {
    if (lifecycle_ && residency_[i] != kResident) {
      if (QuietAt(i, next)) {
        if (residency_[i] == kStub) {
          // Closed form: the real chain's single entry {mask, 0, 1.0}
          // moves by the empty-input transition; its accept probability is
          // exactly 0.0 or 1.0.
          const StateMask m = stub_nfa_->Transition(stub_mask_[i], 0);
          stub_mask_[i] = m;
          chain_probs_[i] = stub_nfa_->Accepts(m) ? 1.0 : 0.0;
        }
        // Spilled: a quiet tick is a bitwise no-op on a frozen absorbing
        // state, so the recorded probability simply carries forward.
        ++i;
        continue;
      }
      // Promotion seeds the fresh chain with the stub's closed form at t_ —
      // the state an always-materialized chain reaches after the all-quiet
      // prefix; rehydration imports the spilled state at t_.
      const bool stub = residency_[i] == kStub;
      if (!stub) spilled_[i]->t = t_;
      Status built = Materialize(i, stub ? StubState(i) : *spilled_[i]);
      if (!built.ok()) {
        // The error is latched (ChainStatus) and the binding stays frozen
        // rather than stepping a dead chain.
        LatchLifecycleError(built);
        ++i;
        continue;
      }
      (stub ? counters_->promotions : counters_->rehydrations)
          .fetch_add(1, std::memory_order_relaxed);
    }
    // Whole-stripe step when the stripe lies entirely in this range and no
    // lane is delegated; otherwise (or when StepStripe declines this tick)
    // every chain steps alone, bit-identically, on the strided path. A
    // range boundary through a stripe also lands here — lanes addressed
    // with disjoint interleaved strides are safe to step from two threads.
    const uint32_t w = i < stripe_width_.size() ? stripe_width_[i] : 1;
    if (w > 1 && i + w <= end) {
      bool delegated = false;
      for (size_t j = 0; j < w && !delegated; ++j) delegated = IsDelegated(i + j);
      if (!delegated) {
        RegularChain* lanes[simd::kLanes];
        for (size_t j = 0; j < w; ++j) lanes[j] = chains_[i + j].get();
        if (RegularChain::StepStripe(lanes, w, next)) {
          for (size_t j = 0; j < w; ++j) {
            chain_probs_[i + j] = chains_[i + j]->AcceptProb();
          }
          counters_->stripe_steps.fetch_add(1, std::memory_order_relaxed);
          i += w;
          continue;
        }
        counters_->stripe_fallbacks.fetch_add(1, std::memory_order_relaxed);
      }
    }
    if (IsDelegated(i)) {
      // The shared unit was advanced past t_+1 before this fan-out (the
      // runtime's shared phase); read its recorded frontier probability.
      chain_probs_[i] = delegates_[i]->ProbAt(next);
    } else {
      // Cold-spill accounting applies only to solo chains: stripe lanes
      // share arena storage, so freezing one would shear the stripe for no
      // memory gain.
      const bool solo = i >= stripe_width_.size() || stripe_width_[i] == 1;
      const bool consider_spill = lifecycle_ && spill_ && solo;
      const bool quiet = consider_spill && QuietAt(i, next);
      chain_probs_[i] = chains_[i]->Step();
      if (consider_spill) {
        if (quiet) {
          const uint32_t idle = ++idle_ticks_[i];
          if (idle >= cold_after_ && idle % cold_after_ == 0) TrySpill(i);
        } else {
          idle_ticks_[i] = 0;
        }
      }
    }
    ++i;
  }
}

// Two chains across any sessions with equal canonical keys are structurally
// identical and step to identical doubles, so the runtime may evaluate them
// as one shared unit.
std::string ExtendedRegularEngine::ShareableUnitKey(size_t i) const {
  return CanonicalQueryKey(query_.Substitute(bindings_[i]));
}

std::shared_ptr<SharedSubChain> ExtendedRegularEngine::MakeSharedUnit(
    size_t i, size_t frontier_history) const {
  if (lifecycle_ || i >= chains_.size() || IsDelegated(i)) return nullptr;
  const RegularChain& c = *chains_[i];
  if (!c.status().ok()) return nullptr;
  return std::make_shared<SharedSubChain>(c, frontier_history);
}

bool ExtendedRegularEngine::DelegateUnit(
    size_t i, const std::shared_ptr<SharedSubChain>& unit) {
  if (i >= chains_.size()) return false;
  if (unit == nullptr) {
    if (IsDelegated(i)) {
      // Copy construction re-owns the state vector (off any shared arena),
      // so the private chain resumes exactly where the shared unit stands.
      chains_[i] = std::make_unique<RegularChain>(delegates_[i]->chain());
      delegates_[i] = nullptr;
      --num_delegated_;
    }
    return true;
  }
  // Lifecycle bindings may not hold a live chain to share from (and the
  // sharing planner has no view of residency), so delegation requires a
  // resident chain.
  if (lifecycle_ && residency_[i] != kResident) return false;
  if (!chains_[i]->status().ok() || !unit->status().ok()) return false;
  if (unit->time() != t_) return false;
  if (delegates_.empty()) delegates_.resize(chains_.size());
  if (delegates_[i] == nullptr) ++num_delegated_;
  delegates_[i] = unit;
  return true;
}

SessionCounters ExtendedRegularEngine::Counters() const {
  SessionCounters c;
  c.shared_units = num_delegated_;
  c.simd_units = num_simd();
  c.stripe_steps = stripe_steps();
  c.stripe_fallbacks = stripe_fallbacks();
  c.bytes_resident = Footprint().bytes();
  c.resident_units = num_resident();
  c.stub_units = num_stub();
  c.spilled_units = num_spilled();
  c.promotions = promotions();
  c.spills = spills();
  c.rehydrations = rehydrations();
  return c;
}

ExtendedRegularEngine::MemoryFootprint ExtendedRegularEngine::Footprint()
    const {
  MemoryFootprint fp;
  fp.arena_bytes = arena_.capacity() * sizeof(double);
  std::unordered_set<const TransitionRowClass*> classes;
  // A resident binding pays the chain object itself plus its owned heap; a
  // stub/spilled binding pays only the null slot. This is the separation
  // the lifecycle exists for, so count it honestly.
  fp.owned_bytes += chains_.capacity() * sizeof(std::unique_ptr<RegularChain>);
  for (const auto& c : chains_) {
    if (c == nullptr) continue;
    fp.owned_bytes += sizeof(RegularChain) + c->OwnedBytes();
    if (c->row_class() != nullptr) classes.insert(c->row_class().get());
  }
  for (const TransitionRowClass* cls : classes) {
    fp.shared_row_bytes += cls->bytes();
  }
  if (lifecycle_) {
    fp.lifecycle_bytes =
        residency_.capacity() * sizeof(uint8_t) +
        stub_mask_.capacity() * sizeof(StateMask) +
        idle_ticks_.capacity() * sizeof(uint32_t) +
        part_begin_.capacity() * sizeof(uint32_t) +
        parts_.capacity() * sizeof(LifecyclePart) +
        trigger_words_.capacity() * sizeof(uint64_t) +
        spilled_.capacity() * sizeof(std::unique_ptr<ChainState>);
    for (const std::unique_ptr<ChainState>& sp : spilled_) {
      if (sp != nullptr) fp.lifecycle_bytes += sp->bytes();
    }
  }
  return fp;
}

size_t ExtendedRegularEngine::num_resident() const {
  if (!lifecycle_) return chains_.size();
  size_t n = 0;
  for (uint8_t r : residency_) n += r == kResident ? 1 : 0;
  return n;
}

size_t ExtendedRegularEngine::num_stub() const {
  if (!lifecycle_) return 0;
  size_t n = 0;
  for (uint8_t r : residency_) n += r == kStub ? 1 : 0;
  return n;
}

size_t ExtendedRegularEngine::num_spilled() const {
  if (!lifecycle_) return 0;
  size_t n = 0;
  for (uint8_t r : residency_) n += r == kSpilled ? 1 : 0;
  return n;
}

Status ExtendedRegularEngine::ChainStatus() const {
  if (lifecycle_) {
    std::lock_guard<std::mutex> lock(counters_->mu);
    if (!counters_->first_error.ok()) return counters_->first_error;
  }
  // Runs every tick: test each latched status in place and copy only the
  // failing one.
  for (size_t i = 0; i < chains_.size(); ++i) {
    const Status* s = IsDelegated(i)         ? &delegates_[i]->status()
                      : chains_[i] != nullptr ? &chains_[i]->status()
                                              : nullptr;
    if (s != nullptr && !s->ok()) return *s;
  }
  return Status::OK();
}

Result<double> ExtendedRegularEngine::CommitAdvance() {
  ++t_;
  // Single-threaded point: refresh the stream index if the database gained
  // streams since it was built, so later promotions see current candidates
  // (participation checks in Materialize still pin the creation-time set).
  if (lifecycle_ && stream_index_->num_streams() != db_->num_streams()) {
    stream_index_ =
        std::make_unique<StreamKeyIndex>(StreamKeyIndex::Build(*db_));
  }
  LAHAR_RETURN_NOT_OK(ChainStatus());
  // A single grounding needs no union, and 1 - (1 - p) is not an IEEE
  // no-op: returning p directly keeps Regular-class answers bit-identical
  // to a standalone RegularChain's.
  if (chain_probs_.size() == 1) return chain_probs_[0];
  double none = 1.0;
  for (double p : chain_probs_) none *= 1.0 - p;
  return 1.0 - none;
}

Status ExtendedRegularEngine::SaveState(serial::Writer* w) const {
  w->U32(t_);
  w->DoubleVec(chain_probs_);
  w->U64(chains_.size());
  for (size_t i = 0; i < chains_.size(); ++i) {
    SaveChainState(i, w);
  }
  return Status::OK();
}

Status ExtendedRegularEngine::LoadState(serial::Reader* r) {
  uint32_t t;
  std::vector<double> probs;
  uint64_t num_chains;
  LAHAR_RETURN_NOT_OK(r->U32(&t));
  LAHAR_RETURN_NOT_OK(r->DoubleVec(&probs));
  LAHAR_RETURN_NOT_OK(r->U64(&num_chains));
  if (num_chains != chains_.size() || probs.size() != chains_.size()) {
    return Status::InvalidArgument(
        "engine snapshot has " + std::to_string(num_chains) +
        " chains, this engine has " + std::to_string(chains_.size()) +
        " (different query or database?)");
  }
  if (!std::all_of(probs.begin(), probs.end(), ChainState::ValidProb)) {
    return Status::InvalidArgument(
        "engine snapshot chain probability is not a finite value in [0, 1]");
  }
  for (size_t i = 0; i < chains_.size(); ++i) {
    if (lifecycle_) {
      LAHAR_RETURN_NOT_OK(RestoreChainState(i, r, t));
    } else if (IsDelegated(i)) {
      LAHAR_RETURN_NOT_OK(delegates_[i]->mutable_chain()->LoadState(r));
      delegates_[i]->ResyncFrontier();
    } else {
      LAHAR_RETURN_NOT_OK(chains_[i]->LoadState(r));
    }
  }
  chain_probs_ = std::move(probs);
  t_ = t;
  return Status::OK();
}

}  // namespace lahar
