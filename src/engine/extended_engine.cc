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
  std::set<SymbolId> shared = q.SharedVars();
  std::vector<Binding> bindings = EnumerateBindings(q, db, shared);
  // The groundings share one automaton structure, so the prepared query's
  // kernel cache collapses the m compilations into one and its row pool
  // shares dense rows across keys.
  std::shared_ptr<KernelCache> kernels =
      prepared.kernel_cache != nullptr ? prepared.kernel_cache
                                       : std::make_shared<KernelCache>();
  std::shared_ptr<TransitionRowPool> rows =
      prepared.row_pool != nullptr ? prepared.row_pool
                                   : std::make_shared<TransitionRowPool>();
  // Grounded builds over many bindings pay O(bindings x streams) in
  // SymbolTable::Build full scans; one O(streams) index drops that to
  // O(bindings x subgoals).
  std::unique_ptr<StreamKeyIndex> index;
  if (bindings.size() >= 64) {
    index = std::make_unique<StreamKeyIndex>(StreamKeyIndex::Build(db));
  }
  const ChainCaches caches{kernels.get(), rows.get(), index.get()};
  engine.query_ = q;
  engine.chains_.reserve(bindings.size());
  for (Binding& b : bindings) {
    LAHAR_ASSIGN_OR_RETURN(
        RegularChain chain,
        RegularChain::Create(q.Substitute(b), db, options, caches));
    engine.chains_.push_back(std::move(chain));
    engine.bindings_.push_back(std::move(b));
  }
  engine.chain_probs_.resize(engine.chains_.size(), 0.0);
  size_t total = 0;
  for (const RegularChain& c : engine.chains_) total += 2 * c.FlatStride();
  if (total > 0) {
    const size_t n = engine.chains_.size();
    engine.arena_.assign(total, 0.0);
    engine.stripe_width_.assign(n, 1);
    double* base = engine.arena_.data();
    // Pack consecutive runs of same-kernel SIMD chains into
    // lane-interleaved stripes of exactly simd::kLanes (flat index i of
    // lane j at block[i * kLanes + j]) so StepStripe advances all lanes
    // with one wide pass; leftovers and everything else get the plain
    // contiguous cur|nxt layout.
    constexpr size_t kLanes = simd::kLanes;
    std::vector<RegularChain>& chains = engine.chains_;
    size_t i = 0;
    while (i < n) {
      RegularChain& c = chains[i];
      const size_t stride = c.FlatStride();
      if (stride == 0) {
        ++i;
        continue;
      }
      size_t run = 1;
      if (c.simd()) {
        while (i + run < n && chains[i + run].simd() &&
               chains[i + run].row_class() == c.row_class() &&
               chains[i + run].FlatStride() == stride) {
          ++run;
        }
      }
      while (run >= kLanes) {
        for (size_t j = 0; j < kLanes; ++j) {
          chains[i + j].BindArena(base + j, base + stride * kLanes + j,
                                  kLanes);
          engine.stripe_width_[i + j] = j == 0 ? kLanes : 0;
        }
        base += 2 * stride * kLanes;
        i += kLanes;
        run -= kLanes;
      }
      for (; run > 0; --run, ++i) {
        chains[i].BindArena(base, base + stride);
        base += 2 * stride;
      }
    }
  }
  return engine;
}

void ExtendedRegularEngine::AdvanceShard(size_t begin, size_t end) {
  end = std::min(end, chains_.size());
  const Timestamp next = t_ + 1;
  size_t i = begin;
  while (i < end) {
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
        for (size_t j = 0; j < w; ++j) lanes[j] = &chains_[i + j];
        if (RegularChain::StepStripe(lanes, w, next)) {
          for (size_t j = 0; j < w; ++j) {
            chain_probs_[i + j] = chains_[i + j].AcceptProb();
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
      chain_probs_[i] = chains_[i].Step();
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
  if (i >= chains_.size() || IsDelegated(i)) return nullptr;
  const RegularChain& c = chains_[i];
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
      chains_[i] = delegates_[i]->chain();
      delegates_[i] = nullptr;
      --num_delegated_;
    }
    return true;
  }
  if (!chains_[i].status().ok() || !unit->status().ok()) return false;
  if (unit->time() != t_) return false;
  if (delegates_.empty()) delegates_.resize(chains_.size());
  if (delegates_[i] == nullptr) ++num_delegated_;
  delegates_[i] = unit;
  return true;
}

bool ExtendedRegularEngine::AdoptUnits(
    const std::vector<std::shared_ptr<SharedSubChain>>& units,
    Timestamp tick) {
  if (t_ != 0 || tick == 0 || num_delegated_ != 0 ||
      units.size() != chains_.size()) {
    return false;
  }
  for (size_t i = 0; i < units.size(); ++i) {
    if (units[i] == nullptr || !units[i]->status().ok() ||
        units[i]->time() != tick) {
      return false;
    }
  }
  delegates_ = units;
  num_delegated_ = units.size();
  t_ = tick;
  for (size_t i = 0; i < units.size(); ++i) {
    chain_probs_[i] = units[i]->ProbAt(tick);
  }
  return true;
}

SessionCounters ExtendedRegularEngine::Counters() const {
  SessionCounters c;
  c.shared_units = num_delegated_;
  c.simd_units = num_simd();
  c.stripe_steps = stripe_steps();
  c.stripe_fallbacks = stripe_fallbacks();
  c.bytes_resident = Footprint().bytes();
  return c;
}

ExtendedRegularEngine::MemoryFootprint ExtendedRegularEngine::Footprint()
    const {
  MemoryFootprint fp;
  fp.arena_bytes = arena_.capacity() * sizeof(double);
  std::unordered_set<const TransitionRowClass*> classes;
  fp.owned_bytes += chains_.capacity() * sizeof(RegularChain);
  for (const RegularChain& c : chains_) {
    fp.owned_bytes += c.OwnedBytes();
    if (c.row_class() != nullptr) classes.insert(c.row_class().get());
  }
  for (const TransitionRowClass* cls : classes) {
    fp.shared_row_bytes += cls->bytes();
  }
  return fp;
}

Status ExtendedRegularEngine::ChainStatus() const {
  // Runs every tick: test each latched status in place and copy only the
  // failing one.
  for (size_t i = 0; i < chains_.size(); ++i) {
    const Status& s =
        IsDelegated(i) ? delegates_[i]->status() : chains_[i].status();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Result<double> ExtendedRegularEngine::CommitAdvance() {
  ++t_;
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
  // A delegated chain serializes the shared unit's live state — the same
  // canonical bytes the private chain would have written unshared, so
  // checkpoints are bit-identical across sharing modes.
  for (size_t i = 0; i < chains_.size(); ++i) {
    (IsDelegated(i) ? delegates_[i]->chain() : chains_[i]).SaveState(w);
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
    if (IsDelegated(i)) {
      LAHAR_RETURN_NOT_OK(delegates_[i]->mutable_chain()->LoadState(r));
      delegates_[i]->ResyncFrontier();
    } else {
      LAHAR_RETURN_NOT_OK(chains_[i].LoadState(r));
    }
  }
  chain_probs_ = std::move(probs);
  t_ = t;
  return Status::OK();
}

}  // namespace lahar
