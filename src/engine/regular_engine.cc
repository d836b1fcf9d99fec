#include "engine/regular_engine.h"

#include <algorithm>

#include "automaton/simd.h"

namespace lahar {
namespace {

// Canonical live-state order shared by both execution paths: ascending
// (mask, hidden), with the latched accept flag (bit 63) making accepted
// states sort after unaccepted ones — exactly the kernel path's flat layout
// (plane, mask index, hidden). Enumerating sources in this order makes the
// two paths' floating-point accumulation sequences, and therefore their
// probabilities, bit-identical.
template <typename Pair>
void SortCanonical(std::vector<Pair>* v) {
  std::sort(v->begin(), v->end(), [](const Pair& x, const Pair& y) {
    return x.first.mask != y.first.mask ? x.first.mask < y.first.mask
                                        : x.first.hidden < y.first.hidden;
  });
}

}  // namespace

Result<RegularChain> RegularChain::Create(const NormalizedQuery& q,
                                          const EventDatabase& db,
                                          const ChainOptions& options,
                                          const ChainCaches& caches) {
  RegularChain chain;
  LAHAR_ASSIGN_OR_RETURN(QueryNfa nfa, QueryNfa::Build(q));
  chain.nfa_ = std::make_shared<const QueryNfa>(std::move(nfa));
  LAHAR_ASSIGN_OR_RETURN(SymbolTable table,
                         SymbolTable::Build(q, db, caches.stream_index));
  chain.symbols_ = std::make_shared<const SymbolTable>(std::move(table));
  chain.db_ = &db;
  chain.horizon_ = db.horizon();

  uint64_t radix = 1;
  size_t slot = 0;
  for (size_t pos = 0; pos < chain.symbols_->participating().size(); ++pos) {
    StreamId id = chain.symbols_->participating()[pos];
    const Stream& s = db.stream(id);
    Participant p;
    p.id = id;
    p.position = pos;
    p.markovian = s.markovian();
    p.radix = 1;
    p.hidden_slot = 0;
    if (s.markovian()) {
      // The joint hidden state is the product of the Markovian streams'
      // domains; past ~1e6 the exact chain is impractical and the caller
      // should ground the query per key (the paper's per-key processes).
      if (radix > 1000000 / s.domain_size()) {
        return Status::InvalidArgument(
            "joint hidden state of Markovian streams is too large; ground "
            "the query per key (run one chain per stream)");
      }
      p.radix = radix;
      p.hidden_slot = slot++;
      chain.kernel_domains_.push_back(
          static_cast<uint32_t>(s.domain_size()));
      radix *= s.domain_size();
      chain.markov_participants_.push_back(p);
    } else {
      chain.indep_participants_.push_back(p);
    }
    chain.participants_.push_back(p);
  }

  // Compile the transition kernel (budget permitting); the dynamic map path
  // stays available as the fallback and the semantic reference.
  if (options.kernel.max_flat_states > 0) {
    std::vector<KernelStream> profile;
    profile.reserve(chain.participants_.size());
    for (const Participant& p : chain.participants_) {
      const Stream& s = db.stream(p.id);
      KernelStream ks;
      ks.markovian = p.markovian;
      ks.radix = p.radix;
      ks.domain_size = static_cast<uint32_t>(s.domain_size());
      ks.masks.reserve(s.domain_size());
      for (DomainIndex d = 0; d < s.domain_size(); ++d) {
        ks.masks.push_back(chain.symbols_->MaskFor(p.position, d));
      }
      profile.push_back(std::move(ks));
    }
    std::shared_ptr<const CompiledKernel> kernel =
        caches.kernels != nullptr
            ? caches.kernels->FindOrCompile(*chain.nfa_, profile,
                                            options.kernel)
            : CompileKernel(
                  *chain.nfa_, profile, options.kernel,
                  KernelSignature(*chain.nfa_, profile, options.kernel));
    if (kernel != nullptr) {
      int idx = kernel->MaskIndexOf(chain.nfa_->InitialStates());
      if (idx >= 0) {
        chain.kernel_ = std::move(kernel);
        const uint64_t R = chain.kernel_->R;

        // Step-path selection. kAuto takes the vectorized path only where
        // the dense-row model pays: a nontrivial hidden space under the
        // dense-row memory ceiling, with CPTs dense enough that multiplying
        // the zeros beats the CSR walk's skipping them. kSimd forces it
        // wherever structurally possible (the bit-identity tests sweep
        // every width, including R == 1).
        bool want_simd = false;
        if (options.step_mode == KernelStepMode::kSimd) {
          want_simd = R <= kSimdMaxHidden;
#if !defined(LAHAR_NO_SIMD)
        } else if (options.step_mode == KernelStepMode::kAuto) {
          double density = 1.0;
          for (const Participant& p : chain.markov_participants_) {
            const Stream& s = db.stream(p.id);
            if (s.horizon() < 2) continue;
            const CptView cpt = s.CptAt(1);
            const size_t total = cpt.rows() * cpt.cols();
            size_t nz = 0;
            for (size_t r = 0; r < cpt.rows(); ++r) {
              for (const CptEntry e : cpt.Row(r)) nz += e.p > 0;
            }
            if (total > 0) density *= static_cast<double>(nz) / total;
          }
          want_simd = R >= 2 && R <= kSimdMaxHidden &&
                      density >= kSimdMinDensity;
#endif  // !LAHAR_NO_SIMD
        }
        chain.simd_ = want_simd;
        if (want_simd && caches.rows != nullptr) {
          // Structural class key only — kernel shape and domains.
          // CPT content is validated per timestep at reuse (RowContentKey),
          // not baked in here: a creation-time content hash would be O(CPT
          // bytes x horizon) per chain and, worse, go permanently stale the
          // moment a live stream's horizon grows (the streaming runtime
          // appends every tick). The t == 1 initial marginal is excluded
          // from both keys: per-key chains with distinct initials share one
          // class (t == 1 rows are always built locally; see ResolveRows).
          RowFingerprint fp;
          fp.Mix(chain.kernel_->signature.data(),
                 chain.kernel_->signature.size());
          for (const Participant& p : chain.markov_participants_) {
            fp.MixU64(db.stream(p.id).domain_size());
          }
          chain.row_class_ = caches.rows->FindOrCreate(fp);
        }

        const size_t stride = chain.kernel_->num_flat();
        chain.flat_.assign(2 * stride, 0.0);
        chain.cur_ = chain.flat_.data();
        chain.nxt_ = chain.flat_.data() + stride;
        // SIMD chains store state in slot layout; h == 0 maps through
        // slot_of (identity for scalar chains).
        const size_t h0 = chain.simd_ ? chain.kernel_->slot_of[0] : 0;
        chain.cur_[static_cast<size_t>(idx) * R + h0] = 1.0;
      }
    }
  }
  if (chain.kernel_ == nullptr) {
    chain.states_.emplace(Key{chain.nfa_->InitialStates(), 0}, 1.0);
  }
  return chain;
}

RegularChain::RegularChain(const RegularChain& o)
    : nfa_(o.nfa_),
      symbols_(o.symbols_),
      db_(o.db_),
      participants_(o.participants_),
      markov_participants_(o.markov_participants_),
      indep_participants_(o.indep_participants_),
      indep_dist_(o.indep_dist_),
      kernel_domains_(o.kernel_domains_),
      horizon_(o.horizon_),
      t_(o.t_),
      track_accept_(o.track_accept_),
      status_(o.status_),
      states_(o.states_),
      kernel_(o.kernel_),
      planes_(o.planes_),
      simd_(o.simd_),
      row_class_(o.row_class_),
      step_rows_(o.step_rows_),
      step_rows_t_(o.step_rows_t_),
      step_rows_fp_(o.step_rows_fp_) {
  FixupStorage(o);
}

RegularChain& RegularChain::operator=(const RegularChain& o) {
  if (this != &o) {
    RegularChain tmp(o);
    *this = std::move(tmp);
  }
  return *this;
}

RegularChain::RegularChain(RegularChain&& o) noexcept {
  *this = std::move(o);
}

RegularChain& RegularChain::operator=(RegularChain&& o) noexcept {
  if (this == &o) return *this;
  nfa_ = std::move(o.nfa_);
  symbols_ = std::move(o.symbols_);
  db_ = o.db_;
  participants_ = std::move(o.participants_);
  markov_participants_ = std::move(o.markov_participants_);
  indep_participants_ = std::move(o.indep_participants_);
  indep_dist_ = std::move(o.indep_dist_);
  kernel_domains_ = std::move(o.kernel_domains_);
  horizon_ = o.horizon_;
  t_ = o.t_;
  track_accept_ = o.track_accept_;
  status_ = std::move(o.status_);
  states_ = std::move(o.states_);
  kernel_ = std::move(o.kernel_);
  planes_ = o.planes_;
  simd_ = o.simd_;
  lane_stride_ = o.lane_stride_;
  row_class_ = std::move(o.row_class_);
  step_rows_ = std::move(o.step_rows_);
  step_rows_t_ = o.step_rows_t_;
  step_rows_fp_ = o.step_rows_fp_;
  // Moving flat_ transfers its heap buffer, so the source's cur_/nxt_
  // pointer values stay valid for *this (owned storage) and external arena
  // pointers transfer as-is (arena-bound storage).
  flat_ = std::move(o.flat_);
  cur_ = o.cur_;
  nxt_ = o.nxt_;
  scratch_ = std::move(o.scratch_);
  o.cur_ = nullptr;
  o.nxt_ = nullptr;
  o.kernel_.reset();
  o.states_.clear();
  return *this;
}

void RegularChain::FixupStorage(const RegularChain& o) {
  lane_stride_ = 1;  // a copy always owns contiguous storage
  if (kernel_ == nullptr || o.cur_ == nullptr) {
    cur_ = nullptr;
    nxt_ = nullptr;
    return;
  }
  const size_t stride = planes_ * kernel_->num_flat();
  if (!o.flat_.empty()) {
    flat_ = o.flat_;
    cur_ = flat_.data() + (o.cur_ - o.flat_.data());
    nxt_ = flat_.data() + (o.nxt_ - o.flat_.data());
  } else {
    // The source lives in an engine-owned arena (possibly lane-interleaved);
    // the copy owns its storage, de-strided but in the same slot layout.
    flat_.assign(2 * stride, 0.0);
    if (o.lane_stride_ == 1) {
      std::copy(o.cur_, o.cur_ + stride, flat_.data());
    } else {
      for (size_t i = 0; i < stride; ++i) flat_[i] = o.cur_[i * o.lane_stride_];
    }
    cur_ = flat_.data();
    nxt_ = flat_.data() + stride;
  }
}

// Distribution over the OR of the symbol masks contributed by all
// *independent* participating streams at timestep `next`. Streams are
// independent of each other and of the past, so this is computed once per
// step and shared by every chain state; collapsing domain values with equal
// masks keeps it tiny (typically 2-4 entries) no matter how many streams or
// how large their domains.
void RegularChain::BuildIndependentMaskDist(Timestamp next) {
  indep_dist_.clear();
  indep_dist_.emplace_back(0, 1.0);
  std::vector<std::pair<SymbolMask, double>>& stream_dist =
      scratch_.stream_dist;
  std::vector<std::pair<SymbolMask, double>>& merged = scratch_.merged;
  for (const Participant& part : indep_participants_) {
    const Stream& s = db_->stream(part.id);
    stream_dist.clear();
    if (next > s.horizon() || s.MarginalAt(next).empty()) {
      continue;  // certain bottom: contributes mask 0 with probability 1
    }
    const std::vector<double>& m = s.MarginalAt(next);
    for (DomainIndex d = 0; d < m.size(); ++d) {
      if (m[d] <= 0) continue;
      SymbolMask mask = symbols_->MaskFor(part.position, d);
      bool found = false;
      for (auto& [existing, p] : stream_dist) {
        if (existing == mask) {
          p += m[d];
          found = true;
          break;
        }
      }
      if (!found) stream_dist.emplace_back(mask, m[d]);
    }
    if (stream_dist.size() == 1 && stream_dist[0].first == 0) continue;
    // Convolve the running OR-distribution with this stream's.
    merged.clear();
    for (const auto& [acc_mask, acc_p] : indep_dist_) {
      for (const auto& [mask, p] : stream_dist) {
        SymbolMask combined = acc_mask | mask;
        double added = acc_p * p;
        bool found = false;
        for (auto& [existing, ep] : merged) {
          if (existing == combined) {
            ep += added;
            found = true;
            break;
          }
        }
        if (!found) merged.emplace_back(combined, added);
      }
    }
    indep_dist_.swap(merged);
  }
}

// Enumerates the joint assignment of the *Markovian* participating streams
// at timestep `next`, then crosses each combination with the shared
// independent-stream mask distribution. Frames carry the probability
// product *without* the source weight p; the final accumulate groups it as
// (p * frame) * indep — the exact multiplication tree the kernel path uses.
void RegularChain::EnumerateSuccessors(const Key& key, double p,
                                       Timestamp next, StateMap* out) {
  struct Frame {
    SymbolMask input = 0;
    uint64_t hidden = 0;
    double prob = 1.0;
  };
  std::vector<Frame> frontier{{0, 0, 1.0}};
  std::vector<Frame> scratch;
  for (const Participant& part : markov_participants_) {
    const Stream& s = db_->stream(part.id);
    scratch.clear();
    if (next > s.horizon()) {
      // Stream over: certain bottom, contributes nothing to the input.
      for (const Frame& f : frontier) scratch.push_back(f);
    } else if (next > 1) {
      const DomainIndex d = static_cast<DomainIndex>(
          (key.hidden / part.radix) % s.domain_size());
      const CptRow row = s.CptAt(next - 1).Row(d);
      for (const Frame& f : frontier) {
        for (const auto [d2, q] : row) {
          if (q <= 0) continue;
          Frame nf = f;
          nf.prob *= q;
          nf.input |= symbols_->MaskFor(part.position, d2);
          nf.hidden += part.radix * d2;
          scratch.push_back(nf);
        }
      }
    } else {
      const std::vector<double>& m = s.MarginalAt(next);
      if (m.empty()) {
        for (const Frame& f : frontier) scratch.push_back(f);
      } else {
        for (const Frame& f : frontier) {
          for (DomainIndex d2 = 0; d2 < m.size(); ++d2) {
            double q = m[d2];
            if (q <= 0) continue;
            Frame nf = f;
            nf.prob *= q;
            nf.input |= symbols_->MaskFor(part.position, d2);
            nf.hidden += part.radix * d2;
            scratch.push_back(nf);
          }
        }
      }
    }
    frontier.swap(scratch);
  }
  const StateMask base_mask = key.mask & ~kAcceptedFlag;
  const bool was_accepted = (key.mask & kAcceptedFlag) != 0;
  for (const Frame& f : frontier) {
    const double w = p * f.prob;
    for (const auto& [imask, ip] : indep_dist_) {
      StateMask next_mask = nfa_->Transition(base_mask, f.input | imask);
      if (track_accept_ && (was_accepted || nfa_->Accepts(next_mask))) {
        next_mask |= kAcceptedFlag;
      }
      (*out)[Key{next_mask, f.hidden}] += w * ip;
    }
  }
}

void RegularChain::StepMap(Timestamp next) {
  std::vector<std::pair<Key, double>>& sorted = scratch_.sorted;
  sorted.assign(states_.begin(), states_.end());
  SortCanonical(&sorted);
  StateMap out;
  out.reserve(states_.size() * 2);
  for (const auto& [key, p] : sorted) {
    EnumerateSuccessors(key, p, next, &out);
  }
  states_.swap(out);
}

// Builds the per-step CSR rows: for every live joint hidden code h, the
// (successor code h2, probability) pairs in exactly the enumeration order
// (and with the same partial-product grouping) as EnumerateSuccessors.
void RegularChain::BuildHiddenRows(Timestamp next) {
  const uint64_t R = kernel_->R;
  Scratch& s = scratch_;
  s.row_ptr.assign(R + 1, 0);
  s.csr_h.clear();
  s.csr_p.clear();
  for (uint64_t h = 0; h < R; ++h) {
    if (s.live[h]) {
      s.frames.clear();
      s.frames.emplace_back(0, 1.0);
      for (const Participant& part : markov_participants_) {
        const Stream& st = db_->stream(part.id);
        const uint32_t dom = kernel_domains_[part.hidden_slot];
        s.frames2.clear();
        if (next > st.horizon()) {
          s.frames2 = s.frames;  // ended: digit 0, probability 1
        } else if (next > 1) {
          const DomainIndex d =
              static_cast<DomainIndex>((h / part.radix) % dom);
          const CptRow row = st.CptAt(next - 1).Row(d);
          for (const auto& [h2, pr] : s.frames) {
            for (const auto [d2, q] : row) {
              if (q <= 0) continue;
              s.frames2.emplace_back(h2 + part.radix * d2, pr * q);
            }
          }
        } else {
          const std::vector<double>& m = st.MarginalAt(next);
          if (m.empty()) {
            s.frames2 = s.frames;
          } else {
            for (const auto& [h2, pr] : s.frames) {
              for (DomainIndex d2 = 0; d2 < m.size(); ++d2) {
                const double q = m[d2];
                if (q <= 0) continue;
                s.frames2.emplace_back(h2 + part.radix * d2, pr * q);
              }
            }
          }
        }
        s.frames.swap(s.frames2);
      }
      for (const auto& [h2, pr] : s.frames) {
        s.csr_h.push_back(static_cast<uint32_t>(h2));
        s.csr_p.push_back(pr);
      }
    }
    s.row_ptr[h + 1] = static_cast<uint32_t>(s.csr_h.size());
  }
}

// Structural guards + per-step class tables shared by every kernel-path
// step: the compiled digit layout and mask classes assume the domains fixed
// at creation. A surprise (a stream domain that grew, an independent mask
// outside the compiled alphabet) returns false — mutating nothing — and the
// caller falls back to the dynamic map path for the rest of the chain's
// life. StepStripe relies on the non-mutation to probe eligibility.
bool RegularChain::FillStepTables() {
  const CompiledKernel& k = *kernel_;
  const size_t E = indep_dist_.size();
  Scratch& s = scratch_;
  for (size_t i = 0; i < markov_participants_.size(); ++i) {
    const Stream& st = db_->stream(markov_participants_[i].id);
    if (st.domain_size() != kernel_domains_[i]) return false;
  }
  s.indep_p.resize(E);
  s.step_cls.assign(static_cast<size_t>(k.num_markov_classes) * E, 0);
  for (size_t e = 0; e < E; ++e) {
    const int ic = k.IndepClassOf(indep_dist_[e].first);
    if (ic < 0) return false;
    s.indep_p[e] = indep_dist_[e].second;
    for (uint32_t mc = 0; mc < k.num_markov_classes; ++mc) {
      s.step_cls[static_cast<size_t>(mc) * E + e] =
          k.pair_class[static_cast<size_t>(mc) * k.indep_masks.size() + ic];
    }
  }
  return true;
}

bool RegularChain::StepKernel(Timestamp next) {
  const CompiledKernel& k = *kernel_;
  const size_t M = k.masks.size();
  const uint64_t R = k.R;
  const size_t E = indep_dist_.size();
  Scratch& s = scratch_;

  if (!FillStepTables()) {
    DematerializeToMap();
    return false;
  }

  // Live joint hidden codes across all planes and state sets: the CSR rows
  // below are built once per live code and shared by every state set — the
  // work the map path redoes per (state set, hidden) pair.
  s.live.assign(R, 0);
  const size_t stride = planes_ * M * R;
  for (size_t block = 0; block < planes_ * M; ++block) {
    const double* src = cur_ + block * R;
    for (uint64_t h = 0; h < R; ++h) {
      if (src[h] != 0.0) s.live[h] = 1;
    }
  }
  BuildHiddenRows(next);

  // Double-buffered sparse mat-vec over the flat state. Source order
  // (plane, mask index, hidden) is the canonical order; see SortCanonical.
  std::fill(nxt_, nxt_ + stride, 0.0);
  const uint32_t C = k.num_inputs;
  for (size_t a = 0; a < planes_; ++a) {
    for (size_t mi = 0; mi < M; ++mi) {
      const double* src = cur_ + (a * M + mi) * R;
      const uint32_t* trow = &k.trans[mi * C];
      for (uint64_t h = 0; h < R; ++h) {
        const double p = src[h];
        if (p == 0.0) continue;
        for (uint32_t j = s.row_ptr[h]; j < s.row_ptr[h + 1]; ++j) {
          const uint64_t h2 = s.csr_h[j];
          const double w = p * s.csr_p[j];
          const uint32_t* cls = &s.step_cls[k.markov_class[h2] * E];
          for (size_t e = 0; e < E; ++e) {
            const uint32_t tr = trow[cls[e]];
            const size_t a2 = track_accept_ ? (a | (tr & 1u)) : 0;
            nxt_[(a2 * M + (tr >> 1)) * R + h2] += w * s.indep_p[e];
          }
        }
      }
    }
  }
  std::swap(cur_, nxt_);
  return true;
}

// Dense successor rows for `next` in slot space. Values are built with
// BuildHiddenRows' exact enumeration (participant order, left-associated
// products, q <= 0 skipped) and scattered into zeroed rows, so every
// nonzero is bitwise equal to the CSR value; distinct digit combinations
// give distinct successor codes, so the scatter never collides.
std::shared_ptr<const TransitionRowSet> RegularChain::BuildRowSet(
    Timestamp next) const {
  const CompiledKernel& k = *kernel_;
  const uint64_t R = k.R;
  auto set = std::make_shared<TransitionRowSet>();
  set->R = R;
  // With no participant in CPT phase (t == 1 marginal, or every stream
  // ended) the successor distribution is source-independent: one row.
  bool broadcast = true;
  for (const Participant& part : markov_participants_) {
    const Stream& st = db_->stream(part.id);
    if (next > 1 && next <= st.horizon()) {
      broadcast = false;
      break;
    }
  }
  set->broadcast = broadcast;
  const uint64_t num_rows = broadcast ? 1 : R;
  std::vector<double> dense(num_rows * R, 0.0);
  std::vector<std::pair<uint64_t, double>> frames, frames2;
  for (uint64_t h = 0; h < num_rows; ++h) {
    frames.clear();
    frames.emplace_back(0, 1.0);
    for (const Participant& part : markov_participants_) {
      const Stream& st = db_->stream(part.id);
      const uint32_t dom = kernel_domains_[part.hidden_slot];
      frames2.clear();
      if (next > st.horizon()) {
        frames2 = frames;  // ended: digit 0, probability 1
      } else if (next > 1) {
        const DomainIndex d = static_cast<DomainIndex>((h / part.radix) % dom);
        const CptRow row = st.CptAt(next - 1).Row(d);
        for (const auto& [h2, pr] : frames) {
          for (const auto [d2, q] : row) {
            if (q <= 0) continue;
            frames2.emplace_back(h2 + part.radix * d2, pr * q);
          }
        }
      } else {
        const std::vector<double>& m = st.MarginalAt(next);
        if (m.empty()) {
          frames2 = frames;
        } else {
          for (const auto& [h2, pr] : frames) {
            for (DomainIndex d2 = 0; d2 < m.size(); ++d2) {
              const double q = m[d2];
              if (q <= 0) continue;
              frames2.emplace_back(h2 + part.radix * d2, pr * q);
            }
          }
        }
      }
      frames.swap(frames2);
    }
    double* out = dense.data() + h * R;
    for (const auto& [h2, pr] : frames) out[k.slot_of[h2]] = pr;
  }
  set->rows = std::move(dense);
  return set;
}

// Content key of the rows for timestep `next`: per participant, the digest
// of the CPT slice the step multiplies through, or an ended marker past
// the horizon. Slices are append-immutable, so the key for a covered tick
// never changes as a live stream grows; an "ended" row built ahead of the
// data keys differently from the post-append row and can never be read
// stale. The digests are maintained by Stream at slice write time, so this
// costs O(participants) per tick, not O(CPT bytes).
RowFingerprint RegularChain::RowContentKey(Timestamp next) const {
  RowFingerprint fp;
  fp.MixU64(next);
  for (const Participant& part : markov_participants_) {
    const Stream& st = db_->stream(part.id);
    if (next > st.horizon()) {
      fp.MixU64(0);  // ended: digit 0, probability 1
      continue;
    }
    const std::array<uint64_t, 2>& d = st.CptDigestAt(next - 1);
    fp.MixU64(1);  // covered marker: distinguishes from the ended case
    fp.MixU64(d[0]);
    fp.MixU64(d[1]);
  }
  return fp;
}

std::shared_ptr<const TransitionRowSet> RegularChain::ResolveRows(
    Timestamp next) {
  if (step_rows_ != nullptr && step_rows_t_ == next) return step_rows_;
  // t == 1 rows depend on the initial marginals, which the keys
  // deliberately exclude — never pooled.
  if (row_class_ != nullptr && next > 1) {
    step_rows_fp_ = RowContentKey(next);
    std::shared_ptr<const TransitionRowSet> set =
        row_class_->Find(next, step_rows_fp_);
    if (set == nullptr) {
      set = row_class_->Insert(next, step_rows_fp_, BuildRowSet(next));
    }
    step_rows_ = std::move(set);
  } else {
    step_rows_ = BuildRowSet(next);
  }
  step_rows_t_ = next;
  return step_rows_;
}

// Vectorized per-chain step: same source order (plane, mask index, hidden
// code ascending) and multiplication tree fl(fl(p*q)*ip) as StepKernel, but
// the inner walk is stripe-wise dense — w[slot] = p * row[slot] over the
// whole row, then one contiguous axpy per (class segment, indep entry) into
// the destination block. The extra zero-row entries add +0.0 to accumulators
// that start at +0.0 and only ever receive non-negative terms: a bitwise
// no-op, so the result is EXPECT_EQ-identical to the scalar reference.
bool RegularChain::StepKernelSimd(Timestamp next) {
  const CompiledKernel& k = *kernel_;
  const size_t M = k.masks.size();
  const uint64_t R = k.R;
  const size_t E = indep_dist_.size();
  const size_t L = lane_stride_;
  Scratch& s = scratch_;

  if (!FillStepTables()) {
    DematerializeToMap();
    return false;
  }
  const std::shared_ptr<const TransitionRowSet> rows = ResolveRows(next);

  s.w.resize(R);
  const size_t stride = planes_ * M * R;
  if (L == 1) {
    std::fill(nxt_, nxt_ + stride, 0.0);
  } else {
    for (size_t i = 0; i < stride; ++i) nxt_[i * L] = 0.0;
  }
  const uint32_t C = k.num_inputs;
  for (size_t a = 0; a < planes_; ++a) {
    for (size_t mi = 0; mi < M; ++mi) {
      const double* src = cur_ + (a * M + mi) * R * L;
      const uint32_t* trow = &k.trans[mi * C];
      for (uint64_t h = 0; h < R; ++h) {
        const double p = src[k.slot_of[h] * L];
        if (p == 0.0) continue;
        simd::ScaleRow(s.w.data(), rows->Row(h), p, R);
        for (const CompiledKernel::ClassSegment& seg : k.class_segments) {
          const uint32_t* cls = &s.step_cls[static_cast<size_t>(seg.cls) * E];
          const size_t len = seg.end - seg.begin;
          for (size_t e = 0; e < E; ++e) {
            const uint32_t tr = trow[cls[e]];
            const size_t a2 = track_accept_ ? (a | (tr & 1u)) : 0;
            double* dst = nxt_ + ((a2 * M + (tr >> 1)) * R + seg.begin) * L;
            simd::AxpyConstStrided(dst, s.w.data() + seg.begin, s.indep_p[e],
                                   len, L);
          }
        }
      }
    }
  }
  std::swap(cur_, nxt_);
  return true;
}

bool RegularChain::StepStripe(RegularChain* const* chains, size_t n,
                              Timestamp next) {
  RegularChain& c0 = *chains[0];
  if (c0.kernel_ == nullptr) return false;
  // Structural eligibility: every lane must share the leader's kernel and
  // arena interleave and sit at the same clock/parity. Any storage change
  // (dematerialize, accept tracking re-owning, a copy) breaks the cur_
  // base check and parks the stripe on the per-chain path for good.
  for (size_t j = 0; j < n; ++j) {
    RegularChain& c = *chains[j];
    if (c.kernel_.get() != c0.kernel_.get() || !c.simd_ ||
        c.lane_stride_ != n || c.planes_ != 1 || c.track_accept_ ||
        !c.flat_.empty() || c.t_ + 1 != next || c.cur_ != c0.cur_ + j ||
        c.nxt_ != c0.nxt_ + j) {
      return false;
    }
    if (!c.symbols_->CoversDomains(*c.db_)) return false;
  }
  // Per-lane step tables; a structural surprise or divergent independent
  // mask sequence falls back (the per-chain path redoes this work — the
  // calls are idempotent and non-mutating on failure).
  for (size_t j = 0; j < n; ++j) {
    RegularChain& c = *chains[j];
    c.BuildIndependentMaskDist(next);
    if (!c.FillStepTables()) return false;
    if (c.indep_dist_.size() != c0.indep_dist_.size()) return false;
    for (size_t e = 0; e < c.indep_dist_.size(); ++e) {
      if (c.indep_dist_[e].first != c0.indep_dist_[e].first) return false;
    }
  }
  // All lanes must read the same row content; pooled classes converge on
  // one TransitionRowSet pointer, chain-local builds (t == 1, no pool,
  // horizon drift) do not and step per-chain.
  const std::shared_ptr<const TransitionRowSet> rows = c0.ResolveRows(next);
  for (size_t j = 1; j < n; ++j) {
    if (chains[j]->ResolveRows(next) != rows) return false;
  }

  const CompiledKernel& k = *c0.kernel_;
  const size_t M = k.masks.size();
  const uint64_t R = k.R;
  const size_t E = c0.indep_dist_.size();
  Scratch& s = c0.scratch_;
  s.w.resize(R * n);
  s.ip_lanes.resize(E * n);
  for (size_t j = 0; j < n; ++j) {
    for (size_t e = 0; e < E; ++e) {
      s.ip_lanes[e * n + j] = chains[j]->scratch_.indep_p[e];
    }
  }

  // Wide step: identical (mask index, hidden, segment, indep entry) order
  // as the per-chain path, with every lane advancing in lockstep. Lanes
  // whose source probability is zero contribute +0.0 terms — a bitwise
  // no-op (see StepKernelSimd) — so mixed-liveness stripes stay identical
  // to stepping each lane alone.
  double* nxt0 = c0.nxt_;
  const double* cur0 = c0.cur_;
  std::fill(nxt0, nxt0 + M * R * n, 0.0);
  const uint32_t C = k.num_inputs;
  for (size_t mi = 0; mi < M; ++mi) {
    const double* src = cur0 + mi * R * n;
    const uint32_t* trow = &k.trans[mi * C];
    for (uint64_t h = 0; h < R; ++h) {
      const double* p = src + k.slot_of[h] * n;
      if (!simd::AnyNonzero(p, n)) continue;
      simd::StripeWeights(s.w.data(), p, rows->Row(h), R, n);
      for (const CompiledKernel::ClassSegment& seg : k.class_segments) {
        const uint32_t* cls = &s.step_cls[static_cast<size_t>(seg.cls) * E];
        const size_t len = seg.end - seg.begin;
        for (size_t e = 0; e < E; ++e) {
          const uint32_t tr = trow[cls[e]];
          double* dst =
              nxt0 + (static_cast<size_t>(tr >> 1) * R + seg.begin) * n;
          simd::StripeAccum(dst, s.w.data() + seg.begin * n,
                            &s.ip_lanes[e * n], len, n);
        }
      }
    }
  }
  for (size_t j = 0; j < n; ++j) {
    RegularChain& c = *chains[j];
    std::swap(c.cur_, c.nxt_);
    c.t_ = next;
  }
  return true;
}

void RegularChain::DematerializeToMap() {
  states_.clear();
  for (const ChainState::Entry& e : Export().entries) {
    states_.emplace(Key{e.mask, e.hidden}, e.p);
  }
  kernel_.reset();
  flat_.clear();
  flat_.shrink_to_fit();
  cur_ = nullptr;
  nxt_ = nullptr;
  planes_ = 1;
  simd_ = false;
  lane_stride_ = 1;
  row_class_.reset();
  step_rows_.reset();
}

void RegularChain::RefreshSymbols() {
  Result<SymbolTable> grown = symbols_->WithGrownDomains(*db_);
  if (!grown.ok()) {
    // Keep serving with the old table — MaskFor bounds-checks, so unknown
    // values contribute no symbols — and surface the failure via status().
    if (status_.ok()) status_ = grown.status();
    return;
  }
  symbols_ = std::make_shared<const SymbolTable>(std::move(*grown));
}

double RegularChain::Step() {
  Timestamp next = t_ + 1;
  // Live serving interns domain values mid-stream; extend the symbol table
  // before reading it. If the grown value's mask falls outside the compiled
  // alphabet, StepKernel's structural guard dematerializes to the map path;
  // a mask already in the alphabet keeps the kernel running bit-identically.
  if (!symbols_->CoversDomains(*db_)) RefreshSymbols();
  BuildIndependentMaskDist(next);
  const bool stepped =
      kernel_ != nullptr &&
      (simd_ ? StepKernelSimd(next) : StepKernel(next));
  if (!stepped) StepMap(next);
  t_ = next;
  return AcceptProb();
}

void RegularChain::EnableAcceptTracking() {
  track_accept_ = true;
  if (kernel_ != nullptr && planes_ == 1) {
    // Grow to two planes (unaccepted, accepted). If the chain lived in an
    // engine arena it switches to owned (contiguous, de-strided) storage —
    // accept tracking is a safe-plan feature and those chains are never
    // arena-batched.
    const size_t plane = kernel_->num_flat();
    std::vector<double> grown(4 * plane, 0.0);
    if (lane_stride_ == 1) {
      std::copy(cur_, cur_ + plane, grown.data());
    } else {
      for (size_t i = 0; i < plane; ++i) grown[i] = cur_[i * lane_stride_];
    }
    flat_ = std::move(grown);
    planes_ = 2;
    lane_stride_ = 1;
    cur_ = flat_.data();
    nxt_ = flat_.data() + 2 * plane;
  }
}

double RegularChain::AcceptProb() const {
  double total = 0;
  if (kernel_ != nullptr) {
    const size_t M = kernel_->masks.size();
    const uint64_t R = kernel_->R;
    if (simd_) {
      // Slot layout: sum in canonical h order through the permutation so
      // the reduction sequence matches the scalar path bitwise.
      for (size_t a = 0; a < planes_; ++a) {
        for (size_t mi = 0; mi < M; ++mi) {
          if (!kernel_->accepts[mi]) continue;
          const double* src = cur_ + (a * M + mi) * R * lane_stride_;
          for (uint64_t h = 0; h < R; ++h) {
            total += src[kernel_->slot_of[h] * lane_stride_];
          }
        }
      }
      return total;
    }
    for (size_t a = 0; a < planes_; ++a) {
      for (size_t mi = 0; mi < M; ++mi) {
        if (!kernel_->accepts[mi]) continue;
        const double* src = cur_ + (a * M + mi) * R;
        for (uint64_t h = 0; h < R; ++h) total += src[h];
      }
    }
    return total;
  }
  std::vector<std::pair<Key, double>> sorted(states_.begin(), states_.end());
  SortCanonical(&sorted);
  for (const auto& [key, p] : sorted) {
    if (nfa_->Accepts(key.mask & ~kAcceptedFlag)) total += p;
  }
  return total;
}

double RegularChain::AcceptedProb() const {
  double total = 0;
  if (kernel_ != nullptr) {
    if (planes_ < 2) return 0.0;
    // Two-plane chains always own contiguous storage (EnableAcceptTracking
    // de-strides), and the accepted plane is a straight (mask index, h)
    // walk; in slot layout the per-mask sum reorders h, but a sum of the
    // same mask-block in canonical order is needed for bit-identity:
    const size_t M = kernel_->masks.size();
    const uint64_t R = kernel_->R;
    const double* src = cur_ + kernel_->num_flat();
    if (simd_) {
      for (size_t mi = 0; mi < M; ++mi) {
        const double* block = src + mi * R;
        for (uint64_t h = 0; h < R; ++h) {
          total += block[kernel_->slot_of[h]];
        }
      }
      return total;
    }
    for (size_t i = 0; i < kernel_->num_flat(); ++i) total += src[i];
    return total;
  }
  std::vector<std::pair<Key, double>> sorted(states_.begin(), states_.end());
  SortCanonical(&sorted);
  for (const auto& [key, p] : sorted) {
    if (key.mask & kAcceptedFlag) total += p;
  }
  return total;
}

size_t RegularChain::NumStates() const {
  if (kernel_ == nullptr) return states_.size();
  const size_t stride = planes_ * kernel_->num_flat();
  size_t live = 0;
  for (size_t i = 0; i < stride; ++i) {
    if (cur_[i * lane_stride_] != 0.0) ++live;
  }
  return live;
}

size_t RegularChain::FlatStride() const {
  return kernel_ != nullptr ? planes_ * kernel_->num_flat() : 0;
}

size_t RegularChain::StepCost() const {
  return kernel_ != nullptr ? FlatStride()
                            : std::max<size_t>(1, states_.size());
}

size_t RegularChain::OwnedBytes() const {
  size_t total = flat_.capacity() * sizeof(double);
  const Scratch& s = scratch_;
  total += s.stream_dist.capacity() * sizeof(s.stream_dist[0]);
  total += s.merged.capacity() * sizeof(s.merged[0]);
  total += s.sorted.capacity() * sizeof(s.sorted[0]);
  total += s.live.capacity();
  total += s.row_ptr.capacity() * sizeof(uint32_t);
  total += s.csr_h.capacity() * sizeof(uint32_t);
  total += s.csr_p.capacity() * sizeof(double);
  total += s.frames.capacity() * sizeof(s.frames[0]);
  total += s.frames2.capacity() * sizeof(s.frames2[0]);
  total += s.step_cls.capacity() * sizeof(uint32_t);
  total += s.indep_p.capacity() * sizeof(double);
  total += s.w.capacity() * sizeof(double);
  total += s.ip_lanes.capacity() * sizeof(double);
  // Chain-local (non-pooled) rows are this chain's own weight; pooled rows
  // belong to the shared class and are reported engine-side, deduped.
  if (step_rows_ != nullptr &&
      (row_class_ == nullptr ||
       row_class_->Find(step_rows_t_, step_rows_fp_) != step_rows_)) {
    total += step_rows_->bytes();
  }
  // Map-path states: node + bucket estimate per live entry.
  total += states_.size() * (sizeof(Key) + sizeof(double) + 2 * sizeof(void*));
  return total;
}

void RegularChain::BindArena(double* cur, double* nxt, size_t lane_stride) {
  if (kernel_ == nullptr) return;
  const size_t stride = FlatStride();
  for (size_t i = 0; i < stride; ++i) {
    cur[i * lane_stride] = cur_[i * lane_stride_];
    nxt[i * lane_stride] = 0.0;
  }
  flat_.clear();
  flat_.shrink_to_fit();
  cur_ = cur;
  nxt_ = nxt;
  lane_stride_ = lane_stride;
}

void ChainState::Encode(const EventDatabase& db, serial::Writer* w) const {
  w->U32(t);
  w->U8(track ? 1 : 0);
  // Digits are derived against the *current* domain sizes — exactly how
  // EnumerateSuccessors interprets hidden codes — and a chain rebuilt over
  // the restored database (which has these same sizes) re-encodes them
  // with its own radices.
  w->U64(markov_streams.size());
  std::vector<uint64_t> domains(markov_streams.size());
  for (size_t i = 0; i < domains.size(); ++i) {
    domains[i] = db.stream(markov_streams[i]).domain_size();
    w->U64(domains[i]);
  }
  w->U64(entries.size());
  for (const Entry& e : entries) {
    w->U64(e.mask);
    for (size_t i = 0; i < domains.size(); ++i) {
      w->U64((e.hidden / radices[i]) % domains[i]);
    }
    w->F64(e.p);
  }
}

Status ChainState::Decode(serial::Reader* r, const EventDatabase& db,
                          size_t nfa_states) {
  uint8_t track_byte;
  uint64_t num_slots;
  LAHAR_RETURN_NOT_OK(r->U32(&t));
  LAHAR_RETURN_NOT_OK(r->U8(&track_byte));
  LAHAR_RETURN_NOT_OK(r->U64(&num_slots));
  if (track_byte > 1) {
    return Status::InvalidArgument("chain snapshot track byte is not 0/1");
  }
  track = track_byte != 0;
  if (num_slots != markov_streams.size()) {
    return Status::InvalidArgument(
        "chain snapshot has " + std::to_string(num_slots) +
        " Markovian slots, this chain has " +
        std::to_string(markov_streams.size()) +
        " (different query or database?)");
  }
  std::vector<uint64_t> domains(num_slots);
  radices.assign(num_slots, 1);
  for (size_t i = 0; i < num_slots; ++i) {
    LAHAR_RETURN_NOT_OK(r->U64(&domains[i]));
    const uint64_t here = db.stream(markov_streams[i]).domain_size();
    if (domains[i] != here) {
      return Status::InvalidArgument(
          "chain snapshot slot " + std::to_string(i) + " has domain size " +
          std::to_string(domains[i]) + ", restored database has " +
          std::to_string(here) + " (snapshot/database mismatch)");
    }
    if (i > 0) radices[i] = radices[i - 1] * domains[i - 1];
  }
  uint64_t num_entries;
  LAHAR_RETURN_NOT_OK(r->U64(&num_entries));
  // Bound the untrusted count by the bytes left before reserving for it.
  if (num_entries > r->remaining() / (16 + 8 * num_slots)) {
    return Status::InvalidArgument(
        "chain snapshot claims " + std::to_string(num_entries) +
        " entries, only " + std::to_string(r->remaining()) + " bytes remain");
  }
  // Masks index the automaton's transition table: bits past its states
  // would read out of bounds on the next Step.
  const StateMask states = (StateMask{1} << nfa_states) - 1;
  entries.clear();
  entries.reserve(num_entries);
  for (uint64_t e = 0; e < num_entries; ++e) {
    Entry entry;
    LAHAR_RETURN_NOT_OK(r->U64(&entry.mask));
    if ((entry.mask & ~kAcceptedFlag & ~states) != 0) {
      return Status::InvalidArgument(
          "chain snapshot state set has bits beyond the automaton's " +
          std::to_string(nfa_states) + " states");
    }
    if ((entry.mask & kAcceptedFlag) != 0 && !track) {
      return Status::InvalidArgument(
          "chain snapshot sets the accepted flag without accept tracking");
    }
    for (size_t i = 0; i < num_slots; ++i) {
      uint64_t digit;
      LAHAR_RETURN_NOT_OK(r->U64(&digit));
      if (digit >= domains[i]) {
        return Status::InvalidArgument("chain snapshot digit out of domain");
      }
      entry.hidden += radices[i] * digit;
    }
    LAHAR_RETURN_NOT_OK(r->F64(&entry.p));
    if (!ValidProb(entry.p)) {
      return Status::InvalidArgument(
          "chain snapshot probability is not a finite value in [0, 1]");
    }
    entries.push_back(entry);
  }
  return Status::OK();
}

ChainState RegularChain::EmptyState() const {
  ChainState s;
  for (const Participant& p : markov_participants_) {
    s.markov_streams.push_back(p.id);
    s.radices.push_back(p.radix);
  }
  return s;
}

ChainState RegularChain::Export() const {
  ChainState s = EmptyState();
  s.t = t_;
  s.track = track_accept_;
  if (kernel_ != nullptr) {
    const CompiledKernel& k = *kernel_;
    const size_t M = k.masks.size();
    const uint64_t R = k.R;
    for (size_t a = 0; a < planes_; ++a) {
      for (size_t mi = 0; mi < M; ++mi) {
        const double* src = cur_ + (a * M + mi) * R * lane_stride_;
        const StateMask mask = k.masks[mi] | (a != 0 ? kAcceptedFlag : 0);
        for (uint64_t h = 0; h < R; ++h) {
          const uint64_t slot = simd_ ? k.slot_of[h] : h;
          const double p = src[slot * lane_stride_];
          if (p != 0.0) s.entries.push_back({mask, h, p});
        }
      }
    }
  } else {
    s.entries.reserve(states_.size());
    for (const auto& [key, p] : states_) {
      s.entries.push_back({key.mask, key.hidden, p});
    }
  }
  // Canonical order: the kernel flat walk and the sorted map agree.
  std::sort(s.entries.begin(), s.entries.end(),
            [](const ChainState::Entry& x, const ChainState::Entry& y) {
              return x.mask != y.mask ? x.mask < y.mask : x.hidden < y.hidden;
            });
  return s;
}

void RegularChain::Import(const ChainState& s) {
  // Re-encode each hidden code for this chain's radices through its
  // per-slot digits against the current domain sizes — the Encode/Decode
  // round trip without the bytes.
  std::vector<uint64_t> domains(markov_participants_.size());
  for (size_t i = 0; i < domains.size(); ++i) {
    domains[i] = db_->stream(markov_participants_[i].id).domain_size();
  }
  auto key_of = [&](const ChainState::Entry& e) {
    Key key{e.mask, 0};
    for (size_t i = 0; i < domains.size(); ++i) {
      key.hidden += markov_participants_[i].radix *
                    ((e.hidden / s.radices[i]) % domains[i]);
    }
    return key;
  };
  if (s.track && !track_accept_) EnableAcceptTracking();
  // Route into whichever path this chain was built with. The kernel can
  // only host the state if every mask is in its reachable set (and
  // accept-flagged mass has a second plane); otherwise fall back to the
  // map, which hosts anything.
  bool use_kernel = kernel_ != nullptr;
  for (size_t e = 0; use_kernel && e < s.entries.size(); ++e) {
    const Key key = key_of(s.entries[e]);
    use_kernel = kernel_->MaskIndexOf(key.mask & ~kAcceptedFlag) >= 0 &&
                 key.hidden < kernel_->R &&
                 ((key.mask & kAcceptedFlag) == 0 || planes_ == 2);
  }
  if (kernel_ != nullptr && !use_kernel) DematerializeToMap();
  if (use_kernel) {
    const CompiledKernel& k = *kernel_;
    const size_t M = k.masks.size();
    const size_t stride = planes_ * k.num_flat();
    for (size_t i = 0; i < stride; ++i) {
      cur_[i * lane_stride_] = 0.0;
      nxt_[i * lane_stride_] = 0.0;
    }
    for (const ChainState::Entry& e : s.entries) {
      const Key key = key_of(e);
      const size_t a = (key.mask & kAcceptedFlag) != 0 ? 1 : 0;
      const size_t mi = static_cast<size_t>(k.MaskIndexOf(key.mask &
                                                          ~kAcceptedFlag));
      const uint64_t slot = simd_ ? k.slot_of[key.hidden] : key.hidden;
      cur_[((a * M + mi) * k.R + slot) * lane_stride_] = e.p;
    }
  } else {
    states_.clear();
    for (const ChainState::Entry& e : s.entries) states_[key_of(e)] += e.p;
  }
  t_ = s.t;
  status_ = Status::OK();
}

void RegularChain::SaveState(serial::Writer* w) const {
  Export().Encode(*db_, w);
}

Status RegularChain::LoadState(serial::Reader* r) {
  ChainState s = EmptyState();
  LAHAR_RETURN_NOT_OK(s.Decode(r, *db_, nfa_->num_states()));
  Import(s);
  return Status::OK();
}

}  // namespace lahar
