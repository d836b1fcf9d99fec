#include "automaton/kernel.h"

#include <algorithm>
#include <unordered_set>

namespace lahar {
namespace {

// Fixed compilation caps beside KernelLimits::max_flat_states: distinct
// combined input-symbol profiles and reachable NFA state sets.
constexpr size_t kMaxInputClasses = 4096;
constexpr size_t kMaxMasks = 4096;

void AppendU64(std::string* s, uint64_t v) {
  s->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

}  // namespace

int CompiledKernel::MaskIndexOf(StateMask m) const {
  auto it = std::lower_bound(masks.begin(), masks.end(), m);
  if (it == masks.end() || *it != m) return -1;
  return static_cast<int>(it - masks.begin());
}

int CompiledKernel::IndepClassOf(SymbolMask m) const {
  auto it = std::lower_bound(indep_masks.begin(), indep_masks.end(), m);
  if (it == indep_masks.end() || *it != m) return -1;
  return static_cast<int>(it - indep_masks.begin());
}

std::string KernelSignature(const QueryNfa& nfa,
                            const std::vector<KernelStream>& streams,
                            const KernelLimits& limits) {
  std::string sig;
  sig.reserve(64 + streams.size() * 32);
  AppendU64(&sig, limits.max_flat_states);
  AppendU64(&sig, nfa.num_states());
  AppendU64(&sig, nfa.accept_mask());
  AppendU64(&sig, nfa.edges().size());
  for (const NfaEdge& e : nfa.edges()) {
    AppendU64(&sig, (static_cast<uint64_t>(e.from) << 32) | e.to);
    AppendU64(&sig, e.req);
    AppendU64(&sig, (e.forbid ? 2u : 0u) | (e.always ? 1u : 0u));
  }
  AppendU64(&sig, streams.size());
  for (const KernelStream& s : streams) {
    AppendU64(&sig, s.markovian ? 1 : 0);
    AppendU64(&sig, s.radix);
    AppendU64(&sig, s.domain_size);
    for (SymbolMask m : s.masks) AppendU64(&sig, m);
  }
  return sig;
}

std::shared_ptr<const CompiledKernel> CompileKernel(
    const QueryNfa& nfa, const std::vector<KernelStream>& streams,
    const KernelLimits& limits, std::string signature) {
  if (limits.max_flat_states == 0) return nullptr;
  auto kernel = std::make_shared<CompiledKernel>();
  kernel->signature = std::move(signature);

  // Joint hidden code space R = product of Markovian domains.
  uint64_t R = 1;
  for (const KernelStream& s : streams) {
    if (!s.markovian) continue;
    if (R > limits.max_flat_states / std::max<uint32_t>(1, s.domain_size)) {
      return nullptr;
    }
    R *= s.domain_size;
  }
  kernel->R = R;

  // The input-mask contribution of the Markovian successor value is a pure
  // function of the joint code h' (each stream contributes the mask of its
  // h'-digit; ended streams sit on digit 0, whose mask is 0).
  kernel->markov_class.resize(R);
  std::vector<SymbolMask> markov_list;
  {
    std::unordered_map<SymbolMask, uint32_t> interned;
    for (uint64_t h = 0; h < R; ++h) {
      SymbolMask m = 0;
      for (const KernelStream& s : streams) {
        if (!s.markovian) continue;
        m |= s.masks[(h / s.radix) % s.domain_size];
      }
      auto [it, fresh] =
          interned.emplace(m, static_cast<uint32_t>(markov_list.size()));
      if (fresh) markov_list.push_back(m);
      kernel->markov_class[h] = it->second;
    }
  }
  kernel->num_markov_classes = static_cast<uint32_t>(markov_list.size());

  // Achievable independent OR-masks: one mask class per independent stream
  // (0 included: bottom, zero-probability steps, or the stream having
  // ended), convolved across streams. This is a superset of what any
  // timestep's BuildIndependentMaskDist can produce, which is what the
  // closure below needs.
  std::vector<SymbolMask> combos{0};
  for (const KernelStream& s : streams) {
    if (s.markovian) continue;
    std::vector<SymbolMask> stream_masks{0};
    for (SymbolMask m : s.masks) {
      if (std::find(stream_masks.begin(), stream_masks.end(), m) ==
          stream_masks.end()) {
        stream_masks.push_back(m);
      }
    }
    if (stream_masks.size() == 1) continue;  // only contributes 0
    std::vector<SymbolMask> next;
    for (SymbolMask c : combos) {
      for (SymbolMask m : stream_masks) {
        SymbolMask combined = c | m;
        if (std::find(next.begin(), next.end(), combined) == next.end()) {
          next.push_back(combined);
        }
      }
    }
    if (next.size() > kMaxInputClasses) return nullptr;
    combos.swap(next);
  }
  std::sort(combos.begin(), combos.end());
  kernel->indep_masks = combos;

  // Combined input classes and the (markov class x indep class) pair table.
  std::unordered_map<SymbolMask, uint32_t> input_id;
  std::vector<SymbolMask> inputs;
  kernel->pair_class.resize(markov_list.size() * combos.size());
  for (size_t mc = 0; mc < markov_list.size(); ++mc) {
    for (size_t ic = 0; ic < combos.size(); ++ic) {
      SymbolMask combined = markov_list[mc] | combos[ic];
      auto [it, fresh] =
          input_id.emplace(combined, static_cast<uint32_t>(inputs.size()));
      if (fresh) {
        if (inputs.size() >= kMaxInputClasses) return nullptr;
        inputs.push_back(combined);
      }
      kernel->pair_class[mc * combos.size() + ic] = it->second;
    }
  }
  kernel->num_inputs = static_cast<uint32_t>(inputs.size());

  // Close the initial state set under every input class to enumerate the
  // reachable state-set space.
  std::vector<StateMask> masks{nfa.InitialStates()};
  std::unordered_set<StateMask> seen{nfa.InitialStates()};
  for (size_t i = 0; i < masks.size(); ++i) {
    for (SymbolMask input : inputs) {
      StateMask next = nfa.Transition(masks[i], input);
      if (seen.insert(next).second) {
        masks.push_back(next);
        if (masks.size() > kMaxMasks ||
            masks.size() * R > limits.max_flat_states) {
          return nullptr;
        }
      }
    }
  }
  std::sort(masks.begin(), masks.end());
  kernel->masks = masks;

  kernel->accepts.resize(masks.size());
  kernel->trans.resize(masks.size() * inputs.size());
  for (size_t mi = 0; mi < masks.size(); ++mi) {
    kernel->accepts[mi] = nfa.Accepts(masks[mi]) ? 1 : 0;
    for (size_t c = 0; c < inputs.size(); ++c) {
      StateMask next = nfa.Transition(masks[mi], inputs[c]);
      int idx = kernel->MaskIndexOf(next);
      // Unreachable by construction: the closure above visited (mask, input)
      // for every input class.
      if (idx < 0) return nullptr;
      kernel->trans[mi * inputs.size() + c] =
          (static_cast<uint32_t>(idx) << 1) | (nfa.Accepts(next) ? 1u : 0u);
    }
  }

  // Class-sorted hidden-slot permutation: assign slots by ascending
  // (markov_class[h], h) so each markov class is one contiguous slot range.
  // h order within a class stays ascending, which the vectorized step
  // relies on for bit-identical accumulation order.
  kernel->slot_of.resize(R);
  kernel->h_of.resize(R);
  {
    uint32_t slot = 0;
    for (uint32_t cls = 0; cls < kernel->num_markov_classes; ++cls) {
      CompiledKernel::ClassSegment seg;
      seg.begin = slot;
      seg.cls = cls;
      for (uint64_t h = 0; h < R; ++h) {
        if (kernel->markov_class[h] != cls) continue;
        kernel->slot_of[h] = slot;
        kernel->h_of[slot] = static_cast<uint32_t>(h);
        ++slot;
      }
      seg.end = slot;
      kernel->class_segments.push_back(seg);
    }
  }
  return kernel;
}

std::shared_ptr<const CompiledKernel> KernelCache::FindOrCompile(
    const QueryNfa& nfa, const std::vector<KernelStream>& streams,
    const KernelLimits& limits) {
  std::string sig = KernelSignature(nfa, streams, limits);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(sig);
  if (it != cache_.end()) {
    ++stats_.hits;
    return it->second;
  }
  ++stats_.misses;
  auto kernel = CompileKernel(nfa, streams, limits, sig);
  cache_.emplace(std::move(sig), kernel);
  return kernel;
}

size_t KernelCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

KernelCache::Stats KernelCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace lahar
