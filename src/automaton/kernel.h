// Compiled transition kernels for the Regular/Extended hot path.
//
// RegularChain::Step() conceptually advances a sparse probability vector over
// the joint space (NFA state set x joint Markovian hidden value). The dynamic
// implementation re-discovers that space every timestep through a hash map.
// This module enumerates it ONCE at chain-creation time and emits an
// immutable CompiledKernel:
//
//   * the reachable NFA state-set space, found by closing the initial state
//     set under every achievable input-symbol profile;
//   * the input-symbol profiles themselves: a step's input mask is always
//     (OR of the Markovian streams' successor-value masks) | (one entry of
//     the independent-stream OR-distribution). Both factors range over small
//     finite sets fixed at creation, so their combinations are interned into
//     dense "input classes";
//   * a CSR-style dense transition table trans[state_set][input class] ->
//     (next state set, accepts-bit), so stepping never touches the NFA (or
//     its memo hash map) again.
//
// With a kernel in hand, Step() becomes a double-buffered flat-array sparse
// mat-vec: zero per-step allocation, zero hashing. Only the per-timestep
// *probabilities* (CPT rows / marginals) are read at step time; the
// structure is static and shared — across interval snapshots of one chain
// (safe plans), across the m per-key chains of one Extended Regular query,
// and across sessions created from one PreparedQuery (see KernelCache).
//
// Compilation is budgeted: when the reachable space exceeds KernelLimits the
// compiler returns null and the caller keeps the dynamic map path, which
// stays the semantic reference (kernel probabilities are bit-identical).
#ifndef LAHAR_AUTOMATON_KERNEL_H_
#define LAHAR_AUTOMATON_KERNEL_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "automaton/nfa.h"

namespace lahar {

/// \brief Static per-stream profile the compiler consumes: how one
/// participating stream can contribute to the input symbol mask, in
/// SymbolTable::participating() order.
struct KernelStream {
  bool markovian = false;
  uint64_t radix = 1;       ///< multiplier of this stream's digit in the
                            ///< joint hidden code (1 for independent)
  uint32_t domain_size = 1; ///< includes bottom
  std::vector<SymbolMask> masks;  ///< mask per domain index
};

/// Budget bounding the compiled space; exceeding it (or the fixed caps on
/// input classes and reachable state sets in kernel.cc) makes compilation
/// fail (return null) and the chain keep the dynamic map path.
struct KernelLimits {
  /// Max flat states per chain (|reachable state sets| x |joint hidden
  /// codes|). 0 disables compilation entirely.
  size_t max_flat_states = 1 << 16;
};

/// \brief Immutable compiled evaluation structure. Shared (shared_ptr) by
/// every chain copy / grounding / session with the same structural
/// signature; all members are read-only after compilation.
struct CompiledKernel {
  /// Joint hidden code count: product of Markovian participants' domains.
  uint64_t R = 1;
  /// Reachable NFA state sets, ascending. Flat state (m, h) lives at index
  /// m * R + h of a plane; accept-tracking chains hold two planes.
  std::vector<StateMask> masks;
  /// accepts[m]: masks[m] contains the accepting NFA state.
  std::vector<uint8_t> accepts;
  /// Number of distinct combined input classes.
  uint32_t num_inputs = 0;
  /// trans[m * num_inputs + c] = (next mask index << 1) | accepts-bit.
  std::vector<uint32_t> trans;
  /// markov_class[h'] = class of the input-mask contribution that the joint
  /// Markovian successor value h' makes (a pure function of h').
  std::vector<uint32_t> markov_class;
  uint32_t num_markov_classes = 0;
  /// Distinct achievable independent-stream OR-masks, ascending.
  std::vector<SymbolMask> indep_masks;
  /// pair_class[mc * indep_masks.size() + ic] = combined input class.
  std::vector<uint32_t> pair_class;

  /// One contiguous storage-slot range of hidden codes sharing a markov
  /// class (see slot_of below). cls indexes markov_class space.
  struct ClassSegment {
    uint32_t begin = 0;  ///< first slot of the segment
    uint32_t end = 0;    ///< one past the last slot
    uint32_t cls = 0;    ///< shared markov input class of every slot
  };

  /// Class-sorted hidden-slot permutation for the vectorized step path:
  /// slot_of[h] is the storage slot of canonical hidden code h, assigned by
  /// ascending (markov_class[h], h) so every markov class occupies one
  /// contiguous slot range (class_segments). SIMD-mode chains store state
  /// vectors in slot space — each (source h, input class) then scatters into
  /// a *contiguous* destination run instead of an R-way gather. Scalar-mode
  /// chains keep natural h order and never consult these tables.
  std::vector<uint32_t> slot_of;
  /// Inverse permutation: h_of[slot] = canonical hidden code.
  std::vector<uint32_t> h_of;
  /// Segments in ascending slot order, one per markov class.
  std::vector<ClassSegment> class_segments;

  /// Structural signature this kernel was compiled from (cache key).
  std::string signature;

  size_t num_flat() const { return masks.size() * R; }

  /// Index of a state-set mask, or -1 if unreachable.
  int MaskIndexOf(StateMask m) const;
  /// Index of an independent OR-mask into indep_masks, or -1 if unknown.
  int IndepClassOf(SymbolMask m) const;
};

/// Structural fingerprint of (automaton, stream profiles, limits): equal
/// signatures compile to identical kernels, so one compilation can be
/// shared.
std::string KernelSignature(const QueryNfa& nfa,
                            const std::vector<KernelStream>& streams,
                            const KernelLimits& limits);

/// Compiles a kernel, or returns null when the reachable space exceeds
/// `limits` (the caller falls back to the dynamic map path). `signature`
/// must be KernelSignature(nfa, streams, limits).
std::shared_ptr<const CompiledKernel> CompileKernel(
    const QueryNfa& nfa, const std::vector<KernelStream>& streams,
    const KernelLimits& limits, std::string signature);

/// \brief Signature-keyed cache of compiled kernels. One cache hangs off
/// every PreparedQuery (so the runtime registry reuses kernels across
/// sessions); engines also use a local one to dedupe the per-grounding
/// chains of a single query. Thread-safe; failed compilations are cached
/// too (as null) so the budget check runs once per signature.
class KernelCache {
 public:
  /// Cumulative lookup counters (a hit returns a previously compiled —
  /// possibly null — entry; a miss compiles). Surfaced per query and
  /// registry-wide in runtime stats.
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  std::shared_ptr<const CompiledKernel> FindOrCompile(
      const QueryNfa& nfa, const std::vector<KernelStream>& streams,
      const KernelLimits& limits);

  size_t size() const;
  Stats stats() const;

 private:
  mutable std::mutex mu_;
  Stats stats_;
  std::unordered_map<std::string, std::shared_ptr<const CompiledKernel>>
      cache_;
};

}  // namespace lahar

#endif  // LAHAR_AUTOMATON_KERNEL_H_
