// Deterministic pseudo-random number generation for simulation and sampling.
// A single splittable 64-bit generator keeps every experiment reproducible.
#ifndef LAHAR_COMMON_RNG_H_
#define LAHAR_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace lahar {

/// \brief xoshiro256** generator with convenience draws.
///
/// Deterministic given its seed; used by the simulator, the particle filter,
/// and the sampling engine so that all experiments are exactly repeatable.
class Rng {
 public:
  /// Seeds the generator; the same seed yields the same stream of draws.
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit draw.
  uint64_t Next();

  /// Uniform double in [0, 1).
  double Uniform();

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t Below(uint64_t n);

  /// Samples an index from `n` unnormalized non-negative weights (read in
  /// place, e.g. a CPT row). Returns n if all weights are zero.
  size_t Categorical(const double* weights, size_t n);

  /// Categorical over a whole weight vector; the same draw.
  size_t Categorical(const std::vector<double>& weights) {
    return Categorical(weights.data(), weights.size());
  }

  /// Categorical over a dense vector of `n` weights given only its nonzero
  /// entries: `weights[k]` sits at index `cols[k]` (increasing), e.g. one
  /// row of a sparse CPT (model/cpt.h). Returns exactly what Categorical
  /// returns on the dense vector and consumes the same draw: the zeros
  /// only add +0.0 to the total and the running sum, so the first index
  /// whose sum exceeds the uniform is a stored one, and the floating-point
  /// slack still lands on the dense last index n - 1. Returns n if the
  /// weights sum to zero or less.
  size_t Categorical(const uint32_t* cols, const double* weights,
                     size_t count, size_t n);

  /// Categorical over a dense vector of `n` weights given only its nonzero
  /// entries: `cols[k]` is the k-th nonzero index (increasing) and `sums[k]`
  /// the running sum of the weights through it, added in index order.
  /// Returns exactly what Categorical returns on the dense vector and
  /// consumes the same draw: zeros add +0.0 to the running sum, so the first
  /// index whose sum exceeds the uniform is always a nonzero one. Returns n,
  /// consuming nothing, if `count` is 0 or the sum is not positive.
  size_t SparseCategorical(const uint32_t* cols, const double* sums,
                           size_t count, size_t n);

  /// Bernoulli draw with success probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  /// Derives an independent generator (for per-tag / per-worker streams).
  Rng Split();

 private:
  uint64_t s_[4];
};

/// \brief Repeated Categorical draws from one weight vector in O(1)
/// expected time each (Chen & Asau's indexed search).
///
/// `Reset` keeps the running sums of the weights, added in index order as
/// Categorical adds them, and an n-bucket guide table: guide[j] is the
/// first index whose running sum falls in bucket j or a later one. A draw
/// takes u = Uniform() * total, exactly as Categorical does, and scans from
/// the guide entry of u's bucket to the first running sum above u. Bucketing
/// is monotone and u is below the sum at its answer, so the scan never
/// starts past the answer: every draw returns Categorical's index.
class GuideTable {
 public:
  /// Indexes `weights` (non-negative, or the draws mean nothing) and returns
  /// their total.
  double Reset(const std::vector<double>& weights);

  /// The index Categorical(weights) would return, consuming the same draw.
  size_t Draw(Rng* rng) const;

 private:
  size_t Bucket(double x) const;

  std::vector<double> sums_;
  std::vector<size_t> guide_;
  double total_ = 0;
  double scale_ = 0;  // buckets per unit of weight
};

}  // namespace lahar

#endif  // LAHAR_COMMON_RNG_H_
