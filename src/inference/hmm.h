// Discrete hidden Markov model with the inference routines the paper's
// pipeline needs (Section 2.4):
//
//  * Filter      — forward algorithm; per-step posteriors given past
//                  observations only (the real-time, *independent* stream).
//  * Smooth      — forward-backward; smoothed marginals plus the pairwise
//                  conditional probability tables P[X(t+1) | X(t), o(1:T)]
//                  (the archived, *Markovian* stream of Fig. 3(d)).
//  * MapPath     — Viterbi decoding (the archived MAP baseline).
//
// Observations enter as per-timestep likelihood vectors L_t[state] =
// P[o_t | X_t = state], which keeps the model independent of the sensor
// alphabet (the RFID sensor model produces them; see sim/sensor.h).
#ifndef LAHAR_INFERENCE_HMM_H_
#define LAHAR_INFERENCE_HMM_H_

#include <vector>

#include "common/matrix.h"
#include "common/rng.h"
#include "common/status.h"

namespace lahar {

/// Per-timestep observation likelihoods: likelihoods[t][s], t = 0-based.
using Likelihoods = std::vector<std::vector<double>>;

/// \brief A discrete HMM over states 0..N-1.
class DiscreteHmm {
 public:
  /// `prior` must be a distribution of size N; `transition` an N x N
  /// row-stochastic matrix. Every entry must be finite and non-negative.
  static Result<DiscreteHmm> Create(std::vector<double> prior,
                                    Matrix transition);

  size_t num_states() const { return prior_.size(); }
  const std::vector<double>& prior() const { return prior_; }
  const Matrix& transition() const { return transition_; }

  /// Forward filtering: out[t][s] = P[X_t = s | o_0..o_t].
  Result<std::vector<std::vector<double>>> Filter(
      const Likelihoods& likelihoods) const;

  /// Output of forward-backward smoothing.
  struct Smoothed {
    /// marginals[t][s] = P[X_t = s | all observations].
    std::vector<std::vector<double>> marginals;
    /// cpts[t].At(i, j) = P[X_{t+1} = j | X_t = i, all observations],
    /// for t = 0..T-2. Rows with zero posterior mass fall back to the
    /// prior transition row (they never contribute probability).
    std::vector<Matrix> cpts;
  };

  /// Forward-backward smoothing with pairwise CPT extraction.
  Result<Smoothed> Smooth(const Likelihoods& likelihoods) const;

  /// Viterbi decoding: the most likely state sequence given observations.
  Result<std::vector<size_t>> MapPath(const Likelihoods& likelihoods) const;

  /// Samples a trajectory of length T from the generative model (no
  /// observations) — used by the simulator for ground-truth motion.
  std::vector<size_t> SampleTrajectory(size_t T, Rng* rng) const;

  /// Draws the successor of `state`: exactly what rng->Categorical returns
  /// on transition row `state`, consuming the same draw, in time linear in
  /// the row's nonzeros rather than in N.
  size_t SampleSuccessor(size_t state, Rng* rng) const {
    const size_t begin = succ_begin_[state];
    return rng->SparseCategorical(succ_cols_.data() + begin,
                                  succ_sums_.data() + begin,
                                  succ_begin_[state + 1] - begin, num_states());
  }

 private:
  Status CheckLikelihoods(const Likelihoods& likelihoods) const;

  std::vector<double> prior_;
  Matrix transition_;
  // Sparse successor table for Rng::SparseCategorical: row r's nonzero
  // columns and their running sums sit at [succ_begin_[r], succ_begin_[r+1]).
  std::vector<size_t> succ_begin_;
  std::vector<uint32_t> succ_cols_;
  std::vector<double> succ_sums_;
};

}  // namespace lahar

#endif  // LAHAR_INFERENCE_HMM_H_
