// Bootstrap particle filter (Section 2.4): the sample-based inference the
// paper's real-time pipeline runs on raw RFID readings.
//
// Each particle is a guess about the tag's current state; prediction moves
// it through the motion model, weighting scores it against the sensor
// likelihood, and multinomial resampling concentrates particles on likely
// states. The per-step histogram of particles is the filtered marginal fed
// to Lahar as an *independent* stream — including the "particle churn"
// sampling noise the paper discusses (particles drifting out of and back
// into a room spark spurious low-probability events), which exact
// forward filtering would not reproduce.
#ifndef LAHAR_INFERENCE_PARTICLE_FILTER_H_
#define LAHAR_INFERENCE_PARTICLE_FILTER_H_

#include <vector>

#include "inference/hmm.h"

namespace lahar {

/// \brief Bootstrap particle filter over a discrete HMM.
class ParticleFilter {
 public:
  /// Draws `num_particles` initial particles from the model prior.
  ParticleFilter(const DiscreteHmm* model, size_t num_particles, Rng rng);

  /// One predict-weight-resample step; returns the particle histogram
  /// (an estimate of the filtered marginal). If every particle receives
  /// zero weight, particles are re-seeded from the exact filtered posterior
  /// of the likelihood alone (total particle depletion recovery).
  ///
  /// Requires likelihood.size() == the model's num_states(), with every
  /// entry finite and non-negative. Prediction walks only the nonzero
  /// entries of each particle's motion row and resampling takes O(1)
  /// expected time per particle, yet every draw is exactly the one a dense
  /// Rng::Categorical call would make (docs/PERF.md, "Inference").
  std::vector<double> Step(const std::vector<double>& likelihood);

  size_t num_particles() const { return particles_.size(); }
  const std::vector<uint32_t>& particles() const { return particles_; }

 private:
  const DiscreteHmm* model_;
  Rng rng_;
  std::vector<uint32_t> particles_;  // current state per particle
  std::vector<double> weights_;
  GuideTable resampler_;
  std::vector<uint32_t> scratch_;
  bool first_step_ = true;
};

/// Runs a particle filter over a whole observation sequence; out[t][s] is
/// the particle histogram at step t (t = 0-based).
std::vector<std::vector<double>> RunParticleFilter(
    const DiscreteHmm& model, const Likelihoods& likelihoods,
    size_t num_particles, Rng rng);

}  // namespace lahar

#endif  // LAHAR_INFERENCE_PARTICLE_FILTER_H_
