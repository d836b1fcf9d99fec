#include "inference/particle_filter.h"

#include <algorithm>
#include <cassert>

namespace lahar {

ParticleFilter::ParticleFilter(const DiscreteHmm* model, size_t num_particles,
                               Rng rng)
    : model_(model), rng_(rng) {
  particles_.reserve(num_particles);
  for (size_t i = 0; i < num_particles; ++i) {
    size_t s = rng_.Categorical(model_->prior());
    particles_.push_back(
        s >= model_->num_states() ? 0 : static_cast<uint32_t>(s));
  }
  weights_.resize(num_particles);
}

std::vector<double> ParticleFilter::Step(
    const std::vector<double>& likelihood) {
  const size_t N = model_->num_states();
  const size_t P = particles_.size();
  assert(likelihood.size() == N);

  // Predict: move each particle independently through the motion model.
  // (The initial particles already represent the prior at the first step.)
  if (!first_step_) {
    for (uint32_t& p : particles_) {
      size_t next = model_->SampleSuccessor(p, &rng_);
      if (next < N) p = static_cast<uint32_t>(next);
    }
  }
  first_step_ = false;

  // Weight by the observation likelihood.
  for (size_t i = 0; i < P; ++i) weights_[i] = likelihood[particles_[i]];
  if (resampler_.Reset(weights_) <= 0) {
    // Total depletion: re-seed from the likelihood itself.
    std::vector<double> fallback = likelihood;
    if (Sum(fallback) <= 0) fallback.assign(N, 1.0);
    GuideTable reseed;
    reseed.Reset(fallback);
    for (uint32_t& p : particles_) {
      size_t s = reseed.Draw(&rng_);
      if (s < N) p = static_cast<uint32_t>(s);
    }
    std::fill(weights_.begin(), weights_.end(), 1.0);
    resampler_.Reset(weights_);
  }

  // Multinomial resampling.
  scratch_.resize(P);
  for (size_t i = 0; i < P; ++i) {
    size_t pick = resampler_.Draw(&rng_);
    scratch_[i] = particles_[pick < P ? pick : 0];
  }
  particles_.swap(scratch_);

  // Histogram of resampled particles = the filtered marginal estimate.
  std::vector<double> hist(N, 0.0);
  for (uint32_t p : particles_) hist[p] += 1.0;
  for (double& h : hist) h /= static_cast<double>(P);
  return hist;
}

std::vector<std::vector<double>> RunParticleFilter(
    const DiscreteHmm& model, const Likelihoods& likelihoods,
    size_t num_particles, Rng rng) {
  ParticleFilter pf(&model, num_particles, rng);
  std::vector<std::vector<double>> out;
  out.reserve(likelihoods.size());
  for (const auto& l : likelihoods) out.push_back(pf.Step(l));
  return out;
}

}  // namespace lahar
