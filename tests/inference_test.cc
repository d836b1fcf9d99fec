#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "inference/hmm.h"
#include "inference/particle_filter.h"
#include "sim/scenarios.h"

namespace lahar {
namespace {

// A two-state HMM with known posteriors for hand-checking.
DiscreteHmm TwoState(double stay) {
  Matrix t(2, 2);
  t.At(0, 0) = stay;
  t.At(0, 1) = 1 - stay;
  t.At(1, 0) = 1 - stay;
  t.At(1, 1) = stay;
  auto hmm = DiscreteHmm::Create({0.5, 0.5}, t);
  EXPECT_TRUE(hmm.ok());
  return std::move(*hmm);
}

TEST(HmmTest, CreateValidatesInputs) {
  Matrix t(2, 2, 0.5);
  EXPECT_FALSE(DiscreteHmm::Create({0.6, 0.6}, t).ok());  // bad prior
  Matrix bad(2, 2, 0.4);
  EXPECT_FALSE(DiscreteHmm::Create({0.5, 0.5}, bad).ok());  // bad rows
  EXPECT_FALSE(DiscreteHmm::Create({1.0}, t).ok());         // shape
  EXPECT_TRUE(DiscreteHmm::Create({0.5, 0.5}, t).ok());
}

TEST(HmmTest, CreateRejectsNegativeAndNonFiniteEntries) {
  // Sums to 1 but is not a distribution: running sums would not be monotone.
  Matrix negative(2, 2, 0.5);
  negative.At(1, 0) = 1.5;
  negative.At(1, 1) = -0.5;
  auto bad = DiscreteHmm::Create({0.5, 0.5}, negative);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad.status().message().find("(1, 1)"), std::string::npos)
      << bad.status().message();

  Matrix nan(2, 2, 0.5);
  nan.At(0, 1) = std::numeric_limits<double>::quiet_NaN();
  bad = DiscreteHmm::Create({0.5, 0.5}, nan);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("(0, 1)"), std::string::npos)
      << bad.status().message();

  Matrix inf(2, 2, 0.5);
  inf.At(0, 0) = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(DiscreteHmm::Create({0.5, 0.5}, inf).ok());

  Matrix ok(2, 2, 0.5);
  bad = DiscreteHmm::Create({1.5, -0.5}, ok);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("prior entry 1"), std::string::npos)
      << bad.status().message();
  EXPECT_FALSE(
      DiscreteHmm::Create({std::numeric_limits<double>::quiet_NaN(), 1.0}, ok)
          .ok());
}

TEST(HmmTest, FilterSingleStepIsBayesRule) {
  DiscreteHmm hmm = TwoState(0.8);
  // Observation 4x more likely in state 0.
  auto filtered = hmm.Filter({{0.8, 0.2}});
  ASSERT_TRUE(filtered.ok());
  EXPECT_NEAR((*filtered)[0][0], 0.8, 1e-12);
  EXPECT_NEAR((*filtered)[0][1], 0.2, 1e-12);
}

TEST(HmmTest, FilterPropagatesThroughTransition) {
  DiscreteHmm hmm = TwoState(1.0);  // frozen chain: state never changes
  auto filtered = hmm.Filter({{0.9, 0.1}, {0.9, 0.1}});
  ASSERT_TRUE(filtered.ok());
  // Two independent observations of the same hidden state compound.
  double expect = (0.9 * 0.9) / (0.9 * 0.9 + 0.1 * 0.1);
  EXPECT_NEAR((*filtered)[1][0], expect, 1e-12);
}

TEST(HmmTest, SmoothingUsesFutureEvidence) {
  DiscreteHmm hmm = TwoState(0.9);
  // Uninformative now, strong evidence for state 0 later.
  auto smoothed = hmm.Smooth({{1.0, 1.0}, {1.0, 1.0}, {0.99, 0.01}});
  ASSERT_TRUE(smoothed.ok());
  auto filtered = hmm.Filter({{1.0, 1.0}, {1.0, 1.0}, {0.99, 0.01}});
  ASSERT_TRUE(filtered.ok());
  // At t=0 the filter knows nothing; the smoother leans toward state 0.
  EXPECT_NEAR((*filtered)[0][0], 0.5, 1e-12);
  EXPECT_GT(smoothed->marginals[0][0], 0.7);
}

TEST(HmmTest, SmoothedMarginalsMatchFilterAtLastStep) {
  DiscreteHmm hmm = TwoState(0.7);
  Likelihoods obs = {{0.2, 0.8}, {0.6, 0.4}, {0.5, 0.5}};
  auto smoothed = hmm.Smooth(obs);
  auto filtered = hmm.Filter(obs);
  ASSERT_TRUE(smoothed.ok());
  ASSERT_TRUE(filtered.ok());
  EXPECT_NEAR(smoothed->marginals[2][0], (*filtered)[2][0], 1e-9);
}

TEST(HmmTest, CptsAreStochasticAndConsistent) {
  DiscreteHmm hmm = TwoState(0.85);
  Likelihoods obs = {{0.3, 0.7}, {0.9, 0.1}, {0.5, 0.5}, {0.2, 0.8}};
  auto smoothed = hmm.Smooth(obs);
  ASSERT_TRUE(smoothed.ok());
  ASSERT_EQ(smoothed->cpts.size(), 3u);
  for (size_t t = 0; t + 1 < obs.size(); ++t) {
    const Matrix& cpt = smoothed->cpts[t];
    // Rows are distributions.
    for (size_t i = 0; i < 2; ++i) {
      EXPECT_NEAR(cpt.At(i, 0) + cpt.At(i, 1), 1.0, 1e-9);
    }
    // Chaining the smoothed marginal through the CPT reproduces the next
    // smoothed marginal: gamma_{t+1} = gamma_t * CPT_t.
    std::vector<double> chained = cpt.LeftMultiply(smoothed->marginals[t]);
    EXPECT_NEAR(chained[0], smoothed->marginals[t + 1][0], 1e-9);
    EXPECT_NEAR(chained[1], smoothed->marginals[t + 1][1], 1e-9);
  }
}

TEST(HmmTest, MapPathPicksConsistentExplanation) {
  DiscreteHmm hmm = TwoState(0.95);
  // Noisy flip in the middle of a run of state-0 evidence.
  Likelihoods obs = {{0.9, 0.1}, {0.9, 0.1}, {0.4, 0.6}, {0.9, 0.1}};
  auto path = hmm.MapPath(obs);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(*path, (std::vector<size_t>{0, 0, 0, 0}));
}

TEST(HmmTest, ZeroLikelihoodObservationIsAnError) {
  DiscreteHmm hmm = TwoState(0.9);
  EXPECT_FALSE(hmm.Filter({{0.0, 0.0}}).ok());
  EXPECT_FALSE(hmm.Smooth({{0.0, 0.0}}).ok());
}

TEST(HmmTest, SampleTrajectoryFollowsTransitions) {
  DiscreteHmm hmm = TwoState(1.0);  // frozen
  Rng rng(3);
  auto path = hmm.SampleTrajectory(10, &rng);
  for (size_t t = 1; t < path.size(); ++t) EXPECT_EQ(path[t], path[0]);
}

// The sampling loop of DiscreteHmm::SampleTrajectory as it was before the
// sparse successor table: a dense transition row per draw.
std::vector<size_t> ReferenceSampleTrajectory(const DiscreteHmm& hmm,
                                              size_t T, Rng* rng) {
  std::vector<size_t> path(T, 0);
  if (T == 0) return path;
  size_t cur = rng->Categorical(hmm.prior());
  if (cur >= hmm.num_states()) cur = 0;
  path[0] = cur;
  std::vector<double> row(hmm.num_states());
  for (size_t t = 1; t < T; ++t) {
    const double* r = hmm.transition().Row(cur);
    row.assign(r, r + hmm.num_states());
    size_t next = rng->Categorical(row);
    cur = next >= hmm.num_states() ? cur : next;
    path[t] = cur;
  }
  return path;
}

// ParticleFilter as it was before the sparse successor table and the guide
// table: every draw is a dense Rng::Categorical. The oracle the filter must
// match bit for bit.
class ReferenceParticleFilter {
 public:
  ReferenceParticleFilter(const DiscreteHmm* model, size_t num_particles,
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

  std::vector<double> Step(const std::vector<double>& likelihood) {
    const size_t N = model_->num_states();
    const size_t P = particles_.size();

    // Predict: move each particle independently through the motion model.
    // (The initial particles already represent the prior at the first step.)
    if (!first_step_) {
      std::vector<double> row(N);
      for (uint32_t& p : particles_) {
        const double* r = model_->transition().Row(p);
        row.assign(r, r + N);
        size_t next = rng_.Categorical(row);
        if (next < N) p = static_cast<uint32_t>(next);
      }
    }
    first_step_ = false;

    // Weight by the observation likelihood.
    double total = 0;
    for (size_t i = 0; i < P; ++i) {
      weights_[i] = likelihood[particles_[i]];
      total += weights_[i];
    }
    if (total <= 0) {
      // Total depletion: re-seed from the likelihood itself.
      std::vector<double> fallback = likelihood;
      if (Sum(fallback) <= 0) fallback.assign(N, 1.0);
      for (uint32_t& p : particles_) {
        size_t s = rng_.Categorical(fallback);
        if (s < N) p = static_cast<uint32_t>(s);
      }
      std::fill(weights_.begin(), weights_.end(), 1.0);
    }

    // Multinomial resampling.
    scratch_.resize(P);
    for (size_t i = 0; i < P; ++i) {
      size_t pick = rng_.Categorical(weights_);
      scratch_[i] = particles_[pick < P ? pick : 0];
    }
    particles_.swap(scratch_);

    // Histogram of resampled particles = the filtered marginal estimate.
    std::vector<double> hist(N, 0.0);
    for (uint32_t p : particles_) hist[p] += 1.0;
    for (double& h : hist) h /= static_cast<double>(P);
    return hist;
  }

  const std::vector<uint32_t>& particles() const { return particles_; }

 private:
  const DiscreteHmm* model_;
  Rng rng_;
  std::vector<uint32_t> particles_;
  std::vector<double> weights_;
  std::vector<uint32_t> scratch_;
  bool first_step_ = true;
};

// Steps the filter and the reference side by side from the same seed;
// every histogram and particle vector must be equal bit for bit.
void ExpectMatchesReference(const DiscreteHmm& hmm, const Likelihoods& obs,
                            size_t num_particles, uint64_t seed) {
  ParticleFilter pf(&hmm, num_particles, Rng(seed));
  ReferenceParticleFilter ref(&hmm, num_particles, Rng(seed));
  ASSERT_EQ(pf.particles(), ref.particles());
  for (size_t t = 0; t < obs.size(); ++t) {
    ASSERT_EQ(pf.Step(obs[t]), ref.Step(obs[t]))
        << "P=" << num_particles << " seed=" << seed << " t=" << t;
    ASSERT_EQ(pf.particles(), ref.particles())
        << "P=" << num_particles << " seed=" << seed << " t=" << t;
  }
}

TEST(ParticleFilterOracleTest, RandomWalkScenariosMatchReferenceBitwise) {
  for (uint64_t seed : {1, 7, 101, 102, 103}) {
    auto scenario = RandomWalkScenario(3, 120, seed);
    ASSERT_TRUE(scenario.ok());
    const DiscreteHmm& hmm = scenario->pipeline->model();
    for (size_t tag = 0; tag < scenario->tags.size(); ++tag) {
      // Readings are 1-based; entry 0 is unused.
      const auto& readings = scenario->tags[tag].readings;
      Likelihoods obs = scenario->pipeline->sensor().LikelihoodTrace(
          std::vector<Reading>(readings.begin() + 1, readings.end()));
      for (size_t num_particles : {1, 7, 250}) {
        ExpectMatchesReference(hmm, obs, num_particles, seed * 31 + tag);
      }
    }
  }
}

TEST(ParticleFilterOracleTest, DepletionMatchesReferenceBitwise) {
  DiscreteHmm frozen = TwoState(1.0);
  // Depletion with a usable likelihood, then with an all-zero likelihood
  // (the uniform fallback), then ordinary steps again.
  Likelihoods obs = {{1.0, 0.0}, {0.0, 1.0}, {0.0, 0.0},
                     {0.3, 0.7}, {0.0, 0.0}, {1.0, 0.0}};
  for (size_t num_particles : {1, 7, 250}) {
    for (uint64_t seed : {3, 4, 5}) {
      ExpectMatchesReference(frozen, obs, num_particles, seed);
    }
  }
}

TEST(ParticleFilterOracleTest, LeadingAndTrailingZerosMatchReferenceBitwise) {
  // Five states; rows and likelihoods with zeros at both ends and inside.
  Matrix t(5, 5, 0.0);
  t.At(0, 0) = 0.5;
  t.At(0, 1) = 0.5;
  t.At(1, 2) = 0.25;
  t.At(1, 3) = 0.75;
  t.At(2, 1) = 0.1;
  t.At(2, 2) = 0.2;
  t.At(2, 3) = 0.7;
  t.At(3, 4) = 1.0;
  t.At(4, 0) = 0.6;
  t.At(4, 4) = 0.4;
  auto hmm = DiscreteHmm::Create({0.0, 0.25, 0.5, 0.25, 0.0}, t);
  ASSERT_TRUE(hmm.ok());
  Likelihoods obs = {{0.0, 0.2, 0.9, 0.0, 0.0}, {0.0, 0.0, 0.3, 0.3, 0.0},
                     {0.0, 0.0, 0.0, 0.0, 0.8}, {0.9, 0.0, 0.0, 0.0, 0.1},
                     {0.0, 0.0, 0.0, 0.0, 0.0}, {0.0, 0.1, 0.0, 0.1, 0.0},
                     {0.2, 0.2, 0.2, 0.2, 0.2}, {0.0, 0.0, 0.0, 0.0, 1.0}};
  for (size_t num_particles : {1, 7, 250}) {
    for (uint64_t seed : {11, 12, 13}) {
      ExpectMatchesReference(*hmm, obs, num_particles, seed);
    }
  }
}

TEST(ParticleFilterOracleTest, SingleStateModelMatchesReferenceBitwise) {
  Matrix t(1, 1, 1.0);
  auto hmm = DiscreteHmm::Create({1.0}, t);
  ASSERT_TRUE(hmm.ok());
  Likelihoods obs = {{0.4}, {0.0}, {1.0}, {0.0}, {0.7}};
  for (size_t num_particles : {1, 7, 250}) {
    ExpectMatchesReference(*hmm, obs, num_particles, 21);
  }
}

TEST(SampleTrajectoryOracleTest, MatchesDenseLoopBitwise) {
  auto scenario = RandomWalkScenario(1, 2, 1);
  ASSERT_TRUE(scenario.ok());
  Matrix t(3, 3, 0.0);
  t.At(0, 2) = 1.0;
  t.At(1, 0) = 0.3;
  t.At(1, 1) = 0.7;
  t.At(2, 1) = 0.5;
  t.At(2, 2) = 0.5;
  auto sparse = DiscreteHmm::Create({0.0, 0.0, 1.0}, t);
  ASSERT_TRUE(sparse.ok());
  const DiscreteHmm* models[] = {&scenario->pipeline->model(), &*sparse};
  for (const DiscreteHmm* hmm : models) {
    for (uint64_t seed : {1, 7, 101, 102, 103}) {
      Rng a(seed), b(seed);
      EXPECT_EQ(hmm->SampleTrajectory(500, &a),
                ReferenceSampleTrajectory(*hmm, 500, &b));
      EXPECT_EQ(a.Next(), b.Next());
    }
  }
}

TEST(ParticleFilterTest, StepChecksLikelihoodSize) {
#ifdef NDEBUG
  GTEST_SKIP() << "the precondition is an assert";
#else
  DiscreteHmm hmm = TwoState(0.8);
  ParticleFilter pf(&hmm, 10, Rng(1));
  EXPECT_DEATH(pf.Step({1.0}), "likelihood.size");
#endif
}

TEST(ParticleFilterTest, ConvergesToExactFilterOnAverage) {
  DiscreteHmm hmm = TwoState(0.8);
  Likelihoods obs = {{0.9, 0.1}, {0.5, 0.5}, {0.2, 0.8}};
  auto exact = hmm.Filter(obs);
  ASSERT_TRUE(exact.ok());
  auto approx = RunParticleFilter(hmm, obs, 20000, Rng(7));
  for (size_t t = 0; t < obs.size(); ++t) {
    EXPECT_NEAR(approx[t][0], (*exact)[t][0], 0.03) << t;
  }
}

TEST(ParticleFilterTest, ChurnProducesSamplingNoise) {
  // With few particles the histogram differs from the exact posterior —
  // this is the "particle churn" the paper's real-time experiments show.
  DiscreteHmm hmm = TwoState(0.5);
  Likelihoods obs(20, {1.0, 1.0});  // uninformative
  auto approx = RunParticleFilter(hmm, obs, 50, Rng(5));
  double max_dev = 0;
  for (const auto& m : approx) {
    max_dev = std::max(max_dev, std::fabs(m[0] - 0.5));
  }
  EXPECT_GT(max_dev, 0.01);
  EXPECT_LT(max_dev, 0.5);
}

TEST(ParticleFilterTest, RecoversFromTotalDepletion) {
  DiscreteHmm hmm = TwoState(1.0);  // frozen in initial state
  ParticleFilter pf(&hmm, 100, Rng(9));
  // First force all particles to state 0...
  pf.Step({1.0, 0.0});
  // ...then observe something only possible in state 1. The frozen chain
  // cannot move particles there; depletion recovery reseeds.
  std::vector<double> hist = pf.Step({0.0, 1.0});
  EXPECT_NEAR(hist[1], 1.0, 1e-12);
}

}  // namespace
}  // namespace lahar
