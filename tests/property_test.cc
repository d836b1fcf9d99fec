// Property-based tests: every exact engine must agree with brute-force
// possible-world enumeration on randomized small databases, across seeds,
// stream kinds, and query shapes; the sampling engine must converge to the
// same values. Parameterized gtest sweeps (TEST_P) keep each case small
// enough for exhaustive enumeration while covering the cross product of
// behaviours.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "analysis/classify.h"
#include "engine/extended_engine.h"
#include "engine/lahar.h"
#include "engine/reference.h"
#include "engine/safe_engine.h"
#include "test_util.h"

namespace lahar {
namespace {

using ::lahar::testing::AddRelation;
using ::lahar::testing::MustParse;
using ::lahar::testing::MustPrepare;

// Builds a random single-value-attribute stream over `domain` names.
void AddRandomStream(EventDatabase* db, const std::string& type,
                     const std::string& key,
                     const std::vector<std::string>& domain, Timestamp T,
                     bool markovian, Rng* rng) {
  lahar::testing::DeclareUnarySchema(db, type);
  Stream s(db->interner().Intern(type), {db->Sym(key)}, 1, T, markovian);
  for (const auto& d : domain) s.InternTuple({db->Sym(d)});
  size_t D = s.domain_size();
  auto random_dist = [&](bool allow_bottom) {
    std::vector<double> dist(D, 0.0);
    double total = 0;
    for (size_t d = allow_bottom ? 0 : 1; d < D; ++d) {
      dist[d] = rng->Uniform() + 0.05;
      total += dist[d];
    }
    for (double& p : dist) p /= total;
    return dist;
  };
  if (!markovian) {
    for (Timestamp t = 1; t <= T; ++t) {
      ASSERT_OK(s.SetMarginal(t, random_dist(true)));
    }
  } else {
    ASSERT_OK(s.SetInitial(random_dist(true)));
    for (Timestamp t = 1; t < T; ++t) {
      Matrix cpt(D, D, 0.0);
      for (size_t from = 0; from < D; ++from) {
        std::vector<double> row = random_dist(true);
        for (size_t to = 0; to < D; ++to) cpt.At(from, to) = row[to];
      }
      ASSERT_OK(s.SetCpt(t, cpt));
    }
    ASSERT_OK(s.FinalizeMarkov());
  }
  ASSERT_TRUE(db->AddStream(std::move(s)).ok());
}

// ---------------------------------------------------------------------------
// Regular / Extended Regular queries vs brute force across random databases.
// Axes: (seed, markovian, query template index).
// ---------------------------------------------------------------------------

struct RegularCase {
  uint64_t seed;
  bool markovian;
  int query;
};

class RegularPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool, int>> {};

TEST_P(RegularPropertyTest, MatchesBruteForce) {
  auto [seed, markovian, query_index] = GetParam();
  const char* kQueries[] = {
      // Single selection.
      "At(x, l : l = 'a')",
      // Two-step sequence with join on the key.
      "At(x, l1 : l1 = 'a'); At(x, l2 : l2 = 'b')",
      // Sequence with a trailing (blocking) selection.
      "(At(x, l1); At(x, l2)) WHERE l1 = 'a' AND l2 = 'b'",
      // Kleene plus through a relation.
      "At(x, l1 : l1 = 'a'); At(x, l2)+{x : Mid(l2)}; At(x, l3 : l3 = 'c')",
      // Three-step sequence.
      "At(x, l1 : l1 = 'a'); At(x, l2 : l2 = 'b'); At(x, l3 : l3 = 'c')",
  };
  EventDatabase db;
  AddRelation(&db, "Mid", {{"b"}});
  Rng rng(seed);
  const Timestamp T = 3;  // keeps exhaustive enumeration tractable
  AddRandomStream(&db, "At", "Joe", {"a", "b", "c"}, T, markovian, &rng);
  AddRandomStream(&db, "At", "Sue", {"a", "b", "c"}, T, markovian, &rng);

  PreparedQuery pq = MustPrepare(&db, kQueries[query_index]);
  ASSERT_NE(pq.classification.query_class, QueryClass::kUnsafe);

  auto engine = ExtendedRegularEngine::Create(pq, db);
  ASSERT_OK(engine.status());
  auto got = engine->RunToHorizon(db.horizon());
  ASSERT_OK(got.status());
  auto want = BruteForceProbabilities(*pq.ast, db);
  ASSERT_OK(want.status());
  for (Timestamp t = 1; t < got->size(); ++t) {
    ASSERT_NEAR((*got)[t], (*want)[t], 1e-9)
        << kQueries[query_index] << " seed=" << seed
        << " markov=" << markovian << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RegularPropertyTest,
    ::testing::Combine(::testing::Values(1, 2, 3, 4, 5, 6, 7, 8),
                       ::testing::Bool(), ::testing::Range(0, 5)));

// ---------------------------------------------------------------------------
// Safe queries vs brute force. Axes: (seed, query template).
// ---------------------------------------------------------------------------

class SafePropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(SafePropertyTest, MatchesBruteForce) {
  auto [seed, query_index] = GetParam();
  const char* kQueries[] = {
      "R(x, u1); S(x, u2); T('a', y)",
      "R(x, u1 : u1 = 'p'); S(x, u2); T('a', y : y = 'w')",
      "R(x, u1); S(x, u2)",  // degenerates to extended regular via the plan
  };
  EventDatabase db;
  Rng rng(seed);
  const Timestamp T = 3;  // keeps exhaustive enumeration tractable
  AddRandomStream(&db, "R", "k1", {"p"}, T, false, &rng);
  AddRandomStream(&db, "S", "k1", {"p"}, T, false, &rng);
  AddRandomStream(&db, "S", "k2", {"p"}, T, false, &rng);
  AddRandomStream(&db, "T", "a", {"w", "v"}, T, false, &rng);

  PreparedQuery pq = MustPrepare(&db, kQueries[query_index]);
  auto engine = SafePlanEngine::Create(pq, db);
  ASSERT_OK(engine.status());
  auto got = engine->RunToHorizon(db.horizon());
  ASSERT_OK(got.status());
  auto want = BruteForceProbabilities(*pq.ast, db);
  ASSERT_OK(want.status());
  for (Timestamp t = 1; t < got->size(); ++t) {
    ASSERT_NEAR((*got)[t], (*want)[t], 1e-9)
        << kQueries[query_index] << " seed=" << seed << " t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SafePropertyTest,
    ::testing::Combine(::testing::Values(11, 12, 13, 14, 15, 16),
                       ::testing::Range(0, 3)));

// ---------------------------------------------------------------------------
// Probability axioms on random inputs: values in [0,1]; interval
// probabilities are monotone in the interval.
// ---------------------------------------------------------------------------

class AxiomsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AxiomsPropertyTest, ProbabilitiesAreProbabilities) {
  uint64_t seed = GetParam();
  EventDatabase db;
  Rng rng(seed);
  AddRandomStream(&db, "At", "Joe", {"a", "b", "c"}, 6, seed % 2 == 0, &rng);
  Lahar lahar(&db);
  auto answer =
      lahar.Run("At('Joe', l1 : l1 = 'a'); At('Joe', l2 : l2 = 'b')");
  ASSERT_OK(answer.status());
  for (double p : answer->probs) {
    EXPECT_GE(p, -1e-12);
    EXPECT_LE(p, 1 + 1e-12);
  }
}

TEST_P(AxiomsPropertyTest, IntervalProbabilityIsMonotone) {
  uint64_t seed = GetParam();
  EventDatabase db;
  Rng rng(seed);
  AddRandomStream(&db, "At", "Joe", {"a", "b"}, 6, seed % 2 == 0, &rng);
  QueryPtr q = MustParse(&db, "At('Joe', l : l = 'a')");
  auto nq = Normalize(*q);
  ASSERT_OK(nq.status());
  auto chain = RegularChain::Create(*nq, db);
  ASSERT_OK(chain.status());
  chain->EnableAcceptTracking();
  double prev = 0;
  for (Timestamp t = 1; t <= 6; ++t) {
    chain->Step();
    double p = chain->AcceptedProb();
    EXPECT_GE(p, prev - 1e-12) << "interval prob must be monotone, t=" << t;
    EXPECT_GE(p, chain->AcceptProb() - 1e-12)
        << "interval prob dominates point prob";
    prev = p;
  }
}

TEST_P(AxiomsPropertyTest, SamplingConvergesToExact) {
  uint64_t seed = GetParam();
  EventDatabase db;
  Rng rng(seed);
  AddRandomStream(&db, "At", "Joe", {"a", "b"}, 4, seed % 2 == 0, &rng);
  const char* kQuery = "At('Joe', l1 : l1 = 'a'); At('Joe', l2 : l2 = 'b')";
  auto prepared = PrepareQuery(kQuery, &db);
  ASSERT_OK(prepared.status());
  auto exact_engine = ExtendedRegularEngine::Create(*prepared, db);
  ASSERT_OK(exact_engine.status());
  auto exact = exact_engine->RunToHorizon(db.horizon());
  ASSERT_OK(exact.status());
  SamplingOptions options;
  options.num_samples = 30000;
  options.seed = seed * 31 + 7;
  auto sampler = SamplingEngine::Create(*prepared, db, options);
  ASSERT_OK(sampler.status());
  auto approx = sampler->RunToHorizon(db.horizon());
  ASSERT_OK(approx.status());
  for (Timestamp t = 1; t < exact->size(); ++t) {
    EXPECT_NEAR((*approx)[t], (*exact)[t], 0.02) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, AxiomsPropertyTest,
                         ::testing::Values(21, 22, 23, 24, 25, 26, 27, 28));

// ---------------------------------------------------------------------------
// The deterministic engine on a certain database agrees with the reference
// evaluator (i.e. determinization of certain data is the identity).
// ---------------------------------------------------------------------------

class CertainPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CertainPropertyTest, CertainStreamsGiveZeroOneProbabilities) {
  uint64_t seed = GetParam();
  EventDatabase db;
  Rng rng(seed);
  // Certain stream: one random location per step.
  const std::vector<std::string> domain = {"a", "b", "c"};
  std::vector<lahar::testing::StepDist> steps;
  for (int t = 0; t < 5; ++t) {
    steps.push_back({{domain[rng.Below(3)], 1.0}});
  }
  lahar::testing::AddIndependentStream(&db, "At", "Joe", steps);
  Lahar lahar(&db);
  auto answer =
      lahar.Run("At('Joe', l1 : l1 = 'a'); At('Joe', l2 : l2 = 'b')");
  ASSERT_OK(answer.status());
  for (Timestamp t = 1; t < answer->probs.size(); ++t) {
    double p = answer->probs[t];
    EXPECT_TRUE(std::abs(p) < 1e-9 || std::abs(p - 1) < 1e-9)
        << "certain data must give certain answers, got " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, CertainPropertyTest,
                         ::testing::Values(31, 32, 33, 34, 35));

}  // namespace
}  // namespace lahar
