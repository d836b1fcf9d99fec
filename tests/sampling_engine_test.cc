#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "engine/reference.h"
#include "engine/sampling_engine.h"
#include "inference/viterbi.h"
#include "test_util.h"

namespace lahar {
namespace {

using ::lahar::testing::AddIndependentStream;
using ::lahar::testing::AddMarkovStream;
using ::lahar::testing::MustPrepare;

TEST(SamplingTest, HoeffdingSampleCounts) {
  // n = ln(2/delta) / (2 eps^2): defaults give ~150.
  EXPECT_EQ(HoeffdingSamples(0.1, 0.1), 150u);
  EXPECT_GT(HoeffdingSamples(0.01, 0.1), 10000u);
  EXPECT_GT(HoeffdingSamples(0.1, 0.01), HoeffdingSamples(0.1, 0.1));
}

TEST(SamplingTest, RegularQueryUsesIncrementalPath) {
  EventDatabase db;
  AddIndependentStream(&db, "R", "k", {{{"a", 0.5}}, {{"b", 0.5}}});
  PreparedQuery q =
      MustPrepare(&db, "R('k', x : x = 'a'); R('k', y : y = 'b')");
  SamplingOptions opt;
  opt.num_samples = 40000;
  auto engine = SamplingEngine::Create(q, db, opt);
  ASSERT_OK(engine.status());
  EXPECT_TRUE(engine->incremental());
  auto probs = engine->RunToHorizon(db.horizon());
  ASSERT_OK(probs.status());
  auto want = BruteForceProbabilities(*q.ast, db);
  ASSERT_OK(want.status());
  EXPECT_NEAR((*probs)[2], (*want)[2], 0.02);
}

TEST(SamplingTest, MarkovianSamplingMatchesExact) {
  EventDatabase db;
  AddMarkovStream(&db, "At", "Joe", {"room", "hall"}, 3, 0.85);
  PreparedQuery q = MustPrepare(
      &db, "At('Joe', l1 : l1 = 'room'); At('Joe', l2 : l2 = 'room')");
  SamplingOptions opt;
  opt.num_samples = 40000;
  auto engine = SamplingEngine::Create(q, db, opt);
  ASSERT_OK(engine.status());
  EXPECT_TRUE(engine->incremental());
  auto probs = engine->RunToHorizon(db.horizon());
  ASSERT_OK(probs.status());
  EXPECT_NEAR((*probs)[2], 0.5 * 0.85, 0.02);
}

TEST(SamplingTest, ExtendedQueryAcrossPeople) {
  EventDatabase db;
  AddIndependentStream(&db, "At", "Joe", {{{"a", 0.6}}, {{"b", 0.5}}});
  AddIndependentStream(&db, "At", "Sue", {{{"a", 0.4}}, {{"b", 0.7}}});
  PreparedQuery q =
      MustPrepare(&db, "At(x, l1 : l1 = 'a'); At(x, l2 : l2 = 'b')");
  SamplingOptions opt;
  opt.num_samples = 40000;
  auto engine = SamplingEngine::Create(q, db, opt);
  ASSERT_OK(engine.status());
  EXPECT_TRUE(engine->incremental());
  auto probs = engine->RunToHorizon(db.horizon());
  ASSERT_OK(probs.status());
  auto want = BruteForceProbabilities(*q.ast, db);
  ASSERT_OK(want.status());
  EXPECT_NEAR((*probs)[2], (*want)[2], 0.02);
}

TEST(SamplingTest, UnsafeQueryFallsBackToGeneralPath) {
  // h1 = sigma_{x=y}(R(x); S(y)) is #P-hard; only sampling evaluates it.
  EventDatabase db;
  AddIndependentStream(&db, "R", "k1", {{{"a", 0.5}, {"b", 0.3}}, {}});
  AddIndependentStream(&db, "S", "k2", {{}, {{"a", 0.6}, {"b", 0.2}}});
  PreparedQuery q = MustPrepare(&db, "(R(p1, x); S(p2, y)) WHERE x = y");
  SamplingOptions opt;
  opt.num_samples = 20000;
  auto engine = SamplingEngine::Create(q, db, opt);
  ASSERT_OK(engine.status());
  EXPECT_FALSE(engine->incremental());
  auto probs = engine->RunToHorizon(db.horizon());
  ASSERT_OK(probs.status());
  auto want = BruteForceProbabilities(*q.ast, db);
  ASSERT_OK(want.status());
  for (Timestamp t = 1; t <= 2; ++t) {
    EXPECT_NEAR((*probs)[t], (*want)[t], 0.02) << t;
  }
}

TEST(SamplingTest, DeterministicUnderSeed) {
  EventDatabase db;
  AddIndependentStream(&db, "R", "k", {{{"a", 0.5}}});
  PreparedQuery q = MustPrepare(&db, "R('k', x : x = 'a')");
  SamplingOptions opt;
  opt.num_samples = 100;
  opt.seed = 99;
  auto e1 = SamplingEngine::Create(q, db, opt);
  auto e2 = SamplingEngine::Create(q, db, opt);
  ASSERT_OK(e1.status());
  ASSERT_OK(e2.status());
  auto p1 = e1->RunToHorizon(db.horizon());
  auto p2 = e2->RunToHorizon(db.horizon());
  ASSERT_OK(p1.status());
  ASSERT_OK(p2.status());
  EXPECT_EQ((*p1)[1], (*p2)[1]);
}

TEST(SamplingTest, GeneralPathStepsIncrementally) {
  // Queries outside the NFA fragment used to be batch-only; the session
  // layer added per-sample world prefixes, so Advance() works here too.
  EventDatabase db;
  AddIndependentStream(&db, "R", "k1", {{{"a", 0.6}}, {{"a", 0.5}}});
  AddIndependentStream(&db, "S", "k2", {{{"a", 0.7}}, {{"a", 0.5}}});
  PreparedQuery q = MustPrepare(&db, "(R(p1, x); S(p2, y)) WHERE x = y");
  SamplingOptions opt;
  opt.num_samples = 20000;
  auto engine = SamplingEngine::Create(q, db, opt);
  ASSERT_OK(engine.status());
  EXPECT_FALSE(engine->incremental());  // no NFA: world-prefix path
  auto want = BruteForceProbabilities(*q.ast, db);
  ASSERT_OK(want.status());
  for (Timestamp t = 1; t <= 2; ++t) {
    auto p = engine->Advance();
    ASSERT_OK(p.status());
    EXPECT_EQ(engine->time(), t);
    EXPECT_NEAR(*p, (*want)[t], 0.02) << t;
  }
}

TEST(SamplingTest, RejectsEpsilonOutsideTheHoeffdingDomain) {
  // epsilon = 0 would make the Hoeffding count +inf, cast to size_t.
  EventDatabase db;
  AddIndependentStream(&db, "R", "k", {{{"a", 0.5}}});
  PreparedQuery q = MustPrepare(&db, "R('k', x : x = 'a')");
  for (double eps : {0.0, -0.1, std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    SamplingOptions opt;
    opt.epsilon = eps;
    auto engine = SamplingEngine::Create(q, db, opt);
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument) << eps;
  }
}

TEST(SamplingTest, RejectsDeltaOutsideTheOpenUnitInterval) {
  // delta >= 2 would give zero samples and a 0/0 estimate; delta <= 0 an
  // infinite count.
  EventDatabase db;
  AddIndependentStream(&db, "R", "k", {{{"a", 0.5}}});
  PreparedQuery q = MustPrepare(&db, "R('k', x : x = 'a')");
  for (double delta : {0.0, -0.5, 1.0, 2.0, 5.0,
                       std::numeric_limits<double>::quiet_NaN()}) {
    SamplingOptions opt;
    opt.delta = delta;
    auto engine = SamplingEngine::Create(q, db, opt);
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument) << delta;
  }
  SamplingOptions opt;
  opt.delta = 0.999;
  auto engine = SamplingEngine::Create(q, db, opt);
  ASSERT_OK(engine.status());
  EXPECT_GT(engine->num_samples(), 0u);
}

TEST(SamplingTest, RejectsEpsilonWhoseSampleCountOverflows) {
  // With delta = 0.1, epsilon = 1e-12 asks for ~1.5e24 samples (past
  // size_t: the cast used to yield 0 samples and 0/0 estimates), epsilon =
  // 1e-9 for ~1.5e18 and epsilon = 1e-6 for ~1.5e12 (both fit size_t, but
  // their per-sample state exceeds any memory). An explicit num_samples
  // gets the same check.
  EventDatabase db;
  AddIndependentStream(&db, "R", "k", {{{"a", 0.5}}});
  PreparedQuery q = MustPrepare(&db, "R('k', x : x = 'a')");
  EXPECT_EQ(HoeffdingSamples(1e-12, 0.1), 0u);
  for (double eps : {1e-12, 1e-9, 1e-6}) {
    SamplingOptions opt;
    opt.epsilon = eps;
    opt.delta = 0.1;
    auto engine = SamplingEngine::Create(q, db, opt);
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument) << eps;
  }
  SamplingOptions opt;
  opt.num_samples = std::numeric_limits<size_t>::max();
  EXPECT_EQ(SamplingEngine::Create(q, db, opt).status().code(),
            StatusCode::kInvalidArgument);
}

// --- Determinization: the Section 4 baselines as the one-world case -------

TEST(ViterbiTest, MlePicksArgmaxPerStep) {
  EventDatabase db;
  StreamId id = AddIndependentStream(
      &db, "At", "Joe", {{{"a", 0.6}, {"b", 0.3}}, {{"b", 0.8}}, {{"a", 0.2}}});
  const Stream& s = db.stream(id);
  auto path = MlePath(s);
  EXPECT_EQ(path[1], s.LookupTuple({db.Sym("a")}));
  EXPECT_EQ(path[2], s.LookupTuple({db.Sym("b")}));
  EXPECT_EQ(path[3], kBottom);  // bottom mass 0.8 dominates
}

TEST(ViterbiTest, ViterbiPrefersConsistentPath) {
  // Marginals alone favor hopping; the CPT strongly favors staying, so the
  // MAP path stays in one room (the Fig. 11(b) phenomenon).
  EventDatabase db;
  lahar::testing::DeclareUnarySchema(&db, "At");
  Stream s(db.interner().Intern("At"), {db.Sym("Joe")}, 1, 3, true);
  DomainIndex r1 = s.InternTuple({db.Sym("room1")});
  DomainIndex r2 = s.InternTuple({db.Sym("room2")});
  ASSERT_OK(s.SetInitial({0.0, 0.55, 0.45}));
  Matrix cpt(3, 3, 0.0);
  cpt.At(0, 0) = 1.0;
  cpt.At(r1, r1) = 0.9;
  cpt.At(r1, r2) = 0.1;
  cpt.At(r2, r2) = 0.9;
  cpt.At(r2, r1) = 0.1;
  ASSERT_OK(s.SetCpt(1, cpt));
  ASSERT_OK(s.SetCpt(2, cpt));
  ASSERT_OK(s.FinalizeMarkov());
  auto path = ViterbiPath(s);
  EXPECT_EQ(path[1], r1);
  EXPECT_EQ(path[2], r1);
  EXPECT_EQ(path[3], r1);
}

TEST(ViterbiTest, IndependentStreamFallsBackToMle) {
  EventDatabase db;
  StreamId id =
      AddIndependentStream(&db, "At", "Joe", {{{"a", 0.9}}, {{"b", 0.6}}});
  EXPECT_EQ(ViterbiPath(db.stream(id)), MlePath(db.stream(id)));
}

TEST(DeterministicEngineTest, MleDetectsHighConfidenceSequence) {
  EventDatabase db;
  AddIndependentStream(&db, "At", "Joe",
                       {{{"a", 0.9}}, {{"b", 0.8}}, {{"c", 0.7}}});
  PreparedQuery q = MustPrepare(
      &db, "At('Joe', l1 : l1 = 'a'); At('Joe', l2 : l2 = 'b')");
  auto engine = SamplingEngine::Determinized(q, db, Determinization::kMle);
  ASSERT_OK(engine.status());
  EXPECT_TRUE(engine->incremental());
  EXPECT_EQ(engine->num_samples(), 1u);
  auto sat = engine->RunToHorizon(db.horizon());
  ASSERT_OK(sat.status());
  EXPECT_EQ(*sat, (std::vector<double>{0, 0, 1, 0}));
}

TEST(DeterministicEngineTest, MleMissesLowConfidenceEvent) {
  // Each step the true location is 'a' with 0.45 < bottom 0.55: MLE sees
  // nothing at all — the recall failure motivating Lahar.
  EventDatabase db;
  AddIndependentStream(&db, "At", "Joe", {{{"a", 0.45}}, {{"a", 0.45}}});
  PreparedQuery q = MustPrepare(
      &db, "At('Joe', l1 : l1 = 'a'); At('Joe', l2 : l2 = 'a')");
  auto engine = SamplingEngine::Determinized(q, db, Determinization::kMle);
  ASSERT_OK(engine.status());
  auto sat = engine->RunToHorizon(db.horizon());
  ASSERT_OK(sat.status());
  EXPECT_EQ(*sat, (std::vector<double>{0, 0, 0}));
}

TEST(DeterministicEngineTest, ExtendedQueryOverPeople) {
  EventDatabase db;
  AddIndependentStream(&db, "At", "Joe", {{{"a", 0.9}}, {{"c", 0.9}}});
  AddIndependentStream(&db, "At", "Sue", {{{"a", 0.9}}, {{"b", 0.9}}});
  PreparedQuery q =
      MustPrepare(&db, "At(x, l1 : l1 = 'a'); At(x, l2 : l2 = 'b')");
  auto engine = SamplingEngine::Determinized(q, db, Determinization::kMle);
  ASSERT_OK(engine.status());
  auto sat = engine->RunToHorizon(db.horizon());
  ASSERT_OK(sat.status());
  EXPECT_EQ(*sat, (std::vector<double>{0, 0, 1}));  // Sue fires
}

TEST(DeterministicEngineTest, GeneralPathViaReference) {
  // An unsafe query has no regular groundings, so the determinized world
  // runs through the reference evaluator.
  EventDatabase db;
  AddIndependentStream(&db, "R", "k1", {{{"u", 0.9}}, {}});
  AddIndependentStream(&db, "S", "k1", {{}, {{"v", 0.9}}});
  PreparedQuery q = MustPrepare(&db, "(R(p1, x); S(p2, y)) WHERE x = y");
  auto engine = SamplingEngine::Determinized(q, db, Determinization::kMle);
  ASSERT_OK(engine.status());
  EXPECT_FALSE(engine->incremental());
  auto sat = engine->RunToHorizon(db.horizon());
  ASSERT_OK(sat.status());
  // MLE world: R=u@1, S=v@2; u != v so the join predicate fails.
  EXPECT_EQ(*sat, (std::vector<double>{0, 0, 0}));
}

}  // namespace
}  // namespace lahar
