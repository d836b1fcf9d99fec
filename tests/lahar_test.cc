#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "engine/lahar.h"
#include "engine/reference.h"
#include "engine/session.h"
#include "test_util.h"

namespace lahar {
namespace {

using ::lahar::testing::AddIndependentStream;
using ::lahar::testing::AddRelation;

TEST(LaharTest, RoutesRegularQuery) {
  EventDatabase db;
  AddIndependentStream(&db, "At", "Joe", {{{"a", 0.5}}, {{"b", 0.5}}});
  Lahar lahar(&db);
  auto answer = lahar.Run("At('Joe', l1 : l1 = 'a'); At('Joe', l2 : l2 = 'b')");
  ASSERT_OK(answer.status());
  EXPECT_EQ(answer->engine, EngineKind::kRegular);
  EXPECT_EQ(answer->query_class, QueryClass::kRegular);
  EXPECT_TRUE(answer->exact);
  EXPECT_NEAR(answer->probs[2], 0.25, 1e-12);
}

TEST(LaharTest, RoutesExtendedRegularQuery) {
  EventDatabase db;
  AddIndependentStream(&db, "At", "Joe", {{{"a", 0.5}}, {{"b", 0.5}}});
  AddIndependentStream(&db, "At", "Sue", {{{"a", 0.5}}, {{"b", 0.5}}});
  Lahar lahar(&db);
  auto answer = lahar.Run("At(x, l1 : l1 = 'a'); At(x, l2 : l2 = 'b')");
  ASSERT_OK(answer.status());
  EXPECT_EQ(answer->engine, EngineKind::kExtendedRegular);
  EXPECT_TRUE(answer->exact);
  EXPECT_NEAR(answer->probs[2], 1 - (1 - 0.25) * (1 - 0.25), 1e-12);
}

TEST(LaharTest, RoutesSafeQuery) {
  EventDatabase db;
  AddIndependentStream(&db, "R", "k1", {{{"u", 0.5}}, {}, {}});
  AddIndependentStream(&db, "S", "k1", {{}, {{"v", 0.5}}, {}});
  AddIndependentStream(&db, "T", "a", {{}, {}, {{"w", 0.5}}});
  Lahar lahar(&db);
  auto answer = lahar.Run("R(x, u1); S(x, u2); T('a', y)");
  ASSERT_OK(answer.status());
  EXPECT_EQ(answer->engine, EngineKind::kSafePlan);
  EXPECT_TRUE(answer->exact);
  EXPECT_NEAR(answer->probs[3], 0.5 * 0.5 * 0.5, 1e-12);
}

TEST(LaharTest, UnsafeQuerySamplesByDefault) {
  EventDatabase db;
  AddIndependentStream(&db, "R", "k1", {{{"a", 0.5}}});
  AddIndependentStream(&db, "S", "k2", {{{"a", 0.5}}});
  LaharOptions options;
  options.sampling.num_samples = 5000;
  Lahar lahar(&db, options);
  auto answer = lahar.Run("(R(p1, x); S(p2, y)) WHERE x = y");
  ASSERT_OK(answer.status());
  EXPECT_EQ(answer->engine, EngineKind::kSampling);
  EXPECT_FALSE(answer->exact);
}

TEST(LaharTest, UnsafeQueryErrorsWithoutFallback) {
  EventDatabase db;
  AddIndependentStream(&db, "R", "k1", {{{"a", 0.5}}});
  AddIndependentStream(&db, "S", "k2", {{{"a", 0.5}}});
  LaharOptions options;
  options.allow_sampling_fallback = false;
  Lahar lahar(&db, options);
  auto answer = lahar.Run("(R(p1, x); S(p2, y)) WHERE x = y");
  EXPECT_FALSE(answer.ok());
  EXPECT_EQ(answer.status().code(), StatusCode::kUnsafeQuery);
}

TEST(LaharTest, SafeQueryOutsideAlgebraFallsBackToSampling) {
  // Markovian witness stream: the safe-plan algebra refuses, sampling runs.
  EventDatabase db;
  AddIndependentStream(&db, "R", "k1", {{{"u", 0.5}}, {}, {}});
  AddIndependentStream(&db, "S", "k1", {{}, {{"v", 0.5}}, {}});
  lahar::testing::AddMarkovStream(&db, "T", "a", {"w"}, 3, 0.9);
  LaharOptions options;
  options.sampling.num_samples = 2000;
  Lahar lahar(&db, options);
  auto answer = lahar.Run("R(x, u1); S(x, u2); T('a', y)");
  ASSERT_OK(answer.status());
  EXPECT_EQ(answer->engine, EngineKind::kSampling);
  EXPECT_FALSE(answer->exact);
}

TEST(LaharTest, StrictRejectionsMatchOpenSession) {
  // Batch Run is the routed session run to the horizon, so with sampling
  // fallback disabled it rejects exactly as OpenSession does: same code,
  // same kQueryClassPayload — for an Unsafe query and for a Safe query
  // whose plan the algebra refuses (Markovian witness stream).
  EventDatabase db;
  AddIndependentStream(&db, "R", "k1", {{{"u", 0.5}}, {}, {}});
  AddIndependentStream(&db, "S", "k1", {{}, {{"v", 0.5}}, {}});
  lahar::testing::AddMarkovStream(&db, "T", "a", {"w"}, 3, 0.9);
  LaharOptions options;
  options.allow_sampling_fallback = false;
  Lahar lahar(&db, options);
  const std::pair<const char*, const char*> cases[] = {
      {"(R(x, u1); S(y, u2)) WHERE u1 = u2", "Unsafe"},
      {"R(x, u1); S(x, u2); T('a', y)", "Safe"},
  };
  for (const auto& [text, cls] : cases) {
    auto answer = lahar.Run(text);
    auto session = lahar.OpenSession(text);
    ASSERT_FALSE(answer.ok()) << text;
    ASSERT_FALSE(session.ok()) << text;
    EXPECT_EQ(answer.status().code(), session.status().code()) << text;
    const std::string* run_cls =
        answer.status().GetPayload(kQueryClassPayload);
    const std::string* session_cls =
        session.status().GetPayload(kQueryClassPayload);
    ASSERT_NE(run_cls, nullptr) << text;
    ASSERT_NE(session_cls, nullptr) << text;
    EXPECT_EQ(*run_cls, cls);
    EXPECT_EQ(*session_cls, cls);
  }
}

TEST(LaharTest, ParseAndValidationErrorsSurface) {
  EventDatabase db;
  AddIndependentStream(&db, "At", "Joe", {{{"a", 0.5}}});
  Lahar lahar(&db);
  EXPECT_EQ(lahar.Run("At('Joe'").status().code(), StatusCode::kParseError);
  EXPECT_EQ(lahar.Run("Nope(x, y)").status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(lahar.Run("At(x)").ok());  // arity mismatch
}

TEST(LaharTest, PrepareExposesClassification) {
  EventDatabase db;
  AddIndependentStream(&db, "At", "Joe", {{{"a", 0.5}}});
  Lahar lahar(&db);
  auto prepared = lahar.Prepare("At(x, l)");
  ASSERT_OK(prepared.status());
  EXPECT_EQ(prepared->classification.query_class, QueryClass::kRegular);
  auto answer = lahar.Run(*prepared);
  ASSERT_OK(answer.status());
  EXPECT_NEAR(answer->probs[1], 0.5, 1e-12);
}

TEST(LaharTest, AgreesWithBruteForceAcrossClasses) {
  EventDatabase db;
  AddRelation(&db, "Hall", {{"h"}});
  AddIndependentStream(&db, "At", "Joe",
                       {{{"a", 0.5}, {"h", 0.3}}, {{"h", 0.6}}, {{"c", 0.7}}});
  AddIndependentStream(&db, "At", "Sue",
                       {{{"a", 0.2}}, {{"h", 0.4}, {"c", 0.3}}, {{"c", 0.5}}});
  Lahar lahar(&db);
  const char* queries[] = {
      "At('Joe', l : l = 'c')",
      "At('Joe', l1 : l1 = 'a'); At('Joe', l2)+{ : Hall(l2)}; "
      "At('Joe', l3 : l3 = 'c')",
      "At(x, l1 : l1 = 'a'); At(x, l2 : l2 = 'c')",
  };
  for (const char* text : queries) {
    auto answer = lahar.Run(text);
    ASSERT_OK(answer.status());
    EXPECT_TRUE(answer->exact);
    auto prepared = lahar.Prepare(text);
    ASSERT_OK(prepared.status());
    auto want = BruteForceProbabilities(*prepared->ast, db);
    ASSERT_OK(want.status());
    for (size_t t = 1; t < answer->probs.size(); ++t) {
      EXPECT_NEAR(answer->probs[t], (*want)[t], 1e-9) << text << " t=" << t;
    }
  }
}

}  // namespace
}  // namespace lahar
