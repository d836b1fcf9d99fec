#include <gtest/gtest.h>

#include "analysis/classify.h"
#include "analysis/plan.h"
#include "engine/reference.h"
#include "engine/safe_engine.h"
#include "query/printer.h"
#include "test_util.h"

namespace lahar {
namespace {

using ::lahar::testing::AddIndependentStream;
using ::lahar::testing::AddMarkovStream;
using ::lahar::testing::AddRelation;
using ::lahar::testing::MustParse;
using ::lahar::testing::MustPrepare;

void ExpectMatchesBruteForce(EventDatabase* db, const std::string& text,
                             double tol = 1e-9) {
  PreparedQuery pq = MustPrepare(db, text);
  auto engine = SafePlanEngine::Create(pq, *db);
  ASSERT_OK(engine.status());
  auto got = engine->RunToHorizon(db->horizon());
  ASSERT_OK(got.status());
  auto want = BruteForceProbabilities(*pq.ast, *db);
  ASSERT_OK(want.status());
  for (size_t t = 1; t < got->size(); ++t) {
    EXPECT_NEAR((*got)[t], (*want)[t], tol) << text << " at t=" << t;
  }
}

// Declares R/S/T plus a two-key Carries schema.
void AddCarriesSchema(EventDatabase* db) {
  EventSchema carries;
  carries.type = db->interner().Intern("Carries");
  carries.attr_names = {db->interner().Intern("person"),
                        db->interner().Intern("object"),
                        db->interner().Intern("loc")};
  carries.num_key_attrs = 2;
  ASSERT_OK(db->DeclareSchema(carries));
}

StreamId AddCarriesStream(EventDatabase* db, const std::string& person,
                          const std::string& object,
                          const std::vector<lahar::testing::StepDist>& steps) {
  Stream s(db->interner().Intern("Carries"), {db->Sym(person), db->Sym(object)},
           1, static_cast<Timestamp>(steps.size()), false);
  for (const auto& step : steps) {
    for (const auto& [name, p] : step) s.InternTuple({db->Sym(name)});
  }
  for (size_t i = 0; i < steps.size(); ++i) {
    std::vector<double> dist(s.domain_size(), 0.0);
    double total = 0;
    for (const auto& [name, p] : steps[i]) {
      dist[s.LookupTuple({db->Sym(name)})] += p;
      total += p;
    }
    dist[kBottom] = 1.0 - total;
    EXPECT_OK(s.SetMarginal(static_cast<Timestamp>(i + 1), dist));
  }
  auto id = db->AddStream(std::move(s));
  EXPECT_TRUE(id.ok());
  return *id;
}

TEST(SafePlanTest, Fig6PlanShape) {
  // Ex. 3.17: q = R(x); S(x); T('a', y) compiles to
  // seq(pi_-x(reg<x>(R(x); S(x))), T('a', y)).
  EventDatabase db;
  AddIndependentStream(&db, "R", "k1", {{{"u", 1.0}}});
  AddIndependentStream(&db, "S", "k1", {{{"u", 1.0}}});
  AddIndependentStream(&db, "T", "a", {{{"u", 1.0}}});
  QueryPtr q = MustParse(&db, "R(x, u1); S(x, u2); T('a', y)");
  auto nq = Normalize(*q);
  ASSERT_OK(nq.status());
  auto plan = CompileSafePlan(*nq, db);
  ASSERT_OK(plan.status());
  EXPECT_EQ(PlanToString(**plan, db.interner()),
            "seq(pi_-x(reg<x>(R(x, u1); S(x, u2))), T('a', y))");
}

TEST(SafePlanTest, UnsafeQueriesRejected) {
  EventDatabase db;
  AddIndependentStream(&db, "R", "k1", {{{"u", 1.0}}});
  AddIndependentStream(&db, "S", "k1", {{{"u", 1.0}}});
  AddIndependentStream(&db, "T", "k1", {{{"u", 1.0}}});
  for (const char* text : {
           "(R(k1, x); S(k2, y)) WHERE x = y",        // h1: non-local
           "R(z1, z2); S(x, w1); T(x, w2)",           // h3
           "R(x, w1); S(z1, z2); T(x, w2)",           // h4
       }) {
    QueryPtr q = MustParse(&db, text);
    auto nq = Normalize(*q);
    ASSERT_OK(nq.status());
    auto plan = CompileSafePlan(*nq, db);
    EXPECT_FALSE(plan.ok()) << text;
    EXPECT_EQ(plan.status().code(), StatusCode::kUnsafeQuery) << text;
  }
}

TEST(SafePlanTest, OverlappingSubgoalsNeedDistinctKeysOption) {
  EventDatabase db;
  AddIndependentStream(&db, "At", "Joe", {{{"a", 1.0}}});
  AddIndependentStream(&db, "At", "Sue", {{{"a", 1.0}}});
  QueryPtr q = MustParse(&db, "At(p, l1); At(p, l2); At(q, l3)");
  auto nq = Normalize(*q);
  ASSERT_OK(nq.status());
  EXPECT_EQ(Classify(*nq, db).query_class, QueryClass::kSafe);
  // Strict mode: At(q, l3) can unify with the At(p, .) subgoals.
  EXPECT_FALSE(CompileSafePlan(*nq, db).ok());
  PlanOptions relaxed;
  relaxed.assume_distinct_keys = true;
  auto plan = CompileSafePlan(*nq, db, relaxed);
  ASSERT_OK(plan.status());
  // The projection sits OUTSIDE the seq so each grounding of p can exclude
  // its own streams from the witness computation.
  EXPECT_EQ(PlanToString(**plan, db.interner()),
            "pi_-p(seq(reg<p>(At(p, l1); At(p, l2)), At(q, l3)))");
}

TEST(SafeEngineTest, SeqOverDisjointTypesMatchesBruteForce) {
  EventDatabase db;
  AddIndependentStream(&db, "R", "k1",
                       {{{"u", 0.6}}, {{"u", 0.3}}, {{"u", 0.5}}});
  AddIndependentStream(&db, "S", "k1",
                       {{{"v", 0.4}}, {{"v", 0.7}}, {{"v", 0.2}}});
  AddIndependentStream(&db, "T", "a",
                       {{{"w", 0.5}}, {{"w", 0.6}}, {{"w", 0.4}}});
  ExpectMatchesBruteForce(&db, "R(x, u1); S(x, u2); T('a', y)");
}

TEST(SafeEngineTest, MultipleBindingsProject) {
  EventDatabase db;
  for (const char* k : {"k1", "k2"}) {
    AddIndependentStream(&db, "R", k, {{{"u", 0.5}}, {{"u", 0.4}}});
    AddIndependentStream(&db, "S", k, {{{"v", 0.6}}, {{"v", 0.3}}});
  }
  AddIndependentStream(&db, "T", "a", {{{"w", 0.5}}, {{"w", 0.7}}});
  ExpectMatchesBruteForce(&db, "R(x, u1); S(x, u2); T('a', y)");
}

TEST(SafeEngineTest, WitnessAcrossMultipleStreams) {
  // Two T streams can provide the witness; their disjunction matters.
  EventDatabase db;
  AddIndependentStream(&db, "R", "k1", {{{"u", 0.7}}, {}, {}});
  AddIndependentStream(&db, "S", "k1", {{}, {{"v", 0.8}}, {}});
  AddIndependentStream(&db, "T", "a", {{}, {}, {{"w", 0.5}}});
  AddIndependentStream(&db, "T", "b", {{}, {}, {{"w", 0.5}}});
  ExpectMatchesBruteForce(&db, "R(x, u1); S(x, u2); T(z, y)");
}

TEST(SafeEngineTest, PrecursorConsumesTheMatch) {
  // The Fig. 7 subtlety: a T event *before* the interval can consume the
  // R;S prefix, so q is NOT simply "prefix before some witness".
  EventDatabase db;
  AddIndependentStream(&db, "R", "k1", {{{"u", 1.0}}, {}, {}, {}});
  AddIndependentStream(&db, "S", "k1", {{}, {{"v", 1.0}}, {}, {}});
  // T fires at t=3 with prob 0.5 (precursor for t=4) and t=4 surely.
  AddIndependentStream(&db, "T", "a", {{}, {}, {{"w", 0.5}}, {{"w", 1.0}}});
  PreparedQuery pq = MustPrepare(&db, "R(x, u1); S(x, u2); T('a', y)");
  auto engine = SafePlanEngine::Create(pq, db);
  ASSERT_OK(engine.status());
  auto probs = engine->RunToHorizon(db.horizon());
  ASSERT_OK(probs.status());
  // Prefix completes at t=2. q@3 iff T@3 (0.5); q@4 iff no T@3 (0.5).
  EXPECT_NEAR((*probs)[3], 0.5, 1e-12);
  EXPECT_NEAR((*probs)[4], 0.5, 1e-12);
  ExpectMatchesBruteForce(&db, "R(x, u1); S(x, u2); T('a', y)");
}

TEST(SafeEngineTest, QtalkWithKleeneInRegLeaf) {
  EventDatabase db;
  AddCarriesSchema(&db);
  AddRelation(&db, "Lecture", {{"hall"}});
  AddCarriesStream(&db, "Joe", "laptop",
                   {{{"office", 0.8}}, {{"corr", 0.6}}, {{"corr", 0.5}}});
  AddIndependentStream(&db, "At", "Joe", {{}, {}, {{"hall", 0.7}}});
  ExpectMatchesBruteForce(
      &db, "Carries(x, y, z); Carries(x, y, w)+{x, y}; At(x, u : Lecture(u))");
}

TEST(SafeEngineTest, IntervalProbIsMonotone) {
  EventDatabase db;
  AddIndependentStream(&db, "R", "k1", {{{"u", 0.5}}, {{"u", 0.5}}, {}});
  AddIndependentStream(&db, "S", "k1", {{}, {{"v", 0.5}}, {{"v", 0.5}}});
  PreparedQuery pq = MustPrepare(&db, "R(x, u1); S(x, u2)");
  auto engine = SafePlanEngine::Create(pq, db);
  ASSERT_OK(engine.status());
  double prev = 0;
  for (Timestamp tf = 1; tf <= 3; ++tf) {
    auto p = engine->IntervalProb(1, tf);
    ASSERT_OK(p.status());
    EXPECT_GE(*p, prev - 1e-12);
    prev = *p;
  }
}

TEST(SafeEngineTest, MarkovianWitnessStreamRejected) {
  EventDatabase db;
  AddIndependentStream(&db, "R", "k1", {{{"u", 0.5}}, {}, {}});
  AddIndependentStream(&db, "S", "k1", {{}, {{"v", 0.5}}, {}});
  AddMarkovStream(&db, "T", "a", {"w"}, 3, 0.9);
  PreparedQuery pq = MustPrepare(&db, "R(x, u1); S(x, u2); T('a', y)");
  auto engine = SafePlanEngine::Create(pq, db);
  EXPECT_FALSE(engine.ok());
}

TEST(SafeEngineTest, BlockingTrailingSelectionRejected) {
  // A localized trailing WHERE creates match-without-accept events, whose
  // blocking semantics the seq operator cannot decompose; the engine must
  // refuse rather than silently approximate.
  EventDatabase db;
  AddIndependentStream(&db, "R", "k1", {{{"u", 0.5}}, {}});
  AddIndependentStream(&db, "S", "k1", {{}, {{"v", 0.5}}});
  AddIndependentStream(&db, "T", "a", {{}, {{"w", 0.4}, {"x", 0.3}}});
  PreparedQuery pq =
      MustPrepare(&db, "(R(p, u1); S(p, u2); T(z, y)) WHERE y = 'w'");
  auto engine = SafePlanEngine::Create(pq, db);
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kUnimplemented);
}

TEST(SafeEngineTest, NonBlockingTrailingSelectionAccepted) {
  // If matching events always satisfy the trailing selection, the m/a
  // distinction is vacuous and evaluation proceeds exactly.
  EventDatabase db;
  AddIndependentStream(&db, "R", "k1", {{{"u", 0.5}}, {}});
  AddIndependentStream(&db, "S", "k1", {{}, {{"v", 0.5}}});
  AddIndependentStream(&db, "T", "a", {{}, {{"w", 0.4}}});
  ExpectMatchesBruteForce(&db, "(R(p, u1); S(p, u2); T(z, y)) WHERE y = 'w'");
}

TEST(SafeEngineTest, IntervalProbRejectsMalformedIntervals) {
  EventDatabase db;
  AddIndependentStream(&db, "R", "k1", {{{"u", 0.5}}, {}});
  AddIndependentStream(&db, "S", "k1", {{}, {{"v", 0.5}}});
  PreparedQuery pq = MustPrepare(&db, "R(x, u1); S(x, u2)");
  auto engine = SafePlanEngine::Create(pq, db);
  ASSERT_OK(engine.status());
  // Timesteps are 1-based: ts = 0 is out of the model, not "from the start".
  auto zero = engine->IntervalProb(0, 2);
  EXPECT_FALSE(zero.ok());
  EXPECT_EQ(zero.status().code(), StatusCode::kInvalidArgument);
  // Empty intervals (ts > tf) are a caller bug, not probability zero.
  auto empty = engine->IntervalProb(2, 1);
  EXPECT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);
  // The guard must not reject the degenerate-but-valid single-tick interval.
  EXPECT_OK(engine->IntervalProb(1, 1).status());
}

TEST(SafeEngineTest, CertainWitnessShortCircuitsExactly) {
  // Witness probability exactly 1.0: the no-witness suffix factor hits
  // bitwise 0.0, the point where the kernels' early-break conditions fire.
  // The answer must still be exact, and the sparse kernels must agree with
  // the dense reference bit for bit.
  EventDatabase db;
  AddIndependentStream(&db, "R", "k1", {{{"u", 1.0}}, {}, {}, {}});
  AddIndependentStream(&db, "S", "k1", {{}, {{"v", 1.0}}, {}, {}});
  AddIndependentStream(&db, "T", "a", {{}, {}, {{"w", 1.0}}, {{"w", 0.5}}});
  ExpectMatchesBruteForce(&db, "R(x, u1); S(x, u2); T('a', y)");

  PreparedQuery pq = MustPrepare(&db, "R(x, u1); S(x, u2); T('a', y)");
  PlanOptions reference;
  reference.safe.incremental = false;
  auto sparse = SafePlanEngine::Create(pq, db);
  auto dense = SafePlanEngine::Create(pq, db, reference);
  ASSERT_OK(sparse.status());
  ASSERT_OK(dense.status());
  auto got = sparse->RunToHorizon(db.horizon());
  auto want = dense->RunToHorizon(db.horizon());
  ASSERT_OK(got.status());
  ASSERT_OK(want.status());
  ASSERT_EQ(got->size(), want->size());
  for (size_t t = 1; t < got->size(); ++t) {
    EXPECT_EQ((*got)[t], (*want)[t]) << "t=" << t;
  }
  // The sure witness at t=3 consumes the completed prefix: q@3 is certain,
  // and q@4 is impossible (the precursor was already matched at t=3).
  EXPECT_EQ((*got)[3], 1.0);
  EXPECT_EQ((*got)[4], 0.0);
}

TEST(SafeEngineTest, AllBottomPrefixAtPrecursorBoundary) {
  // Every stream reports certain-bottom until the witness fires: the
  // precursor probability at the boundary is exactly 0.0 (not merely tiny),
  // so the kernels' zero-skip tests see real zeros on the inner edge.
  EventDatabase db;
  AddIndependentStream(&db, "R", "k1", {{}, {}, {}, {{"u", 0.9}}});
  AddIndependentStream(&db, "S", "k1", {{}, {}, {}, {}});
  AddIndependentStream(&db, "T", "a", {{}, {{"w", 0.7}}, {{"w", 0.4}}, {}});
  PreparedQuery pq = MustPrepare(&db, "R(x, u1); S(x, u2); T('a', y)");
  auto engine = SafePlanEngine::Create(pq, db);
  ASSERT_OK(engine.status());
  auto probs = engine->RunToHorizon(db.horizon());
  ASSERT_OK(probs.status());
  // The R;S prefix never completes inside the horizon, so every tick is a
  // bitwise zero even while witnesses fire.
  for (size_t t = 1; t < probs->size(); ++t) {
    EXPECT_EQ((*probs)[t], 0.0) << "t=" << t;
  }
  ExpectMatchesBruteForce(&db, "R(x, u1); S(x, u2); T('a', y)");
}

TEST(SafeEngineTest, IncrementalMatchesReferenceOnIntervalGrid) {
  // The acceptance contract for the sparse kernels: EXPECT_EQ (bitwise, not
  // EXPECT_NEAR) against the dense Eq. (3) loops on every tick and on the
  // full (ts, tf) interval grid.
  EventDatabase db;
  for (const char* k : {"k1", "k2"}) {
    AddIndependentStream(
        &db, "R", k,
        {{{"u", 0.5}}, {{"u", 0.4}}, {}, {{"u", 0.6}}, {{"u", 0.2}}});
    AddIndependentStream(
        &db, "S", k,
        {{}, {{"v", 0.6}}, {{"v", 0.3}}, {{"v", 0.5}}, {{"v", 0.1}}});
  }
  AddIndependentStream(&db, "T", "a",
                       {{}, {{"w", 0.5}}, {}, {{"w", 0.4}}, {{"w", 0.9}}});
  PreparedQuery pq = MustPrepare(&db, "R(x, u1); S(x, u2); T('a', y)");
  PlanOptions reference;
  reference.safe.incremental = false;
  auto sparse = SafePlanEngine::Create(pq, db);
  auto dense = SafePlanEngine::Create(pq, db, reference);
  ASSERT_OK(sparse.status());
  ASSERT_OK(dense.status());
  auto got = sparse->RunToHorizon(db.horizon());
  auto want = dense->RunToHorizon(db.horizon());
  ASSERT_OK(got.status());
  ASSERT_OK(want.status());
  for (size_t t = 1; t < got->size(); ++t) {
    EXPECT_EQ((*got)[t], (*want)[t]) << "t=" << t;
  }
  for (Timestamp ts = 1; ts <= 5; ++ts) {
    for (Timestamp tf = ts; tf <= 5; ++tf) {
      auto a = sparse->IntervalProb(ts, tf);
      auto b = dense->IntervalProb(ts, tf);
      ASSERT_OK(a.status());
      ASSERT_OK(b.status());
      EXPECT_EQ(*a, *b) << "[" << ts << ", " << tf << "]";
    }
  }
}

TEST(SafeEngineTest, TinyCapacitiesEvictButNeverChangeAnswers) {
  // Capacity knobs bound memory by trading recompute time; they must never
  // change a single bit of the output.
  EventDatabase db;
  std::vector<lahar::testing::StepDist> r1, r2, s1, s2, tt;
  for (size_t t = 0; t < 48; ++t) {
    double p = 0.2 + 0.01 * static_cast<double>(t % 37);
    r1.push_back({{"u", p}});
    r2.push_back({{"u", 1.0 - p}});
    s1.push_back({{"v", 0.5 * p}});
    s2.push_back({{"v", 0.9 - p}});
    tt.push_back(t % 5 == 3 ? lahar::testing::StepDist{{"w", 0.3}}
                            : lahar::testing::StepDist{});
  }
  AddIndependentStream(&db, "R", "k1", r1);
  AddIndependentStream(&db, "R", "k2", r2);
  AddIndependentStream(&db, "S", "k1", s1);
  AddIndependentStream(&db, "S", "k2", s2);
  AddIndependentStream(&db, "T", "a", tt);
  PreparedQuery pq = MustPrepare(&db, "R(x, u1); S(x, u2); T('a', y)");
  PlanOptions tiny;
  tiny.safe.seq_memo_capacity = 4;
  tiny.safe.reg_row_capacity = 2;
  tiny.safe.reg_keyframe_interval = 8;
  auto capped = SafePlanEngine::Create(pq, db, tiny);
  auto roomy = SafePlanEngine::Create(pq, db);
  ASSERT_OK(capped.status());
  ASSERT_OK(roomy.status());
  auto got = capped->RunToHorizon(db.horizon());
  auto want = roomy->RunToHorizon(db.horizon());
  ASSERT_OK(got.status());
  ASSERT_OK(want.status());
  for (size_t t = 1; t < got->size(); ++t) {
    EXPECT_EQ((*got)[t], (*want)[t]) << "t=" << t;
  }
  SessionCounters stats = capped->Counters();
  EXPECT_GT(stats.memo_evictions, 0u);  // 48 diagonal keys through 4 slots
  EXPECT_LE(stats.memo_entries, 4u);
  EXPECT_GT(stats.row_evictions, 0u);
}

TEST(SafeEngineTest, DistinctKeysSemanticsExcludesOwnStream) {
  // Under assume_distinct_keys, At(q, l3) ranges over *other* tags.
  // With exactly two tags this is computable by hand.
  EventDatabase db;
  AddIndependentStream(&db, "At", "Joe", {{{"a", 1.0}}, {{"b", 1.0}}, {}});
  AddIndependentStream(&db, "At", "Sue", {{}, {}, {{"c", 0.5}}});
  PreparedQuery pq = MustPrepare(&db, "At(p, l1); At(p, l2); At(r, l3)");
  PlanOptions options;
  options.assume_distinct_keys = true;
  auto engine = SafePlanEngine::Create(pq, db, options);
  ASSERT_OK(engine.status());
  auto probs = engine->RunToHorizon(db.horizon());
  ASSERT_OK(probs.status());
  // Joe's prefix completes at t=2; Sue provides the witness at t=3 w.p. 0.5.
  // (Sue's own prefix never completes: her stream has one event only.)
  EXPECT_NEAR((*probs)[3], 0.5, 1e-9);
  EXPECT_NEAR((*probs)[2], 0.0, 1e-9);
}

}  // namespace
}  // namespace lahar
