#include <gtest/gtest.h>

#include "analysis/bindings.h"
#include "analysis/classify.h"
#include "engine/extended_engine.h"
#include "engine/reference.h"
#include "test_util.h"

namespace lahar {
namespace {

using ::lahar::testing::AddIndependentStream;
using ::lahar::testing::AddMarkovStream;
using ::lahar::testing::AddRelation;
using ::lahar::testing::MustParse;
using ::lahar::testing::MustPrepare;

void ExpectMatchesBruteForce(EventDatabase* db, const std::string& text,
                             QueryClass expected_class, double tol = 1e-9) {
  PreparedQuery pq = MustPrepare(db, text);
  ASSERT_EQ(pq.classification.query_class, expected_class) << text;
  auto engine = ExtendedRegularEngine::Create(pq, *db);
  ASSERT_OK(engine.status());
  auto got = engine->RunToHorizon(db->horizon());
  ASSERT_OK(got.status());
  auto want = BruteForceProbabilities(*pq.ast, *db);
  ASSERT_OK(want.status());
  for (size_t t = 1; t < got->size(); ++t) {
    EXPECT_NEAR((*got)[t], (*want)[t], tol) << text << " at t=" << t;
  }
}

TEST(ExtendedEngineTest, TwoPeopleSequence) {
  EventDatabase db;
  AddIndependentStream(&db, "At", "Joe",
                       {{{"a", 0.6}, {"b", 0.3}}, {{"b", 0.7}}});
  AddIndependentStream(&db, "At", "Sue",
                       {{{"a", 0.4}}, {{"b", 0.2}, {"a", 0.5}}});
  ExpectMatchesBruteForce(&db, "At(x, l1 : l1 = 'a'); At(x, l2 : l2 = 'b')",
                          QueryClass::kExtendedRegular);
}

TEST(ExtendedEngineTest, HallwayKleeneAcrossPeople) {
  EventDatabase db;
  AddRelation(&db, "Hall", {{"h"}});
  AddRelation(&db, "Person", {{"Joe"}, {"Sue"}});
  AddIndependentStream(&db, "At", "Joe",
                       {{{"a", 0.7}}, {{"h", 0.8}}, {{"c", 0.6}}});
  AddIndependentStream(&db, "At", "Sue",
                       {{{"a", 0.3}, {"h", 0.3}}, {{"h", 0.5}}, {{"c", 0.2}}});
  ExpectMatchesBruteForce(
      &db,
      "(At(x, l1 : l1 = 'a'); At(x, l2)+{x : Hall(l2)}; At(x, l3 : l3 = 'c')) "
      "WHERE Person(x)",
      QueryClass::kExtendedRegular);
}

TEST(ExtendedEngineTest, MarkovianPeople) {
  EventDatabase db;
  AddMarkovStream(&db, "At", "Joe", {"room", "hall"}, 3, 0.8);
  AddMarkovStream(&db, "At", "Sue", {"room", "hall"}, 3, 0.3);
  ExpectMatchesBruteForce(
      &db, "At(x, l1 : l1 = 'room'); At(x, l2 : l2 = 'room')",
      QueryClass::kExtendedRegular);
}

TEST(ExtendedEngineTest, ChainCountMatchesKeys) {
  EventDatabase db;
  for (const char* who : {"A", "B", "C"}) {
    AddIndependentStream(&db, "At", who, {{{"a", 0.5}}});
  }
  PreparedQuery pq =
      MustPrepare(&db, "At(x, l1 : l1 = 'a'); At(x, l2 : l2 = 'b')");
  auto engine = ExtendedRegularEngine::Create(pq, db);
  ASSERT_OK(engine.status());
  EXPECT_EQ(engine->num_units(), 3u);
}

TEST(ExtendedEngineTest, ConstantKeyRestrictsBindings) {
  EventDatabase db;
  AddIndependentStream(&db, "At", "Joe", {{{"a", 0.5}}});
  AddIndependentStream(&db, "At", "Sue", {{{"a", 0.5}}});
  // x is bound through Person(x) only at runtime; the binding enumeration
  // offers both keys, but a selection filters Sue out.
  AddRelation(&db, "Person", {{"Joe"}});
  ExpectMatchesBruteForce(&db, "(At(x, l : l = 'a')) WHERE Person(x)",
                          QueryClass::kRegular);
}

TEST(BindingsTest, CandidateValuesIntersectAcrossSubgoals) {
  EventDatabase db;
  AddIndependentStream(&db, "R", "k1", {{{"a", 0.5}}});
  AddIndependentStream(&db, "R", "k2", {{{"a", 0.5}}});
  AddIndependentStream(&db, "S", "k2", {{{"a", 0.5}}});
  AddIndependentStream(&db, "S", "k3", {{{"a", 0.5}}});
  QueryPtr q = MustParse(&db, "R(x, u); S(x, v)");
  auto nq = Normalize(*q);
  ASSERT_OK(nq.status());
  SymbolId x = db.interner().Intern("x");
  std::set<Value> values =
      CandidateValues(*nq, db, x, Binding{}, 0, nq->subgoals.size());
  ASSERT_EQ(values.size(), 1u);  // only k2 appears in both R and S
  EXPECT_EQ(*values.begin(), db.Sym("k2"));
}

TEST(BindingsTest, MultiAttributeKeysStayConsistent) {
  EventDatabase db;
  EventSchema carries;
  carries.type = db.interner().Intern("Carries");
  carries.attr_names = {db.interner().Intern("person"),
                        db.interner().Intern("object"),
                        db.interner().Intern("loc")};
  carries.num_key_attrs = 2;
  ASSERT_OK(db.DeclareSchema(carries));
  for (auto [p, o] : std::initializer_list<std::pair<const char*, const char*>>{
           {"Joe", "laptop"}, {"Joe", "mug"}, {"Sue", "laptop"}}) {
    Stream s(carries.type, {db.Sym(p), db.Sym(o)}, 1, 1, false);
    s.InternTuple({db.Sym("office")});
    ASSERT_OK(s.SetMarginal(1, {0.5, 0.5}));
    ASSERT_TRUE(db.AddStream(std::move(s)).ok());
  }
  QueryPtr q = MustParse(&db, "Carries(x, y, l1); Carries(x, y, l2)");
  auto nq = Normalize(*q);
  ASSERT_OK(nq.status());
  std::set<SymbolId> vars = {db.interner().Intern("x"),
                             db.interner().Intern("y")};
  std::vector<Binding> bindings = EnumerateBindings(*nq, db, vars);
  // Exactly the three real key pairs, not the 2x2 cross product.
  EXPECT_EQ(bindings.size(), 3u);
}

TEST(ExtendedEngineTest, PerBindingSeriesIdentifiesTheActor) {
  EventDatabase db;
  AddIndependentStream(&db, "At", "Joe", {{{"a", 0.9}}, {{"b", 0.9}}});
  AddIndependentStream(&db, "At", "Sue", {{{"b", 0.9}}, {{"a", 0.9}}});
  PreparedQuery pq =
      MustPrepare(&db, "At(x, l1 : l1 = 'a'); At(x, l2 : l2 = 'b')");
  auto engine = ExtendedRegularEngine::Create(pq, db);
  ASSERT_OK(engine.status());
  ASSERT_OK(engine->RunToHorizon(2).status());
  ASSERT_EQ(engine->num_units(), 2u);
  SymbolId x = db.interner().Intern("x");
  for (size_t i = 0; i < engine->num_units(); ++i) {
    double p2 = engine->chain_probs()[i];
    if (engine->binding(i).at(x) == db.Sym("Joe")) {
      EXPECT_NEAR(p2, 0.81, 1e-12);  // Joe did a -> b
    } else {
      EXPECT_NEAR(p2, 0.0, 1e-12);   // Sue went the other way
    }
  }
}

TEST(ExtendedEngineTest, PerBindingSeriesCombineToRunAnswer) {
  EventDatabase db;
  AddIndependentStream(&db, "At", "Joe", {{{"a", 0.6}}, {{"b", 0.5}}});
  AddIndependentStream(&db, "At", "Sue", {{{"a", 0.4}}, {{"b", 0.7}}});
  PreparedQuery pq =
      MustPrepare(&db, "At(x, l1 : l1 = 'a'); At(x, l2 : l2 = 'b')");
  auto engine = ExtendedRegularEngine::Create(pq, db);
  ASSERT_OK(engine.status());
  for (Timestamp t = 1; t <= db.horizon(); ++t) {
    auto combined = engine->Advance();
    ASSERT_OK(combined.status());
    double none = 1.0;
    for (double p : engine->chain_probs()) none *= 1.0 - p;
    EXPECT_NEAR(*combined, 1.0 - none, 1e-12) << t;
  }
}

}  // namespace
}  // namespace lahar
