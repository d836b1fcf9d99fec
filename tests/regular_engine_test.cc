#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/classify.h"
#include "engine/reference.h"
#include "engine/regular_engine.h"
#include "query/normalize.h"
#include "test_util.h"

namespace lahar {
namespace {

using ::lahar::testing::AddCertainStream;
using ::lahar::testing::AddIndependentStream;
using ::lahar::testing::AddMarkovStream;
using ::lahar::testing::AddRelation;
using ::lahar::testing::MustParse;
using ::lahar::testing::StepDist;

// Runs the regular engine and compares every timestep against brute-force
// possible-world enumeration.
void ExpectMatchesBruteForce(EventDatabase* db, const std::string& text,
                             double tol = 1e-9) {
  QueryPtr q = MustParse(db, text);
  ASSERT_NE(q, nullptr);
  ASSERT_OK(ValidateQuery(*q, *db));
  auto nq = Normalize(*q);
  ASSERT_OK(nq.status());
  ASSERT_EQ(Classify(*nq, *db).query_class, QueryClass::kRegular) << text;
  auto chain = RegularChain::Create(*nq, *db);
  ASSERT_OK(chain.status());
  std::vector<double> got(chain->horizon() + 1, 0.0);
  for (Timestamp t = 1; t <= chain->horizon(); ++t) got[t] = chain->Step();
  auto want = BruteForceProbabilities(*q, *db);
  ASSERT_OK(want.status());
  ASSERT_EQ(got.size(), want->size());
  for (size_t t = 1; t < got.size(); ++t) {
    EXPECT_NEAR(got[t], (*want)[t], tol) << text << " at t=" << t;
  }
}

TEST(RegularEngineTest, SingleEventSelection) {
  EventDatabase db;
  AddIndependentStream(&db, "R", "k", {{{"a", 0.4}, {"b", 0.5}}, {{"a", 0.2}}});
  ExpectMatchesBruteForce(&db, "R('k', x : x = 'a')");
}

TEST(RegularEngineTest, Example311BothQueries) {
  EventDatabase db;
  AddIndependentStream(&db, "R", "k",
                       {{{"a", 0.9}}, {{"c", 0.5}, {"b", 0.3}}, {{"b", 0.8}}});
  ExpectMatchesBruteForce(&db, "R('k', x : x = 'a'); R('k', y : y = 'b')");
  ExpectMatchesBruteForce(&db, "(R('k', x : x = 'a'); R('k', y)) WHERE y = 'b'");
}

TEST(RegularEngineTest, ThreeStepSequence) {
  EventDatabase db;
  AddIndependentStream(
      &db, "At", "Joe",
      {{{"o", 0.7}, {"h", 0.2}}, {{"c", 0.5}, {"h", 0.4}},
       {{"o", 0.6}, {"c", 0.3}}, {{"o", 0.5}, {"h", 0.5}}});
  ExpectMatchesBruteForce(&db,
                          "At('Joe', l1 : l1 = 'o'); At('Joe', l2 : l2 = 'c'); "
                          "At('Joe', l3 : l3 = 'o')");
}

TEST(RegularEngineTest, KleenePlusHallways) {
  EventDatabase db;
  AddRelation(&db, "Hall", {{"h"}});
  AddIndependentStream(
      &db, "At", "Joe",
      {{{"a", 0.8}, {"h", 0.1}}, {{"h", 0.6}, {"a", 0.2}},
       {{"h", 0.5}, {"c", 0.4}}, {{"c", 0.7}, {"h", 0.2}}});
  ExpectMatchesBruteForce(&db,
                          "At('Joe', l1 : l1 = 'a'); "
                          "At('Joe', l2)+{ : Hall(l2)}; "
                          "At('Joe', l3 : l3 = 'c')");
}

TEST(RegularEngineTest, LeadingKleene) {
  EventDatabase db;
  AddRelation(&db, "Hall", {{"h"}});
  AddIndependentStream(&db, "At", "Joe",
                       {{{"h", 0.5}, {"a", 0.3}}, {{"h", 0.7}}, {{"a", 0.9}}});
  ExpectMatchesBruteForce(&db, "At('Joe', l)+{ : Hall(l)}");
}

TEST(RegularEngineTest, TwoIndependentStreamsJoinFreeConjunction) {
  // Two different people; the regular query watches only Joe, while Sue's
  // stream exists in the database but must not disturb the result.
  EventDatabase db;
  AddIndependentStream(&db, "At", "Joe", {{{"a", 0.5}}, {{"b", 0.5}}});
  AddIndependentStream(&db, "At", "Sue", {{{"b", 0.5}}, {{"a", 0.5}}});
  ExpectMatchesBruteForce(&db,
                          "At('Joe', l1 : l1 = 'a'); At('Joe', l2 : l2 = 'b')");
}

TEST(RegularEngineTest, CrossStreamSequence) {
  // A regular query whose subgoals draw from two distinct streams.
  EventDatabase db;
  AddIndependentStream(&db, "R", "k1", {{{"a", 0.6}}, {{"a", 0.3}}});
  AddIndependentStream(&db, "S", "k2", {{{"b", 0.2}}, {{"b", 0.7}}});
  ExpectMatchesBruteForce(&db, "R('k1', x : x = 'a'); S('k2', y : y = 'b')");
}

TEST(RegularEngineTest, MarkovianStreamExact) {
  EventDatabase db;
  AddMarkovStream(&db, "At", "Joe", {"room", "hall"}, 4, 0.8);
  ExpectMatchesBruteForce(&db,
                          "At('Joe', l1 : l1 = 'room'); "
                          "At('Joe', l2 : l2 = 'room')");
}

TEST(RegularEngineTest, MarkovianKleeneOccupancy) {
  // "In the room for 3 consecutive steps" — the Fig. 11 shape.
  EventDatabase db;
  AddMarkovStream(&db, "At", "Joe", {"room", "hall", "lobby"}, 5, 0.6);
  ExpectMatchesBruteForce(
      &db,
      "At('Joe', l1 : l1 = 'room'); At('Joe', l2 : l2 = 'room'); "
      "At('Joe', l3 : l3 = 'room')");
}

TEST(RegularEngineTest, MarkovCorrelationsChangeTheAnswer) {
  // Same marginals, different correlations: the Markov chain must not agree
  // with an independence assumption. Self-transition 0.9 makes two
  // consecutive room sightings much likelier than the 0.25 independent
  // estimate.
  EventDatabase db;
  AddMarkovStream(&db, "At", "Joe", {"room", "hall"}, 2, 0.9);
  QueryPtr q = MustParse(
      &db, "At('Joe', l1 : l1 = 'room'); At('Joe', l2 : l2 = 'room')");
  auto nq = Normalize(*q);
  ASSERT_OK(nq.status());
  auto chain = RegularChain::Create(*nq, db);
  ASSERT_OK(chain.status());
  chain->Step();
  // P[room@1] * P[room@2 | room@1]
  EXPECT_NEAR(chain->Step(), 0.5 * 0.9, 1e-12);
}

TEST(RegularEngineTest, SimultaneousEventsOnOneStream) {
  // A subgoal matching two different values of the same stream at the same
  // timestep: the probabilities are disjoint, not independent.
  EventDatabase db;
  AddIndependentStream(&db, "R", "k", {{{"a", 0.3}, {"b", 0.4}}, {{"c", 0.5}}});
  AddRelation(&db, "Good", {{"a"}, {"b"}});
  ExpectMatchesBruteForce(&db, "R('k', x : Good(x)); R('k', y : y = 'c')");
}

TEST(RegularEngineTest, StepBeyondHorizonHoldsSteady) {
  EventDatabase db;
  AddCertainStream(&db, "R", "k", {"a"});
  QueryPtr q = MustParse(&db, "R('k', x : x = 'a')");
  auto nq = Normalize(*q);
  ASSERT_OK(nq.status());
  auto chain = RegularChain::Create(*nq, db);
  ASSERT_OK(chain.status());
  EXPECT_NEAR(chain->Step(), 1.0, 1e-12);  // t=1: accept
  // Past the horizon the stream is silent; the match completed at t=1, so
  // q@t for t>1 is false (no new accepting event).
  EXPECT_NEAR(chain->Step(), 0.0, 1e-12);
}

TEST(RegularEngineTest, AcceptTrackingComputesIntervalProbability) {
  EventDatabase db;
  AddIndependentStream(&db, "R", "k", {{{"a", 0.5}}, {{"a", 0.5}}});
  QueryPtr q = MustParse(&db, "R('k', x : x = 'a')");
  auto nq = Normalize(*q);
  ASSERT_OK(nq.status());
  auto chain = RegularChain::Create(*nq, db);
  ASSERT_OK(chain.status());
  chain->EnableAcceptTracking();
  chain->Step();
  EXPECT_NEAR(chain->AcceptedProb(), 0.5, 1e-12);           // q[1,1]
  chain->Step();
  EXPECT_NEAR(chain->AcceptedProb(), 1 - 0.25, 1e-12);      // q[1,2]
}


TEST(RegularEngineTest, DisjunctivePredicateMatchesBruteForce) {
  EventDatabase db;
  AddRelation(&db, "Hall", {{"h"}});
  AddRelation(&db, "Lobby", {{"lb"}});
  AddIndependentStream(&db, "At", "Joe",
                       {{{"h", 0.4}, {"lb", 0.3}, {"o", 0.2}},
                        {{"o", 0.5}, {"h", 0.4}}});
  ExpectMatchesBruteForce(
      &db, "At('Joe', l1 : Hall(l1) OR Lobby(l1)); At('Joe', l2 : l2 = 'o')");
}

}  // namespace
}  // namespace lahar
