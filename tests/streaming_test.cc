#include <gtest/gtest.h>

#include "engine/extended_engine.h"
#include "engine/lahar.h"
#include "test_util.h"

namespace lahar {
namespace {

using ::lahar::testing::AddIndependentStream;
using ::lahar::testing::AddMarkovStream;
using ::lahar::testing::ChainSession;

TEST(StreamAppendTest, IndependentAppendExtendsHorizon) {
  EventDatabase db;
  StreamId id = AddIndependentStream(&db, "R", "k", {{{"a", 0.5}}});
  ASSERT_OK(db.AppendMarginal(id, {0.2, 0.8}));
  EXPECT_EQ(db.stream(id).horizon(), 2u);
  EXPECT_EQ(db.horizon(), 2u);
  EXPECT_NEAR(db.stream(id).ProbAt(2, 1), 0.8, 1e-12);
  // Markov-style append on an independent stream fails.
  EXPECT_FALSE(db.AppendMarkovStep(id, Matrix(2, 2, 0.5)).ok());
  // Bad distribution fails.
  EXPECT_FALSE(db.AppendMarginal(id, {0.9, 0.9}).ok());
}

TEST(StreamAppendTest, MarkovAppendChainsMarginals) {
  EventDatabase db;
  StreamId id = AddMarkovStream(&db, "At", "Joe", {"a", "b"}, 1, 0.9);
  Matrix cpt(3, 3, 0.0);
  cpt.At(0, 0) = 1.0;
  cpt.At(1, 1) = 0.9;
  cpt.At(1, 2) = 0.1;
  cpt.At(2, 2) = 1.0;
  ASSERT_OK(db.AppendMarkovStep(id, cpt));
  const Stream& s = db.stream(id);
  EXPECT_EQ(s.horizon(), 2u);
  // init uniform over {a, b}: P[a@2] = 0.5 * 0.9.
  EXPECT_NEAR(s.ProbAt(2, 1), 0.45, 1e-12);
  EXPECT_NEAR(s.ProbAt(2, 2), 0.55, 1e-12);
  EXPECT_FALSE(db.AppendMarkovStep(id, Matrix(2, 2, 0.5)).ok());  // bad shape
  EXPECT_FALSE(db.AppendMarginal(id, {1.0, 0, 0}).ok());  // wrong kind
}

TEST(StreamingSessionTest, MatchesBatchEvaluation) {
  // Build the full data once for the batch answer...
  EventDatabase batch_db;
  AddIndependentStream(&batch_db, "At", "Joe",
                       {{{"a", 0.7}, {"b", 0.2}},
                        {{"b", 0.6}, {"a", 0.3}},
                        {{"b", 0.5}},
                        {{"a", 0.9}}});
  const std::string query =
      "At('Joe', l1 : l1 = 'a'); At('Joe', l2 : l2 = 'b')";
  Lahar lahar(&batch_db);
  auto batch = lahar.Run(query);
  ASSERT_OK(batch.status());
  // Batch Run is itself a session run to the horizon; the canonical-order
  // map path (no compiled kernel) shares no step code with it.
  LaharOptions map_path;
  map_path.chain.kernel.max_flat_states = 0;
  auto oracle = Lahar(&batch_db, map_path).Run(query);
  ASSERT_OK(oracle.status());
  ASSERT_EQ(oracle->probs.size(), batch->probs.size());
  for (size_t t = 1; t < batch->probs.size(); ++t) {
    EXPECT_EQ(batch->probs[t], oracle->probs[t]) << "t=" << t;
  }

  // ...then feed the same distributions one timestep at a time.
  EventDatabase db;
  lahar::testing::DeclareUnarySchema(&db, "At");
  Stream s(db.interner().Intern("At"), {db.Sym("Joe")}, 1, 0, false);
  DomainIndex a = s.InternTuple({db.Sym("a")});
  DomainIndex b = s.InternTuple({db.Sym("b")});
  auto id = db.AddStream(std::move(s));
  ASSERT_TRUE(id.ok());
  auto session = ChainSession(&db, query);
  ASSERT_OK(session.status());

  auto dist = [&](double pa, double pb) {
    std::vector<double> d(3, 0.0);
    d[a] = pa;
    d[b] = pb;
    d[kBottom] = 1.0 - pa - pb;
    return d;
  };
  const std::vector<std::vector<double>> steps = {
      dist(0.7, 0.2), dist(0.3, 0.6), dist(0.0, 0.5), dist(0.9, 0.0)};
  for (size_t i = 0; i < steps.size(); ++i) {
    ASSERT_OK(db.AppendMarginal(*id, steps[i]));
    auto p = session->Advance();
    ASSERT_OK(p.status());
    EXPECT_NEAR(*p, batch->probs[i + 1], 1e-12) << "t=" << i + 1;
    EXPECT_EQ(session->time(), i + 1);
  }
}

TEST(StreamingSessionTest, MarkovStreamsAdvanceIncrementally) {
  EventDatabase db;
  StreamId id = AddMarkovStream(&db, "At", "Joe", {"room", "hall"}, 1, 0.9);
  auto session = ChainSession(
      &db, "At('Joe', l1 : l1 = 'room'); At('Joe', l2 : l2 = 'room')");
  ASSERT_OK(session.status());
  auto p1 = session->Advance();
  ASSERT_OK(p1.status());
  EXPECT_NEAR(*p1, 0.0, 1e-12);  // one step: no two-step sequence yet
  Matrix cpt(3, 3, 0.0);
  cpt.At(0, 0) = 1.0;
  cpt.At(1, 1) = 0.9;
  cpt.At(1, 2) = 0.1;
  cpt.At(2, 1) = 0.1;
  cpt.At(2, 2) = 0.9;
  ASSERT_OK(db.AppendMarkovStep(id, cpt));
  auto p2 = session->Advance();
  ASSERT_OK(p2.status());
  EXPECT_NEAR(*p2, 0.5 * 0.9, 1e-12);
}

TEST(StreamingSessionTest, ExtendedQueryTracksMultipleKeys) {
  EventDatabase db;
  // Mention 'b' with zero mass so the domain is fully interned up front.
  StreamId joe =
      AddIndependentStream(&db, "At", "Joe", {{{"a", 0.5}, {"b", 0.0}}});
  StreamId sue =
      AddIndependentStream(&db, "At", "Sue", {{{"a", 0.5}, {"b", 0.0}}});
  auto session = ChainSession(&db, "At(x, l : l = 'b')");
  ASSERT_OK(session.status());
  EXPECT_OK(session->Advance().status());
  ASSERT_OK(db.AppendMarginal(joe, {0.5, 0.0, 0.5}));
  ASSERT_OK(db.AppendMarginal(sue, {0.5, 0.0, 0.5}));
  auto p = session->Advance();
  ASSERT_OK(p.status());
  EXPECT_NEAR(*p, 1 - 0.5 * 0.5, 1e-12);  // either tag at 'b'
}

TEST(StreamingSessionTest, RejectsNonStreamableQueries) {
  EventDatabase db;
  AddIndependentStream(&db, "R", "k1", {{{"u", 0.5}}});
  AddIndependentStream(&db, "S", "k1", {{{"v", 0.5}}});
  AddIndependentStream(&db, "T", "a", {{{"w", 0.5}}});
  // Safe but non-streamable: needs the archived history.
  auto safe = ChainSession(&db, "R(x, u1); S(x, u2); T('a', y)");
  EXPECT_FALSE(safe.ok());
  EXPECT_EQ(safe.status().code(), StatusCode::kUnsafeQuery);
  // The rejection carries the query class so callers can route the query
  // to an archive-backed or sampling engine instead.
  const std::string* cls = safe.status().GetPayload(kQueryClassPayload);
  ASSERT_NE(cls, nullptr);
  EXPECT_EQ(*cls, "Safe");
  // The class also shows up in the rendered message.
  EXPECT_NE(safe.status().ToString().find("query_class=Safe"),
            std::string::npos);

  auto unsafe = ChainSession(
      &db, "(R(x, u1); S(y, u2)) WHERE u1 = u2");
  EXPECT_FALSE(unsafe.ok());
  const std::string* ucls = unsafe.status().GetPayload(kQueryClassPayload);
  ASSERT_NE(ucls, nullptr);
  EXPECT_EQ(*ucls, "Unsafe");
}

TEST(PruneTest, DropsSmallEntriesAndStaysStochastic) {
  EventDatabase db;
  lahar::testing::DeclareUnarySchema(&db, "At");
  Stream s(db.interner().Intern("At"), {db.Sym("Joe")}, 1, 3, true);
  s.InternTuple({db.Sym("a")});
  s.InternTuple({db.Sym("b")});
  ASSERT_OK(s.SetInitial({0.0, 0.5, 0.5}));
  Matrix cpt(3, 3, 0.0);
  cpt.At(0, 0) = 1.0;
  cpt.At(1, 1) = 0.98;
  cpt.At(1, 2) = 0.02;  // prunable
  cpt.At(2, 1) = 0.5;
  cpt.At(2, 2) = 0.5;
  ASSERT_OK(s.SetCpt(1, cpt));
  ASSERT_OK(s.SetCpt(2, cpt));
  ASSERT_OK(s.FinalizeMarkov());
  size_t before = 0, after = 0;
  ASSERT_OK(s.PruneCpts(0.05, &before, &after));
  EXPECT_EQ(before, 10u);  // 5 nonzero entries per CPT
  EXPECT_EQ(after, 8u);    // the two 0.02 entries dropped
  EXPECT_EQ(s.cpt_entries(), after);  // dropped entries are not stored
  EXPECT_EQ(s.CptAt(1).Row(1).size(), 1u);
  EXPECT_NEAR(s.CptAt(1).At(1, 1), 1.0, 1e-12);  // renormalized
  for (Timestamp t = 1; t <= 3; ++t) {
    EXPECT_NEAR(Sum(s.MarginalAt(t)), 1.0, 1e-9);
  }
  EXPECT_OK(s.Validate());
}

TEST(PruneTest, ZeroEpsilonIsIdentity) {
  EventDatabase db;
  AddMarkovStream(&db, "At", "Joe", {"a", "b", "c"}, 4, 0.7);
  Stream& s = db.stream(0);
  double p_before = s.CptAt(2).At(1, 2);
  size_t before = 0, after = 0;
  ASSERT_OK(s.PruneCpts(0.0, &before, &after));
  EXPECT_EQ(before, after);
  EXPECT_NEAR(s.CptAt(2).At(1, 2), p_before, 1e-12);
}

TEST(PruneTest, RequiresMarkovianStream) {
  EventDatabase db;
  AddIndependentStream(&db, "R", "k", {{{"a", 0.5}}});
  EXPECT_FALSE(db.stream(0).PruneCpts(0.1).ok());
}

}  // namespace
}  // namespace lahar
