// The compiled-kernel path's contract is *bit-identical* probabilities to
// the dynamic map path (the semantic reference): both enumerate successors
// in one canonical order with the same multiplication tree, so every
// comparison here is EXPECT_EQ on doubles, not EXPECT_NEAR.
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "automaton/simd.h"
#include "common/serial.h"
#include "engine/extended_engine.h"
#include "engine/regular_engine.h"
#include "query/normalize.h"
#include "test_util.h"

namespace lahar {
namespace {

using ::lahar::testing::AddIndependentStream;
using ::lahar::testing::AddMarkovStream;
using ::lahar::testing::AddRelation;
using ::lahar::testing::DeclareUnarySchema;
using ::lahar::testing::MustAdvance;
using ::lahar::testing::MustParse;
using ::lahar::testing::MustPrepare;
using ::lahar::testing::StepDist;

ChainOptions MapOnly() {
  ChainOptions o;
  o.kernel.max_flat_states = 0;  // force the dynamic map path
  return o;
}

// Steps a kernel-path chain and a map-path chain in lockstep over the whole
// horizon (plus a few past-horizon steps) and demands equality on every
// tick. `expect_compiled` asserts the kernel path actually engaged, so a
// silently-failed compilation can't turn this into map-vs-map.
void ExpectPathsIdentical(EventDatabase* db, const std::string& text,
                          bool expect_compiled = true) {
  QueryPtr q = MustParse(db, text);
  ASSERT_NE(q, nullptr);
  auto nq = Normalize(*q);
  ASSERT_OK(nq.status());
  auto kernel_chain = RegularChain::Create(*nq, *db);
  ASSERT_OK(kernel_chain.status());
  auto map_chain = RegularChain::Create(*nq, *db, MapOnly());
  ASSERT_OK(map_chain.status());
  EXPECT_EQ(kernel_chain->compiled(), expect_compiled) << text;
  EXPECT_FALSE(map_chain->compiled());
  for (Timestamp t = 1; t <= db->horizon() + 3; ++t) {
    double pk = kernel_chain->Step();
    double pm = map_chain->Step();
    EXPECT_EQ(pk, pm) << text << " diverges at t=" << t;
    EXPECT_EQ(kernel_chain->AcceptProb(), map_chain->AcceptProb());
    EXPECT_EQ(kernel_chain->NumStates(), map_chain->NumStates());
  }
}

TEST(KernelEquivalenceTest, IndependentSequence) {
  EventDatabase db;
  AddIndependentStream(&db, "At", "Joe",
                       {{{"a", 0.8}, {"h", 0.1}},
                        {{"h", 0.6}, {"a", 0.2}},
                        {{"h", 0.5}, {"c", 0.4}},
                        {{"c", 0.7}, {"h", 0.2}}});
  ExpectPathsIdentical(&db,
                       "At('Joe', l1 : l1 = 'a'); At('Joe', l2 : l2 = 'c')");
}

TEST(KernelEquivalenceTest, KleenePlus) {
  EventDatabase db;
  AddRelation(&db, "Hall", {{"h"}});
  AddIndependentStream(&db, "At", "Joe",
                       {{{"a", 0.8}, {"h", 0.1}},
                        {{"h", 0.6}, {"a", 0.2}},
                        {{"h", 0.5}, {"c", 0.4}},
                        {{"c", 0.7}, {"h", 0.2}}});
  ExpectPathsIdentical(&db,
                       "At('Joe', l1 : l1 = 'a'); "
                       "At('Joe', l2)+{ : Hall(l2)}; "
                       "At('Joe', l3 : l3 = 'c')");
}

TEST(KernelEquivalenceTest, MarkovianChain) {
  EventDatabase db;
  AddMarkovStream(&db, "At", "Joe", {"room", "hall", "lobby"}, 6, 0.6);
  ExpectPathsIdentical(&db,
                       "At('Joe', l1 : l1 = 'room'); "
                       "At('Joe', l2 : l2 = 'room'); "
                       "At('Joe', l3 : l3 = 'room')");
}

TEST(KernelEquivalenceTest, MixedMarkovAndIndependentStreams) {
  EventDatabase db;
  AddMarkovStream(&db, "At", "Joe", {"room", "hall"}, 5, 0.7);
  AddIndependentStream(&db, "Door", "d1",
                       {{{"open", 0.3}},
                        {{"open", 0.9}},
                        {{"shut", 0.5}, {"open", 0.4}},
                        {{"open", 0.2}},
                        {{"open", 0.6}}});
  ExpectPathsIdentical(&db,
                       "At('Joe', l : l = 'room'); Door('d1', s : s = 'open')");
}

TEST(KernelEquivalenceTest, AcceptTrackingInterval) {
  EventDatabase db;
  AddMarkovStream(&db, "At", "Joe", {"room", "hall"}, 6, 0.8);
  QueryPtr q = MustParse(
      &db, "At('Joe', l1 : l1 = 'room'); At('Joe', l2 : l2 = 'hall')");
  auto nq = Normalize(*q);
  ASSERT_OK(nq.status());
  auto kc = RegularChain::Create(*nq, db);
  auto mc = RegularChain::Create(*nq, db, MapOnly());
  ASSERT_OK(kc.status());
  ASSERT_OK(mc.status());
  ASSERT_TRUE(kc->compiled());
  // Advance to t=2, then latch: AcceptedProb at t is P[q in [3, t]].
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(kc->Step(), mc->Step());
  }
  kc->EnableAcceptTracking();
  mc->EnableAcceptTracking();
  for (Timestamp t = 3; t <= db.horizon(); ++t) {
    EXPECT_EQ(kc->Step(), mc->Step()) << "t=" << t;
    EXPECT_EQ(kc->AcceptedProb(), mc->AcceptedProb()) << "t=" << t;
  }
}

TEST(KernelEquivalenceTest, SnapshotCopiesShareKernelAndStayIdentical) {
  EventDatabase db;
  AddMarkovStream(&db, "At", "Joe", {"room", "hall"}, 6, 0.8);
  QueryPtr q = MustParse(
      &db, "At('Joe', l1 : l1 = 'room'); At('Joe', l2 : l2 = 'hall')");
  auto nq = Normalize(*q);
  ASSERT_OK(nq.status());
  auto chain = RegularChain::Create(*nq, db);
  ASSERT_OK(chain.status());
  ASSERT_TRUE(chain->compiled());
  chain->Step();
  RegularChain copy = *chain;  // the safe-plan snapshot pattern
  EXPECT_TRUE(copy.compiled());
  // Copy and original evolve identically and independently.
  for (Timestamp t = 2; t <= db.horizon(); ++t) {
    EXPECT_EQ(copy.Step(), chain->Step());
  }
}

TEST(KernelEquivalenceTest, TinyBudgetFallsBackToMapPath) {
  EventDatabase db;
  AddMarkovStream(&db, "At", "Joe", {"room", "hall", "lobby"}, 5, 0.6);
  QueryPtr q = MustParse(
      &db, "At('Joe', l1 : l1 = 'room'); At('Joe', l2 : l2 = 'room')");
  auto nq = Normalize(*q);
  ASSERT_OK(nq.status());
  ChainOptions tiny;
  tiny.kernel.max_flat_states = 2;  // too small for 4 hidden codes
  auto budget_chain = RegularChain::Create(*nq, db, tiny);
  auto map_chain = RegularChain::Create(*nq, db, MapOnly());
  ASSERT_OK(budget_chain.status());
  ASSERT_OK(map_chain.status());
  EXPECT_FALSE(budget_chain->compiled());
  for (Timestamp t = 1; t <= db.horizon(); ++t) {
    EXPECT_EQ(budget_chain->Step(), map_chain->Step());
  }
}

TEST(KernelEquivalenceTest, ExtendedEngineBatchedVsMap) {
  EventDatabase db;
  for (const char* who : {"A", "B", "C", "D"}) {
    AddMarkovStream(&db, "At", who, {"room", "hall"}, 6, 0.75);
  }
  PreparedQuery pq =
      MustPrepare(&db, "At(x, l1 : l1 = 'room'); At(x, l2 : l2 = 'hall')");
  auto batched = ExtendedRegularEngine::Create(pq, db);
  auto mapped = ExtendedRegularEngine::Create(pq, db, MapOnly());
  ASSERT_OK(batched.status());
  ASSERT_OK(mapped.status());
  ASSERT_EQ(batched->num_units(), 4u);
  EXPECT_EQ(batched->num_compiled(), 4u);
  EXPECT_EQ(mapped->num_compiled(), 0u);
  EXPECT_GT(batched->arena_size(), 0u);
  for (Timestamp t = 1; t <= db.horizon(); ++t) {
    EXPECT_EQ(MustAdvance(*batched), MustAdvance(*mapped)) << "t=" << t;
    for (size_t i = 0; i < batched->num_units(); ++i) {
      EXPECT_EQ(batched->chain_probs()[i], mapped->chain_probs()[i]);
    }
  }
}

// The extended engine always packs its chains into the SoA arena; the
// reference is one standalone RegularChain per binding, running on its own
// heap storage.
TEST(KernelEquivalenceTest, ExtendedEngineWithoutArenaStillIdentical) {
  EventDatabase db;
  AddMarkovStream(&db, "At", "A", {"room", "hall"}, 4, 0.6);
  AddMarkovStream(&db, "At", "B", {"room", "hall"}, 4, 0.8);
  PreparedQuery pq =
      MustPrepare(&db, "At(x, l1 : l1 = 'room'); At(x, l2 : l2 = 'hall')");
  auto batched = ExtendedRegularEngine::Create(pq, db);
  ASSERT_OK(batched.status());
  EXPECT_GT(batched->arena_size(), 0u);
  std::vector<RegularChain> standalone;
  for (size_t i = 0; i < batched->num_units(); ++i) {
    ASSERT_EQ(batched->binding(i).size(), 1u);
    const std::string who =
        batched->binding(i).begin()->second.ToString(db.interner());
    QueryPtr grounded = MustParse(&db, "At(" + who + ", l1 : l1 = 'room'); "
                                       "At(" + who + ", l2 : l2 = 'hall')");
    auto gnq = Normalize(*grounded);
    ASSERT_OK(gnq.status());
    auto chain = RegularChain::Create(*gnq, db);
    ASSERT_OK(chain.status());
    standalone.push_back(std::move(*chain));
  }
  ASSERT_EQ(standalone.size(), 2u);
  for (Timestamp t = 1; t <= db.horizon(); ++t) {
    MustAdvance(*batched);
    for (size_t i = 0; i < standalone.size(); ++i) {
      EXPECT_EQ(batched->chain_probs()[i], standalone[i].Step())
          << "binding " << i << " t=" << t;
    }
  }
}

// --- Randomized vectorized-vs-scalar-vs-map property sweep -----------------
//
// The vectorized SoA path (docs/PERF.md) promises the same bit-identity the
// compiled kernel promises against the map path. The sweep below drives all
// three paths over random automata, domain sizes, and arena widths chosen to
// straddle the SIMD lane width (1, lanes-1, lanes, lanes+1, 2*lanes+1 chains
// exercise every remainder-handling branch), asserting EXPECT_EQ on every
// per-tick double and on checkpoint bytes.

/// Random dense row-stochastic CPT over n codes (code 0 = bottom, absorbing).
Matrix RandomCpt(size_t n, std::mt19937_64* rng) {
  Matrix cpt(n, n, 0.0);
  cpt.At(0, 0) = 1.0;
  std::uniform_real_distribution<double> u(0.05, 1.0);
  for (size_t d = 1; d < n; ++d) {
    std::vector<double> row(n, 0.0);
    double total = 0;
    for (size_t d2 = 1; d2 < n; ++d2) {
      row[d2] = u(*rng);
      total += row[d2];
    }
    for (size_t d2 = 1; d2 < n; ++d2) cpt.At(d, d2) = row[d2] / total;
  }
  return cpt;
}

/// Markov stream with a random initial distribution and the given shared
/// CPT. Sharing the CPT across keys while randomizing initials mirrors the
/// row-pool design: per-key chains intern one transition-row class.
StreamId AddRandomMarkovStream(EventDatabase* db, const std::string& key,
                               const std::vector<std::string>& domain,
                               const Matrix& cpt, Timestamp horizon,
                               std::mt19937_64* rng) {
  DeclareUnarySchema(db, "At");
  Stream s(db->interner().Intern("At"), {db->Sym(key)}, 1, horizon,
           /*markovian=*/true);
  for (const std::string& d : domain) s.InternTuple({db->Sym(d)});
  size_t n = s.domain_size();
  std::vector<double> init(n, 0.0);
  std::uniform_real_distribution<double> u(0.05, 1.0);
  double total = 0;
  for (size_t d = 1; d < n; ++d) {
    init[d] = u(*rng);
    total += init[d];
  }
  for (size_t d = 1; d < n; ++d) init[d] /= total;
  EXPECT_TRUE(s.SetInitial(init).ok());
  for (Timestamp t = 1; t < horizon; ++t) {
    EXPECT_TRUE(s.SetCpt(t, cpt).ok());
  }
  EXPECT_TRUE(s.FinalizeMarkov().ok());
  auto id = db->AddStream(std::move(s));
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  return *id;
}

TEST(KernelEquivalenceTest, RandomizedSimdSweepBitIdentical) {
  const size_t lanes = simd::kLanes;
  const size_t widths[] = {1, lanes - 1, lanes, lanes + 1, 2 * lanes + 1};
  uint64_t seed = 20260808;
  for (size_t m : widths) {
    if (m == 0) continue;
    std::mt19937_64 rng(seed++);
    std::uniform_int_distribution<size_t> dom(2, 5);
    const size_t k = dom(rng);
    std::vector<std::string> domain;
    for (size_t j = 1; j <= k; ++j) domain.push_back("d" + std::to_string(j));
    const Timestamp horizon = 8;
    EventDatabase db;
    Matrix cpt = RandomCpt(domain.size() + 1, &rng);
    for (size_t i = 0; i < m; ++i) {
      AddRandomMarkovStream(&db, "tag" + std::to_string(i), domain, cpt,
                            horizon, &rng);
    }
    PreparedQuery pq =
        MustPrepare(&db, "At(x, l1 : l1 = 'd1'); At(x, l2 : l2 = 'd2')");
    ChainOptions scalar_opts;
    scalar_opts.step_mode = KernelStepMode::kScalar;
    ChainOptions simd_opts;
    simd_opts.step_mode = KernelStepMode::kSimd;
    auto scalar = ExtendedRegularEngine::Create(pq, db, scalar_opts);
    auto simd = ExtendedRegularEngine::Create(pq, db, simd_opts);
    auto mapped = ExtendedRegularEngine::Create(pq, db, MapOnly());
    ASSERT_OK(scalar.status());
    ASSERT_OK(simd.status());
    ASSERT_OK(mapped.status());
    ASSERT_EQ(simd->num_units(), m);
    EXPECT_EQ(simd->num_simd(), m) << "m=" << m;
    EXPECT_EQ(scalar->num_simd(), 0u);
    for (Timestamp t = 1; t <= horizon + 2; ++t) {
      double pv = MustAdvance(*simd);
      double ps = MustAdvance(*scalar);
      double pm = MustAdvance(*mapped);
      EXPECT_EQ(pv, ps) << "m=" << m << " t=" << t;
      EXPECT_EQ(ps, pm) << "m=" << m << " t=" << t;
      for (size_t i = 0; i < m; ++i) {
        EXPECT_EQ(simd->chain_probs()[i], mapped->chain_probs()[i])
            << "m=" << m << " t=" << t << " chain=" << i;
      }
    }
    if (m >= lanes) {
      // Identical CPT content => one shared row class => whole stripes.
      EXPECT_GT(simd->num_striped(), 0u) << "m=" << m;
      EXPECT_GT(simd->stripe_steps(), 0u) << "m=" << m;
    }
    // Checkpoint bytes are part of the bit-identity contract.
    serial::Writer wv, ws;
    ASSERT_OK(simd->SaveState(&wv));
    ASSERT_OK(scalar->SaveState(&ws));
    EXPECT_EQ(wv.str(), ws.str()) << "m=" << m;
  }
}

}  // namespace
}  // namespace lahar
