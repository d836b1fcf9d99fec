// Incremental-vs-batch equivalence for every query class served through
// the QuerySession layer (engine/session.h): a session advancing one tick
// at a time over a database built incrementally must report exactly the
// probabilities the batch engines compute over the finished archive.
//
// For the exact engines (Regular, Extended Regular, Safe) "exactly" means
// EXPECT_EQ on doubles — the incremental path must perform the same IEEE
// operations in the same order as the batch path. Batch Lahar::Run is
// itself a session run to the horizon, so every exact test also compares
// against an oracle batch answer from a path that shares no step code with
// the session (IndependentBatch below). Sampling sessions are compared
// against brute-force enumeration within the estimator tolerance, and
// their batch, stepped and caught-up answers against each other bit for
// bit: all three draw the same worlds.
//
// Both databases in each test are built by the same recipe code so their
// contents are bit-identical; only the interleaving of appends and
// evaluation differs.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "automaton/simd.h"
#include "engine/extended_engine.h"
#include "engine/lahar.h"
#include "engine/reference.h"
#include "engine/session.h"
#include "test_util.h"

namespace lahar {
namespace {

using ::lahar::testing::MustParse;
using ::lahar::testing::StepDist;

// Creates a stream with its full domain interned up front and no timesteps
// yet, so batch and live databases are fed by the exact same AppendStep
// calls (the batch one all at once, the live one a tick at a time).
StreamId AddEmptyStream(EventDatabase* db, const std::string& type,
                        const std::string& key,
                        const std::vector<std::string>& domain) {
  lahar::testing::DeclareUnarySchema(db, type);
  Stream s(db->interner().Intern(type), {db->Sym(key)}, 1, 0,
           /*markovian=*/false);
  for (const std::string& d : domain) s.InternTuple({db->Sym(d)});
  auto id = db->AddStream(std::move(s));
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  return *id;
}

void AppendStep(EventDatabase* db, StreamId id, const StepDist& step) {
  const Stream& s = db->stream(id);
  std::vector<double> dist(s.domain_size(), 0.0);
  double total = 0;
  for (const auto& [name, p] : step) {
    dist[s.LookupTuple({db->Sym(name)})] += p;
    total += p;
  }
  dist[kBottom] = 1.0 - total;
  ASSERT_OK(db->AppendMarginal(id, dist));
}

// The batch answer from an evaluation path that shares no step code with
// the sessions under test: Regular/Extended chains on the canonical-order
// map path (no compiled kernel), Safe plans on the dense Eq. (3) loops.
std::vector<double> IndependentBatch(EventDatabase* db,
                                     const std::string& query) {
  LaharOptions options;
  options.chain.kernel.max_flat_states = 0;
  options.plan.safe.incremental = false;
  auto answer = Lahar(db, options).Run(query);
  EXPECT_TRUE(answer.ok()) << answer.status().ToString();
  return answer.ok() ? answer->probs : std::vector<double>{};
}

TEST(SessionEquivalence, RegularIndependentMatchesBatchBitwise) {
  const std::vector<StepDist> steps = {
      {{"a", 0.7}, {"b", 0.2}}, {{"b", 0.6}, {"a", 0.3}}, {{"a", 0.9}},
      {{"b", 0.5}},             {{"a", 0.4}, {"b", 0.4}}, {{"a", 0.1}},
  };
  const std::string query = "At('Joe', l : l = 'a')";

  EventDatabase batch;
  StreamId bid = AddEmptyStream(&batch, "At", "Joe", {"a", "b"});
  for (const StepDist& s : steps) AppendStep(&batch, bid, s);
  Lahar lahar(&batch);
  auto answer = lahar.Run(query);
  ASSERT_OK(answer.status());
  const std::vector<double> oracle = IndependentBatch(&batch, query);
  ASSERT_EQ(oracle.size(), answer->probs.size());
  EXPECT_EQ(answer->engine, EngineKind::kRegular);

  EventDatabase live;
  StreamId lid = AddEmptyStream(&live, "At", "Joe", {"a", "b"});
  Lahar serving(&live);
  auto session = serving.OpenSession(query);
  ASSERT_OK(session.status());
  EXPECT_EQ((*session)->query_class(), QueryClass::kRegular);
  EXPECT_EQ((*session)->engine_kind(), EngineKind::kRegular);
  EXPECT_TRUE((*session)->exact());
  for (size_t t = 1; t <= steps.size(); ++t) {
    AppendStep(&live, lid, steps[t - 1]);
    auto p = (*session)->Advance();
    ASSERT_OK(p.status());
    EXPECT_EQ((*session)->time(), t);
    EXPECT_EQ(*p, answer->probs[t]) << "t=" << t;
    EXPECT_EQ(*p, oracle[t]) << "t=" << t;
  }
}

TEST(SessionEquivalence, RegularMarkovMatchesBatchBitwise) {
  // Sequence query over one Markovian stream: the per-tick transition uses
  // the CPT arriving with the tick.
  auto add_markov = [](EventDatabase* db) {
    lahar::testing::DeclareUnarySchema(db, "At");
    Stream s(db->interner().Intern("At"), {db->Sym("Sue")}, 1, 0,
             /*markovian=*/true);
    s.InternTuple({db->Sym("a")});
    s.InternTuple({db->Sym("b")});
    auto id = db->AddStream(std::move(s));
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    return *id;
  };
  Matrix cpt(3, 3, 0.0);
  cpt.At(0, 0) = 1.0;  // bottom stays bottom
  cpt.At(1, 1) = 0.8;
  cpt.At(1, 2) = 0.2;
  cpt.At(2, 1) = 0.3;
  cpt.At(2, 2) = 0.7;
  const std::vector<double> initial = {0.1, 0.6, 0.3};
  const Timestamp kT = 5;
  const std::string query =
      "At('Sue', l1 : l1 = 'a'); At('Sue', l2 : l2 = 'b')";

  EventDatabase batch;
  StreamId bid = add_markov(&batch);
  ASSERT_OK(batch.AppendInitial(bid, initial));
  for (Timestamp t = 2; t <= kT; ++t) {
    ASSERT_OK(batch.AppendMarkovStep(bid, cpt));
  }
  Lahar lahar(&batch);
  auto answer = lahar.Run(query);
  ASSERT_OK(answer.status());
  const std::vector<double> oracle = IndependentBatch(&batch, query);
  ASSERT_EQ(oracle.size(), answer->probs.size());
  EXPECT_EQ(answer->engine, EngineKind::kRegular);

  EventDatabase live;
  StreamId lid = add_markov(&live);
  Lahar serving(&live);
  auto session = serving.OpenSession(query);
  ASSERT_OK(session.status());
  for (Timestamp t = 1; t <= kT; ++t) {
    if (t == 1) {
      ASSERT_OK(live.AppendInitial(lid, initial));
    } else {
      ASSERT_OK(live.AppendMarkovStep(lid, cpt));
    }
    auto p = (*session)->Advance();
    ASSERT_OK(p.status());
    EXPECT_EQ(*p, answer->probs[t]) << "t=" << t;
    EXPECT_EQ(*p, oracle[t]) << "t=" << t;
  }
}

TEST(SessionEquivalence, ExtendedMatchesBatchBitwise) {
  // Shared variable x grounds to one chain per key; the union over chains
  // must combine in the same order incrementally as in batch mode.
  const std::vector<std::string> keys = {"Joe", "Sue", "Bob"};
  const std::vector<std::vector<StepDist>> steps = {
      {{{"a", 0.5}, {"b", 0.3}}, {{"b", 0.6}}, {{"a", 0.2}, {"b", 0.7}},
       {{"b", 0.1}}, {{"a", 0.9}}},
      {{{"b", 0.4}}, {{"a", 0.5}, {"b", 0.2}}, {{"b", 0.3}},
       {{"a", 0.8}}, {{"b", 0.5}}},
      {{{"a", 0.1}}, {{"b", 0.9}}, {{"a", 0.4}, {"b", 0.4}},
       {{"b", 0.6}}, {{"a", 0.3}}},
  };
  const std::string query = "At(x, l1 : l1 = 'a'); At(x, l2 : l2 = 'b')";

  EventDatabase batch;
  std::vector<StreamId> bids;
  for (const std::string& k : keys) {
    bids.push_back(AddEmptyStream(&batch, "At", k, {"a", "b"}));
  }
  for (size_t t = 0; t < steps[0].size(); ++t) {
    for (size_t i = 0; i < keys.size(); ++i) {
      AppendStep(&batch, bids[i], steps[i][t]);
    }
  }
  Lahar lahar(&batch);
  auto answer = lahar.Run(query);
  ASSERT_OK(answer.status());
  const std::vector<double> oracle = IndependentBatch(&batch, query);
  ASSERT_EQ(oracle.size(), answer->probs.size());
  EXPECT_EQ(answer->engine, EngineKind::kExtendedRegular);

  EventDatabase live;
  std::vector<StreamId> lids;
  for (const std::string& k : keys) {
    lids.push_back(AddEmptyStream(&live, "At", k, {"a", "b"}));
  }
  Lahar serving(&live);
  auto session = serving.OpenSession(query);
  ASSERT_OK(session.status());
  EXPECT_EQ((*session)->query_class(), QueryClass::kExtendedRegular);
  EXPECT_EQ((*session)->num_units(), keys.size());
  for (size_t t = 1; t <= steps[0].size(); ++t) {
    for (size_t i = 0; i < keys.size(); ++i) {
      AppendStep(&live, lids[i], steps[i][t - 1]);
    }
    auto p = (*session)->Advance();
    ASSERT_OK(p.status());
    EXPECT_EQ(*p, answer->probs[t]) << "t=" << t;
    EXPECT_EQ(*p, oracle[t]) << "t=" << t;
  }
}

TEST(SessionEquivalence, SurvivesMidStreamDomainGrowthBitwise) {
  // Interning a new tuple mid-stream grows the stream's domain past the
  // session's symbol table. The chain extends its own table copy-on-grow
  // (SymbolTable::WithGrownDomains); because 'c' first matches a subgoal
  // only after the growth, its symbol mask falls outside the compiled
  // kernel's alphabet and the chain dematerializes to the map path for the
  // rest of its life. The batch engine, created after the growth, compiles
  // over the full domain and stays on the kernel — the two paths must
  // still agree bit-for-bit (the kernel and map paths are exact
  // reorderings of the same IEEE operations).
  const std::string query = "At('Joe', l1 : l1 = 'b'); At('Joe', l2 : l2 = 'c')";
  const std::vector<StepDist> head = {{{"a", 0.6}, {"b", 0.3}},
                                      {{"b", 0.5}}};
  const std::vector<StepDist> tail = {{{"c", 0.4}, {"b", 0.2}},
                                      {{"a", 0.3}, {"c", 0.3}},
                                      {{"b", 0.8}}};

  auto build = [&](EventDatabase* db, StreamId* id_out) {
    *id_out = AddEmptyStream(db, "At", "Joe", {"a", "b"});
  };
  auto grow = [&](EventDatabase* db, StreamId id) {
    db->stream(id).InternTuple({db->Sym("c")});
  };

  EventDatabase batch;
  StreamId bid;
  build(&batch, &bid);
  for (const StepDist& s : head) AppendStep(&batch, bid, s);
  grow(&batch, bid);
  for (const StepDist& s : tail) AppendStep(&batch, bid, s);
  Lahar lahar(&batch);
  auto answer = lahar.Run(query);
  ASSERT_OK(answer.status());
  const std::vector<double> oracle = IndependentBatch(&batch, query);
  ASSERT_EQ(oracle.size(), answer->probs.size());

  EventDatabase live;
  StreamId lid;
  build(&live, &lid);
  Lahar serving(&live);
  auto session = serving.OpenSession(query);
  ASSERT_OK(session.status());
  auto* engine = dynamic_cast<ExtendedRegularEngine*>(session->get());
  ASSERT_NE(engine, nullptr);
  Timestamp t = 0;
  for (const StepDist& s : head) {
    AppendStep(&live, lid, s);
    auto p = (*session)->Advance();
    ASSERT_OK(p.status());
    EXPECT_EQ(*p, answer->probs[++t]) << "t=" << t;
    EXPECT_EQ(*p, oracle[t]) << "t=" << t;
  }
  EXPECT_EQ(engine->num_compiled(), 1u);
  grow(&live, lid);  // the alphabet guard trips on the next Advance
  for (const StepDist& s : tail) {
    AppendStep(&live, lid, s);
    auto p = (*session)->Advance();
    ASSERT_OK(p.status());
    EXPECT_EQ(*p, answer->probs[++t]) << "t=" << t;
    EXPECT_EQ(*p, oracle[t]) << "t=" << t;
  }
  // The growth really did force the kernel -> map fallback.
  EXPECT_EQ(engine->num_compiled(), 0u);
}

TEST(SessionEquivalence, SafePlanMatchesBatchBitwise) {
  // Safe query (Ex. 3.17 shape): seq over a reg subplan with a witness
  // stream. The incremental session extends the memoized tables by one
  // column per tick; every P[q@t] must match the batch run exactly.
  const std::string query = "R(x, u1); S(x, u2); T('a', y)";
  const std::vector<std::vector<StepDist>> r_steps = {
      {{{"u", 0.5}}, {{"u", 0.4}}, {}, {{"u", 0.6}}},
      {{{"u", 0.3}}, {}, {{"u", 0.7}}, {{"u", 0.2}}},
  };
  const std::vector<std::vector<StepDist>> s_steps = {
      {{}, {{"v", 0.6}}, {{"v", 0.3}}, {{"v", 0.5}}},
      {{{"v", 0.2}}, {{"v", 0.8}}, {}, {{"v", 0.4}}},
  };
  const std::vector<StepDist> t_steps = {
      {}, {{"w", 0.5}}, {{"w", 0.7}}, {{"w", 0.4}}};
  const size_t kT = t_steps.size();

  auto build = [&](EventDatabase* db, std::vector<StreamId>* ids) {
    ids->push_back(AddEmptyStream(db, "R", "k1", {"u"}));
    ids->push_back(AddEmptyStream(db, "R", "k2", {"u"}));
    ids->push_back(AddEmptyStream(db, "S", "k1", {"v"}));
    ids->push_back(AddEmptyStream(db, "S", "k2", {"v"}));
    ids->push_back(AddEmptyStream(db, "T", "a", {"w"}));
  };
  auto append_tick = [&](EventDatabase* db, const std::vector<StreamId>& ids,
                         size_t t) {
    AppendStep(db, ids[0], r_steps[0][t]);
    AppendStep(db, ids[1], r_steps[1][t]);
    AppendStep(db, ids[2], s_steps[0][t]);
    AppendStep(db, ids[3], s_steps[1][t]);
    AppendStep(db, ids[4], t_steps[t]);
  };

  EventDatabase batch;
  std::vector<StreamId> bids;
  build(&batch, &bids);
  for (size_t t = 0; t < kT; ++t) append_tick(&batch, bids, t);
  Lahar lahar(&batch);
  auto answer = lahar.Run(query);
  ASSERT_OK(answer.status());
  const std::vector<double> oracle = IndependentBatch(&batch, query);
  ASSERT_EQ(oracle.size(), answer->probs.size());
  EXPECT_EQ(answer->engine, EngineKind::kSafePlan);
  EXPECT_TRUE(answer->exact);

  EventDatabase live;
  std::vector<StreamId> lids;
  build(&live, &lids);
  Lahar serving(&live);
  auto session = serving.OpenSession(query);
  ASSERT_OK(session.status());
  EXPECT_EQ((*session)->query_class(), QueryClass::kSafe);
  EXPECT_EQ((*session)->engine_kind(), EngineKind::kSafePlan);
  EXPECT_TRUE((*session)->exact());
  // Units are the plan's independent grounding groups (one per key of the
  // projected variable x), not a single sequential unit.
  EXPECT_EQ((*session)->num_units(), 2u);
  for (size_t t = 1; t <= kT; ++t) {
    append_tick(&live, lids, t - 1);
    auto p = (*session)->Advance();
    ASSERT_OK(p.status());
    EXPECT_EQ((*session)->time(), t);
    EXPECT_EQ(*p, answer->probs[t]) << "t=" << t;
    EXPECT_EQ(*p, oracle[t]) << "t=" << t;
  }
}

TEST(SessionEquivalence, SafePlanLongHorizonTightCapsMatchesBatchBitwise) {
  // Long-horizon safe serving with deliberately tiny cache capacities: the
  // direct-mapped seq memo and the reg-leaf row arena must evict constantly
  // and still reproduce the default-capacity batch run bit for bit —
  // capacity knobs trade recompute time, never answers. The witness stream
  // fires sparsely so the sparse kernels skip real zero gaps, and the
  // generated marginals include runs of certain-bottom at the start (the
  // all-bottom precursor boundary).
  const std::string query = "R(x, u1); S(x, u2); T('a', y)";
  constexpr size_t kT = 320;

  // Deterministic pseudo-random feed shared by both databases.
  auto prob = [](size_t t, size_t stream) {
    uint64_t h = (t * 1000003ULL + stream) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
    return 0.15 + 0.5 * static_cast<double>(h >> 40) / 16777216.0;
  };
  auto build = [&](EventDatabase* db, std::vector<StreamId>* ids) {
    ids->push_back(AddEmptyStream(db, "R", "k1", {"u"}));
    ids->push_back(AddEmptyStream(db, "R", "k2", {"u"}));
    ids->push_back(AddEmptyStream(db, "S", "k1", {"v"}));
    ids->push_back(AddEmptyStream(db, "S", "k2", {"v"}));
    ids->push_back(AddEmptyStream(db, "T", "a", {"w"}));
  };
  auto append_tick = [&](EventDatabase* db, const std::vector<StreamId>& ids,
                         size_t t) {
    // First 8 ticks: everything bottom (the precursor boundary).
    AppendStep(db, ids[0], t < 8 ? StepDist{} : StepDist{{"u", prob(t, 0)}});
    AppendStep(db, ids[1], t < 8 ? StepDist{} : StepDist{{"u", prob(t, 1)}});
    AppendStep(db, ids[2], t < 8 ? StepDist{} : StepDist{{"v", prob(t, 2)}});
    AppendStep(db, ids[3], t < 8 ? StepDist{} : StepDist{{"v", prob(t, 3)}});
    // Sparse witness: one candidate event every 6 ticks.
    AppendStep(db, ids[4],
               t >= 8 && t % 6 == 2 ? StepDist{{"w", 0.45}} : StepDist{});
  };

  EventDatabase batch;
  std::vector<StreamId> bids;
  build(&batch, &bids);
  for (size_t t = 0; t < kT; ++t) append_tick(&batch, bids, t);
  Lahar lahar(&batch);  // default capacities, batch Run
  auto answer = lahar.Run(query);
  ASSERT_OK(answer.status());
  const std::vector<double> oracle = IndependentBatch(&batch, query);
  ASSERT_EQ(oracle.size(), answer->probs.size());
  EXPECT_EQ(answer->engine, EngineKind::kSafePlan);

  EventDatabase live;
  std::vector<StreamId> lids;
  build(&live, &lids);
  LaharOptions tight;
  tight.plan.safe.seq_memo_capacity = 8;
  tight.plan.safe.reg_row_capacity = 4;
  tight.plan.safe.reg_keyframe_interval = 32;
  Lahar serving(&live, tight);
  auto session = serving.OpenSession(query);
  ASSERT_OK(session.status());
  for (size_t t = 1; t <= kT; ++t) {
    append_tick(&live, lids, t - 1);
    auto p = (*session)->Advance();
    ASSERT_OK(p.status());
    EXPECT_EQ(*p, answer->probs[t]) << "t=" << t;
    EXPECT_EQ(*p, oracle[t]) << "t=" << t;
  }
  // The tiny caches really were exercised: the arena evicted and rebuilt
  // rows, and counters made it to the session surface.
  SessionCounters ms = (*session)->Counters();
  EXPECT_GT(ms.row_evictions, 0u);
  EXPECT_GT(ms.memo_evictions, 0u);
  EXPECT_LE(ms.memo_entries, 8u);  // the direct-mapped memo never outgrows
                                   // its 8 slots
}

TEST(SessionEquivalence, SamplingSessionTracksBruteForce) {
  // Unsafe query (non-local WHERE): hosts as an approximate standing query
  // through the SamplingEngine. Compared against exhaustive enumeration
  // within the Hoeffding tolerance for the sample count.
  const std::string query = "(R(x, u1); S(y, u2)) WHERE u1 = u2";
  const std::vector<StepDist> r_steps = {
      {{"m", 0.6}}, {{"n", 0.5}}, {{"m", 0.4}}};
  const std::vector<StepDist> s_steps = {
      {{"n", 0.3}}, {{"m", 0.7}}, {{"m", 0.5}}};

  EventDatabase batch;
  StreamId br = AddEmptyStream(&batch, "R", "k1", {"m", "n"});
  StreamId bs = AddEmptyStream(&batch, "S", "k2", {"m", "n"});
  for (size_t t = 0; t < r_steps.size(); ++t) {
    AppendStep(&batch, br, r_steps[t]);
    AppendStep(&batch, bs, s_steps[t]);
  }
  QueryPtr q = MustParse(&batch, query);
  auto want = BruteForceProbabilities(*q, batch);
  ASSERT_OK(want.status());

  EventDatabase live;
  StreamId lr = AddEmptyStream(&live, "R", "k1", {"m", "n"});
  StreamId ls = AddEmptyStream(&live, "S", "k2", {"m", "n"});
  LaharOptions options;
  options.sampling.num_samples = 20000;
  options.sampling.seed = 7;
  Lahar serving(&live, options);
  auto session = serving.OpenSession(query);
  ASSERT_OK(session.status());
  EXPECT_EQ((*session)->query_class(), QueryClass::kUnsafe);
  EXPECT_EQ((*session)->engine_kind(), EngineKind::kSampling);
  EXPECT_FALSE((*session)->exact());
  EXPECT_EQ((*session)->num_units(), 20000u);
  for (size_t t = 1; t <= r_steps.size(); ++t) {
    AppendStep(&live, lr, r_steps[t - 1]);
    AppendStep(&live, ls, s_steps[t - 1]);
    auto p = (*session)->Advance();
    ASSERT_OK(p.status());
    EXPECT_NEAR(*p, (*want)[t], 0.02) << "t=" << t;
  }
}

// A sampled query's three evaluation orders draw the same worlds: batch
// Lahar::Run, the Advance() loop (k = 0), and RunToHorizon(k) — the
// catch-up and restore path — followed by Advance() must agree bit for bit.
void ExpectSampledOrdersAgree(EventDatabase* db, const std::string& query,
                              const LaharOptions& options, QueryClass cls) {
  Lahar lahar(db, options);
  auto batch = lahar.Run(query);
  ASSERT_OK(batch.status());
  EXPECT_EQ(batch->query_class, cls);
  EXPECT_EQ(batch->engine, EngineKind::kSampling);
  const Timestamp horizon = db->horizon();
  ASSERT_EQ(batch->probs.size(), horizon + 1);
  // Saturated answers (0 or 1 everywhere) would agree under any draw order.
  size_t fractional = 0;
  for (Timestamp t = 1; t <= horizon; ++t) {
    fractional += batch->probs[t] > 0 && batch->probs[t] < 1;
  }
  ASSERT_GE(3 * fractional, horizon) << "inputs too saturated to compare";

  for (Timestamp k : {Timestamp{0}, Timestamp{1}, horizon / 2, horizon - 1,
                      horizon}) {
    auto session = lahar.OpenSession(query);
    ASSERT_OK(session.status());
    auto head = (*session)->RunToHorizon(k);
    ASSERT_OK(head.status());
    EXPECT_EQ((*session)->time(), k);
    for (Timestamp t = 1; t <= k; ++t) {
      EXPECT_EQ((*head)[t], batch->probs[t]) << "k=" << k << " t=" << t;
    }
    for (Timestamp t = k + 1; t <= horizon; ++t) {
      auto p = (*session)->Advance();
      ASSERT_OK(p.status());
      EXPECT_EQ(*p, batch->probs[t]) << "k=" << k << " t=" << t;
    }
  }
}

TEST(SessionEquivalence, UnsafeSamplingOrdersAgreeBitwise) {
  EventDatabase db;
  StreamId r = AddEmptyStream(&db, "R", "k1", {"m", "n"});
  StreamId s = AddEmptyStream(&db, "S", "k2", {"m", "n"});
  for (size_t t = 0; t < 12; ++t) {
    const double m = 0.15 + 0.05 * static_cast<double>(t % 5);
    AppendStep(&db, r, {{"m", m}, {"n", 0.3}});
    AppendStep(&db, s, {{"n", 0.2 + m}, {"m", 0.25}});
  }
  LaharOptions options;
  options.sampling.num_samples = 64;
  options.sampling.seed = 11;
  ExpectSampledOrdersAgree(&db, "(R(x, u1); S(y, u2)) WHERE u1 = u2",
                           options, QueryClass::kUnsafe);
}

TEST(SessionEquivalence, SafeMarkovFallbackOrdersAgreeBitwise) {
  // Safe plans need independent streams, so over Markovian ones the Safe
  // query routes to the sampling fallback.
  EventDatabase db;
  lahar::testing::AddMarkovStream(&db, "At", "Joe", {"a", "b"}, 12, 0.7);
  lahar::testing::AddMarkovStream(&db, "At", "Sue", {"a", "b"}, 12, 0.6);
  LaharOptions options;
  options.plan.assume_distinct_keys = true;
  options.sampling.num_samples = 64;
  options.sampling.seed = 5;
  ExpectSampledOrdersAgree(
      &db, "At(p, l1 : l1 = 'a'); At(p, l2 : l2 = 'b'); At(q, l3 : l3 = 'a')",
      options, QueryClass::kSafe);
}

// Drives the split protocol the sharded executor speaks: per tick, one
// PrepareAdvance, AdvanceShard over the ranges between consecutive `cuts`
// (taken in reverse order, as a slow first shard would finish last), then
// one CommitAdvance. P[q@t] at index t.
std::vector<double> SplitRun(QuerySession* session, Timestamp horizon,
                             const std::vector<size_t>& cuts) {
  std::vector<double> probs(horizon + 1, 0.0);
  for (Timestamp t = 1; t <= horizon; ++t) {
    session->PrepareAdvance();
    for (size_t k = cuts.size() - 1; k > 0; --k) {
      session->AdvanceShard(cuts[k - 1], cuts[k]);
    }
    auto p = session->CommitAdvance();
    EXPECT_TRUE(p.ok()) << p.status().ToString();
    probs[t] = p.ok() ? *p : -1.0;
  }
  return probs;
}

TEST(SessionEquivalence, SplitAdvanceMatchesAdvanceForEveryClass) {
  // One archive serving a query of every class. The Markovian tags share
  // one CPT, so the forced-SIMD Extended engine packs lane-interleaved
  // stripes; the Safe plan projects x over two keys; the Unsafe query is
  // sampled. Every partition of the units — including cuts through a
  // stripe — must publish exactly the Advance() loop's and batch answers.
  constexpr Timestamp kT = 10;
  EventDatabase db;
  const size_t tags = 2 * simd::kLanes + 1;
  for (size_t i = 0; i < tags; ++i) {
    lahar::testing::AddMarkovStream(&db, "At", "tag" + std::to_string(i),
                                    {"a", "b", "c"}, kT, 0.7);
  }
  const std::vector<StreamId> ids = {
      AddEmptyStream(&db, "R", "k1", {"u"}),
      AddEmptyStream(&db, "R", "k2", {"u"}),
      AddEmptyStream(&db, "S", "k1", {"v"}),
      AddEmptyStream(&db, "S", "k2", {"v"}),
      AddEmptyStream(&db, "T", "a", {"w"}),
      AddEmptyStream(&db, "P", "k1", {"m", "n"}),
      AddEmptyStream(&db, "Q", "k2", {"m", "n"})};
  for (Timestamp t = 1; t <= kT; ++t) {
    const double f = 0.1 * static_cast<double>(t % 4);
    AppendStep(&db, ids[0], {{"u", 0.3 + f}});
    AppendStep(&db, ids[1], {{"u", 0.6 - f}});
    AppendStep(&db, ids[2], {{"v", 0.2 + f}});
    AppendStep(&db, ids[3], {{"v", 0.5}});
    AppendStep(&db, ids[4],
               t % 3 == 0 ? StepDist{} : StepDist{{"w", 0.4 + f}});
    AppendStep(&db, ids[5], {{"m", 0.2 + f}, {"n", 0.3}});
    AppendStep(&db, ids[6], {{"n", 0.4}, {"m", 0.3 - f / 2}});
  }
  LaharOptions options;
  options.chain.step_mode = KernelStepMode::kSimd;
  options.sampling.num_samples = 64;
  options.sampling.seed = 3;
  const struct {
    const char* text;
    EngineKind engine;
  } cases[] = {
      {"At('tag0', l : l = 'a')", EngineKind::kRegular},
      {"At(x, l1 : l1 = 'a'); At(x, l2 : l2 = 'b')",
       EngineKind::kExtendedRegular},
      {"R(x, u1); S(x, u2); T('a', y)", EngineKind::kSafePlan},
      {"(P(x, u1); Q(y, u2)) WHERE u1 = u2", EngineKind::kSampling},
  };
  Lahar lahar(&db, options);
  for (const auto& c : cases) {
    SCOPED_TRACE(c.text);
    auto batch = lahar.Run(c.text);
    ASSERT_OK(batch.status());
    auto reference = lahar.OpenSession(c.text);
    ASSERT_OK(reference.status());
    ASSERT_EQ((*reference)->engine_kind(), c.engine);
    const size_t n = (*reference)->num_units();
    std::vector<double> stepped(kT + 1, 0.0);
    for (Timestamp t = 1; t <= kT; ++t) {
      stepped[t] = testing::MustAdvance(**reference);
    }
    if (c.engine == EngineKind::kExtendedRegular) {
      ASSERT_EQ(n, tags);
      ASSERT_EQ((*reference)->UnitGroupEnd(1), simd::kLanes);  // a stripe
    }
    if (c.engine == EngineKind::kSafePlan) {
      ASSERT_GE(n, 2u);
    }

    std::vector<std::vector<size_t>> partitions = {{0, n}, {0, n / 2, n}};
    std::vector<size_t> singletons;
    for (size_t i = 0; i <= n; ++i) singletons.push_back(i);
    partitions.push_back(singletons);
    if (n > 2) partitions.push_back({0, 1, n - 1, n});
    for (const std::vector<size_t>& cuts : partitions) {
      auto session = lahar.OpenSession(c.text);
      ASSERT_OK(session.status());
      std::vector<double> split = SplitRun(session->get(), kT, cuts);
      for (Timestamp t = 1; t <= kT; ++t) {
        const size_t ranges = cuts.size() - 1;
        EXPECT_EQ(split[t], stepped[t]) << "ranges=" << ranges << " t=" << t;
        EXPECT_EQ(split[t], batch->probs[t])
            << "ranges=" << ranges << " t=" << t;
      }
    }
  }
}

TEST(SessionEquivalence, StrictModeRejectionNamesTheClass) {
  EventDatabase live;
  AddEmptyStream(&live, "R", "k1", {"m"});
  AddEmptyStream(&live, "S", "k2", {"m"});
  LaharOptions options;
  options.allow_sampling_fallback = false;
  Lahar serving(&live, options);
  auto session = serving.OpenSession("(R(x, u1); S(y, u2)) WHERE u1 = u2");
  ASSERT_FALSE(session.ok());
  const std::string* cls = session.status().GetPayload(kQueryClassPayload);
  ASSERT_NE(cls, nullptr);
  EXPECT_EQ(*cls, "Unsafe");
}

}  // namespace
}  // namespace lahar
