// Chain lifecycle (docs/PERF.md "Chain lifecycle"): lazy materialization,
// cold-chain spill, and stripe-aware sharding under the streaming runtime.
//
// The contract under test is bit-identity: every lifecycle configuration
// (lazy stubs, cold spill, both) must produce EXPECT_EQ-equal per-tick
// probabilities, per-chain probabilities, and checkpoint bytes against the
// always-materialized reference — including across a spill -> checkpoint ->
// restore -> rehydrate round trip. The runtime-labeled stress tests at the
// bottom run under the tsan/asan presets and additionally pin down the
// stripe-aware sharding guarantee: executor rebalances and steals never
// shear a lane-interleaved stripe, so stripe counters match a sequential
// replay exactly.
#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "analysis/prepared.h"
#include "automaton/rows.h"
#include "common/serial.h"
#include "engine/extended_engine.h"
#include "engine/streaming.h"
#include "runtime/executor.h"
#include "runtime/replay.h"
#include "test_util.h"

namespace lahar {
namespace {

using namespace std::chrono_literals;

using ::lahar::testing::AddIndependentStream;
using ::lahar::testing::AddMarkovStream;
using ::lahar::testing::MustParse;
using ::lahar::testing::StepDist;

constexpr const char* kQuery = "At(x, l1 : l1 = 'a'); At(x, l2 : l2 = 'b')";

// Adds an independent At-stream for `key` that is loud (mass on the
// symbol-producing values 'a'/'b') exactly where `active` says and all-
// bottom elsewhere. Exact binary fractions keep the inputs bitwise stable.
void AddScheduledStream(EventDatabase* db, const std::string& key,
                        Timestamp horizon,
                        const std::function<bool(Timestamp)>& active) {
  std::vector<StepDist> steps;
  for (Timestamp t = 1; t <= horizon; ++t) {
    steps.push_back(active(t) ? StepDist{{"a", 0.5}, {"b", 0.25}}
                              : StepDist{});
  }
  AddIndependentStream(db, "At", key, steps);
}

Result<ExtendedRegularEngine> MakeEngine(EventDatabase* db,
                                         const ChainOptions& opts) {
  QueryPtr q = MustParse(db, kQuery);
  if (q == nullptr) return Status::Internal("parse failed");
  auto nq = Normalize(*q);
  if (!nq.ok()) return nq.status();
  return ExtendedRegularEngine::Create(*nq, *db, opts);
}

ChainOptions Lifecycle(bool lazy, bool spill, uint32_t cold_after = 4) {
  ChainOptions opts;
  opts.lazy_materialize = lazy;
  opts.spill_cold_chains = spill;
  opts.cold_after_ticks = cold_after;
  return opts;
}

// A database whose keys walk through every lifecycle transition: stubs that
// never materialize, late promotions, cold spills, and rehydrations.
EventDatabase MakeLifecycleDb(Timestamp horizon) {
  EventDatabase db;
  AddScheduledStream(&db, "always", horizon, [](Timestamp) { return true; });
  AddScheduledStream(&db, "early", horizon,
                     [](Timestamp t) { return t <= 6; });
  AddScheduledStream(&db, "late", horizon,
                     [=](Timestamp t) { return t > horizon - 10; });
  AddScheduledStream(&db, "burst", horizon, [](Timestamp t) {
    return t <= 4 || (t > 20 && t <= 24);
  });
  AddScheduledStream(&db, "never", horizon, [](Timestamp) { return false; });
  return db;
}

TEST(ChainLifecycleTest, AllModesBitIdenticalToMaterialized) {
  const Timestamp horizon = 40;
  EventDatabase db = MakeLifecycleDb(horizon);

  auto dense = MakeEngine(&db, ChainOptions{});
  auto lazy = MakeEngine(&db, Lifecycle(/*lazy=*/true, /*spill=*/false));
  auto spill = MakeEngine(&db, Lifecycle(/*lazy=*/false, /*spill=*/true));
  auto both = MakeEngine(&db, Lifecycle(/*lazy=*/true, /*spill=*/true));
  ASSERT_OK(dense.status());
  ASSERT_OK(lazy.status());
  ASSERT_OK(spill.status());
  ASSERT_OK(both.status());
  ASSERT_EQ(dense->num_chains(), 5u);
  EXPECT_FALSE(dense->lifecycle_enabled());
  EXPECT_TRUE(both->lifecycle_enabled());
  // Lazy engines materialize nothing until first evidence.
  EXPECT_EQ(lazy->num_resident(), 0u);
  EXPECT_EQ(both->num_stub(), 5u);

  for (Timestamp t = 1; t <= horizon; ++t) {
    const double pd = dense->Step();
    const double pl = lazy->Step();
    const double ps = spill->Step();
    const double pb = both->Step();
    EXPECT_EQ(pd, pl) << "t=" << t;
    EXPECT_EQ(pd, ps) << "t=" << t;
    EXPECT_EQ(pd, pb) << "t=" << t;
    for (size_t i = 0; i < dense->num_chains(); ++i) {
      EXPECT_EQ(dense->chain_probs()[i], lazy->chain_probs()[i])
          << "t=" << t << " chain=" << i;
      EXPECT_EQ(dense->chain_probs()[i], spill->chain_probs()[i])
          << "t=" << t << " chain=" << i;
      EXPECT_EQ(dense->chain_probs()[i], both->chain_probs()[i])
          << "t=" << t << " chain=" << i;
    }
    // Checkpoint bytes are part of the contract at every tick, from every
    // residency mix the four engines are in right now.
    serial::Writer wd, wl, ws, wb;
    dense->SaveState(&wd);
    lazy->SaveState(&wl);
    spill->SaveState(&ws);
    both->SaveState(&wb);
    EXPECT_EQ(wd.str(), wl.str()) << "t=" << t;
    EXPECT_EQ(wd.str(), ws.str()) << "t=" << t;
    EXPECT_EQ(wd.str(), wb.str()) << "t=" << t;
  }
  ASSERT_OK(dense->ChainStatus());
  ASSERT_OK(both->ChainStatus());

  // The workload drove every transition: promotions ("early"/"late"/
  // "burst"/"always" went loud), spills ("early" and "burst" idled past
  // cold_after), and a rehydration ("burst" reawakened at t=21).
  EXPECT_EQ(lazy->num_stub(), 1u);  // "never" stayed a stub for 40 ticks
  EXPECT_GE(lazy->promotions(), 4u);
  EXPECT_GE(spill->spills(), 2u);
  EXPECT_GE(both->promotions(), 4u);
  EXPECT_GE(both->spills(), 2u);
  EXPECT_GE(both->rehydrations() + both->promotions(), 5u);
  // Non-resident bindings must actually shed their memory.
  EXPECT_LT(both->Footprint().bytes(), dense->Footprint().bytes());
  EXPECT_LT(both->num_resident(), dense->num_chains());
}

TEST(ChainLifecycleTest, SpillCheckpointRestoreRehydrateRoundTrip) {
  const Timestamp horizon = 24;
  EventDatabase db;
  AddScheduledStream(&db, "hot", horizon, [](Timestamp) { return true; });
  AddScheduledStream(&db, "cold", horizon,
                     [](Timestamp t) { return t <= 3; });
  AddScheduledStream(&db, "wake", horizon, [](Timestamp t) {
    return t <= 3 || (t > 19 && t <= 24);
  });
  AddScheduledStream(&db, "ghost", horizon, [](Timestamp) { return false; });

  const ChainOptions opts = Lifecycle(/*lazy=*/true, /*spill=*/true,
                                      /*cold_after=*/3);
  auto live = MakeEngine(&db, opts);
  auto dense = MakeEngine(&db, ChainOptions{});
  ASSERT_OK(live.status());
  ASSERT_OK(dense.status());

  const Timestamp checkpoint_at = 12;
  for (Timestamp t = 1; t <= checkpoint_at; ++t) {
    EXPECT_EQ(dense->Step(), live->Step()) << "t=" << t;
  }
  // "cold" and "wake" idled past cold_after with probability mass split
  // across partial-match states: frozen in the spill arena, not stubs.
  ASSERT_OK(live->ChainStatus());
  EXPECT_GE(live->num_spilled(), 1u);
  EXPECT_GE(live->num_stub(), 1u);  // "ghost" never materialized
  EXPECT_GE(live->spills(), 2u);
  const size_t spilled_at_save = live->num_spilled();
  const size_t stubs_at_save = live->num_stub();
  const size_t resident_at_save = live->num_resident();

  serial::Writer wl, wd;
  live->SaveState(&wl);
  dense->SaveState(&wd);
  EXPECT_EQ(wl.str(), wd.str());  // spilled chains serialize identically

  // Restore into a fresh engine: cold chains must classify straight back
  // into the spill arena without a forced rehydration (docs/RUNTIME.md).
  auto restored = MakeEngine(&db, opts);
  ASSERT_OK(restored.status());
  serial::Reader r(wl.str());
  ASSERT_OK(restored->LoadState(&r));
  EXPECT_EQ(restored->time(), checkpoint_at);
  EXPECT_EQ(restored->num_spilled(), spilled_at_save);
  EXPECT_EQ(restored->num_stub(), stubs_at_save);
  EXPECT_EQ(restored->num_resident(), resident_at_save);
  EXPECT_EQ(restored->rehydrations(), 0u);
  EXPECT_EQ(restored->promotions(), 0u);

  // All three continue bit-identically; "wake" reawakens at t=20 and must
  // rehydrate from the restored spill entries.
  for (Timestamp t = checkpoint_at + 1; t <= horizon; ++t) {
    const double pd = dense->Step();
    const double pl = live->Step();
    const double pr = restored->Step();
    EXPECT_EQ(pd, pl) << "t=" << t;
    EXPECT_EQ(pd, pr) << "t=" << t;
    for (size_t i = 0; i < dense->num_chains(); ++i) {
      EXPECT_EQ(dense->chain_probs()[i], restored->chain_probs()[i])
          << "t=" << t << " chain=" << i;
    }
  }
  ASSERT_OK(restored->ChainStatus());
  EXPECT_GE(restored->rehydrations(), 1u);
  EXPECT_GE(live->rehydrations(), 1u);

  serial::Writer fe, fl, fr;
  dense->SaveState(&fe);
  live->SaveState(&fl);
  restored->SaveState(&fr);
  EXPECT_EQ(fe.str(), fl.str());
  EXPECT_EQ(fe.str(), fr.str());
}

TEST(ChainLifecycleTest, RowPoolEvictionRebuildsDeterministically) {
  // Shared-pool transition rows keep a small residency window per class
  // (automaton/rows.h kMaxResident); an engine stepping behind another
  // engine's clock re-requests evicted timesteps and must rebuild them
  // bit-identically. Lifecycle churn rides along: the independent keys
  // spill and rehydrate while the Markov keys thrash the row window.
  const Timestamp horizon = 20;
  EventDatabase db;
  for (int k = 0; k < 4; ++k) {
    AddMarkovStream(&db, "At", "m" + std::to_string(k), {"a", "b", "c"},
                    horizon, 0.7);
  }
  AddScheduledStream(&db, "i1", horizon, [](Timestamp t) {
    return t <= 3 || (t > 14 && t <= 18);
  });
  AddScheduledStream(&db, "i2", horizon,
                     [](Timestamp t) { return t > 1 && t <= 5; });

  TransitionRowPool pool;
  ChainOptions dense_opts;
  dense_opts.step_mode = KernelStepMode::kSimd;
  dense_opts.row_pool = &pool;
  ChainOptions cycle_opts = Lifecycle(/*lazy=*/true, /*spill=*/true,
                                      /*cold_after=*/3);
  cycle_opts.step_mode = KernelStepMode::kSimd;
  cycle_opts.row_pool = &pool;

  auto dense = MakeEngine(&db, dense_opts);
  ASSERT_OK(dense.status());
  EXPECT_GT(dense->num_simd(), 0u);
  std::vector<double> expect_probs;
  std::vector<std::vector<double>> expect_chains;
  for (Timestamp t = 1; t <= horizon; ++t) {
    expect_probs.push_back(dense->Step());
    expect_chains.push_back(dense->chain_probs());
  }

  // Two lifecycle passes over the same (now fully slid) row window: every
  // row request below the pool's high-water mark is a rebuild.
  for (int pass = 0; pass < 2; ++pass) {
    auto cycle = MakeEngine(&db, cycle_opts);
    ASSERT_OK(cycle.status());
    for (Timestamp t = 1; t <= horizon; ++t) {
      EXPECT_EQ(expect_probs[t - 1], cycle->Step())
          << "pass=" << pass << " t=" << t;
      for (size_t i = 0; i < cycle->num_chains(); ++i) {
        EXPECT_EQ(expect_chains[t - 1][i], cycle->chain_probs()[i])
            << "pass=" << pass << " t=" << t << " chain=" << i;
      }
    }
    ASSERT_OK(cycle->ChainStatus());
    EXPECT_GE(cycle->spills(), 1u) << "pass=" << pass;
    serial::Writer wc, wd;
    cycle->SaveState(&wc);
    dense->SaveState(&wd);
    EXPECT_EQ(wd.str(), wc.str()) << "pass=" << pass;
  }

  // The dense engine's chains hold the same shared row classes the
  // lifecycle passes rebuilt into; the eviction churn must be visible.
  uint64_t rebuilds = 0;
  std::unordered_set<const TransitionRowClass*> seen;
  for (size_t i = 0; i < dense->num_chains(); ++i) {
    const auto& cls = dense->chain(i).row_class();
    if (cls != nullptr && seen.insert(cls.get()).second) {
      rebuilds += cls->rebuilds();
    }
  }
  EXPECT_GT(rebuilds, 0u);
}

TEST(ChainLifecycleTest, SimdChainsRehydrateOntoSimdPath) {
  // The step path is chosen by the options, not by construction history: a
  // SIMD chain that spills cold must rehydrate back onto the SIMD path
  // (and stay bit-identical to an always-materialized SIMD engine).
  const Timestamp horizon = 20;
  EventDatabase db;
  AddScheduledStream(&db, "hot", horizon, [](Timestamp) { return true; });
  AddScheduledStream(&db, "w", horizon, [](Timestamp t) {
    return t <= 4 || (t > 16 && t <= 20);
  });

  TransitionRowPool pool;
  ChainOptions simd_dense;
  simd_dense.step_mode = KernelStepMode::kSimd;
  simd_dense.row_pool = &pool;
  ChainOptions simd_cycle = Lifecycle(/*lazy=*/true, /*spill=*/true,
                                      /*cold_after=*/3);
  simd_cycle.step_mode = KernelStepMode::kSimd;
  simd_cycle.row_pool = &pool;

  auto dense = MakeEngine(&db, simd_dense);
  auto cycle = MakeEngine(&db, simd_cycle);
  ASSERT_OK(dense.status());
  ASSERT_OK(cycle.status());
  EXPECT_EQ(dense->num_simd(), 2u);

  for (Timestamp t = 1; t <= horizon; ++t) {
    EXPECT_EQ(dense->Step(), cycle->Step()) << "t=" << t;
    if (t == 5) {
      // Both keys loud and materialized: "w" was promoted onto the path
      // its options name.
      ASSERT_EQ(cycle->num_resident(), 2u);
      for (size_t i = 0; i < cycle->num_chains(); ++i) {
        EXPECT_TRUE(cycle->chain(i).simd()) << "chain=" << i;
      }
    }
    if (t == 16) {
      // "w" idled past cold_after and left residency.
      EXPECT_EQ(cycle->num_resident(), 1u);
      EXPECT_GE(cycle->spills(), 1u);
    }
  }
  ASSERT_OK(cycle->ChainStatus());
  // "w" reawakened at t=17: back to resident, same path.
  ASSERT_EQ(cycle->num_resident(), 2u);
  for (size_t i = 0; i < cycle->num_chains(); ++i) {
    EXPECT_TRUE(cycle->chain(i).simd()) << "chain=" << i;
  }
  serial::Writer wd, wc;
  dense->SaveState(&wd);
  cycle->SaveState(&wc);
  EXPECT_EQ(wd.str(), wc.str());
}

// --- runtime stress (tsan/asan presets) -----------------------------------

// Drives a striped heavy session through the concurrent executor while
// registration churn forces shard-plan rebuilds and steals, then asserts
// the stripe counters match a sequential replay exactly: shard splits
// aligned on UnitGroupEnd never shear a stripe, so whole-stripe steps and
// data-dependent fallbacks are scheduler-independent.
TEST(ChainLifecycleStressTest, StripedShardsSurviveRebalanceChurn) {
  const Timestamp horizon = 300;
  constexpr size_t kMarkovKeys = 12;
  EventDatabase archive;
  for (size_t k = 0; k < kMarkovKeys; ++k) {
    AddMarkovStream(&archive, "At", "tag" + std::to_string(k),
                    {"a", "b", "c"}, horizon, 0.8);
  }
  const std::string heavy = kQuery;
  std::vector<std::string> light;
  for (size_t k = 0; k < 6; ++k) {
    light.push_back("At('tag" + std::to_string(k) + "', l : l = 'a')");
  }

  ChainOptions chain_opts;
  chain_opts.step_mode = KernelStepMode::kSimd;
  chain_opts.spill_cold_chains = true;  // Markov keys never spill; the
  chain_opts.cold_after_ticks = 8;      // lifecycle-enabled paths still run

  // Sequential ground truth with the same chain options.
  auto prepared = PrepareQuery(heavy, &archive);
  ASSERT_OK(prepared.status());
  auto reference = StreamingSession::Create(&archive, *prepared, chain_opts);
  ASSERT_OK(reference.status());
  std::vector<double> expected;
  for (Timestamp t = 1; t <= horizon; ++t) {
    auto p = reference->Advance();
    ASSERT_OK(p.status());
    expected.push_back(*p);
  }
  ASSERT_GT(reference->engine().num_striped(), 0u);
  const uint64_t seq_stripe_steps = reference->engine().stripe_steps();
  const uint64_t seq_stripe_fallbacks = reference->engine().stripe_fallbacks();
  EXPECT_GT(seq_stripe_steps, 0u);

  auto live = CloneDeclarations(archive);
  ASSERT_OK(live.status());
  auto batches = ExtractBatches(archive);
  ASSERT_OK(batches.status());

  RuntimeOptions options;
  options.num_threads = 4;
  options.queue_capacity = 16;
  options.session.chain = chain_opts;
  StreamRuntime runtime(live->get(), options);
  auto heavy_id = runtime.Register(heavy);
  ASSERT_OK(heavy_id.status());
  std::vector<QueryId> light_ids;
  for (const std::string& q : light) {
    auto id = runtime.Register(q);
    ASSERT_OK(id.status());
    light_ids.push_back(*id);
  }

  std::vector<TickResult> results;
  runtime.SetTickCallback([&](const TickResult& r) { results.push_back(r); });
  runtime.Start();
  // Phased ingestion: each churn batch lands while later ticks are still
  // unpushed, so a subsequent window is guaranteed to observe the registry
  // version bump and rebuild the shard plan mid-stream.
  size_t next_batch = 0;
  auto push_until = [&](size_t end) {
    for (; next_batch < end && next_batch < batches->size(); ++next_batch) {
      EXPECT_OK(
          runtime.ingest().Push(std::move((*batches)[next_batch]), 120000ms));
    }
  };
  push_until(60);
  ASSERT_TRUE(runtime.WaitForTick(60, 120000ms));
  for (size_t k = 0; k < 3; ++k) EXPECT_OK(runtime.Unregister(light_ids[k]));
  push_until(140);
  ASSERT_TRUE(runtime.WaitForTick(140, 120000ms));
  for (size_t k = 0; k < 3; ++k) {
    auto id = runtime.Register(light[k]);
    ASSERT_OK(id.status());
  }
  push_until(220);
  ASSERT_TRUE(runtime.WaitForTick(220, 120000ms));
  EXPECT_OK(runtime.Unregister(light_ids[4]));
  push_until(batches->size());
  ASSERT_TRUE(runtime.WaitForTick(horizon, 120000ms));
  RuntimeStats stats = runtime.Stats();
  runtime.Stop();

  ASSERT_EQ(results.size(), horizon);
  size_t mismatches = 0;
  for (size_t t = 0; t < results.size(); ++t) {
    const double* p = results[t].Find(*heavy_id);
    ASSERT_NE(p, nullptr) << "t=" << t + 1;
    if (*p != expected[t] && ++mismatches <= 5) {
      ADD_FAILURE() << "heavy query diverged at t=" << t + 1 << ": runtime="
                    << *p << " sequential=" << expected[t];
    }
  }
  EXPECT_EQ(mismatches, 0u);

  // The churn must actually have rebuilt the shard plan mid-stream: the
  // initial build plus at least one per churn phase. (Steals only count on
  // drift rebalances, whose trigger is a measured 2x load skew — timing-
  // dependent and so unassertable under TSan; plan_rebuilds is not.)
  EXPECT_GE(stats.plan_rebuilds, 4u);
  // ...and the heavy session's stripe counters must not have noticed:
  // identical whole-stripe steps (a sheared stripe would silently demote
  // lanes and lose steps) and identical data-dependent fallbacks.
  const QueryStats* hq = nullptr;
  for (const QueryStats& q : stats.queries) {
    if (q.id == *heavy_id) hq = &q;
  }
  ASSERT_NE(hq, nullptr);
  EXPECT_GT(hq->simd_units, 0u);
  EXPECT_EQ(hq->stripe_steps, seq_stripe_steps);
  EXPECT_EQ(hq->stripe_fallbacks, seq_stripe_fallbacks);
  EXPECT_EQ(stats.stripe_fallbacks, seq_stripe_fallbacks);
}

// Lifecycle transitions under the concurrent executor: dozens of bursty
// keys promote, spill, and rehydrate on shard threads while the published
// probabilities stay bit-identical to a sequential default-options replay.
TEST(ChainLifecycleStressTest, LifecycleChurnStaysBitIdenticalAcrossShards) {
  const Timestamp horizon = 200;
  constexpr size_t kKeys = 48;
  EventDatabase archive;
  for (size_t k = 0; k < kKeys; ++k) {
    const Timestamp start = 1 + static_cast<Timestamp>((k * 7) % 120);
    AddScheduledStream(&archive, "key" + std::to_string(k), horizon,
                       [=](Timestamp t) {
                         // Two active windows with a long cold gap between.
                         return (t >= start && t < start + 6) ||
                                (t >= start + 60 && t < start + 66);
                       });
  }
  std::vector<std::string> queries = {
      kQuery,
      "At('key0', l : l = 'a')",
      "At(x, l1 : l1 = 'b'); At(x, l2 : l2 = 'a')",
  };

  // Sequential ground truth with default (always-materialized) options:
  // bit-identity across configurations is the whole point.
  std::vector<std::vector<double>> expected(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    auto session = StreamingSession::Create(&archive, queries[i]);
    ASSERT_OK(session.status());
    for (Timestamp t = 1; t <= horizon; ++t) {
      auto p = session->Advance();
      ASSERT_OK(p.status());
      expected[i].push_back(*p);
    }
  }

  auto live = CloneDeclarations(archive);
  ASSERT_OK(live.status());
  auto batches = ExtractBatches(archive);
  ASSERT_OK(batches.status());

  RuntimeOptions options;
  options.num_threads = 4;
  options.queue_capacity = 8;
  options.session.chain =
      Lifecycle(/*lazy=*/true, /*spill=*/true, /*cold_after=*/4);
  StreamRuntime runtime(live->get(), options);
  std::vector<QueryId> ids;
  for (const std::string& q : queries) {
    auto id = runtime.Register(q);
    ASSERT_OK(id.status());
    ids.push_back(*id);
  }
  std::vector<TickResult> results;
  runtime.SetTickCallback([&](const TickResult& r) { results.push_back(r); });
  runtime.Start();
  std::thread producer([&] {
    for (TickBatch& b : *batches) {
      EXPECT_OK(runtime.ingest().Push(std::move(b), 120000ms));
    }
  });
  producer.join();
  ASSERT_TRUE(runtime.WaitForTick(horizon, 120000ms));
  RuntimeStats stats = runtime.Stats();
  runtime.Stop();

  ASSERT_EQ(results.size(), horizon);
  size_t mismatches = 0;
  for (size_t t = 0; t < results.size(); ++t) {
    for (size_t i = 0; i < queries.size(); ++i) {
      const double* p = results[t].Find(ids[i]);
      ASSERT_NE(p, nullptr);
      if (*p != expected[i][t] && ++mismatches <= 5) {
        ADD_FAILURE() << queries[i] << " diverged at t=" << t + 1
                      << ": runtime=" << *p
                      << " sequential=" << expected[i][t];
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);

  // The churn actually happened on the shard threads.
  EXPECT_GT(stats.promotions, 0u);
  EXPECT_GT(stats.spills, 0u);
  EXPECT_GT(stats.rehydrations, 0u);
  // Most keys are cold at t=200 (last window ends by t=191): the resident
  // set must have shrunk well below the registered unit count.
  EXPECT_LT(stats.resident_units, stats.total_chains / 2);
  EXPECT_GT(stats.stub_units + stats.spilled_units, 0u);
}

}  // namespace
}  // namespace lahar
