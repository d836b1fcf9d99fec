// Concurrency stress for the streaming runtime, built to run under
// ThreadSanitizer (see the tsan-runtime test preset): ~32 mixed
// Regular / Extended Regular standing queries, 1000 simulated timesteps
// produced by sim/trace_generator, pushed from a separate producer thread
// through a deliberately tiny ingest queue so backpressure engages, stepped
// by a 4-thread shard pool — and every published probability asserted
// bit-identical (EXPECT_EQ on doubles) to a sequential chain-engine replay
// of the same data.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "engine/extended_engine.h"
#include "runtime/executor.h"
#include "runtime/replay.h"
#include "sim/scenarios.h"
#include "test_util.h"

namespace lahar {
namespace {

using ::lahar::testing::ChainSession;
using namespace std::chrono_literals;

constexpr size_t kTags = 4;
constexpr Timestamp kHorizon = 1000;

// Grounded (Regular, one chain) and ungrounded (Extended Regular, one chain
// per tag) query templates over the simulated building's relations.
std::vector<std::string> StandingQueries() {
  std::vector<std::string> queries;
  for (size_t i = 1; i <= kTags; ++i) {
    const std::string tag = "'tag" + std::to_string(i) + "'";
    queries.push_back("At(" + tag + ", l : Room(l))");
    queries.push_back("At(" + tag + ", l : Hallway(l))");
    queries.push_back("At(" + tag + ", l1 : NotRoom(l1)); At(" + tag +
                      ", l2 : Room(l2))");
    queries.push_back("At(" + tag + ", l1 : Hallway(l1)); At(" + tag +
                      ", l2 : Hallway(l2)); At(" + tag + ", l3 : Room(l3))");
    queries.push_back("(At(" + tag + ", l1); At(" + tag +
                      ", l2)) WHERE NotRoom(l1) AND Room(l2)");
    queries.push_back("At(" + tag + ", l1 : Room(l1)); At(" + tag +
                      ", l2 : NotRoom(l2)); At(" + tag + ", l3 : Room(l3))");
    queries.push_back("At(" + tag + ", l : NotRoom(l))");
  }
  queries.push_back("At(x, l : Room(l))");
  queries.push_back("At(x, l : Hallway(l))");
  queries.push_back("At(x, l1 : NotRoom(l1)); At(x, l2 : Room(l2))");
  queries.push_back("At(x, l1 : Hallway(l1)); At(x, l2 : Room(l2))");
  return queries;  // 7 * kTags + 4 = 32
}

TEST(RuntimeStressTest, ThousandTicksMatchSequentialReplayBitForBit) {
  PipelineConfig config;
  config.num_particles = 32;  // keep trace generation cheap; any output works
  auto scenario = RandomWalkScenario(kTags, kHorizon, /*seed=*/2008, config);
  ASSERT_OK(scenario.status());
  auto archive = scenario->BuildDatabase(StreamKind::kFiltered);
  ASSERT_OK(archive.status());
  ASSERT_EQ((*archive)->horizon(), kHorizon);

  const std::vector<std::string> queries = StandingQueries();
  ASSERT_EQ(queries.size(), 32u);

  // Sequential ground truth: one chain engine per query over the
  // archived data, advanced tick by tick on this thread.
  std::vector<std::vector<double>> expected(queries.size());
  size_t expected_chains = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto session = ChainSession(archive->get(), queries[i]);
    ASSERT_TRUE(session.ok())
        << session.status().ToString() << " for " << queries[i];
    expected_chains += session->num_units();
    expected[i].reserve(kHorizon);
    for (Timestamp t = 1; t <= kHorizon; ++t) {
      auto p = session->Advance();
      ASSERT_OK(p.status());
      expected[i].push_back(*p);
    }
  }

  // Live side: replay the archive into a declarations-only clone through
  // the runtime's ingest queue.
  auto live = CloneDeclarations(**archive);
  ASSERT_OK(live.status());
  auto batches = ExtractBatches(**archive);
  ASSERT_OK(batches.status());
  ASSERT_EQ(batches->size(), kHorizon);

  RuntimeOptions options;
  options.num_threads = 4;
  options.queue_capacity = 8;  // far fewer than 1000: producers must block
  StreamRuntime runtime(live->get(), options);
  std::vector<QueryId> ids;
  for (const std::string& q : queries) {
    auto id = runtime.Register(q);
    ASSERT_TRUE(id.ok()) << id.status().ToString() << " for " << q;
    ids.push_back(*id);
  }

  // The callback runs on the coordinator thread; Stop() joins it before
  // this thread reads `results`, so no extra synchronization is needed.
  std::vector<TickResult> results;
  results.reserve(kHorizon);
  runtime.SetTickCallback(
      [&](const TickResult& r) { results.push_back(r); });
  runtime.Start();

  std::thread producer([&] {
    for (TickBatch& b : *batches) {
      Status s = runtime.ingest().Push(std::move(b), 120000ms);
      EXPECT_OK(s);
    }
  });
  producer.join();
  ASSERT_TRUE(runtime.WaitForTick(kHorizon, 120000ms));
  runtime.Stop();

  ASSERT_EQ(results.size(), kHorizon);
  size_t mismatches = 0;
  for (size_t t = 0; t < results.size(); ++t) {
    ASSERT_EQ(results[t].t, t + 1);
    ASSERT_EQ(results[t].probs.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      const double* p = results[t].Find(ids[i]);
      ASSERT_NE(p, nullptr);
      if (*p != expected[i][t] && ++mismatches <= 5) {
        ADD_FAILURE() << "mismatch: " << queries[i] << " at t=" << t + 1
                      << ": runtime=" << *p << " sequential=" << expected[i][t];
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);

  RuntimeStats stats = runtime.Stats();
  EXPECT_EQ(stats.ticks_processed, kHorizon);
  EXPECT_EQ(stats.num_queries, queries.size());
  EXPECT_EQ(stats.batches_applied, kHorizon);
  EXPECT_EQ(stats.batches_rejected, 0u);
  EXPECT_EQ(stats.queue_dropped, 0u);  // blocking Push never drops
  // Same chain layout as the sequential sessions (grounded queries run one
  // chain, ungrounded ones a chain per key binding).
  EXPECT_EQ(stats.total_chains, expected_chains);
  EXPECT_GT(stats.total_chains, queries.size());
}

// Mixed-class serving under churn: one standing query per class (Regular,
// Extended Regular, Safe plan, Unsafe-via-sampling) runs for the whole
// stream while a churn thread registers and drops extra queries
// concurrently with ingest. Every published value — stable and churned
// queries alike, the sampled ones included — is asserted bit-identical to
// batch evaluation: the sampler draws one value per (world, stream, tick)
// in tick order however far ingestion runs ahead, and a registration
// catches up over exactly the worlds serving would have drawn.
TEST(RuntimeStressTest, MixedClassWorkloadSurvivesConcurrentChurn) {
  constexpr size_t kMixedTags = 3;
  constexpr Timestamp kMixedHorizon = 120;
  PipelineConfig config;
  config.num_particles = 32;
  auto scenario =
      RandomWalkScenario(kMixedTags, kMixedHorizon, /*seed=*/7, config);
  ASSERT_OK(scenario.status());
  auto archive = scenario->BuildDatabase(StreamKind::kFiltered);
  ASSERT_OK(archive.status());

  LaharOptions session_options;
  session_options.plan.assume_distinct_keys = true;  // for the Safe query
  session_options.sampling.num_samples = 16;
  session_options.sampling.seed = 2008;

  // One stable query per class; `exact` is the session's answer kind.
  struct StableQuery {
    std::string text;
    std::string query_class;
    bool exact;
  };
  const std::vector<StableQuery> stable = {
      {"At('tag1', l : Room(l))", "Regular", true},
      {"At(x, l1 : NotRoom(l1)); At(x, l2 : Room(l2))", "ExtendedRegular",
       true},
      {"At(p, l1); At(p, l2); At(q, l3)", "Safe", true},
      {"(At(x, l1); At(y, l2)) WHERE l1 = l2", "Unsafe", false},
  };

  const std::vector<std::string> churn_pool = {
      "At('tag2', l : Hallway(l))",
      "At(x, l : Room(l))",
      "At(p, l1); At(p, l2); At(q, l3)",
      "At('tag3', l1 : Room(l1)); At('tag3', l2 : NotRoom(l2))",
      "(At(x, l1); At(y, l2)) WHERE l1 = l2",
  };

  // Batch ground truth over the archive, indexed by tick.
  Lahar batch(archive->get(), session_options);
  auto batch_probs = [&](const std::string& text) {
    auto answer = batch.Run(text);
    EXPECT_TRUE(answer.ok()) << answer.status().ToString() << " for " << text;
    return answer.ok() ? answer->probs : std::vector<double>{};
  };
  std::vector<std::vector<double>> expected, churn_expected;
  for (const StableQuery& q : stable) expected.push_back(batch_probs(q.text));
  for (const std::string& q : churn_pool) {
    churn_expected.push_back(batch_probs(q));
  }
  for (const auto* table : {&expected, &churn_expected}) {
    for (const std::vector<double>& probs : *table) {
      ASSERT_EQ(probs.size(), kMixedHorizon + 1);
    }
  }

  auto live = CloneDeclarations(**archive);
  ASSERT_OK(live.status());
  auto batches = ExtractBatches(**archive);
  ASSERT_OK(batches.status());

  RuntimeOptions options;
  options.num_threads = 4;
  options.queue_capacity = 8;
  options.session = session_options;
  StreamRuntime runtime(live->get(), options);
  std::vector<QueryId> ids;
  for (const StableQuery& q : stable) {
    auto id = runtime.Register(q.text);
    ASSERT_TRUE(id.ok()) << id.status().ToString() << " for " << q.text;
    ids.push_back(*id);
  }

  std::vector<TickResult> results;
  results.reserve(kMixedHorizon);
  runtime.SetTickCallback(
      [&](const TickResult& r) { results.push_back(r); });
  runtime.Start();

  // Churn registrations of every class while the producer is pushing
  // ticks (a sampled query catches up in one pass over the prefix).
  // churn_of maps each churned id to its pool entry; only the churn thread
  // touches it until it is joined.
  std::unordered_map<QueryId, size_t> churn_of;
  std::atomic<bool> done{false};
  std::atomic<size_t> churned{0};
  std::thread churn([&] {
    size_t i = 0;
    while (!done.load()) {
      const size_t entry = i++ % churn_pool.size();
      auto id = runtime.Register(churn_pool[entry]);
      if (id.ok()) {
        churn_of[*id] = entry;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        EXPECT_OK(runtime.Unregister(*id));
        churned.fetch_add(1);
      }
    }
  });

  std::thread producer([&] {
    for (TickBatch& b : *batches) {
      Status s = runtime.ingest().Push(std::move(b), 120000ms);
      EXPECT_OK(s);
    }
  });
  producer.join();
  ASSERT_TRUE(runtime.WaitForTick(kMixedHorizon, 120000ms));
  done.store(true);
  churn.join();
  runtime.Stop();

  ASSERT_EQ(results.size(), kMixedHorizon);
  for (size_t t = 0; t < results.size(); ++t) {
    for (size_t i = 0; i < stable.size(); ++i) {
      const double* p = results[t].Find(ids[i]);
      ASSERT_NE(p, nullptr) << stable[i].text << " at t=" << t + 1;
      EXPECT_EQ(*p, expected[i][t + 1]) << stable[i].text << " at t=" << t + 1;
    }
    for (const auto& [id, p] : results[t].probs) {
      auto it = churn_of.find(id);
      if (it == churn_of.end()) continue;
      EXPECT_EQ(p, churn_expected[it->second][t + 1])
          << churn_pool[it->second] << " at t=" << t + 1;
    }
  }

  RuntimeStats stats = runtime.Stats();
  EXPECT_EQ(stats.ticks_processed, kMixedHorizon);
  // Every class was served, every stable session stayed healthy.
  for (const StableQuery& q : stable) {
    bool found = false;
    for (const auto& [cls, count] : stats.class_counts) {
      if (cls == q.query_class) {
        EXPECT_GE(count, 1u) << cls;
        found = true;
      }
    }
    EXPECT_TRUE(found) << q.query_class;
  }
  for (const QueryStats& qs : stats.queries) {
    for (size_t i = 0; i < stable.size(); ++i) {
      if (qs.id != ids[i]) continue;
      EXPECT_EQ(qs.query_class, stable[i].query_class) << stable[i].text;
      EXPECT_EQ(qs.exact, stable[i].exact) << stable[i].text;
      EXPECT_EQ(qs.errors, 0u) << stable[i].text << ": " << qs.last_error;
      EXPECT_EQ(qs.ticks, kMixedHorizon) << stable[i].text;
    }
  }
  EXPECT_GT(churned.load(), 0u);
}

// Sharing-group churn races windowed execution: two stable alpha-variant
// queries keep one shared unit materialized for the whole run while a
// churn thread registers and unregisters more members of the same group
// (plus members of an extended-regular group), forcing delegation,
// undelegation, group dissolution, and re-materialization between windows
// — concurrently with ingest and the shard pool reading delegated
// frontiers. Built for the TSan preset; the stable queries must stay
// bit-identical to a sequential unshared replay throughout.
TEST(RuntimeStressTest, SharingGroupChurnStaysBitIdentical) {
  constexpr size_t kShareTags = 3;
  constexpr Timestamp kShareHorizon = 300;
  PipelineConfig config;
  config.num_particles = 32;
  auto scenario =
      RandomWalkScenario(kShareTags, kShareHorizon, /*seed=*/5, config);
  ASSERT_OK(scenario.status());
  auto archive = scenario->BuildDatabase(StreamKind::kFiltered);
  ASSERT_OK(archive.status());

  // Two alpha-variants: their shared unit is live from tick 1.
  const std::vector<std::string> stable = {
      "At('tag1', l : Room(l))",
      "At('tag1', m : Room(m))",
      "At(x, l1 : NotRoom(l1)); At(x, l2 : Room(l2))",
  };
  std::vector<std::vector<double>> expected(stable.size());
  for (size_t i = 0; i < stable.size(); ++i) {
    auto session = ChainSession(archive->get(), stable[i]);
    ASSERT_OK(session.status());
    for (Timestamp t = 1; t <= kShareHorizon; ++t) {
      auto p = session->Advance();
      ASSERT_OK(p.status());
      expected[i].push_back(*p);
    }
  }

  auto live = CloneDeclarations(**archive);
  ASSERT_OK(live.status());
  auto batches = ExtractBatches(**archive);
  ASSERT_OK(batches.status());

  RuntimeOptions options;
  options.num_threads = 4;
  options.queue_capacity = 8;
  options.max_window_ticks = 16;
  StreamRuntime runtime(live->get(), options);
  std::vector<QueryId> ids;
  for (const std::string& q : stable) {
    auto id = runtime.Register(q);
    ASSERT_OK(id.status());
    ids.push_back(*id);
  }

  std::vector<TickResult> results;
  results.reserve(kShareHorizon);
  runtime.SetTickCallback(
      [&](const TickResult& r) { results.push_back(r); });
  runtime.Start();

  // Churn more members of the stable queries' sharing groups: every
  // registration delegates chains into a live unit, every unregistration
  // detaches (and the extended-regular group repeatedly drops to one
  // reader and dissolves).
  std::atomic<bool> done{false};
  std::atomic<size_t> churned{0};
  std::thread churn([&] {
    size_t i = 0;
    while (!done.load()) {
      const std::string var = "v" + std::to_string(i % 7);
      const std::string text =
          i % 3 == 2 ? "At(" + var + ", l1 : NotRoom(l1)); At(" + var +
                           ", l2 : Room(l2))"
                     : "At('tag1', " + var + " : Room(" + var + "))";
      ++i;
      auto id = runtime.Register(text);
      if (id.ok()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        EXPECT_OK(runtime.Unregister(*id));
        churned.fetch_add(1);
      }
    }
  });

  std::thread producer([&] {
    for (TickBatch& b : *batches) {
      Status s = runtime.ingest().Push(std::move(b), 120000ms);
      EXPECT_OK(s);
    }
  });
  producer.join();
  ASSERT_TRUE(runtime.WaitForTick(kShareHorizon, 120000ms));
  done.store(true);
  churn.join();
  runtime.Stop();

  ASSERT_EQ(results.size(), kShareHorizon);
  for (size_t t = 0; t < results.size(); ++t) {
    for (size_t i = 0; i < stable.size(); ++i) {
      const double* p = results[t].Find(ids[i]);
      ASSERT_NE(p, nullptr) << stable[i] << " at t=" << t + 1;
      EXPECT_EQ(*p, expected[i][t]) << stable[i] << " at t=" << t + 1;
    }
  }
  RuntimeStats stats = runtime.Stats();
  EXPECT_GT(churned.load(), 0u);
  // The stable alpha-variant pair kept one unit materialized for the whole
  // stream: at least one reader's steps were saved every tick.
  EXPECT_GE(stats.shared_steps_saved, static_cast<uint64_t>(kShareHorizon));
  EXPECT_GE(stats.sharing_groups, 1u);
}

// Checkpoints and registry churn race the windowed coordinator: while the
// producer streams ticks through batched windows (and backpressure keeps
// several windows in flight), one thread registers/unregisters queries and
// another snapshots the runtime in a loop. Built for the TSan preset: any
// unsynchronized access between Checkpoint()'s registry walk, the churn
// thread's session creation, and the shard pool's window execution is a
// reported race. Every snapshot must also be internally consistent —
// restoring the last one into a fresh runtime must succeed and land
// exactly on the snapshot's tick.
TEST(RuntimeStressTest, CheckpointAndChurnRaceWindowedExecution) {
  constexpr size_t kChurnTags = 3;
  constexpr Timestamp kChurnHorizon = 160;
  PipelineConfig config;
  config.num_particles = 32;
  auto scenario =
      RandomWalkScenario(kChurnTags, kChurnHorizon, /*seed=*/11, config);
  ASSERT_OK(scenario.status());
  auto archive = scenario->BuildDatabase(StreamKind::kFiltered);
  ASSERT_OK(archive.status());

  LaharOptions session_options;
  session_options.plan.assume_distinct_keys = true;

  auto live = CloneDeclarations(**archive);
  ASSERT_OK(live.status());
  auto batches = ExtractBatches(**archive);
  ASSERT_OK(batches.status());

  RuntimeOptions options;
  options.num_threads = 4;
  options.queue_capacity = 8;
  options.max_window_ticks = 16;
  options.session = session_options;
  StreamRuntime runtime(live->get(), options);
  const std::vector<std::string> stable = {
      "At('tag1', l : Room(l))",
      "At(x, l1 : NotRoom(l1)); At(x, l2 : Room(l2))",
      "At(p, l1); At(p, l2); At(q, l3)",
  };
  for (const std::string& q : stable) {
    ASSERT_OK(runtime.Register(q).status());
  }
  runtime.Start();

  std::atomic<bool> done{false};
  std::atomic<size_t> churned{0};
  std::thread churn([&] {
    const std::vector<std::string> pool = {
        "At('tag2', l : Hallway(l))",
        "At(x, l : Room(l))",
        "At(p, l1); At(p, l2); At(q, l3)",
    };
    size_t i = 0;
    while (!done.load()) {
      auto id = runtime.Register(pool[i++ % pool.size()]);
      if (id.ok()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        EXPECT_OK(runtime.Unregister(*id));
        churned.fetch_add(1);
      }
    }
  });

  std::atomic<size_t> snapshots{0};
  std::string last_snapshot;
  std::thread checkpointer([&] {
    while (!done.load()) {
      auto snap = runtime.Checkpoint();
      EXPECT_OK(snap.status());
      if (snap.ok()) {
        last_snapshot = std::move(*snap);
        snapshots.fetch_add(1);
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  std::thread producer([&] {
    for (TickBatch& b : *batches) {
      Status s = runtime.ingest().Push(std::move(b), 120000ms);
      EXPECT_OK(s);
    }
  });
  producer.join();
  ASSERT_TRUE(runtime.WaitForTick(kChurnHorizon, 120000ms));
  done.store(true);
  churn.join();
  checkpointer.join();
  runtime.Stop();

  EXPECT_GT(snapshots.load(), 0u);
  EXPECT_GT(churned.load(), 0u);
  EXPECT_EQ(runtime.Stats().ticks_processed, kChurnHorizon);

  // The last mid-run snapshot restores into a fresh declarations clone and
  // lands on a tick the runtime had actually published when it was taken.
  ASSERT_FALSE(last_snapshot.empty());
  auto live2 = CloneDeclarations(**archive);
  ASSERT_OK(live2.status());
  StreamRuntime resumed(live2->get(), options);
  ASSERT_OK(resumed.Restore(last_snapshot));
  EXPECT_LE(resumed.tick(), kChurnHorizon);
  EXPECT_GE(resumed.Stats().num_queries, stable.size());
}

}  // namespace
}  // namespace lahar
