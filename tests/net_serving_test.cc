// End-to-end loopback serving: a TCP client registers one standing query
// per class, streams the archive's batches over the wire, and the pushed
// subscription updates must be EXPECT_EQ-identical (bit-exact doubles) to
// an in-process StreamRuntime fed the same batches. Plus: per-tenant
// admission control, backpressure surfacing, slow-consumer disconnects,
// client-triggered checkpoints, and the stats-JSON escaping fix.
#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "net/server.h"
#include "runtime/executor.h"
#include "runtime/replay.h"
#include "runtime/stats.h"
#include "test_util.h"

namespace lahar {
namespace net {
namespace {

using ::lahar::testing::AddIndependentStream;
using ::lahar::testing::AddMarkovStream;
using ::lahar::testing::AddRelation;
using ::lahar::testing::StepDist;
using namespace std::chrono_literals;

// One query per class; Unsafe exercises the deterministic sampling
// fallback, so wire results stay bit-reproducible across runs.
const char* const kQueries[] = {
    "At('Joe', l : l = 'a')",                   // Regular
    "At(x, l : l = 'b')",                       // ExtendedRegular
    "At(p, l1); At(p, l2); At(q, l3)",          // Safe (distinct keys)
    "(At(x, u1); Rd(y, u2)) WHERE u1 = u2",     // Unsafe (sampled)
};

// Mixed archive covering every stream flavor the wire format carries:
// independent marginals, a Markovian CPT stream, a second event type for
// the Unsafe join, and a relation.
EventDatabase BuildArchive(Timestamp horizon) {
  EventDatabase db;
  std::vector<StepDist> joe, sue, rd;
  for (Timestamp t = 1; t <= horizon; ++t) {
    joe.push_back({{"a", 0.1 + 0.5 / t}, {"b", 0.2}});
    sue.push_back({{t % 2 == 0 ? "a" : "b", 0.6}});
    rd.push_back({{t % 3 == 0 ? "a" : "c", 0.7}});
  }
  AddIndependentStream(&db, "At", "Joe", joe);
  AddIndependentStream(&db, "At", "Sue", sue);
  AddMarkovStream(&db, "At", "Bob", {"a", "b", "c"}, horizon, 0.8);
  AddIndependentStream(&db, "Rd", "Joe", rd);
  AddRelation(&db, "Room", {{"a"}, {"b"}});
  return db;
}

RuntimeOptions ServingRuntimeOptions() {
  RuntimeOptions options;
  // Safe queries need the distinct-keys assumption to compile to plans,
  // exactly as lahar_cli --serve (with or without --port) configures it.
  options.session.plan.assume_distinct_keys = true;
  return options;
}

// Server + runtime over a fresh clone of `archive`'s declarations.
struct ServerUnderTest {
  explicit ServerUnderTest(const EventDatabase& archive,
                           ServerOptions options = {},
                           RuntimeOptions runtime_options =
                               ServingRuntimeOptions()) {
    auto cloned = CloneDeclarations(archive);
    EXPECT_TRUE(cloned.ok()) << cloned.status().ToString();
    live = std::move(*cloned);
    runtime = std::make_unique<StreamRuntime>(live.get(), runtime_options);
    server = std::make_unique<Server>(runtime.get(), options);
    runtime->Start();
    Status s = server->Start();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }

  ~ServerUnderTest() {
    server->Stop();
    runtime->ingest().Close();
    runtime->Stop();
  }

  std::unique_ptr<EventDatabase> live;
  std::unique_ptr<StreamRuntime> runtime;
  std::unique_ptr<Server> server;
};

TEST(NetServingTest, LoopbackMatchesInProcessRuntime) {
  const Timestamp horizon = 12;
  EventDatabase archive = BuildArchive(horizon);
  auto batches = ExtractBatches(archive);
  ASSERT_OK(batches.status());

  // Reference: the same batches through an in-process runtime.
  auto ref_live = CloneDeclarations(archive);
  ASSERT_OK(ref_live.status());
  StreamRuntime reference(ref_live->get(), ServingRuntimeOptions());
  std::vector<QueryId> ref_ids;
  for (const char* q : kQueries) {
    auto id = reference.Register(q);
    ASSERT_OK(id.status());
    ref_ids.push_back(*id);
  }
  std::vector<TickResult> ref_results;
  reference.SetTickCallback(
      [&](const TickResult& r) { ref_results.push_back(r); });
  reference.Start();
  for (const TickBatch& b : *batches) {
    ASSERT_OK(reference.ingest().Push(b, 10000ms));
  }
  reference.ingest().Close();
  ASSERT_TRUE(reference.WaitForTick(horizon, 30000ms));
  reference.Stop();
  ASSERT_EQ(ref_results.size(), horizon);

  // Same workload over TCP.
  ServerUnderTest sut(archive);
  auto client = Client::Connect("127.0.0.1", sut.server->port());
  ASSERT_OK(client.status());
  std::vector<QueryId> ids;
  for (size_t i = 0; i < 4; ++i) {
    auto reg = (*client)->RegisterQuery(kQueries[i]);
    ASSERT_TRUE(reg.ok()) << reg.status().ToString() << " in: "
                          << kQueries[i];
    EXPECT_EQ(reg->id, ref_ids[i]) << "registration order must match";
    ASSERT_OK((*client)->Subscribe(reg->id));
    ids.push_back(reg->id);
  }
  // The wire announces the same class/engine routing the reference used.
  auto reg_check = (*client)->RegisterQuery(kQueries[0]);
  ASSERT_OK(reg_check.status());
  EXPECT_EQ(reg_check->query_class, "Regular");
  for (const TickBatch& b : *batches) {
    Status s;
    do {
      s = (*client)->Ingest(b);
      // kBackpressure maps to OutOfRange: the queue was momentarily full.
      if (!s.ok() && s.code() == StatusCode::kOutOfRange) {
        std::this_thread::sleep_for(1ms);
      }
    } while (!s.ok() && s.code() == StatusCode::kOutOfRange);
    ASSERT_OK(s);
  }
  std::map<Timestamp, std::map<QueryId, double>> pushed;
  while (pushed.size() < horizon) {
    auto update = (*client)->NextUpdate(30000ms);
    ASSERT_OK(update.status());
    for (const auto& [id, p] : update->probs) pushed[update->t][id] = p;
  }

  // Bit-exact agreement, every tick, every query class.
  for (const TickResult& ref : ref_results) {
    auto it = pushed.find(ref.t);
    ASSERT_NE(it, pushed.end()) << "no push for tick " << ref.t;
    for (QueryId id : ids) {
      const double* expect = ref.Find(id);
      ASSERT_NE(expect, nullptr) << "tick " << ref.t << " q" << id;
      auto pit = it->second.find(id);
      ASSERT_NE(pit, it->second.end()) << "tick " << ref.t << " q" << id;
      EXPECT_EQ(pit->second, *expect) << "tick " << ref.t << " q" << id;
    }
  }
}

TEST(NetServingTest, TenantQuotaRejectsDeterministically) {
  EventDatabase archive = BuildArchive(8);
  auto batches = ExtractBatches(archive);
  ASSERT_OK(batches.status());
  ServerOptions options;
  // 3 tokens, no refill: the 4th ingest must be shed, every time.
  options.tenant_quotas["metered"] = TenantQuota{3.0, 0.0};
  ServerUnderTest sut(archive, options);

  auto metered = Client::Connect("127.0.0.1", sut.server->port(), "metered");
  ASSERT_OK(metered.status());
  for (int i = 0; i < 3; ++i) {
    ASSERT_OK((*metered)->Ingest((*batches)[static_cast<size_t>(i)]));
  }
  Status s = (*metered)->Ingest((*batches)[3]);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  ASSERT_NE(s.GetPayload("wire_error"), nullptr);
  EXPECT_EQ(*s.GetPayload("wire_error"), "quota_exceeded");

  // The default tenant is not affected by the metered tenant's bucket.
  auto open = Client::Connect("127.0.0.1", sut.server->port());
  ASSERT_OK(open.status());
  ASSERT_OK((*open)->Ingest((*batches)[3]));

  NetStats net = sut.server->NetCounters();
  EXPECT_EQ(net.quota_rejected, 1u);
  bool found = false;
  for (const auto& [tenant, t] : net.tenants) {
    if (tenant != "metered") continue;
    found = true;
    EXPECT_EQ(t.ingest_frames, 3u);
    EXPECT_EQ(t.quota_rejected, 1u);
  }
  EXPECT_TRUE(found) << "per-tenant counters missing";
}

TEST(NetServingTest, BackpressureSurfacesWhenQueueIsFull) {
  EventDatabase archive = BuildArchive(4);
  auto batches = ExtractBatches(archive);
  ASSERT_OK(batches.status());
  auto cloned = CloneDeclarations(archive);
  ASSERT_OK(cloned.status());
  RuntimeOptions runtime_options = ServingRuntimeOptions();
  runtime_options.queue_capacity = 1;
  StreamRuntime runtime(cloned->get(), runtime_options);
  // Deliberately NOT started: nothing drains the queue, so the second
  // ingest deterministically hits a full queue.
  Server server(&runtime, ServerOptions{});
  ASSERT_OK(server.Start());
  auto client = Client::Connect("127.0.0.1", server.port());
  ASSERT_OK(client.status());
  ASSERT_OK((*client)->Ingest((*batches)[0]));
  Status s = (*client)->Ingest((*batches)[1]);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
  ASSERT_NE(s.GetPayload("wire_error"), nullptr);
  EXPECT_EQ(*s.GetPayload("wire_error"), "backpressure");
  EXPECT_EQ(server.NetCounters().backpressure_rejected, 1u);
  server.Stop();
  runtime.ingest().Close();
}

TEST(NetServingTest, SlowConsumerIsDisconnected) {
  EventDatabase archive = BuildArchive(4);
  ServerOptions options;
  // Big enough for the 7-byte kHelloOk, far too small for a kRegistered
  // reply: the bounded outbound buffer must drop the connection rather
  // than queue past its cap.
  options.outbound_buffer_limit = 16;
  ServerUnderTest sut(archive, options);
  auto client = Client::Connect("127.0.0.1", sut.server->port());
  ASSERT_OK(client.status());
  auto reg = (*client)->RegisterQuery(kQueries[0]);
  EXPECT_FALSE(reg.ok());  // server hung up instead of buffering
  EXPECT_EQ(sut.server->NetCounters().slow_disconnects, 1u);
}

TEST(NetServingTest, SubscribeUnknownQueryIsRejected) {
  EventDatabase archive = BuildArchive(4);
  ServerUnderTest sut(archive);
  auto client = Client::Connect("127.0.0.1", sut.server->port());
  ASSERT_OK(client.status());
  Status s = (*client)->Subscribe(999);
  ASSERT_FALSE(s.ok());
  ASSERT_NE(s.GetPayload("wire_error"), nullptr);
  EXPECT_EQ(*s.GetPayload("wire_error"), "rejected");
  // A real registration then subscribes fine on the same connection.
  auto reg = (*client)->RegisterQuery(kQueries[0]);
  ASSERT_OK(reg.status());
  EXPECT_OK((*client)->Subscribe(reg->id));
}

TEST(NetServingTest, TriggeredCheckpointRoundTrips) {
  const Timestamp horizon = 6;
  EventDatabase archive = BuildArchive(horizon);
  auto batches = ExtractBatches(archive);
  ASSERT_OK(batches.status());
  ServerOptions options;
  options.checkpoint_path =
      ::testing::TempDir() + "/net_serving_checkpoint.bin";
  ServerUnderTest sut(archive, options);
  auto client = Client::Connect("127.0.0.1", sut.server->port());
  ASSERT_OK(client.status());
  auto reg = (*client)->RegisterQuery(kQueries[0]);
  ASSERT_OK(reg.status());
  for (const TickBatch& b : *batches) {
    ASSERT_OK((*client)->Ingest(b));
  }
  ASSERT_TRUE(sut.runtime->WaitForTick(horizon, 30000ms));
  auto ck = (*client)->TriggerCheckpoint();
  ASSERT_OK(ck.status());
  EXPECT_EQ(ck->path, options.checkpoint_path);
  EXPECT_GT(ck->bytes, 0u);

  // The written snapshot restores into a fresh runtime at the same tick
  // with the same standing query.
  std::ifstream in(ck->path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::string snapshot((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(snapshot.size(), ck->bytes);
  auto fresh = CloneDeclarations(archive);
  ASSERT_OK(fresh.status());
  StreamRuntime restored(fresh->get(), ServingRuntimeOptions());
  ASSERT_OK(restored.Restore(snapshot));
  EXPECT_EQ(restored.tick(), horizon);
  EXPECT_TRUE(restored.HasQuery(reg->id));
}

TEST(NetServingTest, StatsJsonEscapesQueryText) {
  EventDatabase archive = BuildArchive(4);
  ServerUnderTest sut(archive);
  auto client = Client::Connect("127.0.0.1", sut.server->port());
  ASSERT_OK(client.status());
  // The string literal carries a double quote; unescaped it would break
  // the stats JSON.
  auto reg = (*client)->RegisterQuery("At('say \"hi\"', l : l = 'a')");
  ASSERT_OK(reg.status());
  auto json = (*client)->StatsJson();
  ASSERT_OK(json.status());
  EXPECT_NE(json->find("say \\\"hi\\\""), std::string::npos) << *json;
  EXPECT_EQ(json->find("say \"hi\""), std::string::npos) << *json;
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line\nbreak\ttab\rret"),
            "line\\nbreak\\ttab\\rret");
  EXPECT_EQ(JsonEscape(std::string("nul\x01", 4)), "nul\\u0001");
}

}  // namespace
}  // namespace net
}  // namespace lahar
