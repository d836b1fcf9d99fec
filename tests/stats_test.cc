// The stats export contract: ToJson (also the body of the wire kStats
// reply) is pinned byte for byte over a RuntimeStats built field by field,
// so a change to the field lists shows up here as an explicit golden diff.
#include <string>

#include <gtest/gtest.h>

#include "runtime/stats.h"

namespace lahar {
namespace {

LatencySummary Latency(uint64_t count, double base) {
  LatencySummary s;
  s.count = count;
  s.min_us = base;
  s.mean_us = base + 0.5;
  s.p50_us = base + 0.25;
  s.p99_us = base + 2;
  s.max_us = base + 3.125;
  return s;
}

RuntimeStats GoldenStats() {
  RuntimeStats s;
  s.tick = 42;
  s.ticks_processed = 41;
  s.num_queries = 1;
  s.total_chains = 3;
  s.num_threads = 2;
  s.queue_depth = 4;
  s.queue_capacity = 256;
  s.queue_dropped = 5;
  s.queue_closed_rejected = 6;
  s.batches_applied = 40;
  s.batches_rejected = 7;
  s.last_ingest_error = "beyond \"window\"";
  s.reorder_depth = 8;
  s.reorder_window = 64;
  s.reorder_late_dropped = 9;
  s.reorder_merged = 10;
  s.cpt_entries = 70;
  s.cpt_bytes = 71;
  s.class_counts = {{"Regular", 1}, {"Safe", 0}};
  s.class_latency = {{"Regular", Latency(41, 1)}};
  s.memo_entries = 11;
  s.memo_evictions = 12;
  s.rows_live = 13;
  s.row_evictions = 14;
  s.sharing_groups = 15;
  s.shared_steps_executed = 16;
  s.shared_steps_saved = 17;
  s.sharing_fanout_hist = {0, 2, 1};
  s.prepared_dedup_hits = 18;
  s.registrations_adopted = 72;
  s.registrations_replayed = 73;
  s.kernel_cache_hits = 19;
  s.kernel_cache_misses = 20;
  s.kernel_cache_entries = 21;
  s.simd_units = 22;
  s.stripe_steps = 23;
  s.stripe_fallbacks = 24;
  s.bytes_resident = 25;
  s.tick_latency = Latency(41, 10);
  s.windows_executed = 32;
  s.max_window_ticks = 16;
  s.window_size_hist = {1, 0, 3};
  s.steals = 33;
  s.split_placements = 34;
  s.rebalances = 35;
  s.plan_rebuilds = 36;
  s.barrier_wait = Latency(32, 0.125);
  s.net.connections = 2;
  s.net.total_connections = 3;
  s.net.frames_in = 37;
  s.net.frames_out = 38;
  s.net.bytes_in = 39;
  s.net.bytes_out = 40;
  s.net.protocol_errors = 41;
  s.net.quota_rejected = 42;
  s.net.backpressure_rejected = 43;
  s.net.slow_disconnects = 44;
  s.net.subscriptions = 45;
  NetTenantStats tenant;
  tenant.ingest_frames = 46;
  tenant.quota_rejected = 47;
  s.net.tenants.emplace_back("a\"b", tenant);
  QueryStats q;
  q.id = 7;
  q.text = "At('Joe', l : l = \"x\")";
  q.query_class = "Regular";
  q.engine = "regular";
  q.exact = false;
  q.num_chains = 3;
  q.ticks = 41;
  q.errors = 1;
  q.last_error = "boom";
  q.advance = Latency(41, 2);
  q.memo_entries = 48;
  q.memo_hits = 49;
  q.memo_misses = 50;
  q.memo_evictions = 51;
  q.rows_live = 52;
  q.row_evictions = 53;
  q.row_rebuilds = 54;
  q.kernel_hits = 55;
  q.kernel_misses = 56;
  q.shared_units = 57;
  q.simd_units = 58;
  q.stripe_steps = 59;
  q.stripe_fallbacks = 60;
  q.bytes_resident = 61;
  s.queries.push_back(q);
  ShardStats shard;
  shard.shard = 1;
  shard.ticks = 68;
  shard.chains_stepped = 69;
  shard.tick = Latency(68, 3);
  s.shards.push_back(shard);
  return s;
}

TEST(StatsExportTest, GoldenJson) {
  const std::string expected =
      "{\"tick\":42,\"ticks_processed\":41,\"queries\":1,\"chains\":3,"
      "\"threads\":2,\"queue_depth\":4,\"queue_capacity\":256,"
      "\"queue_dropped\":5,\"queue_closed_rejected\":6,"
      "\"batches_applied\":40,\"batches_rejected\":7,"
      "\"last_ingest_error\":\"beyond \\\"window\\\"\","
      "\"reorder_depth\":8,\"reorder_window\":64,"
      "\"reorder_late_dropped\":9,\"reorder_merged\":10,"
      "\"cpt_entries\":70,\"cpt_bytes\":71,"
      "\"windows_executed\":32,\"max_window_ticks\":16,\"steals\":33,"
      "\"split_placements\":34,\"rebalances\":35,\"plan_rebuilds\":36,"
      "\"window_size_hist\":[1,0,3],\"barrier_wait\":{\"count\":32,"
      "\"min_us\":0.125,\"mean_us\":0.625,\"p50_us\":0.375,"
      "\"p99_us\":2.125,\"max_us\":3.250},\"classes\":{\"Regular\":1,"
      "\"Safe\":0},\"safe_memo_entries\":11,\"safe_memo_hits\":0,"
      "\"safe_memo_misses\":0,\"safe_memo_evictions\":12,"
      "\"safe_rows_live\":13,\"safe_row_evictions\":14,"
      "\"safe_row_rebuilds\":0,\"bytes_resident\":25,"
      "\"sharing_groups\":15,\"shared_steps_executed\":16,"
      "\"shared_steps_saved\":17,\"prepared_dedup_hits\":18,"
      "\"registrations_adopted\":72,\"registrations_replayed\":73,"
      "\"kernel_cache_hits\":19,\"kernel_cache_misses\":20,"
      "\"kernel_cache_entries\":21,\"shared_units\":0,\"simd_units\":22,"
      "\"stripe_steps\":23,\"stripe_fallbacks\":24,"
      "\"sharing_fanout_hist\":[0,2,1],"
      "\"class_latency\":{\"Regular\":{\"count\":41,\"min_us\":1.000,"
      "\"mean_us\":1.500,\"p50_us\":1.250,\"p99_us\":3.000,"
      "\"max_us\":4.125}},\"net\":{\"connections\":2,"
      "\"total_connections\":3,\"subscriptions\":45,\"frames_in\":37,"
      "\"frames_out\":38,\"bytes_in\":39,\"bytes_out\":40,"
      "\"protocol_errors\":41,\"quota_rejected\":42,"
      "\"backpressure_rejected\":43,\"slow_disconnects\":44,"
      "\"tenants\":{\"a\\\"b\":{\"ingest\":46,\"quota_rejected\":47}}},"
      "\"query_stats\":[{\"id\":7,\"class\":\"Regular\","
      "\"engine\":\"regular\",\"exact\":false,\"units\":3,\"ticks\":41,"
      "\"errors\":1,\"kernel_hits\":55,\"kernel_misses\":56,"
      "\"shared_units\":57,\"simd_units\":58,\"stripe_steps\":59,"
      "\"stripe_fallbacks\":60,\"bytes_resident\":61,"
      "\"text\":\"At('Joe', l : l = \\\"x\\\")\",\"last_error\":\"boom\","
      "\"safe_memo_entries\":48,\"safe_memo_hits\":49,"
      "\"safe_memo_misses\":50,\"safe_memo_evictions\":51,"
      "\"safe_rows_live\":52,\"safe_row_evictions\":53,"
      "\"safe_row_rebuilds\":54,\"advance\":{\"count\":41,"
      "\"min_us\":2.000,\"mean_us\":2.500,\"p50_us\":2.250,"
      "\"p99_us\":4.000,\"max_us\":5.125}}],\"shards\":[{\"shard\":1,"
      "\"ticks\":68,\"chains_stepped\":69,\"tick\":{\"count\":68,"
      "\"min_us\":3.000,\"mean_us\":3.500,\"p50_us\":3.250,"
      "\"p99_us\":5.000,\"max_us\":6.125}}],"
      "\"tick_latency\":{\"count\":41,\"min_us\":10.000,"
      "\"mean_us\":10.500,\"p50_us\":10.250,\"p99_us\":12.000,"
      "\"max_us\":13.125}}";
  EXPECT_EQ(GoldenStats().ToJson(), expected);
}

// The text form walks the same field lists: one line per section, nested
// objects indented below, a key repeating its line's label shortened.
TEST(StatsExportTest, GoldenText) {
  const std::string expected =
      "runtime: tick=42 ticks_processed=41 queries=1 chains=3 threads=2\n"
      "  ingest: queue_depth=4 queue_capacity=256 queue_dropped=5 "
      "queue_closed_rejected=6 batches_applied=40 batches_rejected=7 "
      "last_ingest_error=beyond \"window\"\n"
      "  reorder: depth=8 window=64 late_dropped=9 merged=10\n"
      "  cpt: entries=70 bytes=71\n"
      "  windows: executed=32 max_window_ticks=16 steals=33 "
      "split_placements=34 rebalances=35 plan_rebuilds=36 "
      "window_size_hist=[1 0 3]\n"
      "  barrier_wait: count=32 min_us=0.125 mean_us=0.625 p50_us=0.375 "
      "p99_us=2.125 max_us=3.250\n"
      "  classes: Regular=1 Safe=0\n"
      "  safe: memo_entries=11 memo_hits=0 memo_misses=0 "
      "memo_evictions=12 rows_live=13 row_evictions=14 row_rebuilds=0\n"
      "  memory: bytes_resident=25\n"
      "  sharing: groups=15 shared_steps_executed=16 "
      "shared_steps_saved=17 prepared_dedup_hits=18 "
      "registrations_adopted=72 registrations_replayed=73 "
      "kernel_cache_hits=19 kernel_cache_misses=20 kernel_cache_entries=21 "
      "shared_units=0 "
      "simd_units=22 stripe_steps=23 stripe_fallbacks=24 "
      "fanout_hist=[0 2 1]\n"
      "  class_latency Regular: count=41 min_us=1.000 mean_us=1.500 "
      "p50_us=1.250 p99_us=3.000 max_us=4.125\n"
      "  net: connections=2 total_connections=3 subscriptions=45 "
      "frames_in=37 frames_out=38 bytes_in=39 bytes_out=40 "
      "protocol_errors=41 quota_rejected=42 backpressure_rejected=43 "
      "slow_disconnects=44\n"
      "    tenants a\"b: ingest=46 quota_rejected=47\n"
      "  query_stats: id=7 class=Regular engine=regular exact=false "
      "units=3 ticks=41 errors=1 kernel_hits=55 kernel_misses=56 "
      "text=At('Joe', l : l = \"x\") last_error=boom\n"
      "    sharing: shared_units=57 simd_units=58 stripe_steps=59 "
      "stripe_fallbacks=60\n"
      "    memory: bytes_resident=61\n"
      "    safe: memo_entries=48 memo_hits=49 memo_misses=50 "
      "memo_evictions=51 rows_live=52 row_evictions=53 row_rebuilds=54\n"
      "    advance: count=41 min_us=2.000 mean_us=2.500 p50_us=2.250 "
      "p99_us=4.000 max_us=5.125\n"
      "  shards: shard=1 ticks=68 chains_stepped=69\n"
      "    tick: count=68 min_us=3.000 mean_us=3.500 p50_us=3.250 "
      "p99_us=5.000 max_us=6.125\n"
      "  tick_latency: count=41 min_us=10.000 mean_us=10.500 "
      "p50_us=10.250 p99_us=12.000 max_us=13.125\n";
  EXPECT_EQ(GoldenStats().ToString(), expected);
}

TEST(StatsExportTest, AllZeroSectionsAreDropped) {
  RuntimeStats s;
  s.num_threads = 1;
  EXPECT_EQ(s.ToString(),
            "runtime: tick=0 ticks_processed=0 queries=0 chains=0 "
            "threads=1\n");
  // JSON keeps every zero counter (dashboards need no field probing)
  // except the net section, present only once a server has seen a
  // connection.
  const std::string json = s.ToJson();
  EXPECT_NE(json.find("\"safe_memo_entries\":0"), std::string::npos);
  EXPECT_NE(json.find("\"tick_latency\":{\"count\":0"), std::string::npos);
  EXPECT_EQ(json.find("\"net\""), std::string::npos);
}

TEST(StatsExportTest, SessionCountersSumFieldWise) {
  SessionCounters a;
  a.simd_units = 2;
  a.memo_hits = 5;
  a.row_rebuilds = 1;
  SessionCounters b = a;
  b.stripe_fallbacks = 3;
  a += b;
  EXPECT_EQ(a.simd_units, 4u);
  EXPECT_EQ(a.memo_hits, 10u);
  EXPECT_EQ(a.row_rebuilds, 2u);
  EXPECT_EQ(a.stripe_fallbacks, 3u);
  EXPECT_EQ(a.bytes_resident, 0u);
}

}  // namespace
}  // namespace lahar
