// Chain state of the Regular and Extended Regular engines: every engine
// snapshot restores and continues bit-identically, shared transition rows
// rebuild deterministically after eviction, and stripe-aware sharding keeps
// lane-interleaved stripes whole under the streaming runtime.
//
// The chain-state codec tests pin down the other half of the contract: a
// corrupt or truncated chain snapshot — in a raw engine snapshot, a safe
// session, or a runtime checkpoint — fails its load with a Status instead
// of crashing a later Step, and anything that does load steps to finite
// probabilities. The runtime-labeled tests run under the tsan/asan presets.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/prepared.h"
#include "automaton/rows.h"
#include "common/serial.h"
#include "engine/extended_engine.h"
#include "engine/lahar.h"
#include "engine/session.h"
#include "runtime/executor.h"
#include "runtime/replay.h"
#include "test_util.h"

namespace lahar {
namespace {

using namespace std::chrono_literals;

using ::lahar::testing::AddIndependentStream;
using ::lahar::testing::AddMarkovStream;
using ::lahar::testing::MustAdvance;
using ::lahar::testing::MustPrepare;
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
                                         const ChainOptions& opts = {}) {
  return ExtendedRegularEngine::Create(MustPrepare(db, kQuery), *db, opts);
}

// A Markovian At-stream for `key` that is certainly absent at t = 1 and
// moves between bottom, 'a' and 'b' from t = 2 on (exact binary fractions).
void AddLateMarkovStream(EventDatabase* db, const std::string& key,
                         Timestamp horizon) {
  ::lahar::testing::DeclareUnarySchema(db, "At");
  Stream s(db->interner().Intern("At"), {db->Sym(key)}, 1, horizon,
           /*markovian=*/true);
  s.InternTuple({db->Sym("a")});
  s.InternTuple({db->Sym("b")});
  EXPECT_TRUE(s.SetInitial({1.0, 0.0, 0.0}).ok());
  Matrix cpt(3, 3, 0.0);
  cpt.At(0, 0) = 0.5;
  cpt.At(0, 1) = 0.25;
  cpt.At(0, 2) = 0.25;
  cpt.At(1, 1) = 0.75;
  cpt.At(1, 2) = 0.25;
  cpt.At(2, 0) = 0.5;
  cpt.At(2, 2) = 0.5;
  for (Timestamp t = 1; t < horizon; ++t) EXPECT_TRUE(s.SetCpt(t, cpt).ok());
  EXPECT_TRUE(s.FinalizeMarkov().ok());
  EXPECT_TRUE(db->AddStream(std::move(s)).ok());
}

TEST(ChainStateTest, MarkovSlotsRestoreAtEveryTickBitIdentically) {
  // "m" is Markovian and certain-bottom at t = 1, so its chain carries a
  // Markovian hidden slot; its stream ends at t = 12, after which it only
  // sees certain-bottom input. The independent keys go quiet and wake up
  // around it. Every step path must snapshot and restore at every tick.
  const Timestamp horizon = 24;
  EventDatabase db;
  AddLateMarkovStream(&db, "m", 12);
  AddScheduledStream(&db, "cold", horizon,
                     [](Timestamp t) { return t <= 3; });
  AddScheduledStream(&db, "wake", horizon,
                     [](Timestamp t) { return t <= 2 || t > 18; });
  AddScheduledStream(&db, "never", horizon, [](Timestamp) { return false; });

  for (KernelStepMode mode : {KernelStepMode::kAuto, KernelStepMode::kScalar,
                              KernelStepMode::kSimd}) {
    SCOPED_TRACE("step mode " + std::to_string(static_cast<int>(mode)));
    ChainOptions opts;
    opts.step_mode = mode;
    auto live = MakeEngine(&db, opts);
    ASSERT_OK(live.status());
    ASSERT_EQ(live->num_units(), 4u);
    if (mode == KernelStepMode::kSimd) {
      EXPECT_GT(live->num_simd(), 0u);
    }

    std::vector<double> expected(horizon + 1, 0.0);
    std::vector<std::vector<double>> expected_chains(horizon + 1);
    std::vector<std::string> snaps(horizon + 1);
    for (Timestamp t = 1; t <= horizon; ++t) {
      expected[t] = MustAdvance(*live);
      expected_chains[t] = live->chain_probs();
      serial::Writer w;
      ASSERT_OK(live->SaveState(&w));
      snaps[t] = w.str();
    }
    ASSERT_OK(live->ChainStatus());

    // Every tick's snapshot restores into a fresh engine, which keeps its
    // step path and continues bit-identically to the uninterrupted run.
    for (Timestamp at = 1; at < horizon; ++at) {
      auto restored = MakeEngine(&db, opts);
      ASSERT_OK(restored.status());
      serial::Reader r(snaps[at]);
      ASSERT_OK(restored->LoadState(&r));
      EXPECT_EQ(restored->time(), at);
      EXPECT_EQ(restored->num_simd(), live->num_simd());
      for (Timestamp t = at + 1; t <= horizon; ++t) {
        EXPECT_EQ(expected[t], MustAdvance(*restored))
            << "restored at " << at << " t=" << t;
        EXPECT_EQ(expected_chains[t], restored->chain_probs())
            << "restored at " << at << " t=" << t;
      }
      ASSERT_OK(restored->ChainStatus());
      serial::Writer w;
      ASSERT_OK(restored->SaveState(&w));
      EXPECT_EQ(snaps[horizon], w.str()) << "restored at " << at;
    }
  }
}

TEST(RowPoolTest, EvictionRebuildsDeterministically) {
  // Shared-pool transition rows keep a small residency window per class
  // (automaton/rows.h kMaxResident); an engine stepping behind another
  // engine's clock re-requests evicted timesteps and must rebuild them
  // bit-identically.
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

  // Every engine below shares the prepared query's row pool.
  PreparedQuery prepared = MustPrepare(&db, kQuery);
  ChainOptions opts;
  opts.step_mode = KernelStepMode::kSimd;

  auto first = ExtendedRegularEngine::Create(prepared, db, opts);
  ASSERT_OK(first.status());
  EXPECT_GT(first->num_simd(), 0u);
  std::vector<double> expect_probs;
  std::vector<std::vector<double>> expect_chains;
  for (Timestamp t = 1; t <= horizon; ++t) {
    expect_probs.push_back(MustAdvance(*first));
    expect_chains.push_back(first->chain_probs());
  }

  // Two more passes over the same (now fully slid) row window: every row
  // request below the pool's high-water mark is a rebuild.
  for (int pass = 0; pass < 2; ++pass) {
    auto again = ExtendedRegularEngine::Create(prepared, db, opts);
    ASSERT_OK(again.status());
    for (Timestamp t = 1; t <= horizon; ++t) {
      EXPECT_EQ(expect_probs[t - 1], MustAdvance(*again))
          << "pass=" << pass << " t=" << t;
      for (size_t i = 0; i < again->num_units(); ++i) {
        EXPECT_EQ(expect_chains[t - 1][i], again->chain_probs()[i])
            << "pass=" << pass << " t=" << t << " chain=" << i;
      }
    }
    ASSERT_OK(again->ChainStatus());
    serial::Writer wa, wf;
    again->SaveState(&wa);
    first->SaveState(&wf);
    EXPECT_EQ(wf.str(), wa.str()) << "pass=" << pass;
  }

  // The first engine's chains hold the same shared row classes the later
  // passes rebuilt into; the eviction churn must be visible.
  uint64_t rebuilds = 0;
  std::unordered_set<const TransitionRowClass*> seen;
  for (size_t i = 0; i < first->num_units(); ++i) {
    const auto& cls = first->chain(i).row_class();
    if (cls != nullptr && seen.insert(cls.get()).second) {
      rebuilds += cls->rebuilds();
    }
  }
  EXPECT_GT(rebuilds, 0u);
}

// --- chain-state codec: corrupt snapshots fail cleanly --------------------

constexpr StateMask kBeyondAutomaton = (StateMask{1} << 40) | 1;
constexpr StateMask kAcceptedFlag = StateMask{1} << 63;

// A one-binding engine snapshot at t = 0 whose chain holds `entries`
// entries of (mask, p) under `track`, with no Markovian slots.
std::string OneChainSnapshot(StateMask mask, double p, uint8_t track,
                             uint64_t entries = 1) {
  serial::Writer w;
  w.U32(0);            // engine clock
  w.DoubleVec({0.0});  // per-chain probabilities
  w.U64(1);            // chains
  w.U32(0);            // chain clock
  w.U8(track);
  w.U64(0);  // Markovian slots
  w.U64(entries);
  w.U64(mask);
  w.F64(p);
  return w.str();
}

// Loads OneChainSnapshot into a fresh one-binding engine; a snapshot that
// loads must then step to valid probabilities.
Status LoadOneChain(const std::string& snapshot) {
  EventDatabase db;
  AddScheduledStream(&db, "solo", 6, [](Timestamp) { return true; });
  auto engine = MakeEngine(&db);
  if (!engine.ok()) return engine.status();
  serial::Reader r(snapshot);
  LAHAR_RETURN_NOT_OK(engine->LoadState(&r));
  for (int k = 0; k < 3; ++k) {
    LAHAR_ASSIGN_OR_RETURN(const double p, engine->Advance());
    if (!ChainState::ValidProb(p)) {
      return Status::Internal("stepped to " + std::to_string(p));
    }
  }
  return engine->ChainStatus();
}

TEST(ChainStateCodecTest, CorruptChainEntriesFailLoadCleanly) {
  struct Case {
    const char* what;
    std::string snapshot;
  };
  const std::vector<Case> bad = {
      {"mask beyond the automaton", OneChainSnapshot(kBeyondAutomaton, 1, 0)},
      {"NaN probability", OneChainSnapshot(1, std::nan(""), 0)},
      {"negative probability", OneChainSnapshot(1, -5.0, 0)},
      {"probability above one", OneChainSnapshot(1, 2.0, 0)},
      {"accepted flag without tracking",
       OneChainSnapshot(1 | kAcceptedFlag, 1.0, 0)},
      {"track byte other than 0/1", OneChainSnapshot(1, 1.0, 2)},
      {"entry count past the end",
       OneChainSnapshot(1, 1.0, 0, uint64_t{1} << 60)},
  };
  // Controls: the initial state loads and steps, with and without the
  // accepted flag under tracking.
  EXPECT_OK(LoadOneChain(OneChainSnapshot(1, 1.0, 0)));
  // Rounding can leave a certain entry one ulp above 1.
  EXPECT_OK(LoadOneChain(OneChainSnapshot(1, std::nextafter(1.0, 2.0), 0)));
  EXPECT_OK(LoadOneChain(OneChainSnapshot(1 | kAcceptedFlag, 1.0, 1)));
  for (const Case& k : bad) {
    const Status s = LoadOneChain(k.snapshot);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument)
        << k.what << ": " << s.ToString();
  }
}

// Offset of the first entry's mask in the first chain encoding inside
// `blob` that has no Markovian slots: u32 t, u8 track, u64 slots = 0,
// u64 n, then n (u64 mask, f64 p) entries. Found by scanning for the first
// offset where that layout parses with plausible values (start state in
// the first mask, first p in (0, 1]); npos when none does.
size_t FindChainEntry(const std::string& blob, Timestamp max_t) {
  for (size_t o = 0; o < blob.size(); ++o) {
    serial::Reader r(std::string_view(blob).substr(o));
    uint32_t t;
    uint8_t track;
    uint64_t slots, n, mask;
    double p;
    if (r.U32(&t).ok() && t <= max_t && r.U8(&track).ok() && track <= 1 &&
        r.U64(&slots).ok() && slots == 0 && r.U64(&n).ok() && n >= 1 &&
        n <= 64 && r.remaining() >= n * 16 && r.U64(&mask).ok() &&
        (mask & 1) != 0 && mask < (StateMask{1} << 32) && r.F64(&p).ok() &&
        p > 0.0 && p <= 1.0) {
      return o + 4 + 1 + 8 + 8;
    }
  }
  return std::string::npos;
}

void OverwriteU64(std::string* blob, size_t offset, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*blob)[offset + i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
}

TEST(ChainStateCodecTest, SafeRegLeafWithBadMaskFailsLoad) {
  const Timestamp horizon = 8;
  EventDatabase db;
  std::vector<StepDist> r1, s1, tt;
  for (Timestamp t = 1; t <= horizon; ++t) {
    r1.push_back({{"u", 0.5}});
    s1.push_back({{"v", 0.25}});
    tt.push_back(t % 2 == 0 ? StepDist{{"w", 0.5}} : StepDist{});
  }
  AddIndependentStream(&db, "R", "k1", r1);
  AddIndependentStream(&db, "S", "k1", s1);
  AddIndependentStream(&db, "T", "a", tt);
  auto prepared = PrepareQuery("R(x, u1); S(x, u2); T('a', y)", &db);
  ASSERT_OK(prepared.status());
  LaharOptions opts;
  opts.allow_sampling_fallback = false;
  auto session = CreateQuerySession(&db, *prepared, opts);
  ASSERT_OK(session.status());
  ASSERT_EQ((*session)->engine_kind(), EngineKind::kSafePlan);
  for (int k = 0; k < 4; ++k) ASSERT_OK((*session)->Advance().status());
  serial::Writer w;
  ASSERT_OK((*session)->SaveState(&w));
  std::string blob = w.str();

  auto fresh = [&] {
    auto s = CreateQuerySession(&db, *prepared, opts);
    EXPECT_TRUE(s.ok());
    return std::move(*s);
  };
  {
    serial::Reader r(blob);
    ASSERT_OK(fresh()->LoadState(&r));  // control
  }
  const size_t at = FindChainEntry(blob, 4);
  ASSERT_NE(at, std::string::npos);
  OverwriteU64(&blob, at, kBeyondAutomaton);
  serial::Reader r(blob);
  const Status s = fresh()->LoadState(&r);
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.ToString().find("beyond the automaton"), std::string::npos)
      << s.ToString();
}

// A runtime checkpoint split at its per-query section (runtime/checkpoint.h).
struct CheckpointParts {
  std::string head;  // magic through the query count
  struct Query {
    uint64_t id = 0;
    std::string text;
    uint8_t has_state = 0;
    std::string blob;
  };
  std::vector<Query> queries;

  // Reassembles the snapshot and reseals it with a fresh CRC trailer, so
  // an edited blob reaches the session parser.
  std::string Join() const {
    serial::Writer w;
    for (const Query& q : queries) {
      w.U64(q.id);
      w.Str(q.text);
      w.U8(q.has_state);
      if (q.has_state != 0) w.Str(q.blob);
    }
    const std::string body = head + w.str();
    serial::Writer trailer;
    trailer.U32(serial::Crc32(body));
    return body + trailer.str();
  }
};

Result<CheckpointParts> SplitCheckpoint(const std::string& snapshot) {
  serial::Reader r(snapshot);
  uint32_t word;
  LAHAR_RETURN_NOT_OK(r.U32(&word));  // magic
  LAHAR_RETURN_NOT_OK(r.U32(&word));  // version
  LAHAR_RETURN_NOT_OK(EventDatabase::LoadFrom(&r).status());
  LAHAR_RETURN_NOT_OK(r.U32(&word));  // tick
  uint64_t n;
  LAHAR_RETURN_NOT_OK(r.U64(&n));
  for (uint64_t i = 0; i < n; ++i) LAHAR_RETURN_NOT_OK(r.U32(&word));
  LAHAR_RETURN_NOT_OK(r.U64(&n));
  CheckpointParts parts;
  parts.head = snapshot.substr(0, snapshot.size() - r.remaining());
  parts.queries.resize(n);
  for (CheckpointParts::Query& q : parts.queries) {
    LAHAR_RETURN_NOT_OK(r.U64(&q.id));
    LAHAR_RETURN_NOT_OK(r.Str(&q.text));
    LAHAR_RETURN_NOT_OK(r.U8(&q.has_state));
    if (q.has_state != 0) LAHAR_RETURN_NOT_OK(r.Str(&q.blob));
  }
  return parts;
}

// Feeds `archive`'s first `ticks` batches through a one-thread runtime
// serving `queries` and returns the checkpoint taken after it stopped.
std::string CheckpointAfter(const EventDatabase& archive,
                            const std::vector<std::string>& queries,
                            Timestamp ticks) {
  auto live = CloneDeclarations(archive);
  EXPECT_TRUE(live.ok());
  auto batches = ExtractBatches(archive);
  EXPECT_TRUE(batches.ok());
  RuntimeOptions options;
  options.num_threads = 1;
  StreamRuntime runtime(live->get(), options);
  for (const std::string& q : queries) EXPECT_TRUE(runtime.Register(q).ok());
  runtime.Start();
  for (Timestamp t = 0; t < ticks; ++t) {
    EXPECT_OK(runtime.ingest().Push(std::move((*batches)[t]), 10000ms));
  }
  EXPECT_TRUE(runtime.WaitForTick(ticks, 10000ms));
  runtime.Stop();
  auto snap = runtime.Checkpoint();
  EXPECT_TRUE(snap.ok());
  return snap.ok() ? *snap : std::string();
}

TEST(ChainStateCodecTest, RuntimeRestoreRejectsBadChainBlob) {
  const Timestamp horizon = 8;
  EventDatabase archive;
  AddScheduledStream(&archive, "k0", horizon, [](Timestamp) { return true; });
  const std::vector<std::string> queries = {"At('k0', l : l = 'a')"};
  const std::string snapshot =
      CheckpointAfter(archive, queries, 4);
  auto parts = SplitCheckpoint(snapshot);
  ASSERT_OK(parts.status());
  ASSERT_EQ(parts->queries.size(), 1u);
  ASSERT_EQ(parts->queries[0].has_state, 1u);
  ASSERT_EQ(parts->Join(), snapshot);

  const size_t at = FindChainEntry(parts->queries[0].blob, 4);
  ASSERT_NE(at, std::string::npos);
  OverwriteU64(&parts->queries[0].blob, at, kBeyondAutomaton);
  auto clone = CloneDeclarations(archive);
  ASSERT_OK(clone.status());
  StreamRuntime runtime(clone->get(), RuntimeOptions{});
  const Status s = runtime.Restore(parts->Join());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s.ToString();
  EXPECT_NE(s.ToString().find("beyond the automaton"), std::string::npos)
      << s.ToString();
}

TEST(ChainStateCodecTest, ByteCorruptionSweepFailsOrStaysFinite) {
  // Real session blobs of a Regular query (over a Markovian key) and an
  // Extended query, checkpointed by a runtime. Every truncation and every
  // single-byte flip of each blob must either fail LoadState with a Status
  // or load into a session that then advances five ticks to finite
  // probabilities.
  const Timestamp horizon = 14;
  const Timestamp at = 8;
  EventDatabase archive;
  AddLateMarkovStream(&archive, "m", horizon);
  AddScheduledStream(&archive, "cold", horizon,
                     [](Timestamp t) { return t <= 2; });
  AddScheduledStream(&archive, "busy", horizon,
                     [](Timestamp t) { return t % 3 != 0; });
  AddScheduledStream(&archive, "never", horizon,
                     [](Timestamp) { return false; });
  const std::vector<std::string> queries = {
      "At('m', l1 : l1 = 'a'); At('m', l2 : l2 = 'b')", kQuery};

  auto parts = SplitCheckpoint(CheckpointAfter(archive, queries, at));
  ASSERT_OK(parts.status());
  ASSERT_EQ(parts->queries.size(), queries.size());
  for (const CheckpointParts::Query& q : parts->queries) {
    ASSERT_EQ(q.has_state, 1u) << q.text;
    auto prepared = PrepareQuery(q.text, &archive);
    ASSERT_OK(prepared.status());
    // Returns LoadState's status; a load that succeeds must advance.
    auto load = [&](std::string_view bytes) -> Status {
      auto session = CreateQuerySession(&archive, *prepared, LaharOptions{});
      LAHAR_RETURN_NOT_OK(session.status());
      serial::Reader r(bytes);
      LAHAR_RETURN_NOT_OK((*session)->LoadState(&r));
      for (int k = 0; k < 5; ++k) {
        auto p = (*session)->Advance();
        EXPECT_TRUE(p.ok()) << p.status().ToString();
        if (!p.ok()) break;
        EXPECT_TRUE(std::isfinite(*p)) << *p;
      }
      return Status::OK();
    };
    ASSERT_OK(load(q.blob));  // control: the intact blob loads
    for (size_t o = 0; o < q.blob.size(); ++o) {
      SCOPED_TRACE(q.text + " offset " + std::to_string(o));
      EXPECT_FALSE(load(std::string_view(q.blob).substr(0, o)).ok());
      std::string flipped = q.blob;
      flipped[o] = static_cast<char>(flipped[o] ^ 0xFF);
      (void)load(flipped);
    }
  }
}

// --- runtime stress (tsan/asan presets) -----------------------------------

// Drives a striped heavy session through the concurrent executor while
// registration churn forces shard-plan rebuilds and steals, then asserts
// the stripe counters match a sequential replay exactly: shard splits
// aligned on UnitGroupEnd never shear a stripe, so whole-stripe steps and
// data-dependent fallbacks are scheduler-independent.
TEST(StripedShardingStressTest, StripedShardsSurviveRebalanceChurn) {
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

  // Sequential ground truth with the same chain options.
  auto prepared = PrepareQuery(heavy, &archive);
  ASSERT_OK(prepared.status());
  auto reference =
      ExtendedRegularEngine::Create(*prepared, archive, chain_opts);
  ASSERT_OK(reference.status());
  std::vector<double> expected;
  for (Timestamp t = 1; t <= horizon; ++t) {
    auto p = reference->Advance();
    ASSERT_OK(p.status());
    expected.push_back(*p);
  }
  ASSERT_GT(reference->num_striped(), 0u);
  const uint64_t seq_stripe_steps = reference->stripe_steps();
  const uint64_t seq_stripe_fallbacks = reference->stripe_fallbacks();
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

}  // namespace
}  // namespace lahar
