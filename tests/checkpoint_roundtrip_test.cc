// Checkpoint/restore tests: the binary database snapshot round-trips field
// for field, a restored runtime continues a mixed-class workload with
// bit-identical per-tick results, and a producer whose batch is rejected
// mid-stream can retry and make progress (the transactional-ingest
// guarantee end to end).
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <string>
#include <vector>

#include "common/serial.h"
#include "engine/extended_engine.h"
#include "runtime/checkpoint.h"
#include "runtime/executor.h"
#include "runtime/ingest.h"
#include "runtime/replay.h"
#include "test_util.h"

namespace lahar {
namespace {

using ::lahar::testing::AddIndependentStream;
using ::lahar::testing::AddMarkovStream;
using ::lahar::testing::ChainSession;
using ::lahar::testing::StepDist;
using namespace std::chrono_literals;

// A small mixed archive: two independent streams, one Markovian, one
// relation — enough to exercise every section of the snapshot.
EventDatabase BuildArchive(Timestamp horizon) {
  EventDatabase db;
  std::vector<StepDist> joe, sue;
  for (Timestamp t = 1; t <= horizon; ++t) {
    joe.push_back({{"a", 0.1 + 0.5 / t}, {"b", 0.2}});
    sue.push_back({{t % 2 == 0 ? "a" : "b", 0.6}});
  }
  AddIndependentStream(&db, "At", "Joe", joe);
  AddIndependentStream(&db, "At", "Sue", sue);
  AddMarkovStream(&db, "At", "Bob", {"a", "b", "c"}, horizon, 0.8);
  lahar::testing::AddRelation(&db, "Room", {{"a"}, {"b"}});
  return db;
}

TEST(DatabaseSnapshotTest, SaveLoadRoundTripsEveryField) {
  EventDatabase db = BuildArchive(5);
  serial::Writer w;
  ASSERT_OK(db.SaveTo(&w));
  serial::Reader r(w.str());
  auto loaded = EventDatabase::LoadFrom(&r);
  ASSERT_OK(loaded.status());
  EXPECT_TRUE(r.AtEnd());
  EventDatabase& out = **loaded;
  EXPECT_EQ(out.horizon(), db.horizon());
  EXPECT_EQ(out.num_streams(), db.num_streams());
  // Same symbol ids: queries prepared against either database agree.
  EXPECT_EQ(out.interner().Intern("Sue"), db.interner().Intern("Sue"));
  for (StreamId id = 0; id < db.num_streams(); ++id) {
    const Stream& src = db.stream(id);
    const Stream& dst = out.stream(id);
    ASSERT_EQ(dst.horizon(), src.horizon()) << "stream " << id;
    EXPECT_EQ(dst.markovian(), src.markovian());
    EXPECT_EQ(dst.domain_size(), src.domain_size());
    for (Timestamp t = 1; t <= src.horizon(); ++t) {
      // EXPECT_EQ on the vectors: bit-exact doubles, unset stays unset.
      EXPECT_EQ(dst.MarginalAt(t), src.MarginalAt(t))
          << "stream " << id << " t=" << t;
    }
  }
  const Relation* room = out.FindRelation(out.interner().Intern("Room"));
  ASSERT_NE(room, nullptr);
  EXPECT_EQ(room->size(), 2u);
  // Determinism: saving the loaded copy reproduces the exact bytes.
  serial::Writer w2;
  ASSERT_OK(out.SaveTo(&w2));
  EXPECT_EQ(w.str(), w2.str());
}

TEST(DatabaseSnapshotTest, TruncatedSnapshotFailsCleanly) {
  EventDatabase db = BuildArchive(3);
  serial::Writer w;
  ASSERT_OK(db.SaveTo(&w));
  const std::string bytes = w.str();
  for (size_t cut : {size_t{0}, size_t{4}, bytes.size() / 2,
                     bytes.size() - 1}) {
    serial::Reader r(std::string_view(bytes).substr(0, cut));
    EXPECT_FALSE(EventDatabase::LoadFrom(&r).ok()) << "cut=" << cut;
  }
}

// Queries covering every exact session class the runtime serves: Regular
// (single grounding), a sequence over a Markov stream, and Extended Regular
// (one chain per tag).
const std::vector<std::string> kQueries = {
    "At('Joe', l : l = 'a')",
    "At('Bob', l1 : l1 = 'a'); At('Bob', l2 : l2 = 'b')",
    "At(x, l : l = 'b')",
};

// Runs `archive` through a fresh runtime from tick 1 to `horizon`,
// checkpointing at `checkpoint_at` (0 = never), and returns (per-tick
// results, checkpoint bytes).
struct RunOutput {
  std::vector<TickResult> results;
  std::string snapshot;
};

RunOutput RunWithCheckpoint(const EventDatabase& archive,
                            Timestamp checkpoint_at,
                            const std::vector<std::string>& queries = kQueries) {
  RunOutput out;
  auto clone = CloneDeclarations(archive);
  EXPECT_TRUE(clone.ok());
  auto batches = ExtractBatches(archive);
  EXPECT_TRUE(batches.ok());
  RuntimeOptions options;
  options.num_threads = 2;
  StreamRuntime runtime(clone->get(), options);
  for (const std::string& q : queries) {
    EXPECT_TRUE(runtime.Register(q).ok());
  }
  runtime.SetTickCallback([&](const TickResult& r) {
    out.results.push_back(r);
    if (checkpoint_at != 0 && r.t == checkpoint_at) {
      auto snap = runtime.Checkpoint();  // callback-safe by contract
      EXPECT_TRUE(snap.ok()) << snap.status().ToString();
      if (snap.ok()) out.snapshot = *snap;
    }
  });
  runtime.Start();
  for (TickBatch& b : *batches) {
    EXPECT_OK(runtime.ingest().Push(std::move(b), 10000ms));
  }
  EXPECT_TRUE(runtime.WaitForTick(archive.horizon(), 10000ms));
  runtime.Stop();
  return out;
}

// Restores `snapshot` into a fresh runtime over a declarations clone, feeds
// it the ticks past `checkpoint_at`, and expects every published result to
// equal the uninterrupted run's bit for bit.
void ExpectResumesBitIdentically(const EventDatabase& archive,
                                 const std::string& snapshot,
                                 Timestamp checkpoint_at,
                                 const RunOutput& uninterrupted) {
  const Timestamp horizon = archive.horizon();
  auto clone = CloneDeclarations(archive);
  ASSERT_OK(clone.status());
  StreamRuntime resumed(clone->get(), RuntimeOptions{});
  ASSERT_OK(resumed.Restore(snapshot));
  EXPECT_EQ(resumed.tick(), checkpoint_at);

  std::vector<TickResult> tail;
  resumed.SetTickCallback([&](const TickResult& r) { tail.push_back(r); });
  resumed.Start();
  auto batches = ExtractBatches(archive);
  ASSERT_OK(batches.status());
  for (TickBatch& b : *batches) {
    if (b.t <= checkpoint_at) continue;  // history the checkpoint covers
    ASSERT_OK(resumed.ingest().Push(std::move(b), 10000ms));
  }
  ASSERT_TRUE(resumed.WaitForTick(horizon, 10000ms));
  resumed.Stop();

  ASSERT_EQ(tail.size(), horizon - checkpoint_at);
  for (size_t i = 0; i < tail.size(); ++i) {
    const TickResult& got = tail[i];
    const TickResult& want = uninterrupted.results[checkpoint_at + i];
    ASSERT_EQ(got.t, want.t);
    ASSERT_EQ(got.probs.size(), want.probs.size()) << "t=" << got.t;
    for (size_t q = 0; q < want.probs.size(); ++q) {
      EXPECT_EQ(got.probs[q].first, want.probs[q].first);
      // Bit-identical, not approximately equal: restore is exact.
      EXPECT_EQ(got.probs[q].second, want.probs[q].second)
          << "query " << want.probs[q].first << " at t=" << got.t;
    }
  }
}

TEST(CheckpointRoundTripTest, RestoredRuntimeContinuesBitIdentically) {
  const Timestamp kHorizon = 8;
  const Timestamp kCheckpointAt = 4;
  EventDatabase archive = BuildArchive(kHorizon);

  // Uninterrupted run: the reference per-tick probabilities.
  RunOutput uninterrupted = RunWithCheckpoint(archive, 0);
  ASSERT_EQ(uninterrupted.results.size(), kHorizon);

  // Interrupted run: same workload, checkpoint mid-stream.
  RunOutput interrupted = RunWithCheckpoint(archive, kCheckpointAt);
  ASSERT_EQ(interrupted.results.size(), kHorizon);
  ASSERT_FALSE(interrupted.snapshot.empty());

  // Restore into a fresh runtime and feed it the remaining ticks only.
  ExpectResumesBitIdentically(archive, interrupted.snapshot, kCheckpointAt,
                              uninterrupted);
}

TEST(CheckpointRoundTripTest, SafeSessionRestoresDirectStateBitIdentically) {
  // A safe plan's session serializes its incremental evaluator state
  // directly into the checkpoint (frontier chains, keyframes, witness
  // index) — no replay. The restored session must continue bit for bit,
  // including across witness gaps and past the restore point's keyframe.
  const Timestamp kHorizon = 10;
  const Timestamp kCheckpointAt = 6;
  const std::vector<std::string> safe_queries = {
      "R(x, u1); S(x, u2); T('a', y)"};

  EventDatabase archive;
  std::vector<StepDist> r1, r2, s1, s2, tt;
  for (Timestamp t = 1; t <= kHorizon; ++t) {
    r1.push_back({{"u", 0.1 + 0.07 * t}});
    r2.push_back(t % 3 == 0 ? StepDist{} : StepDist{{"u", 0.5}});
    s1.push_back({{"v", 0.8 - 0.05 * t}});
    s2.push_back({{"v", 0.3}});
    tt.push_back(t % 4 == 2 ? StepDist{{"w", 0.6}} : StepDist{});
  }
  AddIndependentStream(&archive, "R", "k1", r1);
  AddIndependentStream(&archive, "R", "k2", r2);
  AddIndependentStream(&archive, "S", "k1", s1);
  AddIndependentStream(&archive, "S", "k2", s2);
  AddIndependentStream(&archive, "T", "a", tt);

  RunOutput uninterrupted = RunWithCheckpoint(archive, 0, safe_queries);
  ASSERT_EQ(uninterrupted.results.size(), kHorizon);
  RunOutput interrupted =
      RunWithCheckpoint(archive, kCheckpointAt, safe_queries);
  ASSERT_FALSE(interrupted.snapshot.empty());

  ExpectResumesBitIdentically(archive, interrupted.snapshot, kCheckpointAt,
                              uninterrupted);
}

TEST(CheckpointRoundTripTest, CorruptOrTruncatedSnapshotFailsCleanly) {
  // A real snapshot with one query per class: Regular and Extended Regular
  // (direct chain state), Safe (direct plan state), Unsafe (sampled,
  // restored by catch-up). The CRC trailer rejects every truncation and
  // every single-byte corruption before the parser sees a byte.
  const Timestamp kHorizon = 8;
  const Timestamp kCheckpointAt = 5;
  EventDatabase archive = BuildArchive(kHorizon);
  std::vector<StepDist> r, s, tt;
  for (Timestamp t = 1; t <= kHorizon; ++t) {
    r.push_back({{"u", 0.1 + 0.07 * t}});
    s.push_back({{"v", 0.8 - 0.05 * t}});
    tt.push_back(t % 3 == 2 ? StepDist{{"w", 0.6}} : StepDist{});
  }
  AddIndependentStream(&archive, "R", "k1", r);
  AddIndependentStream(&archive, "S", "k1", s);
  AddIndependentStream(&archive, "T", "a", tt);
  const std::vector<std::string> queries = {
      "At('Joe', l : l = 'a')",                // Regular
      "At(x, l : l = 'b')",                    // Extended Regular
      "R(x, u1); S(x, u2); T('a', y)",         // Safe plan
      "(At(x, l1); At(y, l2)) WHERE l1 = l2",  // Unsafe -> sampling
  };

  RunOutput uninterrupted = RunWithCheckpoint(archive, 0, queries);
  ASSERT_EQ(uninterrupted.results.size(), kHorizon);
  RunOutput interrupted = RunWithCheckpoint(archive, kCheckpointAt, queries);
  const std::string& snapshot = interrupted.snapshot;
  ASSERT_FALSE(snapshot.empty());

  auto clone = CloneDeclarations(archive);
  ASSERT_OK(clone.status());
  for (size_t cut = 0; cut < snapshot.size(); ++cut) {
    StreamRuntime runtime(clone->get(), RuntimeOptions{});
    EXPECT_FALSE(runtime.Restore(snapshot.substr(0, cut)).ok())
        << "cut=" << cut;
  }
  for (size_t at = 0; at < snapshot.size(); ++at) {
    std::string flipped = snapshot;
    flipped[at] = static_cast<char>(flipped[at] ^ 0xFF);
    StreamRuntime runtime(clone->get(), RuntimeOptions{});
    EXPECT_FALSE(runtime.Restore(flipped).ok()) << "byte " << at;
  }
  ExpectResumesBitIdentically(archive, snapshot, kCheckpointAt,
                              uninterrupted);
}

TEST(CheckpointRoundTripTest, SealedSnapshotWithNaNCptEntryIsRefused) {
  // The CRC trailer catches corruption, not crafting: whoever writes the
  // bytes can seal them. Restore must still refuse a CPT entry that no
  // write path would have stored.
  EventDatabase archive = BuildArchive(4);
  RunOutput run = RunWithCheckpoint(archive, 2);
  ASSERT_FALSE(run.snapshot.empty());
  // Bob's CPT slice as Stream::SaveTo writes it (dims, then every entry
  // dense); all of Bob's slices are equal.
  const Matrix cpt = archive.stream(2).CptAt(1).ToDense();
  serial::Writer slice;
  slice.U64(cpt.rows());
  slice.U64(cpt.cols());
  for (size_t r = 0; r < cpt.rows(); ++r) {
    for (size_t c = 0; c < cpt.cols(); ++c) slice.F64(cpt.At(r, c));
  }
  const size_t at = run.snapshot.find(slice.str());
  ASSERT_NE(at, std::string::npos);
  auto reseal = [](std::string body) {
    body.resize(body.size() - kCheckpointTrailerBytes);
    serial::Writer crc;
    crc.U32(serial::Crc32(body));
    return body + crc.str();
  };
  auto restore = [&](const std::string& snapshot) {
    auto clone = CloneDeclarations(archive);
    EXPECT_TRUE(clone.ok());
    StreamRuntime runtime(clone->get(), RuntimeOptions{});
    return runtime.Restore(snapshot);
  };
  // Resealing alone changes nothing: the untouched bytes restore.
  ASSERT_OK(restore(reseal(run.snapshot)));
  std::string crafted = run.snapshot;
  serial::Writer nan;
  nan.F64(std::numeric_limits<double>::quiet_NaN());
  // Entry (1, 1): after the two u64 dims, one row of cols() doubles in.
  crafted.replace(at + 16 + 8 * (cpt.cols() + 1), 8, nan.str());
  const Status st = restore(reseal(crafted));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("probability"), std::string::npos)
      << st.ToString();
}

TEST(CheckpointRoundTripTest, RestoreGuardsBadInput) {
  EventDatabase archive = BuildArchive(3);
  auto clone = CloneDeclarations(archive);
  ASSERT_OK(clone.status());
  StreamRuntime runtime(clone->get(), RuntimeOptions{});
  EXPECT_FALSE(runtime.Restore("garbage").ok());
  serial::Writer w;
  w.U32(kCheckpointMagic);
  w.U32(kCheckpointVersion + 1);
  w.U32(serial::Crc32(w.str()));  // sealed, so the version check fires
  const Status future = runtime.Restore(w.str());
  EXPECT_NE(future.ToString().find("unsupported checkpoint version"),
            std::string::npos)
      << future.ToString();
  // A started runtime refuses to restore.
  auto clone2 = CloneDeclarations(archive);
  ASSERT_OK(clone2.status());
  RunOutput run = RunWithCheckpoint(archive, 2);
  ASSERT_FALSE(run.snapshot.empty());
  StreamRuntime started(clone2->get(), RuntimeOptions{});
  started.Start();
  EXPECT_FALSE(started.Restore(run.snapshot).ok());
  started.Stop();
}

TEST(IngestFaultInjectionTest, RejectedBatchRetriesWithoutWedgeOrDuplicates) {
  // A producer sends tick 2 with a malformed update for one stream: the
  // whole batch must be rejected (no half-applied horizons), and the
  // corrected retry must apply exactly once and un-wedge the pipeline.
  EventDatabase archive = BuildArchive(4);
  const std::string query = "At('Joe', l : l = 'a')";
  auto baseline = ChainSession(&archive, query);
  ASSERT_OK(baseline.status());
  std::vector<double> expected;
  for (Timestamp t = 1; t <= archive.horizon(); ++t) {
    auto p = baseline->Advance();
    ASSERT_OK(p.status());
    expected.push_back(*p);
  }

  auto clone = CloneDeclarations(archive);
  ASSERT_OK(clone.status());
  auto batches = ExtractBatches(archive);
  ASSERT_OK(batches.status());
  RuntimeOptions options;
  options.num_threads = 1;
  options.reorder_window = 0;  // strict: the fault surfaces immediately
  StreamRuntime runtime(clone->get(), options);
  auto id = runtime.Register(query);
  ASSERT_OK(id.status());
  runtime.Start();

  ASSERT_OK(runtime.ingest().Push(std::move((*batches)[0]), 10000ms));
  ASSERT_TRUE(runtime.WaitForTick(1, 10000ms));

  // Fault: tick 2's batch with stream 0's marginal corrupted (sums to 1.8).
  auto faulty = ExtractBatches(archive);
  ASSERT_OK(faulty.status());
  TickBatch bad = std::move((*faulty)[1]);
  ASSERT_FALSE(bad.updates.empty());
  bad.updates[0].marginal = {0.9, 0.9, 0.0};
  ASSERT_OK(runtime.ingest().Push(std::move(bad), 10000ms));

  // The rejection is observable and nothing advanced.
  for (int i = 0; i < 200; ++i) {
    if (runtime.Stats().batches_rejected > 0) break;
    std::this_thread::sleep_for(5ms);
  }
  RuntimeStats mid = runtime.Stats();
  EXPECT_EQ(mid.batches_rejected, 1u);
  EXPECT_FALSE(mid.last_ingest_error.empty());
  EXPECT_EQ(mid.tick, 1u);

  // Retry with the pristine batch, then stream the rest: everything
  // applies exactly once and the results match the uninterrupted baseline.
  for (size_t i = 1; i < batches->size(); ++i) {
    ASSERT_OK(runtime.ingest().Push(std::move((*batches)[i]), 10000ms));
  }
  ASSERT_TRUE(runtime.WaitForTick(archive.horizon(), 10000ms));
  runtime.Stop();
  RuntimeStats stats = runtime.Stats();
  EXPECT_EQ(stats.tick, archive.horizon());
  EXPECT_EQ(stats.batches_applied, 4u);
  EXPECT_EQ(stats.batches_rejected, 1u);
  auto latest = runtime.Latest();
  ASSERT_NE(latest, nullptr);
  const double* p = latest->Find(*id);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(*p, expected.back());
}

}  // namespace
}  // namespace lahar
