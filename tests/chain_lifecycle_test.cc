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
//
// The chain-state codec tests pin down the other half of the contract: a
// corrupt or truncated chain snapshot — in a raw engine snapshot, a safe
// session, or a runtime checkpoint — fails its load with a Status instead
// of crashing a later Step, and anything that does load steps to finite
// probabilities.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <functional>
#include <string>
#include <thread>
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
                                         const ChainOptions& opts) {
  return ExtendedRegularEngine::Create(MustPrepare(db, kQuery), *db, opts);
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
  ASSERT_EQ(dense->num_units(), 5u);
  EXPECT_FALSE(dense->lifecycle_enabled());
  EXPECT_TRUE(both->lifecycle_enabled());
  // Lazy engines materialize nothing until first evidence.
  EXPECT_EQ(lazy->num_resident(), 0u);
  EXPECT_EQ(both->num_stub(), 5u);

  for (Timestamp t = 1; t <= horizon; ++t) {
    const double pd = MustAdvance(*dense);
    const double pl = MustAdvance(*lazy);
    const double ps = MustAdvance(*spill);
    const double pb = MustAdvance(*both);
    EXPECT_EQ(pd, pl) << "t=" << t;
    EXPECT_EQ(pd, ps) << "t=" << t;
    EXPECT_EQ(pd, pb) << "t=" << t;
    for (size_t i = 0; i < dense->num_units(); ++i) {
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
  EXPECT_LT(both->num_resident(), dense->num_units());
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
    EXPECT_EQ(MustAdvance(*dense), MustAdvance(*live)) << "t=" << t;
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
    const double pd = MustAdvance(*dense);
    const double pl = MustAdvance(*live);
    const double pr = MustAdvance(*restored);
    EXPECT_EQ(pd, pl) << "t=" << t;
    EXPECT_EQ(pd, pr) << "t=" << t;
    for (size_t i = 0; i < dense->num_units(); ++i) {
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

  // Every engine below shares the prepared query's row pool.
  PreparedQuery prepared = MustPrepare(&db, kQuery);
  ChainOptions dense_opts;
  dense_opts.step_mode = KernelStepMode::kSimd;
  ChainOptions cycle_opts = Lifecycle(/*lazy=*/true, /*spill=*/true,
                                      /*cold_after=*/3);
  cycle_opts.step_mode = KernelStepMode::kSimd;

  auto dense = ExtendedRegularEngine::Create(prepared, db, dense_opts);
  ASSERT_OK(dense.status());
  EXPECT_GT(dense->num_simd(), 0u);
  std::vector<double> expect_probs;
  std::vector<std::vector<double>> expect_chains;
  for (Timestamp t = 1; t <= horizon; ++t) {
    expect_probs.push_back(MustAdvance(*dense));
    expect_chains.push_back(dense->chain_probs());
  }

  // Two lifecycle passes over the same (now fully slid) row window: every
  // row request below the pool's high-water mark is a rebuild.
  for (int pass = 0; pass < 2; ++pass) {
    auto cycle = ExtendedRegularEngine::Create(prepared, db, cycle_opts);
    ASSERT_OK(cycle.status());
    for (Timestamp t = 1; t <= horizon; ++t) {
      EXPECT_EQ(expect_probs[t - 1], MustAdvance(*cycle))
          << "pass=" << pass << " t=" << t;
      for (size_t i = 0; i < cycle->num_units(); ++i) {
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
  for (size_t i = 0; i < dense->num_units(); ++i) {
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

  PreparedQuery prepared = MustPrepare(&db, kQuery);
  ChainOptions simd_dense;
  simd_dense.step_mode = KernelStepMode::kSimd;
  ChainOptions simd_cycle = Lifecycle(/*lazy=*/true, /*spill=*/true,
                                      /*cold_after=*/3);
  simd_cycle.step_mode = KernelStepMode::kSimd;

  auto dense = ExtendedRegularEngine::Create(prepared, db, simd_dense);
  auto cycle = ExtendedRegularEngine::Create(prepared, db, simd_cycle);
  ASSERT_OK(dense.status());
  ASSERT_OK(cycle.status());
  EXPECT_EQ(dense->num_simd(), 2u);

  for (Timestamp t = 1; t <= horizon; ++t) {
    EXPECT_EQ(MustAdvance(*dense), MustAdvance(*cycle)) << "t=" << t;
    if (t == 5) {
      // Both keys loud and materialized: "w" was promoted onto the path
      // its options name.
      ASSERT_EQ(cycle->num_resident(), 2u);
      for (size_t i = 0; i < cycle->num_units(); ++i) {
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
  for (size_t i = 0; i < cycle->num_units(); ++i) {
    EXPECT_TRUE(cycle->chain(i).simd()) << "chain=" << i;
  }
  serial::Writer wd, wc;
  dense->SaveState(&wd);
  cycle->SaveState(&wc);
  EXPECT_EQ(wd.str(), wc.str());
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

TEST(ChainLifecycleTest, MarkovSlotsPromoteSpillAndRestoreBitIdentically) {
  // "m" is Markovian and certain-bottom at t = 1, so a lazy engine keeps it
  // as a stub until t = 2 and then promotes it with a Markovian hidden
  // slot; its stream ends at t = 12, after which it goes quiet and may
  // spill with that slot. The independent keys go cold and spill around it.
  const Timestamp horizon = 24;
  EventDatabase db;
  AddLateMarkovStream(&db, "m", 12);
  AddScheduledStream(&db, "cold", horizon,
                     [](Timestamp t) { return t <= 3; });
  AddScheduledStream(&db, "wake", horizon,
                     [](Timestamp t) { return t <= 2 || t > 18; });
  AddScheduledStream(&db, "never", horizon, [](Timestamp) { return false; });

  const std::vector<ChainOptions> configs = {
      ChainOptions{}, Lifecycle(/*lazy=*/true, /*spill=*/false, 3),
      Lifecycle(/*lazy=*/false, /*spill=*/true, 3)};
  std::vector<ExtendedRegularEngine> engines;
  for (const ChainOptions& opts : configs) {
    auto e = MakeEngine(&db, opts);
    ASSERT_OK(e.status());
    engines.push_back(std::move(*e));
  }
  ExtendedRegularEngine& dense = engines[0];
  ExtendedRegularEngine& lazy = engines[1];
  ExtendedRegularEngine& spill = engines[2];
  ASSERT_EQ(dense.num_units(), 4u);

  std::vector<double> expected(horizon + 1, 0.0);
  std::vector<std::string> snaps(horizon + 1);
  for (Timestamp t = 1; t <= horizon; ++t) {
    expected[t] = MustAdvance(dense);
    serial::Writer wd;
    dense.SaveState(&wd);
    snaps[t] = wd.str();
    for (size_t c = 1; c < engines.size(); ++c) {
      EXPECT_EQ(expected[t], MustAdvance(engines[c]))
          << "config=" << c << " t=" << t;
      serial::Writer w;
      engines[c].SaveState(&w);
      EXPECT_EQ(snaps[t], w.str()) << "config=" << c << " t=" << t;
    }
    if (t == 1) {
      EXPECT_EQ(lazy.num_stub(), 2u);  // "m" and "never"
    } else if (t == 2) {
      EXPECT_EQ(lazy.num_stub(), 1u);  // "m" promoted
    }
  }
  for (const ExtendedRegularEngine& e : engines) ASSERT_OK(e.ChainStatus());
  EXPECT_GE(lazy.promotions(), 3u);
  EXPECT_GE(spill.spills(), 2u);
  EXPECT_GE(spill.rehydrations(), 1u);  // "wake" at t = 19
  // Only "wake" is loud at the end: "m" parked with its Markovian slot.
  EXPECT_EQ(spill.num_resident(), 1u);

  // Every tick's snapshot restores into every configuration and continues
  // bit-identically to the uninterrupted dense run.
  for (Timestamp at = 1; at < horizon; ++at) {
    for (size_t c = 0; c < configs.size(); ++c) {
      auto restored = MakeEngine(&db, configs[c]);
      ASSERT_OK(restored.status());
      serial::Reader r(snaps[at]);
      ASSERT_OK(restored->LoadState(&r));
      for (Timestamp t = at + 1; t <= horizon; ++t) {
        EXPECT_EQ(expected[t], MustAdvance(*restored))
            << "config=" << c << " restored at " << at << " t=" << t;
      }
      ASSERT_OK(restored->ChainStatus());
      serial::Writer w;
      restored->SaveState(&w);
      EXPECT_EQ(snaps[horizon], w.str())
          << "config=" << c << " restored at " << at;
    }
  }
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
Status LoadOneChain(const ChainOptions& opts, const std::string& snapshot) {
  EventDatabase db;
  AddScheduledStream(&db, "solo", 6, [](Timestamp) { return true; });
  auto engine = MakeEngine(&db, opts);
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
  const std::vector<ChainOptions> configs = {
      ChainOptions{}, Lifecycle(/*lazy=*/false, /*spill=*/true),
      Lifecycle(/*lazy=*/true, /*spill=*/true)};
  for (size_t c = 0; c < configs.size(); ++c) {
    // Controls: the initial state loads and steps, with and without the
    // accepted flag under tracking.
    EXPECT_OK(LoadOneChain(configs[c], OneChainSnapshot(1, 1.0, 0)));
    // Rounding can leave a certain entry one ulp above 1.
    EXPECT_OK(LoadOneChain(configs[c],
                           OneChainSnapshot(1, std::nextafter(1.0, 2.0), 0)));
    EXPECT_OK(
        LoadOneChain(configs[c], OneChainSnapshot(1 | kAcceptedFlag, 1.0, 1)));
    for (const Case& k : bad) {
      const Status s = LoadOneChain(configs[c], k.snapshot);
      EXPECT_EQ(s.code(), StatusCode::kInvalidArgument)
          << "config=" << c << " " << k.what << ": " << s.ToString();
    }
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
                            Timestamp ticks, const ChainOptions& chain) {
  auto live = CloneDeclarations(archive);
  EXPECT_TRUE(live.ok());
  auto batches = ExtractBatches(archive);
  EXPECT_TRUE(batches.ok());
  RuntimeOptions options;
  options.num_threads = 1;
  options.session.chain = chain;
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
      CheckpointAfter(archive, queries, 4, ChainOptions{});
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
  // Extended query, checkpointed by runtimes with default and lazy + spill
  // chain options. Every truncation and every single-byte flip of each
  // blob must either fail LoadState with a Status or load into a session
  // that then advances five ticks to finite probabilities.
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

  for (const ChainOptions& chain :
       {ChainOptions{}, Lifecycle(/*lazy=*/true, /*spill=*/true, 2)}) {
    auto parts = SplitCheckpoint(CheckpointAfter(archive, queries, at, chain));
    ASSERT_OK(parts.status());
    ASSERT_EQ(parts->queries.size(), queries.size());
    LaharOptions opts;
    opts.chain = chain;
    for (const CheckpointParts::Query& q : parts->queries) {
      ASSERT_EQ(q.has_state, 1u) << q.text;
      auto prepared = PrepareQuery(q.text, &archive);
      ASSERT_OK(prepared.status());
      // Returns LoadState's status; a load that succeeds must advance.
      auto load = [&](std::string_view bytes) -> Status {
        auto session = CreateQuerySession(&archive, *prepared, opts);
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
    auto session =
        ExtendedRegularEngine::Create(MustPrepare(&archive, queries[i]),
                                      archive);
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
