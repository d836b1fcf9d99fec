// Long-horizon safe-plan serving: per-tick latency and memory behaviour of
// a SafePlanEngine session over a 100k-tick stream (2k with --smoke).
//
// One safe query — "R(x, u1); S(x, u2); T('a', y)", the seq-over-project
// shape — served tick by tick in two modes over bit-identical feeds:
//
//   mode=incremental  the sparse seq kernels + bounded memos (default)
//   mode=reference    SafePlanOptions::incremental = false — the dense
//                     Eq. (3) loops, O(t) per tick (the pre-optimization
//                     serving cost, kept selectable for verification)
//
// R/S are dense (a witness-truncation window keeps the live precursor set
// bounded); T is sparse (fires every 16th tick), so the witness index has
// real zero gaps to skip. Both modes must produce bit-identical per-tick
// probabilities — any mismatch is a hard failure, making this bench double
// as the equivalence cross-check at a horizon the unit tests can't reach.
//
// Reported per mode (grep ^JSON for the compare.py gate): total throughput,
// mean per-tick latency over an early window (ticks 901..1000) and the last
// 100 ticks, their ratio ("flatness" — the flat-latency acceptance bound is
// 2x), memo/row cache counters, and the incremental-over-reference speedup.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/session.h"

using namespace lahar;
using namespace lahar::bench;

namespace {

constexpr const char* kQuery = "R(x, u1); S(x, u2); T('a', y)";
constexpr size_t kKeys = 2;
constexpr Timestamp kFullHorizon = 100000;
constexpr Timestamp kSmokeHorizon = 2000;

// splitmix64: deterministic per-(tick, stream) marginals so every database
// built by BuildTick is bit-identical without sharing generator state.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double DenseProb(Timestamp t, uint64_t stream) {
  uint64_t h = Mix(static_cast<uint64_t>(t) * 1000003ULL + stream);
  return 0.2 + 0.4 * static_cast<double>(h >> 11) / 9007199254740992.0;
}

struct Setup {
  EventDatabase db;
  std::vector<StreamId> r_ids, s_ids;
  StreamId t_id = 0;
};

void DeclareSchema(EventDatabase* db, const std::string& type) {
  EventSchema schema;
  schema.type = db->interner().Intern(type);
  schema.attr_names = {db->interner().Intern("id"),
                       db->interner().Intern("value")};
  schema.num_key_attrs = 1;
  (void)db->DeclareSchema(schema);
}

StreamId AddEmptyStream(EventDatabase* db, const std::string& type,
                        const std::string& key, const std::string& value) {
  DeclareSchema(db, type);
  Stream s(db->interner().Intern(type), {db->Sym(key)}, 1, 0,
           /*markovian=*/false);
  s.InternTuple({db->Sym(value)});
  auto id = db->AddStream(std::move(s));
  if (!id.ok()) {
    std::fprintf(stderr, "%s\n", id.status().ToString().c_str());
    std::exit(1);
  }
  return *id;
}

bool BuildSetup(Setup* out) {
  for (size_t k = 0; k < kKeys; ++k) {
    out->r_ids.push_back(
        AddEmptyStream(&out->db, "R", "k" + std::to_string(k + 1), "u"));
    out->s_ids.push_back(
        AddEmptyStream(&out->db, "S", "k" + std::to_string(k + 1), "v"));
  }
  out->t_id = AddEmptyStream(&out->db, "T", "a", "w");
  return true;
}

void Append(EventDatabase* db, StreamId id, double p) {
  // Domain is {bottom, value}: index 1 carries p, the rest is bottom.
  std::vector<double> dist = {1.0 - p, p};
  Status s = db->AppendMarginal(id, dist);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    std::exit(1);
  }
}

void AppendTick(Setup* setup, Timestamp t) {
  for (size_t k = 0; k < kKeys; ++k) {
    Append(&setup->db, setup->r_ids[k], DenseProb(t, 2 * k));
    Append(&setup->db, setup->s_ids[k], DenseProb(t, 2 * k + 1));
  }
  // Sparse witness stream: a high-confidence detection every 4th tick
  // (the paper's RFID setting — witness sightings are near-certain when
  // they happen). High confidence keeps the truncated precursor window
  // narrow, so the incremental path's per-tick work is genuinely O(live
  // window) while the reference still pays its O(t) dense-vector pass.
  Append(&setup->db, setup->t_id, t % 4 == 1 ? 0.995 : 0.0);
}

struct CellResult {
  bool ok = false;
  double time_ms = 0;
  double early_tick_us = 0;  // mean over ticks 901..1000
  double late_tick_us = 0;   // mean over the last 100 ticks
  SessionCounters memo;
  std::vector<double> probs;  // per tick (bitwise cross-check)
};

CellResult RunCell(bool incremental, Timestamp horizon) {
  CellResult result;
  Setup setup;
  if (!BuildSetup(&setup)) return result;
  LaharOptions options;
  options.plan.safe.incremental = incremental;
  Lahar serving(&setup.db, options);
  auto session = serving.OpenSession(kQuery);
  if (!session.ok()) {
    std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
    return result;
  }
  QuerySession& q = **session;

  const Timestamp early_end = std::min<Timestamp>(1000, horizon / 2);
  const Timestamp early_begin = early_end > 100 ? early_end - 100 : 0;
  const Timestamp late_begin = horizon - 100;
  result.probs.reserve(horizon);
  uint64_t total_ns = 0, early_ns = 0, late_ns = 0;
  for (Timestamp t = 1; t <= horizon; ++t) {
    AppendTick(&setup, t);  // feed time excluded from the advance timing
    auto t0 = std::chrono::steady_clock::now();
    auto p = q.Advance();
    auto t1 = std::chrono::steady_clock::now();
    if (!p.ok()) {
      std::fprintf(stderr, "tick %u: %s\n", t, p.status().ToString().c_str());
      return result;
    }
    uint64_t ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    total_ns += ns;
    if (t > early_begin && t <= early_end) early_ns += ns;
    if (t > late_begin) late_ns += ns;
    result.probs.push_back(*p);
  }
  result.time_ms = static_cast<double>(total_ns) / 1e6;
  const double early_n = static_cast<double>(early_end - early_begin);
  result.early_tick_us = static_cast<double>(early_ns) / early_n / 1000.0;
  result.late_tick_us = static_cast<double>(late_ns) / 100.0 / 1000.0;
  result.memo = q.Counters();
  result.ok = true;
  return result;
}

void PrintCell(const char* mode, const CellResult& r, Timestamp horizon,
               double speedup, double flatness) {
  JsonLine()
      .Add("bench", std::string("t07_safe_long_horizon"))
      .Add("mode", std::string(mode))
      .Add("keys", kKeys)
      .Add("ticks", static_cast<size_t>(horizon))
      .Add("time_ms", r.time_ms)
      .Add("ticks_per_sec", Throughput(horizon, r.time_ms))
      .Add("early_tick_us", r.early_tick_us)
      .Add("late_tick_us", r.late_tick_us)
      .Add("flatness", flatness)
      .Add("speedup", speedup)
      .Add("memo_entries", r.memo.memo_entries)
      .Add("memo_evictions", static_cast<size_t>(r.memo.memo_evictions))
      .Add("row_evictions", static_cast<size_t>(r.memo.row_evictions))
      .Add("row_rebuilds", static_cast<size_t>(r.memo.row_rebuilds))
      .Print();
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const Timestamp horizon = smoke ? kSmokeHorizon : kFullHorizon;
  std::printf(
      "Safe-plan long-horizon serving | %u ticks, %zu keys, query: %s\n",
      horizon, kKeys, kQuery);

  CellResult inc = RunCell(/*incremental=*/true, horizon);
  CellResult ref = RunCell(/*incremental=*/false, horizon);
  if (!inc.ok || !ref.ok) return 1;

  // Bitwise cross-check: the sparse kernels skip exact zeros only, so the
  // two modes must agree on every tick to the last bit.
  for (Timestamp t = 1; t <= horizon; ++t) {
    if (inc.probs[t - 1] != ref.probs[t - 1]) {
      std::fprintf(stderr,
                   "BITWISE MISMATCH at tick %u: incremental=%.17g "
                   "reference=%.17g\n",
                   t, inc.probs[t - 1], ref.probs[t - 1]);
      return 1;
    }
  }

  const double speedup = inc.time_ms > 0 ? ref.time_ms / inc.time_ms : 0.0;
  const double inc_flatness =
      inc.early_tick_us > 0 ? inc.late_tick_us / inc.early_tick_us : 0.0;
  const double ref_flatness =
      ref.early_tick_us > 0 ? ref.late_tick_us / ref.early_tick_us : 0.0;
  PrintCell("incremental", inc, horizon, speedup, inc_flatness);
  PrintCell("reference", ref, horizon, 1.0, ref_flatness);

  std::printf("%-12s %10s %14s %14s %9s\n", "mode", "time_ms",
              "early_us/tick", "late_us/tick", "flatness");
  std::printf("%-12s %10.1f %14.2f %14.2f %9.2f\n", "incremental",
              inc.time_ms, inc.early_tick_us, inc.late_tick_us, inc_flatness);
  std::printf("%-12s %10.1f %14.2f %14.2f %9.2f\n", "reference", ref.time_ms,
              ref.early_tick_us, ref.late_tick_us, ref_flatness);
  std::printf(
      "cumulative speedup %.2fx | memo entries %zu (evictions %llu) | "
      "row evictions %llu\n",
      speedup, inc.memo.memo_entries,
      static_cast<unsigned long long>(inc.memo.memo_evictions),
      static_cast<unsigned long long>(inc.memo.row_evictions));

  if (!smoke) {
    // Acceptance gates (full run only; the 2k-tick smoke is too short for
    // the asymptotics to show and just sanity-checks the bitwise cross).
    if (inc_flatness > 2.0) {
      std::fprintf(stderr,
                   "FAIL: per-tick latency not flat (%.2fx between tick 1k "
                   "and %u)\n",
                   inc_flatness, horizon);
      return 1;
    }
    if (speedup < 5.0) {
      std::fprintf(stderr,
                   "FAIL: incremental speedup %.2fx < 5x over the reference "
                   "loop at T=%u\n",
                   speedup, horizon);
      return 1;
    }
  }
  return 0;
}
