// Chain-lifecycle residency experiment (docs/PERF.md "Chain lifecycle"):
// how much memory and throughput a standing query costs per *registered*
// binding when only a small slice of the population is active.
//
// Three cells, each run in `dense` mode (always-materialized reference,
// lifecycle off) and `lifecycle` mode (lazy materialization + cold-chain
// spill), with every published P[q@t] cross-checked bitwise between the
// modes — the bench doubles as an equivalence harness and exits 1 on any
// drift:
//
//   sparse           100k registered tags (20k in smoke), ~2% ever active:
//                    1% active all run, 0.5% active in the first half only
//                    (they go cold and spill), 0.5% active in two windows
//                    (spill, then rehydrate or re-promote). The memory
//                    cell: bytes_per_registered_key in both modes.
//   dense_all_active every tag active every tick — the adversarial cell
//                    for the lifecycle layer's per-tick overhead. Gated on
//                    throughput parity with the dense reference.
//   wide_floorplan   the WideFloorplanScenario simulation (diurnal badge
//                    population on a fixed building) end to end.
//
// The summary record carries the CI gates (see .github/workflows/ci.yml):
//   bytes_per_registered_key_ratio  lifecycle / dense bytes per registered
//                                   key on the sparse cell; --max-metric
//                                   ceiling 0.15 (the lifecycle tables must
//                                   cost < 15% of materialized chains).
//   sparse_resident_fraction        resident chains / registered on the
//                                   sparse cell at end of run; --max-metric
//                                   ceiling 0.05 (~2% active + slack).
//   dense_ticks_ratio               lifecycle / dense ticks-per-sec on the
//                                   all-active cell; --min-metric floor 0.9
//                                   (spill accounting must not tax the
//                                   striped hot path). The all-active
//                                   lifecycle config keeps lazy off: every
//                                   chain would promote on tick 1 anyway,
//                                   and materializing at Create keeps them
//                                   in the SoA stripes. The lazy config is
//                                   also run and reported (mode
//                                   lifecycle_lazy) but not gated — its
//                                   solo promoted chains step off-stripe by
//                                   design.
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "engine/extended_engine.h"

using namespace lahar;
using namespace lahar::bench;

namespace {

// The synthetic cells use a 32-room location domain: wide enough that a
// materialized chain's domain-sized working buffers dominate its footprint
// (the situation the lifecycle layer targets — stub cost is independent of
// the domain), matching the deployment story of a building-wide antenna
// map rather than a toy corridor.
constexpr size_t kNumRooms = 32;

// Exact binary fractions summing to exactly 1.0, rotated by `salt` so
// neighbouring chains do not all carry identical probabilities. Exactness
// matters: the dense/lifecycle cross-check is bitwise, so the inputs must
// not depend on accumulation order.
std::vector<double> ActiveDist(size_t salt) {
  static const double kMass[4] = {0.5, 0.25, 0.125, 0.125};
  std::vector<double> dist(1 + kNumRooms, 0.0);
  for (size_t j = 0; j < 4; ++j) {
    dist[1 + (salt + 7 * j) % kNumRooms] = kMass[j];
  }
  return dist;
}

// Is tag i active at tick t in the sparse cell? Per 200 tags: #0 is active
// the whole run, #100 in two windows (first third, last third), #50 and
// #150 in the first half only, the rest never. 2% of the population ever
// carries evidence; the rest are quiet all-bottom keys.
bool SparseActiveAt(size_t i, Timestamp t, Timestamp horizon) {
  switch (i % 200) {
    case 0: return true;
    case 100: return t <= horizon / 3 || t > (2 * horizon) / 3;
    case 50:
    case 150: return t <= horizon / 2;
    default: return false;
  }
}

// Synthetic database: one At(tag; location) stream per tag over kNumRooms
// rooms (all in Room). `all_active` populates every tick; otherwise only
// SparseActiveAt ticks get a marginal row. Quiet ticks stay unset: an
// empty marginal row is certain-bottom, which every engine skips (and the
// lifecycle layer never wakes for) — so the sparse database itself is also
// O(active) storage.
Result<std::unique_ptr<EventDatabase>> BuildDb(size_t num_tags,
                                               Timestamp horizon,
                                               bool all_active) {
  auto db = std::make_unique<EventDatabase>();
  SymbolId at = db->interner().Intern("At");
  EventSchema schema;
  schema.type = at;
  schema.attr_names = {db->interner().Intern("tag"),
                       db->interner().Intern("location")};
  schema.num_key_attrs = 1;
  LAHAR_RETURN_NOT_OK(db->DeclareSchema(schema));
  LAHAR_ASSIGN_OR_RETURN(Relation * room, db->DeclareRelation("Room", 1));
  std::vector<std::string> rooms;
  for (size_t r = 0; r < kNumRooms; ++r) {
    rooms.push_back("r" + std::to_string(r));
    LAHAR_RETURN_NOT_OK(room->Insert({db->Sym(rooms.back())}));
  }
  for (size_t i = 0; i < num_tags; ++i) {
    Stream stream(at, {db->Sym("tag" + std::to_string(i))}, 1, horizon,
                  /*markovian=*/false);
    for (const std::string& r : rooms) stream.InternTuple({db->Sym(r)});
    for (Timestamp t = 1; t <= horizon; ++t) {
      if (all_active || SparseActiveAt(i, t, horizon)) {
        LAHAR_RETURN_NOT_OK(stream.SetMarginal(t, ActiveDist(i + t)));
      }
    }
    LAHAR_RETURN_NOT_OK(db->AddStream(std::move(stream)).status());
  }
  return db;
}

struct ModeResult {
  double create_ms = 0;
  double advance_ms = 0;  // best over reps
  double ticks_per_sec = 0;
  std::vector<double> probs;  // [1..horizon], from the last rep
  SessionCounters res;        // end-of-run snapshot, last rep
  size_t registered = 0;      // registered units (keys)
};

// Runs one (cell, mode): creates an ExtendedRegularEngine with `opts`,
// advances it through the full horizon, snapshots residency at the end. The
// database is only read, so reps and modes share it.
bool RunMode(EventDatabase* db, const PreparedQuery& prepared,
             const ChainOptions& opts, Timestamp horizon, size_t reps,
             ModeResult* out) {
  for (size_t rep = 0; rep < reps; ++rep) {
    Result<ExtendedRegularEngine> session =
        Status::Internal("session not created");
    const double create_ms = TimeMs([&] {
      session = ExtendedRegularEngine::Create(prepared, *db, opts);
    });
    if (!session.ok()) {
      std::fprintf(stderr, "%s\n", session.status().ToString().c_str());
      return false;
    }
    out->probs.assign(1, 0.0);  // index 0 unused
    bool failed = false;
    const double ms = TimeMs([&] {
      for (Timestamp t = 1; t <= horizon; ++t) {
        Result<double> p = session->Advance();
        if (!p.ok()) {
          std::fprintf(stderr, "advance t=%u: %s\n", t,
                       p.status().ToString().c_str());
          failed = true;
          return;
        }
        out->probs.push_back(*p);
      }
    });
    if (failed) return false;
    out->res = session->Counters();
    out->registered = session->num_units();
    if (rep == 0 || ms < out->advance_ms) out->advance_ms = ms;
    if (rep == 0) out->create_ms = create_ms;
  }
  out->ticks_per_sec = Throughput(horizon, out->advance_ms);
  return true;
}

void EmitJson(const std::string& cell, const std::string& mode,
              Timestamp horizon, size_t reps, const ModeResult& r) {
  const size_t registered = r.registered;
  JsonLine()
      .Add("bench", std::string("t10_resident_scale"))
      .Add("cell", cell)
      .Add("mode", mode)
      .Add("ticks", static_cast<size_t>(horizon))
      .Add("reps", reps)
      .Add("time_ms", r.advance_ms)
      .Add("create_ms", r.create_ms)
      .Add("ticks_per_sec", r.ticks_per_sec)
      .Add("registered_keys", registered)
      .Add("resident_chains", r.res.resident_units)
      .Add("stub_chains", r.res.stub_units)
      .Add("spilled_chains", r.res.spilled_units)
      .Add("bytes_resident", r.res.bytes_resident)
      .Add("bytes_per_registered_key",
           registered > 0
               ? static_cast<double>(r.res.bytes_resident) / registered
               : 0.0)
      .Add("resident_fraction",
           registered > 0
               ? static_cast<double>(r.res.resident_units) / registered
               : 0.0)
      .Add("promotions", static_cast<size_t>(r.res.promotions))
      .Add("spills", static_cast<size_t>(r.res.spills))
      .Add("rehydrations", static_cast<size_t>(r.res.rehydrations))
      .Print();
}

void PrintRow(const std::string& cell, const std::string& mode,
              const ModeResult& r) {
  const size_t registered = r.registered;
  std::printf(
      "%-16s %-15s %10.1f %11.1f %9zu/%-9zu %6zu %6zu %12.1f\n",
      cell.c_str(), mode.c_str(), r.ticks_per_sec, r.create_ms,
      r.res.resident_units, registered, r.res.spilled_units,
      static_cast<size_t>(r.res.spills),
      registered > 0 ? static_cast<double>(r.res.bytes_resident) / registered
                     : 0.0);
}

// Bitwise comparison of two modes' published probabilities; the lifecycle
// is an optimization, never a semantics change.
bool CheckBitwise(const std::string& cell, const ModeResult& a,
                  const std::string& a_name, const ModeResult& b,
                  const std::string& b_name) {
  if (a.probs.size() != b.probs.size()) {
    std::fprintf(stderr, "%s: %s ran %zu ticks, %s ran %zu\n", cell.c_str(),
                 a_name.c_str(), a.probs.size(), b_name.c_str(),
                 b.probs.size());
    return false;
  }
  for (size_t t = 1; t < a.probs.size(); ++t) {
    if (a.probs[t] != b.probs[t]) {
      std::fprintf(stderr, "%s MISMATCH at t=%zu: %s=%.17g %s=%.17g\n",
                   cell.c_str(), t, a_name.c_str(), a.probs[t],
                   b_name.c_str(), b.probs[t]);
      return false;
    }
  }
  return true;
}

ChainOptions DenseOptions() { return ChainOptions{}; }

ChainOptions LifecycleOptions(bool lazy) {
  ChainOptions opts;
  opts.lazy_materialize = lazy;
  opts.spill_cold_chains = true;
  opts.cold_after_ticks = 8;
  return opts;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  // A two-subgoal sequence: chains hold partial-match state across ticks,
  // so going cold exercises the real spill encoding, not just re-stubbing.
  const std::string query =
      "At(x, l1 : Room(l1)); At(x, l2 : Room(l2))";

  const size_t sparse_tags = smoke ? 20000 : 100000;
  const Timestamp sparse_horizon = smoke ? 36 : 72;
  const size_t active_tags = smoke ? 512 : 2048;
  const Timestamp active_horizon = smoke ? 32 : 128;
  const size_t active_reps = smoke ? 2 : 3;
  const size_t wide_tags = smoke ? 80 : 300;
  const Timestamp wide_horizon = smoke ? 48 : 96;
  // The wide cell finishes in a few ms; best-of-3 keeps its ticks/sec
  // stable enough for the 10% regression gate.
  const size_t wide_reps = smoke ? 1 : 3;

  std::printf("Resident scale | chain lifecycle vs always-materialized%s\n",
              smoke ? " (smoke)" : "");
  std::printf("%-16s %-15s %10s %11s %19s %6s %6s %12s\n", "cell", "mode",
              "ticks/s", "create_ms", "resident/registered", "spilld",
              "spills", "bytes/key");

  double sparse_bytes_dense = 0, sparse_bytes_lifecycle = 0;
  double sparse_resident_fraction = 0;
  double dense_ticks_ratio = 0;
  bool drift = false;

  // --- sparse: 100k registered keys, ~2% ever active ----------------------
  {
    auto db = BuildDb(sparse_tags, sparse_horizon, /*all_active=*/false);
    if (!db.ok()) {
      std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
      return 1;
    }
    auto prepared = PrepareQuery(query, db->get());
    if (!prepared.ok()) {
      std::fprintf(stderr, "%s\n", prepared.status().ToString().c_str());
      return 1;
    }
    ModeResult dense, lifecycle;
    if (!RunMode(db->get(), *prepared, DenseOptions(), sparse_horizon, 1,
                 &dense) ||
        !RunMode(db->get(), *prepared, LifecycleOptions(/*lazy=*/true),
                 sparse_horizon, 1, &lifecycle)) {
      return 1;
    }
    drift |= !CheckBitwise("sparse", dense, "dense", lifecycle, "lifecycle");
    PrintRow("sparse", "dense", dense);
    PrintRow("sparse", "lifecycle", lifecycle);
    EmitJson("sparse", "dense", sparse_horizon, 1, dense);
    EmitJson("sparse", "lifecycle", sparse_horizon, 1, lifecycle);
    const size_t n = dense.registered;
    sparse_bytes_dense =
        n > 0 ? static_cast<double>(dense.res.bytes_resident) / n : 0.0;
    sparse_bytes_lifecycle =
        n > 0 ? static_cast<double>(lifecycle.res.bytes_resident) / n : 0.0;
    sparse_resident_fraction =
        n > 0 ? static_cast<double>(lifecycle.res.resident_units) / n : 0.0;
    if (lifecycle.res.spills == 0) {
      std::fprintf(stderr,
                   "sparse lifecycle run recorded no spills — the cold "
                   "half-run tags never went cold?\n");
      return 1;
    }
  }

  // --- dense_all_active: the lifecycle layer's overhead cell --------------
  {
    auto db = BuildDb(active_tags, active_horizon, /*all_active=*/true);
    if (!db.ok()) {
      std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
      return 1;
    }
    auto prepared = PrepareQuery(query, db->get());
    if (!prepared.ok()) {
      std::fprintf(stderr, "%s\n", prepared.status().ToString().c_str());
      return 1;
    }
    ModeResult dense, lifecycle, lazy;
    if (!RunMode(db->get(), *prepared, DenseOptions(), active_horizon,
                 active_reps, &dense) ||
        !RunMode(db->get(), *prepared, LifecycleOptions(/*lazy=*/false),
                 active_horizon, active_reps, &lifecycle) ||
        !RunMode(db->get(), *prepared, LifecycleOptions(/*lazy=*/true),
                 active_horizon, active_reps, &lazy)) {
      return 1;
    }
    drift |= !CheckBitwise("dense_all_active", dense, "dense", lifecycle,
                           "lifecycle");
    drift |= !CheckBitwise("dense_all_active", dense, "dense", lazy,
                           "lifecycle_lazy");
    PrintRow("dense_all_active", "dense", dense);
    PrintRow("dense_all_active", "lifecycle", lifecycle);
    PrintRow("dense_all_active", "lifecycle_lazy", lazy);
    EmitJson("dense_all_active", "dense", active_horizon, active_reps, dense);
    EmitJson("dense_all_active", "lifecycle", active_horizon, active_reps,
             lifecycle);
    EmitJson("dense_all_active", "lifecycle_lazy", active_horizon,
             active_reps, lazy);
    if (dense.ticks_per_sec > 0) {
      dense_ticks_ratio = lifecycle.ticks_per_sec / dense.ticks_per_sec;
    }
  }

  // --- wide_floorplan: the simulated diurnal badge population -------------
  {
    auto scenario = WideFloorplanScenario(wide_tags, wide_horizon,
                                          /*seed=*/47);
    if (!scenario.ok()) {
      std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
      return 1;
    }
    auto db = scenario->BuildDatabase(StreamKind::kDiurnal);
    if (!db.ok()) {
      std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
      return 1;
    }
    const std::string wide_query =
        "At(x, l1 : NotRoom(l1)); At(x, l2 : Room(l2))";
    auto prepared = PrepareQuery(wide_query, db->get());
    if (!prepared.ok()) {
      std::fprintf(stderr, "%s\n", prepared.status().ToString().c_str());
      return 1;
    }
    ModeResult dense, lifecycle;
    if (!RunMode(db->get(), *prepared, DenseOptions(), wide_horizon,
                 wide_reps, &dense) ||
        !RunMode(db->get(), *prepared, LifecycleOptions(/*lazy=*/true),
                 wide_horizon, wide_reps, &lifecycle)) {
      return 1;
    }
    drift |= !CheckBitwise("wide_floorplan", dense, "dense", lifecycle,
                           "lifecycle");
    PrintRow("wide_floorplan", "dense", dense);
    PrintRow("wide_floorplan", "lifecycle", lifecycle);
    EmitJson("wide_floorplan", "dense", wide_horizon, wide_reps, dense);
    EmitJson("wide_floorplan", "lifecycle", wide_horizon, wide_reps,
             lifecycle);
  }

  if (drift) return 1;

  const double bytes_ratio =
      sparse_bytes_dense > 0 ? sparse_bytes_lifecycle / sparse_bytes_dense
                             : 0.0;
  JsonLine()
      .Add("bench", std::string("t10_resident_scale_summary"))
      .Add("bytes_per_registered_key_ratio", bytes_ratio)
      .Add("sparse_resident_fraction", sparse_resident_fraction)
      .Add("dense_ticks_ratio", dense_ticks_ratio)
      .Print();
  std::printf(
      "\nbytes_per_registered_key_ratio = %.4f (lifecycle %.1f B/key vs "
      "dense %.1f B/key, sparse cell)\n",
      bytes_ratio, sparse_bytes_lifecycle, sparse_bytes_dense);
  std::printf("sparse_resident_fraction = %.4f\n", sparse_resident_fraction);
  std::printf("dense_ticks_ratio = %.3f (lifecycle vs dense ticks/sec, "
              "all-active cell)\n",
              dense_ticks_ratio);
  return 0;
}
