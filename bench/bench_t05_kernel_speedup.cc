// Kernel speedup experiment: ticks/sec of the Extended Regular hot path
// under its two execution modes —
//
//   map    — the dynamic hash-map path (the pre-kernel implementation),
//   soa    — compiled kernels with all chains' state packed into the
//            engine's contiguous SoA arena (the only compiled layout).
//
// The workload is the paper's Section 4.3 shape: m tags moving through the
// building, one per-key chain each, on both the archived Markovian streams
// (smoothed + CPTs; joint hidden state) and the real-time independent
// streams (filtered marginals). All modes produce bit-identical
// probabilities (tests/kernel_equivalence_test.cc), so only the clock
// distinguishes them.
//
// One `JSON {...}` line per (workload, config) cell — grep ^JSON and feed
// two runs to bench/compare.py to gate regressions. `--smoke` shrinks the
// workload to a ~2s ctest smoke check.
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "analysis/prepared.h"
#include "automaton/simd.h"
#include "bench_util.h"
#include "engine/extended_engine.h"

using namespace lahar;
using namespace lahar::bench;

namespace {

struct BenchConfig {
  const char* name;
  ChainOptions options;
};

std::vector<BenchConfig> Configs() {
  BenchConfig map{"map", {}};
  map.options.kernel.max_flat_states = 0;
  BenchConfig soa{"soa", {}};
  return {map, soa};
}

// `prepared` with empty caches, so every rep compiles its kernel and builds
// its transition rows from scratch.
PreparedQuery FreshCaches(const PreparedQuery& prepared) {
  PreparedQuery fresh = prepared;
  fresh.kernel_cache = std::make_shared<KernelCache>();
  fresh.row_pool = std::make_shared<TransitionRowPool>();
  return fresh;
}

// One timed RunToHorizon pass; its answers land in `probs`.
double TimedRun(ExtendedRegularEngine* engine, Timestamp horizon,
                std::vector<double>* probs) {
  return TimeMs([&] {
    auto r = engine->RunToHorizon(horizon);
    if (r.ok()) *probs = std::move(*r);
  });
}

struct CellResult {
  double ticks_per_sec = 0;
  double checksum = 0;  // sum of all published probs; must match across modes
};

// Times repeated full RunToHorizon passes (engine creation excluded) until
// the cell has run for at least `min_ms`.
CellResult RunCell(const PreparedQuery& prepared, const EventDatabase& db,
                   const char* workload, const BenchConfig& config,
                   double min_ms) {
  CellResult result;
  double total_ms = 0;
  size_t reps = 0;
  size_t chains = 0, compiled = 0;
  Timestamp horizon = db.horizon();
  while (total_ms < min_ms || reps == 0) {
    auto engine = ExtendedRegularEngine::Create(FreshCaches(prepared), db,
                                                config.options);
    if (!engine.ok()) {
      std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
      return result;
    }
    chains = engine->num_units();
    compiled = engine->num_compiled();
    std::vector<double> probs;
    total_ms += TimedRun(&*engine, horizon, &probs);
    if (reps == 0) {
      for (double p : probs) result.checksum += p;
    }
    ++reps;
  }
  result.ticks_per_sec = Throughput(horizon * reps, total_ms);
  JsonLine()
      .Add("bench", std::string("t05_kernel_speedup"))
      .Add("workload", std::string(workload))
      .Add("config", std::string(config.name))
      .Add("chains", chains)
      .Add("compiled", compiled)
      .Add("ticks", static_cast<size_t>(horizon) * reps)
      .Add("time_ms", total_ms)
      .Add("ticks_per_sec", result.ticks_per_sec)
      .Print();
  return result;
}

int RunWorkload(const Scenario& scenario, StreamKind kind,
                const char* workload, double min_ms) {
  auto db = scenario.BuildDatabase(kind);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  const std::string query =
      "At(x, l1 : NotRoom(l1)); At(x, l2 : Room(l2))";
  auto prepared = PrepareQuery(query, db->get());
  if (!prepared.ok()) {
    std::fprintf(stderr, "%s\n", prepared.status().ToString().c_str());
    return 1;
  }

  std::printf("\n%s streams | m chains, horizon %u\n", workload,
              (*db)->horizon());
  std::printf("%-8s %14s %10s\n", "config", "ticks/sec", "speedup");
  double base = 0, base_checksum = 0;
  int rc = 0;
  for (const BenchConfig& config : Configs()) {
    CellResult r = RunCell(*prepared, **db, workload, config, min_ms);
    if (std::strcmp(config.name, "map") == 0) {
      base = r.ticks_per_sec;
      base_checksum = r.checksum;
    } else if (r.checksum != base_checksum) {
      // The kernel contract is bit-identity; a drifting checksum is a bug,
      // not a measurement artifact.
      std::fprintf(stderr, "FAIL: %s/%s checksum %.17g != map %.17g\n",
                   workload, config.name, r.checksum, base_checksum);
      rc = 1;
    }
    std::printf("%-8s %14.1f %9.2fx\n", config.name, r.ticks_per_sec,
                base > 0 ? r.ticks_per_sec / base : 0.0);
  }
  return rc;
}

// --- Wide-arena vectorized kernel cell -------------------------------------
//
// The workload the SIMD step path is built for: many per-tag Markov chains
// over one shared dense CPT (every tag interns the same transition-row
// class; initial distributions stay distinct per tag so the fingerprint's
// t==1 exclusion is what makes the class shared). Two configs ride the
// same SoA arena:
//
//   soa      — scalar CSR walk forced (step_mode=kScalar): the reference
//   soa-simd — vectorized dense-row kernels (bit-identical to soa)
//
// The summary record carries the two CI-gated metrics: kernel_simd_speedup
// (tps soa-simd / tps soa) and bytes_per_chain_reduction (bpc soa / bpc
// soa-simd).

Matrix WideCpt(size_t n) {
  Matrix cpt(n, n, 0.0);
  cpt.At(0, 0) = 1.0;  // bottom absorbing
  for (size_t d = 1; d < n; ++d) {
    double total = 0;
    for (size_t d2 = 1; d2 < n; ++d2) {
      double w = 1.0;  // uniform floor keeps the rows fully dense
      if (d2 == d) {
        w = 6.0;  // self bias
      } else if (d2 == d % (n - 1) + 1) {
        w = 2.0;  // one preferred neighbor
      }
      cpt.At(d, d2) = w;
      total += w;
    }
    for (size_t d2 = 1; d2 < n; ++d2) cpt.At(d, d2) /= total;
  }
  return cpt;
}

void AddWideTag(EventDatabase* db, size_t i, const Matrix& cpt,
                const std::vector<std::string>& locs, Timestamp horizon) {
  Stream s(db->interner().Intern("At"),
           {db->Sym("tag" + std::to_string(i))}, 1, horizon,
           /*markovian=*/true);
  for (const std::string& l : locs) s.InternTuple({db->Sym(l)});
  const size_t n = s.domain_size();
  std::vector<double> init(n, 0.0);
  double total = 0;
  for (size_t d = 1; d < n; ++d) {
    init[d] = 1.0 + static_cast<double>((i * 7 + d) % 5);
    total += init[d];
  }
  for (size_t d = 1; d < n; ++d) init[d] /= total;
  if (!s.SetInitial(init).ok()) std::abort();
  for (Timestamp t = 1; t < horizon; ++t) {
    if (!s.SetCpt(t, cpt).ok()) std::abort();
  }
  if (!s.FinalizeMarkov().ok()) std::abort();
  if (!db->AddStream(std::move(s)).ok()) std::abort();
}

struct WideCellResult {
  double ticks_per_sec = 0;
  double checksum = 0;
  double bytes_per_chain = 0;
};

WideCellResult RunWideCell(const PreparedQuery& prepared,
                           const EventDatabase& db,
                           const BenchConfig& config, double min_ms) {
  WideCellResult result;
  double total_ms = 0;
  size_t reps = 0, chains = 0, compiled = 0, simd_chains = 0, striped = 0;
  Timestamp horizon = db.horizon();
  while (total_ms < min_ms || reps == 0) {
    auto engine = ExtendedRegularEngine::Create(FreshCaches(prepared), db,
                                                config.options);
    if (!engine.ok()) {
      std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
      return result;
    }
    chains = engine->num_units();
    compiled = engine->num_compiled();
    simd_chains = engine->num_simd();
    std::vector<double> probs;
    total_ms += TimedRun(&*engine, horizon, &probs);
    if (reps == 0) {
      for (double p : probs) result.checksum += p;
      result.bytes_per_chain =
          chains > 0
              ? static_cast<double>(engine->Footprint().bytes()) / chains
              : 0;
      striped = engine->num_striped();
    }
    ++reps;
  }
  result.ticks_per_sec = Throughput(horizon * reps, total_ms);
  JsonLine()
      .Add("bench", std::string("t05_kernel_speedup"))
      .Add("workload", std::string("wide"))
      .Add("config", std::string(config.name))
      .Add("chains", chains)
      .Add("compiled", compiled)
      .Add("simd_chains", simd_chains)
      .Add("striped", striped)
      .Add("ticks", static_cast<size_t>(horizon) * reps)
      .Add("time_ms", total_ms)
      .Add("ticks_per_sec", result.ticks_per_sec)
      .Add("bytes_per_chain", result.bytes_per_chain)
      .Print();
  return result;
}

int RunWideWorkload(size_t tags, Timestamp horizon, double min_ms) {
  EventDatabase db;
  EventSchema schema;
  schema.type = db.interner().Intern("At");
  schema.attr_names = {db.interner().Intern("id"),
                       db.interner().Intern("value")};
  schema.num_key_attrs = 1;
  if (!db.DeclareSchema(schema).ok()) return 1;
  std::vector<std::string> locs;
  for (int r = 1; r <= 8; ++r) locs.push_back("r" + std::to_string(r));
  for (int h = 1; h <= 8; ++h) locs.push_back("h" + std::to_string(h));
  auto room = db.DeclareRelation("Room", 1);
  auto notroom = db.DeclareRelation("NotRoom", 1);
  if (!room.ok() || !notroom.ok()) return 1;
  for (const std::string& l : locs) {
    Relation* rel = l[0] == 'r' ? *room : *notroom;
    if (!rel->Insert({db.Sym(l)}).ok()) return 1;
  }
  Matrix cpt = WideCpt(locs.size() + 1);
  for (size_t i = 0; i < tags; ++i) {
    AddWideTag(&db, i, cpt, locs, horizon);
  }

  const std::string query = "At(x, l1 : NotRoom(l1)); At(x, l2 : Room(l2))";
  auto prepared = PrepareQuery(query, &db);
  if (!prepared.ok()) {
    std::fprintf(stderr, "%s\n", prepared.status().ToString().c_str());
    return 1;
  }

  BenchConfig scalar{"soa", {}};
  scalar.options.step_mode = KernelStepMode::kScalar;
  BenchConfig simd{"soa-simd", {}};
  simd.options.step_mode = KernelStepMode::kSimd;

  std::printf("\nwide streams | %zu chains, horizon %u, shared CPT (%s)\n",
              tags, horizon, simd::IsaName());
  std::printf("%-14s %14s %10s %16s\n", "config", "ticks/sec", "speedup",
              "bytes/chain");
  int rc = 0;
  WideCellResult rs = RunWideCell(*prepared, db, scalar, min_ms);
  WideCellResult rv = RunWideCell(*prepared, db, simd, min_ms);
  if (rv.checksum != rs.checksum) {
    // Vectorized vs scalar is a bit-identity contract, same as kernel vs
    // map: a drifting checksum is a bug, not a measurement artifact.
    std::fprintf(stderr, "FAIL: wide/soa-simd checksum %.17g != soa %.17g\n",
                 rv.checksum, rs.checksum);
    rc = 1;
  }
  for (const auto& [name, r] :
       {std::pair<const char*, const WideCellResult&>{"soa", rs},
        {"soa-simd", rv}}) {
    std::printf("%-14s %14.1f %9.2fx %16.0f\n", name, r.ticks_per_sec,
                rs.ticks_per_sec > 0 ? r.ticks_per_sec / rs.ticks_per_sec
                                     : 0.0,
                r.bytes_per_chain);
  }
  JsonLine()
      .Add("bench", std::string("t05_kernel_speedup"))
      .Add("workload", std::string("wide"))
      .Add("config", std::string("summary"))
      .Add("kernel_simd_speedup",
           rs.ticks_per_sec > 0 ? rv.ticks_per_sec / rs.ticks_per_sec : 0.0)
      .Add("bytes_per_chain_reduction",
           rv.bytes_per_chain > 0 ? rs.bytes_per_chain / rv.bytes_per_chain
                                  : 0.0)
      .Print();
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const size_t tags = smoke ? 16 : 64;
  const Timestamp horizon = smoke ? 50 : 200;
  const double min_ms = smoke ? 50 : 500;

  std::printf("Kernel speedup | %zu tags, horizon %u%s\n", tags, horizon,
              smoke ? " (smoke)" : "");
  auto scenario = RandomWalkScenario(tags, horizon, /*seed=*/43);
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
    return 1;
  }
  int rc = 0;
  rc |= RunWorkload(*scenario, StreamKind::kSmoothed, "markov", min_ms);
  rc |= RunWorkload(*scenario, StreamKind::kFiltered, "independent", min_ms);
  rc |= RunWideWorkload(smoke ? 48 : 256, horizon, min_ms);
  std::printf("\n(map/soa are bit-identical; see "
              "tests/kernel_equivalence_test.cc)\n");
  return rc;
}
