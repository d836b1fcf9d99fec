// Figure 14: safe plans. (a) Throughput of the Safe (not Extended Regular)
// query At(p, l1); At(p, l2); At(q, l3) versus naive sampling as the number
// of concurrent tags grows; (b) throughput as the *trace length* grows —
// the analytic worst case is O(T^3) total work (cubically decaying
// throughput), but lazy evaluation of the recurrence does much better.
// Every cell also prints one `JSON {...}` record with its tuples_per_sec for
// bench/compare.py.
#include <cmath>
#include <string>

#include "bench_util.h"
#include "engine/sampling_engine.h"

using namespace lahar;
using namespace lahar::bench;

namespace {

double SafeMs(const PreparedQuery& prepared, EventDatabase* db) {
  return MeanMs([&] {
    LaharOptions options;
    options.plan.assume_distinct_keys = true;
    options.allow_sampling_fallback = false;
    auto answer = Lahar(db, options).Run(prepared);
    if (!answer.ok()) {
      std::fprintf(stderr, "safe plan: %s\n",
                   answer.status().ToString().c_str());
    }
  });
}

// One compare.py record per (panel, size, system) cell; `size_field` is
// "tags" in panel (a) and "steps" in panel (b).
void PrintRecord(const char* panel, const char* size_field, size_t size,
                 const char* system, double tuples_per_sec) {
  JsonLine()
      .Add("bench", std::string("fig14_safe_plans"))
      .Add("panel", std::string(panel))
      .Add(size_field, size)
      .Add("system", std::string(system))
      .Add("tuples_per_sec", tuples_per_sec)
      .Print();
}

}  // namespace

int main() {
  std::printf("Fig 14 | Safe-plan performance: %s\n", kSafeQuery);

  std::printf("\nFig 14(a): throughput vs concurrent tags (horizon=60)\n");
  std::printf("%-6s %16s %16s\n", "tags", "SafePlan(t/s)", "Sampling(t/s)");
  for (size_t tags : {2, 5, 10, 25, 50}) {
    auto scenario = RandomWalkScenario(tags, 60, /*seed=*/7 + tags);
    auto db = scenario->BuildDatabase(StreamKind::kFiltered);
    if (!db.ok()) return 1;
    size_t tuples = (*db)->TotalTuples();
    Lahar lahar(db->get());
    auto prepared = lahar.Prepare(kSafeQuery);
    if (!prepared.ok()) {
      std::fprintf(stderr, "%s\n", prepared.status().ToString().c_str());
      return 1;
    }
    double safe_ms = SafeMs(*prepared, db->get());
    double sampling_ms = MeanMs([&] {
      auto engine = SamplingEngine::Create(*prepared, **db, {});
      auto probs = engine->RunToHorizon((*db)->horizon());
      (void)probs;
    });
    std::printf("%-6zu %16.0f %16.0f\n", tags, Throughput(tuples, safe_ms),
                Throughput(tuples, sampling_ms));
    PrintRecord("a", "tags", tags, "safe_plan", Throughput(tuples, safe_ms));
    PrintRecord("a", "tags", tags, "sampling",
                Throughput(tuples, sampling_ms));
  }

  std::printf("\nFig 14(b): throughput vs simulated trace length (5 tags)\n");
  std::printf("%-10s %16s %14s %22s\n", "steps", "SafePlan(t/s)", "time(ms)",
              "worst-case O(T^3) pred");
  double base_ms = 0;
  Timestamp base_T = 0;
  for (Timestamp T : {300, 600, 1200, 1800, 2400, 3000}) {
    auto scenario = RandomWalkScenario(5, T, /*seed=*/21);
    auto db = scenario->BuildDatabase(StreamKind::kFiltered);
    if (!db.ok()) return 1;
    size_t tuples = (*db)->TotalTuples();
    Lahar lahar(db->get());
    auto prepared = lahar.Prepare(kSafeQuery);
    if (!prepared.ok()) return 1;
    double ms = SafeMs(*prepared, db->get());
    if (base_ms == 0) {
      base_ms = ms;
      base_T = T;
    }
    double predicted_ms =
        base_ms * std::pow(static_cast<double>(T) / base_T, 3.0);
    std::printf("%-10u %16.0f %14.1f %20.1fms\n", T, Throughput(tuples, ms),
                ms, predicted_ms);
    PrintRecord("b", "steps", T, "safe_plan", Throughput(tuples, ms));
  }
  std::printf("\n(paper: measured asymptotics are much better than the "
              "analytic O(T^3) prediction thanks to lazy evaluation)\n");
  return 0;
}
