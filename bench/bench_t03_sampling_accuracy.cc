// Section 3.5 / Prop. 3.20: the sampling engine's (epsilon, delta)
// trade-off. For each epsilon we run the Hoeffding-sized sampler against
// the exact engine and report the worst per-timestep deviation and the
// cost — quantifying the "orders of magnitude" gap the performance figures
// rely on.
#include <algorithm>
#include <cmath>

#include "bench_util.h"
#include "engine/extended_engine.h"
#include "engine/sampling_engine.h"

using namespace lahar;
using namespace lahar::bench;

int main() {
  const Timestamp kHorizon = 60;
  auto scenario = RandomWalkScenario(10, kHorizon, /*seed=*/55);
  auto db = scenario->BuildDatabase(StreamKind::kFiltered);
  if (!db.ok()) return 1;
  size_t tuples = (*db)->TotalTuples();
  Lahar lahar(db->get());
  auto prepared = lahar.Prepare(kQ2Sequence);
  if (!prepared.ok()) return 1;

  auto exact_engine = ExtendedRegularEngine::Create(*prepared, **db);
  if (!exact_engine.ok()) return 1;
  std::vector<double> exact;
  double exact_ms = TimeMs([&] {
    auto probs = exact_engine->RunToHorizon(kHorizon);
    if (probs.ok()) exact = std::move(*probs);
  });

  std::printf("Prop 3.20 | sampling accuracy/cost vs exact evaluation "
              "(query Q2, 10 tags, horizon 60)\n");
  std::printf("exact engine: %.1f ms (%.0f tuples/s)\n\n", exact_ms,
              Throughput(tuples, exact_ms));
  std::printf("%-8s %-8s %-9s %-12s %-10s %-12s %-10s\n", "eps", "delta",
              "samples", "max |err|", "within eps", "time(ms)",
              "slowdown");
  for (double eps : {0.2, 0.1, 0.05, 0.02}) {
    const double delta = 0.1;
    SamplingOptions options;
    options.epsilon = eps;
    options.delta = delta;
    options.seed = 77;
    auto engine = SamplingEngine::Create(*prepared, **db, options);
    if (!engine.ok()) return 1;
    std::vector<double> approx;
    double ms = TimeMs([&] {
      auto probs = engine->RunToHorizon(kHorizon);
      if (probs.ok()) approx = std::move(*probs);
    });
    double max_err = 0;
    size_t violations = 0;
    for (Timestamp t = 1; t <= kHorizon; ++t) {
      double err = std::fabs(approx[t] - exact[t]);
      max_err = std::max(max_err, err);
      violations += err > eps;
    }
    std::printf("%-8.2f %-8.2f %-9zu %-12.4f %-10s %-12.1f %-9.1fx\n", eps,
                delta, engine->num_samples(), max_err,
                violations == 0 ? "yes" : "mostly", ms,
                exact_ms > 0 ? ms / exact_ms : 0.0);
  }
  std::printf("\n(shape: error tracks epsilon; cost grows ~1/eps^2, always "
              "far above the exact engine)\n");
  return 0;
}
