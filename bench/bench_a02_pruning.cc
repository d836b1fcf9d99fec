// CPT pruning (Section 4.3.2's optimization note): the paper reduced its
// 26 GB CPT relation ~26x "without a noticeable degradation in quality" by
// pruning. We sweep the pruning threshold and report storage (non-zero CPT
// entries), archived-query quality, and throughput.
#include "bench_util.h"
#include "engine/extended_engine.h"

using namespace lahar;
using namespace lahar::bench;

namespace {

size_t CptEntries(const EventDatabase& db) {
  size_t total = 0;
  for (StreamId s = 0; s < db.num_streams(); ++s) {
    const Stream& stream = db.stream(s);
    if (!stream.markovian()) continue;
    for (Timestamp t = 1; t < stream.horizon(); ++t) {
      const CptView cpt = stream.CptAt(t);
      for (size_t r = 0; r < cpt.rows(); ++r) {
        for (const CptEntry e : cpt.Row(r)) total += e.p > 0;
      }
    }
  }
  return total;
}

}  // namespace

int main() {
  const Timestamp kHorizon = 400;
  const Timestamp kTolerance = 8;
  const double kRho = 0.12;
  auto scenario = OfficeScenario(6, kHorizon, /*seed=*/2008, QualityConfig());
  if (!scenario.ok()) return 1;
  // Ground truth once.
  TagQualityData reference = CollectTagQuality(*scenario, StreamKind::kSmoothed,
                                               Determinization::kViterbi);

  std::printf("Sec 4.3.2 optimization | CPT pruning threshold sweep "
              "(archived coffee query, rho=%.2f)\n",
              kRho);
  std::printf("%-10s %14s %10s %10s %10s %10s %12s\n", "epsilon", "entries",
              "ratio", "P", "R", "F1", "time(ms)");
  for (double eps : {0.0, 1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1}) {
    auto db = scenario->BuildDatabase(StreamKind::kSmoothed);
    if (!db.ok()) return 1;
    static size_t baseline_entries = 0;
    for (StreamId s = 0; s < (*db)->num_streams(); ++s) {
      if (eps > 0) {
        if (!(*db)->stream(s).PruneCpts(eps).ok()) return 1;
      }
    }
    size_t entries = CptEntries(**db);
    if (eps == 0.0) baseline_entries = entries;

    // Per-tag quality + timing on the pruned database.
    PooledScore pooled;
    double total_ms = 0;
    Lahar lahar(db->get());
    for (size_t i = 0; i < scenario->tags.size(); ++i) {
      std::string query = TagCoffeeQuery(scenario->tags[i].name);
      auto prepared = lahar.Prepare(query);
      if (!prepared.ok()) return 1;
      std::vector<double> probs;
      total_ms += TimeMs([&] {
        auto engine = ExtendedRegularEngine::Create(*prepared, **db);
        if (!engine.ok()) return;
        auto run = engine->RunToHorizon((*db)->horizon());
        if (run.ok()) probs = std::move(*run);
      });
      pooled.Add(Score(probs, kRho, reference.truths[i], kTolerance));
    }
    QualityScore s = pooled.Finish();
    std::printf("%-10.0e %14zu %9.1fx %10.3f %10.3f %10.3f %12.1f\n", eps,
                entries,
                entries > 0 ? double(baseline_entries) / entries : 0.0,
                s.precision, s.recall, s.f1, total_ms);
  }
  std::printf("\n(paper: ~26x CPT reduction without noticeable quality "
              "loss; expect quality to hold for small epsilon and degrade "
              "once real transitions are pruned)\n");
  return 0;
}
