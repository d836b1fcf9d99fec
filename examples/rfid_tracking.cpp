// RFID tracking end to end: the paper's primary motivating application.
//
// Simulates office workers in an instrumented two-floor building, runs raw
// RFID readings through the particle filter (real-time) and through
// forward-backward smoothing (archived), then answers the paper's central
// coffee-room query with Lahar and with the deterministic MLE / Viterbi
// baselines, and reports precision/recall/F1 for each.
//
// Usage: rfid_tracking [workers] [horizon] [seed]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "engine/lahar.h"
#include "engine/sampling_engine.h"
#include "metrics/quality.h"
#include "parse_flags.h"
#include "sim/scenarios.h"

using namespace lahar;

namespace {

std::string CoffeeQuery(const std::string& tag) {
  return "(At('" + tag + "', l1); At('" + tag + "', l2); At('" + tag +
         "', l3)) WHERE NotRoom(l1) AND NotRoom(l2) AND CoffeeRoom(l3)";
}

struct Pooled {
  size_t tp = 0, fp = 0, fn = 0;
  void Add(const QualityScore& s) {
    tp += s.true_positives;
    fp += s.false_positives;
    fn += s.false_negatives;
  }
  void Print(const char* label) const {
    double p = tp + fp ? double(tp) / (tp + fp) : 1.0;
    double r = tp + fn ? double(tp) / (tp + fn) : 1.0;
    double f1 = p + r > 0 ? 2 * p * r / (p + r) : 0.0;
    std::printf("  %-22s precision %.3f  recall %.3f  F1 %.3f\n", label, p, r,
                f1);
  }
};

// A Section 4 baseline's answers: 1.0 at each timestep where its one
// determinized world satisfies the query, else 0.0.
Result<std::vector<double>> Baseline(EventDatabase* db,
                                     const std::string& query,
                                     Determinization mode) {
  LAHAR_ASSIGN_OR_RETURN(PreparedQuery prepared, Lahar(db).Prepare(query));
  LAHAR_ASSIGN_OR_RETURN(SamplingEngine engine,
                         SamplingEngine::Determinized(prepared, *db, mode));
  return engine.RunToHorizon(db->horizon());
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t workers_in = 4, horizon_in = 300, seed = 42;
  if (argc > 1 &&
      !examples::ParseUint("workers", argv[1], 1, 10000, &workers_in)) {
    return 2;
  }
  if (argc > 2 &&
      !examples::ParseUint("horizon", argv[2], 1, 1000000, &horizon_in)) {
    return 2;
  }
  if (argc > 3 &&
      !examples::ParseUint("seed", argv[3], 0, UINT64_MAX, &seed)) {
    return 2;
  }
  const size_t workers = static_cast<size_t>(workers_in);
  const Timestamp horizon = static_cast<Timestamp>(horizon_in);
  const Timestamp tolerance = 8;
  const double rho = 0.12;

  PipelineConfig config;
  config.read_rate = 0.6;
  config.bleed_rate = 0.06;
  config.room_stay = 0.8;
  config.coffee_bias = 3.0;
  config.num_particles = 100;

  auto scenario = OfficeScenario(workers, horizon, seed, config);
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario: %s\n",
                 scenario.status().ToString().c_str());
    return 1;
  }
  std::printf("Simulated %zu workers for %u steps in a building with %zu "
              "locations and %zu antennas (read rate %.0f%%).\n",
              workers, horizon, scenario->floorplan->num_locations(),
              scenario->floorplan->num_antennas(), 100 * config.read_rate);

  auto truth_db = scenario->BuildDatabase(StreamKind::kTruth);
  auto filtered_db = scenario->BuildDatabase(StreamKind::kFiltered);
  auto smoothed_db = scenario->BuildDatabase(StreamKind::kSmoothed);
  if (!truth_db.ok() || !filtered_db.ok() || !smoothed_db.ok()) {
    std::fprintf(stderr, "database construction failed\n");
    return 1;
  }

  Pooled realtime, mle, archived, viterbi;
  size_t total_events = 0;
  for (const TagTrace& tag : scenario->tags) {
    std::string query = CoffeeQuery(tag.name);
    // Ground truth from the simulator's exact paths.
    Lahar truth_lahar(truth_db->get());
    auto truth_answer = truth_lahar.Run(query);
    if (!truth_answer.ok()) {
      std::fprintf(stderr, "truth: %s\n",
                   truth_answer.status().ToString().c_str());
      return 1;
    }
    std::vector<Timestamp> truth = DetectionEvents(truth_answer->probs, 0.5);
    total_events += truth.size();

    // Real-time: Lahar on particle-filtered streams vs MLE.
    Lahar rt(filtered_db->get());
    auto rt_answer = rt.Run(query);
    if (rt_answer.ok()) {
      realtime.Add(Score(rt_answer->probs, rho, truth, tolerance));
    }
    auto mle_sat = Baseline(filtered_db->get(), query, Determinization::kMle);
    if (mle_sat.ok()) mle.Add(Score(*mle_sat, 0.5, truth, tolerance));

    // Archived: Lahar on smoothed Markovian streams vs the Viterbi path.
    Lahar ar(smoothed_db->get());
    auto ar_answer = ar.Run(query);
    if (ar_answer.ok()) {
      archived.Add(Score(ar_answer->probs, rho, truth, tolerance));
    }
    auto map_sat =
        Baseline(smoothed_db->get(), query, Determinization::kViterbi);
    if (map_sat.ok()) viterbi.Add(Score(*map_sat, 0.5, truth, tolerance));
  }

  std::printf("\nCoffee-room events in the ground truth: %zu\n", total_events);
  std::printf("\nReal-time scenario (threshold rho = %.2f):\n", rho);
  realtime.Print("Lahar (independent)");
  mle.Print("MLE baseline");
  std::printf("\nArchived scenario:\n");
  archived.Print("Lahar (Markovian)");
  viterbi.Print("Viterbi MAP baseline");
  std::printf("\nThe probabilistic engines trade a tunable amount of "
              "precision for far higher recall; see bench_fig09/fig10 for "
              "the full threshold sweeps.\n");
  return 0;
}
