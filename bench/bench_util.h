// Shared helpers for the benchmark harness: canonical queries, scenario
// construction, wall-clock timing, and table printing. Every bench binary
// regenerates one table or figure of the paper's Section 4; absolute
// numbers differ from the 2008 testbed, but the comparisons' shapes are the
// deliverable (see EXPERIMENTS.md).
#ifndef LAHAR_BENCH_BENCH_UTIL_H_
#define LAHAR_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "engine/lahar.h"
#include "engine/sampling_engine.h"
#include "metrics/quality.h"
#include "sim/scenarios.h"

namespace lahar {
namespace bench {

/// The paper's central quality query (Section 4.2): two consecutive
/// timesteps outside any room, then inside the coffee room.
inline const char* kCoffeeQuery =
    "(At(p, l1); At(p, l2); At(p, l3)) "
    "WHERE NotRoom(l1) AND NotRoom(l2) AND CoffeeRoom(l3)";

/// Q1 of Section 4.3: a Regular selection.
inline const char* kQ1Selection = "At(p, l : CoffeeRoom(l))";

/// Q2 of Section 4.3: an Extended Regular sequence.
inline const char* kQ2Sequence =
    "At(p, l1 : NotRoom(l1)); At(p, l2 : CoffeeRoom(l2))";

/// The Fig. 14 Safe query (distinct-keys reading of q vs p).
inline const char* kSafeQuery = "At(p, l1); At(p, l2); At(q, l3)";

/// Per-timestep satisfaction of a deterministic baseline.
inline std::vector<Timestamp> BaselineEvents(EventDatabase* db,
                                             const std::string& query,
                                             Determinization mode) {
  Lahar lahar(db);
  auto prepared = lahar.Prepare(query);
  if (!prepared.ok()) return {};
  auto engine = SamplingEngine::Determinized(*prepared, *db, mode);
  if (!engine.ok()) return {};
  auto sat = engine->RunToHorizon(db->horizon());
  if (!sat.ok()) return {};
  return DetectionEvents(*sat, 0.5);
}

/// The pipeline configuration used by the quality experiments; calibrated
/// so the simulated deployment exhibits the paper's regimes (read rates in
/// the noisy 60% band, sticky rooms, a learned coffee-destination prior).
inline PipelineConfig QualityConfig() {
  PipelineConfig config;
  config.read_rate = 0.6;
  config.bleed_rate = 0.06;
  config.hall_stay = 0.3;
  config.room_stay = 0.8;
  config.coffee_bias = 3.0;
  config.num_particles = 100;
  return config;
}

/// The coffee query grounded to one tag (the paper runs one query process
/// per person; quality is pooled over the per-tag scores).
inline std::string TagCoffeeQuery(const std::string& tag) {
  return "(At('" + tag + "', l1); At('" + tag + "', l2); At('" + tag +
         "', l3)) WHERE NotRoom(l1) AND NotRoom(l2) AND CoffeeRoom(l3)";
}

/// Pools true/false positive counts across tags into one score.
class PooledScore {
 public:
  void Add(const QualityScore& s) {
    tp_ += s.true_positives;
    fp_ += s.false_positives;
    fn_ += s.false_negatives;
  }
  QualityScore Finish() const {
    QualityScore s;
    s.true_positives = tp_;
    s.false_positives = fp_;
    s.false_negatives = fn_;
    s.precision = tp_ + fp_ ? static_cast<double>(tp_) / (tp_ + fp_) : 1.0;
    s.recall = tp_ + fn_ ? static_cast<double>(tp_) / (tp_ + fn_) : 1.0;
    s.f1 = s.precision + s.recall > 0
               ? 2 * s.precision * s.recall / (s.precision + s.recall)
               : 0.0;
    return s;
  }

 private:
  size_t tp_ = 0, fp_ = 0, fn_ = 0;
};

/// Per-tag quality inputs for the coffee query on one database kind.
struct TagQualityData {
  std::vector<std::vector<Timestamp>> truths;     // per tag
  std::vector<std::vector<double>> probs;         // per tag (Lahar)
  std::vector<std::vector<Timestamp>> baseline;   // per tag (MLE/Viterbi)
  size_t total_truth = 0;

  QualityScore LaharAt(double rho, Timestamp tolerance) const {
    PooledScore pooled;
    for (size_t i = 0; i < truths.size(); ++i) {
      pooled.Add(Score(probs[i], rho, truths[i], tolerance));
    }
    return pooled.Finish();
  }
  QualityScore BaselineScore(Timestamp tolerance) const {
    PooledScore pooled;
    for (size_t i = 0; i < truths.size(); ++i) {
      pooled.Add(ScoreEvents(baseline[i], truths[i], tolerance));
    }
    return pooled.Finish();
  }
};

/// Runs the per-tag coffee query over `kind` streams and the given
/// deterministic baseline.
inline TagQualityData CollectTagQuality(const Scenario& scenario,
                                        StreamKind kind,
                                        Determinization baseline_mode) {
  TagQualityData data;
  auto truth_db = scenario.BuildDatabase(StreamKind::kTruth);
  auto db = scenario.BuildDatabase(kind);
  if (!truth_db.ok() || !db.ok()) {
    std::fprintf(stderr, "database construction failed\n");
    return data;
  }
  for (const TagTrace& tag : scenario.tags) {
    std::string query = TagCoffeeQuery(tag.name);
    Lahar truth_lahar(truth_db->get());
    auto truth_answer = truth_lahar.Run(query);
    if (!truth_answer.ok()) continue;
    data.truths.push_back(DetectionEvents(truth_answer->probs, 0.5));
    data.total_truth += data.truths.back().size();
    Lahar lahar(db->get());
    auto answer = lahar.Run(query);
    data.probs.push_back(answer.ok() ? answer->probs : std::vector<double>{});
    data.baseline.push_back(BaselineEvents(db->get(), query, baseline_mode));
  }
  return data;
}

/// \brief Builder for one flat JSON object, emitted as a single line.
///
/// The bench binaries print human-readable tables for eyeballing plus one
/// JSON line per measurement (prefixed so plotting scripts can grep them
/// out of the mixed stdout stream).
class JsonLine {
 public:
  JsonLine& Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return Raw(key, buf);
  }
  JsonLine& Add(const std::string& key, size_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonLine& Add(const std::string& key, const std::string& value) {
    return Raw(key, "\"" + value + "\"");  // keys/values here need no escaping
  }
  std::string str() const { return "{" + body_ + "}"; }
  void Print() const { std::printf("JSON %s\n", str().c_str()); }

 private:
  JsonLine& Raw(const std::string& key, const std::string& value) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":" + value;
    return *this;
  }
  std::string body_;
};

/// Milliseconds spent running `fn`.
inline double TimeMs(const std::function<void()>& fn) {
  auto start = std::chrono::steady_clock::now();
  fn();
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count();
}

/// Minimum timed run per paper-figure cell: one pass of a cell takes
/// 0.3-40 ms, too short to time once on a shared host.
inline constexpr double kMinCellMs = 200;

/// Mean milliseconds per run of `fn`, repeated until at least `min_ms`
/// have run (once at minimum) — t05's minimum-time loop.
inline double MeanMs(const std::function<void()>& fn,
                     double min_ms = kMinCellMs) {
  double total_ms = 0;
  size_t reps = 0;
  while (total_ms < min_ms || reps == 0) {
    total_ms += TimeMs(fn);
    ++reps;
  }
  return total_ms / static_cast<double>(reps);
}

/// tuples-per-second given a tuple count and elapsed milliseconds.
inline double Throughput(size_t tuples, double ms) {
  return ms > 0 ? 1000.0 * static_cast<double>(tuples) / ms : 0.0;
}

/// Ground-truth event times of `query` — evaluated exactly on the
/// scenario's certain truth streams.
inline std::vector<Timestamp> GroundTruth(const Scenario& scenario,
                                          const std::string& query) {
  auto truth_db = scenario.BuildDatabase(StreamKind::kTruth);
  if (!truth_db.ok()) {
    std::fprintf(stderr, "truth db: %s\n",
                 truth_db.status().ToString().c_str());
    return {};
  }
  Lahar lahar(truth_db->get());
  auto answer = lahar.Run(query);
  if (!answer.ok()) {
    std::fprintf(stderr, "truth query: %s\n",
                 answer.status().ToString().c_str());
    return {};
  }
  return DetectionEvents(answer->probs, 0.5);
}

/// Prints a quality sweep header / row in the Fig. 9 / Fig. 10 layout.
inline void PrintQualityHeader(const char* title,
                               const std::vector<std::string>& systems) {
  std::printf("\n%s\n", title);
  std::printf("%-6s", "rho");
  for (const auto& s : systems) {
    std::printf(" | %-8s %-8s %-8s", (s + ".P").c_str(), (s + ".R").c_str(),
                (s + ".F1").c_str());
  }
  std::printf("\n");
}

inline void PrintQualityRow(double rho,
                            const std::vector<QualityScore>& scores) {
  std::printf("%-6.2f", rho);
  for (const auto& s : scores) {
    std::printf(" | %-8.3f %-8.3f %-8.3f", s.precision, s.recall, s.f1);
  }
  std::printf("\n");
}

}  // namespace bench
}  // namespace lahar

#endif  // LAHAR_BENCH_BENCH_UTIL_H_
