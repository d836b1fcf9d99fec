#include "metrics/quality.h"

#include <algorithm>
#include <cstdlib>

namespace lahar {

std::vector<Timestamp> DetectionEvents(const std::vector<bool>& detected) {
  std::vector<Timestamp> events;
  bool in_run = false;
  for (Timestamp t = 1; t < detected.size(); ++t) {
    if (detected[t] && !in_run) {
      events.push_back(t);
      in_run = true;
    } else if (!detected[t]) {
      in_run = false;
    }
  }
  return events;
}

std::vector<Timestamp> DetectionEvents(const std::vector<double>& probs,
                                       double rho) {
  std::vector<bool> detected(probs.size(), false);
  for (size_t t = 1; t < probs.size(); ++t) detected[t] = probs[t] > rho;
  return DetectionEvents(detected);
}

QualityScore ScoreEvents(const std::vector<Timestamp>& detections,
                         const std::vector<Timestamp>& truth,
                         Timestamp tolerance) {
  std::vector<bool> truth_used(truth.size(), false);
  size_t tp = 0;
  for (Timestamp d : detections) {
    // Greedy: match the closest unused truth event within tolerance.
    size_t best = truth.size();
    long best_dist = static_cast<long>(tolerance) + 1;
    for (size_t i = 0; i < truth.size(); ++i) {
      if (truth_used[i]) continue;
      long dist = std::labs(static_cast<long>(truth[i]) - static_cast<long>(d));
      if (dist < best_dist) {
        best_dist = dist;
        best = i;
      }
    }
    if (best < truth.size()) {
      truth_used[best] = true;
      ++tp;
    }
  }
  QualityScore score;
  score.true_positives = tp;
  score.false_positives = detections.size() - tp;
  score.false_negatives = truth.size() - tp;
  score.precision = detections.empty()
                        ? (truth.empty() ? 1.0 : 0.0)
                        : static_cast<double>(tp) / detections.size();
  score.recall = truth.empty() ? 1.0 : static_cast<double>(tp) / truth.size();
  score.f1 = (score.precision + score.recall) > 0
                 ? 2 * score.precision * score.recall /
                       (score.precision + score.recall)
                 : 0.0;
  return score;
}

QualityScore Score(const std::vector<double>& probs, double rho,
                         const std::vector<Timestamp>& truth,
                         Timestamp tolerance) {
  return ScoreEvents(DetectionEvents(probs, rho), truth, tolerance);
}

std::vector<Timestamp> InjectSkew(const std::vector<Timestamp>& truth,
                                  Timestamp max_skew, Timestamp horizon,
                                  Rng* rng) {
  std::vector<Timestamp> out;
  out.reserve(truth.size());
  for (Timestamp t : truth) {
    long skew = static_cast<long>(rng->Below(2 * max_skew + 1)) -
                static_cast<long>(max_skew);
    long shifted = static_cast<long>(t) + skew;
    shifted = std::max(1L, std::min(static_cast<long>(horizon), shifted));
    out.push_back(static_cast<Timestamp>(shifted));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace lahar
