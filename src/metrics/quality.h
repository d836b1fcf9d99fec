// Quality metrics of Section 4.2: precision, recall, and F1 under the
// paper's d-second tolerance matching, plus threshold sweeps over rho and
// ground-truth skew injection.
//
// Probabilistic outputs are thresholded at rho and clustered into detection
// events (maximal runs of above-threshold timesteps); a detection matches a
// true event if it falls within `tolerance` timesteps; matching is one-to-
// one and greedy in time order.
#ifndef LAHAR_METRICS_QUALITY_H_
#define LAHAR_METRICS_QUALITY_H_

#include <vector>

#include "common/rng.h"
#include "model/value.h"

namespace lahar {

/// \brief Precision / recall / F1 with the raw counts behind them.
struct QualityScore {
  double precision = 0;
  double recall = 0;
  double f1 = 0;
  size_t true_positives = 0;
  size_t false_positives = 0;
  size_t false_negatives = 0;
};

/// Clusters per-timestep detections into events: each maximal run of
/// detected timesteps contributes its first timestep.
std::vector<Timestamp> DetectionEvents(const std::vector<bool>& detected);

/// Thresholds probabilities at rho (strictly greater) then clusters.
std::vector<Timestamp> DetectionEvents(const std::vector<double>& probs,
                                       double rho);

/// One-to-one greedy matching of detection events to truth events within
/// `tolerance`.
QualityScore ScoreEvents(const std::vector<Timestamp>& detections,
                         const std::vector<Timestamp>& truth,
                         Timestamp tolerance);

/// Convenience: threshold + cluster + score.
QualityScore Score(const std::vector<double>& probs, double rho,
                   const std::vector<Timestamp>& truth, Timestamp tolerance);

/// Adds uniform random skew in [-max_skew, +max_skew] to each truth time
/// (clamped to [1, horizon]), modelling the noisy participant annotations
/// of Section 4.2.2.
std::vector<Timestamp> InjectSkew(const std::vector<Timestamp>& truth,
                                  Timestamp max_skew, Timestamp horizon,
                                  Rng* rng);

}  // namespace lahar

#endif  // LAHAR_METRICS_QUALITY_H_
