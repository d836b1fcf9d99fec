// The end-to-end data pipeline of Section 2.4: true paths -> raw RFID
// readings -> inference -> probabilistic event streams.
//
//   Real-time scenario: bootstrap particle filter -> filtered marginals ->
//   an *independent* At stream (with realistic particle churn).
//   Archived scenario: exact forward-backward smoothing -> smoothed
//   marginals + pairwise CPTs -> a *Markovian* At stream (Fig. 3(d)).
//   Ground truth: the simulator's true path as a certain stream, from which
//   any query's true event times follow by deterministic evaluation.
#ifndef LAHAR_SIM_TRACE_GENERATOR_H_
#define LAHAR_SIM_TRACE_GENERATOR_H_

#include <string>
#include <vector>

#include "inference/hmm.h"
#include "model/database.h"
#include "sim/floorplan.h"
#include "sim/sensor.h"
#include "sim/trajectory.h"

namespace lahar {

/// Configuration of the simulation + inference pipeline.
struct PipelineConfig {
  double read_rate = 0.7;    ///< antenna detection probability
  double bleed_rate = 0.05;  ///< adjacent-antenna misfire probability
  double hall_stay = 0.3;    ///< motion model: hallway self-transition
  double room_stay = 0.75;   ///< motion model: room self-transition
  double coffee_bias = 1.0;  ///< destination prior for coffee rooms
  size_t num_particles = 250;
};

/// \brief One tag's simulated data.
struct TagTrace {
  std::string name;
  TruePath true_path;              ///< [1..T], entry 0 unused
  std::vector<Reading> readings;   ///< [1..T], entry 0 unused
};

/// \brief Simulates readings and turns them into Lahar streams.
class TracePipeline {
 public:
  /// The pipeline borrows the floorplan; the caller keeps it alive.
  TracePipeline(const Floorplan* floorplan, PipelineConfig config);

  const Floorplan& floorplan() const { return *floorplan_; }
  const RfidSensorModel& sensor() const { return sensor_; }
  const DiscreteHmm& model() const { return model_; }

  /// Samples raw readings along a true path.
  TagTrace Observe(std::string name, TruePath true_path, Rng* rng) const;

  /// Declares the At(tag | location) schema and the location-type relations
  /// (Hallway, Office, CoffeeRoom, LectureRoom, Lobby, Room, NotRoom) in a
  /// fresh database. Idempotent per database.
  Status DeclareWorld(EventDatabase* db) const;

  /// Particle-filtered independent stream (real-time scenario).
  Result<StreamId> AddFilteredStream(EventDatabase* db, const TagTrace& tag,
                                     Rng* rng) const;

  /// Smoothed Markovian stream with CPTs (archived scenario).
  Result<StreamId> AddSmoothedStream(EventDatabase* db,
                                     const TagTrace& tag) const;

  /// Exact-forward-filtered independent stream (the archived-scenario
  /// ablation "smoothed marginals treated as independent" uses smoothing;
  /// this one is the noise-free real-time reference).
  Result<StreamId> AddExactFilteredStream(EventDatabase* db,
                                          const TagTrace& tag) const;

  /// Smoothed marginals *without* the CPTs — the Section 4.2.1 ablation
  /// quantifying how much the Markovian correlations themselves add.
  Result<StreamId> AddSmoothedIndependentStream(EventDatabase* db,
                                                const TagTrace& tag) const;

  /// The true path as a certain stream (ground truth for metrics).
  Result<StreamId> AddTruthStream(EventDatabase* db, const TagTrace& tag) const;

 private:
  Result<StreamId> AddMarginalStream(
      EventDatabase* db, const std::string& name,
      const std::vector<std::vector<double>>& marginals) const;

  const Floorplan* floorplan_;
  PipelineConfig config_;
  RfidSensorModel sensor_;
  DiscreteHmm model_;
};

}  // namespace lahar

#endif  // LAHAR_SIM_TRACE_GENERATOR_H_
