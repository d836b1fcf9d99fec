// Prepackaged experiment scenarios: building + trajectories + inference,
// shared by the tests, examples, and the benchmark harness.
#ifndef LAHAR_SIM_SCENARIOS_H_
#define LAHAR_SIM_SCENARIOS_H_

#include <memory>
#include <string>
#include <vector>

#include "model/database.h"
#include "sim/trace_generator.h"

namespace lahar {

/// Which stream representation to materialize from a scenario.
enum class StreamKind {
  kFiltered,             ///< particle filter, independent (real-time)
  kExactFiltered,        ///< exact forward filter, independent
  kSmoothed,             ///< forward-backward + CPTs, Markovian (archived)
  kSmoothedIndependent,  ///< smoothed marginals without CPTs (ablation)
  kTruth,                ///< the certain ground-truth path
};

const char* StreamKindName(StreamKind kind);

/// \brief A simulated world: floorplan, pipeline, and per-tag traces.
struct Scenario {
  std::shared_ptr<const Floorplan> floorplan;
  std::shared_ptr<const TracePipeline> pipeline;
  std::vector<TagTrace> tags;
  uint64_t seed = 0;

  /// Builds a database holding every tag's stream of the given kind, the
  /// location-type relations, and a Person(tag) relation.
  Result<std::unique_ptr<EventDatabase>> BuildDatabase(StreamKind kind) const;
};

/// Office workers looping office -> hallway -> coffee room -> office in the
/// two-floor evaluation building (the Section 4.2 quality workload).
Result<Scenario> OfficeScenario(size_t num_workers, Timestamp horizon,
                                uint64_t seed, PipelineConfig config = {});

/// n tags random-walking through the building (the Section 4.3 performance
/// workload: "we simulate n objects moving simultaneously").
Result<Scenario> RandomWalkScenario(size_t num_tags, Timestamp horizon,
                                    uint64_t seed, PipelineConfig config = {});

/// One tag walking down a short corridor into a specific unsensed room and
/// staying there (the Fig. 11 occupancy scenario; ~6 candidate rooms).
Result<Scenario> RoomOccupancyScenario(Timestamp horizon, uint64_t seed,
                                       PipelineConfig config = {});

}  // namespace lahar

#endif  // LAHAR_SIM_SCENARIOS_H_
