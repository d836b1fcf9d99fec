#include "sim/scenarios.h"

#include <algorithm>

namespace lahar {

const char* StreamKindName(StreamKind kind) {
  switch (kind) {
    case StreamKind::kFiltered: return "filtered";
    case StreamKind::kExactFiltered: return "exact_filtered";
    case StreamKind::kSmoothed: return "smoothed";
    case StreamKind::kSmoothedIndependent: return "smoothed_independent";
    case StreamKind::kTruth: return "truth";
  }
  return "?";
}

Result<std::unique_ptr<EventDatabase>> Scenario::BuildDatabase(
    StreamKind kind) const {
  auto db = std::make_unique<EventDatabase>();
  LAHAR_RETURN_NOT_OK(pipeline->DeclareWorld(db.get()));
  LAHAR_ASSIGN_OR_RETURN(Relation * person, db->DeclareRelation("Person", 1));
  Rng rng(seed ^ 0x5eed5eedULL);
  for (const TagTrace& tag : tags) {
    LAHAR_RETURN_NOT_OK(person->Insert({db->Sym(tag.name)}));
    switch (kind) {
      case StreamKind::kFiltered: {
        Rng tag_rng = rng.Split();
        LAHAR_RETURN_NOT_OK(
            pipeline->AddFilteredStream(db.get(), tag, &tag_rng).status());
        break;
      }
      case StreamKind::kExactFiltered:
        LAHAR_RETURN_NOT_OK(
            pipeline->AddExactFilteredStream(db.get(), tag).status());
        break;
      case StreamKind::kSmoothed:
        LAHAR_RETURN_NOT_OK(
            pipeline->AddSmoothedStream(db.get(), tag).status());
        break;
      case StreamKind::kSmoothedIndependent:
        LAHAR_RETURN_NOT_OK(
            pipeline->AddSmoothedIndependentStream(db.get(), tag).status());
        break;
      case StreamKind::kTruth:
        LAHAR_RETURN_NOT_OK(pipeline->AddTruthStream(db.get(), tag).status());
        break;
    }
  }
  return db;
}

namespace {

Scenario MakeScenario(Floorplan floorplan, PipelineConfig config,
                      uint64_t seed) {
  Scenario scenario;
  scenario.floorplan = std::make_shared<const Floorplan>(std::move(floorplan));
  scenario.pipeline =
      std::make_shared<const TracePipeline>(scenario.floorplan.get(), config);
  scenario.seed = seed;
  return scenario;
}

}  // namespace

Result<Scenario> OfficeScenario(size_t num_workers, Timestamp horizon,
                                uint64_t seed, PipelineConfig config) {
  int per_floor = static_cast<int>((num_workers + 1) / 2);
  // Dense antenna coverage (one per hallway segment), as in the paper's
  // heavily instrumented deployment; rooms stay unsensed.
  Floorplan fp =
      Floorplan::Building(2, std::max(4, per_floor), /*antenna_every=*/1);
  Scenario scenario = MakeScenario(std::move(fp), config, seed);
  std::vector<uint32_t> offices =
      scenario.floorplan->OfType(RoomType::kOffice);
  if (offices.size() < num_workers) {
    return Status::Internal("building too small for workers");
  }
  Rng rng(seed);
  for (size_t i = 0; i < num_workers; ++i) {
    Rng worker_rng = rng.Split();
    TruePath path = OfficeWorkerPath(*scenario.floorplan, offices[i], horizon,
                                     &worker_rng);
    Rng obs_rng = rng.Split();
    scenario.tags.push_back(scenario.pipeline->Observe(
        "tag" + std::to_string(i + 1), std::move(path), &obs_rng));
  }
  return scenario;
}

Result<Scenario> RandomWalkScenario(size_t num_tags, Timestamp horizon,
                                    uint64_t seed, PipelineConfig config) {
  Floorplan fp = Floorplan::Building(2, 10);
  Scenario scenario = MakeScenario(std::move(fp), config, seed);
  Matrix motion =
      scenario.floorplan->MotionModel(config.hall_stay, config.room_stay,
                                      config.coffee_bias);
  Rng rng(seed);
  for (size_t i = 0; i < num_tags; ++i) {
    Rng walk_rng = rng.Split();
    uint32_t start = static_cast<uint32_t>(
        walk_rng.Below(scenario.floorplan->num_locations()));
    TruePath path = RandomWalkPath(*scenario.floorplan, motion, start, horizon,
                                   &walk_rng);
    Rng obs_rng = rng.Split();
    scenario.tags.push_back(scenario.pipeline->Observe(
        "tag" + std::to_string(i + 1), std::move(path), &obs_rng));
  }
  return scenario;
}

Result<Scenario> RoomOccupancyScenario(Timestamp horizon, uint64_t seed,
                                       PipelineConfig config) {
  Floorplan fp = Floorplan::Corridor(6);
  Scenario scenario = MakeScenario(std::move(fp), config, seed);
  uint32_t start = scenario.floorplan->Find("hall1");
  uint32_t room = scenario.floorplan->Find("room4");
  TruePath path =
      EnterRoomAndStayPath(*scenario.floorplan, start, room, horizon);
  Rng rng(seed);
  scenario.tags.push_back(
      scenario.pipeline->Observe("tag1", std::move(path), &rng));
  return scenario;
}

}  // namespace lahar
