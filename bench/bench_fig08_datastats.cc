// Figure 8: deployment and data statistics. The original experiment had 8
// people and 52 objects moving through a two-floor instrumented building
// for ~72 minutes; this bench reports the same inventory for our synthetic
// deployment plus the sizes of each derived data product (filtered
// marginals, smoothed marginals, smoothed CPTs, Viterbi paths). A closing
// JSON record gives what the smoothed CPTs cost in memory: the entries the
// streams store and the bytes their sparse slices hold, beside the bytes a
// dense D x D table per slice would hold.
#include "bench_util.h"
#include "inference/viterbi.h"

using namespace lahar;
using namespace lahar::bench;

namespace {

size_t CptTuples(const EventDatabase& db) {
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

// Stored CPT footprint of one database.
struct CptFootprint {
  size_t entries = 0;
  size_t bytes = 0;
  size_t dense_bytes = 0;
};

void AddFootprint(const EventDatabase& db, CptFootprint* out) {
  for (StreamId s = 0; s < db.num_streams(); ++s) {
    const Stream& stream = db.stream(s);
    out->entries += stream.cpt_entries();
    out->bytes += stream.cpt_bytes();
    if (!stream.markovian()) continue;
    for (Timestamp t = 1; t < stream.horizon(); ++t) {
      const CptView cpt = stream.CptAt(t);
      out->dense_bytes += cpt.rows() * cpt.cols() * sizeof(double);
    }
  }
}

}  // namespace

int main() {
  const size_t kPeople = 8;
  const size_t kObjects = 52;
  const Timestamp kHorizon = 600;  // ~72 simulated minutes at ~7s steps

  // People are office workers; objects random-walk (they ride along with
  // whoever carries them — approximated as independent walkers).
  auto people = OfficeScenario(kPeople, kHorizon, /*seed=*/88);
  auto objects = RandomWalkScenario(kObjects, kHorizon, /*seed=*/99);
  if (!people.ok() || !objects.ok()) return 1;

  const Floorplan& fp = *people->floorplan;
  std::printf("Fig 8(a) | deployment inventory (paper values in parens)\n");
  std::printf("%-22s %8zu  (8)\n", "People", kPeople);
  std::printf("%-22s %8zu  (52)\n", "Objects", kObjects);
  std::printf("%-22s %8zu  (352)\n", "Locations",
              fp.num_locations() + objects->floorplan->num_locations());
  std::printf("%-22s %8zu  (38)\n", "Antennas",
              fp.num_antennas() + objects->floorplan->num_antennas());
  std::printf("%-22s %8u  (~4300 s)\n", "Duration (steps)", kHorizon);

  // Merge both scenarios' tags into one database per representation.
  CptFootprint footprint;
  auto count = [&](StreamKind kind) -> std::pair<size_t, size_t> {
    auto pdb = people->BuildDatabase(kind);
    auto odb = objects->BuildDatabase(kind);
    if (!pdb.ok() || !odb.ok()) return {0, 0};
    size_t tuples = (*pdb)->TotalTuples() + (*odb)->TotalTuples();
    size_t cpts = CptTuples(**pdb) + CptTuples(**odb);
    if (kind == StreamKind::kSmoothed) {
      AddFootprint(**pdb, &footprint);
      AddFootprint(**odb, &footprint);
    }
    return {tuples, cpts};
  };

  std::printf("\nFig 8(b) | data products (tuple counts)\n");
  std::printf("%-22s %12s\n", "Data", "Tuples");
  auto [filtered, fc] = count(StreamKind::kFiltered);
  std::printf("%-22s %12zu   (paper: 5.2M)\n", "Filtered probs", filtered);
  auto [smoothed, sc] = count(StreamKind::kSmoothed);
  std::printf("%-22s %12zu   (paper: 5.2M)\n", "Smoothed probs", smoothed);
  std::printf("%-22s %12zu   (paper: 509M)\n", "Smoothed CPTs", sc);
  // Viterbi path: one tuple per tag per timestep.
  std::printf("%-22s %12zu   (paper: 75k)\n", "Viterbi paths",
              (kPeople + kObjects) * static_cast<size_t>(kHorizon));
  std::printf("\n(shape: CPTs dominate storage by ~2 orders of magnitude; "
              "Viterbi paths are the smallest product)\n");
  (void)fc;
  (void)smoothed;
  JsonLine()
      .Add("bench", std::string("fig08_datastats"))
      .Add("data", std::string("smoothed_cpts"))
      .Add("cpt_entries", footprint.entries)
      .Add("cpt_bytes", footprint.bytes)
      .Add("dense_cpt_bytes", footprint.dense_bytes)
      .Print();
  return 0;
}
