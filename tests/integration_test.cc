// End-to-end integration tests: miniature versions of the paper's quality
// experiments, pinned so regressions in the simulator, inference, engines,
// or metrics surface as test failures (the full-size versions live in
// bench/).
#include <gtest/gtest.h>

#include <string>

#include "engine/lahar.h"
#include "engine/regular_engine.h"
#include "engine/sampling_engine.h"
#include "metrics/quality.h"
#include "sim/scenarios.h"
#include "test_util.h"

namespace lahar {
namespace {

PipelineConfig QualityConfig() {
  PipelineConfig config;
  config.read_rate = 0.6;
  config.bleed_rate = 0.06;
  config.room_stay = 0.8;
  config.coffee_bias = 3.0;
  config.num_particles = 100;
  return config;
}

std::string CoffeeQuery(const std::string& tag) {
  return "(At('" + tag + "', l1); At('" + tag + "', l2); At('" + tag +
         "', l3)) WHERE NotRoom(l1) AND NotRoom(l2) AND CoffeeRoom(l3)";
}

TEST(IntegrationTest, ArchivedLaharBeatsViterbiOnRecall) {
  auto scenario = OfficeScenario(3, 200, /*seed=*/2008, QualityConfig());
  ASSERT_OK(scenario.status());
  auto truth_db = scenario->BuildDatabase(StreamKind::kTruth);
  auto markov_db = scenario->BuildDatabase(StreamKind::kSmoothed);
  ASSERT_OK(truth_db.status());
  ASSERT_OK(markov_db.status());
  size_t lahar_tp = 0, lahar_fn = 0, viterbi_tp = 0, viterbi_fn = 0;
  for (const TagTrace& tag : scenario->tags) {
    std::string query = CoffeeQuery(tag.name);
    Lahar truth_lahar(truth_db->get());
    auto truth_answer = truth_lahar.Run(query);
    ASSERT_OK(truth_answer.status());
    auto truth = DetectionEvents(truth_answer->probs, 0.5);
    Lahar lahar(markov_db->get());
    auto answer = lahar.Run(query);
    ASSERT_OK(answer.status());
    QualityScore l = Score(answer->probs, 0.1, truth, 8);
    lahar_tp += l.true_positives;
    lahar_fn += l.false_negatives;
    auto prepared = lahar.Prepare(query);
    ASSERT_OK(prepared.status());
    auto viterbi = SamplingEngine::Determinized(*prepared, **markov_db,
                                                Determinization::kViterbi);
    ASSERT_OK(viterbi.status());
    auto sat = viterbi->RunToHorizon((*markov_db)->horizon());
    ASSERT_OK(sat.status());
    QualityScore v = Score(*sat, 0.5, truth, 8);
    viterbi_tp += v.true_positives;
    viterbi_fn += v.false_negatives;
  }
  ASSERT_GT(lahar_tp + lahar_fn, 0u);
  double lahar_recall = double(lahar_tp) / (lahar_tp + lahar_fn);
  double viterbi_recall = double(viterbi_tp) / (viterbi_tp + viterbi_fn);
  EXPECT_GT(lahar_recall, viterbi_recall)
      << "archived Lahar must out-recall the Viterbi MAP baseline";
}

TEST(IntegrationTest, MarkovOccupancyBeatsIndependence) {
  // The Fig. 11 shape in miniature: consecutive-room-occupancy probability
  // under Markovian correlations dwarfs the independent product.
  PipelineConfig config;
  config.read_rate = 0.8;
  config.room_stay = 0.6;
  auto scenario = RoomOccupancyScenario(30, /*seed=*/11, config);
  ASSERT_OK(scenario.status());
  auto markov_db = scenario->BuildDatabase(StreamKind::kSmoothed);
  auto indep_db = scenario->BuildDatabase(StreamKind::kSmoothedIndependent);
  ASSERT_OK(markov_db.status());
  ASSERT_OK(indep_db.status());
  const char* query =
      "(At('tag1', l1); At('tag1', l2); At('tag1', l3)) "
      "WHERE l1 = 'room4' AND l2 = 'room4' AND l3 = 'room4'";
  Lahar m(markov_db->get()), i(indep_db->get());
  auto markov = m.Run(query);
  auto indep = i.Run(query);
  ASSERT_OK(markov.status());
  ASSERT_OK(indep.status());
  double markov_peak = 0, indep_peak = 0;
  for (Timestamp t = 1; t < markov->probs.size(); ++t) {
    markov_peak = std::max(markov_peak, markov->probs[t]);
    indep_peak = std::max(indep_peak, indep->probs[t]);
  }
  EXPECT_GT(markov_peak, 2 * indep_peak)
      << "correlations must accrue occupancy probability";
}

TEST(IntegrationTest, PerfectSensorsGiveCertainAnswers) {
  // With a 100% read rate and antennas everywhere, inference recovers the
  // truth and the probabilistic answer collapses to the deterministic one.
  PipelineConfig config;
  config.read_rate = 1.0;
  config.bleed_rate = 0.0;
  Floorplan fp;
  uint32_t a = fp.AddLocation("za", RoomType::kHallway, true);
  uint32_t b = fp.AddLocation("zb", RoomType::kHallway, true);
  uint32_t c = fp.AddLocation("zc", RoomType::kHallway, true);
  fp.Link(a, b);
  fp.Link(b, c);
  auto shared_fp = std::make_shared<const Floorplan>(std::move(fp));
  auto pipeline =
      std::make_shared<const TracePipeline>(shared_fp.get(), config);
  Scenario scenario;
  scenario.floorplan = shared_fp;
  scenario.pipeline = pipeline;
  scenario.seed = 3;
  Rng rng(3);
  scenario.tags.push_back(
      pipeline->Observe("tag1", TruePath{0, a, b, c, c}, &rng));
  auto db = scenario.BuildDatabase(StreamKind::kExactFiltered);
  ASSERT_OK(db.status());
  Lahar lahar(db->get());
  auto answer =
      lahar.Run("At('tag1', l1 : l1 = 'za'); At('tag1', l2 : l2 = 'zb')");
  ASSERT_OK(answer.status());
  EXPECT_NEAR(answer->probs[2], 1.0, 1e-9);
  EXPECT_NEAR(answer->probs[1], 0.0, 1e-9);
  EXPECT_NEAR(answer->probs[3], 0.0, 1e-9);
}

TEST(IntegrationTest, AllStreamKindsAnswerTheCoffeeQuery) {
  auto scenario = OfficeScenario(2, 60, /*seed=*/5, QualityConfig());
  ASSERT_OK(scenario.status());
  for (StreamKind kind :
       {StreamKind::kFiltered, StreamKind::kExactFiltered,
        StreamKind::kSmoothed, StreamKind::kSmoothedIndependent,
        StreamKind::kTruth}) {
    auto db = scenario->BuildDatabase(kind);
    ASSERT_OK(db.status());
    Lahar lahar(db->get());
    auto answer = lahar.Run(CoffeeQuery("tag1"));
    ASSERT_TRUE(answer.ok())
        << StreamKindName(kind) << ": " << answer.status().ToString();
    EXPECT_EQ(answer->engine, EngineKind::kRegular) << StreamKindName(kind);
    for (double p : answer->probs) {
      ASSERT_GE(p, -1e-9) << StreamKindName(kind);
      ASSERT_LE(p, 1 + 1e-9) << StreamKindName(kind);
    }
  }
}

TEST(IntegrationTest, IntervalProbabilityAnswersAtAllQuestions) {
  auto scenario = OfficeScenario(1, 80, /*seed=*/9, QualityConfig());
  ASSERT_OK(scenario.status());
  auto truth_db = scenario->BuildDatabase(StreamKind::kTruth);
  auto db = scenario->BuildDatabase(StreamKind::kSmoothed);
  ASSERT_OK(truth_db.status());
  ASSERT_OK(db.status());
  // Did tag1 ever get coffee? Truth first:
  Lahar truth_lahar(truth_db->get());
  auto truth_answer = truth_lahar.Run(CoffeeQuery("tag1"));
  ASSERT_OK(truth_answer.status());
  bool truly_happened =
      !DetectionEvents(truth_answer->probs, 0.5).empty();
  ASSERT_TRUE(truly_happened);  // the office-worker script always visits
  Lahar lahar(db->get());
  auto prepared = lahar.Prepare(CoffeeQuery("tag1"));
  ASSERT_OK(prepared.status());
  auto chain = RegularChain::Create(prepared->normalized, **db);
  ASSERT_OK(chain.status());
  chain->EnableAcceptTracking();
  while (chain->time() < (*db)->horizon()) chain->Step();
  // The event happened several times over 80 steps; the accumulated
  // interval probability should be decisive even with noisy sensors.
  EXPECT_GT(chain->AcceptedProb(), 0.8);
}

}  // namespace
}  // namespace lahar
