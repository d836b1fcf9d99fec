// Figure 12: real-time throughput (tuples/second) versus the number of
// concurrently tracked tags, for Q1 (Regular selection) and Q2 (Extended
// Regular sequence), comparing the MLE determinization, Lahar on
// independent streams, and naive random sampling (epsilon = delta = 0.1).
//
// Paper shape (log-scale): MLE is fastest but less than 2x above Lahar;
// sampling is orders of magnitude slower and degrades further on Q2.
#include "bench_util.h"
#include "engine/extended_engine.h"
#include "engine/sampling_engine.h"

using namespace lahar;
using namespace lahar::bench;

namespace {

struct Row {
  size_t tags;
  double mle;
  double lahar;
  double sampling;
};

Row RunOne(const char* query, size_t tags) {
  const Timestamp kHorizon = 60;
  auto scenario = RandomWalkScenario(tags, kHorizon, /*seed=*/7 + tags);
  auto db = scenario->BuildDatabase(StreamKind::kFiltered);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return {};
  }
  size_t tuples = (*db)->TotalTuples();
  Lahar lahar(db->get());
  auto prepared = lahar.Prepare(query);
  if (!prepared.ok()) {
    std::fprintf(stderr, "%s\n", prepared.status().ToString().c_str());
    return {};
  }

  Row row;
  row.tags = tags;
  row.mle = Throughput(tuples, MeanMs([&] {
    auto engine =
        SamplingEngine::Determinized(*prepared, **db, Determinization::kMle);
    auto sat = engine->RunToHorizon(kHorizon);
    (void)sat;
  }));
  row.lahar = Throughput(tuples, MeanMs([&] {
    auto engine = ExtendedRegularEngine::Create(*prepared, **db);
    auto probs = engine->RunToHorizon(kHorizon);
    (void)probs;
  }));
  row.sampling = Throughput(tuples, MeanMs([&] {
    SamplingOptions options;  // epsilon = delta = 0.1 -> 150 samples
    auto engine = SamplingEngine::Create(*prepared, **db, options);
    auto probs = engine->RunToHorizon(kHorizon);
    (void)probs;
  }));
  return row;
}

// One compare.py record per (query, tags, system) cell.
void PrintRecord(const char* query_label, size_t tags, const char* system,
                 double tuples_per_sec) {
  JsonLine()
      .Add("bench", std::string("fig12_realtime_perf"))
      .Add("query", std::string(query_label))
      .Add("tags", tags)
      .Add("system", std::string(system))
      .Add("tuples_per_sec", tuples_per_sec)
      .Print();
}

void RunQuery(const char* label, const char* query_label, const char* query) {
  std::printf("\n%s: %s\n", label, query);
  std::printf("%-6s %14s %14s %14s %10s\n", "tags", "MLE(t/s)", "Lahar(t/s)",
              "Sampling(t/s)", "MLE/Lahar");
  for (size_t tags : {1, 5, 10, 25, 50, 100}) {
    Row row = RunOne(query, tags);
    std::printf("%-6zu %14.0f %14.0f %14.0f %9.2fx\n", row.tags, row.mle,
                row.lahar, row.sampling,
                row.lahar > 0 ? row.mle / row.lahar : 0.0);
    PrintRecord(query_label, row.tags, "mle", row.mle);
    PrintRecord(query_label, row.tags, "lahar", row.lahar);
    PrintRecord(query_label, row.tags, "sampling", row.sampling);
  }
}

}  // namespace

int main() {
  std::printf("Fig 12 | Real-time throughput vs concurrent tags "
              "(horizon=60, particle-filtered streams)\n");
  RunQuery("Fig 12(a) Q1 [Regular selection]", "Q1", kQ1Selection);
  RunQuery("Fig 12(b) Q2 [Extended Regular sequence]", "Q2", kQ2Sequence);
  std::printf("\n(paper: MLE < 2x over Lahar; sampling orders of magnitude "
              "slower, worse on Q2)\n");
  return 0;
}
