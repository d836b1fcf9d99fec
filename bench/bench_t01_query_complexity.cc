// Section 4.3.2, query-complexity experiment: throughput as the number of
// subgoals grows, with 50 concurrently tracked tags.
//
// Paper shape: real-time (independent) streams keep pace with the trace up
// to ~5 subgoals; Markovian streams, which carry far more state, manage ~3
// — acceptable because Markovian queries are meant for offline use.
// Every cell also prints one `JSON {...}` record with its tuples_per_sec for
// bench/compare.py.
#include <string>

#include "bench_util.h"
#include "engine/extended_engine.h"

using namespace lahar;
using namespace lahar::bench;

namespace {

// A sequence of k location subgoals grounded to one tag (the paper's
// per-key processes): the first k-1 steps outside rooms, the last in the
// coffee room.
std::string QueryWithSubgoals(const std::string& tag, int k) {
  std::string q;
  for (int i = 1; i <= k; ++i) {
    if (i > 1) q += "; ";
    std::string var = "l" + std::to_string(i);
    if (i == k) {
      q += "At('" + tag + "', " + var + " : CoffeeRoom(" + var + "))";
    } else {
      q += "At('" + tag + "', " + var + " : NotRoom(" + var + "))";
    }
  }
  return q;
}

// One compare.py record per (streams, subgoals) cell.
void PrintRecord(const char* streams, int subgoals, double tuples_per_sec) {
  JsonLine()
      .Add("bench", std::string("t01_query_complexity"))
      .Add("streams", std::string(streams))
      .Add("subgoals", static_cast<size_t>(subgoals))
      .Add("tuples_per_sec", tuples_per_sec)
      .Print();
}

void Run(const char* label, const char* streams, StreamKind kind,
         int max_subgoals) {
  const size_t kTags = 50;
  const Timestamp kHorizon = 60;
  auto scenario = RandomWalkScenario(kTags, kHorizon, /*seed=*/13);
  auto db = scenario->BuildDatabase(kind);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return;
  }
  size_t tuples = (*db)->TotalTuples();
  std::printf("\n%s (50 tags, horizon 60, %zu tuples)\n", label, tuples);
  std::printf("%-10s %14s %12s %18s\n", "subgoals", "tuples/s", "time(ms)",
              "keeps pace (<60s)");
  Lahar lahar(db->get());
  for (int k = 1; k <= max_subgoals; ++k) {
    std::vector<PreparedQuery> prepared;
    for (const TagTrace& tag : scenario->tags) {
      auto p = lahar.Prepare(QueryWithSubgoals(tag.name, k));
      if (!p.ok()) return;
      prepared.push_back(std::move(*p));
    }
    double ms = MeanMs([&] {
      for (const PreparedQuery& p : prepared) {
        auto engine = ExtendedRegularEngine::Create(p, **db);
        if (engine.ok()) {
          auto probs = engine->RunToHorizon(kHorizon);
          (void)probs;
        }
      }
    });
    std::printf("%-10d %14.0f %12.1f %18s\n", k, Throughput(tuples, ms), ms,
                ms < 60000.0 ? "yes" : "NO");
    PrintRecord(streams, k, Throughput(tuples, ms));
  }
}

}  // namespace

int main() {
  std::printf("Sec 4.3.2 | throughput vs number of subgoals\n");
  Run("Real-time (independent streams)", "independent", StreamKind::kFiltered,
      6);
  Run("Archived (Markovian streams)", "markovian", StreamKind::kSmoothed, 5);
  std::printf("\n(paper: viable up to ~5 subgoals real-time, ~3 Markovian)\n");
  return 0;
}
