// Figure 13: archived throughput (tuples/second) versus the number of
// concurrently tracked tags over smoothed Markovian streams, comparing the
// Viterbi MAP determinization, Lahar's Markov-chain evaluation, and naive
// random sampling. Queries are grounded per key and the times summed — the
// paper's architecture runs one query process per key per stream.
//
// Paper shape: Viterbi and Lahar(Markov) have comparable raw throughput,
// both orders of magnitude above sampling; and because a Markovian timestep
// carries ~D^2 CPT tuples where the MLE stream carries ~1, the *effective
// objects per second* of the Markovian pipeline is about an order of
// magnitude lower than the raw tuple rate suggests.
#include <string>

#include "bench_util.h"
#include "engine/extended_engine.h"
#include "engine/sampling_engine.h"

using namespace lahar;
using namespace lahar::bench;

namespace {

// Counts CPT entries as tuples (the E(ID, T, A', A, P) encoding of
// Fig. 3(d)), matching how the paper accounts for Markovian stream size.
size_t MarkovTuples(const EventDatabase& db) {
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

std::string GroundQ1(const std::string& tag) {
  return "At('" + tag + "', l : CoffeeRoom(l))";
}
std::string GroundQ2(const std::string& tag) {
  return "At('" + tag + "', l1 : NotRoom(l1)); At('" + tag +
         "', l2 : CoffeeRoom(l2))";
}

// One compare.py record per (query, tags, system) cell.
void PrintRecord(const char* query_label, size_t tags, const char* system,
                 double tuples_per_sec) {
  JsonLine()
      .Add("bench", std::string("fig13_archived_perf"))
      .Add("query", std::string(query_label))
      .Add("tags", tags)
      .Add("system", std::string(system))
      .Add("tuples_per_sec", tuples_per_sec)
      .Print();
}

void RunQuery(const char* label, const char* query_label,
              std::string (*ground)(const std::string&)) {
  const Timestamp kHorizon = 60;
  std::printf("\n%s\n", label);
  std::printf("%-6s %16s %16s %16s %14s\n", "tags", "Viterbi(t/s)",
              "Lahar-Mkv(t/s)", "Sampling(t/s)", "eff-obj/s(Mkv)");
  for (size_t tags : {1, 5, 10, 25, 50}) {
    auto scenario = RandomWalkScenario(tags, kHorizon, /*seed=*/7 + tags);
    auto db = scenario->BuildDatabase(StreamKind::kSmoothed);
    if (!db.ok()) {
      std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
      return;
    }
    size_t tuples = MarkovTuples(**db);
    Lahar lahar(db->get());
    std::vector<PreparedQuery> prepared;
    for (const TagTrace& tag : scenario->tags) {
      auto p = lahar.Prepare(ground(tag.name));
      if (!p.ok()) {
        std::fprintf(stderr, "%s\n", p.status().ToString().c_str());
        return;
      }
      prepared.push_back(std::move(*p));
    }
    double viterbi_ms = MeanMs([&] {
      for (const PreparedQuery& p : prepared) {
        auto engine =
            SamplingEngine::Determinized(p, **db, Determinization::kViterbi);
        auto sat = engine->RunToHorizon(kHorizon);
        (void)sat;
      }
    });
    double lahar_ms = MeanMs([&] {
      for (const PreparedQuery& p : prepared) {
        auto engine = ExtendedRegularEngine::Create(p, **db);
        auto probs = engine->RunToHorizon(kHorizon);
        (void)probs;
      }
    });
    double sampling_ms = MeanMs([&] {
      for (const PreparedQuery& p : prepared) {
        auto engine = SamplingEngine::Create(p, **db, {});
        auto probs = engine->RunToHorizon(kHorizon);
        (void)probs;
      }
    });
    double eff_objects =
        lahar_ms > 0 ? 1000.0 * tags * kHorizon / lahar_ms : 0.0;
    std::printf("%-6zu %16.0f %16.0f %16.0f %14.0f\n", tags,
                Throughput(tuples, viterbi_ms), Throughput(tuples, lahar_ms),
                Throughput(tuples, sampling_ms), eff_objects);
    PrintRecord(query_label, tags, "viterbi", Throughput(tuples, viterbi_ms));
    PrintRecord(query_label, tags, "lahar", Throughput(tuples, lahar_ms));
    PrintRecord(query_label, tags, "sampling",
                Throughput(tuples, sampling_ms));
  }
}

}  // namespace

int main() {
  std::printf("Fig 13 | Archived throughput vs concurrent tags "
              "(horizon=60, smoothed Markovian streams; tuple count = CPT "
              "entries; one grounded query per key)\n");
  RunQuery("Fig 13(a) Q1 [Regular selection]", "Q1", GroundQ1);
  RunQuery("Fig 13(b) Q2 [Extended Regular sequence]", "Q2", GroundQ2);
  std::printf("\n(paper: Viterbi ~ Lahar(Markov) >> sampling; effective "
              "objects/s ~an order of magnitude below raw tuples/s)\n");
  return 0;
}
