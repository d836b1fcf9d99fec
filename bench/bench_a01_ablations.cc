// Ablations (google-benchmark): the design choices DESIGN.md calls out.
//
//  * NFA transition memoization on/off — the lazy subset construction cache
//    behind the Markov-chain evaluation.
//  * Safe-plan seq truncation on/off — the lazy/truncated evaluation behind
//    Fig. 14(b).
//  * Regular-chain step cost vs hidden-domain size — the D^2 term of the
//    Markovian update.
//  * Sampling cost vs sample count — the 1/eps^2 law.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "bench_util.h"
#include "engine/extended_engine.h"
#include "engine/sampling_engine.h"

namespace lahar {
namespace {

using bench::kQ2Sequence;
using bench::kSafeQuery;

// Shared scenario/db cache so each benchmark iteration measures evaluation,
// not simulation.
EventDatabase& FilteredDb(size_t tags, Timestamp horizon) {
  static std::map<std::pair<size_t, Timestamp>,
                  std::unique_ptr<EventDatabase>>
      cache;
  auto key = std::make_pair(tags, horizon);
  auto it = cache.find(key);
  if (it == cache.end()) {
    auto scenario = RandomWalkScenario(tags, horizon, /*seed=*/31);
    auto db = scenario->BuildDatabase(StreamKind::kFiltered);
    it = cache.emplace(key, std::move(*db)).first;
  }
  return *it->second;
}

PreparedQuery Prepare(EventDatabase& db, const char* query) {
  Lahar lahar(&db);
  auto prepared = lahar.Prepare(query);
  return *prepared;
}

void BM_NfaTransition(benchmark::State& state) {
  const bool memo = state.range(0) != 0;
  EventDatabase& db = FilteredDb(1, 60);
  PreparedQuery prepared = Prepare(db, kQ2Sequence);
  auto nfa = QueryNfa::Build(prepared.normalized);
  nfa->set_memoization(memo);
  Rng rng(5);
  std::vector<SymbolMask> inputs(1024);
  for (auto& i : inputs) i = rng.Next() & 0xF;
  size_t j = 0;
  StateMask s = nfa->InitialStates();
  for (auto _ : state) {
    s = nfa->Transition(s | nfa->InitialStates(), inputs[j++ & 1023]);
    benchmark::DoNotOptimize(s);
  }
  state.SetLabel(memo ? "memoized" : "no-memo");
}
BENCHMARK(BM_NfaTransition)->Arg(1)->Arg(0);

void BM_RegularChainStepVsDomain(benchmark::State& state) {
  const size_t domain = static_cast<size_t>(state.range(0));
  // A Markov stream with `domain` states.
  EventDatabase db;
  EventSchema schema;
  schema.type = db.interner().Intern("At");
  schema.attr_names = {db.interner().Intern("tag"),
                       db.interner().Intern("loc")};
  schema.num_key_attrs = 1;
  (void)db.DeclareSchema(schema);
  const size_t D = domain + 1;  // locations + bottom
  std::vector<double> init(D, 0.0);
  for (size_t d = 1; d < D; ++d) init[d] = 1.0 / domain;
  Matrix cpt(D, D, 0.0);
  cpt.At(0, 0) = 1.0;
  for (size_t i = 1; i < D; ++i) {
    for (size_t j = 1; j < D; ++j) {
      cpt.At(i, j) = i == j ? 0.6 : 0.4 / (domain - 1);
    }
  }
  Stream s2(schema.type, {db.Sym("tag1")}, 1, 64, true);
  for (size_t d = 0; d < domain; ++d) {
    s2.InternTuple({db.Sym("loc" + std::to_string(d))});
  }
  (void)s2.SetInitial(init);
  for (Timestamp t = 1; t < 64; ++t) (void)s2.SetCpt(t, cpt);
  (void)s2.FinalizeMarkov();
  (void)db.AddStream(std::move(s2));
  PreparedQuery prepared =
      Prepare(db, "At('tag1', l1 : l1 = 'loc0'); At('tag1', l2 : l2 = 'loc1')");
  auto base = RegularChain::Create(prepared.normalized, db);
  for (auto _ : state) {
    RegularChain chain = *base;
    for (int i = 0; i < 63; ++i) chain.Step();
    benchmark::DoNotOptimize(chain.AcceptProb());
  }
  state.SetItemsProcessed(state.iterations() * 63);
}
BENCHMARK(BM_RegularChainStepVsDomain)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_SafePlanTruncation(benchmark::State& state) {
  const bool lazy = state.range(0) != 0;
  EventDatabase& db = FilteredDb(3, 1500);
  PreparedQuery prepared = Prepare(db, kSafeQuery);
  for (auto _ : state) {
    LaharOptions options;
    options.plan.assume_distinct_keys = true;
    options.plan.seq_truncate = lazy ? 1e-12 : 0.0;
    options.allow_sampling_fallback = false;
    auto answer = Lahar(&db, options).Run(prepared);
    benchmark::DoNotOptimize(answer);
  }
  state.SetLabel(lazy ? "truncated/lazy" : "eager");
}
BENCHMARK(BM_SafePlanTruncation)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

void BM_SamplingVsSampleCount(benchmark::State& state) {
  const size_t samples = static_cast<size_t>(state.range(0));
  EventDatabase& db = FilteredDb(5, 60);
  PreparedQuery prepared = Prepare(db, kQ2Sequence);
  for (auto _ : state) {
    SamplingOptions options;
    options.num_samples = samples;
    auto engine = SamplingEngine::Create(prepared, db, options);
    auto probs = engine->RunToHorizon(db.horizon());
    benchmark::DoNotOptimize(probs);
  }
  state.SetItemsProcessed(state.iterations() * samples);
}
BENCHMARK(BM_SamplingVsSampleCount)
    ->Arg(150)
    ->Arg(600)
    ->Arg(2400)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace lahar

BENCHMARK_MAIN();
