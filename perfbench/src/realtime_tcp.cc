// realtime_tcp: the paper's real-time setting with inference in the loop.
//
// One producer thread runs ParticleFilter::Step for every tag on each tick
// and sends the TickBatch over one TCP connection, open loop at 100
// ticks/s. Two subscriber connections each receive every pushed µ(q@t).
// Setup preloads an exact-filtered history, so every registration replays
// it (catch-up) and set-up time is real work. After the measured ticks,
// ad-hoc Extended queries are registered against the whole history.
#include <algorithm>

#include "bench.h"
#include "feed.h"
#include "inference/particle_filter.h"

namespace perfbench {

using namespace lahar;

namespace {

// 25 tags keep the producer thread's particle filter near a fifth of the
// 10 ms tick budget, so the open loop still keeps up on a host three times
// slower; at 50 tags such a host let the backlog grow without bound.
constexpr size_t kTags = 25;
constexpr size_t kParticles = 250;
constexpr int64_t kPeriodNs = 10'000'000;  // 100 ticks/s
constexpr Timestamp kHistory = 1000;       // preloaded exact-filtered ticks
constexpr size_t kSubscribers = 2;
constexpr size_t kSetups = 3;
constexpr size_t kWarmupTicks = 100;
// Ad-hoc registrations after the measured ticks: α-variants of an all-tag
// Extended query, each caught up over the whole history. All stay live
// until the last one is in, then they are removed. 200 of them take
// several seconds, so the median spans more than one moment of a shared
// host's speed.
constexpr size_t kAdhoc = 200;
constexpr const char* kAdhocPattern =
    "At(p$, a$ : NotRoom(a$)); At(p$, b$ : CoffeeRoom(b$))";

// 50 grounded Regular (two per tag), 3 Extended, 1 all-tag Regular, and
// the Fig 14 Safe plan (on independent streams, as in the paper).
std::vector<std::string> Queries(const Scenario& scenario) {
  static const char* kKinds[] = {"Room", "Hallway", "CoffeeRoom", "Office"};
  std::vector<std::string> out;
  for (size_t i = 0; i < 2 * scenario.tags.size(); ++i) {
    out.push_back("At('" + scenario.tags[i / 2].name + "', l : " +
                  kKinds[i % 4] + "(l))");
  }
  out.push_back("At(p, l1 : NotRoom(l1)); At(p, l2 : CoffeeRoom(l2))");
  out.push_back(
      "(At(p, l1); At(p, l2); At(p, l3)) "
      "WHERE NotRoom(l1) AND NotRoom(l2) AND CoffeeRoom(l3)");
  out.push_back("At(p, l1 : Hallway(l1)); At(p, l2 : Office(l2))");
  out.push_back("At(x, l : Room(l))");
  out.push_back("At(p, l1); At(p, l2); At(q, l3)");
  return out;
}

struct Setup {
  ServedFeed served;
  std::vector<TickBatch> history;
  double filter_s = 0;
};

// Exact-filters the history, then preloads and serves it.
Status BuildSetup(const Scenario& scenario,
                  const std::vector<std::string>& queries, FeedLog* log,
                  Tracer* tracer, Setup* setup) {
  setup->filter_s =
      ExactFilteredBatches(scenario, kHistory, &setup->history, tracer);
  if (setup->filter_s < 0) return Status::Internal("exact filter failed");
  return ServeFeed(scenario, setup->history, queries, kSubscribers, log,
                   &setup->served);
}

}  // namespace

Report RunRealtimeTcp(const Options& options, Tracer* tracer) {
  Report report;
  const size_t total =
      kWarmupTicks + static_cast<size_t>(options.seconds * 100);
  auto scenario = RandomWalkScenario(
      kTags, kHistory + static_cast<Timestamp>(total), options.seed);
  if (!scenario.ok()) {
    report.Fail("scenario: " + scenario.status().ToString());
    return report;
  }
  const std::vector<std::string> queries = Queries(*scenario);

  // Set up several times and keep the last; setup_s is their median.
  std::vector<double> setup_s, filter_s;
  std::unique_ptr<FeedLog> log;
  std::unique_ptr<Setup> setup;
  for (size_t i = 0; i < kSetups; ++i) {
    setup.reset();
    log = std::make_unique<FeedLog>(kHistory + 1, total, kSubscribers);
    setup = std::make_unique<Setup>();
    report.attempted += queries.size();
    const int64_t start = NowNs();
    Status st =
        BuildSetup(*scenario, queries, log.get(), tracer, setup.get());
    setup_s.push_back(MsBetween(start, NowNs()) / 1e3);
    filter_s.push_back(setup->filter_s);
    if (!st.ok()) {
      report.Fail("setup: " + st.ToString());
      return report;
    }
  }

  // Per-tag particle filters start fresh at the first live tick.
  const DiscreteHmm& model = scenario->pipeline->model();
  const RfidSensorModel& sensor = scenario->pipeline->sensor();
  Rng rng(options.seed ^ 0x9a27c1e5ULL);
  std::vector<ParticleFilter> filters;
  for (size_t s = 0; s < kTags; ++s) {
    filters.emplace_back(&model, kParticles, rng.Split());
  }
  std::vector<int64_t> step_ns(total, 0);
  auto make = [&](size_t i) {
    TickBatch batch;
    batch.t = kHistory + 1 + static_cast<Timestamp>(i);
    for (size_t s = 0; s < kTags; ++s) {
      std::vector<double> lk =
          sensor.Likelihood(scenario->tags[s].readings[batch.t]);
      const int64_t start = NowNs();
      std::vector<double> marginal = filters[s].Step(lk);
      step_ns[i] += NowNs() - start;
      StreamUpdate u;
      u.stream = static_cast<StreamId>(s);
      u.marginal = ToDomain(marginal);
      batch.updates.push_back(std::move(u));
    }
    return batch;
  };

  ServedFeed& served = setup->served;
  RuntimeStats before;
  double cpu_before = 0;
  FeedOutcome feed = RunFeed(
      log.get(), NowNs() + 20'000'000, kPeriodNs, make, served, kWarmupTicks,
      [&] {
        before = served.stack.server->Stats();
        cpu_before = CpuMs();
      },
      &report);
  const double cpu_after = CpuMs();
  const RuntimeStats after = served.stack.server->Stats();
  const double peak_rss_mb = PeakRssMb();

  // Registration latency: ad-hoc queries against the full live history,
  // outside the latency window so their catch-up stalls no tick.
  std::vector<double> register_ms, unregister_ms;
  std::vector<QueryId> adhoc;
  for (size_t k = 0; k < kAdhoc; ++k) {
    const std::string text = Spell(kAdhocPattern, k);
    ++report.attempted;
    const int64_t start = NowNs();
    auto reg = served.control->RegisterQuery(text);
    register_ms.push_back(MsBetween(start, NowNs()));
    tracer->Record("runtime.register", nullptr, k, start, NowNs());
    if (!reg.ok()) {
      report.Fail("register " + text + ": " + reg.status().ToString());
      continue;
    }
    adhoc.push_back(reg->id);
  }
  for (QueryId id : adhoc) {
    ++report.attempted;
    const int64_t start = NowNs();
    Status st = served.control->UnregisterQuery(id);
    unregister_ms.push_back(MsBetween(start, NowNs()));
    if (!st.ok()) report.Fail("unregister: " + st.ToString());
  }
  served.stack.runtime->ingest().Close();
  served.stack.runtime->Stop();

  FeedSamples samples =
      Measure(*log, kWarmupTicks, feed.produced, "inference.pf", tracer);
  const double ticks = static_cast<double>(samples.latency.size());
  double pf_ms = 0, steps_ms = 0;
  for (double v : samples.make) pf_ms += v;
  for (size_t i = kWarmupTicks; i < feed.produced; ++i) {
    steps_ms += static_cast<double>(step_ns[i]) / 1e6;
  }

  report.E2e("setup_s", Median(setup_s));
  report.E2e("ticks_per_s", ticks / samples.wall_s);
  report.E2e("latency_p50_ms", Percentile(samples.latency, 0.5));
  report.E2e("register_p50_ms", Percentile(register_ms, 0.5));
  report.E2e("register_p90_ms", Percentile(register_ms, 0.9));
  report.E2e("cpu_ms_per_tick",
             (cpu_after - cpu_before) / std::max(1.0, ticks));
  report.E2e("peak_rss_mb", peak_rss_mb);

  report.Layer("inference.pf_tick_ms", Percentile(samples.make, 0.5));
  report.Layer("inference.pf_step_us",
               steps_ms * 1e3 / std::max(1.0, ticks * kTags));
  report.Layer("inference.pf_busy_frac", pf_ms / (samples.wall_s * 1e3));
  report.Layer("inference.filter_s", Median(filter_s));
  AddFeedMetrics(samples, &report);
  AddNetLayers(before.net, after.net, static_cast<uint64_t>(ticks), &report);
  AddRuntimeLayers(before, after, &report);
  report.Layer("runtime.unregister_ms", Percentile(unregister_ms, 0.5));
  CountDroppedBatches(before, after, &report);

  // Correctness: every value a subscriber or the tick callback received,
  // against batch evaluation over the history plus the batches actually
  // sent (the particle-filter marginals recorded in flight).
  std::map<QueryId, std::string> text_of;
  for (size_t q = 0; q < queries.size(); ++q) {
    text_of[served.ids[q]] = queries[q];
  }
  std::vector<Observed> observed =
      ObservedFromCallback(log->callback, log->first_tick, text_of);
  for (auto& per_sub : feed.seen) {
    for (auto& [id, values] : per_sub) {
      observed.push_back(Observed{text_of[id], std::move(values)});
    }
  }
  std::unique_ptr<EventDatabase> check = Declarations(*scenario, false);
  Status st = ApplyAll(check.get(), setup->history);
  if (st.ok()) st = ApplyAll(check.get(), feed.sent);
  if (!st.ok()) {
    report.Fail("check database: " + st.ToString());
    return report;
  }
  report.attempted +=
      CheckAgainstBatch(check.get(), SessionOptions(), observed, &report);
  report.checked = true;
  report.Layer("analysis.prepare_us", PrepareUs(check.get(), queries));
  return report;
}

}  // namespace perfbench
