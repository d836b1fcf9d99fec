// registry_churn: the same runtime and engines used the other way, with
// writes beside reads.
//
// Precomputed exact-filtered ticks arrive over TCP, open loop at 100
// ticks/s, on top of a preloaded history. One subscriber watches fixed
// base queries. One control connection registers a query every 50 ms from
// α-variant Extended and grounded Regular templates and keeps at most 32
// live by unregistering the oldest first; every registration is caught up
// over the whole history. StreamRuntime::Checkpoint() runs in-process
// every 2 s (serialization only, nothing is written to disk).
#include <algorithm>
#include <atomic>
#include <deque>
#include <thread>

#include "bench.h"
#include "feed.h"

namespace perfbench {

using namespace lahar;

namespace {

// Few tags keep an Extended registration's catch-up, and the tick stall it
// causes, a small share of the 50 ms churn period even on a slow host.
constexpr size_t kTags = 8;
constexpr Timestamp kHistory = 2000;
constexpr int64_t kPeriodNs = 10'000'000;        // 100 ticks/s
constexpr int64_t kChurnPeriodNs = 50'000'000;   // one registration / 50 ms
constexpr int64_t kCheckpointNs = 2'000'000'000;  // one checkpoint / 2 s
// Registrations start half a tick period after a tick is due, and
// checkpoints two periods after a registration, so each stall delays the
// same ticks on every run instead of racing a tick's ingest.
constexpr int64_t kRegisterPhaseNs = kPeriodNs / 2;
constexpr int64_t kCheckpointPhaseNs = kRegisterPhaseNs + 2 * kPeriodNs;
constexpr size_t kMaxLive = 32;
constexpr size_t kSetups = 3;
// Two seconds of warm-up: the churned population reaches kMaxLive before
// the measured window opens.
constexpr size_t kWarmupTicks = 200;

std::vector<std::string> BaseQueries(const Scenario& scenario) {
  std::vector<std::string> out;
  for (size_t i = 0; i < 4; ++i) {
    out.push_back("At('" + scenario.tags[i].name + "', l : Room(l))");
  }
  out.push_back("At(p, l1 : NotRoom(l1)); At(p, l2 : CoffeeRoom(l2))");
  // Four Safe plans give a tick about 1 ms of execution, so its latency
  // is not mostly thread wake-ups.
  out.push_back("At(p, l1); At(p, l2); At(q, l3)");
  out.push_back("At(p, l1 : Hallway(l1)); At(p, l2); At(q, l3 : Room(l3))");
  out.push_back("At(p, l1 : Room(l1)); At(p, l2 : Office(l2)); At(q, l3)");
  out.push_back("At(p, l1 : NotRoom(l1)); At(p, l2); At(q, l3 : Hallway(l3))");
  return out;
}

// Registration i of the churn: three template families in turn, each
// spelled with eight α-variants, so exact texts recur (prepared-plan
// dedup) and canonically equal queries are live together (sharing).
std::string ChurnText(const Scenario& scenario, size_t i) {
  const size_t k = (i / 3) % 8;
  switch (i % 3) {
    case 0:
      return Spell("At(p$, a$ : NotRoom(a$)); At(p$, b$ : CoffeeRoom(b$))", k);
    case 1:
      return Spell("At(p$, a$ : Hallway(a$)); At(p$, b$ : Office(b$))", k);
    default:
      return Spell("At('" + scenario.tags[(i / 3) % scenario.tags.size()].name +
                       "', l$ : Room(l$))",
                   k);
  }
}

struct Setup {
  ServedFeed served;
  std::vector<TickBatch> history;
  std::vector<TickBatch> live;
  double filter_s = 0;
};

// Exact-filters every tick (history and live), then preloads and serves
// the history.
Status BuildSetup(const Scenario& scenario, Timestamp horizon,
                  const std::vector<std::string>& queries, FeedLog* log,
                  Tracer* tracer, Setup* setup) {
  setup->filter_s =
      ExactFilteredBatches(scenario, horizon, &setup->history, tracer);
  if (setup->filter_s < 0) return Status::Internal("exact filter failed");
  setup->live.assign(setup->history.begin() + kHistory, setup->history.end());
  setup->history.resize(kHistory);
  return ServeFeed(scenario, setup->history, queries, /*subscribers=*/1, log,
                   &setup->served);
}

}  // namespace

Report RunRegistryChurn(const Options& options, Tracer* tracer) {
  Report report;
  const size_t total =
      kWarmupTicks + static_cast<size_t>(options.seconds * 100);
  const Timestamp horizon = kHistory + static_cast<Timestamp>(total);
  auto scenario = RandomWalkScenario(kTags, horizon, options.seed);
  if (!scenario.ok()) {
    report.Fail("scenario: " + scenario.status().ToString());
    return report;
  }
  const std::vector<std::string> queries = BaseQueries(*scenario);

  std::vector<double> setup_s, filter_s;
  std::unique_ptr<FeedLog> log;
  std::unique_ptr<Setup> setup;
  for (size_t i = 0; i < kSetups; ++i) {
    setup.reset();
    log = std::make_unique<FeedLog>(kHistory + 1, total, 1);
    setup = std::make_unique<Setup>();
    report.attempted += queries.size();
    const int64_t start = NowNs();
    Status st = BuildSetup(*scenario, horizon, queries, log.get(), tracer,
                           setup.get());
    setup_s.push_back(MsBetween(start, NowNs()) / 1e3);
    filter_s.push_back(setup->filter_s);
    if (!st.ok()) {
      report.Fail("setup: " + st.ToString());
      return report;
    }
  }
  ServedFeed& served = setup->served;
  std::map<QueryId, std::string> text_of;
  for (size_t q = 0; q < queries.size(); ++q) {
    text_of[served.ids[q]] = queries[q];
  }

  const int64_t t0 = NowNs() + 20'000'000;
  const int64_t window_start =
      t0 + static_cast<int64_t>(kWarmupTicks) * kPeriodNs;
  const int64_t feed_end = t0 + static_cast<int64_t>(total) * kPeriodNs;
  std::atomic<bool> stop{false};

  // Control connection: open-loop registration schedule.
  struct Registration {
    int64_t start_ns;
    double register_ms;
  };
  std::vector<Registration> registrations;
  std::vector<double> unregister_ms;
  std::vector<std::string> control_errors;
  std::thread control([&] {
    std::deque<QueryId> live;
    for (size_t i = 0;; ++i) {
      const int64_t due =
          t0 + kRegisterPhaseNs + static_cast<int64_t>(i) * kChurnPeriodNs;
      if (due >= feed_end - kChurnPeriodNs || stop.load()) break;
      SleepUntilNs(due);
      if (live.size() >= kMaxLive) {
        const int64_t start = NowNs();
        Status st = served.control->UnregisterQuery(live.front());
        const int64_t end = NowNs();
        tracer->Record("runtime.unregister", nullptr, live.front(), start, end);
        if (start >= window_start) {
          unregister_ms.push_back(MsBetween(start, end));
        }
        if (!st.ok()) control_errors.push_back("unregister: " + st.ToString());
        live.pop_front();
      }
      const std::string text = ChurnText(*scenario, i);
      const int64_t start = NowNs();
      auto reg = served.control->RegisterQuery(text);
      const int64_t end = NowNs();
      if (!reg.ok()) {
        control_errors.push_back("register " + text + ": " +
                                 reg.status().ToString());
        continue;
      }
      tracer->Record("runtime.register", nullptr, reg->id, start, end);
      registrations.push_back({start, MsBetween(start, end)});
      text_of[reg->id] = text;
      live.push_back(reg->id);
    }
  });

  // In-process checkpoints (serialization only).
  std::vector<double> checkpoint_ms, checkpoint_mb;
  std::vector<std::string> checkpoint_errors;
  std::thread checkpointer([&] {
    for (int64_t due = t0 + kCheckpointPhaseNs + kCheckpointNs; due < feed_end;
         due += kCheckpointNs) {
      SleepUntilNs(due);
      if (stop.load()) break;
      const int64_t start = NowNs();
      auto snapshot = served.stack.runtime->Checkpoint();
      const int64_t end = NowNs();
      tracer->Record("runtime.checkpoint", nullptr, due, start, end);
      if (!snapshot.ok()) {
        checkpoint_errors.push_back(snapshot.status().ToString());
        continue;
      }
      checkpoint_ms.push_back(MsBetween(start, end));
      checkpoint_mb.push_back(static_cast<double>(snapshot->size()) /
                              (1024.0 * 1024.0));
    }
  });

  RuntimeStats before;
  double cpu_before = 0;
  FeedOutcome feed = RunFeed(
      log.get(), t0, kPeriodNs,
      [&](size_t i) { return setup->live[i]; }, served, kWarmupTicks,
      [&] {
        before = served.stack.server->Stats();
        cpu_before = CpuMs();
      },
      &report);
  const double cpu_after = CpuMs();
  const RuntimeStats after = served.stack.server->Stats();
  const double peak_rss_mb = PeakRssMb();
  stop.store(true);
  control.join();
  checkpointer.join();
  served.stack.runtime->ingest().Close();
  served.stack.runtime->Stop();

  for (const std::string& e : control_errors) report.Fail(e);
  for (const std::string& e : checkpoint_errors) {
    report.Fail("checkpoint: " + e);
  }
  report.attempted += registrations.size() + control_errors.size() +
                      checkpoint_ms.size() + checkpoint_errors.size();
  std::vector<double> register_ms;
  for (const Registration& r : registrations) {
    if (r.start_ns >= window_start) register_ms.push_back(r.register_ms);
  }

  FeedSamples samples = Measure(*log, kWarmupTicks, feed.produced, nullptr,
                                tracer);
  const double ticks = static_cast<double>(samples.latency.size());
  report.E2e("setup_s", Median(setup_s));
  report.E2e("ticks_per_s", ticks / samples.wall_s);
  report.E2e("latency_p50_ms", Percentile(samples.latency, 0.5));
  report.E2e("register_p50_ms", Percentile(register_ms, 0.5));
  report.E2e("register_p90_ms", Percentile(register_ms, 0.9));
  report.E2e("cpu_ms_per_tick",
             (cpu_after - cpu_before) / std::max(1.0, ticks));
  report.E2e("peak_rss_mb", peak_rss_mb);

  report.Layer("inference.filter_s", Median(filter_s));
  AddFeedMetrics(samples, &report);
  AddNetLayers(before.net, after.net, static_cast<uint64_t>(ticks), &report);
  AddRuntimeLayers(before, after, &report);
  report.Layer("runtime.unregister_ms", Percentile(unregister_ms, 0.5));
  report.Layer("runtime.checkpoint_ms", Percentile(checkpoint_ms, 0.5));
  report.Layer("runtime.checkpoint_mb", Mean(checkpoint_mb));
  CountDroppedBatches(before, after, &report);

  // Correctness: the subscriber's base-query values and every value the
  // tick callback saw (base and churned queries alike) against batch
  // evaluation over exactly the batches that were sent.
  std::vector<Observed> observed =
      ObservedFromCallback(log->callback, log->first_tick, text_of);
  for (auto& [id, values] : feed.seen[0]) {
    observed.push_back(Observed{text_of[id], std::move(values)});
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
  std::vector<std::string> churn_texts;
  for (size_t i = 0; i < 24; ++i) {
    churn_texts.push_back(ChurnText(*scenario, i));
  }
  report.Layer("analysis.prepare_us", PrepareUs(check.get(), churn_texts));
  return report;
}

}  // namespace perfbench
