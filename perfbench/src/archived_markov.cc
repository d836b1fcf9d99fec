// archived_markov: the paper's archived setting.
//
// Setup smooths every tag's readings with forward-backward
// (DiscreteHmm::Smooth) into Markovian streams with per-tick CPTs. The
// measured window then replays that archive in-process, as often as the
// time allows, each time into a fresh single-worker runtime through
// ingest().Push. The producer is a closed loop that runs up to two
// windows ahead of the last published tick, so the executor's windows fill
// to their cap; it only copies and pushes, and waits otherwise. The last
// ticks of each replay go one at a time, each waiting for the previous
// publication: their push-to-publish time is the latency of a lone tick,
// with nothing queued ahead of it. After each replay,
// ad-hoc Extended queries are registered against the replayed archive
// (each one catches up over all of it).
#include <algorithm>

#include "bench.h"

namespace perfbench {

using namespace lahar;

namespace {

constexpr size_t kTags = 16;
constexpr Timestamp kHorizon = 1000;
constexpr size_t kSetups = 3;
constexpr size_t kMinReplays = 3;
// One worker: the window runs inline on the coordinator, so a replay keeps
// one thread busy. With two workers, every window also waited for the
// slower of them, and throughput followed the host's vCPU preemption: on a
// shared 4-vCPU VM, over six alternating pairs of runs, the quartile
// spread of ticks_per_s was 0.35 with two workers and 0.20 with one.
constexpr size_t kWorkers = 1;
// Ticks the producer may run ahead of the last published one: two full
// windows at the executor's default cap of 16, so the next window is
// queued whenever one ends.
constexpr Timestamp kInFlight = 32;
// Ticks at the end of each replay pushed one at a time, each after the
// previous one is published (latency sample).
constexpr size_t kLockstep = 100;
constexpr auto kPushDeadline = std::chrono::milliseconds(2000);
constexpr auto kTickTimeout = std::chrono::milliseconds(5000);
constexpr size_t kAdhocPerReplay = 4;
constexpr const char* kAdhocPattern =
    "At(p$, a$ : Hallway(a$)); At(p$, b$ : Room(b$))";

std::vector<std::string> Queries(const Scenario& scenario) {
  std::vector<std::string> out = {
      "At(p, l1 : NotRoom(l1)); At(p, l2 : CoffeeRoom(l2))",
      "(At(p, l1); At(p, l2); At(p, l3)) "
      "WHERE NotRoom(l1) AND NotRoom(l2) AND CoffeeRoom(l3)",
      "At(p, l1 : Hallway(l1)); At(p, l2 : Office(l2))",
      "At(p, l1 : Office(l1)); At(p, l2 : Hallway(l2)); "
      "At(p, l3 : CoffeeRoom(l3))",
  };
  static const char* kKinds[] = {"Room", "Hallway", "CoffeeRoom", "Office"};
  for (size_t i = 0; i < scenario.tags.size(); ++i) {
    out.push_back("At('" + scenario.tags[i].name + "', l : " + kKinds[i % 4] +
                  "(l))");
  }
  return out;
}

// Timestamps and callback values of one replay, indexed by tick - 1. The
// callback arrays are written by the runtime coordinator only and read
// after Stop() joins it.
struct ReplayLog {
  explicit ReplayLog(size_t n)
      : push_start(n, 0), push_end(n, 0), publish(n, 0), callback(n) {}
  std::vector<int64_t> push_start, push_end, publish;
  std::vector<std::vector<std::pair<QueryId, double>>> callback;
};

}  // namespace

Report RunArchivedMarkov(const Options& options, Tracer* tracer) {
  Report report;
  auto scenario = RandomWalkScenario(kTags, kHorizon, options.seed);
  if (!scenario.ok()) {
    report.Fail("scenario: " + scenario.status().ToString());
    return report;
  }
  const std::vector<std::string> queries = Queries(*scenario);

  // Setup: smoothing into CPT batches, several times; setup_s is the median.
  std::vector<double> setup_s, smooth_s;
  std::vector<TickBatch> batches;
  for (size_t i = 0; i < kSetups; ++i) {
    batches.clear();
    const int64_t start = NowNs();
    const double smooth = SmoothedBatches(*scenario, &batches, tracer);
    setup_s.push_back(MsBetween(start, NowNs()) / 1e3);
    smooth_s.push_back(smooth);
    if (smooth < 0) {
      report.Fail("smoothing failed");
      return report;
    }
  }
  const size_t T = batches.size();
  const size_t windowed = T - kLockstep;

  std::vector<double> replay_tps, latency, to_publish, register_ms,
      unregister_ms;
  double cpu_ms = 0, push_blocked_ms = 0, wall_ms = 0, peak_rss_mb = 0;
  uint64_t ticks_done = 0;
  RuntimeStats before, after;
  std::vector<Observed> observed;
  const int64_t window_end =
      NowNs() + static_cast<int64_t>(options.seconds * 1e9);
  for (size_t replay = 0;
       replay < kMinReplays || NowNs() < window_end; ++replay) {
    auto log = std::make_unique<ReplayLog>(T);
    ReplayLog* raw = log.get();
    Stack stack;
    Status st = StartStack(
        Declarations(*scenario, true), kWorkers, /*serve=*/false,
        [raw](const TickResult& r) {
          if (r.t == 0 || r.t > raw->publish.size()) return;
          raw->publish[r.t - 1] = NowNs();
          raw->callback[r.t - 1] = r.probs;
        },
        &stack);
    std::vector<QueryId> ids;
    for (const std::string& q : queries) {
      if (!st.ok()) break;
      ++report.attempted;
      auto id = stack.runtime->Register(q);
      if (!id.ok()) st = id.status();
      else ids.push_back(*id);
    }
    if (!st.ok()) {
      report.Fail("replay setup: " + st.ToString());
      return report;
    }

    before = stack.runtime->Stats();
    const double cpu_start = CpuMs();
    const int64_t replay_start = NowNs();
    bool pushed_all = true;
    for (size_t i = 0; i < T && pushed_all; ++i) {
      const Timestamp t = static_cast<Timestamp>(i + 1);
      // Closed loop up to kInFlight ticks ahead; a lone tick waits for the
      // one before it.
      const Timestamp ahead = i < windowed ? kInFlight : 1;
      if (t > ahead && !stack.runtime->WaitForTick(t - ahead, kTickTimeout)) {
        break;  // wedged watermark: the remaining ticks count as failed
      }
      // Executor counters describe the windowed part only.
      if (i == windowed) after = stack.runtime->Stats();
      TickBatch batch = batches[i];  // copied outside the timed push
      raw->push_start[i] = NowNs();
      Status push = stack.runtime->ingest().Push(std::move(batch),
                                                 kPushDeadline);
      raw->push_end[i] = NowNs();
      ++report.attempted;
      if (!push.ok()) {
        report.Fail("push t=" + std::to_string(t) + ": " + push.ToString());
        pushed_all = false;
      }
    }
    const bool done =
        pushed_all && stack.runtime->WaitForTick(static_cast<Timestamp>(T),
                                                 kTickTimeout);
    const double cpu_end = CpuMs();
    if (!done) {
      for (size_t t = stack.runtime->tick(); t < T; ++t) {
        report.Fail("replay " + std::to_string(replay) + ": tick " +
                    std::to_string(t + 1) + " not published");
      }
      return report;
    }
    CountDroppedBatches(before, stack.runtime->Stats(), &report);

    // Ad-hoc registrations over the replayed archive.
    for (size_t k = 0; k < kAdhocPerReplay; ++k) {
      const std::string text = Spell(kAdhocPattern, k);
      report.attempted += 2;
      int64_t start = NowNs();
      auto id = stack.runtime->Register(text);
      register_ms.push_back(MsBetween(start, NowNs()));
      tracer->Record("runtime.register", nullptr,
                     (1ULL << 32) + replay * kAdhocPerReplay + k, start,
                     NowNs());
      if (!id.ok()) {
        report.Fail("register " + text + ": " + id.status().ToString());
        continue;
      }
      start = NowNs();
      Status unreg = stack.runtime->Unregister(*id);
      unregister_ms.push_back(MsBetween(start, NowNs()));
      if (!unreg.ok()) report.Fail("unregister: " + unreg.ToString());
    }
    stack.runtime->ingest().Close();
    stack.runtime->Stop();
    // The footprint is taken through the first replay: later replays only
    // add allocator fragmentation that varies with how many fit the window.
    if (replay == 0) peak_rss_mb = PeakRssMb();

    const double windowed_ms =
        MsBetween(replay_start, raw->publish[windowed - 1]);
    replay_tps.push_back(static_cast<double>(windowed) / (windowed_ms / 1e3));
    wall_ms += MsBetween(replay_start, raw->publish[T - 1]);
    cpu_ms += cpu_end - cpu_start;
    ticks_done += T;
    for (size_t i = 0; i < T; ++i) {
      push_blocked_ms += MsBetween(raw->push_start[i], raw->push_end[i]);
      if (i >= windowed) {
        latency.push_back(MsBetween(raw->push_start[i], raw->publish[i]));
        to_publish.push_back(MsBetween(raw->push_end[i], raw->publish[i]));
      }
      const uint64_t trace_id = replay * 100000 + i + 1;
      tracer->Record("runtime.push", nullptr, trace_id, raw->push_start[i],
                     raw->push_end[i]);
      tracer->Record("runtime.drain", nullptr, trace_id, raw->push_end[i],
                     raw->publish[i]);
    }
    std::map<QueryId, std::string> text_of;
    for (size_t q = 0; q < ids.size(); ++q) text_of[ids[q]] = queries[q];
    for (Observed& obs : ObservedFromCallback(raw->callback, 1, text_of)) {
      observed.push_back(std::move(obs));
    }
  }

  report.E2e("setup_s", Median(setup_s));
  report.E2e("ticks_per_s", Median(replay_tps));
  report.E2e("latency_p50_ms", Percentile(latency, 0.5));
  report.E2e("register_p50_ms", Percentile(register_ms, 0.5));
  report.E2e("register_p90_ms", Percentile(register_ms, 0.9));
  report.E2e("cpu_ms_per_tick",
             cpu_ms / std::max(1.0, static_cast<double>(ticks_done)));
  report.E2e("peak_rss_mb", peak_rss_mb);

  report.Layer("inference.smooth_s", Median(smooth_s));
  report.Layer("runtime.ingest_to_publish_p50_ms",
               Percentile(to_publish, 0.5));
  report.Layer("runtime.ingest_to_publish_p99_ms",
               Percentile(to_publish, 0.99));
  report.Layer("runtime.push_blocked_frac", push_blocked_ms / wall_ms);
  AddRuntimeLayers(before, after, &report);
  report.Layer("runtime.unregister_ms", Percentile(unregister_ms, 0.5));
  report.Layer("runtime.tick_delay_mean_ms", Mean(latency));
  report.Layer("runtime.tick_delay_p99_ms", Percentile(latency, 0.99));
  // Reported without a bound, as on the open-loop workloads (feed.cc).
  report.Layer("latency_p99_ms", Percentile(latency, 0.99));

  // Correctness: every replay's callback values against batch evaluation
  // over a database built from the batches that were pushed.
  std::unique_ptr<EventDatabase> check = Declarations(*scenario, true);
  Status st = ApplyAll(check.get(), batches);
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
