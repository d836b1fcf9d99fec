#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <unordered_map>

namespace perfbench {

using namespace lahar;

int64_t NowNs() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

double MsBetween(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e6;
}

double CpuMs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

std::string Spell(std::string_view pattern, size_t k) {
  std::string out;
  for (char c : pattern) {
    if (c == '$') {
      out += std::to_string(k);
    } else {
      out += c;
    }
  }
  return out;
}

void SleepUntilNs(int64_t deadline_ns) {
  const int64_t wait = deadline_ns - NowNs();
  if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
}

// --- tracing ---------------------------------------------------------------

void Tracer::Record(const char* name, const char* parent, uint64_t trace_id,
                    int64_t start_ns, int64_t end_ns) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, parent, trace_id, start_ns,
                        std::max(start_ns, end_ns)});
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

namespace {

std::string LayerOf(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot);
}

}  // namespace

bool Tracer::WriteChrome(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%llu,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"trace\":"
                 "%llu,\"parent\":\"%s\"}}%s\n",
                 s.name, LayerOf(s.name).c_str(),
                 static_cast<unsigned long long>(s.trace_id % 64),
                 static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.trace_id),
                 s.parent == nullptr ? "" : s.parent,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::vector<std::pair<std::string, double>> Tracer::SelfTimeByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of (trace, span name), as intervals.
  std::map<std::pair<uint64_t, std::string>,
           std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent != nullptr) {
      children[{s.trace_id, s.parent}].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, double> self_ms;
  for (const Span& s : spans_) {
    int64_t covered = 0;
    auto it = children.find({s.trace_id, s.name});
    if (it != children.end()) {
      std::vector<std::pair<int64_t, int64_t>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0, cur_hi = -1;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
        } else {
          if (open) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
          open = true;
        }
      }
      if (open) covered += cur_hi - cur_lo;
    }
    self_ms[LayerOf(s.name)] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return {self_ms.begin(), self_ms.end()};
}

// --- results ---------------------------------------------------------------

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every metric a run reports, in report order, with its unit; the names
// match BENCHMARK.json. A Report starts with all of them at 0, which is
// what a workload reports for a layer it leaves idle.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"ticks_per_s", "ticks/s"},
    {"latency_p50_ms", "ms"},
    {"register_p50_ms", "ms"},
    {"register_p90_ms", "ms"},
    {"cpu_ms_per_tick", "ms"},
    {"peak_rss_mb", "MiB"},
};
constexpr MetricSpec kPerLayer[] = {
    {"latency_p99_ms", "ms"},
    {"inference.pf_tick_ms", "ms"},
    {"inference.pf_step_us", "us"},
    {"inference.pf_busy_frac", "fraction"},
    {"inference.smooth_s", "s"},
    {"inference.filter_s", "s"},
    {"net.ingest_rtt_p50_ms", "ms"},
    {"net.ingest_rtt_p99_ms", "ms"},
    {"net.fanout_p50_ms", "ms"},
    {"net.fanout_p99_ms", "ms"},
    {"net.bytes_out_per_tick", "bytes"},
    {"net.frames_out_per_tick", "count"},
    {"net.backpressure_rejected", "count"},
    {"runtime.ingest_to_publish_p50_ms", "ms"},
    {"runtime.ingest_to_publish_p99_ms", "ms"},
    {"runtime.push_blocked_frac", "fraction"},
    {"runtime.tick_delay_mean_ms", "ms"},
    {"runtime.tick_delay_p99_ms", "ms"},
    {"runtime.tick_us_mean", "us"},
    {"runtime.window_ticks_mean", "ticks"},
    {"runtime.barrier_wait_us_mean", "us"},
    {"runtime.steals", "count"},
    {"runtime.batches_rejected", "count"},
    {"runtime.plan_rebuilds", "count"},
    {"runtime.sharing_groups", "count"},
    {"runtime.shared_steps_saved_frac", "fraction"},
    {"runtime.prepared_dedup_hits", "count"},
    {"runtime.unregister_ms", "ms"},
    {"runtime.checkpoint_ms", "ms"},
    {"runtime.checkpoint_mb", "MiB"},
    {"engine.regular_step_us", "us"},
    {"engine.extended_step_us", "us"},
    {"engine.safe_step_us", "us"},
    {"engine.chains", "count"},
    {"engine.bytes_resident", "MiB"},
    {"automaton.simd_chain_frac", "fraction"},
    {"automaton.stripe_fallbacks", "count"},
    {"automaton.kernel_cache_hit_ratio", "fraction"},
    {"analysis.prepare_us", "us"},
    {"load.late_ms_p99", "ms"},
};

void Set(std::vector<Metric>* metrics, std::string_view name, double value) {
  for (Metric& m : *metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  std::fprintf(stderr, "perfbench: unknown metric %.*s\n",
               static_cast<int>(name.size()), name.data());
  std::abort();
}

}  // namespace

Report::Report() {
  for (const MetricSpec& m : kEndToEnd) {
    end_to_end.push_back({m.name, 0, m.unit});
  }
  for (const MetricSpec& m : kPerLayer) {
    per_layer.push_back({m.name, 0, m.unit});
  }
}

void Report::E2e(std::string_view name, double value) {
  Set(&end_to_end, name, value);
}

void Report::Layer(std::string_view name, double value) {
  Set(&per_layer, name, value);
}

void Report::Fail(const std::string& why) {
  ++failed;
  if (printed_failures_ < 20) {
    std::fprintf(stderr, "FAILED: %s\n", why.c_str());
  } else if (printed_failures_ == 20) {
    std::fprintf(stderr, "FAILED: ... (further failures not printed)\n");
  }
  ++printed_failures_;
}

const Metric* Report::Find(std::string_view name) const {
  for (const auto* list : {&end_to_end, &per_layer}) {
    for (const Metric& m : *list) {
      if (m.name == name) return &m;
    }
  }
  return nullptr;
}

void PrintResult(const Options& options, const Report& report,
                 const Tracer& tracer, const Report* untraced) {
  std::printf("workload %s  seed %llu  seconds %g  trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("  attempted %llu  failed %llu  checked %s\n",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.checked ? "yes" : "no");
  std::printf("  end to end:\n");
  for (const Metric& m : report.end_to_end) {
    std::printf("    %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("  per layer:\n");
  for (const Metric& m : report.per_layer) {
    std::printf("    %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  if (tracer.enabled()) {
    std::vector<std::pair<std::string, double>> layers =
        tracer.SelfTimeByLayer();
    double total = 0;
    for (const auto& [layer, ms] : layers) total += ms;
    std::printf("  per-layer self time (%zu spans):\n", tracer.size());
    for (const auto& [layer, ms] : layers) {
      std::printf("    %-12s %12.3f ms  %5.1f%%\n", layer.c_str(), ms,
                  total > 0 ? 100.0 * ms / total : 0.0);
    }
    if (untraced != nullptr) {
      // peak_rss_mb is left out: the process-wide high-water mark of the
      // traced pass includes the untraced pass before it.
      std::printf("  tracing overhead (traced - untraced):\n");
      for (const Metric& m : report.end_to_end) {
        const Metric* base = untraced->Find(m.name);
        if (base == nullptr || m.name == "peak_rss_mb") continue;
        std::printf("    %-34s %+14.6g %s  (%.6g -> %.6g)\n", m.name.c_str(),
                    m.value - base->value, m.unit.c_str(), base->value,
                    m.value);
      }
    }
    if (!options.trace_path.empty()) {
      const bool ok = tracer.WriteChrome(options.trace_path);
      std::printf("  chrome trace: %s%s\n", options.trace_path.c_str(),
                  ok ? "" : " (write failed)");
    }
  }

  const bool correct = report.checked && report.failed == 0;
  const std::vector<Metric>& metrics =
      options.trace ? report.per_layer : report.end_to_end;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
            "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- inputs ----------------------------------------------------------------

std::vector<double> ToDomain(const std::vector<double>& marginal) {
  std::vector<double> dist(marginal.size() + 1, 0.0);
  for (size_t i = 0; i < marginal.size(); ++i) dist[i + 1] = marginal[i];
  double total = 0;
  for (double p : dist) total += p;
  dist[kBottom] = total < 1.0 ? 1.0 - total : 0.0;
  return dist;
}

std::unique_ptr<EventDatabase> Declarations(const Scenario& scenario,
                                            bool markovian) {
  auto db = std::make_unique<EventDatabase>();
  Status st = scenario.pipeline->DeclareWorld(db.get());
  auto person = db->DeclareRelation("Person", 1);
  if (!st.ok() || !person.ok()) return nullptr;
  const SymbolId at = db->interner().Intern("At");
  for (const TagTrace& tag : scenario.tags) {
    if (!(*person)->Insert({db->Sym(tag.name)}).ok()) return nullptr;
    Stream stream(at, {db->Sym(tag.name)}, 1, /*horizon=*/0, markovian);
    for (const Location& loc : scenario.floorplan->locations()) {
      stream.InternTuple({db->Sym(loc.name)});
    }
    if (!db->AddStream(std::move(stream)).ok()) return nullptr;
  }
  return db;
}

Status ApplyAll(EventDatabase* db, const std::vector<TickBatch>& batches) {
  Watermark watermark;
  for (StreamId s = 0; s < db->num_streams(); ++s) {
    watermark.Track(s, db->stream(s).horizon());
  }
  for (const TickBatch& batch : batches) {
    LAHAR_RETURN_NOT_OK(ApplyBatch(db, batch, &watermark));
  }
  return Status::OK();
}

namespace {

Likelihoods TagLikelihoods(const Scenario& scenario, const TagTrace& tag,
                           Timestamp horizon) {
  return scenario.pipeline->sensor().LikelihoodTrace(
      {tag.readings.begin() + 1, tag.readings.begin() + 1 + horizon});
}

}  // namespace

// Trace ids of set-up spans, apart from tick and registration ids.
constexpr uint64_t kSetupTraceBase = 1ULL << 40;

double ExactFilteredBatches(const Scenario& scenario, Timestamp horizon,
                            std::vector<TickBatch>* out, Tracer* tracer) {
  out->assign(horizon, TickBatch{});
  for (Timestamp t = 1; t <= horizon; ++t) (*out)[t - 1].t = t;
  double filter_s = 0;
  for (StreamId s = 0; s < scenario.tags.size(); ++s) {
    Likelihoods lk = TagLikelihoods(scenario, scenario.tags[s], horizon);
    const int64_t start = NowNs();
    auto marginals = scenario.pipeline->model().Filter(lk);
    const int64_t end = NowNs();
    filter_s += MsBetween(start, end) / 1e3;
    tracer->Record("inference.filter", nullptr, kSetupTraceBase + s, start,
                   end);
    if (!marginals.ok()) return -1;
    for (Timestamp t = 1; t <= horizon; ++t) {
      StreamUpdate u;
      u.stream = s;
      u.marginal = ToDomain((*marginals)[t - 1]);
      (*out)[t - 1].updates.push_back(std::move(u));
    }
  }
  return filter_s;
}

double SmoothedBatches(const Scenario& scenario, std::vector<TickBatch>* out,
                       Tracer* tracer) {
  const Timestamp horizon =
      static_cast<Timestamp>(scenario.tags.front().readings.size() - 1);
  out->assign(horizon, TickBatch{});
  for (Timestamp t = 1; t <= horizon; ++t) (*out)[t - 1].t = t;
  double smooth_s = 0;
  for (StreamId s = 0; s < scenario.tags.size(); ++s) {
    Likelihoods lk = TagLikelihoods(scenario, scenario.tags[s], horizon);
    const int64_t start = NowNs();
    auto smoothed = scenario.pipeline->model().Smooth(lk);
    const int64_t end = NowNs();
    smooth_s += MsBetween(start, end) / 1e3;
    tracer->Record("inference.smooth", nullptr, kSetupTraceBase + s, start,
                   end);
    if (!smoothed.ok()) return -1;
    StreamUpdate first;
    first.stream = s;
    first.marginal = ToDomain(smoothed->marginals[0]);
    (*out)[0].updates.push_back(std::move(first));
    for (Timestamp t = 2; t <= horizon; ++t) {
      const Matrix& src = smoothed->cpts[t - 2];
      const size_t d = src.rows() + 1;
      Matrix cpt(d, d, 0.0);
      cpt.At(kBottom, kBottom) = 1.0;  // absent keys stay absent
      for (size_t i = 0; i < src.rows(); ++i) {
        for (size_t j = 0; j < src.cols(); ++j) {
          cpt.At(i + 1, j + 1) = src.At(i, j);
        }
      }
      StreamUpdate u;
      u.stream = s;
      u.cpt = std::move(cpt);
      (*out)[t - 1].updates.push_back(std::move(u));
    }
  }
  return smooth_s;
}

// --- correctness -----------------------------------------------------------

LaharOptions SessionOptions() {
  LaharOptions options;
  // The Fig 14 reading of the Safe query (p and q are distinct tags).
  options.plan.assume_distinct_keys = true;
  // Sampling estimates are not bit-comparable; every benchmark query must
  // be served exactly.
  options.allow_sampling_fallback = false;
  return options;
}

uint64_t CheckAgainstBatch(EventDatabase* db, const LaharOptions& options,
                           const std::vector<Observed>& observed,
                           Report* report) {
  Lahar lahar(db, options);
  std::unordered_map<std::string, std::vector<double>> answers;
  uint64_t checked = 0;
  for (const Observed& obs : observed) {
    auto it = answers.find(obs.text);
    if (it == answers.end()) {
      auto answer = lahar.Run(obs.text);
      if (!answer.ok()) {
        report->Fail("batch evaluation of " + obs.text + ": " +
                     answer.status().ToString());
        continue;
      }
      it = answers.emplace(obs.text, std::move(answer->probs)).first;
    }
    const std::vector<double>& probs = it->second;
    for (const auto& [t, p] : obs.values) {
      ++checked;
      const double want = t < probs.size() ? probs[t] : -1.0;
      if (std::memcmp(&want, &p, sizeof(double)) != 0) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "mismatch t=%u got %.17g want %.17g: ",
                      t, p, want);
        report->Fail(buf + obs.text);
      }
    }
  }
  return checked;
}

std::vector<Observed> ObservedFromCallback(
    const std::vector<std::vector<std::pair<QueryId, double>>>& callback,
    Timestamp first_tick, const std::map<QueryId, std::string>& text_of) {
  std::map<QueryId, Observed> by_id;
  for (size_t i = 0; i < callback.size(); ++i) {
    for (const auto& [id, p] : callback[i]) {
      auto text = text_of.find(id);
      if (text == text_of.end()) continue;
      Observed& obs = by_id[id];
      obs.text = text->second;
      obs.values.emplace_back(first_tick + static_cast<Timestamp>(i), p);
    }
  }
  std::vector<Observed> out;
  for (auto& [id, obs] : by_id) out.push_back(std::move(obs));
  return out;
}

// --- runtime counters --------------------------------------------------------

namespace {

// Mean of the samples a cumulative LatencySummary gained between two
// snapshots, in µs (0 when none were added).
double DeltaMeanUs(const LatencySummary& before, const LatencySummary& after) {
  if (after.count <= before.count) return 0;
  const double sum = after.mean_us * static_cast<double>(after.count) -
                     before.mean_us * static_cast<double>(before.count);
  return sum / static_cast<double>(after.count - before.count);
}

const LatencySummary* ClassLatency(const RuntimeStats& stats,
                                   std::string_view cls) {
  for (const auto& [name, summary] : stats.class_latency) {
    if (name == cls) return &summary;
  }
  return nullptr;
}

uint64_t ShardChains(const RuntimeStats& stats) {
  uint64_t total = 0;
  for (const ShardStats& s : stats.shards) total += s.chains_stepped;
  return total;
}

}  // namespace

void AddRuntimeLayers(const RuntimeStats& before, const RuntimeStats& after,
                      Report* report) {
  report->Layer("runtime.tick_us_mean",
                DeltaMeanUs(before.tick_latency, after.tick_latency));
  const uint64_t windows = after.windows_executed - before.windows_executed;
  report->Layer("runtime.window_ticks_mean",
                windows == 0 ? 0.0
                             : static_cast<double>(after.ticks_processed -
                                                   before.ticks_processed) /
                                   static_cast<double>(windows));
  report->Layer("runtime.barrier_wait_us_mean",
                DeltaMeanUs(before.barrier_wait, after.barrier_wait));
  report->Layer("runtime.steals",
                static_cast<double>(after.steals - before.steals));
  report->Layer(
      "runtime.batches_rejected",
      static_cast<double>(after.batches_rejected - before.batches_rejected));
  report->Layer(
      "runtime.plan_rebuilds",
      static_cast<double>(after.plan_rebuilds - before.plan_rebuilds));
  report->Layer("runtime.sharing_groups",
                static_cast<double>(after.sharing_groups));
  const double saved = static_cast<double>(after.shared_steps_saved -
                                           before.shared_steps_saved);
  const double executed =
      static_cast<double>(ShardChains(after) - ShardChains(before)) +
      static_cast<double>(after.shared_steps_executed -
                          before.shared_steps_executed);
  report->Layer("runtime.shared_steps_saved_frac",
                saved + executed > 0 ? saved / (saved + executed) : 0.0);
  report->Layer("runtime.prepared_dedup_hits",
                static_cast<double>(after.prepared_dedup_hits -
                                    before.prepared_dedup_hits));

  static const char* kClasses[][2] = {
      {"Regular", "engine.regular_step_us"},
      {"ExtendedRegular", "engine.extended_step_us"},
      {"Safe", "engine.safe_step_us"},
  };
  for (const auto& cls : kClasses) {
    const LatencySummary* b = ClassLatency(before, cls[0]);
    const LatencySummary* a = ClassLatency(after, cls[0]);
    report->Layer(cls[1],
                  a == nullptr ? 0.0
                               : DeltaMeanUs(b ? *b : LatencySummary{}, *a));
  }
  report->Layer("engine.chains", static_cast<double>(after.total_chains));
  report->Layer("engine.bytes_resident",
                static_cast<double>(after.bytes_resident) / (1024.0 * 1024.0));
  report->Layer("automaton.simd_chain_frac",
                after.total_chains == 0
                    ? 0.0
                    : static_cast<double>(after.simd_units) /
                          static_cast<double>(after.total_chains));
  report->Layer(
      "automaton.stripe_fallbacks",
      static_cast<double>(after.stripe_fallbacks - before.stripe_fallbacks));
  const double hits =
      static_cast<double>(after.kernel_cache_hits - before.kernel_cache_hits);
  const double lookups =
      hits + static_cast<double>(after.kernel_cache_misses -
                                 before.kernel_cache_misses);
  report->Layer("automaton.kernel_cache_hit_ratio",
                lookups > 0 ? hits / lookups : 0.0);
}

void CountDroppedBatches(const RuntimeStats& before, const RuntimeStats& after,
                         Report* report) {
  for (uint64_t k = before.queue_dropped; k < after.queue_dropped; ++k) {
    report->Fail("the ingest queue dropped a batch");
  }
  for (uint64_t k = before.batches_rejected; k < after.batches_rejected; ++k) {
    report->Fail("the runtime rejected a batch: " + after.last_ingest_error);
  }
}

void AddNetLayers(const NetStats& before, const NetStats& after,
                  uint64_t ticks, Report* report) {
  const double n = ticks == 0 ? 1.0 : static_cast<double>(ticks);
  report->Layer("net.bytes_out_per_tick",
                static_cast<double>(after.bytes_out - before.bytes_out) / n);
  report->Layer("net.frames_out_per_tick",
                static_cast<double>(after.frames_out - before.frames_out) / n);
  report->Layer("net.backpressure_rejected",
                static_cast<double>(after.backpressure_rejected -
                                    before.backpressure_rejected));
}

double PrepareUs(EventDatabase* db, const std::vector<std::string>& texts) {
  Lahar lahar(db, SessionOptions());
  constexpr int kReps = 20;
  std::vector<double> per_call;
  for (int rep = 0; rep < kReps; ++rep) {
    for (const std::string& text : texts) {
      const int64_t start = NowNs();
      auto prepared = lahar.Prepare(text);
      per_call.push_back(MsBetween(start, NowNs()) * 1e3);
      if (!prepared.ok()) return 0;
    }
  }
  return Median(per_call);
}

}  // namespace perfbench

namespace perfbench {

using namespace lahar;

// --- serving ---------------------------------------------------------------

Stack::~Stack() {
  if (server) server->Stop();
  if (runtime) {
    runtime->ingest().Close();
    runtime->Stop();
  }
}

Status StartStack(std::unique_ptr<EventDatabase> db, size_t workers,
                  bool serve, std::function<void(const TickResult&)> on_tick,
                  Stack* out) {
  out->db = std::move(db);
  RuntimeOptions options;
  options.num_threads = workers;
  options.session = SessionOptions();
  out->runtime = std::make_unique<StreamRuntime>(out->db.get(), options);
  if (!serve) {
    out->runtime->SetTickCallback(std::move(on_tick));
    out->runtime->Start();
    return Status::OK();
  }
  net::ServerOptions server_options;
  server_options.on_tick = std::move(on_tick);
  out->server =
      std::make_unique<net::Server>(out->runtime.get(), server_options);
  out->runtime->Start();
  return out->server->Start();
}

}  // namespace perfbench
