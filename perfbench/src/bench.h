// Shared pieces of the pipeline benchmark: command-line options, the
// in-memory span recorder, metric reporting, failure accounting, input
// generation (readings -> inference -> TickBatches), and the correctness
// gate that compares every observed µ(q@t) with batch evaluation.
//
// The benchmark drives Lahar only through its public API; every per-layer
// number comes from timing calls into a module's public functions or from
// RuntimeStats / NetStats snapshots taken around the measured window.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/lahar.h"
#include "model/database.h"
#include "net/server.h"
#include "runtime/executor.h"
#include "runtime/ingest.h"
#include "sim/scenarios.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using lahar::Timestamp;

/// Command-line options shared by every workload.
struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Where the traced run writes its Chrome trace-event JSON.
  std::string trace_path;
};

/// Nanoseconds since an arbitrary process-wide origin (steady clock).
int64_t NowNs();
double MsBetween(int64_t from_ns, int64_t to_ns);

/// Process user+sys CPU time in milliseconds.
double CpuMs();
/// Peak resident set size of the process in MiB.
double PeakRssMb();

/// Percentile by linear interpolation between closest ranks (q in [0,1]);
/// 0 for an empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// --- tracing ---------------------------------------------------------------

/// \brief One timed interval at a layer boundary. Spans of one tick or one
/// registration share `trace_id`; `parent` names the enclosing span of the
/// same trace (empty for a root).
struct Span {
  const char* name;
  const char* parent;
  uint64_t trace_id;
  int64_t start_ns;
  int64_t end_ns;
};

/// \brief Keeps spans in memory while enabled; writes them at exit.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void Record(const char* name, const char* parent, uint64_t trace_id,
              int64_t start_ns, int64_t end_ns);
  size_t size() const;
  /// Chrome trace-event JSON ("X" complete events, one tid per trace).
  bool WriteChrome(const std::string& path) const;
  /// Self time per layer (the span-name prefix before '.'), in ms: each
  /// span's duration minus the part of it its child spans cover.
  std::vector<std::pair<std::string, double>> SelfTimeByLayer() const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// --- results ---------------------------------------------------------------

/// \brief A named value with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// \brief Everything one workload run measured.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// False when the correctness gate could not run to completion.
  bool checked = false;

  /// Every end-to-end and per-layer metric, each at 0.
  Report();
  /// Sets a metric named in the benchmark's metric table (bench.cc).
  void E2e(std::string_view name, double value);
  void Layer(std::string_view name, double value);
  /// Counts one failed operation and prints why (first few only).
  void Fail(const std::string& why);
  const Metric* Find(std::string_view name) const;

 private:
  uint64_t printed_failures_ = 0;
};

/// Prints the human-readable report and, as the last stdout line, the
/// result object the harness parses.
void PrintResult(const Options& options, const Report& report,
                 const Tracer& tracer, const Report* untraced);

// --- inputs ----------------------------------------------------------------

/// Converts an inference marginal over floorplan locations into a stream
/// domain distribution (index i+1 is location i; leftover mass on bottom),
/// exactly as the trace pipeline builds its streams.
std::vector<double> ToDomain(const std::vector<double>& marginal);

/// Empty database with the scenario's world, Person(tag) relation, and one
/// horizon-0 At stream per tag (independent or Markovian), in tag order.
std::unique_ptr<lahar::EventDatabase> Declarations(
    const lahar::Scenario& scenario, bool markovian);

/// Applies `batches` to `db` in order through the runtime's own
/// transactional ingest path.
lahar::Status ApplyAll(lahar::EventDatabase* db,
                       const std::vector<lahar::TickBatch>& batches);

/// Exact forward filtering of every tag over ticks [1, horizon]; batch t-1
/// holds tick t. Returns the seconds DiscreteHmm::Filter took; each call
/// is an inference.filter span.
double ExactFilteredBatches(const lahar::Scenario& scenario,
                            Timestamp horizon,
                            std::vector<lahar::TickBatch>* out,
                            Tracer* tracer);

/// Forward-backward smoothing of every tag: tick 1 carries the smoothed
/// initial marginal, later ticks the pairwise CPTs. Returns the seconds
/// DiscreteHmm::Smooth took; each call is an inference.smooth span.
double SmoothedBatches(const lahar::Scenario& scenario,
                       std::vector<lahar::TickBatch>* out, Tracer* tracer);

// --- correctness -----------------------------------------------------------

/// \brief Values one observer (subscriber or tick callback) received for
/// one standing query.
struct Observed {
  std::string text;
  std::vector<std::pair<Timestamp, double>> values;
};

/// Evaluates every observed query in batch over `db` (which must hold
/// exactly the batches that were sent) and counts each value that is not
/// bit-equal as a failed operation. Returns the number of values checked.
uint64_t CheckAgainstBatch(lahar::EventDatabase* db,
                           const lahar::LaharOptions& options,
                           const std::vector<Observed>& observed,
                           Report* report);

/// Regroups per-tick tick-callback values (`callback[i]` holds tick
/// first_tick + i) into one Observed per query id named in `text_of`.
std::vector<Observed> ObservedFromCallback(
    const std::vector<std::vector<std::pair<lahar::QueryId, double>>>&
        callback,
    Timestamp first_tick, const std::map<lahar::QueryId, std::string>& text_of);

/// Session options every workload's runtime and batch check share.
lahar::LaharOptions SessionOptions();

// --- runtime counters --------------------------------------------------------

/// Adds the runtime / engine / automaton per-layer metrics derived from
/// two stats snapshots around the measured window.
void AddRuntimeLayers(const lahar::RuntimeStats& before,
                      const lahar::RuntimeStats& after, Report* report);

/// Counts every batch the ingest queue dropped or the runtime rejected
/// between the two snapshots as a failed operation.
void CountDroppedBatches(const lahar::RuntimeStats& before,
                         const lahar::RuntimeStats& after, Report* report);

/// Adds the net per-layer metrics from two NetStats snapshots.
void AddNetLayers(const lahar::NetStats& before, const lahar::NetStats& after,
                  uint64_t ticks, Report* report);

/// Median wall time of one Lahar::Prepare call over `texts` (20 rounds),
/// in µs; timed outside any measured window.
double PrepareUs(lahar::EventDatabase* db,
                 const std::vector<std::string>& texts);

/// `pattern` with every '$' replaced by `k`: distinct α-variant spellings
/// of one query (same canonical form, different text).
std::string Spell(std::string_view pattern, size_t k);

/// Blocks the calling thread until `deadline_ns` (NowNs clock).
void SleepUntilNs(int64_t deadline_ns);

// --- serving ---------------------------------------------------------------

/// \brief A database, the runtime over it, and (optionally) the TCP
/// front-end, torn down in dependency order.
struct Stack {
  std::unique_ptr<lahar::EventDatabase> db;
  std::unique_ptr<lahar::StreamRuntime> runtime;
  std::unique_ptr<lahar::net::Server> server;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack();
};

/// Starts a runtime with `workers` threads over `db` and, when `serve` is
/// set, a loopback server whose on_tick hook is `on_tick` (otherwise
/// `on_tick` becomes the runtime's tick callback).
lahar::Status StartStack(std::unique_ptr<lahar::EventDatabase> db,
                         size_t workers, bool serve,
                         std::function<void(const lahar::TickResult&)> on_tick,
                         Stack* out);

// --- workloads -------------------------------------------------------------

Report RunRealtimeTcp(const Options& options, Tracer* tracer);
Report RunArchivedMarkov(const Options& options, Tracer* tracer);
Report RunRegistryChurn(const Options& options, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
