// Pipeline benchmark driver:
//
//   lahar_pipeline_bench --workload NAME --seed N --seconds S --trace 0|1
//                        [--trace-out FILE]
//
// Runs one workload (realtime_tcp, archived_markov, registry_churn) and
// prints a human-readable report followed, as the last stdout line, by one
// JSON object {"correct", "attempted", "failed", "metrics"}. With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the workload runs
// twice over half the time each — untraced, then with spans recorded — and
// the metrics are the per-layer ones, followed by the per-layer self time
// and the tracing overhead (traced minus untraced end-to-end values).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

using namespace perfbench;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: lahar_pipeline_bench --workload "
               "realtime_tcp|archived_markov|registry_churn --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE]\n");
  return 2;
}

Report Run(const Options& options, Tracer* tracer) {
  if (options.workload == "realtime_tcp") {
    return RunRealtimeTcp(options, tracer);
  }
  if (options.workload == "archived_markov") {
    return RunArchivedMarkov(options, tracer);
  }
  return RunRegistryChurn(options, tracer);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      options.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      options.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      options.trace_path = value;
    } else {
      return Usage();
    }
  }
  if (options.workload != "realtime_tcp" &&
      options.workload != "archived_markov" &&
      options.workload != "registry_churn") {
    return Usage();
  }
  if (options.seconds < 1) return Usage();

  if (!options.trace) {
    Tracer off(false);
    Report report = Run(options, &off);
    PrintResult(options, report, off, nullptr);
    return 0;
  }
  Options half = options;
  half.seconds = options.seconds / 2;
  Tracer off(false);
  Report untraced = Run(half, &off);
  Tracer on(true);
  Report traced = Run(half, &on);
  traced.attempted += untraced.attempted;
  traced.failed += untraced.failed;
  traced.checked = traced.checked && untraced.checked;
  PrintResult(options, traced, on, &untraced);
  return 0;
}
