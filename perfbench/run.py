#!/usr/bin/env python3
"""Builds and runs the Lahar end-to-end pipeline benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload realtime_tcp --seed 1 \
        --seconds 20 --trace 0

Workloads: realtime_tcp, archived_markov, registry_churn (see
perfbench/NOTES.md). The first run configures and compiles the library and
the driver into .bench_build/perfbench (or $CARGO_TARGET_DIR/perfbench);
later runs only re-check the configuration and the build. Build output goes
to stderr, so the last stdout line is the driver's JSON result. With
--trace 1 the Chrome trace is written to
<build dir>/traces/<workload>-seed<N>.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("realtime_tcp", "archived_markov", "registry_churn")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", out, "-j", "4"]
    for cmd in (configure, compile_):
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        return 1
    cmd = [os.path.join(out, "lahar_pipeline_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.call(cmd)


if __name__ == "__main__":
    sys.exit(main())
