#!/usr/bin/env python3
"""Compare two benchmark runs and fail on throughput regressions.

Usage:
    bench/compare.py BASELINE CURRENT [--threshold 0.10] [--metric ticks_per_sec]
                     [--min-metric NAME:VALUE ...] [--max-metric NAME:VALUE ...]

Each input file holds one JSON object per line — either raw JSON or the
`JSON {...}`-prefixed lines the bench binaries print (so a captured stdout
works as-is:  ./bench_t05_kernel_speedup | grep ^JSON > current.json).

Records are keyed by every non-metric field (bench, workload, config,
chains, ...; run-size fields like ticks/time_ms are ignored). For each key
present in both files the metric is compared; a drop of more than
--threshold (default 10%) is a regression and the script exits 1. Keys
present in only one file are reported but not fatal, so adding a new bench
cell doesn't break the gate.

--min-metric NAME:VALUE adds an absolute floor on top of the relative
check: every record in CURRENT carrying field NAME must be >= VALUE, and
at least one such record must exist (a silently-missing metric would
otherwise pass). --max-metric NAME:VALUE is the mirror-image ceiling
(every record carrying NAME must be <= VALUE), for metrics where smaller
is better: memory per key, resident fractions, latencies. Both are
repeatable. Example:

    bench/compare.py base.json current.json \
        --min-metric scaling_efficiency_8t:3.0 \
        --max-metric bytes_per_registered_key_ratio:0.15
"""

import argparse
import json
import sys

# Fields describing how long the cell ran rather than what it measured;
# excluded from the match key along with the metric itself. Diagnostic
# outputs (latencies, cache counters, derived ratios) live here too: they
# vary run to run and must not split otherwise-identical cells apart.
RUN_SIZE_FIELDS = {
    "ticks", "time_ms", "reps", "tick_p99_us",
    "early_tick_us", "late_tick_us", "flatness", "speedup",
    "memo_entries", "memo_evictions", "row_evictions", "row_rebuilds",
    "pushes", "scaling_efficiency_8t", "windows", "barrier_p99_us",
    "chains", "sharing_groups", "shared_steps_saved", "sharing_ratio_64",
    "simd_chains", "striped", "bytes_per_chain", "kernel_simd_speedup",
    "bytes_per_chain_reduction",
}


def load(path, metric):
    records = {}
    benches = set()
    raw = []
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if line.startswith("JSON "):
                line = line[len("JSON "):]
            if not line.startswith("{"):
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise SystemExit(f"{path}:{line_no}: bad JSON line: {e}")
            raw.append(obj)
            if "bench" in obj:
                benches.add(obj["bench"])
            if metric not in obj:
                continue
            key = tuple(
                sorted((k, v) for k, v in obj.items()
                       if k != metric and k not in RUN_SIZE_FIELDS))
            records[key] = float(obj[metric])
    return records, benches, raw


def parse_bound_metric(flag, spec):
    name, sep, value = spec.rpartition(":")
    if not sep or not name:
        raise SystemExit(f"{flag} wants NAME:VALUE, got '{spec}'")
    try:
        return name, float(value)
    except ValueError:
        raise SystemExit(f"{flag} '{spec}': '{value}' is not a number")


def check_bound_metrics(raw, specs, path, ceiling):
    """Absolute floors (or ceilings) over the raw records of the current run."""
    flag = "--max-metric" if ceiling else "--min-metric"
    failures = []
    for name, bound in specs:
        hits = [obj for obj in raw if name in obj]
        if not hits:
            failures.append(f"{flag} {name}:{bound:g}: no record in "
                            f"{path} carries '{name}'")
            continue
        for obj in hits:
            got = float(obj[name])
            ident = " ".join(f"{k}={v}" for k, v in sorted(obj.items())
                             if k != name)
            if (got > bound) if ceiling else (got < bound):
                failures.append(f"{flag} {name}:{bound:g}: got "
                                f"{got:g} ({ident})")
            elif ceiling:
                print(f"[ceiling-ok] {name}={got:g} <= {bound:g} ({ident})")
            else:
                print(f"[floor-ok] {name}={got:g} >= {bound:g} ({ident})")
    return failures


def describe(key):
    return " ".join(f"{k}={v}" for k, v in key)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="fatal fractional drop (default 0.10 = 10%%)")
    parser.add_argument("--metric", default="ticks_per_sec",
                        help="JSON field to compare (higher is better)")
    parser.add_argument("--min-metric", action="append", default=[],
                        metavar="NAME:VALUE", dest="min_metric",
                        help="absolute floor: every CURRENT record with "
                             "field NAME must be >= VALUE, and at least one "
                             "must exist (repeatable)")
    parser.add_argument("--max-metric", action="append", default=[],
                        metavar="NAME:VALUE", dest="max_metric",
                        help="absolute ceiling: every CURRENT record with "
                             "field NAME must be <= VALUE, and at least one "
                             "must exist (repeatable)")
    parser.add_argument("--require", action="append", default=[],
                        metavar="BENCH",
                        help="bench name that must appear in BOTH files; "
                             "a missing required bench is a clear failure "
                             "instead of silently comparing nothing "
                             "(repeatable)")
    args = parser.parse_args()

    base, base_benches, _ = load(args.baseline, args.metric)
    cur, cur_benches, cur_raw = load(args.current, args.metric)
    if not base:
        raise SystemExit(f"{args.baseline}: no records with '{args.metric}'")
    if not cur:
        raise SystemExit(f"{args.current}: no records with '{args.metric}'")

    missing = []
    for name in args.require:
        if name not in base_benches:
            missing.append(f"required bench '{name}' has no records in "
                           f"baseline {args.baseline} — record a baseline "
                           f"for it (see docs/PERF.md)")
        if name not in cur_benches:
            missing.append(f"required bench '{name}' has no records in "
                           f"current run {args.current} — did the bench "
                           f"binary run and print JSON lines?")
    if missing:
        raise SystemExit("\n".join(missing))

    floor_failures = check_bound_metrics(
        cur_raw,
        [parse_bound_metric("--min-metric", s) for s in args.min_metric],
        args.current, ceiling=False)
    floor_failures += check_bound_metrics(
        cur_raw,
        [parse_bound_metric("--max-metric", s) for s in args.max_metric],
        args.current, ceiling=True)

    regressions = []
    for key in sorted(base):
        if key not in cur:
            print(f"[only-baseline] {describe(key)}")
            continue
        old, new = base[key], cur[key]
        delta = (new - old) / old if old > 0 else 0.0
        status = "ok"
        if old > 0 and delta < -args.threshold:
            status = "REGRESSION"
            regressions.append(key)
        print(f"[{status}] {describe(key)}: "
              f"{old:.1f} -> {new:.1f} ({delta:+.1%})")
    for key in sorted(set(cur) - set(base)):
        print(f"[only-current] {describe(key)}")

    failed = False
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{args.threshold:.0%} on {args.metric}", file=sys.stderr)
        failed = True
    else:
        print(f"\nno regressions beyond {args.threshold:.0%} "
              f"on {args.metric}")
    if floor_failures:
        for f in floor_failures:
            print(f, file=sys.stderr)
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
