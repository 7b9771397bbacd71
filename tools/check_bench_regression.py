#!/usr/bin/env python3
"""Threshold guard for the perf-smoke CI job.

Compares a fresh google-benchmark JSON run against the committed
baseline (e.g. BENCH_preprocessing.json) and fails when throughput
regressed by more than the threshold factor.

Two checks run, and either fails the job:

1. Raw geomean of per-benchmark cpu_time ratios (new / baseline)
   > threshold. This is the absolute guard the acceptance criterion
   asks for. Caveat: the baseline was recorded on one machine and CI
   runners differ, so a uniformly slower runner shifts this metric
   one-for-one; if a runner generation change ever trips it with flat
   *normalized* ratios (check the log), refresh the committed baseline
   from the job's uploaded artifact or raise --threshold.
2. Worst *normalized* ratio (each benchmark's ratio divided by the
   suite's median ratio) > threshold. Dividing out the median cancels
   any uniform machine-speed delta, so this catches a localized
   hot-path regression even on a runner much faster or slower than the
   baseline machine — and distinguishes "the runner is slow" (raw
   geomean high, normalized flat) from "one code path regressed"
   (normalized spike) at a glance.

Benchmarks present only on one side never fail the job, but both
directions warn: baseline entries missing from the run (a renamed or
deleted benchmark silently un-guards itself) and run entries missing
from the baseline (a new benchmark is uncovered until the committed
baseline is refreshed).

Usage:
  check_bench_regression.py BASELINE.json CURRENT.json [THRESHOLD]
  check_bench_regression.py BASELINE.json CURRENT.json --threshold 3.0
  check_bench_regression.py BASELINE.json CURRENT.json \
      --threshold 2.0 --threshold 'BM_FastPath_Simple/10=1.3'
  check_bench_regression.py CURRENT.json --ratio 'BM_Slow/BM_Fast>=3'
  check_bench_regression.py --self-test

--threshold is repeatable: a bare float sets the global threshold, a
NAME=FACTOR pair overrides the *normalized* check for that one
benchmark — tighter than the global guard for a benchmark whose delay
bound matters (the fast-path gate), or looser for a known-noisy one.
The geomean check always uses the global threshold (a per-benchmark
number for a whole-suite metric would be meaningless). Overrides
naming benchmarks absent from the comparison only warn, so a renamed
benchmark doesn't brick the job — but watch the log.

--ratio 'NUM/DEN>=X' (repeatable) is the same-run speedup gate: it
takes ONE run JSON and fails unless real_time(NUM) / real_time(DEN) is
at least X, where NUM and DEN are exact benchmark names from that run.
Names may contain '/', so the spec is split at the one '/' that leaves
a benchmark of the run on both sides. A missing arm fails the gate —
an arm that silently vanished must not pass it.

The global threshold defaults to 2.0; a bare positional third argument
is the legacy spelling of --threshold, and DSW_BENCH_THRESHOLD
overrides the default when neither is given. --self-test runs the
checker against synthetic fixtures (flat run passes, uniform slowdown
trips the geomean, a single spike trips the normalized check,
per-benchmark overrides tighten and loosen it) and exits nonzero on
any surprise — CI runs it so the guard itself is guarded.
"""

import argparse
import json
import math
import os
import sys
import tempfile


def load_times(path):
    with open(path) as f:
        data = json.load(f)
    times = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        cpu = float(bench["cpu_time"])
        if math.isfinite(cpu) and cpu > 0:  # 0-iteration runs are garbage
            times[bench["name"]] = cpu
    return times


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def check(baseline_path, current_path, threshold, overrides=None):
    """The comparison proper; returns a process exit code."""
    overrides = overrides or {}
    baseline = load_times(baseline_path)
    current = load_times(current_path)

    common = sorted(set(baseline) & set(current))
    if not common:
        print("error: no common benchmarks between baseline and current run")
        return 1
    unused = sorted(set(overrides) - set(common))
    if unused:
        print(f"warning: {len(unused)} threshold overrides match no "
              f"compared benchmark (renamed? typo?):")
        for name in unused:
            print(f"  {name}={overrides[name]:g}")
    missing = sorted(set(baseline) - set(current))
    if missing:
        print(f"warning: {len(missing)} baseline benchmarks missing from run:")
        for name in missing:
            print(f"  {name}")
    new_only = sorted(set(current) - set(baseline))
    if new_only:
        print(f"warning: {len(new_only)} benchmarks have no baseline "
              f"(uncovered by this guard — refresh the committed baseline):")
        for name in new_only:
            print(f"  {name}")

    ratios = {name: current[name] / baseline[name] for name in common}
    med = median(ratios.values())
    geomean = math.exp(sum(math.log(r) for r in ratios.values()) / len(common))

    print(f"{'benchmark':<44} {'baseline':>12} {'current':>12} "
          f"{'ratio':>7} {'norm':>6} {'limit':>6}")
    worst_norm = (0.0, "")
    norm_failures = []
    for name in common:
        norm = ratios[name] / med
        worst_norm = max(worst_norm, (norm, name))
        limit = overrides.get(name, threshold)
        if norm > limit:
            norm_failures.append((name, norm, limit))
        mark = "*" if name in overrides else " "
        print(f"{name:<44} {baseline[name]:>10.0f}ns {current[name]:>10.0f}ns "
              f"{ratios[name]:>6.2f}x {norm:>5.2f}x {limit:>5.2f}{mark}")
    print(f"\ngeomean ratio: {geomean:.2f}x, median {med:.2f}x over "
          f"{len(common)} benchmarks (threshold {threshold:.2f}x"
          f"{', * = per-benchmark override' if overrides else ''}); "
          f"worst normalized: {worst_norm[1]} at {worst_norm[0]:.2f}x")

    failed = False
    if geomean > threshold:
        print("FAIL: raw geomean past the threshold "
              "(if normalized ratios are flat, the runner is uniformly "
              "slower than the baseline machine — see the docstring)")
        failed = True
    for name, norm, limit in norm_failures:
        print(f"FAIL: {name} regressed {norm:.2f}x relative to the rest "
              f"of the suite (limit {limit:.2f}x)")
        failed = True
    if failed:
        return 1
    print("OK")
    return 0


_NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_real_times(path):
    """real_time per benchmark in ns (arms may report different units)."""
    with open(path) as f:
        data = json.load(f)
    return {b["name"]: float(b["real_time"])
            * _NS_PER_UNIT[b.get("time_unit", "ns")]
            for b in data.get("benchmarks", [])
            if b.get("run_type") != "aggregate"}


def check_ratio(current_path, spec):
    """One --ratio gate over one run; returns a process exit code."""
    times = load_real_times(current_path)
    names, sep, bound = spec.rpartition(">=")
    try:
        bound = float(bound)
    except ValueError:
        sep = ""
    if not sep:
        print(f"error: bad --ratio {spec!r} (want 'NUM/DEN>=X')")
        return 2
    names = names.strip()
    splits = [(names[:i].strip(), names[i + 1:].strip())
              for i, c in enumerate(names) if c == "/"]
    found = [(n, d) for n, d in splits if n in times and d in times]
    if len(found) != 1:
        print(f"FAIL: --ratio {spec!r}: {len(found)} ways to read it as two "
              f"benchmarks of {current_path} (missing or renamed arm?)")
        return 1
    num, den = found[0]
    ratio = times[num] / times[den]
    print(f"{num} / {den}: {times[num]:.4g} / {times[den]:.4g} ns real_time "
          f"= {ratio:.2f}x (gate >= {bound:g}x)")
    if ratio < bound:
        print(f"FAIL: ratio {ratio:.2f}x below {bound:g}x")
        return 1
    print("OK")
    return 0


# ------------------------------------------------------------ self-test

def _fixture(path, times):
    """Writes a minimal google-benchmark JSON with the given cpu_times."""
    benches = [{"name": n, "run_type": "iteration", "cpu_time": t,
                "real_time": t, "time_unit": "ns"}
               for n, t in times.items()]
    with open(path, "w") as f:
        json.dump({"context": {}, "benchmarks": benches}, f)


def self_test():
    base_times = {"BM_a/1": 100.0, "BM_a/2": 200.0,
                  "BM_b/1": 1000.0, "BM_b/2": 4000.0, "BM_c": 50.0}
    cases = [
        # (label, current times, threshold, overrides, expected exit code)
        ("flat run passes", dict(base_times), 2.0, {}, 0),
        ("mild uniform drift passes",
         {n: t * 1.4 for n, t in base_times.items()}, 2.0, {}, 0),
        ("uniform 3x slowdown trips the geomean",
         {n: t * 3.0 for n, t in base_times.items()}, 2.0, {}, 1),
        ("single 5x spike trips the normalized check",
         {**base_times, "BM_b/2": base_times["BM_b/2"] * 5.0}, 2.0, {}, 1),
        ("--threshold 6 tolerates the same spike",
         {**base_times, "BM_b/2": base_times["BM_b/2"] * 5.0}, 6.0, {}, 0),
        # 1.8x spike: under the 2.0 global, but a tight per-benchmark
        # override catches it — the fast-path gate scenario.
        ("mild spike passes under the global threshold alone",
         {**base_times, "BM_b/2": base_times["BM_b/2"] * 1.8}, 2.0, {}, 0),
        ("tight override trips the same mild spike",
         {**base_times, "BM_b/2": base_times["BM_b/2"] * 1.8}, 2.0,
         {"BM_b/2": 1.5}, 1),
        ("loose override tolerates a 5x spike on its benchmark",
         {**base_times, "BM_b/2": base_times["BM_b/2"] * 5.0}, 2.0,
         {"BM_b/2": 6.0}, 0),
        ("loose override on one benchmark does not unguard another",
         {**base_times, "BM_a/1": base_times["BM_a/1"] * 5.0}, 2.0,
         {"BM_b/2": 6.0}, 1),
        ("override naming an unknown benchmark only warns",
         dict(base_times), 2.0, {"BM_gone/1": 1.1}, 0),
        ("missing benchmarks only warn",
         {n: t for n, t in base_times.items() if n != "BM_c"}, 2.0, {}, 0),
        ("baseline-less benchmarks only warn — even a slow one",
         {**base_times, "BM_new/1": 9e9}, 2.0, {}, 0),
        ("disjoint suites are an error", {"BM_other": 10.0}, 2.0, {}, 1),
    ]
    ratio_times = {"BM_Cold": 5000.0, "BM_Warm": 100.0,
                   "BM_Full/permille:10": 900.0,
                   "BM_Delta/permille:10": 200.0}
    ratio_cases = [
        ("ratio above the bound passes", "BM_Cold/BM_Warm>=10", 0),
        ("names containing '/' resolve", "BM_Full/permille:10/"
         "BM_Delta/permille:10>=3", 0),
        ("ratio below the bound fails", "BM_Full/permille:10/"
         "BM_Delta/permille:10>=5", 1),
        ("a missing arm fails", "BM_Cold/BM_Gone>=1", 1),
        ("a malformed spec is an error", "BM_Cold/BM_Warm>10", 2),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        run_path = os.path.join(tmp, "run.json")
        _fixture(run_path, ratio_times)
        for label, spec, expected in ratio_cases:
            print(f"--- self-test: {label} (expect exit {expected}) ---")
            got = check_ratio(run_path, spec)
            if got != expected:
                print(f"SELF-TEST FAIL: {label}: exit {got}, "
                      f"expected {expected}")
                failures += 1
            print()
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "base.json")
        cur_path = os.path.join(tmp, "cur.json")
        _fixture(base_path, base_times)
        for label, cur_times, threshold, overrides, expected in cases:
            _fixture(cur_path, cur_times)
            print(f"--- self-test: {label} (expect exit {expected}) ---")
            got = check(base_path, cur_path, threshold, overrides)
            if got != expected:
                print(f"SELF-TEST FAIL: {label}: exit {got}, "
                      f"expected {expected}")
                failures += 1
            print()
    total = len(cases) + len(ratio_cases)
    if failures:
        print(f"self-test: {failures}/{total} cases FAILED")
        return 1
    print(f"self-test: all {total} cases passed")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", nargs="?", help="committed baseline JSON")
    parser.add_argument("current", nargs="?", help="fresh run JSON")
    parser.add_argument("legacy_threshold", nargs="?", type=float,
                        help="legacy positional spelling of --threshold")
    parser.add_argument("--threshold", action="append", default=None,
                        metavar="FACTOR|NAME=FACTOR",
                        help="repeatable: a bare factor sets the global "
                             "threshold (default 2.0, or "
                             "DSW_BENCH_THRESHOLD); NAME=FACTOR overrides "
                             "the normalized check for one benchmark")
    parser.add_argument("--ratio", action="append", default=None,
                        metavar="NUM/DEN>=X",
                        help="repeatable: gate real_time(NUM) / "
                             "real_time(DEN) >= X within ONE run JSON "
                             "(the only positional argument)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the checker against synthetic fixtures")
    args = parser.parse_args(argv[1:])

    if args.self_test:
        return self_test()
    if args.ratio:
        if args.baseline is None or args.current is not None:
            parser.print_usage()
            return 2
        return max(check_ratio(args.baseline, spec) for spec in args.ratio)
    if args.baseline is None or args.current is None:
        parser.print_usage()
        return 2
    threshold = None
    overrides = {}
    for spec in args.threshold or []:
        name, eq, factor = spec.rpartition("=")
        try:
            value = float(factor)
        except ValueError:
            print(f"error: bad --threshold value {spec!r} "
                  f"(want FACTOR or NAME=FACTOR)")
            return 2
        if eq:
            overrides[name] = value
        else:
            threshold = value
    if threshold is None:
        threshold = args.legacy_threshold
    if threshold is None:
        threshold = float(os.environ.get("DSW_BENCH_THRESHOLD", "2.0"))
    return check(args.baseline, args.current, threshold, overrides)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
