#!/usr/bin/env python3
"""End-to-end serving benchmark of the DSW query engine.

    python3 e2ebench/run.py --workload serve-warm --seed 1 --seconds 10 \\
        --trace 0

Run from the repository root. Builds e2ebench/ (Release, -O2 -DNDEBUG)
against the repository's sources into $CARGO_TARGET_DIR/e2ebench
(default .bench_build/e2ebench), runs the binary, checks every page it
served, and prints as its last line one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end ones; with --trace 1 the binary runs twice, untraced and
traced, and the metrics are the per-layer ones plus the tracing
overhead. The line before it holds the run's host and build metadata,
the p99 latencies and throughputs (stats.DIAGNOSTICS), the latency
sample counts and the workload's target counters; the same record is
appended to results.jsonl in the build directory.

    python3 e2ebench/run.py --selftest    # the arithmetic's unit tests
"""

import argparse
import datetime
import hashlib
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("serve-warm", "prepare-cold", "mutate-mix")
# The counters that show each workload exercised what it is for.
TARGETS = {
    "serve-warm": lambda c: (
        c["cache_hits"] / max(1, c["cache_hits"] + c["cache_misses"])
        >= 0.99),
    "prepare-cold": lambda c: c["tier_general"] > 0 and
    c["cache_evictions"] > 0,
    "mutate-mix": lambda c: c["plans_upgraded"] > 0 and
    c["sessions_retired"] > 0,
}


def fail(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures and builds the binary; exits non-zero on failure."""
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "e2e")


def drive(binary, args, trace, out, spans=None):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--out", out]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"e2e exited with {proc.returncode}")
    with open(out) as f:
        return json.load(f)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_version(root):
    """The git commit when the checkout is a repository; otherwise a
    digest of the library sources the binary was built from."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for sub in ("core", "engine", "util", "regex", "automaton",
                "workload", "baseline"):
        d = os.path.join(root, sub)
        for name in sorted(os.listdir(d)) if os.path.isdir(d) else []:
            with open(os.path.join(d, name), "rb") as f:
                h.update(name.encode() + b"\0" + f.read())
    return "sources-sha256:" + h.hexdigest()[:16]


def metadata(args, raw, root):
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "nproc": os.cpu_count(), "cpu": cpu_model(),
        "compiler": raw["compiler"], "cxx_flags": raw["cxx_flags"],
        "build_type": raw["build_type"], "commit": source_version(root),
        "clients": raw["clients"], "engine_threads": raw["engine_threads"],
        "vertices": raw["vertices"], "edges": raw["edges"],
        "keys": raw["keys"], "window_s": raw["window_s"],
        # Share of the host's CPU time the hypervisor took during the
        # window; latencies rise several-fold when it is high.
        "steal_frac": raw["steal_frac"],
    }


def run(args):
    root = os.getcwd()
    build_dir = os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "e2ebench")
    binary = build(os.path.abspath(build_dir))
    out_dir = os.path.join(os.path.abspath(build_dir), "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-{args.seed}")

    raw = drive(binary, args, 0, stem + "-untraced.json")
    record = {}
    if args.trace:
        spans_path = stem + "-spans.tsv"
        traced = drive(binary, args, 1, stem + "-traced.json", spans_path)
        metrics = stats.per_layer(traced, stats.read_spans(spans_path), raw)
        record["overhead_pct"] = stats.overhead(raw, traced)
        checked = [raw, traced]
    else:
        metrics, record["samples"] = stats.end_to_end(raw)
        record["diagnostics"] = {
            name: {"value": metrics.pop(name)[1], "unit": unit}
            for name, (unit, _) in list(metrics.items())
            if name in stats.DIAGNOSTICS}
        checked = [raw]

    counts = [stats.outcome_counts(r) for r in checked]
    attempted = sum(c["attempted"] for c in counts)
    failed = sum(c["failed"] for c in counts)
    correct = failed == 0 and all(r["naive_ok"] for r in checked)
    record.update({
        "meta": metadata(args, raw, root),
        "outcomes": {k: raw[k] for k in ("ok",) + stats.FAILURES +
                     ("retired",)},
        "naive_ok": bool(raw["naive_ok"]), "naive_error": raw["naive_error"],
        "targets_met": TARGETS[args.workload](raw["counters"]),
        "counters": raw["counters"],
    })
    result = {
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (unit, value) in metrics.items()},
    }
    with open(os.path.join(build_dir, "results.jsonl"), "a") as f:
        f.write(json.dumps(dict(record, result=result)) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        import unittest
        suite = unittest.defaultTestLoader.discover(HERE, "test_*.py")
        ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
        sys.exit(0 if ok else 1)
    if args.workload is None:
        ap.error("--workload is required")
    run(args)


if __name__ == "__main__":
    main()
