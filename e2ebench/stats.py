"""Arithmetic of the end-to-end benchmark: percentiles, outcome counts,
span self times, and the mapping from the binary's raw output to the
named metrics of BENCHMARK.json.

Also a trace summarizer:

    python3 e2ebench/stats.py SPANS.tsv [TRACED.json UNTRACED.json]

prints, per span name, the count and the p50 duration and self time,
followed by the per-layer metrics and the tracing overhead when the raw
results of the traced and the untraced pass are given.
"""

import json
import math
import statistics
import sys

# Percentiles a latency may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
# A percentile is supported when at least this many samples lie beyond it.
MIN_BEYOND = 10


def rank(n, p):
    """1-based nearest-rank index of the p-th percentile of n samples."""
    # The epsilon keeps float error (99.9 / 100 * 10000 = 9990.000...02)
    # from pushing an exact rank up by one.
    return max(1, math.ceil(p * n / 100.0 - 1e-9))


def percentile(values, p):
    """Nearest-rank percentile: an actual sample, never interpolated."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def supported_percentile(n):
    """The highest percentile of PERCENTILES with at least MIN_BEYOND of
    n samples beyond it, or None when even the median is not supported."""
    best = None
    for p in PERCENTILES:
        if n - rank(n, p) >= MIN_BEYOND:
            best = p
    return best


def rate(busy_us, counts, clients):
    """Completions per second of busy time over the whole run: what
    completed over the clients' combined busy time divided by the number
    of clients. Checkpoints are not busy time."""
    busy_s = sum(busy_us) / 1e6
    return sum(counts) / (busy_s / clients) if busy_s > 0 else 0.0


FAILURES = ("parse_error", "bad_page", "unexpected")


def outcome_counts(raw):
    """attempted / failed / retired of one run. Parse errors, pages that
    fail the check and impossible statuses are failures; a kRetired pump
    is counted apart: it is the engine's documented answer to a session
    whose order a write changed, and the client prepares afresh."""
    attempted = int(raw["requests"])
    failed = sum(int(raw[k]) for k in FAILURES)
    return {
        "attempted": attempted,
        "failed": failed,
        "retired": int(raw["retired"]),
        "failed_frac": failed / attempted if attempted else 0.0,
        "retired_frac": int(raw["retired"]) / attempted if attempted else 0.0,
    }


# ------------------------------------------------------------------ spans


def read_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            req, sid, parent, name, start, end, replay = line.rstrip(
                "\n").split("\t")
            spans.append({"request": int(req), "id": int(sid),
                          "parent": int(parent), "name": name,
                          "start": int(start), "end": int(end),
                          "replay": replay == "1"})
    return spans


def covered(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Span id -> self time in ns: the span's duration minus the part of
    it its children cover. A real child covers its own interval. A
    replay child re-ran, after the call, work the call did inside it,
    so it covers its duration. Never negative."""
    children = {}
    for s in spans:
        if s["parent"] >= 0:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        kids = children.get(s["id"], [])
        real = [(c["start"], c["end"]) for c in kids if not c["replay"]]
        replayed = sum(c["end"] - c["start"] for c in kids if c["replay"])
        dur = s["end"] - s["start"]
        out[s["id"]] = max(0, dur - covered(real, s["start"], s["end"])
                           - replayed)
    return out


def span_table(spans):
    """Span name -> {count, p50 duration, p50 self time} in ns."""
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    table = {}
    for name, group in sorted(by_name.items()):
        durs = [s["end"] - s["start"] for s in group]
        table[name] = {"count": len(group),
                       "p50_ns": percentile(durs, 50),
                       "self_p50_ns": percentile(
                           [selfs[s["id"]] for s in group], 50)}
    return table


# ---------------------------------------------------------------- metrics


# End-to-end numbers reported beside the metrics rather than as
# metrics with a bound: on a shared virtual machine, periods in which the
# hypervisor takes 5-20% of the CPUs moved them 1.5-20x from run to run,
# more than the largest bound a metric may have. The *_wall_* ones are
# the bounded latencies with every part charged at wall time.
DIAGNOSTICS = ("first_page_p99_us", "next_page_p50_us", "next_page_p99_us",
               "requests_per_s", "answers_per_s", "first_page_wall_p50_us",
               "write_wall_p50_ms", "write_wall_p90_ms", "handoff_probe_us",
               "cpu_probe_us")


# The probes of e2ebench/src/probes.h on an idle host (a 4-vCPU KVM
# guest on an Intel Xeon). A run's times are scaled by these over the
# run's medians: the client's own work by the CpuProbe, a Pump by the
# HandoffProbe. What the host's speed and load did to the run drops
# out; what the program does stays.
CPU_NOMINAL_US = 16.0
HANDOFF_NOMINAL_US = 12.5


def scale(nominal_us, probe_us):
    """The factor a run's times are scaled by, from its probe samples."""
    return nominal_us / statistics.median(probe_us)


def end_to_end(raw):
    """The end-to-end metrics and DIAGNOSTICS of one untraced run, plus
    the sample count and support flag of each latency percentile.

    A latency charges the work the client thread did itself (PrepareRegex
    and OpenSession, or the whole write) at the thread's CPU time, or at
    wall time when the thread blocked in it (e2e.cc, ChargedNs), scaled
    by the CpuProbe, and a Pump at its wall time scaled by the
    HandoffProbe; setup_s is scaled by the CpuProbe runs beside the
    set-ups. The *_wall_* ones and the rates are wall time, unscaled."""
    cpu = scale(CPU_NOMINAL_US, raw["cpu_probe_us"])
    handoff = scale(HANDOFF_NOMINAL_US, raw["probe_us"])
    pages = list(zip(raw["page_us"], raw["page_pump_us"],
                     raw["page_wall_us"], raw["page_first"]))
    first = [(us - pump) * cpu + pump * handoff
             for us, pump, _, f in pages if f]
    first_wall = [wall for _, _, wall, f in pages if f]
    nxt = [pump * handoff for _, pump, _, f in pages if not f]
    writes = [ms * cpu for ms in raw["write_ms"]]
    lat = {
        "first_page_p50_us": ("us", first, 50),
        "first_page_p99_us": ("us", first, 99),
        "next_page_p50_us": ("us", nxt, 50),
        "next_page_p99_us": ("us", nxt, 99),
        "write_p50_ms": ("ms", writes, 50),
        "write_p90_ms": ("ms", writes, 90),
        "first_page_wall_p50_us": ("us", first_wall, 50),
        "write_wall_p50_ms": ("ms", raw["write_wall_ms"], 50),
        "write_wall_p90_ms": ("ms", raw["write_wall_ms"], 90),
    }
    ones = [1] * len(raw["page_wall_us"])
    clients = raw["clients"]
    metrics = {
        "setup_s": ("s", statistics.median(raw["setup_s"]) *
                    scale(CPU_NOMINAL_US, raw["setup_probe_us"])),
        "requests_per_s": ("1/s", rate(raw["page_wall_us"], ones, clients)),
        "answers_per_s": ("1/s", rate(raw["page_wall_us"],
                                      raw["page_answers"], clients)),
        "peak_rss_mb": ("MB", raw["peak_rss_mb"]),
        "handoff_probe_us": ("us", statistics.median(raw["probe_us"])),
        "cpu_probe_us": ("us", statistics.median(raw["cpu_probe_us"])),
    }
    samples = {}
    for name, (unit, values, p) in lat.items():
        metrics[name] = (unit, percentile(values, p))
        best = supported_percentile(len(values))
        samples[name] = {"n": len(values),
                         "supported": best is not None and p <= best}
    return metrics, samples


def _p50(values):
    return percentile(values, 50) if values else 0.0


def per_layer(traced, spans, untraced):
    """Per-layer metrics of a traced run. Span metrics are p50 durations
    (or self times) of the named spans; value metrics come from the
    binary's replays; counters from the engine's Stats()."""
    table = span_table(spans)
    c = traced["counters"]
    v = traced["values"]

    def dur(name, scale):
        return table[name]["p50_ns"] / scale if name in table else 0.0

    def self_(name, scale):
        return table[name]["self_p50_ns"] / scale if name in table else 0.0

    lookups = c["cache_hits"] + c["cache_misses"]
    fronts = c["frontend_thompson"] + c["frontend_glushkov"]
    ops = v.get("core.ops_bound_frac", [])
    m = {
        "regex.parse_us": ("us", dur("regex.parse", 1e3)),
        "automaton.compile_us": ("us", dur("automaton.compile", 1e3)),
        "automaton.canon_hash_us": ("us", dur("automaton.canon_hash", 1e3)),
        "engine.prepare_self_us": ("us", self_("engine.PrepareRegex", 1e3)),
        "core.annotate_us": ("us", dur("core.annotate", 1e3)),
        "core.trim_us": ("us", dur("core.trim", 1e3)),
        "core.queue_layout_us": ("us", dur("core.queue_layout", 1e3)),
        "core.lambda_p50": ("count", _p50(v.get("core.lambda", []))),
        "core.annotate.pairs": ("count",
                                _p50(v.get("core.annotate.pairs", []))),
        "core.trim.useful_frac": ("ratio",
                                  _p50(v.get("core.trim.useful_frac", []))),
        "automaton.states_p50": ("count",
                                 _p50(v.get("automaton.states", []))),
        "automaton.glushkov_frac": (
            "ratio", c["frontend_glushkov"] / fronts if fronts else 0.0),
        "engine.tier_simple": ("count", c["tier_simple"]),
        "engine.tier_single_word": ("count", c["tier_single_word"]),
        "engine.tier_general": ("count", c["tier_general"]),
        "core.plan_kb": ("KiB", _p50(v.get("core.plan_kb", []))),
        "core.queue_frac": ("ratio", _p50(v.get("core.queue_frac", []))),
        "engine.cache.hit_rate": (
            "ratio", c["cache_hits"] / lookups if lookups else 0.0),
        "engine.cache.evictions": ("count", c["cache_evictions"]),
        "engine.cache.bytes_mb": ("MB", c["cache_bytes_mb"]),
        "engine.rss_growth_mb": ("MB", c["rss_growth_mb"]),
        "core.first_answer_us": ("us", dur("core.first_answer", 1e3)),
        "core.seek_after_us": ("us", dur("core.seek_after", 1e3)),
        "engine.enqueue_to_first_us": (
            "us", _p50(v.get("engine.enqueue_to_first_us", []))),
        "engine.pump_us": ("us", dur("engine.Pump", 1e3)),
        "engine.worker_cache_evictions": ("count",
                                          c["worker_cache_evictions"]),
        "core.next_ns": ("ns", _p50(v.get("core.next_ns", []))),
        "core.ops_per_answer": (
            "count", statistics.fmean(v["core.ops_per_answer"])
            if v.get("core.ops_per_answer") else 0.0),
        "core.ops_bound_frac": ("ratio", max(ops) if ops else 0.0),
        "core.freeze_ms": ("ms", dur("core.freeze", 1e6)),
        "core.delta_from_us": ("us", dur("core.delta_from", 1e3)),
        "core.delta_context_ms": ("ms", dur("core.delta_context", 1e6)),
        "core.delta_annotate_us": ("us", dur("core.delta_annotate", 1e3)),
        "core.delta_trim_us": ("us", dur("core.delta_trim", 1e3)),
        "core.delta.changed_frac": (
            "ratio", _p50(v.get("core.delta.changed_frac", []))),
        "engine.install_ms": ("ms", dur("engine.InstallSnapshot", 1e6)),
        "engine.plans_upgraded": ("count", c["plans_upgraded"]),
        "engine.sessions_upgraded": ("count", c["sessions_upgraded"]),
        "engine.sessions_retired": ("count", c["sessions_retired"]),
        "engine.cache.upgrades": ("count", c["cache_upgrades"]),
        "client.failed_frac": ("ratio", outcome_counts(traced)["failed_frac"]),
        "client.retired_frac": ("ratio",
                                outcome_counts(traced)["retired_frac"]),
    }
    m["trace.overhead_pct"] = ("%", overhead(untraced, traced)[
        "first_page_p50_us"])
    return m


def overhead(untraced, traced):
    """Per end-to-end metric: how much worse, in percent, the traced
    pass read than the untraced one (negative: better)."""
    base, _ = end_to_end(untraced)
    with_trace, _ = end_to_end(traced)
    out = {}
    for name, (_, b) in base.items():
        t = with_trace[name][1]
        if not b:
            continue
        worse = (b - t) if name.endswith("_per_s") else (t - b)
        out[name] = 100.0 * worse / b
    return out


def main(argv):
    if len(argv) not in (2, 4):
        print(__doc__, file=sys.stderr)
        return 2
    spans = read_spans(argv[1])
    print(f"{'span':32} {'count':>8} {'p50 us':>10} {'self p50 us':>12}")
    for name, row in span_table(spans).items():
        print(f"{name:32} {row['count']:8d} {row['p50_ns'] / 1e3:10.2f} "
              f"{row['self_p50_ns'] / 1e3:12.2f}")
    if len(argv) == 4:
        with open(argv[2]) as f:
            traced = json.load(f)
        with open(argv[3]) as f:
            untraced = json.load(f)
        print()
        for name, (unit, value) in per_layer(traced, spans, untraced).items():
            print(f"{name:32} {value:14.4f} {unit}")
        print("\ntracing overhead (% worse traced than untraced):")
        for name, pct in overhead(untraced, traced).items():
            print(f"  {name:30} {pct:+8.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
