"""Statistics of the end-to-end benchmark: percentiles with the sample-count
rule, metric-name validation, error_rate accounting, and the reduction of the
harness's raw report into named metrics.  Standard library only; tested by
perfbench/test_stats.py (python3 -m unittest discover -s perfbench)."""

import math
import re
import statistics

# A timing is reported as its median plus the highest percentile of this
# ladder that still has at least MIN_BEYOND samples beyond it.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)
MIN_BEYOND = 10

# Throughput is measured per window (a slice, a campaign, 16 sessions) and
# reported at this percentile of the windows: the rate the faster quarter of
# windows reaches.  Other tenants of a shared host slow whole stretches of a
# run by up to a third; the upper quartile ignores those stretches as long as
# they cover less than three quarters of the run, where a median ignores
# them only below one half.
WINDOW_PERCENTILE = 75.0

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class MetricError(ValueError):
    """A metric cannot be reported from the samples at hand."""


def validate_name(name):
    """Raise MetricError unless `name` is a legal metric or workload name."""
    if not isinstance(name, str) or not NAME_RE.match(name):
        raise MetricError(f"bad metric name {name!r}: want [A-Za-z0-9_.-]+, "
                          "starting with a letter or digit, at most 64 long")
    return name


def validate_unit(unit):
    if not isinstance(unit, str) or not UNIT_RE.match(unit):
        raise MetricError(f"bad unit {unit!r}")
    return unit


def rank(n, p):
    """1-based nearest rank of the p-th percentile of n samples (rounded
    first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def beyond(n, p):
    """Samples strictly beyond the nearest-rank p-th percentile of n."""
    return n - rank(n, p)


def highest_percentile(n):
    """Highest ladder percentile with >= MIN_BEYOND samples beyond it, or
    None when even the median has fewer."""
    best = None
    for p in PERCENTILE_LADDER:
        if beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def percentile(values, p):
    """Nearest-rank p-th percentile; MetricError when fewer than MIN_BEYOND
    samples lie beyond it (the percentile would not repeat)."""
    n = len(values)
    if n == 0:
        raise MetricError("no samples")
    if beyond(n, p) < MIN_BEYOND:
        raise MetricError(f"p{p:g} needs {MIN_BEYOND} samples beyond it; "
                          f"{n} samples leave {beyond(n, p)}")
    ordered = sorted(values)
    return ordered[rank(n, p) - 1]


def median(values):
    if not values:
        raise MetricError("no samples")
    return statistics.median(values)


def error_rate(ops):
    """(attempted, failed, rate) over every operation category of a report:
    failed runs, failed or lossy sessions, failed output checks."""
    attempted = sum(int(t["attempted"]) for t in ops.values())
    failed = sum(int(t["failed"]) for t in ops.values())
    if attempted < 1:
        raise MetricError("no operations attempted")
    if failed < 0 or failed > attempted:
        raise MetricError(f"{failed} failed of {attempted} attempted")
    return attempted, failed, failed / attempted


# ---------------------------------------------------------------- reduction --

def _e2e(raw):
    s, v = raw["samples"], raw["values"]
    run_ms = s.get("run_ms", [])
    return {
        "setup_s": median(s.get("setup_s", [])),
        "sim_samples_per_s": percentile(s.get("window.sim_samples_per_s", []),
                                        WINDOW_PERCENTILE),
        "runs_per_s": percentile(s.get("window.runs_per_s", []), WINDOW_PERCENTILE),
        "run_p50_ms": median(run_ms),
        "run_p90_ms": percentile(run_ms, 90.0),
        "peak_rss_mb": v["peak_rss_mb"],
    }


END_TO_END = ("setup_s", "sim_samples_per_s", "runs_per_s", "run_p50_ms", "peak_rss_mb")


def end_to_end(raw):
    """End-to-end metrics of an untraced run."""
    e2e = _e2e(raw)
    return {name: e2e[name] for name in END_TO_END}


# Per-layer metrics read straight from a traced run's raw report: a value,
# or a reduction of a sample list.
_MEDIAN = "median"
_VALUE = "value"
_MAX = "max"
_SUM = "sum"

PER_LAYER = {
    "core.build_s": _MEDIAN,
    "core.elaborate_s": _MEDIAN,
    "core.run_s": _MEDIAN,
    "wire.result.encode_us": _MEDIAN,
    "wire.result.decode_us": _MEDIAN,
    "wire.result.bytes": _VALUE,
    "wire.samples.encode_us": _MEDIAN,
    "wire.samples.decode_us": _MEDIAN,
    "wire.frame.pack_us": _MEDIAN,
    "wire.frame.unpack_us": _MEDIAN,
    "kernel.delta_cycles": _VALUE,
    "kernel.timed_notifications": _VALUE,
    "tdf.cluster.cycles": _VALUE,
    "tdf.cluster.fused_cycles": _VALUE,
    "tdf.module.activations": _VALUE,
    "tdf.module.block_firings": _VALUE,
    "solver.numeric_factorizations": _VALUE,
    "solver.symbolic_factorizations": _VALUE,
    "solver.numeric_growth": _VALUE,
    "server.connect_ms": _MEDIAN,
    "server.hello_ms": _MEDIAN,
    "server.open_ms": _MEDIAN,
    "server.ttfs_ms": _MEDIAN,
    "server.drain_s": _MEDIAN,
    "server.slices": _MEDIAN,
    "server.max_queue_depth": _MAX,
    "server.samples_dropped": _SUM,
    "server.samples_per_batch": _MEDIAN,
    "trace.kernel.run_ms": _MEDIAN,
    "trace.tdf.cluster.cycles_ms": _MEDIAN,
    "trace.dae.step_ms": _MEDIAN,
    "trace.elaborate_ms": _MEDIAN,
    "trace.dropped": _MAX,
}

# Per-layer metrics derived from others (each ratio's base is reported too).
DERIVED = ("core.backend.busy_frac", "core.backend.capacity_s", "tdf.block_firing_frac",
           "tdf.ns_per_firing", "run_p90_ms", "error_rate")

# Tracing overhead, traced minus untraced, for each end-to-end metric that
# tracing can move (peak RSS is one high-water mark per process).  It comes
# from the in-process replays of one unit, the only place where both an
# untraced and a traced run of the same work are timed.
OVERHEAD_OF = ("setup_s", "sim_samples_per_s", "runs_per_s", "run_p50_ms")


def _ratio(num, base):
    return num / base if base else 0.0


def trace_overhead(raw):
    """trace_overhead.<m> from the untraced (core.*) and traced
    (traced.core.*) replays: set-up is build + elaborate; the run metrics
    scale with the replay's run time, and sim_samples_per_s with the samples
    one run of the main loop simulates."""
    s, v = raw["samples"], raw["values"]

    def setup(prefix):
        return median([b + e for b, e in zip(s[prefix + "core.build_s"],
                                              s[prefix + "core.elaborate_s"])])

    run, traced_run = median(s["core.run_s"]), median(s["traced.core.run_s"])
    runs_per_s = _ratio(1.0, traced_run) - _ratio(1.0, run)
    return {
        "trace_overhead.setup_s": setup("traced.") - setup(""),
        "trace_overhead.sim_samples_per_s":
            _ratio(v["loop.samples"], v["loop.runs"]) * runs_per_s,
        "trace_overhead.runs_per_s": runs_per_s,
        "trace_overhead.run_p50_ms": (traced_run - run) * 1e3,
    }


def per_layer(raw):
    """Per-layer metrics of a traced run (plus tracing overhead, the main
    loop's run_p90_ms and the run's error_rate)."""
    s, v = raw["samples"], raw["values"]
    out = {}
    for name, how in PER_LAYER.items():
        if how == _VALUE:
            if name not in v:
                raise MetricError(f"{name} missing")
            out[name] = v[name]
        else:
            xs = s.get(name, [])
            if not xs:
                raise MetricError(f"{name} has no samples")
            out[name] = {_MEDIAN: median, _MAX: max, _SUM: sum}[how](xs)
    # core.backend.busy_frac = runs x mean core.run_s / (seconds x workers).
    capacity = v["loop.seconds"] * v["loop.workers"]
    out["core.backend.capacity_s"] = capacity
    out["core.backend.busy_frac"] = _ratio(v["loop.runs"] * statistics.fmean(s["core.run_s"]),
                                           capacity)
    activations = out["tdf.module.activations"]
    out["tdf.block_firing_frac"] = _ratio(out["tdf.module.block_firings"], activations)
    out["tdf.ns_per_firing"] = _ratio(out["core.run_s"] * 1e9, activations)
    # The run-latency tail does not repeat within a tenth on a shared host,
    # so it is a per-layer figure, not a gated one.
    out["run_p90_ms"] = _e2e(raw)["run_p90_ms"]
    out.update(trace_overhead(raw))
    out["error_rate"] = error_rate(raw["ops"])[2]
    return out


def sample_counts(raw, trace):
    """Sample count behind each timing metric, for the printed report."""
    s = raw["samples"]
    if not trace:
        return {"setup_s": len(s.get("setup_s", [])),
                "sim_samples_per_s": len(s.get("window.sim_samples_per_s", [])),
                "runs_per_s": len(s.get("window.runs_per_s", [])),
                "run_p50_ms": len(s.get("run_ms", []))}
    counts = {name: len(s.get(name, [])) for name, how in PER_LAYER.items() if how != _VALUE}
    counts["run_p90_ms"] = len(s.get("run_ms", []))
    return counts
