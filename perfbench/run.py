#!/usr/bin/env python3
"""End-to-end benchmark of the simulator: one workload per invocation.

    python3 perfbench/run.py --workload tdf_dataflow --seed 1 --seconds 30 --trace 0

Builds the harness (perfbench/CMakeLists.txt, Release) into .bench_build/ on
first use, runs it, checks that every operation and output check passed, and
prints a readable report followed by one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value", "unit"}}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  See perfbench/README.md for the workloads and metrics."""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("tdf_dataflow", "sweep_mp", "server_stream")
DEFAULT_SEED = 1  # the recorded seed; seed 2 is held out (README.md)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_JOBS = "4"
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure once, then (re)build the harness; returns the executable."""
    generated = ("Makefile", "build.ninja")
    if not any(os.path.exists(os.path.join(BUILD_DIR, f)) for f in generated):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", BUILD_JOBS],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            stats.validate_name(m["name"])
            stats.validate_unit(m["unit"])
    return spec


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = load_spec()
    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = stats.per_layer(raw) if args.trace else stats.end_to_end(raw)
    attempted, failed, rate = stats.error_rate(raw["ops"])
    metrics = {}
    for m in wanted:
        v = values[m["name"]]
        if not isinstance(v, (int, float)) or v != v:
            raise stats.MetricError(f"{m['name']} is not a number: {v!r}")
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}

    host = raw["host"]
    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print(f"# host nproc={host['nproc']} compiler={host['compiler']} "
          f"build={host['build_type']} telemetry={host['telemetry']}")
    counts = stats.sample_counts(raw, args.trace)
    for name, m in metrics.items():
        n = f"  (n={counts[name]})" if name in counts else ""
        print(f"{name:34s} {m['value']:.6g} {m['unit']}{n}")
    if not args.trace:
        n = counts["run_p50_ms"]
        top = stats.highest_percentile(n)
        tail = stats.percentile(raw["samples"]["run_ms"], top)
        print(f"# run latency: median {metrics['run_p50_ms']['value']:.6g} ms, "
              f"p{top:g} {tail:.6g} ms (the highest percentile with >={stats.MIN_BEYOND} "
              f"of the {n} samples beyond it)")
    print(f"# error_rate {rate:.6g} ({failed} failed of {attempted} attempted)")
    for why in raw.get("failures", []):
        print(f"# failure: {why}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (OSError, ValueError, KeyError, TypeError, subprocess.SubprocessError) as e:
        log(f"perfbench: {type(e).__name__}: {e}")
        sys.exit(1)
