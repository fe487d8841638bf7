#!/usr/bin/env python3
"""Compare two directories of BENCH_<name>.json reports (bench/bench_json.hpp).

    scripts/bench_compare.py BASE_DIR NEW_DIR
    scripts/bench_compare.py --counters-only BASE_DIR NEW_DIR
    scripts/bench_compare.py --self-test

For every benchmark of every report found in both directories it reduces
the repetition rows (aggregate rows such as `<name>_median` are skipped) and
compares NEW against BASE:

- Time: the median real time per iteration.  The noise band is BASE's own
  spread, the distance between its quartiles; a NEW median farther from the
  BASE median than that is outside the band (`faster` or `slower`).  With a
  single repetition the band is zero, so record with
  --benchmark_repetitions=5 or more.
- Integer counters: a user counter whose BASE repetitions all carry the same
  integer (numeric_factors, symbolic_factors, de_activations) must carry it
  in every NEW repetition.  Rates and per-iteration averages
  (events_per_sec, network_steps) are skipped.

Exits 1 when a median falls outside its band, an integer counter differs, or
a BASE benchmark is missing from NEW; 0 otherwise.  --counters-only skips
the time comparison: times recorded on different hosts do not compare.
Standard library only.
"""

import argparse
import json
import pathlib
import statistics
import sys
import tempfile
import unittest

NS_PER_UNIT = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def load_reports(directory):
    """{report file name: {benchmark name: [repetition rows]}}."""
    reports = {}
    for path in sorted(pathlib.Path(directory).glob("BENCH_*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        rows = {}
        for row in doc.get("results", []):
            if row.get("aggregate", ""):
                continue
            rows.setdefault(row["name"], []).append(row)
        reports[path.name] = rows
    return reports


def time_ns(row):
    return row["real_time"] * NS_PER_UNIT[row["time_unit"]]


def median_and_iqr(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0], 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return statistics.median(values), q3 - q1


def integer_counters(rows):
    """Counters every row carries with one and the same integer value."""
    names = set(rows[0].get("counters", {}))
    for row in rows:
        names &= set(row.get("counters", {}))
    out = {}
    for name in sorted(names):
        values = {row["counters"][name] for row in rows}
        if len(values) != 1:
            continue
        (value,) = values
        if isinstance(value, (int, float)) and float(value).is_integer():
            out[name] = value
    return out


def compare(base_dir, new_dir, counters_only=False, out=sys.stdout):
    """Print one line per benchmark; return the number of failures."""
    base = load_reports(base_dir)
    new = load_reports(new_dir)
    failures = 0
    for report in sorted(set(base) & set(new)):
        for name, base_rows in sorted(base[report].items()):
            new_rows = new[report].get(name)
            where = f"{report} {name}"
            if not new_rows:
                print(f"{where}: missing from {new_dir}", file=out)
                failures += 1
                continue
            for counter, want in integer_counters(base_rows).items():
                got = sorted({row.get("counters", {}).get(counter) for row in new_rows},
                             key=repr)
                if got != [want]:
                    print(f"{where}: counter {counter} = {got}, baseline {want}", file=out)
                    failures += 1
            if counters_only:
                continue
            unit = base_rows[0]["time_unit"]
            scale = NS_PER_UNIT[unit]
            m0, band = median_and_iqr([time_ns(r) for r in base_rows])
            m1, _ = median_and_iqr([time_ns(r) for r in new_rows])
            gap = m1 - m0
            verdict = "within" if abs(gap) <= band else ("slower" if gap > 0 else "faster")
            if verdict != "within":
                failures += 1
            print(f"{where}: {m0 / scale:.4g} -> {m1 / scale:.4g} {unit} "
                  f"(x{m1 / m0:.3f}, band +-{band / scale:.3g}, "
                  f"n={len(base_rows)}/{len(new_rows)}) {verdict}", file=out)
    return failures


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_dir", nargs="?")
    ap.add_argument("new_dir", nargs="?")
    ap.add_argument("--counters-only", action="store_true",
                    help="compare integer counters only, not times")
    ap.add_argument("--self-test", action="store_true", help="run the built-in tests")
    args = ap.parse_args(argv)
    if args.self_test:
        suite = unittest.defaultTestLoader.loadTestsFromTestCase(SelfTest)
        return 0 if unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful() else 1
    if args.base_dir is None or args.new_dir is None:
        ap.error("BASE_DIR and NEW_DIR are required")
    for d in (args.base_dir, args.new_dir):
        if not any(pathlib.Path(d).glob("BENCH_*.json")):
            ap.error(f"{d}: no BENCH_*.json reports")
    failures = compare(args.base_dir, args.new_dir, args.counters_only)
    print(f"{failures} failure(s)")
    return 1 if failures else 0


# ------------------------------------------------------------------ tests --

def _row(name, real_time, unit="ms", aggregate="", **counters):
    return {"name": name, "aggregate": aggregate, "real_time": real_time,
            "cpu_time": real_time, "time_unit": unit, "iterations": 10,
            "counters": counters}


class SelfTest(unittest.TestCase):
    def write(self, directory, bench, rows):
        path = pathlib.Path(directory) / f"BENCH_{bench}.json"
        path.write_text(json.dumps({"bench": bench, "config": {}, "results": rows}),
                        encoding="utf-8")

    def run_compare(self, base_rows, new_rows, counters_only=False):
        with tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b:
            self.write(a, "x", base_rows)
            self.write(b, "x", new_rows)
            with open(pathlib.Path(a) / "log.txt", "w", encoding="utf-8") as log:
                return compare(a, b, counters_only, out=log)

    @staticmethod
    def reps(name, times, unit="ms", **counters):
        return [_row(name, t, unit, **counters) for t in times]

    def test_median_inside_the_quartile_band_passes(self):
        base = self.reps("b", [1.0, 1.1, 1.2, 1.3, 1.4])  # IQR 0.2
        self.assertEqual(self.run_compare(base, self.reps("b", [1.3, 1.35, 1.4])), 0)
        self.assertEqual(self.run_compare(base, self.reps("b", [1.0, 1.05, 1.1])), 0)

    def test_median_outside_the_band_fails_either_way(self):
        base = self.reps("b", [1.0, 1.1, 1.2, 1.3, 1.4])
        self.assertEqual(self.run_compare(base, self.reps("b", [1.5, 1.6, 1.7])), 1)
        self.assertEqual(self.run_compare(base, self.reps("b", [0.7, 0.8, 0.9])), 1)

    def test_units_convert_and_aggregate_rows_are_ignored(self):
        base = self.reps("b", [1.0, 1.0, 1.0]) + [_row("b_median", 9.0, aggregate="median")]
        self.assertEqual(self.run_compare(base, self.reps("b", [1000.0], unit="us")), 0)

    def test_integer_counters_must_match_exactly(self):
        base = [_row("b", 1.0, numeric_factors=4, events_per_sec=424859.7),
                _row("b", 1.1, numeric_factors=4, events_per_sec=433008.3)]
        same = self.reps("b", [9.0], numeric_factors=4, events_per_sec=51234.5)
        moved = self.reps("b", [1.0], numeric_factors=5, events_per_sec=424859.7)
        self.assertEqual(self.run_compare(base, same, counters_only=True), 0)
        self.assertEqual(self.run_compare(base, moved, counters_only=True), 1)
        self.assertEqual(self.run_compare(base, moved), 1)

    def test_averages_and_rates_are_not_counts(self):
        base = self.reps("b", [1.0], network_steps=9999.999999999998, de_activations=10000)
        new = self.reps("b", [1.0], network_steps=10000, de_activations=10000)
        self.assertEqual(self.run_compare(base, new, counters_only=True), 0)

    def test_missing_benchmark_or_counter_fails(self):
        base = self.reps("b", [1.0], symbolic_factors=1) + self.reps("c", [1.0])
        self.assertEqual(self.run_compare(base, self.reps("b", [1.0], symbolic_factors=1),
                                          counters_only=True), 1)
        self.assertEqual(self.run_compare(base, self.reps("b", [1.0]) + self.reps("c", [1.0]),
                                          counters_only=True), 1)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
