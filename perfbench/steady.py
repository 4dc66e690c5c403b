"""Steadiness report: the same commit measured as two interleaved sets.

Run from the repository root::

    python3 perfbench/steady.py --workload ide_session --runs 10

For each seed ``1 .. runs`` the script runs ``run.py`` once for set A and
once for set B, alternating which goes first; every run is ``run_seconds``
of ``BENCHMARK.json`` long.  For each workload and end-to-end metric it
prints each set's median and quartiles, the spread (interquartile range
over the median) and how far set B's median moved in the worse direction,
and whether both stay within the metric's bound from ``BENCHMARK.json``.
A spread below a third of the bound is marked steady.  The median of the
runs' calibration loops shows host drift between the sets; it never
rescales a metric.  Exits non-zero when a set fails a run or any metric
disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict, float]:
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=600)
    elapsed = time.monotonic() - started
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n"
                           f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    stamp = next(json.loads(line[len("stamp "):]) for line in lines
                 if line.startswith("stamp "))
    return json.loads(lines[-1]), stamp, elapsed


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, IQR / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10,
                        help="runs per set (one seed each)")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {metric["name"]: (metric["bound"], metric["better"])
              for metric in spec["end_to_end"]}
    agree = True
    for workload in args.workload:
        sets: dict[str, dict[str, list[float]]] = {"A": {}, "B": {}}
        elapsed: list[float] = []
        calibration: dict[str, list[float]] = {"A": [], "B": []}
        for index in range(args.runs):
            seed = index + 1
            for name in ("AB" if index % 2 == 0 else "BA"):
                result, stamp, took = run_once(workload, seed, seconds)
                elapsed.append(took)
                calibration[name].extend((stamp["calibration_ms_before"],
                                          stamp["calibration_ms_after"]))
                if not result["correct"] or result["failed"]:
                    agree = False
                for metric, value in result["metrics"].items():
                    sets[name].setdefault(metric, []).append(value["value"])
        print(f"\n{workload}: {args.runs} runs per set, run time "
              f"{statistics.median(elapsed):.1f} s median, "
              f"{max(elapsed):.1f} s max; calibration loop median "
              f"{statistics.median(calibration['A']):.2f} ms (A), "
              f"{statistics.median(calibration['B']):.2f} ms (B)")
        print(f"{'metric':<16} {'A median [q1, q3]':>32} {'spread':>7} "
              f"{'B median [q1, q3]':>32} {'spread':>7} {'B worse':>8} "
              f"{'bound':>6}  verdict")
        for metric, (bound, better) in bounds.items():
            a = spread(sets["A"][metric])
            b = spread(sets["B"][metric])
            worse = (b[0] - a[0]) / a[0] if a[0] else 0.0
            if better == "higher":
                worse = -worse
            ok = max(a[3], b[3]) <= bound and worse <= bound
            steady = max(a[3], b[3]) < bound / 3
            agree = agree and ok
            verdict = ("agree" if ok else "DISAGREE") + (
                ", steady" if steady else ", noisy")
            print(f"{metric:<16} {a[0]:>12.4f} [{a[1]:.4f}, {a[2]:.4f}] "
                  f"{a[3]:>6.1%} {b[0]:>12.4f} [{b[1]:.4f}, {b[2]:.4f}] "
                  f"{b[3]:>6.1%} {worse:>7.1%} {bound:>6.2f}  {verdict}")
    return 0 if agree else 1


if __name__ == "__main__":
    raise SystemExit(main())
