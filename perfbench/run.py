"""MPI-RICAL end-to-end benchmark: one command, four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload ide_session --seed 1 --seconds 20 --trace 0

The seed fixes the inputs and the random-init checkpoint, which are built
(or taken from ``.perfbench_cache/``) before anything is timed.  Each run
does fixed work: ``--seconds`` sets the op count through a nominal rate per
workload, never a time box.  Every output is checked against an oracle
outside the timed phase; a served decode that differs from the sequential
one only where float rounding of the logits can change a token is printed
and counted as a rounding divergence (``rounding.py``), not a failure.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the
workload once untraced and once with the span recorder of ``tracehook/``
on every process's path, checks the spans against the program's own
counters, and reports the per-layer metrics of ``layers.py`` plus the
tracing overhead.  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import prep  # noqa: E402
import rounding  # noqa: E402
import serving  # noqa: E402

WORKLOADS = ("ide_session", "batch_jobs", "train_steps", "verify_sweep")
#: Nominal ops per second of each workload on a 2-CPU host; a run's work is
#: ``round(rate * seconds)`` ops (``batch_jobs``: items, rounded to jobs),
#: and at least ``MIN_OPS`` so the tail percentile has samples under it.
NOMINAL_RATE = {"ide_session": 30.0, "batch_jobs": 48.0,
                "train_steps": 2.5, "verify_sweep": 38.0}
MIN_OPS = 32
#: Cold starts per run; ``setup_s`` is their median.
SETUPS = 5
#: ``batch_jobs`` submits every job at once, so it stays within the job
#: tier's per-client quota of 8 unfinished jobs (each job also stays within
#: its 64-item limit: ``prep.BATCH_JOB_ITEMS``).
MAX_JOBS = 8
CHILD_TIMEOUT_S = 170


def work_size(workload: str, seconds: int) -> int:
    ops = max(MIN_OPS, round(NOMINAL_RATE[workload] * seconds))
    if workload == "batch_jobs":
        return min(MAX_JOBS, max(2, round(ops / prep.BATCH_JOB_ITEMS)))
    return ops


def program_env(root: Path, trace_dir: Path | None = None) -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(root / "src")]
    env.pop("PERFBENCH_TRACE_DIR", None)
    if trace_dir is not None:
        trace_dir.mkdir(parents=True, exist_ok=True)
        paths.append(str(HERE / "tracehook"))
        env["PERFBENCH_TRACE_DIR"] = str(trace_dir)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONUNBUFFERED"] = "1"
    return env


# ------------------------------------------------------------------ passes


def serving_pass(root: Path, workload: str, inputs: dict, workdir: Path,
                 env: dict[str, str], boots: int) -> dict:
    """Boot the deployment ``boots`` times (set-up = spawn to the first
    answered probe) and run the workload on the last boot."""
    load = {"ide_session": serving.ide_session,
            "batch_jobs": serving.batch_jobs}[workload]
    probe = inputs["probe"]
    setups = []
    for boot in range(boots):
        deployment = serving.Deployment(root, root / inputs["checkpoint"],
                                        workdir / f"boot{boot}", env)
        try:
            spawned = deployment.start()
            setups.append(serving.probe(deployment, probe["code"],
                                        probe["expected"]) - spawned)
            if boot < boots - 1:
                continue
            cpu_before = deployment.cpu_seconds()
            outcome = load(deployment, inputs)
            outcome["cpu_s"] = deployment.cpu_seconds() - cpu_before
            outcome["peak_rss_mb"] = deployment.peak_rss_mb()
            outcome["program"] = deployment.worker_metrics()
            outcome["router"] = deployment.get("/metrics")[1]["router"]
        finally:
            deployment.stop()
    rounding.settle(outcome, root / inputs["checkpoint"])
    outcome["setups_s"] = setups
    outcome["traced_ops"] = outcome["ops"] + 1
    return outcome


def child_pass(root: Path, inputs_path: Path, workload: str, size: int,
               env: dict[str, str], boots: int) -> dict:
    """Spawn the workload process ``boots`` times; all but the last stop
    after their first op, which is the set-up measurement."""
    setups = []
    for boot in range(boots):
        ops = size if boot == boots - 1 else 1
        spawned = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload,
             str(inputs_path), str(ops)],
            cwd=root, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"{workload} process failed:\n{done.stderr[-3000:]}")
        outcome = json.loads(done.stdout.strip().splitlines()[-1])
        setups.append(outcome["first_done"] - spawned)
    outcome["setups_s"] = setups
    outcome["traced_ops"] = size
    return outcome


def run_pass(root: Path, inputs_path: Path, workload: str, size: int,
             workdir: Path, env: dict[str, str], boots: int) -> dict:
    if workload in ("ide_session", "batch_jobs"):
        inputs = json.loads(inputs_path.read_text())
        return serving_pass(root, workload, inputs, workdir, env, boots)
    return child_pass(root, inputs_path, workload, size, env, boots)


# ----------------------------------------------------------------- metrics


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with 10 samples beyond it: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(outcome: dict) -> dict:
    ops = outcome["ops"]
    ok_ops = ops - len(outcome["failures"])
    wall = outcome["wall_s"]
    tail_ms, _ = tail(outcome["latencies_ms"])
    values = {
        "setup_s": (statistics.median(outcome["setups_s"]), "s"),
        "latency_p50_ms": (statistics.median(outcome["latencies_ms"]), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "tokens_per_s": (outcome["tokens"] / wall, "1/s"),
        "ops_per_s": (ok_ops / wall, "1/s"),
        "cpu_ms_per_op": (outcome["cpu_s"] * 1000.0 / ops, "ms"),
        "peak_rss_mb": (outcome["peak_rss_mb"], "MB"),
        "ok_share": (ok_ops / ops, "share"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in values.items()}


def work_done(outcome: dict) -> dict:
    """What the run did, so parent and change can be shown to match."""
    work = {"ops": outcome["ops"], "tokens": outcome["tokens"],
            "failed": len(outcome["failures"])}
    program = outcome.get("program")
    if program is not None:
        work.update(cache_hits=program["cache"]["hits"],
                    cache_misses=program["cache"]["misses"],
                    sched_steps=program["sched_steps_total"],
                    requests=program["requests_total"])
    if "verdicts" in outcome:
        work["verdicts"] = outcome["verdicts"]
    if "losses" in outcome:
        work.update(first_loss=outcome["losses"][0],
                    last_loss=outcome["losses"][-1])
    return work


def expected_counts(workload: str, outcome: dict) -> dict[str, int]:
    """Counts the span totals must equal: the program's own counters and
    the ops this run sent."""
    if workload in ("ide_session", "batch_jobs"):
        program = outcome["program"]
        return {"model.decode_step": program["sched_steps_total"],
                "model.kv.join": program["cache"]["misses"],
                "sched.wait": program["cache"]["misses"],
                "cache.hits": program["cache"]["hits"],
                "server.handle": outcome["handled"] + 1}
    ops = outcome["traced_ops"]
    if workload == "train_steps":
        return {"train.backward": ops, "train.optimizer": 2 * ops}
    return {"verify.candidate": ops, "verify.reference": ops}


# -------------------------------------------------------------------- stamp


def calibrate() -> float:
    """Median ms of a fixed pure-Python loop: host drift, never a rescale."""
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value
        times.append((time.perf_counter() - started) * 1000.0)
    return statistics.median(times)


def run_stamp(root: Path, seed: int) -> dict:
    import numpy

    blas = (numpy.show_config(mode="dicts").get("Build Dependencies", {})
            .get("blas", {}))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {"commit": commit, "source_digest": prep.source_digest(root),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS",
                                           "default (one per core)"),
            "seed": seed}


# --------------------------------------------------------------------- main


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=_non_negative, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {root}; run from the repository "
              f"root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    stamp = run_stamp(root, args.seed)
    stamp["calibration_ms_before"] = calibrate()
    size = work_size(args.workload, args.seconds)
    inputs_path = prep.prepare(root, args.workload, args.seed, size)
    workdir = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            plain = run_pass(root, inputs_path, args.workload, size,
                             workdir / "plain", program_env(root), boots=1)
            trace_dir = workdir / "trace"
            outcome = run_pass(root, inputs_path, args.workload, size,
                               workdir / "traced",
                               program_env(root, trace_dir), boots=1)
            spans, missing = layers.load(trace_dir)
            problems = layers.coverage_problems(
                args.workload, spans, missing,
                expected_counts(args.workload, outcome))
            overhead = outcome["wall_s"] / plain["wall_s"] - 1.0
            divergences = (plain.get("divergences", [])
                           + outcome.get("divergences", []))
            metrics = layers.per_layer_metrics(
                spans, outcome["traced_ops"],
                router_retries=outcome.get("router", {}).get("retries_total", 0),
                overhead_share=overhead,
                rounding_divergences=len(divergences))
            failures = plain["failures"] + outcome["failures"] + problems
            attempted = plain["ops"] + outcome["ops"]
            broken = bool(problems)
        else:
            outcome = run_pass(root, inputs_path, args.workload, size,
                               workdir, program_env(root), boots=SETUPS)
            divergences = outcome.get("divergences", [])
            metrics = end_to_end(outcome)
            failures = outcome["failures"]
            attempted = outcome["ops"]
            broken = False
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    stamp["calibration_ms_after"] = calibrate()

    _, percentile = tail(outcome["latencies_ms"])
    stamp["latency_tail"] = {"percentile": round(percentile, 2),
                             "samples": len(outcome["latencies_ms"])}
    stamp["work"] = work_done(outcome)
    stamp["work"]["rounding_divergences"] = len(divergences)
    for failure in failures[:20]:
        print(f"FAILED {failure}")
    for divergence in divergences[:20]:
        print(f"DIVERGED within float rounding of the sequential logits: "
              f"{divergence}")
    moves = {name: f"should move {target} on {where}"
             for name, _, _, target, where in layers.METRICS}
    for name, metric in metrics.items():
        print(f"{name:<32} {metric['value']:>14.4f} {metric['unit']:<6} "
              f"{moves.get(name, '')}")
    print("stamp " + json.dumps(stamp))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    # A wrong output is a measured result (``correct`` is false); a trace
    # that missed a call path means the instrument itself is broken.
    return 1 if broken else 0


if __name__ == "__main__":
    raise SystemExit(main())
