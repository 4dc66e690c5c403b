"""Per-layer metrics from the traced run's spans, and the span coverage check.

Spans come from ``tracehook/sitecustomize.py`` (one file per process).  A
layer's ``busy_ms`` is its self time per op: the span's duration minus the
durations of its child spans in the same thread, summed over the run and
divided by the ops the process served (the workload's ops plus the set-up
probe).  ``calls`` are totals for the run's fixed work.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

#: (metric, unit, better, end-to-end metric it should move, on which workload)
METRICS = [
    ("router.dispatch.calls", "count", "lower", "latency_p50_ms", "ide_session"),
    ("router.dispatch.busy_ms", "ms", "lower", "latency_p50_ms", "ide_session"),
    ("router.retries", "count", "lower", "latency_p50_ms", "ide_session"),
    ("api.parse.busy_ms", "ms", "lower", "latency_p50_ms", "ide_session"),
    ("server.handle.busy_ms", "ms", "lower", "latency_p50_ms", "ide_session"),
    *[(f"preprocess.{fn}.{kind}", unit, "lower", "latency_p50_ms",
       "ide_session; a small share of batch_jobs")
      for fn in ("parse", "lex", "xsbt", "encode", "cache_key")
      for kind, unit in (("calls", "count"), ("busy_ms", "ms"))],
    ("cache.lookups", "count", "lower", "ops_per_s, cpu_ms_per_op", "ide_session"),
    ("cache.hit_share", "share", "higher", "ops_per_s, cpu_ms_per_op",
     "ide_session; zero hits on batch_jobs"),
    ("sched.queue_wait_ms_p50", "ms", "lower", "tokens_per_s", "batch_jobs"),
    ("sched.steps", "count", "lower", "tokens_per_s", "batch_jobs"),
    ("sched.rows_per_step", "rows", "higher", "tokens_per_s", "batch_jobs"),
    ("sched.joins", "count", "lower", "tokens_per_s", "batch_jobs"),
    ("sched.retires", "count", "lower", "tokens_per_s", "batch_jobs"),
    ("sched.bookkeeping_ms", "ms", "lower", "tokens_per_s", "batch_jobs"),
    ("model.encode.busy_ms", "ms", "lower", "tokens_per_s, latency_p50_ms",
     "batch_jobs, ide_session; no effect on train_steps"),
    ("model.decode_step.calls", "count", "lower", "tokens_per_s, latency_p50_ms",
     "batch_jobs, ide_session"),
    ("model.decode_step.busy_ms", "ms", "lower", "tokens_per_s, latency_p50_ms",
     "batch_jobs, ide_session; no effect on train_steps"),
    ("model.decode_step.rows", "count", "lower", "tokens_per_s",
     "batch_jobs, ide_session"),
    ("model.kv.join_ms", "ms", "lower", "tokens_per_s", "batch_jobs, ide_session"),
    ("model.kv.retire_ms", "ms", "lower", "tokens_per_s", "batch_jobs, ide_session"),
    ("model.kv.reorder_ms", "ms", "lower", "tokens_per_s", "batch_jobs"),
    ("model.advance.busy_ms", "ms", "lower", "tokens_per_s, latency_p50_ms",
     "batch_jobs, ide_session"),
    ("anchor.busy_ms", "ms", "lower", "latency_p50_ms", "ide_session"),
    ("jobs.submit.busy_ms", "ms", "lower", "tokens_per_s", "batch_jobs"),
    ("joblog.append.calls", "count", "lower", "tokens_per_s", "batch_jobs"),
    ("joblog.append.busy_ms", "ms", "lower", "tokens_per_s", "batch_jobs"),
    ("train.forward.busy_ms", "ms", "lower", "tokens_per_s, latency_p50_ms",
     "train_steps only"),
    ("train.loss.busy_ms", "ms", "lower", "tokens_per_s, latency_p50_ms",
     "train_steps only"),
    ("train.backward.busy_ms", "ms", "lower", "tokens_per_s, latency_p50_ms",
     "train_steps only"),
    ("train.optimizer.busy_ms", "ms", "lower", "tokens_per_s, latency_p50_ms",
     "train_steps only"),
    ("verify.reference.busy_ms", "ms", "lower", "ops_per_s, latency_p50_ms",
     "verify_sweep"),
    ("verify.materialize.busy_ms", "ms", "lower", "ops_per_s, latency_p50_ms",
     "verify_sweep"),
    ("verify.candidate.busy_ms", "ms", "lower", "ops_per_s, latency_p50_ms",
     "verify_sweep"),
    # The corpus fixes each case's verdict, and ok_share checks every one
    # against it; the failure verdicts should stay at 0.
    *[(f"verify.verdicts.{status}", "count", "higher", "ok_share",
       "verify_sweep (fixed by construction)")
      for status in ("equivalent", "diverged", "parse_error")],
    *[(f"verify.verdicts.{status}", "count", "lower", "ok_share",
       "verify_sweep (0 by construction)")
      for status in ("deadlocked", "runtime_error", "timeout")],
    ("mpisim.runs", "count", "lower", "ops_per_s, latency_p50_ms", "verify_sweep"),
    ("mpisim.busy_ms", "ms", "lower", "ops_per_s, latency_p50_ms",
     "verify_sweep; repro.clang parsing is shared with ide_session"),
    ("trace.overhead_share", "share", "lower", "none (tracing cost)",
     "every workload"),
    ("trace.raised_calls", "count", "lower", "ok_share", "every workload"),
    ("check.rounding_divergences", "count", "lower", "ok_share",
     "batch_jobs (served decodes equal to the oracle only up to rounding)"),
]

#: Spans each workload must produce; zero calls means a wrapper missed
#: its call path.
EXPECTED_SPANS = {
    "ide_session": ("router.dispatch", "api.parse", "server.handle",
                    "preprocess.parse", "preprocess.lex", "preprocess.xsbt",
                    "preprocess.encode", "preprocess.cache_key", "cache.get",
                    "cache.put", "sched.submit", "sched.wait", "sched.step",
                    "model.encode", "model.decode_step", "model.kv.join",
                    "model.kv.retire", "model.advance", "anchor"),
    "batch_jobs": ("router.dispatch", "api.parse", "server.handle",
                   "preprocess.parse", "preprocess.encode", "cache.get",
                   "sched.submit", "sched.wait", "sched.step", "model.encode",
                   "model.decode_step", "model.kv.join", "model.kv.retire",
                   "model.kv.reorder", "model.advance", "anchor",
                   "jobs.submit", "joblog.append"),
    "train_steps": ("train.forward", "train.loss", "train.backward",
                    "train.optimizer", "model.encode"),
    "verify_sweep": ("verify.reference", "verify.materialize",
                     "verify.candidate", "mpisim.run"),
}


class Layer:
    __slots__ = ("calls", "raised", "self_ms", "total_ms", "extras")

    def __init__(self) -> None:
        self.calls = 0
        self.raised = 0
        self.self_ms = 0.0
        self.total_ms = 0.0
        self.extras: list = []


def load(trace_dir: Path) -> tuple[dict[str, Layer], list[str]]:
    """Sum every process's spans by name; also return unpatched targets."""
    layers: dict[str, Layer] = defaultdict(Layer)
    missing: list[str] = []
    for path in sorted(trace_dir.glob("spans-*.json")):
        process = json.loads(path.read_text())
        missing.extend(process["missing"])
        child_ns: dict[int, int] = defaultdict(int)
        for _, parent, _, start, end, _, _ in process["spans"]:
            if parent:
                child_ns[parent] += end - start
        for span_id, _, name, start, end, extra, _ in process["spans"]:
            layer = layers[name]
            layer.calls += 1
            layer.total_ms += (end - start) / 1e6
            layer.self_ms += (end - start - child_ns.get(span_id, 0)) / 1e6
            if extra == "raised":
                layer.raised += 1
            elif extra is not None:
                layer.extras.append(extra)
    return layers, missing


def per_layer_metrics(layers: dict[str, Layer], ops: int, *,
                      router_retries: int, overhead_share: float,
                      rounding_divergences: int) -> dict:
    """Every metric of :data:`METRICS` (0 where the layer did no work)."""
    def layer(name: str) -> Layer:
        return layers.get(name) or Layer()

    def busy(name: str) -> float:
        return layer(name).self_ms / ops

    decode = layer("model.decode_step")
    lookups = layer("cache.get")
    verdicts = layer("verify.candidate").extras
    values = {
        "router.dispatch.calls": layer("router.dispatch").calls,
        "router.dispatch.busy_ms": (layer("router.dispatch").self_ms
                                    - layer("server.handle").total_ms) / ops,
        "router.retries": router_retries,
        "api.parse.busy_ms": busy("api.parse"),
        "server.handle.busy_ms": busy("server.handle"),
        "cache.lookups": lookups.calls,
        "cache.hit_share": (sum(lookups.extras) / lookups.calls
                            if lookups.calls else 0.0),
        "sched.queue_wait_ms_p50": (statistics.median(layer("sched.wait").extras)
                                    if layer("sched.wait").extras else 0.0),
        "sched.steps": layer("sched.step").calls,
        "sched.rows_per_step": (sum(decode.extras) / decode.calls
                                if decode.calls else 0.0),
        "sched.joins": layer("model.kv.join").calls,
        "sched.retires": layer("model.kv.retire").calls,
        "sched.bookkeeping_ms": busy("sched.step"),
        "model.encode.busy_ms": busy("model.encode"),
        "model.decode_step.calls": decode.calls,
        "model.decode_step.busy_ms": busy("model.decode_step"),
        "model.decode_step.rows": sum(decode.extras),
        "model.kv.join_ms": busy("model.kv.join"),
        "model.kv.retire_ms": busy("model.kv.retire"),
        "model.kv.reorder_ms": busy("model.kv.reorder"),
        "model.advance.busy_ms": busy("model.advance"),
        "anchor.busy_ms": busy("anchor"),
        "jobs.submit.busy_ms": busy("jobs.submit"),
        "joblog.append.calls": layer("joblog.append").calls,
        "joblog.append.busy_ms": busy("joblog.append"),
        "train.forward.busy_ms": busy("train.forward"),
        "train.loss.busy_ms": busy("train.loss"),
        "train.backward.busy_ms": busy("train.backward"),
        "train.optimizer.busy_ms": busy("train.optimizer"),
        "verify.reference.busy_ms": busy("verify.reference"),
        "verify.materialize.busy_ms": busy("verify.materialize"),
        "verify.candidate.busy_ms": busy("verify.candidate"),
        "mpisim.runs": layer("mpisim.run").calls,
        "mpisim.busy_ms": busy("mpisim.run"),
        "trace.overhead_share": overhead_share,
        "trace.raised_calls": sum(each.raised for each in layers.values()),
        "check.rounding_divergences": rounding_divergences,
    }
    for fn in ("parse", "lex", "xsbt", "encode", "cache_key"):
        values[f"preprocess.{fn}.calls"] = layer(f"preprocess.{fn}").calls
        values[f"preprocess.{fn}.busy_ms"] = busy(f"preprocess.{fn}")
    for status in ("equivalent", "diverged", "parse_error", "deadlocked",
                   "runtime_error", "timeout"):
        values[f"verify.verdicts.{status}"] = verdicts.count(status)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, *_ in METRICS}


def coverage_problems(workload: str, layers: dict[str, Layer],
                      missing: list[str], expected_counts: dict[str, int]
                      ) -> list[str]:
    """Where a span count disagrees with a count the program keeps or with
    the ops the run sent, the trace missed a call path: each disagreement
    is a problem."""
    problems = [f"target not found: {target}" for target in missing]
    for name in EXPECTED_SPANS[workload]:
        if name not in layers:
            problems.append(f"no {name} spans recorded")
    for name, expected in expected_counts.items():
        if name == "cache.hits":
            observed = sum(layers["cache.get"].extras) if "cache.get" in layers else 0
        else:
            observed = layers[name].calls if name in layers else 0
        if observed != expected:
            problems.append(f"{name}: {observed} spans, program counts {expected}")
    return problems
