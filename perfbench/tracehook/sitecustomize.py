"""Span recorder for the benchmark's traced run.

Python imports ``sitecustomize`` at start-up from the first ``sys.path``
entry that has one.  The benchmark puts this directory on ``PYTHONPATH``
only for its traced run, so every process of that run records spans: the
workload process, the router, and each worker the pool spawns (the pool
hands its environment to the workers).

Wrapping happens right after each target module finishes executing, before
any other module can bind a target with ``from ... import``; a module run
with ``python -m`` has its target classes wrapped as they are defined.  Each span is
``(id, parent id, name, start ns, end ns, extra, thread id)``; the parent is
the innermost enclosing span of the same thread.  Spans stay in memory and
are written to ``$PERFBENCH_TRACE_DIR/spans-<pid>.json`` when the process
exits or receives SIGTERM (the pool stops its workers with SIGTERM).
"""

from __future__ import annotations

import atexit
import builtins
import functools
import importlib.abc
import itertools
import json
import os
import signal
import sys
import threading
import time

_OUT_DIR = os.environ.get("PERFBENCH_TRACE_DIR")


def _rows(args, kwargs, result):
    return int(args[1].shape[0])


def _hit(args, kwargs, result):
    return 0 if result is None else 1


def _wait_ms(args, kwargs, result):
    return args[1]


def _verdict(args, kwargs, result):
    return result.status


#: module -> [(attribute path, span name, extra probe or None)].  A probe
#: runs after a successful call and stores one value with the span.  The
#: scheduler's queue wait is the value the program itself records
#: (enqueued -> admitted), taken from its ``record_sched_wait`` call.
TARGETS = {
    "repro.serving.router": [
        ("Router.dispatch", "router.dispatch", None),
        ("Router.dispatch_submit", "router.dispatch", None)],
    "repro.api.contract": [
        ("AdviseRequest.from_dict", "api.parse", None),
        ("AdviseRequest.validate", "api.parse", None)],
    "repro.serving.server": [
        ("AdviseRequestHandler._post_advise_v1", "server.handle", None),
        ("AdviseRequestHandler._post_advise_batch", "server.handle", None)],
    "repro.clang.parser": [
        ("parse_source_with_diagnostics", "preprocess.parse", None)],
    "repro.xsbt.xsbt": [
        ("xsbt_string", "preprocess.xsbt", None),
        ("xsbt_for_source", "preprocess.xsbt", None)],
    "repro.tokenization.code_tokenizer": [
        ("tokenize_code", "preprocess.lex", None),
        ("ExampleEncoder.encode_source", "preprocess.encode", None)],
    "repro.serving.cache": [
        ("canonical_cache_key", "preprocess.cache_key", None),
        ("LRUCache.get", "cache.get", _hit),
        ("LRUCache.put", "cache.put", None)],
    "repro.serving.metrics": [
        ("ServingMetrics.record_sched_wait", "sched.wait", _wait_ms)],
    "repro.serving.sched": [
        ("ContinuousScheduler.submit", "sched.submit", None),
        ("InflightBatch.step", "sched.step", None)],
    "repro.model.transformer": [
        ("Seq2SeqTransformer.encode", "model.encode", None),
        ("Seq2SeqTransformer.decode_step", "model.decode_step", _rows),
        ("Seq2SeqTransformer.forward", "train.forward", None)],
    "repro.model.generation": [
        ("ContinuousDecoderLoop.join", "model.kv.join", None),
        ("ContinuousDecoderLoop.retire", "model.kv.retire", None),
        ("ContinuousDecoderLoop.reorder_rows", "model.kv.reorder", None)],
    "repro.model.decoding": [
        ("GreedyRowState.advance", "model.advance", None),
        ("SampleRowState.advance", "model.advance", None),
        ("BeamRowState.advance", "model.advance", None)],
    "repro.mpirical.pipeline": [
        ("MPIRical.package_prediction", "anchor", None)],
    "repro.mpirical.assistant": [
        ("build_advice_session", "anchor", None)],
    "repro.serving.service": [
        ("anchor_result", "anchor", None)],
    "repro.serving.jobs": [
        ("JobStore.submit", "jobs.submit", None)],
    "repro.serving.joblog": [
        ("JobLog.append", "joblog.append", None)],
    "repro.model.loss": [
        ("cross_entropy", "train.loss", None)],
    "repro.model.autograd": [
        ("Tensor.backward", "train.backward", None)],
    "repro.model.optimizer": [
        ("Adam.clip_gradients", "train.optimizer", None),
        ("Adam.step", "train.optimizer", None)],
    "repro.verify.runner": [
        ("capture_reference", "verify.reference", None),
        ("run_candidate", "verify.candidate", _verdict)],
    "repro.verify.materialize": [
        ("materialize_candidate", "verify.materialize", None)],
    "repro.mpisim.runtime": [
        ("MPIRuntime.run_source", "mpisim.run", None)],
}

_spans: list[tuple] = []
_ids = itertools.count(1)
_local = threading.local()
#: Targets a module lacked: the run fails on any.
_missing: list[str] = []
_dumped = False


def _traced(fn, name: str, probe):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = getattr(_local, "stack", None)
        if stack is None:
            stack = _local.stack = []
        span_id = next(_ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        extra = None
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            extra = "raised"
            raise
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            _spans.append([span_id, parent, name, start, end, extra,
                           threading.get_ident()])
        if probe is not None:
            _spans[-1][5] = probe(args, kwargs, result)
        return result

    return wrapper


def _patch_attr(owner, attr: str, label: str, name: str, probe) -> None:
    raw = owner.__dict__.get(attr)
    if raw is None:
        _missing.append(label)
        return
    if isinstance(raw, (staticmethod, classmethod)):
        wrapped = type(raw)(_traced(raw.__func__, name, probe))
    else:
        wrapped = _traced(raw, name, probe)
    setattr(owner, attr, wrapped)


def _patch(module, targets) -> None:
    for path, name, probe in targets:
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        _patch_attr(owner, attr, f"{module.__name__}.{path}", name, probe)


def _build_class_and_patch(func, class_name, *bases, **kwargs):
    """``python -m repro.serving.router`` runs the router as ``__main__``,
    which no import hook sees: wrap a target class's methods as the class
    statement of such a module completes."""
    cls = _build_class(func, class_name, *bases, **kwargs)
    module_globals = sys._getframe(1).f_globals
    spec = module_globals.get("__spec__")
    if module_globals.get("__name__") == "__main__" and spec is not None:
        for path, name, probe in TARGETS.get(spec.name, ()):
            owner_name, _, attr = path.rpartition(".")
            if owner_name == class_name:
                _patch_attr(cls, attr, f"__main__:{spec.name}.{path}", name,
                            probe)
    return cls


class _PatchingFinder(importlib.abc.MetaPathFinder):
    """Finds target modules through the other finders and wraps their
    targets as soon as the module body has run."""

    def find_spec(self, fullname, path, target=None):
        targets = TARGETS.get(fullname)
        if targets is None:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(fullname, path, target)
            if spec is not None:
                break
        else:
            return None
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            _patch(module, targets)

        spec.loader.exec_module = exec_and_patch
        return spec


def _dump() -> None:
    global _dumped
    if _dumped:
        return
    _dumped = True
    path = os.path.join(_OUT_DIR, f"spans-{os.getpid()}.json")
    payload = {"pid": os.getpid(), "argv": sys.argv, "missing": _missing,
               "spans": list(_spans)}
    with open(path + ".tmp", "w") as handle:
        json.dump(payload, handle)
    os.replace(path + ".tmp", path)


def _on_sigterm(signum, frame) -> None:
    _dump()
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    os.kill(os.getpid(), signal.SIGTERM)


if _OUT_DIR:
    _build_class = builtins.__build_class__
    builtins.__build_class__ = _build_class_and_patch
    sys.meta_path.insert(0, _PatchingFinder())
    atexit.register(_dump)
    signal.signal(signal.SIGTERM, _on_sigterm)
