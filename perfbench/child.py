"""Fresh-process runner for ``train_steps`` and ``verify_sweep``.

Usage: ``python child.py <workload> <inputs.json> <ops>``, from the
repository root.

Runs ``ops`` ops against the program's public entry points and prints one
JSON object: when the first op finished (``time.monotonic()``, a clock
shared with the parent process), and, for ops 2..N (the timed phase), the
per-op latencies, wall time, CPU time and outcome of every op.  A run with
``ops == 1`` measures set-up only.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from pathlib import Path


def _peak_rss_mb() -> float:
    """VmHWM of this process.  Read here rather than through the harness's
    helpers, so the measured process imports nothing of the harness."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def _train(inputs: dict, ops: int):
    from repro.model.trainer import Trainer
    from repro.mpirical import MPIRical
    from repro.tokenization.code_tokenizer import EncodedExample

    model = MPIRical.load(inputs["checkpoint"])
    trainer = Trainer(model.model, inputs["pad_id"], model.config.training)
    batches = inputs["batches"][:ops]
    losses: list[float] = []

    def op(index: int):
        batch = [EncodedExample(example_id=str(k), **example)
                 for k, example in enumerate(batches[index])]
        loss, _ = trainer.train_step(batch)
        losses.append(loss)
        tokens = sum(len(example.decoder_ids) - 1 for example in batch)
        if not math.isfinite(loss):
            return tokens, f"step {index}: loss {loss}"
        if index == len(batches) - 1 and index and loss >= losses[0]:
            return tokens, f"last loss {loss:.4f} not below first {losses[0]:.4f}"
        return tokens, None

    return op, {"losses": losses}


def _verify(inputs: dict, ops: int):
    from repro.verify import VerifyConfig, verify_candidates

    config = VerifyConfig(ranks=tuple(inputs["ranks"]), tolerance=1e-6,
                          timeout=6.0, sim_timeout=1.0)
    cases = inputs["cases"][:ops]
    verdicts: dict[str, int] = {}

    def op(index: int):
        case = cases[index]
        report = verify_candidates(case["serial"], [case["parallel"]],
                                   config=config)
        status = report.verdicts[0].status if report.verdicts else "skipped"
        verdicts[status] = verdicts.get(status, 0) + 1
        if status != case["expect"]:
            return case["tokens"], f"{case['name']}: {status} != {case['expect']}"
        return case["tokens"], None

    return op, {"verdicts": verdicts}


def main(argv: list[str]) -> int:
    workload, inputs_path, ops = argv[0], Path(argv[1]), int(argv[2])
    inputs = json.loads(inputs_path.read_text())
    build = {"train_steps": _train, "verify_sweep": _verify}[workload]
    op, extra = build(inputs, ops)
    failures = []
    _, failure = op(0)
    first_done = time.monotonic()
    if failure:
        failures.append(failure)
    latencies, tokens = [], 0
    cpu_start = os.times()
    started = time.perf_counter()
    for index in range(1, ops):
        sent = time.perf_counter()
        op_tokens, failure = op(index)
        latencies.append((time.perf_counter() - sent) * 1000.0)
        if failure:
            failures.append(failure)
        else:
            tokens += op_tokens
    wall = time.perf_counter() - started
    cpu_end = os.times()
    cpu = (cpu_end.user - cpu_start.user) + (cpu_end.system - cpu_start.system)
    print(json.dumps({"first_done": first_done, "wall_s": wall,
                      "latencies_ms": latencies, "ops": ops - 1,
                      "tokens": tokens, "failures": failures, "cpu_s": cpu,
                      "peak_rss_mb": _peak_rss_mb(), **extra}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
