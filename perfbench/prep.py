"""Seeded inputs, checkpoint and expected outputs, built before any timing.

Everything here runs in the benchmark's own process, never in a measured
one, so the corpus generator and the oracle decodes count toward neither
``setup_s`` nor ``peak_rss_mb``.  What is built depends only on the
program's source tree, this file, the seed, the workload and its size, so
it is cached under ``.perfbench_cache/`` in the checkout: the corpus, the
checkpoint and the oracle outputs once, each seed's inputs per workload.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from pathlib import Path

#: Decode length cap of the checkpoint is ``MAX_TARGET_TOKENS + 2``.  Its
#: weights are random with a fixed seed, under which greedy and beam decodes
#: of the corpus programs run to the cap; some other seeds emit EOS early,
#: which would make the work of a run depend on the workload seed.
MAX_TARGET_TOKENS = 40
MODEL_SEED = 2023
#: The corpus is the same for every seed (the workload seed picks programs,
#: their order, sampling seeds, training batches and fuzz cases), so runs
#: with different seeds do like work.
NUM_REPOSITORIES = 240
CORPUS_SEED = 20230
#: Share of the dataset's examples the vocabulary is fitted on; the
#: ``ide_session`` programs come from the rest (held out from the
#: vocabulary), ``batch_jobs`` may use every program.
VOCAB_SHARE = 0.3
#: ``ide_session`` re-sends an earlier buffer, cosmetically edited, on this
#: share of its requests; those must hit the canonical-key cache.
IDE_REPEAT_SHARE = 0.3
#: A re-send picks one of the last ``IDE_RECENT`` distinct buffers, well
#: inside the worker's 256-entry LRU, so every re-send must hit.
IDE_RECENT = 64
#: Items per ``batch_jobs`` job and the strategy mix they cycle through.
BATCH_JOB_ITEMS = 64
BATCH_STRATEGIES = ("greedy", "sample", "beam", "greedy", "sample", "greedy")
#: Fuzz-case kinds ``verify_sweep`` keeps (see BENCHMARK.json for why
#: deadlock cases are left out).
VERIFY_KINDS = ("correct", "dropped_reduce", "wrong_op", "parse_error")
VERIFY_RANKS = (1, 2, 4)
TRAIN_BATCH = 8


def source_digest(root: Path) -> str:
    """Hash of every file under ``src/`` and of this file: the cache key of
    the program and of how its inputs are made."""
    digest = hashlib.sha256(Path(__file__).read_bytes())
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def experiment_config():
    """The quick-bench shape: d=64, 2 encoder and 2 decoder layers."""
    from repro.model.config import ExperimentConfig, ModelConfig, TrainingConfig

    return ExperimentConfig(
        model=ModelConfig(d_model=64, num_heads=4, num_encoder_layers=2,
                          num_decoder_layers=2, ffn_dim=128, dropout=0.1,
                          seed=MODEL_SEED),
        training=TrainingConfig(batch_size=TRAIN_BATCH, learning_rate=2.5e-3,
                                warmup_steps=20, label_smoothing=0.05,
                                seed=MODEL_SEED),
        max_source_tokens=260,
        max_xsbt_tokens=80,
        max_target_tokens=MAX_TARGET_TOKENS,
    )


def _dataset():
    from repro.corpus import MiningConfig, build_corpus
    from repro.dataset import FilterConfig, build_dataset

    corpus = build_corpus(MiningConfig(num_repositories=NUM_REPOSITORIES,
                                       seed=CORPUS_SEED))
    examples = build_dataset(corpus, FilterConfig(max_tokens=240)).examples
    split = int(len(examples) * VOCAB_SHARE)
    return examples[:split], examples[split:]


def _save_checkpoint(fit_examples, path: Path) -> None:
    from repro.model.transformer import Seq2SeqTransformer
    from repro.mpirical import MPIRical
    from repro.tokenization.code_tokenizer import ExampleEncoder, SequenceConfig

    config = experiment_config()
    encoder = ExampleEncoder.fit(
        fit_examples,
        SequenceConfig(max_source_tokens=config.max_source_tokens,
                       max_xsbt_tokens=config.max_xsbt_tokens,
                       max_target_tokens=config.max_target_tokens),
        use_xsbt=config.use_xsbt)
    config.model.vocab_size = len(encoder.vocab)
    MPIRical(Seq2SeqTransformer(config.model), encoder, config).save(path)


def cosmetic_edit(code: str, variant: int) -> str:
    """A whitespace- and comment-only edit: same canonical cache key."""
    lines = code.split("\n")
    at = 1 + variant % max(1, len(lines) - 1)
    lines.insert(at, "")
    lines[0] = lines[0] + "   "
    return f"/* edit {variant} */\n" + "\n".join(lines) + f"\n// reviewed {variant}\n"


def _strategy(kind: str, seed: int, index: int) -> dict:
    if kind == "beam":
        return {"name": "beam", "beam_size": 4}
    if kind == "sample":
        return {"name": "sample", "seed": seed * 100003 + index,
                "temperature": 0.9}
    return {"name": "greedy"}


def _ide_inputs(seed: int, programs: list[str], requests: int) -> dict:
    """``requests`` greedy requests; exactly ``IDE_REPEAT_SHARE`` of them
    (never the first) re-send a recent buffer with a cosmetic edit."""
    rng = random.Random(seed)
    repeats = set(rng.sample(range(1, requests),
                             round(requests * IDE_REPEAT_SHARE)))
    if requests - len(repeats) > len(programs):
        raise ValueError(f"{requests} requests need more than the "
                         f"{len(programs)} held-out programs")
    sequence = []
    sent = 0
    for index in range(requests):
        if index in repeats:
            original = sent - 1 - rng.randrange(min(sent, IDE_RECENT))
            edited = cosmetic_edit(programs[original], rng.randrange(3))
            sequence.append({"code": edited, "repeat": True})
        else:
            sequence.append({"code": programs[sent], "repeat": False})
            sent += 1
    return {"requests": sequence}


def _batch_inputs(seed: int, programs: list[str], jobs: int) -> dict:
    if jobs * BATCH_JOB_ITEMS > len(programs):
        raise ValueError(f"{jobs} jobs need more than the {len(programs)} "
                         f"distinct programs")
    items = []
    for index in range(jobs * BATCH_JOB_ITEMS):
        kind = BATCH_STRATEGIES[index % len(BATCH_STRATEGIES)]
        items.append({"code": programs[index],
                      "strategy": _strategy(kind, seed, index)})
    return {"jobs": [items[i:i + BATCH_JOB_ITEMS]
                     for i in range(0, len(items), BATCH_JOB_ITEMS)]}


def _train_inputs(seed: int, examples: list[dict], checkpoint: Path,
                  steps: int) -> dict:
    from repro.dataset.records import TranslationExample
    from repro.mpirical import MPIRical

    encoder = MPIRical.load(checkpoint).encoder
    encoded = encoder.encode_examples(
        [TranslationExample(**example) for example in examples])
    order = list(range(len(encoded)))
    random.Random(seed).shuffle(order)
    batches = []
    for step in range(steps):
        picks = [order[(step * TRAIN_BATCH + k) % len(order)]
                 for k in range(TRAIN_BATCH)]
        batches.append([{"encoder_ids": encoded[i].encoder_ids,
                         "decoder_ids": encoded[i].decoder_ids}
                        for i in picks])
    return {"batches": batches, "pad_id": encoder.vocab.pad_id}


def _verify_inputs(seed: int, count: int) -> dict:
    from repro.tokenization.code_tokenizer import tokenize_code
    from repro.verify.fuzz import fuzz_case

    cases = []
    index = 0
    while len(cases) < count:
        case = fuzz_case(seed, index)
        index += 1
        if case.kind in VERIFY_KINDS:
            cases.append({"name": case.name, "serial": case.serial_source,
                          "parallel": case.parallel_source,
                          "expect": case.expect,
                          "tokens": len(tokenize_code(case.parallel_source))})
    return {"cases": cases, "ranks": list(VERIFY_RANKS)}


def _expect(cache: Path, checkpoint: Path, ops: list[dict],
            strategy: dict | None = None) -> None:
    """Store each op's ``predict_code`` output under the checkpoint (one
    sequential decode per op) and its generated token count.

    The corpus and checkpoint are fixed for a source tree, so outputs are
    kept in ``oracle.json`` by strategy and program text and reused across
    seeds.
    """
    from repro.model.decoding import strategy_from_dict
    from repro.mpirical import MPIRical

    path = cache / "oracle.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    model = None
    for op in ops:
        chosen = strategy or op["strategy"]
        key = hashlib.sha256(json.dumps([chosen, op["code"]], sort_keys=True)
                             .encode()).hexdigest()
        if key not in known:
            model = model or MPIRical.load(checkpoint)
            result = model.predict_code(op["code"],
                                        strategy=strategy_from_dict(chosen))
            known[key] = [result.generated_code, len(result.generated_tokens)]
        op["expected"], op["tokens"] = known[key]
    staging = cache / f".oracle.{os.getpid()}"
    staging.write_text(json.dumps(known))
    os.replace(staging, path)


def _serving_inputs(cache: Path, checkpoint: Path, corpus: dict,
                    workload: str, seed: int, size: int) -> dict:
    """Requests (``ide_session``) or jobs (``batch_jobs``) plus the set-up
    probe, each op with its expected output."""
    held_out = _distinct(example["source_code"]
                         for example in corpus["held_out"])
    random.Random(seed).shuffle(held_out)
    probe = {"code": held_out.pop(0)}
    greedy = {"name": "greedy"}
    if workload == "ide_session":
        inputs = _ide_inputs(seed, held_out, size)
        ops, strategy = inputs["requests"], greedy
    else:
        programs = _distinct([probe["code"], *held_out, *(
            example["source_code"] for example in corpus["fit"])])[1:]
        inputs = _batch_inputs(seed, programs, size)
        ops, strategy = [item for job in inputs["jobs"] for item in job], None
    _expect(cache, checkpoint, ops, strategy)
    _expect(cache, checkpoint, [probe], greedy)
    inputs["probe"] = probe
    return inputs


def _corpus(directory: Path) -> dict:
    """The fixed corpus: vocabulary-fit examples and held-out ones."""
    path = directory / "corpus.json"
    if not path.exists():
        fit, held_out = _dataset()
        directory.mkdir(parents=True, exist_ok=True)
        staging = directory / f".corpus.{os.getpid()}"
        staging.write_text(json.dumps({
            "fit": [_example_dict(example) for example in fit],
            "held_out": [_example_dict(example) for example in held_out]}))
        os.replace(staging, path)
    return json.loads(path.read_text())


def _checkpoint(directory: Path, fit: list[dict]) -> Path:
    """The random-init checkpoint over the corpus vocabulary."""
    from repro.dataset.records import TranslationExample

    path = directory / "checkpoint"
    if not path.exists():
        directory.mkdir(parents=True, exist_ok=True)
        staging = directory / f".checkpoint.{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        _save_checkpoint([TranslationExample(**example) for example in fit],
                         staging)
        _publish(staging, path)
    return path


def _example_dict(example) -> dict:
    return {"example_id": example.example_id, "family": example.family,
            "source_code": example.source_code,
            "source_xsbt": example.source_xsbt,
            "target_code": example.target_code}


def _distinct(programs) -> list[str]:
    """Drop programs whose token stream repeats an earlier one: they share
    its canonical cache key, so they would hit where a miss is expected."""
    from repro.tokenization.code_tokenizer import tokenize_code

    seen: set[tuple[str, ...]] = set()
    kept = []
    for code in programs:
        tokens = tuple(tokenize_code(code))
        if tokens not in seen:
            seen.add(tokens)
            kept.append(code)
    return kept


def _publish(staging: Path, target: Path) -> None:
    shutil.rmtree(target, ignore_errors=True)
    os.replace(staging, target)


def prepare(root: Path, workload: str, seed: int, size: int) -> Path:
    """Build (or reuse) the prepared inputs; returns their ``inputs.json``.

    Model workloads name the seed's checkpoint under ``"checkpoint"`` (a
    path relative to ``root``); serving workloads also carry the expected
    ``generated_code`` and generated token count of every op.
    """
    cache = root / ".perfbench_cache" / source_digest(root)
    seed_dir = cache / f"seed-{seed}"
    target = seed_dir / f"{workload}-{size}"
    if (target / "inputs.json").exists():
        return target / "inputs.json"
    if workload == "verify_sweep":
        inputs = _verify_inputs(seed, size)
    else:
        corpus = _corpus(cache)
        checkpoint = _checkpoint(cache, corpus["fit"])
        if workload == "train_steps":
            inputs = _train_inputs(seed, corpus["fit"] + corpus["held_out"],
                                   checkpoint, size)
        else:
            inputs = _serving_inputs(cache, checkpoint, corpus, workload,
                                     seed, size)
        inputs["checkpoint"] = str(checkpoint.relative_to(root))
    staging = seed_dir / f".{target.name}.{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    (staging / "inputs.json").write_text(json.dumps(inputs))
    _publish(staging, target)
    return target / "inputs.json"
