"""Outputs the sequential decoder reaches when its logits move by rounding.

The continuous scheduler computes a row's logits beside other rows of other
source widths, so they can differ from the sequential decoder's in the last
float32 bits (at most about 5e-7 on the benchmark checkpoint).  That is
enough to change a token where two candidates nearly tie: greedy's argmax
flips between two logits within the difference, and seeded sampling, which
sorts the tokens by logit before its inverse-CDF draw, changes its pick when
two near-equal tokens trade places around the draw.

:func:`reachable_outputs` replays the sequential decode of one item and
branches wherever a logit change of at most :data:`EPSILON` could change
the token, so it returns every output such a change can produce.  A served
output outside that set is wrong; one inside it but unequal to the oracle is
a rounding divergence, which the benchmark prints and counts on every run.
Beam items get no tolerance: their served output must equal the oracle.
"""

from __future__ import annotations

import numpy as np

#: Largest logit change treated as rounding: about 6x the largest batched-
#: vs-sequential difference measured on the benchmark checkpoint (7e-7, a
#: few float32 ulps of logits up to 2 in magnitude).
EPSILON = 4e-6
#: Replays per item before the search gives up (each is one full decode).
MAX_REPLAYS = 16


def _candidates(logits: np.ndarray, strategy, draw: float | None) -> list[int]:
    """Tokens a rounding-level change of ``logits`` could make the step
    emit; the sequential decoder's own token first."""
    if strategy.name == "greedy":
        primary = int(np.argmax(logits))
        near = np.flatnonzero(logits >= logits[primary] - 2 * EPSILON)
        return [primary] + [int(t) for t in near if t != primary]
    # The sampler's arithmetic (decoding._sample_from_order, no top-k/top-p).
    z = np.asarray(logits, dtype=np.float64) / strategy.temperature
    order = np.argsort(-z, kind="stable")
    ranked = z[order]
    probs = np.exp(ranked - ranked[0])
    probs /= probs.sum()
    cumulative = np.concatenate(([0.0], np.cumsum(probs)))
    at = int(np.searchsorted(cumulative[1:], draw, side="right"))
    primary = int(order[min(at, order.size - 1)])
    # Token i can start after every token surely above it (logit more than
    # ``gap`` higher) and can end after every token possibly above it; the
    # interval ends themselves move by up to ``slack``.
    gap = 2 * EPSILON / strategy.temperature
    slack = gap
    descending = -ranked
    first = np.searchsorted(descending, -(ranked + gap), side="left")
    last = np.searchsorted(descending, -(ranked - gap), side="right")
    possible = ((cumulative[first] - slack <= draw)
                & (draw < cumulative[last] + slack))
    return [primary] + [int(order[i]) for i in np.flatnonzero(possible)
                        if order[i] != primary]


def _replay(mpirical, source: np.ndarray, strategy, forced: list[int],
            branches: list[list[int]]) -> list[int]:
    """One sequential decode that emits ``forced`` first; every other token
    a later step could emit under rounding is queued on ``branches``."""
    from repro.model.generation import _decode_mode

    vocab = mpirical.encoder.vocab
    model = mpirical.model
    rng = (np.random.default_rng(strategy.seed)
           if strategy.name == "sample" else None)
    ids: list[int] = []
    with _decode_mode():
        memory = model.encode(source, vocab.pad_id, training=False)
        state = model.start_decoding()
        current = np.asarray([[vocab.sos_id]], dtype=np.int64)
        for step in range(mpirical.generation.max_length):
            logits = model.decode_step(current, memory, source, vocab.pad_id,
                                       state)[0]
            draw = rng.random() if rng is not None else None
            if step < len(forced):
                token = forced[step]
            else:
                token, *others = _candidates(logits, strategy, draw)
                branches.extend(ids + [other] for other in others)
            if token == vocab.eos_id:
                break
            ids.append(token)
            current = np.asarray([[token]], dtype=np.int64)
    return ids


def reachable_outputs(mpirical, code: str, strategy_dict: dict) -> dict[str, int]:
    """``generated_code`` -> generated token count of every output the
    sequential decode of ``code`` reaches when its logits move by at most
    :data:`EPSILON`; empty for strategies given no tolerance."""
    from repro.model.decoding import strategy_from_dict

    strategy = strategy_from_dict(strategy_dict)
    if strategy.name not in ("greedy", "sample") or (
            strategy.name == "sample"
            and (strategy.top_k or strategy.top_p < 1.0)):
        return {}
    source = np.asarray([mpirical.encode_source_ids(code)], dtype=np.int64)
    outputs: dict[str, int] = {}
    branches: list[list[int]] = [[]]
    for _ in range(MAX_REPLAYS):
        if not branches:
            return outputs
        ids = _replay(mpirical, source, strategy, branches.pop(), branches)
        outputs[mpirical.package_prediction(code, ids).generated_code] = len(ids)
    raise RuntimeError(f"more than {MAX_REPLAYS} rounding branches for "
                       f"{strategy_dict}")


def settle(outcome: dict, checkpoint) -> None:
    """Judge ``outcome["mismatches"]`` (served output unequal to the oracle):
    a rounding divergence is counted and its tokens credited, anything else
    becomes a failure."""
    mismatches = outcome.pop("mismatches")
    outcome["divergences"] = []
    if not mismatches:
        return
    from repro.mpirical import MPIRical

    mpirical = MPIRical.load(checkpoint)
    for mismatch in mismatches:
        reachable = reachable_outputs(mpirical, mismatch["code"],
                                      mismatch["strategy"])
        if mismatch["expected"] not in reachable and reachable:
            raise RuntimeError("rounding replay does not reproduce the "
                               f"oracle for {mismatch['label']}")
        if mismatch["served"] in reachable:
            outcome["divergences"].append(mismatch["label"])
            if mismatch["credit"]:
                outcome["tokens"] += reachable[mismatch["served"]]
        else:
            outcome["failures"].append(f"{mismatch['label']}: "
                                       f"{mismatch['difference']}")
