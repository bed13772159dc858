"""Independent reference implementations used to check the shipped code.

These deliberately evaluate definitions directly (quantifiers, per-order
precision products, closed forms) rather than sharing any logic with the
package, so agreement is evidence and not tautology.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from typing import Sequence

import numpy as np

from specmt.engine import EngineConfig, EngineError
from specmt.metrics import MetricsError
from specmt.trace import (
    COMMIT,
    END,
    PREDICT,
    READ,
    SPECULATE,
    WITHDRAW,
    WRITE,
    Event,
    EventTrace,
    RunConfig,
)
from specmt.vocab import BOS, EOS, EOS_SURFACE, PHI, PHI_SURFACE


def dumps_event_json(event: Event) -> str:
    """An event line as the package wrote it with `json.dumps`: keys in field
    order, None fields left out, non-ASCII text kept as is."""
    payload: dict[str, object] = {"ev": event.ev}
    for key in ("i", "j", "tok", "pred", "p", "old", "new"):
        value = getattr(event, key)
        if value is not None:
            payload[key] = value
    return json.dumps(payload, ensure_ascii=False)


def dumps_run_config_json(config: RunConfig) -> str:
    """A trace header as the package wrote it with `json.dumps`."""
    payload = {
        "policy": config.policy,
        "param": config.param,
        "tau": config.tau,
        "predictor": config.predictor,
        "corpus": config.corpus,
        "seed": config.seed,
        "sentence_index": config.sentence_index,
    }
    return json.dumps(payload, ensure_ascii=False)


def dumps_serialize(trace: EventTrace) -> str:
    """A whole trace file as the `json.dumps` writer produced it."""
    lines = [dumps_run_config_json(trace.run_config)]
    lines.extend(dumps_event_json(e) for e in trace.events)
    return "".join(line + "\n" for line in lines)


def brute_force_delays(rows: tuple[tuple, ...]) -> tuple[int, ...]:
    """Delay of each final position by direct evaluation of the definition:
    the smallest row index i such that every row i' >= i agrees with the
    final row on every position j' <= j (short rows disagree)."""
    final = rows[-1]
    n_rows = len(rows)
    delays = []
    for j in range(1, len(final) + 1):
        for i in range(1, n_rows + 1):
            stable = True
            for i_later in range(i, n_rows + 1):
                row = rows[i_later - 1]
                for j_prefix in range(1, j + 1):
                    if len(row) < j_prefix or row[j_prefix - 1] != final[j_prefix - 1]:
                        stable = False
                        break
                if not stable:
                    break
            if stable:
                delays.append(i)
                break
    return tuple(delays)


def brute_force_bleu(hypotheses, references) -> float:
    """Corpus BLEU-4 straight from the definition: clipped counts per order,
    geometric mean as a fourth root of the product, brevity penalty last."""

    def grams(seq, n):
        return Counter(tuple(seq[k : k + n]) for k in range(len(seq) - n + 1))

    product = 1.0
    for n in (1, 2, 3, 4):
        clipped = 0
        total = 0
        for hyp, ref in zip(hypotheses, references):
            hyp_grams = grams(hyp, n)
            ref_grams = grams(ref, n)
            for gram, count in hyp_grams.items():
                clipped += min(count, ref_grams.get(gram, 0))
            total += max(0, len(hyp) - n + 1)
        if total == 0 or clipped == 0:
            return 0.0
        product *= clipped / total
    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)
    if hyp_len == 0:
        return 0.0
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return brevity * product ** 0.25



def paired_bootstrap_pvalue(
    treatment: Sequence[float],
    control: Sequence[float],
    resamples: int = 10_000,
    seed: int = 0,
) -> float:
    """One-sided paired bootstrap p-value for mean(treatment) > mean(control).

    Resamples sentence pairs with replacement and reports the fraction of
    resampled mean differences that are not positive.
    """
    if len(treatment) != len(control) or len(treatment) == 0:
        raise MetricsError("paired samples required")
    deltas = np.asarray(treatment, dtype=float) - np.asarray(control, dtype=float)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(deltas), size=(resamples, len(deltas)))
    means = deltas[idx].mean(axis=1)
    return float(np.mean(means <= 0.0))


def wait_k_closed_form_al(k: int, src_len: int, tgt_len: int) -> float:
    """Lagging of an ideal wait-k schedule, g_j = min(j + k - 1, src_len)."""
    rate = tgt_len / src_len
    total = sum(min(j + k - 1, src_len) - (j - 1) / rate for j in range(1, tgt_len + 1))
    return total / tgt_len


def wait_k_delays(k: int, src_len: int, tgt_len: int) -> tuple[int, ...]:
    return tuple(min(j + k - 1, src_len) for j in range(1, tgt_len + 1))


def speculation_eligible_positions(baseline_trace: EventTrace) -> int:
    """Positions whose delay an always-correct speculation can shrink.

    Those are the real-token writes that are the first decision of their read
    step, for read steps 2..I: the first step's speculation cannot land
    before row 1, and decisions after the end-of-source read gain nothing.
    """
    src_len = baseline_trace.read_count()
    eligible = 0
    step_decided = False
    for event in baseline_trace.events:
        if event.ev == "READ":
            step_decided = False
        elif event.ev == "WRITE":
            first = not step_decided
            step_decided = True
            if (
                first
                and event.tok not in (PHI_SURFACE, EOS_SURFACE)
                and event.i is not None
                and 2 <= event.i <= src_len
            ):
                eligible += 1
    return eligible


def random_snapshot_rows(rng, max_rows: int = 20, max_cols: int = 20, alphabet: int = 6):
    """Random revision-laden snapshot matrices for differential testing."""
    n_rows = int(rng.integers(1, max_rows + 1))
    n_cols = int(rng.integers(1, max_cols + 1))
    final = [f"t{rng.integers(alphabet)}" for _ in range(n_cols)]
    rows = []
    for i in range(n_rows - 1):
        # earlier rows: corrupted, truncated, or overlong variants of the final row
        length = int(rng.integers(0, n_cols + 3))
        row = []
        for j in range(length):
            if j < n_cols and rng.random() < 0.7:
                row.append(final[j])
            else:
                row.append(f"t{rng.integers(alphabet)}")
        rows.append(tuple(row))
    rows.append(tuple(final))
    return tuple(rows)


# The engine as it was before the baseline and speculative loops were merged,
# frozen as the reference for differential tests. Only the return value
# changed, to (final_output, trace).


def _runaway_limit(source):
    """Output length past which either loop stops a translator that never
    emits end-of-sequence; the translator is duck-typed, so this is checked."""
    return 2 * len(source) + 8


def _check_source(source):
    if not source:
        raise EngineError("empty source")
    for tok in source:
        if tok in (BOS, EOS, PHI):
            raise EngineError("reserved marker in source sentence")


def frozen_run_baseline(model, source, run_config=None):
    """Standard incremental loop: read, then write until the policy asks to read."""
    _check_source(source)
    src_len = len(source)
    limit = _runaway_limit(source)
    surf = model.vocabulary.surface

    out: list[int] = []
    events: list[Event] = []
    slot = 0
    finished = False

    for i in range(1, src_len + 2):
        tok = source[i - 1] if i <= src_len else EOS
        events.append(Event(READ, i=i, tok=surf(tok)))
        done = tok == EOS
        prefix = source[:min(i, src_len)]
        while True:
            decision = model.step(prefix, len(out), done)
            slot += 1
            events.append(Event(WRITE, j=slot, tok=surf(decision), i=i))
            if decision == PHI:
                if done:
                    raise EngineError("policy requested a read past the end of source")
                break
            if decision == EOS:
                finished = True
                break
            out.append(decision)
            if len(out) > limit:
                raise EngineError("runaway decode")
        if finished:
            break
    if not finished:
        raise EngineError("source exhausted before the translation finished")
    events.append(Event(END))

    trace = EventTrace(events=tuple(events), run_config=run_config or RunConfig())
    return tuple(out), trace


def frozen_run_speculative(model, predictor, source, config=None, run_config=None):
    """Speculate-resolve loop; final output is token-identical to the baseline.

    Each read step: resolve the pending speculation against the token that
    actually arrived (commit on a hit, withdraw and recompute on a miss),
    keep decoding with the real prefix until the policy asks to read, then
    predict the next token and speculate one decision on it when the
    prediction clears the probability gate.
    """
    config = config or EngineConfig()
    _check_source(source)
    pred_vocab = getattr(predictor, "vocabulary", None)
    if pred_vocab is not None and pred_vocab.tokens != model.vocabulary.tokens:
        raise EngineError("predictor/vocabulary mismatch")

    src_len = len(source)
    limit = _runaway_limit(source)
    surf = model.vocabulary.surface

    out: list[int] = []
    events: list[Event] = []
    slot = 0
    speculations = hits = withdrawals = 0
    pending: tuple[int, int, int] | None = None  # (slot, decision, predicted token)
    finished = False

    def speculate(basis: int) -> None:
        """Predict the token for read basis+1 and decode one decision against it."""
        nonlocal slot, speculations, pending
        prefix = source[:basis]
        prediction = predictor.predict(prefix)
        events.append(Event(PREDICT, i=basis + 1, pred=surf(prediction.token), p=prediction.probability))
        if prediction.probability < config.tau:
            pending = None
            return
        hypothesis_done = prediction.token == EOS
        hypothesis = prefix if hypothesis_done else prefix + (prediction.token,)
        decision = model.step(hypothesis, len(out), hypothesis_done)
        slot += 1
        speculations += 1
        events.append(Event(SPECULATE, j=slot, tok=surf(decision), i=basis))
        pending = (slot, decision, prediction.token)

    speculate(0)
    for i in range(1, src_len + 2):
        tok = source[i - 1] if i <= src_len else EOS
        events.append(Event(READ, i=i, tok=surf(tok)))
        done = tok == EOS
        prefix = source[:min(i, src_len)]

        decision: int | None = None
        if pending is not None:
            pending_slot, pending_decision, predicted = pending
            pending = None
            if predicted == tok:
                hits += 1
                events.append(Event(COMMIT, j=pending_slot))
                decision = pending_decision
            else:
                withdrawals += 1
                decision = model.step(prefix, len(out), done)
                events.append(
                    Event(WITHDRAW, j=pending_slot, old=surf(pending_decision), new=surf(decision))
                )
            if decision not in (PHI, EOS):
                out.append(decision)

        while decision not in (PHI, EOS):
            if decision is not None and len(out) > limit:
                raise EngineError("runaway decode")
            decision = model.step(prefix, len(out), done)
            slot += 1
            events.append(Event(WRITE, j=slot, tok=surf(decision), i=i))
            if decision not in (PHI, EOS):
                out.append(decision)

        if decision == EOS:
            finished = True
            break
        if done:
            raise EngineError("policy requested a read past the end of source")
        speculate(i)

    if not finished:
        raise EngineError("source exhausted before the translation finished")
    events.append(Event(END))

    trace = EventTrace(events=tuple(events), run_config=run_config or RunConfig())
    return tuple(out), trace


def _recursive_prob(model, token, ctx):
    """`NgramModel`'s interpolated probability as it was computed before the
    backoff chain was built once per context: recursing from the full context
    down to the add-alpha unigram, skipping contexts never seen in training."""
    if not ctx:
        total = sum(model.counts.get((), {}).values())
        return (model.counts.get((), {}).get(token, 0) + model.alpha) / (total + model.alpha * len(model.support))
    backoff = _recursive_prob(model, token, ctx[1:])
    total = sum(model.counts.get(ctx, {}).values())
    if total == 0:
        return backoff
    ml = model.counts[ctx].get(token, 0) / total
    return model.beta * ml + (1.0 - model.beta) * backoff


def full_scan_predict(model, context):
    """`NgramModel.predict` as it was before it scored only candidate tokens:
    every support token in ascending id order, the first maximum wins."""
    need = model.order - 1
    ctx = (BOS,) * need + tuple(context)
    ctx = ctx[len(ctx) - need:]
    best_tok = model.support[0]
    best_p = -1.0
    for tok in model.support:
        p = _recursive_prob(model, tok, ctx)
        if p > best_p:
            best_tok, best_p = tok, p
    return best_tok, best_p
