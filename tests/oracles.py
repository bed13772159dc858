"""Independent reference implementations used to check the shipped code.

These deliberately evaluate definitions directly (quantifiers, per-order
precision products, closed forms) rather than sharing any logic with the
package, so agreement is evidence and not tautology.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import Counter
from fractions import Fraction
from functools import cache
from typing import Sequence

import numpy as np

from specmt.engine import EngineConfig, EngineError, run_baseline, run_speculative
from specmt.experiment import (
    RUN_COLUMNS, SUMMARY_COLUMNS, ExperimentConfig, build_predictors, prepare_data, score_run, summarize,
)
from specmt.markov import GeneratedCorpus, MarkovSourceSpec, _build_vocab_and_lexicon
from specmt.metrics import MetricsError, bleu_from_stats, bleu_stats, sum_bleu_stats
from specmt.model import WAIT_K, SimtModel, adaptive_threshold
from specmt.ngram import AlwaysWrongPredictor, OraclePredictor, Prediction
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
    TraceError,
)
from specmt.vocab import BOS, EOS, EOS_SURFACE, PHI, PHI_SURFACE, Sentence


def event_json(event: Event) -> str:
    """One event's line as the trace writer spells it, without its newline:
    the second line of a trace holding only that event (a JSON string
    escapes every newline, so lines split at each one)."""
    return EventTrace(events=(event,)).serialize().split("\n")[1]


def dumps_event_json(event: Event) -> str:
    """An event line as the package wrote it with `json.dumps`: keys in field
    order, None fields left out, non-ASCII text kept as is."""
    event = Event._make(event)
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


# The trace reader's line-by-line parse as it was when CRLF files, blank
# lines and bad lines went through it, frozen as the reference for every trace
# `parse_trace` accepts and every TraceError it raises: each line parsed alone,
# each value checked alone against the key types written out here.
_FROZEN_HEADER_TYPES = {
    "policy": (str,), "param": (int, float), "tau": (int, float), "predictor": (str,), "corpus": (str,),
    "seed": (int,), "sentence_index": (int,),
}
_FROZEN_EVENT_TYPES = {
    "ev": (str,), "i": (int,), "j": (int,), "tok": (str,), "pred": (str,), "p": (int, float), "old": (str,),
    "new": (str,),
}
_FROZEN_TYPE_NAMES = {(str,): "a string", (int,): "an int", (int, float): "a number"}


def _frozen_field_problem(obj: dict, types: dict, what: str) -> str | None:
    for key, value in obj.items():
        if key not in types:
            return f"unknown {what} key {key!r}"
        if value is not None and type(value) not in types[key]:
            return f"{what} key {key!r} is not {_FROZEN_TYPE_NAMES[types[key]]}: {value!r}"
    return None


def _frozen_run_config(obj: object) -> RunConfig:
    if type(obj) is not dict:
        raise TraceError("header is not a JSON object")
    if "ev" in obj:
        raise TraceError("missing header line")
    problem = _frozen_field_problem(obj, _FROZEN_HEADER_TYPES, "header")
    if problem is not None:
        raise TraceError(problem)
    return RunConfig(**{key: value for key, value in obj.items() if value is not None})


def frozen_event(obj: object) -> tuple:
    """The event tuple of a parsed JSON value, its fields in `Event` order,
    or TraceError saying what is wrong with it."""
    if type(obj) is not dict:
        raise TraceError("event is not a JSON object")
    problem = _frozen_field_problem(obj, _FROZEN_EVENT_TYPES, "event")
    if problem is not None:
        raise TraceError(problem)
    if "ev" not in obj:
        raise TraceError("event without 'ev'")
    if obj["ev"] not in (READ, PREDICT, SPECULATE, COMMIT, WITHDRAW, WRITE, END):
        raise TraceError(f"unknown event kind {obj['ev']!r}")
    return tuple(obj.get(key) for key in _FROZEN_EVENT_TYPES)


def frozen_parse_lines(text: str) -> EventTrace:
    """Parse a trace one line at a time, naming the first bad 1-based line.
    Only a line feed ends a line, and blank lines are skipped. The events
    before the first line that does not parse, or a bad header, are checked
    before that line is named."""
    config: RunConfig | None = None
    numbered: list[tuple[int, object]] = []  # (line number, parsed value) of each event line
    malformed: TraceError | None = None  # the first line that does not parse, or a bad header
    for lineno, line in enumerate(text.split("\n"), 1):
        if not line.strip():
            continue
        try:
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"malformed JSON: {exc.msg} at column {exc.colno}") from None
            except (ValueError, RecursionError) as exc:
                raise TraceError(f"malformed JSON: {exc}") from None
            if config is None:
                config = _frozen_run_config(obj)
            else:
                numbered.append((lineno, obj))
        except TraceError as exc:
            malformed = TraceError(f"line {lineno}: {exc}")
            break
    events = []
    for lineno, obj in numbered:
        try:
            events.append(frozen_event(obj))
        except TraceError as exc:
            raise TraceError(f"line {lineno}: {exc}") from None
    if malformed is not None:
        raise malformed
    if config is None:
        raise TraceError("line 1: empty trace file, no header")
    return EventTrace(events=tuple(events), run_config=config)


def snapshot_from_trace(trace: EventTrace) -> tuple[tuple[str, ...], ...]:
    """The snapshot matrix of a trace, one row per real source read: row i
    (1-based) is the visible, PHI-free output in force after source token i
    was processed, including speculative writes issued before token i+1
    arrived; the last row is the final output.

    This is the package's row-building replay as it was before `replay`
    computed delays without rows, frozen as the definition `replay` is
    checked against, protocol checks and error messages included.
    """
    rows: list[tuple[str, ...]] = []
    visible: list[str] = []
    pending: tuple[int, str] | None = None  # (slot, decision) awaiting resolution
    committed_slots: set[int] = set()
    last_read = 0
    reads = 0
    ended = False

    for event in map(Event._make, trace.events):
        kind = event.ev
        if ended:
            raise TraceError("inconsistent trace: events after END")
        if kind == READ:
            if event.i is None or event.i <= last_read:
                raise TraceError("inconsistent trace: READ indices not increasing")
            last_read = event.i
            if event.tok is None:
                raise TraceError("inconsistent trace: READ without token")
            if event.tok != EOS_SURFACE:
                if reads > 0:
                    rows.append(tuple(visible))
                reads += 1
        elif kind in (WRITE, SPECULATE):
            if event.tok is None:
                raise TraceError(f"inconsistent trace: {kind} without token")
            if kind == SPECULATE:
                if event.j is None:
                    raise TraceError("inconsistent trace: SPECULATE without slot")
                if pending is not None:
                    raise TraceError("inconsistent trace: nested speculation")
                pending = (event.j, event.tok)
            if event.tok not in (PHI_SURFACE, EOS_SURFACE):
                visible.append(event.tok)
        elif kind == COMMIT:
            if pending is None or pending[0] != event.j:
                raise TraceError("inconsistent trace: COMMIT without speculation")
            committed_slots.add(pending[0])
            pending = None
        elif kind == WITHDRAW:
            if event.j in committed_slots:
                raise TraceError("inconsistent trace: WITHDRAW after COMMIT")
            if pending is None or pending[0] != event.j:
                raise TraceError("inconsistent trace: WITHDRAW without speculation")
            slot, old = pending
            if old != event.old:
                raise TraceError("inconsistent trace: withdrawn token mismatch")
            if event.new is None:
                raise TraceError("inconsistent trace: WITHDRAW without corrected token")
            if old not in (PHI_SURFACE, EOS_SURFACE):
                if not visible or visible[-1] != old:
                    raise TraceError("inconsistent trace: withdrawn token not trailing")
                visible.pop()
            if event.new not in (PHI_SURFACE, EOS_SURFACE):
                visible.append(event.new)
            pending = None
        elif kind == PREDICT:
            if event.i is None or event.pred is None:
                raise TraceError("inconsistent trace: PREDICT without index or guess")
        elif kind == END:
            if pending is not None:
                raise TraceError(f"inconsistent trace: speculation at slot {pending[0]} unresolved at END")
            ended = True
        else:
            raise TraceError(f"inconsistent trace: unknown event {kind!r}")

    if not ended:
        raise TraceError("inconsistent trace: missing END")
    if reads == 0:
        raise TraceError("inconsistent trace: no source reads")
    rows.append(tuple(visible))
    return tuple(rows)


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


def brute_force_al(delays: Sequence[int], source_length: int) -> Fraction:
    """Average lagging from its definition, in exact rationals: the mean over
    output positions j = 1..J of g_j - (j - 1) * I / J."""
    j_count = len(delays)
    return sum(Fraction(g) - Fraction((j - 1) * source_length, j_count) for j, g in enumerate(delays, 1)) / j_count


def frozen_average_lagging(delays: Sequence[int], source_length: int) -> float:
    """`metrics.average_lagging` as it was written with a generator, frozen as
    the float bits the package's AL must keep."""
    j_count = len(delays)
    rate = j_count / source_length
    total = sum(delays[j - 1] - (j - 1) / rate for j in range(1, j_count + 1))
    return total / j_count


def gates_alike(trace: EventTrace, tau: float, other: float) -> bool:
    """Whether the gate `p < tau` decides every `PREDICT` of `trace` alike at
    `tau` and at `other`: the sweep's rule for reusing a run at another tau."""
    return all((e.p < tau) == (e.p < other) for e in map(Event._make, trace.events) if e.ev == PREDICT)


def brute_force_predicted(trace: EventTrace) -> int:
    """Real source reads whose token the predictor guessed, from the
    definition: for each READ(i, tok) of a real token, look back for the
    last PREDICT of index i before it and count the read when that
    PREDICT's guess is tok."""
    count = 0
    events = [Event._make(e) for e in trace.events]
    for n, event in enumerate(events):
        if event.ev == READ and event.tok != EOS_SURFACE:
            guesses = [e.pred for e in events[:n] if e.ev == PREDICT and e.i == event.i]
            if guesses and guesses[-1] == event.tok:
                count += 1
    return count


def grams(seq, n) -> Counter:
    """The n-grams of `seq`, one slice per position."""
    return Counter(tuple(seq[k : k + n]) for k in range(len(seq) - n + 1))


def brute_force_sentence_counts(hyp, ref) -> tuple[int, ...]:
    """Clipped n-gram matches and hypothesis n-gram totals for n = 1..4, then
    the two lengths, from `grams`: the layout of `bleu_stats`."""
    counts: list[int] = []
    for n in (1, 2, 3, 4):
        hyp_grams, ref_grams = grams(hyp, n), grams(ref, n)
        counts.append(sum(min(count, ref_grams.get(gram, 0)) for gram, count in hyp_grams.items()))
        counts.append(max(0, len(hyp) - n + 1))
    return (*counts, len(hyp), len(ref))


def brute_force_bleu(hypotheses, references) -> float:
    """Corpus BLEU-4 straight from the definition: clipped counts per order,
    geometric mean as a fourth root of the product, brevity penalty last."""
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



# Corpus-level helpers over the package's sentence statistics, for tests
# that score whole corpora; they are compositions, not independent oracles.


def modified_precision(
    hypotheses: Sequence[Sequence], references: Sequence[Sequence], n: int
) -> tuple[int, int]:
    """Corpus-level clipped n-gram matches and total hypothesis n-grams, n in 1..4."""
    stats = sum_bleu_stats(map(bleu_stats, hypotheses, references))
    return stats[2 * n - 2], stats[2 * n - 1]


def corpus_bleu(hypotheses: Sequence[Sequence], references: Sequence[Sequence]) -> float:
    """Corpus BLEU-4 on a [0, 1] scale, one reference per hypothesis."""
    if len(hypotheses) != len(references):
        raise MetricsError("hypothesis/reference count mismatch")
    if not hypotheses:
        raise MetricsError("empty corpus")
    return bleu_from_stats(sum_bleu_stats(map(bleu_stats, hypotheses, references)))


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
    events = [Event._make(e) for e in baseline_trace.events]
    src_len = sum(1 for e in events if e.ev == READ and e.tok != EOS_SURFACE)
    eligible = 0
    step_decided = False
    for event in events:
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


# `SimtModel.step` as it was before it decided by the policy's rule: the
# adaptive policy compares its confidence in the position with its threshold
# on every call. Frozen as the reference that deciding by rule must equal.


def frozen_step(model: SimtModel, source_prefix: Sentence, written: int, source_done: bool = False) -> int:
    pos = written + 1
    if source_done and pos > len(source_prefix):
        return EOS
    if model.policy.kind == WAIT_K:
        if not source_done and len(source_prefix) < written + model.policy.k:
            return PHI
    elif not source_done:
        if pos > len(source_prefix):
            return PHI
        confidence = 1.0 if model.lexicon.settled(source_prefix, pos) else 0.5
        if confidence < adaptive_threshold(model.policy.latency_weight):
            return PHI
    return model.lexicon.translate(source_prefix, pos)


class FrozenStepModel:
    """A translator deciding by `frozen_step` over a model's lexicon and policy."""

    def __init__(self, model: SimtModel):
        self.vocabulary = model.vocabulary
        self._model = model

    def step(self, source_prefix: Sentence, written: int, source_done: bool = False) -> int:
        return frozen_step(self._model, source_prefix, written, source_done)


# The scripted predictors as they were before they built their guesses once
# per sentence: each call compares the context's length with the source and
# builds its `Prediction`. Frozen as the references that indexing prebuilt
# guesses must equal. The always-wrong one assumes distinct `source_ids`.


class FrozenOraclePredictor:
    def __init__(self, source: Sentence):
        self._source = tuple(source)

    def predict(self, context: Sequence[int]) -> Prediction:
        i = len(context)
        if i < len(self._source):
            return Prediction(self._source[i], 1.0)
        return Prediction(EOS, 1.0)


class FrozenAlwaysWrongPredictor:
    def __init__(self, source: Sentence, vocab, source_ids=None):
        ids = vocab.regular_ids if source_ids is None else sorted(source_ids)
        self._source = tuple(source)
        self._first, self._second = ids[0], ids[1]

    def predict(self, context: Sequence[int]) -> Prediction:
        i = len(context)
        true_next = self._source[i] if i < len(self._source) else EOS
        wrong = self._first if true_next != self._first else self._second
        return Prediction(wrong, 1.0)


def frozen_train_ngram(corpus, order):
    """`train_ngram`'s counts as it made them before it counted each order in
    one pass: every token of every BOS-padded stream, at every width."""
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    for sentence in corpus:
        stream = (BOS,) * (order - 1) + tuple(sentence) + (EOS,)
        for t in range(order - 1, len(stream)):
            token = stream[t]
            for width in range(order):
                ctx = stream[t - width : t]
                counts.setdefault(ctx, {}).setdefault(token, 0)
                counts[ctx][token] += 1
    return counts


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


class FullScanPredictor:
    """An n-gram model's predictions by `full_scan_predict`, as a predictor."""

    def __init__(self, model):
        self.vocabulary = model.vocabulary
        self._model = model

    def predict(self, context: Sequence[int]) -> Prediction:
        return Prediction(*full_scan_predict(self._model, context))


def independent_sweep(config: ExperimentConfig) -> tuple[str, str, dict[str, bytes]]:
    """A sweep with no run shared between grid points: every baseline and
    every (policy, tau, predictor, sentence) run from scratch and scored on
    its own, through the package's engine, `score_run` and `summarize`.
    Returns the runs.csv text, the summary.csv text and every trace file's
    bytes by its path under traces/. Assumes no run fails."""
    data = prepare_data(config)
    trained = build_predictors(config, data)
    stats = cache(lambda index, final: (s := bleu_stats(final, data.reference_lines[index].split()),
                                        bleu_from_stats(s)))
    rows: list[dict] = []
    traces: dict[str, bytes] = {}

    def record(directory: str, trace: EventTrace) -> None:
        row, _ = score_run(trace, stats)
        rows.append(row)
        traces[f"{directory}/{row['sentence_index']:05d}.jsonl"] = trace.serialize().encode("utf-8")

    for policy in config.policy_grid():
        model = SimtModel(lexicon=data.lexicon, policy=policy, vocabulary=data.vocabulary)
        header = {"policy": policy.kind, "param": policy.param, "corpus": data.corpus_id, "seed": config.seed}
        indexed = list(enumerate(data.test_sources, data.test_offset))
        for index, source in indexed:
            run = run_baseline(model, source, RunConfig(**header, sentence_index=index))
            record(f"{policy.kind}-{policy.param}-baseline", run.trace)
        for tau in config.tau_grid:
            for kind in config.predictors:
                for index, source in indexed:
                    if kind == "oracle":
                        predictor = OraclePredictor(source)
                    elif kind == "always_wrong":
                        predictor = AlwaysWrongPredictor(source, data.vocabulary, data.lexicon.default)
                    else:
                        predictor = trained[kind]
                    run_config = RunConfig(**header, tau=tau, predictor=kind, sentence_index=index)
                    run = run_speculative(model, predictor, source, EngineConfig(tau=tau), run_config)
                    record(f"{policy.kind}-{policy.param}-tau{tau}-{kind}", run.trace)

    def csv_text(columns: list[str], table: list[dict]) -> str:
        text = io.StringIO()
        writer = csv.writer(text)
        writer.writerow(columns)
        writer.writerows([row[column] for column in columns] for row in table)
        return text.getvalue()

    return csv_text(RUN_COLUMNS, rows), csv_text(SUMMARY_COLUMNS, summarize(rows)), traces


# The Markov sampler as it was before its rows came from one Dirichlet call
# and its uniforms from blocks: one `rng.dirichlet` per row, one `rng.random()`
# and one `np.searchsorted` per token. Frozen as the reference that the
# shipped sampler must reproduce bit for bit.


def _chain(spec: MarkovSourceSpec, entropy) -> tuple[np.ndarray, np.ndarray]:
    """Initial distribution over tokens and transition rows over tokens + end.

    The extra final column of each transition row is the probability of the
    sentence ending after that token, so sentence termination is part of the
    chain and as predictable as the tokens themselves.
    """
    rng = np.random.default_rng(entropy)
    count = spec.regular_count
    initial = rng.dirichlet(np.full(count, spec.transition_concentration))
    transitions = np.vstack(
        [rng.dirichlet(np.full(count + 1, spec.transition_concentration)) for _ in range(count)]
    )
    return initial, transitions


def _sample_sources(
    spec: MarkovSourceSpec,
    n_sentences: int,
    initial: np.ndarray,
    transitions: np.ndarray,
    entropy,
) -> tuple[Sentence, ...]:
    """Walk the chain until its end column fires, clamped to the length bounds."""
    rng = np.random.default_rng(entropy)
    count = spec.regular_count
    # inverse-CDF sampling: one uniform per step
    cum_initial = np.cumsum(initial)
    cum_rows = np.cumsum(transitions, axis=1)
    forced = np.argmax(transitions[:, :count], axis=1)
    sentences = []
    for _ in range(n_sentences):
        token = min(int(np.searchsorted(cum_initial, rng.random(), side="right")), count - 1)
        ids = [4 + token]
        while len(ids) < spec.max_length:
            nxt = min(int(np.searchsorted(cum_rows[token], rng.random(), side="right")), count)
            if nxt == count:  # end-of-sentence column
                if len(ids) >= spec.min_length:
                    break
                # too short to end: fall to the most likely token instead,
                # so the detour stays predictable from the context
                nxt = int(forced[token])
            token = nxt
            ids.append(4 + token)
        sentences.append(tuple(ids))
    return tuple(sentences)


def frozen_generate(spec: MarkovSourceSpec, n_sentences: int) -> GeneratedCorpus:
    """`markov.generate` over the frozen chain and sampler."""
    transition_ss, lexicon_ss, corpus_ss = np.random.SeedSequence(spec.seed).spawn(3)
    initial, transitions = _chain(spec, transition_ss)
    vocab, lexicon = _build_vocab_and_lexicon(spec, transitions, lexicon_ss)
    sources = _sample_sources(spec, n_sentences, initial, transitions, corpus_ss)
    references = tuple(map(lexicon.translate_sentence, sources))
    return GeneratedCorpus(vocabulary=vocab, lexicon=lexicon, sources=sources, references=references)


def frozen_generate_out_of_domain_sources(
    spec: MarkovSourceSpec, n_sentences: int, domain_seed: int
) -> tuple[Sentence, ...]:
    """`markov.generate_out_of_domain_sources` over the frozen chain and sampler."""
    transition_ss, _, corpus_ss = np.random.SeedSequence(domain_seed).spawn(3)
    initial, transitions = _chain(spec, transition_ss)
    return _sample_sources(spec, n_sentences, initial, transitions, corpus_ss)
