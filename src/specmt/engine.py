"""Speculative translation engine with withdrawal, plus the non-speculative baseline.

The speculative loop guesses each upcoming source token, decodes one decision
against the guess before the token arrives, and resolves it on arrival: a
correct guess commits the precomputed decision (the translator call for that
step is skipped), a wrong one withdraws it and recomputes from the real
prefix. Because the translator is deterministic, a committed speculative
decision is bit-identical to what the baseline would have produced, so the
final output never changes; only the timing of when tokens become visible
does.

Speculation depth is one source token: each read step speculates at most its
first decision. After the end-of-sequence arrives the remaining output is
decoded autoregressively with no speculation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import SimtModel
from .trace import (
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
    SnapshotMatrix,
    snapshot_from_trace,
)
from .vocab import BOS, EOS, PHI, Sentence


class EngineError(RuntimeError):
    pass


@dataclass(frozen=True)
class EngineConfig:
    """Speculation controls.

    `tau` gates speculation on the predictor's probability: a step is only
    speculated when probability >= tau, so tau=0 speculates always and tau=1
    only on fully confident predictions.
    """

    tau: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.tau <= 1.0:
            raise EngineError("tau must be in [0, 1]")


@dataclass(frozen=True)
class RunResult:
    """Outcome of one engine run over one sentence."""

    final_output: Sentence
    trace: EventTrace
    snapshots: SnapshotMatrix
    withdrawals: int
    speculations: int
    hits: int

    def __post_init__(self) -> None:
        if self.withdrawals != self.trace.withdraw_count():
            raise EngineError("withdrawal count disagrees with trace")
        if self.speculations != self.hits + self.withdrawals:
            raise EngineError("speculation accounting broken")


def _runaway_limit(source: Sentence) -> int:
    """Output length past which either loop stops a translator that never
    emits end-of-sequence; the translator is duck-typed, so this is checked."""
    return 2 * len(source) + 8


def _check_source(source: Sentence) -> None:
    if not source:
        raise EngineError("empty source")
    for tok in source:
        if tok in (BOS, EOS, PHI):
            raise EngineError("reserved marker in source sentence")


def run_baseline(
    model: SimtModel,
    source: Sentence,
    run_config: RunConfig | None = None,
) -> RunResult:
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
            decision = model.step(prefix, tuple(out), done)
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
    return RunResult(
        final_output=tuple(out),
        trace=trace,
        snapshots=snapshot_from_trace(trace),
        withdrawals=0,
        speculations=0,
        hits=0,
    )


def run_speculative(
    model: SimtModel,
    predictor,
    source: Sentence,
    config: EngineConfig | None = None,
    run_config: RunConfig | None = None,
) -> RunResult:
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
        decision = model.step(hypothesis, tuple(out), hypothesis_done)
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
                decision = model.step(prefix, tuple(out), done)
                events.append(
                    Event(WITHDRAW, j=pending_slot, old=surf(pending_decision), new=surf(decision))
                )
            if decision not in (PHI, EOS):
                out.append(decision)

        while decision not in (PHI, EOS):
            if decision is not None and len(out) > limit:
                raise EngineError("runaway decode")
            decision = model.step(prefix, tuple(out), done)
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
    return RunResult(
        final_output=tuple(out),
        trace=trace,
        snapshots=snapshot_from_trace(trace),
        withdrawals=withdrawals,
        speculations=speculations,
        hits=hits,
    )

