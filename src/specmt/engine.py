"""Speculative translation engine with withdrawal; the baseline is the same loop without a predictor.

The speculative loop guesses each upcoming source token, decodes one decision
against the guess before the token arrives, and resolves it on arrival: a
correct guess commits the precomputed decision (the translator call for that
step is skipped), a wrong one withdraws it and recomputes from the real
prefix. Because the translator is deterministic, a committed speculative
decision is bit-identical to what the baseline would have produced, so the
final output never changes; only the timing of when tokens become visible
does. Without a predictor the loop never speculates, and that is the
standard incremental baseline.

Speculation depth is one source token: each read step speculates at most its
first decision. After the end-of-sequence arrives the remaining output is
decoded autoregressively with no speculation.

Tau only gates: `probability < tau` skips a speculation, and every token is
predicted whatever tau is, so taus that gate its PREDICTs alike give one run.

A run's result is its final output and its trace, the only record of what
happened: the speculation, hit and withdrawal counts are read from it, and
the delays come from its `replay`, which scoring does, not the engine.

The loop costs little beyond its translator and predictor calls: it has no
closure, so all it touches is local, `step` and `predict` included, bound
once per run; each event is a plain tuple in `Event` field order, surfaces
are read from the vocabulary's token tuple, and the source read so far is
one list per run, which no read copies: a speculation appends its guess, and
the read then keeps it on a hit, overwrites it on a miss (drops it at the
end of source), or appends the real token. Every `step` and `predict` call
is given that buffer, valid only for the call: what keeps it copies it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .model import SimtModel
from .trace import COMMIT, END, PREDICT, READ, SPECULATE, WITHDRAW, WRITE, EventTrace, RunConfig
from .vocab import BOS, EOS, PHI, Sentence, SpecmtError


class EngineError(SpecmtError, RuntimeError):
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

    @cached_property
    def _counts(self) -> Counter[str]:
        return self.trace.kind_counts()

    @property
    def speculations(self) -> int:
        return self._counts[SPECULATE]

    @property
    def hits(self) -> int:
        return self._counts[COMMIT]

    @property
    def withdrawals(self) -> int:
        return self._counts[WITHDRAW]


def run_baseline(
    model: SimtModel,
    source: Sequence[int],
    run_config: RunConfig | None = None,
) -> RunResult:
    """Standard incremental loop: read, then write until the policy asks to read."""
    return _run(model, None, source, 0.0, run_config)


def run_speculative(
    model: SimtModel,
    predictor,
    source: Sequence[int],
    config: EngineConfig | None = None,
    run_config: RunConfig | None = None,
) -> RunResult:
    """Speculate-resolve loop; final output is token-identical to the baseline."""
    pred_vocab = getattr(predictor, "vocabulary", None)
    if pred_vocab is not None and pred_vocab.tokens != model.vocabulary.tokens:
        raise EngineError("predictor/vocabulary mismatch")
    return _run(model, predictor, source, (config or EngineConfig()).tau, run_config)


def _run(model: SimtModel, predictor, source: Sequence[int], tau: float, run_config: RunConfig | None) -> RunResult:
    """The read/write loop, speculating only when there is a predictor.

    Each read step: predict the coming token from the prefix read so far and
    speculate one decision on it when the prediction clears the gate, read
    the token, resolve the speculation against it (commit on a hit, withdraw
    and recompute on a miss), then keep decoding with the real prefix until
    the policy asks to read. The end-of-source read either finishes the
    translation or raises, so the loop always ends in a break.
    """
    if not source:
        raise EngineError("empty source")
    if BOS in source or EOS in source or PHI in source:
        raise EngineError("reserved marker in source sentence")
    src_len = len(source)
    # the translator is duck-typed, so one that never emits EOS is stopped here
    limit = 2 * src_len + 8
    surfaces = model.vocabulary.tokens
    step = model.step
    predict = predictor.predict if predictor is not None else None

    out: list[int] = []
    events: list[tuple] = []  # each in `Event` field order
    emit = events.append
    slot = 0

    # the one source buffer: source[:i - 1] before read i, source[:i] after it
    prefix: list[int] = []
    for i in range(1, src_len + 2):
        speculated: int | None = None  # the decision speculated on the guess `token`
        if predict is not None:
            token, probability = predict(prefix)
            emit((PREDICT, i, None, None, surfaces[token], probability, None, None))
            if not probability < tau:
                guess_done = token == EOS
                if not guess_done:
                    prefix.append(token)
                speculated = step(prefix, len(out), guess_done)
                slot += 1
                emit((SPECULATE, i - 1, slot, surfaces[speculated], None, None, None, None))
        tok = source[i - 1] if i <= src_len else EOS
        emit((READ, i, None, surfaces[tok], None, None, None, None))
        done = tok == EOS

        decision: int | None = None
        if speculated is None:
            if not done:
                prefix.append(tok)
        else:  # resolved against the token read, at the speculation's slot
            if token == tok:  # the buffer holds source[:i] already
                emit((COMMIT, None, slot, None, None, None, None, None))
                decision = speculated
            else:  # the real token goes in after a guessed end or over a guessed token; the real end drops it
                if guess_done:
                    prefix.append(tok)
                elif done:
                    prefix.pop()
                else:
                    prefix[-1] = tok
                decision = step(prefix, len(out), done)
                emit((WITHDRAW, None, slot, None, None, None, surfaces[speculated], surfaces[decision]))
            if decision not in (PHI, EOS):
                out.append(decision)

        while decision not in (PHI, EOS):
            if len(out) > limit:
                raise EngineError("runaway decode")
            decision = step(prefix, len(out), done)
            slot += 1
            emit((WRITE, i, slot, surfaces[decision], None, None, None, None))
            if decision not in (PHI, EOS):
                out.append(decision)

        if decision == EOS:
            break
        if done:
            raise EngineError("policy requested a read past the end of source")
    emit((END, None, None, None, None, None, None, None))

    return RunResult(tuple(out), EventTrace(events=tuple(events), run_config=run_config or RunConfig()))
