"""Exhaustive checks on a tiny world, where the input space can be covered whole.

The world has two source tokens, `a` and `b`, and one conditional rule: `a`
before `b` translates as `A2`, else as `A`. The policies are wait-k 1-3 and
adaptive policies on both sides of the threshold that admits an unsettled
position. Every prefix of up to 5 tokens is decided by `step` as the frozen
confidence-based step decides it. Every source of up to 2 tokens runs under
every sequence of guesses over {a, b, `</s>`} and every sequence of
probabilities 0 or 1 at tau 0.5, which covers the gate, and every source of
3 or 4 tokens under every sequence of guesses at probability 1. Each run gives
the baseline's output and the trace events of every policy of equal `rule`,
and each trace, baselines included, replays as the oracles in `oracles.py`
define it: the frozen replay's matrix, brute-force delays and predicted
count, and AL in exact rationals. Wait-k 3 runs as baseline wait-k 2 where
`test_engine_properties` says it must.
"""

from __future__ import annotations

from functools import cache
from itertools import product

import pytest

from specmt import (
    EngineConfig, Event, Lexicon, PolicyConfig, SimtModel, Vocabulary, average_lagging, run_baseline, run_speculative,
)
from specmt.trace import PREDICT, SPECULATE, WITHDRAW, EventTrace, replay
from specmt.vocab import EOS
from oracles import brute_force_al, brute_force_delays, brute_force_predicted, frozen_step, snapshot_from_trace

VOCAB = Vocabulary(("<s>", "</s>", "<phi>", "<unk>", "a", "b", "A", "A2", "B"))
A, B = VOCAB.lookup("a"), VOCAB.lookup("b")
LEXICON = Lexicon(
    default={A: VOCAB.lookup("A"), B: VOCAB.lookup("B")},
    conditional={(A, B): VOCAB.lookup("A2")},
)
POLICIES = [PolicyConfig.wait_k(k) for k in (1, 2, 3)]
POLICIES += [PolicyConfig.adaptive(weight) for weight in (0.02, 0.05, 0.1, 0.2, 0.5, 1.0)]
MODELS = [SimtModel(lexicon=LEXICON, policy=policy, vocabulary=VOCAB) for policy in POLICIES]
MAX_LENGTH = 4  # every source up to this many tokens
GATED_LENGTH = 2  # with the gate's probabilities up to this many


class Guesses:
    """A predictor that guesses `guesses[n]` after an n-token prefix, with
    probability `probabilities[n]`."""

    def __init__(self, guesses: tuple[int, ...], probabilities: tuple[float, ...]) -> None:
        self.guesses = guesses
        self.probabilities = probabilities

    def predict(self, prefix):
        return self.guesses[len(prefix)], self.probabilities[len(prefix)]


def runs(source: tuple[int, ...]):
    """(predictor, tau) of every speculative run over `source`: one guess and
    one probability per read, probabilities 0 or 1 at tau 0.5 up to
    GATED_LENGTH tokens, probability 1 at tau 0 above it."""
    reads = len(source) + 1
    guesses = list(product((A, B, EOS), repeat=reads))
    if len(source) > GATED_LENGTH:
        return [(Guesses(g, (1.0,) * reads), 0.0) for g in guesses]
    return [(Guesses(g, p), 0.5) for g in guesses for p in product((0.0, 1.0), repeat=reads)]


def check_replay(trace: EventTrace, source: tuple[int, ...]) -> None:
    rows = snapshot_from_trace(trace)
    replayed = replay(trace)
    assert replayed.final == rows[-1]
    assert replayed.delays == delays_of(rows)
    assert replayed.source_length == len(rows) == len(source)
    assert replayed.counts == trace.kind_counts()
    assert replayed.predicted == brute_force_predicted(trace)
    exact = exact_al(replayed.delays, len(rows))
    assert average_lagging(replayed.delays, len(rows)) == pytest.approx(exact, abs=1e-12)


def speculated(trace: EventTrace) -> list[bool]:
    """Whether each PREDICT of `trace` is followed by a SPECULATE."""
    events = [Event._make(e) for e in trace.events]
    return [events[n + 1].ev == SPECULATE for n, event in enumerate(events) if event.ev == PREDICT]


# few matrices and delay vectors recur across many traces, so their oracles run once each
delays_of = cache(brute_force_delays)
exact_al = cache(lambda delays, source_length: float(brute_force_al(delays, source_length)))


def test_adaptive_policies_take_one_of_two_rules():
    assert [policy.rule for policy in POLICIES] == [
        ("wait_k", 1), ("wait_k", 2), ("wait_k", 3),
        ("wait_k", 1), ("wait_k", 1), ("wait_k", 1),
        ("settled", None), ("settled", None), ("settled", None),
    ]


def test_step_equals_the_frozen_step():
    checked = 0
    for model in MODELS:
        for length in range(6):
            for prefix in product((A, B), repeat=length):
                for written, done in product(range(6), (False, True)):
                    assert model.step(prefix, written, done) == frozen_step(model, prefix, written, done), (
                        model.policy, prefix, written, done)
                    checked += 1
    assert checked == len(MODELS) * 63 * 12


def test_equal_rules_run_alike_and_speculation_keeps_the_output():
    """Every run gives the baseline's output and its rule's events; each
    rule's trace replays as the oracles define it and speculates where the
    gate lets it, and wait-k 3 lags as baseline wait-k 2 where it must."""
    wait_2 = POLICIES.index(PolicyConfig.wait_k(2))
    total = checked = 0
    for length in range(1, MAX_LENGTH + 1):
        for source in product((A, B), repeat=length):
            baselines = [run_baseline(model, source) for model in MODELS]
            base_events: dict[tuple, tuple] = {}
            for model, base in zip(MODELS, baselines):
                if base_events.setdefault(model.policy.rule, base.trace.events) is base.trace.events:
                    check_replay(base.trace, source)
                assert base.trace.events == base_events[model.policy.rule]
            wait_2_delays = replay(baselines[wait_2].trace).delays
            for predictor, tau in runs(source):
                events: dict[tuple, tuple] = {}
                for model, base in zip(MODELS, baselines):
                    run = run_speculative(model, predictor, source, EngineConfig(tau=tau))
                    assert run.final_output == base.final_output, (model.policy, source, predictor.guesses)
                    total += 1
                    if events.setdefault(model.policy.rule, run.trace.events) is not run.trace.events:
                        # equal events replay alike, so each rule's trace is checked once
                        assert run.trace.events == events[model.policy.rule], (model.policy, source, predictor.guesses)
                        continue
                    check_replay(run.trace, source)
                    assert speculated(run.trace) == [p >= tau for p in predictor.probabilities], (
                        source, predictor.guesses, predictor.probabilities)
                    checked += 1
                    # the condition of test_engine_properties' wait-k property: every guess
                    # speculated, no end of sentence guessed before the real one
                    if model.policy.rule == ("wait_k", 3) and min(predictor.probabilities) == 1.0 and (
                        EOS not in predictor.guesses[:length]
                    ):
                        assert replay(run.trace).delays == wait_2_delays, (source, predictor.guesses)
                        if length >= 2:
                            assert all(e.old == e.new for e in map(Event._make, run.trace.events) if e.ev == WITHDRAW)
    per_source = sum(2**n * len(runs((A,) * n)) for n in range(1, MAX_LENGTH + 1))
    assert total == len(MODELS) * per_source
    assert checked == len({policy.rule for policy in POLICIES}) * per_source
