"""Exhaustive checks on a tiny world, where the input space can be covered whole.

The world has two source tokens, `a` and `b`, and one conditional rule: `a`
before `b` translates as `A2`, else as `A`. The policies are wait-k 1-3 and
adaptive policies on both sides of the threshold that admits an unsettled
position. Every prefix of up to 5 tokens is decided by `step` as the frozen
confidence-based step decides it, and every source of up to 4 tokens, under
every sequence of guesses over {a, b, `</s>`}, runs to the same trace events
under policies of equal `rule`, with the baseline's output.
"""

from __future__ import annotations

from itertools import product

from specmt import Lexicon, PolicyConfig, SimtModel, Vocabulary, run_baseline, run_speculative
from specmt.vocab import EOS
from oracles import frozen_step

VOCAB = Vocabulary(("<s>", "</s>", "<phi>", "<unk>", "a", "b", "A", "A2", "B"))
A, B = VOCAB.lookup("a"), VOCAB.lookup("b")
LEXICON = Lexicon(
    default={A: VOCAB.lookup("A"), B: VOCAB.lookup("B")},
    conditional={(A, B): VOCAB.lookup("A2")},
)
POLICIES = [PolicyConfig.wait_k(k) for k in (1, 2, 3)]
POLICIES += [PolicyConfig.adaptive(weight) for weight in (0.02, 0.05, 0.1, 0.2, 0.5, 1.0)]
MODELS = [SimtModel(lexicon=LEXICON, policy=policy, vocabulary=VOCAB) for policy in POLICIES]


class Guesses:
    """A predictor that guesses `guesses[n]` after an n-token prefix, with probability 1."""

    def __init__(self, guesses: tuple[int, ...]) -> None:
        self.guesses = guesses

    def predict(self, prefix):
        return self.guesses[len(prefix)], 1.0


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
    runs = 0
    for length in range(1, 5):
        for source in product((A, B), repeat=length):
            baselines = [run_baseline(model, source) for model in MODELS]
            base_events: dict[tuple, tuple] = {}
            for model, base in zip(MODELS, baselines):
                assert base.trace.events == base_events.setdefault(model.policy.rule, base.trace.events)
            for guesses in product((A, B, EOS), repeat=length + 1):  # one guess per read
                predictor = Guesses(guesses)
                events: dict[tuple, tuple] = {}
                for model, base in zip(MODELS, baselines):
                    run = run_speculative(model, predictor, source)
                    assert run.final_output == base.final_output, (model.policy, source, guesses)
                    assert run.trace.events == events.setdefault(model.policy.rule, run.trace.events), (
                        model.policy, source, guesses)
                    runs += 1
    assert runs == len(MODELS) * (2 * 3**2 + 4 * 3**3 + 8 * 3**4 + 16 * 3**5)
