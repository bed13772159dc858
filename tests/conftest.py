from __future__ import annotations

import pytest

from specmt import Lexicon, MarkovSourceSpec, PolicyConfig, SimtModel, Vocabulary, generate

try:
    from hypothesis import settings
except ImportError:  # the property test modules skip themselves without hypothesis
    pass
else:
    # every property test draws the same examples on every run, with no time
    # limit per example; each test sets only its own max_examples
    settings.register_profile("tier1", deadline=None, derandomize=True)
    settings.load_profile("tier1")


@pytest.fixture
def toy():
    """Tiny hand-built world: a->A, b->B1 before c else B2, c->C, d->D."""
    vocab = Vocabulary(
        ("<s>", "</s>", "<phi>", "<unk>", "a", "b", "c", "d", "A", "B1", "B2", "C", "D")
    )
    ids = {s: vocab.lookup(s) for s in ("a", "b", "c", "d", "A", "B1", "B2", "C", "D")}
    lexicon = Lexicon(
        default={ids["a"]: ids["A"], ids["b"]: ids["B2"], ids["c"]: ids["C"], ids["d"]: ids["D"]},
        conditional={(ids["b"], ids["c"]): ids["B1"]},
    )
    return vocab, lexicon, ids


def make_model(vocab, lexicon, policy=None) -> SimtModel:
    return SimtModel(lexicon=lexicon, policy=policy or PolicyConfig.wait_k(1), vocabulary=vocab)


@pytest.fixture(scope="session")
def markov_corpus():
    """A moderately predictable generated corpus shared across tests."""
    spec = MarkovSourceSpec(
        vocab_size=20, transition_concentration=0.1, ambiguity_rate=0.25,
        min_length=5, max_length=12, seed=11,
    )
    return generate(spec, 250)
