"""Property tests of `train_ngram` and `NgramModel.predict` against `oracles.py`.

`predict` computes the distribution over the support as one vector built
from its suffix's cached vector, and takes its first maximum; a context
never counted shares the prediction of its longest counted suffix. Each
case draws a small vocabulary and a training corpus (half of them built
from permutations of one word list, so that counts tie), an order of 1-4,
and an alpha and beta that include the extremes: beta near 0 or 1, and an
alpha so large that unigram probabilities of different counts round to the
same float. Every context is checked on a fresh model, in a drawn order:
the empty one (all BOS), every prefix of a training sentence, drawn ones,
which may be unseen or seen only in their last tokens, and every suffix of
each, so a suffix is asked before or after the contexts that end in it.
Token and probability must be identical to the full scan's, bit for bit.

The trainer is checked against the per-token loop it replaced, on corpora
with empty sentences, repeated tokens and UNK: the same counts, support
and saved bytes.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from specmt import Vocabulary, train_ngram  # noqa: E402
from specmt.ngram import NgramModel  # noqa: E402
from specmt.vocab import RESERVED_SURFACES, UNK  # noqa: E402
from oracles import frozen_train_ngram, full_scan_predict  # noqa: E402

BETAS = st.one_of(
    st.sampled_from([1e-12, 1e-6, 0.5, 1 - 1e-6, 1 - 2**-52]),
    st.floats(min_value=1e-9, max_value=1 - 1e-9),
)
ALPHAS = st.sampled_from([1e-9, 0.1, 1.0, 1e16, 1e18])


@st.composite
def cases(draw):
    n = draw(st.integers(2, 5))
    vocab = Vocabulary(RESERVED_SURFACES + tuple(f"t{k}" for k in range(n)))
    ids = list(vocab.regular_ids)
    if draw(st.booleans()):
        words = draw(st.lists(st.sampled_from(ids), min_size=1, max_size=n, unique=True))
        corpus = [tuple(draw(st.permutations(words))) for _ in range(draw(st.integers(1, 4)))]
    else:
        corpus = draw(st.lists(st.lists(st.sampled_from(ids), min_size=1, max_size=6).map(tuple),
                               min_size=1, max_size=5))
    order = draw(st.integers(1, 4))
    model = train_ngram(corpus, order, draw(ALPHAS), draw(BETAS), vocabulary=vocab)
    drawn = draw(st.lists(st.lists(st.sampled_from(ids), max_size=order + 1).map(tuple), max_size=6))
    contexts = [()] + [s[:t] for s in corpus for t in range(1, len(s) + 1)] + drawn
    suffixes = {context[n:] for context in contexts for n in range(len(context) + 1)}
    return model, draw(st.permutations(sorted(suffixes)))


@settings(max_examples=300)
@given(cases())
def test_predict_matches_full_scan(case):
    model, contexts = case
    for context in contexts:
        got = model.predict(context)
        want = full_scan_predict(model, context)
        assert (got.token, got.probability.hex()) == (want[0], want[1].hex()), context
        assert model._context(context) in model._cache
    # besides full contexts, the cache holds only the counted suffixes they predict as
    assert all(len(key) == model.order - 1 or key in model.counts for key in model._cache)


@st.composite
def corpora(draw):
    n = draw(st.integers(1, 4))
    vocab = Vocabulary(RESERVED_SURFACES + tuple(f"t{k}" for k in range(n)))
    tokens = st.sampled_from([UNK, *vocab.regular_ids])
    corpus = draw(st.lists(st.lists(tokens, max_size=8).map(tuple), min_size=1, max_size=6))
    return corpus, draw(st.integers(1, 4)), vocab


@settings(max_examples=200)
@given(corpora())
def test_train_matches_the_per_token_loop(case):
    corpus, order, vocab = case
    model = train_ngram(corpus, order, vocabulary=vocab)
    frozen = NgramModel(order=order, alpha=0.1, beta=0.9, counts=frozen_train_ngram(corpus, order), vocabulary=vocab)
    assert model.counts == frozen.counts
    assert model.support == frozen.support
    with tempfile.TemporaryDirectory() as tmp:
        model.save(Path(tmp) / "model.json")
        frozen.save(Path(tmp) / "frozen.json")
        assert (Path(tmp) / "model.json").read_bytes() == (Path(tmp) / "frozen.json").read_bytes()
