"""Property tests of the metrics: `bleu_stats` gives exactly the clipped
n-gram counts and totals that one slice per position gives
(`oracles.brute_force_sentence_counts`), on any token lists and on a
reference a few edits away from the hypothesis, or equal to it; and
`average_lagging` gives the float bits of the generator form frozen in
`oracles.frozen_average_lagging`, on any delays and source length."""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from specmt.metrics import average_lagging, bleu_stats  # noqa: E402
from oracles import brute_force_sentence_counts, frozen_average_lagging  # noqa: E402

# few distinct tokens, so n-grams repeat within and across the two sides
sentences = st.lists(st.sampled_from(["a", "b", "c", "</s>", ""]), max_size=12)


@settings(max_examples=400)
@given(sentences, sentences)
@example([], [])
@example([], ["a"])
@example(["a", "a", "a"], ["a"])
@example(["a", "b", "a", "b", "a"], ["a", "b", "a", "b"])
def test_sentence_stats_are_the_clipped_slice_counts(hyp, ref):
    expected = brute_force_sentence_counts(hyp, ref)
    assert bleu_stats(hyp, ref) == expected
    assert bleu_stats(tuple(hyp), ref) == expected
    assert all(type(value) is int for value in bleu_stats(hyp, ref))


@st.composite
def edited_pairs(draw):
    """`(hyp, ref)` with `ref` equal to `hyp` or `hyp` after one to three
    substitutions, insertions or deletions, each side a list or a tuple: the
    shape of a sweep's output against its reference."""
    hyp = draw(sentences)
    ref = list(hyp)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["substitute", "insert", "delete"] if ref else ["insert"]))
        at = draw(st.integers(0, len(ref) if edit == "insert" else len(ref) - 1))
        if edit == "delete":
            del ref[at]
        else:
            ref[at:at + (edit == "substitute")] = [draw(st.sampled_from(["a", "b", "c", "</s>", ""]))]
    return draw(st.sampled_from([list, tuple]))(hyp), draw(st.sampled_from([list, tuple]))(ref)


@settings(max_examples=400)
@given(edited_pairs())
@example((("a", "b", "a"), ["a", "b", "a"]))
@example((["a", "b", "a"], ("a", "b", "b")))
@example((["a", "b", "c", "a"], ["a", "b", "c", "a", "a"]))
def test_sentence_stats_of_an_edited_reference_are_the_clipped_slice_counts(pair):
    hyp, ref = pair
    assert bleu_stats(hyp, ref) == brute_force_sentence_counts(hyp, ref)


@settings(max_examples=400)
@given(st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=200), st.integers(1, 10 ** 6))
@example([3, 4, 5, 5, 5], 5)
@example([1] * 7, 3)
@example([10 ** 6] * 3, 7)
def test_average_lagging_keeps_the_frozen_bits(delays, source_length):
    expected = frozen_average_lagging(delays, source_length).hex()
    assert average_lagging(delays, source_length).hex() == expected
    assert average_lagging(tuple(delays), source_length).hex() == expected
