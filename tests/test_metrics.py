from __future__ import annotations

import numpy as np
import pytest

from specmt import (
    AlwaysWrongPredictor,
    Event,
    EventTrace,
    MetricsError,
    PolicyConfig,
    average_lagging,
    awr,
    replay,
    run_speculative,
)
from specmt.metrics import bleu_from_stats, bleu_stats, sum_bleu_stats
from conftest import make_model
from oracles import (
    brute_force_bleu, brute_force_sentence_counts, corpus_bleu, modified_precision, paired_bootstrap_pvalue,
)


def trace_of_rows(*rows):
    """A trace of plain writes whose snapshot matrix is `rows`; each row must
    extend the one before it."""
    events = []
    for i, row in enumerate(rows, 1):
        events.append(Event("READ", i=i, tok=f"s{i}"))
        done = len(rows[i - 2]) if i > 1 else 0
        events += (Event("WRITE", j=j, tok=tok, i=i) for j, tok in enumerate(row[done:], done + 1))
    return EventTrace(events=(*events, Event("END")))


class TestDelays:
    def test_monotone_growth(self):
        assert replay(trace_of_rows(("A",), ("A", "B"))).delays == (1, 2)

    def test_revision_delays_finalization(self):
        # rows (A), (B C), (B C D): A is speculated in row 1 and withdrawn in row 2
        trace = EventTrace(events=(
            Event("READ", i=1, tok="a"), Event("SPECULATE", j=1, tok="A", i=1),
            Event("READ", i=2, tok="b"), Event("WITHDRAW", j=1, old="A", new="B"),
            Event("WRITE", j=2, tok="C", i=2),
            Event("READ", i=3, tok="c"), Event("WRITE", j=3, tok="D", i=3), Event("END"),
        ))
        assert replay(trace).delays == (2, 2, 3)

    def test_speculative_early_write(self):
        # rows (A B), (A B): B is speculated before the second read and committed
        trace = EventTrace(events=(
            Event("READ", i=1, tok="a"), Event("WRITE", j=1, tok="A", i=1),
            Event("SPECULATE", j=2, tok="B", i=1), Event("READ", i=2, tok="b"),
            Event("COMMIT", j=2), Event("END"),
        ))
        assert replay(trace).delays == (1, 1)

    def test_revision_free_closed_form(self):
        # with no revisions, delay = (#rows shorter than the position) + 1
        rng = np.random.default_rng(9)
        for _ in range(50):
            final = tuple(f"t{k}" for k in range(rng.integers(1, 10)))
            lengths = sorted(int(rng.integers(0, len(final) + 1)) for _ in range(rng.integers(1, 8)))
            rows = tuple(final[:n] for n in lengths) + (final,)
            delays = replay(trace_of_rows(*rows)).delays
            for j in range(1, len(final) + 1):
                shorter = sum(1 for row in rows if len(row) < j)
                assert delays[j - 1] == shorter + 1


class TestAverageLagging:
    def test_ideal_diagonal(self):
        assert average_lagging((1, 2, 3), 3) == pytest.approx(1.0)

    def test_wait3_example(self):
        assert average_lagging((3, 4, 5, 5, 5), 5) == pytest.approx(2.4)

    def test_short_source(self):
        assert average_lagging((2, 2), 2) == pytest.approx(1.5)

    def test_empty_output_rejected(self):
        with pytest.raises(MetricsError, match="empty output"):
            average_lagging((), 3)


class TestWithdrawalRate:
    def test_zero(self):
        assert awr(0, 10) == 0.0

    def test_plain_ratio(self):
        assert awr(3, 10) == pytest.approx(0.3)

    def test_can_exceed_one(self):
        assert awr(12, 10) == pytest.approx(1.2)

    def test_engine_run_can_exceed_one(self, toy):
        # every speculation misses, including the end-of-sequence one, so
        # withdrawals outnumber output tokens
        vocab, lexicon, ids = toy
        source = tuple([ids["a"]] * 6)
        model = make_model(vocab, lexicon, PolicyConfig.wait_k(1))
        result = run_speculative(model, AlwaysWrongPredictor(source, vocab), source)
        rate = awr(result.withdrawals, len(result.final_output))
        assert result.withdrawals == 7
        assert rate == pytest.approx(7 / 6)

    def test_empty_output_rejected(self):
        with pytest.raises(MetricsError):
            awr(1, 0)


class TestBleu:
    def test_identity_corpus(self):
        refs = [tuple("abcde"), tuple("xyzzy")]
        assert corpus_bleu(refs, refs) == pytest.approx(1.0)

    def test_unigram_clipping(self):
        hyp = [tuple("the the the the the the the".split())]
        ref = [tuple("the cat is on the mat".split())]
        matched, total = modified_precision(hyp, ref, 1)
        assert (matched, total) == (2, 7)
        assert corpus_bleu(hyp, ref) == 0.0  # no bigram matches at all

    def test_single_token_pair_scores_zero(self):
        assert corpus_bleu([("hi",)], [("hi",)]) == 0.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        hyps = [tuple(str(t) for t in rng.integers(0, 5, size=rng.integers(4, 10))) for _ in range(20)]
        refs = [tuple(str(t) for t in rng.integers(0, 5, size=rng.integers(4, 10))) for _ in range(20)]
        score = corpus_bleu(hyps, refs)
        order = rng.permutation(20)
        assert corpus_bleu([hyps[i] for i in order], [refs[i] for i in order]) == pytest.approx(score)

    def test_duplication_invariance(self):
        rng = np.random.default_rng(4)
        hyps = [tuple(str(t) for t in rng.integers(0, 4, size=8)) for _ in range(10)]
        refs = [tuple(str(t) for t in rng.integers(0, 4, size=8)) for _ in range(10)]
        assert corpus_bleu(hyps * 2, refs * 2) == pytest.approx(corpus_bleu(hyps, refs))

    def test_brevity_penalty_direction(self):
        ref = [tuple("a b c d e f".split())]
        short = [tuple("a b c d".split())]
        longer = [tuple("a b c d e f g".split())]
        assert corpus_bleu(short, ref) < corpus_bleu(ref, ref)
        assert corpus_bleu(longer, ref) < 1.0  # precision loss only, no length bonus

    def test_matches_brute_force_on_random_corpora(self):
        rng = np.random.default_rng(77)
        for _ in range(150):
            size = int(rng.integers(1, 8))
            hyps, refs = [], []
            for _ in range(size):
                n = int(rng.integers(1, 12))
                hyps.append(tuple(str(t) for t in rng.integers(0, 6, size=n)))
                m = int(rng.integers(1, 12))
                # bias toward overlap so scores are often nonzero
                if rng.random() < 0.5 and n >= 4:
                    refs.append(hyps[-1][:m] if m <= n else hyps[-1])
                else:
                    refs.append(tuple(str(t) for t in rng.integers(0, 6, size=m)))
            assert corpus_bleu(hyps, refs) == pytest.approx(brute_force_bleu(hyps, refs), abs=1e-9)

    def test_summed_sentence_stats_equal_corpus_bleu(self):
        # corpus BLEU is a function of the summed per-sentence statistics,
        # whatever the split into parts; empty hypotheses count too
        rng = np.random.default_rng(78)
        for _ in range(150):
            size = int(rng.integers(2, 10))
            hyps = [tuple(str(t) for t in rng.integers(0, 4, size=rng.integers(0, 10))) for _ in range(size)]
            refs = [tuple(str(t) for t in rng.integers(0, 4, size=rng.integers(1, 10))) for _ in range(size)]
            cut = int(rng.integers(1, size))
            parts = [
                sum_bleu_stats(map(bleu_stats, hyps[:cut], refs[:cut])),
                sum_bleu_stats(map(bleu_stats, hyps[cut:], refs[cut:])),
            ]
            assert bleu_from_stats(sum_bleu_stats(parts)) == corpus_bleu(hyps, refs)
            assert corpus_bleu(hyps, refs) == pytest.approx(brute_force_bleu(hyps, refs), abs=1e-9)

    def test_sentence_stats_layout(self):
        hyp = tuple("the the cat sat".split())
        ref = tuple("the cat sat on the mat".split())
        # (matches, totals) for n = 1..4, then hypothesis and reference lengths
        assert bleu_stats(hyp, ref) == (4, 4, 2, 3, 1, 2, 0, 1, 4, 6)
        assert bleu_stats((), ref) == (0, 0, 0, 0, 0, 0, 0, 0, 0, 6)
        assert bleu_from_stats(bleu_stats((), ref)) == 0.0

    @pytest.mark.parametrize("hyp, ref", [
        ((), ()), ((), ("a",)), (("a",), ()), (("a",), ("a",)), (("a", "b"), ("b", "a")),
        (("a", "b", "c"), ("a", "b", "c")), (("a",) * 7, ("a",) * 3), (("a", "b") * 4, ("b", "a") * 3),
        (list("abcabcab"), tuple("cabcabca")), (tuple("the the cat sat".split()), "the cat sat on the mat".split()),
    ])
    def test_sentence_stats_are_the_clipped_slice_counts(self, hyp, ref):
        # integer counts, exactly, whatever the length (empty, shorter than 4)
        # and however often a token or an n-gram repeats; lists and tuples alike
        assert bleu_stats(hyp, ref) == brute_force_sentence_counts(hyp, ref)
        assert bleu_stats(hyp, hyp) == brute_force_sentence_counts(hyp, hyp)

    def test_length_mismatch_rejected(self):
        with pytest.raises(MetricsError):
            corpus_bleu([("a",)], [])


class TestPairedBootstrap:
    def test_separated_samples(self):
        rng = np.random.default_rng(0)
        treatment = rng.normal(1.0, 0.2, size=300)
        control = rng.normal(0.2, 0.2, size=300)
        assert paired_bootstrap_pvalue(treatment, control, seed=1) < 0.001

    def test_no_effect(self):
        rng = np.random.default_rng(0)
        same = rng.normal(0.0, 1.0, size=300)
        p = paired_bootstrap_pvalue(same, same, seed=1)
        assert p == 1.0  # all resampled deltas are exactly zero

    def test_requires_pairs(self):
        with pytest.raises(MetricsError):
            paired_bootstrap_pvalue([1.0], [1.0, 2.0])
