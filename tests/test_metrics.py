from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specmt import (
    AlwaysWrongPredictor,
    DelayVector,
    MetricsError,
    PolicyConfig,
    SnapshotMatrix,
    average_lagging,
    awr,
    corpus_bleu,
    delay_vector,
    modified_precision,
    run_speculative,
)
from specmt.metrics import bleu_from_stats, bleu_stats, sum_bleu_stats
from conftest import make_model
from oracles import brute_force_bleu, brute_force_delays, paired_bootstrap_pvalue, random_snapshot_rows


def dv(*delays, src_len):
    return DelayVector(delays=tuple(delays), source_length=src_len)


class TestDelayVector:
    def test_monotone_growth(self):
        snaps = SnapshotMatrix(rows=(("A",), ("A", "B")))
        assert delay_vector(snaps).delays == (1, 2)

    def test_revision_delays_finalization(self):
        snaps = SnapshotMatrix(rows=(("A",), ("B", "C"), ("B", "C", "D")))
        assert delay_vector(snaps).delays == (2, 2, 3)

    def test_speculative_early_write(self):
        snaps = SnapshotMatrix(rows=(("A", "B"), ("A", "B")))
        assert delay_vector(snaps).delays == (1, 1)

    def test_agrees_with_brute_force_on_random_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(300):
            rows = random_snapshot_rows(rng, max_rows=12, max_cols=12)
            assert delay_vector(SnapshotMatrix(rows=rows)).delays == brute_force_delays(rows)

    def test_revision_free_closed_form(self):
        # with no revisions, delay = (#rows shorter than the position) + 1
        rng = np.random.default_rng(9)
        for _ in range(50):
            final = tuple(f"t{k}" for k in range(rng.integers(1, 10)))
            lengths = sorted(int(rng.integers(0, len(final) + 1)) for _ in range(rng.integers(1, 8)))
            rows = tuple(final[:n] for n in lengths) + (final,)
            delays = delay_vector(SnapshotMatrix(rows=rows)).delays
            for j in range(1, len(final) + 1):
                shorter = sum(1 for row in rows if len(row) < j)
                assert delays[j - 1] == shorter + 1

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_agrees_with_brute_force_on_drawn_matrices(self, data):
        tokens = st.sampled_from(("a", "b", "c"))  # three surfaces repeat within and across rows
        final = tuple(data.draw(st.lists(tokens, max_size=8), label="final"))
        rows = []
        for _ in range(data.draw(st.integers(0, 6), label="earlier rows")):  # 0: a single-row matrix
            head = final[: data.draw(st.integers(0, len(final)))]
            tail = tuple(data.draw(st.lists(tokens, max_size=3)))
            shape = data.draw(st.sampled_from(("prefix", "diverge", "longer", "any")))
            if shape == "prefix":  # empty rows, proper prefixes and copies of final
                rows.append(head)
            elif shape == "diverge":  # matches final, then differs from it
                cut = len(head)
                wrong = data.draw(tokens.filter(lambda t: cut == len(final) or t != final[cut]))
                rows.append(head + (wrong,) + tail)
            elif shape == "longer":  # agrees with all of final, then goes on
                rows.append(final + (data.draw(tokens),) + tail)
            else:
                rows.append(tuple(data.draw(st.lists(tokens, max_size=10))))
        rows = (*rows, final)
        assert delay_vector(SnapshotMatrix(rows=rows)).delays == brute_force_delays(rows)

    def test_bounds_validation(self):
        for delays in ((3,), (1, -1, 2)):
            with pytest.raises(MetricsError, match=re.escape("delays must lie in [0, source_length]")):
                DelayVector(delays=delays, source_length=2)
        assert DelayVector(delays=(), source_length=2).target_length == 0


class TestAverageLagging:
    def test_ideal_diagonal(self):
        assert average_lagging(dv(1, 2, 3, src_len=3)) == pytest.approx(1.0)

    def test_wait3_example(self):
        assert average_lagging(dv(3, 4, 5, 5, 5, src_len=5)) == pytest.approx(2.4)

    def test_short_source(self):
        assert average_lagging(dv(2, 2, src_len=2)) == pytest.approx(1.5)

    def test_empty_output_rejected(self):
        with pytest.raises(MetricsError, match="empty output"):
            average_lagging(dv(src_len=3))


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
