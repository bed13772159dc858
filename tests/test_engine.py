from __future__ import annotations

import numpy as np
import pytest

from specmt import (
    AlwaysWrongPredictor,
    EngineConfig,
    EngineError,
    Event,
    OraclePredictor,
    PolicyConfig,
    average_lagging,
    replay,
    run_baseline,
    run_speculative,
    train_ngram,
)
from specmt.vocab import EOS, PHI, PHI_SURFACE
from conftest import make_model
from oracles import speculation_eligible_positions, wait_k_delays


def _random_sources(ids, rng, count, max_len=9):
    regular = [ids[s] for s in ("a", "b", "c", "d")]
    return [
        tuple(rng.choice(regular) for _ in range(rng.integers(1, max_len)))
        for _ in range(count)
    ]


class _Babbler:
    """A duck-typed translator that writes one token forever."""

    def __init__(self, vocabulary, token):
        self.vocabulary, self.token, self.calls = vocabulary, token, 0

    def step(self, source_prefix, written, done):
        self.calls += 1
        return self.token


class TestBaseline:
    def test_wait1_schedule(self, toy):
        vocab, lexicon, ids = toy
        model = make_model(vocab, lexicon, PolicyConfig.wait_k(1))
        result = run_baseline(model, (ids["a"], ids["b"]))
        assert [vocab.surface(t) for t in result.final_output] == ["A", "B2"]
        assert replay(result.trace).delays == (1, 2)

    def test_wait3_on_short_source_writes_after_eos(self, toy):
        vocab, lexicon, ids = toy
        model = make_model(vocab, lexicon, PolicyConfig.wait_k(3))
        result = run_baseline(model, (ids["a"], ids["b"]))
        assert replay(result.trace).delays == (2, 2)

    def test_empty_source_rejected(self, toy):
        vocab, lexicon, ids = toy
        model = make_model(vocab, lexicon)
        with pytest.raises(EngineError, match="empty source"):
            run_baseline(model, ())

    def test_wait_k_read_schedule_matches_closed_form(self, toy):
        vocab, lexicon, ids = toy
        rng = np.random.default_rng(23)
        for source in _random_sources(ids, rng, 40):
            for k in (1, 2, 3, 5):
                model = make_model(vocab, lexicon, PolicyConfig.wait_k(k))
                result = run_baseline(model, source)
                src_len = len(source)
                assert replay(result.trace).delays == wait_k_delays(
                    k, src_len, len(result.final_output)
                )

    def test_runaway_guard(self, toy):
        # a translator that never emits end-of-sequence is stopped by one
        # fixed limit, with or without a predictor, which no caller can set
        vocab, lexicon, ids = toy
        source = (ids["a"], ids["b"])
        babbler = _Babbler(vocab, ids["A"])
        with pytest.raises(EngineError, match="runaway decode"):
            run_baseline(babbler, source)
        baseline_calls, babbler.calls = babbler.calls, 0
        with pytest.raises(EngineError, match="runaway decode"):
            run_speculative(babbler, OraclePredictor(source), source)
        assert baseline_calls == babbler.calls == 2 * len(source) + 9
        with pytest.raises(TypeError):
            run_baseline(babbler, source, max_output=0)
        assert not hasattr(EngineConfig(), "max_output")


class TestSpeculative:
    def test_oracle_shifts_delays(self, toy):
        vocab, lexicon, ids = toy
        model = make_model(vocab, lexicon, PolicyConfig.wait_k(1))
        source = (ids["a"], ids["b"])
        result = run_speculative(model, OraclePredictor(source), source)
        assert [vocab.surface(t) for t in result.final_output] == ["A", "B2"]
        assert replay(result.trace).delays == (1, 1)
        assert result.withdrawals == 0
        assert result.hits == result.speculations

    def test_always_wrong_matches_baseline_latency(self, toy):
        vocab, lexicon, ids = toy
        model = make_model(vocab, lexicon, PolicyConfig.wait_k(1))
        source = (ids["a"], ids["b"])
        baseline = run_baseline(model, source)
        result = run_speculative(model, AlwaysWrongPredictor(source, vocab), source)
        assert result.final_output == baseline.final_output
        spec_delays = replay(result.trace).delays
        assert spec_delays == replay(baseline.trace).delays
        assert result.withdrawals == result.speculations == 3  # one per read, one at EOS
        assert result.hits == 0

    def test_full_gate_reduces_to_baseline(self, toy):
        # bigram trained on varied data never reaches probability 1.0
        vocab, lexicon, ids = toy
        lines = ["a b c", "a c b", "b a c", "c a b", "d a b"]
        corpus = [vocab.encode(line) for line in lines]
        predictor = train_ngram(corpus, 2, vocabulary=vocab)
        model = make_model(vocab, lexicon, PolicyConfig.wait_k(1))
        source = (ids["a"], ids["b"], ids["c"])
        baseline = run_baseline(model, source)
        gated = run_speculative(model, predictor, source, EngineConfig(tau=1.0))
        assert gated.speculations == 0
        assert gated.final_output == baseline.final_output
        stripped = tuple(e for e in map(Event._make, gated.trace.events) if e.ev != "PREDICT")
        assert stripped == baseline.trace.events

    def test_phi_speculation_commits_without_output(self, toy):
        vocab, lexicon, ids = toy
        model = make_model(vocab, lexicon, PolicyConfig.wait_k(3))
        source = (ids["a"], ids["b"], ids["c"], ids["d"])
        result = run_speculative(model, OraclePredictor(source), source)
        spec_events = [e for e in map(Event._make, result.trace.events) if e.ev == "SPECULATE"]
        assert any(e.tok == PHI_SURFACE for e in spec_events)
        assert result.withdrawals == 0
        baseline = run_baseline(model, source)
        assert result.final_output == baseline.final_output

    def test_withdrawals_equal_mispredicted_speculations(self, toy, markov_corpus):
        vocab, lexicon, ids = toy
        rng = np.random.default_rng(7)
        corpus = [vocab.encode(line) for line in ("a b c d", "b c a", "d d b c")]
        predictor = train_ngram(corpus, 2, vocabulary=vocab)
        for source in _random_sources(ids, rng, 40):
            for policy in (PolicyConfig.wait_k(2), PolicyConfig.adaptive(0.1)):
                model = make_model(vocab, lexicon, policy)
                result = run_speculative(model, predictor, source, EngineConfig(tau=0.0))
                # recount mispredictions from the trace itself
                events = [Event._make(e) for e in result.trace.events]
                predictions = {e.i: e.pred for e in events if e.ev == "PREDICT"}
                speculated = {e.i + 1 for e in events if e.ev == "SPECULATE"}
                reads = {e.i: e.tok for e in events if e.ev == "READ"}
                misses = sum(
                    1 for i in speculated if i in reads and predictions[i] != reads[i]
                )
                assert result.withdrawals == misses
                assert result.speculations == len(speculated)

    def test_tau_monotonicity_subset_argument(self, toy):
        vocab, lexicon, ids = toy
        rng = np.random.default_rng(29)
        corpus = [vocab.encode(line) for line in ("a b c d", "a b a b", "c d c d", "b c")]
        predictor = train_ngram(corpus, 2, vocabulary=vocab)
        model = make_model(vocab, lexicon, PolicyConfig.wait_k(1))
        for source in _random_sources(ids, rng, 25):
            prev_spec = prev_wd = None
            for tau in (0.0, 0.3, 0.6, 0.9, 1.0):
                result = run_speculative(model, predictor, source, EngineConfig(tau=tau))
                if prev_spec is not None:
                    assert result.speculations <= prev_spec
                    assert result.withdrawals <= prev_wd
                prev_spec, prev_wd = result.speculations, result.withdrawals

    def test_predictor_vocabulary_mismatch(self, toy):
        vocab, lexicon, ids = toy
        from specmt import build_vocabulary

        other = build_vocabulary(["x y z"])
        predictor = train_ngram([other.encode("x y")], 2, vocabulary=other)
        model = make_model(vocab, lexicon)
        with pytest.raises(EngineError, match="predictor/vocabulary mismatch"):
            run_speculative(model, predictor, (ids["a"],))


class TestEquivalence:
    def test_randomized_equivalence(self, toy):
        vocab, lexicon, ids = toy
        rng = np.random.default_rng(101)
        lm = train_ngram(
            [vocab.encode(line) for line in ("a b c d", "b c a", "d a b c")],
            2,
            vocabulary=vocab,
        )
        policies = [PolicyConfig.wait_k(k) for k in (1, 2, 4)] + [
            PolicyConfig.adaptive(w) for w in (0.05, 0.3)
        ]
        for source in _random_sources(ids, rng, 30):
            for policy in policies:
                model = make_model(vocab, lexicon, policy)
                baseline = run_baseline(model, source)
                for predictor in (OraclePredictor(source), AlwaysWrongPredictor(source, vocab), lm):
                    for tau in (0.0, 0.5, 1.0):
                        result = run_speculative(model, predictor, source, EngineConfig(tau=tau))
                        assert result.final_output == baseline.final_output

    def test_a_list_source_runs_as_its_tuple(self, toy):
        # the engine indexes the source and never adds it to a prefix, so any
        # sequence of ids gives the trace bytes and output of its tuple
        vocab, lexicon, ids = toy
        rng = np.random.default_rng(7)
        lm = train_ngram([vocab.encode(line) for line in ("a b c d", "b c a")], 2, vocabulary=vocab)
        for source in _random_sources(ids, rng, 20):
            for policy in (PolicyConfig.wait_k(1), PolicyConfig.wait_k(3), PolicyConfig.adaptive(0.5)):
                model = make_model(vocab, lexicon, policy)
                runs = [run_baseline(model, src) for src in (source, list(source))]
                for predictor in (AlwaysWrongPredictor(source, vocab, lexicon.default), OraclePredictor(source), lm):
                    for tau in (0.0, 0.5):
                        runs += [run_speculative(model, predictor, src, EngineConfig(tau=tau))
                                 for src in (source, list(source))]
                for of_tuple, of_list in zip(runs[::2], runs[1::2]):
                    assert of_list.trace.serialize() == of_tuple.trace.serialize()
                    assert of_list.final_output == of_tuple.final_output

    def test_oracle_wait1_length5_worked_example(self, toy):
        # wait-1 on five unambiguous tokens: positions 2..5 shift one read
        # earlier, position 1 cannot (there is no row before the first read)
        vocab, lexicon, ids = toy
        source = (ids["a"], ids["c"], ids["d"], ids["a"], ids["c"])
        model = make_model(vocab, lexicon, PolicyConfig.wait_k(1))
        baseline = run_baseline(model, source)
        result = run_speculative(model, OraclePredictor(source), source)
        base, spec = replay(baseline.trace), replay(result.trace)
        al_base = average_lagging(base.delays, base.source_length)
        al_spec = average_lagging(spec.delays, spec.source_length)
        assert speculation_eligible_positions(baseline.trace) == 4
        assert al_base - al_spec == pytest.approx(0.8)

    def test_oracle_latency_shift_per_position(self, toy):
        vocab, lexicon, ids = toy
        rng = np.random.default_rng(13)
        for source in _random_sources(ids, rng, 60):
            for policy in (PolicyConfig.wait_k(1), PolicyConfig.wait_k(3), PolicyConfig.adaptive(0.5)):
                model = make_model(vocab, lexicon, policy)
                baseline = run_baseline(model, source)
                result = run_speculative(model, OraclePredictor(source), source)
                g_base = replay(baseline.trace).delays
                g_spec = replay(result.trace).delays
                assert result.withdrawals == 0
                eligible = speculation_eligible_positions(baseline.trace)
                assert sum(g_base) - sum(g_spec) == eligible
                shifts = [b - s for b, s in zip(g_base, g_spec)]
                assert all(shift in (0, 1) for shift in shifts)


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, markov_corpus):
        data = markov_corpus
        lm = train_ngram(data.sources[:200], 2, vocabulary=data.vocabulary)
        runs = []
        for _ in range(5):
            model = make_model(data.vocabulary, data.lexicon, PolicyConfig.wait_k(2))
            runs.append([
                run_speculative(model, lm, source, EngineConfig(tau=0.2)).trace.serialize()
                for source in data.sources[200:230]
            ])
        assert all(run == runs[0] for run in runs[1:])


class TestConfigAndReports:
    def test_engine_config_validation(self):
        with pytest.raises(EngineError, match="tau"):
            EngineConfig(tau=1.5)


class TestRunErrors:
    def test_read_past_end_of_source(self, toy):
        vocab, lexicon, ids = toy
        source = (ids["a"], ids["b"])
        reader = _Babbler(vocab, PHI)  # asks to read, even after the end of source
        with pytest.raises(EngineError, match="policy requested a read past the end of source"):
            run_baseline(reader, source)
        with pytest.raises(EngineError, match="policy requested a read past the end of source"):
            run_speculative(reader, AlwaysWrongPredictor(source, vocab), source)

    def test_reserved_marker_in_source(self, toy):
        vocab, lexicon, ids = toy
        model = make_model(vocab, lexicon)
        source = (ids["a"], EOS, ids["b"])
        with pytest.raises(EngineError, match="reserved marker in source sentence"):
            run_baseline(model, source)
        with pytest.raises(EngineError, match="reserved marker in source sentence"):
            run_speculative(model, OraclePredictor(source), source)
