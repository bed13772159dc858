from __future__ import annotations

import itertools
import re

import pytest

from specmt import (
    AlwaysWrongPredictor,
    MarkovSourceSpec,
    OraclePredictor,
    PredictorError,
    build_vocabulary,
    generate,
    generate_out_of_domain_sources,
    load_ngram,
    train_ngram,
)
from specmt.vocab import BOS, EOS
from oracles import full_scan_predict


def _train(lines, order, alpha=0.1, beta=0.9):
    vocab = build_vocabulary(lines)
    corpus = [vocab.encode(line) for line in lines]
    return train_ngram(corpus, order, alpha, beta, vocabulary=vocab), vocab


class TestTraining:
    def test_bigram_prefers_observed_continuation(self):
        model, vocab = _train(["a b", "a b"], order=2)
        a, b = vocab.lookup("a"), vocab.lookup("b")
        p_b = model.probability(b, (a,))
        for other in model.support:
            if other != b:
                assert p_b > model.probability(other, (a,))
        token, p = model.predict((a,))
        assert token == b and p > 0.5

    def test_unigram_tie_breaks_to_smallest_id(self):
        model, vocab = _train(["a"], order=1)
        token, p = model.predict(())
        # a and EOS each occur once; EOS has the smaller id
        assert token == EOS
        assert p == pytest.approx(0.5)

    def test_invalid_order_rejected(self):
        vocab = build_vocabulary(["a"])
        with pytest.raises(PredictorError, match="invalid order"):
            train_ngram([vocab.encode("a")], 0, vocabulary=vocab)

    def test_parameter_validation(self):
        vocab = build_vocabulary(["a"])
        corpus = [vocab.encode("a")]
        with pytest.raises(PredictorError):
            train_ngram(corpus, 1, alpha=0.0, vocabulary=vocab)
        with pytest.raises(PredictorError):
            train_ngram(corpus, 1, beta=1.0, vocabulary=vocab)
        with pytest.raises(PredictorError):
            train_ngram([], 1, vocabulary=vocab)


class TestPrediction:
    def test_repeated_bigram_is_near_certain(self):
        model, vocab = _train(["a b"] * 10, order=2)
        token, p = model.predict((vocab.lookup("a"),))
        assert token == vocab.lookup("b")
        # 0.9 * 1.0 + 0.1 * unigram(b); unigram(b) = (10 + 0.1) / (30 + 0.3)
        assert p == pytest.approx(0.9 + 0.1 * (10.1 / 30.3))
        assert p >= 0.9

    def test_unseen_context_backs_off_to_unigram(self):
        # vocabulary contains c, but c never occurs in training, so the
        # context (c,) is unseen and the prediction must equal the unigram's
        vocab = build_vocabulary(["a b c"])
        lines = ["a b", "a b", "a a b"]
        corpus = [vocab.encode(line) for line in lines]
        bigram = train_ngram(corpus, 2, vocabulary=vocab)
        unigram = train_ngram(corpus, 1, vocabulary=vocab)
        c = vocab.lookup("c")
        assert bigram.predict((c,)) == unigram.predict(())
        for tok in bigram.support:
            assert bigram.probability(tok, (c,)) == pytest.approx(unigram.probability(tok, ()))

    def test_empty_context_predicts_sentence_initial_token(self):
        model, vocab = _train(["a b", "a c", "b a"], order=2)
        token, _ = model.predict(())
        assert token == vocab.lookup("a")

    def test_predict_is_pure(self):
        model, vocab = _train(["a b c", "b c a"], order=3)
        ctx = (vocab.lookup("b"), vocab.lookup("c"))
        assert model.predict(ctx) == model.predict(ctx)

    def test_normalization_over_every_context(self):
        # 10-token vocabulary, every context of both orders enumerated
        lines = ["t0 t1 t2 t3 t4", "t5 t6 t7 t8 t9", "t0 t2 t4 t6 t8"]
        model, vocab = _train(lines, order=2)
        contexts = [()] + [(t,) for t in list(model.support) + [BOS]]
        for ctx in contexts:
            total = sum(model.probability(tok, ctx) for tok in model.support)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_trigram_normalization_sampled_contexts(self):
        lines = ["t0 t1 t2 t3", "t3 t2 t1 t0"]
        model, vocab = _train(lines, order=3)
        ids = list(model.support)
        for ctx in itertools.product(ids[:4] + [BOS], repeat=2):
            total = sum(model.probability(tok, ctx) for tok in model.support)
            assert total == pytest.approx(1.0, abs=1e-9)


class TestPredictionAtWidth:
    """The `long` benchmark's shape: 200 tokens, kappa 1.0, order 3, so most
    contexts are unseen at some order and the support is wide."""

    @pytest.fixture(scope="class")
    def world(self):
        spec = MarkovSourceSpec(vocab_size=200, transition_concentration=1.0, ambiguity_rate=0.5,
                                min_length=40, max_length=80, seed=11)
        data = generate(spec, 110)
        model = train_ngram(data.sources[:100], 3, vocabulary=data.vocabulary)
        prefixes = [s[:t] for s in data.sources[100:] for t in range(len(s) + 1)]
        # each prefix followed by the token the model guesses after it, as a speculation reads it
        contexts = prefixes + [prefix + (model.predict(prefix).token,) for prefix in prefixes]
        return model, contexts

    def test_predict_matches_full_scan(self, world):
        model, contexts = world
        assert len(model.support) > 150 and len(contexts) > 1000
        for context in contexts:
            got = model.predict(context)
            want = full_scan_predict(model, context)
            assert (got.token, got.probability.hex()) == (want[0], want[1].hex()), context
            assert type(got.probability) is float  # a NumPy scalar would take the trace writer's slow path

    def test_save_load_preserves_predictions(self, world, tmp_path):
        model, contexts = world
        model.save(tmp_path / "model.json")
        loaded = load_ngram(tmp_path / "model.json")
        for context in contexts:
            got, want = loaded.predict(context), model.predict(context)
            assert (got.token, got.probability.hex()) == (want.token, want.probability.hex()), context


class TestHeldOutQuality:
    def test_in_domain_beats_out_of_domain(self):
        spec = MarkovSourceSpec(vocab_size=16, transition_concentration=0.1,
                                ambiguity_rate=0.0, min_length=6, max_length=12, seed=5)
        data = generate(spec, 700)
        train, test = data.sources[:600], data.sources[600:]
        ood_sources = generate_out_of_domain_sources(spec, 600, domain_seed=6)
        in_domain = train_ngram(train, 2, vocabulary=data.vocabulary)
        out_domain = train_ngram(ood_sources, 2, vocabulary=data.vocabulary)
        stats_in = in_domain.evaluate(test)
        stats_out = out_domain.evaluate(test)
        assert stats_in["events"] >= 1000
        assert stats_in["accuracy"] > stats_out["accuracy"]
        assert stats_in["accuracy"] - stats_out["accuracy"] > 0.1
        assert stats_in["perplexity"] < stats_out["perplexity"]


class TestSerialization:
    def test_save_load_preserves_predictions(self, tmp_path):
        model, vocab = _train(["a b c", "c b a", "a c b"], order=2)
        path = tmp_path / "model.json"
        model.save(path)
        loaded = load_ngram(path)
        for ctx in [(), (vocab.lookup("a"),), (vocab.lookup("c"),)]:
            assert loaded.predict(ctx) == model.predict(ctx)

    @pytest.mark.parametrize("text, message", [
        ('{"order": 2}', "expected an object with keys"),
        ("[1, 2]", "expected an object with keys"),
        ("{", "not JSON"),
        ('{"order": true, "alpha": 0.1, "beta": 0.9, "tokens": [], "counts": []}', "order must be an integer"),
        ('{"order": 2, "alpha": "0.1", "beta": 0.9, "tokens": [], "counts": []}', "alpha and beta numbers"),
        ('{"order": 0, "alpha": 0.1, "beta": 0.9, "tokens": [], "counts": []}', "invalid order"),
        ('{"order": 2, "alpha": NaN, "beta": 0.9, "tokens": [], "counts": []}', "alpha must be positive"),
        ('{"order": 2, "alpha": 0.1, "beta": 1, "tokens": [], "counts": []}', "beta must be in"),
        ('{"order": 2, "alpha": 0.1, "beta": 0.9, "tokens": "a", "counts": []}', "tokens must be a list"),
        ('{"order": 2, "alpha": 0.1, "beta": 0.9, "tokens": [], "counts": {}}', "counts must be a list"),
        ('{"order": 2, "alpha": 0.1, "beta": 0.9, "tokens": ["a", "b"], "counts": [[[], "a"]]}',
         "counts entry 0: expected"),
        ('{"order": 2, "alpha": 0.1, "beta": 0.9, "tokens": ["a", "b"], "counts": [[["a", "b"], "a", 1]]}',
         "the longest counted context must have order - 1 = 1 tokens"),
        ('{"order": 2, "alpha": 0.1, "beta": 0.9, "tokens": ["a", "b"], "counts": [[[], "a", 0]]}',
         "counts entry 0: expected"),
        ('{"order": 2, "alpha": 0.1, "beta": 0.9, "tokens": ["a", "b"], "counts": [[[], "a", 1.5]]}',
         "counts entry 0: expected"),
        ('{"order": 2, "alpha": 0.1, "beta": 0.9, "tokens": ["a", "b"], "counts": [[[], "zz", 1]]}',
         "counts entry 0: token 'zz' missing from vocabulary"),
        ('{"order": 2, "alpha": 0.1, "beta": 0.9, "tokens": ["a", "b"], "counts": [[[], "a", 1], [[], "a", 2]]}',
         "counts entry 1: duplicate entry"),
        ('{"order": 3, "alpha": 0.1, "beta": 0.9, "tokens": ["a", "b"], "counts": [[["a"], "b", 1]]}',
         "the longest counted context must have order - 1 = 2 tokens"),
        ('{"order": 1000000000, "alpha": 0.1, "beta": 0.9, "tokens": ["a", "b"], "counts": [[[], "a", 1]]}',
         "the longest counted context must have order - 1 = 999999999 tokens"),
        ('{"order": 1, "alpha": 0.1, "beta": 0.9, "tokens": [], "counts": []}',
         "the longest counted context must have order - 1 = 0 tokens"),
        ('{"order": 1, "alpha": 0.1, "beta": 0.9, "tokens": ["a", "a"], "counts": [[[], "a", 1]]}',
         "tokens must be distinct and not reserved surfaces"),
        ('{"order": 1, "alpha": 0.1, "beta": 0.9, "tokens": ["a", "</s>"], "counts": [[[], "a", 1]]}',
         "tokens must be distinct and not reserved surfaces"),
        ('{"order": 1, "alpha": 0.1, "beta": 0.9, "tokens": ["a", "x y"], "counts": [[[], "a", 1]]}',
         "tokens must be non-empty and hold no whitespace"),
        ('{"order": 1, "alpha": 0.1, "beta": 0.9, "tokens": ["a", ""], "counts": [[[], "a", 1]]}',
         "tokens must be non-empty and hold no whitespace"),
    ])
    def test_load_rejects_malformed_files_naming_them(self, tmp_path, text, message):
        path = tmp_path / "model.json"
        path.write_text(text)
        with pytest.raises(PredictorError, match=f"^{re.escape(str(path))}: .*{message}"):
            load_ngram(path)

    def test_load_rejects_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b'{"order": 2, \xff}')
        with pytest.raises(PredictorError, match=f"^{re.escape(str(path))}: not UTF-8 at byte 13$"):
            load_ngram(path)


class TestFixedPredictors:
    def test_oracle_predicts_truth_then_eos(self):
        vocab = build_vocabulary(["a b c"])
        source = vocab.encode("a b c")
        oracle = OraclePredictor(source)
        assert oracle.predict((source[0],)) == (source[1], 1.0)
        assert oracle.predict(source) == (EOS, 1.0)
        assert oracle.predict(()) == (source[0], 1.0)

    def test_always_wrong_never_matches_truth(self):
        vocab = build_vocabulary(["a b c"])
        source = vocab.encode("a b c")
        wrong = AlwaysWrongPredictor(source, vocab)
        for i in range(len(source) + 1):
            truth = source[i] if i < len(source) else EOS
            token, p = wrong.predict(source[:i])
            assert token != truth
            assert p == 1.0

    def test_always_wrong_guesses_only_given_source_ids(self):
        # a lexicon-read vocabulary: source and target tokens interleave
        vocab = build_vocabulary(["a A b B c C"])
        a, b, c = (vocab.lookup(s) for s in "abc")
        source = (a, c, a, b)
        wrong = AlwaysWrongPredictor(source, vocab, source_ids=(c, b, a))
        guesses = [wrong.predict(source[:i]).token for i in range(len(source) + 1)]
        assert guesses == [b, a, b, a, a]
        with pytest.raises(PredictorError, match="too small"):
            AlwaysWrongPredictor(source, vocab, source_ids=(a,))
