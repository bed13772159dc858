from __future__ import annotations

import itertools
import math
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
from specmt.vocab import BOS, EOS, PHI, UNK
from oracles import _recursive_prob, full_scan_predict


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

    @pytest.mark.parametrize("order", [1, 3])
    @pytest.mark.parametrize("bad", [99, 6, -1, BOS, EOS, PHI])
    def test_ids_the_model_cannot_count_are_named(self, order, bad):
        # a 6-token vocabulary: the four reserved ids, then a and b (ids 4 and 5);
        # a counted 99 would be predicted, and neither the engine nor `save` could spell it
        vocab = build_vocabulary(["a b"])
        corpus = [(4, 5), (), (4, 5, bad), (bad,)]
        with pytest.raises(PredictorError, match=rf"^sentence 2: token id {bad} "):
            train_ngram(corpus, order, vocabulary=vocab)

    def test_unk_is_counted(self):
        # `load_corpus` lets a literal <unk> through, so training must count it
        vocab = build_vocabulary(["a b"])
        model = train_ngram([(4, UNK, 5), (UNK,)], 2, vocabulary=vocab)
        assert model.counts[()] == {4: 1, 5: 1, UNK: 2, EOS: 2}
        assert model.predict((4,)).token == UNK


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

    def test_probability_matches_the_recursive_definition_for_every_id(self, world):
        # support, reserved and target-side ids alike: the vector's last slot
        # is the probability of every token outside the support
        model, contexts = world
        ids = range(len(model.vocabulary))
        assert len(ids) > len(model.support) + 100
        for context in contexts[::10]:
            ctx = model._context(context)
            for tok in ids:
                assert model.probability(tok, context).hex() == _recursive_prob(model, tok, ctx).hex(), (tok, context)

    def test_save_load_preserves_predictions(self, world, tmp_path):
        model, contexts = world
        model.save(tmp_path / "model.json")
        loaded = load_ngram(tmp_path / "model.json")
        for context in contexts:
            got, want = loaded.predict(context), model.predict(context)
            assert (got.token, got.probability.hex()) == (want.token, want.probability.hex()), context


class TestTiedUnigram:
    """At alpha 1e20 every count vanishes beside alpha, so every unigram
    entry ties, the last slot included: the argmax must still be a support
    token, the first of the tie."""

    @pytest.mark.parametrize("order", [1, 4])
    def test_predict_matches_full_scan(self, order):
        spec = MarkovSourceSpec(vocab_size=12, transition_concentration=0.3, ambiguity_rate=0.3,
                                min_length=3, max_length=8, seed=4)
        data = generate(spec, 40)
        model = train_ngram(data.sources[:30], order, alpha=1e20, vocabulary=data.vocabulary)
        unigram = model._vector(())
        assert unigram[-1] == unigram.max() == unigram[0]
        ids = range(len(model.vocabulary))
        contexts = [s[:t] for s in data.sources[30:] for t in range(len(s) + 1)]
        contexts += [(tok,) * n for tok in ids for n in (1, 3)]
        for context in contexts:
            got = model.predict(context)
            want = full_scan_predict(model, context)
            assert (got.token, got.probability.hex()) == (want[0], want[1].hex()), context
            assert got.token in model.support


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

    def test_evaluate_matches_the_recursive_definition_with_unseen_tokens(self):
        # c and d are in the vocabulary but never counted: each reads the
        # probability of a token outside the support
        vocab = build_vocabulary(["a b c d"])
        model = train_ngram([vocab.encode("a b"), vocab.encode("b a b")], 2, vocabulary=vocab)
        held_out = [vocab.encode("a c d"), vocab.encode("d b a")]
        log_prob, correct = 0.0, 0
        for sentence in held_out:
            stream = (*sentence, EOS)
            for t, actual in enumerate(stream):
                ctx = model._context(stream[:t])
                log_prob += math.log(max(_recursive_prob(model, actual, ctx), 1e-300))
                correct += actual != EOS and full_scan_predict(model, stream[:t])[0] == actual
        stats = model.evaluate(held_out)
        assert stats["perplexity"].hex() == math.exp(-log_prob / 8).hex()
        assert stats == {"perplexity": stats["perplexity"], "accuracy": correct / 6, "events": 6.0}

    @pytest.mark.parametrize("world, pinned", [
        # a `short`-sized world: bigram trained on the first 90 of 100 sentences
        (dict(vocab_size=24, kappa=0.1, ambiguity_rate=0.3, min_length=5, max_length=15, n=100, order=2, ood=False),
         ("0x1.2c1fefb4f28a1p+2", "0x1.15b1e5f75270dp-1", "0x1.d800000000000p+6")),
        # a `long`-sized world: trigram trained on 180 out-of-domain sentences
        (dict(vocab_size=200, kappa=1.0, ambiguity_rate=0.5, min_length=40, max_length=80, n=200, order=3, ood=True),
         ("0x1.61c06ceeef91cp+10", "0x1.5eb1be9658b37p-9", "0x1.75c0000000000p+10")),
    ])
    def test_evaluate_is_pinned_bit_for_bit(self, world, pinned):
        spec = MarkovSourceSpec(vocab_size=world["vocab_size"], transition_concentration=world["kappa"],
                                ambiguity_rate=world["ambiguity_rate"], min_length=world["min_length"],
                                max_length=world["max_length"], seed=3)
        data = generate(spec, world["n"])
        split = world["n"] * 9 // 10
        train = generate_out_of_domain_sources(spec, split, 1003) if world["ood"] else data.sources[:split]
        model = train_ngram(train, world["order"], vocabulary=data.vocabulary)
        stats = model.evaluate(data.sources[split:])
        assert (stats["perplexity"].hex(), stats["accuracy"].hex(), stats["events"].hex()) == pinned


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

    @pytest.mark.parametrize("order, entries, message", [
        (1, '[[[], "<phi>", 5], [[], "a", 1], [[], "<s>", 9]]',
         "counts entry 0: counted token '<phi>' is a marker training never counts"),
        (1, '[[[], "a", 1], [[], "<s>", 9]]', "counts entry 1: counted token '<s>' is a marker training never counts"),
        (2, '[[["</s>"], "a", 1]]', "counts entry 0: context holds '</s>'; training puts no marker"),
        (2, '[[[], "a", 1], [["<phi>"], "a", 1]]', "counts entry 1: context holds '<phi>'; training puts no marker"),
        (3, '[[["a", "<s>"], "b", 1]]', "counts entry 0: context holds '<s>'; training puts no marker"),
        (3, '[[["<s>", "</s>"], "b", 1]]', "counts entry 0: context holds '</s>'; training puts no marker"),
        (3, '[[["<s>", "<s>"], "a", 1], [["<s>", "a"], "<phi>", 1]]',
         "counts entry 1: counted token '<phi>' is a marker"),
    ])
    def test_load_rejects_markers_where_training_puts_none(self, tmp_path, order, entries, message):
        path = tmp_path / "model.json"
        path.write_text(f'{{"order": {order}, "alpha": 0.1, "beta": 0.9, "tokens": ["a", "b"], "counts": {entries}}}')
        with pytest.raises(PredictorError, match=f"^{re.escape(str(path))}: {re.escape(message)}"):
            load_ngram(path)

    @pytest.mark.parametrize("order, entries, message", [
        (2, '[[[], "a", 1], [["a"], "b", 1]]', "counts entry 1: token 'b' is counted after a context"),
        (2, '[[["a"], "</s>", 1], [[], "a", 1]]', "counts entry 0: token '</s>' is counted after a context"),
        (3, '[[["<s>", "<s>"], "<unk>", 1]]', "counts entry 0: token '<unk>' is counted after a context"),
    ])
    def test_load_rejects_a_token_the_empty_context_does_not_count(self, tmp_path, order, entries, message):
        path = tmp_path / "model.json"
        path.write_text(f'{{"order": {order}, "alpha": 0.1, "beta": 0.9, "tokens": ["a", "b"], "counts": {entries}}}')
        with pytest.raises(PredictorError, match=f"^{re.escape(str(path))}: {re.escape(message)} but not in the "
                                                 "empty context, where training counts every token$"):
            load_ngram(path)

    def test_load_accepts_padding_eos_and_unk_where_training_puts_them(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"order": 3, "alpha": 0.1, "beta": 0.9, "tokens": ["a", "b"], "counts": ['
                        '[["<s>", "<s>"], "a", 1], [["<s>", "a"], "</s>", 1], [["<s>"], "<unk>", 2], '
                        '[["<unk>", "b"], "<unk>", 1], [[], "</s>", 1], [[], "a", 3], [[], "<unk>", 3]]}')
        model = load_ngram(path)
        assert model.counts[(BOS, BOS)] == {4: 1} and model.counts[(BOS, 4)] == {EOS: 1}
        assert model.counts[(BOS,)] == {UNK: 2} and model.counts[(UNK, 5)] == {UNK: 1}

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

    def test_always_wrong_guesses_from_two_distinct_ids(self):
        # a repeated lowest id is not a second guess: where the truth is that
        # id, the guess must be the next distinct one
        vocab = build_vocabulary(["a b c"])
        a, b, c = (vocab.lookup(s) for s in "abc")
        source = (a, b, a)
        wrong = AlwaysWrongPredictor(source, vocab, source_ids=(a, a, c, b, c))
        assert [wrong.predict(source[:i]) for i in range(len(source) + 1)] == [(b, 1.0), (a, 1.0), (b, 1.0), (a, 1.0)]
        with pytest.raises(PredictorError, match="too small.*two distinct ids"):
            AlwaysWrongPredictor(source, vocab, source_ids=(a, a))
        with pytest.raises(PredictorError, match="too small"):
            AlwaysWrongPredictor(source, vocab, source_ids=())
