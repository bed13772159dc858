from __future__ import annotations

import re

import numpy as np
import pytest

from specmt import Event, LexiconError, ModelError, PolicyConfig, load_lexicon, save_lexicon
from specmt.model import adaptive_threshold
from specmt.vocab import EOS, PHI
from conftest import make_model


class TestWaitK:
    def test_reads_until_k_tokens_arrived(self, toy):
        vocab, lexicon, ids = toy
        model = make_model(vocab, lexicon, PolicyConfig.wait_k(2))
        assert model.step((ids["a"],), 0) == PHI

    def test_writes_with_default_rule(self, toy):
        vocab, lexicon, ids = toy
        model = make_model(vocab, lexicon, PolicyConfig.wait_k(1))
        assert model.step((ids["a"],), 0) == ids["A"]

    def test_conditional_rule_needs_visible_successor(self, toy):
        vocab, lexicon, ids = toy
        model = make_model(vocab, lexicon, PolicyConfig.wait_k(1))
        assert model.step((ids["b"],), 0) == ids["B2"]
        assert model.step((ids["b"], ids["c"]), 0) == ids["B1"]

    def test_returns_eos_when_source_consumed(self, toy):
        vocab, lexicon, ids = toy
        model = make_model(vocab, lexicon, PolicyConfig.wait_k(1))
        assert model.step((ids["a"],), 1, source_done=True) == EOS

    def test_write_only_after_source_done(self, toy):
        vocab, lexicon, ids = toy
        model = make_model(vocab, lexicon, PolicyConfig.wait_k(3))
        assert model.step((ids["a"], ids["b"]), 0, source_done=True) == ids["A"]

    def test_k_must_be_positive(self):
        with pytest.raises(ModelError):
            PolicyConfig.wait_k(0)


class TestAdaptive:
    def test_threshold_mapping(self):
        assert adaptive_threshold(0.1) == pytest.approx(0.5)
        assert adaptive_threshold(0.5) == pytest.approx(0.9)
        assert adaptive_threshold(0.7) == 1.0

    def test_eager_weight_accepts_ambiguous_write(self, toy):
        vocab, lexicon, ids = toy
        model = make_model(vocab, lexicon, PolicyConfig.adaptive(0.1))
        assert model.step((ids["b"],), 0) == ids["B2"]

    def test_cautious_weight_reads_on_ambiguity(self, toy):
        vocab, lexicon, ids = toy
        model = make_model(vocab, lexicon, PolicyConfig.adaptive(0.5))
        assert model.step((ids["b"],), 0) == PHI
        assert model.step((ids["b"], ids["c"]), 0) == ids["B1"]

    def test_unambiguous_token_always_writes(self, toy):
        vocab, lexicon, ids = toy
        model = make_model(vocab, lexicon, PolicyConfig.adaptive(0.5))
        assert model.step((ids["a"],), 0) == ids["A"]

    def test_phi_count_weakly_increases_with_latency_weight(self, toy):
        # the threshold min(1, 0.4 + L) rises with L, so larger weights
        # never write earlier
        vocab, lexicon, ids = toy
        rng = np.random.default_rng(3)
        regular = [ids[s] for s in ("a", "b", "c", "d")]
        from specmt import run_baseline

        for _ in range(30):
            source = tuple(rng.choice(regular) for _ in range(rng.integers(2, 10)))
            phi_counts = []
            for weight in (0.02, 0.05, 0.1, 0.2, 0.5):
                model = make_model(vocab, lexicon, PolicyConfig.adaptive(weight))
                trace = run_baseline(model, source).trace
                phi_counts.append(
                    sum(1 for e in map(Event._make, trace.events) if e.ev == "WRITE" and e.tok == "<phi>")
                )
            assert phi_counts == sorted(phi_counts)

    def test_parameter_validation(self):
        with pytest.raises(ModelError):
            PolicyConfig.adaptive(0.0)
        with pytest.raises(ModelError):
            PolicyConfig.adaptive(1.5)
        with pytest.raises(ModelError):
            PolicyConfig(kind="adaptive", k=1, latency_weight=0.1)


class TestDeterminism:
    @pytest.mark.parametrize("policy", [PolicyConfig.wait_k(2), PolicyConfig.adaptive(0.1)])
    def test_step_is_pure(self, toy, policy):
        vocab, lexicon, ids = toy
        model = make_model(vocab, lexicon, policy)
        rng = np.random.default_rng(17)
        regular = [ids[s] for s in ("a", "b", "c", "d")]
        for _ in range(10_000):
            prefix = tuple(rng.choice(regular) for _ in range(rng.integers(1, 7)))
            written = int(rng.integers(0, len(prefix) + 1))
            done = bool(rng.random() < 0.3)
            assert model.step(prefix, written, done) == model.step(prefix, written, done)


class TestTranslationRule:
    def test_conditional_rule_needs_visible_successor(self, toy):
        vocab, lexicon, ids = toy
        assert lexicon.translate((ids["b"],), 1) == ids["B2"]
        assert lexicon.translate((ids["b"], ids["c"]), 1) == ids["B1"]
        assert lexicon.translate((ids["b"], ids["a"]), 1) == ids["B2"]
        assert lexicon.translate((ids["a"], ids["b"], ids["c"]), 2) == ids["B1"]

    def test_settled_once_successor_visible_or_token_unambiguous(self, toy):
        vocab, lexicon, ids = toy
        assert not lexicon.settled((ids["b"],), 1)
        assert not lexicon.settled((ids["a"], ids["b"]), 2)
        assert lexicon.settled((ids["b"], ids["a"]), 1)
        assert lexicon.settled((ids["a"],), 1)

    def test_single_token(self, toy):
        vocab, lexicon, ids = toy
        assert lexicon.translate_sentence((ids["a"],)) == (ids["A"],)

    def test_conditional_applies_when_defined(self, toy):
        vocab, lexicon, ids = toy
        assert lexicon.translate_sentence((ids["b"], ids["c"])) == (ids["B1"], ids["C"])
        assert lexicon.translate_sentence((ids["b"], ids["a"])) == (ids["B2"], ids["A"])

    def test_empty_source_translates_to_nothing(self, toy):
        vocab, lexicon, ids = toy
        assert lexicon.translate_sentence(()) == ()

    def test_unknown_token_rejected(self, toy):
        vocab, lexicon, ids = toy
        message = f"unknown source token id {ids['A']}"  # target id: no source rule
        with pytest.raises(LexiconError, match=f"^{message}$"):
            lexicon.translate_sentence((ids["A"],))


class TestLexiconFiles:
    @staticmethod
    def rules(vocab, lexicon):
        """The lexicon in surfaces: ids are only meaningful within one vocabulary."""
        surface = vocab.surface
        return (
            {surface(src): surface(tgt) for src, tgt in lexicon.default.items()},
            {(surface(src), surface(cond)): surface(tgt) for (src, cond), tgt in lexicon.conditional.items()},
            {surface(src) for src in lexicon.ambiguous},
        )

    def test_roundtrip(self, toy, tmp_path):
        vocab, lexicon, ids = toy
        path = tmp_path / "lexicon.tsv"
        save_lexicon(path, lexicon, vocab)
        loaded_vocab, loaded = load_lexicon(path)
        assert self.rules(loaded_vocab, loaded) == self.rules(vocab, lexicon)

    def test_vocabulary_in_file_order(self, tmp_path):
        path = tmp_path / "lexicon.tsv"
        path.write_text("# comment\nb\t*\tB\n\nb\ta\tB1\na\t*\t<unk>\n")
        vocab, lexicon = load_lexicon(path)
        assert vocab.tokens == ("<s>", "</s>", "<phi>", "<unk>", "b", "B", "a", "B1")
        assert lexicon.ambiguous == {vocab.lookup("b")}

    def test_duplicate_rules_rejected(self, tmp_path):
        path = tmp_path / "lexicon.tsv"
        path.write_text("a\t*\tA\na\t*\tB1\nb\t*\tB2\nc\t*\tC\nd\t*\tD\n")
        with pytest.raises(LexiconError, match="duplicate"):
            load_lexicon(path)

    @pytest.mark.parametrize("text, line, surface", [
        ("a b\t*\tA\n", 1, "'a b'"),
        ("a\t*\tA\nc\t*\tC D\n", 2, "'C D'"),
        ("a\t*\tA\nb\t\tB\n", 2, "''"),
    ])
    def test_empty_or_whitespace_surface_rejected(self, tmp_path, text, line, surface):
        path = tmp_path / "lexicon.tsv"
        path.write_text(text)
        message = f"{path}: line {line}: empty surface or one holding whitespace: {surface}"
        with pytest.raises(LexiconError, match=f"^{re.escape(message)}$"):
            load_lexicon(path)

    def test_condition_without_default_rejected(self, tmp_path):
        path = tmp_path / "lexicon.tsv"
        path.write_text("b\t*\tB2\nb\tc\tB1\n")  # condition token c has no rule
        with pytest.raises(LexiconError, match="without a default"):
            load_lexicon(path)
