from __future__ import annotations

import pytest

from specmt import (
    MarkovSourceSpec,
    PolicyConfig,
    SimtModel,
    gen_corpus,
    generate,
    generate_out_of_domain_sources,
    load_lexicon,
    run_baseline,
    train_ngram,
)
from specmt.markov import GenerationError
from specmt.vocab import load_corpus, read_corpus_lines
from oracles import corpus_bleu, frozen_generate


def _spec(**kw):
    base = dict(vocab_size=16, transition_concentration=0.1, ambiguity_rate=0.2,
                min_length=5, max_length=10, seed=7)
    base.update(kw)
    return MarkovSourceSpec(**base)


class TestSpecValidation:
    def test_reserved_ids_must_fit(self):
        with pytest.raises(GenerationError, match="reserved ids"):
            _spec(vocab_size=3)

    def test_needs_a_regular_token(self):
        with pytest.raises(GenerationError, match="regular"):
            _spec(vocab_size=4)

    def test_length_bounds(self):
        with pytest.raises(GenerationError):
            _spec(min_length=6, max_length=5)


class TestDeterminism:
    def test_same_seed_same_files(self, tmp_path):
        paths_a = gen_corpus(_spec(), 40, tmp_path / "a")
        paths_b = gen_corpus(_spec(), 40, tmp_path / "b")
        for pa, pb in zip(paths_a, paths_b):
            assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        paths_a = gen_corpus(_spec(seed=1), 40, tmp_path / "a")
        paths_b = gen_corpus(_spec(seed=2), 40, tmp_path / "b")
        assert paths_a[0].read_bytes() != paths_b[0].read_bytes()


class TestGeneratedWorld:
    def test_memory_does_not_grow_with_max_length(self):
        # sentences end by the chain's end column long before this bound; a
        # sampler that drew n_sentences * max_length uniforms up front would
        # ask for gigabytes here
        spec = MarkovSourceSpec(vocab_size=8, transition_concentration=1.0, min_length=1, max_length=10**9)
        assert generate(spec, 3) == frozen_generate(spec, 3)

    def test_files_reconstruct_the_in_memory_world(self, tmp_path):
        spec = _spec()
        corpus_path, lexicon_path, refs_path = gen_corpus(spec, 30, tmp_path)
        vocab, lexicon = load_lexicon(lexicon_path)
        sources = list(load_corpus(corpus_path, vocab).values())
        refs = [tuple(vocab.encode(line)) for line in read_corpus_lines(refs_path)]
        for source, ref in zip(sources, refs):
            assert lexicon.translate_sentence(source) == ref

    def test_references_are_wait_k_outputs_once_k_covers_the_source(self):
        # with every successor visible before each write, decoding applies
        # the one rule the references are generated by
        data = generate(_spec(ambiguity_rate=0.4), 40)
        for source, ref in zip(data.sources, data.references):
            for k in (len(source), len(source) + 2):
                model = SimtModel(lexicon=data.lexicon, policy=PolicyConfig.wait_k(k), vocabulary=data.vocabulary)
                assert run_baseline(model, source).final_output == ref

    def test_sentence_lengths_respect_bounds(self):
        data = generate(_spec(min_length=4, max_length=6), 100)
        assert all(4 <= len(s) <= 6 for s in data.sources)

    def test_ambiguity_rate_zero_makes_wait1_perfect(self):
        data = generate(_spec(ambiguity_rate=0.0), 60)
        model = SimtModel(lexicon=data.lexicon, policy=PolicyConfig.wait_k(1),
                          vocabulary=data.vocabulary)
        outputs = [run_baseline(model, s).final_output for s in data.sources]
        assert corpus_bleu(outputs, list(data.references)) == pytest.approx(1.0)

    def test_ambiguous_rules_fire_in_references(self):
        data = generate(_spec(ambiguity_rate=0.4), 80)
        alt_targets = set(data.lexicon.conditional.values())
        used = {t for ref in data.references for t in ref}
        assert alt_targets & used, "conditional translations never occurred"

    def test_near_deterministic_chain_is_predictable(self):
        data = generate(_spec(transition_concentration=0.01, ambiguity_rate=0.0), 400)
        train, test = data.sources[:360], data.sources[360:]
        model = train_ngram(train, 2, vocabulary=data.vocabulary)
        stats = model.evaluate(test)
        assert stats["accuracy"] > 0.9


class TestOutOfDomain:
    def test_same_vocabulary_different_distribution(self):
        spec = _spec()
        data = generate(spec, 50)
        ood = generate_out_of_domain_sources(spec, 50, domain_seed=spec.seed + 1)
        in_ids = {t for s in data.sources for t in s}
        ood_ids = {t for s in ood for t in s}
        assert ood_ids <= set(range(4, 4 + spec.regular_count))
        assert in_ids <= set(range(4, 4 + spec.regular_count))
        assert tuple(ood) != tuple(data.sources)

    def test_reproducible(self):
        spec = _spec()
        a = generate_out_of_domain_sources(spec, 30, domain_seed=9)
        b = generate_out_of_domain_sources(spec, 30, domain_seed=9)
        assert a == b
