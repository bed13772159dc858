"""Synthetic corpora with controllable predictability and ambiguity.

Sources are drawn from a first-order Markov chain whose transition rows are
Dirichlet samples: a low concentration gives peaky, predictable rows, a high
one gives near-uniform, unpredictable rows. A fraction of the vocabulary is
marked ambiguous in the generated lexicon: those tokens translate differently
when followed by their most likely successor, which is what makes early
writing cost translation quality.

Everything is reproducible bit-for-bit from the spec and its seed. The seed
fans out through named children (transition matrix, lexicon, sentence
sampling) so each part can be regenerated independently. The transition rows
come from one Dirichlet call of the matrix's generator. The sampler takes its
uniforms in fixed-size blocks from its generator's stream, in the order that
one draw per step would take them, so a spec and seed give the same corpus
bytes whatever the block size.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .lexicon import Lexicon, save_lexicon
from .vocab import FIRST_REGULAR, RESERVED_SURFACES, Sentence, SpecmtError, Vocabulary, write_corpus_lines


# uniforms drawn per refill by `_sample_sources`: a fixed block, so memory does
# not grow with the corpus or with `max_length`
UNIFORM_BLOCK = 4096


class GenerationError(SpecmtError, ValueError):
    pass


@dataclass(frozen=True)
class MarkovSourceSpec:
    """Knobs of the synthetic source distribution.

    `vocab_size` counts the four reserved ids plus the regular source tokens;
    target-side surfaces are added on top. `transition_concentration` is the
    Dirichlet concentration of the chain rows (lower = more predictable), and
    `ambiguity_rate` the fraction of source tokens given a conditional
    translation rule.
    """

    vocab_size: int
    transition_concentration: float = 0.1
    ambiguity_rate: float = 0.2
    min_length: int = 5
    max_length: int = 15
    seed: int = 0

    def __post_init__(self) -> None:
        if self.vocab_size < FIRST_REGULAR:
            raise GenerationError(f"vocab_size < {FIRST_REGULAR}: reserved ids do not fit")
        if self.vocab_size == FIRST_REGULAR:
            raise GenerationError("vocab_size leaves no regular source token")
        if not 0.0 < self.transition_concentration < math.inf:
            raise GenerationError("kappa (transition concentration) must be positive and finite")
        if not 0.0 <= self.ambiguity_rate <= 1.0:
            raise GenerationError("ambiguity_rate must be in [0, 1]")
        if not 1 <= self.min_length <= self.max_length:
            raise GenerationError("need 1 <= min_length <= max_length")
        if self.seed < 0:
            raise GenerationError("seed must be >= 0")

    @property
    def regular_count(self) -> int:
        return self.vocab_size - FIRST_REGULAR

    def corpus_id(self) -> str:
        return (
            f"markov-v{self.vocab_size}-c{self.transition_concentration}"
            f"-a{self.ambiguity_rate}-s{self.seed}"
        )


@dataclass(frozen=True)
class GeneratedCorpus:
    vocabulary: Vocabulary
    lexicon: Lexicon
    sources: tuple[Sentence, ...]
    references: tuple[Sentence, ...]


def _chain(spec: MarkovSourceSpec, entropy) -> tuple[np.ndarray, np.ndarray]:
    """Initial distribution over tokens and transition rows over tokens + end.

    The extra final column of each transition row is the probability of the
    sentence ending after that token, so sentence termination is part of the
    chain and as predictable as the tokens themselves.
    """
    rng = np.random.default_rng(entropy)
    count = spec.regular_count
    initial = rng.dirichlet(np.full(count, spec.transition_concentration))
    transitions = rng.dirichlet(np.full(count + 1, spec.transition_concentration), size=count)
    return initial, transitions


def _build_vocab_and_lexicon(
    spec: MarkovSourceSpec, transitions: np.ndarray, entropy
) -> tuple[Vocabulary, Lexicon]:
    count = spec.regular_count
    rng = np.random.default_rng(entropy)
    n_ambiguous = int(round(spec.ambiguity_rate * count))
    ambiguous_local = sorted(rng.choice(count, size=n_ambiguous, replace=False).tolist())

    source_surfaces = [f"s{r:02d}" for r in range(count)]
    default_surfaces = [f"T{r:02d}" for r in range(count)]
    alt_surfaces = {r: f"A{r:02d}" for r in ambiguous_local}
    tokens = list(RESERVED_SURFACES) + source_surfaces + default_surfaces
    tokens += [alt_surfaces[r] for r in ambiguous_local]
    vocab = Vocabulary(tuple(tokens))

    def sid(r: int) -> int:
        return vocab.lookup(source_surfaces[r])

    default = {sid(r): vocab.lookup(default_surfaces[r]) for r in range(count)}
    conditional = {}
    for r in ambiguous_local:
        # condition on the most likely successor token so the rule actually
        # fires; the end-of-sentence column is not a valid conditioner
        successor = int(np.argmax(transitions[r][:count]))
        conditional[(sid(r), sid(successor))] = vocab.lookup(alt_surfaces[r])
    return vocab, Lexicon(default=default, conditional=conditional)


def _uniforms(rng: np.random.Generator) -> Iterator[float]:
    """`rng.random()`, one value at a time, drawn `UNIFORM_BLOCK` at a time."""
    while True:
        yield from rng.random(UNIFORM_BLOCK).tolist()


def _sample_sources(
    spec: MarkovSourceSpec,
    n_sentences: int,
    initial: np.ndarray,
    transitions: np.ndarray,
    entropy,
) -> tuple[Sentence, ...]:
    """Walk the chain until its end column fires, clamped to the length bounds.

    Inverse-CDF sampling, one uniform per step from `_uniforms`: the same
    values, in the same order, as one `rng.random()` call per step.
    """
    count = spec.regular_count
    cum_initial = np.cumsum(initial).tolist()
    cum_rows = np.cumsum(transitions, axis=1).tolist()
    # a cumsum's total can round below 1, and below a draw: a last bound of
    # +inf puts such a draw in the last column instead of past it
    cum_initial[-1] = math.inf
    for row in cum_rows:
        row[-1] = math.inf
    forced = np.argmax(transitions[:, :count], axis=1).tolist()
    uniform = _uniforms(np.random.default_rng(entropy)).__next__
    min_length, max_length = spec.min_length, spec.max_length
    sentences = []
    for _ in range(n_sentences):
        token = bisect_right(cum_initial, uniform())
        ids = [FIRST_REGULAR + token]
        for length in range(1, max_length):
            nxt = bisect_right(cum_rows[token], uniform())
            if nxt == count:  # end-of-sentence column
                if length >= min_length:
                    break
                # too short to end: fall to the most likely token instead,
                # so the detour stays predictable from the context
                nxt = forced[token]
            token = nxt
            ids.append(FIRST_REGULAR + token)
        sentences.append(tuple(ids))
    return tuple(sentences)


def generate(spec: MarkovSourceSpec, n_sentences: int) -> GeneratedCorpus:
    """Generate vocabulary, lexicon, sources, and references in memory."""
    if n_sentences < 1:
        raise GenerationError("need at least one sentence")
    transition_ss, lexicon_ss, corpus_ss = np.random.SeedSequence(spec.seed).spawn(3)
    initial, transitions = _chain(spec, transition_ss)
    vocab, lexicon = _build_vocab_and_lexicon(spec, transitions, lexicon_ss)
    sources = _sample_sources(spec, n_sentences, initial, transitions, corpus_ss)
    references = tuple(map(lexicon.translate_sentence, sources))
    return GeneratedCorpus(vocabulary=vocab, lexicon=lexicon, sources=sources, references=references)


def generate_out_of_domain_sources(
    spec: MarkovSourceSpec, n_sentences: int, domain_seed: int
) -> tuple[Sentence, ...]:
    """Sources over the same vocabulary from an independently seeded chain."""
    transition_ss, _, corpus_ss = np.random.SeedSequence(domain_seed).spawn(3)
    initial, transitions = _chain(spec, transition_ss)
    return _sample_sources(spec, n_sentences, initial, transitions, corpus_ss)


def write_generated(generated: GeneratedCorpus, out_dir: str | Path) -> tuple[Path, Path, Path]:
    """Write corpus.txt, lexicon.tsv and references.txt into `out_dir`; returns their paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus_path, lexicon_path, refs_path = out / "corpus.txt", out / "lexicon.tsv", out / "references.txt"
    vocab = generated.vocabulary
    write_corpus_lines(corpus_path, (vocab.decode(s) for s in generated.sources))
    save_lexicon(lexicon_path, generated.lexicon, vocab)
    write_corpus_lines(refs_path, (vocab.decode(r) for r in generated.references))
    return corpus_path, lexicon_path, refs_path


def gen_corpus(
    spec: MarkovSourceSpec, n_sentences: int, out_dir: str | Path
) -> tuple[Path, Path, Path]:
    """Write corpus, lexicon, and reference files; returns their paths."""
    return write_generated(generate(spec, n_sentences), out_dir)
