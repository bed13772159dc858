"""N-gram language models over source tokens, used as branch predictors.

The predictor guesses the next source token from the true prefix read so far;
the engine decodes against that guess before the token actually arrives. A
predictor's `predict(context)` gets that prefix as the engine's one source
buffer, valid only for the call: a predictor that keeps it copies it with
`tuple(context)`. The shipped ones read only its tail or its length.
Smoothing is interpolated add-alpha: the maximum-likelihood estimate at each
context order is mixed with the next-lower order using a fixed weight, down
to an add-alpha unigram, so every conditional distribution sums to one over
the model's support.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, dropwhile
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .vocab import (
    BOS, BOS_SURFACE, EOS, EOS_SURFACE, FIRST_REGULAR, PHI_SURFACE, RESERVED_SURFACES, UNK, UNK_SURFACE, Sentence,
    SpecmtError, Vocabulary, read_text, write_artifact,
)


class PredictorError(SpecmtError, ValueError):
    pass


class Prediction(NamedTuple):
    token: int
    probability: float


@dataclass(frozen=True)
class NgramModel:
    """Immutable trained model; `predict` is a pure function of its arguments.

    `counts` maps contexts of every length 0..order-1 (BOS-padded tuples) to
    positive per-token occurrence counts; the empty context counts every token
    any context does. `support` is the prediction event space: EOS and the
    empty context's tokens, in ascending id order. `predict` returns the
    argmax over it, ties going to the smallest id.

    The distribution after a context is one float64 vector that `predict`,
    `probability` and `evaluate` read: a slot per support token, in `support`
    order, then the probability of any unseen token. A vector costs its
    context's counts on top of its one-shorter suffix's, which an uncounted
    context shares. `_vectors` keeps those of contexts shorter than order - 1,
    and `_cache` the `Prediction` of each full context asked for and of its
    longest counted suffix; neither changes any result.
    """

    order: int
    alpha: float
    beta: float
    counts: dict[tuple[int, ...], dict[int, int]]
    vocabulary: Vocabulary
    support: tuple[int, ...] = field(init=False)
    _position: dict[int, int] = field(init=False, repr=False, compare=False)
    _vectors: dict[tuple[int, ...], np.ndarray] = field(init=False, repr=False, compare=False)
    _cache: dict[tuple[int, ...], Prediction] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        support = tuple(sorted({EOS, *self.counts[()]}))
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "_position", {tok: n for n, tok in enumerate(support)})
        object.__setattr__(self, "_vectors", {})
        object.__setattr__(self, "_cache", {})

    def _context(self, prefix: Sequence[int]) -> tuple[int, ...]:
        """Last order-1 tokens, BOS-padded on the left."""
        need = self.order - 1
        ctx = tuple(prefix[-need:]) if need else ()
        if len(ctx) < need:
            ctx = (BOS,) * (need - len(ctx)) + ctx
        return ctx

    def probability(self, token: int, context: Sequence[int]) -> float:
        """Interpolated conditional probability of `token` after `context`."""
        return float(self._vector(self._context(context))[self._position.get(token, len(self.support))])

    def _vector(self, ctx: tuple[int, ...]) -> np.ndarray:
        """The distribution after `ctx`: the add-alpha unigram for the empty
        context, else the suffix's vector, mixed when `ctx` has a count as
        beta * maximum likelihood + (1 - beta) * the suffix's. Each counted
        token's term is added at its slot: to alpha, or to (1 - beta) * the suffix's."""
        p = self._vectors.get(ctx)
        if p is not None:
            return p
        dist = self.counts.get(ctx, {})
        total = sum(dist.values())
        if not ctx:
            p = np.full(len(self.support) + 1, self.alpha)
            for tok, count in dist.items():
                p[self._position[tok]] += count
            p /= total + self.alpha * len(self.support)
        elif total:
            p = (1.0 - self.beta) * self._vector(ctx[1:])
            for tok, count in dist.items():
                p[self._position[tok]] += self.beta * (count / total)
        else:
            p = self._vector(ctx[1:])
        if len(ctx) < self.order - 1:
            self._vectors[ctx] = p
        return p

    def _best(self, p: np.ndarray) -> Prediction:
        """The first maximum of `p`; never its last slot, as no count is below zero."""
        best = int(p.argmax())
        return Prediction(self.support[best], float(p[best]))

    def predict(self, context: Sequence[int]) -> Prediction:
        """Most probable next token; ties break toward the smallest id.

        The engine's context is its source buffer, valid only for the call:
        the cache keys on a tuple copy of its tail, and any other code that
        keeps a context copies it with `tuple(context)`."""
        need = self.order - 1
        # a context with order - 1 tokens needs no padding, so its tail is the key
        ctx = tuple(context[-need:]) if 0 < need <= len(context) else self._context(context)
        cached = self._cache.get(ctx)
        if cached is None:
            known = ctx
            while known and known not in self.counts:
                known = known[1:]
            cached = self._cache.get(known) or self._best(self._vector(known))
            self._cache[ctx] = self._cache[known] = cached
        return cached

    def evaluate(self, corpus: Iterable[Sentence]) -> dict[str, float]:
        """Perplexity and next-token accuracy over a held-out corpus.

        Perplexity covers the full event stream including the end-of-sentence
        terminal. Accuracy is scored over token events only: predicting when
        the source ends is worthless to a speculating consumer (a correct
        guess cannot make any output visible earlier), so it would only add
        noise to the quantity this model is used for.
        """
        vector = functools.cache(self._vector)
        log_prob = 0.0
        correct = 0
        token_events = 0
        total = 0
        for sentence in corpus:
            stream = (*sentence, EOS)
            for t, actual in enumerate(stream):
                p = vector(self._context(stream[:t]))
                log_prob += math.log(max(p[self._position.get(actual, len(self.support))], 1e-300))
                total += 1
                if actual != EOS:
                    token_events += 1
                    correct += self._best(p).token == actual
        if token_events == 0:
            raise PredictorError("empty evaluation corpus")
        return {
            "perplexity": math.exp(-log_prob / total),
            "accuracy": correct / token_events,
            "events": float(token_events),
        }

    def save(self, path: str | Path) -> None:
        """JSON serialization; token ids are written as surface strings."""
        surf = self.vocabulary.surface
        entries = [
            [[surf(t) for t in ctx], surf(tok), count]
            for ctx, dist in sorted(self.counts.items())
            for tok, count in sorted(dist.items())
        ]
        payload = {
            "order": self.order,
            "alpha": self.alpha,
            "beta": self.beta,
            "tokens": list(self.vocabulary.tokens[FIRST_REGULAR:]),
            "counts": entries,
        }
        write_artifact(path, json.dumps(payload, ensure_ascii=False, indent=0) + "\n")


def check_parameters(order: int, alpha: float, beta: float) -> None:
    """Raise `PredictorError` for an order, alpha or beta no model can have."""
    if order < 1:
        raise PredictorError("invalid order: ngram_order must be >= 1")
    if not 0.0 < alpha < math.inf:
        raise PredictorError("alpha must be positive and finite")
    if not 0.0 < beta < 1.0:
        raise PredictorError("beta must be in (0, 1)")


def train_ngram(
    corpus: Sequence[Sentence], order: int, alpha: float = 0.1, beta: float = 0.9, *, vocabulary: Vocabulary
) -> NgramModel:
    """Count n-grams of every order up to `order` with BOS padding and an EOS terminal, one
    `Counter` per order. BOS, EOS or PHI in a sentence, or an id the vocabulary lacks, raises."""
    check_parameters(order, alpha, beta)
    if not corpus:
        raise PredictorError("empty corpus")
    streams = [(BOS,) * (order - 1) + tuple(sentence) + (EOS,) for sentence in corpus]
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    for width in range(order):
        # each gram is `width` context tokens and the token after them, never a BOS pad
        views = ([stream[k:] for stream in streams] for k in range(order - 1 - width, order))
        for gram, count in Counter(chain.from_iterable(map(zip, *views))).items():
            counts.setdefault(gram[:-1], {})[gram[-1]] = count
    # one EOS per sentence, and every other counted id UNK or a regular one
    if counts[()].keys() - range(UNK, len(vocabulary)) != {EOS} or counts[()][EOS] != len(corpus):
        n, token = next((n, t) for n, sentence in enumerate(corpus) for t in sentence if not UNK <= t < len(vocabulary))
        raise PredictorError(f"sentence {n}: token id {token} is a reserved marker or missing from the vocabulary")
    return NgramModel(order=order, alpha=alpha, beta=beta, counts=counts, vocabulary=vocabulary)


def load_ngram(path: str | Path) -> NgramModel:
    """Read a model written by `NgramModel.save`, with the vocabulary its
    `tokens` list gives; any other file raises `PredictorError` naming it."""
    text = read_text(path, PredictorError)
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also an over-long integer or deep nesting
        raise PredictorError(f"{path}: not JSON: {exc}") from None
    try:
        return _model_from_payload(payload)
    except PredictorError as exc:
        raise PredictorError(f"{path}: {exc}") from None


def _model_from_payload(payload: object) -> NgramModel:
    if not isinstance(payload, dict) or set(payload) != {"order", "alpha", "beta", "tokens", "counts"}:
        raise PredictorError("expected an object with keys order, alpha, beta, tokens and counts")
    order, alpha, beta = payload["order"], payload["alpha"], payload["beta"]
    if type(order) is not int or not all(type(x) in (int, float) for x in (alpha, beta)):
        raise PredictorError("order must be an integer, alpha and beta numbers")
    check_parameters(order, alpha, beta)
    tokens, entries = payload["tokens"], payload["counts"]
    if not isinstance(tokens, list) or not all(isinstance(s, str) for s in tokens):
        raise PredictorError("tokens must be a list of strings")
    if len(set(tokens)) != len(tokens) or set(tokens) & set(RESERVED_SURFACES):
        raise PredictorError("tokens must be distinct and not reserved surfaces")
    if any(surface.split() != [surface] for surface in tokens):
        raise PredictorError("tokens must be non-empty and hold no whitespace")
    vocabulary = Vocabulary(RESERVED_SURFACES + tuple(tokens))
    if not isinstance(entries, list):
        raise PredictorError("counts must be a list")
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    markers = (BOS_SURFACE, EOS_SURFACE, PHI_SURFACE)
    for n, entry in enumerate(entries):
        if not (
            isinstance(entry, list) and len(entry) == 3
            and isinstance(entry[0], list) and all(isinstance(s, str) for s in entry[0])
            and isinstance(entry[1], str) and type(entry[2]) is int and entry[2] > 0
        ):
            raise PredictorError(f"counts entry {n}: expected [context strings, token string, positive count]")
        ctx_surfaces, tok_surface, count = entry
        unknown = [s for s in (*ctx_surfaces, tok_surface) if vocabulary.lookup(s) == UNK and s != UNK_SURFACE]
        if unknown:
            raise PredictorError(f"counts entry {n}: token {unknown[0]!r} missing from vocabulary")
        ctx = tuple(vocabulary.lookup(s) for s in ctx_surfaces)
        tok = vocabulary.lookup(tok_surface)
        # training counts EOS but never BOS or PHI, and puts no marker in a context but its leading BOS padding
        if tok_surface in (BOS_SURFACE, PHI_SURFACE):
            raise PredictorError(f"counts entry {n}: counted token {tok_surface!r} is a marker training never counts")
        marker = next((s for s in dropwhile(BOS_SURFACE.__eq__, ctx_surfaces) if s in markers), None)
        if marker is not None:
            raise PredictorError(f"counts entry {n}: context holds {marker!r}; training puts no marker in a context "
                                 f"but its leading {BOS_SURFACE!r} padding")
        if tok in counts.get(ctx, ()):
            raise PredictorError(f"counts entry {n}: duplicate entry")
        counts.setdefault(ctx, {})[tok] = count
    # training counts BOS-padded contexts of every width up to order - 1
    if max(map(len, counts), default=-1) != order - 1:
        raise PredictorError(f"the longest counted context must have order - 1 = {order - 1} tokens")
    # and counts every token in the empty context too, from which `support` is taken
    unigrams = counts.get((), {})
    stray = next((n for n, (_, tok, _) in enumerate(entries) if vocabulary.lookup(tok) not in unigrams), None)
    if stray is not None:
        raise PredictorError(f"counts entry {stray}: token {entries[stray][1]!r} is counted after a context "
                             f"but not in the empty context, where training counts every token")
    return NgramModel(order=order, alpha=alpha, beta=beta, counts=counts, vocabulary=vocabulary)


class OraclePredictor:
    """Always predicts the true next source token; the speculation upper bound.

    `predict` indexes guesses built once by the context's length, all it
    reads of the context: one per source position, then EOS for any longer
    context.
    """

    def __init__(self, source: Sentence):
        self._guesses = tuple(Prediction(token, 1.0) for token in (*source, EOS))

    # each scripted predictor defines its own `predict` rather than inheriting
    # one, so that wrapping the class attribute reaches every call
    def predict(self, context: Sequence[int]) -> Prediction:
        try:
            return self._guesses[len(context)]
        except IndexError:
            return self._guesses[-1]


class AlwaysWrongPredictor:
    """Predicts a fixed source token guaranteed to differ from the truth.

    Adversarial lower bound: every speculation is withdrawn. The guess is
    the lowest of `source_ids` unless that is the true next token, then the
    second lowest distinct one, so the speculative decode always has a
    lexicon rule to apply. Pass the ids the lexicon has rules for (its
    `default` keys); the default, the vocabulary's regular ids, fits a
    generated vocabulary, where the source tokens come first. Its guesses
    are built once, as the oracle's are.
    """

    def __init__(self, source: Sentence, vocab: Vocabulary, source_ids: Iterable[int] | None = None):
        ids = sorted(set(vocab.regular_ids if source_ids is None else source_ids))
        if len(ids) < 2:
            raise PredictorError("vocabulary too small for an always-wrong predictor: it needs two distinct ids")
        lowest, first, second = ids[0], Prediction(ids[0], 1.0), Prediction(ids[1], 1.0)
        self._guesses = tuple(first if truth != lowest else second for truth in (*source, EOS))

    def predict(self, context: Sequence[int]) -> Prediction:
        try:
            return self._guesses[len(context)]
        except IndexError:
            return self._guesses[-1]
