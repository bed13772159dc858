"""N-gram language models over source tokens, used as branch predictors.

The predictor guesses the next source token from the true prefix read so far;
the engine decodes against that guess before the token actually arrives.
Smoothing is interpolated add-alpha: the maximum-likelihood estimate at each
context order is mixed with the next-lower order using a fixed weight, down
to an add-alpha unigram, so every conditional distribution sums to one over
the model's support.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

from .vocab import BOS, EOS, UNK, Sentence, Vocabulary, write_artifact


class PredictorError(ValueError):
    pass


class Prediction(NamedTuple):
    token: int
    probability: float


@dataclass(frozen=True)
class NgramModel:
    """Immutable trained model; `predict` is a pure function of its arguments.

    `counts` maps contexts of every length 0..order-1 (BOS-padded tuples) to
    per-token occurrence counts. `support` is the prediction event space:
    every token id observed in training plus EOS, in ascending id order, so
    argmax ties resolve to the smallest id.
    """

    order: int
    alpha: float
    beta: float
    counts: dict[tuple[int, ...], dict[int, int]]
    support: tuple[int, ...]
    vocabulary: Vocabulary
    _totals: dict[tuple[int, ...], int] = field(init=False, repr=False, compare=False)
    _cache: dict[tuple[int, ...], Prediction] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        totals = {ctx: sum(dist.values()) for ctx, dist in self.counts.items()}
        object.__setattr__(self, "_totals", totals)
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
        return self._prob(token, self._context(context))

    def _prob(self, token: int, ctx: tuple[int, ...]) -> float:
        if not ctx:
            dist = self.counts.get((), {})
            total = self._totals.get((), 0)
            return (dist.get(token, 0) + self.alpha) / (total + self.alpha * len(self.support))
        backoff = self._prob(token, ctx[1:])
        total = self._totals.get(ctx, 0)
        if total == 0:
            return backoff
        ml = self.counts[ctx].get(token, 0) / total
        return self.beta * ml + (1.0 - self.beta) * backoff

    def predict(self, context: Sequence[int]) -> Prediction:
        """Most probable next token; ties break toward the smallest id."""
        ctx = self._context(context)
        cached = self._cache.get(ctx)
        if cached is not None:
            return cached
        best_tok = self.support[0]
        best_p = -1.0
        for tok in self.support:
            p = self._prob(tok, ctx)
            if p > best_p:
                best_tok, best_p = tok, p
        result = Prediction(best_tok, best_p)
        self._cache[ctx] = result
        return result

    def evaluate(self, corpus: Iterable[Sentence]) -> dict[str, float]:
        """Perplexity and next-token accuracy over a held-out corpus.

        Perplexity covers the full event stream including the end-of-sentence
        terminal. Accuracy is scored over token events only: predicting when
        the source ends is worthless to a speculating consumer (a correct
        guess cannot make any output visible earlier), so it would only add
        noise to the quantity this model is used for.
        """
        log_prob = 0.0
        correct = 0
        token_events = 0
        total = 0
        for sentence in corpus:
            stream = list(sentence) + [EOS]
            for t, actual in enumerate(stream):
                prefix = tuple(stream[:t])
                log_prob += math.log(max(self.probability(actual, prefix), 1e-300))
                total += 1
                if actual != EOS:
                    token_events += 1
                    if self.predict(prefix).token == actual:
                        correct += 1
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
            "tokens": list(self.vocabulary.tokens[4:]),
            "counts": entries,
        }
        write_artifact(path, json.dumps(payload, ensure_ascii=False, indent=0) + "\n")


def train_ngram(
    corpus: Sequence[Sentence],
    order: int,
    alpha: float = 0.1,
    beta: float = 0.9,
    vocabulary: Vocabulary | None = None,
) -> NgramModel:
    """Count n-grams of every order up to `order` with BOS padding and an EOS terminal."""
    if order < 1:
        raise PredictorError("invalid order")
    if not corpus:
        raise PredictorError("empty corpus")
    if alpha <= 0:
        raise PredictorError("alpha must be positive")
    if not 0.0 < beta < 1.0:
        raise PredictorError("beta must be in (0, 1)")
    if vocabulary is None:
        raise PredictorError("a vocabulary is required")
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    observed: set[int] = {EOS}
    for sentence in corpus:
        stream = (BOS,) * (order - 1) + tuple(sentence) + (EOS,)
        for t in range(order - 1, len(stream)):
            token = stream[t]
            if token != EOS:
                observed.add(token)
            for width in range(order):
                ctx = stream[t - width : t]
                counts.setdefault(ctx, {}).setdefault(token, 0)
                counts[ctx][token] += 1
    return NgramModel(
        order=order,
        alpha=alpha,
        beta=beta,
        counts=counts,
        support=tuple(sorted(observed)),
        vocabulary=vocabulary,
    )


def load_ngram(path: str | Path, vocabulary: Vocabulary) -> NgramModel:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    missing = [s for s in payload["tokens"] if vocabulary.lookup(s) == UNK and s != vocabulary.surface(UNK)]
    if missing:
        raise PredictorError(f"model tokens missing from vocabulary: {missing[:5]}")
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    observed: set[int] = {EOS}
    for ctx_surfaces, tok_surface, count in payload["counts"]:
        ctx = tuple(vocabulary.lookup(s) for s in ctx_surfaces)
        tok = vocabulary.lookup(tok_surface)
        if tok != EOS:
            observed.add(tok)
        counts.setdefault(ctx, {})[tok] = count
    return NgramModel(
        order=payload["order"],
        alpha=payload["alpha"],
        beta=payload["beta"],
        counts=counts,
        support=tuple(sorted(observed)),
        vocabulary=vocabulary,
    )


class OraclePredictor:
    """Always predicts the true next source token; the speculation upper bound."""

    name = "oracle"
    vocabulary = None

    def __init__(self, source: Sentence):
        self._source = tuple(source)

    def predict(self, context: Sequence[int]) -> Prediction:
        i = len(context)
        if i < len(self._source):
            return Prediction(self._source[i], 1.0)
        return Prediction(EOS, 1.0)


class AlwaysWrongPredictor:
    """Predicts a fixed regular token guaranteed to differ from the truth.

    Adversarial lower bound: every speculation is withdrawn. The fixed token
    is the lowest regular id not equal to the true next token, so the
    speculative decode always has a lexicon rule to apply.
    """

    name = "always_wrong"
    vocabulary = None

    def __init__(self, source: Sentence, vocab: Vocabulary):
        if len(vocab.regular_ids) < 2:
            raise PredictorError("vocabulary too small for an always-wrong predictor")
        self._source = tuple(source)
        self._first, self._second = vocab.regular_ids[0], vocab.regular_ids[1]

    def predict(self, context: Sequence[int]) -> Prediction:
        i = len(context)
        true_next = self._source[i] if i < len(self._source) else EOS
        wrong = self._first if true_next != self._first else self._second
        return Prediction(wrong, 1.0)
