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

from .vocab import BOS, EOS, UNK, UNK_SURFACE, Sentence, Vocabulary, write_artifact


class PredictorError(ValueError):
    pass


class Prediction(NamedTuple):
    token: int
    probability: float


@dataclass(frozen=True)
class NgramModel:
    """Immutable trained model; `predict` is a pure function of its arguments.

    `counts` maps contexts of every length 0..order-1 (BOS-padded tuples) to
    positive per-token occurrence counts. `support` is the prediction event
    space: every token id observed in training plus EOS, in ascending id
    order. `predict` returns the argmax over it, ties going to the smallest id.

    That argmax scores few tokens. A token counted after no non-empty suffix
    of the context gets (1 - beta) times its lower-order probability at every
    level, down to the unigram, with the same float operations for each such
    token; rounding is monotone, so its probability never exceeds that of an
    unseen token with a higher unigram count. So `predict` scores the tokens
    counted after some suffix, then walks `_ranked` (the support by descending
    unigram count, then id) over the unseen tokens for as long as their
    probability equals the first one's.
    """

    order: int
    alpha: float
    beta: float
    counts: dict[tuple[int, ...], dict[int, int]]
    support: tuple[int, ...]
    vocabulary: Vocabulary
    _totals: dict[tuple[int, ...], int] = field(init=False, repr=False, compare=False)
    _unigram: dict[int, int] = field(init=False, repr=False, compare=False)
    _denominator: float = field(init=False, repr=False, compare=False)
    _ranked: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _cache: dict[tuple[int, ...], Prediction] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        totals = {ctx: sum(dist.values()) for ctx, dist in self.counts.items()}
        unigram = self.counts.get((), {})
        object.__setattr__(self, "_totals", totals)
        object.__setattr__(self, "_unigram", unigram)
        object.__setattr__(self, "_denominator", totals.get((), 0) + self.alpha * len(self.support))
        object.__setattr__(self, "_ranked", tuple(sorted(self.support, key=lambda t: (-unigram.get(t, 0), t))))
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
        return self._prob(token, self._chain(self._context(context)))

    def _chain(self, ctx: tuple[int, ...]) -> list[tuple[dict[int, int], int]]:
        """(counts, total) of each suffix of `ctx` with a nonzero total, shortest first."""
        chain = []
        for k in range(len(ctx) - 1, -1, -1):
            total = self._totals.get(ctx[k:], 0)
            if total:
                chain.append((self.counts[ctx[k:]], total))
        return chain

    def _prob(self, token: int, chain: list[tuple[dict[int, int], int]]) -> float:
        """The add-alpha unigram, mixed at each level of `chain`, bottom up:
        beta * maximum likelihood + (1 - beta) * the level below."""
        p = (self._unigram.get(token, 0) + self.alpha) / self._denominator
        for dist, total in chain:
            p = self.beta * (dist.get(token, 0) / total) + (1.0 - self.beta) * p
        return p

    def predict(self, context: Sequence[int]) -> Prediction:
        """Most probable next token; ties break toward the smallest id."""
        ctx = self._context(context)
        cached = self._cache.get(ctx)
        if cached is not None:
            return cached
        chain = self._chain(ctx)
        seen = set().union(*(dist for dist, _ in chain))
        best_tok, best_p = -1, -1.0
        for tok in seen:
            p = self._prob(tok, chain)
            if p > best_p or (p == best_p and tok < best_tok):
                best_tok, best_p = tok, p
        top = None  # the probability of the unseen tokens with the highest unigram count
        for tok in self._ranked:
            if tok in seen:
                continue
            p = self._prob(tok, chain)
            if top is None:
                top = p
            elif p < top:
                break
            if p > best_p or (p == best_p and tok < best_tok):
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


def _check_parameters(order: int, alpha: float, beta: float) -> None:
    if order < 1:
        raise PredictorError("invalid order: ngram_order must be >= 1")
    if not 0.0 < alpha < math.inf:
        raise PredictorError("alpha must be positive and finite")
    if not 0.0 < beta < 1.0:
        raise PredictorError("beta must be in (0, 1)")


def train_ngram(
    corpus: Sequence[Sentence],
    order: int,
    alpha: float = 0.1,
    beta: float = 0.9,
    vocabulary: Vocabulary | None = None,
) -> NgramModel:
    """Count n-grams of every order up to `order` with BOS padding and an EOS terminal."""
    _check_parameters(order, alpha, beta)
    if not corpus:
        raise PredictorError("empty corpus")
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
    """Read a model written by `NgramModel.save`; any other file raises
    `PredictorError` naming it."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return _model_from_payload(payload, vocabulary)
    except UnicodeDecodeError as exc:
        raise PredictorError(f"{path}: not UTF-8 at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise PredictorError(f"{path}: not JSON: {exc}") from None
    except PredictorError as exc:
        raise PredictorError(f"{path}: {exc}") from None


def _model_from_payload(payload: object, vocabulary: Vocabulary) -> NgramModel:
    if not isinstance(payload, dict) or set(payload) != {"order", "alpha", "beta", "tokens", "counts"}:
        raise PredictorError("expected an object with keys order, alpha, beta, tokens and counts")
    order, alpha, beta = payload["order"], payload["alpha"], payload["beta"]
    if type(order) is not int or not all(type(x) in (int, float) for x in (alpha, beta)):
        raise PredictorError("order must be an integer, alpha and beta numbers")
    _check_parameters(order, alpha, beta)
    tokens, entries = payload["tokens"], payload["counts"]
    if not isinstance(tokens, list) or not all(isinstance(s, str) for s in tokens):
        raise PredictorError("tokens must be a list of strings")
    missing = [s for s in tokens if vocabulary.lookup(s) == UNK and s != UNK_SURFACE]
    if missing:
        raise PredictorError(f"model tokens missing from vocabulary: {missing[:5]}")
    if not isinstance(entries, list):
        raise PredictorError("counts must be a list")
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    observed: set[int] = {EOS}
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
        if tok in counts.get(ctx, ()):
            raise PredictorError(f"counts entry {n}: duplicate entry")
        if tok != EOS:
            observed.add(tok)
        counts.setdefault(ctx, {})[tok] = count
    # training counts BOS-padded contexts of every width up to order - 1
    if max(map(len, counts), default=-1) != order - 1:
        raise PredictorError(f"the longest counted context must have order - 1 = {order - 1} tokens")
    return NgramModel(
        order=order,
        alpha=alpha,
        beta=beta,
        counts=counts,
        support=tuple(sorted(observed)),
        vocabulary=vocabulary,
    )


class OraclePredictor:
    """Always predicts the true next source token; the speculation upper bound."""

    def __init__(self, source: Sentence):
        self._source = tuple(source)

    def predict(self, context: Sequence[int]) -> Prediction:
        i = len(context)
        if i < len(self._source):
            return Prediction(self._source[i], 1.0)
        return Prediction(EOS, 1.0)


class AlwaysWrongPredictor:
    """Predicts a fixed source token guaranteed to differ from the truth.

    Adversarial lower bound: every speculation is withdrawn. The fixed token
    is the lowest of `source_ids` not equal to the true next token, so the
    speculative decode always has a lexicon rule to apply. Pass the ids the
    lexicon has rules for (its `default` keys); the default, the
    vocabulary's regular ids, fits a generated vocabulary, where the source
    tokens come first.
    """

    def __init__(self, source: Sentence, vocab: Vocabulary, source_ids: Iterable[int] | None = None):
        ids = vocab.regular_ids if source_ids is None else sorted(source_ids)
        if len(ids) < 2:
            raise PredictorError("vocabulary too small for an always-wrong predictor")
        self._source = tuple(source)
        self._first, self._second = ids[0], ids[1]

    def predict(self, context: Sequence[int]) -> Prediction:
        i = len(context)
        true_next = self._source[i] if i < len(self._source) else EOS
        wrong = self._first if true_next != self._first else self._second
        return Prediction(wrong, 1.0)
