"""Deterministic incremental translation model and its read/write policies.

The model translates monotonically: output position p is the lexicon's
translation of source position p in the visible prefix (`Lexicon.translate`).
So a decision depends on the source prefix and on the number of target tokens
written, not on which they are. A policy decides per call whether to emit the
next target token or to request more input by returning PHI.

A policy decides by its `rule` alone: wait-k k, or write when settled. An
adaptive policy is wait-k 1 if its threshold admits an unsettled position's
confidence, else write-when-settled, so policies of equal rule decide alike.
Determinism is load-bearing: identical arguments must always produce the
identical decision, because the speculative engine reuses outputs computed
from predicted prefixes whenever the prediction turns out to be correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .lexicon import Lexicon
from .vocab import EOS, PHI, SpecmtError, Vocabulary

WAIT_K = "wait_k"
ADAPTIVE = "adaptive"
SETTLED = "settled"  # the rule that writes a position once its translation is settled
UNSETTLED_CONFIDENCE = 0.5  # an adaptive policy's confidence in an unsettled position; settled is 1.0


class ModelError(SpecmtError, ValueError):
    pass


def adaptive_threshold(latency_weight: float) -> float:
    """Confidence needed to write under the adaptive policy: min(1.0, 0.4 + L).

    A position whose translation is not yet settled (`Lexicon.settled`: an
    ambiguous token without a visible successor) carries confidence 0.5, so
    latency weights L <= 0.1 accept those risky early writes while larger
    weights hold back until the conditioning token arrives.
    """
    return min(1.0, 0.4 + latency_weight)


@dataclass(frozen=True)
class PolicyConfig:
    kind: str
    k: int | None = None
    latency_weight: float | None = None
    # what `step` decides by: (WAIT_K, k) or (SETTLED, None), derived from the fields above
    rule: tuple[str, int | None] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind == WAIT_K:
            if self.k is None or self.latency_weight is not None:
                raise ModelError("wait-k policy takes exactly k")
            if self.k < 1:
                raise ModelError("k must be >= 1")
            rule = (WAIT_K, self.k)
        elif self.kind == ADAPTIVE:
            if self.latency_weight is None or self.k is not None:
                raise ModelError("adaptive policy takes exactly a latency weight")
            if not 0.0 < self.latency_weight <= 1.0:
                raise ModelError("latency weight must be in (0, 1]")
            # the comparison itself, not L <= 0.1: in floats 0.4 + L is still 0.5 up to L = 0.10000000000000003
            admits_unsettled = UNSETTLED_CONFIDENCE >= adaptive_threshold(self.latency_weight)
            rule = (WAIT_K, 1) if admits_unsettled else (SETTLED, None)
        else:
            raise ModelError(f"unknown policy kind {self.kind!r}")
        object.__setattr__(self, "rule", rule)

    @staticmethod
    def wait_k(k: int) -> PolicyConfig:
        return PolicyConfig(kind=WAIT_K, k=k)

    @staticmethod
    def adaptive(latency_weight: float) -> PolicyConfig:
        return PolicyConfig(kind=ADAPTIVE, latency_weight=latency_weight)

    @property
    def param(self) -> float:
        return float(self.k if self.kind == WAIT_K else self.latency_weight)

    def describe(self) -> str:
        if self.kind == WAIT_K:
            return f"wait_k(k={self.k})"
        return f"adaptive(L={self.latency_weight}, threshold={adaptive_threshold(self.latency_weight)})"


@dataclass(frozen=True)
class SimtModel:
    """Stateless translator: the full decision is a function of step() arguments.

    What `step` reads is fixed at construction: the wait-k `k` of the
    policy's rule, or None for write-when-settled, and the lexicon's bound
    `settled` and `translate`, which keep the one translation rule.
    """

    lexicon: Lexicon
    policy: PolicyConfig
    vocabulary: Vocabulary
    _k: int | None = field(init=False, repr=False, compare=False)
    _settled: Callable[[Sequence[int], int], bool] = field(init=False, repr=False, compare=False)
    _translate: Callable[[Sequence[int], int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        kind, k = self.policy.rule
        object.__setattr__(self, "_k", k if kind == WAIT_K else None)
        object.__setattr__(self, "_settled", self.lexicon.settled)
        object.__setattr__(self, "_translate", self.lexicon.translate)

    def step(self, source_prefix: Sequence[int], written: int, source_done: bool = False) -> int:
        """One incremental decision given the visible source prefix and the
        number of target tokens written so far, by the policy's `rule`.

        Returns PHI when the policy wants another source token, EOS when the
        translation is complete, and the next target token id otherwise.
        `source_done` marks that the end of the source stream has been
        observed (or is being hypothesized, during speculation on a predicted
        end of sequence); once set, the policy never reads again.

        The engine passes its one source buffer as `source_prefix`, which is
        valid only for the call: a translator that keeps the prefix copies it
        with `tuple(source_prefix)`.
        """
        pos = written + 1  # 1-based source position to translate next
        if source_done:
            if pos > len(source_prefix):
                return EOS
        elif self._k is not None:
            if len(source_prefix) < written + self._k:
                return PHI
        elif pos > len(source_prefix) or not self._settled(source_prefix, pos):
            return PHI
        return self._translate(source_prefix, pos)
