"""Revision-aware latency metrics and corpus BLEU.

Latency is computed from the snapshot matrix, not from write timestamps, so
revised output is charged correctly: a position only counts as produced once
the whole prefix through it has stopped changing.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

from .trace import SnapshotMatrix


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class DelayVector:
    """Per output position, the number of source reads completed before the
    output prefix through that position reached its final value."""

    delays: tuple[int, ...]
    source_length: int

    def __post_init__(self) -> None:
        if self.delays and (min(self.delays) < 0 or max(self.delays) > self.source_length):
            raise MetricsError("delays must lie in [0, source_length]")

    @property
    def target_length(self) -> int:
        return len(self.delays)


def delay_vector(snapshots: SnapshotMatrix) -> DelayVector:
    """Finalization delay of every final-output position.

    Position j finalizes at the smallest row index i such that every row from
    i onward agrees with the final output on every position up to j; a row
    too short to contain a position disagrees at it. So the delay of j is
    one more than the latest row whose first disagreement d_i is before j:
    one pass finds each d_i, scanning only rows a C-level prefix comparison
    rejects, and a running maximum over d gives every delay.
    """
    rows = snapshots.rows
    final = snapshots.final
    m = len(final)
    after = [1] * m  # after[d]: one more than the latest row (1-based) with d_i = d
    for i, row in enumerate(rows[:-1], 1):
        head = row[:m]
        if head == final:
            continue  # agrees with every position of the final output
        n = len(head)
        if head == final[:n]:
            after[n] = i + 1  # a proper prefix: it first disagrees where it ends
        else:
            after[next(k for k in range(n) if head[k] != final[k])] = i + 1
    return DelayVector(delays=tuple(accumulate(after, max)), source_length=len(rows))


def average_lagging(delays: DelayVector) -> float:
    """Mean excess of the delays over the ideal diagonal schedule, over every
    output position.

    AL = (1/J) * sum_{j=1..J} ( g_j - (j-1) / (J/I) )
    """
    g = delays.delays
    src_len = delays.source_length
    if not g:
        raise MetricsError("empty output")
    if src_len < 1:
        raise MetricsError("empty source")
    j_count = len(g)
    rate = j_count / src_len
    total = sum(g[j - 1] - (j - 1) / rate for j in range(1, j_count + 1))
    return total / j_count


def awr(withdrawals: int, target_length: int) -> float:
    """Withdrawals per final output token; may exceed 1."""
    if target_length < 1:
        raise MetricsError("empty output")
    if withdrawals < 0:
        raise MetricsError("negative withdrawal count")
    return withdrawals / target_length


def _ngrams(tokens: Sequence, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _clipped_matches(hyp: Sequence, ref: Sequence, n: int) -> int:
    ref_counts = _ngrams(ref, n)
    return sum(min(count, ref_counts[gram]) for gram, count in _ngrams(hyp, n).items())


def modified_precision(
    hypotheses: Sequence[Sequence], references: Sequence[Sequence], n: int
) -> tuple[int, int]:
    """Corpus-level clipped n-gram matches and total hypothesis n-grams."""
    matched = 0
    total = 0
    for hyp, ref in zip(hypotheses, references):
        matched += _clipped_matches(hyp, ref, n)
        total += max(len(hyp) - n + 1, 0)
    return matched, total


def bleu_stats(hyp: Sequence, ref: Sequence) -> tuple[int, ...]:
    """BLEU sufficient statistics of one sentence pair: clipped n-gram
    matches and hypothesis n-gram totals for n = 1..4, then the hypothesis
    and reference lengths. Corpus statistics are the element-wise sum."""
    stats: list[int] = []
    for n in range(1, 5):
        stats += (_clipped_matches(hyp, ref, n), max(len(hyp) - n + 1, 0))
    stats += (len(hyp), len(ref))
    return tuple(stats)


def sum_bleu_stats(stats: Iterable[Sequence[int]]) -> tuple[int, ...]:
    return tuple(map(sum, zip(*stats)))


def bleu_from_stats(stats: Sequence[int]) -> float:
    """BLEU-4 on a [0, 1] scale from summed `bleu_stats`.

    Uniformly weighted geometric mean of clipped n-gram precisions for
    n = 1..4, times the brevity penalty exp(min(0, 1 - ref_len/hyp_len)).
    No smoothing: any zero precision (including a missing n-gram order)
    yields 0, which is the documented behavior rather than an edge case.
    """
    hyp_len, ref_len = stats[8], stats[9]
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for matched, total in zip(stats[0:8:2], stats[1:8:2]):
        if matched == 0 or total == 0:
            return 0.0
        log_sum += 0.25 * math.log(matched / total)
    brevity = min(0.0, 1.0 - ref_len / hyp_len)
    return math.exp(brevity + log_sum)


def corpus_bleu(hypotheses: Sequence[Sequence], references: Sequence[Sequence]) -> float:
    """Corpus BLEU-4 on a [0, 1] scale, one reference per hypothesis."""
    if len(hypotheses) != len(references):
        raise MetricsError("hypothesis/reference count mismatch")
    if not hypotheses:
        raise MetricsError("empty corpus")
    return bleu_from_stats(sum_bleu_stats(map(bleu_stats, hypotheses, references)))
