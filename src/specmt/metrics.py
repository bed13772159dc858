"""Revision-aware latency metrics and BLEU from summed sentence statistics.

Latency is computed from the finalization delays a trace replays to, not from
write timestamps, so revised output is charged correctly: a position only
counts as produced once the whole prefix through it has stopped changing.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, repeat
from operator import sub, truediv
from typing import Iterable, Sequence

from .vocab import SpecmtError


class MetricsError(SpecmtError, ValueError):
    pass


def average_lagging(delays: Sequence[int], source_length: int) -> float:
    """Mean excess of the delays over the ideal diagonal schedule, over every
    output position.

    AL = (1/J) * sum_{j=1..J} ( g_j - (j-1) / (J/I) )
    """
    if not delays:
        raise MetricsError("empty output")
    if source_length < 1:
        raise MetricsError("empty source")
    j_count = len(delays)
    rate = j_count / source_length
    return sum(map(sub, delays, map(truediv, range(j_count), repeat(rate)))) / j_count


def awr(withdrawals: int, target_length: int) -> float:
    """Withdrawals per final output token; may exceed 1."""
    if target_length < 1:
        raise MetricsError("empty output")
    if withdrawals < 0:
        raise MetricsError("negative withdrawal count")
    return withdrawals / target_length


def _gram_counts(t: Sequence) -> Counter:
    """Every n-gram of `t`, n = 1..4, in one count: orders differ in tuple length."""
    return Counter(chain(zip(t), zip(t, t[1:]), zip(t, t[1:], t[2:]), zip(t, t[1:], t[2:], t[3:])))


def bleu_stats(hyp: Sequence, ref: Sequence) -> tuple[int, ...]:
    """BLEU sufficient statistics of one sentence pair: clipped n-gram
    matches and hypothesis n-gram totals for n = 1..4, then the hypothesis
    and reference lengths. Corpus statistics are the element-wise sum.
    One count per side holds all four orders; order n's matches are its total
    less the excess of its hypothesis grams over the reference's counts. An
    output equal to its reference matches its totals and is not counted."""
    hyp, ref = tuple(hyp), tuple(ref)
    totals = [max(len(hyp) - n, 0) for n in range(4)]
    excess = [0, 0, 0, 0]
    if hyp != ref:
        in_ref = _gram_counts(ref).get
        for gram, count in _gram_counts(hyp).items():
            if (over := count - in_ref(gram, 0)) > 0:
                excess[len(gram) - 1] += over
    return (*chain.from_iterable(zip(map(sub, totals, excess), totals)), len(hyp), len(ref))


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

