"""Spans around specmt's public calls, installed from outside the package.

`Tracer.install()` replaces each instrumented function in every `specmt`
module namespace that binds it, and each instrumented method on its class,
with a wrapper that records a span: duration, self time (duration minus the
spans it caused) and the name of the enclosing span. `uninstall()` puts the
originals back. Spans stay in memory; nothing is written while measuring.

Only names that the package still defines are wrapped, so a later refactor
that removes one leaves its span empty instead of breaking the benchmark.
"""

from __future__ import annotations

import importlib
import os
import sys
import time
from collections import Counter

# (module, attribute) -> span name. Several functions may share a span name
# when they do the same job (both chain samplers, both lexicon readers).
FUNCTION_SPANS = {
    ("specmt.markov", "generate"): "markov.generate",
    ("specmt.markov", "generate_out_of_domain_sources"): "markov.generate",
    ("specmt.markov", "gen_corpus"): "markov.gen_corpus",
    ("specmt.ngram", "train_ngram"): "ngram.train",
    ("specmt.vocab", "load_corpus"): "vocab.load_corpus",
    ("specmt.lexicon", "read_lexicon_vocabulary"): "lexicon.load_lexicon",
    ("specmt.lexicon", "load_lexicon"): "lexicon.load_lexicon",
    ("specmt.engine", "run_baseline"): "engine.run_baseline",
    ("specmt.engine", "run_speculative"): "engine.run_speculative",
    ("specmt.trace", "snapshot_from_trace"): "trace.replay",
    ("specmt.trace", "load_trace"): "trace.load",
    ("specmt.trace", "parse_trace"): "trace.parse",
    ("specmt.metrics", "delay_vector"): "metrics.delay_vector",
    ("specmt.metrics", "average_lagging"): "metrics.average_lagging",
    ("specmt.metrics", "corpus_bleu"): "metrics.corpus_bleu",
    ("specmt.experiment", "prepare_data"): "experiment.prepare_data",
    ("specmt.experiment", "build_predictors"): "experiment.build_predictors",
    ("specmt.experiment", "run_experiment"): "experiment.run_experiment",
    ("specmt.experiment", "write_trace_metrics"): "experiment.write_trace_metrics",
}

# (module, class, method) -> span name. The engine duck-types the translator
# and the predictor, so wrapping the class attribute reaches every instance,
# including the ones `run_experiment` builds internally.
METHOD_SPANS = {
    ("specmt.model", "SimtModel", "step"): "model.step",
    ("specmt.ngram", "NgramModel", "predict"): "ngram.predict",
    ("specmt.ngram", "OraclePredictor", "predict"): "ngram.predict",
    ("specmt.ngram", "AlwaysWrongPredictor", "predict"): "ngram.predict",
    ("specmt.trace", "EventTrace", "serialize"): "trace.serialize",
    ("specmt.trace", "EventTrace", "save"): "trace.save",
}

# Spans whose per-call durations are kept for percentiles.
SAMPLED = frozenset({"engine.run_speculative", "engine.run_baseline", "ngram.predict"})


class SpanStats:
    """Everything recorded for one span name."""

    __slots__ = ("calls", "total", "self_total", "parents", "durations", "self_times")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0
        self.parents: Counter = Counter()
        self.durations: list[float] = []
        self.self_times: list[float] = []


class Tracer:
    """Collects spans while installed; `take()` hands over and resets them."""

    def __init__(self) -> None:
        self._stack: list[list] = []  # one [child_time, name] frame per open span
        self._patches: list[tuple[object, str, object]] = []
        self.stats: dict[str, SpanStats] = {}
        self.counters: Counter = Counter()

    def take(self) -> tuple[dict[str, SpanStats], Counter]:
        stats, counters = self.stats, self.counters
        self.stats, self.counters = {}, Counter()
        return stats, counters

    def _wrap(self, name: str, fn, after=None):
        stack = self._stack
        perf = time.perf_counter
        tracer = self
        sampled = name in SAMPLED

        def span(*args, **kwargs):
            frame = [0.0, name]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf() - start
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[0] += duration
                stats = tracer.stats.get(name)
                if stats is None:
                    stats = tracer.stats[name] = SpanStats()
                stats.calls += 1
                stats.total += duration
                stats.self_total += duration - frame[0]
                stats.parents[parent[1] if parent is not None else None] += 1
                if sampled:
                    stats.durations.append(duration)
                    stats.self_times.append(duration - frame[0])
            if after is not None:
                after(args, kwargs, result)
            return result

        span.__wrapped__ = fn
        return span

    def _count_run(self, args, kwargs, result) -> None:
        self.counters["speculations"] += result.speculations
        self.counters["hits"] += result.hits
        self.counters["withdrawals"] += result.withdrawals

    def _count_bytes(self, args, kwargs, result) -> None:
        path = kwargs["path"] if "path" in kwargs else args[1]
        self.counters["bytes_written"] += os.path.getsize(path)

    def install(self) -> None:
        hooks = {"engine.run_speculative": self._count_run, "trace.save": self._count_bytes}
        wrappers = {}
        for (module_name, attr), name in FUNCTION_SPANS.items():
            original = getattr(importlib.import_module(module_name), attr, None)
            if callable(original):
                wrappers[original] = self._wrap(name, original, hooks.get(name))
        # Rebind in every module that imported the function by name, so that
        # calls between modules and within one module are both seen.
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "specmt" or module_name.startswith("specmt.")):
                continue
            for attr, value in list(vars(module).items()):
                if callable(value) and value in wrappers:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        for (module_name, class_name, attr), name in METHOD_SPANS.items():
            cls = getattr(importlib.import_module(module_name), class_name, None)
            original = vars(cls).get(attr) if cls is not None else None
            if callable(original):
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, hooks.get(name)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
