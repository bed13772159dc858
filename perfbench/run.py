"""specmt benchmark: sweep throughput, sentence latency and per-module spans.

Run from the repository root:

    python3 perfbench/run.py --workload short --seed 1 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics with nothing instrumented.
`--trace 1` alternates plain and instrumented iterations of the same work and
reports the per-layer metrics. Both run every output check. Metrics are
printed one per line with their units; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.

The benchmark calls only specmt's public functions, from this directory; it
imports the package from the `src` directory next to it and nothing else.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

if not (SRC / "specmt" / "__init__.py").is_file():
    sys.exit(f"perfbench: no specmt package under {SRC}")
sys.path.insert(0, str(SRC))
import specmt  # noqa: E402

if Path(specmt.__file__).resolve().parent != (SRC / "specmt").resolve():
    sys.exit(f"perfbench: imported specmt from {specmt.__file__}, not from {SRC}")

from specmt import experiment  # noqa: E402
from specmt import (  # noqa: E402
    AlwaysWrongPredictor, EngineConfig, OraclePredictor, RunConfig, SimtModel,
    run_baseline, run_speculative,
)
from specmt.vocab import read_corpus_lines  # noqa: E402

from checks import RUN_COLUMNS, digest_rows, read_rows, recompute_mismatches, sweep_digests  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

TRAIN_FRACTION = 0.9  # the sweep's train/test split when the digests were taken
SHARES = {"sweep": 0.45, "metrics": 0.25, "latency": 0.2, "setup": 0.1}  # of --seconds
# Each item is timed at least this often per run; a sweep call is long
# enough that two suffice.
MIN_REPEATS = {"sweep": 2, "metrics": 5, "latency": 5, "setup": 3}
METRICS_STRIDE = 4  # sample pairs per saved trace where the sweep records none
# A timed recompute packs whole policies' traces (each speculative trace with
# its baseline) up to at least this many traces: short enough that the
# machine's speed seldom changes within one. The first and the last item of
# each corpus are timed.
METRICS_ITEM_TRACES = 12
# Timings are scaled to a machine on which the reference kernel takes this
# long (about its time on an idle core of the 2-core VM the bounds were set on).
REFERENCE_S = 1e-3
MIN_TRACED_CYCLES = 2  # so that the span p99s rest on at least 1000 calls


class CountingModel:
    """Duck-typed translator that counts `step` calls and forwards the rest."""

    def __init__(self, model) -> None:
        self._model = model
        self.calls = 0

    def __getattr__(self, name):
        return getattr(self._model, name)

    def step(self, *args, **kwargs):
        self.calls += 1
        return self._model.step(*args, **kwargs)


@dataclass
class Corpus:
    config: object
    data: object
    trained: dict
    directory: Path
    expected_runs: int
    runs_digest: str | None = None
    references: list[str] = field(default_factory=list)
    trace_paths: list[Path] = field(default_factory=list)
    recompute_checked: bool = False
    metrics_items: list[list[Path]] = field(default_factory=list)

    @property
    def out_dir(self) -> Path:
        return Path(self.config.out_dir)


def expected_runs(config) -> int:
    """Rows runs.csv must hold: every baseline and speculative sentence run."""
    test = config.n_sentences - int(config.n_sentences * TRAIN_FRACTION)
    policies = len(config.k_grid) + len(config.l_grid)
    return policies * test * (1 + len(config.tau_grid) * len(config.predictors))


def policy_key(path: Path) -> str:
    """The policy a trace belongs to, from its directory's name: the sweep
    writes `<kind>-<param>-baseline` and `<kind>-<param>-tau<tau>-<predictor>`,
    the sample `<kind>-<param>`."""
    return path.parent.name.split("-tau")[0].removesuffix("-baseline")


def metrics_items(paths: list[Path]) -> list[list[Path]]:
    """The first and the last of a corpus's recompute items: whole policies'
    traces in a row, at least METRICS_ITEM_TRACES each, so that every
    speculative trace meets its baseline."""
    groups: dict[str, list[Path]] = {}
    for path in paths:
        groups.setdefault(policy_key(path), []).append(path)
    items: list[list[Path]] = [[]]
    for group in groups.values():
        if len(items[-1]) >= METRICS_ITEM_TRACES:
            items.append([])
        items[-1].extend(group)
    if len(items) > 1 and len(items[-1]) < METRICS_ITEM_TRACES:
        items[-2].extend(items.pop())
    return [items[0], items[-1]] if len(items) > 1 else items


def percentile_with_tail(values: list[float], pct: int) -> float:
    """The pct-th percentile, refused unless at least ten samples lie beyond it."""
    cut = statistics.quantiles(values, n=100)[pct - 1]
    beyond = sum(1 for v in values if v > cut)
    if beyond < 10:
        raise RuntimeError(f"p{pct} of {len(values)} samples has only {beyond} beyond it")
    return cut


@dataclass
class Task:
    """One kind of measured work, advanced one corpus at a time."""

    share: float  # of the measured wall time
    min_cycles: int  # whole passes over the corpora
    unit: Callable[[int], list[tuple[list, float]]]  # times the work on corpus k: (bucket, seconds)
    after: Task | None = None  # corpus k waits until this task has done it once
    spent: float = 0.0
    done: int = 0


def reference_kernel() -> float:
    """Wall time of a fixed pure-Python workload that runs no specmt code:
    JSON round trip, dict and tuple building, n-gram counting, a sort."""
    start = time.perf_counter()
    rows = [{"i": i, "token": f"w{i % 24}", "p": i / 7} for i in range(300)]
    tokens = [row["token"] for row in json.loads(json.dumps(rows))]
    counts: dict[tuple, int] = {}
    for n in range(1, 5):
        for j in range(len(tokens) - n + 1):
            gram = tuple(tokens[j:j + n])
            counts[gram] = counts.get(gram, 0) + 1
    sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return time.perf_counter() - start


def reference_time() -> float:
    """The kernel's time now: the faster of two calls, so that one
    interrupted call does not count."""
    return min(reference_kernel(), reference_kernel())


def interleave(seconds: float, corpora: int, tasks: list[Task]) -> None:
    """Advance the task furthest behind its time share, one unit at a time,
    so that every metric samples the whole run and not one stretch of it.
    Each unit's timings go to their buckets scaled by REFERENCE_S over the
    reference time measured around the unit. After `seconds`, each task
    finishes its pass over the corpora and its minimum number of passes."""
    perf = time.perf_counter
    deadline = perf() + seconds
    while True:
        late = perf() >= deadline
        open_tasks = [
            t for t in tasks
            if not (late and t.done % corpora == 0 and t.done >= t.min_cycles * corpora)
        ]
        if not open_tasks:
            return
        ready = [t for t in open_tasks if t.after is None or t.after.done > t.done % corpora]
        task = min(ready, key=lambda t: t.spent / t.share)
        before = reference_time()
        start = perf()
        samples = task.unit(task.done % corpora)
        task.spent += perf() - start
        scale = REFERENCE_S / ((before + reference_time()) / 2)
        for bucket, took in samples:
            bucket.append((took, scale))
        task.done += 1


class Bench:
    def __init__(self, workload: Workload, seed: int, seconds: float) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.digest_ok = True
        self.corpora: list[Corpus] = []
        self.pairs: list[list[tuple]] = []  # timed (model, predictor, source, config), per corpus
        self.log: list[str] = []

    # -- output checks -----------------------------------------------------

    def check_digests(self) -> None:
        """Sweep the fixed check corpus and compare its artifacts with the
        digests stored with the benchmark. Doubles as the warm-up."""
        stored = json.loads(DIGESTS.read_text(encoding="utf-8"))[self.workload.name]
        config = self.workload.config(stored["seed"], WORK / "check")
        result = experiment.run_experiment(config)
        runs = expected_runs(config)
        self.attempted += runs
        try:
            got = sweep_digests(Path(config.out_dir), self.workload.from_files)
        except (KeyError, OSError):  # a missing file or column
            got = None
        want = {key: stored[key] for key in got or {}}
        if not result.ok or got is None or got != want:
            self.digest_ok = False
            self.log.append(f"digest mismatch on check seed {stored['seed']}: {result.failures[:3]}")

    def run_sweep(self, corpus: Corpus) -> float:
        """One `run_experiment` call; returns its wall time. Every call on a
        corpus must reproduce the first call's runs.csv."""
        start = time.perf_counter()
        result = experiment.run_experiment(corpus.config)
        wall = time.perf_counter() - start
        self.attempted += corpus.expected_runs
        try:
            rows = read_rows(corpus.out_dir / "runs.csv", RUN_COLUMNS)
        except (KeyError, OSError):  # a missing file or column
            rows = []
        digest = digest_rows(rows)
        if corpus.runs_digest is None:
            corpus.runs_digest = digest
            if self.workload.from_files:
                corpus.trace_paths = sorted((corpus.out_dir / "traces").rglob("*.jsonl"))
        if not result.ok or len(rows) != corpus.expected_runs or digest != corpus.runs_digest:
            self.failed += corpus.expected_runs
            self.log.append(f"{corpus.out_dir}: sweep failed, short or changed: {result.failures[:3]}")
        return wall

    def time_metrics(self, corpus: Corpus, item: list[Path]) -> float:
        """One `write_trace_metrics` call over one recompute item; returns its
        wall time. The item's rows are a subset of the checked full recompute."""
        start = time.perf_counter()
        experiment.write_trace_metrics(item, corpus.directory / "metrics_item", corpus.references)
        wall = time.perf_counter() - start
        self.attempted += len(item)
        return wall

    def run_metrics(self, corpus: Corpus) -> float:
        """One `write_trace_metrics` call over the corpus's traces; the first
        one per corpus is compared row by row with the sweep's runs.csv."""
        out = corpus.directory / "metrics"
        start = time.perf_counter()
        experiment.write_trace_metrics(corpus.trace_paths, out, corpus.references)
        wall = time.perf_counter() - start
        self.attempted += len(corpus.trace_paths)
        if not corpus.recompute_checked:
            corpus.recompute_checked = True
            try:
                bad = recompute_mismatches(
                    corpus.out_dir / "runs.csv", out / "trace_runs.csv", expect_all=self.workload.from_files
                )
            except (KeyError, OSError):  # a missing file or column
                bad = len(corpus.trace_paths)
            if bad:
                self.failed += bad
                self.log.append(f"{corpus.out_dir}: {bad} recomputed rows differ from runs.csv")
        return wall

    # -- set-up and the per-sentence sample ---------------------------------

    def set_up_corpus(self, k: int) -> Corpus:
        """Inputs and predictors for corpus k: the work `setup_s` times."""
        directory = WORK / f"corpus{k}"
        config = self.workload.config(self.workload.corpus_seeds(self.seed)[k], directory)
        data = experiment.prepare_data(config, Path(config.out_dir))
        trained = experiment.build_predictors(config, data)
        return Corpus(config=config, data=data, trained=trained, directory=directory,
                      expected_runs=expected_runs(config))

    def set_up(self) -> None:
        """Every corpus's inputs, predictors and the references `metrics` reads."""
        for k in range(self.workload.corpora):
            corpus = self.set_up_corpus(k)
            references = corpus.config.references or corpus.out_dir / "data" / "references.txt"
            corpus.references = read_corpus_lines(references)
            self.corpora.append(corpus)

    def build_sample(self) -> None:
        """Pick the timed (grid point, sentence) pairs and run each once with
        counting proxies: speculative output must equal the baseline's, and
        speculative step calls must equal baseline step calls plus
        withdrawals. Also warms the predictor caches and, where the sweep
        records no traces, saves every METRICS_STRIDE-th pair's traces (and
        its baseline's) for `metrics`."""
        flat = 0
        for k, corpus in enumerate(self.corpora):
            config, data = corpus.config, corpus.data
            save_dir = corpus.directory / "sample_traces"
            baselines: dict[tuple, tuple] = {}
            pairs = []
            for policy in config.policy_grid():
                model = SimtModel(lexicon=data.lexicon, policy=policy, vocabulary=data.vocabulary)
                for tau in config.tau_grid:
                    for kind in config.predictors:
                        for i, source in enumerate(data.test_sources):
                            flat += 1
                            if flat % self.workload.sample_stride:
                                continue
                            index = data.test_offset + i
                            tagged = dict(
                                policy=policy.kind, param=policy.param, corpus=data.corpus_id,
                                seed=config.seed, sentence_index=index,
                            )
                            key = (policy.describe(), i)
                            if key not in baselines:
                                counting = CountingModel(model)
                                base = run_baseline(counting, source, run_config=RunConfig(**tagged))
                                baselines[key] = (base, counting.calls)
                                self.attempted += 1
                            base, base_calls = baselines[key]
                            if kind == "oracle":
                                predictor = OraclePredictor(source)
                            elif kind == "always_wrong":
                                predictor = AlwaysWrongPredictor(source, data.vocabulary)
                            else:
                                predictor = corpus.trained[kind]
                            engine_config = EngineConfig(tau=tau)
                            counting = CountingModel(model)
                            spec = run_speculative(
                                counting, predictor, source, engine_config,
                                RunConfig(tau=tau, predictor=kind, **tagged),
                            )
                            self.attempted += 1
                            if spec.final_output != base.final_output or counting.calls != base_calls + spec.withdrawals:
                                self.failed += 1
                                self.log.append(f"corpus {k} {policy.describe()} tau={tau} {kind} sentence {index}: "
                                                f"output or step-call identity broken")
                            if not self.workload.from_files and len(pairs) % METRICS_STRIDE == 0:
                                policy_dir = save_dir / f"{policy.kind}-{policy.param}"
                                policy_dir.mkdir(parents=True, exist_ok=True)
                                spec.trace.save(policy_dir / f"spec-{len(pairs):05d}.jsonl")
                                base.trace.save(policy_dir / f"base-{index:05d}.jsonl")
                            pairs.append((model, predictor, source, engine_config))
            self.pairs.append(pairs)
            if not self.workload.from_files:
                corpus.trace_paths = sorted(save_dir.rglob("*.jsonl"))

    # -- measurement --------------------------------------------------------

    def time_sentences(self, k: int, buckets: list[list]) -> list[tuple[list, float]]:
        perf = time.perf_counter
        samples = []
        for times, (model, predictor, source, engine_config) in zip(buckets, self.pairs[k]):
            start = perf()
            run_speculative(model, predictor, source, engine_config)
            samples.append((times, perf() - start))
        self.attempted += len(samples)
        return samples

    def end_to_end(self) -> dict:
        """Every timed item (a corpus's sweep or set-up, a recompute item, one
        sample sentence) is repeated through the run, and counts by the median
        of its scaled repetitions. On a shared VM, other tenants slow the whole
        machine by up to 1.8x for seconds to minutes at a time; they slow the
        reference kernel timed around each unit alike, so the scaled times
        hold still. Sweep throughput is then taken over all corpora together,
        recompute throughput as the median across items, latencies across
        sentences and set-up as the median across corpora."""
        corpora = len(self.corpora)
        setups = [[] for _ in range(corpora)]
        sweeps = [[] for _ in range(corpora)]
        recomputes: list[list[list]] = [[] for _ in range(corpora)]  # per corpus, per item
        latency = [[[] for _ in pairs] for pairs in self.pairs]

        def set_up(k):
            start = time.perf_counter()
            self.set_up_corpus(k)
            return [(setups[k], time.perf_counter() - start)]

        def sweep(k):
            return [(sweeps[k], self.run_sweep(self.corpora[k]))]

        def recompute(k):
            corpus = self.corpora[k]
            if not corpus.recompute_checked:  # the full recompute, checked and not timed
                self.run_metrics(corpus)
                corpus.metrics_items = metrics_items(corpus.trace_paths)
                recomputes[k] = [[] for _ in corpus.metrics_items]
            return [(times, self.time_metrics(corpus, item)) for times, item in zip(recomputes[k], corpus.metrics_items)]

        sweep_task = Task(SHARES["sweep"], MIN_REPEATS["sweep"], sweep)
        interleave(self.seconds, corpora, [
            sweep_task,
            Task(SHARES["metrics"], MIN_REPEATS["metrics"], recompute, after=sweep_task),
            Task(SHARES["latency"], MIN_REPEATS["latency"], lambda k: self.time_sentences(k, latency[k])),
            Task(SHARES["setup"], MIN_REPEATS["setup"], set_up),
        ])
        items = [(len(item), times) for c, per_item in zip(self.corpora, recomputes)
                 for item, times in zip(c.metrics_items, per_item)]
        self.log.append(f"sentence latency: {sum(map(len, latency))} sample sentences, each timed "
                        f"{len(latency[0][0])} times")
        self.log.append(f"recompute: {len(items)} items of {min(n for n, _ in items)}-"
                        f"{max(n for n, _ in items)} traces, each timed {len(items[0][1])} times")
        self.log.append(f"per corpus: {len(sweeps[0])} sweeps, {len(setups[0])} set-ups")

        def scaled(samples: list[tuple[float, float]]) -> float:
            return median(seconds * scale for seconds, scale in samples)

        per_pair = [scaled(times) * 1e6 for pairs in latency for times in pairs]
        return {
            "sweep_runs_per_s": (
                sum(c.expected_runs for c in self.corpora) / sum(map(scaled, sweeps)), "runs/s"),
            "sentence_us_p50": (median(per_pair), "us"),
            "sentence_us_p90": (percentile_with_tail(per_pair, 90), "us"),
            "metrics_traces_per_s": (1 / median(scaled(times) / n for n, times in items), "traces/s"),
            "setup_s": (median(map(scaled, setups)), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def iteration(self, corpus: Corpus) -> float:
        """The researcher's pipeline on one corpus: (write the corpus files,)
        sweep, recompute metrics from traces. Returns the summed wall time."""
        wall = 0.0
        if self.workload.from_files:
            start = time.perf_counter()
            self.workload.config(corpus.config.seed, corpus.directory)
            wall += time.perf_counter() - start
        return wall + self.run_sweep(corpus) + self.run_metrics(corpus)

    def per_layer(self) -> dict:
        """Plain and instrumented iterations on each corpus, alternating which
        goes first (the second one rewrites files the first just wrote)."""
        tracer = Tracer()
        traced_cycles = []
        walls = {False: 0.0, True: 0.0}
        deadline = time.perf_counter() + self.seconds
        while len(traced_cycles) < MIN_TRACED_CYCLES or time.perf_counter() < deadline:
            for k, corpus in enumerate(self.corpora):
                first = (k + len(traced_cycles)) % 2 == 1
                for traced in (first, not first):
                    gc.collect()
                    if traced:
                        tracer.install()
                    try:
                        walls[traced] += self.iteration(corpus)
                    finally:
                        tracer.uninstall()
            traced_cycles.append(tracer.take())
        self.log.append(f"traced: {len(traced_cycles)} cycles of {len(self.corpora)} corpora")
        metrics = layer_metrics(traced_cycles, sum(c.expected_runs for c in self.corpora))
        metrics["trace_overhead_ratio"] = (walls[True] / walls[False], "ratio")
        return metrics


def layer_metrics(traced_cycles: list, runs_per_cycle: int) -> dict:
    """Per-layer metrics from traced cycles. Times are medians over cycles of
    the per-cycle total; counts come from the first cycle (they repeat);
    percentiles pool every call."""
    first_stats, counters = traced_cycles[0]

    def total(name: str, attr: str = "total") -> float:
        return median(getattr(stats[name], attr) if name in stats else 0.0 for stats, _ in traced_cycles)

    def pooled(name: str, attr: str) -> list[float]:
        return [v * 1e6 for stats, _ in traced_cycles if name in stats for v in getattr(stats[name], attr)]

    def calls(name: str, parent: str | None = None) -> int:
        stats = first_stats.get(name)
        if stats is None:
            return 0
        return stats.calls if parent is None else stats.parents[parent]

    spec_runs, base_runs = calls("engine.run_speculative"), calls("engine.run_baseline")
    spec_steps = calls("model.step", "engine.run_speculative")
    base_steps = calls("model.step", "engine.run_baseline")
    spec_predicts = calls("ngram.predict", "engine.run_speculative")
    speculations = counters["speculations"]

    return {
        "engine.run_speculative.self_us_p50": (median(pooled("engine.run_speculative", "self_times")), "us"),
        "engine.run_speculative.self_us_p99": (
            percentile_with_tail(pooled("engine.run_speculative", "self_times"), 99), "us"),
        "engine.run_baseline.self_us_p50": (median(pooled("engine.run_baseline", "self_times")), "us"),
        "model.step.calls": (calls("model.step"), "count"),
        "model.step.total_s": (total("model.step"), "s"),
        "ngram.predict.calls": (calls("ngram.predict"), "count"),
        "ngram.predict.total_s": (total("ngram.predict"), "s"),
        "ngram.predict.us_p99": (percentile_with_tail(pooled("ngram.predict", "durations"), 99), "us"),
        "ngram.train_s": (total("ngram.train"), "s"),
        "markov.generate_s": (total("markov.generate"), "s"),
        "vocab.load_corpus_s": (total("vocab.load_corpus"), "s"),
        "lexicon.load_lexicon_s": (total("lexicon.load_lexicon"), "s"),
        "trace.serialize.total_s": (total("trace.serialize"), "s"),
        "trace.save.total_s": (total("trace.save"), "s"),
        "trace.load.total_s": (total("trace.load"), "s"),
        "trace.parse.total_s": (total("trace.parse"), "s"),
        "trace.replay.total_s": (total("trace.replay"), "s"),
        "trace.bytes_written": (counters["bytes_written"], "bytes"),
        "metrics.delay_vector.total_s": (total("metrics.delay_vector"), "s"),
        "metrics.average_lagging.total_s": (total("metrics.average_lagging"), "s"),
        "metrics.corpus_bleu.total_s": (total("metrics.corpus_bleu"), "s"),
        "experiment.prepare_data_s": (total("experiment.prepare_data"), "s"),
        "experiment.build_predictors_s": (total("experiment.build_predictors"), "s"),
        "experiment.unattributed_s": (total("experiment.run_experiment", "self_total"), "s"),
        "experiment.runs": (runs_per_cycle, "count"),
        "engine.speculations": (speculations, "count"),
        "engine.hits": (counters["hits"], "count"),
        "engine.withdrawals": (counters["withdrawals"], "count"),
        "engine.hit_ratio": (counters["hits"] / speculations if speculations else 0.0, "ratio"),
        # each grid point pairs every speculative run with one baseline run
        "engine.wasted_step_calls": (spec_steps - base_steps * spec_runs // base_runs, "count"),
        "ngram.gated_ratio": ((spec_predicts - speculations) / spec_predicts if spec_predicts else 0.0, "ratio"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    shutil.rmtree(WORK, ignore_errors=True)
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds)
    try:
        bench.check_digests()
        bench.set_up()
        bench.build_sample()
        # The corpora, predictors and sample live for the whole run; a one-shot
        # `specmt sweep` process holds none of them, so keep the collector
        # from rescanning them during timed calls.
        gc.collect()
        gc.freeze()
        metrics = bench.per_layer() if args.trace else bench.end_to_end()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    failed = bench.attempted if not bench.digest_ok else min(bench.failed, bench.attempted)
    if args.trace:
        metrics["error_rate"] = (failed / bench.attempted, "ratio")
    for line in bench.log:
        print(f"# {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
