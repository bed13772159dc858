"""Experiment sweeps: grids over policies, thresholds, and predictors.

Each grid point runs a baseline pass and a speculative pass over the test
split, verifies inline that speculation left the output untouched, and emits
one CSV row per run, scored by `score_run` exactly as `metrics` scores a
trace file, plus a summary row per grid point, paired and aggregated by
`summarize` exactly as `metrics` pairs trace files. The whole pipeline is
a deterministic function of the configuration, so repeated runs produce
byte-identical CSVs.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
from dataclasses import dataclass, field, fields, replace
from functools import cache
from pathlib import Path
from typing import Mapping, Sequence, get_args, get_origin, get_type_hints

from .engine import EngineConfig, EngineError, run_baseline, run_speculative
from .lexicon import Lexicon, load_lexicon, read_lexicon_vocabulary
from .markov import GenerationError, MarkovSourceSpec, generate, generate_out_of_domain_sources, write_generated
from .metrics import MetricsError, average_lagging, awr, bleu_from_stats, bleu_stats, delay_vector, sum_bleu_stats
from .model import ModelError, PolicyConfig, SimtModel
from .ngram import AlwaysWrongPredictor, NgramModel, OraclePredictor, PredictorError, _check_parameters, train_ngram
from .trace import (
    COMMIT, SPECULATE, WITHDRAW, EventTrace, RunConfig, TraceError, load_trace, snapshot_from_trace,
)
from .vocab import Sentence, Vocabulary, load_corpus, read_corpus_lines, write_artifact

TRAIN_FRACTION = 0.9  # split by sentence index, fixed before anything else
OOD_SEED_OFFSET = 1  # out-of-domain chain seed = task seed + 1

RUN_COLUMNS = ["run_id", "policy", "param", "tau", "predictor", "I", "J", "W", "S", "H", "AL", "AWR", "BLEU"]
SUMMARY_COLUMNS = [
    "policy", "param", "tau", "predictor", "sentences",
    "al_baseline", "al_speculative", "al_diff", "awr", "bleu", "accuracy",
    "speculations", "hits", "withdrawals",
]
# what `summarize` gives, and `metrics` writes: a predictor's accuracy is not in a trace
PAIRED_COLUMNS = [col for col in SUMMARY_COLUMNS if col != "accuracy"]

PREDICTOR_KINDS = ("indomain", "outdomain", "oracle", "always_wrong")
OWNED_DIRS = ("traces", "data")  # subdirectories of out_dir that a sweep clears and rewrites
# what `plot_data` writes beside summary.csv; a sweep removes them, as they describe an earlier summary
FIGURE_FILES = (
    "fig1_latency_improvement.csv", "fig2_quality_latency.csv",
    "fig4_predictor_comparison.csv", "fig6_threshold_tradeoff.csv",
)


class ExperimentError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat configuration; every field maps to one config-file key."""

    corpus: str | None = None
    lexicon: str | None = None
    references: str | None = None
    vocab_size: int = 24
    kappa: float = 0.1
    ambiguity_rate: float = 0.2
    min_length: int = 5
    max_length: int = 15
    n_sentences: int = 400
    seed: int = 0
    k_grid: tuple[int, ...] = (1, 3, 5, 7, 9)
    l_grid: tuple[float, ...] = ()
    tau_grid: tuple[float, ...] = (0.0,)
    predictors: tuple[str, ...] = ("indomain",)
    ngram_order: int = 2
    alpha: float = 0.1
    beta: float = 0.9
    out_dir: str = "results"
    record_traces: bool = False

    def __post_init__(self) -> None:
        for kind in self.predictors:
            if kind not in PREDICTOR_KINDS:
                raise ExperimentError(f"unknown predictor kind {kind!r}")
        if not self.k_grid and not self.l_grid:
            raise ExperimentError("empty policy grid")
        if not self.tau_grid:
            raise ExperimentError("empty tau grid")
        if self.corpus is not None and (self.lexicon is None or self.references is None):
            raise ExperimentError("a corpus path needs lexicon and references paths")
        for name in ("k_grid", "l_grid", "tau_grid", "predictors"):
            if len(set(getattr(self, name))) != len(getattr(self, name)):
                raise ExperimentError(f"duplicate value in {name}")
        if "outdomain" in self.predictors and self.corpus is not None:
            raise ExperimentError("predictors: out-of-domain predictor needs a generated corpus")
        # Every value is checked here, before a sweep touches its output directory.
        # The messages of the source spec and the n-gram check name their keys.
        for key, check in (
            ("k_grid", lambda: [PolicyConfig.wait_k(k) for k in self.k_grid]),
            ("l_grid", lambda: [PolicyConfig.adaptive(l) for l in self.l_grid]),
            ("tau_grid", lambda: [EngineConfig(tau=tau) for tau in self.tau_grid]),
            ("", self.source_spec),
            ("", lambda: _check_parameters(self.ngram_order, self.alpha, self.beta)),
        ):
            try:
                check()
            except (ModelError, EngineError, GenerationError, PredictorError) as exc:
                raise ExperimentError(f"{key}: {exc}" if key else str(exc)) from None

    def policy_grid(self) -> list[PolicyConfig]:
        points = [PolicyConfig.wait_k(k) for k in self.k_grid]
        points += [PolicyConfig.adaptive(l) for l in self.l_grid]
        return points

    def source_spec(self) -> MarkovSourceSpec:
        return MarkovSourceSpec(
            vocab_size=self.vocab_size,
            transition_concentration=self.kappa,
            ambiguity_rate=self.ambiguity_rate,
            min_length=self.min_length,
            max_length=self.max_length,
            seed=self.seed,
        )


_KEY_TYPES = get_type_hints(ExperimentConfig)
_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True, "0": False, "false": False, "no": False, "off": False}


def parse_config_text(text: str) -> dict[str, object]:
    """Parse the flat `key = value` format; '#' starts a comment."""
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ExperimentError(f"config line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            out[key] = coerce_config_value(key, value)
        except ExperimentError as exc:
            raise ExperimentError(f"config line {lineno}: {exc}") from None
    return out


def coerce_config_value(key: str, value: str) -> object:
    """The value of one config key, typed by `ExperimentConfig`'s annotation."""
    if key not in _KEY_TYPES:
        raise ExperimentError(f"unknown key {key!r}")
    kind = _KEY_TYPES[key]
    try:
        if kind is bool:
            return _BOOL_WORDS[value.lower()]
        if kind in (int, float):
            return kind(value)
        if get_origin(kind) is tuple:
            return tuple(get_args(kind)[0](v.strip()) for v in value.split(",") if v.strip())
    except (KeyError, ValueError):
        raise ExperimentError(f"bad value for {key!r}: {value!r}") from None
    return value


def load_config(path: str | Path | None, overrides: dict[str, object] | None = None) -> ExperimentConfig:
    """The config file at `path` (none: the defaults), with `overrides` on top."""
    values: dict[str, object] = {}
    if path is not None:
        try:
            values = parse_config_text(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ExperimentError(f"{path}: not UTF-8 at byte {exc.start}") from None
        except ExperimentError as exc:
            raise ExperimentError(f"{path}: {exc}") from None
    values.update(overrides or {})
    return ExperimentConfig(**values)


@dataclass(frozen=True)
class PreparedData:
    vocabulary: Vocabulary
    lexicon: Lexicon
    train_sources: tuple[Sentence, ...]
    test_sources: tuple[Sentence, ...]
    test_references: tuple[Sentence, ...]
    corpus_id: str
    test_offset: int  # sentence index of the first test sentence
    test_lines: tuple[int, ...]  # physical corpus line of each test sentence


def prepare_data(config: ExperimentConfig, out_dir: Path | None = None) -> PreparedData:
    """Load or generate the corpus and split it 90/10 by sentence index."""
    if config.corpus is not None:
        vocab = read_lexicon_vocabulary(config.lexicon)
        lexicon = load_lexicon(config.lexicon, vocab)
        numbered = load_corpus(config.corpus, vocab)
        references = tuple(vocab.encode(line) for line in read_corpus_lines(config.references))
        corpus_id = Path(config.corpus).name
    else:
        generated = generate(config.source_spec(), config.n_sentences)
        vocab, lexicon = generated.vocabulary, generated.lexicon
        numbered, references = dict(enumerate(generated.sources, 1)), generated.references
        corpus_id = config.source_spec().corpus_id()
        if out_dir is not None:
            write_generated(generated, out_dir / "data")
    sources = tuple(numbered.values())
    if len(sources) != len(references):
        raise ExperimentError("corpus and references differ in length")
    split = int(len(sources) * TRAIN_FRACTION)
    if split == 0 or split == len(sources):
        raise ExperimentError("corpus too small for a train/test split")
    return PreparedData(
        vocabulary=vocab,
        lexicon=lexicon,
        train_sources=sources[:split],
        test_sources=sources[split:],
        test_references=references[split:],
        corpus_id=corpus_id,
        test_offset=split,
        test_lines=tuple(numbered)[split:],
    )


@dataclass
class ExperimentResult:
    out_dir: Path
    failures: list[str] = field(default_factory=list)
    summary_rows: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _speculative_accuracy(kind: str, trained: dict[str, NgramModel], data: PreparedData) -> float:
    if kind == "oracle":
        return 1.0
    if kind == "always_wrong":
        return 0.0
    return trained[kind].evaluate(data.test_sources)["accuracy"]


def build_predictors(config: ExperimentConfig, data: PreparedData) -> dict[str, NgramModel]:
    """Train the n-gram predictors the grid asks for."""
    trained: dict[str, NgramModel] = {}
    if "indomain" in config.predictors:
        trained["indomain"] = train_ngram(
            data.train_sources, config.ngram_order, config.alpha, config.beta, data.vocabulary
        )
    if "outdomain" in config.predictors:
        ood_sources = generate_out_of_domain_sources(
            config.source_spec(), len(data.train_sources), config.seed + OOD_SEED_OFFSET
        )
        trained["outdomain"] = train_ngram(
            ood_sources, config.ngram_order, config.alpha, config.beta, data.vocabulary
        )
    return trained


def _clear_outputs(config: ExperimentConfig, out_dir: Path) -> None:
    """Remove what an earlier run left in `out_dir`'s owned subdirectories,
    its figures and meta.json, so that a re-run leaves exactly the files of a
    fresh run and an interrupted one has no meta.json. A subdirectory that
    holds this run's own corpus, lexicon or references is kept."""
    inputs = [Path(p).resolve() for p in (config.corpus, config.lexicon, config.references) if p is not None]
    for name in OWNED_DIRS:
        owned = out_dir / name
        if owned.is_dir() and not any(p.is_relative_to(owned.resolve()) for p in inputs):
            shutil.rmtree(owned)
    for name in (*FIGURE_FILES, "meta.json"):
        (out_dir / name).unlink(missing_ok=True)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    out_dir = Path(config.out_dir)
    _clear_outputs(config, out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = prepare_data(config, out_dir)
    trained = build_predictors(config, data)
    result = ExperimentResult(out_dir=out_dir)
    surface = data.vocabulary.surface
    sentence_bleu_stats = _bleu_stats_memo(
        {data.test_offset + i: tuple(map(surface, ref)) for i, ref in enumerate(data.test_references)}
    )

    def run_point(point: str, trace_name: str, run_one, baseline_outputs=None):
        """Run, score, save and check every test sentence of one grid point.
        Returns the outputs and the rows, or None after recording the error
        of the sentence whose run or scoring raised one."""
        trace_dir = out_dir / "traces" / trace_name
        if config.record_traces:
            trace_dir.mkdir(parents=True, exist_ok=True)
        outputs: list[Sentence] = []
        rows: list[dict] = []
        for i, source in enumerate(data.test_sources):
            index = data.test_offset + i
            where = f"{point}: sentence {index} (corpus line {data.test_lines[i]})"
            try:
                run = run_one(source, index)
                row, final = score_run(run.trace, sentence_bleu_stats)
            except Exception as exc:
                result.failures.append(f"{where}: {exc}")
                return None
            if config.record_traces:
                run.trace.save(trace_dir / f"{index:05d}.jsonl")
            if baseline_outputs is not None and run.final_output != baseline_outputs[i]:
                result.failures.append(f"{where}: speculative output differs")
            if tuple(map(surface, run.final_output)) != final:
                result.failures.append(f"{where}: snapshot disagrees with output")
            outputs.append(run.final_output)
            rows.append(row)
        return outputs, rows

    run_rows: list[dict] = []
    for policy in config.policy_grid():
        model = SimtModel(lexicon=data.lexicon, policy=policy, vocabulary=data.vocabulary)
        tagged = RunConfig(policy=policy.kind, param=policy.param, corpus=data.corpus_id, seed=config.seed)
        baseline = run_point(
            f"baseline {policy.describe()}", f"{policy.kind}-{policy.param}-baseline",
            lambda source, index: run_baseline(model, source, replace(tagged, sentence_index=index)),
        )
        if baseline is None:
            continue
        baseline_outputs, base_rows = baseline
        run_rows.extend(base_rows)
        for tau in config.tau_grid:
            engine_config = EngineConfig(tau=tau)
            for kind in config.predictors:
                point = run_point(
                    f"{policy.describe()} tau={tau} predictor={kind}",
                    f"{policy.kind}-{policy.param}-tau{tau}-{kind}",
                    lambda source, index: run_speculative(
                        model, _predictor_for(kind, trained, source, data), source, engine_config,
                        replace(tagged, tau=tau, predictor=kind, sentence_index=index),
                    ),
                    baseline_outputs,
                )
                if point is not None:
                    run_rows.extend(point[1])

    result.summary_rows = summarize(run_rows)
    kinds = {row["predictor"] for row in result.summary_rows}
    accuracy = {kind: _speculative_accuracy(kind, trained, data) for kind in kinds}
    for row in result.summary_rows:
        row["accuracy"] = accuracy[row["predictor"]]
    _write_csv(out_dir / "runs.csv", RUN_COLUMNS, run_rows)
    _write_csv(out_dir / "summary.csv", SUMMARY_COLUMNS, result.summary_rows)
    meta = {
        "corpus_id": data.corpus_id,
        "data": "synthetic first-order Markov corpus" if config.corpus is None else "user-supplied corpus",
        "translator": "deterministic lexical transducer",
        "predictor": f"add-alpha interpolated {config.ngram_order}-gram",
        "train_fraction": TRAIN_FRACTION,
        "config": {f.name: getattr(config, f.name) for f in fields(ExperimentConfig)},
        "failures": result.failures,
    }
    write_artifact(out_dir / "meta.json", json.dumps(meta, indent=2, default=list) + "\n")  # last: marks a finished run
    return result


def _predictor_for(kind: str, trained: dict[str, NgramModel], source: Sentence, data: PreparedData):
    if kind == "oracle":
        return OraclePredictor(source)
    if kind == "always_wrong":
        return AlwaysWrongPredictor(source, data.vocabulary, data.lexicon.default)
    return trained[kind]


def _bleu_stats_memo(references: Mapping[int, Sequence[str]] | Sequence[Sequence[str]]):
    """`bleu_stats(final, references[index])`, counted once per `(index, final)`:
    exact, as the key is all it depends on, and a sweep's outputs repeat."""
    return cache(lambda index, final: bleu_stats(final, references[index]))


def score_run(trace: EventTrace, sentence_bleu_stats=None) -> tuple[dict, tuple[str, ...]]:
    """Replay one run's trace into its `RUN_COLUMNS` row, plus its
    `sentence_index` and its `bleu_stats`, and return the row with the final
    output the trace replays to. The statistics are
    `sentence_bleu_stats(sentence_index, final)`; BLEU is left empty without
    that lookup. An inconsistent trace raises `TraceError`."""
    cfg = trace.run_config
    counts = trace.kind_counts()
    snapshots = snapshot_from_trace(trace)
    final = snapshots.final
    stats = None if sentence_bleu_stats is None else sentence_bleu_stats(cfg.sentence_index, final)
    delays = delay_vector(snapshots)
    return {
        "run_id": f"{cfg.policy}-{cfg.param}-tau{cfg.tau}-{cfg.predictor}-{cfg.sentence_index:05d}",
        "policy": cfg.policy,
        "param": cfg.param,
        "tau": cfg.tau,
        "predictor": cfg.predictor,
        "I": delays.source_length,
        "J": len(final),
        "W": counts[WITHDRAW],
        "S": counts[SPECULATE],
        "H": counts[COMMIT],
        "AL": average_lagging(delays),
        "AWR": awr(counts[WITHDRAW], len(final)),
        "BLEU": "" if stats is None else bleu_from_stats(stats),
        "sentence_index": cfg.sentence_index,
        "bleu_stats": stats,
    }, final


def summarize(run_rows: Sequence[dict]) -> list[dict]:
    """The `PAIRED_COLUMNS` row of every speculative grid point
    `(policy, param, tau, predictor)` among `score_run` rows, in order of
    first appearance. Each speculative run is paired with the baseline run
    (predictor "none") of the same policy, param and sentence index; sums
    run in row order. BLEU is left empty when a run has no reference."""
    baselines = {(r["policy"], r["param"], r["sentence_index"]): r for r in run_rows if r["predictor"] == "none"}
    groups: dict[tuple, list[dict]] = {}
    for row in run_rows:
        if row["predictor"] != "none":
            groups.setdefault((row["policy"], row["param"], row["tau"], row["predictor"]), []).append(row)
    summary = []
    for (policy, param, tau, predictor), rows in groups.items():
        missing = [r["sentence_index"] for r in rows if (policy, param, r["sentence_index"]) not in baselines]
        if missing:
            raise ExperimentError(f"no baseline trace for {policy} param={param} sentences {missing[:5]}")
        al_base = sum(baselines[(policy, param, r["sentence_index"])]["AL"] for r in rows) / len(rows)
        al_spec = sum(r["AL"] for r in rows) / len(rows)
        stats = [r["bleu_stats"] for r in rows]
        summary.append({
            "policy": policy,
            "param": param,
            "tau": tau,
            "predictor": predictor,
            "sentences": len(rows),
            "al_baseline": al_base,
            "al_speculative": al_spec,
            "al_diff": al_base - al_spec,
            "awr": sum(r["W"] for r in rows) / sum(r["J"] for r in rows),
            "bleu": "" if None in stats else bleu_from_stats(sum_bleu_stats(stats)),
            "speculations": sum(r["S"] for r in rows),
            "hits": sum(r["H"] for r in rows),
            "withdrawals": sum(r["W"] for r in rows),
        })
    return summary


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    text = io.StringIO()
    writer = csv.DictWriter(text, fieldnames=columns)
    writer.writeheader()
    writer.writerows({col: row[col] for col in columns} for row in rows)
    write_artifact(path, text.getvalue())


def plot_data(results_dir: str | Path, max_awr: float | None = None) -> list[Path]:
    """Reshape summary.csv into one plot-ready CSV per figure analog."""
    results = Path(results_dir)
    summary_path = results / "summary.csv"
    if not summary_path.exists():
        raise ExperimentError(f"missing summary.csv in {results}")
    with summary_path.open(encoding="utf-8", newline="") as handle:
        reader = csv.DictReader(handle)
        rows = list(reader)
        for column in SUMMARY_COLUMNS:
            if reader.fieldnames is None or column not in reader.fieldnames:
                raise ExperimentError(f"missing column {column!r} in {summary_path}")
    if not rows:
        raise ExperimentError(f"no summary rows in {summary_path}")

    latency_rows = rows if max_awr is None else [r for r in rows if float(r["awr"]) <= max_awr]
    quality_rows: dict[tuple, dict] = {}  # the first row of each policy and parameter
    for row in rows:
        quality_rows.setdefault((row["policy"], row["param"]), {
            "policy": row["policy"], "param": row["param"], "al": row["al_baseline"], "bleu": row["bleu"],
        })
    threshold_rows = sorted(rows, key=lambda r: (r["policy"], float(r["param"]), r["predictor"], float(r["tau"])))
    figures = (  # in the order of FIGURE_FILES
        (["policy", "param", "tau", "predictor", "al_baseline", "al_diff"], latency_rows),
        (["policy", "param", "al", "bleu"], list(quality_rows.values())),
        (["predictor", "policy", "param", "tau", "accuracy", "al_diff"], rows),
        (["policy", "param", "predictor", "tau", "awr", "al_diff"], threshold_rows),
    )
    for name, (columns, figure_rows) in zip(FIGURE_FILES, figures, strict=True):
        _write_csv(results / name, columns, figure_rows)
    return [results / name for name in FIGURE_FILES]


def metrics_from_traces(
    trace_paths: Sequence[str | Path],
    reference_lines: Sequence[str] | None = None,
) -> tuple[list[dict], list[dict]]:
    """Recompute per-run rows from trace files and `summarize` them.

    Rows are sorted by policy, parameter, tau, predictor and sentence index,
    so the paired rows come in that order too. BLEU compares trace surfaces
    against the reference line selected by the trace's sentence index, when
    references are given. Two traces of one run are an error.
    """
    if not trace_paths:
        raise ExperimentError("no trace files")
    run_rows: list[dict] = []
    sources: dict[str, str | Path] = {}  # run_id -> trace file
    sentence_bleu_stats = None if reference_lines is None else _bleu_stats_memo([ln.split() for ln in reference_lines])
    for path in trace_paths:
        trace = load_trace(path)
        index = trace.run_config.sentence_index
        if reference_lines is not None and not 0 <= index < len(reference_lines):
            raise ExperimentError(
                f"{path}: sentence_index {index} is outside the {len(reference_lines)} reference lines"
            )
        try:
            row, _ = score_run(trace, sentence_bleu_stats)
        except (TraceError, MetricsError) as exc:
            raise ExperimentError(f"{path}: {exc}") from exc
        if row["run_id"] in sources:
            raise ExperimentError(f"{path} and {sources[row['run_id']]} both hold run {row['run_id']}")
        sources[row["run_id"]] = path
        run_rows.append(row)
    run_rows.sort(key=lambda r: (r["policy"], float(r["param"]), float(r["tau"]), r["predictor"], r["sentence_index"]))
    return run_rows, summarize(run_rows)


def write_trace_metrics(
    trace_paths: Sequence[str | Path],
    out_dir: str | Path,
    reference_lines: Sequence[str] | None = None,
) -> tuple[Path, Path]:
    run_rows, paired_rows = metrics_from_traces(trace_paths, reference_lines)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs_path = out / "trace_runs.csv"
    paired_path = out / "trace_paired.csv"
    _write_csv(runs_path, RUN_COLUMNS, run_rows)
    _write_csv(paired_path, PAIRED_COLUMNS, paired_rows)
    return runs_path, paired_path
