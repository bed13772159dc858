"""Experiment sweeps: grids over policies, thresholds, and predictors.

Each grid point runs a baseline pass and a speculative pass over the test
split, verifies inline that speculation left the output untouched and that
the withdrawal accounting is consistent, and emits one CSV row per run plus
a paired summary row per grid point. The whole pipeline is a deterministic
function of the configuration, so repeated runs produce byte-identical CSVs.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Sequence

from .engine import EngineConfig, RunResult, run_baseline, run_speculative
from .lexicon import Lexicon, load_lexicon, read_lexicon_vocabulary, save_lexicon
from .markov import MarkovSourceSpec, generate, generate_out_of_domain_sources
from .metrics import average_lagging, awr, corpus_bleu, delay_vector
from .model import PolicyConfig, SimtModel
from .ngram import AlwaysWrongPredictor, NgramModel, OraclePredictor, train_ngram
from .trace import COMMIT, SPECULATE, WITHDRAW, RunConfig, load_trace, snapshot_from_trace
from .vocab import Sentence, Vocabulary, load_corpus, read_corpus_lines, write_artifact, write_corpus_lines

TRAIN_FRACTION = 0.9  # split by sentence index, fixed before anything else
OOD_SEED_OFFSET = 1  # out-of-domain chain seed = task seed + 1

RUN_COLUMNS = ["run_id", "policy", "param", "tau", "predictor", "I", "J", "W", "S", "H", "AL", "AWR", "BLEU"]
SUMMARY_COLUMNS = [
    "policy", "param", "tau", "predictor", "sentences",
    "al_baseline", "al_speculative", "al_diff", "awr", "bleu", "accuracy",
    "speculations", "hits", "withdrawals",
]

PREDICTOR_KINDS = ("indomain", "outdomain", "oracle", "always_wrong")
OWNED_DIRS = ("traces", "data")  # subdirectories of out_dir that a sweep clears and rewrites


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


_BOOL_KEYS = {"record_traces"}
_INT_KEYS = {"vocab_size", "min_length", "max_length", "n_sentences", "seed", "ngram_order"}
_FLOAT_KEYS = {"kappa", "ambiguity_rate", "alpha", "beta"}
_INT_LIST_KEYS = {"k_grid"}
_FLOAT_LIST_KEYS = {"l_grid", "tau_grid"}
_STR_LIST_KEYS = {"predictors"}


def parse_config_text(text: str) -> dict[str, object]:
    """Parse the flat `key = value` format; '#' starts a comment."""
    valid = {f.name for f in fields(ExperimentConfig)}
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ExperimentError(f"config line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in valid:
            raise ExperimentError(f"config line {lineno}: unknown key {key!r}")
        out[key] = coerce_config_value(key, value)
    return out


def coerce_config_value(key: str, value: str) -> object:
    try:
        if key in _BOOL_KEYS:
            return value.lower() in ("1", "true", "yes", "on")
        if key in _INT_KEYS:
            return int(value)
        if key in _FLOAT_KEYS:
            return float(value)
        if key in _INT_LIST_KEYS:
            return tuple(int(v) for v in value.split(",") if v.strip())
        if key in _FLOAT_LIST_KEYS:
            return tuple(float(v) for v in value.split(",") if v.strip())
        if key in _STR_LIST_KEYS:
            return tuple(v.strip() for v in value.split(",") if v.strip())
    except ValueError:
        raise ExperimentError(f"bad value for {key!r}: {value!r}") from None
    return value


def load_config(path: str | Path, overrides: dict[str, object] | None = None) -> ExperimentConfig:
    values = parse_config_text(Path(path).read_text(encoding="utf-8"))
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
    test_offset: int = 0  # corpus line number of the first test sentence


def prepare_data(config: ExperimentConfig, out_dir: Path | None = None) -> PreparedData:
    """Load or generate the corpus and split it 90/10 by sentence index."""
    if config.corpus is not None:
        vocab = read_lexicon_vocabulary(config.lexicon)
        lexicon = load_lexicon(config.lexicon, vocab)
        sources = tuple(load_corpus(config.corpus, vocab))
        references = tuple(vocab.encode(line) for line in read_corpus_lines(config.references))
        corpus_id = Path(config.corpus).name
    else:
        generated = generate(config.source_spec(), config.n_sentences)
        vocab, lexicon = generated.vocabulary, generated.lexicon
        sources, references = generated.sources, generated.references
        corpus_id = config.source_spec().corpus_id()
        if out_dir is not None:
            data_dir = out_dir / "data"
            data_dir.mkdir(parents=True, exist_ok=True)
            write_corpus_lines(data_dir / "corpus.txt", (vocab.decode(s) for s in sources))
            save_lexicon(data_dir / "lexicon.tsv", lexicon, vocab)
            write_corpus_lines(data_dir / "references.txt", (vocab.decode(r) for r in references))
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
        if config.corpus is not None:
            raise ExperimentError("out-of-domain predictor needs a generated corpus")
        ood_sources = generate_out_of_domain_sources(
            config.source_spec(), len(data.train_sources), config.seed + OOD_SEED_OFFSET
        )
        trained["outdomain"] = train_ngram(
            ood_sources, config.ngram_order, config.alpha, config.beta, data.vocabulary
        )
    return trained


def _clear_outputs(config: ExperimentConfig, out_dir: Path) -> None:
    """Remove what an earlier run left in `out_dir`'s owned subdirectories,
    and its meta.json, so that a re-run leaves exactly the files of a fresh
    run and an interrupted one has no meta.json. A subdirectory that holds
    this run's own corpus, lexicon or references is kept."""
    inputs = [Path(p).resolve() for p in (config.corpus, config.lexicon, config.references) if p is not None]
    for name in OWNED_DIRS:
        owned = out_dir / name
        if owned.is_dir() and not any(p.is_relative_to(owned.resolve()) for p in inputs):
            shutil.rmtree(owned)
    (out_dir / "meta.json").unlink(missing_ok=True)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    out_dir = Path(config.out_dir)
    _clear_outputs(config, out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    data = prepare_data(config, out_dir)
    trained = build_predictors(config, data)
    result = ExperimentResult(out_dir=out_dir)

    run_rows: list[dict] = []
    accuracy_cache: dict[str, float] = {}
    surfaces = data.vocabulary.decode

    for policy in config.policy_grid():
        model = SimtModel(lexicon=data.lexicon, policy=policy, vocabulary=data.vocabulary)
        base_config = RunConfig(
            policy=policy.kind, param=policy.param, tau=0.0,
            predictor="none", corpus=data.corpus_id, seed=config.seed,
        )
        try:
            baselines = [
                run_baseline(
                    model, source,
                    run_config=replace(base_config, sentence_index=data.test_offset + i),
                )
                for i, source in enumerate(data.test_sources)
            ]
        except Exception as exc:
            result.failures.append(f"baseline {policy.describe()}: {exc}")
            continue
        if config.record_traces:
            base_dir = out_dir / "traces" / f"{policy.kind}-{policy.param}-baseline"
            base_dir.mkdir(parents=True, exist_ok=True)
            for i, run in enumerate(baselines):
                run.trace.save(base_dir / f"{data.test_offset + i:05d}.jsonl")
        base_rows = [
            _run_row(run, policy, 0.0, "none", data.test_offset + i, data.test_references[i])
            for i, run in enumerate(baselines)
        ]
        run_rows.extend(base_rows)
        al_base = sum(row["AL"] for row in base_rows) / len(base_rows)

        for tau in config.tau_grid:
            for kind in config.predictors:
                point = f"{policy.describe()} tau={tau} predictor={kind}"
                engine_config = EngineConfig(tau=tau, record_trace=config.record_traces)
                trace_dir = out_dir / "traces" / f"{policy.kind}-{policy.param}-tau{tau}-{kind}"
                if config.record_traces:
                    trace_dir.mkdir(parents=True, exist_ok=True)
                spec_runs: list[RunResult] = []
                try:
                    for i, source in enumerate(data.test_sources):
                        predictor = _predictor_for(kind, trained, source, data.vocabulary)
                        run_config = RunConfig(
                            policy=policy.kind, param=policy.param, tau=tau,
                            predictor=kind, corpus=data.corpus_id, seed=config.seed,
                            sentence_index=data.test_offset + i,
                        )
                        run = run_speculative(model, predictor, source, engine_config, run_config)
                        spec_runs.append(run)
                        if config.record_traces:
                            run.trace.save(trace_dir / f"{data.test_offset + i:05d}.jsonl")
                except Exception as exc:
                    result.failures.append(f"{point}: {exc}")
                    continue

                spec_rows = []
                for i, run in enumerate(spec_runs):
                    if run.final_output != baselines[i].final_output:
                        result.failures.append(f"{point}: sentence {i}: speculative output differs")
                    if run.speculations != run.hits + run.withdrawals:
                        result.failures.append(f"{point}: sentence {i}: speculation accounting broken")
                    if tuple(surfaces(run.final_output).split()) != run.snapshots.final:
                        result.failures.append(f"{point}: sentence {i}: snapshot disagrees with output")
                    spec_rows.append(
                        _run_row(run, policy, tau, kind, data.test_offset + i, data.test_references[i])
                    )
                run_rows.extend(spec_rows)

                al_spec = sum(row["AL"] for row in spec_rows) / len(spec_rows)
                total_j = sum(len(r.final_output) for r in spec_runs)
                if kind not in accuracy_cache:
                    accuracy_cache[kind] = _speculative_accuracy(kind, trained, data)
                result.summary_rows.append({
                    "policy": policy.kind,
                    "param": policy.param,
                    "tau": tau,
                    "predictor": kind,
                    "sentences": len(spec_runs),
                    "al_baseline": al_base,
                    "al_speculative": al_spec,
                    "al_diff": al_base - al_spec,
                    "awr": sum(r.withdrawals for r in spec_runs) / total_j,
                    "bleu": corpus_bleu([r.final_output for r in spec_runs], list(data.test_references)),
                    "accuracy": accuracy_cache[kind],
                    "speculations": sum(r.speculations for r in spec_runs),
                    "hits": sum(r.hits for r in spec_runs),
                    "withdrawals": sum(r.withdrawals for r in spec_runs),
                })

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


def _predictor_for(kind: str, trained: dict[str, NgramModel], source: Sentence, vocab: Vocabulary):
    if kind == "oracle":
        return OraclePredictor(source)
    if kind == "always_wrong":
        return AlwaysWrongPredictor(source, vocab)
    return trained[kind]


def _run_row(run: RunResult, policy: PolicyConfig, tau: float, kind: str, index: int, reference: Sentence) -> dict:
    delays = delay_vector(run.snapshots)
    target_length = len(run.final_output)
    return {
        "run_id": f"{policy.kind}-{policy.param}-tau{tau}-{kind}-{index:05d}",
        "policy": policy.kind,
        "param": policy.param,
        "tau": tau,
        "predictor": kind,
        "I": delays.source_length,
        "J": target_length,
        "W": run.withdrawals,
        "S": run.speculations,
        "H": run.hits,
        "AL": average_lagging(delays),
        "AWR": awr(run.withdrawals, target_length),
        "BLEU": corpus_bleu([run.final_output], [reference]),
    }


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

    if max_awr is not None:
        latency_rows = [r for r in rows if float(r["awr"]) <= max_awr]
    else:
        latency_rows = rows

    written = []

    fig1 = results / "fig1_latency_improvement.csv"
    _write_csv(fig1, ["policy", "param", "tau", "predictor", "al_baseline", "al_diff"], latency_rows)
    written.append(fig1)

    seen = set()
    quality_rows = []
    for row in rows:
        key = (row["policy"], row["param"])
        if key not in seen:
            seen.add(key)
            quality_rows.append({
                "policy": row["policy"], "param": row["param"],
                "al": row["al_baseline"], "bleu": row["bleu"],
            })
    fig2 = results / "fig2_quality_latency.csv"
    _write_csv(fig2, ["policy", "param", "al", "bleu"], quality_rows)
    written.append(fig2)

    fig4 = results / "fig4_predictor_comparison.csv"
    _write_csv(fig4, ["predictor", "policy", "param", "tau", "accuracy", "al_diff"], rows)
    written.append(fig4)

    ordered = sorted(rows, key=lambda r: (r["policy"], float(r["param"]), r["predictor"], float(r["tau"])))
    fig6 = results / "fig6_threshold_tradeoff.csv"
    _write_csv(fig6, ["policy", "param", "predictor", "tau", "awr", "al_diff"], ordered)
    written.append(fig6)
    return written


def metrics_from_traces(
    trace_paths: Sequence[str | Path],
    reference_lines: Sequence[str] | None = None,
) -> tuple[list[dict], list[dict]]:
    """Recompute per-run metrics from trace files and pair them for AL_diff.

    Rows with predictor "none" are baselines; every other row is paired with
    the baseline of the same policy, parameter, and sentence index. BLEU
    compares trace surfaces against the reference line selected by the
    trace's sentence index, when references are given.
    """
    if not trace_paths:
        raise ExperimentError("no trace files")
    run_rows: list[dict] = []
    for path in trace_paths:
        trace = load_trace(path)
        snapshots = snapshot_from_trace(trace)
        delays = delay_vector(snapshots)
        target_length = len(snapshots.final)
        cfg = trace.run_config
        counts = trace.kind_counts()
        bleu = ""
        if reference_lines is not None:
            reference = tuple(reference_lines[cfg.sentence_index].split())
            bleu = corpus_bleu([snapshots.final], [reference])
        run_rows.append({
            "run_id": f"{cfg.policy}-{cfg.param}-tau{cfg.tau}-{cfg.predictor}-{cfg.sentence_index:05d}",
            "policy": cfg.policy,
            "param": cfg.param,
            "tau": cfg.tau,
            "predictor": cfg.predictor,
            "I": delays.source_length,
            "J": target_length,
            "W": counts[WITHDRAW],
            "S": counts[SPECULATE],
            "H": counts[COMMIT],
            "AL": average_lagging(delays),
            "AWR": awr(counts[WITHDRAW], target_length),
            "BLEU": bleu,
            "sentence_index": cfg.sentence_index,
        })
    run_rows.sort(key=lambda r: (r["policy"], float(r["param"]), float(r["tau"]), r["predictor"], r["sentence_index"]))

    baselines = {
        (r["policy"], r["param"], r["sentence_index"]): r["AL"]
        for r in run_rows
        if r["predictor"] == "none"
    }
    grouped: dict[tuple, list[dict]] = {}
    for row in run_rows:
        if row["predictor"] == "none":
            continue
        grouped.setdefault((row["policy"], row["param"], row["tau"], row["predictor"]), []).append(row)
    paired_rows = []
    for (policy, param, tau, predictor), group in sorted(
        grouped.items(), key=lambda kv: (kv[0][0], float(kv[0][1]), float(kv[0][2]), kv[0][3])
    ):
        missing = [r for r in group if (policy, param, r["sentence_index"]) not in baselines]
        if missing:
            raise ExperimentError(f"no baseline trace for {policy} param={param} sentences "
                                  f"{[r['sentence_index'] for r in missing][:5]}")
        al_base = sum(baselines[(policy, param, r["sentence_index"])] for r in group) / len(group)
        al_spec = sum(r["AL"] for r in group) / len(group)
        paired_rows.append({
            "policy": policy,
            "param": param,
            "tau": tau,
            "predictor": predictor,
            "sentences": len(group),
            "al_baseline": al_base,
            "al_speculative": al_spec,
            "al_diff": al_base - al_spec,
        })
    return run_rows, paired_rows


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
    _write_csv(
        paired_path,
        ["policy", "param", "tau", "predictor", "sentences", "al_baseline", "al_speculative", "al_diff"],
        paired_rows,
    )
    return runs_path, paired_path
