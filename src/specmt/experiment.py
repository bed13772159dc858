"""Experiment sweeps: grids over policies, thresholds, and predictors.

Each policy's grid points run in one loop, the baseline first as the point
with predictor `none` at tau 0.0. A point runs every test sentence, checks
inline that speculation left the output untouched, and emits one CSV row per
run, scored by `score_run` exactly as `metrics` scores a trace file; each
speculative point also gets a summary row, paired and aggregated by
`summarize` exactly as `metrics` pairs trace files. A point stops at its
first sentence that raises, and a failing baseline skips its policy.

A policy decides by its `rule` alone and tau only gates, so a sentence
reuses, relabelled, a kept run of the same (rule, predictor, sentence) when
none of its PREDICT probabilities lies between the two taus, the lower
included (read once, when the run is kept, by `_tau_bounds`), or else
runs afresh. A run that did not raise is kept only while a later grid point
could reuse it: a later tau of its policy, or a later policy of the same
rule. Every row, reused or not, is checked. Every output, traces included,
is byte-identical to running each grid point on its own, and a fixed
configuration gives byte-identical outputs on every run.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from functools import cache
from itertools import product
from operator import itemgetter
from pathlib import Path
from typing import Sequence, get_args, get_origin, get_type_hints

from .engine import EngineConfig, RunResult, run_baseline, run_speculative
from .lexicon import Lexicon, load_lexicon
from .markov import (
    GeneratedCorpus, MarkovSourceSpec, generate, generate_out_of_domain_sources, write_generated,
)
from .metrics import average_lagging, awr, bleu_from_stats, bleu_stats, sum_bleu_stats
from .model import PolicyConfig, SimtModel
from .ngram import AlwaysWrongPredictor, NgramModel, OraclePredictor, check_parameters, train_ngram
from .trace import COMMIT, PREDICT, SPECULATE, WITHDRAW, EventTrace, RunConfig, TraceError, load_trace, replay
from .vocab import (
    Sentence, SpecmtError, Vocabulary, load_corpus, read_corpus_lines, read_text, text_lines, write_artifact,
)

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
# what `plot_data` writes beside summary.csv; a sweep removes them, as they describe an earlier summary
FIGURE_FILES = (
    "fig1_latency_improvement.csv", "fig2_quality_latency.csv",
    "fig4_predictor_comparison.csv", "fig6_threshold_tradeoff.csv",
)


class ExperimentError(SpecmtError, ValueError):
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
        if self.n_sentences < 1:
            raise ExperimentError("n_sentences: need at least one sentence")
        unset = [key for key in ("corpus", "lexicon", "references") if getattr(self, key) is None]
        if 0 < len(unset) < 3:
            raise ExperimentError(f"corpus, lexicon and references are set together; not set: {', '.join(unset)}")
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
            ("", lambda: check_parameters(self.ngram_order, self.alpha, self.beta)),
        ):
            try:
                check()
            except SpecmtError as exc:
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
    """Parse the flat `key = value` format; '#' starts a comment, and a key
    may be set once."""
    out: dict[str, object] = {}
    set_on: dict[str, int] = {}
    for lineno, raw in enumerate(text_lines(text), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ExperimentError(f"config line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in set_on:
            raise ExperimentError(f"config line {lineno}: duplicate key {key!r} (set on line {set_on[key]})")
        set_on[key] = lineno
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
        text = read_text(path, ExperimentError)
        try:
            values = parse_config_text(text)
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
    reference_lines: tuple[str, ...]  # the reference of every sentence, by sentence index
    corpus_id: str
    test_offset: int  # sentence index of the first test sentence
    test_lines: tuple[int, ...]  # physical corpus line of each test sentence
    generated: GeneratedCorpus | None  # the world, when it was generated rather than read


def prepare_data(config: ExperimentConfig, out_dir: Path | None = None) -> PreparedData:
    """Load or generate the corpus and split it 90/10 by sentence index; a
    generated corpus is written to `out_dir`/data, when given, once the split
    succeeds. A file corpus token that the lexicon has no rule for, such as
    a target-side surface or a literal `<unk>`, is rejected naming its line."""
    generated = None
    if config.corpus is not None:
        vocab, lexicon = load_lexicon(config.lexicon)
        numbered = load_corpus(config.corpus, vocab)
        for lineno, sentence in numbered.items():
            for token in sentence:
                if token not in lexicon.default:
                    raise ExperimentError(
                        f"{config.corpus}: line {lineno}: token {vocab.surface(token)!r} has no lexicon rule"
                    )
        references = tuple(read_corpus_lines(config.references))
        if len(numbered) != len(references):
            raise ExperimentError(
                f"corpus and references differ in length: {config.corpus} has {len(numbered)} sentences, "
                f"{config.references} has {len(references)}"
            )
        corpus_id = Path(config.corpus).name
    else:
        generated = generate(config.source_spec(), config.n_sentences)
        vocab, lexicon = generated.vocabulary, generated.lexicon
        numbered = dict(enumerate(generated.sources, 1))
        references = tuple(map(vocab.decode, generated.references))  # the lines of its references.txt
        corpus_id = config.source_spec().corpus_id()
    sources = tuple(numbered.values())
    split = int(len(sources) * TRAIN_FRACTION)
    if split == 0 or split == len(sources):
        where = "n_sentences" if generated is not None else config.corpus
        raise ExperimentError(f"{where}: too few sentences for a train/test split ({len(sources)})")
    data = PreparedData(
        vocabulary=vocab,
        lexicon=lexicon,
        train_sources=sources[:split],
        test_sources=sources[split:],
        reference_lines=references,
        corpus_id=corpus_id,
        test_offset=split,
        test_lines=tuple(numbered)[split:],
        generated=generated,
    )
    if generated is not None and out_dir is not None:
        write_generated(generated, out_dir / "data")
    return data


@dataclass
class ExperimentResult:
    out_dir: Path
    failures: list[str] = field(default_factory=list)
    summary_rows: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def build_predictors(config: ExperimentConfig, data: PreparedData) -> dict[str, NgramModel]:
    """Train the n-gram predictors the grid asks for, each on its kind's sources."""
    if "always_wrong" in config.predictors and len(data.lexicon.default) < 2:  # the ids it may guess
        raise ExperimentError(f"predictors: always_wrong needs two source tokens, "
                              f"the lexicon has {len(data.lexicon.default)}")
    sources = {
        "indomain": lambda: data.train_sources,
        "outdomain": lambda: generate_out_of_domain_sources(
            config.source_spec(), len(data.train_sources), config.seed + OOD_SEED_OFFSET
        ),
    }
    return {
        kind: train_ngram(sources[kind](), config.ngram_order, config.alpha, config.beta, vocabulary=data.vocabulary)
        for kind in sources if kind in config.predictors
    }


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
    # inputs are read and predictors trained before anything is cleared, so
    # an input that fails leaves an earlier run in `out_dir` untouched
    data = prepare_data(config)
    trained = build_predictors(config, data)
    _clear_outputs(config, out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if data.generated is not None:
        write_generated(data.generated, out_dir / "data")
    result = ExperimentResult(out_dir=out_dir)
    surface = data.vocabulary.tokens.__getitem__
    sentence_bleu = _bleu_stats_memo(data.reference_lines)
    run_rows: list[dict] = []
    policies = config.policy_grid()
    # (rule, predictor kind, sentence index) -> the scored runs kept for a later grid point, with their `_tau_bounds`
    kept: dict[tuple[tuple, str, int], list[tuple[RunResult, dict, tuple[str, ...], float, float]]] = {}
    lines: dict[tuple, str] = {}  # event -> its trace line, shared by this call's saved traces
    for n, policy in enumerate(policies):
        shared = policy.rule in {later.rule for later in policies[n + 1:]}  # a later policy may reuse its runs
        model = SimtModel(lexicon=data.lexicon, policy=policy, vocabulary=data.vocabulary)
        baseline_outputs: list[Sentence] = []
        for tau, kind in [(0.0, "none"), *product(config.tau_grid, config.predictors)]:
            baseline, engine_config = kind == "none", EngineConfig(tau=tau)
            point = f"baseline {policy.describe()}" if baseline else f"{policy.describe()} tau={tau} predictor={kind}"
            if config.record_traces:  # the directory is named only when traces are saved in it
                label = "baseline" if baseline else f"tau{tau}-{kind}"
                trace_dir = out_dir / "traces" / f"{policy.kind}-{policy.param}-{label}"
                trace_dir.mkdir(parents=True, exist_ok=True)
            rows: list[dict] = []
            for i, source in enumerate(data.test_sources):
                index = data.test_offset + i
                run_config = RunConfig(policy.kind, policy.param, tau, kind, data.corpus_id, config.seed, index)
                try:
                    for run, row, final, low, high in kept.get((policy.rule, kind, index), ()):
                        if low < tau <= high:  # the kept run gates alike at tau: relabel it
                            if config.record_traces:
                                run = RunResult(run.final_output, EventTrace(run.trace.events, run_config))
                            row = {**row, **_labels(run_config)}
                            break
                    else:
                        if baseline:
                            run = run_baseline(model, source, run_config)
                        else:
                            predictor = _predictor_for(kind, trained, source, data)
                            run = run_speculative(model, predictor, source, engine_config, run_config)
                        row, final = score_run(run.trace, sentence_bleu)
                        if shared or not baseline and tau != config.tau_grid[-1]:
                            kept.setdefault((policy.rule, kind, index), []).append((run, row, final, *_tau_bounds(run)))
                except Exception as exc:  # anything but the package's own errors is a bug: name its type
                    reason = exc if isinstance(exc, SpecmtError) else f"{type(exc).__name__}: {exc}"
                    result.failures.append(f"{_where(point, data, i)}: {reason}")
                    break
                if config.record_traces:
                    run.trace.save(trace_dir / f"{index:05d}.jsonl", lines)
                if baseline:
                    baseline_outputs.append(run.final_output)
                elif run.final_output != baseline_outputs[i]:
                    result.failures.append(f"{_where(point, data, i)}: speculative output differs")
                if tuple(map(surface, run.final_output)) != final:
                    result.failures.append(f"{_where(point, data, i)}: trace replays to another output")
                rows.append(row)
            if len(rows) == len(data.test_sources):
                run_rows.extend(rows)
            elif baseline:
                break  # a failing baseline skips its policy
        if not shared:  # no later grid point can reuse a run of this rule
            kept = {key: runs for key, runs in kept.items() if key[0] != policy.rule}

    result.summary_rows = summarize(run_rows)
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


def _tau_bounds(run: RunResult) -> tuple[float, float]:
    """The bounds of the taus `other` that gate each PREDICT of `run` as its tau does, `low < other <= high`:
    then no probability lies in [min(tau, other), max(tau, other))."""
    probabilities = sorted([e[5] for e in run.trace.events if e[0] == PREDICT])  # `p` of each PREDICT
    k = bisect_left(probabilities, run.trace.run_config.tau)  # how many lie below tau
    return probabilities[k - 1] if k else float("-inf"), probabilities[k] if k < len(probabilities) else float("inf")


def _where(point: str, data: PreparedData, i: int) -> str:  # where test sentence i of a grid point failed
    return f"{point}: sentence {data.test_offset + i} (corpus line {data.test_lines[i]})"


def _predictor_for(kind: str, trained: dict[str, NgramModel], source: Sentence, data: PreparedData):
    if kind == "oracle":
        return OraclePredictor(source)
    if kind == "always_wrong":
        return AlwaysWrongPredictor(source, data.vocabulary, data.lexicon.default)
    return trained[kind]


def _bleu_stats_memo(reference_lines: Sequence[str]):
    """`(stats, bleu_from_stats(stats))` for `stats = bleu_stats(final, reference)`, with the reference the line
    of the run's sentence index split on whitespace, computed once per `(index, final)`: exact, as the key is all
    they depend on, and a sweep's outputs repeat."""
    return cache(lambda index, final: (stats := bleu_stats(final, reference_lines[index].split()),
                                       bleu_from_stats(stats)))


def _labels(cfg: RunConfig) -> dict:
    """The columns of a run's row that its trace header decides."""
    run_id = f"{cfg.policy}-{cfg.param}-tau{cfg.tau}-{cfg.predictor}-{cfg.sentence_index:05d}"
    return {"run_id": run_id, "policy": cfg.policy, "param": cfg.param, "tau": cfg.tau, "predictor": cfg.predictor,
            "sentence_index": cfg.sentence_index}


def score_run(trace: EventTrace, sentence_bleu=None) -> tuple[dict, tuple[str, ...]]:
    """Replay one run's trace into its `RUN_COLUMNS` row, plus its
    `sentence_index`, its `bleu_stats` and its `predicted` count, and return
    the row with the final output the trace replays to. The statistics and
    BLEU are `sentence_bleu(sentence_index, final)`, left empty without that
    lookup. An inconsistent trace raises `TraceError`."""
    cfg = trace.run_config
    final, delays, source_length, counts, predicted = replay(trace)
    stats, bleu = (None, "") if sentence_bleu is None else sentence_bleu(cfg.sentence_index, final)
    return {
        **_labels(cfg),
        "I": source_length,
        "J": len(final),
        "W": counts[WITHDRAW],
        "S": counts[SPECULATE],
        "H": counts[COMMIT],
        "AL": average_lagging(delays, source_length),
        "AWR": awr(counts[WITHDRAW], len(final)),
        "BLEU": bleu,
        "bleu_stats": stats,
        "predicted": predicted,
    }, final


def summarize(run_rows: Sequence[dict]) -> list[dict]:
    """The `SUMMARY_COLUMNS` row of every speculative grid point
    `(policy, param, tau, predictor)` among `score_run` rows, in order of
    first appearance. Each speculative run is paired with the baseline run
    (predictor "none") of the same policy, param and sentence index; sums
    run in row order. Accuracy is the share of real source tokens predicted.
    BLEU is left empty when a run has no reference."""
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
            "accuracy": sum(r["predicted"] for r in rows) / sum(r["I"] for r in rows),
            "speculations": sum(r["S"] for r in rows),
            "hits": sum(r["H"] for r in rows),
            "withdrawals": sum(r["W"] for r in rows),
        })
    return summary


def _write_csv(path: Path, columns: list[str], rows: list[dict]) -> None:
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(columns)
    writer.writerows(map(itemgetter(*columns), rows))
    write_artifact(path, text.getvalue())


def plot_data(results_dir: str | Path, max_awr: float | None = None) -> list[Path]:
    """Reshape summary.csv into one plot-ready CSV per figure analog."""
    if max_awr is not None and not max_awr >= 0:
        raise ExperimentError(f"max_awr must be a number >= 0, got {max_awr}")
    results = Path(results_dir)
    summary_path = results / "summary.csv"
    if not summary_path.exists():
        raise ExperimentError(f"missing summary.csv in {results}")
    numeric = ("param", "tau") if max_awr is None else ("param", "tau", "awr")  # the columns read as numbers
    reader = csv.DictReader(io.StringIO(read_text(summary_path, ExperimentError)))
    for column in SUMMARY_COLUMNS:
        if reader.fieldnames is None or column not in reader.fieldnames:
            raise ExperimentError(f"missing column {column!r} in {summary_path}")
    rows = []
    for row in reader:
        where = f"{summary_path}: line {reader.line_num}"
        if None in row or None in row.values():
            raise ExperimentError(f"{where}: expected {len(reader.fieldnames)} fields")
        for column in numeric:
            try:
                float(row[column])
            except ValueError:
                raise ExperimentError(f"{where}: {column} is not a number: {row[column]!r}") from None
        rows.append(row)
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
    references are given. Two traces of one run are an error, and so is a
    trace file that does not parse or replay; every error names the file.
    """
    if not trace_paths:
        raise ExperimentError("no trace files")
    run_rows: list[dict] = []
    sources: dict[tuple, str | Path] = {}  # run -> trace file
    sentence_bleu = None if reference_lines is None else _bleu_stats_memo(reference_lines)
    known: dict[str, tuple] = {}  # event lines already parsed, shared by this call's traces
    labels = itemgetter("policy", "param", "tau", "predictor", "sentence_index")  # a row's run, in sort order
    for path in trace_paths:
        try:
            trace = load_trace(path, known)
        except TraceError as exc:  # its message names the file
            raise ExperimentError(str(exc)) from exc
        index = trace.run_config.sentence_index
        if reference_lines is not None and not 0 <= index < len(reference_lines):
            raise ExperimentError(
                f"{path}: sentence_index {index} is outside the {len(reference_lines)} reference lines"
            )
        try:
            row, _ = score_run(trace, sentence_bleu)
        except SpecmtError as exc:
            raise ExperimentError(f"{path}: {exc}") from exc
        # param and tau compared as numbers, as `summarize` groups them (1 == 1.0), and every NaN as one value
        run = tuple("NaN" if value != value else value for value in labels(row))
        if run in sources:
            raise ExperimentError(f"{path} and {sources[run]} both hold run {row['run_id']}")
        sources[run] = path
        run_rows.append(row)
    run_rows.sort(key=labels)
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
    _write_csv(paired_path, SUMMARY_COLUMNS, paired_rows)
    return runs_path, paired_path
