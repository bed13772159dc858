from __future__ import annotations

import csv
import io
import json
import re
import shutil
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from specmt import (
    Event, ExperimentConfig, OraclePredictor, PolicyConfig, RunConfig, SimtModel, experiment, gen_corpus,
    load_config, load_trace, metrics_from_traces, parse_trace, plot_data, replay, run_baseline, run_experiment,
    run_speculative,
)
from specmt import trace as trace_module
from specmt.engine import EngineError
from specmt.experiment import (
    ExperimentError,
    RUN_COLUMNS,
    SUMMARY_COLUMNS,
    parse_config_text,
    prepare_data,
    write_trace_metrics,
)
from specmt.metrics import bleu_from_stats, bleu_stats
from specmt.ngram import NgramModel
from specmt.vocab import read_corpus_lines
from oracles import brute_force_bleu, independent_sweep


def _config(tmp_path, **kw):
    base = dict(
        vocab_size=14, kappa=0.1, ambiguity_rate=0.2, min_length=4, max_length=8,
        n_sentences=120, seed=9, k_grid=(1, 3), l_grid=(), tau_grid=(0.0,),
        predictors=("indomain",), out_dir=str(tmp_path / "results"),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _tree(root):
    """Relative path -> bytes of every file under root."""
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


class TestConfig:
    def test_parse_and_coerce(self):
        text = """
        # comment
        seed = 5
        kappa = 0.25
        k_grid = 1,3,5
        tau_grid = 0, 0.5
        predictors = oracle, indomain
        record_traces = true
        """
        values = parse_config_text(text)
        assert values["seed"] == 5
        assert values["kappa"] == 0.25
        assert values["k_grid"] == (1, 3, 5)
        assert values["tau_grid"] == (0.0, 0.5)
        assert values["predictors"] == ("oracle", "indomain")
        assert values["record_traces"] is True

    def test_bool_words(self):
        for word in ("1", "true", "Yes", "ON"):
            assert parse_config_text(f"record_traces = {word}")["record_traces"] is True
        for word in ("0", "False", "no", "OFF"):
            assert parse_config_text(f"record_traces = {word}")["record_traces"] is False

    def test_bad_values_name_the_line(self):
        for line in ("record_traces = ture", "seed = five", "kappa = x", "k_grid = 1, x", "tau_grid = 0, y"):
            key, value = (part.strip() for part in line.split("="))
            with pytest.raises(ExperimentError, match=re.escape(f"config line 3: bad value for {key!r}: {value!r}")):
                parse_config_text(f"n_sentences = 100\n# comment\n{line}\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ExperimentError, match="unknown key"):
            parse_config_text("not_a_key = 1")

    def test_a_key_set_twice_names_both_lines(self):
        with pytest.raises(ExperimentError, match=re.escape("config line 3: duplicate key 'seed' (set on line 1)")):
            parse_config_text("seed = 1\n# the same key again\nseed = 2\n")

    def test_file_with_overrides(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("seed = 5\nk_grid = 1\n")
        config = load_config(path, {"seed": 7})
        assert config.seed == 7
        assert config.k_grid == (1,)

    def test_grid_validation(self):
        with pytest.raises(ExperimentError, match="empty policy grid"):
            ExperimentConfig(k_grid=(), l_grid=())
        with pytest.raises(ExperimentError, match="unknown predictor"):
            ExperimentConfig(predictors=("psychic",))

    def test_duplicate_grid_values_rejected(self):
        # a repeated grid point would merge into one summary row
        for key, value in (("k_grid", (1, 1)), ("l_grid", (0.1, 0.1)), ("tau_grid", (0.0, 0.0)),
                           ("predictors", ("oracle", "oracle"))):
            with pytest.raises(ExperimentError, match=f"duplicate value in {key}"):
                ExperimentConfig(**{key: value})


class TestPrepareData:
    def test_split_is_by_index(self, tmp_path):
        config = _config(tmp_path)
        data = prepare_data(config)
        assert len(data.train_sources) == 108
        assert len(data.test_sources) == 12

    def test_loaded_corpus_roundtrip(self, tmp_path):
        config = _config(tmp_path)
        out = Path(config.out_dir)
        generated = prepare_data(config, out)
        loaded = prepare_data(
            _config(
                tmp_path,
                corpus=str(out / "data" / "corpus.txt"),
                lexicon=str(out / "data" / "lexicon.tsv"),
                references=str(out / "data" / "references.txt"),
            )
        )
        assert len(loaded.test_sources) == len(generated.test_sources)
        decoded_generated = [generated.vocabulary.decode(s) for s in generated.test_sources]
        decoded_loaded = [loaded.vocabulary.decode(s) for s in loaded.test_sources]
        assert decoded_generated == decoded_loaded


class TestRunExperiment:
    def test_outputs_and_inline_checks(self, tmp_path):
        config = _config(tmp_path, predictors=("indomain", "oracle"), tau_grid=(0.0, 0.5))
        result = run_experiment(config)
        assert result.ok, result.failures
        out = Path(config.out_dir)
        runs = _read_csv(out / "runs.csv")
        summary = _read_csv(out / "summary.csv")
        assert list(runs[0].keys()) == RUN_COLUMNS
        assert list(summary[0].keys()) == SUMMARY_COLUMNS
        n_test = 12
        n_policies = 2
        n_points = n_policies * 2 * 2  # policies x taus x predictors
        assert len(summary) == n_points
        assert len(runs) == n_policies * n_test + n_points * n_test  # baselines + runs
        assert (out / "meta.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        config_a = _config(tmp_path, out_dir=str(tmp_path / "a"))
        config_b = _config(tmp_path, out_dir=str(tmp_path / "b"))
        run_experiment(config_a)
        run_experiment(config_b)
        for name in ("runs.csv", "summary.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_dirty_rerun_equals_fresh_run(self, tmp_path):
        # A smaller grid re-run over a larger one must leave no stale traces
        # and no figure CSVs of the old summary.
        # Fresh and dirty runs share one path, because meta.json records it.
        out = tmp_path / "results"
        config = _config(tmp_path, n_sentences=60, record_traces=True, k_grid=(1,))
        assert run_experiment(replace(config, k_grid=(1, 3))).ok
        assert len(plot_data(out)) == 4
        assert run_experiment(config).ok
        dirty = _tree(out)
        shutil.rmtree(out)
        assert run_experiment(config).ok
        fresh = _tree(out)
        assert sorted(dirty) == sorted(fresh)
        assert dirty == fresh

        traces = sorted((out / "traces").rglob("*.jsonl"))
        references = read_corpus_lines(out / "data" / "references.txt")
        runs_path, _ = write_trace_metrics(traces, tmp_path / "m", references)
        recomputed = {r["run_id"]: r for r in _read_csv(runs_path)}
        assert recomputed == {r["run_id"]: r for r in _read_csv(out / "runs.csv")}

    def test_rerun_keeps_inputs_inside_out_dir(self, tmp_path):
        # a sweep may read the world an earlier sweep wrote to its own data/
        config = _config(tmp_path, record_traces=True)
        assert run_experiment(config).ok
        data_dir = Path(config.out_dir) / "data"
        inputs = _tree(data_dir)
        loaded = replace(
            config,
            corpus=str(data_dir / "corpus.txt"),
            lexicon=str(data_dir / "lexicon.tsv"),
            references=str(data_dir / "references.txt"),
        )
        assert run_experiment(loaded).ok
        assert _tree(data_dir) == inputs

    @staticmethod
    def _sweep_failing_at_sentence_56(tmp_path, monkeypatch, blank_line=None):
        """Sweep a 60-sentence file corpus whose baseline run of sentence 56
        (test split) raises. `blank_line`, when given, is the physical line
        at which a blank line is inserted."""
        spec = _config(tmp_path).source_spec()
        corpus, lexicon, references = gen_corpus(spec, 60, tmp_path / "world")
        if blank_line is not None:
            lines = corpus.read_text(encoding="utf-8").splitlines()
            lines.insert(blank_line - 1, "")
            corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        real_run_baseline = experiment.run_baseline

        def failing(model, source, run_config):
            if run_config.sentence_index == 56:
                raise EngineError("policy requested a read past the end of source")
            return real_run_baseline(model, source, run_config)

        monkeypatch.setattr(experiment, "run_baseline", failing)
        config = _config(
            tmp_path, corpus=str(corpus), lexicon=str(lexicon), references=str(references),
            k_grid=(2,), predictors=("oracle",),
        )
        result = run_experiment(config)
        assert len(result.failures) == 1
        return result.failures[0]

    def test_failure_names_sentence_and_corpus_line(self, tmp_path, monkeypatch):
        failure = self._sweep_failing_at_sentence_56(tmp_path, monkeypatch)
        assert failure.startswith("baseline wait_k(k=2): sentence 56 (corpus line 57): ")

    def test_failure_names_physical_corpus_line(self, tmp_path, monkeypatch):
        # a blank line before it moves sentence 56 to physical line 58
        failure = self._sweep_failing_at_sentence_56(tmp_path, monkeypatch, blank_line=4)
        assert failure.startswith("baseline wait_k(k=2): sentence 56 (corpus line 58): ")

    def test_failure_names_a_programming_error_by_its_type(self, tmp_path, monkeypatch):
        # an exception that is not the package's own is a bug, not a bad input
        def buggy(model, predictor, source, engine_config, run_config):
            return {}[5]

        monkeypatch.setattr(experiment, "run_speculative", buggy)
        result = run_experiment(_config(tmp_path, k_grid=(1,)))
        assert result.failures == [
            "wait_k(k=1) tau=0.0 predictor=indomain: sentence 108 (corpus line 109): KeyError: 5",
        ]

    def test_oracle_beats_trained_predictor(self, tmp_path):
        config = _config(tmp_path, predictors=("indomain", "oracle"), n_sentences=200)
        result = run_experiment(config)
        by_kind = {}
        for row in result.summary_rows:
            if row["policy"] == "wait_k" and row["param"] == 1.0:
                by_kind[row["predictor"]] = row
        assert by_kind["oracle"]["al_diff"] >= by_kind["indomain"]["al_diff"]
        assert by_kind["oracle"]["awr"] == 0.0
        assert by_kind["oracle"]["al_diff"] > 0.0

    def test_accuracy_is_counted_from_the_traces(self, tmp_path, monkeypatch):
        # each trained predictor's accuracy is its `evaluate` accuracy on the
        # test split, whatever tau gates, yet the sweep never calls evaluate
        config = _config(tmp_path, predictors=("indomain", "outdomain", "oracle", "always_wrong"), tau_grid=(0.0, 1.0))
        data = prepare_data(config)
        trained = experiment.build_predictors(config, data)
        expected = {kind: model.evaluate(data.test_sources)["accuracy"] for kind, model in trained.items()}
        expected.update(oracle=1.0, always_wrong=0.0)

        def evaluate(self, corpus):
            raise AssertionError("the sweep called NgramModel.evaluate")

        monkeypatch.setattr(NgramModel, "evaluate", evaluate)
        result = run_experiment(config)
        assert result.ok, result.failures
        assert len(result.summary_rows) == 2 * 2 * 4
        for row in result.summary_rows:
            assert row["accuracy"] == expected[row["predictor"]]


class TestScoreOnce:
    """BLEU statistics are counted once per (sentence index, final output)."""

    @staticmethod
    def _count_bleu_stats(monkeypatch):
        calls = []

        def counted(hyp, ref):
            calls.append(tuple(hyp))
            return bleu_stats(hyp, ref)

        monkeypatch.setattr(experiment, "bleu_stats", counted)
        return calls

    def test_counted_once_per_sentence_and_output(self, tmp_path, monkeypatch):
        calls = self._count_bleu_stats(monkeypatch)
        config = _config(tmp_path, record_traces=True, predictors=("indomain", "oracle"), tau_grid=(0.0, 0.5))
        assert run_experiment(config).ok
        out = Path(config.out_dir)
        traces = [load_trace(path) for path in sorted((out / "traces").rglob("*.jsonl"))]
        outputs = {(t.run_config.sentence_index, replay(t).final) for t in traces}
        baselines = [t for t in traces if t.run_config.predictor == "none"]
        # speculation changes no output, so the baselines hold every pair
        assert outputs == {(t.run_config.sentence_index, replay(t).final) for t in baselines}
        assert len(calls) == len(outputs) <= len(baselines) < len(traces)

        calls.clear()
        references = read_corpus_lines(out / "data" / "references.txt")
        run_rows, _ = metrics_from_traces(sorted((out / "traces").rglob("*.jsonl")), references)
        assert len(calls) == len(outputs)
        assert len(run_rows) == len(traces)

    def test_bleu_computed_once_per_sentence_and_output(self, tmp_path, monkeypatch):
        calls = []
        real = experiment.bleu_from_stats

        def counted(stats):
            calls.append(stats)
            return real(stats)

        monkeypatch.setattr(experiment, "bleu_from_stats", counted)
        config = _config(tmp_path, record_traces=True, predictors=("indomain", "oracle"), tau_grid=(0.0, 0.5))
        result = run_experiment(config)
        assert result.ok
        out = Path(config.out_dir)
        traces = [load_trace(path) for path in sorted((out / "traces").rglob("*.jsonl"))]
        outputs = {(t.run_config.sentence_index, replay(t).final) for t in traces}
        # one value per distinct (sentence, output) for the rows, and one per summary row
        assert len(calls) == len(outputs) + len(result.summary_rows) < len(traces)

        calls.clear()
        references = read_corpus_lines(out / "data" / "references.txt")
        _, paired = metrics_from_traces(sorted((out / "traces").rglob("*.jsonl")), references)
        assert len(calls) == len(outputs) + len(paired)

    def test_differing_output_is_scored_on_its_own(self, tmp_path, monkeypatch):
        # a speculative run that drops its last source token: its output
        # differs from the baseline's, and its BLEU must count that output
        calls = self._count_bleu_stats(monkeypatch)
        real_run_speculative = experiment.run_speculative

        def truncating(model, predictor, source, engine_config, run_config):
            if run_config.sentence_index == 108:
                source = source[:-1]
            return real_run_speculative(model, predictor, source, engine_config, run_config)

        monkeypatch.setattr(experiment, "run_speculative", truncating)
        config = _config(tmp_path, record_traces=True, k_grid=(2,))
        result = run_experiment(config)
        assert result.failures == ["wait_k(k=2) tau=0.0 predictor=indomain: sentence 108 (corpus line 109): "
                                   "speculative output differs"]
        out = Path(config.out_dir)
        references = read_corpus_lines(out / "data" / "references.txt")
        own = load_trace(out / "traces" / "wait_k-2.0-tau0.0-indomain" / "00108.jsonl")
        baseline = load_trace(out / "traces" / "wait_k-2.0-baseline" / "00108.jsonl")
        own_output, baseline_output = replay(own).final, replay(baseline).final
        assert own_output != baseline_output and own_output in calls
        row = next(r for r in _read_csv(out / "runs.csv") if r["run_id"] == "wait_k-2.0-tau0.0-indomain-00108")
        assert row["BLEU"] == str(bleu_from_stats(bleu_stats(own_output, references[108].split())))
        # the grid point's BLEU counts the differing output, not the baseline's
        spec_dir = out / "traces" / "wait_k-2.0-tau0.0-indomain"
        hyps = [replay(load_trace(path)).final for path in sorted(spec_dir.glob("*.jsonl"))]
        refs = [tuple(references[i].split()) for i in range(108, 120)]
        assert hyps[0] == own_output
        bleu = float(result.summary_rows[0]["bleu"])
        assert bleu == pytest.approx(brute_force_bleu(hyps, refs), abs=1e-12)
        assert bleu != pytest.approx(brute_force_bleu([baseline_output, *hyps[1:]], refs), abs=1e-12)


class TestSingleReplay:
    """A run's trace is replayed once, by `score_run`, never by the engine."""

    @staticmethod
    def _count_replays(monkeypatch):
        """Count calls of `replay` through every package module that binds it."""
        calls = []
        real = trace_module.replay

        def counted(trace):
            calls.append(trace)
            return real(trace)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "specmt" and getattr(module, "replay", None) is real:
                monkeypatch.setattr(module, "replay", counted)
        return calls

    def test_engine_does_not_replay(self, tmp_path, monkeypatch):
        calls = self._count_replays(monkeypatch)
        data = prepare_data(_config(tmp_path))
        model = SimtModel(lexicon=data.lexicon, policy=PolicyConfig.wait_k(2), vocabulary=data.vocabulary)
        for source in data.test_sources:
            run_baseline(model, source)
            run_speculative(model, OraclePredictor(source), source)
        assert calls == []

    def test_sweep_replays_each_run_once(self, tmp_path, monkeypatch):
        # a run that serves several grid points is replayed once: replays are
        # the distinct (rule, predictor, sentence, gating) of the traces
        calls = self._count_replays(monkeypatch)
        config = _config(
            tmp_path, l_grid=(0.05,), predictors=("indomain", "oracle"), tau_grid=(0.0, 0.5), record_traces=True,
        )
        assert run_experiment(config).ok
        out = Path(config.out_dir)
        rows = len(_read_csv(out / "runs.csv"))
        engine_runs = _engine_runs(load_trace(path) for path in (out / "traces").rglob("*.jsonl"))
        assert rows == 3 * 12 * (1 + 2 * 2)
        # adaptive 0.05 decides as wait-k 1; per rule and sentence: the baseline,
        # one oracle run (its probability 1.0 clears both taus), two indomain runs
        assert len(calls) == len(engine_runs) == 2 * 12 * (1 + 1 + 2) < rows

    def test_replay_error_is_the_sentence_failure(self, tmp_path, monkeypatch):
        # a speculative run of k=1 whose trace lacks END: its grid point
        # fails at that sentence, and the other grid points still run
        real_run_speculative = experiment.run_speculative

        def unended(model, predictor, source, engine_config, run_config):
            run = real_run_speculative(model, predictor, source, engine_config, run_config)
            if run_config.param == 1.0 and run_config.sentence_index == 110:
                return replace(run, trace=replace(run.trace, events=run.trace.events[:-1]))
            return run

        monkeypatch.setattr(experiment, "run_speculative", unended)
        result = run_experiment(_config(tmp_path))
        assert result.failures == ["wait_k(k=1) tau=0.0 predictor=indomain: sentence 110 (corpus line 111): "
                                   "inconsistent trace: missing END"]
        assert [(row["policy"], row["param"]) for row in result.summary_rows] == [("wait_k", 3.0)]


def _engine_runs(traces) -> set[tuple]:
    """The distinct (rule, predictor, sentence index, gating) of the traces,
    baselines included: the gating says which of the trace's own PREDICT
    probabilities clear the trace's own tau."""
    runs = set()
    for trace in traces:
        cfg = trace.run_config
        policy = PolicyConfig.wait_k(int(cfg.param)) if cfg.policy == "wait_k" else PolicyConfig.adaptive(cfg.param)
        gating = tuple(not event.p < cfg.tau for event in map(Event._make, trace.events) if event.ev == "PREDICT")
        runs.add((policy.rule, cfg.predictor, cfg.sentence_index, gating))
    return runs


class TestTauSharing:
    """A sweep runs each (rule, predictor, sentence) once per distinct gating
    over the tau grid, and relabels an earlier run, of any policy with that
    rule, that gates alike for the other grid points; every output equals
    that of a sweep that runs each grid point on its own."""

    @staticmethod
    def _count_runs(monkeypatch, fail=()):
        """Record the run config of every `run_speculative` call of a sweep;
        a run whose (param, tau, sentence index) is in `fail` raises."""
        calls = []
        real = experiment.run_speculative

        def counted(model, predictor, source, engine_config, run_config):
            calls.append(run_config)
            if (run_config.param, run_config.tau, run_config.sentence_index) in fail:
                raise EngineError("injected failure")
            return real(model, predictor, source, engine_config, run_config)

        monkeypatch.setattr(experiment, "run_speculative", counted)
        return calls

    # an unsorted grid shares as fully: a run is reused at any tau that gates alike.
    # wait-k 1 and adaptive 0.05 share a rule, and so do adaptive 0.5 and 0.2.
    @pytest.mark.parametrize("tau_grid", [(0.0, 0.3, 0.9, 1.0), (0.9, 0.0, 1.0, 0.3)])
    def test_sweep_equals_independent_sweep(self, tmp_path, monkeypatch, tau_grid):
        calls = self._count_runs(monkeypatch)
        baseline_calls = []
        real_run_baseline = experiment.run_baseline

        def counted_baseline(model, source, run_config):
            baseline_calls.append(run_config)
            return real_run_baseline(model, source, run_config)

        monkeypatch.setattr(experiment, "run_baseline", counted_baseline)
        config = _config(
            tmp_path, k_grid=(1, 3), l_grid=(0.5, 0.2, 0.05), tau_grid=tau_grid,
            predictors=("indomain", "oracle", "always_wrong"), record_traces=True,
        )
        assert run_experiment(config).ok
        runs_text, summary_text, traces = independent_sweep(config)
        out = Path(config.out_dir)
        assert (out / "runs.csv").read_bytes() == runs_text.encode("utf-8")
        assert (out / "summary.csv").read_bytes() == summary_text.encode("utf-8")
        assert {
            path.relative_to(out / "traces").as_posix(): path.read_bytes() for path in (out / "traces").rglob("*.jsonl")
        } == traces
        # one engine run per distinct (rule, predictor, sentence, gating), counted from the independent traces
        engine_runs = _engine_runs(parse_trace(text.decode("utf-8")) for text in traces.values())
        assert len(baseline_calls) == sum(1 for run in engine_runs if run[1] == "none") == 3 * 12
        assert len(calls) == sum(1 for run in engine_runs if run[1] != "none") < 3 * 3 * 12 * 4
        assert {(run[0], run[1], run[2]) for run in engine_runs if run[1] != "none"} == {
            (rule, kind, index) for rule in (("wait_k", 1), ("wait_k", 3), ("settled", None))
            for kind in config.predictors for index in range(108, 120)
        }
        # the oracle reports probability 1.0, so it runs once per sentence per rule
        oracle_runs = Counter((c.policy, c.param, c.sentence_index) for c in calls if c.predictor == "oracle")
        assert len(oracle_runs) == 3 * 12 and set(oracle_runs.values()) == {1}

    @pytest.mark.parametrize("fail, failing", [
        ({(1.0, 0.0, 110)}, ["wait_k(k=1)"]),
        ({(1.0, 0.0, 110), (0.05, 0.0, 110)}, ["wait_k(k=1)", "adaptive(L=0.05, threshold=0.45)"]),
    ], ids=["first-raises", "both-raise"])
    def test_a_run_that_raised_is_not_shared_across_policies(self, tmp_path, monkeypatch, fail, failing):
        # wait-k 1's oracle run of sentence 110 raises, so adaptive 0.05, of the
        # same rule, runs that sentence and those after it afresh: it completes,
        # or, when its own run raises too, fails naming its own grid point
        calls = self._count_runs(monkeypatch, fail=fail)
        config = _config(tmp_path, k_grid=(1, 3), l_grid=(0.05,), predictors=("oracle",))
        result = run_experiment(config)
        assert result.failures == [
            f"{point} tau=0.0 predictor=oracle: sentence 110 (corpus line 111): injected failure" for point in failing
        ]
        runs_text, _, _ = independent_sweep(config)
        params = {"wait_k(k=1)": "1.0", "adaptive(L=0.05, threshold=0.45)": "0.05"}
        failed = {(params[point], "0.0", "oracle") for point in failing}
        expected = [row for row in csv.DictReader(io.StringIO(runs_text))
                    if (row["param"], row["tau"], row["predictor"]) not in failed]
        assert _read_csv(Path(config.out_dir) / "runs.csv") == expected
        assert [c.sentence_index for c in calls if c.param == 1.0] == [108, 109, 110]
        afresh = [110] if len(failing) == 2 else list(range(110, 120))
        assert [c.sentence_index for c in calls if c.param == 0.05] == afresh

    def test_a_probability_equal_to_a_tau_decides_reuse(self, tmp_path, monkeypatch):
        # taus that equal probabilities the in-domain model gives: at `tie`, the
        # largest below 1.0, a run kept at 1.0 that predicted `tie` speculates
        # there, so it is not reused; at `least`, the smallest, every run kept at
        # 0.0 gates alike, so it is reused
        calls = self._count_runs(monkeypatch)
        config = _config(tmp_path, record_traces=True)
        data = prepare_data(config)
        model = experiment.build_predictors(config, data)["indomain"]
        probabilities = {model.predict(source[:k]).probability
                         for source in data.test_sources for k in range(len(source) + 1)}
        tie, least = max(p for p in probabilities if p < 1.0), min(probabilities)
        config = replace(config, tau_grid=(1.0, tie, 0.0, least))
        assert run_experiment(config).ok
        runs_text, summary_text, traces = independent_sweep(config)
        out = Path(config.out_dir)
        assert (out / "runs.csv").read_bytes() == runs_text.encode("utf-8")
        assert (out / "summary.csv").read_bytes() == summary_text.encode("utf-8")
        assert {
            path.relative_to(out / "traces").as_posix(): path.read_bytes() for path in (out / "traces").rglob("*.jsonl")
        } == traces
        engine_runs = _engine_runs(parse_trace(text.decode("utf-8")) for text in traces.values())
        assert len(calls) == sum(1 for run in engine_runs if run[1] != "none") < 2 * 12 * 4

    @pytest.mark.parametrize("fault, problems", [
        ("truncated source", ["speculative output differs"]),
        ("output not replayed", ["speculative output differs", "trace replays to another output"]),
    ])
    def test_checks_run_on_every_reused_row(self, tmp_path, monkeypatch, fault, problems):
        # the oracle's k=1 run of sentence 108 at tau 0 outputs what its
        # baseline does not (and, in the second case, what its trace does not
        # replay to); tau 0.5 and adaptive 0.05, of the same rule, reuse that
        # run, and each of the four grid points fails on its own
        calls = []
        real_run_speculative = experiment.run_speculative

        def faulty(model, predictor, source, engine_config, run_config):
            calls.append(run_config)
            if run_config.sentence_index != 108:
                return real_run_speculative(model, predictor, source, engine_config, run_config)
            if fault == "truncated source":
                return real_run_speculative(model, OraclePredictor(source[:-1]), source[:-1], engine_config, run_config)
            run = real_run_speculative(model, predictor, source, engine_config, run_config)
            return replace(run, final_output=run.final_output[:-1])

        monkeypatch.setattr(experiment, "run_speculative", faulty)
        config = _config(tmp_path, k_grid=(1,), l_grid=(0.05,), tau_grid=(0.0, 0.5), predictors=("oracle",))
        result = run_experiment(config)
        points = ["wait_k(k=1) tau=0.0", "wait_k(k=1) tau=0.5",
                  "adaptive(L=0.05, threshold=0.45) tau=0.0", "adaptive(L=0.05, threshold=0.45) tau=0.5"]
        assert result.failures == [
            f"{point} predictor=oracle: sentence 108 (corpus line 109): {problem}"
            for point in points for problem in problems
        ]
        # one run per sentence serves all four grid points
        assert [(c.param, c.tau, c.sentence_index) for c in calls] == [(1.0, 0.0, i) for i in range(108, 120)]
        assert len(_read_csv(Path(config.out_dir) / "runs.csv")) == 12 * 6

    def test_a_run_that_raised_is_not_shared(self, tmp_path, monkeypatch):
        # the oracle's k=1 run of sentence 110 raises at tau 0: that grid point
        # fails there, and at tau 0.5 the sentence and those after it run again
        calls = self._count_runs(monkeypatch, fail={(1.0, 0.0, 110)})
        config = _config(tmp_path, predictors=("oracle",), tau_grid=(0.0, 0.5))
        result = run_experiment(config)
        failures = ["wait_k(k=1) tau=0.0 predictor=oracle: sentence 110 (corpus line 111): injected failure"]
        out = Path(config.out_dir)
        assert result.failures == failures
        assert json.loads((out / "meta.json").read_text(encoding="utf-8"))["failures"] == failures
        runs_text, _, _ = independent_sweep(config)
        expected = [row for row in csv.DictReader(io.StringIO(runs_text))
                    if (row["param"], row["tau"], row["predictor"]) != ("1.0", "0.0", "oracle")]
        assert _read_csv(out / "runs.csv") == expected
        assert [(c.tau, c.sentence_index) for c in calls if c.param == 1.0] == [
            (0.0, 108), (0.0, 109), (0.0, 110), *((0.5, index) for index in range(110, 120)),
        ]
        assert [(c.tau, c.sentence_index) for c in calls if c.param == 3.0] == [(0.0, i) for i in range(108, 120)]

    def test_what_failing_points_leave_on_disk(self, tmp_path, monkeypatch):
        # k=1's baseline raises at sentence 112: its traces stop there and its
        # policy is skipped. k=5's oracle run of sentence 110 raises at tau 0:
        # that point's traces stop there, and tau 0.5 is complete.
        calls = self._count_runs(monkeypatch, fail={(5.0, 0.0, 110)})
        real_run_baseline = experiment.run_baseline

        def failing(model, source, run_config):
            if (run_config.param, run_config.sentence_index) == (1.0, 112):
                raise EngineError("injected baseline failure")
            return real_run_baseline(model, source, run_config)

        monkeypatch.setattr(experiment, "run_baseline", failing)
        config = _config(tmp_path, k_grid=(1, 3, 5), predictors=("oracle",), tau_grid=(0.0, 0.5), record_traces=True)
        result = run_experiment(config)
        assert result.failures == [
            "baseline wait_k(k=1): sentence 112 (corpus line 113): injected baseline failure",
            "wait_k(k=5) tau=0.0 predictor=oracle: sentence 110 (corpus line 111): injected failure",
        ]
        out = Path(config.out_dir)
        runs_text, _, traces = independent_sweep(config)

        # the sentence index at which each point's traces stop; k=1's speculative points have none
        stop = {"wait_k-1.0-baseline": 112, "wait_k-5.0-tau0.0-oracle": 110}
        stop.update({path.split("/")[0]: 0 for path in traces if path.startswith("wait_k-1.0-tau")})
        expected = {
            path: text for path, text in traces.items() if int(Path(path).stem) < stop.get(path.split("/")[0], 120)
        }
        assert {
            path.relative_to(out / "traces").as_posix(): path.read_bytes() for path in (out / "traces").rglob("*.jsonl")
        } == expected
        assert sorted(p.name for p in (out / "traces").iterdir()) == sorted({path.split("/")[0] for path in expected})
        assert _read_csv(out / "runs.csv") == [
            row for row in csv.DictReader(io.StringIO(runs_text))
            if row["param"] != "1.0" and (row["param"], row["tau"], row["predictor"]) != ("5.0", "0.0", "oracle")
        ]
        # the tau 0.5 point reuses the kept runs of 108 and 109 and runs the rest again
        assert [(c.tau, c.sentence_index) for c in calls if c.param == 5.0] == [
            (0.0, 108), (0.0, 109), (0.0, 110), *((0.5, index) for index in range(110, 120)),
        ]


class TestTraceMetrics:
    def test_traces_agree_with_run_rows(self, tmp_path):
        # `metrics` reproduces every runs.csv row, string for string
        config = _config(
            tmp_path, record_traces=True, predictors=("indomain", "outdomain", "oracle", "always_wrong"),
            k_grid=(2,), l_grid=(0.1,), tau_grid=(0.0, 0.5),
        )
        result = run_experiment(config)
        assert result.ok
        out = Path(config.out_dir)
        traces = sorted((out / "traces").rglob("*.jsonl"))
        assert traces
        references = read_corpus_lines(out / "data" / "references.txt")
        runs_path, paired_path = write_trace_metrics(traces, tmp_path / "m", references)
        recomputed = _read_csv(runs_path)
        runs_csv = {r["run_id"]: r for r in _read_csv(out / "runs.csv")}
        assert len(recomputed) == len(runs_csv)
        for row in recomputed:
            assert list(row) == RUN_COLUMNS
            assert row == runs_csv[row["run_id"]]
        # summary.csv aggregates rebuilt from the recomputed rows and traces
        summary = {(r["policy"], r["param"], r["tau"], r["predictor"]): r for r in _read_csv(out / "summary.csv")}
        groups: dict[tuple, list[dict]] = {}
        baseline_al = {}
        for row in recomputed:
            index = int(row["run_id"].rsplit("-", 1)[1])
            if row["predictor"] == "none":
                baseline_al[(row["policy"], row["param"], index)] = float(row["AL"])
            else:
                groups.setdefault((row["policy"], row["param"], row["tau"], row["predictor"]), []).append(row)
        hypotheses = {
            path.relative_to(out / "traces").with_suffix("").as_posix(): replay(load_trace(path)).final
            for path in traces
        }
        assert sorted(groups) == sorted(summary)
        for key, rows in groups.items():
            policy, param, tau, predictor = key
            sums = {col: sum(int(r[col]) for r in rows) for col in ("W", "S", "H", "J")}
            assert float(summary[key]["awr"]) == sums["W"] / sums["J"]
            assert int(summary[key]["speculations"]) == sums["S"]
            assert int(summary[key]["hits"]) == sums["H"]
            assert int(summary[key]["withdrawals"]) == sums["W"]
            indices = [int(r["run_id"].rsplit("-", 1)[1]) for r in rows]
            al_base = sum(baseline_al[(policy, param, i)] for i in indices) / len(rows)
            al_spec = sum(float(r["AL"]) for r in rows) / len(rows)
            assert int(summary[key]["sentences"]) == len(rows)
            assert float(summary[key]["al_baseline"]) == al_base
            assert float(summary[key]["al_speculative"]) == al_spec
            assert float(summary[key]["al_diff"]) == al_base - al_spec
            hyps = [hypotheses[f"{policy}-{param}-tau{tau}-{predictor}/{i:05d}"] for i in indices]
            refs = [tuple(references[i].split()) for i in indices]
            assert float(summary[key]["bleu"]) == pytest.approx(brute_force_bleu(hyps, refs), abs=1e-12)
        # trace_paired.csv is summary.csv, accuracy included, string for string
        paired = _read_csv(paired_path)
        assert len(paired) == len(summary) == 16
        for row in paired:
            assert list(row) == SUMMARY_COLUMNS
            assert row == summary[tuple(row[c] for c in SUMMARY_COLUMNS[:4])]

    def test_summary_in_grid_order_and_paired_sorted(self, tmp_path):
        config = _config(
            tmp_path, record_traces=True, predictors=("oracle", "indomain"),
            k_grid=(3, 1), l_grid=(0.5, 0.05), tau_grid=(0.5, 0.0),
        )
        assert run_experiment(config).ok
        out = Path(config.out_dir)
        summary = [tuple(r[c] for c in ("policy", "param", "tau", "predictor")) for r in _read_csv(out / "summary.csv")]
        grid = [
            (policy, param, tau, kind)
            for policy, param in (("wait_k", "3.0"), ("wait_k", "1.0"), ("adaptive", "0.5"), ("adaptive", "0.05"))
            for tau in ("0.5", "0.0")
            for kind in ("oracle", "indomain")
        ]
        assert summary == grid
        _, paired_path = write_trace_metrics(sorted((out / "traces").rglob("*.jsonl")), tmp_path / "m")
        paired = [tuple(r[c] for c in ("policy", "param", "tau", "predictor")) for r in _read_csv(paired_path)]
        assert paired == sorted(grid, key=lambda k: (k[0], float(k[1]), float(k[2]), k[3]))

    def test_two_traces_of_one_run_rejected(self, tmp_path):
        # run ids hold no seed or corpus: the traces of two sweeps must not mix
        merged = tmp_path / "merged"
        for seed in (1, 2):
            config = _config(
                tmp_path, record_traces=True, n_sentences=60, seed=seed, k_grid=(2,), predictors=("oracle",),
                out_dir=str(tmp_path / f"seed{seed}"),
            )
            assert run_experiment(config).ok
            shutil.copytree(Path(config.out_dir) / "traces", merged / f"seed{seed}")
        traces = sorted(merged.rglob("*.jsonl"))
        first = merged / "seed1" / "wait_k-2.0-baseline" / "00054.jsonl"
        second = merged / "seed2" / "wait_k-2.0-baseline" / "00054.jsonl"
        with pytest.raises(ExperimentError) as raised:
            metrics_from_traces(traces)
        assert str(raised.value) == f"{second} and {first} both hold run wait_k-2.0-tau0.0-none-00054"

    def test_a_header_that_spells_a_number_as_an_int_names_the_same_run(self, tmp_path):
        # `summarize` groups 1 with 1.0, so without the check three traces would make one grid point of two runs
        config = _config(tmp_path, record_traces=True, n_sentences=20, k_grid=(1,), predictors=("oracle",))
        assert run_experiment(config).ok
        traces = sorted((Path(config.out_dir) / "traces").rglob("*.jsonl"))
        first = next(path for path in traces if path.parent.name == "wait_k-1.0-tau0.0-oracle")
        text = first.read_text(encoding="utf-8")
        for n, (old, new) in enumerate([('"param": 1.0', '"param": 1'), ('"tau": 0.0', '"tau": 0'),
                                        ('"tau": 0.0', '"tau": -0.0')]):
            copy = tmp_path / f"copy{n}.jsonl"
            copy.write_text(text.replace(old, new, 1), encoding="utf-8")
            run_id = f"wait_k-{1 if n == 0 else 1.0}-tau{(0.0, 0, -0.0)[n]}-oracle-{first.stem}"
            with pytest.raises(ExperimentError) as raised:
                metrics_from_traces([*traces, copy])
            assert str(raised.value) == f"{copy} and {first} both hold run {run_id}"
        # two copies with identical headers, NaN included, are one run too
        nan = [tmp_path / "nan0.jsonl", tmp_path / "nan1.jsonl"]
        for path in nan:
            path.write_text(text.replace('"param": 1.0', '"param": NaN', 1), encoding="utf-8")
        with pytest.raises(ExperimentError) as raised:
            metrics_from_traces(nan)
        assert str(raised.value) == f"{nan[1]} and {nan[0]} both hold run wait_k-nan-tau0.0-oracle-{first.stem}"

    def test_a_param_past_the_float_range_is_sorted_as_a_number(self, tmp_path):
        lines = ['{"ev": "READ", "i": 1, "tok": "a"}', '{"ev": "WRITE", "j": 1, "tok": "b", "i": 1}',
                 '{"ev": "READ", "i": 2, "tok": "</s>"}', '{"ev": "WRITE", "j": 2, "tok": "</s>", "i": 1}',
                 '{"ev": "END"}']
        paths = []
        for param in (10 ** 400, 2, 10 ** 400 + 1):
            paths.append(tmp_path / f"{len(paths)}.jsonl")
            header = RunConfig(policy="wait_k", param=param).to_json()
            paths[-1].write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
        run_rows, _ = metrics_from_traces(paths)
        assert [row["param"] for row in run_rows] == [2, 10 ** 400, 10 ** 400 + 1]

    def test_paired_requires_baselines(self, tmp_path):
        config = _config(tmp_path, record_traces=True, predictors=("oracle",), k_grid=(2,))
        run_experiment(config)
        out = Path(config.out_dir)
        spec_only = sorted((out / "traces" / "wait_k-2.0-tau0.0-oracle").glob("*.jsonl"))
        assert spec_only

        # speculative traces only: pairing must fail loudly
        with pytest.raises(ExperimentError, match="no baseline trace"):
            metrics_from_traces(spec_only)

    def test_replay_error_names_file(self, tmp_path):
        path = tmp_path / "no_end.jsonl"
        path.write_text(
            '{"policy": "wait_k", "param": 1.0, "tau": 0.0, "predictor": "none", '
            '"corpus": "c", "seed": 0, "sentence_index": 0}\n'
            '{"ev": "READ", "i": 1, "tok": "a"}\n'
            '{"ev": "WRITE", "i": 1, "j": 1, "tok": "A"}\n',
            encoding="utf-8",
        )
        with pytest.raises(ExperimentError, match=re.escape(f"{path}: inconsistent trace: missing END")):
            metrics_from_traces([path])

    def test_reference_index_out_of_range_names_file(self, tmp_path):
        path = tmp_path / "late.jsonl"
        path.write_text(
            '{"policy": "wait_k", "param": 1.0, "tau": 0.0, "predictor": "none", '
            '"corpus": "c", "seed": 0, "sentence_index": 5}\n'
            '{"ev": "READ", "i": 1, "tok": "a"}\n'
            '{"ev": "WRITE", "i": 1, "j": 1, "tok": "A"}\n'
            '{"ev": "READ", "i": 2, "tok": "</s>"}\n'
            '{"ev": "WRITE", "i": 2, "j": 2, "tok": "</s>"}\n'
            '{"ev": "END"}\n',
            encoding="utf-8",
        )
        metrics_from_traces([path])  # a valid trace without references
        with pytest.raises(ExperimentError, match=re.escape(f"{path}: sentence_index 5 is outside the 0 reference lines")):
            metrics_from_traces([path], [])

    def test_write_trace_metrics_files(self, tmp_path):
        config = _config(tmp_path, record_traces=True, predictors=("oracle",), k_grid=(2,))
        run_experiment(config)
        out = Path(config.out_dir)
        traces = sorted((out / "traces").rglob("*.jsonl"))
        runs_path, paired_path = write_trace_metrics(traces, tmp_path / "m")
        assert runs_path.exists() and paired_path.exists()


class TestPlotData:
    def test_figure_csv_shapes(self, tmp_path):
        config = _config(tmp_path, predictors=("indomain", "oracle"), tau_grid=(0.0, 0.5))
        run_experiment(config)
        written = plot_data(config.out_dir)
        names = {p.name for p in written}
        assert names == {
            "fig1_latency_improvement.csv",
            "fig2_quality_latency.csv",
            "fig4_predictor_comparison.csv",
            "fig6_threshold_tradeoff.csv",
        }
        fig1 = _read_csv(Path(config.out_dir) / "fig1_latency_improvement.csv")
        assert len(fig1) == 8  # one row per grid point
        fig2 = _read_csv(Path(config.out_dir) / "fig2_quality_latency.csv")
        assert len(fig2) == 2  # one row per policy-parameter
        fig6 = _read_csv(Path(config.out_dir) / "fig6_threshold_tradeoff.csv")
        taus = [float(r["tau"]) for r in fig6 if r["predictor"] == "oracle" and r["param"] == "1.0"]
        assert taus == sorted(taus)

    def test_max_awr_filter(self, tmp_path):
        config = _config(tmp_path, predictors=("always_wrong", "oracle"))
        run_experiment(config)
        plot_data(config.out_dir, max_awr=0.5)
        fig1 = _read_csv(Path(config.out_dir) / "fig1_latency_improvement.csv")
        assert all(r["predictor"] != "always_wrong" for r in fig1)
        assert any(r["predictor"] == "oracle" for r in fig1)

    def test_missing_results_rejected(self, tmp_path):
        with pytest.raises(ExperimentError, match="missing summary.csv"):
            plot_data(tmp_path)


class TestCouplingInvariants:
    # accuracy drives latency gain through wait-1, where every speculative
    # write value depends on the predicted token; at larger k the transducer
    # translates already-known tokens and the coupling washes out

    def test_predictability_drives_latency_gain(self, tmp_path):
        # lower concentration -> higher predictor accuracy -> larger AL_diff;
        # fixed-length sentences keep the attainable shift constant across
        # corpora so the comparison isolates accuracy
        accuracies, gains = [], []
        for kappa in (0.01, 0.1, 1.0, 10.0):
            config = _config(
                tmp_path,
                kappa=kappa,
                ambiguity_rate=0.0,
                min_length=8,
                max_length=8,
                n_sentences=300,
                k_grid=(1,),
                out_dir=str(tmp_path / f"kappa{kappa}"),
            )
            result = run_experiment(config)
            assert result.ok
            row = result.summary_rows[0]
            accuracies.append(row["accuracy"])
            gains.append(row["al_diff"])
        assert accuracies == sorted(accuracies, reverse=True)
        assert gains == sorted(gains, reverse=True)

    def test_in_domain_beats_out_of_domain(self, tmp_path):
        config = _config(
            tmp_path,
            predictors=("indomain", "outdomain"),
            n_sentences=400,
            k_grid=(1,),
        )
        result = run_experiment(config)
        assert result.ok
        rows = {r["predictor"]: r for r in result.summary_rows}
        assert rows["indomain"]["accuracy"] > rows["outdomain"]["accuracy"]
        assert rows["indomain"]["al_diff"] > rows["outdomain"]["al_diff"]

    def test_outdomain_requires_generated_corpus(self, tmp_path):
        # rejected when the config is built, before any file is read
        with pytest.raises(ExperimentError, match="^predictors: out-of-domain predictor needs a generated corpus$"):
            _config(tmp_path, corpus="c.txt", lexicon="l.tsv", references="r.txt", predictors=("outdomain",))
