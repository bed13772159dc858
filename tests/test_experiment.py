from __future__ import annotations

import csv
import re
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from specmt import (
    ExperimentConfig, OraclePredictor, PolicyConfig, SimtModel, experiment, gen_corpus, load_config, load_trace,
    metrics_from_traces, plot_data, run_baseline, run_experiment, run_speculative, snapshot_from_trace,
)
from specmt import trace as trace_module
from specmt.experiment import (
    ExperimentError,
    PAIRED_COLUMNS,
    RUN_COLUMNS,
    SUMMARY_COLUMNS,
    parse_config_text,
    prepare_data,
    write_trace_metrics,
)
from specmt.metrics import bleu_from_stats, bleu_stats
from specmt.vocab import read_corpus_lines
from oracles import brute_force_bleu


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
    def _sweep_with_target_token(tmp_path, blank_line=None):
        """Sweep a 60-sentence corpus whose sentence 56 (test split) holds a
        target-side token, in the vocabulary but not a source token: it
        loads, and the sweep fails there. `blank_line`, when given, is the
        physical line at which a blank line is inserted."""
        spec = _config(tmp_path).source_spec()
        corpus, lexicon, references = gen_corpus(spec, 60, tmp_path / "world")
        lines = corpus.read_text(encoding="utf-8").splitlines()
        first, *rest = lines[56].split()
        lines[56] = " ".join([first, "T00", *rest])
        if blank_line is not None:
            lines.insert(blank_line - 1, "")
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        config = _config(
            tmp_path, corpus=str(corpus), lexicon=str(lexicon), references=str(references),
            k_grid=(2,), predictors=("oracle",),
        )
        result = run_experiment(config)
        assert len(result.failures) == 1
        return result.failures[0]

    def test_failure_names_sentence_and_corpus_line(self, tmp_path):
        failure = self._sweep_with_target_token(tmp_path)
        assert failure.startswith("baseline wait_k(k=2): sentence 56 (corpus line 57): ")

    def test_failure_names_physical_corpus_line(self, tmp_path):
        # a blank line before it moves sentence 56 to physical line 58
        failure = self._sweep_with_target_token(tmp_path, blank_line=4)
        assert failure.startswith("baseline wait_k(k=2): sentence 56 (corpus line 58): ")

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
        outputs = {(t.run_config.sentence_index, snapshot_from_trace(t).final) for t in traces}
        baselines = [t for t in traces if t.run_config.predictor == "none"]
        # speculation changes no output, so the baselines hold every pair
        assert outputs == {(t.run_config.sentence_index, snapshot_from_trace(t).final) for t in baselines}
        assert len(calls) == len(outputs) <= len(baselines) < len(traces)

        calls.clear()
        references = read_corpus_lines(out / "data" / "references.txt")
        run_rows, _ = metrics_from_traces(sorted((out / "traces").rglob("*.jsonl")), references)
        assert len(calls) == len(outputs)
        assert len(run_rows) == len(traces)

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
        own_output, baseline_output = snapshot_from_trace(own).final, snapshot_from_trace(baseline).final
        assert own_output != baseline_output and own_output in calls
        row = next(r for r in _read_csv(out / "runs.csv") if r["run_id"] == "wait_k-2.0-tau0.0-indomain-00108")
        assert row["BLEU"] == str(bleu_from_stats(bleu_stats(own_output, references[108].split())))
        # the grid point's BLEU counts the differing output, not the baseline's
        spec_dir = out / "traces" / "wait_k-2.0-tau0.0-indomain"
        hyps = [snapshot_from_trace(load_trace(path)).final for path in sorted(spec_dir.glob("*.jsonl"))]
        refs = [tuple(references[i].split()) for i in range(108, 120)]
        assert hyps[0] == own_output
        bleu = float(result.summary_rows[0]["bleu"])
        assert bleu == pytest.approx(brute_force_bleu(hyps, refs), abs=1e-12)
        assert bleu != pytest.approx(brute_force_bleu([baseline_output, *hyps[1:]], refs), abs=1e-12)


class TestSingleReplay:
    """A run's trace is replayed once, by `score_run`, never by the engine."""

    @staticmethod
    def _count_replays(monkeypatch):
        """Count calls of `snapshot_from_trace` through every package module
        that binds it."""
        calls = []
        real = trace_module.snapshot_from_trace

        def counted(trace):
            calls.append(trace)
            return real(trace)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "specmt" and getattr(module, "snapshot_from_trace", None) is real:
                monkeypatch.setattr(module, "snapshot_from_trace", counted)
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
        calls = self._count_replays(monkeypatch)
        config = _config(tmp_path, predictors=("indomain", "oracle"), tau_grid=(0.0, 0.5))
        assert run_experiment(config).ok
        assert len(calls) == len(_read_csv(Path(config.out_dir) / "runs.csv")) == 2 * 12 * (1 + 2 * 2)

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
            path.relative_to(out / "traces").with_suffix("").as_posix(): snapshot_from_trace(load_trace(path)).final
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
        # trace_paired.csv is summary.csv without accuracy, string for string
        paired = _read_csv(paired_path)
        assert len(paired) == len(summary) == 16
        for row in paired:
            assert list(row) == PAIRED_COLUMNS
            assert row == {col: summary[tuple(row[c] for c in PAIRED_COLUMNS[:4])][col] for col in PAIRED_COLUMNS}

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
