from __future__ import annotations

import csv
import os
import shutil

import pytest

from specmt.cli import build_parser, main


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def workspace(tmp_path):
    code = run_cli(
        "gen-corpus", "--set", "vocab_size=14", "--set", "kappa=0.05", "--set", "ambiguity_rate=0.25",
        "--set", "min_length=4", "--set", "max_length=9", "--set", "seed=3", "--set", "n_sentences=120",
        "--out", tmp_path / "data",
    )
    assert code == 0
    return tmp_path


def test_gen_corpus_writes_three_files(workspace, capsys):
    data = workspace / "data"
    assert (data / "corpus.txt").exists()
    assert (data / "lexicon.tsv").exists()
    assert (data / "references.txt").exists()
    lines = (data / "corpus.txt").read_text().splitlines()
    assert len(lines) == 120


def test_gen_corpus_set_beats_config_file(tmp_path, capsys):
    cfg = tmp_path / "gen.cfg"
    cfg.write_text("vocab_size = 12\nn_sentences = 30\nseed = 8\n")
    assert run_cli("gen-corpus", "--config", cfg, "--set", "n_sentences=25", "--out", tmp_path / "g") == 0
    lines = (tmp_path / "g" / "corpus.txt").read_text().splitlines()
    assert len(lines) == 25  # --set wins over the config's 30


def test_train_lm_without_lexicon(workspace):
    data = workspace / "data"
    model_path = workspace / "lm_nolex.json"
    assert run_cli("train-lm", "--corpus", data / "corpus.txt", "--out", model_path) == 0
    assert model_path.exists()


def test_train_and_stats(workspace, capsys):
    data = workspace / "data"
    model_path = workspace / "lm.json"
    assert run_cli("train-lm", "--corpus", data / "corpus.txt",
                   "--lexicon", data / "lexicon.tsv", "--set", "ngram_order=2",
                   "--out", model_path) == 0
    assert model_path.exists()
    capsys.readouterr()
    assert run_cli("lm-stats", "--model", model_path, "--corpus", data / "corpus.txt",
                   "--lexicon", data / "lexicon.tsv") == 0
    out = capsys.readouterr().out
    assert "perplexity" in out and "accuracy" in out


def test_sweep_single_point(workspace, capsys):
    data = workspace / "data"
    code = run_cli(
        "sweep",
        "--set", "corpus=" + str(data / "corpus.txt"),
        "--set", "lexicon=" + str(data / "lexicon.tsv"),
        "--set", "references=" + str(data / "references.txt"),
        "--set", "k_grid=2", "--set", "tau_grid=0.5", "--set", "predictors=oracle",
        "--out", workspace / "run_out",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("wait_k(2.0) tau=0.5 oracle: AL ") and out.count(" AL ") == 1
    with open(workspace / "run_out" / "summary.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [(r["policy"], r["param"], r["tau"], r["predictor"]) for r in rows] == [("wait_k", "2.0", "0.5", "oracle")]


def test_sweep_with_config_file_and_plot_data(workspace, capsys):
    cfg = workspace / "exp.cfg"
    cfg.write_text(
        "vocab_size = 14\nkappa = 0.1\nambiguity_rate = 0.2\n"
        "min_length = 4\nmax_length = 8\nn_sentences = 100\nseed = 2\n"
        "k_grid = 1,2\ntau_grid = 0,0.5\npredictors = oracle\n"
    )
    out_dir = workspace / "sweep_out"
    assert run_cli("sweep", "--config", cfg, "--out", out_dir) == 0
    assert (out_dir / "runs.csv").exists()
    assert (out_dir / "summary.csv").exists()
    with open(out_dir / "summary.csv", newline="") as handle:
        assert len(list(csv.DictReader(handle))) == 4

    capsys.readouterr()
    assert run_cli("plot-data", "--results", out_dir, "--max-awr", 0.7) == 0
    assert (out_dir / "fig6_threshold_tradeoff.csv").exists()


def test_always_wrong_sweep_over_file_loaded_corpus(workspace, capsys):
    # A lexicon-read vocabulary interleaves source and target tokens, so its
    # second regular id is a target token the translator has no rule for;
    # the predictor must guess from the lexicon's source side.
    data = workspace / "data"
    assert run_cli(
        "sweep", "--set", "corpus=" + str(data / "corpus.txt"), "--set", "lexicon=" + str(data / "lexicon.tsv"),
        "--set", "references=" + str(data / "references.txt"), "--set", "k_grid=1,3",
        "--set", "predictors=always_wrong", "--out", workspace / "wrong",
    ) == 0
    assert "CHECK FAILED" not in capsys.readouterr().err
    with open(workspace / "wrong" / "summary.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 2 and all(row["hits"] == "0" for row in rows)


def test_metrics_from_trace_files(workspace, capsys):
    cfg_overrides = [
        "--set", "vocab_size=14", "--set", "n_sentences=60", "--set", "seed=4",
        "--set", "k_grid=2", "--set", "record_traces=true", "--set", "predictors=oracle",
    ]
    out_dir = workspace / "traced"
    assert run_cli("sweep", *cfg_overrides, "--out", out_dir) == 0
    metrics_out = workspace / "metrics_out"
    assert run_cli(
        "metrics", "--traces", out_dir / "traces",
        "--references", out_dir / "data" / "references.txt",
        "--out", metrics_out,
    ) == 0
    assert (metrics_out / "trace_runs.csv").exists()
    assert (metrics_out / "trace_paired.csv").exists()
    with open(metrics_out / "trace_paired.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows and float(rows[0]["al_diff"]) > 0
    # wait-2 output matches the reference exactly, so a BLEU of 1.0 proves the
    # trace sentence indices line up with the reference file
    with open(metrics_out / "trace_runs.csv", newline="") as handle:
        run_rows = list(csv.DictReader(handle))
    assert run_rows
    assert all(float(r["BLEU"]) == pytest.approx(1.0) for r in run_rows)


def test_reruns_replace_artifacts_instead_of_truncating(workspace):
    # A writer that truncated in place would keep the inode a side link shares;
    # unlink-then-create leaves the side link as the old file's only name.
    out_dir = workspace / "sweep_out"
    metrics_out = workspace / "metrics_out"
    model_path = workspace / "lm.json"
    commands = [
        ["sweep", "--set", "n_sentences=60", "--set", "k_grid=2", "--set", "record_traces=true",
         "--set", "predictors=oracle", "--out", out_dir],
        ["metrics", "--traces", out_dir / "traces", "--references", out_dir / "data" / "references.txt",
         "--out", metrics_out],
        ["train-lm", "--corpus", workspace / "data" / "corpus.txt", "--out", model_path],
        ["plot-data", "--results", out_dir],
    ]
    for argv in commands:
        assert run_cli(*argv) == 0
    artifacts = [
        out_dir / "runs.csv", out_dir / "summary.csv", out_dir / "meta.json",
        *sorted((out_dir / "data").iterdir()),
        sorted((out_dir / "traces").rglob("*.jsonl"))[0],
        metrics_out / "trace_runs.csv", metrics_out / "trace_paired.csv",
        model_path, out_dir / "fig1_latency_improvement.csv",
    ]
    side = workspace / "side"
    side.mkdir()
    links = []
    for n, path in enumerate(artifacts):
        links.append(side / f"{n}-{path.name}")
        os.link(path, links[-1])
    for argv in commands:
        assert run_cli(*argv) == 0
    assert {link.name: link.stat().st_nlink for link in links} == {link.name: 1 for link in links}


def test_train_lm_set_beats_config_file(workspace, capsys):
    cfg = workspace / "lm.cfg"
    cfg.write_text("ngram_order = 3\n")
    corpus = workspace / "data" / "corpus.txt"
    assert run_cli("train-lm", "--config", cfg, "--corpus", corpus, "--out", workspace / "lm3.json") == 0
    assert "order-3" in capsys.readouterr().out
    assert run_cli(
        "train-lm", "--config", cfg, "--set", "ngram_order=1", "--corpus", corpus, "--out", workspace / "lm1.json"
    ) == 0
    assert "order-1" in capsys.readouterr().out  # --set wins over the config's 3


def test_every_setting_is_a_config_key():
    commands = build_parser()._subparsers._group_actions[0].choices
    options = {
        name: {s for action in sub._actions for s in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.items()
    }
    assert options == {
        "gen-corpus": {"--config", "--set", "--out"},
        "train-lm": {"--config", "--set", "--corpus", "--lexicon", "--out"},
        "lm-stats": {"--model", "--corpus", "--lexicon"},
        "sweep": {"--config", "--set", "--out"},
        "metrics": {"--traces", "--references", "--out"},
        "plot-data": {"--results", "--max-awr"},
    }
    with pytest.raises(SystemExit) as exc:
        main(["run", "--k", "3", "--predictor", "oracle"])
    assert exc.value.code == 2


@pytest.fixture(scope="module")
def earlier_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("earlier") / "results"
    assert run_cli("sweep", "--set", "n_sentences=60", "--set", "k_grid=1,2", "--set", "record_traces=1",
                   "--set", "predictors=oracle", "--out", out) == 0
    assert run_cli("plot-data", "--results", out) == 0
    return out


def _tree(root):
    return {path.relative_to(root): path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


REJECTED_SWEEPS = {
    "tau above 1": (["tau_grid=2"], "tau_grid: tau must be in [0, 1]"),
    "k below 1": (["k_grid=0"], "k_grid: k must be >= 1"),
    "latency weight above 1": (["l_grid=2"], "l_grid: latency weight must be in (0, 1]"),
    "min_length above max_length": (["min_length=9", "max_length=8"], "need 1 <= min_length <= max_length"),
    "ngram order 0": (["ngram_order=0"], "invalid order: ngram_order must be >= 1"),
    "negative seed": (["seed=-1"], "seed must be >= 0"),
    "outdomain on a file corpus": (
        ["corpus={out}/data/corpus.txt", "lexicon={out}/data/lexicon.tsv", "references={out}/data/references.txt",
         "predictors=outdomain"],
        "predictors: out-of-domain predictor needs a generated corpus"),
}


@pytest.mark.parametrize("case", sorted(REJECTED_SWEEPS))
def test_rejected_config_leaves_earlier_results_untouched(earlier_results, tmp_path, capsys, case):
    out = tmp_path / "results"
    shutil.copytree(earlier_results, out)
    before = _tree(out)
    settings, message = REJECTED_SWEEPS[case]
    argv = [arg for setting in settings for arg in ("--set", setting.format(out=out))]
    assert run_cli("sweep", *argv, "--out", out) == 2
    assert capsys.readouterr().err == f"specmt: {message}\n"
    assert _tree(out) == before


ERROR_CASES = {
    "bad config value": (["sweep", "--config", "{tmp}/bad.cfg"],
                         "{tmp}/bad.cfg: config line 1: bad value for 'record_traces': 'ture'"),
    "bad --set value": (["sweep", "--set", "seed=x"], "bad value for 'seed': 'x'"),
    "unknown --set key": (["sweep", "--set", "foo=1"], "unknown key 'foo'"),
    "missing traces": (["metrics", "--traces", "{tmp}/missing", "--out", "{tmp}/m"], "No such file or directory"),
    "empty trace directory": (["metrics", "--traces", "{tmp}/empty", "--out", "{tmp}/m"],
                              "no .jsonl trace files under {tmp}/empty"),
    "vocabulary too small": (["gen-corpus", "--set", "vocab_size=3", "--out", "{tmp}/g"], "vocab_size < 4"),
    "kappa not a number": (["gen-corpus", "--set", "kappa=nan", "--out", "{tmp}/g"],
                           "kappa (transition concentration) must be positive and finite"),
    "kappa infinite": (["gen-corpus", "--set", "kappa=inf", "--out", "{tmp}/g"],
                       "kappa (transition concentration) must be positive and finite"),
    "config sweep rejects": (["gen-corpus", "--config", "{tmp}/psychic.cfg", "--out", "{tmp}/g"],
                             "unknown predictor kind 'psychic'"),
    "lexicon line with two columns": (
        ["train-lm", "--corpus", "{tmp}/corpus.txt", "--lexicon", "{tmp}/two_columns.tsv", "--out", "{tmp}/lm.json"],
        "{tmp}/two_columns.tsv: line 2: expected 3 tab-separated columns"),
    "lexicon condition without a rule": (
        ["sweep", "--set", "corpus={tmp}/corpus.txt", "--set", "lexicon={tmp}/undefined.tsv",
         "--set", "references={tmp}/corpus.txt", "--out", "{tmp}/r"],
        "{tmp}/undefined.tsv: condition tokens without a default rule: ['zz']"),
    "lexicon not UTF-8": (
        ["train-lm", "--corpus", "{tmp}/corpus.txt", "--lexicon", "{tmp}/binary", "--out", "{tmp}/lm.json"],
        "{tmp}/binary: not UTF-8 at byte 0"),
    "corpus not UTF-8": (["train-lm", "--corpus", "{tmp}/binary", "--out", "{tmp}/lm.json"],
                         "{tmp}/binary: not UTF-8 at byte 0"),
    "config not UTF-8": (["sweep", "--config", "{tmp}/binary", "--out", "{tmp}/s"],
                         "{tmp}/binary: not UTF-8 at byte 0"),
    "predictor JSON not UTF-8": (["lm-stats", "--model", "{tmp}/binary", "--corpus", "{tmp}/corpus.txt"],
                                 "{tmp}/binary: not UTF-8 at byte 0"),
    "training corpus token outside the lexicon": (
        ["train-lm", "--corpus", "{tmp}/oov.txt", "--lexicon", "{tmp}/ab.tsv", "--out", "{tmp}/lm.json"],
        "{tmp}/oov.txt: line 3: unknown token 'zzz'"),
    "sweep corpus token outside the lexicon": (
        ["sweep", "--set", "corpus={tmp}/oov.txt", "--set", "lexicon={tmp}/ab.tsv",
         "--set", "references={tmp}/oov.txt", "--out", "{tmp}/r"],
        "{tmp}/oov.txt: line 3: unknown token 'zzz'"),
    "predictor JSON without tokens": (
        ["lm-stats", "--model", "{tmp}/order_only.json", "--corpus", "{tmp}/corpus.txt"],
        "{tmp}/order_only.json: expected an object with keys order, alpha, beta, tokens and counts"),
}


@pytest.mark.parametrize("case", sorted(ERROR_CASES))
def test_errors_print_one_line_and_exit_2(tmp_path, capsys, case):
    (tmp_path / "bad.cfg").write_text("record_traces = ture\n")
    (tmp_path / "psychic.cfg").write_text("predictors = psychic\n")
    (tmp_path / "empty").mkdir()
    (tmp_path / "corpus.txt").write_text("a b\n")
    (tmp_path / "two_columns.tsv").write_text("a\t*\tA\nb\tB\n")
    (tmp_path / "undefined.tsv").write_text("a\t*\tA\nb\t*\tB\na\tzz\tA2\n")
    (tmp_path / "binary").write_bytes(b"\xff\xfea b\n")
    (tmp_path / "order_only.json").write_text('{"order": 2}\n')
    (tmp_path / "ab.tsv").write_text("a\t*\tA\nb\t*\tB\n")
    (tmp_path / "oov.txt").write_text("a b\n\nb zzz\n")
    argv, message = ERROR_CASES[case]
    assert run_cli(*(arg.format(tmp=tmp_path) for arg in argv)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("specmt: ") and captured.err.count("\n") == 1
    assert message.format(tmp=tmp_path) in captured.err
    assert "Traceback" not in captured.err + captured.out
