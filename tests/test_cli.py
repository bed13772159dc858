from __future__ import annotations

import csv
import importlib
import os
import pkgutil
import shutil

import pytest

import specmt
from specmt.cli import build_parser, main
from specmt.experiment import SUMMARY_COLUMNS, ExperimentError, metrics_from_traces
from specmt.vocab import load_corpus, read_corpus_lines


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


def _stats_text(model, corpus):
    """What `lm-stats` prints for `model` on the encoded `corpus`."""
    stats = model.evaluate(corpus)
    return (f"sentences       {len(corpus)}\nevents          {int(stats['events'])}\n"
            f"perplexity      {stats['perplexity']:.4f}\naccuracy        {stats['accuracy']:.4f}\n")


@pytest.mark.parametrize("with_lexicon", [True, False], ids=["lexicon", "corpus_vocabulary"])
def test_train_and_stats(workspace, capsys, with_lexicon):
    data = workspace / "data"
    model_path = workspace / "lm.json"
    lexicon = ["--lexicon", data / "lexicon.tsv"] if with_lexicon else []
    assert run_cli("train-lm", "--corpus", data / "corpus.txt", *lexicon, "--out", model_path) == 0
    if with_lexicon:
        vocab = specmt.load_lexicon(data / "lexicon.tsv")[0]
    else:
        vocab = specmt.build_vocabulary(read_corpus_lines(data / "corpus.txt"))
    corpus = list(load_corpus(data / "corpus.txt", vocab).values())
    trained = specmt.train_ngram(corpus, 2, vocabulary=vocab)
    # lm-stats reads the vocabulary from the model file alone
    capsys.readouterr()
    assert run_cli("lm-stats", "--model", model_path, "--corpus", data / "corpus.txt") == 0
    assert capsys.readouterr().out == _stats_text(trained, corpus)
    loaded = specmt.load_ngram(model_path)
    assert (loaded.vocabulary, loaded.counts, loaded.support) == (trained.vocabulary, trained.counts, trained.support)


def test_lm_stats_on_held_out_text_without_some_training_token(tmp_path, capsys):
    (tmp_path / "train.txt").write_text("a b c\nb a\nc a b\n")
    (tmp_path / "held_out.txt").write_text("a b\n\nb a b a\n")  # no c
    assert run_cli("train-lm", "--corpus", tmp_path / "train.txt", "--out", tmp_path / "lm.json") == 0
    capsys.readouterr()
    assert run_cli("lm-stats", "--model", tmp_path / "lm.json", "--corpus", tmp_path / "held_out.txt") == 0
    model = specmt.load_ngram(tmp_path / "lm.json")
    held_out = list(load_corpus(tmp_path / "held_out.txt", model.vocabulary).values())
    assert capsys.readouterr().out == _stats_text(model, held_out)


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


def test_a_line_separator_in_a_reference_line_moves_no_other_line(tmp_path):
    # a U+2028 in place of a space, read as a line end, would score every
    # later sentence against the reference line before its own
    out_dir = tmp_path / "traced"
    assert run_cli(
        "sweep", "--set", "n_sentences=60", "--set", "k_grid=2", "--set", "record_traces=true",
        "--set", "predictors=oracle", "--out", out_dir,
    ) == 0
    references = out_dir / "data" / "references.txt"
    separated = tmp_path / "separated.txt"
    separated.write_text(references.read_text(encoding="utf-8").replace(" ", "\u2028", 1), encoding="utf-8")
    runs = []
    for n, path in enumerate((references, separated)):
        out = tmp_path / f"m{n}"
        assert run_cli("metrics", "--traces", out_dir / "traces", "--references", path, "--out", out) == 0
        runs.append((out / "trace_runs.csv").read_bytes())
    assert runs[0] == runs[1] and b",1.0," in runs[0]


def test_a_bad_trace_after_good_ones_names_its_file_and_line(tmp_path, capsys):
    # `metrics` parses each distinct event line once per call: a trace that
    # shares all but one of its lines with the traces before it is still
    # rejected, naming its own file and line
    out_dir = tmp_path / "traced"
    assert run_cli(
        "sweep", "--set", "n_sentences=60", "--set", "k_grid=2", "--set", "tau_grid=0,1", "--set", "record_traces=true",
        "--set", "predictors=oracle", "--out", out_dir,
    ) == 0
    traces = sorted((out_dir / "traces").rglob("*.jsonl"))
    lines = traces[-1].read_text(encoding="utf-8").split("\n")
    lineno = next(n for n, line in enumerate(lines, 1) if line.startswith('{"ev": "READ", "i": 1,'))
    lines[lineno - 1] = lines[lineno - 1].replace('"i": 1,', '"i": "1",')
    bad = out_dir / "traces" / "zz_bad.jsonl"  # sorted after the good traces
    bad.write_text("\n".join(lines), encoding="utf-8")
    message = f"{bad}: line {lineno}: event key 'i' is not an int: '1'"
    with pytest.raises(ExperimentError) as raised:
        metrics_from_traces([*traces, bad])
    assert str(raised.value) == message
    capsys.readouterr()
    assert run_cli("metrics", "--traces", out_dir / "traces", "--out", tmp_path / "m") == 2
    assert capsys.readouterr().err == f"specmt: {message}\n"


def test_sweep_and_metrics_compare_references_as_text(tmp_path, capsys):
    # `b` translates to the literal `<unk>` while the references spell it
    # `foo`: both commands must split the reference lines and compare them
    # with the outputs as strings, so they give the same BLEU.
    (tmp_path / "lexicon.tsv").write_text("a\t*\tA\nb\t*\t<unk>\nc\t*\tC\n")
    sentences = [" ".join("abc"[(i + k) % 3] for k in range(3 + i % 4)) for i in range(40)]
    (tmp_path / "corpus.txt").write_text("".join(line + "\n" for line in sentences))
    translate = {"a": "A", "b": "foo", "c": "C"}
    (tmp_path / "references.txt").write_text(
        "".join(" ".join(translate[tok] for tok in line.split()) + "\n" for line in sentences)
    )
    assert run_cli(
        "sweep", "--set", f"corpus={tmp_path / 'corpus.txt'}", "--set", f"lexicon={tmp_path / 'lexicon.tsv'}",
        "--set", f"references={tmp_path / 'references.txt'}", "--set", "k_grid=1", "--set", "predictors=oracle",
        "--set", "record_traces=1", "--out", tmp_path / "results",
    ) == 0
    assert run_cli(
        "metrics", "--traces", tmp_path / "results" / "traces", "--references", tmp_path / "references.txt",
        "--out", tmp_path / "metrics",
    ) == 0

    def rows(path):
        with open(path, newline="") as handle:
            return {row["run_id"]: row for row in csv.DictReader(handle)}

    swept, recomputed = rows(tmp_path / "results" / "runs.csv"), rows(tmp_path / "metrics" / "trace_runs.csv")
    assert len(swept) == 8
    assert recomputed == swept


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
        "lm-stats": {"--model", "--corpus"},
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
    # inputs that fail only when read or generated
    "no sentences": (["n_sentences=0"], "n_sentences: need at least one sentence"),
    "one sentence": (["n_sentences=1"], "n_sentences: too few sentences for a train/test split (1)"),
    "always_wrong with one source token": (
        ["vocab_size=5", "n_sentences=20", "predictors=always_wrong", "k_grid=1,2"],
        "predictors: always_wrong needs two source tokens, the lexicon has 1"),
    "corpus token without a lexicon rule": (
        ["corpus={out}/data/references.txt", "lexicon={out}/data/lexicon.tsv", "references={out}/data/references.txt"],
        "{out}/data/references.txt: line 1: token 'T18' has no lexicon rule"),
    "missing corpus": (
        ["corpus={out}/data/missing.txt", "lexicon={out}/data/lexicon.tsv", "references={out}/data/references.txt"],
        "[Errno 2] No such file or directory: '{out}/data/missing.txt'"),
    "missing lexicon": (
        ["corpus={out}/data/corpus.txt", "lexicon={out}/data/missing.tsv", "references={out}/data/references.txt"],
        "[Errno 2] No such file or directory: '{out}/data/missing.tsv'"),
    "lexicon and references without a corpus": (
        ["lexicon={out}/data/lexicon.tsv", "references={out}/data/missing.txt"],
        "corpus, lexicon and references are set together; not set: corpus"),
    "missing references": (
        ["corpus={out}/data/corpus.txt", "lexicon={out}/data/lexicon.tsv", "references={out}/data/missing.txt"],
        "[Errno 2] No such file or directory: '{out}/data/missing.txt'"),
}


@pytest.mark.parametrize("case", sorted(REJECTED_SWEEPS))
def test_rejected_config_leaves_earlier_results_untouched(earlier_results, tmp_path, capsys, case):
    out = tmp_path / "results"
    shutil.copytree(earlier_results, out)
    before = _tree(out)
    settings, message = REJECTED_SWEEPS[case]
    argv = [arg for setting in settings for arg in ("--set", setting.format(out=out))]
    assert run_cli("sweep", *argv, "--out", out) == 2
    assert capsys.readouterr().err == f"specmt: {message.format(out=out)}\n"
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
    "lexicon ambiguous token without a default rule": (
        ["train-lm", "--corpus", "{tmp}/corpus.txt", "--lexicon", "{tmp}/ambiguous.tsv", "--out", "{tmp}/lm.json"],
        "{tmp}/ambiguous.tsv: ambiguous tokens without a default rule: ['b']"),
    "lexicon reserved target": (
        ["sweep", "--set", "corpus={tmp}/ab.txt", "--set", "lexicon={tmp}/reserved_target.tsv",
         "--set", "references={tmp}/ab.txt", "--out", "{tmp}/r"],
        "{tmp}/reserved_target.tsv: line 2: reserved target token '</s>'"),
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
    "corpus line holding a form feed": (
        ["train-lm", "--corpus", "{tmp}/form_feed.txt", "--lexicon", "{tmp}/ab.tsv", "--out", "{tmp}/lm.json"],
        "{tmp}/form_feed.txt: line 3: unknown token 'zz'"),
    "corpus line holding a line separator": (
        ["lm-stats", "--model", "{tmp}/ab.json", "--corpus", "{tmp}/line_separator.txt"],
        "{tmp}/line_separator.txt: line 2: unknown token 'zz'"),
    "lexicon line holding a record separator": (
        ["train-lm", "--corpus", "{tmp}/corpus.txt", "--lexicon", "{tmp}/record_separator.tsv",
         "--out", "{tmp}/lm.json"],
        "{tmp}/record_separator.tsv: line 2: expected 3 tab-separated columns"),
    "config key set twice": (["sweep", "--config", "{tmp}/twice.cfg", "--set", "seed=3", "--out", "{tmp}/s"],
                             "{tmp}/twice.cfg: config line 2: duplicate key 'seed' (set on line 1)"),
    "trace with a read after the end of source": (
        ["metrics", "--traces", "{tmp}/late_read", "--out", "{tmp}/m"],
        "{tmp}/late_read/00000.jsonl: inconsistent trace: READ after end of source"),
    "config line holding a vertical tab": (["sweep", "--config", "{tmp}/vertical_tab.cfg", "--out", "{tmp}/s"],
                                           "{tmp}/vertical_tab.cfg: config line 2: bad value for 'record_traces'"),
    "held-out token outside the model's vocabulary": (
        ["lm-stats", "--model", "{tmp}/ab.json", "--corpus", "{tmp}/oov.txt"],
        "{tmp}/oov.txt: line 3: unknown token 'zzz'"),
    "predictor JSON without tokens": (
        ["lm-stats", "--model", "{tmp}/order_only.json", "--corpus", "{tmp}/corpus.txt"],
        "{tmp}/order_only.json: expected an object with keys order, alpha, beta, tokens and counts"),
    "predictor counts a marker": (
        ["lm-stats", "--model", "{tmp}/marker.json", "--corpus", "{tmp}/corpus.txt"],
        "{tmp}/marker.json: counts entry 0: counted token '<phi>' is a marker training never counts"),
    "sweep corpus target token": (
        ["sweep", "--set", "corpus={tmp}/target.txt", "--set", "lexicon={tmp}/ab.tsv",
         "--set", "references={tmp}/target.txt", "--out", "{tmp}/r"],
        "{tmp}/target.txt: line 19: token 'B' has no lexicon rule"),
    "sweep corpus literal <unk>": (
        ["sweep", "--set", "corpus={tmp}/unk.txt", "--set", "lexicon={tmp}/ab.tsv",
         "--set", "references={tmp}/unk.txt", "--out", "{tmp}/r"],
        "{tmp}/unk.txt: line 2: token '<unk>' has no lexicon rule"),
    "corpus and references differ in length": (
        ["sweep", "--set", "corpus={tmp}/ab.txt", "--set", "lexicon={tmp}/ab.tsv",
         "--set", "references={tmp}/corpus.txt", "--out", "{tmp}/r"],
        "corpus and references differ in length: {tmp}/ab.txt has 40 sentences, {tmp}/corpus.txt has 1"),
    "file corpus too small to split": (
        ["sweep", "--set", "corpus={tmp}/corpus.txt", "--set", "lexicon={tmp}/ab.tsv",
         "--set", "references={tmp}/corpus.txt", "--out", "{tmp}/r"],
        "{tmp}/corpus.txt: too few sentences for a train/test split (1)"),
    "gen-corpus without sentences": (["gen-corpus", "--set", "n_sentences=0", "--out", "{tmp}/g"],
                                     "n_sentences: need at least one sentence"),
    "training corpus empty": (["train-lm", "--corpus", "{tmp}/blank.txt", "--out", "{tmp}/lm.json"],
                              "{tmp}/blank.txt: empty corpus"),
    "training corpus empty, with a lexicon": (
        ["train-lm", "--corpus", "{tmp}/blank.txt", "--lexicon", "{tmp}/ab.tsv", "--out", "{tmp}/lm.json"],
        "{tmp}/blank.txt: empty corpus"),
    "plot-data max_awr not a number": (["plot-data", "--results", "{tmp}/results", "--max-awr", "nan"],
                                       "max_awr must be a number >= 0, got nan"),
    "plot-data max_awr negative": (["plot-data", "--results", "{tmp}/results", "--max-awr", "-1"],
                                   "max_awr must be a number >= 0, got -1.0"),
    "held-out corpus empty": (["lm-stats", "--model", "{tmp}/ab.json", "--corpus", "{tmp}/blank.txt"],
                              "{tmp}/blank.txt: empty evaluation corpus"),
    "plot-data param not a number": (["plot-data", "--results", "{tmp}/param_x"],
                                     "{tmp}/param_x/summary.csv: line 2: param is not a number: 'x'"),
    "plot-data awr empty under max_awr": (["plot-data", "--results", "{tmp}/awr_empty", "--max-awr", "0.5"],
                                          "{tmp}/awr_empty/summary.csv: line 2: awr is not a number: ''"),
    "plot-data short summary row": (["plot-data", "--results", "{tmp}/short_row"],
                                    "{tmp}/short_row/summary.csv: line 3: expected 14 fields"),
    "plot-data summary not UTF-8": (["plot-data", "--results", "{tmp}/binary_summary"],
                                    "{tmp}/binary_summary/summary.csv: not UTF-8 at byte 0"),
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
    (tmp_path / "ambiguous.tsv").write_text("b\tc\tB\nc\t*\tC\n")
    (tmp_path / "ab.json").write_text(
        '{"order": 1, "alpha": 0.1, "beta": 0.9, "tokens": ["a", "b"], "counts": [[[], "a", 1]]}'
    )
    (tmp_path / "marker.json").write_text(
        '{"order": 1, "alpha": 0.1, "beta": 0.9, "tokens": ["a", "b"], '
        '"counts": [[[], "<phi>", 5], [[], "a", 1], [[], "<s>", 9]]}'
    )
    (tmp_path / "reserved_target.tsv").write_text("a\t*\tA\nb\t*\t</s>\n")
    (tmp_path / "ab.txt").write_text("a b a\nb a\n" * 20)
    (tmp_path / "oov.txt").write_text("a b\n\nb zzz\n")
    # only a line feed ends a line; these characters end one for `str.splitlines`
    (tmp_path / "form_feed.txt").write_text("a b\nb\fa\nb zz\n")
    (tmp_path / "line_separator.txt").write_text("a\u2028b\nb zz\n", encoding="utf-8")
    (tmp_path / "record_separator.tsv").write_text("a\t*\tA\x1e\nb\tB\n")
    (tmp_path / "vertical_tab.cfg").write_text("seed = 1\v\nrecord_traces = ture\n")
    (tmp_path / "twice.cfg").write_text("seed = 1\nseed = 2\n")
    (tmp_path / "late_read").mkdir()
    (tmp_path / "late_read" / "00000.jsonl").write_text("\n".join([
        '{"policy": "none", "param": 0.0, "tau": 0.0, "predictor": "none", "corpus": "none", "seed": 0, '
        '"sentence_index": 0}',
        '{"ev": "READ", "i": 1, "tok": "a"}', '{"ev": "WRITE", "i": 1, "j": 1, "tok": "A"}',
        '{"ev": "READ", "i": 2, "tok": "</s>"}', '{"ev": "READ", "i": 3, "tok": "b"}',
        '{"ev": "WRITE", "i": 3, "j": 2, "tok": "B"}', '{"ev": "END"}', "",
    ]))
    (tmp_path / "target.txt").write_text("a b a\n" * 18 + "a b a B\nb a\n")
    (tmp_path / "unk.txt").write_text("a b\na <unk>\n" + "b a\n" * 18)
    (tmp_path / "blank.txt").write_text("\n \n")
    summary_row = "wait_k,1,0.0,oracle,2,1.0,1.0,0.0,0.0,1.0,1.0,0,0,0\n"
    for name, rows in (
        ("results", summary_row), ("param_x", summary_row.replace(",1,", ",x,", 1)),
        ("awr_empty", summary_row.replace(",0.0,1.0,1.0,", ",,1.0,1.0,", 1)),
        ("short_row", summary_row + "wait_k,1.0\n"),
    ):
        (tmp_path / name).mkdir()
        (tmp_path / name / "summary.csv").write_text(",".join(SUMMARY_COLUMNS) + "\n" + rows)
    (tmp_path / "binary_summary").mkdir()
    (tmp_path / "binary_summary" / "summary.csv").write_bytes(b"\xff\xfe" + summary_row.encode())
    argv, message = ERROR_CASES[case]
    assert run_cli(*(arg.format(tmp=tmp_path) for arg in argv)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("specmt: ") and captured.err.count("\n") == 1
    assert message.format(tmp=tmp_path) in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_every_package_error_is_a_specmt_error():
    # `main` reports a SpecmtError as one line, so an error class that is not
    # one would reach the user as a traceback
    errors = {}
    for info in pkgutil.iter_modules(specmt.__path__, "specmt."):
        module = importlib.import_module(info.name)
        errors.update(
            (name, obj) for name, obj in vars(module).items()
            if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__ == info.name
        )
    assert errors.pop("SpecmtError") is specmt.SpecmtError
    assert set(errors) >= {
        "EngineError", "ExperimentError", "GenerationError", "LexiconError", "MetricsError", "ModelError",
        "PredictorError", "TraceError", "VocabularyError",
    }
    for name, error in errors.items():
        assert issubclass(error, specmt.SpecmtError), name
        assert issubclass(error, RuntimeError if name == "EngineError" else ValueError), name
