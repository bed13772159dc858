"""Command-line harness: corpus generation, predictor training, sweeps, metrics.

Every setting is an `ExperimentConfig` key, given by `--config` and `--set KEY=VALUE`."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .engine import EngineError
from .experiment import (
    ExperimentConfig, ExperimentError, coerce_config_value, load_config, plot_data, run_experiment,
    write_trace_metrics,
)
from .lexicon import LexiconError, read_lexicon_vocabulary
from .markov import GenerationError, gen_corpus
from .metrics import MetricsError
from .model import ModelError
from .ngram import PredictorError, load_ngram, train_ngram
from .trace import TraceError
from .vocab import Vocabulary, VocabularyError, build_vocabulary, load_corpus, read_corpus_lines

# reported as `specmt: <message>` with exit status 2, without a traceback
ERRORS = (
    EngineError, ExperimentError, GenerationError, LexiconError, MetricsError, ModelError, PredictorError,
    TraceError, VocabularyError, OSError,
)


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None, help="flat key = value config file")
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                   help="override one config key (repeatable); beats the config file")


def _add_gen_corpus(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("gen-corpus", help="generate a synthetic corpus, lexicon, and references")
    _add_config_args(p)
    p.add_argument("--out", type=Path, required=True, help="output directory")


def _add_train_lm(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("train-lm", help="train an n-gram branch predictor on a corpus")
    _add_config_args(p)
    p.add_argument("--corpus", type=Path, required=True)
    p.add_argument("--lexicon", type=Path, default=None,
                   help="lexicon file fixing the vocabulary; default derives it from the corpus")
    p.add_argument("--out", type=Path, required=True, help="model file to write")


def _add_lm_stats(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("lm-stats", help="perplexity and next-token accuracy on held-out text")
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--corpus", type=Path, required=True, help="held-out corpus file")
    p.add_argument("--lexicon", type=Path, default=None)


def _add_sweep(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("sweep", help="full grid over policies, thresholds, and predictors")
    _add_config_args(p)
    p.add_argument("--out", type=Path, default=None, help="results directory (overrides out_dir)")


def _add_metrics(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("metrics", help="recompute metrics from trace files")
    p.add_argument("--traces", type=Path, required=True, help="trace file or directory of .jsonl traces")
    p.add_argument("--references", type=Path, default=None)
    p.add_argument("--out", type=Path, required=True)


def _add_plot_data(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("plot-data", help="reshape sweep results into plot-ready CSVs")
    p.add_argument("--results", type=Path, required=True)
    p.add_argument("--max-awr", type=float, default=None,
                   help="drop grid points whose withdrawal rate exceeds this value")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specmt",
        description="Speculative simultaneous translation: deterministic engine, "
                    "revision-aware metrics, and a reproducible experiment harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_gen_corpus(sub)
    _add_train_lm(sub)
    _add_lm_stats(sub)
    _add_sweep(sub)
    _add_metrics(sub)
    _add_plot_data(sub)
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """`--set` beats the `--config` file, which beats the built-in default;
    `sweep --out` beats them all."""
    overrides: dict[str, object] = {}
    for item in args.set:
        if "=" not in item:
            raise ExperimentError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = (part.strip() for part in item.split("=", 1))
        overrides[key] = coerce_config_value(key, value)
    if args.command == "sweep" and args.out is not None:
        overrides["out_dir"] = str(args.out)
    return load_config(args.config, overrides)


def _vocab_for_lm(corpus: Path, lexicon: Path | None) -> Vocabulary:
    if lexicon is not None:
        return read_lexicon_vocabulary(lexicon)
    return build_vocabulary(read_corpus_lines(corpus))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _run_command(args)
    except ERRORS as exc:
        print(f"specmt: {exc}", file=sys.stderr)
        return 2


def _run_command(args: argparse.Namespace) -> int:
    if args.command == "gen-corpus":
        config = _config_from_args(args)
        for path in gen_corpus(config.source_spec(), config.n_sentences, args.out):
            print(f"wrote {path}")
        return 0

    if args.command == "train-lm":
        config = _config_from_args(args)
        vocab = _vocab_for_lm(args.corpus, args.lexicon)
        corpus = list(load_corpus(args.corpus, vocab).values())
        model = train_ngram(corpus, config.ngram_order, config.alpha, config.beta, vocab)
        model.save(args.out)
        print(f"trained order-{config.ngram_order} model on {len(corpus)} sentences -> {args.out}")
        return 0

    if args.command == "lm-stats":
        vocab = _vocab_for_lm(args.corpus, args.lexicon)
        model = load_ngram(args.model, vocab)
        corpus = list(load_corpus(args.corpus, vocab).values())
        stats = model.evaluate(corpus)
        print(f"sentences       {len(corpus)}")
        print(f"events          {int(stats['events'])}")
        print(f"perplexity      {stats['perplexity']:.4f}")
        print(f"accuracy        {stats['accuracy']:.4f}")
        return 0

    if args.command == "sweep":
        return _report(run_experiment(_config_from_args(args)))

    if args.command == "metrics":
        if args.traces.is_dir():
            paths = sorted(args.traces.rglob("*.jsonl"))
            if not paths:
                raise ExperimentError(f"no .jsonl trace files under {args.traces}")
        else:
            paths = [args.traces]
        references = read_corpus_lines(args.references) if args.references else None
        runs_path, paired_path = write_trace_metrics(paths, args.out, references)
        print(f"wrote {runs_path}")
        print(f"wrote {paired_path}")
        return 0

    if args.command == "plot-data":
        for path in plot_data(args.results, max_awr=args.max_awr):
            print(f"wrote {path}")
        return 0

    raise SystemExit(f"unhandled command {args.command!r}")


def _report(result) -> int:
    for row in result.summary_rows:
        print(
            f"{row['policy']}({row['param']}) tau={row['tau']} {row['predictor']}: "
            f"AL {row['al_baseline']:.3f} -> {row['al_speculative']:.3f} "
            f"(diff {row['al_diff']:.3f}), AWR {row['awr']:.3f}, BLEU {row['bleu']:.4f}"
        )
    for failure in result.failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(f"results in {result.out_dir}")
    return 0 if result.ok else 1


if __name__ == "__main__":
    sys.exit(main())
