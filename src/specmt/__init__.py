"""Speculative simultaneous translation with withdrawal, at desk scale.

A deterministic incremental translator (wait-k or adaptive policy) is wrapped
by a speculative engine that predicts upcoming source tokens with an n-gram
model, decodes against the predictions, and withdraws wrong guesses. Latency
and stability are evaluated from event traces with revision-aware metrics.
"""

from .engine import EngineConfig, EngineError, RunResult, run_baseline, run_speculative
from .experiment import ExperimentConfig, load_config, metrics_from_traces, plot_data, run_experiment
from .lexicon import Lexicon, LexiconError, load_lexicon, read_lexicon_vocabulary, save_lexicon
from .markov import GeneratedCorpus, MarkovSourceSpec, gen_corpus, generate, generate_out_of_domain_sources
from .metrics import (
    DelayVector,
    MetricsError,
    average_lagging,
    awr,
    corpus_bleu,
    delay_vector,
    modified_precision,
)
from .model import ADAPTIVE, WAIT_K, ModelError, PolicyConfig, SimtModel, adaptive_threshold
from .ngram import AlwaysWrongPredictor, NgramModel, OraclePredictor, Prediction, PredictorError, load_ngram, train_ngram
from .trace import (
    Event,
    EventTrace,
    RunConfig,
    SnapshotMatrix,
    TraceError,
    load_trace,
    parse_trace,
    snapshot_from_trace,
)
from .vocab import BOS, EOS, PHI, UNK, Sentence, Vocabulary, VocabularyError, build_vocabulary

__all__ = [
    "ADAPTIVE", "AlwaysWrongPredictor", "BOS", "DelayVector", "EOS",
    "EngineConfig", "EngineError", "Event", "EventTrace", "ExperimentConfig",
    "GeneratedCorpus", "Lexicon", "LexiconError", "MarkovSourceSpec",
    "MetricsError", "ModelError", "NgramModel", "OraclePredictor", "PHI",
    "PolicyConfig", "Prediction", "PredictorError", "RunConfig", "RunResult",
    "Sentence", "SimtModel", "SnapshotMatrix", "TraceError", "UNK",
    "Vocabulary", "VocabularyError", "WAIT_K", "adaptive_threshold",
    "average_lagging", "awr", "build_vocabulary", "corpus_bleu", "delay_vector",
    "gen_corpus", "generate", "generate_out_of_domain_sources", "load_config",
    "load_lexicon", "load_ngram", "load_trace", "metrics_from_traces",
    "modified_precision", "parse_trace", "plot_data", "read_lexicon_vocabulary",
    "run_baseline", "run_experiment", "run_speculative", "save_lexicon",
    "snapshot_from_trace", "train_ngram",
]
