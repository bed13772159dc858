"""Speculative simultaneous translation with withdrawal, at desk scale.

A deterministic incremental translator (wait-k or adaptive policy) is wrapped
by a speculative engine that predicts upcoming source tokens with an n-gram
model, decodes against the predictions, and withdraws wrong guesses. Latency
and stability are evaluated from event traces with revision-aware metrics.
"""

from .engine import EngineConfig, EngineError, run_baseline, run_speculative
from .experiment import ExperimentConfig, load_config, metrics_from_traces, plot_data, run_experiment
from .lexicon import Lexicon, LexiconError, load_lexicon, save_lexicon
from .markov import MarkovSourceSpec, gen_corpus, generate, generate_out_of_domain_sources
from .metrics import MetricsError, average_lagging, awr
from .model import ModelError, PolicyConfig, SimtModel, adaptive_threshold
from .ngram import AlwaysWrongPredictor, OraclePredictor, PredictorError, load_ngram, train_ngram
from .trace import Event, EventTrace, RunConfig, TraceError, load_trace, parse_trace, replay
from .vocab import BOS, EOS, PHI, UNK, SpecmtError, Vocabulary, VocabularyError, build_vocabulary

__all__ = [
    "AlwaysWrongPredictor", "BOS", "EOS", "EngineConfig", "EngineError", "Event",
    "EventTrace", "ExperimentConfig", "Lexicon", "LexiconError", "MarkovSourceSpec",
    "MetricsError", "ModelError", "OraclePredictor", "PHI", "PolicyConfig",
    "PredictorError", "RunConfig", "SimtModel", "SpecmtError", "TraceError", "UNK",
    "Vocabulary", "VocabularyError", "adaptive_threshold", "average_lagging", "awr",
    "build_vocabulary", "gen_corpus", "generate", "generate_out_of_domain_sources",
    "load_config", "load_lexicon", "load_ngram", "load_trace", "metrics_from_traces",
    "parse_trace", "plot_data", "replay", "run_baseline",
    "run_experiment", "run_speculative", "save_lexicon", "train_ngram",
]
