"""Property tests of the engine against the frozen two-loop engine in `oracles.py`.

Each case draws a small lexicon (some source tokens ambiguous, with
conditional rules), a wait-k or adaptive policy, a speculation gate, a
source sentence and a scripted predictor that hits or misses by a drawn bit
string. A miss guesses end-of-sequence, a source token absent from the
sentence, or another source token. For every case:

- the engine's traces are byte-identical to the frozen engine's, which
  decides by `oracles.frozen_step`;
- the engine makes the frozen engine's translator and predictor calls, in
  the same order and with the same prefixes, written counts and done flags,
  which the trace alone would not show where a wrong prefix decides alike;
- the speculative output equals the baseline output;
- each trace replays to its output, and its delays match the brute-force
  definition over the frozen snapshot matrix;
- speculative translator calls equal baseline calls plus withdrawals;
- every event sets exactly the fields the `Event` docstring lists for its
  kind.

A second property runs both engines with each shipped predictor, a trained
n-gram model, the oracle and the always-wrong predictor, and asks for the
same calls, traces and output; the frozen engine runs the frozen copies of the
predictors in `oracles.py` (the full scan for the n-gram model). A third counts, over the same runs, the source
tokens their traces replay as predicted: a share equal to the n-gram
model's own `evaluate` accuracy, 1 for the oracle, 0 for the always-wrong
predictor, and none in a baseline trace.

Three more pin what a sweep and a grid rely on: tau changes a run only
through which of its (tau-independent) predictions clear it, the sweep
reuses a kept run at another tau exactly when the two taus gate its
predictions alike (`oracles.gates_alike`), and the adaptive policy with a
latency weight of at most 0.1 runs exactly as wait-1. A third pins why every predictor gains alike at wait-k with k at
least 3: at tau 0, unless the predictor guesses the end of the sentence
early, a speculative wait-k run has baseline wait-(k-1)'s delays, and on
a source of at least k-1 tokens it withdraws only decisions it writes again
unchanged.

Two more pin the one translation rule in `Lexicon`: a settled position's
translation holds however the prefix grows, and wait-k with k at least the
source length writes the whole-sentence translation.

Two others pin what the engine calls: `SimtModel.step` and the scripted
predictors' `predict` equal their frozen copies on any prefix, written count
and context length, errors included; and counting wrappers put on the
classes, as the benchmark's spans are, see one translator call per WRITE,
SPECULATE and WITHDRAW event and one predictor call per PREDICT event.
"""

from __future__ import annotations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from specmt import (  # noqa: E402
    AlwaysWrongPredictor,
    EngineConfig,
    Event,
    EventTrace,
    Lexicon,
    OraclePredictor,
    PolicyConfig,
    RunConfig,
    SimtModel,
    Vocabulary,
    replay,
    run_baseline,
    run_speculative,
    train_ngram,
)
from specmt.engine import RunResult  # noqa: E402
from specmt.experiment import _tau_bounds  # noqa: E402
from specmt.lexicon import LexiconError  # noqa: E402
from specmt.ngram import NgramModel, Prediction  # noqa: E402
from specmt.trace import COMMIT, END, PREDICT, READ, SPECULATE, WITHDRAW, WRITE  # noqa: E402
from specmt.vocab import EOS, EOS_SURFACE, RESERVED_SURFACES  # noqa: E402
from oracles import (  # noqa: E402
    FrozenAlwaysWrongPredictor, FrozenOraclePredictor, FrozenStepModel, FullScanPredictor, brute_force_delays,
    frozen_run_baseline, frozen_run_speculative, frozen_step, gates_alike, snapshot_from_trace,
)


# the fields each kind sets, as the `Event` docstring lists them; the others are None
FIELDS_BY_KIND = {
    READ: {"i", "tok"},
    PREDICT: {"i", "pred", "p"},
    SPECULATE: {"i", "j", "tok"},
    COMMIT: {"j"},
    WITHDRAW: {"j", "old", "new"},
    WRITE: {"i", "j", "tok"},
    END: set(),
}


class ScriptedPredictor:
    """Hits or misses the true next token by a script, cycled over calls.

    Each script entry is (hit, miss kind, probability). A miss guesses EOS,
    a source token absent from the sentence, or any other source token, and
    falls back to the next kind when its own guess would be the truth or
    does not exist.
    """

    def __init__(self, vocabulary, sources, source, script):
        self.vocabulary = vocabulary
        self._sources = sources  # every source token id, in id order
        self._source = source
        self._script = script
        self.calls = 0

    def predict(self, context):
        hit, miss, probability = self._script[self.calls % len(self._script)]
        self.calls += 1
        truth = self._source[len(context)] if len(context) < len(self._source) else EOS
        if hit:
            return Prediction(truth, probability)
        absent = [t for t in self._sources if t not in self._source]
        others = [t for t in self._sources if t != truth]
        guesses = {"eos": [EOS], "absent": absent, "other": others}
        for kind in (miss, "eos", "absent", "other"):
            candidates = [t for t in guesses[kind] if t != truth]
            if candidates:
                return Prediction(candidates[0], probability)
        raise AssertionError("a lexicon has at least two source tokens")


class RecordingModel:
    """Forwards a translator's `step` and logs each call to `log`, in call
    order, as ("step", the prefix as a tuple, written, done): the engine's
    prefix is valid only for the call, so the log keeps a copy."""

    def __init__(self, model, log):
        self._model = model
        self._log = log
        self.vocabulary = model.vocabulary

    def step(self, source_prefix, written, done=False):
        self._log.append(("step", tuple(source_prefix), written, done))
        return self._model.step(source_prefix, written, done)


class RecordingPredictor:
    """Forwards a predictor's `predict` and logs each call to `log` as
    ("predict", the context as a tuple); any other attribute, `vocabulary`
    included, is the predictor's."""

    def __init__(self, predictor, log):
        self._predictor = predictor
        self._log = log

    def __getattr__(self, name):
        return getattr(self._predictor, name)

    def predict(self, context):
        self._log.append(("predict", tuple(context)))
        return self._predictor.predict(context)


def step_calls(log):
    return sum(entry[0] == "step" for entry in log)


@st.composite
def worlds(draw):
    """A lexicon over 2-8 source tokens, its vocabulary, and the source ids."""
    n = draw(st.integers(min_value=2, max_value=8))
    sources = [f"s{k}" for k in range(n)]
    ambiguous = draw(st.lists(st.sampled_from(range(n)), unique=True, max_size=n))
    rules = []
    for src in ambiguous:
        conditions = draw(st.lists(st.sampled_from(range(n)), unique=True, min_size=1, max_size=3))
        rules.extend((src, cond, f"T{src}_{cond}") for cond in conditions)
    vocab = Vocabulary(
        RESERVED_SURFACES + tuple(sources) + tuple(f"T{k}" for k in range(n)) + tuple(t for _, _, t in rules)
    )
    ids = [vocab.lookup(s) for s in sources]
    lexicon = Lexicon(
        default={ids[k]: vocab.lookup(f"T{k}") for k in range(n)},
        conditional={(ids[src], ids[cond]): vocab.lookup(target) for src, cond, target in rules},
    )
    return vocab, lexicon, ids


policies = st.one_of(
    st.integers(min_value=1, max_value=5).map(PolicyConfig.wait_k),
    st.sampled_from((0.05, 0.1, 0.3, 0.5, 1.0)).map(PolicyConfig.adaptive),
)
probabilities = st.sampled_from((0.0, 0.25, 0.5, 0.7, 1.0))
script_entries = st.tuples(st.booleans(), st.sampled_from(("eos", "absent", "other")), probabilities)


@st.composite
def cases(draw):
    vocab, lexicon, ids = draw(worlds())
    model = SimtModel(lexicon=lexicon, policy=draw(policies), vocabulary=vocab)
    source = tuple(draw(st.lists(st.sampled_from(ids), min_size=1, max_size=20)))
    script = draw(st.lists(script_entries, min_size=1, max_size=24))
    tau = draw(st.sampled_from((0.0, 0.3, 0.5, 0.7, 1.0)))
    return model, ids, source, script, tau


@settings(max_examples=300)
@given(cases())
def test_engine_matches_frozen_engine_and_keeps_its_invariants(case):
    model, ids, source, script, tau = case
    vocab = model.vocabulary
    config = RunConfig(policy=model.policy.kind, param=model.policy.param, tau=tau, predictor="scripted")

    # each side's calls, in order: the same decisions from a wrong prefix would leave the trace as it is
    baseline_log, speculative_log, frozen_baseline_log, frozen_speculative_log = [], [], [], []
    baseline = run_baseline(RecordingModel(model, baseline_log), source, config)
    speculative = run_speculative(
        RecordingModel(model, speculative_log),
        RecordingPredictor(ScriptedPredictor(vocab, ids, source, script), speculative_log),
        source, EngineConfig(tau=tau), config,
    )

    frozen_output, frozen_trace = frozen_run_baseline(
        RecordingModel(FrozenStepModel(model), frozen_baseline_log), source, config
    )
    assert baseline.trace.serialize() == frozen_trace.serialize()
    assert baseline.final_output == frozen_output
    assert baseline_log == frozen_baseline_log
    frozen_output, frozen_trace = frozen_run_speculative(
        RecordingModel(FrozenStepModel(model), frozen_speculative_log),
        RecordingPredictor(ScriptedPredictor(vocab, ids, source, script), frozen_speculative_log),
        source, EngineConfig(tau=tau), config,
    )
    assert speculative.trace.serialize() == frozen_trace.serialize()
    assert speculative.final_output == frozen_output
    assert speculative_log == frozen_speculative_log

    assert speculative.final_output == baseline.final_output
    for result in (baseline, speculative):
        surfaces = tuple(vocab.surface(t) for t in result.final_output)
        rows = snapshot_from_trace(result.trace)
        replayed = replay(result.trace)
        assert replayed.final == rows[-1] == surfaces
        assert replayed.delays == brute_force_delays(rows)
        assert replayed.source_length == len(rows) == len(source)

        for event in map(Event._make, result.trace.events):
            used = {name for name in Event._fields[1:] if getattr(event, name) is not None}
            assert used == FIELDS_BY_KIND[event.ev], event

    assert step_calls(speculative_log) == step_calls(baseline_log) + speculative.withdrawals
    assert speculative.speculations == speculative.hits + speculative.withdrawals
    assert baseline.speculations == baseline.hits == baseline.withdrawals == 0


@st.composite
def shipped_cases(draw, policies=policies):
    """A drawn world and policy, 1-4 source sentences and one of the shipped
    predictors: an n-gram model of order 1-3 trained on drawn sentences, or
    the oracle or the always-wrong predictor over the lexicon's sources,
    which are built per sentence. Gives the predictor of a sentence through
    `predictor_for`."""
    vocab, lexicon, ids = draw(worlds())
    model = SimtModel(lexicon=lexicon, policy=draw(policies), vocabulary=vocab)
    sentences = st.lists(st.sampled_from(ids), min_size=1, max_size=20).map(tuple)
    sources = draw(st.lists(sentences, min_size=1, max_size=4))
    kind = draw(st.sampled_from(("ngram", "oracle", "always_wrong")))
    if kind == "ngram":
        corpus = draw(st.lists(sentences, min_size=1, max_size=6))
        trained = train_ngram(corpus, order=draw(st.integers(1, 3)), vocabulary=vocab)
        predictor_for = lambda source: trained  # noqa: E731
    elif kind == "oracle":
        predictor_for = OraclePredictor
    else:
        predictor_for = lambda source: AlwaysWrongPredictor(source, vocab, lexicon.default)  # noqa: E731
    tau = draw(st.sampled_from((0.0, 0.3, 0.5, 0.7, 1.0)))
    return model, predictor_for, sources, tau, kind


def frozen_predictor(model, predictor_for, kind, source):
    """The frozen copy of a shipped predictor for `source`: for an n-gram
    model, its predictions by the full scan."""
    if kind == "oracle":
        return FrozenOraclePredictor(source)
    if kind == "always_wrong":
        return FrozenAlwaysWrongPredictor(source, model.vocabulary, model.lexicon.default)
    return FullScanPredictor(predictor_for(source))


@settings(max_examples=150)
@given(shipped_cases())
def test_engine_matches_frozen_engine_with_shipped_predictors(case):
    # the frozen side is the frozen engine, `frozen_step` and the frozen
    # predictors, so no code it runs is the package's
    model, predictor_for, sources, tau, kind = case
    config = RunConfig(policy=model.policy.kind, param=model.policy.param, tau=tau, predictor=kind)
    for source in sources:
        log, frozen_log = [], []
        result = run_speculative(
            RecordingModel(model, log), RecordingPredictor(predictor_for(source), log), source,
            EngineConfig(tau=tau), config,
        )
        frozen_output, frozen_trace = frozen_run_speculative(
            RecordingModel(FrozenStepModel(model), frozen_log),
            RecordingPredictor(frozen_predictor(model, predictor_for, kind, source), frozen_log), source,
            EngineConfig(tau=tau), config,
        )
        assert result.trace.serialize() == frozen_trace.serialize()
        assert result.final_output == frozen_output
        assert log == frozen_log


def outcome(decide, *args):
    """A decision, or the class and message of the `LexiconError` it raised."""
    try:
        return decide(*args)
    except LexiconError as exc:
        return type(exc), str(exc)


@settings(max_examples=300)
@given(worlds(), st.data())
def test_step_and_the_scripted_predictors_equal_their_frozen_copies(world, data):
    # both rules (wait-k 1-9, and settled from an adaptive policy), real and
    # guessed prefixes, every written count up to two past the prefix, both
    # source_done values, and sometimes a token the lexicon has no rule for
    vocab, lexicon, ids = world
    policy = data.draw(st.one_of(
        st.integers(min_value=1, max_value=9).map(PolicyConfig.wait_k),
        st.sampled_from((0.05, 0.1, 0.3, 0.5, 1.0)).map(PolicyConfig.adaptive),
    ))
    model = SimtModel(lexicon=lexicon, policy=policy, vocabulary=vocab)
    source = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=12))
    if data.draw(st.booleans()):
        unruled = [t for t in range(len(vocab)) if t not in lexicon.default]  # reserved and target ids
        source[data.draw(st.integers(0, len(source) - 1))] = data.draw(st.sampled_from(unruled))
    source = tuple(source)
    guesses = data.draw(st.lists(st.sampled_from(ids), min_size=len(source) + 1, max_size=len(source) + 1))
    prefixes = [source[:n] for n in range(len(source) + 1)] + [source[:n] + (g,) for n, g in enumerate(guesses)]
    for prefix in prefixes:
        for written in range(len(prefix) + 3):
            for done in (False, True):
                assert outcome(model.step, prefix, written, done) == outcome(
                    frozen_step, model, prefix, written, done
                ), (prefix, written, done)

    context = source + tuple(data.draw(st.lists(st.sampled_from(ids), min_size=2, max_size=2)))
    pairs = [
        (OraclePredictor(source), FrozenOraclePredictor(source)),
        (AlwaysWrongPredictor(source, vocab), FrozenAlwaysWrongPredictor(source, vocab)),
        (AlwaysWrongPredictor(source, vocab, lexicon.default),
         FrozenAlwaysWrongPredictor(source, vocab, lexicon.default)),
    ]
    for predictor, frozen in pairs:
        for n in range(len(context) + 1):
            got = predictor.predict(context[:n])
            assert got == frozen.predict(context[:n]) and type(got) is Prediction, (type(predictor), n)


@settings(max_examples=100)
@given(shipped_cases())
def test_class_level_wrappers_see_every_translator_and_predictor_call(case):
    # the benchmark counts translator and predictor calls by wrapping these
    # methods on their classes, so the engine must call through them once
    # per event that records a call
    model, predictor_for, sources, tau, _ = case
    calls = {"step": 0, "predict": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as patch:
        for cls, name in ((SimtModel, "step"), (NgramModel, "predict"), (OraclePredictor, "predict"),
                          (AlwaysWrongPredictor, "predict")):
            patch.setattr(cls, name, counting(name, vars(cls)[name]))
        for source in sources:
            calls.update(step=0, predict=0)
            kinds = run_speculative(model, predictor_for(source), source, EngineConfig(tau=tau)).trace.kind_counts()
            assert calls == {"step": kinds[WRITE] + kinds[SPECULATE] + kinds[WITHDRAW], "predict": kinds[PREDICT]}
            calls.update(step=0, predict=0)
            kinds = run_baseline(model, source).trace.kind_counts()
            assert calls == {"step": kinds[WRITE], "predict": 0}


@settings(max_examples=150)
@given(shipped_cases())
def test_traces_count_the_predicted_share_the_predictor_scores(case):
    # the gate tau withholds speculation, never the prediction, so every
    # real source token is guessed once whatever tau is
    model, predictor_for, sources, tau, kind = case
    predicted = 0
    for source in sources:
        assert replay(run_baseline(model, source).trace).predicted == 0
        result = run_speculative(model, predictor_for(source), source, EngineConfig(tau=tau))
        predicted += replay(result.trace).predicted
    accuracy = predicted / sum(map(len, sources))
    if kind == "ngram":
        assert accuracy == predictor_for(None).evaluate(sources)["accuracy"]
    else:
        assert accuracy == (1.0 if kind == "oracle" else 0.0)


TAUS = (0.0, 0.3, 0.5, 0.7, 1.0)


@settings(max_examples=150)
@given(shipped_cases())
def test_tau_changes_a_run_only_through_the_gating_of_its_predictions(case):
    # what lets a sweep run each distinct gating once and relabel it for the
    # other taus: the PREDICT events are the same at every tau, and two taus
    # that clear the same predictions give the same events
    model, predictor_for, sources, _, kind = case
    for source in sources:
        events = {tau: run_speculative(model, predictor_for(source), source, EngineConfig(tau=tau)).trace.events
                  for tau in TAUS}
        predicts = {tau: [(e.i, e.pred, e.p) for e in map(Event._make, run) if e.ev == PREDICT]
                    for tau, run in events.items()}
        assert all(predicts[tau] == predicts[0.0] for tau in TAUS)
        by_gating: dict[tuple[bool, ...], tuple] = {}
        for tau in TAUS:
            gating = tuple(not p < tau for _, _, p in predicts[tau])  # the engine's gate
            assert by_gating.setdefault(gating, events[tau]) == events[tau]


# probabilities that often repeat and often equal a tau, 0.0 and 1.0 among them
gate_values = st.one_of(st.sampled_from([0.0, 1.0, 0.3, 0.5, 0.7, 5e-324, 1 - 2 ** -53]), st.floats(0.0, 1.0))


@settings(max_examples=500)
@given(st.lists(gate_values, max_size=12), gate_values, gate_values, st.data())
@example([], 0.0, 1.0, None)
@example([0.5], 0.5, 0.3, None)
@example([0.5], 0.3, 0.5, None)
@example([0.3, 0.3, 0.7], 0.7, 0.3, None)
@example([0.0, 1.0], 0.0, 1.0, None)
@example([0.0, 1.0], 1.0, 0.0, None)
def test_the_sweep_reuses_a_run_exactly_when_its_predictions_gate_alike(probabilities, tau, other, data):
    # the sweep keeps a run at `tau` with the `_tau_bounds` of its trace and
    # reuses it at `other` when `low < other <= high`: exactly when no PREDICT
    # probability lies in [min(tau, other), max(tau, other)), whichever tau is larger
    if data is not None:
        probabilities += data.draw(st.lists(st.sampled_from([tau, other]), max_size=3))
    events = [Event(PREDICT, i=n, pred="a", p=p) for n, p in enumerate(probabilities, 1)]
    trace = EventTrace(events=(*events, Event(READ, i=1, tok="a"), Event(END)), run_config=RunConfig(tau=tau))
    low, high = _tau_bounds(RunResult((), trace))
    assert (low < other <= high) == gates_alike(trace, tau, other)
    assert (low < other <= high) == all((p < tau) == (p < other) for p in probabilities)


@settings(max_examples=150)
@given(shipped_cases(st.floats(min_value=0.0, max_value=0.1, exclude_min=True).map(PolicyConfig.adaptive)))
def test_adaptive_with_latency_weight_at_most_a_tenth_is_wait_1(case):
    # its write threshold 0.4 + L <= 0.5 accepts every visible token, as wait-1 does
    model, predictor_for, sources, tau, _ = case
    wait_1 = SimtModel(lexicon=model.lexicon, policy=PolicyConfig.wait_k(1), vocabulary=model.vocabulary)
    for source in sources:
        assert run_baseline(model, source).trace.events == run_baseline(wait_1, source).trace.events
        adaptive = run_speculative(model, predictor_for(source), source, EngineConfig(tau=tau))
        waiting = run_speculative(wait_1, predictor_for(source), source, EngineConfig(tau=tau))
        assert adaptive.trace.events == waiting.trace.events


@settings(max_examples=150)
@given(shipped_cases(st.integers(min_value=3, max_value=7).map(PolicyConfig.wait_k)))
def test_speculative_wait_k_from_3_runs_as_baseline_wait_k_minus_1(case):
    # at k >= 3 a speculated decision translates a position at least two
    # behind the guessed token, and a rule reads at most one token past its
    # position, so the guess is never read: only its count moves the lag, and
    # every withdrawal puts back the decision it takes away. Two exceptions:
    # a guessed end of sentence before the real one lifts the wait, so the
    # speculated decision writes where wait-k would still read (delays and
    # withdrawals both change); and a source of at most k - 2 tokens is read
    # whole before any write, so a real token guessed past its end speculates
    # a read where the real end writes (only the withdrawal changes)
    model, predictor_for, sources, _, _ = case
    shorter = SimtModel(lexicon=model.lexicon, policy=PolicyConfig.wait_k(model.policy.k - 1),
                        vocabulary=model.vocabulary)
    for source in sources:
        trace = run_speculative(model, predictor_for(source), source, EngineConfig(tau=0.0)).trace
        events = [Event._make(e) for e in trace.events]
        if any(e.ev == PREDICT and e.pred == EOS_SURFACE and e.i <= len(source) for e in events):
            continue
        if len(source) >= model.policy.k - 1:
            assert all(e.old == e.new for e in events if e.ev == WITHDRAW)
        assert replay(trace).delays == replay(run_baseline(shorter, source).trace).delays


@settings(max_examples=200)
@given(worlds(), st.data())
def test_a_settled_translation_holds_as_the_prefix_grows(world, data):
    _, lexicon, ids = world
    tokens = st.lists(st.sampled_from(ids), max_size=6)
    prefix = tuple(data.draw(tokens.filter(bool)))
    extension = tuple(data.draw(tokens))
    pos = data.draw(st.integers(1, len(prefix)))
    if lexicon.settled(prefix, pos):
        assert lexicon.translate(prefix + extension, pos) == lexicon.translate(prefix, pos)


@settings(max_examples=150)
@given(worlds(), st.data())
def test_wait_k_covering_the_source_writes_the_sentence_translation(world, data):
    vocab, lexicon, ids = world
    source = tuple(data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=20)))
    k = len(source) + data.draw(st.integers(0, 2))
    model = SimtModel(lexicon=lexicon, policy=PolicyConfig.wait_k(k), vocabulary=vocab)
    assert run_baseline(model, source).final_output == lexicon.translate_sentence(source)
