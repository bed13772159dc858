"""Property tests of the trace writer, reader and replay.

The writer must reproduce the `json.dumps` writer (frozen in `oracles.py`)
byte for byte, also when engine traces share one dict of encoded lines; the
reader must map any text to an EventTrace or a TraceError naming a line, and
agree with the frozen line-by-line parse on every input, padded lines
included, also when traces share one cache of parsed lines. Its check of all
new lines at once must agree with the check of each line, and both with the
event rules written out here. `replay` must agree with the frozen row-building replay, the
brute-force delays and the brute-force count of predicted source tokens on
any event list.
"""

from __future__ import annotations

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from specmt import (  # noqa: E402
    EngineConfig, Event, EventTrace, ExperimentConfig, RunConfig, TraceError, parse_trace, replay,
    run_baseline, run_experiment, run_speculative,
)
from specmt.trace import EVENT_KINDS, _event_problem, _events  # noqa: E402
from specmt.vocab import EOS_SURFACE, PHI_SURFACE  # noqa: E402
from oracles import (  # noqa: E402
    brute_force_delays, brute_force_predicted, dumps_event_json, dumps_serialize, event_json, frozen_event,
    frozen_parse_lines, snapshot_from_trace,
)
from test_engine_properties import ScriptedPredictor, cases  # noqa: E402

SPECIAL = [
    "</s>", "<phi>", "<s>", "<unk>", '"', "\\", '\\"', "\n", "\r\n", "\t", "\x00", "\x1f", "\x7f",
    "\x85", "\u2028", "\u2029", "\xe9", "\u65e5\u672c", "\U0001f600", "}\n{", "", " ",
]

surfaces = st.one_of(st.sampled_from(SPECIAL), st.text(max_size=12))
ints = st.integers(min_value=-(2 ** 70), max_value=2 ** 70)
probabilities = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 0.5, 1e-17, 5e-324, 2.2250738585072014e-308, 1.1125369292536007e-308]),
    st.floats(min_value=0.0, max_value=1.0),
    st.integers(min_value=0, max_value=1),
)
numbers = st.one_of(st.floats(allow_nan=False), ints)


def optional(strategy):
    return st.one_of(st.none(), strategy)


events = st.builds(
    Event,
    ev=st.sampled_from(sorted(EVENT_KINDS)),
    i=optional(ints), j=optional(ints), tok=optional(surfaces), pred=optional(surfaces),
    p=optional(probabilities), old=optional(surfaces), new=optional(surfaces),
)
run_configs = st.builds(
    RunConfig,
    policy=surfaces, param=numbers, tau=numbers, predictor=surfaces, corpus=surfaces,
    seed=ints, sentence_index=ints,
)
traces = st.builds(EventTrace, events=st.lists(events, max_size=12).map(tuple), run_config=run_configs)


@settings(max_examples=400)
@given(traces)
def test_writer_matches_json_dumps_and_round_trips(trace):
    text = trace.serialize()
    assert text == dumps_serialize(trace)
    assert parse_trace(text) == trace


@settings(max_examples=300)
@given(traces)
def test_plain_tuple_events_replay_serialize_and_parse_as_events_do(trace):
    plain = EventTrace(events=tuple(map(tuple, trace.events)), run_config=trace.run_config)
    assert plain == trace and hash(plain) == hash(trace)
    text = trace.serialize()
    assert plain.serialize() == text
    assert _replay_or_error(replay, plain) == _replay_or_error(replay, trace)
    parsed = parse_trace(text)
    assert parsed == plain == trace
    assert all(type(event) is tuple for event in parsed.events)


@given(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
def test_non_finite_numbers_are_spelled_as_json_dumps_does(value):
    event = Event("PREDICT", i=1, pred="a", p=value)
    assert event_json(event) == dumps_event_json(event)
    config = RunConfig(param=value, tau=value)
    assert EventTrace(events=(event,), run_config=config).serialize() == dumps_serialize(
        EventTrace(events=(event,), run_config=config)
    )


def _outcome(parse, text):
    """("trace", its serialization) or ("error", a message naming a line);
    any other exception fails the test."""
    try:
        trace = parse(text)
    except TraceError as exc:
        message = str(exc)
        assert message.startswith("line "), message
        assert int(message.split(":", 1)[0].removeprefix("line ")) >= 1
        return "error", message
    assert isinstance(trace, EventTrace)
    return "trace", trace.serialize()


@settings(max_examples=300)
@given(st.text())
def test_any_text_gives_a_trace_or_a_trace_error(text):
    _outcome(parse_trace, text)


# Lines near the format: valid events, objects with stray keys and wrongly
# typed values, non-objects, broken JSON, several objects on one line, one
# object broken over two lines between its members, and the two together,
# which as a JSON array still has as many items as lines. Valid lines come
# padded too: with the whitespace JSON ignores around a value, and with a
# form feed, a no-break space and a byte order mark, which JSON does not
# ignore (`str.strip` removes the first two).
_several = st.lists(events.map(event_json), min_size=2, max_size=3).map(", ".join)
_broken = events.map(lambda e: event_json(e).replace(", ", "\n", 1))
_keys = st.sampled_from(["ev", "i", "j", "tok", "pred", "p", "old", "new", "policy", "seed", "x"])
_values = st.one_of(
    st.none(), st.booleans(), ints, st.floats(), surfaces, st.sampled_from(sorted(EVENT_KINDS)),
    st.lists(st.integers(), max_size=2),
)
_pads = st.text(alphabet=[" ", "\t", "\r", "\x0c", "\ufeff", "\xa0"], max_size=2)


def padded(lines):
    return st.tuples(_pads, lines, _pads).map("".join)


_near_lines = st.one_of(
    events.map(event_json),
    events.map(event_json),
    run_configs.map(RunConfig.to_json),
    padded(events.map(event_json)),
    padded(run_configs.map(RunConfig.to_json)),
    st.dictionaries(_keys, _values, max_size=4).map(json.dumps),
    _several,
    _broken,
    st.tuples(_several, _broken).map("\n".join),
    events.map(lambda e: event_json(e)[: len(event_json(e)) // 2]),
    st.sampled_from(["", " ", "\r", "[", "]", "{", "}", "null", "1", '"x"', "[{}]", ',{"ev": "END"}']),
    st.text(max_size=8),
)


@settings(max_examples=400)
@given(padded(run_configs.map(RunConfig.to_json)), st.lists(_near_lines, max_size=8),
       st.sampled_from(["\n", "\r\n"]), st.booleans())
def test_one_parse_reader_agrees_with_line_by_line_parse(header, lines, newline, final_newline):
    text = newline.join([header, *lines]) + (newline if final_newline else "")
    assert _outcome(parse_trace, text) == _outcome(frozen_parse_lines, text)


@pytest.fixture(scope="module")
def sweep_texts(tmp_path_factory):
    """The trace files of a small traced sweep: every grid point's runs,
    baselines included, and the runs tau sharing relabelled."""
    out = tmp_path_factory.mktemp("sweep")
    config = ExperimentConfig(
        n_sentences=30, k_grid=(1, 3), l_grid=(0.1,), tau_grid=(0.0, 0.5, 1.0), predictors=("indomain", "oracle"),
        out_dir=str(out), record_traces=True,
    )
    assert run_experiment(config).ok
    return [path.read_text(encoding="utf-8") for path in sorted((out / "traces").rglob("*.jsonl"))]


def _parsed(parse, text):
    """("trace", its repr) or ("error", the message); the repr tells an int
    from a float and shows a NaN, which compares unequal to itself."""
    try:
        return "trace", repr(parse(text))
    except TraceError as exc:
        return "error", str(exc)


# An object broken over two lines inside a nested container: both lines keep
# the writer's layout, so after a line holding two objects the three lines,
# read as one array, still have as many items as lines.
_pair = st.lists(events.map(event_json), min_size=2, max_size=2).map(", ".join)
_nested = events.map(lambda e: event_json(e)[:-1] + ', "x": [{}\n{}]}')
_spanning = st.tuples(_pair, _nested).map("\n".join)
_odd_lines = st.one_of(events.map(event_json), _pair, _nested, _spanning, _spanning, _near_lines)


@settings(max_examples=300)
@given(st.data())
def test_a_shared_cache_parses_every_text_as_it_parses_alone(sweep_texts, data):
    """Texts parsed in turn with one `known` dict, as `metrics_from_traces`
    parses its traces: engine traces, copies relabelled with another header,
    and near-format texts made of event lines of an engine trace and of the
    text before, plus one odd line. After a near-format text, each of its
    lines not seen before is parsed alone under its header: as it is, so
    that a line cached from a batch that failed is read again, and with a
    space put before its first string value, which is another line with
    another value."""
    known: dict[str, Event] = {}
    lines: list[str] = []  # the event lines of the text before
    seen: set[str] = set()
    for _ in range(data.draw(st.integers(1, 5))):
        text = data.draw(st.sampled_from(sweep_texts))
        header, body = text.split("\n", 1)
        kind = data.draw(st.sampled_from(["engine", "relabelled", "near", "near"]))
        if kind == "relabelled":
            text = data.draw(run_configs).to_json() + "\n" + body
        elif kind == "near":
            header = data.draw(st.one_of(st.just(header), run_configs.map(RunConfig.to_json)))
            rows = data.draw(st.lists(st.sampled_from(body.split("\n")[:-1] + lines), max_size=4))
            rows.insert(data.draw(st.integers(0, len(rows))), data.draw(_odd_lines))
            newline = data.draw(st.sampled_from(["\n", "\n", "\r\n"]))
            text = newline.join([header, *rows]) + data.draw(st.sampled_from(["", newline, newline]))
        lines = [line for line in text.split("\n")[1:] if line]
        new = [line for line in dict.fromkeys(lines) if line not in seen] if kind == "near" else []
        seen.update(new)
        alone_lines = (f"{header}\n{row}\n" for line in new for row in (line, line.replace('": "', '": " ', 1)))
        for each in (text, *alone_lines):
            alone = _parsed(frozen_parse_lines, each)
            assert _parsed(parse_trace, each) == alone
            assert _parsed(lambda t: parse_trace(t, known), each) == alone


# JSON values near an event: objects whose keys are the eight fields and one
# unknown key, with values of every JSON type (NaN, the infinities and -0.0
# among the floats), and the same values outside an object.
_field_values = st.one_of(
    st.none(), st.booleans(), ints, st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1, 1.0]),
    surfaces, st.sampled_from(sorted(EVENT_KINDS)),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
_event_objects = events.map(lambda e: json.loads(event_json(e)))
_json_values = st.one_of(
    _event_objects,
    st.builds(lambda obj, key, value: {**obj, key: value}, _event_objects, st.sampled_from(Event._fields), _field_values),
    st.builds(lambda obj, value: {**obj, "x": value}, _event_objects, _field_values),
    st.dictionaries(st.sampled_from([*Event._fields, "x"]), _field_values, max_size=9),
    _field_values,
)
# the event rules as the `Event` docstring states them, written out apart from the reader
_FIELD_TYPES = {"ev": (str,), "i": (int,), "j": (int,), "tok": (str,), "pred": (str,), "p": (int, float),
                "old": (str,), "new": (str,)}


def _is_event(value) -> bool:
    return (
        type(value) is dict and set(value) <= set(_FIELD_TYPES)
        and type(value.get("ev")) is str and value["ev"] in EVENT_KINDS
        and all(v is None or type(v) in _FIELD_TYPES[key] for key, v in value.items())
    )


def _checked(value):
    """The event `_events([value])` makes of `value`, or None when it rejects it."""
    events = _events([value])
    return None if events is None else events[0]


@settings(max_examples=500)
@given(st.lists(_json_values, max_size=6))
def test_the_bulk_event_check_agrees_with_the_check_of_each_value(values):
    """`_events` gives `[_events([v])[0] for v in values]` when every value
    passes alone and rejects the list otherwise; alone, it accepts exactly
    the values that follow the event rules, as their fields in `Event`
    order, and `_event_problem` says what is wrong with each other value as
    the frozen `frozen_event` says it. Reprs tell an int from a float and
    show a NaN, which compares unequal to itself."""
    each = [_checked(value) for value in values]
    for value, event in zip(values, each):
        assert (event is not None) == _is_event(value), value
        if event is not None:
            assert repr(event) == repr(tuple(value.get(key) for key in Event._fields)) == repr(frozen_event(value))
        else:
            with pytest.raises(TraceError) as frozen:
                frozen_event(value)
            assert _event_problem(value) == str(frozen.value)
    bulk = _events(values)
    if any(event is None for event in each):
        assert bulk is None
    else:
        assert repr(bulk) == repr(each)


_BAD_VALUES = ["3", 1.5, True, None, [1], {}, -0.0, float("nan"), "READ", "JUMP", ""]


@st.composite
def _altered(draw, text):
    """`text` with one event line altered and written back in the writer's
    layout: a field given another value or type, an unknown key, another
    kind (known or not), or "ev" taken out."""
    header, *rows = text[:-1].split("\n")
    n = draw(st.integers(0, len(rows) - 1))
    obj = json.loads(rows[n])
    change = draw(st.sampled_from(["type", "key", "kind", "no ev"]))
    if change == "type":
        obj[draw(st.sampled_from(Event._fields))] = draw(st.sampled_from(_BAD_VALUES))
    elif change == "key":
        obj[draw(st.sampled_from(["x", "EV", "seed"]))] = draw(st.sampled_from(_BAD_VALUES))
    elif change == "kind":
        obj["ev"] = draw(st.sampled_from([*sorted(EVENT_KINDS), "write", "JUMP", ""]))
    else:
        del obj["ev"]
    rows[n] = json.dumps(obj, ensure_ascii=False)
    return "\n".join([header, *rows]) + "\n"


@settings(max_examples=300)
@given(st.data())
def test_an_altered_line_parses_as_the_line_by_line_parse_reads_it(sweep_texts, data):
    """Engine traces, some with one line altered, parsed in turn with one
    `known` dict: each gives the trace or the TraceError message that
    `frozen_parse_lines` gives."""
    known: dict[str, tuple] = {}
    for _ in range(data.draw(st.integers(1, 4))):
        text = data.draw(st.sampled_from(sweep_texts))
        if data.draw(st.booleans()):
            text = data.draw(_altered(text))
        assert _parsed(lambda t: parse_trace(t, known), text) == _parsed(frozen_parse_lines, text)


@settings(max_examples=200)
@given(st.lists(cases(), min_size=1, max_size=4))
def test_a_shared_line_dict_serializes_engine_traces_as_json_dumps_does(drawn):
    """Baseline and speculative engine traces serialized in turn with one
    dict of encoded lines, as `run_experiment` saves a sweep's traces: each
    text equals the text without the dict and the `json.dumps` writer's."""
    lines: dict[tuple, str] = {}
    written: set[tuple] = set()
    for model, ids, source, script, tau in drawn:
        config = RunConfig(policy=model.policy.kind, param=model.policy.param, tau=tau, predictor="scripted")
        predictor = ScriptedPredictor(model.vocabulary, ids, source, script)
        for run in (run_baseline(model, source, config),
                    run_speculative(model, predictor, source, EngineConfig(tau=tau), config)):
            text = run.trace.serialize(lines)
            assert text == run.trace.serialize() == dumps_serialize(run.trace)
            written.update(run.trace.events)
    assert lines.keys() == written
    assert all(line == dumps_event_json(event) + "\n" for event, line in lines.items())


def test_without_a_dict_each_event_gets_its_own_json_dumps_bytes():
    """Equal tuples can hold unequal JSON: `1 == 1.0 == True` and `0.0 ==
    -0.0`. Without a dict of encoded lines, each event is encoded alone."""
    trace = EventTrace(events=(
        Event("PREDICT", i=1, pred="a", p=1), Event("PREDICT", i=1, pred="a", p=1.0),
        Event("PREDICT", i=1, pred="a", p=True), Event("PREDICT", i=1, pred="a", p=0.0),
        Event("PREDICT", i=1, pred="a", p=-0.0),
    ))
    lines = trace.serialize().split("\n")[1:-1]
    assert lines == [dumps_event_json(event) for event in trace.events]
    assert [line.rsplit(" ", 1)[1] for line in lines] == ["1}", "1.0}", "true}", "0.0}", "-0.0}"]


def _replay_or_error(replay_trace, trace):
    try:
        return replay_trace(trace)
    except TraceError as exc:
        return str(exc)


def _assert_replay_matches_rows(trace):
    """`replay` raises the frozen replay's error, or gives its final row, the
    brute-force delays of its rows, its row count, the kind counts and the
    brute-force count of predicted source tokens."""
    rows = _replay_or_error(snapshot_from_trace, trace)
    replayed = _replay_or_error(replay, trace)
    if isinstance(rows, str):
        assert replayed == rows
        return
    assert replayed == (
        rows[-1], brute_force_delays(rows), len(rows), trace.kind_counts(), brute_force_predicted(trace)
    )
    assert all(1 <= delay <= len(rows) for delay in replayed.delays)


_AFTER_LOOP = ("inconsistent trace: missing END", "inconsistent trace: no source reads")


@settings(max_examples=200)
@given(st.lists(events, max_size=12).map(tuple))
# a read without a token, or a guess without one, is inconsistent; of two
# guesses for one index, the last one counts
@example((Event("READ", i=1), Event("END")))
@example((Event("PREDICT", i=1), Event("READ", i=1), Event("END")))
@example((Event("PREDICT", i=1, pred="a"), Event("PREDICT", i=1, pred="b"), Event("READ", i=1, tok="b"), Event("END")))
# a read after the end-of-source read: alone, after an error the frozen
# replay raises first, and failing its own index check
@example((Event("READ", i=1, tok=EOS_SURFACE), Event("READ", i=2, tok="b"), Event("END")))
@example((Event("READ", i=1, tok=EOS_SURFACE), Event("COMMIT", j=1), Event("READ", i=2, tok="b"), Event("END")))
@example((Event("READ", i=2, tok=EOS_SURFACE), Event("READ", i=1, tok="b"), Event("END")))
def test_replay_agrees_with_the_frozen_replay_on_any_events(trace_events):
    """As on protocol traces, except that the frozen replay reads on after the
    end-of-source READ. Where a READ c follows one, `replay` raises the error
    the frozen replay raises inside its loop over the events up to c, or
    else the one for a READ after the end of source."""
    reads = [n for n, event in enumerate(trace_events) if event.ev == "READ"]
    late = next((c for c in reads if any(trace_events[n].tok == EOS_SURFACE for n in reads if n < c)), None)
    if late is None:
        _assert_replay_matches_rows(EventTrace(events=trace_events))
        return
    # without END, the frozen replay raises on events[:c + 1]
    frozen = _replay_or_error(snapshot_from_trace, EventTrace(events=trace_events[: late + 1]))
    want = frozen if frozen not in _AFTER_LOOP else "inconsistent trace: READ after end of source"
    assert _replay_or_error(replay, EventTrace(events=trace_events)) == want


DECISIONS = ("A", "B", PHI_SURFACE, EOS_SURFACE)


def _trace(*events):
    return EventTrace(events=(*events, Event("END")))


@st.composite
def protocol_traces(draw):
    """Traces that keep the speculation protocol, over two visible tokens.

    Each read step resolves the speculation left pending before it, writes a
    few decisions and may speculate one more. A speculation is resolved after
    the next read, so its withdrawal re-pushes across a row close, or with no
    read in between, inside one row (also before the first read and around
    the end-of-source read, which closes no row). A withdrawal often
    re-pushes the token it withdraws. The prediction before a speculation
    guesses the next source token or misses it.
    """
    events = []
    slot = 0
    pending = None  # the pending speculation's (slot, decision)

    def resolve():
        nonlocal pending
        if pending is not None:
            if draw(st.booleans()):
                events.append(Event("COMMIT", j=pending[0]))
            else:
                new = draw(st.sampled_from((pending[1], *DECISIONS)))
                events.append(Event("WITHDRAW", j=pending[0], old=pending[1], new=new))
            pending = None

    def decide(basis):
        nonlocal slot, pending
        for _ in range(draw(st.integers(0, 2))):
            slot += 1
            events.append(Event("WRITE", j=slot, tok=draw(st.sampled_from(DECISIONS)), i=basis))
        if draw(st.booleans()):
            slot += 1
            pending = (slot, draw(st.sampled_from(DECISIONS)))
            events.append(Event("PREDICT", i=basis + 1, pred=draw(st.sampled_from(("x", f"s{basis + 1}"))), p=0.5))
            events.append(Event("SPECULATE", j=slot, tok=pending[1], i=basis))
            if draw(st.booleans()):
                resolve()

    decide(0)
    reads = draw(st.integers(1, 6))
    for i in range(1, reads + 2):
        if i > reads and draw(st.booleans()):
            break  # no end-of-source read
        events.append(Event("READ", i=i, tok=f"s{i}" if i <= reads else EOS_SURFACE))
        resolve()
        decide(i)
    resolve()
    return _trace(*events)


@settings(max_examples=300)
@given(protocol_traces())
# a silent withdrawal of a token held at the last close, written again a row later, in the same row, or
# speculated again in the same row
@example(_trace(
    Event("READ", i=1, tok="s1"), Event("SPECULATE", j=1, tok="A", i=1), Event("READ", i=2, tok="s2"),
    Event("WITHDRAW", j=1, old="A", new=PHI_SURFACE), Event("READ", i=3, tok="s3"), Event("WRITE", j=2, tok="A", i=3),
))
@example(_trace(
    Event("READ", i=1, tok="s1"), Event("SPECULATE", j=1, tok="A", i=1), Event("READ", i=2, tok="s2"),
    Event("WITHDRAW", j=1, old="A", new=PHI_SURFACE), Event("WRITE", j=2, tok="A", i=2), Event("READ", i=3, tok="s3"),
))
@example(_trace(
    Event("READ", i=1, tok="s1"), Event("SPECULATE", j=1, tok="A", i=1), Event("READ", i=2, tok="s2"),
    Event("WITHDRAW", j=1, old="A", new=PHI_SURFACE), Event("SPECULATE", j=2, tok="A", i=2),
    Event("READ", i=3, tok="s3"), Event("COMMIT", j=2),
))
# one position popped twice in one row, pushed again first with another token, then with the held one
@example(_trace(
    Event("READ", i=1, tok="s1"), Event("SPECULATE", j=1, tok="A", i=1), Event("READ", i=2, tok="s2"),
    Event("WITHDRAW", j=1, old="A", new=PHI_SURFACE), Event("SPECULATE", j=2, tok="B", i=2),
    Event("WITHDRAW", j=2, old="B", new="A"), Event("READ", i=3, tok="s3"),
))
# a pop of a position first pushed in the open row
@example(_trace(
    Event("READ", i=1, tok="s1"), Event("READ", i=2, tok="s2"), Event("WRITE", j=1, tok="C", i=2),
    Event("SPECULATE", j=2, tok="A", i=2), Event("WITHDRAW", j=2, old="A", new="B"), Event("READ", i=3, tok="s3"),
))
# a speculation made before the first READ and withdrawn after it
@example(_trace(
    Event("SPECULATE", j=1, tok="A", i=0), Event("READ", i=1, tok="s1"), Event("WITHDRAW", j=1, old="A", new="B"),
    Event("READ", i=2, tok="s2"),
))
# a withdrawal after the end-of-source READ of a token held at the last close, corrected or written again;
# and one before it, whose token comes back after it
@example(_trace(
    Event("READ", i=1, tok="s1"), Event("WRITE", j=1, tok="C", i=1), Event("SPECULATE", j=2, tok="A", i=1),
    Event("READ", i=2, tok="s2"), Event("READ", i=3, tok=EOS_SURFACE), Event("WITHDRAW", j=2, old="A", new="B"),
))
@example(_trace(
    Event("READ", i=1, tok="s1"), Event("SPECULATE", j=1, tok="A", i=1), Event("READ", i=2, tok="s2"),
    Event("READ", i=3, tok=EOS_SURFACE), Event("WITHDRAW", j=1, old="A", new="A"),
))
@example(_trace(
    Event("READ", i=1, tok="s1"), Event("SPECULATE", j=1, tok="A", i=1), Event("READ", i=2, tok="s2"),
    Event("WITHDRAW", j=1, old="A", new=PHI_SURFACE), Event("READ", i=3, tok=EOS_SURFACE),
    Event("WRITE", j=2, tok="A", i=2),
))
def test_replay_agrees_with_the_frozen_replay_on_protocol_traces(trace):
    _assert_replay_matches_rows(trace)
