"""Property tests of the trace writer and reader.

The writer must reproduce the `json.dumps` writer (frozen in `oracles.py`)
byte for byte; the reader must map any text to an EventTrace or a
TraceError naming a line, and its one-parse path must agree with the
line-by-line parse on every input.
"""

from __future__ import annotations

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from specmt import Event, EventTrace, RunConfig, TraceError, parse_trace  # noqa: E402
from specmt.trace import EVENT_KINDS, _parse_lines  # noqa: E402
from oracles import dumps_event_json, dumps_serialize  # noqa: E402

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


@settings(max_examples=400, deadline=None)
@given(traces)
def test_writer_matches_json_dumps_and_round_trips(trace):
    text = trace.serialize()
    assert text == dumps_serialize(trace)
    assert parse_trace(text) == trace


@given(st.sampled_from([float("nan"), float("inf"), -float("inf")]))
def test_non_finite_numbers_are_spelled_as_json_dumps_does(value):
    event = Event("PREDICT", i=1, pred="a", p=value)
    assert event.to_json() == dumps_event_json(event)
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


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_any_text_gives_a_trace_or_a_trace_error(text):
    _outcome(parse_trace, text)


# Lines near the format: valid events, objects with stray keys and wrongly
# typed values, non-objects, broken JSON, several objects on one line, one
# object broken over two lines between its members, and the two together,
# which as a JSON array still has as many items as lines.
_several = st.lists(events.map(Event.to_json), min_size=2, max_size=3).map(", ".join)
_broken = events.map(lambda e: e.to_json().replace(", ", "\n", 1))
_keys = st.sampled_from(["ev", "i", "j", "tok", "pred", "p", "old", "new", "policy", "seed", "x"])
_values = st.one_of(
    st.none(), st.booleans(), ints, st.floats(), surfaces, st.sampled_from(sorted(EVENT_KINDS)),
    st.lists(st.integers(), max_size=2),
)
_near_lines = st.one_of(
    events.map(Event.to_json),
    events.map(Event.to_json),
    run_configs.map(RunConfig.to_json),
    st.dictionaries(_keys, _values, max_size=4).map(json.dumps),
    _several,
    _broken,
    st.tuples(_several, _broken).map("\n".join),
    events.map(lambda e: e.to_json()[: len(e.to_json()) // 2]),
    st.sampled_from(["", " ", "\r", "[", "]", "{", "}", "null", "1", '"x"', "[{}]", ',{"ev": "END"}']),
    st.text(max_size=8),
)


@settings(max_examples=400, deadline=None)
@given(run_configs, st.lists(_near_lines, max_size=8), st.sampled_from(["\n", "\r\n"]), st.booleans())
def test_one_parse_reader_agrees_with_line_by_line_parse(config, lines, newline, final_newline):
    text = newline.join([config.to_json(), *lines]) + (newline if final_newline else "")
    assert _outcome(parse_trace, text) == _outcome(_parse_lines, text)
