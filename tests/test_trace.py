from __future__ import annotations

import json
from dataclasses import fields, replace
from typing import get_type_hints

import numpy as np
import pytest

from specmt import (
    AlwaysWrongPredictor,
    Event,
    EventTrace,
    OraclePredictor,
    PolicyConfig,
    RunConfig,
    TraceError,
    load_trace,
    parse_trace,
    run_baseline,
    replay,
    run_speculative,
    train_ngram,
)
from specmt.experiment import score_run
from conftest import make_model
from oracles import dumps_event_json, dumps_run_config_json, event_json, snapshot_from_trace


def _trace(*events, config=None):
    return EventTrace(events=tuple(events), run_config=config or RunConfig())


def ev(kind, **kw):
    return Event(kind, **kw)


class TestReplay:
    def test_plain_writes(self):
        trace = _trace(
            ev("READ", i=1, tok="a"), ev("WRITE", j=1, tok="A", i=1),
            ev("READ", i=2, tok="b"), ev("WRITE", j=2, tok="B", i=2),
            ev("END"),
        )
        assert replay(trace)[:3] == (("A", "B"), (1, 2), 2)  # rows (A), (A B)

    def test_withdrawal_replaces_trailing_token(self):
        trace = _trace(
            ev("READ", i=1, tok="a"), ev("SPECULATE", j=1, tok="A", i=1),
            ev("READ", i=2, tok="b"), ev("WITHDRAW", j=1, old="A", new="B"),
            ev("END"),
        )
        assert replay(trace)[:3] == (("B",), (2,), 2)  # rows (A), (B)

    def test_withdrawal_of_the_same_token_inside_one_row_is_no_change(self):
        # rows (A), (A): the withdrawn A is written again before row 2 closes
        trace = _trace(
            ev("READ", i=1, tok="a"), ev("SPECULATE", j=1, tok="A", i=1),
            ev("READ", i=2, tok="b"), ev("WITHDRAW", j=1, old="A", new="A"),
            ev("END"),
        )
        assert replay(trace)[:3] == (("A",), (1,), 2)

    def test_withdraw_after_commit_is_inconsistent(self):
        trace = _trace(
            ev("READ", i=1, tok="a"), ev("SPECULATE", j=1, tok="A", i=1),
            ev("COMMIT", j=1), ev("WITHDRAW", j=1, old="A", new="B"),
            ev("END"),
        )
        with pytest.raises(TraceError, match="inconsistent trace"):
            replay(trace)

    def test_withdraw_without_speculation_is_inconsistent(self):
        trace = _trace(ev("READ", i=1, tok="a"), ev("WITHDRAW", j=1, old="A", new="B"), ev("END"))
        with pytest.raises(TraceError, match="inconsistent trace"):
            replay(trace)

    def test_phi_never_appears_in_rows(self):
        trace = _trace(
            ev("READ", i=1, tok="a"), ev("WRITE", j=1, tok="<phi>", i=1),
            ev("READ", i=2, tok="b"), ev("WRITE", j=2, tok="B", i=2),
            ev("WRITE", j=3, tok="</s>", i=2),
            ev("END"),
        )
        assert replay(trace)[:3] == (("B",), (2,), 2)  # rows (), (B)

    def test_read_indices_must_increase(self):
        trace = _trace(ev("READ", i=1, tok="a"), ev("READ", i=1, tok="b"), ev("END"))
        with pytest.raises(TraceError, match="READ indices"):
            replay(trace)

    def test_no_read_after_the_end_of_source(self):
        # without the check this replays to A B with I = 2
        trace = _trace(
            ev("READ", i=1, tok="a"), ev("WRITE", j=1, tok="A", i=1), ev("WRITE", j=2, tok="<phi>", i=1),
            ev("READ", i=2, tok="</s>"), ev("READ", i=3, tok="b"), ev("WRITE", j=3, tok="B", i=3),
            ev("END"),
        )
        with pytest.raises(TraceError, match="^inconsistent trace: READ after end of source$"):
            replay(trace)

    @pytest.mark.parametrize("late, message", [
        (ev("READ", i=2, tok="b"), "READ indices not increasing"),
        (ev("READ", i=3), "READ without token"),
        (ev("READ", i=3, tok="</s>"), "READ after end of source"),
    ])
    def test_a_read_after_the_end_of_source_fails_its_own_checks_first(self, late, message):
        trace = _trace(ev("READ", i=1, tok="a"), ev("READ", i=2, tok="</s>"), late, ev("END"))
        with pytest.raises(TraceError, match=f"^inconsistent trace: {message}$"):
            replay(trace)

    @pytest.mark.parametrize("events, message", [
        # a guess of nothing, then a token of nothing, is no prediction
        ((ev("PREDICT", i=1), ev("READ", i=1)), "PREDICT without index or guess"),
        ((ev("PREDICT", i=1, pred="a", p=1.0), ev("READ", i=1)), "READ without token"),
        ((ev("READ", i=1, tok="a"), ev("READ", i=2)), "READ without token"),
        ((ev("PREDICT", pred="a", p=1.0), ev("READ", i=1, tok="a")), "PREDICT without index or guess"),
    ])
    def test_reads_and_predictions_need_their_fields(self, events, message):
        trace = _trace(*events, ev("WRITE", j=1, tok="</s>", i=1), ev("END"))
        with pytest.raises(TraceError, match=f"inconsistent trace: {message}"):
            replay(trace)

    @pytest.mark.parametrize("events, message", [
        # the corrected token is output: dropping it would replay to nothing
        ((ev("PREDICT", i=1, pred="a", p=1.0), ev("SPECULATE", j=1, tok="A", i=0),
          ev("READ", i=1, tok="b"), ev("WITHDRAW", j=1, old="A"), ev("READ", i=2, tok="</s>")),
         "WITHDRAW without corrected token"),
        # not slot 0, which a COMMIT of slot 0 would resolve
        ((ev("READ", i=1, tok="a"), ev("SPECULATE", tok="A", i=1), ev("COMMIT", j=0)),
         "SPECULATE without slot"),
    ])
    def test_speculations_and_withdrawals_need_their_fields(self, events, message):
        trace = _trace(*events, ev("WRITE", j=2, tok="</s>", i=2), ev("END"))
        for replay_trace in (replay, snapshot_from_trace):
            with pytest.raises(TraceError, match=f"^inconsistent trace: {message}$"):
                replay_trace(trace)

    def test_missing_end_is_inconsistent(self):
        trace = _trace(ev("READ", i=1, tok="a"))
        with pytest.raises(TraceError, match="END"):
            replay(trace)

    def test_unresolved_speculation_is_inconsistent(self):
        # every SPECULATE needs one COMMIT or WITHDRAW before END, so a trace
        # that replays has speculations == hits + withdrawals
        trace = _trace(
            ev("READ", i=1, tok="a"), ev("WRITE", j=1, tok="A", i=1),
            ev("SPECULATE", j=2, tok="B", i=1), ev("END"),
        )
        with pytest.raises(TraceError, match="slot 2 unresolved at END"):
            replay(trace)

    def test_events_after_end_are_inconsistent(self):
        trace = _trace(ev("READ", i=1, tok="a"), ev("END"), ev("WRITE", j=1, tok="A", i=1))
        with pytest.raises(TraceError, match="after END"):
            replay(trace)

    def test_replay_is_pure(self, toy):
        vocab, lexicon, ids = toy
        model = make_model(vocab, lexicon, PolicyConfig.wait_k(2))
        source = (ids["b"], ids["c"], ids["a"])
        result = run_speculative(model, OraclePredictor(source), source)
        assert replay(result.trace) == replay(result.trace)

    def test_rows_are_prefixes_when_nothing_was_withdrawn(self, toy):
        vocab, lexicon, ids = toy
        rng = np.random.default_rng(5)
        regular = list(ids[s] for s in ("a", "b", "c", "d"))
        for _ in range(50):
            source = tuple(rng.choice(regular) for _ in range(rng.integers(1, 9)))
            model = make_model(vocab, lexicon, PolicyConfig.wait_k(int(rng.integers(1, 4))))
            result = run_speculative(model, OraclePredictor(source), source)
            assert result.withdrawals == 0
            rows = snapshot_from_trace(result.trace)
            final = replay(result.trace).final
            assert rows[-1] == final
            for row in rows:
                assert row == final[: len(row)]


class TestSerialization:
    def test_roundtrip_is_byte_identical(self, toy):
        vocab, lexicon, ids = toy
        model = make_model(vocab, lexicon, PolicyConfig.wait_k(1))
        source = (ids["b"], ids["c"], ids["a"])
        config = RunConfig(policy="wait_k", param=1, tau=0.25, predictor="oracle",
                           corpus="toy", seed=3, sentence_index=7)
        result = run_speculative(model, OraclePredictor(source), source, run_config=config)
        text = result.trace.serialize()
        assert parse_trace(text).serialize() == text

    def test_roundtrip_preserves_header(self):
        trace = _trace(ev("READ", i=1, tok="a"), ev("END"),
                       config=RunConfig(policy="adaptive", param=0.1, predictor="indomain"))
        parsed = parse_trace(trace.serialize())
        assert parsed.run_config == trace.run_config
        assert parsed.events == trace.events

    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)])
    def test_every_header_field_round_trips(self, name):
        # a float field also takes an int; a value of another type is named
        kind = get_type_hints(RunConfig)[name]
        for value in {str: ["x y"], int: [41], float: [0.75, 2]}[kind]:
            config = replace(RunConfig(), **{name: value})
            parsed = parse_trace(_trace(ev("READ", i=1, tok="a"), ev("END"), config=config).serialize())
            assert parsed.run_config == config and type(getattr(parsed.run_config, name)) is type(value)
        wrong, described = {str: (1, "a string"), int: (1.5, "an int"), float: ("1", "a number")}[kind]
        header = json.dumps({**vars(RunConfig()), name: wrong})
        with pytest.raises(TraceError) as info:
            parse_trace(header + '\n{"ev": "END"}\n')
        assert str(info.value) == f"line 1: header key {name!r} is not {described}: {wrong!r}"

    def test_save_and_load(self, toy, tmp_path):
        vocab, lexicon, ids = toy
        model = make_model(vocab, lexicon)
        result = run_baseline(model, (ids["a"], ids["b"]))
        path = tmp_path / "run.jsonl"
        result.trace.save(path)
        assert load_trace(path).serialize() == result.trace.serialize()

    def test_header_required(self):
        with pytest.raises(TraceError, match="header"):
            parse_trace('{"ev": "READ", "i": 1, "tok": "a"}\n')

    def test_counts(self, toy):
        vocab, lexicon, ids = toy
        model = make_model(vocab, lexicon)
        source = (ids["a"], ids["b"])
        result = run_speculative(model, OraclePredictor(source), source)
        trace = result.trace
        replayed = replay(trace)
        assert replayed.source_length == 2
        kinds = [Event._make(e).ev for e in trace.events]
        assert kinds.count("SPECULATE") == replayed.counts["SPECULATE"] == result.speculations == 3
        assert kinds.count("COMMIT") == replayed.counts["COMMIT"] == result.hits == 3
        assert kinds.count("WITHDRAW") == replayed.counts["WITHDRAW"] == result.withdrawals == 0


HEADER = RunConfig(policy="wait_k", param=1.0, predictor="oracle").to_json()


class TestReaderErrors:
    """Every malformed input gives a TraceError naming its 1-based line."""

    @pytest.mark.parametrize("line, message", [
        ('{"ev": "READ", "i": 1, "tok": "a"', "malformed JSON"),
        ('{"ev": "END"} {"ev": "END"}', "malformed JSON"),
        ('["READ", 1]', "not a JSON object"),
        ('"END"', "not a JSON object"),
        ('{"ev": "READ", "i": 1, "tok": "a", "extra": 0}', "unknown event key 'extra'"),
        ('{"i": 1, "tok": "a"}', "without 'ev'"),
        ('{"ev": "JUMP"}', "unknown event kind 'JUMP'"),
        ('{"ev": 7}', "'ev' is not a string"),
        ('{"ev": "READ", "i": 1, "tok": 3}', "'tok' is not a string"),
        ('{"ev": "PREDICT", "i": 1, "pred": ["a"], "p": 0.5}', "'pred' is not a string"),
        ('{"ev": "WITHDRAW", "j": 1, "old": true, "new": "B"}', "'old' is not a string"),
        ('{"ev": "WITHDRAW", "j": 1, "old": "A", "new": {}}', "'new' is not a string"),
        ('{"ev": "READ", "i": 1.0, "tok": "a"}', "'i' is not an int"),
        ('{"ev": "READ", "i": true, "tok": "a"}', "'i' is not an int"),
        ('{"ev": "COMMIT", "j": "1"}', "'j' is not an int"),
        ('{"ev": "COMMIT", "j": false}', "'j' is not an int"),
        ('{"ev": "PREDICT", "i": 1, "pred": "a", "p": "0.5"}', "'p' is not a number"),
        ('{"ev": "PREDICT", "i": 1, "pred": "a", "p": true}', "'p' is not a number"),
        # JSON ignores only spaces, tabs and line breaks around a value
        ('\x0c{"ev": "END"}', "malformed JSON"),
        ('{"ev": "END"}\xa0', "malformed JSON"),
        ('\ufeff{"ev": "END"}', "malformed JSON"),
    ], ids=[
        "truncated", "two-objects", "array", "string", "unknown-key", "no-ev", "unknown-kind", "ev-int",
        "tok-int", "pred-list", "old-bool", "new-object", "i-float", "i-bool", "j-string", "j-bool",
        "p-string", "p-bool", "form-feed", "no-break-space", "byte-order-mark",
    ])
    def test_bad_event_line_is_named(self, line, message):
        text = "\n".join([HEADER, '{"ev": "READ", "i": 1, "tok": "a"}', line, '{"ev": "END"}']) + "\n"
        with pytest.raises(TraceError, match="^line 3: ") as info:
            parse_trace(text)
        assert message in str(info.value)

    @pytest.mark.parametrize("third, fourth, message", [
        ('{"ev": "JUMP"}', '{"ev": ', "line 3: unknown event kind 'JUMP'"),
        ('{"ev": ', '{"ev": "JUMP"}', "line 3: malformed JSON"),
        ('{"ev": "READ", "i": "2"}', '{"ev": "END", "x": 0}', "line 3: event key 'i' is not an int"),
        ('{"ev": "END"}', '{"ev": "END", "x": 0}', "line 4: unknown event key 'x'"),
        ('{"ev": "END"}', "[", "line 4: malformed JSON"),
    ], ids=["kind-then-json", "json-then-kind", "type-then-key", "good-then-key", "good-then-json"])
    def test_the_first_bad_line_is_named(self, third, fourth, message):
        text = "\n".join([HEADER, '{"ev": "READ", "i": 1, "tok": "a"}', third, fourth, '{"ev": "END"}']) + "\n"
        with pytest.raises(TraceError) as info:
            parse_trace(text)
        assert str(info.value).startswith(message)

    @pytest.mark.parametrize("header, message", [
        ("[]", "header is not a JSON object"),
        ('{"policy": "wait_k", "colour": "red"}', "unknown header key 'colour'"),
        ('{"policy": 1}', "'policy' is not a string"),
        ('{"param": "1"}', "'param' is not a number"),
        ('{"sentence_index": 1.5}', "'sentence_index' is not an int"),
        ("{", "malformed JSON"),
    ], ids=["array", "unknown-key", "policy-int", "param-string", "index-float", "truncated"])
    def test_bad_header_is_named(self, header, message):
        with pytest.raises(TraceError, match="^line 2: ") as info:
            parse_trace("\n" + header + '\n{"ev": "END"}\n')
        assert message in str(info.value)

    def test_empty_text(self):
        for text in ("", "\n", "  \n\t\n"):
            with pytest.raises(TraceError, match="^line 1: empty trace file"):
                parse_trace(text)

    def test_deep_nesting_is_a_trace_error(self):
        with pytest.raises(TraceError, match="^line 2: malformed JSON"):
            parse_trace(HEADER + "\n" + "[" * 100_000 + "\n")

    def test_lines_that_are_not_one_object_each_are_rejected(self):
        # As a JSON array these lines parse to two well-formed events, one per
        # line; read one line at a time, neither line is an object.
        text = HEADER + '\n{"ev": "END"}, {"ev": "READ"\n"i": 1}\n'
        with pytest.raises(TraceError, match="^line 2: malformed JSON"):
            parse_trace(text)
        # A string cannot hide a line break either.
        text = HEADER + '\n{"ev": "}\n{"}\n{"ev": "END"}, {"ev": "END"}\n'
        with pytest.raises(TraceError, match="^line 2: malformed JSON"):
            parse_trace(text)

    def test_load_trace_names_the_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(HEADER + '\n{"ev": "READ", "i": "1"}\n', encoding="utf-8")
        with pytest.raises(TraceError, match=r"bad\.jsonl: line 2: event key 'i' is not an int"):
            load_trace(path)
        path.write_bytes(b"\xff\n")
        with pytest.raises(TraceError, match=r"bad\.jsonl: not UTF-8"):
            load_trace(path)


class TestReaderLayouts:
    def test_blank_lines_and_crlf_are_accepted(self, monkeypatch):
        import specmt.trace as trace_module

        trace = _trace(ev("READ", i=1, tok="a"), ev("END"), config=RunConfig(policy="wait_k"))
        text = trace.serialize()
        assert parse_trace("".join(f" \t{line}\r \n" for line in text.split("\n")[:-1])) == trace
        calls = []
        real_loads = trace_module.json.loads
        monkeypatch.setattr(trace_module.json, "loads", lambda s: calls.append(s) or real_loads(s))
        # each text fails the layout check before any parse, then is parsed once in the writer's layout
        assert parse_trace("\n" + text.replace("\n", "\r\n\n")) == trace
        assert calls == [f"[{text[:-1]}]".replace("}\n", "},\n")]
        assert parse_trace(text.rstrip("\n")) == trace
        assert len(calls) == 2

    def test_null_fields_are_absent_fields(self):
        trace = parse_trace('{"policy": null}\n{"ev": "COMMIT", "i": null, "j": 2}\n')
        assert trace == _trace(ev("COMMIT", j=2))

    def test_line_separators_inside_strings_stay_in_the_string(self):
        trace = _trace(ev("READ", i=1, tok="a b\x85c\x0bd"), ev("END"))
        assert parse_trace(trace.serialize()) == trace

    def test_one_json_loads_per_file(self, toy, monkeypatch):
        import specmt.trace as trace_module

        vocab, lexicon, ids = toy
        model = make_model(vocab, lexicon, PolicyConfig.wait_k(2))
        source = (ids["b"], ids["c"], ids["a"], ids["d"])
        text = run_speculative(model, OraclePredictor(source), source).trace.serialize()
        calls = []
        real_loads = trace_module.json.loads
        monkeypatch.setattr(trace_module.json, "loads", lambda s: calls.append(s) or real_loads(s))
        parsed = parse_trace(text)
        assert len(calls) == 1
        assert len(parsed.events) == text.count("\n") - 1

    def test_writer_does_not_call_json_dumps_for_strings(self, monkeypatch):
        import specmt.trace as trace_module

        def refuse(*args, **kwargs):
            raise AssertionError("json.dumps called")

        monkeypatch.setattr(trace_module.json, "dumps", refuse)
        event = Event("WITHDRAW", j=3, old="x\"\\y", new="<phi>")
        assert event_json(event) == '{"ev": "WITHDRAW", "j": 3, "old": "x\\"\\\\y", "new": "<phi>"}'
        trace = _trace(ev("PREDICT", i=1, pred="é", p=0.25), event, config=RunConfig(corpus="cé"))
        assert trace.serialize().count("\n") == 3


class TestWriter:
    def test_mistyped_values_keep_json_dumps_spelling(self):
        for event in (
            Event("READ", i=1, tok="1"), Event("READ", i=True, tok=1), Event("READ", i=1.0, tok=True),
            Event("READ", i=1, tok=1.0), Event("PREDICT", pred=None, p=True), Event(None, j="2"),
            Event("WITHDRAW", i=-3, j=2 ** 70, tok="é\n", pred="\"", p=float("nan"), old="<phi>", new="</s>"),
        ):
            expected = dumps_event_json(event)
            assert event_json(event) == expected
            # the shared-table path spells a fresh dict's line through the same encoder
            lines: dict[tuple, str] = {}
            assert _trace(event).serialize(lines).split("\n")[1] == expected
            assert lines == {event: expected + "\n"}
        for config in (
            RunConfig(param=True, tau=False, seed=True), RunConfig(policy=None, param=None, corpus=None),
            RunConfig(param="0.5", seed="7"), RunConfig(policy=3, predictor=-1),
            RunConfig(param=float("nan"), tau=float("inf"), seed=-float("inf")),
        ):
            assert config.to_json() == dumps_run_config_json(config)


class TestCounts:
    def test_kind_counts(self):
        trace = _trace(
            ev("READ", i=1, tok="a"), ev("SPECULATE", j=1, tok="A", i=1), ev("READ", i=2, tok="b"),
            ev("WITHDRAW", j=1, old="A", new="B"), ev("END"),
        )
        assert trace.kind_counts() == {"READ": 2, "SPECULATE": 1, "WITHDRAW": 1, "END": 1}


class TestPlainTuples:
    """Every event the engine and the reader build is a plain tuple in
    `Event` field order; `Event._make` names its fields."""

    @staticmethod
    def _runs(toy):
        vocab, lexicon, ids = toy
        source = (ids["a"], ids["b"], ids["c"], ids["d"])
        bigram = train_ngram([vocab.encode(line) for line in ("a b c d", "b c a", "d d b c")], 2, vocabulary=vocab)
        predictors = (OraclePredictor(source), bigram, AlwaysWrongPredictor(source, vocab, lexicon.default))
        for policy in (PolicyConfig.wait_k(1), PolicyConfig.wait_k(2), PolicyConfig.adaptive(0.5)):
            model = make_model(vocab, lexicon, policy)
            yield run_baseline(model, source)
            for predictor in predictors:
                yield run_speculative(model, predictor, source)

    def test_engine_and_reader_build_plain_tuples(self, toy):
        kinds = set()
        for result in self._runs(toy):
            text = result.trace.serialize()
            # the writer's layout, the CRLF layout, and a shared cache of parsed lines
            known: dict[str, tuple] = {}
            parsed = [parse_trace(text), parse_trace(text.replace("\n", "\r\n")), parse_trace(text, known),
                      parse_trace(text, known)]
            for trace in (result.trace, *parsed):
                assert trace.events
                for event in trace.events:
                    assert type(event) is tuple and event == Event(*event)
                    kinds.add(Event._make(event).ev)
            assert all(trace == result.trace for trace in parsed)
        assert kinds == {"READ", "PREDICT", "SPECULATE", "COMMIT", "WITHDRAW", "WRITE", "END"}

    def test_a_kind_absent_from_the_trace_counts_zero(self, toy):
        for result in self._runs(toy):
            replayed = replay(result.trace)
            assert replayed.counts == result.trace.kind_counts()
            row, _ = score_run(result.trace)
            for kind, column in (("WITHDRAW", "W"), ("SPECULATE", "S"), ("COMMIT", "H")):
                assert row[column] == replayed.counts[kind] == [e[0] for e in result.trace.events].count(kind)
