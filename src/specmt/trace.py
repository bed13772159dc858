"""Event traces of engine runs, and their replay into final output and delays.

A trace is the complete, ordered record of one translation run: source reads,
predictions, speculative writes, commits, withdrawals, and plain writes.
Every metric in this package is computed from a trace's `replay`, never from
engine internals, so a trace file is sufficient to reproduce any reported
number.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, filterfalse, repeat
from json.encoder import encode_basestring
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple, get_args, get_type_hints

from .vocab import EOS_SURFACE, PHI_SURFACE, SpecmtError, read_text, write_artifact

READ = "READ"
PREDICT = "PREDICT"
SPECULATE = "SPECULATE"
COMMIT = "COMMIT"
WITHDRAW = "WITHDRAW"
WRITE = "WRITE"
END = "END"
EVENT_KINDS = frozenset((READ, PREDICT, SPECULATE, COMMIT, WITHDRAW, WRITE, END))
_INVISIBLE = frozenset((PHI_SURFACE, EOS_SURFACE))  # the decisions that write no token


class TraceError(SpecmtError, ValueError):
    pass


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}  # json.dumps spellings


def _value(value: object) -> str:
    """`json.dumps(value, ensure_ascii=False)`, without its per-call set-up
    for a str (`encode_basestring` is the encoder it uses then), an int or a
    float."""
    if type(value) is str:
        return encode_basestring(value)
    if type(value) is int:
        return repr(value)
    if type(value) is float:
        text = repr(value)
        return _NON_FINITE.get(text, text)
    return json.dumps(value, ensure_ascii=False)


class Event(NamedTuple):
    """The fields of one trace record. In memory an event is a plain 8-tuple in
    this order; `Event._make(event)` names its fields, and `Event(...)` builds
    one by keyword that compares, hashes and serializes as that tuple does.

    Field use by kind:
      READ(i, tok)                  source token number i arrived (tok may be EOS)
      PREDICT(i, pred, p)           predictor guessed token i before it arrived
      SPECULATE(j, tok, i=basis)    output slot j written from a predicted source
                                    token on top of i real tokens; tok may be PHI
                                    (a speculated read decision) or EOS
      COMMIT(j)                     the speculation at slot j matched reality
      WITHDRAW(j, old, new)         the speculation at slot j was wrong; old
                                    decision replaced by new (either may be PHI)
      WRITE(j, tok, i=basis)        non-speculative decision for slot j after
                                    reading i stream items; tok may be PHI or EOS
      END                           run finished
    """

    ev: str
    i: int | None = None
    j: int | None = None
    tok: str | None = None
    pred: str | None = None
    p: float | None = None
    old: str | None = None
    new: str | None = None


_EVENT_KEYS = tuple(f', "{key}": ' for key in Event._fields[1:])  # what precedes each field after "ev"


def _event_line(event: tuple) -> str:
    """One event's JSON line, its newline included: "ev", then each other
    field that is not None, keys in `Event`'s field order."""
    parts = ['{"ev": ', _value(event[0])]
    for key, value in zip(_EVENT_KEYS, event[1:]):
        if value is not None:
            parts += (key, _value(value))
    return "".join(parts) + "}\n"


@dataclass(frozen=True)
class RunConfig:
    """Identifying metadata for one run; serialized in the trace header."""

    policy: str = "none"
    param: float = 0.0
    tau: float = 0.0
    predictor: str = "none"
    corpus: str = "none"
    seed: int = 0
    sentence_index: int = 0

    def to_json(self) -> str:
        """The header line, keys in field order."""
        return "{" + ", ".join(f'"{key}": {_value(value)}' for key, value in vars(self).items()) + "}"


@dataclass(frozen=True)
class EventTrace:
    events: tuple[tuple, ...]  # each in `Event` field order
    run_config: RunConfig = field(default_factory=RunConfig)

    def kind_counts(self) -> Counter[str]:
        """Number of events of each kind, in one pass."""
        return Counter(map(itemgetter(0), self.events))

    def serialize(self, lines: dict[tuple, str] | None = None) -> str:
        """The JSON Lines file: the header, then one line per event from
        `_event_line`, byte-identical to `json.dumps` of each line.

        `lines`, when given, maps each event already encoded to its line, and
        gains the events of this trace it lacks, so a writer that passes one
        dict to many traces encodes each distinct event once. Only
        `run_experiment` shares one, and only within one call: equal tuples
        can hold unequal JSON (`1 == 1.0 == True`, `0.0 == -0.0`), so a dict
        shared across arbitrary traces could give an event another event's
        bytes. A sweep's engine events cannot hit this, because their
        indices are ints and their probabilities are its predictors' floats.
        """
        if lines is None:
            return "".join([self.run_config.to_json(), "\n", *map(_event_line, self.events)])
        for event in filterfalse(lines.__contains__, self.events):
            lines[event] = _event_line(event)
        return "".join([self.run_config.to_json(), "\n", *map(lines.__getitem__, self.events)])

    def save(self, path: str | Path, lines: dict[tuple, str] | None = None) -> None:
        """Write `serialize(lines)` as a new file at `path`."""
        write_artifact(path, self.serialize(lines))


def _key_types(cls: type) -> dict[str, tuple[type, ...]]:
    """The types of each key, from the annotations of `cls` in field order:
    `X | None` means X, and a float field also takes an int."""
    kinds = {key: (get_args(hint) or (hint,))[0] for key, hint in get_type_hints(cls).items()}
    return {key: (int, float) if kind is float else (kind,) for key, kind in kinds.items()}


_HEADER_TYPES = _key_types(RunConfig)
_EVENT_TYPES = _key_types(Event)  # any header or event key may also be null
_TYPE_NAMES = {(str,): "a string", (int,): "an int", (int, float): "a number"}
_EVENT_COLUMNS = tuple((key, frozenset((*types, type(None)))) for key, types in _EVENT_TYPES.items())


def _field_problem(obj: dict, types: dict[str, tuple[type, ...]], what: str) -> str | None:
    for key, value in obj.items():
        allowed = types.get(key)
        if allowed is None:
            return f"unknown {what} key {key!r}"
        if value is not None and type(value) not in allowed:
            return f"{what} key {key!r} is not {_TYPE_NAMES[allowed]}: {value!r}"
    return None


def _run_config(obj: object) -> RunConfig:
    if type(obj) is not dict:
        raise TraceError("header is not a JSON object")
    if "ev" in obj:
        raise TraceError("missing header line")
    problem = _field_problem(obj, _HEADER_TYPES, "header")
    if problem is not None:
        raise TraceError(problem)
    return RunConfig(**{key: value for key, value in obj.items() if value is not None})


def _events(items: list) -> list[tuple] | None:
    """The event tuple of each parsed JSON value, or None when any of them
    is not a valid event. The values are checked a field at a time, not one
    at a time: all are objects, no key is outside `_EVENT_TYPES`, each
    field's column holds only its types and null, and every kind is known."""
    if not set(map(type, items)) <= {dict} or not _EVENT_TYPES.keys() >= set().union(*items):
        return None
    columns = []
    for key, allowed in _EVENT_COLUMNS:
        column = list(map(dict.get, items, repeat(key)))
        if not set(map(type, column)) <= allowed:
            return None
        columns.append(column)
    if not set(columns[0]) <= EVENT_KINDS:  # a missing or null "ev" reads None
        return None
    return list(zip(*columns))


def _event_problem(obj: object) -> str:
    """What is wrong with a parsed JSON value that `_events([obj])` rejects."""
    if type(obj) is not dict:
        return "event is not a JSON object"
    problem = _field_problem(obj, _EVENT_TYPES, "event")
    if problem is not None:
        return problem
    if "ev" not in obj:
        return "event without 'ev'"
    return f"unknown event kind {obj['ev']!r}"


def _parse_whole(text: str, known: dict[str, tuple]) -> EventTrace | None:
    """The trace of a text in the writer's exact layout, from one
    `json.loads` over the header and the event lines not in `known`, as an
    array, or None when the layout differs or anything in it is wrong. It
    is the only code that builds an EventTrace from text.

    `known` maps the exact text of an event line to its checked event. The
    lines not in it are parsed (a line that repeats within this text at
    each repetition, which engine traces seldom hold), checked together by
    `_events` a field at a time, and go into `known` only once every item
    has passed.

    The layout check makes the array's items the lines joined, in two
    passes: the text starts with "{" and ends with "}" and a line feed, and
    there are as many "}\n{" as line breaks between its rows, so every
    line feed sits between "}" and "{" and no line is blank. A raw newline
    cannot sit inside a JSON string, so an object spanning two lines would
    need a nested container, which no header or event field can hold; as
    many items as lines then means one object per line.
    """
    if text[:1] != "{" or text[-2:] != "}\n":
        return None
    rows = text[:-1].split("\n")
    if text.count("}\n{") != len(rows) - 1:
        return None
    new = list(filterfalse(known.__contains__, rows[1:]))
    try:
        items = json.loads("[" + ",\n".join([rows[0], *new]) + "]")
    except (ValueError, RecursionError):
        return None
    if len(items) != len(new) + 1:
        return None
    try:
        config = _run_config(items[0])
    except TraceError:
        return None
    events = _events(items[1:])
    if events is None:
        return None
    known.update(zip(new, events))
    return EventTrace(events=tuple(map(known.__getitem__, rows[1:])), run_config=config)


def parse_trace(text: str, known: dict[str, tuple] | None = None) -> EventTrace:
    """Parse the JSON Lines trace format (header object, then one event per line).

    Only `_parse_whole` accepts a trace: first the text as it is, so a file
    in the writer's layout costs one `json.loads` call; then, once, the text
    in that layout, with blank lines dropped and each kept line stripped of
    the spaces, tabs and carriage returns that JSON ignores around a value
    (no other character) and ended by a line feed. Only a line feed ends a
    line. A text both tries reject is read line by line, each line parsed
    alone, only to raise the TraceError naming the first bad 1-based line.

    Callers that parse many traces pass one `known` dict to all of them:
    `metrics_from_traces` makes one per call, so `metrics` parses and checks
    each distinct event line once per call. Every trace accepted and every
    error is the same as without the dict.
    """
    known = {} if known is None else known
    trace = _parse_whole(text, known)
    if trace is None:
        kept = (line.strip(" \t\r") + "\n" for line in text.split("\n") if line.strip())
        trace = _parse_whole("".join(kept), known)
    if trace is not None:
        return trace
    header = True  # the first line that is not blank is the header
    for lineno, line in enumerate(text.split("\n"), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if header:
                _run_config(obj)
                header = False
            elif _events([obj]) is None:
                raise TraceError(_event_problem(obj))
        except json.JSONDecodeError as exc:
            raise TraceError(f"line {lineno}: malformed JSON: {exc.msg} at column {exc.colno}") from None
        except TraceError as exc:  # before ValueError, its base
            raise TraceError(f"line {lineno}: {exc}") from None
        except (ValueError, RecursionError) as exc:
            raise TraceError(f"line {lineno}: malformed JSON: {exc}") from None
    raise TraceError("line 1: empty trace file, no header")  # no line is bad, so none is a header


def load_trace(path: str | Path, known: dict[str, tuple] | None = None) -> EventTrace:
    text = read_text(path, TraceError)
    try:
        return parse_trace(text, known)
    except TraceError as exc:
        raise TraceError(f"{path}: {exc}") from None


class Replay(NamedTuple):
    """What a trace replays to."""

    final: tuple[str, ...]  # the visible output at the end
    delays: tuple[int, ...]  # the finalization delay of each position of `final`
    source_length: int  # real source tokens read (the EOS arrival is not counted)
    counts: Counter[str]  # events of each kind, equal to `EventTrace.kind_counts` (an absent kind reads 0)
    predicted: int  # real source tokens that arrived as the last PREDICT of their index guessed


def replay(trace: EventTrace) -> Replay:
    """Replay a trace, in one pass over its events, into its `Replay`.

    The delays are defined by the snapshot matrix: row i is the visible output
    in force after real source token i was processed, speculative writes
    issued before token i+1 arrived included, and the last row is the final
    output. The delay of position j is the smallest row i such that every row
    from i onward agrees with the final output on every position up to j (a
    row too short to hold a position disagrees at it). Replay builds no rows.
    Next to the visible output it keeps, for each position, the row since
    which the position has held its token: a pushed token gets the open row,
    unless this row popped the same token from the same position, in which
    case it gets back the row it had then, so a token withdrawn and written
    again inside one row is no change. A row close only forgets this row's
    pops. The delays are the running maximum of those rows.

    Replay rules: WRITE and SPECULATE of a real token append it to the visible
    output; PHI and EOS decisions are invisible. A WITHDRAW removes the
    speculated trailing token (when it was visible) and appends the corrected
    one (when that is visible). A row closes when the next real source token
    arrives; the EOS arrival closes nothing, so the write-only tail lands in
    the last row. A real READ(i, tok) is predicted when the last PREDICT(i,
    pred) before it has pred == tok. Raises TraceError for traces that
    violate the speculation protocol ("inconsistent trace"): a READ needs its
    index and token and no end-of-source READ before it, a PREDICT its index
    and guess, a SPECULATE its slot and a WITHDRAW its corrected token, and
    every SPECULATE must be resolved by exactly one COMMIT or WITHDRAW before
    END, so a trace that replays has speculations = hits + withdrawals.
    """
    visible: list[str] = []
    since: list[int] = []  # since[p]: the row since which position p has held visible[p]
    popped: dict[tuple[int, str], int] = {}  # (position, token) -> its `since`, for each pop in the open row
    row = 1  # the open row: max(reads, 1)
    pending: tuple[int, str] | None = None  # (slot, decision) awaiting resolution
    committed_slots: set[int] = set()
    last_read = 0
    reads = 0
    guesses: dict[int, str | None] = {}  # the guess of the last PREDICT of each source index
    predicted = predicts = commits = withdrawals = 0
    source_ended = False

    # kinds are tested most frequent first
    events = iter(trace.events)
    for event in events:
        kind = event[0]
        if kind == WRITE:
            tok = event[3]
            if tok is None:
                raise TraceError("inconsistent trace: WRITE without token")
            if tok not in _INVISIBLE:
                since.append(popped.get((len(visible), tok), row) if popped else row)
                visible.append(tok)
        elif kind == READ:
            i, tok = event[1], event[3]
            if i is None or i <= last_read:
                raise TraceError("inconsistent trace: READ indices not increasing")
            last_read = i
            if tok is None:
                raise TraceError("inconsistent trace: READ without token")
            if source_ended:
                raise TraceError("inconsistent trace: READ after end of source")
            source_ended = tok == EOS_SURFACE
            if not source_ended:  # the first real READ closes no row, but its row is row 1 too
                reads = row = reads + 1
                predicted += guesses.get(i) == tok
                popped.clear()
        elif kind == PREDICT:
            if event[1] is None or event[4] is None:
                raise TraceError("inconsistent trace: PREDICT without index or guess")
            guesses[event[1]] = event[4]
            predicts += 1
        elif kind == SPECULATE:
            j, tok = event[2], event[3]
            if tok is None:
                raise TraceError("inconsistent trace: SPECULATE without token")
            if j is None:
                raise TraceError("inconsistent trace: SPECULATE without slot")
            if pending is not None:
                raise TraceError("inconsistent trace: nested speculation")
            pending = (j, tok)
            if tok not in _INVISIBLE:
                since.append(popped.get((len(visible), tok), row) if popped else row)
                visible.append(tok)
        elif kind == COMMIT:
            if pending is None or pending[0] != event[2]:
                raise TraceError("inconsistent trace: COMMIT without speculation")
            committed_slots.add(event[2])
            commits += 1
            pending = None
        elif kind == WITHDRAW:
            j, old, new = event[2], event[6], event[7]
            if j in committed_slots:
                raise TraceError("inconsistent trace: WITHDRAW after COMMIT")
            if pending is None or pending[0] != j:
                raise TraceError("inconsistent trace: WITHDRAW without speculation")
            if pending[1] != old:
                raise TraceError("inconsistent trace: withdrawn token mismatch")
            if new is None:
                raise TraceError("inconsistent trace: WITHDRAW without corrected token")
            if old not in _INVISIBLE:
                if not visible or visible[-1] != old:
                    raise TraceError("inconsistent trace: withdrawn token not trailing")
                visible.pop()
                popped[len(visible), old] = since.pop()
            if new not in _INVISIBLE:
                since.append(popped.get((len(visible), new), row) if popped else row)
                visible.append(new)
            pending = None
            withdrawals += 1
        elif kind == END:
            if pending is not None:
                raise TraceError(f"inconsistent trace: speculation at slot {pending[0]} unresolved at END")
            break
        else:
            raise TraceError(f"inconsistent trace: unknown event {kind!r}")
    else:
        raise TraceError("inconsistent trace: missing END")
    if next(events, None) is not None:
        raise TraceError("inconsistent trace: events after END")
    if reads == 0:
        raise TraceError("inconsistent trace: no source reads")
    # every SPECULATE was resolved once and one END closed the run, so every other event is a WRITE
    speculations = commits + withdrawals
    counts: Counter[str] = Counter.__new__(Counter)
    dict.update(counts, ((READ, reads + source_ended), (PREDICT, predicts), (SPECULATE, speculations),
                         (COMMIT, commits), (WITHDRAW, withdrawals), (END, 1),
                         (WRITE, len(trace.events) - reads - source_ended - predicts - 2 * speculations - 1)))
    return Replay(tuple(visible), tuple(accumulate(since, max)), reads, counts, predicted)
