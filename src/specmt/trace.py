"""Event traces of engine runs and the output snapshot matrix derived from them.

A trace is the complete, ordered record of one translation run: source reads,
predictions, speculative writes, commits, withdrawals, and plain writes.
Every metric in this package is computed from traces (directly or through the
snapshot matrix), never from engine internals, so a trace file is sufficient
to reproduce any reported number.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from .vocab import EOS_SURFACE, PHI_SURFACE, write_artifact

READ = "READ"
PREDICT = "PREDICT"
SPECULATE = "SPECULATE"
COMMIT = "COMMIT"
WITHDRAW = "WITHDRAW"
WRITE = "WRITE"
END = "END"


class TraceError(ValueError):
    pass


@dataclass(frozen=True)
class Event:
    """One trace record.

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

    def to_json(self) -> str:
        payload: dict[str, object] = {"ev": self.ev}
        for key in ("i", "j", "tok", "pred", "p", "old", "new"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        return json.dumps(payload, ensure_ascii=False)


@dataclass(frozen=True)
class RunConfig:
    """Identifying metadata for one run; serialized in the trace header.

    The engine mode is deliberately not part of the header: sequential and
    concurrent executions of the same run must produce identical files.
    """

    policy: str = "none"
    param: float = 0.0
    tau: float = 0.0
    predictor: str = "none"
    corpus: str = "none"
    seed: int = 0
    sentence_index: int = 0

    def to_json(self) -> str:
        payload = {
            "policy": self.policy,
            "param": self.param,
            "tau": self.tau,
            "predictor": self.predictor,
            "corpus": self.corpus,
            "seed": self.seed,
            "sentence_index": self.sentence_index,
        }
        return json.dumps(payload, ensure_ascii=False)


@dataclass(frozen=True)
class EventTrace:
    events: tuple[Event, ...]
    run_config: RunConfig = field(default_factory=RunConfig)

    def withdraw_count(self) -> int:
        return sum(1 for e in self.events if e.ev == WITHDRAW)

    def speculate_count(self) -> int:
        return sum(1 for e in self.events if e.ev == SPECULATE)

    def commit_count(self) -> int:
        return sum(1 for e in self.events if e.ev == COMMIT)

    def read_count(self) -> int:
        """Number of real source tokens read (the EOS arrival is not counted)."""
        return sum(1 for e in self.events if e.ev == READ and e.tok != EOS_SURFACE)

    def serialize(self) -> str:
        lines = [self.run_config.to_json()]
        lines.extend(e.to_json() for e in self.events)
        return "".join(line + "\n" for line in lines)

    def save(self, path: str | Path) -> None:
        write_artifact(path, self.serialize())


def parse_trace(text: str) -> EventTrace:
    """Parse the JSON Lines trace format (header object, then one event per line)."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise TraceError("empty trace file")
    header = json.loads(lines[0])
    if "ev" in header:
        raise TraceError("missing header line")
    config = RunConfig(
        policy=header.get("policy", "none"),
        param=header.get("param", 0.0),
        tau=header.get("tau", 0.0),
        predictor=header.get("predictor", "none"),
        corpus=header.get("corpus", "none"),
        seed=header.get("seed", 0),
        sentence_index=header.get("sentence_index", 0),
    )
    events = []
    for line in lines[1:]:
        obj = json.loads(line)
        try:
            ev = obj.pop("ev")
            events.append(Event(ev=ev, **obj))
        except (KeyError, TypeError):
            raise TraceError(f"malformed event line: {line!r}") from None
    return EventTrace(events=tuple(events), run_config=config)


def load_trace(path: str | Path) -> EventTrace:
    return parse_trace(Path(path).read_text(encoding="utf-8"))


@dataclass(frozen=True)
class SnapshotMatrix:
    """Committed output prefixes, one row per source read.

    Row i (1-based) is the visible, PHI-free output in force after source
    token i was fully processed, including speculative writes issued before
    token i+1 arrived. The last row is the final output.
    """

    rows: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise TraceError("snapshot matrix needs at least one row")

    @property
    def source_length(self) -> int:
        return len(self.rows)

    @property
    def final(self) -> tuple[str, ...]:
        return self.rows[-1]


def snapshot_from_trace(trace: EventTrace) -> SnapshotMatrix:
    """Replay a trace into its snapshot matrix.

    Replay rules: WRITE and SPECULATE of a real token append it to the visible
    output; PHI and EOS decisions are invisible. A WITHDRAW removes the
    speculated trailing token (when it was visible) and appends the corrected
    one (when that is visible). A row closes when the next real source token
    arrives; the EOS arrival closes nothing, so the write-only tail lands in
    the last row. Raises TraceError for traces that violate the speculation
    protocol ("inconsistent trace").
    """
    rows: list[tuple[str, ...]] = []
    visible: list[str] = []
    pending: tuple[int, str] | None = None  # (slot, decision) awaiting resolution
    committed_slots: set[int] = set()
    last_read = 0
    reads = 0
    ended = False

    for event in trace.events:
        if ended:
            raise TraceError("inconsistent trace: events after END")
        if event.ev == READ:
            if event.i is None or event.i <= last_read:
                raise TraceError("inconsistent trace: READ indices not increasing")
            last_read = event.i
            if event.tok != EOS_SURFACE:
                if reads > 0:
                    rows.append(tuple(visible))
                reads += 1
        elif event.ev in (WRITE, SPECULATE):
            if event.tok is None:
                raise TraceError(f"inconsistent trace: {event.ev} without token")
            if event.ev == SPECULATE:
                if pending is not None:
                    raise TraceError("inconsistent trace: nested speculation")
                pending = (event.j or 0, event.tok)
            if event.tok not in (PHI_SURFACE, EOS_SURFACE):
                visible.append(event.tok)
        elif event.ev == COMMIT:
            if pending is None or pending[0] != event.j:
                raise TraceError("inconsistent trace: COMMIT without speculation")
            committed_slots.add(pending[0])
            pending = None
        elif event.ev == WITHDRAW:
            if event.j in committed_slots:
                raise TraceError("inconsistent trace: WITHDRAW after COMMIT")
            if pending is None or pending[0] != event.j:
                raise TraceError("inconsistent trace: WITHDRAW without speculation")
            slot, old = pending
            if old != event.old:
                raise TraceError("inconsistent trace: withdrawn token mismatch")
            if old not in (PHI_SURFACE, EOS_SURFACE):
                if not visible or visible[-1] != old:
                    raise TraceError("inconsistent trace: withdrawn token not trailing")
                visible.pop()
            if event.new is not None and event.new not in (PHI_SURFACE, EOS_SURFACE):
                visible.append(event.new)
            pending = None
        elif event.ev == PREDICT:
            pass
        elif event.ev == END:
            ended = True
        else:
            raise TraceError(f"inconsistent trace: unknown event {event.ev!r}")

    if not ended:
        raise TraceError("inconsistent trace: missing END")
    if reads == 0:
        raise TraceError("inconsistent trace: no source reads")
    rows.append(tuple(visible))
    return SnapshotMatrix(rows=tuple(rows))
