"""Burst collection over recorded runs.

"The field" here is a trace file of complete runs, each split into user
operations with concrete pre/post states.  ``collect`` turns segments into
bursts: the operation's events bracketed by the T/F/U strings of its
recorded concrete states, and the AF list's ``af_hash``.  Per call, it
builds one burst per distinct segment object and abstracts each distinct
state object once, so a load's shared segments cost their distinct count.
The controlled collector draws one uniform sample per operation (run order,
then segment order, one shared seeded stream, see ``draw``) and collects the
segments whose draw succeeds.

Field runs keep repeating the same few operations from the same states: in
the seed-0 ``pipeline`` benchmark corpus, 185 of 1,440 segment lines, 36 of
1,440 event lists, 112 of 71,564 events and 84 of 2,880 state snapshots are
distinct.  So a load of a trace or burst file reads its byte lines through
``schema.Lines`` and keeps a table from each segment or burst line's bytes
to the one ``OperationSegment`` or ``Burst`` built from it: a repeated line
appends that object again and is never decoded.
A new line is walked with ``json.JSONDecoder().raw_decode`` (``_Reader``),
through per-load tables from an event list's, an event's or a state's source
text to the one trace, ``MethodCall`` or ``ConcreteState`` built from it,
checked once; a command that loads a model and runs passes both loads one
``EventTable``.  The walker splits an event list at each ``}``, ``,``, ``{``
with only JSON whitespace between them, so it reads every layout a JSON
writer may choose; a list whose pieces are not each one complete object goes
through the parsed reader (``_record``).  A record's key and its colon,
and what ends each member, are one regex match each; a string member is
decoded and type-tested in place.
Writing turns this round: each event writer, here and in ``model``, writes
through one ``schema.JsonText``, which encodes each distinct event, and
joins each trace object's events, once per write; ``dumps_runs`` also
encodes each distinct state object once, and ``dumps_bursts`` writes each
distinct burst object's line once.  Nothing outlives one
load, one write or one ``collect`` call, nor one command's loads.

The uncontrolled baseline draws at operation starts only while idle and then
records a fixed number of consecutive events regardless of operation
boundaries, stopping early only at the end of the run.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from functools import cached_property

from .functions import AbstractionFunction, af_list_hash
from .schema import (ANY, LINE_BUFFER, LIST, SCALAR, STRING, TFU, JsonText,
                     Lines, ListOf, Record, check)
from .states import STATE, ConcreteState, StateError, abstract_state

SRT_CATEGORIES = ("Instantaneous", "Immediate", "Continuous", "Captive")


class TraceSchemaError(ValueError):
    def __init__(self, message: str, record: int | None = None) -> None:
        prefix = f"record {record}: " if record is not None else ""
        super().__init__(prefix + message)
        self.record = record


@dataclass(frozen=True)
class MethodCall:
    """One event.  Two events are equal when they are written alike:
    params ``1``, ``true`` and ``1.0``, or ``-0.0`` and ``0.0``, tell events
    apart, as the ``repr`` of the params does."""

    method: str
    class_name: str
    params: tuple = ()

    def __post_init__(self) -> None:
        self.__dict__["_key"] = self.method, self.class_name, repr(self.params)

    def __eq__(self, other) -> bool:
        if other.__class__ is not MethodCall:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def to_dict(self) -> dict:
        return {"method": self.method, "class": self.class_name,
                "params": list(self.params)}

    def __str__(self) -> str:
        args = ", ".join(repr(p) for p in self.params)
        return f"{self.class_name}.{self.method}({args})"


Trace = tuple[MethodCall, ...]

EVENT = Record({"method": STRING, "class": STRING}, {"params": ListOf(SCALAR)})


def _event_key(e) -> tuple:
    return e["method"], e["class"], repr(e.get("params", []))


class EventTable(dict):
    """One ``MethodCall`` per distinct event of one load, keyed by method, class
    and the ``repr`` of the params (``[]`` if absent), which tells ``1``,
    ``true``, ``1.0``, ``"1"``, ``-0.0``, ``0.0`` and ``null`` apart.  A miss,
    as when the key cannot be formed, checks and builds the event."""

    def event(self, e, error) -> MethodCall:
        """The decoded event's ``MethodCall``; a malformed one raises
        ``error(message)``."""
        try:
            return self[_event_key(e)]
        except (KeyError, TypeError):
            check(e, EVENT, "event", error)
            call = self[_event_key(e)] = MethodCall(
                e["method"], e["class"], tuple(e.get("params", ())))
            return call

    def trace(self, events: list, error) -> Trace:
        """The events as a trace; a malformed one raises ``error(message)``."""
        return tuple([self.event(e, error) for e in events])


@dataclass(frozen=True)
class OperationSegment:
    label: str
    events: Trace
    pre_state: ConcreteState
    post_state: ConcreteState
    srt_category: str = "Instantaneous"

    def __post_init__(self) -> None:
        if self.srt_category not in SRT_CATEGORIES:
            raise TraceSchemaError(
                f"srt_category {self.srt_category!r} not in {SRT_CATEGORIES}")


@dataclass(frozen=True)
class Run:
    run_id: str
    segments: tuple[OperationSegment, ...] = ()

    @cached_property
    def total_events(self) -> int:
        return sum(len(s.events) for s in self.segments)


@dataclass(frozen=True)
class Burst:
    """One operation's events between its abstract pre and post states,
    both T/F/U strings over the AF list that ``af_hash`` names."""

    label: str
    pre: str
    trace: Trace
    post: str
    af_hash: str


@dataclass(frozen=True)
class SamplerConfig:
    probability: float
    rng_seed: int = 0
    mode: str = "cbr"
    fixed_length: int = 30

    def __post_init__(self) -> None:
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.mode not in ("cbr", "fixed_length"):
            raise ValueError(f"unknown sampler mode {self.mode!r}")
        if self.mode == "fixed_length" and self.fixed_length <= 0:
            raise ValueError("fixed_length must be positive")

    def to_dict(self) -> dict:
        return {"probability": self.probability, "rng_seed": self.rng_seed,
                "mode": self.mode, "fixed_length": self.fixed_length}


# ---------------------------------------------------------------------------
# Trace files (JSONL: {"run": id} lines open runs, {"segment": {...}} lines
# append to the current run)
# ---------------------------------------------------------------------------

# An event list; the record walker reads it through the per-load event table.
EVENTS = ("a list", LIST[1])

LINE = Record({}, {"run": ANY, "segment": Record(
    {"label": STRING, "pre_state": STATE, "events": EVENTS, "post_state": STATE},
    {"srt_category": STRING}, name="segment")})


def _record(line: str, lineno: int, shape, what: str) -> dict:
    """One JSONL line parsed and checked against ``shape``."""
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceSchemaError(f"invalid JSON: {exc}", lineno) from exc
    return check(doc, shape, what, lambda message: TraceSchemaError(message, lineno))


_decode = json.JSONDecoder().raw_decode
_space = re.compile(r"[ \t\n\r]*").match  # JSON whitespace
# A record's key without escapes and its colon, then a key's colon alone,
# and what ends a member: a "," or the closing "}" (group 1), each with the
# JSON whitespace around it.  A string holds no raw control character.
_key = re.compile(r'"([^"\\\x00-\x1f]*)"[ \t\n\r]*:[ \t\n\r]*').match
_colon = re.compile(r"[ \t\n\r]*:[ \t\n\r]*").match
_next = re.compile(r"[ \t\n\r]*(?:,[ \t\n\r]*|(\}))").match
# An event list's opening, its first close and its item separators, with
# any JSON whitespace between the tokens.
_open = re.compile(r"\[[ \t\n\r]*([{\]])").match
_close = re.compile(r"\}[ \t\n\r]*\]").search
_pieces = re.compile(r"\}[ \t\n\r]*,[ \t\n\r]*\{").split


class _Reject(Exception):
    """A record the walker leaves to ``_record``, which words the error."""


class _Reader:
    """One load's JSONL records, walked with ``raw_decode``.

    Field runs repeat a few event lists, events and states, so the walker
    keeps each one's source text with the trace, ``MethodCall`` or
    ``ConcreteState`` built from it, checked once.
    An event list is split at its separators rather than decoded whole.  A
    record the walker does not accept goes through ``_record``.
    """

    def __init__(self, events: EventTable | None = None) -> None:
        self.events = EventTable() if events is None else events
        self._event_texts: dict[str, MethodCall] = {}
        self._traces: dict[str, Trace] = {}
        self._states: dict[str, ConcreteState] = {}

    def record(self, line: str, lineno: int, shape, what: str) -> dict:
        """The line as a document of ``shape``; a walked one holds its traces
        and states built, one checked by ``_record`` holds them as parsed."""
        try:
            doc, end = self._value(line, _space(line).end(), shape)
            if _space(line, end).end() == len(line):
                return doc
        except (_Reject, json.JSONDecodeError):
            pass
        return _record(line, lineno, shape, what)

    def trace(self, events, error) -> Trace:
        """A walked trace as it is, a parsed event list through the table."""
        return events if type(events) is tuple else self.events.trace(events, error)

    @staticmethod
    def state(doc) -> ConcreteState:
        """A walked state as it is, a parsed one built and validated."""
        return doc if type(doc) is ConcreteState else ConcreteState.from_checked(doc)

    def _value(self, text: str, pos: int, shape) -> tuple[object, int]:
        if shape is STATE:
            return self._state(text, pos)
        if shape is EVENTS:
            return self._trace(text, pos)
        if type(shape) is Record:
            return self._object(text, pos, shape)
        value, end = _decode(text, pos)
        return check(value, shape, "", _Reject), end

    def _object(self, text: str, pos: int, shape: Record) -> tuple[dict, int]:
        if text[pos:pos + 1] != "{" or shape.closed:
            raise _Reject
        doc: dict = {}
        required, optional = shape.required, shape.optional
        pos = _space(text, pos + 1).end()
        if text[pos:pos + 1] == "}":
            pos += 1
        else:
            while True:
                match = _key(text, pos)
                if match is None:  # a key holding an escape, or no key
                    if text[pos:pos + 1] != '"':
                        raise _Reject
                    key, pos = _decode(text, pos)
                    match = _colon(text, pos)
                    if match is None:
                        raise _Reject
                else:
                    key = match[1]
                pos = match.end()
                sub = required.get(key) or optional.get(key, ANY)
                if sub is STRING:
                    value, pos = _decode(text, pos)
                    if type(value) is not str:
                        raise _Reject
                elif sub is ANY:
                    value, pos = _decode(text, pos)
                else:
                    value, pos = self._value(text, pos, sub)
                doc[key] = value
                match = _next(text, pos)
                if match is None:
                    raise _Reject
                pos = match.end()
                if match.lastindex:  # the closing "}"
                    break
        if not required.keys() <= doc.keys():
            raise _Reject
        return doc, pos

    def _state(self, text: str, pos: int) -> tuple[ConcreteState, int]:
        doc, end = _decode(text, pos)
        source = text[pos:end]
        state = self._states.get(source)
        if state is None:
            try:
                state = self._states[source] = ConcreteState.from_dict(doc)
            except StateError:
                raise _Reject from None
        return state, end

    def _trace(self, text: str, pos: int) -> tuple[Trace, int]:
        start = _open(text, pos)
        if start is None:
            raise _Reject
        if start[1] == "]":
            return (), start.end()
        close = _close(text, start.end())
        if close is None:
            raise _Reject
        # If each piece, braced, is one complete JSON object, the list is
        # exactly those objects, since a complete object is prefix-free.
        # A known piece was decoded so; a new one is decoded alone.  A known
        # body (between the first "{" and last "}") gives its built trace.
        body = text[start.end():close.start()]
        trace = self._traces.get(body)
        if trace is None:
            trace = self._traces[body] = tuple([self._event_texts.get(piece)
                                                or self._event(piece)
                                                for piece in _pieces(body)])
        return trace, close.end()

    def _event(self, piece: str) -> MethodCall:
        """The event written ``{piece}``, checked and entered once."""
        text = "{" + piece + "}"
        e, end = _decode(text)
        if end != len(text):
            raise _Reject
        call = self._event_texts[piece] = self.events.event(e, _Reject)
        return call


def loads_runs(source, events: EventTable | None = None) -> list[Run]:
    """Read a trace file from the file open in binary, or from its text;
    ``events`` is the event table to share, if another load of the same
    command reads the same events."""
    lines = Lines(source, TraceSchemaError)
    runs: list[tuple[str, list[OperationSegment]]] = []
    # Each segment line's bytes -> the segment built from it.  Only a built
    # one is stored, so a hit, like its first build, follows a run line; a
    # hit is not decoded again.
    reader, built, text_of = _Reader(events), {}, lines.text
    for lineno, line in lines:
        segment = built.get(line)
        if segment is None:
            text = text_of(line, lineno)
            if not text:
                continue
            doc = reader.record(text, lineno, LINE, "line")
            if "run" in doc:
                runs.append((str(doc["run"]), []))
                continue
            if "segment" not in doc:
                raise TraceSchemaError("line is neither a run nor a segment", lineno)
            if not runs:
                raise TraceSchemaError("segment before any run line", lineno)
            seg = doc["segment"]
            try:
                segment = built[line] = OperationSegment(
                    seg["label"], reader.trace(seg["events"], TraceSchemaError),
                    reader.state(seg["pre_state"]), reader.state(seg["post_state"]),
                    seg.get("srt_category", "Instantaneous"))
            except (StateError, TraceSchemaError) as exc:
                raise TraceSchemaError(str(exc), lineno) from exc
        runs[-1][1].append(segment)
    return [Run(run_id, tuple(segments)) for run_id, segments in runs]


def load_runs(path, events: EventTable | None = None) -> list[Run]:
    """Read the trace file at ``path`` through a ``LINE_BUFFER``."""
    with open(path, "rb", buffering=LINE_BUFFER) as fh:
        return loads_runs(fh, events)


def dumps_runs(runs: list[Run]) -> str:
    """The trace file of ``runs``: a run line per run, then a segment line
    per segment.  Each distinct event and state object is encoded, and each
    trace object's events joined, once per write."""
    dumps, events, lines = json.dumps, JsonText(), []
    # id(state) -> the state and its text.  A state is unhashable, so it is
    # keyed by identity and held, so that its id stays its own.
    states: dict[int, tuple[ConcreteState, str]] = {}

    def state(s: ConcreteState) -> str:
        hit = states.get(id(s))
        if hit is None:
            hit = states[id(s)] = (s, dumps(s.to_dict()))
        return hit[1]

    for run in runs:
        lines.append(dumps({"run": run.run_id}))
        for seg in run.segments:
            lines.append(
                f'{{"segment": {{"label": {dumps(seg.label)}, "srt_category": '
                f'{dumps(seg.srt_category)}, "pre_state": '
                f'{state(seg.pre_state)}, "events": '
                f'{events.dumps(seg.events)}, "post_state": '
                f'{state(seg.post_state)}}}}}')
    return "\n".join(lines) + ("\n" if lines else "")


def dump_runs(runs: list[Run], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_runs(runs))


# ---------------------------------------------------------------------------
# Collectors
# ---------------------------------------------------------------------------


def collect(segments, afs: list[AbstractionFunction], af_hash: str,
            ) -> list[Burst]:
    """One burst per segment, in order; ``af_hash`` is ``af_list_hash(afs)``.
    Each distinct segment object gives one burst object, and each distinct
    state object is abstracted once, per call."""
    # Each table holds its keys' objects, so that their ids stay theirs.
    rows: dict[int, tuple[ConcreteState, str]] = {}
    built: dict[int, tuple[OperationSegment, Burst]] = {}

    def row(state: ConcreteState) -> str:
        hit = rows.get(id(state))
        if hit is None:
            hit = rows[id(state)] = (state, abstract_state(afs, state))
        return hit[1]

    bursts = []
    for seg in segments:
        hit = built.get(id(seg))
        if hit is None:
            hit = built[id(seg)] = (seg, Burst(
                seg.label, row(seg.pre_state), seg.events, row(seg.post_state),
                af_hash))
        bursts.append(hit[1])
    return bursts


def draw(items, cfg: SamplerConfig) -> list:
    """The items whose draw succeeds: one uniform draw per item, in order,
    from one stream seeded with ``cfg.rng_seed``."""
    if cfg.mode != "cbr":
        raise ValueError("controlled collection needs a cbr-mode config")
    rng = random.Random(cfg.rng_seed)
    return [item for item in items if rng.random() < cfg.probability]


def collect_cbr_bursts(runs: list[Run], afs: list[AbstractionFunction],
                       cfg: SamplerConfig) -> list[Burst]:
    """One draw per user operation; successful draws emit state-bracketed
    bursts in encounter order.  Identical inputs (seed included) give
    identical output."""
    drawn = draw([seg for run in runs for seg in run.segments], cfg)
    return collect(drawn, afs, af_list_hash(afs))


def collect_fixed_sampling(runs: list[Run], cfg: SamplerConfig,
                           ) -> list[tuple[str, Trace]]:
    """Uncontrolled baseline: unlabeled, state-free fixed-length event
    traces as (run_id, events) pairs.

    A draw happens at a segment start only while idle; once recording, the
    monitor keeps appending events across segment boundaries until it has
    ``fixed_length`` of them or the run ends.
    """
    if cfg.mode != "fixed_length":
        raise ValueError("collect_fixed_sampling needs a fixed_length-mode config")
    rng = random.Random(cfg.rng_seed)
    out: list[tuple[str, Trace]] = []
    for run in runs:
        recording: list[MethodCall] | None = None
        for seg in run.segments:
            if recording is None:
                if rng.random() < cfg.probability:
                    recording = []
            if recording is None:
                continue
            for event in seg.events:
                recording.append(event)
                if len(recording) == cfg.fixed_length:
                    out.append((run.run_id, tuple(recording)))
                    recording = None
                    break
        if recording:
            out.append((run.run_id, tuple(recording)))  # truncated at run end
    return out


# ---------------------------------------------------------------------------
# Burst files (JSONL with a header line)
# ---------------------------------------------------------------------------


def dumps_bursts(bursts: list[Burst], cfg: SamplerConfig | None = None,
                 af_hash: str | None = None) -> str:
    if af_hash is None:
        af_hash = bursts[0].af_hash if bursts else ""
    header: dict = {"af_hash": af_hash}
    if cfg is not None:
        header["sampler"] = cfg.to_dict()
    dumps = JsonText().dumps
    lines = [dumps({"header": header})]
    written: dict[int, str] = {}  # id(burst) -> its line; ``bursts`` holds them
    for b in bursts:
        line = written.get(id(b))
        if line is None:
            line = written[id(b)] = (
                f'{{"label": {dumps(b.label)}, "pre": {dumps(b.pre)}, "trace": '
                f'{dumps(b.trace)}, "post": {dumps(b.post)}}}')
        lines.append(line)
    return "\n".join(lines) + "\n"


def dumps_baseline(traces: list[tuple[str, Trace]], cfg: SamplerConfig) -> str:
    """The baseline file: a header line, then one line per (run id, trace)
    pair of ``collect_fixed_sampling``."""
    dumps = JsonText().dumps
    lines = [dumps({"header": {"sampler": cfg.to_dict()}})]
    lines += [f'{{"run": {dumps(run_id)}, "trace": {dumps(trace)}}}'
              for run_id, trace in traces]
    return "\n".join(lines) + "\n"


HEADER_LINE = Record({"header": Record({}, {"af_hash": STRING}, name="header")})
BURST = Record({"label": STRING, "pre": TFU, "trace": EVENTS, "post": TFU})


def loads_bursts(source) -> tuple[list[Burst], dict]:
    """Read a burst file from the file open in binary, or from its text, as
    ``load_runs`` reads a trace file; errors name the physical line as the
    record.  Every state is as wide as the first burst's ``pre``."""
    lines = Lines(source, TraceSchemaError)
    first = lines.first()
    if first is None:
        raise TraceSchemaError("empty burst document")
    header = _record(first[1], first[0], HEADER_LINE, "burst")["header"]
    af_hash, reader, text_of = header.get("af_hash", ""), _Reader(), lines.text
    built: dict[bytes, Burst] = {}  # each burst line's bytes -> its burst
    bursts: list[Burst] = []
    for lineno, line in lines:
        burst = built.get(line)
        if burst is None:
            text = text_of(line, lineno)
            if not text:
                continue
            d = reader.record(text, lineno, BURST, "burst")
            trace = reader.trace(d["trace"], lambda m: TraceSchemaError(m, lineno))
            width = len(bursts[0].pre) if bursts else len(d["pre"])
            for key in ("pre", "post"):
                if not d[key]:
                    raise TraceSchemaError(f"burst {key!r} is empty", lineno)
                if len(d[key]) != width:
                    raise TraceSchemaError(
                        f"burst {key!r} has width {len(d[key])}, but the first "
                        f"burst's 'pre' has width {width}", lineno)
            burst = built[line] = Burst(d["label"], d["pre"], trace, d["post"],
                                        af_hash)
        bursts.append(burst)
    return bursts, header
