"""Annotated finite-state model synthesis and queries.

States are abstract program states, the T/F/U strings bursts carry, and
the model keeps the ``af_hash`` of the AF list they were abstracted with; a
transition is a (label, from, to) triple carrying the set of method call
traces observed for it.  There are no initial or final states: the model is
a join structure over whatever bursts were recorded, and reconstruction
chains bursts through shared states.  A run is checked against the model as
its bursts, one per segment (``collect.collect``).  A transition's traces
are read as ``transitions[key]``; ``outgoing`` gives a state's transitions
in the order ``simulate_traces`` walks them.

A load shares one trace object per distinct event list, so ``synthesize``
tells a transition's traces apart by identity before it merges equal ones by
value.  The model JSON (``export_fsm``) and the reconstructions JSON
(``dumps_reconstructions``) are each one document, with the traces in place,
written by ``schema.JsonText``, so one write encodes each distinct event once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .collect import Burst, EventTable, Trace
from .schema import LIST, STRING, TFU, JsonText, ListOf, Record, check


class ModelError(ValueError):
    pass


TransitionKey = tuple[str, str, str]  # (label, from state, to state)


@dataclass(frozen=True)
class AnnotatedFSM:
    af_hash: str
    states: frozenset[str]
    transitions: dict  # TransitionKey -> tuple[Trace, ...] (first-seen order)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def n_transitions(self) -> int:
        return len(self.transitions)

    def outgoing(self, state: str) -> list[TransitionKey]:
        keys = [k for k in self.transitions if k[1] == state]
        return sorted(keys, key=lambda k: (k[0], k[2]))


def synthesize(bursts: list[Burst], af_hash: str | None = None) -> AnnotatedFSM:
    """Union of burst endpoints as states; one transition per distinct
    (label, pre, post); annotation sets union the traces (duplicates once).

    ``af_hash`` (default: the first burst's) binds the model to its AF list,
    an empty one included.  The result does not depend on burst order beyond
    annotation insertion order, which is first-seen."""
    if af_hash is None:
        af_hash = bursts[0].af_hash if bursts else ""
    states: set[str] = set()
    # Each key's id(trace) -> trace, which hashes no event; the table holds
    # the traces, so an id stays its object's.  Equal traces held in
    # separate objects are merged by value at the end.
    transitions: dict[TransitionKey, dict[int, Trace]] = {}
    for b in bursts:
        if b.af_hash != af_hash:
            raise ModelError("bursts mix different AF orderings")
        states.add(b.pre)
        states.add(b.post)
        transitions.setdefault((b.label, b.pre, b.post), {})[id(b.trace)] = b.trace
    return AnnotatedFSM(af_hash, frozenset(states), {
        k: tuple(dict.fromkeys(v.values())) for k, v in transitions.items()})


def with_transition(fsm: AnnotatedFSM, label: str, frm: str, to: str,
                    traces: tuple[Trace, ...] = ((),)) -> AnnotatedFSM:
    """A copy of the model with one extra annotated transition (handy for
    what-if precision analyses)."""
    transitions = dict(fsm.transitions)
    key = (label, frm, to)
    existing = transitions.get(key, ())
    merged = existing + tuple(t for t in traces if t not in existing)
    transitions[key] = merged if merged else ((),)
    return AnnotatedFSM(fsm.af_hash, fsm.states | {frm, to}, transitions)


@dataclass(frozen=True)
class ReconstructedTrace:
    start: str
    segments: tuple[tuple[str, Trace], ...]  # (label, events) per hop
    end: str

    @property
    def events(self) -> Trace:
        return tuple(e for _, trace in self.segments for e in trace)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.segments)


def simulate_traces(fsm: AnnotatedFSM, start, max_hops: int,
                    combination_budget: int = 10_000,
                    ) -> list[ReconstructedTrace]:
    """Depth-first enumeration of maximal walks from ``start`` (up to
    ``max_hops`` transitions, shorter only at dead ends), expanded per
    combination of one annotation trace per hop.

    Transitions are visited sorted by (label, target state) and annotations
    in first-seen order, so output order is deterministic; the combination
    budget caps the cross-product explosion.
    """
    if max_hops < 0 or combination_budget < 1:
        raise ModelError(f"max_hops {max_hops} must be at least 0 and the "
                         f"combination budget {combination_budget} at least 1")
    start = str(start)
    if start not in fsm.states:
        raise ModelError(f"unknown start state {start!r}")
    out: list[ReconstructedTrace] = []
    path: list[tuple[str, Trace]] = []  # the walk's hops, (label, trace) each

    def hops(state: str):
        """The hops on from ``state``, the end of ``path``; none at the
        walk's end, which is written out."""
        keys = fsm.outgoing(state) if len(path) < max_hops else []
        if not keys:
            out.append(ReconstructedTrace(start, tuple(path), state))
        return ((key, trace) for key in keys for trace in fsm.transitions[key])

    # One iterator per state on the walk, so a walk of any length takes no
    # recursion; the hop from stack[d] is path[d].
    stack = [hops(start)]
    while stack and len(out) < combination_budget:
        hop = next(stack[-1], None)
        if hop is None:
            stack.pop()
            continue
        (label, _, target), trace = hop
        del path[len(stack) - 1:]
        path.append((label, trace))
        stack.append(hops(target))
    return out


def accepts_prefix(fsm: AnnotatedFSM, bursts: list[Burst]) -> int:
    """Number of events in the longest prefix of a run, given as its bursts
    (one per segment, in order), that the model accepts.

    Each burst must be matched by a transition with the same label whose
    endpoints equal the burst's pre/post states and whose annotation set
    contains the burst's exact event list.
    """
    if fsm.af_hash and any(b.af_hash != fsm.af_hash for b in bursts):
        raise ModelError("AF list does not match the model's AF ordering")
    accepted = 0
    for b in bursts:
        if b.trace not in fsm.transitions.get((b.label, b.pre, b.post), ()):
            break
        accepted += len(b.trace)
    return accepted


# ---------------------------------------------------------------------------
# Export / import
# ---------------------------------------------------------------------------


def export_fsm(fsm: AnnotatedFSM, fmt: str = "json") -> str:
    if fmt == "json":
        return _to_json(fsm)
    if fmt == "dot":
        return _to_dot(fsm)
    raise ModelError(f"unknown export format {fmt!r}")


def _to_json(fsm: AnnotatedFSM) -> str:
    return JsonText().dumps({
        "af_hash": fsm.af_hash,
        "states": sorted(fsm.states),
        "transitions": [{"label": label, "from": frm, "to": to,
                         "traces": fsm.transitions[label, frm, to]}
                        for label, frm, to in sorted(fsm.transitions)],
    }, "\n")


def dumps_reconstructions(traces: list[ReconstructedTrace]) -> str:
    """The ``simulate`` output: the reconstructed traces as an indented JSON
    list, each with its start and end states, labels and per-hop events."""
    return JsonText().dumps([{
        "start": t.start,
        "end": t.end,
        "labels": t.labels,
        "segments": [{"label": label, "trace": trace} for label, trace in t.segments],
    } for t in traces], "\n")


MODEL = Record({"states": ListOf(TFU, "state"), "transitions": ListOf(Record(
    {"label": STRING, "from": TFU, "to": TFU, "traces": ListOf(LIST)}),
    "transition")}, {"af_hash": STRING})


def import_fsm(text: str, events: EventTable | None = None) -> AnnotatedFSM:
    """Read a model; ``events`` is the event table to share, if another load
    of the same command reads the same events.  Every state is as wide as
    the first."""
    doc = check(json.loads(text), MODEL, "model", ModelError)
    for i, state in enumerate(doc["states"]):
        if not state:
            raise ModelError(f"model state {i} is empty")
        if len(state) != len(doc["states"][0]):
            raise ModelError(f"model state {i} has width {len(state)}, but "
                             f"model state 0 has width {len(doc['states'][0])}")
    states = frozenset(doc["states"])
    events = EventTable() if events is None else events
    transitions: dict[TransitionKey, tuple[Trace, ...]] = {}
    for i, t in enumerate(doc["transitions"]):
        key = (t["label"], t["from"], t["to"])
        if not states.issuperset(key[1:]):
            raise ModelError(f"model transition {i} joins a state that is not "
                             "in 'states'")
        if key in transitions:
            raise ModelError(f"model transition {i} repeats an earlier "
                             "(label, from, to)")
        traces = tuple(events.trace(trace, lambda m: ModelError(
            f"model transition {i} {m}")) for trace in t["traces"])
        if len(set(traces)) != len(traces):
            raise ModelError(f"model transition {i} repeats a trace")
        transitions[key] = traces
    return AnnotatedFSM(doc.get("af_hash", ""), states, transitions)


# A label as a DOT quoted string; each character that ``str.splitlines``
# breaks at is written as Graphviz's "\n", so each statement keeps its line.
_DOT_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', **dict.fromkeys(
    "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029", "\\n")})


def _to_dot(fsm: AnnotatedFSM) -> str:
    lines = ["digraph bursts {", "  rankdir=LR;", "  node [shape=ellipse];"]
    names = {s: f"s{i}" for i, s in enumerate(sorted(fsm.states))}
    for state in sorted(fsm.states):
        lines.append(f'  {names[state]} [label="({", ".join(state)})"];')
    for key in sorted(fsm.transitions):
        label, frm, to = key
        text = f"{label} ({len(fsm.transitions[key])})".translate(_DOT_ESCAPES)
        lines.append(f'  {names[frm]} -> {names[to]} [label="{text}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
