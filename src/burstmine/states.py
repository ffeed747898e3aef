"""T/F/U evaluation of abstraction functions against concrete states.

A concrete state is a small heap snapshot: an object table plus, per class,
an optional designated root instance (the monitored object).  Evaluating a
clause walks a class path from the root; any unresolvable step (a missing
root, a null reference, a missing array element, an index that is not an
int) makes the clause *unknown* (U), as does a parameter path.  Unknown
dominates the conjunction: a single U clause makes the whole function U even
if another clause is already false.  This is deliberately not Kleene
conjunction; it reflects that an abstract state is only trustworthy when
every probe it aggregates was actually observable.

A value is the letter ``"T"``, ``"F"`` or ``"U"``, and an abstract state is
the string of its functions' letters.  Inside, values are codes T=0, F=1,
U=2 (``schema.LETTERS``), so a conjunction is the ``max`` of its clauses'
codes: U dominates, then F, then T.  Extracted functions repeat the same
guards, so an AF list is compiled once into a table of its distinct terms and
its distinct clauses (term-index triples), each clause with a function mask:
one byte per function, 1 where the function holds the clause, the first
function most significant.  Per state, each distinct term is resolved once
and each distinct clause decided once; the state's string is the OR of the
masks of its F clauses and of three times the masks of its U clauses, each
byte 0, 1 or 3 read as T, F or U.  OR is ``max`` on 0, 1 and 3, so U still
dominates.
A table is found by the identity of its function objects, which it holds
only weakly, so it lives no longer than they do.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from .functions import AbstractionFunction, Clause, NullTerm, Path, Term
from .schema import LETTERS, STRING, MapOf, Record, check


class StateError(ValueError):
    """Malformed concrete state (dangling object id, bad shape)."""


# The shape of a state document; ``validate`` checks its object ids.  A field
# holds anything but a JSON object, at any list depth.
FIELD = ("a scalar, an object id or a list of them", lambda v: all(
    map(FIELD[1], v)) if isinstance(v, list) else not isinstance(v, dict))
ROOT = ("an object id or null", lambda v: v is None or isinstance(v, str))
STATE = Record({}, {"roots": MapOf(ROOT, "root"), "objects": MapOf(Record(
    {"class": STRING}, {"fields": MapOf(FIELD, "field")}), "object")})


@dataclass(frozen=True)
class ConcreteObject:
    class_name: str
    fields: dict

    def to_dict(self) -> dict:
        return {"class": self.class_name, "fields": dict(self.fields)}


@dataclass(frozen=True)
class ConcreteState:
    """Heap snapshot: object table + designated per-class roots.

    Field values are ints, bools, ``None`` (null ref), object-id strings,
    or lists of object ids / ``None`` entries (arrays of refs).
    """

    objects: dict = field(default_factory=dict)  # id -> ConcreteObject
    roots: dict = field(default_factory=dict)    # class name -> object id | None

    def validate(self) -> None:
        for oid, obj in self.objects.items():
            for fname, value in obj.fields.items():
                self._check_value(value, f"{oid}.{fname}")
        for cls, oid in self.roots.items():
            self._check_value(oid, f"root {cls!r}")

    def _check_value(self, value, where: str) -> None:
        if isinstance(value, str):
            if value not in self.objects:
                raise StateError(f"dangling object id {value!r} at {where}")
        elif isinstance(value, list):
            for i, v in enumerate(value):
                if v is not None:
                    self._check_value(v, f"{where}[{i}]")

    def to_dict(self) -> dict:
        return {
            "roots": dict(self.roots),
            "objects": {oid: obj.to_dict() for oid, obj in self.objects.items()},
        }

    @staticmethod
    def from_dict(d: dict) -> "ConcreteState":
        return ConcreteState.from_checked(check(d, STATE, "state", StateError))

    @staticmethod
    def from_checked(d: dict) -> "ConcreteState":
        """``from_dict`` of a document already checked against ``STATE``."""
        state = ConcreteState(
            {oid: ConcreteObject(spec["class"], dict(spec.get("fields", {})))
             for oid, spec in d.get("objects", {}).items()},
            dict(d.get("roots", {})))
        state.validate()
        return state


_UNRESOLVED = object()


def _resolve(term: Term, state: ConcreteState):
    """Resolve a term to a python value, or ``_UNRESOLVED``."""
    if not isinstance(term, Path):
        return None if isinstance(term, NullTerm) else term.value
    if term.binding != "class":
        return _UNRESOLVED  # parameters are not part of a program state
    root_id = state.roots.get(term.root)
    if root_id is None or root_id not in state.objects:
        return _UNRESOLVED
    value: object = root_id
    for kind, payload in term.segments:
        if kind == "field":
            if not isinstance(value, str) or value not in state.objects:
                return _UNRESOLVED
            fields = state.objects[value].fields
            if payload not in fields:
                return _UNRESOLVED
            value = fields[payload]
        elif kind == "length":
            if not isinstance(value, list):
                return _UNRESOLVED
            value = len(value)
        else:  # index
            if not isinstance(value, list):
                return _UNRESOLVED
            idx = _resolve(payload, state) if isinstance(payload, Path) else payload
            # a bool index, like an int/bool comparison, is unresolvable
            if type(idx) is not int or idx < 0 or idx >= len(value):
                return _UNRESOLVED
            value = value[idx]
    return value


def _compare(left, op: str, right) -> "bool | None":
    # refs / null: only equality makes sense
    left_ref = left is None or isinstance(left, (str, list))
    right_ref = right is None or isinstance(right, (str, list))
    if left_ref or right_ref:
        if op == "==":
            return left == right
        if op == "!=":
            return left != right
        return None
    if isinstance(left, bool) != isinstance(right, bool):
        return None  # int/bool type mismatch is unresolvable, not false
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if isinstance(left, bool):
        return None
    return {"<": left < right, "<=": left <= right,
            ">": left > right, ">=": left >= right}[op]


def _decide(left, op: str, right) -> int:
    """The code of one comparison of resolved values: T 0, F 1, U 2."""
    if left is _UNRESOLVED or right is _UNRESOLVED:
        return 2
    result = _compare(left, op, right)
    return 2 if result is None else 0 if result else 1


def eval_clause(clause: Clause, state: ConcreteState) -> str:
    """Total ternary evaluation of one comparison: "T", "F" or "U"."""
    return LETTERS[_decide(_resolve(clause.lhs, state), clause.op,
                           _resolve(clause.rhs, state))]


# A row byte per function: T 0, F 1, U 3.  Bytes OR as their codes max.
_ROW_LETTERS = bytes.maketrans(b"\0\1\3", b"TFU")


class _Table:
    """An AF list compiled once: its distinct terms, and its distinct clauses
    as ``(lhs term index, op, rhs term index)`` triples with their function
    masks.  The functions themselves are held only weakly: the first one to
    die drops the table from ``_TABLES``."""

    def __init__(self, afs, key: tuple[int, ...]) -> None:
        tables = _TABLES  # bound now: module globals may be cleared at exit

        def drop(_ref) -> None:
            tables.pop(key, None)

        self._refs = [weakref.ref(af, drop) for af in afs]  # kept: callbacks fire
        terms: dict[Term, int] = {}
        clauses: dict[tuple[int, str, int], bytearray] = {}  # -> function mask
        by_object: dict[int, bytearray] = {}  # loaded functions share clauses
        for i, af in enumerate(afs):
            for c in af.clauses:
                mask = by_object.get(id(c))
                if mask is None:
                    lhs = terms.setdefault(c.lhs, len(terms))
                    rhs = terms.setdefault(c.rhs, len(terms))
                    mask = clauses.get((lhs, c.op, rhs))
                    if mask is None:
                        mask = clauses[lhs, c.op, rhs] = bytearray(len(afs))
                    by_object[id(c)] = mask
                mask[i] = 1
        self.terms = tuple(terms)
        self.clauses = tuple((clause, int.from_bytes(mask, "big"))
                             for clause, mask in clauses.items())
        self.width = len(afs)

    def row(self, state: ConcreteState) -> str:
        values = [_resolve(term, state) for term in self.terms]
        false = unknown = 0
        for (lhs, op, rhs), mask in self.clauses:
            code = _decide(values[lhs], op, values[rhs])
            if code == 1:
                false |= mask
            elif code == 2:
                unknown |= mask
        return (false | 3 * unknown).to_bytes(self.width, "big").translate(
            _ROW_LETTERS).decode("ascii")


# Compiled tables by the ids of their functions.  An entry lives only while
# every one of its functions does, so equal ids mean the same objects.
_TABLES: dict[tuple[int, ...], _Table] = {}


def _table(afs) -> _Table:
    key = tuple(map(id, afs))
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = _Table(afs, key)
    return table


def eval_function(af: AbstractionFunction, state: ConcreteState) -> str:
    """The letter "T", "F" or "U": unknown dominates, then false, then true."""
    return _table((af,)).row(state)


def abstract_state(afs: list[AbstractionFunction], state: ConcreteState) -> str:
    """The state's T/F/U string, one character per function in AF-list order.

    The string carries no AF binding of its own: bursts, models and the file
    headers carry the list's ``af_hash`` beside it."""
    if not afs:
        raise ValueError("abstract_state needs a non-empty AF list")
    return _table(afs).row(state)
