"""Clause and abstraction-function value types shared across the pipeline.

A clause is a single comparison over state-variable paths, array lengths,
parameters, and literals.  An abstraction function is an ordered,
parameter-free conjunction of clauses produced by stripping a symbolic
path condition; evaluated against a concrete state it yields a ternary
true / false / unknown.

The IR shares this vocabulary: its parser builds literals as ``IntTerm`` /
``BoolTerm`` / ``NullTerm``, its paths have the segment shape and the
``path_str`` printer of ``FieldTerm`` and ``ParamTerm``, and ``parse_term``
reads term text with the IR's own ``atom`` grammar.

This module owns the wire format for abstraction-function lists (a JSON
document with a header recording extraction bounds and truncation flags),
which every downstream stage consumes.  Extracted functions share their
method's guards, so the list is read and written per distinct clause: a load
builds one ``Clause`` per distinct clause document (its ``lhs``, ``op``,
``rhs`` and ``negated``) and its functions share it, and a write encodes each
distinct clause's text once.  A clause tests for parameters once per object.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import InitVar, dataclass
from typing import Union

from .schema import ANY, BOOL, STRING, ListOf, MapOf, Record, TextTable, check

COMPARE_OPS = ("==", "!=", "<", "<=", ">", ">=")

_MIRROR = {"==": "!=", "!=": "==", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}


@dataclass(frozen=True)
class IntTerm:
    value: int

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class BoolTerm:
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class NullTerm:
    def __str__(self) -> str:
        return "null"


def path_str(path) -> str:
    """``Cart.products.[0].value``: the text of a ``FieldTerm`` or an IR path."""
    parts = [path.root]
    for kind, payload in path.segments:
        if kind == "field":
            parts.append(str(payload))
        elif kind == "index":
            parts.append(f"[{payload}]")
        else:
            parts.append("length")
    return ".".join(parts)


@dataclass(frozen=True)
class FieldTerm:
    """State-variable path rooted at a class name.

    Segments are ``("field", name)``, ``("index", int | FieldTerm |
    ParamTerm)``, or ``("length", None)``.  Indices are concrete integers
    except when a program indexes an array with an integer path.
    """

    root: str
    segments: tuple[tuple[str, object], ...] = ()

    @property
    def is_length(self) -> bool:
        return bool(self.segments) and self.segments[-1][0] == "length"

    __str__ = path_str


@dataclass(frozen=True)
class ParamTerm:
    """Method-parameter path; its segments have the ``FieldTerm`` shape."""

    root: str
    segments: tuple[tuple[str, object], ...] = ()

    __str__ = path_str


Term = Union[IntTerm, BoolTerm, NullTerm, FieldTerm, ParamTerm]


@functools.lru_cache(maxsize=4096)
def parse_term(text: str) -> Term:
    """Inverse of ``str(term)`` (used by the AF JSON reader): one literal or
    path in the IR's ``atom`` syntax.  Text that would not print back as
    itself (``007``, whitespace, comments) is rejected."""
    from . import ir  # not at load time: ir imports this module's literals
    try:
        atom = ir.parse_atom(text)
    except (ir.IrError, ValueError):
        raise ValueError(f"malformed term {text!r}") from None
    term = _path_term(atom) if isinstance(atom, ir.Path) else atom
    if str(term) != text:
        raise ValueError(f"malformed term {text!r}")
    return term


def _path_term(path) -> "FieldTerm | ParamTerm":
    """The term of an IR path: a capitalised root names a class."""
    segments = tuple((kind, _path_term(p) if kind == "index" and not isinstance(p, int)
                      else p) for kind, p in path.segments)
    return (FieldTerm if path.root[:1].isupper() else ParamTerm)(path.root, segments)


@dataclass(frozen=True)
class Clause:
    """One comparison, canonical from construction.

    ``negated`` is a constructor-only flag: a negation is folded into the
    mirrored operator at once.  Boolean-literal and array-length comparisons
    are rewritten to one form (``x != true`` is ``x == false``, ``len <= 0``
    is ``len == 0``, ``len != 0`` is ``len > 0``); operands are never
    reordered.
    """

    lhs: Term
    op: str
    rhs: Term
    negated: InitVar[bool] = False

    def __post_init__(self, negated: bool) -> None:
        if self.op not in COMPARE_OPS:
            raise ValueError(f"unknown comparison operator {self.op!r}")
        op = _MIRROR[self.op] if negated else self.op
        lhs, rhs = self.lhs, self.rhs
        # x != true  ->  x == false ; x != false -> x == true
        if op == "!=" and isinstance(rhs, BoolTerm):
            op, rhs = "==", BoolTerm(not rhs.value)
        if op == "!=" and isinstance(lhs, BoolTerm):
            op, lhs = "==", BoolTerm(not lhs.value)
        # Array lengths are non-negative: len <= 0 -> len == 0, len != 0 -> len > 0.
        if isinstance(lhs, FieldTerm) and lhs.is_length and isinstance(rhs, IntTerm):
            if rhs.value == 0 and op == "<=":
                op = "=="
            elif rhs.value == 0 and op == "!=":
                op = ">"
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "rhs", rhs)

    def mirrored(self) -> "Clause":
        """The negation of this clause."""
        return Clause(self.lhs, self.op, self.rhs, True)

    def key(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"

    def mentions_parameter(self) -> bool:
        return self._mentions_parameter

    @functools.cached_property
    def _mentions_parameter(self) -> bool:  # tested once per clause object
        if isinstance(self.lhs, ParamTerm) or isinstance(self.rhs, ParamTerm):
            return True
        return _index_mentions_param(self.lhs) or _index_mentions_param(self.rhs)

    def references_state(self) -> bool:
        return isinstance(self.lhs, (FieldTerm, ParamTerm)) or isinstance(
            self.rhs, (FieldTerm, ParamTerm))

    __str__ = key

    def to_dict(self) -> dict:
        return {"lhs": str(self.lhs), "op": self.op, "rhs": str(self.rhs),
                "negated": False}

    @staticmethod
    def from_dict(d: dict) -> "Clause":
        return _clause(check(d, CLAUSE, "clause"))


def _index_mentions_param(t: Term) -> bool:
    return isinstance(t, FieldTerm) and any(
        kind == "index" and (isinstance(p, ParamTerm) or _index_mentions_param(p))
        for kind, p in t.segments)


@dataclass(frozen=True)
class PathCondition:
    """Conjunction of branch guards for one explored path of one method."""

    clauses: tuple[Clause, ...]
    origin: tuple[str, str, str]  # (class, method, path id)
    truncated: bool = False

    def __str__(self) -> str:
        return " && ".join(str(c) for c in self.clauses) if self.clauses else "true"


@dataclass(frozen=True)
class AbstractionFunction:
    """Parameter-free conjunction of clauses with a stable id."""

    id: str
    clauses: tuple[Clause, ...]
    origin: tuple[str, str, str]

    def __post_init__(self) -> None:
        if not self.clauses:
            raise ValueError("abstraction function needs at least one clause")
        for c in self.clauses:
            if c.mentions_parameter():
                raise ValueError(f"clause {c} references a parameter")

    @property
    def class_name(self) -> str:
        return self.origin[0]

    @property
    def method_name(self) -> str:
        return self.origin[1]

    def clause_keys(self) -> tuple[str, ...]:
        return tuple(c.key() for c in self.clauses)

    def clause_set(self) -> frozenset[str]:
        return frozenset(self.clause_keys())

    def __str__(self) -> str:
        return " && ".join(str(c) for c in self.clauses)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "class": self.class_name,
            "method": self.method_name,
            "clauses": [c.to_dict() for c in self.clauses],
        }

    @staticmethod
    def from_dict(d: dict) -> "AbstractionFunction":
        return _function(check(d, FUNCTION, "abstraction function"))


CLAUSE = Record({"lhs": STRING, "op": STRING, "rhs": STRING}, {"negated": BOOL})
FUNCTION = Record({"id": STRING, "class": STRING, "method": STRING,
                   "clauses": ListOf(CLAUSE, "clause")}, {"path": STRING})
AF_LIST = Record({"functions": ListOf(FUNCTION, "function")},
                 {"af_hash": STRING, "header": MapOf(ANY)})


def _clause(d: dict) -> Clause:
    return Clause(parse_term(d["lhs"]), d["op"], parse_term(d["rhs"]),
                  d.get("negated", False))


def _function(d: dict, clause=_clause) -> AbstractionFunction:
    return AbstractionFunction(d["id"], tuple(map(clause, d["clauses"])),
                               (d["class"], d["method"], d.get("path", "")))


def af_list_hash(afs: "list[AbstractionFunction] | tuple[AbstractionFunction, ...]",
                 ) -> str:
    """Digest binding an abstract-state vector to its function ordering."""
    h = hashlib.sha256("\n".join(af.id for af in afs).encode("utf-8"))
    return h.hexdigest()[:16]


def dump_af_list(afs: list[AbstractionFunction], header: dict | None = None) -> str:
    """``json.dumps`` at ``indent=2`` of the document ``{"header", "af_hash",
    "functions"}``, laid out here so that each distinct clause is encoded
    once per write."""
    dumps, clauses = json.dumps, TextTable(depth=4)
    records = [
        f'{{\n      "id": {dumps(af.id)},\n      "class": {dumps(af.class_name)},\n'
        f'      "method": {dumps(af.method_name)},\n      "clauses": [\n        '
        + ",\n        ".join([clauses[c] for c in af.clauses]) + "\n      ]\n    }"
        for af in afs]
    functions = "[\n    " + ",\n    ".join(records) + "\n  ]" if afs else "[]"
    header_text = dumps(dict(header or {}), indent=2).replace("\n", "\n  ")
    return (f'{{\n  "header": {header_text},\n  "af_hash": '
            f'{dumps(af_list_hash(afs))},\n  "functions": {functions}\n}}')


def load_af_list(text: str) -> tuple[list[AbstractionFunction], dict]:
    doc = check(json.loads(text), AF_LIST, "abstraction-function list")
    clauses: dict[tuple, Clause] = {}  # one Clause per distinct clause document

    def clause(d: dict) -> Clause:
        key = d["lhs"], d["op"], d["rhs"], d.get("negated", False)
        found = clauses.get(key)
        if found is None:
            found = clauses[key] = _clause(d)
        return found

    afs = []
    for i, d in enumerate(doc["functions"]):
        try:
            afs.append(_function(d, clause))
        except ValueError as exc:
            raise ValueError(f"abstraction function {i}: {exc}") from None
    if doc.get("af_hash") and doc["af_hash"] != af_list_hash(afs):
        raise ValueError("abstraction-function list hash mismatch")
    return afs, doc.get("header", {})
