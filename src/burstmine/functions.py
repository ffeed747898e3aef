"""Clause and abstraction-function value types shared across the pipeline.

A clause is a single comparison over state-variable paths, array lengths,
parameters, and literals.  An abstraction function is an ordered,
parameter-free conjunction of clauses produced by stripping a symbolic
path condition; evaluated against a concrete state it yields a ternary
true / false / unknown.

The term grammar lives here too, beside the ``__str__``s that write it:
``_TermParser`` holds the tokens and the ``path``, ``index`` and ``atom``
productions, and ``parse_term`` reads a term with it, binding a root by its
case.  The IR's parser extends it, building literals as ``IntTerm`` /
``BoolTerm`` / ``NullTerm`` and paths as ``Path``, the one path type from the
parser to a probe, whose ``binding`` tells a class path from a parameter path.

This module owns the wire format for abstraction-function lists (a JSON
document with a header recording extraction bounds and truncation flags),
which every downstream stage consumes.  Extracted functions share their
method's guards, so the list is read and written per distinct clause.  A
load checks the function records once and each distinct clause document
(its ``lhs``, ``op``, ``rhs`` and ``negated``, keyed with ``negated``'s type)
once, in a fixed number of ``schema.check`` calls; if any departs from its
shape, the whole-document check names the first place, as it would alone.
It then builds one ``Clause`` per distinct clause document, which its
functions share.  A write, one ``schema.JsonText``, encodes each distinct
clause once and refuses a term whose text ``parse_term`` would not read back
as that term (a class ``cart`` would read back as a parameter).  A clause
forms its key and tests for parameters once per object.
"""

from __future__ import annotations

import functools
import hashlib
import json
import re
from dataclasses import InitVar, dataclass
from typing import NamedTuple, Union

from .schema import (ANY, BOOL, LIST, STRING, JsonText, ListOf, MapOf, Record,
                     check)

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


@dataclass(frozen=True)
class Path:
    """Dotted access path, e.g. ``Cart.products.[0].value`` or ``p.value``:
    an IR path and a clause term alike.

    Segments are ``("field", name)``, ``("index", int | Path)`` or
    ``("length", None)``.  ``binding`` is what the root names, as the parser
    found it: ``"class"``, ``"param"`` or ``"loop"``; a clause holds class
    and parameter paths only.
    """

    root: str
    segments: tuple[tuple[str, object], ...] = ()
    binding: str = "class"

    @property
    def is_length(self) -> bool:
        return bool(self.segments) and self.segments[-1][0] == "length"

    def __str__(self) -> str:
        parts = [self.root]
        for kind, payload in self.segments:
            if kind == "field":
                parts.append(str(payload))
            elif kind == "index":
                parts.append(f"[{payload}]")
            else:
                parts.append("length")
        return ".".join(parts)


Term = Union[IntTerm, BoolTerm, NullTerm, Path]


_TOKEN_RE = re.compile(
    r"""
    (?P<skip>\s+|\#[^\n]*)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>\.\.|==|!=|<=|>=|&&|\|\||\[\]|[{}()\[\];:,.=<>!+\-*/])
  | (?P<bad>.)
    """,
    re.VERBOSE | re.ASCII,
)

KEYWORDS = {"class", "const", "field", "method", "if", "else", "for", "in",
            "return", "call", "true", "false", "null", "length"}


class Token(NamedTuple):
    kind: str  # "int" | "ident" | "op" | "eof"
    text: str
    pos: int  # offset in the source


class _TermParser:
    """Recursive descent over the grammar's tokens and its ``path``, ``index``
    and literal-or-path ``atom``, reading a term as ``str(term)`` writes it
    and binding a root by its case (``binding``).  The IR's parser extends
    it, binding by scope and adding ``( expr )``: one path grammar."""

    def __init__(self, source: str) -> None:
        self.source = source
        self.tokens = self._tokenize()
        self.pos = 0

    def syntax_error(self, message: str, line: int, col: int) -> ValueError:
        return ValueError(f"{line}:{col}: {message}")

    def error_at(self, pos: int, message: str) -> ValueError:
        """The error at offset ``pos``, its line and column counted from 1."""
        return self.syntax_error(message, self.source.count("\n", 0, pos) + 1,
                                 pos - self.source.rfind("\n", 0, pos))

    def _tokenize(self) -> list[Token]:
        tokens: list[Token] = []
        for m in _TOKEN_RE.finditer(self.source):
            kind = m.lastgroup
            if kind == "bad":
                raise self.error_at(m.start(), f"unexpected character {m[0]!r}")
            if kind != "skip":
                tokens.append(Token(kind, m[0], m.start()))
        tokens.append(Token("eof", "", len(self.source)))
        return tokens

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> ValueError:
        tok = self.peek()
        return self.error_at(tok.pos, f"{message} (got {tok.text!r})")

    def expect(self, text: str) -> Token:
        if not self.at(text):
            raise self.error(f"expected {text!r}")
        return self.next()

    def expect_ident(self) -> str:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in KEYWORDS:
            raise self.error("expected identifier")
        return self.next().text

    def at(self, text: str) -> bool:
        return self.peek().text == text

    def binding(self, root: str) -> str:
        return "class" if root[:1].isupper() else "param"

    def path(self) -> Path:
        root = self.expect_ident()
        segments: list[tuple[str, object]] = []
        while self.at("."):
            self.next()
            tok = self.peek()
            if tok.text == "length":
                self.next()
                segments.append(("length", None))
            elif tok.text == "[":
                self.next()
                segments.append(("index", self.index()))
                self.expect("]")
            elif tok.kind == "ident":
                self.next()
                segments.append(("field", tok.text))
            else:
                raise self.error("expected field, index, or length")
        return Path(root, tuple(segments), self.binding(root))

    def index(self) -> "int | Path":
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return int(tok.text)
        return self.path()

    def atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return IntTerm(int(tok.text))
        if tok.text in ("true", "false"):
            self.next()
            return BoolTerm(tok.text == "true")
        if tok.text == "null":
            self.next()
            return NullTerm()
        if tok.kind == "ident":
            return self.path()
        raise self.error("expected expression")


@functools.lru_cache(maxsize=4096)
def parse_term(text: str) -> Term:
    """Inverse of ``str(term)`` (used by the AF JSON reader): one literal or
    path, read by ``_TermParser.atom``.  Text that would not print back as
    itself (``007``, whitespace, comments, anything after the term) is
    rejected.  The cache is process-wide: a term read once is shared by
    every later load."""
    try:
        term = _TermParser(text).atom()
        if str(term) != text:
            raise ValueError
    except ValueError:
        raise ValueError(f"malformed term {text!r}") from None
    return term


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
        if (isinstance(lhs, Path) and lhs.binding == "class" and lhs.is_length
                and isinstance(rhs, IntTerm)):
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
        return self._key

    @functools.cached_property
    def _key(self) -> str:  # formed once per clause object
        return f"{self.lhs} {self.op} {self.rhs}"

    def mentions_parameter(self) -> bool:
        return self._mentions_parameter

    @functools.cached_property
    def _mentions_parameter(self) -> bool:  # tested once per clause object
        return _mentions_param(self.lhs) or _mentions_param(self.rhs)

    def references_state(self) -> bool:
        return isinstance(self.lhs, Path) or isinstance(self.rhs, Path)

    __str__ = key

    def to_dict(self) -> dict:
        """The clause document; a term whose text would read back as another
        term (a class ``cart``, read as a parameter) cannot be written."""
        for term in (self.lhs, self.rhs):
            if not _reads_back(term):
                raise ValueError(f"clause {self} cannot be written: {term} would "
                                 "not read back as itself (a class is read "
                                 "from a capitalised root)")
        return {"lhs": str(self.lhs), "op": self.op, "rhs": str(self.rhs),
                "negated": False}

    @staticmethod
    def from_dict(d: dict) -> "Clause":
        return _clause(check(d, CLAUSE, "clause"))


def _reads_back(term: Term) -> bool:
    try:
        return parse_term(str(term)) == term
    except ValueError:
        return False


def _mentions_param(t: "Term | int") -> bool:
    """Whether ``t`` is a parameter path or indexes by one, at any depth."""
    return isinstance(t, Path) and (t.binding == "param" or any(
        kind == "index" and _mentions_param(p) for kind, p in t.segments))


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
        d = check(d, FUNCTION, "abstraction function")
        return _function(d, tuple(map(_clause, d["clauses"])))


CLAUSE = Record({"lhs": STRING, "op": STRING, "rhs": STRING}, {"negated": BOOL})
FUNCTION = Record({"id": STRING, "class": STRING, "method": STRING,
                   "clauses": ListOf(CLAUSE, "clause")}, {"path": STRING})
AF_LIST = Record({"functions": ListOf(FUNCTION, "function")},
                 {"af_hash": STRING, "header": MapOf(ANY)})


def _clause(d: dict) -> Clause:
    return Clause(parse_term(d["lhs"]), d["op"], parse_term(d["rhs"]),
                  d.get("negated", False))


def _function(d: dict, clauses: tuple[Clause, ...]) -> AbstractionFunction:
    return AbstractionFunction(d["id"], clauses,
                               (d["class"], d["method"], d.get("path", "")))


def af_list_hash(afs: "list[AbstractionFunction] | tuple[AbstractionFunction, ...]",
                 ) -> str:
    """Digest binding an abstract-state vector to its function ordering."""
    h = hashlib.sha256("\n".join(af.id for af in afs).encode("utf-8"))
    return h.hexdigest()[:16]


def dump_af_list(afs: list[AbstractionFunction], header: dict | None = None) -> str:
    """``json.dumps`` at ``indent=2`` of the document ``{"header", "af_hash",
    "functions"}``; each distinct clause is encoded once per write."""
    return JsonText().dumps({
        "header": dict(header or {}),
        "af_hash": af_list_hash(afs),
        "functions": [{"id": af.id, "class": af.class_name,
                       "method": af.method_name, "clauses": af.clauses}
                      for af in afs],
    }, "\n")


# The function records of an AF list, their clause documents unchecked.
_RECORDS = AF_LIST._replace(required={"functions": ListOf(FUNCTION._replace(
    required={**FUNCTION.required, "clauses": LIST}), "function")})
_CLAUSES = ListOf(CLAUSE, "clause")


def _clause_keys(doc) -> "tuple[list, dict] | None":
    """Each function's clause keys and the first document of each key, if
    ``doc`` has the ``AF_LIST`` shape, else ``None``: the function records
    are checked once, then each distinct clause document once.  A key holds
    the type of ``negated``, as ``0`` and ``0.0`` equal ``False``."""
    keys, documents = [], {}
    try:
        check(doc, _RECORDS, "")
        for f in doc["functions"]:
            keys.append(ks := [])
            for d in f["clauses"]:
                if type(d) is not dict:
                    return None
                negated = d.get("negated", False)
                ks.append(key := (d.get("lhs"), d.get("op"), d.get("rhs"),
                                  negated, type(negated)))
                documents.setdefault(key, d)
        check(list(documents.values()), _CLAUSES, "")
    except (ValueError, TypeError):  # TypeError: an unhashable member, no string
        return None
    return keys, documents


def load_af_list(text: str) -> tuple[list[AbstractionFunction], dict]:
    doc = json.loads(text)
    found = _clause_keys(doc)
    if found is None:
        # The whole-document check names the first place the document departs.
        check(doc, AF_LIST, "abstraction-function list")
    keys, documents = found
    clauses: dict[tuple, Clause] = {}  # one Clause per distinct clause document

    def clause(key: tuple) -> Clause:
        c = clauses.get(key)
        if c is None:
            c = clauses[key] = _clause(documents[key])
        return c

    afs = []
    for i, (d, ks) in enumerate(zip(doc["functions"], keys)):
        try:
            afs.append(_function(d, tuple(map(clause, ks))))
        except ValueError as exc:
            raise ValueError(f"abstraction function {i}: {exc}") from None
    if doc.get("af_hash") and doc["af_hash"] != af_list_hash(afs):
        raise ValueError("abstraction-function list hash mismatch")
    return afs, doc.get("header", {})
