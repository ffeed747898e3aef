"""Mini imperative IR: AST, parser, pretty-printer, and class dependency analysis.

The IR is a deliberately small object-oriented language: classes with integer
constants, scalar / object-ref / array-of-ref fields, and methods whose bodies
use assignments, conditionals, bounded ``for`` loops, returns, and local calls.
It is just expressive enough to encode the kind of state-dependent branching
logic that drives abstraction-function extraction.

The normative grammar ships with the package as ``data/grammar.ebnf``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Union

from .functions import BoolTerm, IntTerm, NullTerm, path_str


class IrError(Exception):
    """Base class for IR parse/validation failures."""


class IrSyntaxError(IrError):
    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class UndeclaredTypeError(IrError):
    pass


class DuplicateNameError(IrError):
    pass


class UnknownTargetError(IrError):
    pass


class ArityError(IrError):
    """A local call passes another number of arguments than its callee takes."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

SCALAR_TYPES = ("int", "bool")


@dataclass(frozen=True)
class FieldType:
    """``int`` / ``bool`` scalars, object refs, or arrays of object refs."""

    name: str
    is_array: bool = False

    @property
    def is_scalar(self) -> bool:
        return self.name in SCALAR_TYPES and not self.is_array

    def __str__(self) -> str:
        return f"{self.name}[]" if self.is_array else self.name


@dataclass(frozen=True)
class Path:
    """Dotted access path rooted at a class, a parameter or a loop variable,
    e.g. ``Cart.products.[0].value`` or ``p.value``.

    Segments have the shape ``FieldTerm`` uses: ``("field", name)``,
    ``("index", int | Path)`` or ``("length", None)``.  An index path is a
    loop variable or an integer path, itself possibly indexed.
    """

    root: str
    segments: tuple[tuple[str, object], ...] = ()

    __str__ = path_str


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * /
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class Cmp:
    op: str  # == != < <= > >=
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


@dataclass(frozen=True)
class Not:
    operand: "Expr"

    def __str__(self) -> str:
        return f"!({self.operand})"


@dataclass(frozen=True)
class And:
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"{self.left} && {self.right}"


@dataclass(frozen=True)
class Or:
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"{self.left} || {self.right}"


Expr = Union[IntTerm, BoolTerm, NullTerm, Path, BinOp, Cmp, Not, And, Or]


@dataclass(frozen=True)
class Assign:
    target: Path
    value: Expr


@dataclass(frozen=True)
class If:
    cond: Expr
    then: tuple["Stmt", ...]
    orelse: tuple["Stmt", ...] = ()


@dataclass(frozen=True)
class For:
    var: str
    bound: Path  # array-length path or integer field path
    body: tuple["Stmt", ...] = ()


@dataclass(frozen=True)
class Return:
    pass


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple[Expr, ...] = ()


Stmt = Union[Assign, If, For, Return, Call]


@dataclass(frozen=True)
class Param:
    name: str
    type: FieldType


@dataclass(frozen=True)
class MethodDef:
    name: str
    params: tuple[Param, ...]
    body: tuple[Stmt, ...]


@dataclass(frozen=True)
class ConstDef:
    name: str
    value: int


@dataclass(frozen=True)
class FieldDef:
    name: str
    type: FieldType


@dataclass(frozen=True)
class ClassDef:
    name: str
    consts: tuple[ConstDef, ...] = ()
    fields: tuple[FieldDef, ...] = ()
    methods: tuple[MethodDef, ...] = ()

    def member_type(self, name: str) -> FieldType | None:
        for c in self.consts:
            if c.name == name:
                return FieldType("int")
        for f in self.fields:
            if f.name == name:
                return f.type
        return None


@dataclass(frozen=True)
class Program:
    classes: tuple[ClassDef, ...] = ()

    def class_named(self, name: str) -> ClassDef | None:
        for c in self.classes:
            if c.name == name:
                return c
        return None

    @property
    def class_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.classes)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>\.\.|==|!=|<=|>=|&&|\|\||\[\]|[{}()\[\];:,.=<>!+\-*/])
    """,
    re.VERBOSE,
)

KEYWORDS = {"class", "const", "field", "method", "if", "else", "for", "in",
            "return", "call", "true", "false", "null", "length"}


@dataclass(frozen=True)
class Token:
    kind: str  # "int" | "ident" | "op" | "eof"
    text: str
    line: int
    col: int


def _tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise IrSyntaxError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        kind = m.lastgroup or "op"
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent)
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> IrSyntaxError:
        tok = self.peek()
        return IrSyntaxError(message + f" (got {tok.text!r})", tok.line, tok.col)

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            raise self.error(f"expected {text!r}")
        return self.next()

    def expect_ident(self) -> str:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in KEYWORDS:
            raise self.error("expected identifier")
        return self.next().text

    def at(self, text: str) -> bool:
        return self.peek().text == text

    # -- grammar productions ------------------------------------------------

    def program(self) -> Program:
        classes = []
        while not self.at(""):
            classes.append(self.class_def())
        return Program(tuple(classes))

    def class_def(self) -> ClassDef:
        self.expect("class")
        name = self.expect_ident()
        self.expect("{")
        consts: list[ConstDef] = []
        fields: list[FieldDef] = []
        methods: list[MethodDef] = []
        while not self.at("}"):
            if self.at("const"):
                self.next()
                cname = self.expect_ident()
                self.expect("=")
                tok = self.peek()
                if tok.kind != "int":
                    raise self.error("expected integer literal")
                self.next()
                self.expect(";")
                consts.append(ConstDef(cname, int(tok.text)))
            elif self.at("field"):
                self.next()
                fname = self.expect_ident()
                self.expect(":")
                fields.append(FieldDef(fname, self.field_type()))
                self.expect(";")
            elif self.at("method"):
                methods.append(self.method_def())
            else:
                raise self.error("expected const, field, or method")
        self.expect("}")
        return ClassDef(name, tuple(consts), tuple(fields), tuple(methods))

    def field_type(self) -> FieldType:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.error("expected type name")
        self.next()
        if self.at("[]"):
            self.next()
            return FieldType(tok.text, is_array=True)
        return FieldType(tok.text)

    def method_def(self) -> MethodDef:
        self.expect("method")
        name = self.expect_ident()
        self.expect("(")
        params: list[Param] = []
        if not self.at(")"):
            while True:
                pname = self.expect_ident()
                self.expect(":")
                ptype = self.field_type()
                if ptype.is_array:
                    raise self.error("array parameters are not supported")
                params.append(Param(pname, ptype))
                if self.at(","):
                    self.next()
                    continue
                break
        self.expect(")")
        return MethodDef(name, tuple(params), self.block())

    def block(self) -> tuple[Stmt, ...]:
        self.expect("{")
        stmts: list[Stmt] = []
        while not self.at("}"):
            stmts.append(self.stmt())
        self.expect("}")
        return tuple(stmts)

    def stmt(self) -> Stmt:
        if self.at("if"):
            self.next()
            self.expect("(")
            cond = self.expr()
            self.expect(")")
            then = self.block()
            orelse: tuple[Stmt, ...] = ()
            if self.at("else"):
                self.next()
                orelse = self.block()
            return If(cond, then, orelse)
        if self.at("for"):
            self.next()
            var = self.expect_ident()
            self.expect("in")
            lo = self.peek()
            if lo.kind != "int" or lo.text != "0":
                raise self.error("for loops must start at 0")
            self.next()
            self.expect("..")
            bound = self.path()
            body = self.block()
            return For(var, bound, body)
        if self.at("return"):
            self.next()
            self.expect(";")
            return Return()
        if self.at("call"):
            self.next()
            name = self.expect_ident()
            self.expect("(")
            args: list[Expr] = []
            if not self.at(")"):
                while True:
                    args.append(self.expr())
                    if self.at(","):
                        self.next()
                        continue
                    break
            self.expect(")")
            self.expect(";")
            return Call(name, tuple(args))
        # assignment
        target = self.path()
        self.expect("=")
        value = self.expr()
        self.expect(";")
        return Assign(target, value)

    def path(self) -> Path:
        root = self.expect_ident()
        segments: list[tuple[str, object]] = []
        while self.at("."):
            # Do not swallow the ".." of a for-loop header.
            if self.tokens[self.pos].text == "..":
                break
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
        return Path(root, tuple(segments))

    def index(self) -> "int | Path":
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return int(tok.text)
        return self.path()

    def expr(self) -> Expr:
        return self.or_expr()

    def or_expr(self) -> Expr:
        left = self.and_expr()
        while self.at("||"):
            self.next()
            left = Or(left, self.and_expr())
        return left

    def and_expr(self) -> Expr:
        left = self.not_expr()
        while self.at("&&"):
            self.next()
            left = And(left, self.not_expr())
        return left

    def not_expr(self) -> Expr:
        if self.at("!"):
            self.next()
            return Not(self.not_expr())
        return self.comparison()

    def comparison(self) -> Expr:
        left = self.sum()
        tok = self.peek()
        if tok.text in ("==", "!=", "<=", ">=", "<", ">"):
            self.next()
            return Cmp(tok.text, left, self.sum())
        return left

    def sum(self) -> Expr:
        left = self.term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            left = BinOp(op, left, self.term())
        return left

    def term(self) -> Expr:
        left = self.atom()
        while self.peek().text in ("*", "/"):
            op = self.next().text
            left = BinOp(op, left, self.atom())
        return left

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return IntTerm(int(tok.text))
        if tok.text == "true":
            self.next()
            return BoolTerm(True)
        if tok.text == "false":
            self.next()
            return BoolTerm(False)
        if tok.text == "null":
            self.next()
            return NullTerm()
        if tok.text == "(":
            self.next()
            inner = self.expr()
            self.expect(")")
            return inner
        if tok.kind == "ident":
            return self.path()
        raise self.error("expected expression")


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def iter_exprs(e: Expr) -> Iterator[Expr]:
    """``e`` and every sub-expression, pre-order."""
    yield e
    if isinstance(e, (And, Or, Cmp, BinOp)):
        yield from iter_exprs(e.left)
        yield from iter_exprs(e.right)
    elif isinstance(e, Not):
        yield from iter_exprs(e.operand)


def _iter_stmts(body: tuple[Stmt, ...]) -> Iterator[Stmt]:
    for s in body:
        yield s
        if isinstance(s, If):
            yield from _iter_stmts(s.then)
            yield from _iter_stmts(s.orelse)
        elif isinstance(s, For):
            yield from _iter_stmts(s.body)


def iter_method_paths(m: MethodDef) -> Iterator[Path]:
    """All paths appearing in a method body (targets, bounds, expressions)."""
    for s in _iter_stmts(m.body):
        if isinstance(s, Assign):
            yield s.target
            for e in iter_exprs(s.value):
                if isinstance(e, Path):
                    yield e
        elif isinstance(s, If):
            for e in iter_exprs(s.cond):
                if isinstance(e, Path):
                    yield e
        elif isinstance(s, For):
            yield s.bound
        elif isinstance(s, Call):
            for a in s.args:
                for e in iter_exprs(a):
                    if isinstance(e, Path):
                        yield e


def _path_roots(path: Path) -> Iterator[str]:
    """The root of ``path`` and of every index path inside it, pre-order."""
    yield path.root
    for kind, payload in path.segments:
        if kind == "index" and isinstance(payload, Path):
            yield from _path_roots(payload)


class _Validator:
    def __init__(self, program: Program) -> None:
        self.program = program

    def run(self) -> None:
        seen_classes: set[str] = set()
        for cls in self.program.classes:
            if cls.name in seen_classes:
                raise DuplicateNameError(f"duplicate class {cls.name!r}")
            seen_classes.add(cls.name)
        for cls in self.program.classes:
            self._check_class(cls)

    def _check_class(self, cls: ClassDef) -> None:
        member_names: set[str] = set()
        for c in cls.consts:
            if c.name in member_names:
                raise DuplicateNameError(f"duplicate member {cls.name}.{c.name}")
            member_names.add(c.name)
        for f in cls.fields:
            if f.name in member_names:
                raise DuplicateNameError(f"duplicate member {cls.name}.{f.name}")
            member_names.add(f.name)
            self._check_type(f.type, f"field {cls.name}.{f.name}")
        method_names: set[str] = set()
        for m in cls.methods:
            if m.name in method_names:
                raise DuplicateNameError(f"duplicate method {cls.name}.{m.name}")
            method_names.add(m.name)
            self._check_method(cls, m, member_names)

    def _check_type(self, t: FieldType, where: str) -> None:
        if t.name in SCALAR_TYPES:
            if t.is_array:
                raise UndeclaredTypeError(f"{where}: arrays hold object refs, not scalars")
            return
        if self.program.class_named(t.name) is None:
            raise UndeclaredTypeError(f"{where}: undeclared type {t.name!r}")

    def _check_method(self, cls: ClassDef, m: MethodDef, members: set[str]) -> None:
        params: dict[str, FieldType] = {}
        for p in m.params:
            if p.name in members:
                raise DuplicateNameError(
                    f"parameter {p.name!r} of {cls.name}.{m.name} shadows a field")
            if p.name in params:
                raise DuplicateNameError(
                    f"duplicate parameter {p.name!r} in {cls.name}.{m.name}")
            self._check_type(p.type, f"parameter {p.name} of {cls.name}.{m.name}")
            params[p.name] = p.type
        self._check_body(cls, m, m.body, params, loop_vars=())

    def _check_body(self, cls: ClassDef, m: MethodDef, body: tuple[Stmt, ...],
                    params: dict[str, FieldType], loop_vars: tuple[str, ...]) -> None:
        where = f"{cls.name}.{m.name}"
        for s in body:
            if isinstance(s, Assign):
                self._check_path(s.target, params, loop_vars, where)
                self._check_expr(s.value, params, loop_vars, where)
            elif isinstance(s, If):
                self._check_expr(s.cond, params, loop_vars, where)
                self._check_body(cls, m, s.then, params, loop_vars)
                self._check_body(cls, m, s.orelse, params, loop_vars)
            elif isinstance(s, For):
                self._check_path(s.bound, params, loop_vars, where)
                self._check_body(cls, m, s.body, params, loop_vars + (s.var,))
            elif isinstance(s, Call):
                callee = next((mm for mm in cls.methods if mm.name == s.name), None)
                if callee is None:
                    raise UndeclaredTypeError(
                        f"{where}: call to unknown local method {s.name!r}")
                if len(s.args) != len(callee.params):
                    raise ArityError(
                        f"{where}: call to {s.name!r} passes {len(s.args)} "
                        f"argument(s); it takes {len(callee.params)}")
                for a in s.args:
                    self._check_expr(a, params, loop_vars, where)

    def _check_expr(self, e: Expr, params: dict[str, FieldType],
                    loop_vars: tuple[str, ...], where: str) -> None:
        for sub in iter_exprs(e):
            if isinstance(sub, Path):
                self._check_path(sub, params, loop_vars, where)

    def _check_path(self, path: Path, params: dict[str, FieldType],
                    loop_vars: tuple[str, ...], where: str) -> None:
        root = path.root
        if root in loop_vars:
            if path.segments:
                raise UndeclaredTypeError(f"{where}: loop variable {root!r} has no fields")
            return
        if root in params:
            cur = params[root]
        elif self.program.class_named(root) is not None:
            cur = FieldType(root)
        else:
            raise UndeclaredTypeError(f"{where}: unknown path root {root!r} in {path}")
        for kind, payload in path.segments:
            if kind == "length":
                if not cur.is_array:
                    raise UndeclaredTypeError(f"{where}: .length on non-array in {path}")
                cur = FieldType("int")
            elif kind == "index":
                if not cur.is_array:
                    raise UndeclaredTypeError(f"{where}: indexing non-array in {path}")
                if isinstance(payload, Path):
                    self._check_path(payload, params, loop_vars, where)
                cur = FieldType(cur.name)
            else:
                if cur.is_scalar or cur.is_array:
                    raise UndeclaredTypeError(
                        f"{where}: field access on non-object in {path}")
                owner = self.program.class_named(cur.name)
                if owner is None:
                    raise UndeclaredTypeError(f"{where}: undeclared class {cur.name!r}")
                nxt = owner.member_type(str(payload))
                if nxt is None:
                    raise UndeclaredTypeError(
                        f"{where}: {cur.name!r} has no member {payload!r} in {path}")
                cur = nxt


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def parse_program(source: str) -> Program:
    """Parse mini-IR text into a validated :class:`Program`.

    Raises :class:`IrSyntaxError` (with line/column), :class:`DuplicateNameError`,
    or :class:`UndeclaredTypeError`.
    """
    program = _Parser(_tokenize(source)).program()
    _Validator(program).run()
    return program


def parse_atom(text: str) -> "IntTerm | BoolTerm | NullTerm | Path":
    """One literal or path filling ``text``, read by the grammar's ``atom``;
    raises :class:`IrSyntaxError` on anything else."""
    parser = _Parser(_tokenize(text))
    if parser.at("("):
        raise parser.error("expected literal or path")
    atom = parser.atom()
    if not parser.at(""):
        raise parser.error("expected end of term")
    return atom


def pretty_print(program: Program) -> str:
    """Canonical text form; ``parse_program(pretty_print(p))`` is a fixpoint."""
    out: list[str] = []

    def emit_block(body: tuple[Stmt, ...], depth: int) -> None:
        pad = "  " * depth
        for s in body:
            if isinstance(s, Assign):
                out.append(f"{pad}{s.target} = {s.value};")
            elif isinstance(s, If):
                out.append(f"{pad}if ({s.cond}) {{")
                emit_block(s.then, depth + 1)
                if s.orelse:
                    out.append(f"{pad}}} else {{")
                    emit_block(s.orelse, depth + 1)
                out.append(f"{pad}}}")
            elif isinstance(s, For):
                out.append(f"{pad}for {s.var} in 0 .. {s.bound} {{")
                emit_block(s.body, depth + 1)
                out.append(f"{pad}}}")
            elif isinstance(s, Return):
                out.append(f"{pad}return;")
            elif isinstance(s, Call):
                args = ", ".join(str(a) for a in s.args)
                out.append(f"{pad}call {s.name}({args});")

    for cls in program.classes:
        out.append(f"class {cls.name} {{")
        for c in cls.consts:
            out.append(f"  const {c.name} = {c.value};")
        for f in cls.fields:
            out.append(f"  field {f.name}: {f.type};")
        for m in cls.methods:
            params = ", ".join(f"{p.name}: {p.type}" for p in m.params)
            out.append(f"  method {m.name}({params}) {{")
            emit_block(m.body, 2)
            out.append("  }")
        out.append("}")
        out.append("")
    return "\n".join(out)


@dataclass(frozen=True)
class DependencyGraph:
    """Class reference graph: A -> B when A mentions B in a field type,
    parameter type, or any path rooted at B inside a method body."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def successors(self, node: str) -> tuple[str, ...]:
        return tuple(b for a, b in self.edges if a == node)


def build_dependency_graph(program: Program) -> DependencyGraph:
    names = set(program.class_names)
    edges: list[tuple[str, str]] = []

    def add(a: str, b: str) -> None:
        if b in names and b != a and (a, b) not in edges:
            edges.append((a, b))

    for cls in program.classes:
        for f in cls.fields:
            add(cls.name, f.type.name)
        for m in cls.methods:
            for p in m.params:
                add(cls.name, p.type.name)
            for path in iter_method_paths(m):
                for root in _path_roots(path):
                    add(cls.name, root)
    return DependencyGraph(program.class_names, tuple(edges))


def detect_relevant_classes(graph: DependencyGraph,
                            targets: "set[str] | list[str] | tuple[str, ...]",
                            ) -> tuple[str, ...]:
    """All classes reachable from the targets (targets included), breadth-first.

    Targets are visited in declaration order, as are the successors of each
    node, so the result is deterministic for a given program.
    """
    order = {name: i for i, name in enumerate(graph.nodes)}
    for t in targets:
        if t not in order:
            raise UnknownTargetError(f"unknown target class {t!r}")
    frontier = sorted(set(targets), key=order.__getitem__)
    seen: list[str] = list(frontier)
    while frontier:
        nxt: list[str] = []
        for node in frontier:
            for succ in sorted(graph.successors(node), key=order.__getitem__):
                if succ not in seen:
                    seen.append(succ)
                    nxt.append(succ)
        frontier = nxt
    return tuple(seen)
