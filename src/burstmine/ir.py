"""Mini imperative IR: AST, parser, pretty-printer, and class dependency analysis.

The IR is a deliberately small object-oriented language: classes with integer
constants, scalar / object-ref / array-of-ref fields, and methods whose bodies
use assignments, conditionals, bounded ``for`` loops, returns, and local calls.
It is just expressive enough to encode the kind of state-dependent branching
logic that drives abstraction-function extraction.

The normative grammar ships with the package as ``data/grammar.ebnf``.
A token carries its offset in the source; an ``IrSyntaxError`` computes its
line and column from that offset when it is raised.  The parser binds each
path root to a loop variable (in its body, not in its bound), else a
parameter, else a class; ``Path.binding`` keeps the answer for the validator,
the dependency graph and symbolic execution.  Literals and paths are the
clause terms of ``functions`` (``ir.Path`` is ``functions.Path``), so
symbolic execution writes a guard's own paths into its clauses.  One walk
answers which paths a method mentions: ``_statements`` yields each
statement, nested ones included, and ``statement_paths`` the paths it
mentions outside its nested blocks; the validator and the dependency graph
use both, and symbolic execution the latter.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Union

from .functions import BoolTerm, IntTerm, NullTerm, Path


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
    bound: Path  # a path that reads an integer, e.g. an array length
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


def _syntax_error(source: str, pos: int, message: str) -> IrSyntaxError:
    """The error at offset ``pos``, its line and column counted from 1."""
    return IrSyntaxError(message, source.count("\n", 0, pos) + 1,
                         pos - source.rfind("\n", 0, pos))


def _tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        if kind == "bad":
            raise _syntax_error(source, m.start(), f"unexpected character {m[0]!r}")
        if kind != "skip":
            tokens.append(Token(kind, m[0], m.start()))
    tokens.append(Token("eof", "", len(source)))
    return tokens


# ---------------------------------------------------------------------------
# Parser (recursive descent)
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str) -> None:
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.scope: dict[str, str] = {}  # root name -> binding, in this method

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message: str) -> IrSyntaxError:
        tok = self.peek()
        return _syntax_error(self.source, tok.pos, f"{message} (got {tok.text!r})")

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
        self.scope = {p.name: "param" for p in params}
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
            outer, self.scope = self.scope, {**self.scope, var: "loop"}
            body = self.block()
            self.scope = outer
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
        return Path(root, tuple(segments), self.scope.get(root, "class"))

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


def statement_paths(stmt: Stmt) -> list[Path]:
    """The paths ``stmt`` mentions outside its nested blocks, in source order:
    an assignment's target and value, a guard, a loop bound, call arguments."""
    if isinstance(stmt, Assign):
        exprs: tuple[Expr, ...] = (stmt.target, stmt.value)
    elif isinstance(stmt, If):
        exprs = (stmt.cond,)
    elif isinstance(stmt, For):
        exprs = (stmt.bound,)
    elif isinstance(stmt, Call):
        exprs = stmt.args
    else:
        exprs = ()
    return [e for x in exprs for e in iter_exprs(x) if isinstance(e, Path)]


def _statements(body: tuple[Stmt, ...]) -> Iterator[Stmt]:
    """Each statement of ``body``, nested ones included, pre-order."""
    for s in body:
        yield s
        if isinstance(s, If):
            yield from _statements(s.then)
            yield from _statements(s.orelse)
        elif isinstance(s, For):
            yield from _statements(s.body)


def _class_roots(path: Path) -> Iterator[str]:
    """The class-bound roots of ``path`` and of its index paths, pre-order."""
    if path.binding == "class":
        yield path.root
    for kind, payload in path.segments:
        if kind == "index" and isinstance(payload, Path):
            yield from _class_roots(payload)


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
        where = f"{cls.name}.{m.name}"
        for s in _statements(m.body):
            if isinstance(s, Call):
                callee = next((mm for mm in cls.methods if mm.name == s.name), None)
                if callee is None:
                    raise UndeclaredTypeError(
                        f"{where}: call to unknown local method {s.name!r}")
                if len(s.args) != len(callee.params):
                    raise ArityError(
                        f"{where}: call to {s.name!r} passes {len(s.args)} "
                        f"argument(s); it takes {len(callee.params)}")
            for path in statement_paths(s):
                if (self._check_path(path, params, where) != FieldType("int")
                        and isinstance(s, For)):
                    raise UndeclaredTypeError(
                        f"{where}: loop bound {path} is not an integer")

    def _check_path(self, path: Path, params: dict[str, FieldType],
                    where: str) -> FieldType:
        """The type ``path`` reads; an index path must read an integer."""
        root = path.root
        if path.binding == "loop":
            if path.segments:
                raise UndeclaredTypeError(f"{where}: loop variable {root!r} has no fields")
            return FieldType("int")
        if path.binding == "param":
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
                if isinstance(payload, Path) and self._check_path(
                        payload, params, where) != FieldType("int"):
                    raise UndeclaredTypeError(
                        f"{where}: index {payload} is not an integer in {path}")
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
        return cur


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def parse_program(source: str) -> Program:
    """Parse mini-IR text into a validated :class:`Program`.

    Raises :class:`IrSyntaxError` (with line/column), :class:`DuplicateNameError`,
    or :class:`UndeclaredTypeError`.
    """
    program = _Parser(source).program()
    _Validator(program).run()
    return program


def parse_atom(text: str) -> "IntTerm | BoolTerm | NullTerm | Path":
    """One literal or path filling ``text``, read by the grammar's ``atom``;
    raises :class:`IrSyntaxError` on anything else."""
    parser = _Parser(text)
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
    parameter type, or a method-body path whose root the parser bound to B."""

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
            for s in _statements(m.body):
                for path in statement_paths(s):
                    for root in _class_roots(path):
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
