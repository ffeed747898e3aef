"""Mini imperative IR: AST, parser, pretty-printer, and class dependency analysis.

The IR is a deliberately small object-oriented language: classes with integer
constants, scalar / object-ref / array-of-ref fields, and methods whose bodies
use assignments, conditionals, bounded ``for`` loops, returns, and local calls.
It is just expressive enough to encode the kind of state-dependent branching
logic that drives abstraction-function extraction.

The normative grammar ships with the package as ``data/grammar.ebnf``.
The parser extends ``functions._TermParser``, which owns its tokens and
terms; an ``IrSyntaxError`` names the line and column of a token's offset.
The parser binds each path root to a loop variable (in its body, not in its
bound), else a parameter, else a class; ``Path.binding`` keeps the answer
for the validator, the dependency graph and symbolic execution.  Literals
and paths are the clause terms of ``functions`` (``ir.Path`` is
``functions.Path``), so symbolic execution writes a guard's own paths into
its clauses.  One walk
answers which paths a method mentions: ``_statements`` yields each
statement, nested ones included, and ``statement_paths`` the paths it
mentions outside its nested blocks; the dependency graph uses both, and
symbolic execution the latter.

``BinOp`` is the one binary node, for ``||``, ``&&``, the comparisons and
arithmetic alike, and ``PRECEDENCE`` the one table of how tightly each
operator binds: the parser climbs it, and ``BinOp.__str__`` reads it to
parenthesise an operand only where it binds looser than its place needs, so
``parse_program(pretty_print(p)) == p``.  The validator walks each
statement's expressions once, in source order, checking each path and
typing what would otherwise make a probe unknown on every state: a path
read as a condition, a comparison with a path operand, a call argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from .functions import COMPARE_OPS, BoolTerm, IntTerm, NullTerm, Path, _TermParser


class IrError(ValueError):
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


# How tightly each binary operator binds, loosest first; ``!`` binds between
# ``&&`` and the comparisons.  Every operator is left-associative, and
# comparisons do not chain.  The parser and the printer both read this table.
PRECEDENCE = {"||": 1, "&&": 2, **dict.fromkeys(COMPARE_OPS, 4),
              "+": 5, "-": 5, "*": 6, "/": 6}
NOT_PRECEDENCE = 3
_ATOM_PRECEDENCE = 7


def _operand(e: "Expr", floor: int) -> str:
    """``e`` as an operand in a place that needs it to bind at ``floor`` or
    tighter: in parentheses when it binds looser."""
    prec = (PRECEDENCE[e.op] if isinstance(e, BinOp) else
            NOT_PRECEDENCE if isinstance(e, Not) else _ATOM_PRECEDENCE)
    return f"({e})" if prec < floor else str(e)


@dataclass(frozen=True)
class BinOp:
    op: str  # a key of PRECEDENCE
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        prec = PRECEDENCE[self.op]
        left = _operand(self.left, prec + (self.op in COMPARE_OPS))
        return f"{left} {self.op} {_operand(self.right, prec + 1)}"


@dataclass(frozen=True)
class Not:
    operand: "Expr"

    def __str__(self) -> str:
        return f"!({self.operand})"


Expr = Union[IntTerm, BoolTerm, NullTerm, Path, BinOp, Not]


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
# Parser (recursive descent)
# ---------------------------------------------------------------------------


class _Parser(_TermParser):
    """The term parser, binding a root by scope; an atom may be ``( expr )``."""

    syntax_error = IrSyntaxError  # built from (message, line, col)

    def __init__(self, source: str) -> None:
        super().__init__(source)
        self.scope: dict[str, str] = {}  # root name -> binding, in this method

    def binding(self, root: str) -> str:
        return self.scope.get(root, "class")

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

    def expr(self, floor: int = 1) -> Expr:
        """The expression here whose operators bind at ``floor`` or tighter,
        by precedence climbing over ``PRECEDENCE``.  After a comparison or a
        ``!`` only a looser operator may follow, so comparisons do not chain."""
        ceiling = _ATOM_PRECEDENCE
        if self.at("!") and floor <= NOT_PRECEDENCE:
            self.next()
            left, ceiling = Not(self.expr(NOT_PRECEDENCE)), NOT_PRECEDENCE
        else:
            left = self.atom()
        while floor <= (prec := PRECEDENCE.get(self.peek().text, 0)) < ceiling:
            op = self.next().text
            left = BinOp(op, left, self.expr(prec + 1))
            if op in COMPARE_OPS:
                ceiling = prec
        return left

    def atom(self) -> Expr:
        if self.at("("):
            self.next()
            inner = self.expr()
            self.expect(")")
            return inner
        return super().atom()


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def iter_exprs(e: Expr) -> Iterator[Expr]:
    """``e`` and every sub-expression, pre-order."""
    yield e
    if isinstance(e, BinOp):
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


# The type of each literal; ``null`` is a keyword, so no class is named so.
_INT, _BOOL, _NULL = FieldType("int"), FieldType("bool"), FieldType("null")
_LITERAL_TYPES = {IntTerm: _INT, BoolTerm: _BOOL, NullTerm: _NULL}


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
            if isinstance(s, Assign):
                self._check_expr(s.target, params, where)
                self._check_expr(s.value, params, where)
            elif isinstance(s, If):
                self._check_condition(s.cond, params, where)
            elif isinstance(s, For):
                if self._check_expr(s.bound, params, where) != _INT:
                    raise UndeclaredTypeError(
                        f"{where}: loop bound {s.bound} is not an integer")
            elif isinstance(s, Call):
                self._check_call(s, cls, params, where)

    def _check_call(self, s: Call, cls: ClassDef, params: dict[str, FieldType],
                    where: str) -> None:
        """A call names a method of ``cls`` and passes one argument of each
        parameter's type (``null`` may fill a class-typed one)."""
        callee = next((mm for mm in cls.methods if mm.name == s.name), None)
        if callee is None:
            raise UndeclaredTypeError(f"{where}: call to unknown local method {s.name!r}")
        if len(s.args) != len(callee.params):
            raise ArityError(
                f"{where}: call to {s.name!r} passes {len(s.args)} "
                f"argument(s); it takes {len(callee.params)}")
        for p, arg in zip(callee.params, s.args):
            t = self._check_expr(arg, params, where)
            if t not in (None, p.type) and not (t == _NULL and not p.type.is_scalar):
                raise UndeclaredTypeError(
                    f"{where}: call to {s.name!r} passes {arg}: {t} for {p.name}: {p.type}")

    def _check_expr(self, e: Expr, params: dict[str, FieldType],
                    where: str) -> FieldType | None:
        """Check ``e``'s paths in source order, and what in ``e`` would make a
        probe unknown on every state: a path read as a condition that is not
        a bool, and a comparison with a path operand that orders anything
        but two ints or sets an int or a bool against another type (a bool,
        an int, ``null`` or an object ref).  Returns the type of a path or a
        literal; a compound expression is not typed (None)."""
        if isinstance(e, Path):
            return self._check_path(e, params, where)
        if isinstance(e, Not):
            self._check_condition(e.operand, params, where)
            return None
        if not isinstance(e, BinOp):
            return _LITERAL_TYPES[type(e)]
        if e.op in ("&&", "||"):
            self._check_condition(e.left, params, where)
            self._check_condition(e.right, params, where)
            return None
        left = self._check_expr(e.left, params, where)
        right = self._check_expr(e.right, params, where)
        if (e.op in COMPARE_OPS and None not in (left, right)
                and (isinstance(e.left, Path) or isinstance(e.right, Path))
                and (left != right and (left.is_scalar or right.is_scalar)
                     if e.op in ("==", "!=") else left != _INT or right != _INT)):
            raise UndeclaredTypeError(f"{where}: {e} compares {left} with {right}")
        return None

    def _check_condition(self, e: Expr, params: dict[str, FieldType],
                         where: str) -> None:
        """A path read as a condition (a whole guard, or an operand of ``!``,
        ``&&`` or ``||``) reads a bool."""
        if self._check_expr(e, params, where) != _BOOL and isinstance(e, Path):
            raise UndeclaredTypeError(f"{where}: condition {e} is not a boolean")

    def _check_path(self, path: Path, params: dict[str, FieldType],
                    where: str) -> FieldType:
        """The type ``path`` reads; an index path must read an integer."""
        root = path.root
        if path.binding == "loop":
            if path.segments:
                raise UndeclaredTypeError(f"{where}: loop variable {root!r} has no fields")
            return _INT
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
                cur = _INT
            elif kind == "index":
                if not cur.is_array:
                    raise UndeclaredTypeError(f"{where}: indexing non-array in {path}")
                if isinstance(payload, Path) and self._check_path(
                        payload, params, where) != _INT:
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
