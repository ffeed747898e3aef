"""Bounded symbolic execution of mini-IR methods.

Each method of each relevant class is explored depth-first, each atomic
comparison's true side first (so ``if (!(x > 0))`` explores its else path
first), accumulating one clause per branch decision.  Entry-to-exit paths,
defensive aborts at statically-empty array accesses, and bound truncations
each emit a path condition; stripping parameter clauses from those turns
them into abstraction functions.

Exploration rules
-----------------
* Guards are decomposed per short-circuit atomic comparison; the taken
  polarity is recorded (negations fold into the mirrored operator).
* Re-branching on a comparison whose polarity is already pinned by the path
  follows the pinned side silently, so re-tested conditions add no clauses.
* Comparisons of the form ``term >= 0`` where *term* is an array length or a
  declared constant are statically true; they are recorded as assumptions
  without forking.  They still matter at runtime: both evaluate to unknown
  when the owning object is missing.
* ``for v in 0 .. B`` loops explore ``max_loop_unrollings`` symbolic
  iterations (default one).  The unroll-k guard records ``B > k`` on entry
  and its mirror on exit; at the bound the running condition is emitted with
  a truncation flag and exploration resumes after the loop.
* Element accesses at a concrete index ``k``: if the path already pins the
  array non-empty the access is silent; if it pins the array empty the path
  ends at the access (a defensive abort) and is emitted; otherwise the abort
  case is emitted as its own completed path (condition plus
  ``length == 0``) and the main path continues.  Accesses indexed by a field
  path are not bound-modeled.
* Pure constant-vs-constant comparisons never reach clauses: they are
  decided by the same ternary evaluator that runs probes, over an empty
  state.  One it calls unknown (``null < 1``, a bool against an int,
  ordered bools) is an error.
* Assignments do not constrain later guards (conditions speak about
  observable state, and infeasible paths are left for the filtering stage
  to discard).
* Local calls are inlined one level; calls inside inlined bodies are
  havocked (skipped, counted in the report).  A path rooted at an argument
  splices the argument (read in the caller) before the callee's own
  segments, whose indices are read in the callee.
* A path root is read as the IR validator reads it: a loop variable, then a
  parameter of the method (an argument, in an inlined callee), then a class.
  A parameter named like a class is a parameter, and a path pins its guards
  by clause object, so a parameter's ``B.x > 0`` does not decide the guard
  ``B.x > 0`` on the class ``B`` in an inlined callee.

Sharing
-------
One clause table serves an extraction: every path condition and every
extracted function holds one ``Clause`` object per distinct clause, so the
AF-list writer finds each by identity.  A guard's terms, element accesses and
clause pair are built once per guard and scope (the env it is read in), and
sibling paths share them; so are an assignment's accesses, an unrolling's
guard and body env, and an inlined call's env.  Each kept function is built
once, with its final id.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

from . import ir
from .functions import (AbstractionFunction, BoolTerm, Clause, FieldTerm,
                        IntTerm, NullTerm, ParamTerm, PathCondition, Term)
from .ir import statement_paths
from .states import ConcreteState, eval_clause


class SymexError(Exception):
    pass


@dataclass(frozen=True)
class SymexBounds:
    """Exploration budgets; all finite and strictly positive."""

    max_branches_per_path: int = 10
    max_states: int = 1000
    per_method_time_budget: float = 60.0
    max_loop_unrollings: int = 1

    def __post_init__(self) -> None:
        if not all(0 < v < math.inf for v in asdict(self).values()):
            raise ValueError("symbolic-execution bounds must be finite and positive")


@dataclass
class MethodReport:
    paths: int = 0
    truncated: bool = False
    states_visited: int = 0
    havocked_calls: int = 0


@dataclass
class _PathState:
    clauses: tuple[Clause, ...] = ()
    # The ids of its guard clauses, each the extraction's one object for its
    # clause (see ``_Executor._shared``): a parameter's guard ``B.x > 0`` is
    # not the guard of a class ``B`` that prints the same.
    guard_ids: frozenset[int] = frozenset()
    branch_count: int = 0
    spawned: frozenset[tuple[str, int]] = frozenset()

    def with_clause(self, clause: Clause, *, count_branch: bool) -> "_PathState":
        return _PathState(
            self.clauses + (clause,),
            self.guard_ids | {id(clause)},
            self.branch_count + (1 if count_branch else 0),
            self.spawned,
        )


class _Exhausted(Exception):
    """States/time budget tripped; unwind and keep partial results."""


class _Block(NamedTuple):
    stmts: tuple[ir.Stmt, ...]
    idx: int
    env: dict
    call_boundary: bool = False


class _LoopHead(NamedTuple):
    stmt: ir.For
    k: int
    env: dict


class _Executor:
    def __init__(self, program: ir.Program, cls: ir.ClassDef, method: ir.MethodDef,
                 bounds: SymexBounds, clauses: dict) -> None:
        self.program = program
        self.cls = cls
        self.method = method
        self.bounds = bounds
        self.paths: list[PathCondition] = []
        self._clauses = clauses  # the extraction's table: see ``_shared``
        # What a statement or guard builds in one scope (env), shared by every
        # path that reaches it there: see ``_once``.
        self._scoped: dict[tuple, tuple] = {}
        self.report = MethodReport()
        self._deadline = time.monotonic() + bounds.per_method_time_budget
        self._const_names = {
            c.name: {cd.name for cd in c.consts} for c in program.classes
        }

    # -- term construction ---------------------------------------------------

    def _index_term(self, idx: "int | ir.Path", env: dict) -> "int | Term":
        if isinstance(idx, int):
            return idx
        # A loop variable or an inlined literal argument is a concrete index.
        term = self._path_term(idx, env)
        return term.value if isinstance(term, IntTerm) else term

    def _path_term(self, path: ir.Path, env: dict) -> Term:
        entry = env.get(path.root)
        if entry is not None and entry[0] == "loop":
            if path.segments:
                raise SymexError(f"loop variable {path.root!r} has no fields")
            return IntTerm(entry[1])
        # The path's own indices are read where it is written, even when its
        # root is an inlined call argument read in the caller's env.
        segments = tuple((kind, self._index_term(p, env) if kind == "index" else p)
                         for kind, p in path.segments)
        if entry is not None and entry[0] == "arg":  # an inlined call argument
            _, arg_expr, caller_env = entry
            if isinstance(arg_expr, ir.Path):
                base = self._path_term(arg_expr, caller_env)
                if not segments:
                    return base
                if not isinstance(base, (FieldTerm, ParamTerm)):
                    raise SymexError(f"argument {arg_expr} has no fields")
                return type(base)(base.root, base.segments + segments)
            if not path.segments:
                return self._expr_term(arg_expr, caller_env)
        # The analyzed method's parameters are in env, so they hide a class
        # of the same name, as in the IR's own scope rule.
        if entry is None and self.program.class_named(path.root) is not None:
            return FieldTerm(path.root, segments)
        # a parameter of the analyzed method, or a path into a literal argument
        return ParamTerm(path.root, segments)

    def _expr_term(self, expr: ir.Expr, env: dict) -> Term:
        if isinstance(expr, (IntTerm, BoolTerm, NullTerm)):
            return expr
        if isinstance(expr, ir.Path):
            return self._path_term(expr, env)
        raise SymexError(
            f"comparison operands must be paths or literals, got {expr}")

    # -- static classification -----------------------------------------------

    def _is_const_field(self, term: Term) -> bool:
        if not isinstance(term, FieldTerm) or len(term.segments) != 1:
            return False
        kind, name = term.segments[0]
        return kind == "field" and name in self._const_names.get(term.root, set())

    def _statically_true(self, c: Clause) -> bool:
        if c.op != ">=" or not isinstance(c.rhs, IntTerm) or c.rhs.value != 0:
            return False
        lhs = c.lhs
        return (isinstance(lhs, FieldTerm) and lhs.is_length) or self._is_const_field(lhs)

    # -- budget / emission ----------------------------------------------------

    def _tick(self) -> None:
        self.report.states_visited += 1
        if self.report.states_visited > self.bounds.max_states:
            self.report.truncated = True
            raise _Exhausted()
        if time.monotonic() > self._deadline:
            self.report.truncated = True
            raise _Exhausted()

    def _emit(self, clauses: tuple[Clause, ...], truncated: bool = False) -> None:
        pid = f"P{len(self.paths)}"
        self.paths.append(PathCondition(
            clauses, (self.cls.name, self.method.name, pid), truncated))
        if truncated:
            self.report.truncated = True

    # -- array access modeling -------------------------------------------------

    def _length_term(self, array: FieldTerm) -> FieldTerm:
        return FieldTerm(array.root, array.segments + (("length", None),))

    def _bound_facts(self, path: _PathState, length: FieldTerm, k: int,
                     ) -> "str | None":
        """Return "in" / "out" when the path pins the access, else None."""
        for c in path.clauses:
            if c.lhs != length or not isinstance(c.rhs, IntTerm):
                continue
            v = c.rhs.value
            if c.op == ">" and v >= k:
                return "in"
            if c.op == ">=" and v >= k + 1:
                return "in"
            if c.op == "==" and v > k:
                return "in"
            if c.op == "==" and v <= k:
                return "out"
            if c.op == "<=" and v <= k:
                return "out"
            if c.op == "<" and v <= k + 1:
                return "out"
        return None

    def _iter_literal_accesses(self, term: Term):
        """Yield (array term, concrete index) pairs inside a term."""
        if not isinstance(term, FieldTerm):
            return
        for i, (kind, payload) in enumerate(term.segments):
            if kind != "index":
                continue
            if isinstance(payload, FieldTerm):
                yield from self._iter_literal_accesses(payload)
            elif isinstance(payload, int):
                yield FieldTerm(term.root, term.segments[:i]), payload

    def _accesses(self, terms: list[Term]) -> tuple:
        """The concrete-index element accesses inside ``terms``: per access
        the array's length term, the index, the access's tag and the clause
        of its defensive abort."""
        return tuple(
            (length, k, (str(array), k), self._shared(Clause(length, "<=", IntTerm(k))))
            for term in terms for array, k in self._iter_literal_accesses(term)
            for length in (self._length_term(array),))

    def _process_accesses(self, accesses: tuple, path: _PathState,
                          ) -> "_PathState | None":
        """Model element accesses; returns the path to continue with, or
        None when the path ended at a defensive abort (already emitted)."""
        for length, k, tag, abort_clause in accesses:
            fact = self._bound_facts(path, length, k)
            if fact == "in":
                continue
            if fact == "out":
                self._emit(path.clauses)
                return None
            if tag in path.spawned:
                continue
            self._emit(path.clauses + (abort_clause,))
            path = _PathState(path.clauses, path.guard_ids, path.branch_count,
                              path.spawned | {tag})
        return path

    # -- sharing ----------------------------------------------------------------

    def _shared(self, clause: Clause) -> Clause:
        """The extraction's one clause equal to ``clause``.  A parameter-free
        clause is keyed by its text, which names it; one that mentions a
        parameter by value, as a parameter prints as a class of its name."""
        key = clause if clause.mentions_parameter() else clause.key()
        return self._clauses.setdefault(key, clause)

    def _once(self, key: tuple, env: dict, build):
        """``build()``, once per ``key`` (a node's id, ``env``'s id and
        perhaps more) while the executor lives.  The entry holds ``env``, so
        that its id stays the env's."""
        found = self._scoped.get(key)
        if found is None:
            found = self._scoped[key] = env, build()
        return found[1]

    def _guard(self, node: "ir.Cmp | ir.Path", env: dict) -> tuple:
        """A comparison's (or a boolean path's) element accesses and clause
        pair in ``env``."""
        if isinstance(node, ir.Path):  # a boolean path tests ``path == true``
            op, left, right = "==", node, BoolTerm(True)
        else:
            op, left, right = node.op, node.left, node.right
        lhs = self._expr_term(left, env)
        rhs = self._expr_term(right, env)
        pos = self._shared(Clause(lhs, op, rhs))
        return self._accesses([lhs, rhs]), pos, self._shared(pos.mirrored())

    # -- exploration ------------------------------------------------------------

    def run(self) -> None:
        env = {p.name: ("param",) for p in self.method.params}
        frames = (_Block(self.method.body, 0, env),)
        try:
            self._go(frames, _PathState())
        except _Exhausted:
            pass

    def _go(self, frames: tuple, path: _PathState) -> None:
        self._tick()
        if not frames:
            self._emit(path.clauses)
            return
        top = frames[-1]
        if isinstance(top, _LoopHead):
            self._loop_head(frames, top, path)
            return
        if top.idx >= len(top.stmts):
            self._go(frames[:-1], path)
            return
        stmt = top.stmts[top.idx]
        rest = frames[:-1] + (_Block(top.stmts, top.idx + 1, top.env, top.call_boundary),)
        if isinstance(stmt, ir.Assign):
            accesses = self._once((id(stmt), id(top.env)), top.env, lambda: self._accesses(
                [self._path_term(p, top.env) for p in statement_paths(stmt)]))
            cont = self._process_accesses(accesses, path)
            if cont is not None:
                self._go(rest, cont)
        elif isinstance(stmt, ir.Return):
            self._return(rest, path)
        elif isinstance(stmt, ir.If):
            self._branch(
                stmt.cond, top.env, path,
                lambda p: self._go(rest + (_Block(stmt.then, 0, top.env),), p),
                lambda p: self._go(
                    rest + (_Block(stmt.orelse, 0, top.env),) if stmt.orelse else rest,
                    p))
        elif isinstance(stmt, ir.For):
            self._go(rest + (_LoopHead(stmt, 0, top.env),), path)
        elif isinstance(stmt, ir.Call):
            self._call(stmt, top, rest, path)
        else:  # pragma: no cover - parser cannot produce other nodes
            raise SymexError(f"unsupported statement {stmt!r}")

    def _return(self, frames: tuple, path: _PathState) -> None:
        # Unwind to the innermost inlined-call boundary, or end the method.
        for i in range(len(frames) - 1, -1, -1):
            f = frames[i]
            if isinstance(f, _Block) and f.call_boundary:
                self._go(frames[:i], path)
                return
        self._emit(path.clauses)

    def _call(self, stmt: ir.Call, top: _Block, rest: tuple, path: _PathState) -> None:
        inlined = any(isinstance(f, _Block) and f.call_boundary for f in rest)
        if inlined:
            self.report.havocked_calls += 1
            self._go(rest, path)
            return

        def inline() -> tuple:
            callee = next(m for m in self.cls.methods if m.name == stmt.name)
            return callee.body, {p.name: ("arg", arg, top.env)
                                 for p, arg in zip(callee.params, stmt.args)}

        body, env = self._once((id(stmt), id(top.env)), top.env, inline)
        self._go(rest + (_Block(body, 0, env, call_boundary=True),), path)

    def _loop_head(self, frames: tuple, head: _LoopHead, path: _PathState) -> None:
        below = frames[:-1]
        if head.k >= self.bounds.max_loop_unrollings:
            self._emit(path.clauses, truncated=True)
            self._go(below, path)
            return

        def unroll() -> tuple:
            return (ir.Cmp(">", head.stmt.bound, IntTerm(head.k)),
                    {**head.env, head.stmt.var: ("loop", head.k)})

        guard, body_env = self._once((id(head.stmt), id(head.env), head.k), head.env,
                                     unroll)

        def enter(p: _PathState) -> None:
            nxt = below + (_LoopHead(head.stmt, head.k + 1, head.env),
                           _Block(head.stmt.body, 0, body_env))
            self._go(nxt, p)

        self._branch(guard, head.env, path, enter, lambda p: self._go(below, p))

    # -- guard branching -----------------------------------------------------

    def _branch(self, cond: ir.Expr, env: dict, path: _PathState,
                k_true, k_false) -> None:
        if isinstance(cond, ir.And):
            self._branch(cond.left, env, path,
                         lambda p: self._branch(cond.right, env, p, k_true, k_false),
                         k_false)
        elif isinstance(cond, ir.Or):
            self._branch(cond.left, env, path, k_true,
                         lambda p: self._branch(cond.right, env, p, k_true, k_false))
        elif isinstance(cond, ir.Not):
            self._branch(cond.operand, env, path, k_false, k_true)
        elif isinstance(cond, BoolTerm):
            (k_true if cond.value else k_false)(path)
        elif isinstance(cond, (ir.Path, ir.Cmp)):
            self._atom(cond, env, path, k_true, k_false)
        else:
            raise SymexError(f"unsupported guard expression {cond}")

    def _atom(self, node: "ir.Cmp | ir.Path", env: dict, path: _PathState,
              k_true, k_false) -> None:
        accesses, pos, neg = self._once((id(node), id(env)), env,
                                        lambda: self._guard(node, env))
        cont = self._process_accesses(accesses, path)
        if cont is None:
            return
        path = cont
        if not pos.references_state():
            # Pure constant comparison: decide it as a probe would, record nothing.
            value = eval_clause(pos, ConcreteState())
            if value == "U":
                raise SymexError(f"undecidable constant guard {pos}")
            (k_true if value == "T" else k_false)(path)
            return
        if id(pos) in path.guard_ids:
            k_true(path)
            return
        if id(neg) in path.guard_ids:
            k_false(path)
            return
        if self._statically_true(pos):
            k_true(path.with_clause(pos, count_branch=False))
            return
        if self._statically_true(neg):
            k_false(path.with_clause(neg, count_branch=False))
            return
        if path.branch_count + 1 > self.bounds.max_branches_per_path:
            self._emit(path.clauses, truncated=True)
            return
        k_true(path.with_clause(pos, count_branch=True))
        k_false(path.with_clause(neg, count_branch=True))


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def symbolic_execute(method: ir.MethodDef, program: ir.Program,
                     bounds: SymexBounds | None = None,
                     class_name: str | None = None,
                     ) -> tuple[list[PathCondition], MethodReport]:
    """Explore one method; returns its path conditions in exploration order.

    Bound exhaustion is not an error: exploration is cut and the partial
    conditions carry a truncation flag (also summarized in the report).
    """
    bounds = bounds or SymexBounds()
    cls = None
    if class_name is not None:
        cls = program.class_named(class_name)
    else:
        for c in program.classes:
            if any(m is method or m == method for m in c.methods):
                cls = c
                break
    if cls is None:
        raise SymexError("method does not belong to the given program")
    return _explore(program, cls, method, bounds, {})


def _explore(program: ir.Program, cls: ir.ClassDef, method: ir.MethodDef,
             bounds: SymexBounds, clauses: dict,
             ) -> tuple[list[PathCondition], MethodReport]:
    ex = _Executor(program, cls, method, bounds, clauses)
    ex.run()
    ex.report.paths = len(ex.paths)
    return ex.paths, ex.report


def strip_parameter_clauses(pc: PathCondition,
                            af_id: str | None = None,
                            ) -> AbstractionFunction | None:
    """Drop clauses mentioning parameters; None when nothing survives."""
    kept = tuple(c for c in pc.clauses if not c.mentions_parameter())
    if not kept:
        return None
    cls, method, pid = pc.origin
    return AbstractionFunction(af_id or f"{cls}.{method}-{pid}", kept, pc.origin)


@dataclass
class ExtractionReport:
    methods: dict = field(default_factory=dict)  # "Cls.method" -> MethodReport
    bounds: SymexBounds = field(default_factory=SymexBounds)

    def to_header(self) -> dict:
        return {
            "bounds": asdict(self.bounds),
            "truncated": sorted(k for k, r in self.methods.items() if r.truncated),
            "paths": {k: r.paths for k, r in self.methods.items()},
        }


def extract_abstraction_functions(program: ir.Program,
                                  relevant: "tuple[str, ...] | list[str]",
                                  bounds: SymexBounds | None = None,
                                  ) -> tuple[list[AbstractionFunction], ExtractionReport]:
    """Steps 1+2 composition: classes in relevant order, methods in
    declaration order, paths in exploration order; syntactically identical
    functions (clauses are canonical, so equal keys mean equal
    conjunctions) are kept once, first wins."""
    bounds = bounds or SymexBounds()
    report = ExtractionReport(bounds=bounds)
    result: list[AbstractionFunction] = []
    seen: set[tuple[str, ...]] = set()
    per_method_counter: dict[str, int] = {}
    clauses: dict = {}  # one Clause per distinct clause, for every method
    for cls_name in relevant:
        cls = program.class_named(cls_name)
        if cls is None:
            raise SymexError(f"relevant class {cls_name!r} not in program")
        for method in cls.methods:
            paths, mreport = _explore(program, cls, method, bounds, clauses)
            mkey = f"{cls.name}.{method.name}"
            report.methods[mkey] = mreport
            for pc in paths:
                n = per_method_counter.get(mkey, 0) + 1
                af = strip_parameter_clauses(pc, f"{mkey}-F{n}")
                if af is None:
                    continue
                key = af.clause_keys()
                if key in seen:
                    continue
                seen.add(key)
                per_method_counter[mkey] = n
                result.append(af)
    return result, report
