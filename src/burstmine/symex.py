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
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace

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
    keys: frozenset[str] = frozenset()
    branch_count: int = 0
    spawned: frozenset[tuple[str, int]] = frozenset()

    def with_clause(self, clause: Clause, *, count_branch: bool) -> "_PathState":
        return _PathState(
            self.clauses + (clause,),
            self.keys | {clause.key()},
            self.branch_count + (1 if count_branch else 0),
            self.spawned,
        )


class _Exhausted(Exception):
    """States/time budget tripped; unwind and keep partial results."""


@dataclass(frozen=True)
class _Block:
    stmts: tuple[ir.Stmt, ...]
    idx: int
    env: dict
    call_boundary: bool = False


@dataclass(frozen=True)
class _LoopHead:
    stmt: ir.For
    k: int
    env: dict


class _Executor:
    def __init__(self, program: ir.Program, cls: ir.ClassDef, method: ir.MethodDef,
                 bounds: SymexBounds) -> None:
        self.program = program
        self.cls = cls
        self.method = method
        self.bounds = bounds
        self.paths: list[PathCondition] = []
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
        if entry is not None:  # an inlined call argument
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

    def _emit(self, path: _PathState, truncated: bool = False) -> None:
        pid = f"P{len(self.paths)}"
        self.paths.append(PathCondition(
            path.clauses, (self.cls.name, self.method.name, pid), truncated))
        if truncated:
            self.report.truncated = True

    # -- array access modeling -------------------------------------------------

    def _length_term(self, array: FieldTerm) -> FieldTerm:
        return FieldTerm(array.root, array.segments + (("length", None),))

    def _bound_facts(self, path: _PathState, length: FieldTerm, k: int,
                     ) -> "str | None":
        """Return "in" / "out" when the path pins the access, else None."""
        lkey = str(length)
        for c in path.clauses:
            if str(c.lhs) != lkey or not isinstance(c.rhs, IntTerm):
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

    def _process_accesses(self, terms: list[Term], path: _PathState,
                          ) -> "_PathState | None":
        """Model element accesses; returns the path to continue with, or
        None when the path ended at a defensive abort (already emitted)."""
        for term in terms:
            for array, k in self._iter_literal_accesses(term):
                length = self._length_term(array)
                fact = self._bound_facts(path, length, k)
                if fact == "in":
                    continue
                if fact == "out":
                    self._emit(path)
                    return None
                tag = (str(array), k)
                if tag in path.spawned:
                    continue
                abort_clause = Clause(length, "<=", IntTerm(k))
                self._emit(replace(path, clauses=path.clauses + (abort_clause,)))
                path = replace(path, spawned=path.spawned | {tag})
        return path

    # -- exploration ------------------------------------------------------------

    def run(self) -> None:
        frames = (_Block(self.method.body, 0, {}),)
        try:
            self._go(frames, _PathState())
        except _Exhausted:
            pass

    def _go(self, frames: tuple, path: _PathState) -> None:
        self._tick()
        if not frames:
            self._emit(path)
            return
        top = frames[-1]
        if isinstance(top, _LoopHead):
            self._loop_head(frames, top, path)
            return
        if top.idx >= len(top.stmts):
            self._go(frames[:-1], path)
            return
        stmt = top.stmts[top.idx]
        rest = frames[:-1] + (replace(top, idx=top.idx + 1),)
        if isinstance(stmt, ir.Assign):
            terms = [self._path_term(p, top.env) for p in statement_paths(stmt)]
            cont = self._process_accesses(terms, path)
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
        self._emit(path)

    def _call(self, stmt: ir.Call, top: _Block, rest: tuple, path: _PathState) -> None:
        inlined = any(isinstance(f, _Block) and f.call_boundary for f in rest)
        if inlined:
            self.report.havocked_calls += 1
            self._go(rest, path)
            return
        callee = next(m for m in self.cls.methods if m.name == stmt.name)
        env = {p.name: ("arg", arg, top.env)
               for p, arg in zip(callee.params, stmt.args)}
        self._go(rest + (_Block(callee.body, 0, env, call_boundary=True),), path)

    def _loop_head(self, frames: tuple, head: _LoopHead, path: _PathState) -> None:
        below = frames[:-1]
        if head.k >= self.bounds.max_loop_unrollings:
            self._emit(path, truncated=True)
            self._go(below, path)
            return
        guard = ir.Cmp(">", head.stmt.bound, IntTerm(head.k))
        body_env = dict(head.env)
        body_env[head.stmt.var] = ("loop", head.k)

        def enter(p: _PathState) -> None:
            nxt = below + (replace(head, k=head.k + 1),
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
        elif isinstance(cond, ir.Path):
            self._atom(ir.Cmp("==", cond, BoolTerm(True)), env, path, k_true, k_false)
        elif isinstance(cond, ir.Cmp):
            self._atom(cond, env, path, k_true, k_false)
        else:
            raise SymexError(f"unsupported guard expression {cond}")

    def _atom(self, cmp: ir.Cmp, env: dict, path: _PathState,
              k_true, k_false) -> None:
        lhs = self._expr_term(cmp.left, env)
        rhs = self._expr_term(cmp.right, env)
        cont = self._process_accesses([lhs, rhs], path)
        if cont is None:
            return
        path = cont
        pos = Clause(lhs, cmp.op, rhs)
        neg = pos.mirrored()
        if not pos.references_state():
            # Pure constant comparison: decide it as a probe would, record nothing.
            value = eval_clause(pos, ConcreteState())
            if value == "U":
                raise SymexError(f"undecidable constant guard {pos}")
            (k_true if value == "T" else k_false)(path)
            return
        if pos.key() in path.keys:
            k_true(path)
            return
        if neg.key() in path.keys:
            k_false(path)
            return
        if self._statically_true(pos):
            k_true(path.with_clause(pos, count_branch=False))
            return
        if self._statically_true(neg):
            k_false(path.with_clause(neg, count_branch=False))
            return
        if path.branch_count + 1 > self.bounds.max_branches_per_path:
            self._emit(path, truncated=True)
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
    ex = _Executor(program, cls, method, bounds)
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
    for cls_name in relevant:
        cls = program.class_named(cls_name)
        if cls is None:
            raise SymexError(f"relevant class {cls_name!r} not in program")
        for method in cls.methods:
            paths, mreport = symbolic_execute(method, program, bounds, cls.name)
            report.methods[f"{cls.name}.{method.name}"] = mreport
            for pc in paths:
                af = strip_parameter_clauses(pc)
                if af is None:
                    continue
                key = af.clause_keys()
                if key in seen:
                    continue
                seen.add(key)
                mkey = f"{cls.name}.{method.name}"
                per_method_counter[mkey] = per_method_counter.get(mkey, 0) + 1
                result.append(AbstractionFunction(
                    f"{mkey}-F{per_method_counter[mkey]}", af.clauses, pc.origin))
    return result, report
