import importlib
import itertools
import pkgutil
from types import SimpleNamespace

import pytest

import burstmine
from burstmine import ir, symex
from burstmine.cli import main
from burstmine.functions import (Clause, IntTerm, Path, dump_af_list,
                                 load_af_list, parse_term)
from burstmine.ir import parse_program
from burstmine.states import ConcreteObject, ConcreteState, eval_function
from burstmine.symex import (SymexBounds, SymexError,
                             extract_abstraction_functions,
                             strip_parameter_clauses, symbolic_execute)
from burstmine.functions import PathCondition

from conftest import cart_source

# Frozen 14-row reference table for the shopping-cart subject, as clause
# sets (clause order within a function is presentation detail).
CART_TABLE = {
    "addItem": [
        {"Cart.nProducts != 0", "Cart.products.length >= 0"},
        {"Cart.nProducts == 0", "Cart.CART_SIZE >= 0",
         "Cart.nProducts < Cart.CART_SIZE"},
        {"Cart.nProducts == 0", "Cart.CART_SIZE >= 0",
         "Cart.nProducts >= Cart.CART_SIZE"},
        {"Cart.nProducts == 0", "Cart.products.length == 0"},
    ],
    "applyDiscount": [
        {"Cart.nProducts > 0", "Cart.products.length > 0"},
        {"Cart.nProducts > 0", "Cart.products.length == 0"},
        {"Cart.nProducts > 0", "Cart.products.length > 0",
         "Cart.products.[0].value >= Cart.PRICE"},
        {"Cart.nProducts > 0", "Cart.products.length > 0",
         "Cart.products.[0].value < Cart.PRICE"},
    ],
    "calculateTotal": [
        {"Cart.products.length > 0", "Cart.products.[0].taxFree == true"},
        {"Cart.products.length > 0", "Cart.products.[0].taxFree == false"},
        {"Cart.products.length > 0"},
        {"Cart.products.length == 0"},
    ],
    "emptyCart": [
        {"Cart.nProducts <= 0"},
        {"Cart.nProducts > 0", "Cart.CART_SIZE >= 0"},
    ],
}


@pytest.fixture(scope="module")
def cart_program():
    return parse_program(cart_source())


@pytest.fixture(scope="module")
def cart_afs(cart_program):
    afs, report = extract_abstraction_functions(
        cart_program, ("Cart", "Product"))
    return afs, report


def method(program, name):
    return next(m for m in program.classes[0].methods if m.name == name)


def test_cart_extraction_matches_reference_table(cart_afs):
    afs, _ = cart_afs
    got = {frozenset(af.clause_set()) for af in afs}
    want = {frozenset(s) for rows in CART_TABLE.values() for s in rows}
    assert got == want
    assert len(afs) == 14


def test_cart_extraction_per_method_attribution(cart_afs):
    afs, _ = cart_afs
    for mname, rows in CART_TABLE.items():
        mine = [set(af.clause_set()) for af in afs if af.method_name == mname]
        assert len(mine) == len(rows)
        for row in rows:
            assert row in mine


def test_empty_cart_includes_loop_not_entered_condition(cart_program):
    paths, _ = symbolic_execute(method(cart_program, "emptyCart"), cart_program)
    assert {"Cart.nProducts <= 0"} in [
        {c.key() for c in p.clauses} for p in paths]


def test_calculate_total_includes_empty_array_condition(cart_program):
    paths, _ = symbolic_execute(method(cart_program, "calculateTotal"), cart_program)
    assert {"Cart.products.length == 0"} in [
        {c.key() for c in p.clauses} for p in paths]


def test_empty_body_yields_single_trivial_path():
    p = parse_program("class A { field x: int; method noop() { } }")
    paths, report = symbolic_execute(p.classes[0].methods[0], p)
    assert len(paths) == 1
    assert paths[0].clauses == ()
    assert not report.truncated
    assert strip_parameter_clauses(paths[0]) is None


def test_loop_truncation_flagged(cart_program):
    _, report = symbolic_execute(method(cart_program, "calculateTotal"), cart_program)
    assert report.truncated


def test_determinism(cart_program):
    a, _ = extract_abstraction_functions(cart_program, ("Cart", "Product"))
    b, _ = extract_abstraction_functions(cart_program, ("Cart", "Product"))
    assert [af.id for af in a] == [af.id for af in b]
    assert [af.clause_keys() for af in a] == [af.clause_keys() for af in b]


def test_extracted_functions_are_parameter_free(cart_afs):
    afs, _ = cart_afs
    for af in afs:
        for c in af.clauses:
            assert not c.mentions_parameter()


# --- strip_parameter_clauses -------------------------------------------------

def test_strip_drops_parameter_clauses():
    pc = PathCondition(
        (Clause(Path("p", (), "param"), "!=", parse_term("null")),
         Clause(parse_term("Cart.nProducts"), "==", IntTerm(0))),
        ("Cart", "addItem", "P0"))
    af = strip_parameter_clauses(pc)
    assert af is not None
    assert af.clause_keys() == ("Cart.nProducts == 0",)
    # brute-force oracle: every dropped clause mentions the parameter name
    dropped = [c for c in pc.clauses if c.key() not in af.clause_keys()]
    assert dropped and all("p" in str(c.lhs) or "p" in str(c.rhs) for c in dropped)


def test_strip_all_parameters_yields_none():
    pc = PathCondition(
        (Clause(Path("p", (), "param"), "!=", parse_term("null")),
         Clause(Path("p", (("field", "value"),), "param"), ">", IntTerm(0))),
        ("Cart", "addItem", "P0"))
    assert strip_parameter_clauses(pc) is None


def test_strip_identity_when_parameter_free():
    pc = PathCondition(
        (Clause(parse_term("Cart.nProducts"), ">", IntTerm(0)),),
        ("Cart", "m", "P0"))
    af = strip_parameter_clauses(pc)
    assert af is not None and af.clause_keys() == ("Cart.nProducts > 0",)


def test_parameter_guards_are_explored_then_stripped():
    src = """
    class Box { field n: int;
      method put(v: int) {
        if (v > 0 && Box.n == 0) { Box.n = v; }
      }
    }
    """
    p = parse_program(src)
    paths, _ = symbolic_execute(p.classes[0].methods[0], p)
    keys = [tuple(c.key() for c in path.clauses) for path in paths]
    assert ("v > 0", "Box.n == 0") in keys  # raw condition keeps the input clause
    afs, _ = extract_abstraction_functions(p, ("Box",))
    assert [set(af.clause_set()) for af in afs] == [
        {"Box.n == 0"}, {"Box.n != 0"}]


def test_indexed_parameter_guards_stay_apart():
    p = parse_program("""
    class Box { field v: int; }
    class Shelf { field boxes: Box[]; }
    class Clerk { field n: int;
      method check(p: Shelf) {
        if (p.boxes.[0].v > 3) { Clerk.n = 1; }
        if (p.boxes.[1].v > 3) { Clerk.n = 2; }
      }
    }
    """)
    paths, _ = symbolic_execute(p.classes[2].methods[0], p)
    keys = {tuple(c.key() for c in path.clauses) for path in paths}
    assert len(paths) == len(keys) == 4
    assert ("p.boxes.[0].v > 3", "p.boxes.[1].v <= 3") in keys


def test_constant_guard_follows_decided_branch_silently():
    p = parse_program("""
    class A { field x: int;
      method m() { if (null == null) { if (A.x > 0) { A.x = 1; } } }
    }
    """)
    paths, _ = symbolic_execute(p.classes[0].methods[0], p)
    assert [[c.key() for c in path.clauses] for path in paths] == [
        ["A.x > 0"], ["A.x <= 0"]]


def test_undecidable_constant_guard_raises():
    p = parse_program("""
    class A { field x: int;
      method m() { if (null < 1) { A.x = 1; } }
    }
    """)
    with pytest.raises(SymexError, match="undecidable constant guard null < 1"):
        symbolic_execute(p.classes[0].methods[0], p)


@pytest.mark.parametrize("guard", ["C.n + 1", "1"])
def test_a_guard_that_is_no_condition_raises(guard):
    p = parse_program(f"class C {{ field n: int; method m() {{ if ({guard}) "
                      "{ C.n = 1; } } }")
    with pytest.raises(SymexError) as exc:
        symbolic_execute(p.classes[0].methods[0], p)
    assert str(exc.value) == f"unsupported guard expression {guard}"


# One method of C per exploration rule; an access to C.xs.[1] is followed by
# a guard on C.b, which shows whether the path went on past the access.
RULES = ("class B { field v: int; } class C { field n: int; field b: bool; "
         "field xs: B[]; const K = 3; method m() { %s } }")
AFTER_ACCESS = "C.xs.[1].v = 1; if (C.b) { C.n = 1; }"


@pytest.mark.parametrize("body,paths", [
    pytest.param("if (C.n > 0 || C.b) { C.n = 1; }",
                 [["C.n > 0"], ["C.n <= 0", "C.b == true"],
                  ["C.n <= 0", "C.b == false"]], id="or"),
    # Each comparison's true side comes first, so here the else path is P0.
    pytest.param("if (!(C.n > 0)) { C.n = 1; }", [["C.n > 0"], ["C.n <= 0"]],
                 id="not"),
    pytest.param("if (C.b) { C.n = 1; }", [["C.b == true"], ["C.b == false"]],
                 id="bool-path"),
    pytest.param("if (true) { if (C.n > 0) { C.n = 1; } } else { C.b = true; }",
                 [["C.n > 0"], ["C.n <= 0"]], id="true-literal"),
    pytest.param("if (false) { C.b = true; } else { if (C.n > 0) { C.n = 1; } }",
                 [["C.n > 0"], ["C.n <= 0"]], id="false-literal"),
    # The second test follows the side the first one pinned, either way.
    pytest.param("if (C.n > 0) { C.n = 1; } if (C.n > 0) { C.n = 2; } "
                 "else { C.b = true; }", [["C.n > 0"], ["C.n <= 0"]],
                 id="re-tested"),
    pytest.param("if (C.xs.length < 0) { C.n = 1; }", [["C.xs.length >= 0"]],
                 id="statically-true-mirror"),
    pytest.param("if (C.K < 0) { C.n = 1; }", [["C.K >= 0"]],
                 id="statically-true-constant-mirror"),
    pytest.param(f"if (C.xs.length > 1) {{ {AFTER_ACCESS} }}",
                 [["C.xs.length > 1", "C.b == true"],
                  ["C.xs.length > 1", "C.b == false"], ["C.xs.length <= 1"]],
                 id="in-range-greater"),
    pytest.param(f"if (C.xs.length >= 2) {{ {AFTER_ACCESS} }}",
                 [["C.xs.length >= 2", "C.b == true"],
                  ["C.xs.length >= 2", "C.b == false"], ["C.xs.length < 2"]],
                 id="in-range-at-least"),
    pytest.param(f"if (C.xs.length == 2) {{ {AFTER_ACCESS} }}",
                 [["C.xs.length == 2", "C.b == true"],
                  ["C.xs.length == 2", "C.b == false"], ["C.xs.length != 2"]],
                 id="in-range-equal"),
    pytest.param(f"if (C.xs.length == 1) {{ {AFTER_ACCESS} }}",
                 [["C.xs.length == 1"], ["C.xs.length != 1"]], id="out-of-range-equal"),
    pytest.param(f"if (C.xs.length <= 1) {{ {AFTER_ACCESS} }}",
                 [["C.xs.length <= 1"], ["C.xs.length > 1"]], id="out-of-range-at-most"),
])
def test_exploration_rules_pin_the_paths(body, paths):
    p = parse_program(RULES % body)
    got, report = symbolic_execute(p.classes[1].methods[0], p)
    assert [[c.key() for c in path.clauses] for path in got] == paths
    assert not report.truncated


# --- dedup and bounds ---------------------------------------------------------

def test_twin_methods_deduplicate():
    src = """
    class A { field x: int;
      method one() { if (A.x > 0) { A.x = 0; } }
      method two() { if (A.x > 0) { A.x = 1; } }
    }
    """
    p = parse_program(src)
    afs, _ = extract_abstraction_functions(p, ("A",))
    keys = [af.clause_keys() for af in afs]
    assert len(keys) == len(set(keys))
    assert {set(af.clause_set()) == {"A.x > 0"} for af in afs}
    # both polarities appear once each, attributed to the first method
    assert all(af.method_name == "one" for af in afs)


def test_branch_budget_truncates_paths():
    guards = " ".join(
        f"if (A.x > {i}) {{ A.x = {i}; }}" for i in range(8))
    p = parse_program(f"class A {{ field x: int; method m() {{ {guards} }} }}")
    bounds = SymexBounds(max_branches_per_path=3, max_states=10_000)
    paths, report = symbolic_execute(p.classes[0].methods[0], p, bounds)
    assert report.truncated
    assert all(len(path.clauses) <= 3 for path in paths)
    assert any(path.truncated for path in paths)


def test_path_count_within_exponential_bound():
    guards = " ".join(f"if (A.x > {i}) {{ A.x = {i}; }}" for i in range(5))
    p = parse_program(f"class A {{ field x: int; method m() {{ {guards} }} }}")
    bounds = SymexBounds(max_branches_per_path=10, max_states=100_000)
    paths, report = symbolic_execute(p.classes[0].methods[0], p, bounds)
    assert len(paths) == 2 ** 5
    assert report.states_visited <= bounds.max_states


def test_states_budget_truncates():
    guards = " ".join(f"if (A.x > {i}) {{ A.x = {i}; }}" for i in range(12))
    p = parse_program(f"class A {{ field x: int; method m() {{ {guards} }} }}")
    bounds = SymexBounds(max_branches_per_path=20, max_states=50)
    paths, report = symbolic_execute(p.classes[0].methods[0], p, bounds)
    assert report.truncated
    assert report.states_visited <= bounds.max_states + 1


def test_bounds_must_be_positive():
    with pytest.raises(ValueError):
        SymexBounds(max_branches_per_path=0)


def test_the_time_budget_truncates_a_method_mid_way(monkeypatch, tmp_path):
    """The clock passes ``A.m``'s deadline at its eleventh read, the tenth
    state's: exploration stops there, well inside the states budget, and
    ``extract`` lists the method as truncated.  ``A.n`` starts after, with a
    deadline of its own."""
    guards = " ".join(f"if (A.x > {i}) {{ A.x = {i}; }}" for i in range(8))
    source = (f"class A {{ field x: int; method m() {{ {guards} }} "
              "method n() { if (A.x > 0) { A.x = 0; } } }")
    (tmp_path / "a.mir").write_text(source)
    p = parse_program(source)
    bounds = SymexBounds(max_branches_per_path=20, max_states=100_000)
    paths, report = symbolic_execute(p.classes[0].methods[0], p, bounds)
    assert not report.truncated and len(paths) == 2 ** 8  # the real clock

    def clock():
        reads = itertools.count()
        return SimpleNamespace(monotonic=lambda: 0.0 if next(reads) < 10 else 1e9)

    monkeypatch.setattr(symex, "time", clock())
    paths, report = symbolic_execute(p.classes[0].methods[0], p, bounds)
    assert report.truncated and report.states_visited == 10
    assert len(paths) < 2 ** 8

    monkeypatch.setattr(symex, "time", clock())
    assert main(["extract", "--program", str(tmp_path / "a.mir"),
                 "--max-states", "100000", "--out", str(tmp_path / "afs.json")]) == 0
    _, header = load_af_list((tmp_path / "afs.json").read_text())
    assert header["truncated"] == ["A.m"]


@pytest.mark.parametrize("bound", ["max_states", "per_method_time_budget"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_bounds_must_be_finite(bound, value):
    with pytest.raises(ValueError):
        SymexBounds(**{bound: value})


def test_inlined_call_depth_one():
    src = """
    class A { field x: int;
      method outer(v: int) { call inner(v); }
      method inner(w: int) { if (A.x > 0 && w > 0) { A.x = 0; } }
    }
    """
    p = parse_program(src)
    afs, _ = extract_abstraction_functions(p, ("A",))
    sets = [set(af.clause_set()) for af in afs]
    assert {"A.x > 0"} in sets  # inlined guard observed through the call


def test_two_calls_of_one_callee_read_their_own_arguments():
    """A guard is built once per guard and scope: each call site is a scope
    of its own, though both inline the same body."""
    p = parse_program("""
    class A { field x: int; field y: int;
      method outer() { call inner(A.x); call inner(A.y); }
      method inner(w: int) { if (w > 0) { A.x = 0; } }
    }
    """)
    paths, _ = symbolic_execute(p.classes[0].methods[0], p)
    assert [[c.key() for c in path.clauses] for path in paths] == [
        ["A.x > 0", "A.y > 0"], ["A.x > 0", "A.y <= 0"],
        ["A.x <= 0", "A.y > 0"], ["A.x <= 0", "A.y <= 0"]]


def test_nested_call_havocs():
    src = """
    class A { field x: int;
      method a() { call b(); }
      method b() { call c(); }
      method c() { if (A.x > 0) { A.x = 0; } }
    }
    """
    p = parse_program(src)
    m = p.classes[0].methods[0]
    paths, report = symbolic_execute(m, p)
    assert report.havocked_calls == 1
    assert [path.clauses for path in paths] == [()]


def test_inlined_literal_argument_is_a_concrete_index():
    p = parse_program("""
    class Box { field v: int; }
    class Shelf { field boxes: Box[];
      method peek() { call look(0); }
      method look(k: int) { if (Shelf.boxes.[k].v > 3) { return; } }
    }
    """)
    afs, _ = extract_abstraction_functions(p, ("Shelf",))
    peek = [af for af in afs if af.method_name == "peek"]
    assert [af.clause_keys() for af in peek] == [
        ("Shelf.boxes.length == 0",),
        ("Shelf.boxes.[0].v > 3",),
        ("Shelf.boxes.[0].v <= 3",),
    ]
    state = ConcreteState({"s": ConcreteObject("Shelf", {"boxes": ["b"]}),
                           "b": ConcreteObject("Box", {"v": 5})},
                          {"Shelf": "s"})
    assert eval_function(peek[1], state) == "T"
    loaded, _ = load_af_list(dump_af_list(peek))
    assert [af.clauses for af in loaded] == [af.clauses for af in peek]


def test_inlined_callee_index_is_read_in_the_callee():
    loop = "for i in 0 .. {0}.boxes.length {{ if ({0}.boxes.[i].v > 3) {{ return; }} }}"
    p = parse_program(f"""
    class Box {{ field v: int; }}
    class Shelf {{ field boxes: Box[];
      method peek() {{ call look(Shelf); }}
      method look(s: Shelf) {{ {loop.format("s")} }}
      method direct() {{ {loop.format("Shelf")} }}
    }}
    """)
    paths = {m.name: [[c.key() for c in pc.clauses] for pc in symbolic_execute(m, p)[0]]
             for m in p.classes[1].methods}
    assert paths["peek"] == paths["direct"]
    assert ["Shelf.boxes.length > 0", "Shelf.boxes.[0].v > 3"] in paths["peek"]


@pytest.mark.parametrize("arg", ["Shelf.boxes.length", "Shelf.ys.[0].n"])
def test_inlined_path_argument_index_round_trips(arg):
    p = parse_program(f"""
    class Box {{ field v: int; field n: int; }}
    class Shelf {{ field boxes: Box[]; field ys: Box[];
      method peek() {{ call look({arg}); }}
      method look(k: int) {{ if (Shelf.boxes.[k].v > 3) {{ return; }} }}
    }}
    """)
    afs, _ = extract_abstraction_functions(p, ("Shelf",))
    peek = [af for af in afs if af.method_name == "peek"]
    assert {key for af in peek for key in af.clause_keys()} >= {
        f"Shelf.boxes.[{arg}].v > 3", f"Shelf.boxes.[{arg}].v <= 3"}
    loaded, _ = load_af_list(dump_af_list(peek))
    assert [af.clauses for af in loaded] == [af.clauses for af in peek]


def test_nested_parameter_index_is_stripped():
    p = parse_program("""
    class Box { field v: int; field n: int; }
    class Shelf { field boxes: Box[]; field ys: Box[];
      method m(j: int) { if (Shelf.boxes.[Shelf.ys.[j].n].v > 3) { return; } }
    }
    """)
    paths, _ = symbolic_execute(p.classes[1].methods[0], p)
    assert [[c.key() for c in path.clauses] for path in paths] == [
        ["Shelf.boxes.[Shelf.ys.[j].n].v > 3"], ["Shelf.boxes.[Shelf.ys.[j].n].v <= 3"]]
    assert all(strip_parameter_clauses(path) is None for path in paths)


def test_strict_length_guard_pins_the_access_out_of_range():
    p = parse_program("""
    class B { field v: int; }
    class A { field xs: B[];
      method m() { if (A.xs.length < 1) { A.xs.[0].v = 1; } }
    }
    """)
    afs, _ = extract_abstraction_functions(p, ("A",))
    assert [af.clause_keys() for af in afs] == [
        ("A.xs.length < 1",), ("A.xs.length >= 1",)]


PARAMETER_NAMED_AS_A_CLASS = """
class Cart { field n: int;
  method m(B: int) { if (B > 0) { Cart.n = 1; } if (Cart.n > 2) { Cart.n = 3; } }
}
class B { field x: int; }
"""


def test_a_parameter_hides_a_class_of_its_name():
    """Symex reads a root as the validator does: a loop variable, then a
    parameter of the method, then a class.  ``B > 0`` is a parameter guard,
    and stripping drops it."""
    p = parse_program(PARAMETER_NAMED_AS_A_CLASS)
    paths, _ = symbolic_execute(p.classes[0].methods[0], p)
    assert paths[0].clauses[0] == Clause(Path("B", (), "param"), ">", IntTerm(0))
    afs, _ = extract_abstraction_functions(p, ("Cart",))
    assert [af.clause_keys() for af in afs] == [("Cart.n > 2",), ("Cart.n <= 2",)]


def test_a_parameters_guard_does_not_decide_a_class_guard_of_its_text():
    """``B.x > 0`` over the parameter ``B`` and, in the inlined callee, over
    the class ``B`` print alike but are two guards: each path takes both."""
    p = parse_program("""
    class Cart { field n: int;
      method m(B: B) { if (B.x > 0) { Cart.n = 1; } call k(); }
      method k() { if (B.x > 0) { Cart.n = 2; } }
    }
    class B { field x: int; }
    """)
    paths, _ = symbolic_execute(p.classes[0].methods[0], p)
    assert [[(c.lhs.binding, c.key()) for c in path.clauses] for path in paths] == [
        [("param", a), ("class", b)]
        for a in ("B.x > 0", "B.x <= 0") for b in ("B.x > 0", "B.x <= 0")]


def test_the_ir_path_is_the_clause_term():
    """One class in the package has a path's ``root`` and ``segments``:
    ``functions.Path``, which ``ir`` imports back."""
    assert ir.Path is Path
    modules = [importlib.import_module(f"burstmine.{m.name}")
               for m in pkgutil.iter_modules(burstmine.__path__)]
    assert {obj for mod in modules for obj in vars(mod).values()
            if {"root", "segments"} <= set(getattr(obj, "__dataclass_fields__", ()))
            } == {Path}


def test_a_guard_unchanged_by_symex_keeps_the_parsed_path():
    """No loop variable or call argument changes ``Cart.n``: the clause holds
    the parser's own path object."""
    p = parse_program("""
    class Cart { field n: int;
      method m() { if (Cart.n > 0) { Cart.n = 1; } }
    }""")
    method = p.classes[0].methods[0]
    parsed = method.body[0].cond.left
    paths, _ = symbolic_execute(method, p)
    assert [path.clauses[0].lhs is parsed for path in paths] == [True, True]
