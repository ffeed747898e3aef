import ast
import gc
import importlib
import inspect
import pkgutil
import weakref

import pytest
from hypothesis import given, settings, strategies as st

import burstmine
from burstmine import cli, collect, states
from burstmine.functions import (COMPARE_OPS, AbstractionFunction, BoolTerm, Clause,
                                 IntTerm, NullTerm, Path,
                                 af_list_hash, dump_af_list, load_af_list,
                                 parse_term)
from burstmine.ir import (KEYWORDS, build_dependency_graph, detect_relevant_classes,
                          parse_program)
from burstmine.states import (_UNRESOLVED, ConcreteObject, ConcreteState,
                              StateError, _compare, _resolve,
                              abstract_state, eval_clause, eval_function)
from burstmine.symex import SymexBounds, extract_abstraction_functions
from perfbench.inputs import editor_corpus, editor_program


def clause(text: str) -> Clause:
    lhs, op, rhs = text.split(" ", 2)
    return Clause(parse_term(lhs), op, parse_term(rhs))


def af(*clause_texts: str, af_id: str = "t") -> AbstractionFunction:
    return AbstractionFunction(af_id, tuple(clause(t) for t in clause_texts),
                               ("Cart", "m", "P0"))


def cart_state(n_products=0, products=(), with_cart=True, total=0) -> ConcreteState:
    objects = {}
    roots = {}
    ids = []
    for i, (value, tax_free) in enumerate(products):
        oid = f"p{i}"
        objects[oid] = ConcreteObject("Product", {"value": value, "taxFree": tax_free})
        ids.append(oid)
    if with_cart:
        objects["c1"] = ConcreteObject("Cart", {
            "CART_SIZE": 10, "PRICE": 100, "TAX": 5,
            "nProducts": n_products, "total": total, "products": ids,
        })
        roots["Cart"] = "c1"
    state = ConcreteState(objects, roots)
    state.validate()
    return state


# --- eval_clause ------------------------------------------------------------

def test_missing_array_element_is_unknown():
    s = cart_state(n_products=0, products=())
    assert eval_clause(clause("Cart.products.[0].taxFree == true"), s) == "U"


def test_direct_comparison_true():
    s = cart_state(n_products=0)
    assert eval_clause(clause("Cart.nProducts <= 0"), s) == "T"


def test_missing_root_is_unknown():
    s = cart_state(with_cart=False)
    assert eval_clause(clause("Cart.nProducts > 0"), s) == "U"


def test_negation_swaps_t_f_and_fixes_u():
    s = cart_state(n_products=2)
    base = clause("Cart.nProducts > 0")
    neg = Clause(base.lhs, base.op, base.rhs, negated=True)
    assert neg == Clause(base.lhs, "<=", base.rhs)
    assert eval_clause(base, s) == "T"
    assert eval_clause(neg, s) == "F"
    missing = cart_state(with_cart=False)
    assert eval_clause(neg, missing) == "U"


def test_clauses_are_canonical_from_construction():
    assert clause("Cart.products.[0].taxFree != true") == clause(
        "Cart.products.[0].taxFree == false")
    assert clause("Cart.products.length <= 0") == clause("Cart.products.length == 0")
    assert clause("Cart.products.length != 0") == clause("Cart.products.length > 0")
    written = Clause.from_dict({"lhs": "Cart.nProducts", "op": ">", "rhs": "0",
                                "negated": True})
    assert written == clause("Cart.nProducts <= 0")
    assert written.to_dict()["negated"] is False


@pytest.mark.parametrize("text", ["Cart.x.[Abc", "C..x", "Cart.a.[Cart..n]",
                                  "007", "-0", "", "-1", "Cart.xs.[true]"])
def test_parse_term_rejects_text_it_would_not_print_back(text):
    with pytest.raises(ValueError, match="malformed term"):
        parse_term(text)


_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True).filter(
    lambda name: name not in KEYWORDS)


def _path(segments):
    """A class path (capitalised root) or a parameter path (any other root)."""
    return st.builds(lambda root, segs: Path(
        root, tuple(segs), "class" if root[:1].isupper() else "param"),
                     _NAMES, st.lists(segments, max_size=4))


_SEGMENTS = st.deferred(lambda: st.one_of(
    st.tuples(st.just("field"), _NAMES),
    st.tuples(st.just("index"), st.one_of(st.integers(0, 10**6), _path(_SEGMENTS))),
    st.just(("length", None))))
_TERMS = st.one_of(st.integers(0, 10**12).map(IntTerm), st.booleans().map(BoolTerm),
                   st.just(NullTerm()), _path(_SEGMENTS))


@settings(max_examples=200, deadline=None)
@given(_TERMS)
def test_parse_term_reads_back_every_printed_term(term):
    assert parse_term(str(term)) == term


def test_length_and_index_resolution():
    s = cart_state(n_products=1, products=[(40, True)])
    assert eval_clause(clause("Cart.products.length > 0"), s) == "T"
    assert eval_clause(clause("Cart.products.[0].value >= Cart.PRICE"), s) == "F"
    assert eval_clause(clause("Cart.products.[0].value < Cart.PRICE"), s) == "T"


def test_field_indexed_access():
    # products.[Cart.nProducts] resolves the index through the state
    s = cart_state(n_products=1, products=[(40, True), (70, False)])
    c = clause("Cart.products.[Cart.nProducts].taxFree == false")
    assert eval_clause(c, s) == "T"  # index 1 -> second product


def test_a_bool_index_is_unknown():
    # True would index element 1: like an int/bool comparison, it is U.
    s = ConcreteState(
        {"a": ConcreteObject("A", {"f": True, "xs": ["x0", "x1"]}),
         "x0": ConcreteObject("X", {"v": 5}), "x1": ConcreteObject("X", {"v": 5})},
        {"A": "a"})
    assert eval_clause(clause("A.xs.[A.f].v > 0"), s) == "U"
    assert eval_clause(clause("A.xs.[1].v > 0"), s) == "T"


def test_missing_field_is_unknown():
    s = ConcreteState({"c1": ConcreteObject("Cart", {"nProducts": 1})},
                      {"Cart": "c1"})
    assert eval_clause(clause("Cart.total > 0"), s) == "U"


# --- eval_function ----------------------------------------------------------

def test_conjunction_true_with_one_product():
    f = af("Cart.nProducts != 0", "Cart.products.length >= 0")
    assert eval_function(f, cart_state(n_products=1, products=[(5, False)])) == "T"


def test_conjunction_unknown_without_cart():
    f = af("Cart.nProducts != 0", "Cart.products.length >= 0")
    assert eval_function(f, cart_state(with_cart=False)) == "U"


def test_conjunction_false():
    f = af("Cart.nProducts <= 0", "Cart.nProducts > 0")
    assert eval_function(f, cart_state(n_products=0)) == "F"


def test_unknown_dominates_false():
    # Deliberately non-Kleene: an F clause does not settle the conjunction.
    f = af("Cart.nProducts > 0", "Cart.products.[0].value > 0")
    s = cart_state(n_products=0, products=())
    assert eval_clause(f.clauses[0], s) == "F"
    assert eval_clause(f.clauses[1], s) == "U"
    assert eval_function(f, s) == "U"


def test_resolving_missing_object_only_refines_unknowns():
    f_cart = af("Cart.nProducts > 0")
    f_prod = af("Product.value > 0", af_id="t2")
    without = ConcreteState({"c1": ConcreteObject("Cart", {"nProducts": 3})},
                            {"Cart": "c1"})
    with_prod = ConcreteState(
        {"c1": ConcreteObject("Cart", {"nProducts": 3}),
         "p1": ConcreteObject("Product", {"value": 9})},
        {"Cart": "c1", "Product": "p1"})
    assert eval_function(f_prod, without) == "U"
    assert eval_function(f_prod, with_prod) == "T"
    # functions not referencing the new object are unaffected
    assert eval_function(f_cart, without) is eval_function(f_cart, with_prod)


# --- abstract_state ---------------------------------------------------------

def test_abstract_state_all_unknown():
    afs = [af("Cart.nProducts > 0", af_id="a"),
           af("Cart.total > 0", af_id="b")]
    aps = abstract_state(afs, cart_state(with_cart=False))
    assert aps == "UU"


def test_abstract_state_shape_and_hash():
    afs = [af("Cart.nProducts > 0", af_id="a"),
           af("Cart.total > 0", af_id="b"),
           af("Cart.products.length > 0", af_id="c")]
    s = cart_state(n_products=2, products=[(5, True)], total=5)
    aps = abstract_state(afs, s)
    assert len(aps) == 3 and set(aps) <= {"T", "F"}
    assert abstract_state(afs, s) == aps  # deterministic
    # the state string is bound to its AF list by that list's hash
    assert abstract_state(afs[:2], s) == aps[:2]
    assert af_list_hash(afs[:2]) != af_list_hash(afs)


def test_abstract_state_requires_functions():
    with pytest.raises(ValueError):
        abstract_state([], cart_state())


# --- the compiled table against the clause-by-clause interpreter ----------

def _reference_clause(c: Clause, state: ConcreteState) -> str:
    left, right = _resolve(c.lhs, state), _resolve(c.rhs, state)
    if left is _UNRESOLVED or right is _UNRESOLVED:
        return "U"
    result = _compare(left, c.op, right)
    if result is None:
        return "U"
    return "T" if result else "F"


def _reference_function(f: AbstractionFunction, state: ConcreteState) -> str:
    saw_false = False
    for c in f.clauses:
        v = _reference_clause(c, state)
        if v == "U":
            return "U"
        if v == "F":
            saw_false = True
    return "F" if saw_false else "T"


# Terms over the states below: ints, bools, refs, lengths, missing fields,
# and indices that are literal, read from the state, or out of range.
_LITERALS = tuple(map(parse_term, ("0", "1", "2", "true", "false", "null")))
_PATHS = tuple(map(parse_term, (
    "A.n", "A.b", "A.r", "A.r.v", "A.r.ok", "A.xs", "A.xs.length", "A.xs.[0]",
    "A.xs.[0].v", "A.xs.[1].ok", "A.xs.[A.n].v", "A.xs.[A.r.v].ok",
    "A.xs.[A.xs.length].v", "B.v", "B.ok", "A.gone", "A.n.v")))
# random terms a probe may hold: no parameter anywhere in them
_FREE_TERMS = _TERMS.filter(lambda t: not Clause(t, "==", t).mentions_parameter())


@st.composite
def _af_lists(draw) -> list[AbstractionFunction]:
    """Functions drawn from a small pool of clauses over a small pool of
    terms, so that they share clauses and terms, by value and by object;
    up to 48 of them, so that a clause's function mask spans many bytes."""
    paths = draw(st.lists(st.sampled_from(_PATHS), min_size=1, max_size=4))
    paths += draw(st.lists(_FREE_TERMS, max_size=1))
    lhs = st.sampled_from(paths)
    rhs = st.one_of(st.sampled_from(_LITERALS), lhs)
    clauses = draw(st.lists(st.builds(Clause, lhs, st.sampled_from(COMPARE_OPS), rhs,
                                      st.booleans()), min_size=1, max_size=8))
    return [AbstractionFunction(f"f{i}", tuple(draw(st.lists(
                st.sampled_from(clauses), min_size=1, max_size=3))), ("A", "m", f"P{i}"))
            for i in range(draw(st.integers(1, 48)))]


@st.composite
def _states(draw) -> ConcreteState:
    """Roots missing or null, refs null, arrays short, fields absent or
    holding a value of another type."""
    ids = [f"b{i}" for i in range(draw(st.integers(1, 3)))]
    ref = st.one_of(st.sampled_from(ids), st.none())
    num, flag = st.integers(-1, 3), st.booleans()
    odd = st.one_of(num, flag, st.none())

    def fields(shape: dict) -> dict:
        values = draw(st.fixed_dictionaries(
            {name: st.one_of(kind, kind, kind, odd) for name, kind in shape.items()}))
        return {name: v for name, v in values.items() if draw(st.integers(0, 5)) < 5}

    objects = {oid: ConcreteObject("B", fields({"v": num, "ok": flag})) for oid in ids}
    objects["a"] = ConcreteObject("A", fields({
        "n": num, "b": flag, "r": ref, "xs": st.lists(ref, max_size=3)}))
    roots = {"A": draw(st.sampled_from(["a", "a", "a", None])), "B": draw(ref)}
    roots = {cls: oid for cls, oid in roots.items() if draw(st.integers(0, 3)) < 3}
    state = ConcreteState(objects, roots)
    state.validate()
    return state


@settings(max_examples=300, deadline=None)
@given(_af_lists(), st.lists(_states(), min_size=2, max_size=5))
def test_compiled_table_agrees_with_the_reference_interpreter(afs, snapshots):
    for state in snapshots + snapshots[:1]:  # a repeated state reuses its row
        expected = [_reference_function(f, state) for f in afs]
        assert abstract_state(afs, state) == "".join(expected)
        assert [eval_function(f, state) for f in afs] == expected
        for c in {c for f in afs for c in f.clauses}:
            assert eval_clause(c, state) == _reference_clause(c, state)


def test_compiled_table_agrees_with_the_reference_on_an_extracted_list():
    """The ``probe-mining`` benchmark's seed-0 inputs: 360 probes over 98
    distinct clauses, as extracted and as read back, on every snapshot."""
    program = parse_program(editor_program(45, 0))
    relevant = detect_relevant_classes(build_dependency_graph(program), ["Editor"])
    extracted, _ = extract_abstraction_functions(program, relevant, SymexBounds())
    loaded, _ = load_af_list(dump_af_list(extracted))
    assert len(loaded) == 360
    assert len({c for f in loaded for c in f.clauses}) == 98
    runs = collect.loads_runs(editor_corpus(30, 0)[0])
    snapshots = {id(s): s for run in runs for seg in run.segments
                 for s in (seg.pre_state, seg.post_state)}
    for afs in (extracted, loaded):
        for state in snapshots.values():
            expected = "".join([_reference_function(f, state) for f in afs])
            assert abstract_state(afs, state) == expected


def test_compiled_table_keeps_no_function_alive():
    afs = [af("Cart.nProducts > 0", af_id="a"), af("Cart.total > 0", af_id="b")]
    assert abstract_state(afs, cart_state(n_products=1)) == "TF"
    key, dead = tuple(map(id, afs)), weakref.ref(afs[1])
    del afs
    gc.collect()
    assert dead() is None
    assert key not in states._TABLES


def test_a_changed_list_is_compiled_afresh():
    s = cart_state(n_products=2)
    afs = [af("Cart.nProducts > 0", af_id="a"), af("Cart.total > 0", af_id="b")]
    assert abstract_state(afs, s) == "TF"
    afs[1] = af("Cart.total <= 0", af_id="b")
    assert abstract_state(afs, s) == "TT"
    afs.append(af("Cart.products.[0].value > 0", af_id="c"))
    assert abstract_state(afs, s) == "TTU"
    del afs[0]
    assert abstract_state(afs, s) == "TU"


def test_equal_function_ids_with_other_clauses_are_compiled_afresh():
    # Dropping each list lets the next reuse its objects' memory, and so ids.
    s = cart_state(n_products=2)
    for texts, expected in [(("Cart.nProducts > 0", "Cart.total > 0"), "TF"),
                            (("Cart.nProducts <= 0", "Cart.total <= 0"), "FT")] * 3:
        afs = [af(text, af_id=f"f{i}") for i, text in enumerate(texts)]
        assert abstract_state(afs, s) == expected
        del afs


def test_pipeline_calls_the_traced_abstract_state_and_nothing_below_it():
    """The benchmark counts ``states.abstract_state`` calls and probes at the
    binding ``collect`` imports, which ``cli`` reaches through
    ``collect.collect``, and wraps whatever one module imports from another;
    the table's helpers stay inside ``states``."""
    assert collect.abstract_state is states.abstract_state
    assert cli.collect is collect.collect and not hasattr(cli, "abstract_state")
    helpers = ("_Table", "_table", "_TABLES", "_decide")
    for info in pkgutil.iter_modules(burstmine.__path__):
        module = importlib.import_module(f"burstmine.{info.name}")
        if module is states:
            continue
        assert not any(getattr(states, h) is v for h in helpers
                       for v in vars(module).values()), info.name
        attrs = {node.attr for node in ast.walk(ast.parse(inspect.getsource(module)))
                 if isinstance(node, ast.Attribute)}
        assert attrs.isdisjoint(helpers), info.name


# --- state validation -------------------------------------------------------

def test_dangling_object_id_rejected():
    state = ConcreteState({"c1": ConcreteObject("Cart", {"products": ["ghost"]})},
                          {"Cart": "c1"})
    with pytest.raises(StateError, match="ghost"):
        state.validate()


def test_state_json_roundtrip():
    s = cart_state(n_products=1, products=[(30, False)])
    assert ConcreteState.from_dict(s.to_dict()) == s
