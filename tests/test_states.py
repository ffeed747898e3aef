import pytest
from hypothesis import given, settings, strategies as st

from burstmine.functions import (AbstractionFunction, BoolTerm, Clause, FieldTerm,
                                 IntTerm, NullTerm, ParamTerm, af_list_hash,
                                 parse_term)
from burstmine.ir import KEYWORDS
from burstmine.states import (ConcreteObject, ConcreteState,
                              StateError, Ternary, abstract_state, eval_clause,
                              eval_function)


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
    assert eval_clause(clause("Cart.products.[0].taxFree == true"), s) is Ternary.U


def test_direct_comparison_true():
    s = cart_state(n_products=0)
    assert eval_clause(clause("Cart.nProducts <= 0"), s) is Ternary.T


def test_missing_root_is_unknown():
    s = cart_state(with_cart=False)
    assert eval_clause(clause("Cart.nProducts > 0"), s) is Ternary.U


def test_negation_swaps_t_f_and_fixes_u():
    s = cart_state(n_products=2)
    base = clause("Cart.nProducts > 0")
    neg = Clause(base.lhs, base.op, base.rhs, negated=True)
    assert neg == Clause(base.lhs, "<=", base.rhs)
    assert eval_clause(base, s) is Ternary.T
    assert eval_clause(neg, s) is Ternary.F
    missing = cart_state(with_cart=False)
    assert eval_clause(neg, missing) is Ternary.U


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
    return st.builds(lambda root, segs: (FieldTerm if root[:1].isupper() else
                                         ParamTerm)(root, tuple(segs)),
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
    assert eval_clause(clause("Cart.products.length > 0"), s) is Ternary.T
    assert eval_clause(clause("Cart.products.[0].value >= Cart.PRICE"), s) is Ternary.F
    assert eval_clause(clause("Cart.products.[0].value < Cart.PRICE"), s) is Ternary.T


def test_field_indexed_access():
    # products.[Cart.nProducts] resolves the index through the state
    s = cart_state(n_products=1, products=[(40, True), (70, False)])
    c = clause("Cart.products.[Cart.nProducts].taxFree == false")
    assert eval_clause(c, s) is Ternary.T  # index 1 -> second product


def test_missing_field_is_unknown():
    s = ConcreteState({"c1": ConcreteObject("Cart", {"nProducts": 1})},
                      {"Cart": "c1"})
    assert eval_clause(clause("Cart.total > 0"), s) is Ternary.U


# --- eval_function ----------------------------------------------------------

def test_conjunction_true_with_one_product():
    f = af("Cart.nProducts != 0", "Cart.products.length >= 0")
    assert eval_function(f, cart_state(n_products=1, products=[(5, False)])) is Ternary.T


def test_conjunction_unknown_without_cart():
    f = af("Cart.nProducts != 0", "Cart.products.length >= 0")
    assert eval_function(f, cart_state(with_cart=False)) is Ternary.U


def test_conjunction_false():
    f = af("Cart.nProducts <= 0", "Cart.nProducts > 0")
    assert eval_function(f, cart_state(n_products=0)) is Ternary.F


def test_unknown_dominates_false():
    # Deliberately non-Kleene: an F clause does not settle the conjunction.
    f = af("Cart.nProducts > 0", "Cart.products.[0].value > 0")
    s = cart_state(n_products=0, products=())
    assert eval_clause(f.clauses[0], s) is Ternary.F
    assert eval_clause(f.clauses[1], s) is Ternary.U
    assert eval_function(f, s) is Ternary.U


def test_resolving_missing_object_only_refines_unknowns():
    f_cart = af("Cart.nProducts > 0")
    f_prod = af("Product.value > 0", af_id="t2")
    without = ConcreteState({"c1": ConcreteObject("Cart", {"nProducts": 3})},
                            {"Cart": "c1"})
    with_prod = ConcreteState(
        {"c1": ConcreteObject("Cart", {"nProducts": 3}),
         "p1": ConcreteObject("Product", {"value": 9})},
        {"Cart": "c1", "Product": "p1"})
    assert eval_function(f_prod, without) is Ternary.U
    assert eval_function(f_prod, with_prod) is Ternary.T
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


# --- state validation -------------------------------------------------------

def test_dangling_object_id_rejected():
    state = ConcreteState({"c1": ConcreteObject("Cart", {"products": ["ghost"]})},
                          {"Cart": "c1"})
    with pytest.raises(StateError, match="ghost"):
        state.validate()


def test_state_json_roundtrip():
    s = cart_state(n_products=1, products=[(30, False)])
    assert ConcreteState.from_dict(s.to_dict()) == s
