import pytest
from hypothesis import given, strategies as st

from burstmine.ir import (ArityError, DependencyGraph, DuplicateNameError,
                          IrError, IrSyntaxError, UndeclaredTypeError,
                          UnknownTargetError, build_dependency_graph,
                          detect_relevant_classes, parse_atom, parse_program,
                          pretty_print)

from conftest import cart_source


def test_cart_fixture_shape():
    p = parse_program(cart_source())
    assert p.class_names == ("Cart", "Product")
    cart = p.classes[0]
    assert [m.name for m in cart.methods] == [
        "addItem", "emptyCart", "applyDiscount", "calculateTotal"]
    assert {c.name for c in cart.consts} == {"CART_SIZE", "PRICE", "TAX"}


def test_empty_source():
    assert parse_program("").classes == ()


def test_undeclared_type_error():
    src = "class Shop { field pending: Order[]; }"
    with pytest.raises(UndeclaredTypeError, match="Order"):
        parse_program(src)


def test_duplicate_class_error():
    with pytest.raises(DuplicateNameError):
        parse_program("class A { } class A { }")


def test_duplicate_field_error():
    with pytest.raises(DuplicateNameError):
        parse_program("class A { field x: int; field x: bool; }")


def test_param_shadowing_field_rejected():
    src = "class A { field x: int; method m(x: int) { } }"
    with pytest.raises(DuplicateNameError):
        parse_program(src)


def test_syntax_error_carries_position():
    with pytest.raises(IrSyntaxError) as exc:
        parse_program("class A {\n  field x int;\n}")
    assert exc.value.line == 2


def test_unknown_path_root_rejected():
    src = "class A { method m() { B.x = 1; } }"
    with pytest.raises(UndeclaredTypeError):
        parse_program(src)


@pytest.mark.parametrize("args", ["", "Shelf, Shelf"])
def test_local_call_with_another_argument_count_rejected(args):
    src = f"""
    class Box {{ field v: int; }}
    class Shelf {{ field boxes: Box[];
      method peek() {{ call look({args}); }}
      method look(s: Shelf) {{ if (s.boxes.[0].v > 3) {{ return; }} }}
    }}
    """
    with pytest.raises(ArityError, match=r"Shelf.peek: call to 'look' passes "
                       rf"{len(args.split(',')) if args else 0} argument\(s\); it takes 1"):
        parse_program(src)
    assert parse_program(src.replace(f"look({args})", "look(Shelf)"))


B = "class B { field v: int; field bs: B[]; } "


@pytest.mark.parametrize("source,error,message", [
    pytest.param("class A { field x: int; } $", IrSyntaxError,
                 "1:27: unexpected character '$'", id="unexpected-character"),
    pytest.param("class A { const K = true; }", IrSyntaxError,
                 "1:21: expected integer literal (got 'true')", id="const-not-integer"),
    pytest.param("class A { x: int; }", IrSyntaxError,
                 "1:11: expected const, field, or method (got 'x')", id="bad-member"),
    pytest.param("class A { field x: 3; }", IrSyntaxError,
                 "1:20: expected type name (got '3')", id="bad-type-name"),
    pytest.param(B + "class A { method m(p: B[]) { } }", IrSyntaxError,
                 "1:67: array parameters are not supported (got ')')",
                 id="array-parameter"),
    pytest.param(B + "class A { field n: int; method m() { for i in 1 .. A.n { } } }",
                 IrSyntaxError, "1:88: for loops must start at 0 (got '1')",
                 id="loop-not-from-0"),
    pytest.param(B + "class A { field n: int; method m() { A.n.3 = 1; } }",
                 IrSyntaxError, "1:83: expected field, index, or length (got '3')",
                 id="bad-path-segment"),
    pytest.param("class A { const K = 1; const K = 2; }", DuplicateNameError,
                 "duplicate member A.K", id="duplicate-const"),
    pytest.param("class A { method m() { } method m() { } }", DuplicateNameError,
                 "duplicate method A.m", id="duplicate-method"),
    pytest.param("class A { method m(p: int, p: int) { } }", DuplicateNameError,
                 "duplicate parameter 'p' in A.m", id="duplicate-parameter"),
    pytest.param("class A { field xs: int[]; }", UndeclaredTypeError,
                 "field A.xs: arrays hold object refs, not scalars", id="scalar-array"),
    pytest.param("class A { method m() { call gone(); } }", UndeclaredTypeError,
                 "A.m: call to unknown local method 'gone'", id="unknown-local-method"),
    pytest.param(B + "class A { field n: int; method m() { for i in 0 .. A.n "
                 "{ A.n = i.v; } } }", UndeclaredTypeError,
                 "A.m: loop variable 'i' has no fields", id="loop-variable-field"),
    pytest.param("class A { field n: int; method m() { A.n = A.n.length; } }",
                 UndeclaredTypeError, "A.m: .length on non-array in A.n.length",
                 id="length-of-scalar"),
    pytest.param("class A { field n: int; method m() { A.n = A.n.[0]; } }",
                 UndeclaredTypeError, "A.m: indexing non-array in A.n.[0]",
                 id="index-of-scalar"),
    pytest.param("class A { field n: int; method m() { A.n = A.n.v; } }",
                 UndeclaredTypeError, "A.m: field access on non-object in A.n.v",
                 id="field-of-scalar"),
    # A's method is checked before B's field types.
    pytest.param("class A { field n: int; method m() { A.n = B.c.v; } } "
                 "class B { field c: Nope; }", UndeclaredTypeError,
                 "A.m: undeclared class 'Nope'", id="undeclared-class-in-path"),
    pytest.param(B + "class A { field n: int; method m() { A.n = B.w; } }",
                 UndeclaredTypeError, "A.m: 'B' has no member 'w' in B.w",
                 id="no-such-member"),
])
def test_each_ir_diagnostic_names_its_class_and_message(source, error, message):
    with pytest.raises(IrError) as exc:
        parse_program(source)
    assert (type(exc.value), str(exc.value)) == (error, message)


def test_a_clause_term_is_one_atom_without_parentheses():
    with pytest.raises(IrSyntaxError) as exc:
        parse_atom("(A.n)")
    assert str(exc.value) == "1:1: expected literal or path (got '(')"


def test_a_class_named_only_in_a_call_argument_is_a_dependency():
    src = """
    class A { field n: int;
      method m() { call look(B.k); }
      method look(x: int) { A.n = x; }
    }
    class B { field k: int; }
    """
    assert build_dependency_graph(parse_program(src)).edges == (("A", "B"),)


# Every literal, a literal index, a loop-variable index, a field-path index
# and call arguments: the parser builds each from the clause-term vocabulary.
TERMS_SOURCE = """
class Item { field price: int; field gift: bool; field next: Item; }
class Cart {
  const LIMIT = 4;
  field items: Item[];
  field nProducts: int;
  field open: bool;
  method scan() {
    if (Cart.items.[0].gift == true && Cart.open != false) {
      Cart.items.[0].next = null;
    }
    for i in 0 .. Cart.items.length {
      Cart.items.[i].price = Cart.items.[i].price * 2 - 1;
    }
    Cart.items.[Cart.nProducts].gift = false;
    call bump(Cart.nProducts, 7);
  }
  method bump(n: int, m: int) {
    if (!(n > Cart.LIMIT) || m == 7) {
      Cart.nProducts = n;
      return;
    } else {
      Cart.open = true;
    }
  }
}
"""


@pytest.mark.parametrize("source", [cart_source(), TERMS_SOURCE],
                         ids=["cart", "term-vocabulary"])
def test_roundtrip_fixpoint_on_cart(source):
    p = parse_program(source)
    printed = pretty_print(p)
    p2 = parse_program(printed)
    assert pretty_print(p2) == printed
    assert p2 == p


def test_dependency_edge_cart_to_product():
    p = parse_program(cart_source())
    g = build_dependency_graph(p)
    assert g.edges == (("Cart", "Product"),)


def test_single_class_no_edges():
    p = parse_program("class A { field x: int; }")
    g = build_dependency_graph(p)
    assert g.nodes == ("A",) and g.edges == ()


CHAIN = """
class A { field b: B; }
class B { field c: C; }
class C { field x: int; }
"""


def test_chain_edges_not_transitive():
    # Oracle: edges are the direct reference relation only; hand-enumerated.
    g = build_dependency_graph(parse_program(CHAIN))
    assert set(g.edges) == {("A", "B"), ("B", "C")}


def test_expression_reference_creates_edge():
    src = """
    class A { field x: int; method m() { A.x = B.K; } }
    class B { const K = 3; }
    """
    g = build_dependency_graph(parse_program(src))
    assert ("A", "B") in g.edges


def test_detect_relevant_cart():
    p = parse_program(cart_source())
    g = build_dependency_graph(p)
    assert detect_relevant_classes(g, {"Cart"}) == ("Cart", "Product")
    assert detect_relevant_classes(g, {"Product"}) == ("Product",)
    assert detect_relevant_classes(g, set()) == ()


def test_detect_relevant_chain_is_transitive():
    g = build_dependency_graph(parse_program(CHAIN))
    assert detect_relevant_classes(g, {"A"}) == ("A", "B", "C")
    assert detect_relevant_classes(g, {"B"}) == ("B", "C")


def test_unknown_target_error():
    g = build_dependency_graph(parse_program(CHAIN))
    with pytest.raises(UnknownTargetError, match="Zed"):
        detect_relevant_classes(g, {"Zed"})


@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    nodes = tuple(f"C{i}" for i in range(n))
    edges = []
    for a in range(n):
        for b in range(n):
            if a != b and draw(st.booleans()):
                edges.append((nodes[a], nodes[b]))
    return DependencyGraph(nodes, tuple(edges))


@given(graphs(), st.data())
def test_detect_relevant_monotone_and_closed(g, data):
    small = set(data.draw(st.sets(st.sampled_from(g.nodes), max_size=len(g.nodes))))
    extra = set(data.draw(st.sets(st.sampled_from(g.nodes), max_size=len(g.nodes))))
    r1 = set(detect_relevant_classes(g, small))
    r2 = set(detect_relevant_classes(g, small | extra))
    assert r1 <= r2
    # closure: every successor of a relevant node is relevant
    for node in r1:
        assert set(g.successors(node)) <= r1
