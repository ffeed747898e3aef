import re
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from burstmine import ir
from burstmine.ir import (ArityError, DependencyGraph, DuplicateNameError,
                          IrError, IrSyntaxError, UndeclaredTypeError,
                          UnknownTargetError, build_dependency_graph,
                          detect_relevant_classes, parse_atom, parse_program,
                          pretty_print)

from conftest import cart_source
from perfbench.inputs import editor_program


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
    # Only the grammar's ASCII digits and whitespace are tokens.
    pytest.param("class A { const K = ٣; }", IrSyntaxError,
                 "1:21: unexpected character '٣'", id="arabic-indic-digit"),
    pytest.param("class A { field x: int; method m() { if (A.x > ٣٣) "
                 "{ return; } } }", IrSyntaxError, "1:48: unexpected character '٣'",
                 id="digits-in-a-guard"),
    pytest.param("class A {\xa0}", IrSyntaxError,
                 "1:10: unexpected character '\\xa0'", id="no-break-space"),
    pytest.param("class A {\n}\u2028", IrSyntaxError,
                 "2:2: unexpected character '\\u2028'", id="line-separator"),
    # Two faults: the first in statement order is reported.
    pytest.param("class A { field n: int; method m() { if (A.n > 0) { A.n = A.zz; } "
                 "call look(); } method look(x: int) { } }", UndeclaredTypeError,
                 "A.m: 'A' has no member 'zz' in A.zz", id="then-path-before-arity"),
    pytest.param("class A { field n: int; method m() { call gone(A.zz); } }",
                 UndeclaredTypeError, "A.m: call to unknown local method 'gone'",
                 id="callee-before-argument-path"),
    pytest.param("class A { field n: int; method m() { if (A.n > 0) { A.n = 1; } "
                 "else { call look(A.n, A.n); } A.n = A.q; } method look(x: int) { } }",
                 ArityError, "A.m: call to 'look' passes 2 argument(s); it takes 1",
                 id="else-arity-before-later-path"),
    pytest.param("class A { field n: int; method m() { if (A.n > 0) { A.n = A.p; } "
                 "else { A.n = A.q; } } }", UndeclaredTypeError,
                 "A.m: 'A' has no member 'p' in A.p", id="then-before-else"),
    pytest.param("class A { field n: int; method m() { A.p = A.q; } }",
                 UndeclaredTypeError, "A.m: 'A' has no member 'p' in A.p",
                 id="target-before-value"),
    pytest.param("class A { field n: int; method m() { for i in 0 .. i { A.n = 1; } } }",
                 UndeclaredTypeError, "A.m: unknown path root 'i' in i",
                 id="loop-variable-not-in-its-bound"),
    pytest.param("class A { field n: int; method m() { for i in 0 .. A.n { } "
                 "A.n = i; } }", UndeclaredTypeError,
                 "A.m: unknown path root 'i' in i", id="loop-variable-out-of-scope"),
    # A loop bound and an index path read an integer.
    pytest.param(B + "class A { field xs: B[]; field f: bool; method m() { "
                 "if (A.xs.[A.f].v > 0) { return; } } }", UndeclaredTypeError,
                 "A.m: index A.f is not an integer in A.xs.[A.f].v",
                 id="bool-index"),
    pytest.param(B + "class A { field xs: B[]; method m() { for i in 0 .. A.xs "
                 "{ return; } } }", UndeclaredTypeError,
                 "A.m: loop bound A.xs is not an integer", id="array-loop-bound"),
    pytest.param("class A { field f: bool; method m() { for i in 0 .. A.f "
                 "{ return; } } }", UndeclaredTypeError,
                 "A.m: loop bound A.f is not an integer", id="bool-loop-bound"),
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



# --- characters ------------------------------------------------------------------


def test_an_identifier_may_start_with_an_underscore():
    p = parse_program("class _A { field _x1: int; }")
    assert p.classes[0].fields[0].name == "_x1"


# --- error positions -------------------------------------------------------------

_REFERENCE_TOKEN = re.compile(
    r"(?P<ws>\s+)|(?P<comment>\#[^\n]*)|(?P<int>\d+)|(?P<ident>[A-Za-z_]\w*)"
    r"|(?P<op>\.\.|==|!=|<=|>=|&&|\|\||\[\]|[{}()\[\];:,.=<>!+\-*/])", re.ASCII)


def _reference_tokens(source):
    """``(text, line, col)`` of each token, the end of input last, counted
    token by token as the tokenizer advances; and ``(line, col, message)``
    of the first unexpected character, or None."""
    tokens, line, col, pos = [], 1, 1, 0
    while pos < len(source):
        m = _REFERENCE_TOKEN.match(source, pos)
        if m is None:
            return tokens, (line, col, f"unexpected character {source[pos]!r}")
        text = m.group()
        if m.lastgroup not in ("ws", "comment"):
            tokens.append((text, line, col))
        if "\n" in text:
            line += text.count("\n")
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(("", line, col))
    return tokens, None


def _raised_error(parse, source):
    """The ``IrSyntaxError`` that ``parse`` raises on ``source`` (or None),
    and the index of the token its parser stopped at (None when the
    tokenizer raised)."""
    parsers = []

    class Recording(ir._Parser):
        def __init__(self, text):
            super().__init__(text)
            parsers.append(self)

    with mock.patch.object(ir, "_Parser", Recording):
        try:
            parse(source)
        except IrSyntaxError as e:
            return e, parsers[0].pos if parsers else None
        except IrError:
            pass
    return None, None


POSITION_BASES = [cart_source(), TERMS_SOURCE, "Cart.items.[Cart.n].price", "null"]
SEPARATORS = [" ", "\t", "\n", "\r\n", "  # a comment\n", "\t# x\r\n\n", "\n \t\r\n  "]
STRAY_TOKENS = [")", "{", ";", "class", "3", "..", "=", "length"]
BAD_CHARACTERS = ["$", "@", "?", "`", "~", "%", "\x00", "\u0663", "\xa0", "\u2028",
                  "\xe9", "\x0b"]


@st.composite
def laid_out_sources(draw):
    """A valid program or atom with another layout, then at most one of: an
    unexpected character at any offset, a token dropped or a stray one
    inserted anywhere, or the input cut after any token."""
    texts = [t for t, _, _ in _reference_tokens(draw(st.sampled_from(POSITION_BASES)))[0]]
    texts.pop()  # the end of input
    fault = draw(st.sampled_from(["none", "character", "drop", "stray", "cut"]))
    i = draw(st.integers(0, len(texts)))
    if fault == "drop" and i < len(texts):
        del texts[i]
    elif fault == "stray":
        texts.insert(i, draw(st.sampled_from(STRAY_TOKENS)))
    elif fault == "cut":
        del texts[i:]
    seps = st.sampled_from(SEPARATORS)
    source = draw(st.sampled_from(["", *SEPARATORS]))
    source += "".join(text + draw(seps) for text in texts)
    source += draw(st.sampled_from(["", "# end", "\r\n"]))
    if fault == "character":
        at = draw(st.integers(0, len(source)))
        source = source[:at] + draw(st.sampled_from(BAD_CHARACTERS)) + source[at:]
    return source


@given(laid_out_sources())
def test_a_syntax_error_names_the_line_and_column_its_token_starts_at(source):
    tokens, unexpected = _reference_tokens(source)
    for parse in (parse_program, parse_atom):
        error, index = _raised_error(parse, source)
        if unexpected is not None:
            line, col, message = unexpected
            assert error is not None and index is None
            assert (error.line, error.col, str(error)) == (
                line, col, f"{line}:{col}: {message}")
        elif error is not None:
            text, line, col = tokens[index]
            assert (error.line, error.col) == (line, col)
            assert str(error).startswith(f"{line}:{col}: ")
            assert str(error).endswith(f" (got {text!r})")


# --- the statement walk -------------------------------------------------------------


def _reference_edges(program):
    """Edges from field and parameter types, then from the roots of every
    path in each method body: statements pre-order, nested blocks included,
    each statement's assignment target and value, guard, loop bound or call
    arguments in source order, and index paths inside a path after it.  A
    root that names a parameter, or a loop variable inside its loop's body,
    is not a class; this scope is tracked here, not read off the paths."""
    names = set(program.class_names)
    edges = []

    def expr_paths(e):
        if isinstance(e, ir.Path):
            yield e
        elif isinstance(e, ir.Not):
            yield from expr_paths(e.operand)
        elif isinstance(e, (ir.And, ir.Or, ir.Cmp, ir.BinOp)):
            yield from expr_paths(e.left)
            yield from expr_paths(e.right)

    def body_paths(body, scope):
        for s in body:
            if isinstance(s, ir.Assign):
                yield s.target, scope
                yield from ((p, scope) for p in expr_paths(s.value))
            elif isinstance(s, ir.If):
                yield from ((p, scope) for p in expr_paths(s.cond))
                yield from body_paths(s.then, scope)
                yield from body_paths(s.orelse, scope)
            elif isinstance(s, ir.For):
                yield s.bound, scope
                yield from body_paths(s.body, scope | {s.var})
            elif isinstance(s, ir.Call):
                for a in s.args:
                    yield from ((p, scope) for p in expr_paths(a))

    def roots(path, scope):
        if path.root not in scope:
            yield path.root
        for kind, payload in path.segments:
            if kind == "index" and isinstance(payload, ir.Path):
                yield from roots(payload, scope)

    def add(a, b):
        if b in names and b != a and (a, b) not in edges:
            edges.append((a, b))

    for cls in program.classes:
        for f in cls.fields:
            add(cls.name, f.type.name)
        for m in cls.methods:
            for p in m.params:
                add(cls.name, p.type.name)
            for path, scope in body_paths(m.body, frozenset(p.name for p in m.params)):
                for root in roots(path, scope):
                    add(cls.name, root)
    return tuple(edges)


GRAPH_CASES = {
    "loop-variable-named-like-a-class": """
        class A { field n: int; field xs: X[];
          method m() { for C in 0 .. A.n { A.xs.[C].v = 1; } } }
        class C { field k: int; }
        class X { field v: int; }""",
    "parameter-named-like-a-class": """
        class A { field n: int; method m(B: int) { A.n = B; } }
        class B { field k: int; }""",
    "nested-index-path": """
        class A { field xs: X[]; method m() { A.xs.[B.ys.[C.n].m].v = 1; } }
        class B { field ys: Y[]; }
        class C { field n: int; }
        class X { field v: int; }
        class Y { field m: int; }""",
    "call-argument-path": """
        class A { field n: int;
          method m() { call look(B.k); }
          method look(x: int) { A.n = x; } }
        class B { field k: int; }""",
    "else-block": """
        class A { field n: int;
          method m() { if (A.n > 0) { A.n = E.k; } else { A.n = D.k; } } }
        class D { field k: int; }
        class E { field k: int; }""",
    "target-before-value": """
        class A { field n: int; method m() { B.k = C.k; } }
        class C { field k: int; }
        class B { field k: int; }""",
}


@pytest.mark.parametrize("source", [
    pytest.param(cart_source(), id="cart"),
    *[pytest.param(editor_program(45, seed), id=f"editor-{seed}")
      for seed in (0, 1, 9001)],
    pytest.param(TERMS_SOURCE, id="term-vocabulary"),
    *[pytest.param(src, id=name) for name, src in GRAPH_CASES.items()],
])
def test_dependency_edges_follow_every_statement_path_in_order(source):
    program = parse_program(source)
    assert build_dependency_graph(program).edges == _reference_edges(program)


def test_hand_cases_have_the_edges_their_paths_name():
    edges = {name: build_dependency_graph(parse_program(src)).edges
             for name, src in GRAPH_CASES.items()}
    assert edges == {
        "loop-variable-named-like-a-class": (("A", "X"),),
        "parameter-named-like-a-class": (),
        "nested-index-path": (("A", "X"), ("A", "B"), ("A", "C"), ("B", "Y")),
        "call-argument-path": (("A", "B"),),
        "else-block": (("A", "E"), ("A", "D")),
        "target-before-value": (("A", "B"), ("A", "C")),
    }


# --- what a path root names -------------------------------------------------------

# `B` is a parameter of `p`, a loop variable of both methods and a class.
BINDING_SOURCE = """
    class A { field n: int; field xs: X[];
      method p(B: int) {
        for B in 0 .. A.xs.[B].v { A.xs.[B].v = B; }
        A.n = B;
      }
      method q() {
        for B in 0 .. B.n { A.xs.[B].v = 1; }
        A.xs.[B.n].v = B.ys.[A.n].v;
      } }
    class B { field n: int; field ys: X[]; }
    class X { field v: int; }"""


def _bindings(body):
    """``(path, binding)`` of each path in ``body``, an index path after the
    path it indexes."""
    def flat(path):
        yield str(path), path.binding
        for kind, payload in path.segments:
            if kind == "index" and isinstance(payload, ir.Path):
                yield from flat(payload)

    for s in body:
        for path in ir.statement_paths(s):
            yield from flat(path)
        if isinstance(s, ir.For):
            yield from _bindings(s.body)


def test_each_path_root_binds_to_the_innermost_name_in_scope():
    p, q = parse_program(BINDING_SOURCE).classes[0].methods
    assert list(_bindings(p.body)) == [
        ("A.xs.[B].v", "class"), ("B", "param"),  # a loop's bound: the parameter
        ("A.xs.[B].v", "class"), ("B", "loop"),  # the loop shadows the parameter
        ("B", "loop"),
        ("A.n", "class"), ("B", "param"),  # after the loop: the parameter again
    ]
    assert list(_bindings(q.body)) == [
        ("B.n", "class"),  # a loop's bound: the class
        ("A.xs.[B].v", "class"), ("B", "loop"),
        ("A.xs.[B.n].v", "class"), ("B.n", "class"),  # after the loop: the class
        ("B.ys.[A.n].v", "class"), ("A.n", "class"),
    ]


def test_a_path_read_alone_names_a_class():
    path = parse_atom("B.xs.[C.n].v")
    assert (path.binding, path.segments[1][1].binding) == ("class", "class")
