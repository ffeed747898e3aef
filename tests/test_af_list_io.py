"""The AF-list writer and loader against reference implementations.

The references below build every clause of every function on its own: the
writer lays the whole document out with ``json.dumps``, and the loader parses
each clause document where it occurs.  The code under test encodes and builds
each distinct clause once per write or load; for any list, and for any
document, damaged or not, it must give the same string, the same functions
and header, or the same error.
"""

import json

from hypothesis import given, settings, strategies as st

from burstmine.functions import (AF_LIST, AbstractionFunction, Clause,
                                 af_list_hash, dump_af_list, load_af_list,
                                 parse_term)
from burstmine.schema import check

# --- the references --------------------------------------------------------------------


def ref_dump_af_list(afs, header=None):
    doc = {
        "header": dict(header or {}),
        "af_hash": af_list_hash(afs),
        "functions": [af.to_dict() for af in afs],
    }
    return json.dumps(doc, indent=2)


def ref_load_af_list(text):
    doc = check(json.loads(text), AF_LIST, "abstraction-function list")
    afs = []
    for i, d in enumerate(doc["functions"]):
        try:
            clauses = tuple(Clause(parse_term(c["lhs"]), c["op"], parse_term(c["rhs"]),
                                   c.get("negated", False)) for c in d["clauses"])
            afs.append(AbstractionFunction(d["id"], clauses, (
                d["class"], d["method"], d.get("path", ""))))
        except ValueError as exc:
            raise ValueError(f"abstraction function {i}: {exc}") from None
    if doc.get("af_hash") and doc["af_hash"] != af_list_hash(afs):
        raise ValueError("abstraction-function list hash mismatch")
    return afs, doc.get("header", {})


def outcome(load, text):
    """The functions and header by ``repr``, or the error's type and message."""
    try:
        afs, header = load(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return repr(afs), repr(header)


# --- lists -----------------------------------------------------------------------------

# Ids, classes and methods: quotes, escapes, non-ASCII and layout look-alikes.
names = st.one_of(st.sampled_from(["", "f0", 'q"x', "é", "\U0001f600", "\\",
                                   "a\nb", '"}, {', "null"]),
                  st.text(max_size=4))
# Few left-hand sides, so that distinct clauses share one; some comparisons
# are equal only once canonical (x != true is x == false, len <= 0 is len == 0).
LHS = ("A.b", "A.n", "A.xs.length", "A.xs.[0].v", "A.xs.[A.n].ok")
RHS = ("0", "1", "true", "false", "null", "A.n")
OPS = ("==", "!=", "<", "<=", ">", ">=")
specs = st.tuples(st.sampled_from(LHS), st.sampled_from(OPS), st.sampled_from(RHS),
                  st.booleans())


def _build(spec):
    lhs, op, rhs, negated = spec
    return Clause(parse_term(lhs), op, parse_term(rhs), negated)


@st.composite
def af_lists(draw, max_size=12):
    """Functions over a small pool of clauses, shared by object (the pool's
    own) and by value (built again from the same or the mirrored text), and
    the negations of the pool's clauses."""
    pool = draw(st.lists(specs, min_size=1, max_size=6))
    objects = [_build(s) for s in pool]

    def clause(i: int, how: int) -> Clause:
        lhs, op, rhs, negated = pool[i % len(pool)]
        if how == 0:
            return objects[i % len(pool)]
        if how == 1:
            return _build(pool[i % len(pool)])
        if how == 2:
            return _build((lhs, op, rhs, not negated)).mirrored()
        return objects[i % len(pool)].mirrored()

    clauses = st.builds(clause, st.integers(0, 5), st.integers(0, 3))
    return [AbstractionFunction(af_id, tuple(cs), (cls, method, path))
            for af_id, cls, method, path, cs in draw(st.lists(st.tuples(
                names, names, names, names, st.lists(clauses, min_size=1, max_size=4)),
                max_size=max_size))]


json_scalars = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), names,
                         st.floats(allow_nan=False, allow_infinity=False))
headers = st.one_of(st.none(), st.dictionaries(names, st.recursive(
    json_scalars, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        names, inner, max_size=3), max_leaves=8), max_size=4))


# --- documents -------------------------------------------------------------------------

MIRROR = {"==": "!=", "!=": "==", "<": ">=", ">=": "<", ">": "<=", "<=": ">"}
NEGATED = ("as written", "absent", "false", "true", "0", "1")
DAMAGE = (None, "malformed term", "unknown operator", "parameter", "no clauses",
          "id not a string", "hash mismatch", "no hash", "header not an object",
          "functions not a list")


def _rewrite(clause: dict, how: str) -> dict:
    """The same clause with ``negated`` absent, false, true (the mirrored
    operator), or the non-bools 0 and 1."""
    clause = dict(clause)
    if how == "absent":
        del clause["negated"]
    elif how == "true":
        clause.update(op=MIRROR[clause["op"]], negated=True)
    elif how in ("0", "1"):
        clause["negated"] = int(how)
    return clause


@st.composite
def documents(draw):
    doc = json.loads(ref_dump_af_list(draw(af_lists()), draw(headers)))
    for d in doc["functions"]:
        d["clauses"] = [_rewrite(c, draw(st.sampled_from(NEGATED[:4] * 5 + NEGATED[4:])))
                        for c in d["clauses"]]
        if draw(st.booleans()):
            d["path"] = draw(names)
    damage = draw(st.sampled_from(DAMAGE))
    functions = doc["functions"]
    if functions and damage in ("malformed term", "unknown operator", "parameter",
                                "no clauses", "id not a string"):
        d = functions[draw(st.integers(0, len(functions) - 1))]
        c = d["clauses"][draw(st.integers(0, len(d["clauses"]) - 1))]
        if damage == "malformed term":
            c[draw(st.sampled_from(["lhs", "rhs"]))] = draw(st.sampled_from(
                ["007", "A..n", "-1", "", "A.xs.[true]"]))
        elif damage == "unknown operator":
            c["op"] = draw(st.sampled_from(["=<", "=", "", "<>"]))
        elif damage == "parameter":
            c["lhs"] = draw(st.sampled_from(["p", "A.xs.[p]", "p.n"]))
        elif damage == "no clauses":
            d["clauses"] = []
        else:
            d["id"] = 3
    elif damage == "hash mismatch":
        doc["af_hash"] = "0" * 16
    elif damage == "no hash":
        del doc["af_hash"]
    elif damage == "header not an object":
        doc["header"] = []
    elif damage == "functions not a list":
        doc["functions"] = {}
    return json.dumps(doc, indent=draw(st.sampled_from([None, 2])))


# --- properties -------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(af_lists(), headers)
def test_dump_af_list_agrees_with_the_reference(afs, header):
    assert dump_af_list(afs, header) == ref_dump_af_list(afs, header)


@settings(max_examples=300, deadline=None)
@given(documents())
def test_load_af_list_agrees_with_the_reference(text):
    assert outcome(load_af_list, text) == outcome(ref_load_af_list, text)


def test_a_clause_and_its_negated_twin_are_two_clauses():
    """``{A.n > 0}`` and ``{A.n > 0, negated}`` share a text but not a clause."""
    clauses = [{"lhs": "A.n", "op": ">", "rhs": "0"},
               {"lhs": "A.n", "op": ">", "rhs": "0", "negated": True},
               {"lhs": "A.b", "op": "!=", "rhs": "true", "negated": False},
               {"lhs": "A.b", "op": "==", "rhs": "false"}]
    text = json.dumps({"functions": [
        {"id": f"f{i}", "class": "A", "method": "m", "clauses": [c]}
        for i, c in enumerate(clauses * 2)]})
    afs, _ = load_af_list(text)
    assert repr(afs) == repr(ref_load_af_list(text)[0])
    assert [str(af) for af in afs[:4]] == ["A.n > 0", "A.n <= 0", "A.b == false",
                                           "A.b == false"]
    # one object per distinct clause document, shared by its occurrences
    assert [afs[i].clauses[0] is afs[i + 4].clauses[0] for i in range(4)] == [True] * 4
    assert afs[2].clauses[0] is not afs[3].clauses[0]


def test_writers_and_loaders_of_empty_lists_agree_with_the_reference():
    for header in (None, {}, {"nested": {"é": [1, {"a": None}]}, "": []}):
        text = dump_af_list([], header)
        assert text == ref_dump_af_list([], header)
        assert outcome(load_af_list, text) == outcome(ref_load_af_list, text)
