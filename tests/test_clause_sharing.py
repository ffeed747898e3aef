"""One ``Clause`` per distinct clause, from extraction to the AF list and back.

An extraction shares one clause object among every path and function that
holds the clause, a load checks and builds each distinct clause document
once, and a write encodes each distinct clause once.  The loader's shortcut
must not change what it accepts or the first error it names: the property
below holds it to the reference loader of ``test_af_list_io``, which checks
the whole document first.
"""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from burstmine import functions, schema
from burstmine.functions import Clause, dump_af_list, load_af_list
from burstmine.ir import parse_program
from burstmine.symex import extract_abstraction_functions, symbolic_execute

from perfbench.inputs import editor_program
from test_af_list_io import af_lists, headers, outcome, ref_dump_af_list, ref_load_af_list

# --- the loader against the whole-document reference ---------------------------------

# Values that a check keyed by value alone would take for a bool, a string
# or a document: 0 and 0.0 equal False, and lists and objects are unhashable.
BAD_VALUES = (0, 1, 0.0, 1.0, None, "false", "", "007", "=<", 5, [], ["A.n"], {},
              {"lhs": "A.n"})
NEGATED_VALUES = (False, True, 0, 1, 0.0, None, "false", [])
MEMBERS = ("lhs", "op", "rhs", "negated")
EDITS = ("negated", "damaged copy", "bad record", "unhashable", "extra key",
         "not a clause", "missing member")


def _damage(clause: dict, draw) -> dict:
    clause = dict(clause)
    member = draw(st.sampled_from(MEMBERS))
    if draw(st.booleans()):
        clause.pop(member, None)
    else:
        clause[member] = draw(st.sampled_from(BAD_VALUES))
    return clause


@st.composite
def edited_documents(draw):
    """A valid list's document with up to four edits, each of a kind that a
    check of each distinct clause document alone could get wrong."""
    doc = json.loads(ref_dump_af_list(draw(af_lists()), draw(headers)))
    fns = doc["functions"]
    for _ in range(draw(st.integers(0, 4)) if fns else 0):
        i = draw(st.integers(0, len(fns) - 1))
        f = fns[i]
        if not isinstance(f, dict) or not isinstance(f.get("clauses"), list) \
                or not f["clauses"]:
            continue
        j = draw(st.integers(0, len(f["clauses"]) - 1))
        clause = f["clauses"][j]
        edit = draw(st.sampled_from(EDITS))
        if not isinstance(clause, dict) and edit != "bad record":
            continue
        if edit == "negated":
            f["clauses"][j] = {**clause, "negated": draw(st.sampled_from(NEGATED_VALUES))}
        elif edit == "damaged copy":  # later in this function or a later one
            later = fns[draw(st.integers(i, len(fns) - 1))]
            if isinstance(later, dict) and isinstance(later.get("clauses"), list):
                later["clauses"].append(_damage(clause, draw))
        elif edit == "bad record":  # after good clauses
            k = draw(st.integers(i, len(fns) - 1))
            record = fns[k] if isinstance(fns[k], dict) else {}
            how = draw(st.sampled_from(["id", "class", "clauses", "path", "record"]))
            if how == "record":
                fns[k] = draw(st.sampled_from([5, [], "f"]))
            elif how == "clauses":
                record["clauses"] = draw(st.sampled_from([{}, "x", None]))
            elif draw(st.booleans()) and how != "path":
                record.pop(how, None)
            else:
                record[how] = draw(st.sampled_from([3, None, ["f"]]))
        elif edit == "unhashable":
            f["clauses"][j] = {**clause, draw(st.sampled_from(MEMBERS)):
                               draw(st.sampled_from([[], ["A.n"], {}, {"a": [1]}]))}
        elif edit == "extra key":
            target = clause if draw(st.booleans()) else f
            target[draw(st.sampled_from(["note", "x", ""]))] = draw(
                st.sampled_from([[1], {"a": []}, None, "A.n"]))
        elif edit == "not a clause":
            f["clauses"][j] = draw(st.sampled_from([5, "A.n > 0", [], None]))
        else:
            f["clauses"][j] = {k: v for k, v in clause.items()
                               if k != draw(st.sampled_from(MEMBERS))}
    return json.dumps(doc, indent=draw(st.sampled_from([None, 2])))


# ``0`` equals ``False``, yet a clause document seen with ``false`` does not
# vouch for one with ``0``.
FALSE_THEN_ZERO = json.dumps({"functions": [
    {"id": "f0", "class": "A", "method": "m",
     "clauses": [{"lhs": "A.n", "op": ">", "rhs": "0", "negated": False}]},
    {"id": "f1", "class": "A", "method": "m",
     "clauses": [{"lhs": "A.n", "op": ">", "rhs": "0", "negated": 0}]}]})


@settings(max_examples=300, deadline=None)
@given(edited_documents())
@example(FALSE_THEN_ZERO)
def test_load_af_list_agrees_with_the_whole_document_check(text):
    assert outcome(load_af_list, text) == outcome(ref_load_af_list, text)


# --- sharing, counted -------------------------------------------------------------------


@pytest.fixture(scope="module")
def editor():
    """The seed-0 ``probe-mining`` list: 1,080 clauses, 98 distinct."""
    afs, report = extract_abstraction_functions(
        parse_program(editor_program(45, 0)), ("Editor",))
    return afs, dump_af_list(afs, report.to_header())


def _clauses(afs) -> list:
    return [c for af in afs for c in af.clauses]


def test_an_extraction_builds_one_clause_per_distinct_clause(editor):
    afs, _ = editor
    clauses = _clauses(afs)
    assert len(clauses) == 1080
    assert len({id(c) for c in clauses}) == len({c.key() for c in clauses}) == 98


def test_sibling_paths_share_their_guards_clauses():
    p = parse_program("""
    class A { field n: int; field m: int;
      method f() { if (A.n > 0) { A.m = 1; } if (A.m > 0) { A.n = 1; } }
    }
    """)
    paths, _ = symbolic_execute(p.classes[0].methods[0], p)
    clauses = [c for path in paths for c in path.clauses]
    assert len(paths) == 4
    assert len({id(c) for c in clauses}) == len({c.key() for c in clauses}) == 4


def test_a_load_checks_each_distinct_clause_document_once(editor, monkeypatch):
    _, text = editor
    record_mismatch, checked = schema._record_mismatch, []

    def counting(value, shape):
        if shape is functions.CLAUSE:
            checked.append(value)
        return record_mismatch(value, shape)

    monkeypatch.setattr(schema, "_record_mismatch", counting)
    afs, _ = load_af_list(text)
    assert len(checked) == 98
    assert len({id(c) for c in _clauses(afs)}) == 98


def test_a_load_calls_the_checker_a_fixed_number_of_times(editor, monkeypatch):
    """No check per clause: a tracer that spans each call of ``check`` from
    ``functions`` opens as many spans for 360 functions as for one."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return schema.check(*args, **kwargs)

    monkeypatch.setattr(functions, "check", counting)
    afs, text = editor
    load_af_list(text)
    load_af_list(dump_af_list(afs[:1]))
    assert len(calls) == 4


def test_a_write_encodes_each_distinct_clause_once(editor, monkeypatch):
    afs, text = editor
    to_dict, written = Clause.to_dict, []

    def counting(self):
        written.append(self)
        return to_dict(self)

    monkeypatch.setattr(Clause, "to_dict", counting)
    assert dump_af_list(afs, json.loads(text)["header"]) == text
    assert len(written) == 98


def test_a_clause_forms_its_key_once(editor):
    c = editor[0][0].clauses[0]
    assert c.key() is c.key() is str(c)
