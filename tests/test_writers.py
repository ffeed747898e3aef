"""Every event writer, the filter report and ``schema.JsonText`` against
``json.dumps``.

The reference writers below encode each event with ``to_dict()`` and lay the
whole document out with ``json.dumps``.  The writers under test write through
one ``schema.JsonText``, which encodes each distinct event or clause once per
write and depth; for any document they must return the same string.  The
filter report is laid out by hand.
"""

import json
import math

from hypothesis import given, settings, strategies as st

from burstmine.collect import (SRT_CATEGORIES, Burst, MethodCall,
                               OperationSegment, Run, SamplerConfig,
                               dumps_baseline, dumps_bursts, dumps_runs)
from burstmine.filtering import FilterReport
from burstmine.functions import (COMPARE_OPS, AbstractionFunction, Clause,
                                 dump_af_list, parse_term)
from burstmine.model import (AnnotatedFSM, ReconstructedTrace,
                             dumps_reconstructions, export_fsm)
from burstmine.schema import JsonText
from burstmine.states import ConcreteObject, ConcreteState

# --- the reference writers ----------------------------------------------------------


def ref_dumps_runs(runs):
    lines = []
    for run in runs:
        lines.append(json.dumps({"run": run.run_id}))
        for seg in run.segments:
            lines.append(json.dumps({"segment": {
                "label": seg.label,
                "srt_category": seg.srt_category,
                "pre_state": seg.pre_state.to_dict(),
                "events": [e.to_dict() for e in seg.events],
                "post_state": seg.post_state.to_dict(),
            }}))
    return "\n".join(lines) + ("\n" if lines else "")


def ref_dumps_bursts(bursts, cfg=None, af_hash=None):
    if af_hash is None:
        af_hash = bursts[0].af_hash if bursts else ""
    header = {"af_hash": af_hash}
    if cfg is not None:
        header["sampler"] = cfg.to_dict()
    lines = [json.dumps({"header": header})]
    for b in bursts:
        lines.append(json.dumps({
            "label": b.label,
            "pre": b.pre,
            "trace": [e.to_dict() for e in b.trace],
            "post": b.post,
        }))
    return "\n".join(lines) + "\n"


def ref_dumps_baseline(traces, cfg):
    lines = [json.dumps({"header": {"sampler": cfg.to_dict()}})]
    for run_id, trace in traces:
        lines.append(json.dumps(
            {"run": run_id, "trace": [e.to_dict() for e in trace]}))
    return "\n".join(lines) + "\n"


def ref_export_fsm(fsm):
    transitions = []
    for key in sorted(fsm.transitions):
        label, frm, to = key
        transitions.append({
            "label": label, "from": frm, "to": to,
            "traces": [[e.to_dict() for e in trace]
                       for trace in fsm.transitions[key]],
        })
    return json.dumps({
        "af_hash": fsm.af_hash,
        "states": sorted(fsm.states),
        "transitions": transitions,
    }, indent=2)


def ref_dumps_reconstructions(traces):
    doc = [{
        "start": t.start,
        "end": t.end,
        "labels": list(t.labels),
        "segments": [{"label": label, "trace": [e.to_dict() for e in trace]}
                     for label, trace in t.segments],
    } for t in traces]
    return json.dumps(doc, indent=2)


def ref_filter_report_json(report):
    return json.dumps({
        "initial_columns": report.initial_columns,
        "kept": list(report.kept_column_ids),
        "removed_counts": report.counts,
        "log": report.log,
    }, indent=2)


# --- documents ------------------------------------------------------------------------

# Labels, methods and classes: non-ASCII, escaped, and text that looks like
# the layout ('null', '}, {', a quote before ': null').
names = st.one_of(
    st.sampled_from(["", "op", "null", 'x": null', "\\", '"', "}, {", "é",
                     " ", "\x00", "\U0001f600", "NaN"]),
    st.text(max_size=5))
params = st.lists(st.sampled_from(
    [-0.0, 0.0, 1e0, 1, True, False, "1", None, float("nan"), "é\\\""]),
    max_size=2).map(tuple)
# Params that compare equal in Python but are written differently.
TWINS = [(1,), (True,), (1.0,), (-0.0,), (0.0,), (0,), (False,)]
samplers = st.builds(SamplerConfig, st.sampled_from([0.0, 0.5, 1.0]),
                     st.integers(0, 3), st.sampled_from(["cbr", "fixed_length"]))
states = st.sampled_from([
    ConcreteState(),
    ConcreteState({"o1": ConcreteObject("Editor", {"n": 1, "ok": True})},
                  {"Editor": "o1"}),
    ConcreteState({"é": ConcreteObject("C\"", {"r": None, "a": ["é", None]}),
                   "x": ConcreteObject("D", {})}, {"C\"": "é", "D": None})])


@st.composite
def trace_pools(draw):
    """Traces over a few events: the same object repeated, equal events
    built separately, and events whose params differ only as ``1`` and
    ``true`` or ``-0.0`` and ``0.0`` do."""
    pool = draw(st.lists(st.builds(MethodCall, names, names, params),
                         min_size=1, max_size=3))
    pool += [MethodCall(pool[0].method, pool[0].class_name, p)
             for p in draw(st.lists(st.sampled_from(TWINS), max_size=3))]

    def event(i, copy):
        e = pool[i % len(pool)]
        return MethodCall(e.method, e.class_name, tuple(e.params)) if copy else e

    return st.lists(st.builds(event, st.integers(0, 5), st.booleans()),
                    max_size=5).map(tuple)


@st.composite
def documents(draw, shape):
    traces = draw(trace_pools())
    return draw(shape(traces))


def runs(traces):
    segment = st.builds(OperationSegment, names, traces, states, states,
                        st.sampled_from(SRT_CATEGORIES))
    return st.lists(st.builds(Run, names, st.lists(segment, max_size=3).map(tuple)),
                    max_size=3)


def bursts(traces):
    burst = st.builds(Burst, names, names, traces, names, names)
    return st.tuples(st.lists(burst, max_size=4), st.none() | samplers,
                     st.none() | names)


def baselines(traces):
    return st.tuples(st.lists(st.tuples(names, traces), max_size=4), samplers)


def models(traces):
    transitions = st.dictionaries(st.tuples(names, names, names),
                                  st.lists(traces, max_size=3).map(tuple),
                                  max_size=4)
    return st.builds(lambda af_hash, extra, ts: AnnotatedFSM(
        af_hash, frozenset(extra).union(*(k[1:] for k in ts)), ts),
        names, st.lists(names, max_size=2), transitions)


def reconstructions(traces):
    hop = st.tuples(names, traces)
    return st.lists(st.builds(ReconstructedTrace, names,
                              st.lists(hop, max_size=3).map(tuple), names),
                    max_size=3)


# Ids with quotes, backslashes, non-ASCII text and U+2028, which ``json.dumps``
# escapes.
ids = st.one_of(names, st.sampled_from(['a"b', "\\u2028", "\u2028", "r:1"]))


@st.composite
def filter_reports(draw):
    report = FilterReport(kept_column_ids=tuple(draw(st.lists(ids, max_size=4))),
                          initial_columns=draw(st.integers(0, 10**6)))
    for rule, ident in draw(st.lists(st.tuples(
            st.sampled_from(["duplicate-row", "non-discriminating",
                             "equivalent", "redundant"]), ids), max_size=6)):
        report.record(rule, ident)
    return report


# --- properties -----------------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(documents(runs))
def test_dumps_runs_agrees_with_the_reference(doc):
    assert dumps_runs(doc) == ref_dumps_runs(doc)


@settings(max_examples=150, deadline=None)
@given(documents(bursts))
def test_dumps_bursts_agrees_with_the_reference(doc):
    assert dumps_bursts(*doc) == ref_dumps_bursts(*doc)


@settings(max_examples=150, deadline=None)
@given(documents(baselines))
def test_dumps_baseline_agrees_with_the_reference(doc):
    assert dumps_baseline(*doc) == ref_dumps_baseline(*doc)


@settings(max_examples=150, deadline=None)
@given(documents(models))
def test_export_fsm_agrees_with_the_reference(fsm):
    assert export_fsm(fsm, "json") == ref_export_fsm(fsm)


@settings(max_examples=150, deadline=None)
@given(documents(reconstructions))
def test_dumps_reconstructions_agrees_with_the_reference(doc):
    assert dumps_reconstructions(doc) == ref_dumps_reconstructions(doc)


def test_writers_of_empty_documents_agree_with_the_reference():
    cfg = SamplerConfig(0.5, 1, "fixed_length")
    empty = AnnotatedFSM("", frozenset(), {})
    no_traces = AnnotatedFSM("h", frozenset({"T"}), {("op", "T", "T"): ()})
    empty_trace = AnnotatedFSM("h", frozenset({"T"}), {("op", "T", "T"): ((),)})
    assert dumps_runs([]) == ref_dumps_runs([]) == ""
    assert dumps_runs([Run("r")]) == ref_dumps_runs([Run("r")])
    assert dumps_bursts([]) == ref_dumps_bursts([])
    assert dumps_baseline([], cfg) == ref_dumps_baseline([], cfg)
    assert dumps_baseline([("r", ())], cfg) == ref_dumps_baseline([("r", ())], cfg)
    for fsm in (empty, no_traces, empty_trace):
        assert export_fsm(fsm, "json") == ref_export_fsm(fsm)
    hopless = [ReconstructedTrace("T", (), "T")]
    assert dumps_reconstructions([]) == ref_dumps_reconstructions([]) == "[]"
    assert dumps_reconstructions(hopless) == ref_dumps_reconstructions(hopless)


@settings(max_examples=150, deadline=None)
@given(filter_reports())
def test_filter_report_agrees_with_the_reference(report):
    assert report.to_json() == ref_filter_report_json(report)


def test_an_empty_filter_report_agrees_with_the_reference():
    for report in (FilterReport(), FilterReport(kept_column_ids=("é\u2028",)),
                   FilterReport(log=[{"rule": "redundant", "id": '"', "pass": 2}])):
        assert report.to_json() == ref_filter_report_json(report)


# --- JsonText -------------------------------------------------------------------------

# Floats at the ends of their range and those json.dumps writes as words;
# text over all of Unicode, lone surrogates included, and the characters that
# JSON escapes or that end a line elsewhere.
floats = st.floats() | st.sampled_from([-0.0, 1e300, 5e-324, math.nan, math.inf,
                                        -math.inf])
texts = st.text(st.characters(exclude_categories=()), max_size=5) | st.sampled_from(
    ["\u2028", "\x85", "\ud800", "\udfff", '"', "\\", "é\U0001f600"])
keys = st.one_of(texts, st.integers(), st.booleans(), st.none(), floats)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.integers(2**64, 2**80),
              floats, texts),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(keys, inner, max_size=3)),
    max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(json_values)
def test_json_text_writes_what_json_dumps_writes(value):
    assert JsonText().dumps(value) == json.dumps(value)
    assert JsonText().dumps(value, "\n") == json.dumps(value, indent=2)


class _Label(str):
    """A subclass of ``str``, as a ``StrEnum`` member is."""


class _Count(int):
    pass


class _Ratio(float):
    pass


def test_json_text_writes_subclasses_of_str_int_and_float_as_json_dumps_does():
    value = {"a": [_Label("x\u00e9"), _Count(3), _Ratio(0.5)], _Label("k"): _Label("y")}
    assert JsonText().dumps(value) == json.dumps(value)
    assert JsonText().dumps(value, "\n") == json.dumps(value, indent=2)
    burst = Burst("op", "T", (), "F", "h")
    assert dumps_bursts([Burst(_Label("op"), _Label("T"), (), "F", "h")]) == \
        dumps_bursts([burst])


clauses = st.builds(lambda lhs, op, rhs: Clause(parse_term(lhs), op, parse_term(rhs)),
                    st.sampled_from(["A.n", "A.xs.length", "A.xs.[0].v"]),
                    st.sampled_from(COMPARE_OPS),
                    st.sampled_from(["0", "1", "true", "null"]))


@st.composite
def shared_records(draw):
    """A document holding a few events and clauses at several depths, each
    by object and as a copy; events differ only as params ``1``, ``true``,
    ``1.0``, ``-0.0`` and ``0.0`` do."""
    pool = draw(st.lists(st.one_of(
        st.builds(MethodCall, names, names, st.sampled_from(TWINS)), clauses),
        min_size=1, max_size=3))

    def record(i, copy):
        r = pool[i % len(pool)]
        if not copy:
            return r
        if type(r) is Clause:
            return Clause(r.lhs, r.op, r.rhs)
        return MethodCall(r.method, r.class_name, r.params)

    leaves = st.builds(record, st.integers(0, 5), st.booleans()) | st.integers()
    return draw(st.recursive(leaves, lambda inner: st.lists(inner, max_size=3)
                             | st.dictionaries(names, inner, max_size=3),
                             max_leaves=10))


@settings(max_examples=300, deadline=None)
@given(shared_records())
def test_json_text_writes_each_record_as_its_dict_at_every_depth(doc):
    """One ``JsonText`` writes the document on one line, then indented."""
    text = JsonText()
    assert text.dumps(doc) == json.dumps(doc, default=lambda o: o.to_dict())
    assert text.dumps(doc, "\n") == json.dumps(doc, indent=2,
                                               default=lambda o: o.to_dict())


def _counting(monkeypatch, cls) -> list:
    """The values whose ``to_dict`` is called, in call order."""
    calls, to_dict = [], cls.to_dict
    monkeypatch.setattr(cls, "to_dict",
                        lambda self: calls.append(self) or to_dict(self))
    return calls


def test_one_write_encodes_each_distinct_event_and_clause_once(monkeypatch):
    events = [MethodCall(m, "C", p) for m in ("a", "b") for p in TWINS]
    traces = tuple(tuple(MethodCall(e.method, e.class_name, e.params)
                         for e in events[i:] + events[:i]) for i in range(5))
    fsm = AnnotatedFSM("h", frozenset({"T", "F"}), {
        ("op", "T", "F"): traces, ("op", "F", "T"): traces[::-1]})
    expected = ref_export_fsm(fsm)
    calls = _counting(monkeypatch, MethodCall)
    assert export_fsm(fsm, "json") == expected
    assert len(calls) == len(set(calls)) == len(events)

    def clause(text: str) -> Clause:
        lhs, op, rhs = text.split()
        return Clause(parse_term(lhs), op, parse_term(rhs))

    pool = ["A.n > 0", "A.n == 1", "A.xs.length > 0", "A.n > 0"]
    afs = [AbstractionFunction(f"f{i}", tuple(map(clause, pool[i % 2:])),
                               ("A", "m", "")) for i in range(6)]
    calls = _counting(monkeypatch, Clause)
    dump_af_list(afs)
    assert len(calls) == len(set(calls)) == 3
