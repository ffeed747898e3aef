"""Every event writer against a reference writer.

The reference writers below encode each event with ``to_dict()`` and lay the
whole document out with ``json.dumps``.  The writers under test encode each
distinct event once per write and splice the texts in; for any document they
must return the same string.
"""

import json

from hypothesis import given, settings, strategies as st

from burstmine.collect import (SRT_CATEGORIES, Burst, MethodCall,
                               OperationSegment, Run, SamplerConfig,
                               dumps_baseline, dumps_bursts, dumps_runs)
from burstmine.model import (AnnotatedFSM, ReconstructedTrace,
                             dumps_reconstructions, export_fsm)
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
