import dataclasses
import json
import random
import re
import sys

import pytest
from hypothesis import given, settings, strategies as st

from burstmine.collect import (Burst, MethodCall, SamplerConfig, collect,
                               collect_cbr_bursts)
from burstmine.functions import af_list_hash
from burstmine.model import (AnnotatedFSM, ModelError, ReconstructedTrace,
                             accepts_prefix,
                             export_fsm, import_fsm, simulate_traces,
                             synthesize, with_transition)
from burstmine.synthetic import (PS_EMPTY, PS_FILLING, PS_PAID,
                                 checkout_abstraction_functions,
                                 checkout_reference_bursts, checkout_runs,
                                 editor_abstraction_functions,
                                 generate_editor_runs)


def mk_burst(label, pre, post, trace=(), h="h1"):
    return Burst(label, pre, tuple(trace), post, h)


def bursts_of(run, afs):
    return collect(run.segments, afs, af_list_hash(afs))


def call(name):
    return MethodCall(name, "Cart", ())


# --- synthesize -------------------------------------------------------------

def test_synthesize_two_bursts_three_states():
    bursts = [mk_burst("clickOnAddItem", "UU", "UF", [call("addItem")]),
              mk_burst("clickOnPay", "UF", "FF", [call("applyDiscount")])]
    fsm = synthesize(bursts)
    assert fsm.n_states == 3
    assert fsm.n_transitions == 2
    assert set(fsm.transitions) == {("clickOnAddItem", "UU", "UF"),
                                    ("clickOnPay", "UF", "FF")}


def test_synthesize_empty():
    fsm = synthesize([])
    assert fsm.n_states == 0 and fsm.n_transitions == 0


@pytest.mark.parametrize("first_hash", ["h1", ""])
def test_synthesize_rejects_mixed_af_hashes(first_hash):
    bursts = [mk_burst("op", "TF", "FT", h=first_hash),
              mk_burst("op", "FT", "TF", h="h2")]
    with pytest.raises(ModelError, match="mix"):
        synthesize(bursts)


def test_same_triple_different_traces_one_transition():
    bursts = [mk_burst("op", "TF", "FT", [call("a")]),
              mk_burst("op", "TF", "FT", [call("b")]),
              mk_burst("op", "TF", "FT", [call("a")])]  # duplicate trace
    fsm = synthesize(bursts)
    key = ("op", "TF", "FT")
    assert fsm.n_transitions == 1
    assert fsm.transitions[key] == ((call("a"),), (call("b"),))


def test_synthesize_order_insensitive():
    afs = editor_abstraction_functions()
    runs = generate_editor_runs(4, master_seed=3)
    bursts = collect_cbr_bursts(runs, afs, SamplerConfig(0.8, 1))
    shuffled = bursts[:]
    random.Random(0).shuffle(shuffled)
    a, b = synthesize(bursts), synthesize(shuffled)
    assert a.states == b.states
    assert set(a.transitions) == set(b.transitions)
    for key in a.transitions:
        assert set(a.transitions[key]) == set(b.transitions[key])


def test_synthesize_hash_mismatch():
    bursts = [mk_burst("a", "T", "F", h="h1"), mk_burst("b", "T", "F", h="h2")]
    with pytest.raises(ModelError):
        synthesize(bursts)


def _reference_synthesize(bursts, af_hash=None) -> AnnotatedFSM:
    """The value-only reference for ``synthesize``: every burst's trace is
    hashed by value."""
    if af_hash is None:
        af_hash = bursts[0].af_hash if bursts else ""
    states, transitions, seen = set(), {}, {}
    for b in bursts:
        if b.af_hash != af_hash:
            raise ModelError("bursts mix different AF orderings")
        states.add(b.pre)
        states.add(b.post)
        key = (b.label, b.pre, b.post)
        bucket = transitions.setdefault(key, [])
        dedup = seen.setdefault(key, set())
        if b.trace not in dedup:
            dedup.add(b.trace)
            bucket.append(b.trace)
    return AnnotatedFSM(af_hash, frozenset(states),
                        {k: tuple(v) for k, v in transitions.items()})


# Events whose params are equal Python values (1, True, 1.0; -0.0, 0.0) but
# are written differently, so that they are different events.
_TWINS = [MethodCall("op", "C", params) for params in
          [(), (1,), (True,), (1.0,), (-0.0,), (0.0,), ("1",)]]


@st.composite
def _shared_bursts(draw):
    """Bursts over a few keys whose traces are a few objects, shared by
    several bursts, some of them equal to another object's trace."""
    values = draw(st.lists(st.lists(st.sampled_from(_TWINS), max_size=3),
                           min_size=1, max_size=4))
    traces = [tuple(value) for value in values for _ in range(draw(st.integers(1, 3)))]
    bursts = [mk_burst(draw(st.sampled_from("ab")), draw(st.sampled_from("TF")),
                       draw(st.sampled_from("TF")), draw(st.sampled_from(traces)))
              for _ in range(draw(st.integers(0, 12)))]
    if bursts and draw(st.integers(0, 7)) == 0:
        at = draw(st.integers(0, len(bursts) - 1))
        bursts[at] = dataclasses.replace(bursts[at], af_hash="h2")
    return bursts


def _synthesized(synth, bursts):
    try:
        fsm = synth(bursts)
    except ModelError as exc:
        return str(exc)
    annotations = [id(t) for traces in fsm.transitions.values() for t in traces]
    return fsm, export_fsm(fsm, "json"), annotations


@settings(max_examples=400, deadline=None)
@given(_shared_bursts())
def test_synthesize_agrees_with_hashing_every_trace(bursts):
    assert _synthesized(synthesize, bursts) == _synthesized(
        _reference_synthesize, bursts)


def test_every_burst_trace_lands_in_exactly_one_transition():
    afs = editor_abstraction_functions()
    runs = generate_editor_runs(3, master_seed=5)
    bursts = collect_cbr_bursts(runs, afs, SamplerConfig(1.0, 0))
    fsm = synthesize(bursts)
    assert fsm.n_states <= 2 * len({(str(b.pre), str(b.post)) for b in bursts})
    for b in bursts:
        holders = [k for k, traces in fsm.transitions.items() if b.trace in traces
                   and k == (b.label, str(b.pre), str(b.post))]
        assert len(holders) == 1


# --- simulate_traces ----------------------------------------------------------

def checkout_fsm():
    return synthesize(checkout_reference_bursts())


def test_simulate_includes_add_then_pay():
    fsm = checkout_fsm()
    traces = simulate_traces(fsm, PS_EMPTY, max_hops=2)
    label_seqs = {t.labels: t for t in traces}
    t = label_seqs.get(("clickOnAddItem", "clickOnPay"))
    assert t is not None and t.end == PS_PAID
    methods = [e.method for e in t.events]
    assert "addItem" in methods and "applyDiscount" in methods \
        and "calculateTotal" in methods


def test_simulate_zero_hops():
    fsm = checkout_fsm()
    traces = simulate_traces(fsm, PS_FILLING, max_hops=0)
    assert len(traces) == 1
    assert traces[0].segments == () and traces[0].end == PS_FILLING


def test_simulate_dead_end_state():
    fsm = synthesize([mk_burst("go", "TT", "FF", [call("a")])])
    traces = simulate_traces(fsm, "FF", max_hops=5)
    assert len(traces) == 1 and traces[0].segments == ()


def test_simulate_unknown_start():
    with pytest.raises(ModelError):
        simulate_traces(checkout_fsm(), "TTT", 1)


def test_simulate_connectivity_and_budget():
    fsm = checkout_fsm()
    traces = simulate_traces(fsm, PS_EMPTY, max_hops=4)
    for t in traces:
        state = t.start
        for label, trace in t.segments:
            key = next(k for k in fsm.transitions
                       if k[0] == label and k[1] == state and trace in fsm.transitions[k])
            state = key[2]
        assert state == t.end
    capped = simulate_traces(fsm, PS_EMPTY, max_hops=12, combination_budget=5)
    assert len(capped) == 5
    assert capped == simulate_traces(fsm, PS_EMPTY, max_hops=12, combination_budget=5)


def _reference_simulate(fsm, start, max_hops, budget):
    """The walk as a recursion, one call per hop."""
    out = []

    def walk(state, hops_left, acc):
        keys = fsm.outgoing(state) if hops_left > 0 else []
        if not keys:
            out.append(ReconstructedTrace(start, acc, state))
            return
        for key in keys:
            for trace in fsm.transitions[key]:
                if len(out) >= budget:
                    return
                walk(key[2], hops_left - 1, acc + ((key[0], trace),))

    walk(start, max_hops, ())
    return out


@st.composite
def small_models(draw):
    """A model over three states with cycles, self-loops, several labels per
    state pair, and transitions with no trace, as a model file may hold."""
    states = ["T", "F", "U"]
    traces = st.lists(st.sampled_from([(), (call("a"),), (call("b"), call("a"))]),
                      max_size=2, unique=True).map(tuple)
    keys = st.tuples(st.sampled_from(["x", "y"]), st.sampled_from(states),
                     st.sampled_from(states))
    return AnnotatedFSM("h", frozenset(states),
                        draw(st.dictionaries(keys, traces, max_size=6)))


@settings(max_examples=200, deadline=None)
@given(small_models(), st.sampled_from("TFU"), st.integers(0, 5),
       st.integers(1, 30))
def test_simulate_walks_as_the_recursion_does(fsm, start, max_hops, budget):
    assert simulate_traces(fsm, start, max_hops, budget) == \
        _reference_simulate(fsm, start, max_hops, budget)


def test_a_walk_longer_than_the_recursion_limit_simulates():
    fsm = synthesize([mk_burst("loop", "T", "T", [call("a")])])
    hops = 3 * sys.getrecursionlimit()
    (walk,) = simulate_traces(fsm, "T", hops, combination_budget=1)
    assert walk.labels == ("loop",) * hops and walk.end == "T"


# --- accepts_prefix --------------------------------------------------------------

def test_self_acceptance_at_certainty():
    afs = checkout_abstraction_functions()
    runs = checkout_runs()
    fsm = synthesize(collect_cbr_bursts(runs, afs, SamplerConfig(1.0, 0)))
    for run in runs:
        assert accepts_prefix(fsm, bursts_of(run, afs)) == run.total_events


def test_empty_fsm_accepts_nothing():
    afs = checkout_abstraction_functions()
    runs = checkout_runs()
    assert accepts_prefix(synthesize([]), bursts_of(runs[0], afs)) == 0


def test_missing_transition_stops_prefix():
    afs = checkout_abstraction_functions()
    runs = checkout_runs()
    bursts = collect_cbr_bursts(runs, afs, SamplerConfig(1.0, 0))
    run = runs[1]  # addItem, addItem, pay, newSession
    second_add = ("clickOnAddItem", PS_FILLING, PS_FILLING)
    kept = [b for b in bursts if (b.label, b.pre, b.post) != second_add]
    fsm = synthesize(kept)
    # brute-force walk oracle: only the first segment is accepted
    assert accepts_prefix(fsm, bursts_of(run, afs)) == len(run.segments[0].events)


def test_accepts_prefix_hash_guard():
    afs = checkout_abstraction_functions()
    runs = checkout_runs()
    other = editor_abstraction_functions()
    fsm = synthesize(collect_cbr_bursts(runs, afs, SamplerConfig(1.0, 0)))
    with pytest.raises(ModelError):
        accepts_prefix(fsm, bursts_of(runs[0], other))


# --- export / import ----------------------------------------------------------

def test_export_json_roundtrip():
    fsm = checkout_fsm()
    again = import_fsm(export_fsm(fsm, "json"))
    assert again.af_hash == fsm.af_hash
    assert again.states == fsm.states
    assert again.transitions == fsm.transitions


def test_import_builds_each_distinct_event_once():
    fsm = import_fsm(export_fsm(checkout_fsm(), "json"))
    events = [e for traces in fsm.transitions.values() for t in traces for e in t]
    assert len({id(e) for e in events}) == len(set(events)) < len(events)


def test_export_empty_fsm():
    fsm = synthesize([])
    doc = json.loads(export_fsm(fsm, "json"))
    assert doc["states"] == [] and doc["transitions"] == []
    dot = export_fsm(fsm, "dot")
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")


def test_export_dot_shape():
    bursts = [mk_burst("clickOnAddItem", "UU", "UF", [call("addItem")]),
              mk_burst("clickOnPay", "UF", "FF", [call("applyDiscount")])]
    dot = export_fsm(synthesize(bursts), "dot")
    node_lines = [ln for ln in dot.splitlines() if "[label=\"(" in ln]
    edge_lines = [ln for ln in dot.splitlines() if "->" in ln]
    assert len(node_lines) == 3 and len(edge_lines) == 2


# DOT's tokens as ``export_fsm`` writes them: IDs, the operators, and
# quoted strings, which hold no raw line break and in which a backslash
# escapes the next character.
_DOT_TOKEN = re.compile(r'[ \t\n]*(?:([A-Za-z_][A-Za-z_0-9]*|->|[{}\[\];=])'
                        r'|"((?:[^"\\\n\r\x85\u2028\u2029]|\\[^\n\r\x85\u2028\u2029])*)")')
# Graphviz reads these escapes in a label as one character each.
_DOT_LABEL_ESCAPES = {"\\": "\\", '"': '"', "n": "\n"}


def dot_tokens(text: str) -> list[tuple[str, str]]:
    """The text's tokens, each ("id", text) or ("string", label); a quoted
    string is decoded as Graphviz reads a label.  Anything else raises."""
    tokens, pos, end = [], 0, len(text.rstrip(" \t\n"))
    while pos < end:
        m = _DOT_TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"not DOT at {pos}: {text[pos:pos + 20]!r}")
        if m[1] is not None:
            tokens.append(("id", m[1]))
        else:
            tokens.append(("string", re.sub(r"\\(.)", lambda e: _DOT_LABEL_ESCAPES[e[1]],
                                            m[2])))
        pos = m.end()
    return tokens


def test_dot_labels_are_quoted_strings_that_read_back():
    quoted, broken = 'say "hi" \\N\nbye', "a\rb\u2028c\x85d"
    dot = export_fsm(synthesize([mk_burst(quoted, "T", "F", [call("a")]),
                                 mk_burst(broken, "F", "T", [call("b")])]), "dot")
    tokens = dot_tokens(dot)
    labels = [tokens[i + 2][1] for i, token in enumerate(tokens)
              if token == ("id", "label")]
    # Every line break reads back as "\n"; each statement keeps its line.
    assert labels == ["(F)", "(T)", "a\nb\nc\nd (1)", f"{quoted} (1)"]
    assert len(dot.splitlines()) == 8


def test_export_unknown_format():
    with pytest.raises(ModelError):
        export_fsm(checkout_fsm(), "yaml")


def test_with_transition_adds_endpoints():
    fsm = checkout_fsm()
    bigger = with_transition(fsm, "clickOnAddItem", PS_PAID, PS_EMPTY)
    assert ("clickOnAddItem", PS_PAID, PS_EMPTY) in bigger.transitions
    assert bigger.n_transitions == fsm.n_transitions + 1


# --- events that are written differently are different events ------------------

def test_synthesize_keeps_traces_whose_params_print_differently():
    one, true = MethodCall("op", "C", (1,)), MethodCall("op", "C", (True,))
    fsm = synthesize([mk_burst("op", "T", "F", [one]),
                      mk_burst("op", "T", "F", [true])])
    assert fsm.transitions[("op", "T", "F")] == ((one,), (true,))
    assert '"params": [\n              true' in export_fsm(fsm, "json")


def test_accepts_prefix_rejects_a_float_param_against_an_int_annotation():
    fsm = synthesize([mk_burst("op", "T", "F", [MethodCall("op", "C", (1,))])])
    for param in (1.0, True):
        burst = mk_burst("op", "T", "F", [MethodCall("op", "C", (param,))])
        assert accepts_prefix(fsm, [burst]) == 0
    assert accepts_prefix(fsm, [mk_burst(
        "op", "T", "F", [MethodCall("op", "C", (1,))])]) == 1


def test_import_accepts_traces_that_differ_only_in_param_type():
    text = json.dumps({"af_hash": "h", "states": ["F", "T"], "transitions": [
        {"label": "op", "from": "T", "to": "F", "traces": [
            [{"method": "m", "class": "C", "params": p}]
            for p in ([1], [True], [1.0], [-0.0], [0.0], ["1"])]}]}, indent=2)
    fsm = import_fsm(text)
    assert len(fsm.transitions[("op", "T", "F")]) == 6
    assert export_fsm(fsm, "json") == text
