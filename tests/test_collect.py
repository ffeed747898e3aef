import json
import math
import statistics

import pytest

from burstmine.collect import (MethodCall, OperationSegment, Run,
                               SamplerConfig, TraceSchemaError,
                               collect_cbr_bursts, collect_fixed_sampling,
                               dumps_bursts, dumps_runs, loads_bursts,
                               loads_runs)
from burstmine.functions import af_list_hash
from burstmine.states import ConcreteState, abstract_state
from burstmine.synthetic import (checkout_abstraction_functions, checkout_runs,
                                 editor_abstraction_functions,
                                 generate_editor_runs)


@pytest.fixture(scope="module")
def editor():
    afs = editor_abstraction_functions()
    return afs, generate_editor_runs(6, master_seed=11)


# --- trace files ---------------------------------------------------------------

def test_runs_roundtrip(editor):
    _, runs = editor
    again = loads_runs(dumps_runs(runs))
    assert again == runs


def test_load_runs_shapes(tmp_path, editor):
    _, runs = editor
    path = tmp_path / "traces.jsonl"
    path.write_text(dumps_runs(runs[:2]))
    from burstmine.collect import load_runs
    loaded = load_runs(path)
    assert [r.run_id for r in loaded] == [r.run_id for r in runs[:2]]
    assert [len(r.segments) for r in loaded] == [len(r.segments) for r in runs[:2]]


def test_empty_trace_file():
    assert loads_runs("") == []


def test_segment_with_dangling_object_id_names_it():
    seg = {
        "label": "op", "srt_category": "Instantaneous",
        "pre_state": {"roots": {"Cart": "c1"},
                      "objects": {"c1": {"class": "Cart",
                                         "fields": {"products": ["ghost"]}}}},
        "events": [], "post_state": {"roots": {}, "objects": {}},
    }
    text = json.dumps({"run": "r1"}) + "\n" + json.dumps({"segment": seg})
    with pytest.raises(TraceSchemaError, match="ghost"):
        loads_runs(text)


def test_schema_violation_reports_record_index():
    text = json.dumps({"run": "r1"}) + "\n" + json.dumps({"segment": {"label": "x"}})
    with pytest.raises(TraceSchemaError, match="record 2"):
        loads_runs(text)


def _segment(**changes) -> dict:
    empty = {"roots": {}, "objects": {}}
    seg = {"label": "op", "pre_state": empty, "events": [], "post_state": empty}
    return {**seg, **changes}


@pytest.mark.parametrize("record", [
    json.dumps({"segment": _segment(pre_state={"roots": {}, "objects": [1]})}),
    json.dumps({"segment": _segment(
        post_state={"roots": {}, "objects": {"o1": {"fields": {}}}})}),
    json.dumps({"segment": _segment(pre_state={"roots": {"C": [1]},
                                               "objects": {}})}),
    json.dumps({"segment": _segment(events=[{"class": "Cart"}])}),
    "5",
    json.dumps({"segment": _segment(events=5)}),
    json.dumps({"segment": _segment(
        events=[{"method": "m", "class": "C", "params": 5}])}),
    json.dumps({"segment": _segment(label=["op"])}),
    json.dumps({"segment": _segment(
        events=[{"method": "m", "class": "C", "params": [{"k": 1}]}])}),
    json.dumps({"segment": _segment(pre_state={"roots": {}, "objects": {
        "o1": {"class": "C", "fields": {"dirty": {"a": 1}}}}})}),
], ids=["objects-not-a-table", "object-without-class", "root-not-an-id",
        "event-without-method", "bare-number", "events-not-a-list",
        "params-not-a-list", "label-not-a-string", "param-not-a-scalar",
        "field-value-an-object"])
def test_malformed_record_reports_record_index(record):
    with pytest.raises(TraceSchemaError, match="record 2"):
        loads_runs(json.dumps({"run": "r1"}) + "\n" + record)


def test_equal_events_that_print_differently_stay_apart():
    params = [(1,), (True,), (1.0,), ("1",), (-0.0,), (0.0,), ()]
    seg = OperationSegment("op", tuple(MethodCall("m", "C", p) for p in params),
                           ConcreteState(), ConcreteState())
    text = dumps_runs([Run("r1", (seg, seg))])
    first, second = loads_runs(text)[0].segments
    assert dumps_runs([Run("r1", (first, second))]) == text
    assert all(a is b for a, b in zip(first.events, second.events))
    # An event without params reads as one with empty params ...
    bare = text.replace(', "params": []}', "}")
    assert bare != text and dumps_runs(loads_runs(bare)) == text
    # ... but a later event with null params is still rejected.
    run, seg_line, _ = bare.splitlines()
    null = seg_line.replace('"class": "C"}', '"class": "C", "params": null}')
    with pytest.raises(TraceSchemaError, match="record 3: event 'params'"):
        loads_runs("\n".join([run, seg_line, null]))


def test_segment_before_run_rejected():
    with pytest.raises(TraceSchemaError, match="record 1"):
        loads_runs(json.dumps({"segment": {}}))


def test_bad_srt_category_rejected():
    with pytest.raises(TraceSchemaError):
        OperationSegment("x", (), None, None, "Zippy")


# --- controlled collection -------------------------------------------------------

def test_p_one_collects_every_segment(editor):
    afs, runs = editor
    bursts = collect_cbr_bursts(runs, afs, SamplerConfig(1.0, 5))
    segments = [s for r in runs for s in r.segments]
    assert len(bursts) == len(segments)
    for b, s in zip(bursts, segments):
        assert b.label == s.label
        assert b.trace == s.events
        assert b.pre == abstract_state(afs, s.pre_state)
        assert b.post == abstract_state(afs, s.post_state)
        assert b.af_hash == af_list_hash(afs)


def test_p_zero_collects_nothing(editor):
    afs, runs = editor
    assert collect_cbr_bursts(runs, afs, SamplerConfig(0.0, 5)) == []


def test_checkout_pay_burst_states():
    afs = checkout_abstraction_functions()
    runs = checkout_runs()
    bursts = collect_cbr_bursts(runs, afs, SamplerConfig(1.0, 0))
    pay = next(b for b in bursts if b.label == "clickOnPay")
    assert pay.pre == "UF" and pay.post == "FF"
    assert [e.method for e in pay.trace][:2] == ["applyDiscount", "calculateTotal"]


def test_collection_is_deterministic(editor):
    afs, runs = editor
    cfg = SamplerConfig(0.4, 123)
    assert collect_cbr_bursts(runs, afs, cfg) == collect_cbr_bursts(runs, afs, cfg)


def test_burst_count_tracks_binomial_mean(editor):
    afs, runs = editor
    segments = sum(len(r.segments) for r in runs)
    p = 0.3
    counts = [len(collect_cbr_bursts(runs, afs, SamplerConfig(p, seed)))
              for seed in range(60)]
    mean = statistics.mean(counts)
    sigma = math.sqrt(segments * p * (1 - p)) / math.sqrt(60)
    assert abs(mean - p * segments) <= 3 * sigma + 1e-9


def test_burst_traces_are_verbatim_segments(editor):
    afs, runs = editor
    bursts = collect_cbr_bursts(runs, afs, SamplerConfig(0.5, 9))
    all_event_lists = {s.events for r in runs for s in r.segments}
    assert bursts and all(b.trace in all_event_lists for b in bursts)


# --- fixed-length baseline -------------------------------------------------------

def _run_with_events(run_id: str, labels_events) -> Run:
    from burstmine.states import ConcreteState
    empty = ConcreteState({}, {})
    segments = tuple(
        OperationSegment(label, tuple(
            MethodCall(f"m{i}", "C", (i,)) for i in range(count)), empty, empty)
        for label, count in labels_events)
    return Run(run_id, segments)


def test_fixed_sampling_records_thirty_from_start():
    run = _run_with_events("r", [("a", 100)])
    traces = [t for _, t in collect_fixed_sampling(
        [run], SamplerConfig(1.0, 0, "fixed_length"))]
    # brute-force replay: recording starts at the first (and only) segment
    assert len(traces[0]) == 30
    assert [e.method for e in traces[0]] == [f"m{i}" for i in range(30)]


def test_fixed_sampling_crosses_segment_boundaries():
    run = _run_with_events("r", [("a", 20), ("b", 20)])
    traces = [t for _, t in collect_fixed_sampling(
        [run], SamplerConfig(1.0, 0, "fixed_length"))]
    first = traces[0]
    assert len(first) == 30
    assert [e.method for e in first[:20]] == [f"m{i}" for i in range(20)]
    assert [e.method for e in first[20:]] == [f"m{i}" for i in range(10)]


def test_fixed_sampling_truncates_at_run_end():
    run = _run_with_events("r", [("a", 10)])
    traces = [t for _, t in collect_fixed_sampling(
        [run], SamplerConfig(1.0, 0, "fixed_length"))]
    assert [len(t) for t in traces] == [10]


def test_fixed_sampling_p_zero():
    run = _run_with_events("r", [("a", 10)])
    assert collect_fixed_sampling([run], SamplerConfig(0.0, 0, "fixed_length")) == []


def test_fixed_sampling_draw_points_are_idle_segment_starts():
    # p=1.0, segments of 45: the first trace covers a[0:30]; a[30:45] is
    # skipped because draws only happen at segment starts while idle; the
    # second trace then covers b[0:30].
    run = _run_with_events("r", [("a", 45), ("b", 45)])
    traces = [t for _, t in collect_fixed_sampling(
        [run], SamplerConfig(1.0, 0, "fixed_length"))]
    assert [len(t) for t in traces] == [30, 30]
    assert [e.method for e in traces[0]] == [f"m{i}" for i in range(30)]
    assert [e.method for e in traces[1]] == [f"m{i}" for i in range(30)]
    assert [e.params for e in traces[1]] == [(i,) for i in range(30)]


def test_fixed_sampling_run_attribution(editor):
    _, runs = editor
    traces = collect_fixed_sampling(runs, SamplerConfig(0.5, 2, "fixed_length"))
    run_ids = {r.run_id for r in runs}
    assert traces and all(rid in run_ids for rid, _ in traces)
    assert all(0 < len(t) <= 30 for _, t in traces)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(1.5, 0)
    with pytest.raises(ValueError):
        SamplerConfig(0.5, 0, "bogus")
    with pytest.raises(ValueError):
        SamplerConfig(0.5, 0, "fixed_length", fixed_length=0)
    with pytest.raises(ValueError):
        collect_cbr_bursts([], [], SamplerConfig(0.5, 0, "fixed_length"))
    with pytest.raises(ValueError):
        collect_fixed_sampling([], SamplerConfig(0.5, 0, "cbr"))


# --- burst files ------------------------------------------------------------------

def test_burst_file_roundtrip(editor):
    afs, runs = editor
    cfg = SamplerConfig(0.7, 4)
    bursts = collect_cbr_bursts(runs, afs, cfg)
    text = dumps_bursts(bursts, cfg)
    again, header = loads_bursts(text)
    assert again == bursts
    assert header["sampler"]["probability"] == 0.7
    assert header["af_hash"] == bursts[0].af_hash


def test_burst_header_must_be_an_object():
    with pytest.raises(TraceSchemaError, match="record 1"):
        loads_bursts(json.dumps({"header": 5}))


def test_burst_header_hash_must_be_a_string():
    with pytest.raises(TraceSchemaError, match="record 1: burst header 'af_hash'"):
        loads_bursts(json.dumps({"header": {"af_hash": 5}}))


def test_burst_header_that_is_not_json_reports_record_1():
    with pytest.raises(TraceSchemaError, match="record 1"):
        loads_bursts("{not json\n")


def test_burst_records_are_numbered_by_physical_line(editor):
    afs, runs = editor
    text = dumps_bursts(collect_cbr_bursts(runs[:1], afs, SamplerConfig(1.0, 0)))
    header, *bursts = text.splitlines()
    lines = [header, "", bursts[0], "", bursts[1], "{}"]
    with pytest.raises(TraceSchemaError, match="record 6"):
        loads_bursts("\n".join(lines))


def test_burst_state_outside_tfu_reports_record_index(editor):
    afs, runs = editor
    text = dumps_bursts(collect_cbr_bursts(runs[:1], afs, SamplerConfig(1.0, 0)))
    header, first, *rest = text.splitlines()
    doc = json.loads(first)
    doc["pre"] = "X" + doc["pre"][1:]
    with pytest.raises(TraceSchemaError, match="record 2"):
        loads_bursts("\n".join([header, json.dumps(doc), *rest]))
