import dataclasses
import functools
import json
import math
import re
import statistics
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from burstmine.collect import (BURST, HEADER_LINE, LINE, LINE_BUFFER, Burst,
                               EventTable, MethodCall, OperationSegment, Run,
                               SamplerConfig, TraceSchemaError, _record,
                               collect, collect_cbr_bursts,
                               collect_fixed_sampling, dumps_bursts,
                               dumps_runs, load_runs, loads_bursts, loads_runs)
from burstmine.filtering import (EvalMatrix, MatrixError, matrix_from_csv,
                                 matrix_to_csv)
from burstmine.functions import af_list_hash
from burstmine.schema import Lines
from burstmine.states import ConcreteState, StateError, abstract_state
from burstmine.synthetic import (checkout_abstraction_functions, checkout_runs,
                                 editor_abstraction_functions,
                                 generate_editor_runs)
from perfbench.inputs import editor_corpus


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


@pytest.mark.parametrize("bad", [{"method": "m", "class": "C", "params": None},
                                 {"method": 5, "class": "C"}])
def test_a_rejected_event_leaves_no_entry_for_a_later_line(bad):
    # A run line's segment is walked, but only its shape is checked; the
    # segment line after it must still check the same event text.
    seg = json.dumps(_segment(events=[{"method": "m", "class": "C"}, bad]))
    lines = [json.dumps({"run": "r1"}), '{"run": "r2", "segment": ' + seg + "}",
             '{"segment": ' + seg + "}"]
    with pytest.raises(TraceSchemaError, match="record 3: event"):
        loads_runs("\n".join(lines))


# --- record splitting and sharing ---------------------------------------------------

@pytest.mark.parametrize("mark", ["\u2028", "\u2029", "\x85"])
def test_a_raw_line_break_inside_a_string_stays_in_its_record(editor, mark):
    afs, runs = editor
    seg, label = runs[0].segments[0], f"op{mark}x"
    runs = [Run("r1", (OperationSegment(label, seg.events, seg.pre_state,
                                        seg.post_state),))]
    escaped = json.dumps(label)[1:-1]
    text = dumps_runs(runs).replace(escaped, label)
    assert mark in text and loads_runs(text) == runs
    bursts = collect_cbr_bursts(runs, afs, SamplerConfig(1.0, 0))
    raw = dumps_bursts(bursts).replace(escaped, label)
    assert mark in raw and loads_bursts(raw)[0] == bursts


def test_records_are_numbered_by_newline_and_crlf_reads(editor):
    _, runs = editor
    text = dumps_runs(runs[:1]).replace('"label": "', '"label": "\u2028', 1)
    assert loads_runs(text.replace("\n", "\r\n")) == loads_runs(text)
    damaged = text.split("\n")
    damaged[2] = "{not json"
    with pytest.raises(TraceSchemaError, match="record 3: invalid JSON"):
        loads_runs("\n".join(damaged))


def _by_text(objects, text_of) -> dict[str, set[int]]:
    ids: dict[str, set[int]] = {}
    for o in objects:
        ids.setdefault(text_of(o), set()).add(id(o))
    return ids


def test_one_load_shares_one_object_per_distinct_event_and_state_text(editor):
    _, runs = editor
    loaded = loads_runs(dumps_runs(runs))
    events = [e for r in loaded for s in r.segments for e in s.events]
    states = [st for r in loaded for s in r.segments
              for st in (s.pre_state, s.post_state)]
    event_ids = _by_text(events, lambda e: json.dumps(e.to_dict()))
    state_ids = _by_text(states, lambda st: json.dumps(st.to_dict()))
    assert len(event_ids) < len(events) and len(state_ids) < len(states)
    assert all(len(ids) == 1 for ids in [*event_ids.values(), *state_ids.values()])
    # Another spelling of a known event shares its MethodCall.
    first = events[0]
    spelled = json.dumps({"params": list(first.params), "class": first.class_name,
                          "method": first.method})
    line = json.dumps({"segment": _segment()}).replace(
        '"events": []', f'"events": [{json.dumps(first.to_dict())}, {spelled}]')
    a, b = loads_runs(json.dumps({"run": "r"}) + "\n" + line)[0].segments[0].events
    assert a is b


def test_every_json_list_layout_is_walked_and_other_whitespace_is_parsed(
        editor, monkeypatch):
    _, runs = editor
    text = dumps_runs(runs)
    compact = "\n".join(json.dumps(json.loads(line), separators=(",", ":"))
                         for line in text.splitlines())
    spaced = text.replace('"events": [{', '"events": [ {').replace(
        "}, {", "} ,\t{").replace('}], "post', '}\r], "post')
    parsed = []
    monkeypatch.setattr("burstmine.collect._record",
                        lambda *args: parsed.append(args) or _record(*args))
    expected = loads_runs(text)
    for layout in (compact, spaced):
        assert layout != text
        loaded = loads_runs(layout)
        assert loaded == expected and not parsed
        states = [st for r in loaded for s in r.segments
                  for st in (s.pre_state, s.post_state)]
        state_ids = _by_text(states, lambda st: json.dumps(st.to_dict()))
        assert all(len(ids) == 1 for ids in state_ids.values())
    # A list with whitespace that JSON does not allow, or with no comma,
    # goes to the parsed reader, which rejects it.
    run, line = text.splitlines()[:2]
    for old, bad in [("}, {", "},\u00a0{"), ("[{", "[\u00a0{"), ("}]", "}\u00a0]"),
                     ("}, {", "} {")]:
        with pytest.raises(TraceSchemaError, match="record 2: invalid JSON"):
            loads_runs(run + "\n" + line.replace(old, bad, 1))
    assert len(parsed) == 4


def test_two_loads_share_no_object(editor):
    _, runs = editor
    text = dumps_runs(runs)

    def objects(loaded):
        return {id(o) for r in loaded for s in r.segments
                for o in (*s.events, s.pre_state, s.post_state)}

    one, two = loads_runs(text), loads_runs(text)
    assert not objects(one) & objects(two)
    bursts = dumps_bursts(collect_cbr_bursts(runs, editor[0], SamplerConfig(1.0, 0)))
    b1, b2 = loads_bursts(bursts)[0], loads_bursts(bursts)[0]
    assert not {id(e) for b in b1 for e in b.trace} & {id(e) for b in b2 for e in b.trace}


def test_one_load_shares_one_trace_per_distinct_event_list_text(editor):
    afs, runs = editor
    written = tuple(s.events for r in runs for s in r.segments)
    trace_text = dumps_runs(runs)
    burst_text = dumps_bursts(collect_cbr_bursts(runs, afs, SamplerConfig(1.0, 0)))
    for text, load in [
            (trace_text, lambda t: [(s, s.events) for r in loads_runs(t)
                                    for s in r.segments]),
            (burst_text, lambda t: [(b, b.trace) for b in loads_bursts(t)[0]])]:
        records, traces = zip(*load(text))
        assert traces == written
        ids = _by_text(traces, lambda t: json.dumps([e.to_dict() for e in t]))
        assert all(len(same) == 1 for same in ids.values())
        # Records of different texts share their equal traces.
        assert len(ids) < len({id(r) for r in records})
        assert len({id(t) for t in traces}) == len(ids)
        assert not {id(t) for _, t in load(text) if t} & {id(t) for t in traces if t}


def test_one_load_shares_one_segment_per_distinct_record_text(editor):
    afs, runs = editor
    trace_text = dumps_runs(runs)
    burst_text = dumps_bursts(collect_cbr_bursts(runs, afs, SamplerConfig(1.0, 0)))
    for text, load, lines in [
            (trace_text, lambda t: [s for r in loads_runs(t) for s in r.segments],
             [line for line in trace_text.splitlines() if '"segment"' in line]),
            (burst_text, lambda t: loads_bursts(t)[0], burst_text.splitlines()[1:])]:
        records = load(text)
        assert len(records) == len(lines)
        ids: dict[str, set[int]] = {}
        for line, record in zip(lines, records):
            ids.setdefault(line, set()).add(id(record))
        assert len(ids) < len(lines)
        assert all(len(same) == 1 for same in ids.values())
        assert len({id(r) for r in records}) == len(ids)
        assert not {id(r) for r in load(text)} & {id(r) for r in records}


def test_a_dangling_id_names_the_first_record_that_carries_it():
    good = {"roots": {"C": "o1"}, "objects": {"o1": {"class": "C",
                                                     "fields": {"next": "o1"}}}}
    bad = {"roots": {"C": "o1"}, "objects": {"o1": {"class": "C",
                                                    "fields": {"next": "o2"}}}}
    lines = [json.dumps({"run": "r1"})] + [json.dumps({"segment": _segment(
        pre_state=pre, post_state=post)}) for pre, post in
        [(good, good), (good, good), (good, bad), (bad, good)]]
    with pytest.raises(TraceSchemaError, match="record 4: dangling object id 'o2'"):
        loads_runs("\n".join(lines))


def test_collect_abstracts_each_distinct_state_object_once(editor, monkeypatch):
    afs, runs = editor
    loaded = loads_runs(dumps_runs(runs))
    calls = []

    def traced(afs, state):
        calls.append(id(state))
        return abstract_state(afs, state)

    monkeypatch.setattr("burstmine.collect.abstract_state", traced)
    bursts = collect_cbr_bursts(loaded, afs, SamplerConfig(1.0, 0))
    distinct = {id(st) for r in loaded for s in r.segments
                for st in (s.pre_state, s.post_state)}
    assert sorted(calls) == sorted(distinct)
    assert len(distinct) < 2 * len(bursts)
    monkeypatch.undo()
    assert bursts == collect_cbr_bursts(runs, afs, SamplerConfig(1.0, 0))


def test_collect_builds_one_burst_per_distinct_segment_object(editor):
    afs, runs = editor
    af_hash = af_list_hash(afs)
    loaded = loads_runs(dumps_runs(runs))
    for source, shared in ((loaded, True), (runs, False)):
        segments = [s for r in source for s in r.segments]
        bursts = collect(segments, afs, af_hash)
        assert bursts == [Burst(s.label, abstract_state(afs, s.pre_state), s.events,
                                abstract_state(afs, s.post_state), af_hash)
                          for s in segments]
        ids: dict[int, set[int]] = {}
        for segment, burst in zip(segments, bursts):
            ids.setdefault(id(segment), set()).add(id(burst))
        assert all(len(same) == 1 for same in ids.values())
        assert len({id(b) for b in bursts}) == len(ids)
        assert (len(ids) < len(segments)) == shared
        copies = [dataclasses.replace(b) for b in bursts]
        assert dumps_bursts(bursts) == dumps_bursts(copies)


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


# --- the record walker against the parsed reader ------------------------------------
#
# The readers as they were before the record walker: every line parsed by
# ``json.loads`` and checked, every event through ``EventTable``.  Texts here
# hold no raw line break but "\n" and "\r\n", where the two splits agree;
# the trace reader's ``split`` is the record rule's for other texts.


def _reference_loads_runs(text: str, split=str.splitlines) -> list[Run]:
    runs: list[tuple[str, list[OperationSegment]]] = []
    events = EventTable()
    for lineno, line in enumerate(split(text), start=1):
        if not line.strip(" \t\r"):
            continue
        doc = _record(line, lineno, LINE, "line")
        if "run" in doc:
            runs.append((str(doc["run"]), []))
        elif "segment" in doc:
            if not runs:
                raise TraceSchemaError("segment before any run line", lineno)
            seg = doc["segment"]
            try:
                runs[-1][1].append(OperationSegment(
                    seg["label"], events.trace(seg["events"], TraceSchemaError),
                    ConcreteState.from_checked(seg["pre_state"]),
                    ConcreteState.from_checked(seg["post_state"]),
                    seg.get("srt_category", "Instantaneous")))
            except (StateError, TraceSchemaError) as exc:
                raise TraceSchemaError(str(exc), lineno) from exc
        else:
            raise TraceSchemaError("line is neither a run nor a segment", lineno)
    return [Run(run_id, tuple(segments)) for run_id, segments in runs]


def _reference_loads_bursts(text: str, split=str.splitlines,
                            ) -> tuple[list[Burst], dict]:
    lines = [(lineno, line) for lineno, line in
             enumerate(split(text), start=1) if line.strip(" \t\r")]
    if not lines:
        raise TraceSchemaError("empty burst document")
    header = _record(lines[0][1], lines[0][0], HEADER_LINE, "burst")["header"]
    af_hash, events = header.get("af_hash", ""), EventTable()
    bursts: list[Burst] = []
    for lineno, line in lines[1:]:
        d = _record(line, lineno, BURST, "burst")
        trace = events.trace(d["trace"], lambda m: TraceSchemaError(m, lineno))
        first = bursts[0].pre if bursts else d["pre"]
        for key in ("pre", "post"):
            if d[key] == "":
                raise TraceSchemaError(f"burst {key!r} is empty", lineno)
            if len(d[key]) != len(first):
                raise TraceSchemaError(
                    f"burst {key!r} has width {len(d[key])}, but the first "
                    f"burst's 'pre' has width {len(first)}", lineno)
        bursts.append(Burst(d["label"], d["pre"], trace, d["post"], af_hash))
    return bursts, header


class _Raw(str):
    """JSON text written as it is."""


# Strings that hold the walker's own delimiters.
_WORDS = ["op", "m", "C", "}", "}]", "}, {", "},{", '"}, {"', "x}]y", "a\\b",
          "é", ""]
_PARAMS = [_Raw(t) for t in ("1", "1.0", "true", '"1"', "-0.0", "0.0", "null",
                             "1e0", "-0", "false")] + ["}, {", "},{", "}]", 3]
_GOOD_EVENTS = st.fixed_dictionaries(
    {"method": st.sampled_from(_WORDS), "class": st.sampled_from(["C", "D"])},
    optional={"params": st.lists(st.sampled_from(_PARAMS), max_size=3)})
_BAD_EVENTS = st.sampled_from([
    {"method": "m", "class": "C", "params": _Raw("null")},
    {"method": "m", "class": "C", "params": 5},
    {"method": "m", "class": "C", "params": [[1]]},
    {"method": "m", "class": "C", "params": [{"k": 1}]},
    {"method": 5, "class": "C"}, {"class": "C"}, {}, 5, "m", [1]])
_ROOTED = {"roots": {"C": "o1"}, "objects": {"o1": {"class": "C", "fields": {
    "next": "o1", "n": 1, "xs": ["o1", _Raw("null")]}}}}
_GOOD_STATES = st.sampled_from([
    {"roots": {}, "objects": {}}, {}, _ROOTED, {"roots": {"C": _Raw("null")}},
    {"objects": {"o1": {"class": "C", "fields": {"f": [[1, "o1"]]}}}}])
_BAD_STATES = st.sampled_from([
    # the same length and prefix as _ROOTED, but dangling
    {"roots": {"C": "o1"}, "objects": {"o1": {"class": "C", "fields": {
        "next": "o2", "n": 1, "xs": ["o1", _Raw("null")]}}}},
    {"roots": {"C": "o1"}, "objects": {"o1": {"class": "C", "fields": {
        "next": "o1", "n": 1, "xs": ["o2", _Raw("null")]}}}},
    {"roots": {"C": "o9"}, "objects": {}}, {"roots": {"C": [1]}},
    {"objects": [1]}, {"objects": {"o1": {"fields": {}}}},
    {"objects": {"o1": {"class": "C", "fields": {"f": {"a": 1}}}}}, 5])
_SRT = ["Instantaneous", "Captive", "Zippy", 5]
# Good states are three letters wide; "UU" is a state of another width.
_TFU = ["TFU", "UUF", "UU", "", "TX", 5]
_JUNK = [5, "x", {}, [1]]  # values of a repeated key that the last one overrides


def _one_in(draw, n: int) -> bool:
    """True about once in ``n`` draws.  The hit is a middle value, since
    Hypothesis draws the ends of a range more often."""
    return draw(st.integers(0, n - 1)) == n // 2


def _pick(draw, good: list, bad: list, n: int):
    return draw(st.sampled_from(bad if _one_in(draw, n) else good))


@st.composite
def _trace_lines(draw, bursts: bool):
    """The documents of one trace file (of one burst file if ``bursts``),
    drawn from a few events and states, so that texts repeat: the walker's
    tables hit, and a damaged text comes back.  Some files also hold
    ``_ROOTED`` and a dangling twin of it.  Half the segments follow a run
    line that carries them, whose check reaches only their shape, and half
    of those carry a bad event there, so that the segment line meets it again
    in the walker's table.  Half the files draw a bad value a quarter as
    often, so that more of them read to their end."""
    rare = draw(st.sampled_from([1, 4]))
    events = [draw(_BAD_EVENTS if _one_in(draw, rare * 4) else _GOOD_EVENTS)
              for _ in range(draw(st.integers(1, 4)))]
    states = [draw(_BAD_STATES if _one_in(draw, rare * 4) else _GOOD_STATES)
              for _ in range(draw(st.integers(1, 4)))]
    if _one_in(draw, rare * 2):
        states += [_ROOTED, draw(st.sampled_from(_BAD_STATES.elements[:2]))]
    trace = st.lists(st.sampled_from(events), max_size=4)
    docs = [{"header": {"af_hash": "abc"}} if bursts else {"run": "r0"}]
    for _ in range(draw(st.integers(1, 8))):
        if _one_in(draw, rare * 12):
            docs.append(draw(st.sampled_from([5, [], {}, {"x": 1}, {"segment": 5},
                                              {"label": "op"}])))
            continue
        if bursts:
            doc = {"label": _pick(draw, _WORDS, [5], rare * 12),
                   "pre": _pick(draw, _TFU[:2], _TFU[2:], rare * 6),
                   "trace": {} if _one_in(draw, rare * 10) else draw(trace),
                   "post": _pick(draw, _TFU[:2], _TFU[2:], rare * 6)}
        else:
            doc = {"label": draw(st.sampled_from(_WORDS)),
                   "pre_state": draw(st.sampled_from(states)),
                   "events": 5 if _one_in(draw, rare * 10) else draw(trace),
                   "post_state": draw(st.sampled_from(states))}
            if draw(st.booleans()):
                doc["srt_category"] = _pick(draw, _SRT[:2], _SRT[2:], rare * 6)
        if _one_in(draw, rare * 30):
            del doc[draw(st.sampled_from(sorted(doc)))]
        if not bursts:
            kind = draw(st.integers(0, 9))
            if kind == 4:
                doc = {"run": draw(st.sampled_from(["r1", 7, None, "}, {"]))}
            else:
                if kind >= 5:  # a run line checks only its segment's shape
                    if draw(st.booleans()) and type(doc.get("events")) is list:
                        # a bad event the segment line after it meets again
                        doc["events"] = doc["events"] + [draw(_BAD_EVENTS)]
                    docs.append({"run": "r2", "segment": doc})
                doc = {"segment": doc}
        docs.append(doc)
    return docs, _JUNK + states + [events]


# Keys no record knows, as JSON text: plain, holding escapes, and holding a
# raw tab, which JSON does not allow in a string.
_UNKNOWN_KEYS = ['"x"', '"a\\"b"', '"a\\\\b"', '"\\"label\\""', '"label\\\\"',
                 '"a\tb"']


def _write(draw, value, junk, varied: bool) -> str:
    """``value`` as JSON as ``json.dumps`` writes it, or if ``varied``, with
    some keys reordered, repeated or ``\\u``-escaped, an unknown key added,
    and other whitespace."""
    if isinstance(value, _Raw):
        return value
    if not isinstance(value, (dict, list)):
        return json.dumps(value)
    plain = not varied or draw(st.booleans())
    comma, colon = (", ", ": ") if plain else (
        draw(st.sampled_from([",", " , ", ",\t", ",  "])),
        draw(st.sampled_from([":", " : ", ":\t"])))
    if isinstance(value, list):
        return "[" + comma.join(_write(draw, v, junk, varied) for v in value) + "]"
    items = [(json.dumps(k), v) for k, v in value.items()]
    if not plain and items:
        items = draw(st.permutations(items))
        k = draw(st.integers(0, len(items) - 1))
        change = draw(st.integers(0, 2))
        if change == 0:  # a repeated key: the last one counts
            items.insert(0, (items[k][0], draw(st.sampled_from(junk))))
        elif change == 1:  # a key no record knows
            items.insert(k, (draw(st.sampled_from(_UNKNOWN_KEYS)),
                             draw(st.sampled_from(junk))))
        else:
            items[k] = ('"' + "".join(f"\\u{ord(c):04x}" for c in
                                      json.loads(items[k][0])) + '"', items[k][1])
    return "{" + comma.join(k + colon + _write(draw, v, junk, varied)
                            for k, v in items) + "}"


# An event list's "[{", "}, {" and "}]" as other writers lay them out, with
# JSON whitespace; and damaged, with U+00A0, which JSON does not allow there,
# or with no comma.
_LAYOUTS = [("[{", "},{", "}]"), ("[ {", "} , {", "} ]"), ("[{", "} ,{", "}]"),
            ("[\t{", "},  {", "}\t]")]
_BAD_LAYOUTS = [("[{", "},\u00a0{", "}]"), ("[\u00a0{", "}, {", "}]"),
                ("[{", "}, {", "}\u00a0]"), ("[{", "} {", "}]")]


@st.composite
def _documents(draw, bursts: bool = False):
    """A JSONL text of ``_trace_lines``, some lines written otherwise than
    ``json.dumps`` would, some damaged and some copied further on, as they
    are or with one character changed, so that the readers' record memo
    meets run, segment, burst and damaged lines again and near-twins."""
    docs, junk = draw(_trace_lines(bursts))
    out = []
    for doc in docs:
        text = _write(draw, doc, junk, _one_in(draw, 4))
        if _one_in(draw, 3):  # a list laid out as another writer would
            layout = draw(st.sampled_from(
                _BAD_LAYOUTS if _one_in(draw, 4) else _LAYOUTS))
            for old, new in zip(("[{", "}, {", "}]"), layout):
                text = text.replace(old, new)
        if _one_in(draw, 40):
            text = text[:draw(st.integers(0, len(text)))]
        elif _one_in(draw, 40):
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(["}", "]", ",", "x", " "])) + text[at:]
        elif _one_in(draw, 20):
            text = "  " + text + "\t"
        out.append(text)
    for _ in range(draw(st.integers(0, 3))):
        # A burst file's header line is not copied: a body line that is a
        # header only fails on its missing 'label'.
        at = draw(st.integers(1 if bursts else 0, len(out) - 1))
        copy = out[at]
        if copy and draw(st.booleans()):  # as long and alike, but another text
            i = draw(st.integers(0, len(copy) - 1))
            copy = copy[:i] + chr(ord(copy[i]) ^ 1) + copy[i + 1:]
        out.insert(draw(st.integers(at + 1, len(out))), copy)
    if _one_in(draw, 4):
        out.insert(draw(st.integers(0, len(out))),
                   draw(st.sampled_from(["", "  ", "\t", "\u00a0"])))
    return draw(st.sampled_from(["\n", "\r\n"])).join(out) + draw(
        st.sampled_from(["", "\n"]))


def _outcome(read, text: str):
    try:
        return "read", repr(read(text))
    except Exception as exc:  # noqa: BLE001 - the outcome under comparison
        return type(exc), str(exc)


def _agree_at_every_record(read, reference, text: str) -> None:
    """The readers agree on ``text`` and on each prefix of it that ends at a
    line.  A line both reject is left out of the later prefixes, so that a
    bad line does not hide the lines after it."""
    assert _outcome(read, text) == _outcome(reference, text)
    kept = ""
    for line in text.splitlines(keepends=True):
        outcome = _outcome(read, kept + line)
        assert outcome == _outcome(reference, kept + line)
        if outcome[0] == "read":
            kept += line


@settings(max_examples=400, deadline=None)
@given(_documents())
def test_trace_reader_agrees_with_the_parsed_reader(text):
    _agree_at_every_record(loads_runs, _reference_loads_runs, text)


@settings(max_examples=300, deadline=None)
@given(_documents(bursts=True))
def test_burst_reader_agrees_with_the_parsed_reader(text):
    _agree_at_every_record(loads_bursts, _reference_loads_bursts, text)


# --- line files read in binary against their text -------------------------------------
#
# A trace, burst or matrix file is read a byte line at a time.  Against the
# text readers, over texts that also hold what only the record rule tells
# apart: raw U+2028, U+2029 and U+0085 inside strings, a lone CR between
# tokens and blank lines of space, tab and CR.  The reference then splits as
# the rule does.


def _newline_records(text: str) -> list[str]:
    return [line.removesuffix("\r") for line in text.split("\n")]


_MARKS = st.sampled_from(["\\u00e9", "é", "\u2028", "\u2029", "\x85"])


@st.composite
def _byte_documents(draw, bursts: bool = False):
    """A ``_documents`` text with some "é" (written ``\\u00e9``) written raw
    or as a raw line break, a CR for the space of some ``": ``, a CR at the
    end of some line, so that one is left after a CRLF line's own CR goes,
    and blank lines of space, tab and CR."""
    parts = draw(_documents(bursts)).split("\\u00e9")
    text = parts[0] + "".join(draw(_MARKS) + part for part in parts[1:])
    lines = text.replace('": ', '":\r', draw(st.integers(0, 2))).split("\n")
    _end_some_lines_with_cr(draw, lines)
    return "\n".join(lines)


def _end_some_lines_with_cr(draw, lines: list[str]) -> None:
    for i in draw(st.lists(st.integers(0, len(lines) - 1), max_size=2)):
        lines[i] += "\r"
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from([" \t\r", "\r", "\t"])))


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    return tmp_path_factory.mktemp("traces") / "runs.jsonl"


def _open_and_read(path, read):
    """``read`` of the file at ``path``, open in binary as the CLI opens it."""
    with open(path, "rb", buffering=LINE_BUFFER) as fh:
        return read(fh)


def _from_file(path, read):
    """A reader of a text through a file at ``path``."""
    def load(text: str):
        path.write_bytes(text.encode("utf-8"))
        return _open_and_read(path, read)
    return load


@settings(max_examples=200, deadline=None)
@given(text=_byte_documents())
def test_a_file_load_agrees_with_the_text_load(trace_path, text):
    def from_file(t: str) -> list[Run]:
        trace_path.write_bytes(t.encode("utf-8"))
        return load_runs(trace_path)

    reference = functools.partial(_reference_loads_runs, split=_newline_records)
    for read in (from_file, loads_runs):
        _agree_at_every_record(read, reference, text)


@settings(max_examples=150, deadline=None)
@given(text=_byte_documents(bursts=True))
def test_a_burst_file_load_agrees_with_the_text_load(trace_path, text):
    reference = functools.partial(_reference_loads_bursts, split=_newline_records)
    for read in (_from_file(trace_path, loads_bursts), loads_bursts):
        _agree_at_every_record(read, reference, text)


def _reference_matrix_from_csv(text: str) -> EvalMatrix:
    """The matrix reader's rules, field by field: a row of the wrong field
    count or snapshot fails at once, a bad cell when one field's length
    makes the row's length wrong, and otherwise at the first such row once
    every row has been read."""
    lines = [(no, line) for no, line in enumerate(_newline_records(text), start=1)
             if line.strip(" \t\r")]
    if not lines:
        raise MatrixError("empty matrix document")
    header = lines[0][1].split(",")
    if header[:2] != ["#run", "#snapshot"]:
        raise MatrixError("matrix CSV must start with #run,#snapshot columns")
    ids, rows, prov, bad = tuple(header[2:]), [], [], None
    for no, line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(ids) + 2:
            raise MatrixError(f"line {no}: expected {len(ids) + 2} fields, "
                              f"found {len(fields)}")
        run, snap, *cells = fields
        if not re.fullmatch("[0-9]+", snap):
            raise MatrixError(f"line {no}: #snapshot {snap!r} is not an integer")
        prov.append((run, int(snap)))
        odd = [c for c in cells if c not in ("T", "F", "U")]
        if sum(map(len, cells)) != len(cells):
            raise MatrixError(f"line {no}: invalid cell value {odd[0]!r}")
        if odd and bad is None:
            bad = MatrixError(f"line {no}: invalid cell value {odd[0]!r}")
        rows.append("".join(cells))
    if bad is not None:
        raise bad
    return EvalMatrix(ids, tuple(rows), tuple(prov))


@st.composite
def _matrix_texts(draw):
    """A matrix CSV of up to three columns, some rows damaged: a bad cell,
    snapshot or field count, a run id holding a raw CR or line break, a
    header that is not one; with CRLF or LF line ends, a CR at the end of
    some line and blank lines."""
    ids = [f"A{j}" for j in range(draw(st.integers(0, 3)))]
    header = ",".join(["#run", "#snapshot", *ids])
    lines = [draw(st.sampled_from(["#run", "run,#snapshot", "A0,A0"]))
             if _one_in(draw, 15) else header]
    for i in range(draw(st.integers(0, 6))):
        run = draw(st.sampled_from(["r", "é", "r\u2028x", "r\x85", "", "r\rx"]))
        snap = draw(st.sampled_from(["x", " 1", "\u0663", ""])) \
            if _one_in(draw, 8) else str(i)
        cells = [draw(st.sampled_from(["X", "", "TF", "\u00a0"])) if _one_in(draw, 8)
                 else draw(st.sampled_from("TFU")) for _ in ids]
        if _one_in(draw, 12):
            cells = cells[1:] if cells else ["T"]
        lines.append(",".join([run, snap, *cells]))
    _end_some_lines_with_cr(draw, lines)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(
        st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(text=_matrix_texts())
def test_a_matrix_file_load_agrees_with_the_text_load(trace_path, text):
    for read in (_from_file(trace_path, matrix_from_csv), matrix_from_csv):
        _agree_at_every_record(read, _reference_matrix_from_csv, text)


def test_a_file_load_decodes_and_builds_each_repeated_line_once(
        editor, tmp_path, monkeypatch):
    afs, runs = editor
    bursts = collect_cbr_bursts(runs, afs, SamplerConfig(1.0, 0))
    decoded, text_of = [], Lines.text
    monkeypatch.setattr(Lines, "text", lambda self, line, lineno: (
        decoded.append(line) or text_of(self, line, lineno)))
    path = tmp_path / "lines.jsonl"
    for text, load, loads, records, marker in [
            (dumps_runs(runs), load_runs, loads_runs,
             lambda loaded: [s for r in loaded for s in r.segments], b'"segment"'),
            (dumps_bursts(bursts), functools.partial(_open_and_read, read=loads_bursts),
             loads_bursts, lambda loaded: loaded[0], b'"label"')]:
        path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
        decoded.clear()
        loaded = load(path)
        lines = path.read_bytes().splitlines(keepends=True)
        assert sorted(decoded) == sorted(set(lines)) and len(decoded) < len(lines)
        assert loaded == loads(text)
        built = records(loaded)
        ids: dict[bytes, set[int]] = {}
        for line, record in zip([b for b in lines if marker in b], built):
            ids.setdefault(line, set()).add(id(record))
        assert all(len(same) == 1 for same in ids.values())
        assert len({id(r) for r in built}) == len(ids)


def test_a_file_load_peaks_below_half_the_file_size(tmp_path):
    corpus = editor_corpus(120, 0)[0]
    collected = collect_cbr_bursts(loads_runs(corpus), editor_abstraction_functions(),
                                   SamplerConfig(0.3, 0))
    traces, bursts = tmp_path / "corpus.jsonl", tmp_path / "bursts.jsonl"
    traces.write_text(corpus, encoding="utf-8")
    bursts.write_text(dumps_bursts(collected), encoding="utf-8")
    for path, load, count in [
            (traces, load_runs, 120),
            (bursts, lambda p: _open_and_read(p, loads_bursts)[0], len(collected))]:
        tracemalloc.start()
        try:
            loaded = load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(loaded) == count and peak < path.stat().st_size / 2, path.name


@pytest.mark.parametrize("shift", [-2, -1, 0, 1])
def test_lines_across_buffer_refills_load_as_their_text(editor, tmp_path, shift):
    """A CRLF line end whose "\\r" or "\\n" is the last byte before the first
    refill, lines of a few KB across later refills, and a line longer than
    the whole buffer, in a trace, a burst and a matrix file.  ``pad``
    lengthens the first line."""
    afs, runs = editor
    long = dataclasses.replace(runs[0].segments[0], label="x" * (LINE_BUFFER + 5))
    runs = [*runs, Run("long", (long,)), *runs]
    bursts = collect_cbr_bursts(runs, afs, SamplerConfig(1.0, 0))
    cells = [format(i, "030b").replace("0", "T").replace("1", "F") for i in range(3000)]
    prov = [("x" * (LINE_BUFFER + 5) if i == 1500 else "r", i) for i in range(3000)]
    for make, read, loads, expected in [
            (lambda pad: dumps_runs([Run(pad, ()), *runs]), load_runs, loads_runs,
             lambda pad: [Run(pad, ()), *runs]),
            (lambda pad: dumps_bursts(bursts, af_hash=pad),
             functools.partial(_open_and_read, read=loads_bursts), loads_bursts,
             lambda pad: ([dataclasses.replace(b, af_hash=pad) for b in bursts],
                          {"af_hash": pad})),
            (lambda pad: matrix_to_csv(_wide(pad, cells, prov)),
             functools.partial(_open_and_read, read=matrix_from_csv), matrix_from_csv,
             lambda pad: _wide(pad, cells, prov))]:
        first_cr = make("").replace("\n", "\r\n").index("\r")
        pad = "p" * (LINE_BUFFER - 1 + shift - first_cr)
        text = make(pad).replace("\n", "\r\n")
        assert text.index("\r") == LINE_BUFFER - 1 + shift
        assert len(text) > 3 * LINE_BUFFER
        path = tmp_path / "lines"
        path.write_bytes(text.encode("utf-8"))
        loaded = read(path)
        assert loaded == loads(text) == expected(pad)


def _wide(pad: str, cells: list[str], prov: list) -> EvalMatrix:
    return EvalMatrix.from_rows([pad + "A0", *(f"A{j}" for j in range(1, 30))],
                                cells, prov)
