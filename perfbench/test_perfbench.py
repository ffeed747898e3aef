"""Tests of the benchmark's own parts: generators, output checks, tracing.

Run from the repository root with ``PYTHONPATH=src python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from burstmine import model
from burstmine.synthetic import checkout_reference_bursts
from perfbench import checks, inputs, run, tracing, workloads

ROOT = Path(__file__).resolve().parent.parent


# --- generators -------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda seed: inputs.editor_corpus(6, seed),
    lambda seed: inputs.editor_program(5, seed),
    lambda seed: inputs.wide_matrix(60, 30, 24, seed),
])
def test_generators_give_the_same_bytes_for_the_same_seed(make):
    assert make(3) == make(3)
    assert make(3) != make(4)


def test_editor_corpus_includes_closed_editor_snapshots():
    text, facts = inputs.editor_corpus(4, 0)
    first = json.loads(text.splitlines()[1])["segment"]
    assert first["label"] == "openDoc" and first["pre_state"]["roots"] == {}
    assert facts["runs"] == 4 and facts["events"] > facts["segments"] > 0


def test_editor_program_yields_eight_probes_per_method(tmp_path):
    from burstmine.cli import main
    (tmp_path / "e.mir").write_text(inputs.editor_program(5, 1))
    assert main(["extract", "--program", str(tmp_path / "e.mir"),
                 "--out", str(tmp_path / "afs.json")]) == 0
    afs = json.loads((tmp_path / "afs.json").read_text())["functions"]
    assert len(afs) == 40
    assert all(len(f["clauses"]) == 3 for f in afs)


def test_wide_matrix_makes_every_filter_rule_fire():
    from burstmine.filtering import filter_functions, matrix_from_csv
    matrix, afs, facts = inputs.wide_matrix(200, 80, 40, 5)
    _, report = filter_functions(matrix_from_csv(matrix))
    assert all(n > 0 for n in report.counts.values()), report.counts
    ids, rows = checks.parse_matrix(matrix)
    assert len(rows) == facts["rows"] == 200 and len(ids) == 40
    assert set(checks.af_ids(afs)) == set(ids)


# --- output checks ------------------------------------------------------------------

MATRIX = "#run,#snapshot,A,B,C\nr,0,T,T,T\nr,1,T,F,T\nr,2,F,T,T\nr,3,F,F,T\nr,4,F,F,T\n"
REPORT = json.dumps({"log": [{"rule": "redundant", "id": "C", "pass": 1}]})


def _kept(*ids: str) -> str:
    return json.dumps({"functions": [{"id": i} for i in ids]})


def test_filter_check_accepts_a_distinguishing_kept_list():
    found = checks.check_filter(MATRIX, _kept("A", "B"), REPORT)
    assert found == {"rows_in": 5, "distinct_rows": 4, "columns_in": 3,
                     "columns_kept": 2, "redundant_passes": 2}


@pytest.mark.parametrize("kept", [_kept("A"), _kept("A", "C"), _kept("A", "B", "X"),
                                  _kept("A", "A", "B")])
def test_filter_check_rejects_a_kept_list_that_loses_or_invents_probes(kept):
    with pytest.raises(checks.CheckError):
        checks.check_filter(MATRIX, kept, REPORT)


def test_matrix_check_rejects_wrong_shape_and_bad_cells():
    checks.check_matrix(MATRIX, 5, 3)
    with pytest.raises(checks.CheckError):
        checks.check_matrix(MATRIX, 4, 3)
    with pytest.raises(checks.CheckError):
        checks.check_matrix(MATRIX.replace("T,T,T", "T,X,T"), 5, 3)


def _recall(captured: int, total: int, recall: float) -> str:
    return json.dumps({"mean_recall": recall, "runs": [
        {"run": "r0", "captured_events": captured, "total_events": total,
         "recall": recall}]})


def test_recall_check():
    checks.check_recall(_recall(5, 10, 0.5))
    for bad in (_recall(11, 10, 1.0), _recall(5, 10, 1.5)):
        with pytest.raises(checks.CheckError):
            checks.check_recall(bad)


def test_precision_check():
    node = {"state": "TF", "correct_sequences": 1, "total_sequences": 2,
            "precision": 0.5}
    checks.check_precision(json.dumps({"overall": 0.5, "nodes": [node]}))
    with pytest.raises(checks.CheckError):
        checks.check_precision(json.dumps({"overall": 1.2, "nodes": [node]}))
    with pytest.raises(checks.CheckError):
        checks.check_precision(json.dumps({"overall": None, "nodes": [
            dict(node, correct_sequences=3)]}))


def test_sweep_check_wants_one_row_per_cell():
    rows = ["p,n_runs,seed,overall_precision,mean_recall"]
    rows += [f"{p},{n},{s},,0.5" for p in ("0.1", "0.5") for n in (1, 2)
             for s in (0, 1)]
    text = "\n".join(rows) + "\n"
    grid = (("0.1", "0.5"), ("1", "2"), ("0", "1"))
    assert checks.check_sweep(text, *grid) == 8
    for bad in ("\n".join(rows[:-1]) + "\n", text + rows[1] + "\n",
                text.replace(",0.5\n", ",1.5\n")):
        with pytest.raises(checks.CheckError):
            checks.check_sweep(bad, *grid)


def test_fsm_check_round_trips_and_rejects_other_text():
    text = model.export_fsm(model.synthesize(checkout_reference_bursts()), "json")
    assert checks.check_fsm_roundtrip(text) == {"states": 3, "transitions": 4}
    with pytest.raises(checks.CheckError):
        checks.check_fsm_roundtrip(json.dumps(json.loads(text)))


def test_start_state_is_the_sorted_first_source():
    text = model.export_fsm(model.synthesize(checkout_reference_bursts()), "json")
    assert checks.first_start_state(text) == "FF"
    checks.check_reconstructions(json.dumps([{"start": "FF"}]), "FF")
    with pytest.raises(checks.CheckError):
        checks.check_reconstructions(json.dumps([{"start": "UF"}]), "FF")


# --- tracing ---------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [["cli.x", 0.0, 10.0, -1, 0],   # children a (4 s) and b (2 s)
             ["a", 1.0, 5.0, 0, 0],         # child b (1 s)
             ["b", 2.0, 3.0, 1, 0],
             ["b", 6.0, 8.0, 0, 0]]
    assert tracing.self_times(spans) == {"cli.x": [1, 10.0, 4.0],
                                         "a": [1, 4.0, 3.0],
                                         "b": [2, 3.0, 3.0]}


def test_tracer_nests_spans_observes_and_restores():
    import types
    ns = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return ns.inner(x) * 2

    inner.__module__, outer.__module__ = "pkg.low", "pkg.high"
    ns.inner, ns.outer = inner, outer
    seen = []
    tracer = tracing.Tracer({"low.inner": lambda a, k, r: seen.append((a, r))})
    tracer.install([(ns, "inner", inner), (ns, "outer", outer)])
    with tracer.span("cli.test"):
        assert ns.outer(1) == 4
    tracer.uninstall()
    assert ns.inner is inner and ns.outer is outer
    assert [(s[0], s[3]) for s in tracer.spans] == [
        ("cli.test", -1), ("high.outer", 0), ("low.inner", 1)]
    assert seen == [((1,), 2)]


def test_boundary_functions_wrap_cross_module_calls_only():
    names = {(ns.__name__, attr) for ns, attr, _ in tracing.boundary_functions()}
    assert ("burstmine.cli", "load_runs") in names
    assert ("burstmine.collect", "abstract_state") in names
    assert ("burstmine.filtering", "filter_functions") in names  # via cli
    assert ("burstmine.metrics", "overall_precision") in names   # via cli
    assert not any(attr in ("eval_function", "eval_clause") for _, attr in names)


# --- the benchmark description ---------------------------------------------------------


def test_benchmark_json_matches_what_the_runner_reports():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
