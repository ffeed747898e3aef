import statistics

import pytest
from hypothesis import given, strategies as st

from burstmine import collect
from burstmine.collect import (MethodCall, OperationSegment, Run,
                               SamplerConfig, collect_cbr_bursts, dumps_runs,
                               loads_runs)
from burstmine.metrics import (_mean, baseline_recall, evaluate,
                               node_precision, run_sweep, trace_recall)
from burstmine.model import ModelError, synthesize, with_transition
from burstmine.states import ConcreteObject, ConcreteState
from burstmine.synthetic import (PS_EMPTY, PS_FILLING, PS_PAID,
                                 checkout_abstraction_functions,
                                 checkout_reference_bursts, checkout_runs,
                                 editor_abstraction_functions,
                                 generate_editor_runs)


@pytest.fixture(scope="module")
def checkout():
    afs = checkout_abstraction_functions()
    return afs, checkout_runs(), synthesize(checkout_reference_bursts())


# --- the mean ------------------------------------------------------------------


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1)
       | st.lists(st.floats(0, 1), min_size=1))
def test_the_mean_is_statistics_mean(values):
    assert repr(_mean(values)) == repr(statistics.mean(values))


# --- node precision -----------------------------------------------------------

def test_reference_model_nodes_all_precise(checkout):
    afs, runs, fsm = checkout
    for node in (PS_EMPTY, PS_FILLING, PS_PAID):
        cs, ts = node_precision(fsm, node, runs, afs)
        assert ts > 0 and cs == ts


def test_reference_model_overall_one(checkout):
    afs, runs, fsm = checkout
    report = evaluate(fsm, runs, afs)[0]
    assert report.overall == 1.0
    assert report.excluded == 0
    assert [n.state for n in report.per_node] == sorted(fsm.states)


def test_injected_spurious_transition_halves_paid_node(checkout):
    afs, runs, fsm = checkout
    bad = with_transition(fsm, "clickOnAddItem", PS_PAID, PS_EMPTY)
    cs, ts = node_precision(bad, PS_PAID, runs, afs)
    assert (cs, ts) == (1, 2)


def test_single_in_out_pair_witnessed(checkout):
    afs, runs, fsm = checkout
    cs, ts = node_precision(fsm, PS_PAID, runs, afs)
    assert (cs, ts) == (1, 1)


def test_unknown_node_rejected(checkout):
    afs, runs, fsm = checkout
    with pytest.raises(ModelError):
        node_precision(fsm, "XX", runs, afs)


def test_endpoint_multiplicity_counts_pairs(checkout):
    # PS_FILLING has two incoming (from PS_EMPTY and its self-loop) and two
    # outgoing (self-loop and pay): 4 pairs, all witnessed by the runs.
    afs, runs, fsm = checkout
    cs, ts = node_precision(fsm, PS_FILLING, runs, afs)
    assert (cs, ts) == (4, 4)


def test_terminal_nodes_excluded_not_scored(checkout):
    afs, runs, _ = checkout
    from burstmine.collect import Burst
    h = checkout_reference_bursts()[0].af_hash
    only = Burst("clickOnAddItem", PS_EMPTY,
                 (MethodCall("addItem", "Cart", (25,)),), PS_FILLING, h)
    fsm = synthesize([only])
    report = evaluate(fsm, runs, afs)[0]
    # both nodes lack an in or an out side
    assert report.per_node == [] and report.excluded == 2
    assert report.overall is None


def test_overall_precision_simple_mean():
    # node precisions 1.0 and 0.5 average to 0.75, one excluded node
    afs = checkout_abstraction_functions()
    runs = checkout_runs()
    fsm = synthesize(checkout_reference_bursts())
    bad = with_transition(fsm, "clickOnAddItem", PS_PAID, PS_EMPTY)
    report = evaluate(bad, runs, afs)[0]
    scores = {n.state: n.precision for n in report.per_node}
    assert scores[PS_PAID] == 0.5
    assert report.overall == pytest.approx(
        sum(scores.values()) / len(scores))


def test_two_scorable_nodes_mean_is_three_quarters():
    # nodes with precisions 1.0 and 0.5 average to exactly 0.75
    from burstmine.collect import Burst
    afs = checkout_abstraction_functions()
    h = checkout_reference_bursts()[0].af_hash

    def burst(label, pre, post):
        return Burst(label, pre, (MethodCall(label, "Cart", ()),), post, h)

    # chain S0 -a-> A -b-> B -c-> S3, plus a never-witnessed d out of B
    fsm = synthesize([burst("a", "TT", "TF"), burst("b", "TF", "FF"),
                      burst("c", "FF", "UF"), burst("d", "FF", "UU")])

    def state(n_products=None, amount=None):
        objects, roots = {}, {}
        if n_products is not None:
            objects["c1"] = ConcreteObject("Cart", {"nProducts": n_products})
            roots["Cart"] = "c1"
        if amount is not None:
            objects["r1"] = ConcreteObject("Receipt", {"amount": amount})
            roots["Receipt"] = "r1"
        return ConcreteState(objects, roots)

    # one original run realizing a;b;c (so (a,b,TF) and (b,c,FF) are
    # witnessed) and never b;d
    states = [state(0, 0), state(1, 0), state(1, 5), state(1, None)]
    labels = ["a", "b", "c"]
    segs = tuple(
        OperationSegment(lbl, (MethodCall(lbl, "Cart", ()),),
                         states[i], states[i + 1])
        for i, lbl in enumerate(labels))
    run = Run("orig", segs)
    report = evaluate(fsm, [run], afs)[0]
    scores = {n.state: n.precision for n in report.per_node}
    assert scores == {"TF": 1.0, "FF": 0.5}
    assert report.overall == 0.75
    assert report.excluded == 3  # TT, UF, UU have no in or no out side


def test_linear_run_full_precision():
    # single linear run with pairwise-distinct states: every length-2
    # combination at every node is realized by the run (brute-force obvious)
    empty = ConcreteState({}, {})
    def state(n):
        return ConcreteState({"e1": ConcreteObject("Editor", {"nEdits": n})},
                             {"Editor": "e1"})
    afs = editor_abstraction_functions()[2:4]  # nEdits > 0, nEdits >= 3
    segs = []
    values = [0, 1, 3]
    states = [empty] + [state(v) for v in values]
    for i, label in enumerate(["a", "b", "c"]):
        segs.append(OperationSegment(
            label, (MethodCall("m", "Editor", (i,)),), states[i], states[i + 1]))
    run = Run("lin", tuple(segs))
    fsm = synthesize(collect_cbr_bursts([run], afs, SamplerConfig(1.0, 0)))
    report = evaluate(fsm, [run], afs)[0]
    assert report.overall == 1.0


# --- recall ------------------------------------------------------------------

def test_full_acceptance_recall_one(checkout):
    afs, runs, _ = checkout
    fsm = synthesize(collect_cbr_bursts(runs, afs, SamplerConfig(1.0, 0)))
    report = evaluate(fsm, runs, afs)[1]
    assert report.mean_recall == 1.0


def test_trace_recall_bounds(checkout):
    _, runs, _ = checkout
    assert trace_recall(0, runs[0]) == 0.0
    assert trace_recall(runs[0].total_events, runs[0]) == 1.0
    with pytest.raises(ValueError):
        trace_recall(runs[0].total_events + 1, runs[0])


def test_thirty_of_six_hundred():
    empty = ConcreteState({}, {})
    run = Run("big", tuple(
        OperationSegment("op", tuple(
            MethodCall(f"m{i}", "C", ()) for i in range(100)), empty, empty)
        for _ in range(6)))
    assert trace_recall(30, run) == 0.05


def test_baseline_recall_per_run():
    afs = editor_abstraction_functions()
    runs = generate_editor_runs(5, master_seed=2)
    report = baseline_recall(runs, SamplerConfig(0.2, 7, "fixed_length"))
    assert len(report.per_run) == len(runs)
    for _, captured, total, recall in report.per_run:
        assert 0 <= captured <= total
        assert recall == pytest.approx(captured / total)


def test_baseline_recall_rejects_repeated_run_id():
    runs = generate_editor_runs(2, master_seed=2)
    runs = [runs[0], Run(runs[0].run_id, runs[1].segments)]
    with pytest.raises(ValueError, match=repr(runs[0].run_id)):
        baseline_recall(runs, SamplerConfig(1.0, 7, "fixed_length"))


# --- sweeps ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_sweep():
    afs = editor_abstraction_functions()
    runs = generate_editor_runs(6, master_seed=4)
    return runs, afs, run_sweep(runs, afs, [0.5, 1.0], [2, 6], [0, 1, 2])


def test_sweep_grid_shape(small_sweep):
    _, _, sweep = small_sweep
    assert len(sweep.cells) == 2 * 2 * 3


def test_sweep_certainty_cell(small_sweep):
    runs, afs, sweep = small_sweep
    cell = sweep.cell(1.0, len(runs), 0)
    assert cell.mean_recall == 1.0
    fsm = synthesize(collect_cbr_bursts(runs, afs, SamplerConfig(1.0, 0)))
    assert cell.overall_precision == evaluate(fsm, runs, afs)[0].overall


def test_sweep_p_zero_cells():
    afs = editor_abstraction_functions()
    runs = generate_editor_runs(3, master_seed=4)
    sweep = run_sweep(runs, afs, [0.0, 1.0], [3], [0])
    cell = sweep.cell(0.0, 3, 0)
    assert cell.mean_recall == 0.0 and cell.overall_precision is None


def test_sweep_reproducible(small_sweep):
    runs, afs, sweep = small_sweep
    again = run_sweep(runs, afs, [0.5, 1.0], [2, 6], [0, 1, 2])
    assert again.cells == sweep.cells
    assert again.to_csv() == sweep.to_csv()


def test_sweep_axis_validation():
    afs = editor_abstraction_functions()
    runs = generate_editor_runs(2, master_seed=1)
    with pytest.raises(ValueError):
        run_sweep(runs, afs, [0.5, 0.2], [1], [0])
    with pytest.raises(ValueError):
        run_sweep(runs, afs, [0.5], [1, 5], [0])
    # A repeated seed would score one grid cell twice; seeds take any order.
    with pytest.raises(ValueError, match="seed axis must not repeat a seed"):
        run_sweep(runs, afs, [0.5], [1], [3, 0, 3])
    assert [c.seed for c in run_sweep(runs, afs, [0.5], [1], [3, 0]).cells] == [3, 0]


def test_sweep_rejects_a_negative_run_count_and_keeps_zero():
    afs = editor_abstraction_functions()
    runs = generate_editor_runs(2, master_seed=1)
    with pytest.raises(ValueError, match="run-count axis"):
        run_sweep(runs, afs, [0.5], [-2, 1], [0])
    empty = run_sweep(runs, afs, [0.5], [0, 1], [0]).cell(0.5, 0, 0)
    assert empty.mean_recall == 0.0 and empty.overall_precision is None


def test_sweep_and_evaluate_abstract_a_state_shared_by_runs_once(monkeypatch):
    afs = editor_abstraction_functions()
    runs = loads_runs(dumps_runs(generate_editor_runs(6, master_seed=4)))
    distinct = {id(st) for r in runs for s in r.segments
                for st in (s.pre_state, s.post_state)}
    per_run = sum(len({id(st) for s in r.segments
                       for st in (s.pre_state, s.post_state)}) for r in runs)
    assert len(distinct) < per_run  # the runs share states
    fsm = synthesize(collect_cbr_bursts(runs, afs, SamplerConfig(0.5, 0)))
    calls = []
    real = collect.abstract_state
    monkeypatch.setattr(collect, "abstract_state",
                        lambda afs, state: calls.append(id(state)) or real(afs, state))
    sweep = run_sweep(runs, afs, [0.5, 1.0], [2, 6], [0, 1])
    assert sorted(calls) == sorted(distinct)
    calls.clear()
    evaluate(fsm, runs, afs)
    assert sorted(calls) == sorted(distinct)
    monkeypatch.undo()
    assert sweep.cells == run_sweep(runs, afs, [0.5, 1.0], [2, 6], [0, 1]).cells


def test_every_sweep_cell_scores_as_evaluate_does():
    afs = editor_abstraction_functions()
    runs = generate_editor_runs(6, master_seed=4)
    sweep = run_sweep(runs, afs, [0.3, 1.0], [2, 6], [0, 1])
    assert len(sweep.cells) == 8
    for cell in sweep.cells:
        p, n, seed = cell.probability, cell.n_runs, cell.seed
        fsm = synthesize(collect_cbr_bursts(runs[:n], afs, SamplerConfig(p, seed)))
        precision, recall = evaluate(fsm, runs, afs)
        assert (cell.overall_precision, cell.mean_recall) == (
            precision.overall, recall.mean_recall or 0.0), (p, n, seed)


def test_sweep_csv_shape(small_sweep):
    _, _, sweep = small_sweep
    lines = sweep.to_csv().strip().splitlines()
    assert lines[0] == "p,n_runs,seed,overall_precision,mean_recall"
    assert len(lines) == 1 + len(sweep.cells)


def test_reports_serialize(checkout):
    afs, runs, fsm = checkout
    prec = evaluate(fsm, runs, afs)[0]
    rec = evaluate(fsm, runs, afs)[1]
    assert "overall" in prec.to_json() and prec.to_csv().startswith("state,")
    assert "mean_recall" in rec.to_json() and rec.to_csv().startswith("run,")
