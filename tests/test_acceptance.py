"""Acceptance suite: one test per acceptance criterion, each at its stated
tolerance, printing one PASS/FAIL line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines stream.
"""

import hashlib
import math
import random
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from burstmine.cli import main as cli_main
from burstmine.collect import SamplerConfig, collect_cbr_bursts, dump_runs
from burstmine.filtering import (EvalMatrix, filter_functions,
                                 matrix_from_csv, remove_duplicate_rows)
from burstmine.functions import Clause, dump_af_list, parse_term
from burstmine.ir import (build_dependency_graph, detect_relevant_classes,
                          parse_program)
from burstmine.metrics import (baseline_recall, evaluate, node_precision,
                               run_sweep)
from burstmine.model import synthesize, with_transition
from burstmine.states import ConcreteObject, ConcreteState, \
    eval_clause, eval_function, abstract_state
from burstmine.symex import extract_abstraction_functions
from burstmine.synthetic import (PS_EMPTY, PS_PAID,
                                 checkout_abstraction_functions,
                                 checkout_reference_bursts, checkout_runs,
                                 editor_abstraction_functions,
                                 generate_editor_runs)
from burstmine.functions import AbstractionFunction

from conftest import cart_source
from test_symex import CART_TABLE


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {title}")
        raise
    print(f"[PASS] criterion {number}: {title}")


# -- shared fixtures -----------------------------------------------------------

P_GRID = (0.1, 0.25, 0.5, 1.0)
N_GRID = (1, 5, 10, 20)
SEEDS = tuple(range(10))


@pytest.fixture(scope="module")
def editor_world():
    afs = editor_abstraction_functions()
    runs = generate_editor_runs(20, master_seed=7)
    return afs, runs


@pytest.fixture(scope="module")
def editor_sweep(editor_world):
    afs, runs = editor_world
    return run_sweep(runs, afs, P_GRID, N_GRID, SEEDS)


def pooled_std(s1: float, s2: float) -> float:
    return math.sqrt((s1 * s1 + s2 * s2) / 2)


# -- criteria -------------------------------------------------------------------


def test_criterion_1_cart_golden_table():
    with criterion(1, "Cart extraction matches the 14-row reference table"):
        t0 = time.monotonic()
        program = parse_program(cart_source())
        relevant = detect_relevant_classes(
            build_dependency_graph(program), {"Cart"})
        afs, _ = extract_abstraction_functions(program, relevant)
        elapsed = time.monotonic() - t0
        got = {frozenset(af.clause_set()) for af in afs}
        want = {frozenset(s) for rows in CART_TABLE.values() for s in rows}
        assert got == want and len(afs) == 14
        assert elapsed < 5.0, f"extraction took {elapsed:.2f}s"


def test_criterion_2_filtering_golden():
    with criterion(2, "frozen 7x5 matrix filters to {AF5, AF7} with "
                      "removal counts 1/2/1/2"):
        from importlib import resources
        text = resources.files("burstmine.data").joinpath(
            "filter_example.csv").read_text()
        out, report = filter_functions(matrix_from_csv(text))
        assert set(out.column_ids) == {"AF5", "AF7"}
        assert report.counts == {"duplicated_rows": 1, "non_discriminating": 2,
                                 "equivalent": 1, "redundant": 2}


def test_criterion_3_distinguishability_on_random_matrices():
    with criterion(3, "1000 random matrices: filtering preserves distinct-row "
                      "count and kept sets are locally minimal"):
        rng = random.Random(20260809)
        for i in range(1000):
            k, n = rng.randint(1, 50), rng.randint(1, 50)
            rows = ["".join(rng.choice("TFU") for _ in range(n))
                    for _ in range(k)]
            m = EvalMatrix.from_rows(tuple(f"A{j}" for j in range(n)), rows)
            deduped = remove_duplicate_rows(m)
            out, _ = filter_functions(m)
            assert out.distinct_row_count() == deduped.n_rows, f"matrix {i}"
            if out.n_rows > 1:
                for j in range(out.n_cols):
                    cols = [c for c in range(out.n_cols) if c != j]
                    proj = {"".join(row[c] for c in cols)
                            for row in out.rows()}
                    assert len(proj) < out.n_rows, f"matrix {i} column {j}"


def test_criterion_4_self_acceptance_at_certainty(editor_world):
    with criterion(4, "p=1.0 collection -> synthesis accepts every run fully"):
        for afs, runs in [editor_world,
                          (checkout_abstraction_functions(), checkout_runs())]:
            fsm = synthesize(collect_cbr_bursts(runs, afs, SamplerConfig(1.0, 0)))
            report = evaluate(fsm, runs, afs)[1]
            assert report.mean_recall == 1.0
            assert all(rec == 1.0 for *_, rec in report.per_run)


def test_criterion_5_three_state_example():
    with criterion(5, "five checkout bursts give the 3-state model at "
                      "precision 1.0; a spurious add-item transition drops "
                      "the paid node to exactly 0.5"):
        afs = checkout_abstraction_functions()
        runs = checkout_runs()
        fsm = synthesize(checkout_reference_bursts())
        assert fsm.n_states == 3
        report = evaluate(fsm, runs, afs)[0]
        assert report.overall == 1.0
        assert all(n.precision == 1.0 for n in report.per_node)
        spurious = with_transition(fsm, "clickOnAddItem", PS_PAID, PS_EMPTY)
        cs, ts = node_precision(spurious, PS_PAID, runs, afs)
        assert cs / ts == 0.5


def test_criterion_6_recall_trend(editor_world, editor_sweep):
    with criterion(6, "mean recall non-decreasing in probability and run "
                      "count within one pooled standard deviation"):
        t0 = time.monotonic()
        afs, runs = editor_world
        states = {str(abstract_state(afs, s.pre_state))
                  for r in runs for s in r.segments}
        states |= {str(abstract_state(afs, s.post_state))
                   for r in runs for s in r.segments}
        labels = {s.label for r in runs for s in r.segments}
        assert len(labels) >= 5 and len(states) >= 8 and len(runs) == 20
        sweep = editor_sweep
        for n in N_GRID:
            stats = [sweep.aggregate(p, n) for p in P_GRID]
            for (m1, s1), (m2, s2) in zip(stats, stats[1:]):
                assert m2 >= m1 - pooled_std(s1, s2), f"p axis at n={n}"
        for p in P_GRID:
            stats = [sweep.aggregate(p, n) for n in N_GRID]
            for (m1, s1), (m2, s2) in zip(stats, stats[1:]):
                assert m2 >= m1 - pooled_std(s1, s2), f"n axis at p={p}"
        assert time.monotonic() - t0 < 120.0


def test_criterion_7_baseline_ordering(editor_world, editor_sweep):
    with criterion(7, "controlled recall at p=0.1 strictly exceeds the "
                      "fixed-length-30 baseline at p=0.1 (10-seed means)"):
        afs, runs = editor_world
        assert all(len(s.events) > 30 for r in runs for s in r.segments)
        cbr_mean = statistics.mean(editor_sweep.recalls(0.1, 20))
        base_mean = statistics.mean(
            baseline_recall(runs, SamplerConfig(0.1, seed, "fixed_length")
                            ).mean_recall
            for seed in SEEDS)
        assert cbr_mean > base_mean, (cbr_mean, base_mean)


def test_criterion_8_cli_determinism(tmp_path, editor_world):
    with criterion(8, "every CLI command re-run with identical inputs and "
                      "seed is byte-identical"):
        afs, runs = editor_world
        (tmp_path / "cart.mir").write_text(cart_source())
        dump_runs(runs[:6], tmp_path / "traces.jsonl")
        (tmp_path / "afs.json").write_text(dump_af_list(afs))

        def pipeline(out_dir: Path) -> dict:
            out_dir.mkdir()
            steps = [
                ["extract", "--program", tmp_path / "cart.mir",
                 "--targets", "Cart", "--out", out_dir / "cart_afs.json"],
                ["profile", "--traces", tmp_path / "traces.jsonl",
                 "--afs", tmp_path / "afs.json", "--out", out_dir / "matrix.csv"],
                ["filter", "--matrix", out_dir / "matrix.csv",
                 "--afs", tmp_path / "afs.json",
                 "--out-kept", out_dir / "kept.json",
                 "--out-report", out_dir / "filter_report.json"],
                ["collect", "--traces", tmp_path / "traces.jsonl",
                 "--afs", tmp_path / "afs.json", "--probability", "0.5",
                 "--seed", "9", "--out", out_dir / "bursts.jsonl"],
                ["synthesize", "--bursts", out_dir / "bursts.jsonl",
                 "--out", out_dir / "fsm.json", "--dot", out_dir / "fsm.dot"],
                ["simulate", "--fsm", out_dir / "fsm.json", "--start",
                 "UUUUUU", "--max-hops", "2", "--budget", "500",
                 "--out", out_dir / "sim.json"],
                ["evaluate", "--fsm", out_dir / "fsm.json",
                 "--traces", tmp_path / "traces.jsonl",
                 "--afs", tmp_path / "afs.json", "--out-dir", out_dir],
                ["sweep", "--traces", tmp_path / "traces.jsonl",
                 "--afs", tmp_path / "afs.json", "--probabilities", "0.5,1.0",
                 "--run-counts", "2,6", "--sweep-seeds", "0,1",
                 "--out", out_dir / "sweep.csv"],
            ]
            for argv in steps:
                assert cli_main([str(a) for a in argv]) == 0, argv[0]
            return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted(out_dir.iterdir())}

        assert pipeline(tmp_path / "a") == pipeline(tmp_path / "b")


def test_criterion_9_unknown_semantics():
    with criterion(9, "ternary probes: missing element -> U, missing root "
                      "-> U, unknown dominates the conjunction"):
        def clause(text):
            lhs, op, rhs = text.split(" ", 2)
            return Clause(parse_term(lhs), op, parse_term(rhs))

        cart_no_products = ConcreteState(
            {"c1": ConcreteObject("Cart", {"nProducts": 0, "products": []})},
            {"Cart": "c1"})
        # a clause over a missing array element evaluates to unknown
        assert eval_clause(clause("Cart.products.[0].taxFree == true"),
                           cart_no_products) == "U"
        # a clause over a missing root object evaluates to unknown
        no_cart = ConcreteState({}, {})
        assert eval_clause(clause("Cart.nProducts > 0"), no_cart) == "U"
        # unknown dominates: a false clause does not settle the conjunction
        af = AbstractionFunction(
            "t", (clause("Cart.nProducts > 0"),
                  clause("Cart.products.[0].value > 0")),
            ("Cart", "m", "P0"))
        assert eval_clause(af.clauses[0], cart_no_products) == "F"
        assert eval_clause(af.clauses[1], cart_no_products) == "U"
        assert eval_function(af, cart_no_products) == "U"
