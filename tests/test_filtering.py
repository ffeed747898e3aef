import itertools
import random
import re
from collections import Counter
from importlib import resources

import pytest
from hypothesis import given, settings, strategies as st

from burstmine.filtering import (EvalMatrix, FilterReport, MatrixError,
                                 filter_functions,
                                 matrix_from_csv, matrix_to_csv,
                                 remove_duplicate_rows,
                                 remove_equivalent_columns,
                                 remove_nondiscriminating_columns,
                                 remove_redundant_columns)


def matrix(rows, ids=None, prov=None):
    n = len(rows[0]) if rows else 0
    ids = ids or tuple(f"AF{i + 1}" for i in range(n))
    prov = prov or tuple(("r", i) for i in range(len(rows)))
    return EvalMatrix.from_rows(ids, rows, prov)


def golden_matrix() -> EvalMatrix:
    text = resources.files("burstmine.data").joinpath("filter_example.csv").read_text()
    return matrix_from_csv(text)


# --- oracles -----------------------------------------------------------------

def distinguishes(rows: list[str], cols: tuple[int, ...]) -> bool:
    proj = [tuple(r[c] for c in cols) for r in rows]
    return len(set(proj)) == len(set(tuple(r) for r in rows))


def brute_force_minimal_sets(rows: list[str], n_cols: int) -> list[frozenset]:
    """All minimal column subsets that keep the distinct rows distinct."""
    distinct = sorted(set(rows))
    full = len(distinct)
    ok = []
    for r in range(n_cols + 1):
        for combo in itertools.combinations(range(n_cols), r):
            proj = [tuple(row[c] for c in combo) for row in distinct]
            if len(set(proj)) == full:
                ok.append(frozenset(combo))
    minimal = [s for s in ok if not any(t < s for t in ok)]
    return minimal


# --- EvalMatrix.from_rows -------------------------------------------------------

def test_from_rows_shape():
    rows = ["TFUTFUT", "TTTTTTT", "FFFFFFF", "UFUFUFU", "TFTFTFT"]
    prov = [("run1", 0), ("run1", 1), ("run1", 2), ("run2", 0), ("run2", 1)]
    ids = tuple(f"AF{i+1}" for i in range(7))
    m = EvalMatrix.from_rows(ids, rows, prov, "h1")
    assert m.n_rows == 5 and m.n_cols == 7
    assert m.column_ids == ids and m.rows() == rows
    assert m.provenance == tuple(prov)
    assert m.af_hash == "h1"


def test_from_rows_empty():
    m = EvalMatrix.from_rows(("a", "b", "c"), [])
    assert m.n_rows == 0 and m.n_cols == 3


@pytest.mark.parametrize("cells,needle", [
    (("TF", "T"), "row 1 has 1 cells, expected 2"),
    (("TF", "T0"), "row 1: invalid cell value '0'"),
    (("\u0422F", "TF"), "row 0: invalid cell value '\u0422'"),
], ids=["ragged", "not-tfu", "non-ascii"])
def test_eval_matrix_rejects_bad_cells(cells, needle):
    with pytest.raises(MatrixError, match=needle):
        EvalMatrix(("a", "b"), cells)


@pytest.mark.parametrize("rows,needle", [
    (["TF", "TFU"], "row 1"),
    (["TF", "TX"], "row 1: invalid cell value 'X'"),
    (["TF", "T\u00e9"], "invalid cell value '\u00e9'"),
])
def test_from_rows_rejects_bad_rows(rows, needle):
    with pytest.raises(MatrixError, match=needle):
        EvalMatrix.from_rows(("a", "b"), rows)


# --- individual rules ---------------------------------------------------------

def test_remove_duplicate_rows_keeps_first():
    m = matrix(["TF", "UF", "TF", "UF", "TT"])
    out = remove_duplicate_rows(m)
    assert out.rows() == ["TF", "UF", "TT"]
    assert out.provenance == (("r", 0), ("r", 1), ("r", 4))


def test_remove_duplicate_rows_identity_when_distinct():
    m = matrix(["TF", "UF", "TT"])
    assert remove_duplicate_rows(m).rows() == m.rows()


def test_remove_duplicate_rows_all_equal():
    m = matrix(["TFU", "TFU", "TFU"])
    assert remove_duplicate_rows(m).rows() == ["TFU"]


def test_remove_nondiscriminating_drops_constant_columns():
    m = matrix(["UTT", "UTF", "UTU"])
    out = remove_nondiscriminating_columns(m)
    assert out.column_ids == ("AF3",)


def test_remove_nondiscriminating_single_row_drops_all():
    out = remove_nondiscriminating_columns(matrix(["TFU"]))
    assert out.n_cols == 0


def test_remove_nondiscriminating_zero_rows_unchanged():
    m = matrix([], ids=("a", "b"))
    assert remove_nondiscriminating_columns(m).column_ids == ("a", "b")


def test_remove_equivalent_keeps_leftmost():
    m = matrix(["TTF", "FFT", "UUT"])
    out = remove_equivalent_columns(m)
    assert out.column_ids == ("AF1", "AF3")


def test_remove_equivalent_three_identical():
    # brute-force oracle: all three columns pairwise equal, keep first only
    rows = ["TTT", "FFF", "UUU", "TTT"]
    cols = list(zip(*rows))
    assert cols[0] == cols[1] == cols[2]
    out = remove_equivalent_columns(matrix(rows))
    assert out.column_ids == ("AF1",)


def test_remove_redundant_requires_distinct_rows():
    with pytest.raises(MatrixError):
        remove_redundant_columns(matrix(["TF", "TF"]))


def test_remove_redundant_single_column_identity():
    m = matrix(["T", "F", "U"])
    assert remove_redundant_columns(m).column_ids == ("AF1",)


def test_remove_redundant_first_column_sufficient():
    # Column 1 alone separates all rows; brute force confirms {0} is the
    # unique minimal distinguishing set reachable greedily.
    rows = ["TTT", "FTT", "UTF"]
    assert brute_force_minimal_sets(rows, 3) == [frozenset({0})]
    out = remove_redundant_columns(matrix(rows))
    assert out.column_ids == ("AF1",)


# --- composition ---------------------------------------------------------------

def test_golden_fixture_filters_to_af5_af7():
    out, report = filter_functions(golden_matrix())
    assert set(out.column_ids) == {"AF5", "AF7"}
    assert report.counts == {"duplicated_rows": 1, "non_discriminating": 2,
                             "equivalent": 1, "redundant": 2}
    # walkthrough order: AF2 then AF4 in the redundancy pass
    redundant = [e["id"] for e in report.log if e["rule"] == "redundant"]
    assert redundant == ["AF2", "AF4"]
    rule_order = [e["rule"] for e in report.log]
    assert rule_order == sorted(
        rule_order, key=["duplicate-row", "non-discriminating",
                         "equivalent", "redundant"].index)


def test_golden_fixture_constraints_hold():
    # the frozen completion satisfies every published constraint
    m = golden_matrix()
    rows = m.rows()
    assert rows[1] == rows[2] == "UFTTFFF"
    col = lambda j: "".join(row[j] for row in rows)
    assert col(0) == "UUUUU" and col(2) == "TTTTT"
    kept_rows = (0, 1, 3, 4)
    assert [rows[i][1] for i in kept_rows] == list("UFFF")
    assert [rows[i][5] for i in kept_rows] == list("UFFF")


def test_empty_matrix_filters_to_empty():
    out, report = filter_functions(matrix([], ids=()))
    assert out.n_rows == 0 and out.n_cols == 0
    assert report.counts == {"duplicated_rows": 0, "non_discriminating": 0,
                             "equivalent": 0, "redundant": 0}


def test_zero_row_matrix_drops_all_columns_by_literal_rules():
    # with no evaluations every column is vacuously equivalent/redundant;
    # degenerate by design, the CLI warns about it
    out, _ = filter_functions(matrix([], ids=("a", "b", "c")))
    assert out.n_rows == 0 and out.n_cols == 0


def test_single_row_matrix_drops_all_columns():
    out, report = filter_functions(matrix(["TFU"]))
    assert out.n_cols == 0 and out.n_rows == 1
    assert report.counts["non_discriminating"] == 3


def test_irreducible_matrix_identity():
    # brute-force-constructed matrix with distinct rows where every column is
    # needed: no rule fires
    rows = ["TF", "FT", "TT"]
    assert brute_force_minimal_sets(rows, 2) == [frozenset({0, 1})]
    out, report = filter_functions(matrix(rows))
    assert out.column_ids == ("AF1", "AF2")
    assert sum(report.counts.values()) == 0


def random_matrix(rng: random.Random, max_side=12) -> EvalMatrix:
    k = rng.randint(1, max_side)
    n = rng.randint(1, max_side)
    rows = ["".join(rng.choice("TFU") for _ in range(n)) for _ in range(k)]
    return matrix(rows)


@pytest.mark.parametrize("seed", range(40))
def test_distinguishability_preserved_and_locally_minimal(seed):
    rng = random.Random(seed)
    m = random_matrix(rng)
    deduped = remove_duplicate_rows(m)
    out, _ = filter_functions(m)
    assert out.distinct_row_count() == deduped.n_rows
    # local minimality: dropping any kept column collapses at least two rows
    if out.n_rows > 1:
        for j in range(out.n_cols):
            trial = [c for c in range(out.n_cols) if c != j]
            proj = ["".join(row[c] for c in trial) for row in out.rows()]
            assert len(set(proj)) < out.n_rows


@pytest.mark.parametrize("seed", range(20))
def test_greedy_result_is_some_minimal_set_on_small_matrices(seed):
    rng = random.Random(1000 + seed)
    k, n = rng.randint(2, 5), rng.randint(2, 6)
    rows = ["".join(rng.choice("TFU") for _ in range(n)) for _ in range(k)]
    m = matrix(rows)
    out, _ = filter_functions(m)
    kept_idx = frozenset(m.column_ids.index(c) for c in out.column_ids)
    minimal = brute_force_minimal_sets(remove_duplicate_rows(m).rows(), n)
    # greedy output must itself be minimal w.r.t. the full (deduped) matrix,
    # after restricting to columns that survive rules 2 and 3
    deduped_rows = remove_duplicate_rows(m).rows()
    assert distinguishes(deduped_rows, tuple(sorted(kept_idx)))
    for j in kept_idx:
        rest = tuple(sorted(kept_idx - {j}))
        assert not distinguishes(deduped_rows, rest) or len(deduped_rows) == 1


def test_idempotence():
    for seed in range(15):
        m = random_matrix(random.Random(seed))
        once, _ = filter_functions(m)
        twice, report = filter_functions(once)
        assert twice.column_ids == once.column_ids
        assert twice.rows() == once.rows()
        assert sum(report.counts.values()) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 8), st.randoms(use_true_random=False))
def test_filtering_properties_hypothesis(k, n, rnd):
    rows = ["".join(rnd.choice("TFU") for _ in range(n)) for _ in range(k)]
    m = matrix(rows)
    deduped = remove_duplicate_rows(m)
    out, report = filter_functions(m)
    assert out.distinct_row_count() == deduped.n_rows
    assert len(report.kept_column_ids) + sum(
        v for k_, v in report.counts.items() if k_ != "duplicated_rows"
    ) == m.n_cols


FILTER_RULE_KEYS = {"duplicate-row": "duplicated_rows",
                    "non-discriminating": "non_discriminating",
                    "equivalent": "equivalent", "redundant": "redundant"}


def string_filter_oracle(ids: tuple[str, ...], rows: list[str]):
    """The four rules over row strings and sets: kept ids and (rule, id, pass) log."""
    log, distinct = [], []
    for i, r in enumerate(rows):
        if r in distinct:
            log.append(("duplicate-row", f"r:{i}", 1))
        else:
            distinct.append(r)
    col = lambda j: "".join(r[j] for r in distinct)
    cols = []
    for j in range(len(ids)):
        if distinct and len(set(col(j))) == 1:
            log.append(("non-discriminating", ids[j], 1))
        else:
            cols.append(j)
    firsts = set()
    for j in list(cols):
        if col(j) in firsts:
            log.append(("equivalent", ids[j], 1))
            cols.remove(j)
        firsts.add(col(j))
    apart = lambda cs: len({"".join(r[c] for c in cs) for r in distinct}) == len(distinct)
    pass_no, committed = 0, True
    while committed:
        pass_no, committed = pass_no + 1, False
        for j in list(cols):
            if apart([c for c in cols if c != j]):
                cols, committed = [c for c in cols if c != j], True
                log.append(("redundant", ids[j], pass_no))
    return tuple(ids[j] for j in cols), log


@st.composite
def shaped_rows(draw, shape):
    n = draw(st.integers(1 if shape == "one-column-differs" else 0, 7))
    row = st.text("TFU", min_size=n, max_size=n)
    if shape == "no-rows":
        return n, []
    if shape == "one-row":
        return n, [draw(row)]
    if shape == "identical-rows":  # the same as every column constant
        return n, [draw(row)] * draw(st.integers(2, 6))
    if shape == "one-column-differs":  # the redundancy loop projects to 0 columns
        a, j = draw(row), draw(st.integers(0, n - 1))
        b = a[:j] + draw(st.sampled_from([c for c in "TFU" if c != a[j]])) + a[j + 1:]
        return n, [a, b]
    return n, draw(st.lists(row, max_size=12))


@pytest.mark.parametrize("shape", ["no-rows", "one-row", "identical-rows",
                                   "one-column-differs", "random"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_packed_filter_matches_string_oracle(shape, data):
    n, rows = data.draw(shaped_rows(shape))
    ids = tuple(f"AF{i + 1}" for i in range(n))
    out, report = filter_functions(matrix(rows, ids=ids))
    kept, log = string_filter_oracle(ids, rows)
    assert report.kept_column_ids == out.column_ids == kept
    assert [(e["rule"], e["id"], e["pass"]) for e in report.log] == log
    assert report.counts == {key: Counter(e[0] for e in log)[rule]
                             for rule, key in FILTER_RULE_KEYS.items()}


@st.composite
def redundancy_inputs(draw, shape):
    """Pairwise-distinct rows, constant and repeated columns left in."""
    if shape == "wide":
        n = draw(st.integers(10, 60))
        letters = draw(st.sampled_from(["TF", "TFU"]))
        rows = draw(st.lists(st.text(letters, min_size=n, max_size=n),
                             min_size=2, max_size=40))
    elif shape == "two-rows":
        n = draw(st.integers(1, 7))
        rows = draw(st.lists(st.text("TFU", min_size=n, max_size=n),
                             min_size=2, max_size=2, unique=True))
    else:
        n, rows = draw(shaped_rows(shape))
    return remove_duplicate_rows(matrix(rows, ids=tuple(f"AF{i + 1}" for i in range(n))))


@pytest.mark.parametrize("shape", ["no-rows", "one-row", "two-rows",
                                   "identical-rows", "wide"])
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_one_greedy_pass_is_a_fixpoint(shape, data):
    """A second pass over the greedy output removes nothing: the kept set only
    shrinks, so a column kept against it stays needed."""
    once = remove_redundant_columns(data.draw(redundancy_inputs(shape)))
    report = FilterReport()
    twice = remove_redundant_columns(once, report)
    assert report.log == []
    assert (twice.column_ids, twice.rows()) == (once.column_ids, once.rows())


# --- CSV round trip -------------------------------------------------------------

def test_csv_roundtrip():
    m = golden_matrix()
    again = matrix_from_csv(matrix_to_csv(m))
    assert again.column_ids == m.column_ids
    assert again.rows() == m.rows()
    assert again.provenance == m.provenance


def test_csv_rejects_bad_cell():
    with pytest.raises(MatrixError, match="invalid cell"):
        matrix_from_csv("#run,#snapshot,A\nr,0,X\n")


def test_csv_text_round_trips_unchanged():
    text = resources.files("burstmine.data").joinpath("filter_example.csv").read_text()
    assert matrix_to_csv(matrix_from_csv(text)) == text
    rng = random.Random(0)
    letters = [rng.choices("TFU", k=120) for _ in range(2400)]
    wide = "".join(
        [",".join(["#run", "#snapshot"] + [f"AF{j}" for j in range(120)]) + "\n"]
        + [f"run{i // 7},{i % 7}," + ",".join(r) + "\n" for i, r in enumerate(letters)])
    m = matrix_from_csv(wide)
    assert (m.n_rows, m.n_cols) == (2400, 120)
    assert matrix_to_csv(m) == wide


WIDE_ROW = ",".join(["T"] * 120)


# Snapshots that int() reads but matrix_to_csv never writes.
ODD_SNAPSHOTS = {"arabic-digit": "\u0663", "space": " 7", "underscore": "1_0",
                 "plus": "+2", "minus": "-1", "empty": ""}


@pytest.mark.parametrize("body,needle", [
    ("r,0,T,F\nr,x,T,F\n", r"line 3: #snapshot 'x' is not an integer"),
    ("r,0,T,F\nr,1,T\n", "line 3: expected 4 fields, found 3"),
    ("r,0,T,F\n\nr,1,T,X\n", "line 4: invalid cell value 'X'"),
    ("r,0,TF,F\n", "line 2: invalid cell value 'TF'"),
    ("r,0,,TF\n", "line 2: invalid cell value ''"),
    (f"r,0,{WIDE_ROW}\n", "line 2: expected 4 fields, found 122"),
    *[(f"r,0,T,F\nr,{snap},T,F\n",
       re.escape(f"line 3: #snapshot {snap!r} is not an integer"))
      for snap in ODD_SNAPSHOTS.values()],
], ids=["snapshot-not-int", "short-row", "bad-letter", "two-letter-cell",
        "empty-cell", "wide-row", *[f"snapshot-{k}" for k in ODD_SNAPSHOTS]])
def test_csv_errors_name_the_line(body, needle):
    with pytest.raises(MatrixError, match=needle) as exc:
        matrix_from_csv("#run,#snapshot,A,B\n" + body)
    assert len(str(exc.value)) < 60  # names the line, does not echo it
