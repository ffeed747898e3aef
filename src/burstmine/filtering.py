"""Evaluation-matrix filtering: reduce an abstraction-function set to a
minimal state-distinguishing subset.

Training evaluations form a matrix (rows = ternary snapshots, columns =
functions).  Four rules shrink it, in this fixed order:

1. duplicate rows dropped (first occurrence kept),
2. non-discriminating (constant) columns dropped,
3. equivalent (identical) columns collapsed to the leftmost,
4. redundant columns dropped greedily left-to-right, repeated to fixpoint,
   as long as the surviving projection still distinguishes all rows.

The rules never lose distinguishability: the number of distinct rows of the
kept projection equals the number of distinct rows after deduplication.
Greedy removal yields a locally minimal set, not a global minimum cover.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

_CELLS = ("T", "F", "U")


class MatrixError(ValueError):
    pass


@dataclass(frozen=True)
class EvalMatrix:
    """Rows of ternary cells with parallel column ids and row provenance."""

    column_ids: tuple[str, ...]
    cells: np.ndarray  # shape (rows, cols), dtype <U1
    provenance: tuple[tuple[str, int], ...] = ()
    af_hash: str = ""

    def __post_init__(self) -> None:
        if self.cells.ndim != 2 or self.cells.shape[1] != len(self.column_ids):
            raise MatrixError("cell block does not match column ids")
        if self.provenance and len(self.provenance) != self.cells.shape[0]:
            raise MatrixError("provenance does not match row count")
        if len(set(self.column_ids)) != len(self.column_ids):
            raise MatrixError("column ids must be unique")

    @property
    def n_rows(self) -> int:
        return int(self.cells.shape[0])

    @property
    def n_cols(self) -> int:
        return int(self.cells.shape[1])

    def rows(self) -> list[str]:
        return ["".join(r) for r in self.cells]

    def distinct_row_count(self) -> int:
        return len(set(self.rows()))

    @staticmethod
    def from_rows(column_ids, rows, provenance=(), af_hash: str = "") -> "EvalMatrix":
        arr = np.array([list(r) for r in rows], dtype="<U1")
        if arr.size == 0:
            arr = arr.reshape(0, len(tuple(column_ids)))
        return EvalMatrix(tuple(column_ids), arr, tuple(provenance), af_hash)


@dataclass
class FilterReport:
    counts: dict = field(default_factory=lambda: {
        "duplicated_rows": 0, "non_discriminating": 0,
        "equivalent": 0, "redundant": 0})
    kept_column_ids: tuple[str, ...] = ()
    log: list = field(default_factory=list)  # {"rule", "id", "pass"}
    initial_columns: int = 0

    def record(self, rule: str, ident: str, pass_no: int = 1) -> None:
        key = {"duplicate-row": "duplicated_rows",
               "non-discriminating": "non_discriminating",
               "equivalent": "equivalent",
               "redundant": "redundant"}[rule]
        self.counts[key] += 1
        self.log.append({"rule": rule, "id": ident, "pass": pass_no})

    def to_json(self) -> str:
        return json.dumps({
            "initial_columns": self.initial_columns,
            "kept": list(self.kept_column_ids),
            "removed_counts": self.counts,
            "log": self.log,
        }, indent=2)

    @staticmethod
    def from_json(text: str) -> "FilterReport":
        d = json.loads(text)
        rep = FilterReport(dict(d["removed_counts"]), tuple(d["kept"]),
                           list(d["log"]), int(d["initial_columns"]))
        return rep


def remove_duplicate_rows(m: EvalMatrix, report: FilterReport | None = None,
                          ) -> EvalMatrix:
    seen: set[str] = set()
    keep: list[int] = []
    for i, row in enumerate(m.rows()):
        if row in seen:
            if report is not None:
                prov = m.provenance[i] if m.provenance else ("row", i)
                report.record("duplicate-row", f"{prov[0]}:{prov[1]}")
            continue
        seen.add(row)
        keep.append(i)
    prov = tuple(m.provenance[i] for i in keep) if m.provenance else ()
    return EvalMatrix(m.column_ids, m.cells[keep], prov, m.af_hash)


def remove_nondiscriminating_columns(m: EvalMatrix,
                                     report: FilterReport | None = None,
                                     ) -> EvalMatrix:
    if m.n_rows == 0:
        return m
    keep: list[int] = []
    for j in range(m.n_cols):
        col = m.cells[:, j]
        if (col == col[0]).all():
            if report is not None:
                report.record("non-discriminating", m.column_ids[j])
        else:
            keep.append(j)
    return _project(m, keep)


def remove_equivalent_columns(m: EvalMatrix, report: FilterReport | None = None,
                              ) -> EvalMatrix:
    seen: dict[str, int] = {}
    keep: list[int] = []
    for j in range(m.n_cols):
        key = "".join(m.cells[:, j])
        if key in seen:
            if report is not None:
                report.record("equivalent", m.column_ids[j])
            continue
        seen[key] = j
        keep.append(j)
    return _project(m, keep)


def remove_redundant_columns(m: EvalMatrix, report: FilterReport | None = None,
                             ) -> EvalMatrix:
    if m.distinct_row_count() != m.n_rows:
        raise MatrixError("redundancy removal requires pairwise-distinct rows "
                          "(run duplicate-row removal first)")
    keep = list(range(m.n_cols))
    pass_no = 0
    while True:
        pass_no += 1
        committed = False
        for j in list(keep):
            trial = [c for c in keep if c != j]
            if _all_rows_distinct(m.cells[:, trial]):
                keep = trial
                committed = True
                if report is not None:
                    report.record("redundant", m.column_ids[j], pass_no)
        if not committed:
            break
    return _project(m, keep)


def filter_functions(m: EvalMatrix) -> tuple[EvalMatrix, FilterReport]:
    """The four rules in order, with per-rule removal counts."""
    report = FilterReport(initial_columns=m.n_cols)
    out = remove_duplicate_rows(m, report)
    out = remove_nondiscriminating_columns(out, report)
    out = remove_equivalent_columns(out, report)
    out = remove_redundant_columns(out, report)
    report.kept_column_ids = out.column_ids
    return out, report


def _project(m: EvalMatrix, cols: list[int]) -> EvalMatrix:
    ids = tuple(m.column_ids[j] for j in cols)
    return EvalMatrix(ids, m.cells[:, cols], m.provenance, m.af_hash)


def _all_rows_distinct(cells: np.ndarray) -> bool:
    rows = ["".join(r) for r in cells]
    return len(set(rows)) == len(rows)


# ---------------------------------------------------------------------------
# CSV wire format: provenance columns prefixed with '#', cells T/F/U.
# ---------------------------------------------------------------------------


def matrix_to_csv(m: EvalMatrix) -> str:
    lines = [",".join(("#run", "#snapshot") + m.column_ids)]
    for i in range(m.n_rows):
        run, snap = m.provenance[i] if m.provenance else ("", i)
        lines.append(",".join((str(run), str(snap)) + tuple(m.cells[i])))
    return "\n".join(lines) + "\n"


def matrix_from_csv(text: str, af_hash: str = "") -> EvalMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MatrixError("empty matrix document")
    header = lines[0].split(",")
    if header[:2] != ["#run", "#snapshot"]:
        raise MatrixError("matrix CSV must start with #run,#snapshot columns")
    ids = tuple(header[2:])
    rows: list[str] = []
    prov: list[tuple[str, int]] = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(ids) + 2:
            raise MatrixError(f"row width mismatch in line {ln!r}")
        cells = parts[2:]
        bad = [c for c in cells if c not in _CELLS]
        if bad:
            raise MatrixError(f"invalid cell value {bad[0]!r}")
        rows.append("".join(cells))
        prov.append((parts[0], int(parts[1]) if parts[1] else 0))
    return EvalMatrix.from_rows(ids, rows, prov, af_hash)
