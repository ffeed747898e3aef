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

An ``EvalMatrix`` holds its cells as one ``uint8`` array of codes (T/F/U ->
0/1/2, ``schema.LETTERS``), parsed from the row text through a 256-entry byte
table.  Every rule tests distinctness by viewing each row (or column) of
codes as one byte-string key and calling ``np.unique`` once.  ``rows()`` and
the CSV form stay text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .schema import LETTERS

_BAD = 3  # code of a byte that is not a T/F/U cell
# One 256-entry table each way between cell letters (as ASCII bytes) and codes.
_ENCODE = bytes(LETTERS.index(chr(b)) if chr(b) in LETTERS else _BAD
                for b in range(256))
_DECODE = bytes.maketrans(b"\x00\x01\x02", "".join(LETTERS).encode("ascii"))


class MatrixError(ValueError):
    pass


@dataclass(frozen=True)
class EvalMatrix:
    """Rows of ternary cells with parallel column ids and row provenance."""

    column_ids: tuple[str, ...]
    codes: np.ndarray  # shape (rows, cols), dtype uint8: 0 = T, 1 = F, 2 = U
    provenance: tuple[tuple[str, int], ...] = ()
    af_hash: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.codes, np.ndarray) or self.codes.dtype != np.uint8:
            raise MatrixError("cell codes must be a uint8 array")
        if self.codes.ndim != 2 or self.codes.shape[1] != len(self.column_ids):
            raise MatrixError("cell block does not match column ids")
        if self.codes.size and self.codes.max() > 2:
            raise MatrixError("cell codes must be 0 (T), 1 (F) or 2 (U)")
        if self.provenance and len(self.provenance) != self.codes.shape[0]:
            raise MatrixError("provenance does not match row count")
        if len(set(self.column_ids)) != len(self.column_ids):
            raise MatrixError("column ids must be unique")

    @property
    def n_rows(self) -> int:
        return int(self.codes.shape[0])

    @property
    def n_cols(self) -> int:
        return int(self.codes.shape[1])

    def rows(self) -> list[str]:
        text = self.codes.tobytes().translate(_DECODE).decode("ascii")
        n = self.n_cols
        return [text[i * n:(i + 1) * n] for i in range(self.n_rows)]

    def distinct_row_count(self) -> int:
        return _distinct_rows(self.codes)

    @staticmethod
    def from_rows(column_ids, rows, provenance=(), af_hash: str = "") -> "EvalMatrix":
        ids, rows = tuple(column_ids), list(rows)
        for i, row in enumerate(rows):
            if len(row) != len(ids):
                raise MatrixError(f"row {i} has {len(row)} cells, "
                                  f"expected {len(ids)}")
        codes = _encode(rows, len(ids))
        bad = _first_bad_row(codes)
        if bad is not None:
            raise MatrixError(f"row {bad}: invalid cell value "
                              f"{next(c for c in rows[bad] if c not in LETTERS)!r}")
        return EvalMatrix(ids, codes, tuple(provenance), af_hash)


def _encode(rows: list[str], width: int) -> np.ndarray:
    """Codes of equal-length rows, cells outside T/F/U becoming ``_BAD``."""
    data = "".join(rows).encode("ascii", "replace").translate(_ENCODE)
    return np.frombuffer(data, dtype=np.uint8).reshape(len(rows), width)


def _first_bad_row(codes: np.ndarray) -> int | None:
    if codes.size and codes.max() > 2:
        return int((codes > 2).any(axis=1).argmax())
    return None


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


def remove_duplicate_rows(m: EvalMatrix, report: FilterReport | None = None,
                          ) -> EvalMatrix:
    keep, dropped = _kept_and_dropped(m.codes)
    if report is not None:
        for i in dropped:
            prov = m.provenance[i] if m.provenance else ("row", i)
            report.record("duplicate-row", f"{prov[0]}:{prov[1]}")
    prov = tuple(m.provenance[i] for i in keep) if m.provenance else ()
    return EvalMatrix(m.column_ids, m.codes[keep], prov, m.af_hash)


def remove_nondiscriminating_columns(m: EvalMatrix,
                                     report: FilterReport | None = None,
                                     ) -> EvalMatrix:
    if m.n_rows == 0:
        return m
    constant = (m.codes == m.codes[0]).all(axis=0)
    keep: list[int] = []
    for j in range(m.n_cols):
        if constant[j]:
            if report is not None:
                report.record("non-discriminating", m.column_ids[j])
        else:
            keep.append(j)
    return _project(m, keep)


def remove_equivalent_columns(m: EvalMatrix, report: FilterReport | None = None,
                              ) -> EvalMatrix:
    keep, dropped = _kept_and_dropped(m.codes.T)
    if report is not None:
        for j in dropped:
            report.record("equivalent", m.column_ids[j])
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
            if _distinct_rows(m.codes[:, trial]) == m.n_rows:
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
    return EvalMatrix(ids, m.codes[:, cols], m.provenance, m.af_hash)


# Distinctness kernel.  Each row of a code block becomes one np.void key of
# its bytes, so equal keys are equal rows.  It uses only NumPy 1.24 APIs
# (the pyproject floor): a void view and np.unique(..., return_index=True);
# not np.unique_values/np.unique_counts or np.strings, which need 2.0.
# return_index also keeps NumPy 2 from importing numpy.ma (about 1 MB) on
# the first call, which it does to rule out masked input.


def _row_keys(codes: np.ndarray) -> np.ndarray:
    if codes.shape[1] == 0:  # np.void cannot be 0 bytes wide; all rows equal
        return np.zeros(codes.shape[0], dtype=np.uint8)
    block = np.ascontiguousarray(codes)
    return block.view(np.dtype((np.void, block.shape[1]))).ravel()


def _first_occurrences(codes: np.ndarray) -> np.ndarray:
    """Index of the first row of each distinct row, in key order."""
    return np.unique(_row_keys(codes), return_index=True)[1]


def _distinct_rows(codes: np.ndarray) -> int:
    return len(_first_occurrences(codes))


def _kept_and_dropped(codes: np.ndarray) -> tuple[list[int], list[int]]:
    """Ascending indices of first-occurrence rows, and of the other rows."""
    keep = sorted(_first_occurrences(codes).tolist())
    kept = set(keep)
    return keep, [i for i in range(codes.shape[0]) if i not in kept]


# ---------------------------------------------------------------------------
# CSV wire format: provenance columns prefixed with '#', cells T/F/U.
# ---------------------------------------------------------------------------


def matrix_to_csv(m: EvalMatrix) -> str:
    lines = [",".join(("#run", "#snapshot") + m.column_ids)]
    for i, row in enumerate(m.rows()):
        run, snap = m.provenance[i] if m.provenance else ("", i)
        lines.append(",".join((str(run), str(snap), *row)))
    return "\n".join(lines) + "\n"


def matrix_from_csv(text: str, af_hash: str = "") -> EvalMatrix:
    lines = [(no, ln) for no, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise MatrixError("empty matrix document")
    header = lines[0][1].split(",")
    if header[:2] != ["#run", "#snapshot"]:
        raise MatrixError("matrix CSV must start with #run,#snapshot columns")
    ids = tuple(header[2:])
    width = len(ids)
    rows: list[str] = []
    prov: list[tuple[str, int]] = []
    for no, ln in lines[1:]:
        fields = ln.count(",") + 1
        if fields != width + 2:
            raise MatrixError(f"line {no}: expected {width + 2} fields, "
                              f"found {fields}")
        run, _, rest = ln.partition(",")
        snap, _, cells = rest.partition(",")
        # ASCII digits, as matrix_to_csv writes: no sign, space, '_' or other
        # script's digits.
        if not (snap.isascii() and snap.isdigit()):
            raise MatrixError(f"line {no}: #snapshot {snap!r} is not an integer")
        prov.append((run, int(snap)))
        # With one letter per cell the letters sit at the even offsets; any
        # other layout has the wrong length or puts a comma there, which
        # _encode marks bad.
        if len(cells) != max(2 * width - 1, 0):
            raise _bad_cell(no, ln)
        rows.append(cells[::2])
    codes = _encode(rows, width)
    bad = _first_bad_row(codes)
    if bad is not None:
        raise _bad_cell(*lines[1 + bad])
    return EvalMatrix(ids, codes, tuple(prov), af_hash)


def _bad_cell(no: int, line: str) -> MatrixError:
    bad = next(c for c in line.split(",")[2:] if c not in LETTERS)
    return MatrixError(f"line {no}: invalid cell value {bad!r}")
