"""Evaluation-matrix filtering: reduce an abstraction-function set to a
minimal state-distinguishing subset.

Training evaluations form a matrix (rows = ternary snapshots, columns =
functions).  Four rules shrink it, in this fixed order:

1. duplicate rows dropped (first occurrence kept),
2. non-discriminating (constant) columns dropped,
3. equivalent (identical) columns collapsed to the leftmost,
4. redundant columns dropped greedily left-to-right in one pass, as long as
   the surviving projection still distinguishes all rows.  The kept set only
   shrinks, and a column that cannot leave a set cannot leave a subset of it,
   so a second pass would drop nothing.

The rules never lose distinguishability: the number of distinct rows of the
kept projection equals the number of distinct rows after deduplication.
Greedy removal yields a locally minimal set, not a global minimum cover.

An ``EvalMatrix`` holds its cells as one T/F/U string per row, as
``states.abstract_state`` returns them.  The rules work on those strings: a
dict of first occurrences for rows, stride slices of the joined row text
(``text[j::n_cols]``) for columns, and for each greedy trial one strided
``del`` over the rows' joined bytes and a set of the rows left.
The CSV is read by byte line through ``schema.Lines``, as traces are.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .schema import LETTERS, Lines


class MatrixError(ValueError):
    pass


@dataclass(frozen=True)
class EvalMatrix:
    """Rows of ternary cells with parallel column ids and row provenance."""

    column_ids: tuple[str, ...]
    cells: tuple[str, ...]  # one T/F/U string per row
    provenance: tuple[tuple[str, int], ...] = ()
    af_hash: str = ""

    def __post_init__(self) -> None:
        width = len(self.column_ids)
        bad = _bad_row(self.cells, width)
        if bad is not None:
            row = self.cells[bad]
            if len(row) != width:
                raise MatrixError(f"row {bad} has {len(row)} cells, "
                                  f"expected {width}")
            raise MatrixError(f"row {bad}: invalid cell value "
                              f"{next(c for c in row if c not in LETTERS)!r}")
        if self.provenance and len(self.provenance) != len(self.cells):
            raise MatrixError("provenance does not match row count")
        if len(set(self.column_ids)) != width:
            raise MatrixError("column ids must be unique")

    @property
    def n_rows(self) -> int:
        return len(self.cells)

    @property
    def n_cols(self) -> int:
        return len(self.column_ids)

    def rows(self) -> list[str]:
        return list(self.cells)

    def distinct_row_count(self) -> int:
        return len(set(self.cells))

    @staticmethod
    def from_rows(column_ids, rows, provenance=(), af_hash: str = "") -> "EvalMatrix":
        return EvalMatrix(tuple(column_ids), tuple(rows), tuple(provenance), af_hash)


def _bad_row(rows, width: int) -> int | None:
    """Index of the first row that is not ``width`` T/F/U letters, if any.
    The letters of all rows are checked in one pass over their joined text."""
    letters = "".join(LETTERS)
    text = "".join(rows).encode("ascii", "replace")
    if set(map(len, rows)) <= {width} and not text.translate(None, letters.encode()):
        return None
    return next(i for i, row in enumerate(rows)
                if len(row) != width or row.strip(letters))


@dataclass
class FilterReport:
    counts: dict = field(default_factory=lambda: {
        "duplicated_rows": 0, "non_discriminating": 0,
        "equivalent": 0, "redundant": 0})
    kept_column_ids: tuple[str, ...] = ()
    log: list = field(default_factory=list)  # {"rule", "id", "pass"}
    initial_columns: int = 0

    def record(self, rule: str, ident: str) -> None:
        key = {"duplicate-row": "duplicated_rows",
               "non-discriminating": "non_discriminating",
               "equivalent": "equivalent",
               "redundant": "redundant"}[rule]
        self.counts[key] += 1
        self.log.append({"rule": rule, "id": ident, "pass": 1})

    def to_json(self) -> str:
        """``json.dumps`` at ``indent=2`` of the document ``{"initial_columns",
        "kept", "removed_counts", "log"}``, laid out here: the log shares no
        values, and ``schema.JsonText`` took 1.8 times as long on the 1,305
        entries of the ``filter-wide`` benchmark's log.  Counts are ints."""
        dumps = json.dumps
        counts = [f"{dumps(k)}: {v:d}" for k, v in self.counts.items()]
        log = [f'{{\n      "rule": {dumps(e["rule"])},\n      "id": {dumps(e["id"])}'
               f',\n      "pass": {e["pass"]:d}\n    }}' for e in self.log]
        return (f'{{\n  "initial_columns": {self.initial_columns:d},\n'
                f'  "kept": {_items(map(dumps, self.kept_column_ids), "[]")},\n'
                f'  "removed_counts": {_items(counts, "{}")},\n'
                f'  "log": {_items(log, "[]")}\n}}')


def _items(texts, brackets: str) -> str:
    """Item texts as ``json.dumps`` lays out a list or object one level deep
    at ``indent=2``."""
    body = ",\n    ".join(texts)
    return f"{brackets[0]}\n    {body}\n  {brackets[1]}" if body else brackets


def remove_duplicate_rows(m: EvalMatrix, report: FilterReport | None = None,
                          ) -> EvalMatrix:
    first: dict[str, int] = {}
    for i, row in enumerate(m.cells):
        if row not in first:
            first[row] = i
        elif report is not None:
            prov = m.provenance[i] if m.provenance else ("row", i)
            report.record("duplicate-row", f"{prov[0]}:{prov[1]}")
    prov = tuple(m.provenance[i] for i in first.values()) if m.provenance else ()
    return EvalMatrix(m.column_ids, tuple(first), prov, m.af_hash)


def remove_nondiscriminating_columns(m: EvalMatrix,
                                     report: FilterReport | None = None,
                                     ) -> EvalMatrix:
    if m.n_rows == 0:
        return m
    columns = _columns(m)
    keep: list[int] = []
    for j, column in enumerate(columns):
        if column == column[0] * m.n_rows:
            if report is not None:
                report.record("non-discriminating", m.column_ids[j])
        else:
            keep.append(j)
    return _project(m, columns, keep)


def remove_equivalent_columns(m: EvalMatrix, report: FilterReport | None = None,
                              ) -> EvalMatrix:
    columns = _columns(m)
    first: dict[str, int] = {}
    for j, column in enumerate(columns):
        if column not in first:
            first[column] = j
        elif report is not None:
            report.record("equivalent", m.column_ids[j])
    return _project(m, columns, list(first.values()))


def remove_redundant_columns(m: EvalMatrix, report: FilterReport | None = None,
                             ) -> EvalMatrix:
    if m.distinct_row_count() != m.n_rows:
        raise MatrixError("redundancy removal requires pairwise-distinct rows "
                          "(run duplicate-row removal first)")
    # The rows as one ASCII buffer; a trial drops the column at ``p`` from
    # every row with one strided ``del`` (rows are ``len(keep) + 1`` apart).
    text, keep, p = "\n".join(m.cells).encode("ascii"), list(m.column_ids), 0
    for ident in m.column_ids:
        buf = bytearray(text)
        del buf[p::len(keep) + 1]
        trial = bytes(buf)
        # With no rows every column goes: b"".split(b"\n") is one empty row.
        if not m.n_rows or len(set(trial.split(b"\n"))) == m.n_rows:
            text = trial
            del keep[p]
            if report is not None:
                report.record("redundant", ident)
        else:
            p += 1
    rows = text.decode("ascii").split("\n") if m.n_rows else ()
    return EvalMatrix(tuple(keep), tuple(rows), m.provenance, m.af_hash)


def filter_functions(m: EvalMatrix) -> tuple[EvalMatrix, FilterReport]:
    """The four rules in order, with per-rule removal counts."""
    report = FilterReport(initial_columns=m.n_cols)
    out = remove_duplicate_rows(m, report)
    out = remove_nondiscriminating_columns(out, report)
    out = remove_equivalent_columns(out, report)
    out = remove_redundant_columns(out, report)
    report.kept_column_ids = out.column_ids
    return out, report


def _columns(m: EvalMatrix) -> list[str]:
    text = "".join(m.cells)
    return [text[j::m.n_cols] for j in range(m.n_cols)]


def _project(m: EvalMatrix, columns: list[str], keep: list[int]) -> EvalMatrix:
    """The matrix of the kept columns; its rows are stride slices of the
    joined column text, as the columns are of the joined row text."""
    text, n_rows = "".join(columns[j] for j in keep), m.n_rows
    rows = tuple(text[i::n_rows] for i in range(n_rows))
    return EvalMatrix(tuple(m.column_ids[j] for j in keep), rows,
                      m.provenance, m.af_hash)


# ---------------------------------------------------------------------------
# CSV wire format: provenance columns prefixed with '#', cells T/F/U.
# ---------------------------------------------------------------------------


def matrix_to_csv(m: EvalMatrix) -> str:
    names = [("run", run) for run in dict.fromkeys(str(run) for run, _ in m.provenance)]
    for what, name in names + [("AF id", af) for af in m.column_ids]:
        if "," in name or "\n" in name or "\r" in name:
            raise MatrixError(f"{what} {name!r} holds ',', '\\n' or '\\r', "
                              "which a matrix CSV field cannot hold")
    lines = [",".join(("#run", "#snapshot") + m.column_ids)]
    for i, row in enumerate(m.rows()):
        run, snap = m.provenance[i] if m.provenance else ("", i)
        lines.append(",".join((str(run), str(snap), *row)))
    return "\n".join(lines) + "\n"


def matrix_from_csv(source) -> EvalMatrix:
    """Read a matrix CSV from the file open in binary, or from its text, by
    the record rule of ``schema.Lines``; errors name the line."""
    lines = Lines(source, lambda message, no: MatrixError(f"line {no}: {message}"))
    first = lines.first()
    if first is None:
        raise MatrixError("empty matrix document")
    header = first[1].split(",")
    if header[:2] != ["#run", "#snapshot"]:
        raise MatrixError("matrix CSV must start with #run,#snapshot columns")
    ids = tuple(header[2:])
    width = len(ids)
    rows: list[str] = []
    written: list[tuple[int, str]] = []  # each row's line and cells, as written
    prov: list[tuple[str, int]] = []
    text_of = lines.text
    for no, line in lines:
        ln = text_of(line, no)
        if not ln:
            continue
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
        # the constructor's check finds.
        if len(cells) != max(2 * width - 1, 0):
            raise _bad_cell(no, cells)
        rows.append(cells[::2])
        written.append((no, cells))
    try:
        return EvalMatrix(ids, tuple(rows), tuple(prov))
    except MatrixError:
        # Only a failed check looks for the line to name.
        bad = _bad_row(rows, width)
        if bad is None:
            raise
        raise _bad_cell(*written[bad]) from None


def _bad_cell(no: int, cells: str) -> MatrixError:
    bad = next(c for c in cells.split(",") if c not in LETTERS)
    return MatrixError(f"line {no}: invalid cell value {bad!r}")
