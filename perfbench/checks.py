"""Output checks that hold for any correct implementation.

None of them compares against a digest recorded from one commit, so a change
that legitimately alters artefact bytes (a new hash format, say) still
passes; what they check are the pipeline's documented guarantees, recomputed
from the artefacts with plain Python.  Each check raises ``CheckError`` or
returns the counts it read, which the traced run reports.
"""

from __future__ import annotations

import csv
import io
import json

from burstmine import model


class CheckError(Exception):
    pass


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _fraction(value, what: str) -> None:
    _require(isinstance(value, (int, float)) and 0.0 <= value <= 1.0,
             f"{what} {value!r} is not in [0, 1]")


def parse_matrix(text: str) -> tuple[list[str], list[tuple[str, ...]]]:
    """Column ids and cell rows of an evaluation-matrix CSV."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    _require(bool(lines), "matrix is empty")
    header = lines[0].split(",")
    _require(header[:2] == ["#run", "#snapshot"], "matrix header lacks provenance")
    rows = [tuple(ln.split(",")[2:]) for ln in lines[1:]]
    _require(all(len(r) == len(header) - 2 for r in rows), "ragged matrix rows")
    _require(all(c in ("T", "F", "U") for r in rows for c in r),
             "matrix cell outside T/F/U")
    return header[2:], rows


def check_matrix(text: str, n_snapshots: int, n_probes: int) -> None:
    """A profile matrix has one row per snapshot and one column per probe."""
    ids, rows = parse_matrix(text)
    _require(len(rows) == n_snapshots,
             f"matrix has {len(rows)} rows for {n_snapshots} snapshots")
    _require(len(ids) == n_probes,
             f"matrix has {len(ids)} columns for {n_probes} probes")


def af_ids(text: str) -> list[str]:
    return [f["id"] for f in json.loads(text)["functions"]]


def check_filter(matrix_text: str, kept_text: str, report_text: str) -> dict:
    """The kept probes distinguish exactly as many rows as all probes do."""
    ids, rows = parse_matrix(matrix_text)
    kept = af_ids(kept_text)
    _require(len(set(kept)) == len(kept), "kept list repeats a probe")
    unknown = sorted(set(kept) - set(ids))
    _require(not unknown, f"kept probes not in the matrix: {unknown}")
    cols = [ids.index(k) for k in kept]
    distinct = len(set(rows))
    projected = len({tuple(r[c] for c in cols) for r in rows})
    _require(projected == distinct,
             f"kept probes distinguish {projected} of {distinct} distinct rows")
    log = json.loads(report_text).get("log", [])
    passes = [e.get("pass", 1) for e in log if e.get("rule") == "redundant"]
    return {"rows_in": len(rows), "distinct_rows": distinct,
            "columns_in": len(ids), "columns_kept": len(kept),
            "redundant_passes": max(passes, default=0) + 1}


def check_recall(text: str) -> None:
    doc = json.loads(text)
    _require(bool(doc["runs"]), "recall report has no runs")
    for r in doc["runs"]:
        _require(0 <= r["captured_events"] <= r["total_events"],
                 f"run {r['run']} captured {r['captured_events']} of "
                 f"{r['total_events']} events")
        _fraction(r["recall"], f"recall of run {r['run']}")
    _fraction(doc["mean_recall"], "mean recall")


def check_precision(text: str) -> None:
    doc = json.loads(text)
    for n in doc["nodes"]:
        _require(0 <= n["correct_sequences"] <= n["total_sequences"],
                 f"node {n['state']} has more correct than total sequences")
        _fraction(n["precision"], f"precision of node {n['state']}")
    if doc["overall"] is not None:
        _fraction(doc["overall"], "overall precision")


def check_sweep(text: str, probabilities, run_counts, seeds) -> int:
    """Exactly one row per grid cell, every figure a fraction."""
    rows = list(csv.DictReader(io.StringIO(text)))
    cells = [(float(r["p"]), int(r["n_runs"]), int(r["seed"])) for r in rows]
    grid = [(float(p), int(n), int(s))
            for p in probabilities for n in run_counts for s in seeds]
    _require(sorted(cells) == sorted(grid),
             f"sweep has {len(cells)} rows for a {len(grid)}-cell grid")
    for r in rows:
        if r["overall_precision"]:
            _fraction(float(r["overall_precision"]), "sweep precision")
        _fraction(float(r["mean_recall"]), "sweep recall")
    return len(rows)


def check_fsm_roundtrip(text: str) -> dict:
    """Importing and re-exporting the model gives back the same text."""
    again = model.export_fsm(model.import_fsm(text), "json")
    _require(again == text, "fsm.json does not round-trip through import/export")
    doc = json.loads(text)
    return {"states": len(doc["states"]), "transitions": len(doc["transitions"])}


def first_start_state(fsm_text: str) -> str:
    """The sorted-first state with an outgoing transition: a start state that
    exists whatever the sampling happened to record."""
    sources = [t["from"] for t in json.loads(fsm_text)["transitions"]]
    _require(bool(sources), "model has no transitions to simulate from")
    return min(sources)


def check_reconstructions(text: str, start: str) -> None:
    doc = json.loads(text)
    _require(bool(doc), "no reconstructed traces")
    _require(all(t["start"] == start for t in doc),
             "reconstruction does not begin at the requested start state")
