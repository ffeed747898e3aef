"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives the same
bytes.  Seeds 0 to 99 are for tuning and routine runs; ``HELD_OUT_SEED`` is
kept back so that a later performance claim can be confirmed on an input
nobody tuned against.
"""

from __future__ import annotations

import random

from burstmine.collect import Run, dumps_runs
from burstmine.functions import AbstractionFunction, dump_af_list
from burstmine.synthetic import (editor_abstraction_functions,
                                 generate_editor_runs)

HELD_OUT_SEED = 9001
# Generated runs have 12 to 18 operations; cutting every run to the minimum
# fixes the snapshot count per corpus, so that the work of a workload does
# not vary with the seed.
SEGMENTS_PER_RUN = 12

EDITOR_FIELDS = (("isOpen", "bool"), ("dirty", "bool"),
                 ("nEdits", "int"), ("lines", "int"))
_INT_OPS = ("<", "<=", ">", ">=", "==", "!=")


def editor_corpus(n_runs: int, seed: int) -> tuple[str, dict]:
    """Trace file text for ``n_runs`` seeded editor runs of
    ``SEGMENTS_PER_RUN`` operations each, plus its sizes.

    The runs start from a closed editor, so every corpus holds snapshots
    without an ``Editor`` root, on which every probe evaluates unknown.
    """
    runs = [Run(r.run_id, r.segments[:SEGMENTS_PER_RUN])
            for r in generate_editor_runs(n_runs, master_seed=seed)]
    facts = {"runs": len(runs),
             "segments": sum(len(r.segments) for r in runs),
             "events": sum(r.total_events for r in runs)}
    return dumps_runs(runs), facts


def editor_afs() -> str:
    """The editor subject's six hand-written probes as an AF-list document."""
    return dump_af_list(editor_abstraction_functions())


def editor_program(n_methods: int, seed: int) -> str:
    """A mini-IR ``Editor`` class whose methods each branch on three
    different fields in sequence, so each method has eight paths and yields
    eight three-clause probes."""
    rng = random.Random(f"editor-program:{seed}")
    lines = ["class Editor {"]
    lines += [f"  field {name}: {kind};" for name, kind in EDITOR_FIELDS]
    for m in range(n_methods):
        lines.append(f"  method op{m}() {{")
        for name, kind in rng.sample(EDITOR_FIELDS, 3):
            if kind == "bool":
                guard = f"Editor.{name} == {rng.choice(('true', 'false'))}"
            else:
                guard = (f"Editor.{name} {rng.choice(_INT_OPS)} "
                         f"{rng.randrange(10)}")
            lines.append(f"    if ({guard}) {{")
            lines.append(f"      Editor.nEdits = Editor.nEdits + {m % 3 + 1};")
            lines.append("    }")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


WIDE_CONSTANT_COLUMNS = 4
WIDE_COPIED_COLUMNS = 8


def wide_matrix(n_rows: int, n_patterns: int, n_cols: int, seed: int,
                ) -> tuple[str, str, dict]:
    """An evaluation-matrix CSV and its matching AF-list document.

    ``n_rows`` rows are drawn from ``n_patterns`` distinct row patterns (every
    pattern at least once), so the duplicate-row rule fires.  Of the columns,
    ``WIDE_CONSTANT_COLUMNS`` hold one value throughout and
    ``WIDE_COPIED_COLUMNS`` copy an earlier column, so the constant and
    equivalent rules fire; the rest are independent ternary columns, most of
    which the redundancy rule drops.
    """
    rng = random.Random(f"wide-matrix:{seed}")
    n_free = n_cols - WIDE_CONSTANT_COLUMNS - WIDE_COPIED_COLUMNS
    weights = [(rng.uniform(1, 4), rng.uniform(1, 4), rng.uniform(0.2, 1))
               for _ in range(n_free)]
    patterns: list[str] = []
    seen: set[str] = set()
    while len(patterns) < n_patterns:
        row = "".join(rng.choices("TFU", w)[0] for w in weights)
        if row not in seen:
            seen.add(row)
            patterns.append(row)
    rows = patterns + [rng.choice(patterns) for _ in range(n_rows - n_patterns)]
    rng.shuffle(rows)

    # Column layout: free columns, with the constant and copied columns
    # inserted at seeded positions.
    sources: list[object] = list(range(n_free))
    for _ in range(WIDE_CONSTANT_COLUMNS):
        sources.insert(rng.randrange(len(sources) + 1), rng.choice("TFU"))
    for _ in range(WIDE_COPIED_COLUMNS):
        original = rng.randrange(n_free)
        pos = rng.randrange(sources.index(original) + 1, len(sources) + 1)
        sources.insert(pos, ("copy", original))
    ids = [f"Wide.c{j}-F1" for j in range(n_cols)]

    def cell(row: str, source) -> str:
        if isinstance(source, str):
            return source
        if isinstance(source, tuple):
            return row[source[1]]
        return row[source]

    lines = [",".join(["#run", "#snapshot"] + ids)]
    for i, row in enumerate(rows):
        cells = [cell(row, s) for s in sources]
        lines.append(",".join([f"r{i // 50:03d}", str(i % 50)] + cells))
    matrix_csv = "\n".join(lines) + "\n"

    afs = [AbstractionFunction.from_dict({
        "id": ident, "class": "Wide", "method": f"c{j}",
        "clauses": [{"lhs": f"Wide.c{j}", "op": ">", "rhs": str(j % 5)}],
    }) for j, ident in enumerate(ids)]
    facts = {"rows": n_rows, "columns": n_cols, "cells": n_rows * n_cols}
    return matrix_csv, dump_af_list(afs, {"generated": "wide-matrix"}), facts
