"""The four workloads: their inputs, CLI command chains and output checks.

Each workload puts a different layer on top, so that an optimisation of one
layer has a workload that exercises it and others that bypass it:

* ``pipeline``: every subcommand in order over one corpus; trace loading
  (four full reads) dominates, with bursts, a reconstruction file and reports
  written beside it.
* ``sweep``: one load, then every grid cell re-abstracts every segment;
  abstraction dominates, model acceptance comes second.
* ``probe-mining``: few snapshots, each evaluating some 360 extracted
  probes, so abstraction dominates the other way round from ``sweep``: few
  calls, many probes per call.  The only workload with real symbolic
  execution and a wide real-derived filter input.
* ``filter-wide``: the greedy redundancy loop on a wide matrix, no trace read.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import burstmine

from perfbench import checks, inputs

PIPELINE_RUNS = 120
SWEEP_RUNS = 120
SWEEP_GRID = {"probabilities": ("0.1", "0.5"), "run_counts": ("30", "120"),
              "seeds": ("0", "1")}
PROBE_RUNS = 30
PROBE_METHODS = 45
WIDE_SHAPE = {"n_rows": 2400, "n_patterns": 1200, "n_cols": 120}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str
    # (seed) -> ({file name: text}, facts)
    make_inputs: Callable[[int], tuple[dict, dict]]
    # (inputs dir, output dir, seed) -> argv makers, called just before each
    # command so that an argument can depend on an earlier command's output
    chain: Callable[[Path, Path, int], list]
    # (inputs dir, output dir, input facts) -> artefact facts, incl. "work"
    check: Callable[[Path, Path, dict], dict]


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _argv(*parts) -> Callable[[], list[str]]:
    return lambda: [str(p) for p in parts]


# --- pipeline -----------------------------------------------------------------


def _pipeline_inputs(seed: int) -> tuple[dict, dict]:
    corpus, facts = inputs.editor_corpus(PIPELINE_RUNS, seed)
    cart = Path(burstmine.__file__).parent / "data" / "cart.mir"
    return ({"corpus.jsonl": corpus, "afs.json": inputs.editor_afs(),
             "cart.mir": _read(cart)}, facts)


def _pipeline_chain(i: Path, o: Path, seed: int) -> list:
    corpus, kept = i / "corpus.jsonl", o / "kept.json"

    def simulate() -> list[str]:
        start = checks.first_start_state(_read(o / "fsm.json"))
        return ["simulate", "--fsm", str(o / "fsm.json"), "--start", start,
                "--out", str(o / "reconstructions.json")]

    return [
        _argv("extract", "--program", i / "cart.mir", "--targets", "Cart",
              "--out", o / "cart_afs.json"),
        _argv("profile", "--traces", corpus, "--afs", i / "afs.json",
              "--out", o / "matrix.csv"),
        _argv("filter", "--matrix", o / "matrix.csv", "--afs", i / "afs.json",
              "--out-kept", kept, "--out-report", o / "filter_report.json"),
        _argv("collect", "--traces", corpus, "--afs", kept, "--mode", "cbr",
              "--probability", "0.3", "--seed", seed,
              "--out", o / "bursts.jsonl"),
        _argv("collect", "--traces", corpus, "--mode", "fixed_length",
              "--probability", "0.1", "--seed", seed,
              "--out", o / "baseline.jsonl"),
        _argv("synthesize", "--bursts", o / "bursts.jsonl",
              "--out", o / "fsm.json", "--dot", o / "fsm.dot"),
        simulate,
        _argv("evaluate", "--fsm", o / "fsm.json", "--traces", corpus,
              "--afs", kept, "--out-dir", o),
    ]


def _pipeline_check(i: Path, o: Path, facts: dict) -> dict:
    n_probes = len(checks.af_ids(_read(i / "afs.json")))
    checks.check_matrix(_read(o / "matrix.csv"), facts["segments"], n_probes)
    found = checks.check_filter(_read(o / "matrix.csv"), _read(o / "kept.json"),
                                _read(o / "filter_report.json"))
    found.update(checks.check_fsm_roundtrip(_read(o / "fsm.json")))
    checks.check_reconstructions(_read(o / "reconstructions.json"),
                                 checks.first_start_state(_read(o / "fsm.json")))
    checks.check_recall(_read(o / "recall.json"))
    checks.check_precision(_read(o / "precision.json"))
    found["work"] = facts["events"]
    return found


# --- sweep --------------------------------------------------------------------


def _sweep_inputs(seed: int) -> tuple[dict, dict]:
    corpus, facts = inputs.editor_corpus(SWEEP_RUNS, seed)
    return {"corpus.jsonl": corpus, "afs.json": inputs.editor_afs()}, facts


def _sweep_chain(i: Path, o: Path, seed: int) -> list:
    return [_argv("sweep", "--traces", i / "corpus.jsonl", "--afs", i / "afs.json",
                  "--probabilities", ",".join(SWEEP_GRID["probabilities"]),
                  "--run-counts", ",".join(SWEEP_GRID["run_counts"]),
                  "--sweep-seeds", ",".join(SWEEP_GRID["seeds"]),
                  "--out", o / "sweep.csv")]


def _sweep_check(i: Path, o: Path, facts: dict) -> dict:
    cells = checks.check_sweep(_read(o / "sweep.csv"),
                               SWEEP_GRID["probabilities"],
                               SWEEP_GRID["run_counts"], SWEEP_GRID["seeds"])
    return {"sweep_cells": cells, "work": facts["events"]}


# --- probe-mining ---------------------------------------------------------------


def _probe_inputs(seed: int) -> tuple[dict, dict]:
    corpus, facts = inputs.editor_corpus(PROBE_RUNS, seed)
    return ({"corpus.jsonl": corpus,
             "editor.mir": inputs.editor_program(PROBE_METHODS, seed)}, facts)


def _probe_chain(i: Path, o: Path, seed: int) -> list:
    return [
        _argv("extract", "--program", i / "editor.mir", "--targets", "Editor",
              "--out", o / "afs.json"),
        _argv("profile", "--traces", i / "corpus.jsonl", "--afs", o / "afs.json",
              "--out", o / "matrix.csv"),
        _argv("filter", "--matrix", o / "matrix.csv", "--afs", o / "afs.json",
              "--out-kept", o / "kept.json",
              "--out-report", o / "filter_report.json"),
    ]


def _probe_check(i: Path, o: Path, facts: dict) -> dict:
    n_probes = len(checks.af_ids(_read(o / "afs.json")))
    checks.check_matrix(_read(o / "matrix.csv"), facts["segments"], n_probes)
    found = checks.check_filter(_read(o / "matrix.csv"), _read(o / "kept.json"),
                                _read(o / "filter_report.json"))
    found["work"] = n_probes * facts["segments"]
    return found


# --- filter-wide ------------------------------------------------------------------


def _wide_inputs(seed: int) -> tuple[dict, dict]:
    matrix, afs, facts = inputs.wide_matrix(seed=seed, **WIDE_SHAPE)
    return {"wide.csv": matrix, "wide_afs.json": afs}, facts


def _wide_chain(i: Path, o: Path, seed: int) -> list:
    return [_argv("filter", "--matrix", i / "wide.csv", "--afs", i / "wide_afs.json",
                  "--out-kept", o / "kept.json",
                  "--out-report", o / "filter_report.json")]


def _wide_check(i: Path, o: Path, facts: dict) -> dict:
    found = checks.check_filter(_read(i / "wide.csv"), _read(o / "kept.json"),
                                _read(o / "filter_report.json"))
    found["work"] = facts["cells"]
    return found


WORKLOADS = {w.name: w for w in (
    Workload("pipeline",
             f"every subcommand in order on a {PIPELINE_RUNS}-run corpus; "
             "trace loading (four reads) dominates",
             "events", _pipeline_inputs, _pipeline_chain, _pipeline_check),
    Workload("sweep",
             f"2x2x2 sweep on a {SWEEP_RUNS}-run corpus; every cell "
             "re-abstracts every segment, so abstract_state dominates",
             "events", _sweep_inputs, _sweep_chain, _sweep_check),
    Workload("probe-mining",
             f"extract, profile and filter ~{8 * PROBE_METHODS} probes from a "
             f"generated Editor program on a {PROBE_RUNS}-run corpus; many "
             "probes per abstraction call",
             "evals", _probe_inputs, _probe_chain, _probe_check),
    Workload("filter-wide",
             "filter a {n_rows}x{n_cols} matrix of {n_patterns} distinct rows; "
             "the greedy redundancy loop dominates and no trace is read"
             .format(**WIDE_SHAPE),
             "cells", _wide_inputs, _wide_chain, _wide_check),
)}
