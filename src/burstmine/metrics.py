"""Precision and recall of synthesized models against original full runs.

Node precision asks whether the length-2 action sequences a model node
permits were ever observed: for a node, every (incoming, outgoing)
transition pair contributes one candidate sequence, and a candidate counts
as correct when some original run contains those two operation labels
consecutively with the node as the intermediate abstract state.  The overall
figure is the plain mean over nodes that have both incoming and outgoing
transitions; the rest are reported as excluded rather than scored.

Trace recall is the fraction of an original run's method-call events covered
by what a technique captured: the accepted prefix for synthesized models,
the total sampled events for the fixed-length baseline.  Sampling baselines
are never scored for precision (they record verbatim, so it is 1 by
definition).

``_score`` scores a model, for ``evaluate`` and every ``run_sweep`` cell,
against the original runs read as bursts, one per segment, from one
``collect.collect`` call over all runs, so each distinct state object is
abstracted once; ``evaluate`` shares them between precision and recall, and
``run_sweep`` between all of its grid cells.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field
from itertools import islice

from .collect import (Burst, Run, SamplerConfig, collect,
                      collect_fixed_sampling, draw)
from .functions import AbstractionFunction, af_list_hash
from .model import AnnotatedFSM, ModelError, accepts_prefix, synthesize


@dataclass(frozen=True)
class NodeScore:
    state: str
    correct: int
    total: int

    @property
    def precision(self) -> float:
        return self.correct / self.total


@dataclass
class PrecisionReport:
    per_node: list = field(default_factory=list)  # NodeScore, node-sorted
    excluded: int = 0
    overall: float | None = None

    def to_json(self) -> str:
        return json.dumps({
            "overall": self.overall,
            "excluded_nodes": self.excluded,
            "nodes": [{"state": n.state, "correct_sequences": n.correct,
                       "total_sequences": n.total, "precision": n.precision}
                      for n in self.per_node],
        }, indent=2)

    def to_csv(self) -> str:
        return _csv("state,correct_sequences,total_sequences,precision",
                    [(n.state, n.correct, n.total, f"{n.precision:.6f}")
                     for n in self.per_node])


@dataclass
class RecallReport:
    per_run: list = field(default_factory=list)  # (run_id, captured, total, recall)
    mean_recall: float | None = None

    def to_json(self) -> str:
        return json.dumps({
            "mean_recall": self.mean_recall,
            "runs": [{"run": r, "captured_events": e, "total_events": eo,
                      "recall": rec} for r, e, eo, rec in self.per_run],
        }, indent=2)

    def to_csv(self) -> str:
        return _csv("run,captured_events,total_events,recall",
                    [(r, e, eo, f"{rec:.6f}") for r, e, eo, rec in self.per_run])


def _csv(header: str, rows) -> str:
    """``header`` and one line per row.  A field holding ',', '"' or a line
    break is double-quoted with each '"' doubled (RFC 4180); ``csv.writer``
    leaves a lone carriage return unquoted."""
    def quote(value) -> str:
        text = str(value)
        return '"%s"' % text.replace('"', '""') if set(text) & set(',"\n\r') else text
    lines = [header] + [",".join(map(quote, row)) for row in rows]
    return "\n".join(lines) + "\n"


def _abstract(fsm: AnnotatedFSM, runs: list[Run],
              afs: list[AbstractionFunction]) -> list[list[Burst]]:
    """Each run as its bursts; the AF list must be the one ``fsm`` was
    built with."""
    af_hash = af_list_hash(afs)
    if fsm.af_hash and af_hash != fsm.af_hash:
        raise ModelError("AF list does not match the model's AF ordering")
    return _bursts(runs, afs, af_hash)


def _bursts(runs: list[Run], afs: list[AbstractionFunction],
            af_hash: str) -> list[list[Burst]]:
    """Each run as its bursts, from one ``collect`` call over all segments,
    so a state the runs share is abstracted once."""
    bursts = iter(collect([seg for run in runs for seg in run.segments],
                          afs, af_hash))
    return [list(islice(bursts, len(run.segments))) for run in runs]


def _witnesses(abstracted: list[list[Burst]]) -> set[tuple[str, str, str]]:
    """(label A, label B, intermediate abstract state) triples observed as
    consecutive operations in the original runs."""
    return {(a.label, b.label, a.post)
            for bursts in abstracted for a, b in zip(bursts, bursts[1:])}


def _node_score(fsm: AnnotatedFSM, node: str, witnesses) -> tuple[int, int]:
    into = [label for label, _, to in fsm.transitions if to == node]
    out = [label for label, frm, _ in fsm.transitions if frm == node]
    correct = sum((a, b, node) in witnesses for a in into for b in out)
    return correct, len(into) * len(out)


def node_precision(fsm: AnnotatedFSM, node, originals: list[Run],
                   afs: list[AbstractionFunction]) -> tuple[int, int]:
    """(correct, total) length-2 sequence counts through ``node``.

    Total is |distinct incoming (label, source)| x |distinct outgoing
    (label, target)| pairs; self-loops appear on both sides.
    """
    node = str(node)
    if node not in fsm.states:
        raise ModelError(f"unknown node {node!r}")
    return _node_score(fsm, node, _witnesses(_abstract(fsm, originals, afs)))


def trace_recall(captured_events: int, original: Run) -> float:
    total = original.total_events
    if captured_events > total:
        raise ValueError("captured more events than the original contains")
    if total == 0:
        return 0.0
    return captured_events / total


def _mean(values) -> float:
    """``statistics.mean`` of finite floats: their exact mean, correctly
    rounded.  Each float is a numerator over a power of two, so the sum is
    one integer over the largest of those, divided once."""
    ratios = [x.as_integer_ratio() for x in values]
    denominator = max(d for _, d in ratios)
    total = sum(n * (denominator // d) for n, d in ratios)
    return total / (denominator * len(ratios))


def _recall_report(runs: list[Run], captured_events: list[int]) -> RecallReport:
    """Per-run recall, with ``captured_events[i]`` captured from ``runs[i]``."""
    report = RecallReport()
    for run, captured in zip(runs, captured_events):
        report.per_run.append(
            (run.run_id, captured, run.total_events, trace_recall(captured, run)))
    if report.per_run:
        report.mean_recall = _mean(r for *_, r in report.per_run)
    return report


def _score(fsm: AnnotatedFSM, runs: list[Run], abstracted: list[list[Burst]],
           witnesses) -> tuple[PrecisionReport, RecallReport]:
    """The model's precision against ``witnesses`` and its recall over
    ``runs``, given as their bursts in ``abstracted``."""
    precision = PrecisionReport()
    for state in sorted(fsm.states):
        correct, total = _node_score(fsm, state, witnesses)
        if total == 0:
            precision.excluded += 1
        else:
            precision.per_node.append(NodeScore(state, correct, total))
    if precision.per_node:
        precision.overall = _mean(s.precision for s in precision.per_node)
    return precision, _recall_report(
        runs, [accepts_prefix(fsm, bursts) for bursts in abstracted])


def evaluate(fsm: AnnotatedFSM, runs: list[Run], afs: list[AbstractionFunction],
             ) -> tuple[PrecisionReport, RecallReport]:
    """Precision and recall against the same runs, abstracting each run once
    for both.  Overall precision is the mean node precision over nodes with
    both incoming and outgoing transitions; a model with no such node yields
    an absent overall, not zero."""
    abstracted = _abstract(fsm, runs, afs)
    return _score(fsm, runs, abstracted, _witnesses(abstracted))


def baseline_recall(runs: list[Run], cfg: SamplerConfig) -> RecallReport:
    """Fixed-length baseline recall: events captured from a run over its
    total, per run.  Sampled traces are attributed by run id, so the ids
    must be distinct."""
    captured: dict[str, int] = {}
    for run in runs:
        if run.run_id in captured:
            raise ValueError(f"run id {run.run_id!r} appears more than once; "
                             "baseline recall needs distinct run ids")
        captured[run.run_id] = 0
    for run_id, trace in collect_fixed_sampling(runs, cfg):
        captured[run_id] += len(trace)
    return _recall_report(runs, [captured[run.run_id] for run in runs])


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCell:
    probability: float
    n_runs: int
    seed: int
    overall_precision: float | None
    mean_recall: float


@dataclass
class SweepResult:
    probabilities: tuple[float, ...]
    n_runs_list: tuple[int, ...]
    seeds: tuple[int, ...]
    cells: list = field(default_factory=list)  # SweepCell, grid order

    def cell(self, p: float, n: int, seed: int) -> SweepCell:
        for c in self.cells:
            if c.probability == p and c.n_runs == n and c.seed == seed:
                return c
        raise KeyError((p, n, seed))

    def recalls(self, p: float, n: int) -> list[float]:
        return [c.mean_recall for c in self.cells
                if c.probability == p and c.n_runs == n]

    def aggregate(self, p: float, n: int) -> tuple[float, float]:
        """(mean, sample stddev) of mean recall across seeds."""
        values = self.recalls(p, n)
        mean = _mean(values)
        std = statistics.stdev(values) if len(values) > 1 else 0.0
        return mean, std

    def to_csv(self) -> str:
        return _csv("p,n_runs,seed,overall_precision,mean_recall", [(
            c.probability, c.n_runs, c.seed,
            "" if c.overall_precision is None else f"{c.overall_precision:.6f}",
            f"{c.mean_recall:.6f}") for c in self.cells])


def run_sweep(runs: list[Run], afs: list[AbstractionFunction],
              probabilities, n_runs_list, seeds) -> SweepResult:
    """Collect -> synthesize -> score for every (probability, n runs, seed)
    grid cell.  The first ``n`` runs are collected from; precision and recall
    are always measured against the full run set.  The runs are abstracted
    once for the whole grid; each cell only draws from their bursts."""
    probabilities = tuple(probabilities)
    n_runs_list = tuple(n_runs_list)
    seeds = tuple(seeds)
    if list(probabilities) != sorted(set(probabilities)):
        raise ValueError("probability axis must be strictly increasing")
    if list(n_runs_list) != sorted(set(n_runs_list)):
        raise ValueError("run-count axis must be strictly increasing")
    if len(set(seeds)) != len(seeds):
        raise ValueError("seed axis must not repeat a seed")
    if any(not 0 <= n <= len(runs) for n in n_runs_list):
        raise ValueError(f"run-count axis must lie in [0, {len(runs)}], the runs given")
    result = SweepResult(probabilities, n_runs_list, seeds)
    abstracted = _bursts(runs, afs, af_list_hash(afs))
    witnesses = _witnesses(abstracted)
    for p in probabilities:
        for n in n_runs_list:
            collected = [b for bursts in abstracted[:n] for b in bursts]
            for seed in seeds:
                cfg = SamplerConfig(probability=p, rng_seed=seed, mode="cbr")
                fsm = synthesize(draw(collected, cfg))
                precision, recall = _score(fsm, runs, abstracted, witnesses)
                result.cells.append(SweepCell(p, n, seed, precision.overall,
                                              recall.mean_recall or 0.0))
    return result
