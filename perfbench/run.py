"""Benchmark of the burstmine CLI: one workload, one seed, one process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pipeline --seed 0 --seconds 24 --trace 0

The workload's inputs are written by fresh interpreters (``make_inputs.py``)
several times; ``setup_s`` is the median of their import, generation and
write times.  The command chain is then driven through
``burstmine.cli.main(argv)`` in this process, as a closed loop with one
caller and no threads, repeating until ``--seconds`` have passed, with
``gc.collect()`` between repetitions and the collector left on while timing.
Every repetition's artefacts are checked (``checks.py``) and must be
byte-identical to the first repetition's.

``--trace 0`` reports the end-to-end metrics, with timings calibrated by the
reference workload timed before each repetition (``reference.py``).
``--trace 1`` spends half the time untraced and half with spans around every
cross-module call (``tracing.py``), and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5
MIN_REPS = 2
CLI_COMMANDS = ("extract", "profile", "filter", "collect", "synthesize",
                "simulate", "evaluate", "sweep")

# Timings are calibrated against the reference workload (reference.py).
END_TO_END = {"wall_cal_s": "s", "work_per_cal_s": "1/s", "setup_s": "s",
              "peak_rss_mb": "MB"}

# name -> unit.  Self times come from spans; counts from observers at the
# same call boundaries or from the artefacts.
PER_LAYER = {
    "collect.load_runs.self_s": "s",
    "collect.load_runs.calls": "count",
    "collect.trace_mb_read": "MB",
    "collect.collectors.self_s": "s",
    "collect.bursts_per_draw": "ratio",
    "collect.burst_io.self_s": "s",
    "states.abstract_state.calls": "count",
    "states.abstract_state.self_s": "s",
    "states.distinct_states": "count",
    "states.calls_per_state": "ratio",
    "states.probe_evals": "count",
    "functions.af_list_hash.calls": "count",
    "functions.af_list_hash.self_s": "s",
    "functions.load_af_list.self_s": "s",
    "model.accepts_prefix.calls": "count",
    "model.accepts_prefix.self_s": "s",
    "model.synthesize.self_s": "s",
    "model.simulate_traces.self_s": "s",
    "model.fsm_io.self_s": "s",
    "model.states": "count",
    "model.transitions": "count",
    "metrics.overall_precision.self_s": "s",
    "metrics.model_recall.self_s": "s",
    "metrics.run_sweep.self_s": "s",
    "metrics.sweep_cells": "count",
    "filtering.filter_functions.self_s": "s",
    "filtering.matrix_io.self_s": "s",
    "filtering.rows_in": "count",
    "filtering.distinct_rows": "count",
    "filtering.columns_in": "count",
    "filtering.columns_kept": "count",
    "filtering.redundant_passes": "count",
    "symex.extract.self_s": "s",
    "symex.paths": "count",
    "symex.truncated_methods": "count",
    "symex.afs_extracted": "count",
    "ir.parse_program.self_s": "s",
    **{f"cli.{c}.wall_s": "s" for c in CLI_COMMANDS},
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "cli.import_s": "s",
    "tracing_overhead_s": "s",
    "wall_s": "s",
    "setup_raw_s": "s",
    "ref_s": "s",
}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


class Counts:
    """Counts taken at traced call boundaries during one repetition."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.trace_mb = 0.0
        self.draws = 0
        self.useful_bursts = 0
        self.states: dict[int, object] = {}  # id -> state, held so ids stay unique
        self.probe_evals = 0
        self.model_states = 0
        self.model_transitions = 0
        self.symex_paths = 0
        self.truncated_methods = 0
        self.afs_extracted = 0

    def observers(self) -> dict:
        def load_runs(args, kwargs, result):
            self.trace_mb += os.path.getsize(_arg(args, kwargs, 0, "path")) / 1e6

        def collect_cbr(args, kwargs, result):
            self.draws += sum(len(r.segments) for r in _arg(args, kwargs, 0, "runs"))
            self.useful_bursts += len({(b.label, str(b.pre), str(b.post), b.trace)
                                       for b in result})

        def abstract_state(args, kwargs, result):
            self.probe_evals += len(_arg(args, kwargs, 0, "afs"))
            state = _arg(args, kwargs, 1, "state")
            self.states[id(state)] = state

        def synthesize(args, kwargs, result):
            self.model_states += result.n_states
            self.model_transitions += result.n_transitions

        def extract(args, kwargs, result):
            afs, report = result
            header = report.to_header()
            self.symex_paths += sum(header["paths"].values())
            self.truncated_methods += len(header["truncated"])
            self.afs_extracted += len(afs)

        return {"collect.load_runs": load_runs,
                "collect.collect_cbr_bursts": collect_cbr,
                "states.abstract_state": abstract_state,
                "model.synthesize": synthesize,
                "symex.extract_abstraction_functions": extract}


class Repetition:
    """One pass over the workload's command chain."""

    def __init__(self) -> None:
        self.walls: list[tuple[str, float]] = []  # (command, seconds)
        self.ref_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, str] = {}
        self.bytes_written = 0
        self.found: dict = {}

    @property
    def wall_s(self) -> float:
        return sum(s for _, s in self.walls)


def run_chain(cli_main, chain: list, tracer=None) -> Repetition:
    rep = Repetition()
    for k, make_argv in enumerate(chain):
        rep.attempted += 1
        try:
            argv = make_argv()
        except Exception as exc:  # an argument read from a missing output
            rep.errors.append(f"command {k + 1}: {exc!r}")
            rep.failed += 1
            continue
        out, err = io.StringIO(), io.StringIO()
        span = (tracer.span(f"cli.{argv[0]}") if tracer is not None
                else contextlib.nullcontext())
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
                code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a traceback is a failure to count, not to stop on
            code = "exception"
            err.write(traceback.format_exc())
        rep.walls.append((argv[0], time.perf_counter() - start))
        if code != 0 or err.getvalue().strip():
            rep.failed += 1
            rep.errors.append(f"{argv[0]}: exit {code!r}; stderr "
                              f"{err.getvalue().strip()[-600:]!r}")
    return rep


def record_outputs(rep: Repetition, workload, in_dir: Path, out_dir: Path,
                   facts: dict) -> None:
    from perfbench.checks import CheckError
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        rep.digests[path.relative_to(out_dir).as_posix()] = \
            hashlib.sha256(data).hexdigest()
        rep.bytes_written += len(data)
    if rep.failed:
        return
    try:
        rep.found = workload.check(in_dir, out_dir, facts)
    except (CheckError, OSError, ValueError, KeyError, TypeError) as exc:
        rep.errors.append(f"output check: {exc!r}")
        rep.failed = rep.attempted  # the repetition's outputs cannot be trusted


def make_inputs(name: str, seed: int, in_dir: Path) -> list[dict]:
    records = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "make_inputs.py"),
             "--workload", name, "--seed", str(seed), "--out", str(in_dir)],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=False)
        if proc.returncode != 0:
            raise RuntimeError(f"input generation failed:\n{proc.stderr}")
        records.append(json.loads(proc.stdout.splitlines()[-1]))
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def layer_metrics(rep: Repetition, spans: list, counts: Counts,
                  ) -> tuple[dict, dict]:
    """Per-layer metrics of one traced repetition, and its self times."""
    from perfbench.tracing import self_times
    st = self_times(spans)

    def self_s(*names: str) -> float:
        return sum(st[n][2] for n in names if n in st)

    def calls(name: str) -> int:
        return st[name][0] if name in st else 0

    found = rep.found
    n_states = len(counts.states)
    n_calls = calls("states.abstract_state")
    m = {
        "collect.load_runs.self_s": self_s("collect.load_runs"),
        "collect.load_runs.calls": calls("collect.load_runs"),
        "collect.trace_mb_read": counts.trace_mb,
        "collect.collectors.self_s": self_s(
            "collect.collect_cbr_bursts", "collect.collect_fixed_sampling_detailed"),
        "collect.bursts_per_draw": (counts.useful_bursts / counts.draws
                                    if counts.draws else 0.0),
        "collect.burst_io.self_s": self_s("collect.dumps_bursts",
                                          "collect.loads_bursts"),
        "states.abstract_state.calls": n_calls,
        "states.abstract_state.self_s": self_s("states.abstract_state"),
        "states.distinct_states": n_states,
        "states.calls_per_state": n_calls / n_states if n_states else 0.0,
        "states.probe_evals": counts.probe_evals,
        "functions.af_list_hash.calls": calls("functions.af_list_hash"),
        "functions.af_list_hash.self_s": self_s("functions.af_list_hash"),
        "functions.load_af_list.self_s": self_s("functions.load_af_list"),
        "model.accepts_prefix.calls": calls("model.accepts_prefix"),
        "model.accepts_prefix.self_s": self_s("model.accepts_prefix"),
        "model.synthesize.self_s": self_s("model.synthesize"),
        "model.simulate_traces.self_s": self_s("model.simulate_traces"),
        "model.fsm_io.self_s": self_s("model.import_fsm", "model.export_fsm"),
        "model.states": counts.model_states,
        "model.transitions": counts.model_transitions,
        "metrics.overall_precision.self_s": self_s("metrics.overall_precision"),
        "metrics.model_recall.self_s": self_s("metrics.model_recall"),
        "metrics.run_sweep.self_s": self_s("metrics.run_sweep"),
        "metrics.sweep_cells": found.get("sweep_cells", 0),
        "filtering.filter_functions.self_s": self_s("filtering.filter_functions"),
        "filtering.matrix_io.self_s": self_s("filtering.matrix_to_csv",
                                             "filtering.matrix_from_csv"),
        "filtering.rows_in": found.get("rows_in", 0),
        "filtering.distinct_rows": found.get("distinct_rows", 0),
        "filtering.columns_in": found.get("columns_in", 0),
        "filtering.columns_kept": found.get("columns_kept", 0),
        "filtering.redundant_passes": found.get("redundant_passes", 0),
        "symex.extract.self_s": self_s("symex.extract_abstraction_functions"),
        "symex.paths": counts.symex_paths,
        "symex.truncated_methods": counts.truncated_methods,
        "symex.afs_extracted": counts.afs_extracted,
        "ir.parse_program.self_s": self_s("ir.parse_program"),
        "cli.self_s": self_s(*(f"cli.{c}" for c in CLI_COMMANDS)),
        "cli.bytes_written": rep.bytes_written,
    }
    for c in CLI_COMMANDS:
        m[f"cli.{c}.wall_s"] = sum(s for cmd, s in rep.walls if cmd == c)
    return m, st


def measure(workload, seed: int, budget_s: float, in_dir: Path, out_dir: Path,
            facts: dict, cli_main, min_reps: int, tracer=None,
            on_traced=None) -> list[Repetition]:
    from perfbench.reference import reference_seconds
    reps: list[Repetition] = []
    began = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - began < budget_s:
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        chain = workload.chain(in_dir, out_dir, seed)
        gc.collect()
        ref_s = reference_seconds()
        if tracer is not None:
            tracer.rep = len(reps)
        rep = run_chain(cli_main, chain, tracer)
        rep.ref_s = ref_s
        record_outputs(rep, workload, in_dir, out_dir, facts)
        if on_traced is not None:
            on_traced(rep)
        reps.append(rep)
    return reps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="burstmine CLI benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # No BLAS thread pool, here or in the input generators: the benchmark is
    # one single-threaded caller.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    src = ROOT / "src"
    if not (src / "burstmine" / "cli.py").is_file():
        print(f"burstmine sources not found under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import burstmine.cli
    if Path(burstmine.cli.__file__).resolve().parent != src / "burstmine":
        print("imported a burstmine other than the checkout's", file=sys.stderr)
        return 2
    from perfbench import tracing
    from perfbench.reference import calibrated
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    work = ROOT / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    in_dir, out_dir = work / "inputs", work / "outputs"
    try:
        setups = make_inputs(workload.name, args.seed, in_dir)
        facts = setups[0]["facts"]
        setup_ok = len({s["sha256"] for s in setups}) == 1
        setup_raw_s = statistics.median(
            s["import_s"] + s["generate_s"] + s["write_s"] for s in setups)
        setup_s = calibrated(setup_raw_s,
                             statistics.median(s["ref_s"] for s in setups))
        import_s = statistics.median(s["import_s"] for s in setups)

        if args.trace == 0:
            reps = measure(workload, args.seed, args.seconds, in_dir, out_dir,
                           facts, burstmine.cli.main, MIN_REPS)
            traced: list[Repetition] = []
        else:
            reps = measure(workload, args.seed, args.seconds / 2, in_dir, out_dir,
                           facts, burstmine.cli.main, 1)
            counts = Counts()
            tracer = tracing.Tracer(counts.observers())
            layers: list[dict] = []
            selfs: list[dict] = []
            spans_path = ROOT / ".perfbench_work" / f"spans-{workload.name}.csv"

            def on_traced(rep: Repetition) -> None:
                metrics_, st = layer_metrics(rep, tracer.spans, counts)
                layers.append(metrics_)
                selfs.append(st)
                tracing.write_spans(tracer.spans, spans_path, append=len(layers) > 1)
                tracer.spans.clear()
                counts.reset()

            tracer.install(tracing.boundary_functions())
            try:
                traced = measure(workload, args.seed, args.seconds / 2, in_dir,
                                 out_dir, facts, burstmine.cli.main, 1, tracer,
                                 on_traced)
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    everything = reps + traced
    attempted = sum(r.attempted for r in everything)
    failed = sum(r.failed for r in everything)
    errors = [e for r in everything for e in r.errors]
    if not setup_ok:
        errors.append("input generation is not deterministic across set-ups")
    good = [r.digests for r in everything if not r.failed]
    first = good[0] if good else everything[0].digests
    if any(d != first for d in good):
        errors.append("artefacts differ between repetitions")
    correct = not errors and failed == 0

    walls = [r.wall_s for r in reps]
    q1, med, q3 = quartiles(walls)
    ref_s = statistics.median(r.ref_s for r in reps)
    wall_cal_s = calibrated(med, ref_s)
    work = max(r.found.get("work", 0) for r in everything)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    print(f"workload {workload.name}, seed {args.seed}: {workload.why}")
    print(f"  {len(reps)} untraced repetitions, "
          f"{len(traced)} traced; {attempted} commands, {failed} failed")
    print(f"  wall_s        {med:.4f} s   (q1 {q1:.4f}, q3 {q3:.4f}, "
          f"n={len(walls)}: {' '.join(f'{w:.3f}' for w in walls)})")
    print(f"  ref_s         {ref_s:.4f} s   (reference workload, median)")
    print(f"  wall_cal_s    {wall_cal_s:.4f} s   (calibrated)")
    print(f"  work_per_s    {work / med:.1f} {workload.work_unit}/s; calibrated "
          f"{work / wall_cal_s:.1f}")
    print(f"  setup_s       {setup_s:.4f} s   (calibrated; raw {setup_raw_s:.4f}, "
          f"median of {SETUP_REPS}: " + " ".join(
              f"{s['import_s']:.3f}+{s['generate_s']:.3f}+{s['write_s']:.3f}"
              for s in setups) + ")")
    print(f"  peak_rss_mb   {peak_rss_mb:.1f} MB")
    print(f"  failure_rate  {failed / attempted if attempted else 0:.4f} "
          f"({failed}/{attempted})")
    for name, digest in sorted(first.items()):
        print(f"  sha256 {digest}  {name}")
    for e in errors[:20]:
        print(f"  ERROR {e}")

    if args.trace == 0:
        values = {"wall_cal_s": wall_cal_s, "work_per_cal_s": work / wall_cal_s,
                  "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    else:
        values = {name: statistics.median(m[name] for m in layers)
                  for name in layers[0]}
        values.update({"cli.import_s": import_s, "wall_s": med,
                       "setup_raw_s": setup_raw_s, "ref_s": ref_s})
        values["tracing_overhead_s"] = (
            statistics.median(r.wall_s for r in traced) - med)
        units = PER_LAYER
        top = sorted(((statistics.median(s.get(n, [0, 0, 0])[2] for s in selfs), n)
                      for n in {n for s in selfs for n in s}), reverse=True)
        print("  top self time (median over traced repetitions):")
        for seconds, name in top[:6]:
            print(f"    {seconds:9.4f} s  {name}")
        for name in PER_LAYER:
            print(f"  {name:36s} {values[name]:.6g} {PER_LAYER[name]}")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
