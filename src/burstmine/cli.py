"""Command-line pipeline: every stage reads and writes the documented file
formats, so each intermediate artifact can be inspected (and diffed) on disk.

Subcommands mirror the pipeline stages::

    extract     mini-IR program  -> abstraction-function JSON
    profile     traces + AFs     -> evaluation-matrix CSV
    filter      matrix + AFs     -> kept-AF JSON + filter report JSON
    collect     traces + AFs     -> bursts JSONL (or baseline traces JSONL)
    synthesize  bursts           -> model JSON (and optional DOT)
    simulate    model            -> reconstructed traces JSON
    evaluate    model + traces   -> precision/recall reports (JSON + CSV)
    sweep       traces + AFs     -> probability x run-count recall/precision CSV

Commands are pure functions of their inputs and flags (collect's --seed
among them): re-running with the same inputs and flags produces
byte-identical outputs.  Failures print a one-line JSON diagnostic on stderr
and exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import sys
from pathlib import Path

from . import filtering, metrics, model
from .collect import (EventTable, SamplerConfig, collect, collect_cbr_bursts,
                      collect_fixed_sampling, dumps_baseline, dumps_bursts,
                      load_runs, loads_bursts)
from .functions import af_list_hash, dump_af_list, load_af_list
from .ir import (IrError, build_dependency_graph, detect_relevant_classes,
                 parse_program)
from .schema import (INTEGER, LINE_BUFFER, NUMBER, STRING, TARGETS, ListOf,
                     Record, check)
from .symex import SymexBounds, SymexError, extract_abstraction_functions


class CliError(Exception):
    """A missing input or a malformed ``--config`` value (exit 2)."""


def _warn(message: str) -> None:
    print(json.dumps({"warning": message}), file=sys.stderr)


def _out_path(args, name: str) -> Path:
    path = Path(name)
    if not path.is_absolute() and args.out_dir:
        path = Path(args.out_dir) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    return path


def _write(args, *outputs: tuple[str, str]) -> None:
    """A command's ``(name, text)`` outputs, each path made and each text
    encoded before any file is opened: a path under a file or naming a
    directory, or text that UTF-8 cannot hold (a lone surrogate), fails the
    command and leaves every file as it was."""
    data = [(_out_path(args, name), text.encode("utf-8")) for name, text in outputs]
    for path, content in data:
        path.write_bytes(content)


# --- settings: a flag, else its --config value, checked by the config shape ------


# The input files, each a flag and a config key of the same name.
_INPUTS = ("program", "traces", "afs", "matrix", "bursts", "fsm")
CONFIG = Record({}, {
    **dict.fromkeys(_INPUTS, STRING), "targets": TARGETS,
    "bounds": Record({}, {f.name: INTEGER if f.type == "int" else NUMBER
                          for f in dataclasses.fields(SymexBounds)}, closed=True),
    "sampler": Record({}, {"probability": NUMBER, "rng_seed": INTEGER,
                           "mode": STRING, "fixed_length": INTEGER}, closed=True),
    "sweep": Record({}, {"probabilities": ListOf(NUMBER), "n_runs": ListOf(INTEGER),
                         "seeds": ListOf(INTEGER)}, closed=True),
})


def _text(path) -> str:
    """A JSON document's or a program's text, its line ends as written."""
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def _config(path) -> dict:
    if not path:
        return {}
    return check(json.loads(_text(path)), CONFIG, "config", CliError)


def _setting(args, config: dict, key: str):
    """The flag's value, else the config's, else ``None``."""
    value = getattr(args, key)
    return config.get(key) if value is None else value


def _input(args, config: dict, key: str) -> str:
    """The path of a required input file."""
    path = _setting(args, config, key)
    if path is None:
        raise CliError(f"missing required input: --{key}")
    return path


def _read(args, config: dict, key: str) -> str:
    return _text(_input(args, config, key))


def _section(config: dict, name: str, flags: dict) -> dict:
    """The config object ``name`` with every flag that is set laid over it."""
    return {**config.get(name, {}),
            **{k: v for k, v in flags.items() if v is not None}}


# --- subcommands -----------------------------------------------------------------


def cmd_extract(args, config: dict) -> int:
    program = parse_program(_read(args, config, "program"))
    targets = _setting(args, config, "targets")
    if isinstance(targets, str):
        targets = [t for t in targets.split(",") if t]
    if targets is None:
        targets = list(program.class_names)
    graph = build_dependency_graph(program)
    relevant = detect_relevant_classes(graph, targets)
    bounds = SymexBounds(**_section(config, "bounds", {
        "max_branches_per_path": args.max_branches, "max_states": args.max_states,
        "per_method_time_budget": args.time_budget,
        "max_loop_unrollings": args.max_unroll}))
    afs, report = extract_abstraction_functions(program, relevant, bounds)
    if not afs:
        _warn("no abstraction functions extracted (empty or branch-free program)")
    header = report.to_header()
    header["relevant_classes"] = list(relevant)
    _write(args, (args.out, dump_af_list(afs, header)))
    return 0


def cmd_profile(args, config: dict) -> int:
    afs, _ = load_af_list(_read(args, config, "afs"))
    runs = load_runs(_input(args, config, "traces"))
    provenance = [(run.run_id, i) for run in runs for i in range(len(run.segments))]
    af_hash = af_list_hash(afs)
    rows = [b.pre for b in collect([seg for run in runs for seg in run.segments],
                                   afs, af_hash)]
    if not rows:
        _warn("no snapshots in the training traces; emitting a header-only matrix")
    m = filtering.EvalMatrix.from_rows(tuple(af.id for af in afs), rows,
                                       provenance, af_hash)
    _write(args, (args.out, filtering.matrix_to_csv(m)))
    return 0


def cmd_filter(args, config: dict) -> int:
    with open(_input(args, config, "matrix"), "rb", buffering=LINE_BUFFER) as fh:
        m = filtering.matrix_from_csv(fh)
    afs, _ = load_af_list(_read(args, config, "afs"))
    by_id = {af.id: af for af in afs}
    unknown = [c for c in m.column_ids if c not in by_id]
    if unknown:
        raise CliError(f"matrix columns not present in the AF list: {unknown}")
    if m.n_rows <= 1:
        _warn(f"matrix has {m.n_rows} row(s); every column is constant and "
              "will be dropped")
    kept_matrix, report = filtering.filter_functions(m)
    kept = [by_id[c] for c in kept_matrix.column_ids]
    _write(args, (args.out_kept, dump_af_list(kept, {"filtered_from": len(afs)})),
           (args.out_report, report.to_json()))
    return 0


def cmd_collect(args, config: dict) -> int:
    runs = load_runs(_input(args, config, "traces"))
    sampler = _section(config, "sampler", {
        "probability": args.probability, "mode": args.mode,
        "fixed_length": args.fixed_length, "rng_seed": args.seed})
    cfg = SamplerConfig(**{**sampler, "probability": float(
        sampler.get("probability", 1.0))})
    if cfg.mode == "cbr":
        afs, _ = load_af_list(_read(args, config, "afs"))
        bursts = collect_cbr_bursts(runs, afs, cfg)
        if not bursts:
            _warn("no bursts collected (probability too low or no segments)")
        _write(args, (args.out, dumps_bursts(bursts, cfg, af_list_hash(afs))))
        return 0
    traces = collect_fixed_sampling(runs, cfg)
    if not traces:
        _warn("no baseline traces recorded")
    _write(args, (args.out, dumps_baseline(traces, cfg)))
    return 0


def cmd_synthesize(args, config: dict) -> int:
    with open(_input(args, config, "bursts"), "rb", buffering=LINE_BUFFER) as fh:
        bursts, header = loads_bursts(fh)
    if not bursts:
        _warn("no bursts to synthesize from; the model will be empty")
    fsm = model.synthesize(bursts, header.get("af_hash", ""))
    outputs = [(args.out, model.export_fsm(fsm, "json"))]
    if args.dot:
        outputs.append((args.dot, model.export_fsm(fsm, "dot")))
    _write(args, *outputs)
    return 0


def cmd_simulate(args, config: dict) -> int:
    fsm = model.import_fsm(_read(args, config, "fsm"))
    traces = model.simulate_traces(fsm, args.start, args.max_hops, args.budget)
    _write(args, (args.out, model.dumps_reconstructions(traces)))
    return 0


def cmd_evaluate(args, config: dict) -> int:
    events = EventTable()  # one MethodCall per event: acceptance tests identity
    fsm = model.import_fsm(_read(args, config, "fsm"), events)
    afs, _ = load_af_list(_read(args, config, "afs"))
    runs = load_runs(_input(args, config, "traces"), events)
    precision, recall = metrics.evaluate(fsm, runs, afs)
    if fsm.n_states == 0:
        _warn("evaluating an empty model; recall is 0 and precision is absent")
    _write(args, ("precision.json", precision.to_json()),
           ("precision.csv", precision.to_csv()),
           ("recall.json", recall.to_json()), ("recall.csv", recall.to_csv()))
    return 0


def cmd_sweep(args, config: dict) -> int:
    runs = load_runs(_input(args, config, "traces"))
    afs, _ = load_af_list(_read(args, config, "afs"))
    flags = {"probabilities": args.probabilities, "n_runs": args.run_counts,
             "seeds": args.sweep_seeds}
    axes = _section(config, "sweep", {
        key: None if value is None else [v for v in value.split(",") if v]
        for key, value in flags.items()})

    def axis(key: str, flag: str, cast) -> list:
        if key not in axes:
            raise CliError(f"missing sweep axis: --{flag}")
        return [cast(v) for v in axes[key]]

    result = metrics.run_sweep(runs, afs,
                               axis("probabilities", "probabilities", float),
                               axis("n_runs", "run-counts", int),
                               axis("seeds", "sweep-seeds", int))
    _write(args, (args.out, result.to_csv()))
    return 0


# --- argument parsing --------------------------------------------------------------


def _inputs(*keys: str) -> dict:
    return {f"--{k}": dict(help=f"input file (default: config {k!r})") for k in keys}


# Each command: its function, its help, and its options in the order its help
# lists them after those that every command takes.
_COMMON = {"--out-dir": dict(help="directory that relative output paths resolve into"),
           "--config": dict(help="JSON pipeline config supplying defaults")}
_COMMANDS = (
    (cmd_extract, "derive abstraction functions from a program", {
        **_inputs("program"), "--out": dict(default="afs.json"),
        "--targets": dict(help="comma-separated target classes (default: every class)"),
        "--max-branches": dict(type=int), "--max-states": dict(type=int),
        "--time-budget": dict(type=float), "--max-unroll": dict(type=int)}),
    (cmd_profile, "evaluate abstraction functions over training traces", {
        **_inputs("traces", "afs"), "--out": dict(default="matrix.csv")}),
    (cmd_filter, "reduce the evaluation matrix to a minimal AF set", {
        **_inputs("matrix", "afs"), "--out-kept": dict(default="kept.json"),
        "--out-report": dict(default="filter_report.json")}),
    (cmd_collect, "sample bursts (or baseline traces) from runs", {
        **_inputs("traces", "afs"), "--out": dict(default="bursts.jsonl"),
        "--probability": dict(type=float),
        "--mode": dict(choices=["cbr", "fixed_length"]),
        "--fixed-length": dict(type=int),
        "--seed": dict(type=int, help="sampler random seed")}),
    (cmd_synthesize, "build the annotated state model from bursts", {
        **_inputs("bursts"), "--out": dict(default="fsm.json"),
        "--dot": dict(help="also write a DOT rendering")}),
    (cmd_simulate, "reconstruct traces by chaining model transitions", {
        **_inputs("fsm"), "--out": dict(default="reconstructions.json"),
        "--start": dict(required=True, help="start state, e.g. UF"),
        "--max-hops": dict(type=int, default=3),
        "--budget": dict(type=int, default=10_000)}),
    (cmd_evaluate, "score a model against original runs",
     _inputs("fsm", "traces", "afs")),
    (cmd_sweep, "probability x run-count grid experiment", {
        **_inputs("traces", "afs"), "--out": dict(default="sweep.csv"),
        "--probabilities": dict(help="comma-separated, increasing"),
        "--run-counts": dict(help="comma-separated, increasing"),
        "--sweep-seeds": dict(help="comma-separated")}),
)


def _build_parser(names) -> argparse.ArgumentParser:
    """Every command, with its name and help; only the commands in ``names``
    get their options, as ``main`` parses one command per call."""
    parser = argparse.ArgumentParser(
        prog="burstmine",
        description="State-annotated burst tracing and model mining pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)
    for func, help_text, options in _COMMANDS:
        name = func.__name__[len("cmd_"):]
        if name not in names:  # never parsed: no -h of its own
            sub.add_parser(name, help=help_text, add_help=False)
            continue
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        for flag, kwargs in {**_COMMON, **options}.items():
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser(argv[:1]).parse_args(argv)
    try:
        return args.func(args, _config(args.config))
    except (CliError, ValueError, OSError, IrError, SymexError,
            RecursionError) as exc:
        error = "usage" if isinstance(exc, CliError) else type(exc).__name__
        print(json.dumps({"error": error, "message": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
