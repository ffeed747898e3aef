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

Commands are pure functions of their inputs and flags: re-running with the
same inputs and --seed produces byte-identical outputs.  Failures print a
one-line JSON diagnostic on stderr and exit nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import filtering, metrics, model
from .collect import (SamplerConfig, collect_cbr_bursts, collect_fixed_sampling,
                      dumps_bursts, load_runs, loads_bursts)
from .functions import af_list_hash, dump_af_list, load_af_list
from .ir import (IrError, build_dependency_graph, detect_relevant_classes,
                 parse_program)
from .states import abstract_state
from .symex import SymexBounds, SymexError, extract_abstraction_functions


class CliError(Exception):
    def __init__(self, message: str, code: int = 2) -> None:
        super().__init__(message)
        self.code = code


def _warn(message: str) -> None:
    print(json.dumps({"warning": message}), file=sys.stderr)


def _out_path(args, name: str) -> Path:
    path = Path(name)
    if not path.is_absolute() and args.out_dir:
        path = Path(args.out_dir) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write(args, name: str, content: str) -> None:
    _out_path(args, name).write_text(content, encoding="utf-8")


def _config(args) -> dict:
    if not args.config:
        return {}
    config = json.loads(Path(args.config).read_text(encoding="utf-8"))
    if not isinstance(config, dict):
        raise CliError("config must be a JSON object")
    return config


def _section(config: dict, key: str) -> dict:
    section = config.get(key, {})
    if not isinstance(section, dict):
        raise CliError(f"config key {key!r} must be an object")
    return dict(section)


def _setting(args, config: dict, name: str, default=None):
    value = getattr(args, name, None)
    if value is not None:
        return value
    return config.get(name, default)


def _bounds(args, config: dict) -> SymexBounds:
    section = _section(config, "bounds")
    known = {f.name for f in dataclasses.fields(SymexBounds)}
    for key, value in section.items():
        if key not in known:
            raise CliError(f"unknown config key 'bounds.{key}'")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise CliError(f"config key 'bounds.{key}' must be a number")
    for flag, key in (("max_branches", "max_branches_per_path"),
                      ("max_states", "max_states"),
                      ("time_budget", "per_method_time_budget"),
                      ("max_unroll", "max_loop_unrollings")):
        value = getattr(args, flag, None)
        if value is not None:
            section[key] = value
    return SymexBounds(**section)


def _sampler(args, config: dict) -> SamplerConfig:
    section = _section(config, "sampler")
    if getattr(args, "probability", None) is not None:
        section["probability"] = args.probability
    if getattr(args, "mode", None) is not None:
        section["mode"] = args.mode
    if getattr(args, "fixed_length", None) is not None:
        section["fixed_length"] = args.fixed_length
    if args.seed is not None:
        section["rng_seed"] = args.seed
    section.setdefault("probability", 1.0)
    return SamplerConfig.from_dict(section)


def _load_afs(args, config: dict, key: str = "afs"):
    path = _setting(args, config, key)
    if path is None:
        raise CliError(f"missing required input: --{key}")
    return load_af_list(Path(path).read_text(encoding="utf-8"))


def _load_traces(args, config: dict):
    path = _setting(args, config, "traces")
    if path is None:
        raise CliError("missing required input: --traces")
    return load_runs(path)


# --- subcommands -----------------------------------------------------------------


def cmd_extract(args) -> int:
    config = _config(args)
    program_path = _setting(args, config, "program")
    if program_path is None:
        raise CliError("missing required input: --program")
    program = parse_program(Path(program_path).read_text(encoding="utf-8"))
    targets = _setting(args, config, "targets")
    if isinstance(targets, str):
        targets = [t for t in targets.split(",") if t]
    if targets is None:
        targets = list(program.class_names)
    graph = build_dependency_graph(program)
    relevant = detect_relevant_classes(graph, targets)
    bounds = _bounds(args, config)
    afs, report = extract_abstraction_functions(program, relevant, bounds)
    if not afs:
        _warn("no abstraction functions extracted (empty or branch-free program)")
    header = report.to_header()
    header["relevant_classes"] = list(relevant)
    _write(args, args.out, dump_af_list(afs, header))
    return 0


def cmd_profile(args) -> int:
    config = _config(args)
    afs, _ = _load_afs(args, config)
    runs = _load_traces(args, config)
    provenance = [(run.run_id, i) for run in runs for i in range(len(run.segments))]
    rows = [abstract_state(afs, seg.pre_state) for run in runs for seg in run.segments]
    if not rows:
        _warn("no snapshots in the training traces; emitting a header-only matrix")
    m = filtering.EvalMatrix.from_rows(tuple(af.id for af in afs), rows,
                                       provenance, af_list_hash(afs))
    _write(args, args.out, filtering.matrix_to_csv(m))
    return 0


def cmd_filter(args) -> int:
    config = _config(args)
    matrix_path = _setting(args, config, "matrix")
    if matrix_path is None:
        raise CliError("missing required input: --matrix")
    m = filtering.matrix_from_csv(Path(matrix_path).read_text(encoding="utf-8"))
    if m.n_rows <= 1:
        _warn(f"matrix has {m.n_rows} row(s); every column is constant and "
              "will be dropped")
    afs, _ = _load_afs(args, config)
    by_id = {af.id: af for af in afs}
    unknown = [c for c in m.column_ids if c not in by_id]
    if unknown:
        raise CliError(f"matrix columns not present in the AF list: {unknown}")
    kept_matrix, report = filtering.filter_functions(m)
    kept = [by_id[c] for c in kept_matrix.column_ids]
    _write(args, args.out_kept, dump_af_list(kept, {"filtered_from": len(afs)}))
    _write(args, args.out_report, report.to_json())
    return 0


def cmd_collect(args) -> int:
    config = _config(args)
    runs = _load_traces(args, config)
    cfg = _sampler(args, config)
    if cfg.mode == "cbr":
        afs, _ = _load_afs(args, config)
        bursts = collect_cbr_bursts(runs, afs, cfg)
        if not bursts:
            _warn("no bursts collected (probability too low or no segments)")
        _write(args, args.out, dumps_bursts(bursts, cfg, af_list_hash(afs)))
        return 0
    traces = collect_fixed_sampling(runs, cfg)
    lines = [json.dumps({"header": {"sampler": cfg.to_dict()}})]
    for run_id, trace in traces:
        lines.append(json.dumps(
            {"run": run_id, "trace": [e.to_dict() for e in trace]}))
    if not traces:
        _warn("no baseline traces recorded")
    _write(args, args.out, "\n".join(lines) + "\n")
    return 0


def cmd_synthesize(args) -> int:
    config = _config(args)
    bursts_path = _setting(args, config, "bursts")
    if bursts_path is None:
        raise CliError("missing required input: --bursts")
    bursts, _ = loads_bursts(Path(bursts_path).read_text(encoding="utf-8"))
    if not bursts:
        _warn("no bursts to synthesize from; the model will be empty")
    fsm = model.synthesize(bursts)
    _write(args, args.out, model.export_fsm(fsm, "json"))
    if args.dot:
        _write(args, args.dot, model.export_fsm(fsm, "dot"))
    return 0


def cmd_simulate(args) -> int:
    config = _config(args)
    fsm_path = _setting(args, config, "fsm")
    if fsm_path is None:
        raise CliError("missing required input: --fsm")
    fsm = model.import_fsm(Path(fsm_path).read_text(encoding="utf-8"))
    traces = model.simulate_traces(fsm, args.start, args.max_hops, args.budget)
    doc = [{
        "start": t.start,
        "end": t.end,
        "labels": list(t.labels),
        "segments": [{"label": label, "trace": [e.to_dict() for e in trace]}
                     for label, trace in t.segments],
    } for t in traces]
    _write(args, args.out, json.dumps(doc, indent=2))
    return 0


def cmd_evaluate(args) -> int:
    config = _config(args)
    fsm_path = _setting(args, config, "fsm")
    if fsm_path is None:
        raise CliError("missing required input: --fsm")
    fsm = model.import_fsm(Path(fsm_path).read_text(encoding="utf-8"))
    afs, _ = _load_afs(args, config)
    runs = _load_traces(args, config)
    if fsm.n_states == 0:
        _warn("evaluating an empty model; recall is 0 and precision is absent")
    precision, recall = metrics.evaluate(fsm, runs, afs)
    _write(args, "precision.json", precision.to_json())
    _write(args, "precision.csv", precision.to_csv())
    _write(args, "recall.json", recall.to_json())
    _write(args, "recall.csv", recall.to_csv())
    return 0


def cmd_sweep(args) -> int:
    config = _config(args)
    runs = _load_traces(args, config)
    afs, _ = _load_afs(args, config)
    sweep_cfg = _section(config, "sweep")

    def axis(flag: str, key: str, cast):
        value = getattr(args, flag, None)
        if value is not None:
            return [cast(v) for v in value.split(",") if v]
        if key not in sweep_cfg:
            raise CliError(f"missing sweep axis: --{flag}")
        values = sweep_cfg[key]
        if isinstance(values, list):
            try:
                return [cast(v) for v in values]
            except TypeError:
                pass
        raise CliError(f"config key 'sweep.{key}' must be a list of numbers")

    probabilities = axis("probabilities", "probabilities", float)
    n_runs_list = axis("run_counts", "n_runs", int)
    seeds = axis("sweep_seeds", "seeds", int)
    result = metrics.run_sweep(runs, afs, probabilities, n_runs_list, seeds)
    _write(args, args.out, result.to_csv())
    return 0


# --- argument parsing --------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="burstmine",
        description="State-annotated burst tracing and model mining pipeline.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="random seed (commands without randomness ignore it)")
    common.add_argument("--out-dir", default=None,
                        help="directory that relative output paths resolve into")
    common.add_argument("--config", default=None,
                        help="JSON pipeline config supplying defaults")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", parents=[common],
                       help="derive abstraction functions from a program")
    p.add_argument("--program", help="mini-IR source file")
    p.add_argument("--targets", help="comma-separated target classes "
                                     "(default: every class)")
    p.add_argument("--max-branches", type=int, dest="max_branches")
    p.add_argument("--max-states", type=int, dest="max_states")
    p.add_argument("--time-budget", type=float, dest="time_budget")
    p.add_argument("--max-unroll", type=int, dest="max_unroll")
    p.add_argument("--out", default="afs.json")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("profile", parents=[common],
                       help="evaluate abstraction functions over training traces")
    p.add_argument("--traces")
    p.add_argument("--afs")
    p.add_argument("--out", default="matrix.csv")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("filter", parents=[common],
                       help="reduce the evaluation matrix to a minimal AF set")
    p.add_argument("--matrix")
    p.add_argument("--afs")
    p.add_argument("--out-kept", default="kept.json", dest="out_kept")
    p.add_argument("--out-report", default="filter_report.json", dest="out_report")
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("collect", parents=[common],
                       help="sample bursts (or baseline traces) from runs")
    p.add_argument("--traces")
    p.add_argument("--afs")
    p.add_argument("--probability", type=float)
    p.add_argument("--mode", choices=["cbr", "fixed_length"])
    p.add_argument("--fixed-length", type=int, dest="fixed_length")
    p.add_argument("--out", default="bursts.jsonl")
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("synthesize", parents=[common],
                       help="build the annotated state model from bursts")
    p.add_argument("--bursts")
    p.add_argument("--out", default="fsm.json")
    p.add_argument("--dot", default=None, help="also write a DOT rendering")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("simulate", parents=[common],
                       help="reconstruct traces by chaining model transitions")
    p.add_argument("--fsm")
    p.add_argument("--start", required=True, help="start state, e.g. UF")
    p.add_argument("--max-hops", type=int, default=3, dest="max_hops")
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--out", default="reconstructions.json")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("evaluate", parents=[common],
                       help="score a model against original runs")
    p.add_argument("--fsm")
    p.add_argument("--traces")
    p.add_argument("--afs")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", parents=[common],
                       help="probability x run-count grid experiment")
    p.add_argument("--traces")
    p.add_argument("--afs")
    p.add_argument("--probabilities", help="comma-separated, increasing")
    p.add_argument("--run-counts", dest="run_counts",
                   help="comma-separated, increasing")
    p.add_argument("--sweep-seeds", dest="sweep_seeds", help="comma-separated")
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(json.dumps({"error": "usage", "message": str(exc)}), file=sys.stderr)
        return exc.code
    except (ValueError, OSError, IrError, SymexError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
