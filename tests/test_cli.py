import contextlib
import csv
import dataclasses
import functools
import hashlib
import io
import json
import operator
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from burstmine import collect, filtering
from burstmine.cli import _build_parser, main
from burstmine.collect import dump_runs, load_runs, loads_bursts
from burstmine.functions import af_list_hash, load_af_list
from burstmine.metrics import run_sweep
from burstmine.model import import_fsm
from burstmine.states import abstract_state
from burstmine.synthetic import (checkout_abstraction_functions, checkout_runs,
                                 editor_abstraction_functions,
                                 generate_editor_runs)
from burstmine.functions import dump_af_list

from conftest import cart_source
from perfbench.inputs import editor_program


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "cart.mir").write_text(cart_source())
    dump_runs(checkout_runs(), tmp_path / "checkout.jsonl")
    dump_runs(generate_editor_runs(6, master_seed=4), tmp_path / "editor.jsonl")
    (tmp_path / "checkout_afs.json").write_text(
        dump_af_list(checkout_abstraction_functions()))
    (tmp_path / "editor_afs.json").write_text(
        dump_af_list(editor_abstraction_functions()))
    return tmp_path


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


def run_cli_process(*argv) -> tuple[int, str]:
    """Exit code and stderr of the CLI run as its own interpreter."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "burstmine.cli",
                           *map(str, argv)], stdin=subprocess.DEVNULL,
                          env=env, capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stderr


def assert_one_line_diagnostic(rc: int, stderr: str, error: str) -> None:
    assert rc == 2
    assert "Traceback" not in stderr
    lines = stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error


def test_importing_the_cli_loads_no_third_party_module():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys; before = set(sys.modules); import burstmine.cli; "
             "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                          timeout=60, check=True)
    loaded = proc.stdout.split()
    assert "burstmine.cli" in loaded
    assert [m for m in loaded if m.partition(".")[0] not in
            {*sys.stdlib_module_names, "burstmine"}] == []


# A stage module the CLI binds lazily has run once its class is the plain
# module type; reading that does not load it.
_STARTUP_PROBE = """
import json, sys, types
import burstmine.cli as cli
STAGES = ("filtering", "ir", "metrics", "model", "symex")
def ran():
    return [s for s in STAGES if type(sys.modules.get(f"burstmine.{s}"))
            is types.ModuleType]
seen = {"import": ran(), "statistics": "statistics" in sys.modules}
for command in sys.argv[1:]:
    name, code, argv = json.loads(command)
    assert cli.main(argv) == code, argv
    seen[name] = ran()
print(json.dumps(seen))
"""


def test_a_command_runs_only_the_stage_modules_it_calls(workdir):
    """Importing the CLI runs no stage module beyond trace and AF-list
    reading.  The commands then run in one process, in order, so each entry
    lists the stage modules run so far: no command before ``extract``, an
    error exit among them, runs ``ir`` or ``symex``, and ``extract`` runs
    both."""
    traces, afs = str(workdir / "checkout.jsonl"), str(workdir / "checkout_afs.json")
    out = ["--out-dir", str(workdir)]
    commands = [
        ("profile", 0, ["profile", "--traces", traces, "--afs", afs, *out]),
        ("filter", 0, ["filter", "--matrix", str(workdir / "matrix.csv"),
                       "--afs", afs, *out]),
        ("collect", 0, ["collect", "--mode", "cbr", "--traces", traces,
                        "--afs", afs, *out]),
        ("synthesize", 0, ["synthesize", "--bursts", str(workdir / "bursts.jsonl"),
                           *out]),
        ("evaluate", 0, ["evaluate", "--fsm", str(workdir / "fsm.json"),
                         "--traces", traces, "--afs", afs, *out]),
        ("sweep", 0, ["sweep", "--traces", traces, "--afs", afs,
                      "--probabilities", "0.5", "--run-counts", "1",
                      "--sweep-seeds", "0", *out]),
        ("missing input", 2, ["synthesize", *out]),
        ("extract", 0, ["extract", "--program", str(workdir / "cart.mir"), *out])]
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run([sys.executable, "-c", _STARTUP_PROBE,
                           *map(json.dumps, commands)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          timeout=60, check=True)
    scoring = ["filtering", "metrics", "model"]
    assert json.loads(proc.stdout) == {
        "import": [], "statistics": False, "profile": ["filtering"],
        "filter": ["filtering"], "collect": ["filtering"],
        "synthesize": ["filtering", "model"], "evaluate": scoring,
        "sweep": scoring, "missing input": scoring,
        "extract": ["filtering", "ir", "metrics", "model", "symex"]}


# Every option of every command, each set.
EVERY_OPTION = {
    "extract": ["--program", "p", "--out", "o", "--targets", "A,B",
                "--max-branches", "3", "--max-states", "9", "--time-budget", "1.5",
                "--max-unroll", "2"],
    "profile": ["--traces", "t", "--afs", "a", "--out", "o"],
    "filter": ["--matrix", "m", "--afs", "a", "--out-kept", "k",
               "--out-report", "r"],
    "collect": ["--traces", "t", "--afs", "a", "--out", "o", "--probability", "0.5",
                "--mode", "cbr", "--fixed-length", "4", "--seed", "7"],
    "synthesize": ["--bursts", "b", "--out", "o", "--dot", "d"],
    "simulate": ["--fsm", "f", "--out", "o", "--start", "UF", "--max-hops", "2",
                 "--budget", "5"],
    "evaluate": ["--fsm", "f", "--traces", "t", "--afs", "a"],
    "sweep": ["--traces", "t", "--afs", "a", "--out", "o", "--probabilities", "0.5",
              "--run-counts", "1", "--sweep-seeds", "0"],
}


def _outcome(parse, argv) -> tuple:
    """What ``parse(argv)`` returns, or the code it exits with, and what it
    prints on stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv", [
    *([c, "-h"] for c in EVERY_OPTION),
    *([c, *args, "--out-dir", "d", "--config", "c"] for c, args in EVERY_OPTION.items()),
    *([c] for c in EVERY_OPTION),
    ["-h"], [], ["bogus"], ["--out-dir", "d", "profile"], ["collect", "--mode", "x"],
    ["simulate", "--fsm", "f", "--unknown"]],
    ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_parses_as_a_parser_with_every_commands_arguments(argv):
    """``main`` adds only the named command's arguments; its help, errors
    and parsed values are those of a parser that has every command's."""
    full = _build_parser(EVERY_OPTION)
    expected = _outcome(full.parse_args, argv)
    assert _outcome(_build_parser(argv[:1]).parse_args, argv) == expected
    if type(expected[0]) is tuple:  # main exits before it runs a command
        assert _outcome(main, argv) == expected


def test_extract_cart(workdir):
    out = workdir / "afs.json"
    rc = run_cli("extract", "--program", workdir / "cart.mir",
                 "--targets", "Cart", "--out", out)
    assert rc == 0
    afs, header = load_af_list(out.read_text())
    assert len(afs) == 14
    assert header["relevant_classes"] == ["Cart", "Product"]


def test_extract_cart_matches_golden_file(workdir):
    out = workdir / "afs.json"
    rc = run_cli("extract", "--program", workdir / "cart.mir",
                 "--targets", "Cart", "--out", out)
    assert rc == 0
    golden = Path(__file__).parent / "data" / "cart_afs.json"
    assert out.read_bytes() == golden.read_bytes()


# The benchmark's programs: cart.mir, and the 45-method Editor program that
# ``perfbench.inputs.editor_program`` generates for the ``probe-mining``
# workload at each seed.
@pytest.mark.parametrize("seed,target,digest", [
    pytest.param(None, "Cart",
                 "ca81ed9d837b2bf40e949dc12955e5df5c02f8736f764783412e694c8c42a9b0",
                 id="cart"),
    pytest.param(0, "Editor",
                 "433679c5c54006ab3fc354e95dc6a7f3c9389959cdd207b4b8d9a7d1e1a30707",
                 id="editor-0"),
    pytest.param(1, "Editor",
                 "5cb5c3ebc8a588bf25065afb67bc67affbbac156ea2522d4df5255b0ea14a254",
                 id="editor-1"),
    pytest.param(9001, "Editor",
                 "3e2500872d5b2e2bd2ffd9f7713535d18bf2047d493c2c8a0c2807809448ebf6",
                 id="editor-9001"),
])
def test_extract_writes_the_same_bytes(tmp_path, seed, target, digest):
    program = tmp_path / "p.mir"
    program.write_text(cart_source() if seed is None else editor_program(45, seed))
    out = tmp_path / "afs.json"
    assert run_cli("extract", "--program", program, "--targets", target,
                   "--out", out) == 0
    assert sha(out) == digest


def test_extract_reads_a_parameter_before_a_class_of_its_name(tmp_path):
    program = tmp_path / "p.mir"
    program.write_text("class Cart { field n: int; method m(B: int) { "
                       "if (B > 0) { Cart.n = 1; } if (Cart.n > 2) { Cart.n = 3; } } } "
                       "class B { field x: int; }")
    out = tmp_path / "afs.json"
    assert run_cli("extract", "--program", program, "--targets", "Cart",
                   "--out", out) == 0
    afs, _ = load_af_list(out.read_text())
    assert [str(af) for af in afs] == ["Cart.n > 2", "Cart.n <= 2"]


@pytest.mark.parametrize("source,target,relevant,probes", [
    ("class Cart { field n: int; method m(B: int) { "
     "if (B > 0) { Cart.n = 1; } if (Cart.n > 2) { Cart.n = 3; } } } "
     "class B { field x: int; method q() { if (B.x > 3) { B.x = 1; } } }",
     "Cart", ["Cart"], ["Cart.n > 2", "Cart.n <= 2"]),
    ("class A { field n: int; field xs: X[]; "
     "method m() { for C in 0 .. A.n { A.xs.[C].v = 1; } } } "
     "class C { field k: int; method q() { if (C.k > 0) { C.k = 1; } } } "
     "class X { field v: int; }",
     "A", ["A", "X"], ["A.n > 0 && A.xs.length == 0", "A.n > 0", "A.n <= 0"]),
], ids=["parameter", "loop-variable"])
def test_a_root_named_like_a_class_does_not_make_it_relevant(
        tmp_path, source, target, relevant, probes):
    """A parameter or loop variable named like a class does not make the
    class relevant, so ``extract`` explores none of its methods."""
    program = tmp_path / "p.mir"
    program.write_text(source)
    out = tmp_path / "afs.json"
    assert run_cli("extract", "--program", program, "--targets", target,
                   "--out", out) == 0
    afs, _ = load_af_list(out.read_text())
    assert json.loads(out.read_text())["header"]["relevant_classes"] == relevant
    assert [str(af) for af in afs] == probes


@pytest.mark.parametrize("cls", ["cart", "_A"])
def test_extract_refuses_a_class_that_reads_back_as_a_parameter(tmp_path, cls):
    """A term is written only if ``parse_term`` reads its text back as the
    same term, and the AF syntax reads only a capitalised root as a class."""
    program = tmp_path / "p.mir"
    program.write_text(f"class {cls} {{ field n: int; "
                       f"method add() {{ if ({cls}.n > 0) {{ {cls}.n = 1; }} }} }}")
    out = tmp_path / "afs.json"
    rc, err = run_cli_process("extract", "--program", program, "--out", out)
    assert_one_line_diagnostic(rc, err, "ValueError")
    assert json.loads(err)["message"].startswith(f"clause {cls}.n > 0 cannot be written")
    assert not out.exists()


def test_extract_undecidable_constant_guard_exits_2(workdir, capsys):
    src = workdir / "null_guard.mir"
    src.write_text("class A { field x: int; "
                   "method m() { if (null < 1) { A.x = 1; } } }")
    rc = run_cli("extract", "--program", src, "--out", workdir / "x.json")
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "SymexError"


def test_extract_local_call_with_a_missing_argument_exits_2(workdir):
    src = workdir / "arity.mir"
    src.write_text("class Box { field v: int; } class Shelf { field boxes: Box[]; "
                   "method peek() { call look(); } "
                   "method look(s: Shelf) { if (s.boxes.[0].v > 3) { return; } } }")
    rc, err = run_cli_process("extract", "--program", src, "--out", workdir / "x.json")
    assert_one_line_diagnostic(rc, err, "ArityError")
    assert not (workdir / "x.json").exists()


def test_extract_program_with_a_syntax_error_exits_2(workdir):
    src = workdir / "bad.mir"
    src.write_text("class A {\n  field x: int;\n  method m() { A.x = 1 }\n}\n")
    rc, err = run_cli_process("extract", "--program", src, "--out", workdir / "x.json")
    assert_one_line_diagnostic(rc, err, "IrSyntaxError")
    assert json.loads(err)["message"] == "3:24: expected ';' (got '}')"
    assert not (workdir / "x.json").exists()


def test_extract_unknown_target_exits_2(workdir, capsys):
    rc = run_cli("extract", "--program", workdir / "cart.mir",
                 "--targets", "Warehouse", "--out", workdir / "x.json")
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert "Warehouse" in err["message"]


@pytest.mark.parametrize("budget", ["nan", "inf"])
def test_extract_with_a_non_finite_time_budget_exits_2(workdir, capsys, budget):
    """Neither NaN nor Infinity is JSON, so no AF list may record one."""
    out = workdir / "x.json"
    rc = run_cli("extract", "--program", workdir / "cart.mir", "--targets", "Cart",
                 "--time-budget", budget, "--out", out)
    assert_one_line_diagnostic(rc, capsys.readouterr().err, "ValueError")
    assert not out.exists()


def test_extract_empty_program_warns(workdir, capsys):
    src = workdir / "empty.mir"
    src.write_text("")
    rc = run_cli("extract", "--program", src, "--out", workdir / "empty_afs.json")
    assert rc == 0
    assert "warning" in capsys.readouterr().err
    afs, _ = load_af_list((workdir / "empty_afs.json").read_text())
    assert afs == []


def test_profile_row_per_segment(workdir):
    out = workdir / "matrix.csv"
    rc = run_cli("profile", "--traces", workdir / "checkout.jsonl",
                 "--afs", workdir / "checkout_afs.json", "--out", out)
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    total_segments = sum(len(r.segments) for r in checkout_runs())
    assert len(lines) == 1 + total_segments
    assert lines[0].startswith("#run,#snapshot,")


def test_profile_abstracts_each_distinct_state_once(workdir, monkeypatch):
    calls = []
    monkeypatch.setattr(collect, "abstract_state", lambda afs, state: calls.append(
        state) or abstract_state(afs, state))
    out = workdir / "matrix.csv"
    assert run_cli("profile", "--traces", workdir / "editor.jsonl",
                   "--afs", workdir / "editor_afs.json", "--out", out) == 0
    monkeypatch.undo()
    runs = load_runs(workdir / "editor.jsonl")
    segments = [s for r in runs for s in r.segments]
    texts = {json.dumps(st.to_dict()) for s in segments
             for st in (s.pre_state, s.post_state)}
    assert len(calls) == len({id(st) for st in calls}) == len(texts) < len(segments)
    afs, _ = load_af_list((workdir / "editor_afs.json").read_text())
    rows = [abstract_state(afs, s.pre_state) for s in segments]
    assert out.read_text() == filtering.matrix_to_csv(filtering.EvalMatrix.from_rows(
        tuple(af.id for af in afs), rows,
        [(r.run_id, i) for r in runs for i in range(len(r.segments))],
        af_list_hash(afs)))


def test_profile_empty_traces_header_only(workdir, capsys):
    empty = workdir / "none.jsonl"
    empty.write_text("")
    out = workdir / "matrix0.csv"
    rc = run_cli("profile", "--traces", empty,
                 "--afs", workdir / "checkout_afs.json", "--out", out)
    assert rc == 0
    assert out.read_text().strip().splitlines() == ["#run,#snapshot,"
                                                    "Receipt.isOpen-F1,Cart.isEmpty-F1"]


@pytest.mark.parametrize("run_id,rc", [
    ("a,b", 2), ("c\nd", 2), ("e\rf", 2), ("x\x1cy", 0), ("p\u2028q", 0),
    ("s\x85t", 0)], ids=["comma", "newline", "carriage-return",
                         "file-separator", "line-separator", "next-line"])
def test_profile_writes_only_a_matrix_that_filter_reads(workdir, capsys, run_id, rc):
    runs = [dataclasses.replace(r, run_id=f"{run_id}{i}")
            for i, r in enumerate(checkout_runs())]
    dump_runs(runs, workdir / "renamed.jsonl")
    matrix, afs = workdir / "matrix.csv", workdir / "checkout_afs.json"
    assert run_cli("profile", "--traces", workdir / "renamed.jsonl",
                   "--afs", afs, "--out", matrix) == rc
    if rc:
        err = capsys.readouterr().err
        assert_one_line_diagnostic(rc, err, "MatrixError")
        assert repr(f"{run_id}0") in json.loads(err)["message"]
        assert not matrix.exists()
        return
    assert run_cli("filter", "--matrix", matrix, "--afs", afs,
                   "--out-kept", workdir / "kept.json",
                   "--out-report", workdir / "report.json") == 0
    read = filtering.matrix_from_csv(matrix.read_text())
    assert read.provenance == tuple((r.run_id, i) for r in runs
                                    for i in range(len(r.segments)))


def test_a_write_that_cannot_be_encoded_leaves_the_old_file(workdir, capsys):
    """A lone surrogate, which no UTF-8 writer can encode, fails the write
    before its file is opened: the matrix or DOT file already there keeps
    its bytes."""
    afs, matrix = workdir / "checkout_afs.json", workdir / "m.csv"
    assert run_cli("profile", "--traces", workdir / "checkout.jsonl",
                   "--afs", afs, "--out", matrix) == 0
    dump_runs([dataclasses.replace(r, run_id="\ud800") for r in checkout_runs()],
              workdir / "surrogate.jsonl")
    before = matrix.read_bytes()
    assert before
    rc = run_cli("profile", "--traces", workdir / "surrogate.jsonl",
                 "--afs", afs, "--out", matrix)
    assert_one_line_diagnostic(rc, capsys.readouterr().err, "UnicodeEncodeError")
    assert matrix.read_bytes() == before

    bursts, dot = workdir / "bursts.jsonl", workdir / "fsm.dot"
    assert run_cli("collect", "--traces", workdir / "checkout.jsonl", "--afs", afs,
                   "--probability", "1.0", "--out", bursts) == 0
    assert run_cli("synthesize", "--bursts", bursts, "--out", workdir / "fsm.json",
                   "--dot", dot) == 0
    read, header = loads_bursts(bursts.read_text())
    (workdir / "surrogate.jsonl").write_text(collect.dumps_bursts(
        [dataclasses.replace(b, label=b.label + "\ud800") for b in read],
        af_hash=header["af_hash"]))
    before = dot.read_bytes()
    rc = run_cli("synthesize", "--bursts", workdir / "surrogate.jsonl",
                 "--out", workdir / "fsm.json", "--dot", dot)
    assert_one_line_diagnostic(rc, capsys.readouterr().err, "UnicodeEncodeError")
    assert dot.read_bytes() == before


def _old_outputs(*paths: Path) -> dict[Path, bytes]:
    """Each path, written with bytes that no command writes."""
    for path in paths:
        path.write_bytes(b"old " + path.name.encode())
    return {path: path.read_bytes() for path in paths}


def _unchanged(old: dict[Path, bytes]) -> bool:
    return all(path.read_bytes() == data for path, data in old.items())


@pytest.mark.parametrize("report, error", [
    ("file/report.json", "FileExistsError"), ("dir", "IsADirectoryError")])
def test_a_filter_that_cannot_write_its_report_writes_no_kept_list(
        workdir, capsys, report, error):
    """The report's path lies under a file, or names a directory."""
    afs, matrix = workdir / "checkout_afs.json", workdir / "m.csv"
    assert run_cli("profile", "--traces", workdir / "checkout.jsonl",
                   "--afs", afs, "--out", matrix) == 0
    (workdir / "dir").mkdir()
    old = _old_outputs(workdir / "kept.json", workdir / "file")
    rc = run_cli("filter", "--matrix", matrix, "--afs", afs,
                 "--out-kept", workdir / "kept.json",
                 "--out-report", workdir / report)
    assert_one_line_diagnostic(rc, capsys.readouterr().err, error)
    assert _unchanged(old)


def test_a_synthesize_whose_dot_cannot_be_encoded_writes_no_model(workdir, capsys):
    bursts = workdir / "bursts.jsonl"
    afs = load_af_list((workdir / "checkout_afs.json").read_text())[0]
    bursts.write_text(collect.dumps_bursts(
        [dataclasses.replace(b, label=b.label + "\ud800") for b in
         collect.collect_cbr_bursts(checkout_runs(), afs,
                                    collect.SamplerConfig(1.0))],
        af_hash=af_list_hash(afs)))
    old = _old_outputs(workdir / "fsm.json", workdir / "fsm.dot")
    rc = run_cli("synthesize", "--bursts", bursts, "--out", workdir / "fsm.json",
                 "--dot", workdir / "fsm.dot")
    assert_one_line_diagnostic(rc, capsys.readouterr().err, "UnicodeEncodeError")
    assert _unchanged(old)


def test_an_evaluate_whose_report_cannot_be_encoded_writes_no_report(workdir, capsys):
    afs = workdir / "checkout_afs.json"
    assert run_cli("collect", "--traces", workdir / "checkout.jsonl", "--afs", afs,
                   "--probability", "1.0", "--out", workdir / "bursts.jsonl") == 0
    assert run_cli("synthesize", "--bursts", workdir / "bursts.jsonl",
                   "--out", workdir / "fsm.json") == 0
    runs = checkout_runs()
    dump_runs([dataclasses.replace(runs[0], run_id="\ud800"), *runs[1:]],
              workdir / "surrogate.jsonl")
    out = workdir / "reports"
    out.mkdir()
    old = _old_outputs(*(out / name for name in (
        "precision.json", "precision.csv", "recall.json", "recall.csv")))
    rc = run_cli("evaluate", "--fsm", workdir / "fsm.json",
                 "--traces", workdir / "surrogate.jsonl", "--afs", afs,
                 "--out-dir", out)
    assert_one_line_diagnostic(rc, capsys.readouterr().err, "UnicodeEncodeError")
    assert _unchanged(old)


def test_profile_rejects_an_af_id_with_a_comma(workdir, capsys):
    afs, matrix = workdir / "renamed_afs.json", workdir / "matrix.csv"
    for af_id in ("a,b", "c\nd", "e\rf"):
        first, *rest = checkout_abstraction_functions()
        afs.write_text(dump_af_list([dataclasses.replace(first, id=af_id), *rest]))
        assert run_cli("profile", "--traces", workdir / "checkout.jsonl",
                       "--afs", afs, "--out", matrix) == 2
        err = capsys.readouterr().err
        assert_one_line_diagnostic(2, err, "MatrixError")
        assert repr(af_id) in json.loads(err)["message"]
        assert not matrix.exists()


@pytest.mark.parametrize("damage", ["objects-not-a-table", "event-without-method",
                                    "bare-number"])
def test_profile_malformed_trace_exits_2(workdir, damage):
    lines = (workdir / "checkout.jsonl").read_text().splitlines()
    doc = json.loads(lines[1])
    if damage == "objects-not-a-table":
        doc["segment"]["pre_state"]["objects"] = [1]
        lines[1] = json.dumps(doc)
    elif damage == "event-without-method":
        del doc["segment"]["events"][0]["method"]
        lines[1] = json.dumps(doc)
    else:
        lines[1] = "5"
    bad = workdir / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    rc, err = run_cli_process("profile", "--traces", bad,
                              "--afs", workdir / "checkout_afs.json",
                              "--out", workdir / "m.csv")
    assert_one_line_diagnostic(rc, err, "TraceSchemaError")
    assert "record 2" in json.loads(err)["message"]


@pytest.mark.parametrize("kind", ["trace", "burst", "matrix"])
@pytest.mark.parametrize("space", ["\x0c", "\x1c", "\u2028", "\u00a0"],
                         ids=["form-feed", "file-separator", "line-separator",
                              "no-break-space"])
def test_a_line_of_other_than_json_whitespace_is_a_record(workdir, capsys,
                                                          kind, space):
    traces, afs, out = (workdir / "checkout.jsonl", workdir / "checkout_afs.json",
                        workdir / "out")
    source = workdir / "source"
    if kind == "trace":
        source = traces
    elif kind == "burst":
        assert run_cli("collect", "--traces", traces, "--afs", afs,
                       "--probability", "1.0", "--out", source) == 0
    else:
        assert run_cli("profile", "--traces", traces, "--afs", afs,
                       "--out", source) == 0
    argv = {"trace": ["profile", "--afs", afs, "--out", out, "--traces"],
            "burst": ["synthesize", "--out", out, "--bursts"],
            "matrix": ["filter", "--afs", afs, "--out-kept", out,
                       "--out-report", workdir / "report.json", "--matrix"]}[kind]
    error, start = (("MatrixError", "line 2: ") if kind == "matrix" else
                    ("TraceSchemaError", "record 2: invalid JSON"))
    lines = source.read_text().split("\n")
    lines.insert(1, space)
    bad = workdir / "bad"
    bad.write_text("\n".join(lines), encoding="utf-8")
    rc = run_cli(*argv, bad)
    err = capsys.readouterr().err
    assert_one_line_diagnostic(rc, err, error)
    assert json.loads(err)["message"].startswith(start)
    assert not out.exists()
    bad.write_text("\n".join(lines).replace(space, " \t\r"), encoding="utf-8")
    assert run_cli(*argv, bad) == 0


def _with_raw_cr(path: Path, record: int, old: str, new: str) -> Path:
    """A copy of a line-based file with ``old`` replaced by ``new``, which
    holds a raw CR, in record ``record`` (1-based)."""
    lines = path.read_bytes().decode("utf-8").split("\n")
    assert old in lines[record - 1]
    lines[record - 1] = lines[record - 1].replace(old, new, 1)
    bad = path.with_name("cr-" + path.name)
    bad.write_bytes("\n".join(lines).encode("utf-8"))
    return bad


def test_a_raw_cr_inside_a_trace_record_is_not_a_record_break(workdir):
    traces, afs = workdir / "checkout.jsonl", workdir / "checkout_afs.json"
    bad = _with_raw_cr(traces, 1, '{"run": ', '{"run":\r')
    assert load_runs(bad) == load_runs(traces)
    assert run_cli("profile", "--traces", traces, "--afs", afs,
                   "--out", workdir / "m.csv") == 0
    assert run_cli("profile", "--traces", bad, "--afs", afs,
                   "--out", workdir / "cr-m.csv") == 0
    assert sha(workdir / "cr-m.csv") == sha(workdir / "m.csv")


def test_a_raw_cr_inside_a_burst_record_is_not_a_record_break(workdir):
    bursts = workdir / "bursts.jsonl"
    assert run_cli("collect", "--traces", workdir / "checkout.jsonl",
                   "--afs", workdir / "checkout_afs.json",
                   "--probability", "1.0", "--out", bursts) == 0
    bad = _with_raw_cr(bursts, 2, '"pre": ', '"pre":\r')
    assert run_cli("synthesize", "--bursts", bursts,
                   "--out", workdir / "fsm.json") == 0
    assert run_cli("synthesize", "--bursts", bad,
                   "--out", workdir / "cr-fsm.json") == 0
    assert sha(workdir / "cr-fsm.json") == sha(workdir / "fsm.json")


@pytest.mark.parametrize("command,flag,document,error,missing", [
    ("profile", "--afs", {}, "ValueError", "functions"),
    ("profile", "--afs", {"functions": [{}]}, "ValueError", "id"),
    ("simulate", "--fsm", {"af_hash": "", "states": ["UU"]}, "ModelError",
     "transitions"),
], ids=["af-list-without-functions", "af-without-id", "model-without-transitions"])
def test_missing_key_exits_2(workdir, command, flag, document, error, missing):
    path = workdir / "doc.json"
    path.write_text(json.dumps(document))
    argv = {"profile": ["--traces", workdir / "checkout.jsonl",
                        "--out", workdir / "m.csv"],
            "simulate": ["--start", "UU", "--out", workdir / "sim.json"]}[command]
    rc, err = run_cli_process(command, flag, path, *argv)
    assert_one_line_diagnostic(rc, err, error)
    assert f"missing key '{missing}'" in json.loads(err)["message"]


def _af_list(**changes) -> dict:
    af = {"id": "C.m-F1", "class": "C", "method": "m",
          "clauses": [{"lhs": "C.x", "op": ">", "rhs": "1"}]}
    return {"functions": [{**af, **changes}]}


@pytest.mark.parametrize("command,flag,document,error,names", [
    ("profile", "--afs", {"functions": [5]}, "ValueError", "function 0"),
    ("profile", "--afs", {"functions": 5}, "ValueError", "'functions'"),
    ("simulate", "--fsm", {"af_hash": "", "states": [], "transitions": [5]},
     "ModelError", "transition 0"),
    ("simulate", "--fsm", {"af_hash": "", "states": [], "transitions": [
        {"label": "a", "from": "T", "to": "T", "traces": []},
        {"label": "b", "from": "T", "to": "T", "traces": 5}]},
     "ModelError", "transition 1"),
    ("simulate", "--fsm", {"af_hash": "", "states": [["U"]], "transitions": []},
     "ModelError", "state 0"),
    ("simulate", "--fsm", {"af_hash": "", "states": [], "transitions": [
        {"label": ["a"], "from": "T", "to": "T", "traces": []}]},
     "ModelError", "transition 0"),
    ("profile", "--afs", _af_list(clauses=[{"lhs": 5, "op": ">", "rhs": "1"}]),
     "ValueError", "function 0"),
    ("profile", "--afs", _af_list(clauses=5), "ValueError", "function 0"),
    ("profile", "--afs", _af_list(clauses=[5]), "ValueError", "function 0"),
    ("profile", "--afs", _af_list(id=["a"]), "ValueError", "function 0"),
    ("profile", "--afs", _af_list(clauses=[
        {"lhs": "C.x", "op": ">", "rhs": "1", "negated": "false"}]),
     "ValueError", "function 0"),
], ids=["af-entry-not-an-object", "af-functions-not-a-list",
        "transition-not-an-object", "traces-not-a-list", "state-not-a-string",
        "label-not-a-string", "clause-lhs-not-a-string", "clauses-not-a-list",
        "clause-not-an-object", "af-id-not-a-string", "negated-not-a-bool"])
def test_wrong_shape_exits_2(workdir, command, flag, document, error, names):
    path = workdir / "doc.json"
    path.write_text(json.dumps(document))
    argv = {"profile": ["--traces", workdir / "checkout.jsonl",
                        "--out", workdir / "m.csv"],
            "simulate": ["--start", "UU", "--out", workdir / "sim.json"]}[command]
    rc, err = run_cli_process(command, flag, path, *argv)
    assert_one_line_diagnostic(rc, err, error)
    assert names in json.loads(err)["message"]


def test_filter_golden_fixture(workdir):
    fixture = resources.files("burstmine.data").joinpath("filter_example.csv")
    matrix = workdir / "m.csv"
    matrix.write_text(fixture.read_text())
    # matching AF stubs named AF1..AF7
    from burstmine.functions import AbstractionFunction, Clause, IntTerm, parse_term
    afs = [AbstractionFunction(
        f"AF{i}", (Clause(parse_term("Cart.nProducts"), ">", IntTerm(i)),),
        ("Cart", "m", f"P{i}")) for i in range(1, 8)]
    (workdir / "all_afs.json").write_text(dump_af_list(afs))
    rc = run_cli("filter", "--matrix", matrix, "--afs", workdir / "all_afs.json",
                 "--out-kept", workdir / "kept.json",
                 "--out-report", workdir / "report.json")
    assert rc == 0
    kept, _ = load_af_list((workdir / "kept.json").read_text())
    assert [af.id for af in kept] == ["AF5", "AF7"]
    report = json.loads((workdir / "report.json").read_text())
    assert report["removed_counts"] == {
        "duplicated_rows": 1, "non_discriminating": 2,
        "equivalent": 1, "redundant": 2}


def test_collect_and_synthesize_and_evaluate(workdir):
    rc = run_cli("collect", "--traces", workdir / "checkout.jsonl",
                 "--afs", workdir / "checkout_afs.json",
                 "--probability", "1.0", "--seed", "3",
                 "--out", workdir / "bursts.jsonl")
    assert rc == 0
    bursts, header = loads_bursts((workdir / "bursts.jsonl").read_text())
    assert header["sampler"]["probability"] == 1.0
    assert len(bursts) == sum(len(r.segments) for r in checkout_runs())

    rc = run_cli("synthesize", "--bursts", workdir / "bursts.jsonl",
                 "--out", workdir / "fsm.json", "--dot", workdir / "fsm.dot")
    assert rc == 0
    fsm = import_fsm((workdir / "fsm.json").read_text())
    assert fsm.n_states == 3
    assert (workdir / "fsm.dot").read_text().startswith("digraph")

    rc = run_cli("evaluate", "--fsm", workdir / "fsm.json",
                 "--traces", workdir / "checkout.jsonl",
                 "--afs", workdir / "checkout_afs.json",
                 "--out-dir", workdir / "reports")
    assert rc == 0
    recall = json.loads((workdir / "reports" / "recall.json").read_text())
    assert recall["mean_recall"] == 1.0
    precision = json.loads((workdir / "reports" / "precision.json").read_text())
    assert precision["overall"] == 1.0


def test_evaluate_writes_a_recall_csv_that_reads_back_any_run_id(workdir):
    ids = ["a,b", 'q"x', "l\nm", "c\rd"]
    runs = [dataclasses.replace(r, run_id=run_id) for r, run_id in
            zip(generate_editor_runs(len(ids), master_seed=4), ids)]
    traces, afs = workdir / "renamed.jsonl", workdir / "editor_afs.json"
    dump_runs(runs, traces)
    assert run_cli("collect", "--traces", traces, "--afs", afs,
                   "--probability", "1.0", "--out", workdir / "bursts.jsonl") == 0
    assert run_cli("synthesize", "--bursts", workdir / "bursts.jsonl",
                   "--out", workdir / "fsm.json") == 0
    assert run_cli("evaluate", "--fsm", workdir / "fsm.json", "--traces", traces,
                   "--afs", afs, "--out-dir", workdir / "reports") == 0
    text = (workdir / "reports" / "recall.csv").read_bytes().decode("utf-8")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert [len(row) for row in rows] == [4] * (1 + len(ids))
    assert [row[0] for row in rows[1:]] == ids


def test_evaluate_compares_the_model_and_the_runs_by_event_identity(
        workdir, monkeypatch):
    assert run_cli("collect", "--traces", workdir / "editor.jsonl",
                   "--afs", workdir / "editor_afs.json", "--probability", "0.5",
                   "--out", workdir / "bursts.jsonl") == 0
    assert run_cli("synthesize", "--bursts", workdir / "bursts.jsonl",
                   "--out", workdir / "fsm.json") == 0
    calls = []
    eq = collect.MethodCall.__eq__
    monkeypatch.setattr(collect.MethodCall, "__eq__",
                        lambda a, b: calls.append(1) or eq(a, b))
    assert run_cli("evaluate", "--fsm", workdir / "fsm.json",
                   "--traces", workdir / "editor.jsonl",
                   "--afs", workdir / "editor_afs.json",
                   "--out-dir", workdir / "reports") == 0
    assert not calls
    recall = json.loads((workdir / "reports" / "recall.json").read_text())
    assert 0 < recall["mean_recall"] < 1


def test_evaluate_shares_an_event_written_with_and_without_empty_params(
        workdir, monkeypatch):
    assert run_cli("collect", "--traces", workdir / "checkout.jsonl",
                   "--afs", workdir / "checkout_afs.json", "--probability", "1.0",
                   "--out", workdir / "bursts.jsonl") == 0
    assert run_cli("synthesize", "--bursts", workdir / "bursts.jsonl",
                   "--out", workdir / "fsm.json") == 0
    doc = json.loads((workdir / "fsm.json").read_text())
    bare = [e for t in doc["transitions"] for trace in t["traces"] for e in trace
            if e["params"] == []]
    for e in bare:
        del e["params"]
    assert bare and '"params": []' in (workdir / "checkout.jsonl").read_text()
    (workdir / "fsm.json").write_text(json.dumps(doc))
    calls = []
    eq = collect.MethodCall.__eq__
    monkeypatch.setattr(collect.MethodCall, "__eq__",
                        lambda a, b: calls.append(1) or eq(a, b))
    assert run_cli("evaluate", "--fsm", workdir / "fsm.json",
                   "--traces", workdir / "checkout.jsonl",
                   "--afs", workdir / "checkout_afs.json",
                   "--out-dir", workdir / "reports") == 0
    assert not calls
    recall = json.loads((workdir / "reports" / "recall.json").read_text())
    assert recall["mean_recall"] == 1.0


def test_collect_p_zero_warns_and_evaluates_empty(workdir, capsys):
    rc = run_cli("collect", "--traces", workdir / "checkout.jsonl",
                 "--afs", workdir / "checkout_afs.json",
                 "--probability", "0.0", "--seed", "1",
                 "--out", workdir / "none.jsonl")
    assert rc == 0
    assert "warning" in capsys.readouterr().err
    rc = run_cli("synthesize", "--bursts", workdir / "none.jsonl",
                 "--out", workdir / "empty_fsm.json")
    assert rc == 0
    rc = run_cli("evaluate", "--fsm", workdir / "empty_fsm.json",
                 "--traces", workdir / "checkout.jsonl",
                 "--afs", workdir / "checkout_afs.json",
                 "--out-dir", workdir / "empty_reports")
    assert rc == 0
    recall = json.loads((workdir / "empty_reports" / "recall.json").read_text())
    assert recall["mean_recall"] == 0.0
    precision = json.loads((workdir / "empty_reports" / "precision.json").read_text())
    assert precision["overall"] is None


def test_empty_model_keeps_af_binding(workdir, capsys):
    rc = run_cli("collect", "--traces", workdir / "checkout.jsonl",
                 "--afs", workdir / "checkout_afs.json",
                 "--probability", "0.0", "--seed", "1",
                 "--out", workdir / "none.jsonl")
    assert rc == 0
    rc = run_cli("synthesize", "--bursts", workdir / "none.jsonl",
                 "--out", workdir / "empty_fsm.json")
    assert rc == 0
    fsm = import_fsm((workdir / "empty_fsm.json").read_text())
    assert fsm.af_hash == af_list_hash(checkout_abstraction_functions())
    capsys.readouterr()
    rc = run_cli("evaluate", "--fsm", workdir / "empty_fsm.json",
                 "--traces", workdir / "checkout.jsonl",
                 "--afs", workdir / "editor_afs.json",
                 "--out-dir", workdir / "bad_reports")
    assert rc == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1  # no empty-model warning before the error
    assert json.loads(lines[0])["error"] == "ModelError"


def test_collect_fixed_length_mode(workdir):
    rc = run_cli("collect", "--traces", workdir / "editor.jsonl",
                 "--mode", "fixed_length", "--probability", "0.5", "--seed", "2",
                 "--out", workdir / "baseline.jsonl")
    assert rc == 0
    lines = (workdir / "baseline.jsonl").read_text().strip().splitlines()
    header = json.loads(lines[0])["header"]
    assert header["sampler"]["mode"] == "fixed_length"
    for line in lines[1:]:
        doc = json.loads(line)
        assert 0 < len(doc["trace"]) <= 30


def test_simulate_from_fsm(workdir):
    run_cli("collect", "--traces", workdir / "checkout.jsonl",
            "--afs", workdir / "checkout_afs.json", "--probability", "1.0",
            "--seed", "0", "--out", workdir / "b.jsonl")
    run_cli("synthesize", "--bursts", workdir / "b.jsonl",
            "--out", workdir / "f.json")
    rc = run_cli("simulate", "--fsm", workdir / "f.json", "--start", "UU",
                 "--max-hops", "2", "--out", workdir / "sim.json")
    assert rc == 0
    doc = json.loads((workdir / "sim.json").read_text())
    assert any(d["labels"] == ["clickOnAddItem", "clickOnPay"] for d in doc)


def _simulate_one_state(workdir, *bound) -> int:
    (workdir / "f.json").write_text(json.dumps(
        {"af_hash": "", "states": ["UU"], "transitions": []}))
    return run_cli("simulate", "--fsm", workdir / "f.json", "--start", "UU",
                   *bound, "--out", workdir / "sim.json")


@pytest.mark.parametrize("flag,value,floor", [
    ("--max-hops", "-1", "0"), ("--budget", "0", "1"), ("--budget", "-3", "1")])
def test_simulate_bound_below_its_floor_exits_2(workdir, capsys, flag, value,
                                                floor):
    assert_one_line_diagnostic(_simulate_one_state(workdir, flag, value),
                               capsys.readouterr().err, "ModelError")
    assert not (workdir / "sim.json").exists()
    assert _simulate_one_state(workdir, flag, floor) == 0


def test_evaluate_hash_mismatch_exits_2(workdir, capsys):
    run_cli("collect", "--traces", workdir / "checkout.jsonl",
            "--afs", workdir / "checkout_afs.json", "--probability", "1.0",
            "--seed", "0", "--out", workdir / "b2.jsonl")
    run_cli("synthesize", "--bursts", workdir / "b2.jsonl",
            "--out", workdir / "f2.json")
    rc = run_cli("evaluate", "--fsm", workdir / "f2.json",
                 "--traces", workdir / "checkout.jsonl",
                 "--afs", workdir / "editor_afs.json",
                 "--out-dir", workdir / "bad_reports")
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ModelError"


def test_evaluate_hash_mismatch_without_segments_exits_2(workdir, capsys):
    # the guard holds even when no run has a segment to abstract
    run_cli("collect", "--traces", workdir / "checkout.jsonl",
            "--afs", workdir / "checkout_afs.json", "--probability", "1.0",
            "--seed", "0", "--out", workdir / "b3.jsonl")
    run_cli("synthesize", "--bursts", workdir / "b3.jsonl",
            "--out", workdir / "f3.json")
    empty_runs = workdir / "empty_runs.jsonl"
    empty_runs.write_text(json.dumps({"run": "r1"}) + "\n")
    rc = run_cli("evaluate", "--fsm", workdir / "f3.json",
                 "--traces", empty_runs, "--afs", workdir / "editor_afs.json",
                 "--out-dir", workdir / "bad_reports3")
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ModelError"


def test_collect_matches_library(workdir):
    from burstmine.collect import SamplerConfig, collect_cbr_bursts
    rc = run_cli("collect", "--traces", workdir / "editor.jsonl",
                 "--afs", workdir / "editor_afs.json",
                 "--probability", "0.4", "--seed", "11",
                 "--out", workdir / "lib_cmp.jsonl")
    assert rc == 0
    via_cli, _ = loads_bursts((workdir / "lib_cmp.jsonl").read_text())
    via_lib = collect_cbr_bursts(generate_editor_runs(6, master_seed=4),
                                 editor_abstraction_functions(),
                                 SamplerConfig(0.4, 11))
    assert via_cli == via_lib


def test_sweep_matches_library(workdir):
    out = workdir / "sweep.csv"
    rc = run_cli("sweep", "--traces", workdir / "editor.jsonl",
                 "--afs", workdir / "editor_afs.json",
                 "--probabilities", "0.5,1.0", "--run-counts", "2,6",
                 "--sweep-seeds", "0,1", "--out", out)
    assert rc == 0
    runs = generate_editor_runs(6, master_seed=4)
    expected = run_sweep(runs, editor_abstraction_functions(),
                         [0.5, 1.0], [2, 6], [0, 1])
    assert out.read_text() == expected.to_csv()


def test_config_file_supplies_defaults(workdir):
    config = {
        "program": str(workdir / "cart.mir"),
        "targets": "Cart",
        "bounds": {"max_branches_per_path": 10},
    }
    cfg_path = workdir / "pipeline.json"
    cfg_path.write_text(json.dumps(config))
    rc = run_cli("extract", "--config", cfg_path, "--out", workdir / "c_afs.json")
    assert rc == 0
    afs, _ = load_af_list((workdir / "c_afs.json").read_text())
    assert len(afs) == 14


_SWEEP = {"probabilities": [0.5], "n_runs": [2], "seeds": [0]}


@pytest.mark.parametrize("command,config,names", [
    ("collect", [1], "JSON object"),
    ("extract", {"bounds": {"max_depth": 3}}, "'bounds.max_depth'"),
    ("extract", {"bounds": 5}, "'bounds'"),
    ("sweep", {"sweep": {"probabilities": 5, "n_runs": [2], "seeds": [0]}},
     "'sweep.probabilities'"),
    ("collect", {"sampler": {"probability": [1]}}, "'sampler.probability'"),
    ("extract", {"program": 5}, "'program'"),
    ("extract", {"targets": 5}, "'targets'"),
    ("extract", {"targets": [["Cart"]]}, "'targets'"),
    ("collect", {"afs": 0}, "'afs'"),
    ("profile", {"traces": 0}, "'traces'"),
    ("extract", {"bounds": {"max_states": True}}, "'bounds.max_states'"),
    ("collect", {"sampler": {"rng_seed": 1.5}}, "'sampler.rng_seed'"),
    ("collect", {"sampler": {"seed": 1}}, "'sampler.seed'"),
    ("sweep", {"sweep": {**_SWEEP, "step": 1}}, "'sweep.step'"),
    ("sweep", {"sweep": {**_SWEEP, "seeds": [float("inf")]}}, "'sweep.seeds'"),
    ("sweep", {"sweep": {**_SWEEP, "n_runs": [1.5]}}, "'sweep.n_runs'"),
    ("sweep", {"sweep": {**_SWEEP, "seeds": [0.7]}}, "'sweep.seeds'"),
    ("sweep", {"sweep": {**_SWEEP, "seeds": [True]}}, "'sweep.seeds'"),
    ("extract", {"targets": None}, "'targets'"),
    ("extract", {"bounds": {"max_loop_unrollings": 1.5}}, "'bounds.max_loop_unrollings'"),
    ("extract", {"bounds": {"max_states": 2.5}}, "'bounds.max_states'"),
], ids=["config-not-an-object", "unknown-bound", "bounds-not-an-object",
        "sweep-axis-not-a-list", "sampler-value-a-list", "program-not-a-string",
        "targets-a-number", "targets-nested-list", "afs-a-number",
        "traces-a-number", "bound-a-bool", "rng-seed-not-an-integer",
        "unknown-sampler-key", "unknown-sweep-key", "sweep-axis-not-finite",
        "run-count-not-an-integer", "sweep-seed-not-an-integer",
        "sweep-seed-a-bool", "targets-null", "unroll-bound-not-an-integer",
        "state-bound-not-an-integer"])
def test_malformed_config_exits_2(workdir, command, config, names):
    path = workdir / "config.json"
    path.write_text(json.dumps(config))
    traces = {"traces": workdir / "editor.jsonl", "afs": workdir / "editor_afs.json"}
    inputs = {"collect": traces, "profile": traces, "sweep": traces,
              "extract": {"program": workdir / "cart.mir"}}[command]
    argv = [arg for key, value in inputs.items() if key not in config
            for arg in (f"--{key}", value)]
    rc, err = run_cli_process(command, "--config", path, *argv,
                              "--out", workdir / "out")
    assert_one_line_diagnostic(rc, err, "usage")
    assert names in json.loads(err)["message"]


@pytest.fixture(scope="module")
def full_config(tmp_path_factory):
    """A directory and a config that supplies every input of every command."""
    d = tmp_path_factory.mktemp("config")
    (d / "cart.mir").write_text(cart_source())
    dump_runs(checkout_runs(), d / "traces.jsonl")
    (d / "afs.json").write_text(dump_af_list(checkout_abstraction_functions()))
    files = {key: str(d / name) for key, name in (
        ("program", "cart.mir"), ("traces", "traces.jsonl"), ("afs", "afs.json"),
        ("matrix", "matrix.csv"), ("bursts", "bursts.jsonl"), ("fsm", "fsm.json"))}
    inputs = ["--traces", files["traces"], "--afs", files["afs"]]
    assert run_cli("profile", *inputs, "--out", files["matrix"]) == 0
    assert run_cli("collect", *inputs, "--out", files["bursts"]) == 0
    assert run_cli("synthesize", "--bursts", files["bursts"],
                   "--out", files["fsm"]) == 0
    config = {**files, "targets": "Cart",
              "bounds": {"max_branches_per_path": 10, "max_states": 1000,
                         "per_method_time_budget": 60.0,
                         "max_loop_unrollings": 1},
              "sampler": {"probability": 0.5, "rng_seed": 1, "mode": "cbr",
                          "fixed_length": 5},
              "sweep": {"probabilities": [0.5, 1.0], "n_runs": [1, 2],
                        "seeds": [0]}}
    start = min(import_fsm(Path(files["fsm"]).read_text()).states)
    return d, config, start


# The config keys each command reads; a dotted key is one value of a section.
_COMMAND_KEYS = {
    "extract": ["program", "targets", "bounds", "bounds.max_branches_per_path",
                "bounds.max_states", "bounds.per_method_time_budget",
                "bounds.max_loop_unrollings"],
    "profile": ["traces", "afs"],
    "filter": ["matrix", "afs"],
    "collect": ["traces", "afs", "sampler", "sampler.probability",
                "sampler.rng_seed", "sampler.mode", "sampler.fixed_length"],
    "synthesize": ["bursts"],
    "simulate": ["fsm"],
    "evaluate": ["fsm", "traces", "afs"],
    "sweep": ["traces", "afs", "sweep", "sweep.probabilities", "sweep.n_runs",
              "sweep.seeds"],
}
_PATH_KEYS = {"program", "traces", "afs", "matrix", "bursts", "fsm"}
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=6)


def _run_with_config(directory: Path, command: str, config: dict, start: str):
    path = directory / "config.json"
    path.write_text(json.dumps(config))
    argv = [command, "--config", path, "--out-dir", directory / "out"]
    if command == "simulate":
        argv += ["--start", start]
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        rc = run_cli(*argv)
    return rc, stderr.getvalue().splitlines()


def test_config_supplies_every_input(full_config):
    directory, config, start = full_config
    for command in _COMMAND_KEYS:
        rc, err = _run_with_config(directory, command, config, start)
        assert rc == 0, (command, err)


@st.composite
def _config_edits(draw):
    command, key = draw(st.sampled_from(
        [(c, k) for c, keys in _COMMAND_KEYS.items() for k in keys]))
    # A path is drawn as a string only: an integer path names a file
    # descriptor, which an in-process run would read (the subprocess cases
    # of test_malformed_config_exits_2 cover those).
    value = draw(st.text(max_size=12) if key in _PATH_KEYS else _JSON)
    return command, key, value


@settings(max_examples=60, deadline=None)
@given(edit=_config_edits())
def test_any_config_value_exits_0_or_2(full_config, edit):
    directory, config, start = full_config
    command, key, value = edit
    config = json.loads(json.dumps(config))
    section, _, name = key.rpartition(".")
    (config[section] if section else config)[name] = value
    rc, err = _run_with_config(directory, command, config, start)
    assert rc in (0, 2)
    if rc == 2:
        assert len(err) == 1
        assert "error" in json.loads(err[0])


def _chain(workdir: Path, out_dir: Path) -> list[list[str]]:
    """Every command in order, each writing into ``out_dir``."""
    steps = [
        ["extract", "--program", workdir / "cart.mir",
         "--targets", "Cart", "--out", out_dir / "afs.json"],
        ["profile", "--traces", workdir / "checkout.jsonl",
         "--afs", workdir / "checkout_afs.json", "--out", out_dir / "matrix.csv"],
        ["collect", "--traces", workdir / "editor.jsonl",
         "--afs", workdir / "editor_afs.json", "--probability", "0.5",
         "--seed", "9", "--out", out_dir / "bursts.jsonl"],
        ["synthesize", "--bursts", out_dir / "bursts.jsonl",
         "--out", out_dir / "fsm.json", "--dot", out_dir / "fsm.dot"],
        ["simulate", "--fsm", out_dir / "fsm.json", "--start", "UUUUUU",
         "--max-hops", "2", "--budget", "200", "--out", out_dir / "sim.json"],
        ["evaluate", "--fsm", out_dir / "fsm.json",
         "--traces", workdir / "editor.jsonl",
         "--afs", workdir / "editor_afs.json", "--out-dir", out_dir],
        ["sweep", "--traces", workdir / "editor.jsonl",
         "--afs", workdir / "editor_afs.json", "--probabilities", "0.5,1.0",
         "--run-counts", "2,6", "--sweep-seeds", "0",
         "--out", out_dir / "sweep.csv"],
    ]
    return [[str(a) for a in argv] for argv in steps]


def _digests(out_dir: Path) -> dict:
    return {p.name: sha(p) for p in sorted(out_dir.iterdir())}


def test_every_command_is_byte_reproducible(workdir):
    """Run the whole pipeline twice into separate directories and compare
    output hashes (acceptance criterion: bit-identical re-runs)."""
    def pipeline(out_dir: Path) -> dict:
        out_dir.mkdir()
        for argv in _chain(workdir, out_dir):
            assert run_cli(*argv) == 0, argv[0]
        return _digests(out_dir)

    first = pipeline(workdir / "run_a")
    second = pipeline(workdir / "run_b")
    assert first == second


# Runs every command of a JSON list of argvs through one ``cli.main``.
_RUN_CHAIN = """
import json, sys
from burstmine.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} exited nonzero")
"""


def test_every_command_writes_the_same_bytes_under_any_hash_seed(workdir):
    src = Path(__file__).resolve().parent.parent / "src"
    digests = []
    for seed in ("1", "2"):
        out_dir = workdir / f"hash_seed_{seed}"
        out_dir.mkdir()
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        proc = subprocess.run(
            [sys.executable, "-c", _RUN_CHAIN, json.dumps(_chain(workdir, out_dir))],
            stdin=subprocess.DEVNULL, env=env, capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(_digests(out_dir))
    assert len(digests[0]) == 11 and digests[0] == digests[1]


def test_negative_sweep_run_count_exits_2(workdir, capsys):
    rc = run_cli("sweep", "--traces", workdir / "editor.jsonl",
                 "--afs", workdir / "editor_afs.json", "--probabilities", "0.5",
                 "--run-counts=-2,1", "--sweep-seeds", "0",
                 "--out", workdir / "sweep.csv")
    assert_one_line_diagnostic(rc, capsys.readouterr().err, "ValueError")


def test_a_repeated_sweep_seed_exits_2(workdir, capsys):
    out = workdir / "sweep.csv"
    rc = run_cli("sweep", "--traces", workdir / "editor.jsonl",
                 "--afs", workdir / "editor_afs.json", "--probabilities", "0.5",
                 "--run-counts", "1", "--sweep-seeds", "0,0", "--out", out)
    assert_one_line_diagnostic(rc, capsys.readouterr().err, "ValueError")
    assert not out.exists()


def _deep_inputs(directory: Path) -> dict:
    """Inputs that each nest deeper than the interpreter's recursion limit."""
    assignments = "\n".join("    A.x = 1;" for _ in range(1500))
    guard = "(" * 2000 + "A.x > 0" + ")" * 2000
    files = {
        "sequential.mir": f"class A {{\n  field x: int;\n  method m() {{\n"
                          f"{assignments}\n  }}\n}}\n",
        "parenthesised.mir": "class A {\n  field x: int;\n  method m() {\n"
                             f"    if ({guard}) {{ A.x = 1; }}\n  }}\n}}\n",
        "nested.jsonl": '{"run": "r1"}\n' + "[" * 100_000 + "]" * 100_000 + "\n",
    }
    for name, text in files.items():
        (directory / name).write_text(text)
    return {name: directory / name for name in files}


@pytest.mark.parametrize("case", ["sequential-assignments", "nested-guard",
                                  "nested-trace-line"])
def test_deep_recursion_exits_2(workdir, case):
    deep = _deep_inputs(workdir)
    argv = {
        "sequential-assignments": ["extract", "--program", deep["sequential.mir"]],
        "nested-guard": ["extract", "--program", deep["parenthesised.mir"]],
        "nested-trace-line": ["profile", "--traces", deep["nested.jsonl"],
                              "--afs", workdir / "checkout_afs.json"],
    }[case]
    rc, err = run_cli_process(*argv, "--out-dir", workdir / "out")
    assert_one_line_diagnostic(rc, err, "RecursionError")


def test_a_walk_of_3000_hops_simulates(workdir):
    """The checkout model has a cycle from FF; a walk three times as long as
    the recursion limit is walked, within a budget of one walk."""
    assert run_cli("collect", "--traces", workdir / "checkout.jsonl",
                   "--afs", workdir / "checkout_afs.json",
                   "--out", workdir / "b.jsonl") == 0
    assert run_cli("synthesize", "--bursts", workdir / "b.jsonl",
                   "--out", workdir / "fsm.json") == 0
    rc, err = run_cli_process("simulate", "--fsm", workdir / "fsm.json",
                              "--start", "FF", "--max-hops", "3000", "--budget", "1",
                              "--out", workdir / "walk.json")
    assert (rc, err) == (0, "")
    (walk,) = json.loads((workdir / "walk.json").read_text())
    assert len(walk["segments"]) == 3000


# --- every file the pipeline reads, damaged ------------------------------------------

# The subcommands that read each input file, and the files each one reads.
_READERS = {"traces": ["profile", "collect", "evaluate", "sweep"],
            "bursts": ["synthesize"],
            "fsm": ["simulate", "evaluate"],
            "afs": ["profile", "filter", "collect", "evaluate", "sweep"]}
_COMMAND_FILES = {"profile": ["traces", "afs"], "filter": ["matrix", "afs"],
                  "collect": ["traces", "afs"], "synthesize": ["bursts"],
                  "simulate": ["fsm"], "evaluate": ["fsm", "traces", "afs"],
                  "sweep": ["traces", "afs"]}


def _run_on(files: dict, command: str, out: Path, start: str):
    argv = [command, "--out-dir", out]
    for key in _COMMAND_FILES[command]:
        argv += [f"--{key}", files[key]]
    argv += {"simulate": ["--start", start, "--max-hops", "2"],
             "sweep": ["--probabilities", "0.5,1.0", "--run-counts", "1,2",
                       "--sweep-seeds", "0"]}.get(command, [])
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        rc = run_cli(*argv)
    return rc, stderr.getvalue().splitlines()


def _read_doc(path: Path, jsonl: bool):
    text = path.read_text()
    return [json.loads(line) for line in text.splitlines()] if jsonl else json.loads(text)


def _node_paths(node, path=()):
    yield path
    children = (node.items() if isinstance(node, dict) else
                enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _node_paths(child, path + (key,))


@pytest.mark.parametrize("kind,change,names", [
    ("fsm", lambda doc: doc.update(af_hash=5), "'af_hash'"),
    ("fsm", lambda doc: doc["states"].append("QQ"), "state 3"),
    ("fsm", lambda doc: doc.update(states=["FF"]), "transition 0"),
    ("bursts", lambda doc: doc[1].update(trace={}), "record 2"),
    ("traces", lambda doc: doc[1]["segment"]["post_state"]["objects"]
     ["c1"].update({"class": 5}), "record 2"),
    ("afs", lambda doc: doc.update(header=5), "'header'"),
    ("fsm", lambda doc: doc["transitions"].insert(1, doc["transitions"][0]),
     "transition 1 repeats an earlier"),
    ("fsm", lambda doc: doc["transitions"][0]["traces"].append(
        doc["transitions"][0]["traces"][0]), "transition 0 repeats a trace"),
], ids=["model-af-hash-a-number", "model-state-outside-tfu",
        "model-endpoint-not-a-state", "burst-trace-an-object",
        "object-class-not-a-string", "af-list-header-not-an-object",
        "model-transition-repeated", "model-trace-repeated"])
def test_newly_rejected_input_exits_2(full_config, tmp_path, kind, change, names):
    directory, config, start = full_config
    jsonl = kind in ("traces", "bursts")
    doc = _read_doc(Path(config[kind]), jsonl)
    change(doc)
    damaged = tmp_path / f"damaged-{kind}"
    damaged.write_text("\n".join(map(json.dumps, doc)) if jsonl else json.dumps(doc))
    for command in _READERS[kind]:
        rc, err = _run_on({**config, kind: damaged}, command, tmp_path, start)
        assert rc == 2 and len(err) == 1, (command, err)
        assert names in json.loads(err[0])["message"]


def _burst(pre: str, post: str) -> dict:
    return {"label": "op", "pre": pre, "trace": [], "post": post}


@pytest.mark.parametrize("kind,document,message", [
    ("bursts", [_burst("T", "TF")],
     "record 2: burst 'post' has width 2, but the first burst's 'pre' has width 1"),
    ("bursts", [_burst("", "")], "record 2: burst 'pre' is empty"),
    ("bursts", [_burst("TF", "FT"), _burst("TF", "F")],
     "record 3: burst 'post' has width 1, but the first burst's 'pre' has width 2"),
    ("fsm", {"states": ["T", "TF"], "transitions": []},
     "model state 1 has width 2, but model state 0 has width 1"),
    ("fsm", {"states": ["", "T"], "transitions": []}, "model state 0 is empty"),
], ids=["burst-wider-post", "burst-empty-states", "burst-narrower-later",
        "model-wider-state", "model-empty-state"])
def test_states_of_two_widths_exit_2(tmp_path, capsys, kind, document, message):
    """No AF list gives an empty state, or states of two widths."""
    path = tmp_path / kind
    if kind == "bursts":
        path.write_text("\n".join(map(json.dumps, [{"header": {}}, *document])))
        argv = ["synthesize", "--bursts", path]
    else:
        path.write_text(json.dumps(document))
        argv = ["simulate", "--fsm", path, "--start", "T"]
    rc = run_cli(*argv, "--out-dir", tmp_path / "out")
    err = capsys.readouterr().err
    assert_one_line_diagnostic(rc, err, "TraceSchemaError" if kind == "bursts"
                               else "ModelError")
    assert json.loads(err)["message"] == message


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_any_damaged_input_exits_0_or_2(full_config, data):
    """Replace one node of a valid input with any JSON value, or delete one
    key; every subcommand that reads the file exits 0, or 2 with one line."""
    directory, config, start = full_config
    kind = data.draw(st.sampled_from(sorted(_READERS)))
    jsonl = kind in ("traces", "bursts")
    doc = _read_doc(Path(config[kind]), jsonl)
    path = data.draw(st.sampled_from([p for p in _node_paths(doc) if p or not jsonl]))
    parent = functools.reduce(operator.getitem, path[:-1], doc)
    if path and isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    elif path:
        parent[path[-1]] = data.draw(_JSON)
    else:
        doc = data.draw(_JSON)
    damaged = directory / f"damaged-{kind}"
    damaged.write_text("\n".join(map(json.dumps, doc)) if jsonl else json.dumps(doc))
    for command in _READERS[kind]:
        rc, err = _run_on({**config, kind: damaged}, command, directory / "out", start)
        assert rc in (0, 2), command
        if rc == 2:
            assert len(err) == 1 and "error" in json.loads(err[0]), (command, err)


@pytest.mark.parametrize("kind,old,error,record", [
    ("traces", b'"label": "', "TraceSchemaError", "record 3"),
    ("bursts", b'"label": "', "TraceSchemaError", "record 3"),
    ("matrix", b",", "MatrixError", "line 3"),
], ids=["traces", "bursts", "matrix"])
def test_a_byte_that_is_not_utf8_fails_at_its_line(full_config, tmp_path, kind,
                                                   old, error, record):
    """A 0xff byte in one line of a line file fails at that line in every
    command that reads the file."""
    _, config, start = full_config
    lines = Path(config[kind]).read_bytes().split(b"\n")
    lines[2] = lines[2].replace(old, old + b"\xff", 1)
    at = lines[2].index(b"\xff")
    damaged = tmp_path / f"damaged-{kind}"
    damaged.write_bytes(b"\n".join(lines))
    for command in {**_READERS, "matrix": ["filter"]}[kind]:
        rc, err = _run_on({**config, kind: damaged}, command, tmp_path / "out",
                          start)
        assert rc == 2 and len(err) == 1, (command, err)
        assert json.loads(err[0]) == {
            "error": error,
            "message": f"{record}: not UTF-8 at byte {at} of the line: "
                       "invalid start byte"}, command


def test_a_byte_that_is_not_utf8_exits_2_with_one_line(full_config, tmp_path):
    """A 0xff byte in an input that is not a line file, or in the config,
    exits 2 with one JSON line."""
    _, config, start = full_config
    for key, command in [("afs", "profile"), ("fsm", "simulate"),
                         ("program", "extract"), ("config", "extract")]:
        damaged = tmp_path / f"damaged-{key}"
        source = Path(config["afs" if key == "config" else key]).read_bytes()
        damaged.write_bytes(source[:20] + b"\xff" + source[20:])
        rc, err = run_cli_process(command, f"--{key}", damaged, "--out-dir",
                                  tmp_path / "out", *(["--start", start] if
                                                      command == "simulate" else []))
        assert_one_line_diagnostic(rc, err, "UnicodeDecodeError")
        assert "0xff" in json.loads(err)["message"], key
