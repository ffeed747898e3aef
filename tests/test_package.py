"""The package's public names, its import graph, and the stage functions
the benchmark's tracer finds however the CLI binds their modules."""

import ast
import graphlib
import importlib
from pathlib import Path

import pytest

import burstmine
from perfbench import tracing


def test_every_public_name_is_its_home_modules_object():
    star: dict = {}
    exec("from burstmine import *", star)
    for name in burstmine.__all__:
        obj = getattr(burstmine, name)
        assert obj.__module__.startswith("burstmine."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj
        assert star[name] is obj
    assert set(burstmine.__all__) <= set(dir(burstmine))
    with pytest.raises(AttributeError, match="'burstmine' has no attribute 'nope'"):
        burstmine.nope


def test_the_tracer_sees_every_stage_the_cli_calls():
    """``perfbench.tracing`` finds a call the CLI makes through a module
    alias; a per-layer metric reads 0 for a stage it does not find."""
    spans = {tracing.span_name(fn) for _, _, fn in tracing.boundary_functions()}
    assert {"symex.extract_abstraction_functions", "ir.parse_program",
            "ir.detect_relevant_classes", "filtering.filter_functions",
            "filtering.matrix_from_csv", "metrics.evaluate", "metrics.run_sweep",
            "model.import_fsm", "model.synthesize"} <= spans


PACKAGE = Path(burstmine.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _sibling_imports(module: str) -> set[str]:
    """The package modules that ``module``'s source imports, at module level
    or inside a function."""
    found = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_bytes())):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            found.update([node.module.partition(".")[0]] if node.module
                         else (alias.name for alias in node.names))
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            root, _, rest = (node.module or "").partition(".")
            if root == "burstmine":
                found.update([rest.partition(".")[0]] if rest
                             else (alias.name for alias in node.names))
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("burstmine."))
    return found & MODULES


IMPORTS = {module: _sibling_imports(module) for module in sorted(MODULES)}


def test_the_package_import_graph_has_no_cycle():
    try:
        tuple(graphlib.TopologicalSorter(IMPORTS).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")


def test_only_symex_imports_the_ir_and_terms_need_no_stage_module():
    """Reading an AF list runs no stage module: ``functions`` imports only
    ``schema``.  The CLI binds ``ir`` lazily, by name."""
    assert [m for m, imported in IMPORTS.items() if "ir" in imported] == ["symex"]
    assert IMPORTS["functions"] == {"schema"}
