"""The package's public names, and the stage functions the benchmark's tracer
finds however the CLI binds their modules."""

import importlib

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
