"""burstmine: state-annotated burst tracing and behavior-model mining.

The pipeline derives ternary state probes (abstraction functions) from a
program by bounded symbolic execution, minimizes them against training
evaluations, samples state-bracketed bursts of method calls synchronously
with user operations, joins the bursts into an annotated finite-state model,
and scores the model's precision and recall against full original runs.

The public names are loaded lazily (PEP 562): ``from burstmine import X``
imports only X's home module, so a command that never extracts never runs
``symex``.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.
_HOME = {name: module for module, names in {
    "collect": ("Burst", "MethodCall", "OperationSegment", "Run", "SamplerConfig",
                "collect_cbr_bursts", "collect_fixed_sampling", "dump_runs",
                "load_runs"),
    "filtering": ("EvalMatrix", "FilterReport", "filter_functions"),
    "functions": ("AbstractionFunction", "Clause", "PathCondition"),
    "ir": ("Program", "build_dependency_graph", "detect_relevant_classes",
           "parse_program", "pretty_print"),
    "metrics": ("baseline_recall", "evaluate", "node_precision", "run_sweep",
                "trace_recall"),
    "model": ("AnnotatedFSM", "accepts_prefix", "export_fsm", "import_fsm",
              "simulate_traces", "synthesize"),
    "states": ("ConcreteObject", "ConcreteState", "abstract_state", "eval_clause",
               "eval_function"),
    "symex": ("SymexBounds", "extract_abstraction_functions",
              "strip_parameter_clauses", "symbolic_execute"),
}.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
