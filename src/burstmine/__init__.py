"""burstmine: state-annotated burst tracing and behavior-model mining.

The pipeline derives ternary state probes (abstraction functions) from a
program by bounded symbolic execution, minimizes them against training
evaluations, samples state-bracketed bursts of method calls synchronously
with user operations, joins the bursts into an annotated finite-state model,
and scores the model's precision and recall against full original runs.
"""

from .collect import (Burst, MethodCall, OperationSegment, Run, SamplerConfig,
                      collect_cbr_bursts, collect_fixed_sampling, dump_runs,
                      load_runs)
from .filtering import EvalMatrix, FilterReport, filter_functions
from .functions import AbstractionFunction, Clause, PathCondition
from .ir import (Program, build_dependency_graph, detect_relevant_classes,
                 parse_program, pretty_print)
from .metrics import (baseline_recall, evaluate, node_precision, run_sweep,
                      trace_recall)
from .model import (AnnotatedFSM, accepts_prefix, export_fsm, import_fsm,
                    simulate_traces, synthesize)
from .states import (ConcreteObject, ConcreteState, abstract_state,
                     eval_clause, eval_function)
from .symex import (SymexBounds, extract_abstraction_functions,
                    strip_parameter_clauses, symbolic_execute)

__version__ = "0.1.0"

__all__ = [
    "AbstractionFunction", "AnnotatedFSM", "Burst", "Clause",
    "ConcreteObject", "ConcreteState", "EvalMatrix", "FilterReport",
    "MethodCall", "OperationSegment", "PathCondition", "Program", "Run",
    "SamplerConfig", "SymexBounds", "abstract_state",
    "accepts_prefix", "baseline_recall", "build_dependency_graph",
    "collect_cbr_bursts", "collect_fixed_sampling",
    "detect_relevant_classes", "dump_runs", "eval_clause", "eval_function",
    "evaluate", "export_fsm", "extract_abstraction_functions", "filter_functions",
    "import_fsm", "load_runs", "node_precision", "parse_program",
    "pretty_print", "run_sweep",
    "simulate_traces", "strip_parameter_clauses", "symbolic_execute",
    "synthesize", "trace_recall",
]
