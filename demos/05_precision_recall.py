"""Scoring a mined model: node precision, trace recall, and sweeps.

Precision is judged locally: a model node permits every (incoming, outgoing)
operation pair, and each pair either has a witness among the original runs
or it does not.  Recall asks how much of an original run the model accepts.
The second half sweeps sampling probability and run count on the larger
editor subject and compares against an uncontrolled fixed-length-30 sampler.
"""

import statistics

from burstmine import (SamplerConfig, baseline_recall, evaluate,
                       node_precision, run_sweep, synthesize)
from burstmine.model import with_transition
from burstmine.synthetic import (PS_EMPTY, PS_PAID,
                                 checkout_abstraction_functions,
                                 checkout_reference_bursts, checkout_runs,
                                 editor_abstraction_functions,
                                 generate_editor_runs)

# --- the checkout flow, by hand ------------------------------------------------
afs = checkout_abstraction_functions()
runs = checkout_runs()
fsm = synthesize(checkout_reference_bursts())

report, _ = evaluate(fsm, runs, afs)
for node in report.per_node:
    print(f"node ({node.state}): {node.correct}/{node.total} "
          f"sequences witnessed -> precision {node.precision:.0%}")
print(f"overall precision: {report.overall:.0%}")

# What if the model contained an add-item transition out of the paid state?
# No original run ever pays and then adds, so the paid node halves.
spurious = with_transition(fsm, "clickOnAddItem", PS_PAID, PS_EMPTY)
cs, ts = node_precision(spurious, PS_PAID, runs, afs)
print(f"after injecting clickOnAddItem ({PS_PAID})->({PS_EMPTY}): "
      f"paid-node precision {cs}/{ts} = {cs / ts:.0%}")

# --- the editor subject, at scale ------------------------------------------------
eafs = editor_abstraction_functions()
eruns = generate_editor_runs(20, master_seed=7)
print(f"\neditor subject: {len(eruns)} runs, "
      f"{sum(r.total_events for r in eruns)} events, "
      f"5 operations, 6 probes")

sweep = run_sweep(eruns, eafs, [0.1, 0.25, 0.5, 1.0], [1, 5, 10, 20],
                  list(range(10)))
print("\nmean recall over 10 seeds (rows: runs observed; cols: probability)")
print("        p=0.10  p=0.25  p=0.50  p=1.00")
for n in [1, 5, 10, 20]:
    cells = [sweep.aggregate(p, n)[0] for p in [0.1, 0.25, 0.5, 1.0]]
    print(f"n={n:3d} " + "".join(f"  {c:6.2f}" for c in cells))

# The uncontrolled baseline records 30-call windows without state
# annotations, so nothing can be chained: recall stays near zero.
base = statistics.mean(
    baseline_recall(eruns, SamplerConfig(0.1, seed, "fixed_length")).mean_recall
    for seed in range(10))
cbr = statistics.mean(sweep.recalls(0.1, 20))
print(f"\nat p=0.10 with all 20 runs: controlled bursts {cbr:.1%} recall "
      f"vs fixed-length baseline {base:.1%}")
print("(baseline precision is 1 by definition: it never recombines traces)")
