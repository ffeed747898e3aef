"""From sampled bursts to an annotated state model, and back to traces.

The checkout world is a three-operation GUI flow (add item, pay, start a new
session) probed by two functions: one over the receipt, one over the cart.
Collecting a burst means drawing a coin per user operation and, on success,
recording the operation's method calls bracketed by the abstract states
before and after.  Bursts then join into a model wherever states match.
"""

from burstmine import (SamplerConfig, collect_cbr_bursts, export_fsm,
                       simulate_traces, synthesize, accepts_prefix)
from burstmine.collect import collect
from burstmine.functions import af_list_hash
from burstmine.synthetic import (checkout_abstraction_functions, checkout_runs,
                                 checkout_reference_bursts)

afs = checkout_abstraction_functions()
print("probes:", "; ".join(f"{af.id} = {af}" for af in afs))

runs = checkout_runs()
for run in runs:
    print(f"{run.run_id}: {' -> '.join(s.label for s in run.segments)}"
          f"  ({run.total_events} events)")

# Collect with certainty first: every operation becomes a burst.
bursts = collect_cbr_bursts(runs, afs, SamplerConfig(probability=1.0, rng_seed=1))
print(f"\ncollected {len(bursts)} bursts at p=1.0; the first three:")
for b in bursts[:3]:
    calls = " ".join(str(e) for e in b.trace)
    print(f"  ({','.join(b.pre)}) {b.label}: {calls} ({','.join(b.post)})")

# Five hand-picked bursts are enough for the full model of this flow.
fsm = synthesize(checkout_reference_bursts())
print(f"\nmodel: {fsm.n_states} states, {fsm.n_transitions} transitions")
print(export_fsm(fsm, "dot"))

# Reconstruction: chain transitions through shared states, expanding each
# hop with one of its recorded traces.
for t in simulate_traces(fsm, "UU", max_hops=2):
    calls = " ".join(e.method for e in t.events)
    print(f"({t.start}) {' -> '.join(t.labels)} ({t.end}): {calls}")

# Acceptance: the model explains each original run end to end, read as one
# burst per operation (every segment, no draw).
print()
for run in runs:
    got = accepts_prefix(fsm, collect(run.segments, afs, af_list_hash(afs)))
    print(f"{run.run_id}: accepted {got}/{run.total_events} events")
