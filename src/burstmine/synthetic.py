"""Synthetic monitored subjects with known ground truth.

Two self-contained worlds back the experiments and the demo scripts:

* the *editor*: five user operations over a document editor whose logical
  state is probed by six abstraction functions (well over eight reachable
  abstract states), with every operation emitting more than thirty method
  calls; this is the workload for recall/precision sweeps and baseline
  comparisons;
* the *checkout*: the three-state shopping flow (add to cart, pay, new
  session) over a cart-count probe and a receipt-amount probe, used to walk
  through model synthesis and node precision by hand.

Event sequences are a pure function of the operation label and, in the
editor, the abstract pre-state, so two occurrences of the same logical
transition carry identical traces and model acceptance reduces to transition
coverage.  Everything is seeded; identical seeds give identical corpora.

Generated editor runs share objects as the runs of one trace-file load do:
per call, one ``ConcreteState`` per distinct snapshot, abstracted once, and
one event tuple per operation label and abstract pre-state.  So the 3,594
snapshots of ``generate_editor_runs(120)`` cost their 120 distinct states.
"""

from __future__ import annotations

import hashlib
import random

from .collect import Burst, MethodCall, OperationSegment, Run
from .functions import AbstractionFunction, Clause, af_list_hash, parse_term
from .states import ConcreteObject, ConcreteState, abstract_state


def _clause(text: str) -> Clause:
    lhs, op, rhs = text.split(" ", 2)
    return Clause(parse_term(lhs), op, parse_term(rhs))


def _af(af_id: str, *clauses: str) -> AbstractionFunction:
    cls, method = af_id.split(".", 1)
    return AbstractionFunction(af_id, tuple(_clause(c) for c in clauses),
                               (cls, method.split("-")[0], "P0"))


def _stable_int(*parts) -> int:
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big")


# ---------------------------------------------------------------------------
# Editor world
# ---------------------------------------------------------------------------

EDITOR_OPERATIONS = ("openDoc", "typeText", "deleteText", "saveDoc", "closeDoc")

_EDITOR_SRT = {
    "openDoc": "Continuous",
    "typeText": "Instantaneous",
    "deleteText": "Instantaneous",
    "saveDoc": "Immediate",
    "closeDoc": "Immediate",
}

_EDITOR_CALLS = {
    "openDoc": ("open", "readFile", "parse", "layout", "render"),
    "typeText": ("insertChar", "updateBuffer", "spellCheck", "render"),
    "deleteText": ("deleteChar", "updateBuffer", "reflow", "render"),
    "saveDoc": ("serialize", "writeFile", "flush", "clearDirty"),
    "closeDoc": ("flush", "releaseBuffer", "close"),
}


def editor_abstraction_functions() -> list[AbstractionFunction]:
    return [
        _af("Editor.open-F1", "Editor.isOpen == true"),
        _af("Editor.edit-F1", "Editor.dirty == true"),
        _af("Editor.edit-F2", "Editor.nEdits > 0"),
        _af("Editor.edit-F3", "Editor.nEdits >= 3"),
        _af("Editor.layout-F1", "Editor.lines > 0"),
        _af("Editor.layout-F2", "Editor.lines >= 5"),
    ]


def _editor_state(fields: "dict | None") -> ConcreteState:
    if fields is None:
        return ConcreteState({}, {})
    return ConcreteState({"e1": ConcreteObject("Editor", dict(fields))},
                         {"Editor": "e1"})


def _editor_events(label: str, pre_vector: str, longest: dict,
                   ) -> tuple[MethodCall, ...]:
    """A prefix of the operation's longest event sequence in ``longest``, so
    the runs of one call share one MethodCall per distinct event, as the runs
    of one trace-file load do."""
    if label not in longest:
        names = _EDITOR_CALLS[label]
        longest[label] = tuple(MethodCall(names[i % len(names)], "Editor",
                                          (i % 7,)) for i in range(35 + 27))
    rng = random.Random(_stable_int("editor-events", label, pre_vector))
    return longest[label][:35 + rng.randrange(28)]


def generate_editor_runs(n_runs: int, master_seed: int = 0,
                         afs: "list[AbstractionFunction] | None" = None,
                         ) -> list[Run]:
    """Seeded random walks over the editor's operation machine.

    The runs share one ``ConcreteState`` per distinct snapshot, as a load's
    runs do: a segment's post-state is the next one's pre-state, and equal
    snapshots are one object.  Each is abstracted once, and each operation
    label and abstract pre-state give one event tuple."""
    afs = afs or editor_abstraction_functions()
    # The repr of a snapshot's fields (``True`` and ``1`` apart) -> its state
    # and abstract state; (label, abstract pre-state) -> the events.
    states: dict[str, tuple[ConcreteState, str]] = {}
    traces: dict[tuple[str, str], tuple[MethodCall, ...]] = {}
    longest: dict = {}

    def state(fields: "dict | None") -> tuple[ConcreteState, str]:
        key = repr(fields)
        hit = states.get(key)
        if hit is None:
            snapshot = _editor_state(fields)
            hit = states[key] = (snapshot, abstract_state(afs, snapshot))
        return hit

    runs = []
    for idx in range(n_runs):
        rng = random.Random(_stable_int("editor-run", master_seed, idx))
        fields: dict | None = None  # closed editor: no root object
        pre = state(fields)
        segments = []
        for _ in range(rng.randint(12, 18)):
            if fields is None:
                label = "openDoc"
            else:
                choices = ["typeText"] * 4 + ["saveDoc"] * 2 + ["closeDoc"]
                if fields["lines"] > 0:
                    choices += ["deleteText"] * 2
                label = rng.choice(choices)
            fields = _editor_apply(label, fields)
            post = state(fields)
            events = traces.get((label, pre[1]))
            if events is None:
                events = traces[label, pre[1]] = _editor_events(
                    label, pre[1], longest)
            segments.append(OperationSegment(
                label, events, pre[0], post[0], _EDITOR_SRT[label]))
            pre = post
        runs.append(Run(f"run{idx:03d}", tuple(segments)))
    return runs


def _editor_apply(label: str, fields: "dict | None") -> "dict | None":
    if label == "openDoc":
        return {"isOpen": True, "dirty": False, "nEdits": 0, "lines": 0}
    assert fields is not None
    fields = dict(fields)
    if label == "typeText":
        fields["dirty"] = True
        fields["nEdits"] += 1
        fields["lines"] += 2
    elif label == "deleteText":
        fields["dirty"] = True
        fields["nEdits"] += 1
        fields["lines"] = max(0, fields["lines"] - 3)
    elif label == "saveDoc":
        fields["dirty"] = False
    elif label == "closeDoc":
        return None
    return fields


# ---------------------------------------------------------------------------
# Checkout world (three-state shopping flow)
# ---------------------------------------------------------------------------

PS_EMPTY = "UU"      # nothing exists yet
PS_FILLING = "UF"    # cart in use, no receipt
PS_PAID = "FF"       # cart in use, receipt issued

_CHECKOUT_SRT = {
    "clickOnAddItem": "Instantaneous",
    "clickOnPay": "Continuous",
    "clickOnStartNewSession": "Immediate",
}


def checkout_abstraction_functions() -> list[AbstractionFunction]:
    return [
        _af("Receipt.isOpen-F1", "Receipt.amount <= 0"),
        _af("Cart.isEmpty-F1", "Cart.nProducts == 0"),
    ]


def _checkout_state(n_products: "int | None", amount: "int | None",
                    ) -> ConcreteState:
    objects = {}
    roots = {}
    if n_products is not None:
        objects["c1"] = ConcreteObject("Cart", {"nProducts": n_products})
        roots["Cart"] = "c1"
    if amount is not None:
        objects["r1"] = ConcreteObject("Receipt", {"amount": amount})
        roots["Receipt"] = "r1"
    return ConcreteState(objects, roots)


def _checkout_events(label: str) -> tuple[MethodCall, ...]:
    if label == "clickOnAddItem":
        return (MethodCall("addItem", "Cart", (25,)),
                MethodCall("calculateTotal", "Cart", ()))
    if label == "clickOnPay":
        return (MethodCall("applyDiscount", "Cart", ()),
                MethodCall("calculateTotal", "Cart", ()),
                MethodCall("charge", "Receipt", ()))
    return (MethodCall("emptyCart", "Cart", ()),)


def checkout_runs(label_sequences: "list[list[str]] | None" = None) -> list[Run]:
    """Original full traces of the shopping flow.

    The default three runs exercise every length-2 operation combination the
    reference model permits, so its node precisions are all 1.0.
    """
    label_sequences = label_sequences or [
        ["clickOnAddItem", "clickOnPay", "clickOnStartNewSession"],
        ["clickOnAddItem", "clickOnAddItem", "clickOnPay",
         "clickOnStartNewSession"],
        ["clickOnAddItem", "clickOnPay", "clickOnStartNewSession",
         "clickOnAddItem", "clickOnPay", "clickOnStartNewSession"],
    ]
    runs = []
    for i, labels in enumerate(label_sequences):
        n_products: int | None = None
        amount: int | None = None
        segments = []
        for label in labels:
            pre = _checkout_state(n_products, amount)
            if label == "clickOnAddItem":
                n_products = (n_products or 0) + 1
            elif label == "clickOnPay":
                amount = 10 * (n_products or 0)
            elif label == "clickOnStartNewSession":
                n_products, amount = None, None
            else:
                raise ValueError(f"unknown checkout operation {label!r}")
            post = _checkout_state(n_products, amount)
            segments.append(OperationSegment(
                label, _checkout_events(label), pre, post, _CHECKOUT_SRT[label]))
        runs.append(Run(f"session{i + 1}", tuple(segments)))
    return runs


def checkout_reference_bursts() -> list[Burst]:
    """Five hand-picked bursts (two adds, one pay, two new sessions) whose
    synthesis is the three-state reference model."""
    h = af_list_hash(checkout_abstraction_functions())

    def burst(label: str, pre: str, post: str) -> Burst:
        return Burst(label, pre, _checkout_events(label), post, h)

    return [
        burst("clickOnAddItem", PS_EMPTY, PS_FILLING),
        burst("clickOnAddItem", PS_FILLING, PS_FILLING),
        burst("clickOnPay", PS_FILLING, PS_PAID),
        burst("clickOnStartNewSession", PS_PAID, PS_EMPTY),
        burst("clickOnStartNewSession", PS_PAID, PS_EMPTY),
    ]
