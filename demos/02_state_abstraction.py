"""T/F/U evaluation: how concrete heap snapshots become abstract states.

An abstraction function is a conjunction of comparisons over state-variable
paths.  Against a concrete state each function yields T, F, or U, and U
("unknown") is not a corner case but the workhorse: it marks probes whose
target objects do not exist yet, which is exactly what distinguishes a
fresh application from a warmed-up one.
"""

from burstmine import (ConcreteObject, ConcreteState, abstract_state,
                       eval_function, extract_abstraction_functions,
                       parse_program, build_dependency_graph,
                       detect_relevant_classes)
from importlib import resources

source = resources.files("burstmine.data").joinpath("cart.mir").read_text()
program = parse_program(source)
relevant = detect_relevant_classes(build_dependency_graph(program), {"Cart"})
afs, _ = extract_abstraction_functions(program, relevant)


def cart_state(n_products, product_values=(), with_cart=True):
    """Build a heap snapshot; constants are serialized like fields."""
    objects, roots, ids = {}, {}, []
    for i, (value, tax_free) in enumerate(product_values):
        objects[f"p{i}"] = ConcreteObject("Product",
                                          {"value": value, "taxFree": tax_free})
        ids.append(f"p{i}")
    if with_cart:
        objects["c1"] = ConcreteObject("Cart", {
            "CART_SIZE": 10, "PRICE": 100, "TAX": 5,
            "nProducts": n_products, "total": 0, "products": ids})
        roots["Cart"] = "c1"
    return ConcreteState(objects, roots)


snapshots = {
    "no cart yet": cart_state(0, with_cart=False),
    "empty cart": cart_state(0),
    "one cheap item": cart_state(1, [(40, True)]),
    "one pricey item": cart_state(1, [(250, False)]),
}

# Individual probes first.  Note the three unknown sources: missing root,
# missing array element, and a probe is U as soon as ONE clause is U, even
# if another clause is already false.
probe = afs[0]  # Cart.addItem-F1: nProducts == 0 && products.length == 0
print("probe:", probe)
for name, state in snapshots.items():
    print(f"  {name:16s} ->", eval_function(probe, state))

print()
for name, state in snapshots.items():
    vector = abstract_state(afs, state)
    print(f"{name:16s} {vector}")

# Two snapshots that differ concretely can share an abstract state; that is
# the point: the probes only keep what steers control flow.
a = abstract_state(afs, cart_state(2, [(40, True), (30, True)]))
b = abstract_state(afs, cart_state(3, [(40, True), (30, True), (20, True)]))
print("\n2-item and 3-item carts abstract identically:", a == b)
