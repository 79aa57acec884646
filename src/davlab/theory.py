"""Closed forms over descriptor parameters: size caps, which witness
construction covers each descriptor, the Olson-White bound and Loewy
lengths.

Nothing here builds a table. Like descriptors, cache and numtheory, this
module imports no numpy, so a command that only reads the cache (a warm
scan, a cached davenport) or asks for a closed form (loewy --method
formula) never loads the table-building modules.
"""

from __future__ import annotations

from .descriptors import GroupDescriptor, validate_descriptor
from .errors import NoFormulaError

# Largest group order groups.build constructs.
ORDER_CAP = 4096

# Largest order the D and D_A searches take without an explicit budget.
DEFAULT_ORDERED_CAP = 64

# The parameter that must be 1 for the theorem-6 construction to be proven
# extremal; g2 is proven throughout.
_PROVEN_SCOPE = {"g1": "gamma", "g3": "sigma"}

# Each witness construction: what it covers, as its refusals name it, and
# its summary in the help of `witness --theorem`.
COVERAGE = {1: ("q and sd", "dicyclic/semidihedral"),
            6: ("g1, g2, g3", "odd-prime class two"),
            7: ("d, q, sd, m2 of order 2^r with r >= 3", "order 2^r")}


def constructions(desc: GroupDescriptor) -> dict[int, bool]:
    """theorem -> proven for every construction covering a valid descriptor,
    the preferred one first: theorem 7 for the order-2^r d, q, sd and m2
    groups of order at least 8, theorem 1 for every q and sd order, theorem 6
    for g1, g2 and g3, proven only inside _PROVEN_SCOPE."""
    f = desc.family
    covers = {}
    if f in ("d", "q", "sd", "m2"):
        order = desc["order"]
        if order & (order - 1) == 0 and order >= 8:
            covers[7] = True
        if f in ("q", "sd"):
            covers[1] = True
    elif f in ("g1", "g2", "g3"):
        covers[6] = f not in _PROVEN_SCOPE or desc[_PROVEN_SCOPE[f]] == 1
    return covers


def witness_plan(desc: GroupDescriptor) -> tuple[int, bool] | None:
    """(theorem, proven) of the preferred construction covering a valid
    descriptor (the first of constructions), or None when there is none."""
    return next(iter(constructions(desc).items()), None)


def olson_white(order: int) -> int:
    """The Olson-White bound ceil((|G| + 1) / 2) on D(G) for a non-cyclic
    group of this order."""
    return (order + 2) // 2


def loewy_formula(desc: GroupDescriptor) -> int:
    """Closed-form Loewy length for the families that have one.

    g1: p^a + p^b + 2 p^g - 3;  g2: p^a + p^b - 1;  g3: p^a + p^b + 2 p^s - 3;
    d/q of order 2^r (r >= 3) and sd/m2 of order 2^r (r >= 4): 2^(r-1) + 1.
    """
    validate_descriptor(desc)
    f = desc.family
    if f in ("g1", "g2", "g3"):
        p = desc["p"]
        pa, pb = p ** desc["alpha"], p ** desc["beta"]
        if f == "g1":
            return pa + pb + 2 * p ** desc["gamma"] - 3
        if f == "g2":
            return pa + pb - 1
        return pa + pb + 2 * p ** desc["sigma"] - 3
    if f in ("d", "q", "sd", "m2"):
        order = desc["order"]
        if order & (order - 1) != 0:
            raise NoFormulaError(
                f"{desc}: no closed form, order is not a power of 2")
        r = order.bit_length() - 1
        if f == "d" and r < 3:
            raise NoFormulaError(f"{desc}: closed form needs r >= 3")
        return 2 ** (r - 1) + 1
    raise NoFormulaError(f"{desc}: no closed-form Loewy length known here")
