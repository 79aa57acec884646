"""Workload definitions, reference values and the correctness gate.

This module imports nothing from davlab: the references here are the
independent side of every check, taken from theory where theory gives a
value and otherwise from the answer of davlab 0.1.0, the version the
benchmark was defined on (each entry names its source).
"""

from __future__ import annotations

import random
import re

WORKLOADS = ("search", "pin_large", "scan_cold", "scan_warm")

# Budget of the frontier rung: the state budget always trips first, so the
# amount of work is fixed while the rung still shows when an exact answer
# starts to arrive within it.
FRONTIER_BUDGET = {"max_states": 20_000, "max_seconds": 600.0}

# (id, kind, descriptor, weights, budget, reference, source)
SEARCH_ITEMS = [
    ("D:q[16]", "ordered", "q[16]", None, None, 9, "2^(r-1)+1 for 2-groups"),
    ("D:sd[16]", "ordered", "sd[16]", None, None, 9, "2^(r-1)+1 for 2-groups"),
    ("D:m2[16]", "ordered", "m2[16]", None, None, 9, "2^(r-1)+1 for 2-groups"),
    ("D:q[24]", "ordered", "q[24]", None, None, 13, "Olson-White, |G|/2+1 for dicyclic"),
    ("D:d[32]", "ordered", "d[32]", None, None, 17, "2^(r-1)+1 for 2-groups"),
    ("D:q[32]", "ordered", "q[32]", None, FRONTIER_BUDGET, 17, "2^(r-1)+1 for 2-groups"),
    ("Dprime:m2[16]", "unordered", "m2[16]", None, None, 9, "D'(M_16) = 9 = 2^(r-1)+1"),
    ("Dprime:q[16]", "unordered", "q[16]", None, None, 9, "davlab 0.1.0"),
    ("E:c[8]", "eg", "c[8]", None, None, 15, "Gao, E = D + |G| - 1 = 8 + 8 - 1"),
    ("E:d[6]", "eg", "d[6]", None, None, 11, "davlab 0.1.0"),
    ("DA:q[24]", "weighted", "q[24]", (1, 5), None, 9, "davlab 0.1.0"),
]

# (id, kind, descriptor, witness theorem, reference, source)
PIN_ITEMS = [
    ("pin:m2[2048]", "pin", "m2[2048]", 7, 1025, "2^(r-1)+1"),
    ("pin:g1[3,3,3,1]", "pin", "g1[3,3,3,1]", 6, 57, "p^a+p^b+2p^g-3"),
    ("pin:g2[3,4,3,2]", "pin", "g2[3,4,3,2]", 6, 107, "p^a+p^b-1"),
    ("oracle:g1[13,1,1,1]", "oracle", "g1[13,1,1,1]", None, True, "theorem 6 system"),
    ("oracle:g1[17,1,1,1]", "oracle", "g1[17,1,1,1]", None, True, "theorem 6 system"),
    ("oracle:g3[7,3,2,2,1]", "oracle", "g3[7,3,2,2,1]", None, True, "theorem 6 system"),
    ("oracle:g3[13,3,2,2,1]", "oracle", "g3[13,3,2,2,1]", None, True, "theorem 6 system"),
]

# The four acceptance scans, run as users run them.
SCAN_INVOCATIONS = [
    ("--families=d,q,sd,m2", "--max-order=32"),
    ("--families=g1", "--max-order=729", "--param-ranges=gamma=1"),
    ("--families=g2", "--max-order=729"),
    ("--families=g3", "--max-order=729", "--param-ranges=sigma=1"),
]
SCAN_ROWS = 38

# Size of the seeded filler the scan_warm set-up appends to the cache: the
# cache of a user who has run many other commands.
FILLER_RECORDS = 5000
_FILLER_INVARIANTS = ("D", "Dprime", "E", "DA", "L", "witness_check")


def scan_argv(invocation, cache: str) -> list[str]:
    return ["scan", *invocation, "--json", "--cache", cache]


def filler_records(seed: int) -> list[dict]:
    """Cache records whose keys cannot meet the scan grid's keys.

    The grid holds only d, q, sd, m2, g1, g2 and g3 descriptors, so every
    filler key uses the cyclic or abelian-product family. The seed picks the
    keys, invariants, values and witness lengths.
    """
    rng = random.Random(seed)
    out = []
    for _ in range(FILLER_RECORDS):
        if rng.random() < 0.5:
            desc = f"c[{rng.randint(2, 4096)}]"
        else:
            desc = f"ab[{rng.randint(2, 64)},{rng.randint(2, 64)}]"
        invariant = rng.choice(_FILLER_INVARIANTS)
        value = rng.randint(2, 40)
        out.append({
            "descriptor": desc,
            "invariant": invariant,
            "value": value,
            "exact": rng.random() < 0.8,
            "weight_set": [1, rng.randint(2, 9)] if invariant == "DA" else None,
            "witness": [f"y^{rng.randint(1, 99)}" for _ in range(value - 1)],
            "elapsed_ms": rng.randint(0, 5000),
        })
    return out


# --- references for scan rows -------------------------------------------------

_DESC_RE = re.compile(r"^([a-z][a-z0-9]*)\[(\d+(?:,\d+)*)\]$")


def closed_form_D(descriptor: str) -> int:
    """D(G) of a scan-grid row from theory alone.

    2-groups d/q of order 2^r (r >= 3) and sd/m2 (r >= 4): 2^(r-1)+1.
    Dicyclic and semidihedral groups of other orders: |G|/2 + 1 (Olson-White
    bound, attained). g1, g2, g3: the closed-form Loewy length.
    """
    m = _DESC_RE.match(descriptor)
    if not m:
        raise ValueError(f"unparsable descriptor {descriptor!r}")
    family, params = m.group(1), [int(t) for t in m.group(2).split(",")]
    if family in ("d", "q", "sd", "m2"):
        order = params[0]
        if order & (order - 1) == 0 or family in ("q", "sd"):
            return order // 2 + 1
    elif family in ("g1", "g2", "g3"):
        p, a, b, g = params[:4]
        if family == "g1":
            return p ** a + p ** b + 2 * p ** g - 3
        if family == "g2":
            return p ** a + p ** b - 1
        return p ** a + p ** b + 2 * p ** params[4] - 3
    raise ValueError(f"no closed form for {descriptor!r}")


# --- correctness gate -----------------------------------------------------------

def references(workload: str) -> dict:
    """id -> reference value of a search or pin_large item."""
    if workload == "search":
        return {i[0]: i[5] for i in SEARCH_ITEMS}
    return {i[0]: i[4] for i in PIN_ITEMS}


def check_search(result: dict, reference: int) -> str | None:
    """None when the item is right, else the reason it failed."""
    value, wlen = result["value"], result["witness_len"]
    if not result["witness_free"]:
        return "witness is not free"
    if wlen != value - 1:
        return f"witness length {wlen} != value - 1 = {value - 1}"
    if result["exact"] and value != reference:
        return f"exact value {value} != reference {reference}"
    if not result["exact"] and value > reference:
        return f"inexact lower bound {value} above reference {reference}"
    return None


def check_pin(result: dict, reference) -> str | None:
    if result["kind"] == "oracle":
        return None if result["oracle"] is reference else \
            f"oracle returned {result['oracle']}, reference {reference}"
    L = result["loewy_length"]
    if L != reference:
        return f"L = {L} != closed form {reference}"
    if L != result["loewy_formula"]:
        return f"L = {L} != loewy_formula {result['loewy_formula']}"
    if not result["witness_free"]:
        return "witness is not free"
    if result["witness_len"] != L - 1:
        return f"witness length {result['witness_len']} != L - 1 = {L - 1}"
    return None


def check_scan(docs: list[dict]) -> tuple[list[dict], list[str]]:
    """The rows of one scan pass (four invocations) and its failures.

    A row fails when it is REFUTED or disagrees with the theory reference;
    an invocation that exits nonzero with no failed row fails once more, and
    every row short of SCAN_ROWS counts as failed.
    """
    rows, failures = [], []
    for doc in docs:
        before = len(failures)
        for row in doc["rows"]:
            ref = closed_form_D(row["descriptor"])
            rows.append(row)
            why = None
            if row["status"] == "REFUTED":
                why = "REFUTED"
            elif row["upper"] != ref:
                why = f"upper {row['upper']} != reference {ref}"
            elif row["lower"] > ref:
                why = f"lower {row['lower']} above reference {ref}"
            elif row["exact_value"] is not None and row["exact_value"] != ref:
                why = f"exact value {row['exact_value']} != reference {ref}"
            if why:
                failures.append(f"{row['descriptor']}: {why}")
        if doc["code"] != 0 and len(failures) == before:
            failures.append(f"invocation exited with code {doc['code']}")
    failures += ["missing row"] * (SCAN_ROWS - len(rows))
    return rows, failures


def strip_row(row: dict) -> dict:
    """A row without the fields that legitimately differ between passes."""
    return {k: v for k, v in row.items() if k not in ("elapsed_ms", "cached")}
