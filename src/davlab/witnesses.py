"""Extremal product-one-free sequences and their number-theoretic cross-checks.

witness_for_theorem plans the sequence of a construction over a descriptor
without building anything: it refuses what theory.constructions does not
cover, then fixes the case tag and the block multiplicities from the
parameters. The plan's methods find each block's element on the group the
caller passes in, which must be the descriptor's own.

The g1 and g3 block sequences k^(x_max) l^(y_max) m^(z_max) n^(w_max) are
free exactly when a small congruence system has only the all-zero solution
inside the block ranges. Both routes are implemented: the group-table route
(fold the reach set) and the arithmetic route (exhaustive enumeration of the
system), and they must agree wherever both run.

Exponents written over 2 (like c^(1/2)) resolve through the inverse of 2
modulo the order of the base element.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .descriptors import GroupDescriptor, validate_descriptor
from .errors import BudgetExceededError, DavlabError
from .groups import FiniteGroup
from .numtheory import half_exponent, least_qnr, legendre_symbol
from .sequences import Sequence
from .theory import _PROVEN_SCOPE, COVERAGE, constructions

RANGE_CAP = 10_000
PRODUCT_CAP = 2_000_000_000
# Tuples per block of x values in the g1 counts: their int64 temporaries
# stay a few MB however the box is shaped.
_BLOCK_TUPLES = 1 << 17


class WitnessSpec(NamedTuple):
    """A block sequence planned over a descriptor, kept in block order."""

    descriptor: GroupDescriptor
    case_tag: str
    proven: bool
    multiplicities: dict[str, int]  # block name -> repeat count

    @property
    def length(self) -> int:
        return sum(self.multiplicities.values())

    def elements(self, group: FiniteGroup) -> dict[str, int]:
        """Block name -> element index on the descriptor's group; a group of
        another descriptor is refused."""
        desc = self.descriptor
        if group.name != desc.canonical():
            raise DavlabError(f"{desc}: witness asked on the group {group.name}")
        if desc.family in _BLOCKS:
            return _BLOCKS[desc.family](group, desc["p"])
        return {name: group.generators[name] for name in self.multiplicities}

    def sequence(self, group: FiniteGroup) -> Sequence:
        terms: list[int] = []
        for name, element in self.elements(group).items():
            terms.extend([element] * self.multiplicities[name])
        return Sequence(group, tuple(terms))

    def describe(self, group: FiniteGroup) -> str:
        return self.sequence(group).compact()

    def block_labels(self, group: FiniteGroup) -> list[str]:
        """One 'label ^count' entry per block, e.g. ['y ^3', 'x ^1']."""
        return [f"{group.labels[el]} ^{self.multiplicities[name]}"
                for name, el in self.elements(group).items()]


def witness_for_theorem(desc: GroupDescriptor, theorem: int,
                        allow_unverified: bool = False) -> WitnessSpec:
    """The plan of a construction over a descriptor, building no table.

    Theorem 1: y^(|G|/2-1) x over the dicyclic and semidihedral groups of any
    order, length ceil((|G|+1)/2) - 1. Theorem 7: the same blocks over the
    order-2^r d, q, sd and m2 groups, length 2^(r-1). Theorem 6: a^(p^a-1)
    b^(p^b-1) over g2, and k^(p^a-1) l^(p^b-1) m^(p^e-1) n^(p^e-1) over g1
    (e = gamma) and g3 (e = sigma), their elements given by _g1_blocks and
    _g3_blocks. Raises DavlabError for an invalid descriptor, a theorem that
    does not cover it, or a construction outside its proven scope unless
    allow_unverified; an unproven plan carries no length guarantee.
    """
    validate_descriptor(desc)
    if theorem not in COVERAGE:
        raise DavlabError(f"no witness construction labeled {theorem} (use 1, 6 or 7)")
    proven = constructions(desc).get(theorem)
    if proven is None:
        raise DavlabError(f"{desc}: theorem {theorem} covers {COVERAGE[theorem]}")
    f = desc.family
    if not (proven or allow_unverified):
        raise DavlabError(
            f"{desc}: verified construction needs {_PROVEN_SCOPE[f]} = 1 (pass "
            "allow_unverified, or --unverified-explore on the command line, to explore)")
    if theorem in (1, 7):
        tag = "two_group" if theorem == 7 else {"q": "dicyclic", "sd": "semidihedral"}[f]
        return WitnessSpec(desc, tag, proven, {"y": desc["order"] // 2 - 1, "x": 1})
    p = desc["p"]
    pa, pb = p ** desc["alpha"], p ** desc["beta"]
    if f == "g2":
        return WitnessSpec(desc, "g2", proven, {"a": pa - 1, "b": pb - 1})
    pe = p ** desc["gamma" if f == "g1" else "sigma"]
    tag = f"{f}_3mod4" if p % 4 == 3 else f"{f}_1mod4"
    return WitnessSpec(desc, tag, proven, {"k": pa - 1, "l": pb - 1, "m": pe - 1, "n": pe - 1})


def _g1_blocks(group: FiniteGroup, p: int) -> dict[str, int]:
    """For p = 3 mod 4: k = a^-1 b c^(1/2), l = b^-1, m = a, n = a^2 b^-1 c.
    For p = 1 mod 4 with q the least non-residue: m becomes a b^q c^(-q/2)
    and n = a."""
    a, b, c = group.generators["a"], group.generators["b"], group.generators["c"]
    oc = group.element_order(c)
    half = half_exponent(1, oc)
    k = group.product([group.inv(a), b, group.pow(c, half)])
    l = group.inv(b)
    if p % 4 == 3:
        m = a
        n = group.product([group.pow(a, 2), group.inv(b), c])
    else:
        q = least_qnr(p)
        m = group.product([a, group.pow(b, q),
                           group.pow(c, half_exponent(-q % oc, oc))])
        n = a
    return {"k": k, "l": l, "m": m, "n": n}


def _g3_blocks(group: FiniteGroup, p: int) -> dict[str, int]:
    """For p = 3 mod 4: k = a^-1, l = b, m = a b w^(-1/2), n = a^2 b w^-1 with
    w = [a, b]. For p = 1 mod 4: m = a b^(q+1) w^(-(q+1)/2), n = a b w^(-1/2)."""
    a, b = group.generators["a"], group.generators["b"]
    w = group.commutator(a, b)
    ow = group.element_order(w)
    if p % 4 == 3:
        m = group.product([a, b, group.pow(w, half_exponent(-1 % ow, ow))])
        n = group.product([group.pow(a, 2), b, group.inv(w)])
    else:
        q = least_qnr(p)
        m = group.product([a, group.pow(b, q + 1),
                           group.pow(w, half_exponent(-(q + 1) % ow, ow))])
        n = group.product([a, b, group.pow(w, half_exponent(-1 % ow, ow))])
    return {"k": group.inv(a), "l": b, "m": m, "n": n}


# The families whose blocks are not named generators.
_BLOCKS = {"g1": _g1_blocks, "g3": _g3_blocks}


# --- congruence systems ---------------------------------------------------------

class CongruenceSystem(NamedTuple):
    """One of the four displayed systems, with its enumeration box."""

    prime: int
    case_tag: str                 # g1_3mod4 | g1_1mod4 | g3_3mod4 | g3_1mod4
    alpha: int
    beta: int
    gamma: int
    sigma: int | None = None      # g3 cases only
    q: int | None = None          # 1 mod 4 cases only

    @property
    def moduli(self) -> tuple[int, int, int]:
        p = self.prime
        last = self.sigma if self.case_tag.startswith("g3") else self.gamma
        return (p ** self.alpha, p ** self.beta, p ** last)

    @property
    def ranges(self) -> tuple[int, int, int, int]:
        m1, m2, m3 = self.moduli
        return (m1, m2, m3, m3)


def congruence_system(desc: GroupDescriptor) -> CongruenceSystem:
    """The system matching the g1/g3 witness for the prime's residue class."""
    validate_descriptor(desc)
    if desc.family not in ("g1", "g3"):
        raise DavlabError(f"{desc}: congruence systems exist for g1, g3")
    p = desc["p"]
    case = "3mod4" if p % 4 == 3 else "1mod4"
    return CongruenceSystem(
        prime=p,
        case_tag=f"{desc.family}_{case}",
        alpha=desc["alpha"],
        beta=desc["beta"],
        gamma=desc["gamma"],
        sigma=desc["sigma"] if desc.family == "g3" else None,
        q=least_qnr(p) if case == "1mod4" else None,
    )


def congruence_oracle(system: CongruenceSystem) -> bool:
    """True when the all-zero tuple is the only solution inside the box.

    Every tuple of the full ranges is evaluated; no variable is eliminated.
    The g1 systems evaluate blocks of x values broadcast against the whole
    (y, z, w) box. The g3 systems evaluate the box once and count its tuples
    by x in one histogram. This is the arithmetic counterpart of the
    group-table freeness check.
    """
    return _solution_count(system) == 1


def _solution_count(system: CongruenceSystem) -> int:
    """The number of solutions inside the box, all-zero tuple included.

    x enters the g1 eq3 quadratically, so those systems evaluate every
    (x, y, z, w), a block of x values per pass, each block holding about
    _BLOCK_TUPLES tuples. In the g3 systems x enters only eq1, as
    x = partial(y, z, w) mod m1, so one pass over the (y, z, w) box counts
    every x at once.
    """
    rx, ry, rz, rw = system.ranges
    if max(system.ranges) > RANGE_CAP:
        raise BudgetExceededError(
            f"range {max(system.ranges)} exceeds per-variable cap {RANGE_CAP}")
    if rx * ry * rz * rw > PRODUCT_CAP:
        raise BudgetExceededError(
            f"{rx * ry * rz * rw} tuples exceed enumeration cap {PRODUCT_CAP}")
    p = system.prime
    m1, m2, m3 = system.moduli
    y = np.arange(ry, dtype=np.int64)[:, None, None]
    z = np.arange(rz, dtype=np.int64)[None, :, None]
    w = np.arange(rw, dtype=np.int64)[None, None, :]
    tag = system.case_tag
    q = system.q
    count = 0
    if tag in ("g1_3mod4", "g1_1mod4"):
        step = max(1, _BLOCK_TUPLES // (ry * rz * rw))
        for start in range(0, rx, step):
            x = np.arange(start, min(start + step, rx), dtype=np.int64)[:, None, None, None]
            if tag == "g1_3mod4":
                eq1 = (-x + z + 2 * w) % m1 == 0
                eq2 = (x - y - w) % m2 == 0
                eq3 = (-2 * (x - y) * (z + 2 * w) + (x * x + 2 * w * w)) % m3 == 0
            else:
                eq1 = (-x + z + w) % m1 == 0
                eq2 = (x - y + q * z) % m2 == 0
                eq3 = (-2 * (x - y) * (z + w) - 2 * q * z * w + x * x - q * z * z) % m3 == 0
            count += int(np.count_nonzero(eq1 & eq2 & eq3))
    elif tag in ("g3_3mod4", "g3_1mod4"):
        inv2 = (m1 + 1) // 2
        shift = inv2 * p ** (system.alpha - system.gamma)
        if tag == "g3_3mod4":
            bracket = -2 * y * (z + 2 * w) - 4 * z * w - (z * z + 2 * w * w)
            lin = z + 2 * w
            eq2 = (y + z + w) % m2 == 0
        else:
            bracket = (-2 * y * (z + w) - 2 * (q + 1) * z * w
                       - (q + 1) * z * z - w * w)
            lin = z + w
            eq2 = (y + (q + 1) * z + w) % m2 == 0
        eq3 = bracket % m3 == 0
        partial = (lin + shift * bracket) % m1
        base = eq2 & eq3
        # the solutions with a given x are the base tuples with partial = x;
        # x ranges over 0..rx-1 = 0..m1-1
        per_x = np.bincount(partial[base], minlength=m1)
        count = int(per_x[:rx].sum())
    else:
        raise DavlabError(f"unknown case tag {tag!r}")
    return count


def discriminant_check(p: int, case: str) -> bool:
    """Non-residue test for the quadratic form discriminant of each case:
    -4 for the 3 mod 4 construction, -4q for the 1 mod 4 construction."""
    if case in ("3mod4", "g1_3mod4", "g3_3mod4"):
        disc = -4
    elif case in ("1mod4", "g1_1mod4", "g3_1mod4"):
        disc = -4 * least_qnr(p)
    else:
        raise DavlabError(f"unknown discriminant case {case!r}")
    return legendre_symbol(disc % p, p) == -1
