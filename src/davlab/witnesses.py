"""Extremal product-one-free sequences and their number-theoretic cross-checks.

Each family below has a block sequence k^(x_max) l^(y_max) m^(z_max) n^(w_max)
whose freeness is equivalent to a small congruence system having only the
all-zero solution inside the block ranges. Both routes are implemented: the
group-table route (fold the reach set) and the arithmetic route (exhaustive
enumeration of the system), and they must agree wherever both run.

Exponents written over 2 (like c^(1/2)) resolve through the inverse of 2
modulo the order of the base element.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .descriptors import GroupDescriptor, validate_descriptor
from .errors import BudgetExceededError, DavlabError
from .groups import FiniteGroup, build
from .numtheory import half_exponent, least_qnr, legendre_symbol
# expected_davenport is kept importable from here
from .theory import _PROVEN_SCOPE, expected_davenport, witness_plan
from .zerosum import Sequence

RANGE_CAP = 10_000
PRODUCT_CAP = 2_000_000_000
# Tuples per block of x values in the g1 counts: their int64 temporaries
# stay a few MB however the box is shaped.
_BLOCK_TUPLES = 1 << 17


@dataclass
class WitnessSpec:
    """A block sequence over a built group, kept in block order."""

    descriptor: GroupDescriptor
    case_tag: str
    elements: dict[str, int]        # block name -> element index
    multiplicities: dict[str, int]  # block name -> repeat count

    @property
    def length(self) -> int:
        return sum(self.multiplicities.values())

    def sequence(self, group: FiniteGroup) -> Sequence:
        terms: list[int] = []
        for name, element in self.elements.items():
            terms.extend([element] * self.multiplicities[name])
        return Sequence(group, tuple(terms))

    def describe(self, group: FiniteGroup) -> str:
        return self.sequence(group).compact()

    def block_labels(self, group: FiniteGroup) -> list[str]:
        """One 'label ^count' entry per block, e.g. ['y ^3', 'x ^1']."""
        return [f"{group.labels[el]} ^{self.multiplicities[name]}"
                for name, el in self.elements.items()]


def _require_proven(desc: GroupDescriptor, allow_unverified: bool) -> None:
    if not allow_unverified and not witness_plan(desc)[1]:
        raise DavlabError(
            f"{desc}: verified construction needs "
            f"{_PROVEN_SCOPE[desc.family]} = 1 (pass allow_unverified, or "
            "--unverified-explore on the command line, to explore)")


def _metacyclic_witness(desc: GroupDescriptor, tag: str, normal: str,
                        other: str) -> WitnessSpec:
    """normal^(o(normal)-1) other^(index-1) over a metacyclic family, where
    the normal generator spans a cyclic normal subgroup of that index."""
    group = build(desc)
    y, x = group.generators[normal], group.generators[other]
    order = group.element_order(y)
    return WitnessSpec(desc, tag, {normal: y, other: x},
                       {normal: order - 1, other: group.order // order - 1})


def _dicyclic_sd_tag(desc: GroupDescriptor) -> str:
    """The case tag of witness_dicyclic_sd, or its refusal."""
    validate_descriptor(desc)
    tags = {"q": "dicyclic", "sd": "semidihedral"}
    if desc.family not in tags:
        raise DavlabError(f"{desc}: construction covers q and sd only")
    return tags[desc.family]


def _check_two_power(desc: GroupDescriptor) -> None:
    """The refusals of witness_two_power."""
    validate_descriptor(desc)
    if desc.family not in ("d", "q", "sd", "m2"):
        raise DavlabError(f"{desc}: construction covers d, q, sd, m2")
    order = desc["order"]
    if order & (order - 1) != 0 or order < 8:
        raise DavlabError(f"{desc}: needs order 2^r with r >= 3")


def _check_class_two(desc: GroupDescriptor, family: str,
                     allow_unverified: bool = False) -> None:
    """The refusals of witness_g1, witness_g2 and witness_g3 (g2 is proven
    throughout)."""
    validate_descriptor(desc)
    if desc.family != family:
        raise DavlabError(f"{desc}: {family} construction only")
    _require_proven(desc, allow_unverified)


def witness_dicyclic_sd(desc: GroupDescriptor) -> WitnessSpec:
    """y^(2n-1) x over the dicyclic group of order 4n, y^(4n-1) x over the
    semidihedral group of order 8n; length is ceil((|G|+1)/2) - 1."""
    return _metacyclic_witness(desc, _dicyclic_sd_tag(desc), "y", "x")


def witness_two_power(desc: GroupDescriptor) -> WitnessSpec:
    """y^(2^(r-1)-1) x over the order-2^r dihedral, dicyclic, semidihedral and
    modular maximal-cyclic families; length 2^(r-1)."""
    _check_two_power(desc)
    return _metacyclic_witness(desc, "two_group", "y", "x")


def witness_g1(desc: GroupDescriptor, allow_unverified: bool = False) -> WitnessSpec:
    """k^(p^a-1) l^(p^b-1) m^(p^g-1) n^(p^g-1) over the g1 family.

    For p = 3 mod 4: k = a^-1 b c^(1/2), l = b^-1, m = a, n = a^2 b^-1 c.
    For p = 1 mod 4 with q the least non-residue: m becomes a b^q c^(-q/2)
    and n = a. Only gamma = 1 is a verified extremal case; larger gamma needs
    allow_unverified and the result carries no length guarantee.
    """
    _check_class_two(desc, "g1", allow_unverified)
    p = desc["p"]
    group = build(desc)
    a, b, c = group.generators["a"], group.generators["b"], group.generators["c"]
    oc = group.element_order(c)
    half = half_exponent(1, oc)
    k = group.product([group.inv(a), b, group.pow(c, half)])
    l = group.inv(b)
    if p % 4 == 3:
        tag = "g1_3mod4"
        m = a
        n = group.product([group.pow(a, 2), group.inv(b), c])
    else:
        tag = "g1_1mod4"
        q = least_qnr(p)
        m = group.product([a, group.pow(b, q),
                           group.pow(c, half_exponent(-q % oc, oc))])
        n = a
    pg = p ** desc["gamma"]
    return WitnessSpec(desc, tag, {"k": k, "l": l, "m": m, "n": n},
                       {"k": p ** desc["alpha"] - 1, "l": p ** desc["beta"] - 1,
                        "m": pg - 1, "n": pg - 1})


def witness_g2(desc: GroupDescriptor) -> WitnessSpec:
    """a^(p^a - 1) b^(p^b - 1) over the g2 family; length L - 1."""
    _check_class_two(desc, "g2")
    return _metacyclic_witness(desc, "g2", "a", "b")


def witness_g3(desc: GroupDescriptor, allow_unverified: bool = False) -> WitnessSpec:
    """k^(p^a-1) l^(p^b-1) m^(p^s-1) n^(p^s-1) over the g3 family.

    For p = 3 mod 4: k = a^-1, l = b, m = a b w^(-1/2), n = a^2 b w^-1 with
    w = [a, b]. For p = 1 mod 4: m = a b^(q+1) w^(-(q+1)/2), n = a b w^(-1/2).
    Only sigma = 1 is a verified extremal case.
    """
    _check_class_two(desc, "g3", allow_unverified)
    p = desc["p"]
    group = build(desc)
    a, b = group.generators["a"], group.generators["b"]
    w = group.commutator(a, b)
    ow = group.element_order(w)
    k = group.inv(a)
    l = b
    if p % 4 == 3:
        tag = "g3_3mod4"
        m = group.product([a, b, group.pow(w, half_exponent(-1 % ow, ow))])
        n = group.product([group.pow(a, 2), b, group.inv(w)])
    else:
        tag = "g3_1mod4"
        q = least_qnr(p)
        m = group.product([a, group.pow(b, q + 1),
                           group.pow(w, half_exponent(-(q + 1) % ow, ow))])
        n = group.product([a, b, group.pow(w, half_exponent(-1 % ow, ow))])
    ps = p ** desc["sigma"]
    return WitnessSpec(desc, tag, {"k": k, "l": l, "m": m, "n": n},
                       {"k": p ** desc["alpha"] - 1, "l": p ** desc["beta"] - 1,
                        "m": ps - 1, "n": ps - 1})


def check_theorem(desc: GroupDescriptor, theorem: int,
                  allow_unverified: bool = False) -> None:
    """Raise the refusal witness_for_theorem gives this request, if any,
    building no table: an invalid descriptor first, then a theorem that does
    not cover it."""
    validate_descriptor(desc)
    if theorem == 1:
        _dicyclic_sd_tag(desc)
    elif theorem == 7:
        _check_two_power(desc)
    elif theorem == 6 and desc.family in ("g1", "g2", "g3"):
        _check_class_two(desc, desc.family, allow_unverified)
    elif theorem == 6:
        raise DavlabError(f"{desc}: theorem 6 covers g1, g2, g3")
    else:
        raise DavlabError(f"no witness construction labeled {theorem} (use 1, 6 or 7)")


def witness_for_theorem(desc: GroupDescriptor, theorem: int,
                        allow_unverified: bool = False) -> WitnessSpec:
    """Dispatch for the CLI: 1 covers q/sd at any admissible order, 6 covers
    the odd-prime class-two families, 7 the order-2^r families."""
    check_theorem(desc, theorem, allow_unverified)
    if theorem == 1:
        return witness_dicyclic_sd(desc)
    if theorem == 7:
        return witness_two_power(desc)
    if desc.family == "g1":
        return witness_g1(desc, allow_unverified)
    if desc.family == "g2":
        return witness_g2(desc)
    return witness_g3(desc, allow_unverified)


# --- congruence systems ---------------------------------------------------------

@dataclass
class CongruenceSystem:
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
