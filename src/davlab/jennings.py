"""Jennings machinery: M-series, Loewy polynomial coefficients, Loewy length.

The M-series is the Brauer-Jennings-Zassenhaus chain

    M_1 = G,   M_n = [M_{n-1}, G] * M_{ceil(n/p)}^(p)   for n >= 2,

computed from the multiplication table. A term whose two inputs repeat the
previous term's, M_{n-1} = M_{n-2} and M_{ceil(n/p)} = M_{ceil((n-1)/p)}, is
the previous term and is carried without a commutator, power or product:
long chains such as M_2048's repeat most of their terms. The sizes of consecutive
quotients give exponents e_i with |M_i / M_{i+1}| = p^{e_i}; the Loewy
length of the modular group algebra is L = 1 + (p-1) * sum(i * e_i), and the
radical layer dimensions are the coefficients of
prod_i (1 + x^i + ... + x^((p-1) i))^{e_i}.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .descriptors import GroupDescriptor
from .errors import DavlabError, InternalConsistencyError, NotAPGroupError
from .groups import FiniteGroup
from .numtheory import prime_power
from .report import Report
from .subgroups import (Subgroup, _normalized_by, commutator_subgroup, power_set,
                        power_subgroup, product_subgroup, subgroup_closure,
                        whole_subgroup)
from .theory import loewy_formula  # the closed form, kept importable from here


def _prime(group: FiniteGroup) -> int:
    """The prime p of a p-group; raises NotAPGroupError for any other group."""
    if group.prime is None:
        raise NotAPGroupError(f"{group.name}: order {group.order} is not a prime power")
    return group.prime


def m_series(group: FiniteGroup) -> list[Subgroup]:
    """The chain M_1, M_2, ... down to and including the first trivial term.

    M_n = [M_{n-1}, G] M_{ceil(n/p)}^(p) is the previous term, carried
    without computing it, when both of its inputs equal those of M_{n-1}."""
    p = _prime(group)
    G = whole_subgroup(group)
    series = [G]
    while not series[-1].is_trivial:
        n = len(series) + 1
        source = series[(n + p - 1) // p - 1]
        if n > 2 and series[-1] == series[-2] and source == series[(n + p - 2) // p - 1]:
            series.append(series[-1])
            continue
        lower = commutator_subgroup(series[-1], G)
        upper = power_subgroup(source, p)
        series.append(product_subgroup(lower, upper))
    return series


def jennings_exponents(series: list[Subgroup]) -> list[int]:
    """e_i with |M_i / M_{i+1}| = p^{e_i}; zeros where the chain repeats."""
    p = _prime(series[0].group)
    exponents = []
    for i in range(len(series) - 1):
        quotient = len(series[i]) // len(series[i + 1])
        pp = prime_power(quotient) if quotient > 1 else None
        if quotient == 1:
            exponents.append(0)
        elif pp is None or pp[0] != p:
            raise InternalConsistencyError(
                f"|M_{i+1}/M_{i+2}| = {quotient} is not a power of {p}")
        else:
            exponents.append(pp[1])
    return exponents


def loewy_polynomial(exponents: list[int], p: int) -> list[int]:
    """Coefficients of prod_i (1 + x^i + ... + x^((p-1)i))^(e_i), one
    convolution per factor. Every partial product has nonnegative
    coefficients summing to at most p^(sum e_i), |G| for the exponents of a
    group, so int64 holds them below 2^63."""
    if p ** sum(exponents) >= 1 << 63:
        raise DavlabError(f"coefficients of p^{sum(exponents)} terms exceed int64")
    coeffs = np.ones(1, dtype=np.int64)
    for i, e in enumerate(exponents, start=1):
        factor = np.zeros((p - 1) * i + 1, dtype=np.int64)
        factor[::i] = 1
        for _ in range(e):
            coeffs = np.convolve(coeffs, factor)
    return coeffs.tolist()


def _loewy_from(exponents: list[int], p: int) -> int:
    """L = 1 + (p-1) * sum(i * e_i)."""
    return 1 + (p - 1) * sum(i * e for i, e in enumerate(exponents, start=1))


def loewy_length(group: FiniteGroup) -> int:
    """1 + (p-1) * sum(i * e_i) over the computed chain."""
    return _loewy_from(jennings_exponents(m_series(group)), group.prime)


class JenningsData(NamedTuple):
    prime: int
    series: list[Subgroup]
    exponents: list[int]
    coefficients: list[int]
    loewy_length: int

    @property
    def chain_sizes(self) -> list[int]:
        return [len(s) for s in self.series]


def jennings_data(group: FiniteGroup) -> JenningsData:
    series = m_series(group)
    exps, p = jennings_exponents(series), group.prime
    return JenningsData(p, series, exps, loewy_polynomial(exps, p), _loewy_from(exps, p))


def quotient_elementary_abelian_report(series: list[Subgroup]) -> Report:
    """Each M_i / M_{i+1} must be elementary abelian. With M_{i+1} inside
    M_i and normalized by the generators of M_i, the quotient is generated
    by the images of those generators, so it is elementary abelian exactly
    when their p-th powers and pairwise commutators land in M_{i+1}
    (membership, no cosets). The group and its prime are the chain's."""
    group = series[0].group
    p = _prime(group)
    report = Report(f"elementary abelian quotients of {group.name}")
    for i in range(len(series) - 1):
        upper, lower = series[i], series[i + 1]
        gens = upper.gens
        report.add(f"M_{i+2} normal in M_{i+1}",
                   lower <= upper and _normalized_by(lower, gens))
        report.add(f"M_{i+1}^(p) <= M_{i+2}",
                   all(group.pow(h, p) in lower for h in gens))
        report.add(f"[M_{i+1}, M_{i+1}] <= M_{i+2}",
                   all(group.commutator(h, k) in lower
                       for j, h in enumerate(gens) for k in gens[j + 1:]))
    return report


_CLASS_TWO_FAMILIES = ("g1", "g2", "g3")


def mseries_closed_form_check(group: FiniteGroup, desc: GroupDescriptor) -> Report:
    """Compare the computed chain with the closed form for two-generator
    class-two p-groups:

        M_i = gamma2^(p^s) G^(p^s)      for 2 p^(s-1) + 1 <= i <= p^s,
        M_i = gamma2^(p^s) G^(p^(s+1))  for p^s + 1 <= i <= 2 p^s,

    with M_1 = G and M_2 = gamma2 * G^(p).
    """
    if desc.family not in _CLASS_TWO_FAMILIES:
        raise NotAPGroupError(
            f"{desc}: closed-form chain applies to g1..g3 only")
    p = desc["p"]
    series = m_series(group)
    G = whole_subgroup(group)
    gamma2 = commutator_subgroup(G, G)
    report = Report(f"M-series closed form for {desc.canonical()}")
    for i in range(1, len(series) + 1):
        computed = series[i - 1]
        if i == 1:
            predicted = G
        elif i == 2:
            predicted = product_subgroup(gamma2, power_subgroup(G, p))
        else:
            s = 1
            while True:
                if 2 * p ** (s - 1) + 1 <= i <= p ** s:
                    predicted = product_subgroup(power_subgroup(gamma2, p ** s),
                                                 power_subgroup(G, p ** s))
                    break
                if p ** s + 1 <= i <= 2 * p ** s:
                    predicted = product_subgroup(power_subgroup(gamma2, p ** s),
                                                 power_subgroup(G, p ** (s + 1)))
                    break
                s += 1
        report.add(f"M_{i}", predicted.mask == computed.mask,
                   f"predicted size {len(predicted)}, computed {len(computed)}")
    return report


def power_generators_check(group: FiniteGroup, desc: GroupDescriptor) -> Report:
    """For G = <a, b> of class two: G^(p^s) = <a^(p^s), b^(p^s), [a,b]^(p^s)>,
    and that subgroup must equal the raw set of p^s-th powers."""
    if desc.family not in _CLASS_TWO_FAMILIES:
        raise NotAPGroupError(
            f"{desc}: power-generator form applies to g1..g3 only")
    p = desc["p"]
    G = whole_subgroup(group)
    a, b = group.generators["a"], group.generators["b"]
    c = group.commutator(a, b)
    report = Report(f"power subgroup generators for {desc.canonical()}")
    s = 1
    while True:
        q = p ** s
        full = power_subgroup(G, q)
        gens = subgroup_closure(group, {group.pow(a, q), group.pow(b, q), group.pow(c, q)})
        raw = power_set(G, q)
        report.add(f"G^({q}) = <a^{q}, b^{q}, [a,b]^{q}>", full.mask == gens.mask,
                   f"sizes {len(full)} vs {len(gens)}")
        report.add(f"G^({q}) equals the set of {q}-th powers",
                   raw == set(full.elements()),
                   f"set size {len(raw)} vs subgroup size {len(full)}")
        if full.is_trivial:
            break
        s += 1
    return report
