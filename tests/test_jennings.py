import itertools
import math

import pytest

from davlab import (jennings_data, jennings_exponents, loewy_formula,
                    loewy_length, loewy_polynomial, m_series,
                    mseries_closed_form_check, parse_descriptor,
                    power_generators_check)
from davlab.errors import NoFormulaError, NotAPGroupError
from davlab.groups import FiniteGroup
from davlab.jennings import quotient_elementary_abelian_report
from davlab.numtheory import prime_power
from davlab.subgroups import subgroup_closure, whole_subgroup

P_GRID = [
    "c[2]", "c[3]", "c[9]", "c[27]", "ab[2,2]", "ab[3,3]", "ab[3,9]",
    "d[8]", "d[16]", "d[32]", "q[8]", "q[16]", "q[32]",
    "sd[16]", "sd[32]", "m2[16]", "m2[32]",
    "g1[3,1,1,1]", "g1[3,2,1,1]", "g1[3,2,2,1]", "g1[3,2,2,2]", "g1[5,1,1,1]",
    "g2[3,2,1,1]", "g2[3,2,2,1]", "g2[3,3,1,1]", "g2[3,4,2,2]", "g2[5,2,1,1]",
    "g3[3,3,2,2,1]",
]


def test_chain_q8(grp):
    series = m_series(grp("q[8]"))
    assert [len(s) for s in series] == [8, 2, 1]
    # M_2 is the center {1, y^2}
    G = grp("q[8]")
    assert sorted(series[1].elements()) == sorted([0, G.pow(G.generators["y"], 2)])


def test_chain_cyclic_p(grp):
    for text, p in (("c[3]", 3), ("c[5]", 5)):
        series = m_series(grp(text))
        assert [len(s) for s in series] == [p, 1]
        assert jennings_exponents(series) == [1]


def test_chain_heisenberg_27(grp):
    # exponent 3 kills all cubes, so M_2 = gamma_2 and M_3 = 1: chain [27, 3, 1]
    series = m_series(grp("g1[3,1,1,1]"))
    assert [len(s) for s in series] == [27, 3, 1]
    assert jennings_exponents(series) == [2, 1]


def test_chain_g2_27_has_repeat(grp):
    # o(a) = 9: M_2 = M_3 = <a^3>, zeros must be kept in the exponent list
    series = m_series(grp("g2[3,2,1,1]"))
    assert [len(s) for s in series] == [27, 3, 3, 1]
    assert jennings_exponents(series) == [2, 0, 1]


def test_not_a_p_group(grp):
    with pytest.raises(NotAPGroupError):
        m_series(grp("c[12]"))
    with pytest.raises(NotAPGroupError):
        loewy_length(grp("d[6]"))


def test_the_prime_is_read_off_the_table(grp):
    """A hand-made group gets its prime from its order, as a built one does."""
    Q8 = grp("q[8]")
    rows = [list(row) for row in Q8.table]
    hand = FiniteGroup("hand-made q[8]", rows, list(Q8.labels), dict(Q8.generators))
    assert hand.prime == 2 and loewy_length(hand) == 5
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(3))] for q in perms] for p in perms]
    S3 = FiniteGroup("S3", table, [str(p) for p in perms], {})
    assert S3.prime is None
    with pytest.raises(NotAPGroupError):
        m_series(S3)
    for text in ("c[2]", "c[12]", "d[6]", "q[8]", "sd[24]", "g1[3,1,1,1]"):
        G = grp(text)
        pp = prime_power(G.order)
        assert G.prime == (pp[0] if pp else None), text


def _loewy_polynomial_by_lists(exponents, p):
    """loewy_polynomial as first written: each factor multiplied in over
    dense coefficient lists."""
    coeffs = [1]
    for i, e in enumerate(exponents, start=1):
        factor = [0] * ((p - 1) * i + 1)
        for k in range(p):
            factor[k * i] = 1
        for _ in range(e):
            out = [0] * (len(coeffs) + len(factor) - 1)
            for j, cj in enumerate(coeffs):
                if cj:
                    for k, fk in enumerate(factor):
                        if fk:
                            out[j + k] += cj
            coeffs = out
    return coeffs


def test_loewy_polynomial_cyclic():
    assert loewy_polynomial([1], 5) == [1, 1, 1, 1, 1]


def test_loewy_polynomial_q8_by_hand():
    # (1+x)^2 (1+x^2) = 1 + 2x + 2x^2 + 2x^3 + x^4
    assert loewy_polynomial([2, 1], 2) == [1, 2, 2, 2, 1]


def test_loewy_polynomial_heisenberg(grp):
    data = jennings_data(grp("g1[3,1,1,1]"))
    coeffs = data.coefficients
    assert len(coeffs) == 9 and coeffs[0] == coeffs[-1] == 1
    assert sum(coeffs) == 27
    assert coeffs == coeffs[::-1]


def test_loewy_length_values(grp):
    assert loewy_length(grp("g1[3,1,1,1]")) == 9
    assert loewy_length(grp("c[3]")) == 3
    assert loewy_length(grp("c[5]")) == 5
    assert loewy_length(grp("d[8]")) == 5
    assert loewy_length(grp("g2[3,2,1,1]")) == 11


def test_loewy_formula_values():
    assert loewy_formula(parse_descriptor("g2[3,2,1,1]")) == 11
    assert loewy_formula(parse_descriptor("g3[3,3,2,2,1]")) == 27 + 9 + 6 - 3
    assert loewy_formula(parse_descriptor("q[16]")) == 9
    assert loewy_formula(parse_descriptor("d[8]")) == 5
    assert loewy_formula(parse_descriptor("m2[32]")) == 17


def test_loewy_formula_rejects_unsupported():
    with pytest.raises(NoFormulaError):
        loewy_formula(parse_descriptor("c[9]"))
    with pytest.raises(NoFormulaError):
        loewy_formula(parse_descriptor("sd[24]"))  # not a 2-group
    with pytest.raises(NoFormulaError):
        loewy_formula(parse_descriptor("d[4]"))  # below the r >= 3 scope


@pytest.mark.parametrize("text", P_GRID)
def test_jennings_invariants(text, grp):
    """Dimension count, palindrome, L = m + 1, elementary abelian quotients."""
    G = grp(text)
    data = jennings_data(G)
    p = data.prime
    coeffs = data.coefficients
    assert coeffs == _loewy_polynomial_by_lists(data.exponents, p)
    assert sum(coeffs) == G.order
    assert coeffs[0] == 1 and coeffs[-1] == 1
    assert coeffs == coeffs[::-1]
    m = (p - 1) * sum(i * e for i, e in enumerate(data.exponents, start=1))
    assert len(coeffs) == m + 1
    assert data.loewy_length == m + 1
    assert sum(data.exponents) == round(math.log(G.order, p))
    assert data.chain_sizes[-1] == 1
    report = quotient_elementary_abelian_report(data.series)
    assert report.ok, str(report)


def _element_sweep_ok(group, series, p) -> bool:
    """The former quotient check, kept as the reference: every p-th power and
    every commutator of elements of M_i lies in M_{i+1}."""
    for upper, lower in zip(series, series[1:]):
        elems = upper.elements()
        if not all(group.pow(h, p) in lower for h in elems):
            return False
        if not all(group.commutator(h, k) in lower for h in elems for k in elems):
            return False
    return True


@pytest.mark.parametrize("text", [t for t in P_GRID
                                  if parse_descriptor(t).theoretical_order() <= 81])
def test_quotient_report_equals_the_element_sweep(text, grp):
    """On the M-series and on every chain left by dropping one of its terms."""
    G = grp(text)
    data = jennings_data(G)
    series, p = data.series, data.prime
    assert quotient_elementary_abelian_report(series).ok
    assert _element_sweep_ok(G, series, p)
    for i in range(1, len(series) - 1):
        chain = series[:i] + series[i + 1:]
        assert quotient_elementary_abelian_report(chain).ok == \
            _element_sweep_ok(G, chain, p), (text, i)


def test_quotient_report_rejects_broken_series(grp):
    # the lower term is not normal: the reflection subgroup <x> of D_8
    G = grp("d[8]")
    chain = [whole_subgroup(G), subgroup_closure(G, [G.generators["x"]])]
    report = quotient_elementary_abelian_report(chain)
    assert not _element_sweep_ok(G, chain, 2)
    assert "M_2 normal in M_1" in [e.name for e in report.failures()]
    # the lower term is too small: Q_8 / 1 is not elementary abelian
    G = grp("q[8]")
    chain = [whole_subgroup(G), subgroup_closure(G, [])]
    report = quotient_elementary_abelian_report(chain)
    assert not _element_sweep_ok(G, chain, 2)
    assert [e.name for e in report.failures()] == [
        "M_1^(p) <= M_2", "[M_1, M_1] <= M_2"]


@pytest.mark.parametrize("text", [t for t in P_GRID if t[0] == "g"])
def test_closed_form_checks_on_class_two_grid(text, grp):
    desc = parse_descriptor(text)
    G = grp(text)
    r1 = mseries_closed_form_check(G, desc)
    assert r1.ok, str(r1)
    r2 = power_generators_check(G, desc)
    assert r2.ok, str(r2)


def test_closed_form_check_rejects_other_families(grp):
    with pytest.raises(NotAPGroupError):
        mseries_closed_form_check(grp("d[8]"), parse_descriptor("d[8]"))
    with pytest.raises(NotAPGroupError):
        power_generators_check(grp("q[8]"), parse_descriptor("q[8]"))


@pytest.mark.parametrize("text", [
    "g1[3,1,1,1]", "g1[3,2,1,1]", "g1[3,2,2,1]", "g1[3,2,2,2]", "g1[3,3,1,1]",
    "g1[5,1,1,1]", "g2[3,2,1,1]", "g2[3,2,2,1]", "g2[3,3,1,1]", "g2[3,3,2,1]",
    "g2[3,4,1,1]", "g2[3,4,2,2]", "g2[5,2,1,1]", "g3[3,3,2,2,1]",
])
def test_formula_matches_direct(text, grp):
    desc = parse_descriptor(text)
    assert loewy_formula(desc) == loewy_length(grp(text)), text


def test_two_group_formula_matches_direct(grp):
    for text in ("d[8]", "d[16]", "d[32]", "q[8]", "q[16]", "q[32]",
                 "sd[16]", "sd[32]", "m2[16]", "m2[32]"):
        assert loewy_formula(parse_descriptor(text)) == loewy_length(grp(text)), text
    # at the order cap, the convolved coefficients equal the list products
    data = jennings_data(grp("m2[4096]"))
    assert data.loewy_length == loewy_formula(parse_descriptor("m2[4096]")) == 2049
    assert data.coefficients == _loewy_polynomial_by_lists(data.exponents, 2)


@pytest.mark.parametrize("text", ["g2[3,2,2,1]", "g1[3,2,1,1]", "q[16]", "m2[16]",
                                  "g3[3,3,2,2,1]"])
def test_series_members_normal_in_g(text, grp):
    from davlab import is_normal
    G = grp(text)
    for M in m_series(G):
        assert is_normal(M)


def literal_m_series(G, p):
    """M_1 = G, M_n = <[M_{n-1}, G], M_{ceil(n/p)}^(p)> from all pairs and all
    powers, down to the first trivial term; masks only."""
    def closure(elems):
        seen, frontier = {0}, [0]
        while frontier:
            row = G.table[frontier.pop()]
            for g in elems:
                if row[g] not in seen:
                    seen.add(row[g])
                    frontier.append(row[g])
        return seen

    series = [set(range(G.order))]
    while len(series[-1]) > 1:
        n = len(series) + 1
        comms = {G.commutator(x, g) for x in series[-1] for g in range(G.order)}
        powers = {G.pow(x, p) for x in series[(n + p - 1) // p - 1]}
        series.append(closure(comms | powers))
    return [sum(1 << x for x in s) for s in series]


@pytest.mark.parametrize("text", ["d[256]", "q[128]", "g1[3,2,2,1]", "g2[3,4,2,2]"])
def test_m_series_matches_literal_definition(text, grp):
    G = grp(text)
    assert [s.mask for s in m_series(G)] == literal_m_series(G, G.prime)


def _m_series_uncarried(G, p):
    """m_series before repeated terms were carried: every term from its
    commutator, power and product subgroups; the reference for the carry."""
    from davlab.subgroups import commutator_subgroup, power_subgroup, product_subgroup
    W = whole_subgroup(G)
    series = [W]
    while not series[-1].is_trivial:
        n = len(series) + 1
        lower = commutator_subgroup(series[-1], W)
        upper = power_subgroup(series[(n + p - 1) // p - 1], p)
        series.append(product_subgroup(lower, upper))
    return series


@pytest.mark.parametrize("text", P_GRID + ["m2[2048]", "m2[4096]", "g2[3,5,1,1]"])
def test_carried_m_series_equals_the_uncarried_loop(text, grp, monkeypatch):
    from davlab import jennings
    G = grp(text)
    calls = []
    real = jennings.commutator_subgroup
    monkeypatch.setattr(jennings, "commutator_subgroup",
                        lambda *args: calls.append(1) or real(*args))
    carried = m_series(G)
    reference = _m_series_uncarried(G, G.prime)
    assert [s.mask for s in carried] == [s.mask for s in reference]
    # a term is computed only where an input of it changed
    p = G.prime

    def source(n):
        return carried[(n + p - 1) // p - 1]  # M_ceil(n/p)

    computed = [n for n in range(2, len(carried) + 1)
                if n == 2 or carried[n - 2] != carried[n - 3] or source(n) != source(n - 1)]
    assert len(calls) == len(computed)
