import hashlib
import itertools
import re

import numpy as np
import pytest

from davlab import (build, congruence_oracle, constructions, congruence_system, discriminant_check,
                    is_ordered_free, is_prime, loewy_formula,
                    parse_descriptor, witness_for_theorem, witness_plan)
from davlab.descriptors import validate_descriptor
from davlab.errors import BudgetExceededError, DavlabError
from davlab.numtheory import least_qnr
from davlab.witnesses import RANGE_CAP, CongruenceSystem, _solution_count


def labels_of(spec, G):
    return {name: G.labels[el] for name, el in spec.elements(G).items()}


def _describe_by_blocks(spec, G) -> str:
    """The run-length display of a witness as first written: one piece per block."""
    parts = []
    for name, el in spec.elements(G).items():
        count = spec.multiplicities[name]
        label = G.labels[el]
        parts.append(label if count == 1 else f"({label})^{count}")
    return " ".join(parts)


def test_dicyclic_witnesses(grp):
    for text, length in (("q[8]", 4), ("q[12]", 6), ("q[20]", 10)):
        desc = parse_descriptor(text)
        spec = witness_for_theorem(desc, 1)
        G = grp(text)
        assert spec.length == length
        seq = spec.sequence(G)
        assert seq.terms == (G.generators["y"],) * (length - 1) + (G.generators["x"],)
        assert is_ordered_free(seq)
        assert spec.length + 1 == (G.order + 2) // 2


def test_semidihedral_witness(grp):
    desc = parse_descriptor("sd[16]")
    spec = witness_for_theorem(desc, 1)
    assert spec.length == 8
    assert is_ordered_free(spec.sequence(grp("sd[16]")))


def test_two_power_witnesses(grp):
    for text, length in (("d[8]", 4), ("q[16]", 8), ("sd[32]", 16), ("m2[16]", 8)):
        desc = parse_descriptor(text)
        spec = witness_for_theorem(desc, 7)
        G = grp(text)
        assert spec.length == length
        assert is_ordered_free(spec.sequence(G))
        assert spec.length + 1 == loewy_formula(desc)


def test_sd16_same_sequence_under_both_constructions(grp):
    desc = parse_descriptor("sd[16]")
    G = grp("sd[16]")
    s1 = witness_for_theorem(desc, 1).sequence(G)
    s7 = witness_for_theorem(desc, 7).sequence(G)
    assert s1.terms == s7.terms


def test_two_power_rejects_non_power(grp):
    with pytest.raises(DavlabError):
        witness_for_theorem(parse_descriptor("q[12]"), 7)
    with pytest.raises(DavlabError):
        witness_for_theorem(parse_descriptor("d[8]"), 1)


def test_witness_g1_p3_elements(grp):
    desc = parse_descriptor("g1[3,1,1,1]")
    G = grp("g1[3,1,1,1]")
    spec = witness_for_theorem(desc, 6)
    assert spec.case_tag == "g1_3mod4"
    words = labels_of(spec, G)
    # a^-1 b c^(1/2) = a^2 b c^2, b^-1 = b^2, m = a, n = a^2 b^-1 c
    assert words == {"k": "a^2 b c^2", "l": "b^2", "m": "a", "n": "a^2 b^2 c"}
    assert spec.multiplicities == {"k": 2, "l": 2, "m": 2, "n": 2}
    assert spec.length == 8
    assert is_ordered_free(spec.sequence(G))


def test_witness_g1_p5_uses_non_residue(grp):
    desc = parse_descriptor("g1[5,1,1,1]")
    G = grp("g1[5,1,1,1]")
    spec = witness_for_theorem(desc, 6)
    assert spec.case_tag == "g1_1mod4"
    words = labels_of(spec, G)
    # q = 2: m = a b^2 c^(-q/2) with -1 = 4 mod 5
    assert words["m"] == "a b^2 c^4"
    assert words["n"] == "a"
    assert spec.length == 16 == loewy_formula(desc) - 1
    assert is_ordered_free(spec.sequence(G))


def test_witness_g1_gamma_scope(grp):
    desc = parse_descriptor("g1[3,2,2,2]")
    with pytest.raises(DavlabError, match="gamma = 1"):
        witness_for_theorem(desc, 6)
    spec = witness_for_theorem(desc, 6, allow_unverified=True)
    assert spec.length == 3 ** 2 + 3 ** 2 + 2 * 3 ** 2 - 4


def test_witness_g2(grp):
    desc = parse_descriptor("g2[3,2,1,1]")
    G = grp("g2[3,2,1,1]")
    spec = witness_for_theorem(desc, 6)
    seq = spec.sequence(G)
    assert spec.length == 10 == loewy_formula(desc) - 1
    assert seq.terms == (G.generators["a"],) * 8 + (G.generators["b"],) * 2
    assert is_ordered_free(seq)
    bigger = witness_for_theorem(parse_descriptor("g2[3,2,2,1]"), 6)
    assert bigger.length == 16


def test_witness_g3(grp):
    desc = parse_descriptor("g3[3,3,2,2,1]")
    G = grp("g3[3,3,2,2,1]")
    spec = witness_for_theorem(desc, 6)
    assert spec.case_tag == "g3_3mod4"
    assert spec.length == 38 == loewy_formula(desc) - 1
    assert is_ordered_free(spec.sequence(G))
    w = G.commutator(G.generators["a"], G.generators["b"])
    ow = G.element_order(w)
    assert ow == 9  # p^gamma
    words = labels_of(spec, G)
    assert words["k"] == G.labels[G.inv(G.generators["a"])]
    assert words["l"] == G.labels[G.generators["b"]]


def test_witness_g3_sigma_scope():
    with pytest.raises(DavlabError, match="sigma = 1"):
        witness_for_theorem(parse_descriptor("g3[3,4,3,3,2]"), 6)


def test_witness_length_plus_one_is_formula():
    for text, theorem in (("g1[3,1,1,1]", 6), ("g1[3,2,1,1]", 6), ("g2[3,2,2,1]", 6),
                          ("g3[3,3,2,2,1]", 6), ("d[16]", 7), ("m2[32]", 7)):
        desc = parse_descriptor(text)
        spec = witness_for_theorem(desc, theorem)
        assert spec.length + 1 == loewy_formula(desc), text


def test_witness_for_theorem_scope_errors():
    with pytest.raises(DavlabError):
        witness_for_theorem(parse_descriptor("c[5]"), 6)
    with pytest.raises(DavlabError):
        witness_for_theorem(parse_descriptor("g1[3,1,1,1]"), 2)


PLAN_GRID = ["c[1]", "c[8]", "ab[2,4]", "d[4]", "d[8]", "d[12]", "d[16]", "q[8]", "q[12]",
             "q[16]", "q[24]", "sd[16]", "sd[24]", "sd[32]", "m2[16]", "m2[32]",
             "g1[3,1,1,1]", "g1[3,2,2,2]", "g1[5,1,1,1]", "g2[3,2,1,1]",
             "g3[3,3,2,2,1]"]


@pytest.mark.parametrize("text", PLAN_GRID)
def test_witness_plan_names_what_witness_for_theorem_builds(text):
    """Also: each construction's run-length display equals its block join."""
    desc = parse_descriptor(text)
    validate_descriptor(desc)
    plan = witness_plan(desc)
    accepted = []
    for theorem in (1, 6, 7):
        try:
            spec = witness_for_theorem(desc, theorem, allow_unverified=True)
        except DavlabError:
            continue
        accepted.append(theorem)
        G = build(desc)
        assert spec.sequence(G).compact() == _describe_by_blocks(spec, G), (text, theorem)
    assert (plan is None) == (not accepted)
    if plan is not None:
        theorem, proven = plan
        assert theorem in accepted
        # proven is the scope in which the construction needs no opt-in
        try:
            witness_for_theorem(desc, theorem)
            in_scope = True
        except DavlabError:
            in_scope = False
        assert proven == in_scope


def test_witness_plan_scope():
    for text in ("c[8]", "ab[2,4]", "d[12]"):
        assert witness_plan(parse_descriptor(text)) is None
    assert witness_plan(parse_descriptor("q[8]")) == (7, True)
    assert witness_plan(parse_descriptor("q[12]")) == (1, True)
    assert witness_plan(parse_descriptor("g1[3,2,2,2]")) == (6, False)
    assert witness_plan(parse_descriptor("g3[3,3,2,2,1]")) == (6, True)
    assert witness_plan(parse_descriptor("g3[3,4,3,3,2]")) == (6, False)  # above ORDER_CAP


def test_constructions_are_what_witness_for_theorem_accepts():
    assert list(constructions(parse_descriptor("q[16]")).items()) == [(7, True), (1, True)]
    assert constructions(parse_descriptor("d[12]")) == {}
    for text in PLAN_GRID:
        desc = parse_descriptor(text)
        covers = constructions(desc)
        for theorem, allow in itertools.product((1, 2, 6, 7), (False, True)):
            try:
                proven = witness_for_theorem(desc, theorem, allow).proven
            except DavlabError:
                proven = None
            if theorem in covers and (covers[theorem] or allow):
                assert proven == covers[theorem], (text, theorem, allow)
            else:
                assert proven is None, (text, theorem, allow)


def test_block_labels(grp):
    G = grp("d[8]")
    assert witness_for_theorem(parse_descriptor("d[8]"), 7).block_labels(G) == ["y ^3", "x ^1"]


@pytest.mark.parametrize("text, theorem, allow", [
    ("m2[2048]", 7, False), ("g1[3,2,2,1]", 6, False), ("g1[3,2,2,2]", 6, True),
    ("m2[2048]", 6, False), ("g1[3,2,2,2]", 6, False), ("q[12]", 7, False),
    ("g3[3,4,3,3,2]", 6, True), ("d[6]", 2, False)])
def test_witness_for_theorem_builds_no_table(text, theorem, allow, monkeypatch):
    """Accepted or refused, the plan is made from the descriptor alone."""
    from test_cli import _count_builds
    calls = _count_builds(monkeypatch)
    try:
        witness_for_theorem(parse_descriptor(text), theorem, allow)
    except DavlabError:
        pass
    assert calls == []


def test_witness_refuses_the_group_of_another_descriptor(grp):
    spec = witness_for_theorem(parse_descriptor("g1[3,1,1,1]"), 6)
    for other in ("q[8]", "g1[5,1,1,1]"):
        G = grp(other)
        for method in (spec.sequence, spec.block_labels):
            with pytest.raises(DavlabError, match=rf"g1\[3,1,1,1\]: .*{re.escape(other)}"):
                method(G)


def _digest_grid() -> list[str]:
    """The four acceptance scans and every family at primes 3, 5, 7 up to
    order 729."""
    from davlab import cli
    from test_groups import SCAN_GROUPS
    everything = cli._grid(["d", "q", "sd", "m2", "g1", "g2", "g3"], [3, 5, 7], 729, [])
    return sorted({*SCAN_GROUPS, *(d.canonical() for d in everything)})


# Per family: the accepted (descriptor, theorem, allow_unverified) requests
# over _digest_grid, and the digest of their case tags, lengths and block
# labels, as the per-construction builders gave them.
WITNESS_DIGESTS = {
    "d": (14, "b223554501a38747"), "g1": (19, "3d98d8fa08cf5d82"),
    "g2": (30, "c15f62ca5a951f8e"), "g3": (2, "0dd9a39917b5833b"),
    "m2": (12, "25bebb657bf10f7f"), "q": (376, "6091d90cc7d51966"),
    "sd": (192, "b68cc7d4d0c8e661"),
}


def test_witnesses_match_the_pinned_digests():
    lines: dict[str, list[str]] = {}
    for text in _digest_grid():
        desc = parse_descriptor(text)
        for theorem, allow in itertools.product((1, 2, 6, 7), (False, True)):
            try:
                spec = witness_for_theorem(desc, theorem, allow)
            except DavlabError:
                continue
            labels = spec.block_labels(build(desc))
            lines.setdefault(desc.family, []).append(
                f"{text} {theorem} {allow} {spec.case_tag} {spec.length} {labels}")
    digests = {family: (len(found), hashlib.sha256("\n".join(found).encode()).hexdigest()[:16])
               for family, found in lines.items()}
    assert digests == WITNESS_DIGESTS


def test_congruence_system_selection():
    sys3 = congruence_system(parse_descriptor("g1[3,1,1,1]"))
    assert sys3.case_tag == "g1_3mod4" and sys3.q is None
    assert sys3.moduli == (3, 3, 3) and sys3.ranges == (3, 3, 3, 3)
    sys5 = congruence_system(parse_descriptor("g3[5,3,2,2,1]"))
    assert sys5.case_tag == "g3_1mod4" and sys5.q == 2
    assert sys5.moduli == (125, 25, 5)
    with pytest.raises(DavlabError):
        congruence_system(parse_descriptor("g2[3,2,1,1]"))


G1_PRIMES = [3, 7, 5, 13, 17]


@pytest.mark.parametrize("p", G1_PRIMES)
def test_congruence_oracle_g1(p):
    system = congruence_system(parse_descriptor(f"g1[{p},1,1,1]"))
    assert congruence_oracle(system)


@pytest.mark.parametrize("p", [3, 7, 5, 13])
def test_congruence_oracle_g3(p):
    system = congruence_system(parse_descriptor(f"g3[{p},3,2,2,1]"))
    assert congruence_oracle(system)


def test_congruence_oracle_vacuous_ranges():
    system = CongruenceSystem(prime=3, case_tag="g1_3mod4", alpha=0, beta=0, gamma=0)
    # all ranges collapse to the single zero tuple
    assert system.ranges == (1, 1, 1, 1)
    assert congruence_oracle(system)


def test_congruence_oracle_detects_wrong_case():
    # the 3 mod 4 form has discriminant -4, a residue mod 5, so nontrivial
    # solutions exist and the oracle must say so
    system = CongruenceSystem(prime=5, case_tag="g1_3mod4", alpha=1, beta=1, gamma=1)
    assert not congruence_oracle(system)


def test_congruence_oracle_range_cap():
    system = CongruenceSystem(prime=3, case_tag="g1_3mod4", alpha=9, beta=9, gamma=9)
    with pytest.raises(BudgetExceededError):
        congruence_oracle(system)


def _count_by_x_loop(system) -> int:
    """The oracle's count as first written: for each x in range, one pass
    over the whole (y, z, w) box. The reference for _solution_count."""
    rx, ry, rz, rw = system.ranges
    p, tag, q = system.prime, system.case_tag, system.q
    m1, m2, m3 = system.moduli
    y = np.arange(ry, dtype=np.int64)[:, None, None]
    z = np.arange(rz, dtype=np.int64)[None, :, None]
    w = np.arange(rw, dtype=np.int64)[None, None, :]
    count = 0
    if tag == "g1_3mod4":
        for x in range(rx):
            eq1 = (-x + z + 2 * w) % m1 == 0
            eq2 = (x - y - w) % m2 == 0
            eq3 = (-2 * (x - y) * (z + 2 * w) + (x * x + 2 * w * w)) % m3 == 0
            count += int(np.count_nonzero(eq1 & eq2 & eq3))
    elif tag == "g1_1mod4":
        for x in range(rx):
            eq1 = (-x + z + w) % m1 == 0
            eq2 = (x - y + q * z) % m2 == 0
            eq3 = (-2 * (x - y) * (z + w) - 2 * q * z * w + x * x - q * z * z) % m3 == 0
            count += int(np.count_nonzero(eq1 & eq2 & eq3))
    else:
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
        for x in range(rx):
            count += int(np.count_nonzero(base & ((partial - x) % m1 == 0)))
    return count


def _small_systems(max_box: int = 5_000_000):
    """The system of every valid g1 and g3 descriptor whose box holds at most
    max_box tuples and whose ranges fit under RANGE_CAP."""
    out = []
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        top = 1
        while p ** (top + 1) <= max_box:
            top += 1
        exps = range(1, top + 1)
        for a, b, g in itertools.product(exps, repeat=3):
            if a >= b >= g and p ** (a + b + 2 * g) <= max_box:
                out.append(f"g1[{p},{a},{b},{g}]")
        for a, b, g, s in itertools.product(exps, repeat=4):
            if b >= g > s and a + s >= 2 * g and p ** (a + b + 2 * s) <= max_box:
                out.append(f"g3[{p},{a},{b},{g},{s}]")
    systems = [congruence_system(parse_descriptor(text)) for text in out]
    return [s for s in systems if max(s.ranges) <= RANGE_CAP]


SMALL_SYSTEMS = _small_systems()


@pytest.mark.parametrize("tag", ["g1_3mod4", "g1_1mod4", "g3_3mod4", "g3_1mod4"])
def test_solution_count_equals_the_x_loop(tag):
    systems = [s for s in SMALL_SYSTEMS if s.case_tag == tag]
    assert systems
    for system in systems:
        count = _solution_count(system)
        assert count == _count_by_x_loop(system), system
        # on this grid only the verified scope is extremal: gamma or sigma > 1 is not
        proven = (system.sigma if tag.startswith("g3") else system.gamma) == 1
        assert (count == 1) == proven, system


def test_small_systems_reach_the_cap_in_both_classes():
    by_tag = {}
    for s in SMALL_SYSTEMS:
        box = s.ranges[0] * s.ranges[1] * s.ranges[2] * s.ranges[3]
        by_tag[s.case_tag] = max(by_tag.get(s.case_tag, 0), box)
    assert set(by_tag) == {"g1_3mod4", "g1_1mod4", "g3_3mod4", "g3_1mod4"}
    assert min(by_tag.values()) > 10 ** 5


def _wrong_systems():
    """Systems with nonzero solutions: the case tag flipped to the other
    residue class, or q replaced by a quadratic residue."""
    for system in SMALL_SYSTEMS:
        r = system.ranges
        if r[0] * r[1] * r[2] * r[3] > 500_000:
            continue
        family, case = system.case_tag.split("_")
        if case == "3mod4":
            # -1 is a non-residue, so -4q is a residue for a non-residue q
            yield system._replace(case_tag=f"{family}_1mod4", q=least_qnr(system.prime))
        else:
            yield system._replace(case_tag=f"{family}_3mod4", q=None)
            yield system._replace(q=4)  # 4 = 2^2 is a residue


def test_solution_count_equals_the_x_loop_on_wrong_systems():
    counts = []
    for system in _wrong_systems():
        count = _solution_count(system)
        assert count == _count_by_x_loop(system), system
        counts.append(count)
    assert len(counts) > 20 and all(c > 1 for c in counts), counts


def test_discriminant_check_examples():
    assert discriminant_check(3, "3mod4")
    assert discriminant_check(7, "3mod4")
    assert not discriminant_check(5, "3mod4")
    assert discriminant_check(5, "1mod4")
    # the case is named by the residue class of p alone, not by a case tag
    for tag in ("g1_3mod4", "g3_1mod4"):
        with pytest.raises(DavlabError, match="unknown discriminant case"):
            discriminant_check(5, tag)


def test_discriminant_check_all_primes_to_100():
    p = 3
    while p < 100:
        if is_prime(p):
            if p % 4 == 3:
                assert discriminant_check(p, "3mod4"), p
            else:
                assert discriminant_check(p, "1mod4"), p
        p += 2


def test_oracle_agrees_with_table_freeness(grp):
    """Both routes to witness freeness must agree on buildable groups."""
    for text in ("g1[3,1,1,1]", "g1[5,1,1,1]", "g1[7,1,1,1]", "g3[3,3,2,2,1]"):
        desc = parse_descriptor(text)
        G = grp(text)
        spec = witness_for_theorem(desc, 6)
        free = is_ordered_free(spec.sequence(G))
        oracle = congruence_oracle(congruence_system(desc))
        assert free == oracle == True, text  # noqa: E712
