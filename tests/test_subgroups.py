import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from davlab import (build, commutator_subgroup, is_normal, nilpotency_class, power_subgroup,
                    product_subgroup, quotient_order, subgroup_closure,
                    parse_descriptor, trivial_subgroup, whole_subgroup)
from davlab.errors import DavlabError
from davlab.groups import FiniteGroup, check_group_axioms
from davlab import subgroups
from davlab.subgroups import Subgroup, automorphisms, power_set


def test_closure_empty_is_trivial(grp):
    G = grp("q[8]")
    assert subgroup_closure(G, set()).elements() == [0]



def test_operations_on_two_groups_are_refused(grp):
    """A subgroup carries its group, so one of another group is an error."""
    Q8, C8 = whole_subgroup(grp("q[8]")), whole_subgroup(grp("c[8]"))
    with pytest.raises(DavlabError, match="two groups"):
        commutator_subgroup(Q8, C8)
    with pytest.raises(DavlabError, match="two groups"):
        product_subgroup(Q8, C8)
    assert not C8 <= Q8 and Q8 <= Q8
    with pytest.raises(DavlabError, match="not contained"):
        quotient_order(Q8, C8)
    # the k-th powers are taken in the subgroup's own group
    assert len(power_subgroup(C8, 2)) == 4 and len(power_subgroup(Q8, 2)) == 2

def test_closure_of_a_is_cyclic_of_order_p_alpha(grp):
    G = grp("g1[3,2,1,1]")
    H = subgroup_closure(G, {G.generators["a"]})
    assert len(H) == 9
    assert sorted(H.elements()) == sorted(G.pow(G.generators["a"], k) for k in range(9))


def test_closure_of_both_generators_is_whole_group(grp):
    for text in ("g1[3,1,1,1]", "g2[3,2,1,1]", "g3[3,3,2,2,1]", "q[12]", "sd[16]"):
        G = grp(text)
        names = [n for n in ("a", "b", "x", "y") if n in G.generators]
        H = subgroup_closure(G, {G.generators[n] for n in names})
        assert len(H) == G.order


def test_closure_contains_inverses(grp):
    G = grp("d[16]")
    H = subgroup_closure(G, {G.generators["y"]})
    for h in H.elements():
        assert G.inv(h) in H


def test_closure_idempotent_and_monotone(grp):
    G = grp("d[16]")
    rng = random.Random(3)
    for _ in range(20):
        gens = {rng.randrange(G.order) for _ in range(rng.randrange(1, 4))}
        H = subgroup_closure(G, gens)
        assert subgroup_closure(G, set(H.elements())).mask == H.mask
        bigger = subgroup_closure(G, gens | {rng.randrange(G.order)})
        assert H <= bigger


def test_lagrange_on_random_closures(grp):
    G = grp("sd[32]")
    rng = random.Random(5)
    for _ in range(25):
        gens = {rng.randrange(G.order) for _ in range(rng.randrange(1, 4))}
        assert G.order % len(subgroup_closure(G, gens)) == 0


def test_commutator_subgroup_g1(grp):
    G = grp("g1[3,1,1,1]")
    whole = whole_subgroup(G)
    gamma2 = commutator_subgroup(whole, whole)
    c = G.generators["c"]
    assert sorted(gamma2.elements()) == sorted(G.pow(c, k) for k in range(3))


def test_commutator_subgroup_g2_is_a_cubed(grp):
    G = grp("g2[3,2,1,1]")
    whole = whole_subgroup(G)
    gamma2 = commutator_subgroup(whole, whole)
    a3 = G.pow(G.generators["a"], 3)
    assert sorted(gamma2.elements()) == sorted(G.pow(a3, k) for k in range(3))


def test_commutator_subgroup_abelian_trivial(grp):
    G = grp("ab[3,3]")
    whole = whole_subgroup(G)
    assert commutator_subgroup(whole, whole).is_trivial


def test_power_subgroup_examples(grp):
    C9 = grp("c[9]")
    assert len(power_subgroup(whole_subgroup(C9), 3)) == 3
    G = grp("g1[3,1,1,1]")
    whole = whole_subgroup(G)
    cubes = power_subgroup(whole, 3)
    assert cubes.is_trivial  # exponent 3 kills every cube
    assert power_subgroup(whole, 1).mask == whole.mask


def test_power_set_equals_power_subgroup_in_class_two(grp):
    # in class two with p odd the set of p-th powers is already the subgroup
    G = grp("g2[3,2,1,1]")
    whole = whole_subgroup(G)
    assert power_set(whole, 3) == set(power_subgroup(whole, 3).elements())


def test_product_subgroup_g2(grp):
    G = grp("g2[3,2,1,1]")
    a, b = G.generators["a"], G.generators["b"]
    Ha = subgroup_closure(G, {G.pow(a, 3)})
    Hb = subgroup_closure(G, {G.pow(b, 3)})
    prod = product_subgroup(Ha, Hb)
    assert prod.mask == power_subgroup(whole_subgroup(G), 3).mask


def test_quotient_order_frattini(grp):
    G = grp("g1[3,1,1,1]")
    whole = whole_subgroup(G)
    gamma2 = commutator_subgroup(whole, whole)
    cubes = power_subgroup(whole, 3)
    frattini = product_subgroup(gamma2, cubes)
    assert quotient_order(whole, frattini) == 9
    assert quotient_order(frattini, frattini) == 1


def test_quotient_order_rejects_non_subset(grp):
    G = grp("d[8]")
    x = subgroup_closure(G, {G.generators["x"]})
    y = subgroup_closure(G, {G.generators["y"]})
    with pytest.raises(DavlabError, match="not contained"):
        quotient_order(x, y)


def test_quotient_order_rejects_non_normal(grp):
    G = grp("d[6]")
    whole = whole_subgroup(G)
    flip = subgroup_closure(G, {G.generators["x"]})
    assert not is_normal(flip)
    with pytest.raises(DavlabError, match="not normal"):
        quotient_order(whole, flip)


def test_is_normal_center_and_rotations(grp):
    G = grp("d[8]")
    rot = subgroup_closure(G, {G.generators["y"]})
    assert is_normal(rot)
    assert is_normal(trivial_subgroup(G))
    assert is_normal(whole_subgroup(G))


def literally_normal(G, H, K) -> bool:
    """K normal in H by the definition: h^-1 k h in K for all h in H, k in K."""
    return all(G.table[G.table[G.inverse[h]][k]][h] in K
               for h in H.elements() for k in K.elements())


NORMALITY_GRID = ["d[8]", "q[8]", "d[12]", "sd[16]", "g1[3,1,1,1]", "q[24]", "ab[2,4]"]


def test_normality_by_generators_matches_the_definition(grp):
    subgroups_seen = normal = non_normal_pairs = 0
    for text in NORMALITY_GRID:
        G = grp(text)
        whole = whole_subgroup(G)
        subs = {}  # mask -> in G by the definition
        # every pair, not one per subgroup, so that each kept generator of
        # a non-normal subgroup is at some point the one that leaves it
        for x in range(G.order):
            for y in range(x, G.order):
                K = subgroup_closure(G, {x, y})
                if K.mask not in subs:
                    subs[K.mask] = literally_normal(G, whole, K)
                assert is_normal(K) == subs[K.mask], (text, K.gens)
        subgroups_seen += len(subs)
        normal += sum(subs.values())
        subs = [Subgroup(G, mask) for mask in subs]
        for K in subs:
            for H in subs:
                if not K <= H:
                    continue
                if literally_normal(G, H, K):
                    assert quotient_order(H, K) * len(K) == len(H)
                else:
                    non_normal_pairs += 1
                    with pytest.raises(DavlabError, match="not normal"):
                        quotient_order(H, K)
    assert subgroups_seen == 92
    assert 0 < normal < subgroups_seen and non_normal_pairs > 0


def test_class_two_families(grp):
    for text in ("g1[3,1,1,1]", "g1[3,2,2,2]", "g2[3,2,1,1]", "g2[3,4,2,2]",
                 "g3[3,3,2,2,1]", "g1[5,1,1,1]"):
        G = grp(text)
        assert nilpotency_class(G) == 2, text


def test_commutator_order_matches_gamma_parameter(grp):
    # o([a,b]) = p^gamma for g1/g2, |gamma_2| = p^gamma for g3
    cases = {"g1[3,2,2,2]": 9, "g1[3,2,1,1]": 3, "g2[3,4,2,2]": 9, "g2[3,2,1,1]": 3}
    for text, expect in cases.items():
        G = grp(text)
        assert G.element_order(G.commutator(G.generators["a"], G.generators["b"])) == expect
    G = grp("g3[3,3,2,2,1]")
    whole = whole_subgroup(G)
    assert len(commutator_subgroup(whole, whole)) == 9  # p^gamma = 3^2


def test_dihedral_class_grows(grp):
    assert nilpotency_class(grp("d[8]")) == 2
    assert nilpotency_class(grp("d[16]")) == 3
    assert nilpotency_class(grp("d[6]")) is None  # S_3 is not nilpotent


def test_subgroup_container_protocol(grp):
    G = grp("c[12]")
    H = subgroup_closure(G, {G.pow(G.generators["g"], 4)})
    assert len(H) == 3
    assert 0 in H and G.pow(G.generators["g"], 4) in H
    assert G.generators["g"] not in H
    assert H == Subgroup.from_elements(G, H.elements())


# --- generator-set operations against their literal definitions -------------

def literal_closure(G, elems) -> int:
    """Mask of the closure of elems under the table, one element at a time."""
    gens = set(elems)
    seen = {0}
    frontier = [0]
    while frontier:
        row = G.table[frontier.pop()]
        for g in gens:
            if row[g] not in seen:
                seen.add(row[g])
                frontier.append(row[g])
    return sum(1 << x for x in seen)


def literal_commutator(G, H, K) -> int:
    return literal_closure(G, {G.commutator(h, k) for h in H.elements() for k in K.elements()})


def symmetric_group(n: int) -> FiniteGroup:
    """S_n on permutation tuples, generated by (0 1) and (0 1 ... n-1).

    In the descriptor families every commutator lands in a cyclic normal
    subgroup or in the center, so the closure of generator commutators is
    already normal there; in S_4 and S_5 it often is not (in A_4,
    [<(0 1 2)>, <(0 1 3)>] is the Klein group, not a subgroup of order 2).
    """
    perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[i] for i in q)] for q in perms] for p in perms]
    cycle = tuple(range(1, n)) + (0,)
    swap = (1, 0) + tuple(range(2, n))
    G = FiniteGroup(f"S{n}", table, [str(p) for p in perms],
                    {"s": index[swap], "t": index[cycle]})
    check_group_axioms(G)
    return G


SYMMETRIC = {"S4": symmetric_group(4), "S5": symmetric_group(5)}
PROPERTY_GRID = ["c[12]", "ab[3,9]", "d[6]", "d[16]", "d[64]", "q[24]", "q[48]",
                 "sd[32]", "m2[64]", "g1[3,1,1,1]", "g1[3,2,2,1]", "g2[3,2,2,1]",
                 "g2[5,2,1,1]", *SYMMETRIC]


@settings(derandomize=True, deadline=None)
@given(st.sampled_from(PROPERTY_GRID), st.data())
def test_subgroup_operations_match_literal_definitions(text, data):
    G = SYMMETRIC.get(text) or build(parse_descriptor(text))
    element = st.integers(min_value=0, max_value=G.order - 1)
    h_seeds = data.draw(st.lists(element, min_size=1, max_size=3))
    k_seeds = data.draw(st.lists(element, min_size=1, max_size=3))
    k = data.draw(st.integers(min_value=1, max_value=6))
    H = subgroup_closure(G, h_seeds)              # generators recorded
    assert H.mask == literal_closure(G, h_seeds)
    K = Subgroup(G, literal_closure(G, k_seeds))  # generators derived from the mask
    assert subgroup_closure(G, K.gens) == K
    assert commutator_subgroup(H, K).mask == literal_commutator(G, H, K)
    assert commutator_subgroup(K, H).mask == literal_commutator(G, K, H)
    assert power_subgroup(H, k).mask == literal_closure(G, power_set(H, k))
    assert power_subgroup(K, k).mask == literal_closure(G, power_set(K, k))
    assert product_subgroup(H, K).mask == literal_closure(
        G, set(H.elements()) | set(K.elements()))


# --- gather kernels against the element loops they replaced ---------------------

# S_4 and S_5 (hand-made tables) and the pin_large groups of davbench
KERNEL_GRID = ["S4", "S5", "m2[2048]", "g1[3,3,3,1]", "g2[3,4,3,2]"]


def _kernel_group(text):
    return SYMMETRIC.get(text) or build(parse_descriptor(text))


def _kernel_subgroups(G):
    """The whole group, its derived subgroup, the trivial subgroup and two
    closures of seeded random elements, one with generators derived."""
    rng = random.Random(G.name)
    W = whole_subgroup(G)
    closures = [subgroup_closure(G, rng.sample(range(G.order), k)) for k in (1, 2)]
    return [W, commutator_subgroup(W, W), trivial_subgroup(G), closures[0],
            Subgroup(G, closures[1].mask)]


def _ordered_free_by_reach_list(seq) -> bool:
    """zerosum.is_ordered_free as the reach-list walk it replaced: every
    earlier product times g, then g alone, until 1 is reached."""
    table = seq.group.table
    reached: list[int] = []
    seen = bytearray(seq.group.order)
    for g in seq.terms:
        for y in [table[x][g] for x in reached] + [g]:
            if not seen[y]:
                seen[y] = 1
                reached.append(y)
        if seen[0]:
            return False
    return True


@pytest.mark.parametrize("text", KERNEL_GRID)
def test_power_gathers_equal_the_element_loop(text):
    G = _kernel_group(text)
    e = G.exponent()
    for H in _kernel_subgroups(G):
        for k in sorted({1, 2, 3, 5, e - 1, e, e + 1, -1, -2}):
            loop = [G.pow(h, k) for h in H.elements()]
            assert subgroups._powers(H, k).tolist() == loop, (H, k)
            assert power_set(H, k) == set(loop)
            if k >= 1:
                old = Subgroup(G, *subgroups._grow(G, 1, [], loop))
                new = power_subgroup(H, k)
                assert (new.mask, new.gens) == (old.mask, old.gens), (H, k)


@pytest.mark.parametrize("text", KERNEL_GRID)
def test_ordered_freeness_equals_the_reach_list_walk(text):
    from davlab.zerosum import Sequence, is_ordered_free
    G = _kernel_group(text)
    rng = random.Random(text)
    outcomes = {True: 0, False: 0}
    sequences = []
    for _ in range(40):
        pool = rng.sample(range(G.order), rng.randint(1, 3))
        sequences.append([rng.choice(pool) for _ in range(rng.randint(0, 40))])
        sequences.append([rng.randrange(G.order) for _ in range(rng.randint(0, 12))])
    for g in list(G.generators.values()) + [G.order - 1]:
        k = G.element_order(g)
        sequences += [[g] * (k - 1), [g] * k]
    for terms in sequences:
        seq = Sequence(G, tuple(terms))
        free = is_ordered_free(seq)
        assert free == _ordered_free_by_reach_list(seq), terms
        outcomes[free] += 1
    assert min(outcomes.values()) >= 5, outcomes


@pytest.mark.parametrize("text", KERNEL_GRID)
def test_column_steps_read_the_table_columns(text):
    from davlab.zerosum import _ColumnSteps
    G = _kernel_group(text)
    steps = _ColumnSteps(G)
    rng = random.Random(text)
    letters = {0, G.order - 1, *G.generators.values(), *rng.sample(range(G.order), 8)}
    for g in sorted(letters):
        col = steps[g].keywords["col"]
        assert col == [row[g] for row in G.table] and all(type(y) is int for y in col)


def is_automorphism(G, phi) -> bool:
    """A bijection of the elements with phi(x y) = phi(x) phi(y) on all n^2 pairs."""
    T = G.table
    return sorted(phi) == list(range(G.order)) and all(
        phi[T[x][y]] == T[phi[x]][phi[y]] for x in range(G.order) for y in range(G.order))


def test_automorphism_check_rejects_a_non_automorphism(grp):
    # y -> y^-1 with every other element fixed is a bijection, not a homomorphism
    G = grp("q[8]")
    y = G.generators["y"]
    phi = list(range(G.order))
    phi[y], phi[G.inv(y)] = G.inv(y), y
    assert not is_automorphism(G, phi)


# Every group of order <= 32 that the search tests and the search benchmark
# run, with the order of its full automorphism group, which the enumeration
# reaches on all of them: phi(n) for C_n, n phi(n) for D_2n (n >= 3),
# 2n phi(2n) for Q_4n (n >= 3), 24 for Q_8, 6 for C_2^2, 2^(2r-4) for SD_2^r,
# 2^r for M_2^r, 432 for the Heisenberg group mod 3 and 54 for M_27.
AUT_GRID = {
    "c[1]": 1, "c[2]": 1, "c[3]": 2, "c[4]": 2, "c[5]": 4, "c[6]": 2, "c[7]": 6,
    "c[8]": 4, "ab[2,2]": 6, "d[6]": 6, "q[8]": 24, "d[8]": 8, "q[12]": 12,
    "d[16]": 32, "q[16]": 32, "sd[16]": 16, "m2[16]": 16, "q[24]": 48,
    "d[32]": 128, "q[32]": 128, "sd[32]": 64, "m2[32]": 32,
    "g1[3,1,1,1]": 432, "g2[3,2,1,1]": 54,
}


@pytest.mark.parametrize("text", sorted(AUT_GRID))
def test_automorphisms_are_bijective_homomorphisms(text, grp):
    G = grp(text)
    auts = automorphisms(G)
    assert auts[0] == list(range(G.order))
    assert len({tuple(phi) for phi in auts}) == len(auts) == AUT_GRID[text]
    for phi in auts:
        assert is_automorphism(G, phi), (text, phi)


@pytest.mark.parametrize("text", ["q[8]", "d[16]", "sd[16]", "q[24]", "S4"])
def test_automorphisms_form_a_group(text, grp):
    G = SYMMETRIC[text] if text in SYMMETRIC else grp(text)
    auts = automorphisms(G)
    members = {tuple(phi) for phi in auts}
    for a in auts:
        for b in auts:
            assert tuple(a[y] for y in b) in members
    if text == "S4":  # no named generators; Aut(S_4) = Inn(S_4)
        assert len(auts) == 24 and all(is_automorphism(G, phi) for phi in auts)


@pytest.mark.parametrize("text", ["ab[2,2,2,2,2,2]", "ab[4,4,4]", "c[1100]"])
def test_automorphism_enumeration_stays_bounded(text, grp):
    # |Aut| is about 2e10, 86016 and 400 here
    G = grp(text)
    start = time.perf_counter()
    auts = automorphisms(G)
    assert time.perf_counter() - start < 1
    assert len(auts) * G.order <= subgroups._AUT_MAX_ENTRIES
    assert len(auts) > 1
