import gc
import hashlib
import functools
import itertools
import math
import tracemalloc
import weakref
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_python
from davlab import build, build_from_string, parse_descriptor, verify_presentation
from davlab.errors import GroupTooLargeError, InternalConsistencyError
from davlab import groups
from davlab.groups import FiniteGroup, check_group_axioms
from davlab.theory import ORDER_CAP

GRID = [
    "c[1]", "c[2]", "c[5]", "c[9]", "c[12]", "ab[2,2]", "ab[3,3]", "ab[2,4]",
    "d[6]", "d[8]", "d[16]", "d[32]", "q[8]", "q[12]", "q[16]", "q[32]",
    "sd[16]", "sd[24]", "sd[32]", "m2[16]", "m2[32]",
    "g1[3,1,1,1]", "g1[3,2,1,1]", "g1[3,2,2,2]", "g1[5,1,1,1]",
    "g2[3,2,1,1]", "g2[3,2,2,1]", "g2[3,4,2,2]", "g2[5,2,1,1]",
    "g3[3,3,2,2,1]",
]


@pytest.mark.parametrize("text", GRID)
def test_build_order_axioms_presentation(text):
    desc = parse_descriptor(text)
    G = build(desc)
    assert G.order == desc.theoretical_order()
    check_group_axioms(G)
    assert _associative_literal(G.table)
    report = verify_presentation(G, desc)
    assert report.ok, str(report)


def test_identity_is_element_zero(grp):
    for text in ("c[6]", "q[8]", "g1[3,1,1,1]"):
        G = grp(text)
        assert G.labels[0] == "1"
        for x in range(G.order):
            assert G.mul(0, x) == x == G.mul(x, 0)


def test_trivial_group():
    G = build_from_string("c[1]")
    assert G.order == 1 and [list(row) for row in G.table] == [[0]]


def test_dicyclic_relations(grp):
    G = grp("q[8]")
    x, y = G.generators["x"], G.generators["y"]
    assert G.pow(x, 2) == G.pow(y, 2)
    assert G.pow(y, 4) == 0
    assert G.element_order(x) == 4
    assert G.mul(G.inv(x), G.mul(y, x)) == G.inv(y)


def test_commutator_convention(grp):
    # [x, y] = x^-1 y^-1 x y, checked elementwise on a nonabelian group
    G = grp("d[8]")
    for x in range(G.order):
        for y in range(G.order):
            expect = G.mul(G.mul(G.inv(x), G.inv(y)), G.mul(x, y))
            assert G.commutator(x, y) == expect


def test_commutator_of_generators_is_c(grp):
    G = grp("g1[3,1,1,1]")
    assert G.commutator(G.generators["a"], G.generators["b"]) == G.generators["c"]
    for x in range(G.order):
        assert G.commutator(x, x) == 0


def test_pow_negative_and_zero(grp):
    G = grp("q[12]")
    y = G.generators["y"]
    assert G.pow(y, 0) == 0
    assert G.pow(y, -1) == G.inv(y)
    assert G.pow(y, 6) == G.product([y] * 6)
    assert G.pow(y, -5) == G.inv(G.pow(y, 5))


def test_element_orders_and_exponent(grp):
    G = grp("g2[3,2,1,1]")
    assert G.element_order(G.generators["a"]) == 9
    assert G.element_order(0) == 1
    assert G.exponent() == 9
    H = grp("g1[3,1,1,1]")
    assert H.exponent() == 3


def test_center_by_exhaustive_scan(grp):
    G = grp("g1[3,1,1,1]")
    center = [z for z in range(G.order)
              if all(G.mul(z, g) == G.mul(g, z) for g in range(G.order))]
    assert sorted(G.center()) == sorted(center)
    assert len(center) == 3


def test_exponents_of_order_27_groups(grp):
    # the two nonabelian groups of order 27: exponent 3 and exponent 9
    assert grp("g1[3,1,1,1]").exponent() == 3
    assert grp("g2[3,2,1,1]").exponent() == 9


def test_is_cyclic_handles_full_exponent_nonabelian(grp):
    # S_3 has exponent 6 = |G| but is not cyclic
    S3 = grp("d[6]")
    assert S3.exponent() == 6
    assert not S3.is_cyclic()
    assert grp("c[6]").is_cyclic()


def test_semidihedral_two_parameterizations(grp):
    # order 16 = 8*2 = 2^4: the conjugation exponent reads 2n-1 = 3 and
    # 2^(r-2) - 1 = 3; both relations must hold on one table
    G = grp("sd[16]")
    x, y = G.generators["x"], G.generators["y"]
    conj = G.mul(G.inv(x), G.mul(y, x))
    assert conj == G.pow(y, 3)
    assert conj == G.pow(y, 2 ** (4 - 2) - 1)


def test_order_cap_refusal():
    with pytest.raises(GroupTooLargeError):
        build_from_string("c[5000]")
    with pytest.raises(GroupTooLargeError):
        build_from_string("g1[3,3,3,2]")  # 3^8 = 6561


def test_word_evaluation(grp):
    G = grp("g1[3,1,1,1]")
    k = G.word([("a", -1), ("b", 1), ("c", 2)])
    manual = G.mul(G.mul(G.inv(G.generators["a"]), G.generators["b"]),
                   G.pow(G.generators["c"], 2))
    assert k == manual


def test_labels_are_normal_form_words(grp):
    G = grp("g2[3,2,1,1]")
    a, b = G.generators["a"], G.generators["b"]
    # a^2 b = b (b^-1 a b)^2 = b a^(2(1+3)) on the words b^j a^i
    assert G.labels[G.mul(G.pow(a, 2), b)] == "b a^8"
    assert G.labels[0] == "1"


def test_presentation_check_catches_wrong_table():
    G = build_from_string("c[5]")
    desc = parse_descriptor("c[6]")
    report = verify_presentation(G, desc)
    assert not report.ok


def test_axiom_check_catches_broken_table():
    from davlab.groups import FiniteGroup
    G = build_from_string("c[4]")
    broken = [list(row) for row in G.table]
    broken[1][2], broken[1][3] = broken[1][3], broken[1][2]  # rows stay permutations
    bad = FiniteGroup("broken", broken, list(G.labels), {})
    with pytest.raises(InternalConsistencyError):
        check_group_axioms(bad)


def _with_cells(G, cells, generators=None):
    table = [list(row) for row in G.table]
    for (x, y), value in cells.items():
        table[x][y] = value
    return FiniteGroup("edited", table, G.labels, generators or {})


@pytest.mark.parametrize("edit", ["row", "column", "above", "negative", "int16", "int64"])
def test_latin_check_catches_each_defect(edit):
    # no Latin test of its own: an entry out of range fails the range test,
    # and a table that is not Latin is not a group, so Light's test fails
    G = build_from_string("d[6]")
    T = G.table
    cells, match = {
        # two cells of column 3 swapped: every column stays a permutation,
        # rows 2 and 4 each hold a duplicate
        "row": ({(2, 3): T[4][3], (4, 3): T[2][3]}, "associativity fails"),
        # two cells of row 2 swapped: every row stays a permutation,
        # columns 3 and 4 each hold a duplicate
        "column": ({(2, 3): T[2][4], (2, 4): T[2][3]}, "associativity fails"),
        "above": ({(2, 3): G.order}, "out of range"),
        "negative": ({(2, 3): -1}, "out of range"),
        # past int16, and past int32: compared before any narrowing cast,
        # so never an OverflowError or a wrapped entry
        "int16": ({(2, 3): 40000}, "out of range"),
        "int64": ({(2, 3): 2 ** 40}, "out of range"),
    }[edit]
    with pytest.raises(InternalConsistencyError, match=match):
        check_group_axioms(_with_cells(G, cells))


@pytest.mark.parametrize("text", GRID)
def test_element_orders_match_the_literal_walk(text, grp):
    G = grp(text)
    orders = [G.element_order(x) for x in G.elements()]
    assert G.element_orders() == orders
    assert G.exponent() == math.lcm(*orders)
    assert G.is_cyclic() == (max(orders) == G.order)


def test_element_orders_at_the_order_cap(grp):
    # c[4096] lists g^k at index k, whose order is n / gcd(k, n)
    G = grp("c[4096]")
    assert G.element_orders() == [4096 // math.gcd(k, 4096) for k in range(4096)]
    assert G.exponent() == 4096 and G.is_cyclic()
    S3 = grp("d[6]")
    assert S3.exponent() == 6 and not S3.is_cyclic()


ORDER_PROFILES = {
    # element-order histograms from the standard classification of these
    # groups; a wrong collection rule could not reproduce them
    "d[8]": {1: 1, 2: 5, 4: 2},
    "q[8]": {1: 1, 2: 1, 4: 6},
    "d[16]": {1: 1, 2: 9, 4: 2, 8: 4},
    "q[16]": {1: 1, 2: 1, 4: 10, 8: 4},   # unique involution, as required
    "sd[16]": {1: 1, 2: 5, 4: 6, 8: 4},
    "m2[16]": {1: 1, 2: 3, 4: 4, 8: 8},
    "g1[3,1,1,1]": {1: 1, 3: 26},
    "g2[3,2,1,1]": {1: 1, 3: 8, 9: 18},
}


@pytest.mark.parametrize("text", sorted(ORDER_PROFILES))
def test_element_order_profiles(text, grp):
    from collections import Counter
    G = grp(text)
    hist = Counter(G.element_order(x) for x in range(G.order))
    assert dict(hist) == ORDER_PROFILES[text]


def test_abelian_product_matches_componentwise(grp):
    G = grp("ab[2,4]")
    pairs = list(itertools.product(range(2), range(4)))
    index = {e: i for i, e in enumerate(pairs)}
    for e1 in pairs:
        for e2 in pairs:
            want = index[((e1[0] + e2[0]) % 2, (e1[1] + e2[1]) % 4)]
            assert G.mul(index[e1], index[e2]) == want


# sha256 of np.asarray(table, int32).tobytes() as built by the per-pair loop
# over the element list (index[mult(x, y)] for every x, y) before tables were
# built from coordinate arrays; a reordered encoding or a wrong cocycle sign
# changes the digest. g2 and g3 tables are hashed in the words they were
# pinned on (_in_former_words). build() keeps _pc_table's int16 array as the
# group's only store, and its rows read from it;
# test_table_array_mirrors_the_list pins it.
GOLDEN_TABLES = {
    "c[1]": "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119",
    "c[12]": "95e853c042436f11d7eda0d1883c5880debefaefde06702c2d26b1cecdf395bb",
    "ab[1,4]": "dda21c0c7eac5e110dd2377b15ccac9197ef8352f9ebc590eec8ad9def58b5eb",
    "ab[2,4,3]": "475801add22da4207684b7dc449acc26705f2a7cdd37ae13599dd2a67ccc55a0",
    "d[4]": "ae6755f9e0f25932512eebd6b9c03ace2bfaf6ddcfab511694411edcb84a6a1c",
    "d[18]": "9b2132b8202b222c402fcc5289aef89290385e65ddc5a29c49fb6aabec9c54e4",
    "q[8]": "0dc765ba514225a156a8a5f49e02abea58ee70c596367147b1dd18935859d8bd",
    "q[20]": "30d5453b1d1b88101373bf4ee234e6117b94452110472a9cf464f19b0eab2aff",
    "sd[16]": "d520371fdc46fbe1f381352d594517c069f150b773802b6e8bdea5fea0698684",
    "sd[40]": "261149a95e314b9a3d42212710945ebd5a18690419dbae41f0b0a074c0ff5b3a",
    "m2[64]": "4ac2b72d5833f6274b96ae22fec81e1f37e05432b58453e540fc84a1abf08178",
    "g1[3,2,1,1]": "27b7f4977b1d86071261bb6539bd289f4586bbb67e5df0863bb003a47c07b574",
    "g1[5,1,1,1]": "2e1ece2ac6ff74b25cae3dd32c667ebd2f5922967b0c3eccb360bc360a7619c5",
    "g2[3,2,2,1]": "eaba43873dc2677bc22be08d4115d46a65a363747e4a6f9e6c621ee69ef9c0f1",
    "g3[3,3,2,2,1]": "0dcfdc3c8e87394657689b12a4a9df7456c54e382b47fffafe651ab190b0d970",
    "m2[1024]": "7ebb0d8bf1f6d5b89edbed32ce2b0b15db3c26d23710516c474910d2eb315ecb",
    "d[1000]": "c095593b437781342a22f512a9aee8eb4ba5afae91f2579f3e3e708db810e831",
    # g2 at p = 5 and at gamma = 2, q of odd index, sd of order not 2^r
    "g2[5,2,1,1]": "c167698974ba2247801ebe6ff7267452caf3d6d03a64dbc3ca01332e37352e67",
    "g2[3,4,2,2]": "e5c9522f4d2e33dc6e2b98118b75c8b7bb4a6f95648efe5d4d5e08ef87e84040",
    "g1[3,2,2,2]": "ccc9fbc93be3a3e2a168045a8d0eb4f6db91045d3dcbf5d98f29294749b27cba",
    "q[12]": "7f13a5bfc3f9b951e3fdd78b25e72691f80aa16e894802feb392d0ea09d5aff7",
    "sd[24]": "6cf09f97a6a3015aedbb30072201f263a25196f47efaab2f9e71731b30f584ef",
}


def _in_former_words(text: str, T) -> np.ndarray:
    """The table T of a family group, read in the words its digest was
    pinned on. g2 and g3 were built on the words a^i b^j and a^i c^t b^j
    before they took the top-down form b^j a^i (c^t): pi sends the former
    index of each word to the index of the same element in T, so the former
    table is pi^-1[T[pi][:, pi]], a relabelling that keeps every word in
    place. Every other family keeps its words and T is returned as it is."""
    T = np.asarray(T, dtype=np.intp)
    desc = parse_descriptor(text)
    former = {"g2": "ab", "g3": "acb"}.get(desc.family)
    if former is None:
        return T
    pc = groups._presentation(desc)
    gens = dict(zip(pc.names, groups._generator_indices(pc.radices)))
    radix = dict(zip(pc.names, pc.radices))
    pi = np.zeros(1, dtype=np.intp)
    for name in former:
        powers = [0]
        for _ in range(radix[name] - 1):
            powers.append(T[powers[-1], gens[name]])
        pi = T[pi[:, None], powers].ravel()
    assert sorted(pi.tolist()) == list(range(len(T))), text
    back = np.empty_like(pi)
    back[pi] = np.arange(len(pi))
    return back[T[pi][:, pi]]


def _digest(text: str, T) -> str:
    former = np.asarray(_in_former_words(text, T), dtype=np.int32)
    return hashlib.sha256(former.tobytes()).hexdigest()


@pytest.mark.parametrize("text", sorted(GOLDEN_TABLES))
def test_table_matches_golden_digest(text, grp):
    assert _digest(text, grp(text).table) == GOLDEN_TABLES[text]


@pytest.mark.parametrize("text", sorted(GOLDEN_TABLES))
def test_table_array_mirrors_the_list(text, grp):
    T = groups._pc_table(text, groups._presentation(parse_descriptor(text)))
    assert T.dtype == np.int16
    wide = np.asarray(T, dtype=np.int32)
    assert _digest(text, T) == GOLDEN_TABLES[text]
    G = grp(text)
    assert G.array.dtype == np.int16 and not G.array.flags.writeable
    assert np.array_equal(G.array, T)
    assert np.array_equal(np.asarray(G.table, dtype=np.int32), wide)


def test_build_rejects_generators_that_do_not_generate(monkeypatch):
    real = groups._presentation

    def without_y(desc):
        # the d[8] presentation naming only x: its words still need y
        return real(desc)._replace(names=("x",))

    monkeypatch.setattr(groups, "_presentation", without_y)
    with pytest.raises(InternalConsistencyError, match="do not generate it"):
        groups.build.__wrapped__(parse_descriptor("d[8]"))


def test_build_refuses_a_metacyclic_system_off_its_presentation(monkeypatch):
    """A cyclic-by-C_2 presentation needs s(r-1) = 0 (mod m) for x^2 = y^s;
    build() must refuse a q presentation that breaks it (x^2 = y with
    r = -1, m = 4)."""
    def broken(desc):
        return groups._Presentation(("x", "y"), (2, 4), {0: (0, 1)}, {(1, 0): (0, -1)})

    monkeypatch.setattr(groups, "_presentation", broken)
    with pytest.raises(InternalConsistencyError):
        groups.build.__wrapped__(parse_descriptor("q[8]"))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_an_inconsistent_presentation_cannot_crash_the_table_fill(data):
    """Random words of g_k, each in <g_{k+1}, ...>: _pc_group returns a
    group that satisfies the presentation or raises
    InternalConsistencyError, and reads no cell it has not written (two
    different fills of the fresh table give the same outcome)."""
    K = data.draw(st.integers(1, 3))
    radices = tuple(data.draw(st.lists(st.integers(2, 4), min_size=K, max_size=K)))

    def word(k):
        return tuple(data.draw(st.integers(0, r - 1)) if i > k else 0
                     for i, r in enumerate(radices))

    powers = {k: word(k) for k in range(K)}
    conjugates = {(j, k): word(k) for j in range(K) for k in range(j)}
    pc = groups._Presentation(("a", "b", "c")[:K], radices, powers, conjugates)
    outcomes = []
    for junk in (-1, 7):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "empty", functools.partial(np.full, fill_value=junk))
            try:
                outcomes.append(groups._pc_group("pc", pc))
            except InternalConsistencyError as err:
                outcomes.append(str(err))
    G, again = outcomes
    if isinstance(G, str):
        assert G == again
        return
    assert np.array_equal(G.array, again.array)
    check_group_axioms(G)
    g = [G.generators[name] for name in pc.names]

    def element(w):
        return int(np.ravel_multi_index(w, radices))

    for k in range(K):
        assert G.pow(g[k], radices[k]) == element(powers[k])
    for (j, k), w in conjugates.items():
        assert G.mul(G.inv(g[k]), G.mul(g[j], g[k])) == element(w)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.data())
def test_a_conjugate_word_out_of_its_place_is_refused(data):
    """Only the top-down form is built: a conjugate g_k^-1 g_j g_k with
    j < k, whatever its word, is out of its place, and so is one with
    j = k, which would otherwise stand in for the power word of g_k."""
    K = data.draw(st.integers(2, 3))
    radices = tuple(data.draw(st.lists(st.integers(2, 4), min_size=K, max_size=K)))
    k = data.draw(st.integers(1, K - 1))
    j = data.draw(st.integers(0, k))
    word = tuple(data.draw(st.integers(0, r - 1)) for r in radices)
    powers = {k: (0,) * K} if data.draw(st.booleans()) else {}
    pc = groups._Presentation(("a", "b", "c")[:K], radices, powers, {(j, k): word})
    with pytest.raises(InternalConsistencyError, match=f"word of g_{k} out of its place"):
        groups._pc_table("pc", pc)


def test_missing_inverse_is_an_internal_error():
    table = [[0, 1, 2], [1, 2, 1], [2, 0, 1]]  # row 1 has no identity
    with pytest.raises(InternalConsistencyError, match="element 1 has no inverse"):
        FiniteGroup("broken", table, ["1", "x", "y"], {})


def test_build_reads_inverses_off_the_array(monkeypatch, grp):
    G = grp("m2[2048]")
    assert all(type(i) is int for i in G.inverse)
    assert G.inverse == [list(row).index(0) for row in G.table]

    def left_projection(name, pc):
        # x * y = x, a table no presentation gives: row 0 holds the identity
        # and every other row lacks it, so element 1 is the first reported
        n = math.prod(pc.radices)
        return np.repeat(np.arange(n, dtype=np.int16), n).reshape(n, n)

    monkeypatch.setattr(groups, "_pc_table", left_projection)
    with pytest.raises(InternalConsistencyError, match=r"ab\[5,5\]: element 1 has no inverse"):
        groups.build.__wrapped__(parse_descriptor("ab[5,5]"))


# the naive-oracle grid of test_zerosum.py plus four larger groups
GENERATOR_GRID = ["c[1]", "c[2]", "c[3]", "c[4]", "c[5]", "c[6]", "c[7]", "c[8]",
                  "ab[2,2]", "d[6]", "q[8]", "d[8]",
                  "d[64]", "q[48]", "g1[3,1,1,1]", "g2[3,2,1,1]"]


@pytest.mark.parametrize("text", GENERATOR_GRID)
def test_generator_shortcuts_match_all_pairs(text, grp):
    """center, is_abelian and inverse agree with their all-pairs definitions."""
    G = grp(text)
    elems = range(G.order)
    t = G.table
    assert G.center() == [z for z in elems if all(t[z][g] == t[g][z] for g in elems)]
    assert G.is_abelian() == all(t[x][y] == t[y][x] for x in elems for y in elems)
    assert G.inverse == [next(y for y in elems if t[x][y] == 0) for x in elems]
    # a group with no named generators counts as generated by all elements
    bare = FiniteGroup(G.name, t, G.labels, {})
    assert bare.center() == G.center() and bare.is_abelian() == G.is_abelian()


def _acceptance_scan_groups() -> list[str]:
    from davlab import cli
    from test_acceptance import SCAN_INVOCATIONS
    out = []
    for invocation in SCAN_INVOCATIONS:
        args = cli.build_parser().parse_args(["scan", *invocation])
        out += [d.canonical() for d in cli._grid(args.families.split(","), args.primes,
                                                 args.max_order,
                                                 cli._parse_param_ranges(args.param_ranges))]
    return out


SCAN_GROUPS = _acceptance_scan_groups()
# the pin_large groups of davbench, and three equal radices
LARGE_FILLS = ["m2[2048]", "g1[3,3,3,1]", "g2[3,4,3,2]", "g1[13,1,1,1]"]
FILL_GRID = sorted(set(GENERATOR_GRID) | set(GOLDEN_TABLES) | set(SCAN_GROUPS)
                   | set(LARGE_FILLS))


def test_fill_grid_covers_the_acceptance_scans():
    assert len(SCAN_GROUPS) == 38 and {"m2[1024]", "d[1000]"} <= set(FILL_GRID)


# sha256 of np.asarray(table, int32).tobytes(), as GOLDEN_TABLES (g2 and g3
# in their former words), for the rest of FILL_GRID: tables built by the
# per-family product formulas that the presentations replaced, each checked
# then against the formula evaluated on every cell
FILL_DIGESTS = {
    "ab[2,2]": "ae6755f9e0f25932512eebd6b9c03ace2bfaf6ddcfab511694411edcb84a6a1c",
    "c[2]": "8bd2fa7c6873c97e24da3767da43702d8c85aadb7136ed816c324b1ebc6b26d2",
    "c[3]": "6ced0cf01c15a0cfb730d6f177e211bcc740f4cc329db4643b8362d4ce425730",
    "c[4]": "dda21c0c7eac5e110dd2377b15ccac9197ef8352f9ebc590eec8ad9def58b5eb",
    "c[5]": "f27bc669f5be8e03620c5825c3f76aec293f51d04438c0c024c672514f33fe78",
    "c[6]": "84c95b76c6f1fb478960b43b3dd0626607eb91a6f425c3de1ce336c428441840",
    "c[7]": "bdcd54e3dba14b50538277fd28788c94220f0914ab60b623c757af03211b5302",
    "c[8]": "c791d253f2d877a6d6dd0f8e0a3feb9ef2f68bcc5cd5a0091741988aad2034ec",
    "d[16]": "fa6e3f7b369f9bb02e5f8960f915dc6bce381ab2693350649a2ea556fa71462d",
    "d[32]": "5ac2ff907bce0da418893b8d50d9e975636e6069ece8c0c8c9fe0d6d16f9c74a",
    "d[64]": "c35c4f849a41393d34456f29d1356d6528fe3f58bc9a660bc86343609567fe31",
    "d[6]": "16ebf768e7443be9e194cce3760f12e11cfd77faf0d865363284a02f4169ce15",
    "d[8]": "4c7411b49beb661d62a8eecb14484ef1dc1de838542aa30d1c25124bdd9cb58e",
    "g1[13,1,1,1]": "4219a14a632e52d6654fb363c76533998d17c319b6015f942bbb6bc351b70264",
    "g1[3,1,1,1]": "a2e897a232c5022ad0b1ddf74ccc38e97607ab08e9f080284ffda78b66ebe6f6",
    "g1[3,2,2,1]": "d497706bcb55dc7227ed95dc02b1dfe212d21da919c73178c9214afda57fb6e2",
    "g1[3,3,1,1]": "c0e14802efef7e84e037f3da154da334b57c6638c60502968f84d57b0dc91d93",
    "g1[3,3,2,1]": "b98ea9bae498da36e1c6a3cc349269157dec630a8c1ed1673fec83a4f2577392",
    "g1[3,3,3,1]": "2159e82ef76fee67246fe45c5f7ff11d0295ca4ed5fb977e9fb416b96031f3d9",
    "g1[3,4,1,1]": "1ee2cfe8a0e3d6aa5cbf931a36565397e7134612f54e83297fb8f491aa6a66dc",
    "g1[5,2,1,1]": "23b3174509f91a67e40851c8134341058b016cc753d0ef760d0ae0c791bdbd74",
    "g2[3,2,1,1]": "5f19a8b1b7e760faf01c2ab5905784e5c91ecf4d9f9c7564dcc2332e5053c925",
    "g2[3,2,3,1]": "82f47a325c1197ff2fdb3f6dcf0d87fd7985452c6b601c78d2717a1bd896c458",
    "g2[3,2,4,1]": "8df56c57205145c2b2fbcece76bf75fca21495a4339d9550fff75beedf783221",
    "g2[3,3,1,1]": "aacee9cae146881488848876755d0f401fb91a77a5c37181b7338b203d872d3a",
    "g2[3,3,2,1]": "a80e702b47b96855700536762afca02c8975d8674d4e1ca7706b3af5cad6f79b",
    "g2[3,3,3,1]": "fcc8a74b1127633dede88de3100b3da29d96191e9bb9f284cf97119a95ccaf86",
    "g2[3,4,1,1]": "a87041e0d20b87f76a296234dcd815f2c18b041bbedc730570c6b773e64239b9",
    "g2[3,4,2,1]": "6e55610327407e52604bb78730725f8b16511f5396e2512c9977e2d66bf87441",
    "g2[3,4,3,2]": "a760c849ba5ec85dfbc60c929cde590367515d3ec4cb2b43aa42ce3f0db65cbc",
    "g2[3,5,1,1]": "b869638688a06a4d516e793e779aa164e569642e3cdb19de0e4ccd925d551920",
    "g2[5,2,2,1]": "33fb4b9f158645789af57463ab8ba7159b302ee65d772dc10b942f7d1ec89bc3",
    "g2[5,3,1,1]": "3064c67b7e351ea7d07a9040fd7a3322f87a4261bc21b7623695a31934cf941f",
    "m2[16]": "ced8191af57366c355ad831eccc18bf388df5158e67852cf3b76fabb76f66b1d",
    "m2[2048]": "8f4a7a2715256417786416d68f5ec162ff7be2da8f595d23654e6b7ea431db6f",
    "m2[32]": "f9682e26bc161d9d7cef8b75e9ba097711e3a354f616cc0876b8f8a4ab5fa2a7",
    "q[16]": "7265b022746dacee5ea4dc0664222f975c3ef7d3f3bdaba920dde887f752758f",
    "q[24]": "e2119d69f8aaad8ed2d1244490908e1434bfb6078f1e7f40e5b784639166fa5a",
    "q[28]": "0b1d7a3ab62a2c89fd99d5d752a2ebd6014b7d7dbbd71d20694dfe38750d70b5",
    "q[32]": "5f314a1965fdecef875677809be8b65ddab12fa2716bd04b99454a0b9b068825",
    "q[48]": "4679abccce9c4db69b7f8eef38f554857189f8917e95633c91e82787f032ec3d",
    "sd[32]": "fa4393ba92dad5dd9689a3cc77557c557676f71c88374ff894f3a2b7d7fb6c86",
}


def test_fill_digests_cover_the_fill_grid():
    assert not set(FILL_DIGESTS) & set(GOLDEN_TABLES)
    assert sorted({**FILL_DIGESTS, **GOLDEN_TABLES}) == FILL_GRID


@pytest.mark.parametrize("text", FILL_GRID)
def test_table_equals_the_full_product(text):
    T = groups._pc_table(text, groups._presentation(parse_descriptor(text)))
    assert T.dtype == np.int16
    assert _digest(text, T) == {**FILL_DIGESTS, **GOLDEN_TABLES}[text]


def _fill_per_row(T, radices, row_of, done=0):
    """groups._fill as first written, the reference for the block gathers:
    one gather per row, every cell of every row, the finished block of a
    top-down level (the rows and columns below `done`) refilled with the
    same entries."""
    filled = [0]
    stride = len(T)
    for k, r in enumerate(radices):
        stride //= r
        step = row_of(k)
        d = 1
        while d < r:
            for x in filled:
                for y in range(x, x + min(d, r - d) * stride, stride):
                    np.take(T[y], step, out=T[y + d * stride], mode="clip")
            step = step[step]
            d *= 2
        filled = [y for x in filled for y in range(x, x + r * stride, stride)]


# groups whose one-row blocks (radix 2 or 3) fill rows on both sides of a
# top-down level's `done`, beside FILL_GRID's g3[3,3,2,2,1]; their tables
# have no digest, so the per-row fill alone is their reference
ONE_ROW_FILLS = ["ab[2,2,2,2,2,2]", "ab[3,3,3,3]"]


@pytest.mark.parametrize("text", FILL_GRID + ONE_ROW_FILLS)
def test_block_fill_equals_the_per_row_fill(text, monkeypatch):
    pc = groups._presentation(parse_descriptor(text))
    T = groups._pc_table(text, pc)
    # one-row blocks gathered 3 source rows at a time: chunks end on both
    # sides of `done` and inside each side
    monkeypatch.setattr(groups, "_BLOCK_ROWS", 3)
    assert groups._pc_table(text, pc).tobytes() == T.tobytes()
    monkeypatch.setattr(groups, "_fill", _fill_per_row)
    assert groups._pc_table(text, pc).tobytes() == T.tobytes()


@pytest.mark.parametrize("text", ["m2[4096]", "d[4096]", "m2[2048]", "g1[3,3,3,1]",
                                  "g2[3,4,3,2]"])
def test_the_fill_allocates_a_few_chunks_beside_the_table(text):
    """A gather into a strided view of the table goes through a temporary of
    the whole block: 8 MiB beside m2[4096]'s 32 MiB table."""
    pc = groups._presentation(parse_descriptor(text))
    tracemalloc.start()
    try:
        T = groups._pc_table(text, pc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - T.nbytes <= 3 * groups._BLOCK_ROWS * len(T) * 2


def _eager_labels(pc) -> list[str]:
    """Every label of a presentation's group, spelled up front as build did
    before labels were spelled on demand: the reference for _WordLabels."""
    out = []
    for exponents in itertools.product(*map(range, pc.radices)):
        bits = [name if e == 1 else f"{name}^{e}"
                for name, e in zip(pc.names, exponents) if e]
        out.append(" ".join(bits) if bits else "1")
    return out


# The pin_large groups of davbench, built in turn as its passes build them;
# the last line is this process's peak RSS in MB (ru_maxrss is in KiB on Linux).
_PIN_ROUTE = """
import resource
from davlab import build, is_ordered_free, loewy_length, parse_descriptor, witness_for_theorem
for text, theorem in [("m2[2048]", 7), ("g1[3,3,3,1]", 6), ("g2[3,4,3,2]", 6)]:
    desc = parse_descriptor(text)
    G = build(desc)
    print(text, loewy_length(G), is_ordered_free(witness_for_theorem(desc, theorem).sequence(G)))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def test_the_pin_route_runs_in_one_process_within_30_s_and_55_mb():
    """A table kept after its last holder let go, or a whole-block temporary
    in the fill, lifts the peak past the bound."""
    done = run_python("-c", _PIN_ROUTE, timeout=30)
    assert done.returncode == 0, done.stderr[-2000:]
    *values, peak_mb = done.stdout.splitlines()
    assert values == ["m2[2048] 1025 True", "g1[3,3,3,1] 57 True", "g2[3,4,3,2] 107 True"]
    assert float(peak_mb) <= 55


def test_labels_spelled_on_demand_equal_the_eager_list():
    for text in FILL_GRID:
        pc = groups._presentation(parse_descriptor(text))
        labels, eager = groups._WordLabels(pc.names, pc.radices), _eager_labels(pc)
        assert len(labels) == len(eager) and list(labels) == eager, text
        assert [labels[-x] for x in range(1, len(eager) + 1)] == eager[::-1], text
        for bad in (len(eager), -len(eager) - 1):
            with pytest.raises(IndexError):
                labels[bad]
    G = build_from_string("g1[3,2,1,1]")
    assert isinstance(G.labels, groups._WordLabels)
    assert list(G.labels) == _eager_labels(groups._presentation(parse_descriptor("g1[3,2,1,1]")))
    with pytest.raises(TypeError):
        G.labels[0] = "a"


def test_build_shares_a_group_only_while_it_is_held():
    desc = parse_descriptor("ab[3,7]")
    G = build(desc)
    assert build(desc) is G and build_from_string("ab[3,7]") is G
    dead = weakref.ref(G)
    del G
    gc.collect()
    assert dead() is None
    H = build(desc)
    again = groups.build.__wrapped__(desc)
    assert again is not H and build(desc) is H
    assert np.array_equal(again.array, H.array) and list(again.labels) == list(H.labels)


@pytest.mark.parametrize("text", ["g1[13,1,1,1]", "g1[3,2,2,2]", "g3[3,3,2,2,1]"])
def test_table_rows_hold_no_gc_references(text, grp):
    # a garbage collection walks every reference a tracked row holds: a
    # memoryview row holds one (its buffer), none per cell, where lists held
    # n^2 for the table
    G = grp(text)
    assert sum(len(gc.get_referents(row)) for row in G.table) <= G.order
    row = G.table[5]
    with pytest.raises(TypeError):
        row[0] = -1
    with pytest.raises(ValueError):
        G.array[5, 0] = -1
    copy = list(row)
    copy[0] = -1
    assert row[0] != -1 and type(row[0]) is int
    assert list(row) == [G.mul(5, y) for y in G.elements()]


@pytest.mark.parametrize("kind", ["list", "array", "memoryview", "ndarray", "rows"])
def test_hand_made_tables_are_stored_as_int16(kind, grp):
    G = grp("q[12]")
    rows = [list(row) for row in G.table]
    table = {"list": rows,
             "array": [array("i", row) for row in rows],
             "memoryview": [memoryview(array("q", row)) for row in rows],
             "ndarray": np.array(rows, dtype=np.int64),
             "rows": G.table}[kind]
    H = FiniteGroup("hand", table, G.labels, dict(G.generators))
    check_group_axioms(H)
    assert H.array.dtype == np.int16 and not H.array.flags.writeable
    assert np.array_equal(H.array, G.array) and H.inverse == G.inverse
    assert all(type(i) is int for i in H.inverse)
    assert [list(row) for row in H.table] == rows


def test_int16_holds_every_index_below_the_order_cap():
    assert ORDER_CAP <= 2 ** 15
    # and a hand-made table past the cap is refused, not wrapped
    table = np.zeros((ORDER_CAP + 1, ORDER_CAP + 1), dtype=np.int16)
    with pytest.raises(GroupTooLargeError, match="exceeds cap"):
        FiniteGroup("big", table, [], {})


def _m2_product(n: int, x: int, y: int) -> int:
    """x y in m2[n] on the words x^i y^j, index i (n/2) + j: y^j x = x y^(j r)
    with r = n/4 + 1."""
    m = n // 2
    (i1, j1), (i2, j2) = divmod(x, m), divmod(y, m)
    return (i1 + i2) % 2 * m + (j1 * pow(m // 2 + 1, i2, m) + j2) % m


def _closed_power(closed, h: int, k: int) -> int:
    """h^k by square and multiply on the closed-form product, in Python ints."""
    p = 0
    for bit in bin(k)[2:]:
        p = closed(p, p)
        if bit == "1":
            p = closed(p, h)
    return p


CAP_PRODUCTS = {"c[4096]": lambda x, y: (x + y) % 4096,
                "m2[4096]": functools.partial(_m2_product, 4096)}


@pytest.mark.parametrize("text", sorted(CAP_PRODUCTS))
def test_cells_at_the_order_cap_read_back_as_ints(text, grp):
    G = grp(text)
    assert G.order == ORDER_CAP and G.array.dtype == np.int16
    closed = CAP_PRODUCTS[text]
    sample = [*range(0, G.order, 61), G.order - 1]
    high = 0
    for x in sample:
        row = G.table[x]
        for y in sample:
            v = row[y]
            assert type(v) is int and v == closed(x, y) == G.array[x, y], (x, y)
            high += v >= 2048
    assert high > len(sample) ** 2 // 4


@pytest.mark.parametrize("text", sorted(CAP_PRODUCTS))
def test_table_arithmetic_at_the_order_cap_does_not_wrap(text, grp):
    # an entry near the cap times the order, 4095 * 4096, wraps in int16:
    # rows hand out Python ints, and the gathers over the array agree with
    # the closed form at the top of the range, where a kernel computing a
    # flat index x n + y in int16 would read the wrong cells
    from davlab.subgroups import _powers, power_set, power_subgroup, whole_subgroup
    from davlab.zerosum import Sequence, is_ordered_free
    G = grp(text)
    n, closed = G.order, CAP_PRODUCTS[text]
    top = G.table[n - 1][n - 1]
    assert top * n == closed(n - 1, n - 1) * n > 2 ** 15
    W = whole_subgroup(G)
    for k in (2, 3, n - 1):
        want = [_closed_power(closed, h, k) for h in range(n)]
        assert _powers(W, k).tolist() == want, k
        assert power_set(W, k) == set(want), k
    squares = {closed(h, h) for h in range(n)}
    assert power_subgroup(W, 2).mask == sum(1 << p for p in squares)
    g = n - 1 if text == "c[4096]" else G.generators["y"]
    order = G.element_order(g)
    assert is_ordered_free(Sequence(G, (g,) * (order - 1)))
    assert not is_ordered_free(Sequence(G, (g,) * order))


# --- associativity by Light's generator test ----------------------------------

def _associative_literal(table) -> bool:
    """(x y) z = x (y z) on every triple, one row x at a time. The table is
    converted once: to intp indices, which numpy would otherwise convert on
    every gather, and to int16 data where it fits, halving the bytes moved."""
    index = np.asarray(table, dtype=np.intp)
    data = index.astype(np.int16 if len(index) < 2 ** 15 else np.int32)
    return all(np.array_equal(data[index[x]], data[x][index]) for x in range(len(index)))


def _latin_literal(table) -> bool:
    """Every row and every column is a permutation of 0..n-1."""
    everything = list(range(len(table)))
    return all(sorted(line) == everything for line in [*table, *zip(*table)])


def _edited_cells(T):
    """Every single-cell edit of table T to each value from -1 to n, and
    every swap of two cells inside a row or inside a column."""
    n = len(T)
    for x, y in itertools.product(range(n), repeat=2):
        for value in range(-1, n + 1):
            yield {(x, y): value}
    for a in range(n):
        for b, c in itertools.combinations(range(n), 2):
            yield {(a, b): T[a][c], (a, c): T[a][b]}
            yield {(b, a): T[c][a], (c, a): T[b][a]}


def _light_on_every_generator(group) -> None:
    """check_group_axioms as it was before Light's test ran on the shortest
    generating prefix only: generation by all the named generators, then
    Light's test on each of them, over the whole table at once."""
    n = group.order
    T = np.asarray(group.array, dtype=np.intp)
    if not (np.array_equal(T[0], np.arange(n)) and np.array_equal(T[:, 0], np.arange(n))):
        raise InternalConsistencyError(f"{group.name}: identity row/column broken")
    gens = group.generating_set()
    rows = T.tolist()
    reached = {0}
    queue = [0]
    for x in queue:
        for g in gens:
            if rows[x][g] not in reached:
                reached.add(rows[x][g])
                queue.append(rows[x][g])
    if len(queue) != n:
        raise InternalConsistencyError(
            f"{group.name}: generators {sorted(group.generators)} do not generate it")
    for g in gens:
        # (x g) y against x (g y), for all x and y at once
        if not np.array_equal(T[T[:, g]], T[:, T[g]]):
            raise InternalConsistencyError(
                f"{group.name}: associativity fails at generator {g}")


def _verdict(check, group) -> str | None:
    try:
        check(group)
    except InternalConsistencyError as err:
        return str(err)
    return None


# the least mean run width at which Light's test copies a generator row's
# runs: 0 copies every row, one past the order cap gathers every row
RUN_RULES = (0, ORDER_CAP + 1)


@pytest.mark.parametrize("text", ["c[6]", "c[7]", "d[6]", "d[8]", "q[8]", "ab[2,2,2]",
                                  "q[12]", "sd[16]"])
def test_axiom_check_accepts_only_latin_associative_edits(text, grp, monkeypatch):
    # the check has no Latin test: in range, identity, right inverses,
    # generation and Light's test must imply it on every edit of the grid,
    # and its verdict is the one of Light's test on every named generator,
    # with every row copied by runs and with every row gathered (no group of
    # the grid is large enough to copy runs by itself); the second generator
    # set adds a redundant one, the product of the others
    G = grp(text)
    accepted = 0
    for generators in (dict(G.generators), dict(G.generators, w=G.product(G.generators.values())),
                       {}):
        for cells in _edited_cells(G.table):
            try:
                edited = _with_cells(G, cells, generators)
            except InternalConsistencyError:
                continue
            verdict = _verdict(_light_on_every_generator, edited)
            for width in RUN_RULES:
                monkeypatch.setattr(groups, "_RUN_COPY_MIN_WIDTH", width)
                assert _verdict(check_group_axioms, edited) == verdict, (cells, width)
            if verdict is None:
                assert _latin_literal(edited.table) and _associative_literal(edited.table)
                accepted += 1
    # the edits that leave a cell as it was
    assert accepted == 3 * G.order ** 2


def _symmetric(k):
    """S_k on the permutations of range(k) in lexicographic order (the
    identity first), generated by a transposition and a k-cycle."""
    perms = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(p[q[i]] for i in range(k))] for q in perms] for p in perms]
    gens = {"s": index[(1, 0) + tuple(range(2, k))],
            "r": index[tuple(range(1, k)) + (0,)]}
    return FiniteGroup(f"S{k}", table, [str(p) for p in perms], gens)


# a non-associative loop of order 5, the least order that has one; right
# powers of 1 run through all five elements, and the identity is its only
# associative element
LOOP5 = [[0, 1, 2, 3, 4],
         [1, 2, 0, 4, 3],
         [2, 3, 4, 0, 1],
         [3, 4, 1, 2, 0],
         [4, 0, 3, 1, 2]]


def _intercalate_swap(G, a, c):
    """G's table with the 2 x 2 subsquare on rows a, a t and columns c, t c
    transposed, where t = x is an involution. The subsquare reads
    [[u, v], [v, u]], so every row and column stays a permutation; the
    generator columns are left alone, so the generators still reach all."""
    T = G.table
    t = G.generators["x"]
    at, tc = T[a][t], T[t][c]
    assert G.element_order(t) == 2 and T[at][tc] == T[a][c] and T[at][c] == T[a][tc]
    assert not {a, at} & {0} and not {c, tc} & {0, *G.generators.values()}
    cells = {(a, c): T[a][tc], (a, tc): T[a][c], (at, c): T[at][tc], (at, tc): T[at][c]}
    return _with_cells(G, cells, dict(G.generators))


@pytest.mark.parametrize("k", [4, 5])
def test_light_check_accepts_symmetric_groups(k):
    G = _symmetric(k)
    check_group_axioms(G)
    assert _associative_literal(G.table)


def test_non_associative_loop_is_rejected():
    assert not _associative_literal(LOOP5)
    loop = FiniteGroup("loop5", LOOP5, list("12345"), {"g": 1})
    with pytest.raises(InternalConsistencyError, match="associativity fails"):
        check_group_axioms(loop)
    # with no named generators, the elements 0 and 1 generate it and are tested
    with pytest.raises(InternalConsistencyError, match="associativity fails"):
        check_group_axioms(FiniteGroup("loop5", LOOP5, list("12345"), {}))


def test_right_zero_semigroup_is_rejected():
    # x y = y is associative, every row holds a 0, and with every element a
    # generator all are reached from 0: only the identity column is wrong
    table = [list(range(4)) for _ in range(4)]
    with pytest.raises(InternalConsistencyError, match="identity row/column broken"):
        check_group_axioms(FiniteGroup("right-zero", table, list("abcd"), {}))


@pytest.mark.parametrize("text,a,c", [("d[32]", 5, 7), ("d[32]", 31, 20),
                                      ("m2[1024]", 1000, 3), ("m2[1024]", 1023, 600)])
def test_intercalate_swap_is_rejected(text, a, c, grp):
    # d[32] fits in one row block of the test, m2[1024] spans eight
    bad = _intercalate_swap(grp(text), a, c)
    if bad.order <= 32:
        assert not _associative_literal(bad.table)
    with pytest.raises(InternalConsistencyError, match="associativity fails"):
        check_group_axioms(bad)


def _copies_runs(G, g) -> bool:
    """Whether Light's test copies the runs of row(g), which then rebuild it."""
    row = G.array[g].astype(np.intp)
    runs = groups._runs(row)
    if runs is not None:
        assert np.array_equal(np.concatenate([np.arange(c, c + b - a) for a, b, c in runs]),
                              row)
    return runs is not None


def test_light_copies_the_runs_of_the_pin_route_generators(grp):
    for text in ("m2[2048]", "g2[3,4,3,2]"):
        G = grp(text)
        prefix = groups._generating_prefix(G)
        assert sorted(prefix) == sorted(G.generators.values())
        assert all(_copies_runs(G, g) for g in prefix), text
    # b's row of g1[3,3,3,1] is 990 runs, fewer than 32 columns each
    G = grp("g1[3,3,3,1]")
    assert G.generators["b"] in groups._generating_prefix(G)
    assert not _copies_runs(G, G.generators["b"])
    # an edit the run copies must see
    bad = _intercalate_swap(grp("m2[256]"), 200, 3)
    assert all(_copies_runs(bad, g) for g in groups._generating_prefix(bad))
    with pytest.raises(InternalConsistencyError, match="associativity fails"):
        check_group_axioms(bad)


def test_axiom_check_rejects_generators_that_do_not_generate(grp):
    G = grp("d[8]")
    partial = FiniteGroup(G.name, G.table, G.labels, {"x": G.generators["x"]})
    with pytest.raises(InternalConsistencyError, match="do not generate it"):
        check_group_axioms(partial)
