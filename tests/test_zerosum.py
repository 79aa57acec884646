import functools
import itertools
import math
import operator
import random
import time
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from davlab import (SearchBudget, Sequence, build, checkers, davenport_ordered,
                    davenport_ordered_naive, davenport_unordered, davenport_weighted,
                    davenport_weighted_naive, eg_invariant, eg_lower_witness,
                    has_group_length_product_one, is_ordered_free, is_product_one,
                    is_unordered_free, is_weighted_free, min_weight_set, make_descriptor,
                    parse_descriptor, validate_descriptor, witness_for_theorem, zerosum)
from davlab.checkers import has_proper_ordered_product_one
from davlab.errors import DavlabError, GroupTooLargeError, InvalidWeightsError
from davlab.groups import FiniteGroup
from davlab.subgroups import automorphisms
from davlab.theory import olson_white


def subsequence_products(G, terms):
    """Direct enumeration of all nonempty index-increasing subsequence products."""
    out = set()
    for r in range(1, len(terms) + 1):
        for picks in itertools.combinations(range(len(terms)), r):
            out.add(G.product([terms[i] for i in picks]))
    return out


def test_reach_matches_direct_enumeration_q8(grp):
    G = grp("q[8]")
    x, y = G.generators["x"], G.generators["y"]
    terms = [y, y, y, x]
    extend = checkers._weighted_extend(G, (1,))
    mask = 0
    for i, t in enumerate(terms):
        mask = extend(mask, t)
        assert {h for h in range(G.order) if mask >> h & 1} == \
            subsequence_products(G, terms[:i + 1])
    expected = subsequence_products(G, terms)
    assert len(expected) == 7 and 0 not in expected


def test_is_ordered_free_witnesses(grp):
    Q8 = grp("q[8]")
    y, x = Q8.generators["y"], Q8.generators["x"]
    assert is_ordered_free(Sequence(Q8, (y, y, y, x)))
    assert not is_ordered_free(Sequence(Q8, (y, y, y, y)))
    assert is_ordered_free(Sequence(Q8, ()))
    assert not is_ordered_free(Sequence(Q8, (y, 0)))  # identity term

    G2 = grp("g2[3,2,1,1]")
    a, b = G2.generators["a"], G2.generators["b"]
    seq = Sequence(G2, (a,) * 8 + (b,) * 2)
    assert len(seq) == 10 and is_ordered_free(seq)


def _ordered_free_by_bitmask(seq) -> bool:
    """is_ordered_free as first written: the reach set as an int bitmask,
    walked one set bit at a time. The reference for the reach-list walk."""
    table = seq.group.table
    mask = 0
    for g in seq.terms:
        new = 1 << g
        m = mask
        while m:
            low = m & -m
            new |= 1 << table[low.bit_length() - 1][g]
            m ^= low
        mask |= new
        if mask & 1:
            return False
    return True


def family_groups(max_order: int) -> list[str]:
    """Every valid descriptor of every family with order at most max_order;
    ab has two or more factors, in nondecreasing order, as ab[n] builds the
    table of c[n] with the same automorphisms (SINGLE_AB)."""
    candidates = [make_descriptor(f, n) for f in ("c", "d", "q", "sd", "m2")
                  for n in range(1, max_order + 1)]
    for k in range(2, max_order.bit_length()):
        candidates += [make_descriptor("ab", *t) for t in
                       itertools.combinations_with_replacement(range(2, max_order + 1), k)
                       if math.prod(t) <= max_order]
    for p in (3, 5):
        for e in itertools.product(range(1, 4), repeat=3):
            candidates += [make_descriptor("g1", p, *e), make_descriptor("g2", p, *e)]
    out = []
    for desc in candidates:
        try:
            validate_descriptor(desc)
        except DavlabError:
            continue
        if desc.theoretical_order() <= max_order:
            out.append(desc.canonical())
    return out


# The single-factor ab[n] build the table of c[n], with the same
# automorphisms: test_d_and_d_a_equal_their_former_steps asserts it on each.
SINGLE_AB = [f"ab[{n}]" for n in range(2, 33)]


def _random_sequences(G, rng: random.Random, count: int):
    """Sequences of length 0 to |G|, half of them drawn from one to three
    elements so that terms repeat; the identity is an element like any other."""
    for _ in range(count):
        if rng.random() < 0.5:
            pool = rng.sample(range(G.order), min(G.order, rng.randint(1, 3)))
        else:
            pool = range(G.order)
        length = rng.randint(0, G.order)
        yield Sequence(G, tuple(rng.choice(pool) for _ in range(length)))


def test_is_ordered_free_equals_the_bitmask_walk(grp):
    texts = family_groups(32)
    assert {"c[32]", "ab[2,2,2,2,2]", "q[32]", "g1[3,1,1,1]", "g2[3,2,1,1]"} <= set(texts)
    outcomes = {True: 0, False: 0}
    for text in texts:
        G = grp(text)
        rng = random.Random(text)
        for seq in _random_sequences(G, rng, 60):
            free = is_ordered_free(seq)
            assert free == _ordered_free_by_bitmask(seq), (text, seq.terms)
            outcomes[free] += 1
    assert min(outcomes.values()) > 100, outcomes


@pytest.mark.parametrize("text,theorem", [("m2[2048]", 7), ("g1[3,3,3,1]", 6),
                                          ("g2[3,4,3,2]", 6)])
def test_is_ordered_free_equals_the_bitmask_walk_at_large_order(text, theorem, grp):
    G = grp(text)
    seq = witness_for_theorem(parse_descriptor(text), theorem).sequence(G)
    assert is_ordered_free(seq) and _ordered_free_by_bitmask(seq)
    # the inverse of the whole product closes a product-one sequence
    closed = Sequence(G, seq.terms + (G.inv(G.product(list(seq.terms))),))
    assert not is_ordered_free(closed) and not _ordered_free_by_bitmask(closed)


def _ordered_free_per_term(seq) -> bool:
    """is_ordered_free before runs were doubled: R |= g^-1 R and g^-1 added,
    one gather per term, 1 tested after every term. The reference for the
    run-doubled walk."""
    group = seq.group
    T, inverse = group.array, group.inverse
    R = np.zeros(group.order, dtype=bool)
    for g in seq.terms:
        R |= R[T[g]]
        R[inverse[g]] = True
        if R[0]:
            return False
    return True


def test_run_doubling_equals_the_per_term_walk_on_theorem_witnesses(grp):
    """Every theorem witness of the acceptance scans and of the pin groups,
    and each of them with one more term: the closing inverse, the identity,
    each of its own terms (one run grows by one) and four random elements."""
    from davlab.theory import witness_plan
    from test_groups import LARGE_FILLS, SCAN_GROUPS
    rng = random.Random(26)
    outcomes = {True: 0, False: 0}
    witnesses = 0
    for text in sorted(set(SCAN_GROUPS) | set(LARGE_FILLS)):
        desc = parse_descriptor(text)
        plan = witness_plan(desc)
        if plan is None:
            continue
        G = grp(text)
        seq = witness_for_theorem(desc, plan[0], allow_unverified=True).sequence(G)
        witnesses += 1
        extra = {G.inv(G.product(seq.terms)), 0, *seq.terms,
                 *(rng.randrange(G.order) for _ in range(4))}
        for terms in [seq.terms] + [seq.terms + (g,) for g in sorted(extra)]:
            free = is_ordered_free(Sequence(G, terms))
            assert free == _ordered_free_per_term(Sequence(G, terms)), (text, terms[-1])
            outcomes[free] += 1
    # each witness is free and of length D(G) - 1, so every extension is not
    assert outcomes[True] == witnesses == 42 and outcomes[False] > 300, outcomes


@pytest.mark.parametrize("text", ["c[12]", "q[8]", "d[16]", "m2[64]", "g1[3,1,1,1]",
                                  "g2[3,2,1,1]", "g2[3,4,2,2]"])
def test_run_doubling_equals_the_per_term_walk_on_random_runs(text, grp):
    """Sequences of one to five runs drawn from one to three elements, so
    that runs of one element also meet; a run is at most as long as the
    order of its element, or four times in five up to 2|G| terms."""
    G = grp(text)
    rng = random.Random(text)
    outcomes = {True: 0, False: 0}
    for _ in range(150):
        pool = rng.sample(range(G.order), rng.randint(1, 3))
        terms = ()
        for _ in range(rng.randint(1, 5)):
            g = rng.choice(pool)
            longest = G.element_order(g) if rng.random() < 0.8 else 2 * G.order
            terms += (g,) * rng.randint(1, longest)
        free = is_ordered_free(Sequence(G, terms))
        assert free == _ordered_free_per_term(Sequence(G, terms)), terms
        outcomes[free] += 1
    assert min(outcomes.values()) > 10, outcomes


def test_davenport_q8(grp):
    res = davenport_ordered(grp("q[8]"))
    assert res.value == 5 and res.exact
    assert len(res.witness) == 4
    assert is_ordered_free(res.witness)


def test_davenport_trivial_group(grp):
    res = davenport_ordered(grp("c[1]"))
    assert res.value == 1 and res.exact and len(res.witness) == 0


@pytest.mark.parametrize("n", range(2, 13))
def test_davenport_cyclic(n, grp):
    assert davenport_ordered(grp(f"c[{n}]")).value == n


def test_witness_is_lexicographically_least(grp):
    res = davenport_ordered(grp("c[4]"))
    # the least free length-3 sequence over C_4 is (g, g, g)
    assert res.witness.terms == (1, 1, 1)


def test_group_too_large_without_budget(grp, monkeypatch):
    def no_tables(group, *args):
        raise AssertionError("the cap is checked before any table is built")

    for name in ("_ColumnSteps", "_packed_step", "automorphisms"):
        monkeypatch.setattr(zerosum, name, no_tables)
    monkeypatch.setattr(checkers, "_ColumnSteps", no_tables)  # the lazy D_A step's
    with pytest.raises(GroupTooLargeError):
        davenport_ordered(grp("g1[3,2,1,1]"))  # order 81 > default cap 64
    with pytest.raises(GroupTooLargeError):
        davenport_weighted(grp("g1[3,2,1,1]"), (1, 2))
    with pytest.raises(GroupTooLargeError):
        eg_invariant(grp("q[16]"))  # order 16 > E cap 8
    with pytest.raises(GroupTooLargeError):
        davenport_unordered(grp("q[48]"))  # order 48 > unordered cap 32


@pytest.mark.parametrize("variant", ["ordered", "weighted", "E"])
def test_budget_trips_gracefully(variant, grp):
    budget = SearchBudget(max_states=200)
    if variant == "ordered":
        res = davenport_ordered(grp("g1[3,1,1,1]"), budget)
        free = is_ordered_free(res.witness)
    elif variant == "weighted":
        # the whole search takes 8 orbit states
        res = davenport_weighted(grp("g1[3,1,1,1]"), (1, 2), SearchBudget(max_states=4))
        free = is_weighted_free(res.witness, (1, 2))
    else:
        res = eg_invariant(grp("q[8]"), budget)
        free = not has_group_length_product_one(res.witness)
    assert not res.exact
    assert res.value >= 2
    assert len(res.witness) == res.value - 1
    assert free


def no_byte_tables(row):
    raise AssertionError("no byte table is built above the cutoff")


def test_time_budget_bounds_deep_search(grp, monkeypatch):
    monkeypatch.setattr(zerosum, "_byte_tables", no_byte_tables)
    # a recursive walk of this depth overflows the interpreter stack; the
    # first walk found is 1100 steps long, and refuting 1101 takes longer
    # than the budget. One state tries 2,199 letters, each a set-bit step
    # over about 1,100 elements, so the clock is read inside its letter loop.
    start = time.perf_counter()
    res = davenport_ordered(grp("ab[2,1100]"), SearchBudget(max_seconds=1))
    assert time.perf_counter() - start < 10
    assert res.elapsed <= 1.25
    assert not res.exact and res.stop_reason == "seconds"
    assert len(res.witness) == res.value - 1
    assert is_ordered_free(res.witness)


def test_room_cut_refutes_a_deep_cyclic_search(grp, monkeypatch):
    monkeypatch.setattr(zerosum, "_byte_tables", no_byte_tables)
    # (g)^1099 is found greedily, and every first step leaves too little room
    # for 1100 more
    res = davenport_ordered(grp("c[1100]"), SearchBudget(max_seconds=60))
    assert res.exact and res.value == 1100 and res.stop_reason == "done"
    assert res.witness.terms == (1,) * 1099


# Orders 1, 2, 6, 12 and 56 end in a partial byte; 12 to 64 take the two- to
# eight-byte unrolled lookups, and d[72] lies above the table cutoff, where
# the children are a lazy walk that reads the clock every 64 letters.
MAP_GRID = ["c[1]", "c[2]", "d[6]", "q[12]", "q[24]", "q[32]", "q[40]", "d[48]", "q[56]",
            "m2[64]", "d[72]"]


@functools.lru_cache(maxsize=None)
def _map_group(text):
    return build(parse_descriptor(text))


@functools.lru_cache(maxsize=None)
def _packed_step(text, A, width):
    return zerosum._packed_step(_map_group(text), A, width)


def _literal_step(G, mask, g):
    """S*g written out: the OR of 1 << x*g over the elements x of S."""
    return functools.reduce(operator.or_, (1 << G.table[x][g] for x in range(G.order)
                                           if mask >> x & 1), 0)


def _weights_and_masks(G, data):
    """A drawn weight set, and a drawn mask of G with its complement."""
    A = tuple(sorted(data.draw(st.sets(st.integers(1, max(1, G.exponent() - 1)),
                                       min_size=1, max_size=3))))
    sparse = sum(1 << x for x in data.draw(st.sets(st.integers(0, G.order - 1))))
    return A, (sparse, sparse ^ ((1 << G.order) - 1))


@settings(derandomize=True, deadline=None)
@given(st.sampled_from(MAP_GRID), st.data())
def test_packed_step_matches_bit_loop(text, data):
    """For a weight set A, slot g of the packed search step (byte tables, up
    to the cutoff), at a slot width of n or 2n, and the checkers' column
    union (at every order) both give the union of the S*g^a over a in A;
    A = (1,) is S*g."""
    G = _map_group(text)
    A, masks = _weights_and_masks(G, data)
    n = G.order
    width = n * data.draw(st.integers(1, 2))
    columns = checkers._column_maps(G, A)
    step = _packed_step(text, A, width) if n <= zerosum._BYTE_TABLE_MAX_ORDER else None
    for mask in masks:
        expected = [functools.reduce(operator.or_, (_literal_step(G, mask, G.pow(g, a))
                                                    for a in A)) for g in range(n)]
        assert [columns[g](mask) for g in range(n)] == expected, (text, A, mask)
        if step is not None:
            packed = step(mask)
            assert packed >> n * width == 0
            assert [packed >> g * width & ((1 << width) - 1) for g in range(n)] == expected, \
                (text, A, mask)


@settings(derandomize=True, deadline=None)
@given(st.sampled_from(MAP_GRID), st.data())
def test_weighted_children_match_the_column_step(text, data):
    """The children of a reach mask, all letters stepped at once up to the
    cutoff and lazily above it, are the live letters of _weighted_extend
    over the column steps, letter by letter, and nothing else."""
    G = _map_group(text)
    A, masks = _weights_and_masks(G, data)
    children = zerosum._weighted_children(G, A, zerosum._Clock(SearchBudget()))
    extend = checkers._weighted_extend(G, A)
    for mask in masks + (0,):
        expected = [(g, extend(mask, g)) for g in range(1, G.order)]
        assert list(children(mask)) == [c for c in expected if c[1] is not None], \
            (text, A, mask)


def _unpacked(state, n, count=None):
    """The components of an int state, n bits each: n of them, or count."""
    return tuple(state >> m * n & ((1 << n) - 1) for m in range(n if count is None else count))


@settings(derandomize=True, deadline=None)
@given(st.sampled_from([f"c[{n}]" for n in range(1, 9)] + ["d[6]", "q[8]", "c[9]", "q[12]"]),
       st.data())
def test_packed_eg_state_is_the_group_length_reach(text, data):
    """Along a random sequence, the E state, packed in one int up to order 8
    and a tuple of components above, decodes to group_length_reach of the
    prefix, and a letter is live exactly when the prefix it ends has no
    product-one subsequence of length |G|."""
    G = build(parse_descriptor(text))
    n = G.order
    children = zerosum._eg_children(G)
    terms = data.draw(st.lists(st.integers(0, n - 1), max_size=3 * n))
    wide = n * n > zerosum._BYTE_TABLE_MAX_ORDER
    state = (0,) * n if wide else 0
    for i, g in enumerate(terms):
        live = dict(children(state))
        reach = checkers.group_length_reach(G, terms[:i + 1])
        assert (g in live) == (reach[n - 1] & 1 == 0), (text, terms[:i + 1])
        if g not in live:
            break
        state = live[g]
        assert (state if wide else _unpacked(state, n)) == reach, (text, terms[:i + 1])
        assert list(live) == sorted(live)


def test_checkers_stay_small_on_a_large_group(grp):
    """The checkers step through the columns of the letters they meet: on a
    group of order 2048 a 3-term check builds no n^2 structure."""
    G = grp("m2[2048]")
    seq = Sequence(G, (1, 2, 3))
    checks = {"is_weighted_free": lambda: is_weighted_free(seq, (1, 3)),
              "is_unordered_free": lambda: is_unordered_free(seq),
              "has_group_length_product_one": lambda: has_group_length_product_one(seq)}
    answers = {}
    for name, check in checks.items():
        tracemalloc.start()
        try:
            start = time.perf_counter()
            answers[name] = check()
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20 and seconds < 0.5, (name, peak, seconds)
    assert not answers["has_group_length_product_one"]
    free = is_ordered_free(seq)
    assert is_weighted_free(seq, (1,)) == free
    assert answers["is_weighted_free"] <= free and answers["is_unordered_free"] <= free


def test_olson_white():
    assert olson_white(16) == 9  # sd[16]
    assert olson_white(12) == 7  # q[12]
    assert olson_white(6) == 4  # d[6]


NAIVE_GRID = ["c[1]", "c[2]", "c[3]", "c[4]", "c[5]", "c[6]", "c[7]", "c[8]",
              "ab[2,2]", "d[6]", "q[8]", "d[8]"]


@pytest.mark.parametrize("text", NAIVE_GRID)
def test_search_equals_naive_oracle(text, grp):
    G = grp(text)
    assert davenport_ordered(G).value == davenport_ordered_naive(G), text


@settings(derandomize=True, deadline=None)
@given(st.sampled_from(NAIVE_GRID), st.lists(st.integers(min_value=0), max_size=10))
def test_freeness_matches_direct_enumeration(text, raw):
    G = build(parse_descriptor(text))
    seq = Sequence(G, tuple(x % G.order for x in raw))
    free = 0 not in subsequence_products(G, seq.terms)
    assert is_ordered_free(seq) == free
    if G.exponent() > 1:  # the trivial group has no valid weight set
        assert is_weighted_free(seq, (1,)) == is_ordered_free(seq)


def test_product_one_pair(grp):
    G = grp("d[8]")
    y = G.generators["y"]
    assert is_product_one(Sequence(G, (y, G.inv(y))))
    pair = Sequence(G, (y, G.inv(y)))
    assert is_product_one(pair) and not has_proper_ordered_product_one(pair)


def test_product_one_needs_arrangement(grp):
    G = grp("d[6]")
    x, y = G.generators["x"], G.generators["y"]
    # x*y*inv(xy) reordered: some arrangement closes to 1
    terms = (y, x, G.inv(G.mul(x, y)))
    assert is_product_one(Sequence(G, terms))


def test_q8_witness_not_product_one(grp):
    G = grp("q[8]")
    x, y = G.generators["x"], G.generators["y"]
    assert not is_product_one(Sequence(G, (y, y, y, x)))


def test_minimal_rejects_inner_product_one(grp):
    G = grp("c[4]")
    h = G.pow(G.generators["g"], 2)
    # (g^2)^4 closes to 1 but so does the proper prefix (g^2)^2
    seq = Sequence(G, (h, h, h, h))
    assert is_product_one(seq)
    assert not (is_product_one(seq) and not has_proper_ordered_product_one(seq))


def _product_one_by_memo_walk(seq) -> bool:
    """is_product_one as first written: a memoized walk over (terms left,
    product so far), stopping at the first arrangement that closes to 1."""
    table = seq.group.table
    memo = {}

    def reach(remaining, prod):
        if not remaining:
            return prod == 0
        if (remaining, prod) not in memo:
            memo[remaining, prod] = any(
                reach(remaining[:i] + remaining[i + 1:], table[prod][g])
                for i, g in enumerate(remaining) if i == 0 or remaining[i - 1] != g)
        return memo[remaining, prod]

    return reach(tuple(sorted(seq.terms)), 0)


def _proper_product_one_by_subset_loop(seq) -> bool:
    """has_proper_ordered_product_one as first written: the products of all
    subsequences by subset mask, each the lowest term times the rest."""
    table, terms = seq.group.table, seq.terms
    full = (1 << len(terms)) - 1
    prods = [0] * (full + 1)
    for m in range(1, full + 1):
        low = m & -m
        i = low.bit_length() - 1
        prods[m] = table[terms[i]][prods[m ^ low]] if m ^ low else terms[i]
        if prods[m] == 0 and m != full:
            return True
    return False


@pytest.mark.parametrize("text", ["c[5]", "c[6]", "ab[2,2]", "d[6]", "q[8]", "d[8]", "q[16]"])
def test_witness_plus_inverse_is_minimal_product_one(text, grp):
    """Also: both product-one predicates equal their first versions on every
    multiset of at most 6 terms, in sorted and in shuffled order, up to
    order 8, and on random sequences up to the 16-term cap above it."""
    G = grp(text)
    witness = davenport_ordered(G).witness
    closing = G.inv(G.product(witness.terms))
    closed = Sequence(G, witness.terms + (closing,))
    assert len(closed) == davenport_ordered(G).value
    assert is_product_one(closed) and not has_proper_ordered_product_one(closed)
    rng = random.Random(text)
    if G.order <= 8:
        samples = [list(ms) for k in range(7)
                   for ms in itertools.combinations_with_replacement(range(G.order), k)]
        samples += [rng.sample(ms, len(ms)) for ms in samples]
    else:
        samples = [[rng.randrange(G.order) for _ in range(rng.randint(0, 16))]
                   for _ in range(24)]
    for terms in samples:
        seq = Sequence(G, tuple(terms))
        assert is_product_one(seq) == _product_one_by_memo_walk(seq), terms
        assert (has_proper_ordered_product_one(seq)
                == _proper_product_one_by_subset_loop(seq)), terms


def test_unordered_free_vs_ordered(grp):
    G = grp("q[8]")
    x, y = G.generators["x"], G.generators["y"]
    seq = Sequence(G, (y, y, y, x))
    assert is_ordered_free(seq)
    assert is_unordered_free(seq)  # no arrangement of any sub-multiset closes


def test_unordered_tiny_values(grp):
    assert davenport_unordered(grp("c[1]")).value == 1
    for text in ("c[4]", "c[6]", "ab[2,2]", "ab[3,3]"):
        G = grp(text)
        assert davenport_unordered(G).value == davenport_ordered(G).value, text


def test_unordered_at_most_ordered(grp):
    for text in ("d[6]", "d[8]", "q[8]", "c[7]"):
        G = grp(text)
        assert davenport_unordered(G).value <= davenport_ordered(G).value


def test_unordered_m16(grp):
    res = davenport_unordered(grp("m2[16]"))
    assert res.value == 9 and res.exact
    assert is_unordered_free(res.witness)


def test_unordered_cap(grp):
    with pytest.raises(GroupTooLargeError):
        davenport_unordered(grp("q[48]"))


@pytest.mark.parametrize("text,value", [("q[24]", 13), ("d[24]", 13), ("d[32]", 17),
                                        ("q[32]", 17), ("sd[32]", 17), ("m2[32]", 17)])
def test_unordered_within_the_cap(text, value, grp):
    res = davenport_unordered(grp(text))
    assert res.value == value and res.exact
    assert len(res.witness) == value - 1 and is_unordered_free(res.witness)


def test_eg_small_cyclic(grp):
    for n in range(1, 6):
        res = eg_invariant(grp(f"c[{n}]"))
        assert res.value == 2 * n - 1, n
        assert res.exact
        assert not has_group_length_product_one(res.witness)


def test_eg_klein(grp):
    G = grp("ab[2,2]")
    res = eg_invariant(G)
    assert res.value == davenport_ordered(G).value + G.order - 1 == 6


def test_eg_lower_witness(grp):
    G = grp("q[8]")
    witness = davenport_ordered(G).witness
    padded = eg_lower_witness(witness)
    assert len(padded) == len(witness) + G.order - 1 == 11
    assert not has_group_length_product_one(padded)

    C3 = grp("c[3]")
    g = C3.generators["g"]
    padded3 = eg_lower_witness(Sequence(C3, (g, g)))
    assert len(padded3) == 4
    assert not has_group_length_product_one(padded3)
    assert eg_invariant(C3).value == 5


def test_eg_lower_witness_rejects_unfree(grp):
    G = grp("c[3]")
    g = G.generators["g"]
    with pytest.raises(DavlabError):
        eg_lower_witness(Sequence(G, (g, g, g)))


def test_weighted_identity_weight_matches_ordered(grp):
    for text in ("c[5]", "c[8]", "ab[2,2]", "d[6]", "q[8]", "d[8]"):
        G = grp(text)
        assert davenport_weighted(G, (1,)).value == davenport_ordered(G).value, text


def test_weighted_c5_frozen_value(grp):
    G = grp("c[5]")
    res = davenport_weighted(G, (1, 4))
    assert res.value == 3 and res.exact
    assert davenport_weighted_naive(G, (1, 4)) == 3
    assert is_weighted_free(res.witness, (1, 4))


def test_weighted_q8_against_naive(grp):
    G = grp("q[8]")
    res = davenport_weighted(G, (1, 3))
    assert res.value == davenport_weighted_naive(G, (1, 3)) == 4


def test_weighted_validation(grp):
    G = grp("c[5]")
    with pytest.raises(InvalidWeightsError):
        davenport_weighted(G, ())
    with pytest.raises(InvalidWeightsError):
        davenport_weighted(G, (0,))
    with pytest.raises(InvalidWeightsError):
        davenport_weighted(G, (5,))  # exp(G) - 1 = 4


def test_min_weight_set(grp):
    C5 = grp("c[5]")
    assert min_weight_set(C5, 5) == 1      # A = {1} already achieves D
    assert min_weight_set(C5, 3) == 2      # {1,4} works, no singleton does
    assert min_weight_set(C5, 1) is None   # exponent attained: never product-one
    for a in range(1, 5):
        assert davenport_weighted(C5, (a,)).value == 5


def test_min_weight_set_cap(grp):
    with pytest.raises(GroupTooLargeError):
        min_weight_set(grp("d[32]"), 3)


def test_search_results_report_state_counts(grp):
    res = davenport_ordered(grp("d[8]"))
    assert res.states_explored > 0
    assert res.elapsed >= 0
    assert res.stop_reason == "done"


@pytest.mark.parametrize("max_states", [1, 50, 1000])
def test_keyed_budget_trip_is_a_valid_lower_bound(max_states, grp):
    res = shipped(Case(davenport_ordered, "q[32]", (), max_states))
    assert not res.exact and res.stop_reason == "states"
    assert len(res.witness) == res.value - 1
    assert is_ordered_free(Sequence(grp("q[32]"), res.witness))
    assert res.value <= 17


@pytest.mark.parametrize("max_states", [1, 50])
def test_unordered_budget_trip_is_a_valid_lower_bound(max_states, grp):
    res = shipped(Case(davenport_unordered, "q[32]", (), max_states))
    assert not res.exact
    assert len(res.witness) == res.value - 1
    assert is_unordered_free(Sequence(grp("q[32]"), res.witness))
    assert res.value <= 17


def test_orbit_keys_make_the_frontier_rung_exact(grp):
    res = davenport_ordered(grp("q[32]"), SearchBudget(max_states=20_000))
    assert res.exact and res.value == 17
    assert is_ordered_free(res.witness) and len(res.witness) == 16


def test_d_of_g2_is_pinned_with_the_theorem_6_block_witness(grp):
    """D(g2[3,2,1,1]) = 11 = L. The least longest walk follows the element
    indices, so on the words b^j a^i (a = 1, b = 9) it is a^8 b^2, theorem
    6's block order."""
    G = grp("g2[3,2,1,1]")
    a, b = G.generators["a"], G.generators["b"]
    res = davenport_ordered(G)
    assert (res.value, res.exact, res.stop_reason, res.states_explored) == (11, True, "done", 12485)
    assert res.witness.terms == (a,) * 8 + (b,) * 2 and res.witness.compact() == "(a)^8 (b)^2"


@pytest.mark.parametrize("max_states", [1, 50, 1000])
@pytest.mark.parametrize("search,text,args", [
    (davenport_ordered, "q[32]", ()), (davenport_weighted, "q[32]", ((1, 5),)),
    (eg_invariant, "d[6]", ()), (eg_invariant, "q[8]", ()), (davenport_unordered, "q[32]", ())],
    ids=["D", "D_A", "E", "E_central", "Dprime"])
def test_state_budget_trips_one_state_past_its_limit(search, text, args, max_states):
    """The state budget is checked at every stored state, however seldom the
    clock is read. E runs on d[6], whose centre is {1}, and on q[8], whose
    centre of order 2 keys it by central translations too."""
    res = shipped(Case(search, text, args, max_states))
    assert res.stop_reason == "states" and res.states == max_states + 1
    assert len(res.witness) == res.value - 1


def test_e_above_the_table_width_builds_small_tables(grp, monkeypatch):
    """E of order 16 has states of 256 bits: lifted tables would be 32 of 256
    entries of 1 KB, and per-component tables in slots of 256 bits 256 KB.
    It steps each component with D's tables of 16-bit slots (16 KB) and keys
    componentwise through the orbit tables of one component (32 KB), and
    the right step of its one central element but 1 (1 KB): no table set
    per central element."""
    def counted(row):
        tabs = tables(row)
        built.extend(entry for tab in tabs for entry in tab)
        return tabs

    tables, built = zerosum._byte_tables, []
    monkeypatch.setattr(zerosum, "_byte_tables", counted)
    res = eg_invariant(grp("q[16]"), SearchBudget(max_states=500))
    assert sum(entry.bit_length() for entry in built) <= 8 * (48 << 10)
    assert (res.value, res.stop_reason, res.states_explored) == (24, "states", 501)
    assert res.witness.terms == (0,) * 15 + (1,) * 7 + (8,)
    assert not has_group_length_product_one(res.witness)


def test_lifted_e_key_tables_are_largest_on_ab222(grp):
    """E keys by every map phi(a, z) over the whole centre. Its lifted key
    tables, ceil(n^2/8) tables of 256 entries of one slot of at most 64 bits
    per map, take at most 1 MiB on every family group of order at most 8
    but ab[2,2,2], whose 168 * 8 maps take 21 MiB; its search peaks below
    32 MB of Python allocations."""
    table_bytes = {}
    for text in family_groups(8):
        G = grp(text)
        maps = zerosum._phi_targets(G, G.center(), G.order).shape[1]
        assert maps == len(automorphisms(G)) * len(G.center())
        table_bytes[text] = -(-G.order ** 2 // 8) * 256 * maps * 8
    largest = max(table_bytes, key=table_bytes.get)
    assert largest == "ab[2,2,2]" and table_bytes[largest] == 21 << 20
    assert max(b for text, b in table_bytes.items() if text != largest) <= 1 << 20
    tracemalloc.start()
    try:
        res = eg_invariant(grp("ab[2,2,2]"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.value, res.exact, res.states_explored) == (11, True, 60)
    assert peak < 32 << 20, peak


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(family_groups(8)), st.data())
def test_lifted_e_key_splits_states_as_the_componentwise_key(text, data):
    """On E states reached along random sequences, and their images under
    maps phi(a, z), two states get equal lifted keys exactly when they get
    equal componentwise keys: both keys split the states into the same
    orbits, so the search is the same."""
    G, auts = _group_and_automorphisms(text)
    center = G.center()
    n = G.order
    children = zerosum._eg_children(G)
    states = set()
    for letters in data.draw(st.lists(st.lists(st.integers(0, n - 1), max_size=2 * n),
                                      min_size=1, max_size=4)):
        state = 0
        for g in letters:
            state = dict(children(state)).get(g)
            if state is None:
                break
            states |= {_packed(G, _eg_image(G, _unpacked(state, n), phi, z))
                       for phi in auts[:8] for z in center[:4]}
    lifted = zerosum._least_image(zerosum._phi_targets(G, center, n))
    componentwise = zerosum._tuple_key(G, center)
    pairs = {(lifted(state), componentwise(_unpacked(state, n))) for state in states}
    assert len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs})


INVARIANCE_GRID = ["c[8]", "ab[2,2]", "d[6]", "q[8]", "d[8]", "q[12]", "m2[16]"]


@functools.lru_cache(maxsize=None)
def _group_and_automorphisms(text):
    G = build(parse_descriptor(text))
    return G, automorphisms(G)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(INVARIANCE_GRID), st.data())
def test_freeness_is_invariant_under_automorphisms(text, data):
    G, auts = _group_and_automorphisms(text)
    terms = data.draw(st.lists(st.integers(0, G.order - 1), max_size=G.order + 2))
    universe = list(range(1, G.exponent()))
    weights = data.draw(st.sets(st.sampled_from(universe), min_size=1))
    seq = Sequence(G, tuple(terms))
    expected = (is_ordered_free(seq), is_weighted_free(seq, weights),
                has_group_length_product_one(seq), is_unordered_free(seq))
    for phi in auts:
        image = Sequence(G, tuple(phi[x] for x in terms))
        assert (is_ordered_free(image), is_weighted_free(image, weights),
                has_group_length_product_one(image),
                is_unordered_free(image)) == expected, (text, phi, terms)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(INVARIANCE_GRID), st.data())
def test_group_length_product_one_is_invariant_under_central_translations(text, data):
    """x -> a(x)*z with z central moves a product of |G| terms by z^|G| = 1,
    so the E predicate keeps its answer under every such map."""
    G, auts = _group_and_automorphisms(text)
    terms = data.draw(st.lists(st.integers(0, G.order - 1), max_size=G.order + 2))
    expected = has_group_length_product_one(Sequence(G, tuple(terms)))
    for phi in auts:
        for z in G.center():
            image = Sequence(G, tuple(G.mul(phi[x], z) for x in terms))
            assert has_group_length_product_one(image) == expected, (text, phi, z, terms)


def test_central_translations_keep_only_e(grp):
    """A product of k terms moves by z^k, which is 1 at k = |G| but not below:
    in c[2] the sequence (g) is ordered-free, and its translate by z = g is
    (1), which is not. So D, D_A and D' key by automorphisms alone."""
    G = grp("c[2]")
    g = G.generators["g"]
    assert G.center() == [0, g] and G.mul(g, g) == 0
    free, translate = Sequence(G, (g,)), Sequence(G, (G.mul(g, g),))
    for check in (is_ordered_free, is_unordered_free, lambda seq: is_weighted_free(seq, (1,))):
        assert check(free) and not check(translate)
    # both (g, g) and its translate (1, 1) have a product one of length 2
    assert has_group_length_product_one(Sequence(G, (g, g)))
    assert has_group_length_product_one(Sequence(G, (0, 0)))


def _image(mask, phi):
    return sum(1 << y for x, y in enumerate(phi) if mask >> x & 1)


def _eg_image(G, components, phi, z):
    """The image of E components under phi(a, z): x in component m, a
    product of m+1 terms, goes to a(x)*z^(m+1)."""
    return tuple(_image(mask, [G.mul(y, G.pow(z, m + 1)) for y in phi])
                 for m, mask in enumerate(components))


def _packed(G, components):
    """The int E state of components, packed n bits apart."""
    return sum(mask << m * G.order for m, mask in enumerate(components))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(INVARIANCE_GRID + ["q[32]"]), st.data())
def test_orbit_keys_are_canonical(text, data):
    """A key is an image of the state, and every image has the same key."""
    G, auts = _group_and_automorphisms(text)
    mask_key = zerosum._least_image(zerosum._phi_targets(G, (0,), 1))
    tuple_key = zerosum._tuple_key(G)
    state = tuple(data.draw(st.lists(st.integers(0, (1 << G.order) - 1),
                                     min_size=1, max_size=4)))
    images = [tuple(_image(m, phi) for m in state) for phi in auts]
    assert mask_key(state[0]) in {image[0] for image in images}
    assert tuple_key(state) in images
    for image in images:
        assert mask_key(image[0]) == mask_key(state[0])
        assert tuple_key(image) == tuple_key(state)
    # the E keys, under the maps phi(a, z) over the whole centre: the
    # componentwise key of a tuple and, where the state fits the tables,
    # the lifted key of the components packed n bits apart
    center = G.center()
    e_images = [_eg_image(G, state, phi, z) for phi in auts for z in center]
    eg_key = zerosum._tuple_key(G, center)
    assert eg_key(state) in e_images
    assert {eg_key(image) for image in e_images} == {eg_key(state)}
    assert _unpacked(_packed(G, state), G.order, len(state)) == state
    if G.order ** 2 <= zerosum._BYTE_TABLE_MAX_ORDER:
        lifted_key = zerosum._least_image(zerosum._phi_targets(G, center, G.order))
        packed_images = {_packed(G, image) for image in e_images}
        assert lifted_key(_packed(G, state)) in packed_images
        assert {lifted_key(image) for image in packed_images} == {lifted_key(_packed(G, state))}
    # the D' key: tuple_key of the multiplicity layers of a sorted multiset
    ms = tuple(sorted(data.draw(st.lists(st.integers(0, G.order - 1), max_size=G.order))))
    layers = zerosum._layers(ms)
    assert tuple(sorted(x for layer in layers for x in range(G.order)
                        if layer >> x & 1)) == ms
    ms_images = [tuple(sorted(phi[x] for x in ms)) for phi in auts]
    assert tuple_key(layers) in {zerosum._layers(image) for image in ms_images}
    for image in ms_images:
        assert tuple_key(zerosum._layers(image)) == tuple_key(layers)


@pytest.mark.parametrize("text, states", [("m2[16]", 282), ("q[16]", 139),
                                          ("d[16]", 117), ("q[24]", 976)])
def test_unordered_orbit_states_are_pinned(text, states, grp):
    """The orbit partition of the D' memo: a key that splits or merges
    orbits changes these counts."""
    res = davenport_unordered(grp(text))
    assert res.exact and res.states_explored == states


def reference_unordered(G):
    """The multiset search D' ran before it moved onto the engine: a
    recursive walk over sorted multisets, extended only by g >= max(ms),
    where ms + g is free when no sub-multiset of ms has an arrangement with
    g of product 1. Returns the value, the witness and the multisets
    visited."""
    checker = checkers._UnorderedChecker(G)
    best = []
    nodes = 0

    def extension_free(ms, g):
        return not any(checker.arrangement_products(tuple(sorted(sub + (g,)))) & 1
                       for sub in checker.submultisets(ms))

    def walk(ms, start):
        nonlocal nodes
        nodes += 1
        if len(ms) > len(best):
            best[:] = ms
        for g in range(start, G.order):
            if extension_free(ms, g):
                walk(ms + (g,), g)

    walk((), 1)
    return 1 + len(best), tuple(best), nodes


def _longest_free_reference(group, start, children, clock, key, room=None, *, targets):
    """The engine before it refuted lengths: a memoized DFS for the longest
    walk, memo[key(state)] being the longest walk from state, with the
    witness rebuilt from the memo. It takes no cut and tries every letter,
    so room and the maps of the key, targets, are ignored."""
    memo = {}
    path = []
    best_path = []
    stack = [(key(start), iter(children(start)))]
    bests = [0]  # longest walk found so far from each stacked state
    try:
        while stack:
            for g, nxt in stack[-1][1]:
                if nxt is None:
                    continue
                path.append(g)
                if len(path) > len(best_path):
                    best_path[:] = path
                k = key(nxt)
                v = memo.get(k)
                if v is None:
                    clock.tick(len(memo))
                    stack.append((k, iter(children(nxt))))
                    bests.append(0)
                    break
                path.pop()
                if v >= bests[-1]:
                    bests[-1] = v + 1
            else:
                v = memo[stack.pop()[0]] = bests.pop()
                if stack:
                    clock.tick(len(memo))
                    path.pop()
                    if v >= bests[-1]:
                        bests[-1] = v + 1
    except zerosum._BudgetHit:
        return zerosum.SearchResult(1 + len(best_path), Sequence(group, tuple(best_path)),
                                    len(memo), clock.elapsed(), clock.stop_reason)
    terms = []
    state = start
    remaining = memo[key(start)]
    while remaining > 0:
        for g, nxt in children(state):
            if nxt is not None and memo[key(nxt)] == remaining - 1:
                terms.append(g)
                state = nxt
                remaining -= 1
                break
    return zerosum.SearchResult(1 + memo[key(start)], Sequence(group, tuple(terms)),
                                len(memo), clock.elapsed())


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.sampled_from(INVARIANCE_GRID), st.data())
def test_extension_step_matches_the_verifier(text, data):
    """For free M, M + g is free exactly when g^-1 is not in R(M)."""
    G = build(parse_descriptor(text))
    terms = ()
    for x in data.draw(st.lists(st.integers(1, G.order - 1), max_size=G.order)):
        grown = tuple(sorted(terms + (x,)))
        if is_unordered_free(Sequence(G, grown)):
            terms = grown
    g = data.draw(st.integers(0, G.order - 1))
    reach = zerosum._submultiset_products(G)
    assert (reach(terms) >> G.inv(g) & 1 == 0) == is_unordered_free(Sequence(G, terms + (g,)))


# D and D_A as they were searched before D became D_A at A = {1}: D by its
# own step S | {g} | S*g, D_A by a loop over the powers of each letter with
# the identity letter in its alphabet, both over the S*g maps of the parent
# (byte tables of one column, column steps above the cutoff), one letter at
# a time (_letter_children); and the two brute-force walkers the one naive
# oracle replaced.

def _reference_right_maps(G):
    if G.order > zerosum._BYTE_TABLE_MAX_ORDER:
        return checkers._ColumnSteps(G)
    return [zerosum._byte_map(zerosum._byte_tables([1 << y for y in col]))
            for col in G.array.T.tolist()]


def _letter_children(extend, alphabet):
    """children over extend(state, g) for each live letter g of alphabet in turn."""
    return lambda state: ((g, nxt) for g in alphabet if (nxt := extend(state, g)) is not None)


def reference_ordered(G, budget=None):
    maps = _reference_right_maps(G)

    def extend(mask, g):
        new = mask | (1 << g) | maps[g](mask)
        return None if new & 1 else new

    return zerosum._longest_free(G, 0, _letter_children(extend, range(1, G.order)),
                                 zerosum._Clock(budget or SearchBudget()),
                                 zerosum._least_image(zerosum._phi_targets(G, (0,), 1)),
                                 zerosum._room(G), targets=np.arange(G.order)[:, None])


def reference_weighted(G, A, budget=None):
    choice = [sorted({G.pow(g, a) for a in A}) for g in G.elements()]
    maps = _reference_right_maps(G)

    def extend(mask, g):
        new = mask
        for h in choice[g]:
            new |= (1 << h) | maps[h](mask)
        return None if new & 1 else new

    return zerosum._longest_free(G, 0, _letter_children(extend, range(G.order)),
                                 zerosum._Clock(budget or SearchBudget()),
                                 zerosum._least_image(zerosum._phi_targets(G, (0,), 1)),
                                 zerosum._room(G), targets=np.arange(G.order)[:, None])


def reference_ordered_naive(G):
    table = G.table
    best = 0

    def walk(seq):
        nonlocal best
        if len(seq) > best:
            best = len(seq)
        for g in range(G.order):
            seq.append(g)
            if all(p != 0 for _, p in checkers._subsequence_products(table, seq)):
                walk(seq)
            seq.pop()

    walk([])
    return best + 1


def reference_weighted_naive(G, A):
    table = G.table
    best = 0

    def products(seq):
        out = set()
        for msk in range(1, 1 << len(seq)):
            picked = [seq[i] for i in range(len(seq)) if msk >> i & 1]
            for assign in itertools.product(A, repeat=len(picked)):
                p = 0
                for g, a in zip(picked, assign):
                    p = table[p][G.pow(g, a)]
                out.add(p)
        return out

    def walk(seq):
        nonlocal best
        if len(seq) > best:
            best = len(seq)
        for g in range(G.order):
            cand = seq + (g,)
            if 0 not in products(cand):
                walk(cand)

    walk(())
    return best + 1


def weight_sets(G):
    """For exponent e > 1: {1, e-1}, or {1} at e = 2; {1, d} for d the least
    element order above 1 and below e, a weight with the identity among its
    powers; and [2, e-1] when e > 3."""
    e = G.exponent()
    if e == 1:
        return []
    orders = [o for o in G.element_orders() if 1 < o < e]
    sets = [(1, e - 1) if e > 2 else (1,)]
    if orders:
        sets.append((1, min(orders)))
    if e > 3:
        sets.append(tuple(range(2, e)))
    return sets


# The oracles are no engine searches; they keep the ab[n] the grid leaves out.
@pytest.mark.parametrize("text", family_groups(8) + SINGLE_AB[:7])
def test_naive_oracle_equals_the_former_walkers(text, grp):
    G = grp(text)
    assert davenport_ordered_naive(G) == reference_ordered_naive(G), text
    for A in weight_sets(G):
        assert davenport_weighted_naive(G, A) == reference_weighted_naive(G, A), (text, A)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(INVARIANCE_GRID), st.data())
def test_path_stabilizer_fixes_the_state_and_pairs_the_children(text, data):
    """A map of the key fixing every letter of a sequence fixes its state,
    and the children by h and by the image of h get equal keys: D's reach
    mask of the longest free prefix and the multiset of that prefix under
    automorphisms, and E's state of the whole sequence under x -> a(x)*z,
    the action on letters of the first |G| rows of E's maps."""
    G, auts = _group_and_automorphisms(text)
    n, center = G.order, G.center()
    # terms from at most three letters, so that maps often fix them all
    pool = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    terms = data.draw(st.lists(st.sampled_from(pool), max_size=n))
    extend = checkers._weighted_extend(G, (1,))
    prefix, mask = [], 0
    for g in terms:
        if (nxt := extend(mask, g)) is None:
            break
        prefix, mask = prefix + [g], nxt
    mask_key = zerosum._least_image(zerosum._phi_targets(G, (0,), 1))
    layer_key = zerosum._tuple_key(G)
    ms = tuple(sorted(prefix))
    for phi in auts:
        if any(phi[g] != g for g in prefix):
            continue
        assert _image(mask, phi) == mask
        for h in range(n):
            a, b = extend(mask, h), extend(mask, phi[h])
            assert (a is None) == (b is None)
            if a is not None:
                assert mask_key(a) == mask_key(b), (text, prefix, phi, h)
            assert layer_key(zerosum._layers(tuple(sorted(ms + (h,))))) == \
                layer_key(zerosum._layers(tuple(sorted(ms + (phi[h],)))))
    letters = zerosum._phi_targets(G, center, n)[:n].T.tolist()
    assert sorted(letters) == sorted([G.mul(phi[x], z) for x in range(n)]
                                     for z in center for phi in auts)
    eg_key = zerosum._tuple_key(G, center)
    state = checkers.group_length_reach(G, terms)
    for act in letters:
        if any(act[g] != g for g in terms):
            continue
        z = act[0]  # a(1)*z
        phi = next(phi for phi in auts if [G.mul(y, z) for y in phi] == act)
        assert _eg_image(G, state, phi, z) == state
        for h in range(n):
            assert eg_key(checkers.group_length_reach(G, terms + [h])) == \
                eg_key(checkers.group_length_reach(G, terms + [act[h]])), (text, terms, h)


# --- Engine equivalence ------------------------------------------------------
# D, D_A, E and D' share one engine, _longest_free, whose features must not
# change an answer. Each case of one table is searched once by the shipped
# engine (shipped); each test below switches one feature off, searches its
# cases again and relates each result to that outcome.

# search(G, *args, budget) on the group text, budget holding max_states =
# states (None: the default budget). No case has a time budget, whose trips
# depend on the machine. An Outcome holds no group, so the memo keeps none
# alive.
Case = namedtuple("Case", "search text args states", defaults=((), None))
Outcome = namedtuple("Outcome", "value exact stop_reason witness states keys")


def run(case) -> Outcome:
    budget = None if case.states is None else SearchBudget(max_states=case.states)
    res = case.search(build(parse_descriptor(case.text)), *case.args, budget)
    return Outcome(res.value, res.exact, res.stop_reason, res.witness.terms,
                   res.states_explored, res.keys)


@functools.lru_cache(maxsize=None)
def shipped(case) -> Outcome:
    """case under the shipped engine, searched once."""
    return run(case)


def switch_off(cases, monkeypatch, *changes, off=run):
    """The shipped outcomes of cases, then the results of off on them with
    each (owner, name, value) of changes set: in that order, so that no
    shipped search runs patched and no feature is compared with itself."""
    before = [shipped(case) for case in cases]
    with monkeypatch.context() as m:
        for change in changes:
            m.setattr(*change)
        return before, [off(case) for case in cases]


def walk(res):
    return res.value, res.exact, res.witness


def _cases(search, texts, states=None):
    return [Case(search, text, (), states) for text in texts]


# The table: D and D_A (weight_sets) on every family group of order at most
# 32, E to order 8, D' to order 16, and the searches added to them.
FAMILY = family_groups(32)
FAMILY_D, FAMILY_E = _cases(davenport_ordered, FAMILY), _cases(eg_invariant, family_groups(8))
FAMILY_D_PRIME = _cases(davenport_unordered, family_groups(16))
FAMILY_D_A = [Case(davenport_weighted, text, (A,)) for text in FAMILY
              for A in weight_sets(build(parse_descriptor(text)))]
WEIGHTED = [Case(davenport_weighted, text, (A,)) for text, A in [
    ("q[12]", (1, 5)), ("q[24]", (1, 5)), ("d[16]", (1, 3)), ("c[8]", (1, 7)),
    ("c[9]", (2, 4)), ("ab[2,4]", (1, 3)), ("d[12]", (1, 5)), ("q[16]", (1, 7)),
    ("sd[16]", (1, 3)), ("d[24]", (1, 11)), ("m2[16]", (3, 5))]]
# the ordered items of the benchmark's search workload but the q[32] rung,
# whose unkeyed search takes about 20 s
KEYED_GRID = NAIVE_GRID + ["q[16]", "sd[16]", "m2[16]", "q[24]", "d[32]"]
KEYED = (_cases(davenport_ordered, KEYED_GRID) + _cases(eg_invariant, ["c[8]", "d[6]", "q[8]"])
         + WEIGHTED[:3] + _cases(davenport_unordered, ["q[16]", "m2[16]"]))
STATE_BUDGETS = [Case(search, text, (), states) for search, text, states in [
    (davenport_ordered, "q[32]", 50), (davenport_ordered, "q[32]", 2_000),
    (davenport_ordered, "m2[32]", 3_000), (davenport_ordered, "q[48]", 5_000),
    (eg_invariant, "q[12]", 5_000), (eg_invariant, "d[10]", 3_000),
    (davenport_unordered, "q[48]", 1_000)]]
# the q[32] frontier rung, and D_A above the byte-table cutoff
BUDGETED_FORMER = {("q[32]", None): Case(davenport_ordered, "q[32]", (), 20_000)} | {
    (text, A): Case(davenport_weighted, text, (A,), 3_000)
    for text, A in [("d[36]", (1, 5)), ("q[48]", (1, 5, 7))]}
NO_ORBIT_KEYS = (zerosum, "automorphisms", lambda group: [list(range(group.order))])
NO_BYTE_TABLES = (zerosum, "_byte_tables", no_byte_tables)


def test_orbit_keys_give_the_same_search(monkeypatch):
    """Keyed and unkeyed searches agree on value, exactness and witness."""
    before, after = switch_off(KEYED, monkeypatch, NO_ORBIT_KEYS)
    for case, b, a in zip(KEYED, before, after):
        assert walk(b) == walk(a) and b.states <= a.states, case
    assert sum(b.states for b in before) < sum(a.states for a in after)


def test_central_translations_give_the_same_e_search(monkeypatch):
    """E keyed by the maps phi(a, z) and by automorphisms alone (the centre
    forced to {1}) is exact and agrees on value and witness, on every family
    group of order at most 8 and on c[9], c[10] and ab[3,3], in no more
    states on any group and in fewer in all."""
    cases = FAMILY_E + _cases(eg_invariant, ["c[9]", "c[10]", "ab[3,3]"], 50_000)
    before, after = switch_off(cases, monkeypatch, (FiniteGroup, "center", lambda group: [0]))
    for case, b, a in zip(cases, before, after):
        assert b.exact and walk(b) == walk(a) and b.states <= a.states, case
    assert sum(b.states for b in before) < sum(a.states for a in after)


def _unpruned(group, *args, targets, engine=zerosum._longest_free):
    """The shipped engine, bound at import, given the identity map alone."""
    return engine(group, *args, targets=np.arange(group.order)[:, None])


def test_path_stabilizer_pruning_saves_only_keys(monkeypatch):
    """Given the identity map alone, the engine tries every letter: each
    search keeps its value, exact flag, stop reason, witness and state
    count, and computes no fewer keys."""
    cases = FAMILY_D + WEIGHTED + FAMILY_E + FAMILY_D_PRIME + STATE_BUDGETS
    before, after = switch_off(cases, monkeypatch, (zerosum, "_longest_free", _unpruned))
    for case, b, a in zip(cases, before, after):
        assert b[:5] == a[:5] and b.keys <= a.keys, case
    assert sum(b.keys for b in before) < sum(a.keys for a in after)
    # D(q[32]) is exact in 1,594 states; the six other budgets trip
    assert [shipped(case).stop_reason for case in STATE_BUDGETS].count("states") == 6


def test_refutation_equals_the_longest_walk(monkeypatch):
    """The refuting engine gives the values, exactness and witnesses of the
    longest-walk DFS; without a cut (E, D') it keeps the same states, with
    the cut (D, D_A) no more."""
    cases = (KEYED + [case for case in _cases(davenport_ordered, family_groups(24))
                      if case.text not in KEYED_GRID] + WEIGHTED[3:])
    before, after = switch_off(cases, monkeypatch,
                               (zerosum, "_longest_free", _longest_free_reference))
    for case, b, a in zip(cases, before, after):
        cut = case.search in (davenport_ordered, davenport_weighted)
        assert walk(b) == walk(a) and (b.states <= a.states if cut else b.states == a.states), case


def former_steps(case):
    former = {davenport_ordered: reference_ordered, davenport_weighted: reference_weighted}
    return run(case._replace(search=former[case.search]))


@pytest.mark.parametrize("text", FAMILY + SINGLE_AB)
def test_d_and_d_a_equal_their_former_steps(text, grp, monkeypatch):
    """ab[n] builds the table of c[n] with the same automorphisms, so its
    searches are those of c[n], checked under the id of c[n]."""
    if text in SINGLE_AB:
        G, C = grp(text), grp(text.replace("ab", "c"))
        assert np.array_equal(G.array, C.array) and automorphisms(G) == automorphisms(C)
        return
    cases = [case for case in FAMILY_D + FAMILY_D_A if case.text == text]
    before, after = switch_off(cases, monkeypatch, off=former_steps)
    assert [b[:5] for b in before] == [a[:5] for a in after]


@pytest.mark.parametrize("text,A", list(BUDGETED_FORMER))
def test_budgeted_searches_equal_their_former_steps(text, A, monkeypatch):
    [before], [after] = switch_off([BUDGETED_FORMER[text, A]], monkeypatch, off=former_steps)
    assert before[:5] == after[:5]


@pytest.mark.parametrize("text,A", list(BUDGETED_FORMER)[1:])
def test_budgeted_column_step_searches_equal_their_former_steps(text, A, monkeypatch):
    """D_A on the column steps, with the cutoff patched below the order (the
    lazy children and the set-bit orbit keys): the shipped search and the
    former steps alike."""
    [before], [(res, former)] = switch_off(
        [BUDGETED_FORMER[text, A]], monkeypatch, (zerosum, "_BYTE_TABLE_MAX_ORDER", 32),
        NO_BYTE_TABLES, off=lambda case: (run(case), former_steps(case)))
    assert before[:5] == res[:5] == former[:5]


def test_bit_loop_path_gives_the_same_search(monkeypatch):
    cases = [Case(davenport_ordered, "q[16]"), Case(eg_invariant, "d[6]"), WEIGHTED[0],
             Case(davenport_unordered, "q[16]")]
    before, after = switch_off(cases, monkeypatch, (zerosum, "_BYTE_TABLE_MAX_ORDER", 0),
                               NO_BYTE_TABLES)
    assert [b[:5] for b in before] == [a[:5] for a in after]


@pytest.mark.parametrize("case", [Case(search, text, (), 20_000) for search, text in [
    (eg_invariant, "c[10]"), (davenport_unordered, "q[16]"), (davenport_ordered, "q[32]")]],
    ids=["E", "Dprime", "D"])
def test_key_caches_stay_bounded(case, monkeypatch):
    """Every cache of keys and images holds two generations: with
    generations of 4 entries none holds more than 8, and each search keeps
    its value, exact flag, stop reason, witness and state count. E above the
    table width caches the engine's keys, the components' automorphic
    images and their translated concatenations, D' the engine's keys and
    its layers' images, D the engine's keys."""
    caches, made = [], zerosum._Generations

    def recorded(compute):
        caches.append(made(compute))
        return caches[-1]

    [before], [after] = switch_off([case], monkeypatch, (zerosum, "_Generations", recorded),
                                   (zerosum, "_KEY_CACHE_GENERATION", 4))
    assert before.exact and before[:5] == after[:5]
    assert len(caches) == {eg_invariant: 3, davenport_unordered: 2, davenport_ordered: 1}[case.search]
    assert all(len(cache) + len(cache.retired) <= 8 for cache in caches)


@pytest.mark.parametrize("case", FAMILY_D_PRIME, ids=[case.text for case in FAMILY_D_PRIME])
def test_unordered_search_equals_the_reference_walk(case, grp, monkeypatch):
    G = grp(case.text)
    value, witness, nodes = reference_unordered(G)
    [keyed], [unkeyed] = switch_off([case], monkeypatch, NO_ORBIT_KEYS)
    for res in (keyed, unkeyed):
        assert (res.value, res.exact, res.witness) == (value, True, witness)
    assert unkeyed.states == nodes
    # an automorphism a moving x merges the states (x,) and (a(x),)
    assert (keyed.states < nodes) == (len(automorphisms(G)) > 1)


# Every item of the benchmark's search workload, and E on every family group
# of order at most 8, pinned: (case, value, states_explored, witness), each
# exact. A change to the steps, the orbit keys, the key cache or the engine
# that moves one of these changes the search, not only its speed.
ONES = (1,) * 15
SEARCH_PINS = [
    (Case(davenport_ordered, "q[16]"), 9, 78, ONES[:7] + (8,)),
    (Case(davenport_ordered, "sd[16]"), 9, 147, ONES[:7] + (8,)),
    (Case(davenport_ordered, "m2[16]"), 9, 159, ONES[:7] + (8,)),
    (Case(davenport_ordered, "q[24]"), 13, 516, ONES[:11] + (12,)),
    (Case(davenport_ordered, "d[32]"), 17, 316, ONES + (16,)),
    (Case(davenport_ordered, "q[32]", (), 20_000), 17, 1594, ONES + (16,)),
    (Case(davenport_unordered, "m2[16]"), 9, 282, ONES[:7] + (8,)),
    (Case(davenport_unordered, "q[16]"), 9, 139, ONES[:7] + (8,)),
    (Case(davenport_weighted, "q[24]", ((1, 5),)), 9, 532, (12, 12, 12, 13, 14, 15, 16, 17)),
] + [(Case(eg_invariant, text), value, states, witness)
      for text, value, states, witness in [
    ("c[1]", 1, 1, ()),
    ("c[2]", 3, 3, (0, 1)),
    ("c[3]", 5, 6, (0, 0, 1, 1)),
    ("c[4]", 7, 17, (0, 0, 0, 1, 1, 1)),
    ("c[5]", 9, 26, (0,) * 4 + (1,) * 4),
    ("c[6]", 11, 111, (0,) * 5 + (1,) * 5),
    ("c[7]", 13, 136, (0,) * 6 + (1,) * 6),
    ("c[8]", 15, 535, (0,) * 7 + (1,) * 7),
    ("d[4]", 6, 10, (0, 0, 0, 1, 2)),
    ("d[6]", 11, 2336, (1, 1, 1, 1, 1, 3, 2, 3, 2, 3)),
    ("d[8]", 12, 19387, (0,) * 7 + (1, 1, 1, 4)),
    ("q[8]", 12, 6012, (0,) * 7 + (1, 1, 1, 4)),
    ("ab[2,2]", 6, 10, (0, 0, 0, 1, 2)),
    ("ab[2,3]", 11, 111, (0,) * 5 + (4,) * 5),
    ("ab[2,4]", 12, 291, (0,) * 7 + (1, 1, 1, 4)),
    ("ab[2,2,2]", 11, 60, (0,) * 7 + (1, 2, 4)),
]]


@pytest.mark.parametrize("case,value,states,witness", SEARCH_PINS,
                         ids=[f"{case.search.__name__}-{case.text}" for case, *_ in SEARCH_PINS])
def test_searches_are_pinned(case, value, states, witness):
    assert shipped(case)[:5] == (value, True, "done", witness, states)


# Orbit keys each search computes with the pruning, at most; the searches
# that tried every letter computed the counts in the comments.
KEY_COUNT_BOUNDS = [
    (Case(davenport_ordered, "d[32]"), 813),  # 2,477
    (Case(davenport_ordered, "q[32]", (), 20_000), 4_030),  # 5,954
    (Case(davenport_unordered, "q[24]"), 1_485),  # 5,202
    (Case(davenport_unordered, "q[32]"), 4_672),  # 20,223
    (Case(davenport_weighted, "q[24]", ((1, 5),)), 1_128),  # 1,394
    (Case(eg_invariant, "d[8]"), 35_720),  # 37,593
]


@pytest.mark.parametrize("case,bound", KEY_COUNT_BOUNDS,
                         ids=[f"{case.search.__name__}-{case.text}" for case, _ in KEY_COUNT_BOUNDS])
def test_pruned_searches_compute_few_keys(case, bound):
    res = shipped(case)
    assert res.exact and 0 < res.keys <= bound, res.keys
