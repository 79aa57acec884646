"""Independent checkers: the free and product-one tests of a sequence and
the naive oracles of D(G) and D_A(G), apart from the search engine.

This module imports nothing from zerosum or subgroups, so a check never
loads the engine; zerosum imports its column and weighted steps from here.
A checker builds no byte table: it walks the set-bit loop over the column of
each letter or power it meets (_ColumnSteps, _column_maps).

Some computations are written twice on purpose, one copy checking the
other, and must stay apart: the packed search steps of zerosum and the
column-step checkers; zerosum._submultiset_products (the D' search) and
_UnorderedChecker (is_unordered_free, is_product_one), which share the
column step but not their recursion over sub-multisets; the E search step
and group_length_reach; zerosum.davenport_ordered, the naive oracles and
sequences.is_ordered_free; groups._relations and the family presentations;
theory.loewy_formula and the Jennings M-series. Above the table cutoff of
order 64 the engine steps D and D_A by _weighted_extend, and wide E states
by _ColumnSteps, as the checkers do; there is_ordered_free's numpy gathers
stay the independent check. Every other product-one computation is written
once: the subset-mask walk of the naive oracles (_naive) and of
has_proper_ordered_product_one is _subsequence_products, and the powers
g^a of each element over a weight set are _weighted_rows.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter

from .errors import BudgetExceededError, InvalidWeightsError

# FiniteGroup and Sequence appear in annotations only, never evaluated

DEFAULT_ARRANGE_CAP = 16


# --- the column and weighted steps -----------------------------------------------

def _shifted(mask: int, col) -> int:
    """The set-bit loop over col[x] = x*g, each bit of S*g shifted on the
    fly: it holds no n-bit int per table cell."""
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << col[low.bit_length() - 1]
        mask ^= low
    return out


class _ColumnSteps(dict):
    """steps[g](S) is S*g by the set-bit loop over the column x -> x*g,
    read as one slice of the table on the first use of g: all n columns are
    n^2 cells."""

    def __init__(self, group: FiniteGroup):
        self.array = group.array

    def __missing__(self, g: int):
        step = self[g] = functools.partial(_shifted, col=self.array[:, g].tolist())
        return step


def _weighted_rows(group: FiniteGroup, weights) -> list[list[int]]:
    """Distinct powers g^a over the weight set, one list per element."""
    return [sorted({group.pow(g, a) for a in weights}) for g in group.elements()]


def _validate_weights(group: FiniteGroup, weights) -> tuple[int, ...]:
    A = tuple(sorted(set(weights)))
    n = group.exponent()
    if not A or any(a < 1 or a > n - 1 for a in A):
        raise InvalidWeightsError(
            f"weights must be a nonempty subset of [1, exp(G)-1] = [1, {n-1}], got {A}")
    return A


def _column_maps(group: FiniteGroup, A: tuple[int, ...]):
    """maps[g](S) is the union of S*g^a over a in A by the column steps of
    the powers (_ColumnSteps), which are the maps themselves for A = (1,)."""
    steps = _ColumnSteps(group)
    if A == (1,):
        return steps

    def union(mask: int, powers: list[int]) -> int:
        out = 0
        for h in powers:
            out |= steps[h](mask)
        return out

    return [functools.partial(union, powers=hs) for hs in _weighted_rows(group, A)]


def _weighted_extend(group: FiniteGroup, A: tuple[int, ...]):
    """The reach-mask step extend(S, g) = S | B_g | M_g(S), None on product
    one: B_g is the mask of the distinct powers g^a over a in A, and M_g is
    the union of the S*g^a, by the column steps (_column_maps)."""
    maps = _column_maps(group, A)
    power_masks = [sum(1 << h for h in hs) for hs in _weighted_rows(group, A)]

    def extend(mask: int, g: int) -> int | None:
        new = mask | power_masks[g] | maps[g](mask)
        return None if new & 1 else new

    return extend


# --- free sequences ------------------------------------------------------------

def is_weighted_free(seq: Sequence, weights) -> bool:
    """No index-increasing subsequence with per-term weight choices hits 1."""
    group = seq.group
    A = _validate_weights(group, weights)
    extend = _weighted_extend(group, A)
    mask = 0
    for g in seq.terms:
        mask = extend(mask, g)
        if mask is None:
            return False
    return True


def is_unordered_free(seq: Sequence) -> bool:
    """No nonempty sub-multiset admits an arrangement with product 1."""
    checker = _UnorderedChecker(seq.group)
    ms = tuple(sorted(seq.terms))
    return checker.multiset_free(ms)


class _UnorderedChecker:
    """Arrangement products of multisets, memoized over sub-multisets."""

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.right = _ColumnSteps(group)
        self.arr: dict[tuple, int] = {(): 1}

    def arrangement_products(self, ms: tuple[int, ...]) -> int:
        """Bit mask of products over all arrangements of the full multiset."""
        cached = self.arr.get(ms)
        if cached is not None:
            return cached
        out = 0
        prev = None
        for i, g in enumerate(ms):
            if g == prev:
                continue
            prev = g
            out |= self.right[g](self.arrangement_products(ms[:i] + ms[i + 1:]))
        self.arr[ms] = out
        return out

    def submultisets(self, ms: tuple[int, ...]):
        """Every sub-multiset of ms, sorted, the empty one included."""
        items = sorted(Counter(ms).items())
        for ks in itertools.product(*(range(c + 1) for _, c in items)):
            yield tuple(g for (g, _), k in zip(items, ks) for _ in range(k))

    def multiset_free(self, ms: tuple[int, ...]) -> bool:
        for sub in self.submultisets(ms):
            if sub and self.arrangement_products(sub) & 1:
                return False
        return True


# --- product-one sequences -----------------------------------------------------

def _subsequence_products(table, terms):
    """(mask, product) of every nonempty index-increasing subsequence of
    terms, the subsequence being the terms at the set bits of mask, in
    increasing mask order: the product of a mask is its lowest term times
    the product of the rest, which comes earlier."""
    prods = [0] * (1 << len(terms))
    for m in range(1, len(prods)):
        low = m & -m
        i = low.bit_length() - 1
        rest = m ^ low
        p = prods[m] = table[terms[i]][prods[rest]] if rest else terms[i]
        yield m, p


def is_product_one(seq: Sequence) -> bool:
    """Some arrangement of all terms multiplies to the identity: bit 0 of
    the arrangement products of the multiset (the empty one gives 1)."""
    if len(seq) > DEFAULT_ARRANGE_CAP:
        raise BudgetExceededError(
            f"arrangement search capped at {DEFAULT_ARRANGE_CAP} terms")
    ms = tuple(sorted(seq.terms))
    return _UnorderedChecker(seq.group).arrangement_products(ms) & 1 == 1


def has_proper_ordered_product_one(seq: Sequence) -> bool:
    """Any proper nonempty index-increasing subsequence with product 1?"""
    length = len(seq)
    if length > DEFAULT_ARRANGE_CAP:
        raise BudgetExceededError(f"subsequence scan capped at {DEFAULT_ARRANGE_CAP}")
    full = (1 << length) - 1
    return any(p == 0 and m != full
               for m, p in _subsequence_products(seq.group.table, seq.terms))


def group_length_reach(group: FiniteGroup, terms) -> tuple[int, ...]:
    """Per-length reach: position m holds products of ordered subsequences of
    length exactly m+1, truncated at |G| (longer ones are never needed)."""
    n = group.order
    steps = _ColumnSteps(group)
    state = [0] * n
    for g in terms:
        right = steps[g]
        for m in range(n - 1, 0, -1):
            state[m] |= right(state[m - 1])
        state[0] |= 1 << g
    return tuple(state)


def has_group_length_product_one(seq: Sequence) -> bool:
    """Some index-increasing subsequence of length exactly |G| multiplies to 1."""
    return group_length_reach(seq.group, seq.terms)[seq.group.order - 1] & 1 == 1


# --- naive oracles -------------------------------------------------------------

def davenport_ordered_naive(group: FiniteGroup) -> int:
    """Brute-force D(G): the naive oracle (_naive) at A = {1}."""
    return _naive(group, (1,))


def davenport_weighted_naive(group: FiniteGroup, weights) -> int:
    """Brute-force D_A(G) by the naive oracle (_naive)."""
    return _naive(group, _validate_weights(group, weights))


def _naive(group: FiniteGroup, A: tuple[int, ...]) -> int:
    """Brute-force D_A(G): walk every sequence, testing each prefix for a
    product-one subsequence by direct enumeration of every choice of powers
    g^a of its terms and of all 2^len - 1 subsequences of each choice.
    Prefixes that already contain one are not extended, since every
    extension keeps it. No reach sets, no memoization: the oracle for the
    searches."""
    table = group.table
    powers = _weighted_rows(group, A)
    best = 0

    def walk(seq: list[int]) -> None:
        nonlocal best
        best = max(best, len(seq))
        for g in group.elements():
            seq.append(g)
            if all(p != 0 for choice in itertools.product(*(powers[x] for x in seq))
                   for _, p in _subsequence_products(table, choice)):
                walk(seq)
            seq.pop()

    walk([])
    return best + 1
