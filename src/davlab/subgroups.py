"""Subgroups as bit vectors over element indices, carried by generating sets.

A Subgroup holds its member mask and a list of elements generating it. The
list is recorded by the operations that make subgroups (the named generators
of the group, the kept generators of a closure) and derived greedily from the
mask otherwise. Closures grow one generator at a time, by right cosets of the
subgroup built so far, so a candidate already inside costs one bit test.
Commutator subgroups are normal closures of the commutators of generators;
products close the union of two generating sets; normality is tested by
conjugating generators by generators. The k-th powers of all members are
taken at once, by square and multiply with gathers on the table array.

automorphisms() finds automorphisms from images of the kept generators of
the whole group, each checked as a bijective homomorphism on every element.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import DavlabError
from .groups import FiniteGroup

# Bounds on automorphisms(): generator-image tuples tried, and permutation
# entries kept (|A| * |G|). The second caps the memory of the kept maps and
# the work of one orbit key in the searches, which maps a mask through up to
# |A| of them; at order 32 it admits 1024 automorphisms.
_AUT_MAX_CANDIDATES = 4096
_AUT_MAX_ENTRIES = 1 << 15


class Subgroup:
    """Sorted element set of a parent group, backed by an int bit mask.

    The mask must be closed under the group law. ``gens`` is a list of
    elements generating it, derived from the mask on first use when the
    maker did not record one.
    """

    __slots__ = ("group", "mask", "_gens")

    def __init__(self, group: FiniteGroup, mask: int, gens: list[int] | None = None):
        self.group = group
        self.mask = mask
        self._gens = gens

    @property
    def gens(self) -> list[int]:
        """Elements generating the subgroup; do not mutate the list."""
        if self._gens is None:
            self._gens = _grow(self.group, 1, [], self.elements())[1]
        return self._gens

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, x: int) -> bool:
        return (self.mask >> x) & 1 == 1

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subgroup) and other.group is self.group
                and other.mask == self.mask)

    def __hash__(self) -> int:
        return hash((id(self.group), self.mask))

    def __le__(self, other: "Subgroup") -> bool:
        return other.group is self.group and self.mask & ~other.mask == 0

    def elements(self) -> list[int]:
        return _members(self.mask)

    @property
    def is_trivial(self) -> bool:
        return self.mask == 1

    def __repr__(self) -> str:
        return f"Subgroup(|H|={len(self)} of {self.group.name})"


def _members(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _grow(group: FiniteGroup, mask: int, gens: list[int], candidates):
    """(mask, gens) of <H, candidates> for the subgroup H given as (mask, gens).

    Each candidate c outside the subgroup K built so far becomes a generator,
    and K grows to <K, c> as a union of right cosets K y: since K y g = K (y g),
    a walk over coset representatives under right multiplication by the
    generators visits every coset once.
    """
    table = group.table
    gens = list(gens)
    for c in candidates:
        if (mask >> c) & 1:
            continue
        gens.append(c)
        K = _members(mask)
        reps = [0]
        while reps:
            row = table[reps.pop()]
            for g in gens:
                z = row[g]
                if not (mask >> z) & 1:
                    # z = 1 z is in K z; set first, so the walk also ends
                    # on a table that is not a group
                    mask |= 1 << z
                    for k in K:
                        mask |= 1 << table[k][z]
                    reps.append(z)
    return mask, gens


def whole_subgroup(group: FiniteGroup) -> Subgroup:
    """G, generated by the group's named generators."""
    return Subgroup(group, (1 << group.order) - 1, group.generating_set())


def subgroup_closure(group: FiniteGroup, gens) -> Subgroup:
    """Least subgroup containing gens; empty gens yields the trivial subgroup.

    The result records the generators it kept: those, in ascending order,
    that were not already in the closure of the ones before them.
    """
    return Subgroup(group, *_grow(group, 1, [], sorted(set(gens))))


def _common_group(H: Subgroup, K: Subgroup) -> FiniteGroup:
    if K.group is not H.group:
        raise DavlabError(f"{H!r} and {K!r} are subgroups of two groups")
    return H.group


def commutator_subgroup(H: Subgroup, K: Subgroup) -> Subgroup:
    """[H, K], generated by all pairwise commutators [h, k], h in H, k in K.

    Computed as the same subgroup: the normal closure in <H, K> of the
    commutators [x, y] of generators x of H and y of K. Each generator of the
    closure is conjugated by each generator of H and K and added when it falls
    outside; N^c <= N implies N^c = N in a finite group, so the result is
    normal in <H, K>.
    """
    group = _common_group(H, K)
    table, inv = group.table, group.inverse
    seeds = [group.commutator(x, y) for x in H.gens for y in K.gens]
    conjugators = H.gens + K.gens
    mask, gens = _grow(group, 1, [], seeds)
    i = 0
    while i < len(gens):
        x = gens[i]
        i += 1
        for c in conjugators:  # add x^c = c^-1 x c
            mask, gens = _grow(group, mask, gens, (table[table[inv[c]][x]][c],))
    return Subgroup(group, mask, gens)


def _powers(H: Subgroup, k: int) -> np.ndarray:
    """h^k for every member h of H, in ascending order of h, by square and
    multiply with one gather of the table per step over all members."""
    T = H.group.array
    bits = np.frombuffer(H.mask.to_bytes((len(T) + 7) // 8, "little"), dtype=np.uint8)
    base = np.flatnonzero(np.unpackbits(bits, bitorder="little"))
    if k < 0:
        base = np.asarray(H.group.inverse)[base]
        k = -k
    result = np.zeros_like(base)
    while k:
        if k & 1:
            result = T[result, base]
        k >>= 1
        if k:
            base = T[base, base]
    return result


def power_subgroup(H: Subgroup, k: int) -> Subgroup:
    """Subgroup generated by the k-th powers of the members of H.

    The candidates are the distinct powers in the order of their first
    occurrence over ascending h, so the kept generators are those of the
    powers taken one member at a time."""
    if k < 1:
        raise DavlabError(f"power_subgroup needs k >= 1, got {k}")
    candidates = dict.fromkeys(_powers(H, k).tolist())
    return Subgroup(H.group, *_grow(H.group, 1, [], candidates))


def power_set(H: Subgroup, k: int) -> set[int]:
    """The raw set of k-th powers (not necessarily a subgroup in general)."""
    return set(_powers(H, k).tolist())


def product_subgroup(H: Subgroup, K: Subgroup) -> Subgroup:
    """<H, K>: H grown by the generators of K."""
    group = _common_group(H, K)
    return Subgroup(group, *_grow(group, H.mask, H.gens, K.gens))


def _normalized_by(H: Subgroup, conjugators) -> bool:
    """True when c^-1 H c = H for every c in conjugators: x^c in H for the
    kept generators x of H gives H^c <= H, hence H^c = H. The normalizer is
    a subgroup, so the conjugators need only generate the group in question."""
    table, inv, mask = H.group.table, H.group.inverse, H.mask
    return all((mask >> table[table[inv[c]][x]][c]) & 1
               for c in conjugators for x in H.gens)


def is_normal(H: Subgroup) -> bool:
    return _normalized_by(H, H.group.generating_set())


def lower_central_series(group: FiniteGroup) -> list[Subgroup]:
    """gamma_1 = G, gamma_{i+1} = [gamma_i, G], until it stabilizes."""
    G = whole_subgroup(group)
    series = [G]
    while True:
        nxt = commutator_subgroup(series[-1], G)
        if nxt == series[-1]:
            break
        series.append(nxt)
        if nxt.is_trivial:
            break
    return series


def nilpotency_class(group: FiniteGroup) -> int | None:
    """Class c when gamma_{c+1} = 1; None for non-nilpotent groups."""
    series = lower_central_series(group)
    if not series[-1].is_trivial:
        return None
    return len(series) - 1


def automorphisms(group: FiniteGroup) -> list[list[int]]:
    """A group A of automorphisms of `group`, each as the list of images of
    0..n-1, the identity first.

    Candidates send each kept generator s of the whole group (those
    subgroup_closure keeps) to an element of the same order. A candidate is
    extended along a breadth-first tree of the Cayley graph and kept only
    when the map phi is a bijection with phi(h s) = phi(h) phi(s) for every
    element h and generator s; as the s generate the group, phi is then a
    homomorphism. The automorphisms found are closed under composition. At
    most _AUT_MAX_CANDIDATES candidates are tried, and the enumeration ends
    when a closure would hold more than _AUT_MAX_ENTRIES / |G| maps, so A
    may be a proper subgroup of Aut(G). A is found once per group and kept
    on it, so the searches of several invariants share it: do not mutate it.
    """
    if group._automorphisms is not None:
        return group._automorphisms
    n = group.order
    table = group.table
    gens = subgroup_closure(group, group.generating_set()).gens
    orders = group.element_orders()
    tree = []  # (child, parent, k): child = parent * gens[k], in BFS order
    seen = [True] + [False] * (n - 1)
    visit = [0]
    for h in visit:
        for k, s in enumerate(gens):
            c = table[h][s]
            if not seen[c]:
                seen[c] = True
                visit.append(c)
                tree.append((c, h, k))
    columns = [group.array[:, s].tolist() for s in gens]

    def extended(images) -> list[int] | None:
        """The map sending gens to images, when it is an automorphism."""
        phi = [0] * n
        for c, h, k in tree:
            phi[c] = table[phi[h]][images[k]]
        if len(set(phi)) != n:
            return None
        for col, im in zip(columns, images):
            if [phi[x] for x in col] != [table[y][im] for y in phi]:
                return None
        return phi

    identity = tuple(gens)
    closed = {identity}  # the generator images of every member of A
    found: list[list[int]] = []  # automorphisms generating A
    max_kept = max(1, _AUT_MAX_ENTRIES // n)
    options = [[s] + [y for y in range(n) if orders[y] == orders[s] and y != s]
               for s in gens]
    for images in itertools.islice(itertools.product(*options), _AUT_MAX_CANDIDATES):
        if images in closed:
            continue
        phi = extended(images)
        if phi is None:
            continue
        grown = _close(closed, found + [phi], max_kept)
        if grown is None:
            break
        closed = grown
        found.append(phi)
    group._automorphisms = [list(range(n))] + [extended(im) for im in
                                                sorted(closed - {identity})]
    return group._automorphisms


def _close(members: set, maps: list[list[int]], limit: int) -> set | None:
    """The generator-image tuples of the closure of members under left
    composition with maps, or None when it holds more than limit."""
    out = set(members)
    frontier = list(members)
    while frontier:
        images = frontier.pop()
        for phi in maps:
            nxt = tuple(phi[y] for y in images)
            if nxt not in out:
                if len(out) == limit:
                    return None
                out.add(nxt)
                frontier.append(nxt)
    return out
