"""Explicit finite groups built from presentations as full multiplication tables.

Every family is a polycyclic presentation, given as data: relative orders,
power words g_k^(r_k) and conjugate words g_k^-1 g_j g_k. Its elements are
the normal-form words, listed in row-major mixed-radix order. One function
makes the table of any such presentation, in one form for every family:
the top-down series, each <g_{k+1}, ...> normal in <g_k, ...>. It builds
the table of each <g_k, ...> from whole rows of the table of <g_{k+1}, ...>
by the product rule of the presentation, one slice add per block. The table
is stored once, as one read-only n x n int16 array (2 bytes a cell: every
index lies below ORDER_CAP <= 2^15), and all later work is table lookups:
rows are slices of one flat memoryview over the array, and whole-group
sweeps are numpy gathers on it. Element 0 is always the identity and labels
are the normal-form words, spelled from the index when one is read. Every
built table is proven a group (entries in range, identity, right inverses,
generation and Light's associativity test on the shortest prefix of the
named generators that generates the group, O(|gens| n^2) at every order; a
monoid with right inverses is a group, hence Latin), and every relation of
the family's own presentation is checked, so the presentations and the
table build are verified, not trusted. ``build`` shares a group among its
callers while one of them holds it, and keeps no table that none of them
holds.
"""

from __future__ import annotations

import functools
import math
import operator
import weakref
from collections import abc
from typing import NamedTuple, Sequence

import numpy as np

from .descriptors import GroupDescriptor, validate_descriptor
from .errors import GroupTooLargeError, InternalConsistencyError
from .numtheory import is_prime, prime_power
from .theory import ORDER_CAP


@functools.cache
def _prime_divisors(n: int) -> tuple[int, ...]:
    """The primes dividing n, found once per order, not once per element."""
    return tuple(p for p in range(2, n + 1) if n % p == 0 and is_prime(p))


class FiniteGroup:
    """A finite group as a complete multiplication table on 0..order-1.

    Immutable after construction; instances are safe to share, and ``build``
    hands one instance to every caller while some caller holds it (it keeps
    a weak reference, so a group nobody holds is freed). ``array`` is the
    table as a read-only n x n int16 numpy array, its only store, for
    whole-group sweeps by gathers. ``table[x]`` is row x, a read-only slice
    of one flat memoryview over the array (format 'h'), so ``table[x][y]``,
    the product x*y, is an int: index a row, slice it or take ``list(row)``
    for a list copy, but do not compare it with a list. Index 0 is the
    identity, ``prime`` is p when the order is a power of p, else None.
    ``labels[x]`` names element x: a built group spells its normal word on
    demand from a read-only sequence (``list(labels)`` lists them all), a
    hand-made group takes any sequence of strings.

    The table may be given as that array (``build``) or as rows of ints
    (lists, arrays, memoryviews); either way it is stored as int16 once every
    entry is known to lie in 0..n-1, and InternalConsistencyError is raised
    otherwise, or when a row holds no 0 (no right inverse). A C-contiguous
    int16 array is kept without a copy and made read-only. The named
    ``generators`` generate the whole group (``build`` checks this); centers
    and whole-group subgroups rely on it. A group made with no named
    generators counts as generated by all of its elements.
    """

    __slots__ = ("name", "order", "array", "table", "inverse", "labels",
                 "generators", "prime", "_orders", "_automorphisms", "__weakref__")

    def __init__(self, name: str, table: np.ndarray | Sequence[Sequence[int]],
                 labels: Sequence[str], generators: dict[str, int]):
        T = np.asarray(table)
        n = len(T)
        if n > ORDER_CAP:
            raise GroupTooLargeError(f"{name}: order {n} exceeds cap {ORDER_CAP}")
        # compared before the int16 cast, which would wrap an entry such as
        # 40000; every index taken from the table is an entry, so in range
        if T.shape != (n, n) or not (T.min() >= 0 and T.max() < n):
            raise InternalConsistencyError(f"{name}: table entry out of range")
        T = np.ascontiguousarray(T, dtype=np.int16)
        # before the array is made read-only: argmin copies a read-only array
        self.inverse = _inverses(name, T)
        T.flags.writeable = False
        flat = memoryview(T.reshape(-1))
        self.name = name
        self.order = n
        self.array = T
        self.table = [flat[x * n:x * n + n] for x in range(n)]
        self.labels = labels
        self.generators = generators
        pp = prime_power(n)
        self.prime = pp[0] if pp else None
        self._orders: list[int] | None = None
        self._automorphisms: list[list[int]] | None = None  # subgroups.automorphisms

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"

    def __len__(self) -> int:
        return self.order

    def elements(self) -> range:
        return range(self.order)

    def mul(self, x: int, y: int) -> int:
        return self.table[x][y]

    def inv(self, x: int) -> int:
        return self.inverse[x]

    def pow(self, x: int, k: int) -> int:
        """x**k by square and multiply; k may be negative."""
        if k < 0:
            x = self.inverse[x]
            k = -k
        result = 0
        table = self.table
        while k > 1:
            if k & 1:
                result = table[result][x]
            x = table[x][x]
            k >>= 1
        # the top bit multiplies without squaring past it
        return table[result][x] if k else result

    def commutator(self, x: int, y: int) -> int:
        """[x, y] = x^-1 y^-1 x y (left-normed convention)."""
        t = self.table
        return t[t[self.inverse[x]][self.inverse[y]]][t[x][y]]

    def product(self, terms) -> int:
        """Left-to-right product of a term sequence; empty product is 1."""
        result = 0
        t = self.table
        for g in terms:
            result = t[result][g]
        return result

    def element_order(self, x: int) -> int:
        """The least divisor d of |G| with x^d = 1: starting from d = |G|,
        each prime p of |G| is divided out of d while x^(d/p) = 1, one power
        by squaring per test."""
        d = self.order
        power = self.pow
        for p in _prime_divisors(d):
            while d % p == 0 and power(x, d // p) == 0:
                d //= p
        return d

    def element_orders(self) -> list[int]:
        """The order of every element, by index; do not mutate the list."""
        if self._orders is None:
            self._orders = list(map(self.element_order, range(self.order)))
        return self._orders

    def exponent(self) -> int:
        return math.lcm(*self.element_orders())

    def generating_set(self) -> list[int]:
        """The named generators, or every element when none are named."""
        return list(self.generators.values()) or list(self.elements())

    def center(self) -> list[int]:
        """Elements commuting with every generator, hence with every element."""
        t = self.table
        gens = self.generating_set()
        return [z for z in range(self.order) if all(t[z][g] == t[g][z] for g in gens)]


class _WordLabels(abc.Sequence):
    """The normal words of a presentation, entry x the word of element x,
    spelled when it is read: only a few labels of a group are ever shown."""

    __slots__ = ("_names", "_radices", "_order")

    def __init__(self, names: tuple[str, ...], radices: tuple[int, ...]):
        self._names, self._radices = names, radices
        self._order = math.prod(radices)

    def __len__(self) -> int:
        return self._order

    def __getitem__(self, x) -> str:
        x = operator.index(x)
        if x < 0:
            x += self._order
        if not 0 <= x < self._order:
            raise IndexError("label index out of range")
        bits = []
        for name, r in zip(reversed(self._names), reversed(self._radices)):
            x, e = divmod(x, r)
            if e:
                bits.append(name if e == 1 else f"{name}^{e}")
        return " ".join(reversed(bits)) if bits else "1"


# --- polycyclic presentations --------------------------------------------------
# (Sims, Computation with Finitely Presented Groups, 1994, ch. 9; Holt, Eick
# & O'Brien, Handbook of Computational Group Theory, 2005, ch. 8.)
# _relations and validate_descriptor stay per family, as the independent
# check on the presentations.


class _Presentation(NamedTuple):
    """The group of the normal words g_0^e_0 ... g_{K-1}^e_{K-1},
    0 <= e_k < r_k = radices[k], spelled in `names`, with the relations
    g_k^(r_k) = powers[k] and g_k^-1 g_j g_k = conjugates[j, k].

    Words are exponent tuples, read modulo the radices; a missing power is
    the identity and a missing conjugate is g_j. Every conjugate has j > k
    and every word of g_k lies in <g_{k+1}, ..., g_{K-1}>, so each such
    subgroup is normal in the next larger one (the top-down series). A
    generator of radix 1 is the identity and takes no word.
    """
    names: tuple[str, ...]
    radices: tuple[int, ...]
    powers: dict[int, tuple[int, ...]]
    conjugates: dict[tuple[int, int], tuple[int, ...]]


def _presentation(d: GroupDescriptor) -> _Presentation:
    """The family's presentation, on the words its labels spell."""
    f = d.family
    if f in ("c", "ab"):
        factors = d.values()
        names = ("g",) if f == "c" else tuple(f"g{i+1}" for i in range(len(factors)))
        return _Presentation(names, factors, {}, {})
    if f in ("d", "q", "sd", "m2"):
        # <x, y | y^m = 1, x^2 = y^s, x^-1 y x = y^r> on the words x^i y^j
        m = d["order"] // 2
        r, s = {"d": (-1, 0), "q": (-1, m // 2),
                "sd": (m // 2 - 1, 0), "m2": (m // 2 + 1, 0)}[f]
        return _Presentation(("x", "y"), (2, m), {0: (0, s)}, {(1, 0): (0, r)})
    p = d["p"]
    pa, pb, pg = p ** d["alpha"], p ** d["beta"], p ** d["gamma"]
    e = p ** (d["alpha"] - d["gamma"])
    if f == "g1":
        # [a,b] = c central on the words a^i b^j c^t, so a^-1 b a = b c^-1
        return _Presentation(("a", "b", "c"), (pa, pb, pg), {}, {(1, 0): (0, 1, -1)})
    if f == "g2":
        # b acts on the cyclic normal <a>: b^-1 a b = a^(1+e), words b^j a^i
        return _Presentation(("b", "a"), (pb, pa), {}, {(1, 0): (0, 1 + e)})
    # g3: b acts on the abelian normal <a, c>, on the words b^j a^i c^t
    return _Presentation(("b", "a", "c"), (pb, pa, p ** d["sigma"]), {},
                         {(1, 0): (0, 1 + e, 1), (2, 0): (0, -e * e, 1 - e)})


# Rows per block of the associativity test, and rows of n cells that
# _pc_table gathers per chunk: their buffers, a few 128 x n arrays, stay a
# few MB at the order cap, where one n x n int64 array alone would take 134 MB.
_BLOCK_ROWS = 128
# Fewest columns a run of a generator's row spans on average for Light's
# test to copy the table's columns run by run instead of gathering them,
# per generator on one CPU, copies against np.take: m2[2048] x and y (2 and
# 4 runs) 1.9 and 1.6 ms against 4.4 and 4.3; g2[3,4,3,2] a (54) 3.2
# against 4.8; ab[2^12] 64 runs 14.5 against 19.3, 128 runs (n/32) 18.9
# against 19.6, 256 runs 26 against 21; g1[3,3,3,1] b (990) 38 against 6.6.
_RUN_COPY_MIN_WIDTH = 32


def _generating_prefix(group: FiniteGroup) -> list[int]:
    """The shortest prefix of the generating set whose right products from 0
    reach every element; InternalConsistencyError if the whole set does not."""
    n = group.order
    table = group.table
    reached = [False] * n
    reached[0] = True
    queue = [0]
    gens = []  # the prefix of the generators walked so far
    for g in group.generating_set():
        if len(queue) == n:
            break
        gens.append(g)
        # the elements queued before g are walked by the earlier generators
        # already, so they take only g; later ones take the whole prefix
        walked = len(queue)
        for i, x in enumerate(queue):
            row = table[x]
            for h in (gens if i >= walked else (g,)):
                y = row[h]
                if not reached[y]:
                    reached[y] = True
                    queue.append(y)
    if len(queue) != n:
        raise InternalConsistencyError(
            f"{group.name}: generators {sorted(group.generators)} do not generate it")
    return gens


def _runs(row: np.ndarray) -> list[tuple[int, int, int]] | None:
    """row cut into its runs of consecutive indices, each as (a, b, c) with
    row[a:b] = c, c + 1, ..., c + b - a - 1; None when the runs span fewer
    than _RUN_COPY_MIN_WIDTH columns on average."""
    cuts = (np.flatnonzero(np.diff(row) != 1) + 1).tolist()
    if (len(cuts) + 1) * _RUN_COPY_MIN_WIDTH > len(row):
        return None
    starts = [0, *cuts]
    return list(zip(starts, [*cuts, len(row)], row[starts].tolist()))


def check_group_axioms(group: FiniteGroup) -> None:
    """Prove that the table is a group generated by its named generators.

    Five premises are checked: (1) every entry lies in 0..n-1 and (3) every
    row holds a 0, a right inverse (``FiniteGroup`` refuses a table
    otherwise, "out of range" or "has no inverse"); (2) row 0 and column 0
    are the identity; (4) right products from 0 of a prefix of the
    generators, the shortest one found by the walk, reach every element;
    (5) each generator a of that prefix passes Light's test, (x a) y =
    x (a y) for all x, y. The elements that pass it are closed under
    products and include 0 by (2), so (4) and (5) prove associativity in
    O(|gens| n^2), not the O(n^3) of all triples. A monoid in which every
    element has a right inverse is a group, and a group table is a Latin
    square, so that needs no test of its own.

    The right side x (a y) is the table's columns taken in the order of
    row(a). Where that row is a few runs of consecutive indices (the top
    generator of a presentation, or the cyclic normal one of a
    two-generator family), each run is one slice copy of columns; any
    other row is one gather per block of rows.
    """
    n = group.order
    T = group.array
    rng = np.arange(n)
    if not (np.array_equal(T[0], rng) and np.array_equal(T[:, 0], rng)):
        raise InternalConsistencyError(f"{group.name}: identity row/column broken")
    gens = _generating_prefix(group)
    # (x a) y and x (a y) of each row block go into buffers made once: a
    # fresh MB-sized temporary per block is mapped and faulted in anew
    # whenever the allocator hands blocks of that size back to the system.
    # mode="clip" writes straight into them (mode="raise" buffers the
    # output); with every entry in range it clips nothing.
    left = np.empty((min(n, _BLOCK_ROWS), n), dtype=T.dtype)
    right = np.empty_like(left)
    same = np.empty(left.shape, dtype=bool)
    for g in gens:
        gy = T[g].astype(np.intp)  # converted once, not on every block
        runs = _runs(gy)
        for start in range(0, n, _BLOCK_ROWS):
            X = T[start:start + _BLOCK_ROWS]
            k = len(X)
            np.take(T, X[:, g], axis=0, out=left[:k], mode="clip")
            if runs is None:
                np.take(X, gy, axis=1, out=right[:k], mode="clip")
            else:
                for a, b, c in runs:
                    right[:k, a:b] = X[:, c:c + b - a]
            if not np.equal(left[:k], right[:k], out=same[:k]).all():
                raise InternalConsistencyError(
                    f"{group.name}: associativity fails at generator {g}")


def _powers(row: list[int], r: int) -> list[int]:
    """c^0, ..., c^(r-1), read off the row of c: c^a = c c^(a-1)."""
    out = [0]
    for _ in range(r - 1):
        out.append(row[out[-1]])
    return out


def _generator_indices(radices: tuple[int, ...]) -> list[int]:
    """The element of each g_k: its unit word, or the identity at radix 1."""
    return [math.prod(radices[k + 1:]) * (1 % r) for k, r in enumerate(radices)]


def _pc_table(name: str, pc: _Presentation) -> np.ndarray:
    """The multiplication table of a presentation, as an n x n int16 array.

    G_k = <g_k, ..., g_{K-1}> is the leading block T[:n_k, :n_k], built from
    the bottom level up out of whole rows of the finished block of G_{k+1},
    T[:m, :m]. With r = r_k, phi the conjugation by g_k on G_{k+1} and
    w = g_k^r, the element g_k^e h (h in G_{k+1}) has index e m + h and

        (g_k^e h)(g_k^f h') = g_k^((e+f) mod r) u h',

    u = phi^f(h) when e + f < r and w phi^f(h) otherwise: the (e, f) block
    of G_k is the rows u of G_{k+1}'s block plus ((e+f) mod r) m. So every
    entry lies in 0..n-1 whatever the words say, and an inconsistent
    presentation fails check_group_axioms. A word out of its place raises
    InternalConsistencyError.
    """
    radices = pc.radices
    K, n = len(radices), math.prod(radices)
    strides = [math.prod(radices[k + 1:]) for k in range(K)]
    gens = _generator_indices(radices)
    power = [0] * K
    conj = {}
    words = [((k, k), w) for k, w in pc.powers.items()] + list(pc.conjugates.items())
    for (j, k), word in words:
        w = int(np.ravel_multi_index(word, radices, mode="wrap"))
        # w in G_{k+1}: the indices below strides[k]; g_k conjugated by
        # itself is g_k and takes no word
        if not (0 <= k <= j < K and (k, k) not in pc.conjugates and radices[j] > 1
                and radices[k] > 1 and w < strides[k]):
            raise InternalConsistencyError(f"{name}: word of g_{k} out of its place")
        if j == k:
            power[k] = w
        else:
            conj[j, k] = w
    T = np.empty((n, n), dtype=np.int16)
    for k in reversed(range(K)):
        r, m = radices[k], strides[k]
        size = r * m
        if m == 1:
            # G_{k+1} is trivial: row e of the cyclic G_k is row 0 rotated by e
            cycle = np.arange(2 * r, dtype=np.int16) % r
            T[:r, :r] = np.lib.stride_tricks.sliding_window_view(cycle, r)[:r]
            continue
        sub = T[:m, :m]
        phi = np.zeros(1, dtype=np.intp)
        for i in range(K - 1, k, -1):
            # phi(g_i^a x) = phi(g_i)^a phi(x) for x in G_{i+1}
            pw = _powers(T[conj.get((i, k), gens[i]), :m].tolist(), radices[i])
            phi = T[np.array(pw)[:, None], phi].ravel()
        phis = np.empty((r, m), dtype=np.intp)  # phis[f] = phi^f
        phis[0] = np.arange(m)
        for f in range(1, r):
            phis[f] = phi[phis[f - 1]]
        wraps = T[power[k], :m][phis[1:]]  # w phi^f for f >= 1; f = 0 never wraps
        f_m = np.arange(0, size, m, dtype=np.int16)[:, None]
        blocks = T[:size, :size].reshape(r, m, size)  # blocks[e, h] is row e m + h
        # a chunk's two gathers, half of _BLOCK_ROWS rows of h each, take at
        # most _BLOCK_ROWS rows of n cells beside the table
        for h in range(0, m, _BLOCK_ROWS // 2):
            rows = slice(h, h + _BLOCK_ROWS // 2)
            # A[h, f] = row phi^f(h) + f m, B[h, f - 1] = row w phi^f(h) + (f - r) m
            A = sub[phis[:, rows].T]
            A += f_m
            B = sub[wraps[:, rows].T]
            B += f_m[1:] - size
            A, B = A.reshape(len(A), size), B.reshape(len(B), size - m)
            # row e takes f < r - e from A and the rest from B, plus e m; row
            # 0's block f = 0 is the block of G_{k+1}, already in place
            blocks[0, rows, m:] = A[:, m:]
            for e in range(1, r):
                cut = size - e * m
                np.add(A[:, :cut], e * m, out=blocks[e, rows, :cut])
                np.add(B[:, cut - m:], e * m, out=blocks[e, rows, cut:])
    return T


def _pc_group(name: str, pc: _Presentation) -> FiniteGroup:
    """The group of a presentation, labelled by its normal words; the named
    generators generate it and it passes check_group_axioms, or
    InternalConsistencyError is raised."""
    T = _pc_table(name, pc)
    generators = dict(zip(pc.names, _generator_indices(pc.radices)))
    group = FiniteGroup(name, T, _WordLabels(pc.names, pc.radices), generators)
    check_group_axioms(group)
    return group


def _inverses(name: str, T: np.ndarray) -> list[int]:
    """The right inverses of a table array whose entries are in 0..n-1: the
    first 0 of each row, read off the whole array at once (argmin finds the
    first least entry)."""
    inverse = T.argmin(axis=1)
    missing = np.flatnonzero(T[np.arange(len(T)), inverse])
    if missing.size:
        raise InternalConsistencyError(f"{name}: element {missing[0]} has no inverse")
    return inverse.tolist()


def _shared_while_held(builder):
    """builder, with each group it made handed to later callers while some
    caller still holds it: a group nobody holds is freed, not kept.
    ``__wrapped__`` is the builder itself."""
    held: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    @functools.wraps(builder)
    def shared(desc):
        group = held.get(desc)
        if group is None:
            group = held[desc] = builder(desc)
        return group

    return shared


@_shared_while_held
def build(desc: GroupDescriptor) -> FiniteGroup:
    """Construct the group for a validated descriptor.

    Refuses orders above ORDER_CAP. The named generators generate the built
    table, which passes the group axioms and every relation of the
    presentation; otherwise an InternalConsistencyError is raised. A group
    is shared: while some caller holds the group of a descriptor, building
    it again returns that group.
    """
    validate_descriptor(desc)
    order = desc.theoretical_order()
    if order > ORDER_CAP:
        # str() refuses ints past a few thousand digits
        shown = order if order < 2 ** 64 else f">= 2^{order.bit_length() - 1}"
        raise GroupTooLargeError(
            f"{desc}: order {shown} exceeds cap {ORDER_CAP}")
    group = _pc_group(desc.canonical(), _presentation(desc))
    if group.order != order:
        raise InternalConsistencyError(
            f"{desc}: built order {group.order} != expected {order}")
    failures = verify_presentation(group, desc)
    if failures:
        raise InternalConsistencyError(f"{desc}: presentation check failed: {failures}")
    return group


# --- presentation verification -----------------------------------------------

def _relations(group: FiniteGroup, desc: GroupDescriptor):
    """Yield (name, lhs, rhs) element triples for every displayed relation."""
    f = desc.family
    G = group
    if f == "c":
        n = desc["n"]
        yield (f"g^{n} = 1", G.pow(G.generators["g"], n), 0)
        return
    if f == "ab":
        names = [name for name, _ in desc.params]
        for i, nk in enumerate(desc.values()):
            g = G.generators[f"g{i+1}"]
            yield (f"g{i+1}^{nk} = 1", G.pow(g, nk), 0)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                gi, gj = G.generators[f"g{i+1}"], G.generators[f"g{j+1}"]
                yield (f"g{i+1} g{j+1} = g{j+1} g{i+1}", G.mul(gi, gj), G.mul(gj, gi))
        return
    if f in ("d", "q", "sd", "m2"):
        order = desc["order"]
        x, y = G.generators["x"], G.generators["y"]
        xyx = G.mul(G.inv(x), G.mul(y, x))
        if f == "d":
            m = order // 2
            yield ("x^2 = 1", G.pow(x, 2), 0)
            yield (f"y^{m} = 1", G.pow(y, m), 0)
            yield ("x^-1 y x = y^-1", xyx, G.inv(y))
        elif f == "q":
            n = order // 4
            yield (f"x^2 = y^{n}", G.pow(x, 2), G.pow(y, n))
            yield (f"y^{2*n} = 1", G.pow(y, 2 * n), 0)
            yield ("x^-1 y x = y^-1", xyx, G.inv(y))
        elif f == "sd":
            n = order // 8
            yield ("x^2 = 1", G.pow(x, 2), 0)
            yield (f"y^{4*n} = 1", G.pow(y, 4 * n), 0)
            yield (f"x^-1 y x = y^{2*n-1}", xyx, G.pow(y, 2 * n - 1))
        else:
            r = order.bit_length() - 1
            yield ("x^2 = 1", G.pow(x, 2), 0)
            yield (f"y^(2^{r-1}) = 1", G.pow(y, 2 ** (r - 1)), 0)
            yield (f"x^-1 y x = y^(2^{r-2}+1)", xyx, G.pow(y, 2 ** (r - 2) + 1))
        return

    p = desc["p"]
    pa, pb, pg = p ** desc["alpha"], p ** desc["beta"], p ** desc["gamma"]
    a, b = G.generators["a"], G.generators["b"]
    c_ab = G.commutator(a, b)
    if f == "g1":
        c = G.generators["c"]
        yield ("[a,b] = c", c_ab, c)
        yield ("[a,c] = 1", G.commutator(a, c), 0)
        yield ("[b,c] = 1", G.commutator(b, c), 0)
        yield (f"o(a) = {pa}", G.element_order(a), pa)
        yield (f"o(b) = {pb}", G.element_order(b), pb)
        yield (f"o(c) = {pg}", G.element_order(c), pg)
    elif f == "g2":
        e = p ** (desc["alpha"] - desc["gamma"])
        yield (f"[a,b] = a^{e}", c_ab, G.pow(a, e))
        yield (f"o(a) = {pa}", G.element_order(a), pa)
        yield (f"o(b) = {pb}", G.element_order(b), pb)
        yield (f"o([a,b]) = {pg}", G.element_order(c_ab), pg)
    elif f == "g3":
        ps = p ** desc["sigma"]
        e = p ** (desc["alpha"] - desc["gamma"])
        c = G.generators["c"]
        yield (f"[a,b] = a^{e} c", c_ab, G.mul(G.pow(a, e), c))
        yield (f"[c,b] = a^-{e*e} c^-{e}", G.commutator(c, b),
               G.mul(G.pow(a, -e * e), G.pow(c, -e)))
        yield ("[a,c] = 1", G.commutator(a, c), 0)
        yield (f"o(a) = {pa}", G.element_order(a), pa)
        yield (f"o(b) = {pb}", G.element_order(b), pb)
        yield (f"o(c) = {ps}", G.element_order(c), ps)


def verify_presentation(group: FiniteGroup, desc: GroupDescriptor) -> dict[str, str]:
    """Check every displayed relation of the descriptor's presentation: the
    failed ones, name -> detail, empty when every relation holds."""
    return {name: f"lhs={lhs} rhs={rhs}"
            for name, lhs, rhs in _relations(group, desc) if lhs != rhs}
