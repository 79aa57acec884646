"""Explicit finite groups built from presentations as full multiplication tables.

Every family is realized on normal-form tuples of generator exponents, listed
in row-major mixed-radix order, with one collection formula for products that
works on ints and on numpy coordinate arrays alike. Three shared normal forms
build nine of the ten families: abelian (c, ab), metacyclic (d, q, sd, m2,
g2) and central (g1, g4); g3 keeps its own matrix action. build() evaluates
the formula only on the rows of the generators, each against all columns at
once; every other row is a numpy gather, since the row of a word w h is the
row of w read at the entries of the row of h. The table is stored once, as
one read-only n x n int16 array (2 bytes a cell: every index lies below
ORDER_CAP <= 2^15), and all later work is table lookups: rows are slices of
one flat memoryview over the array, and whole-group sweeps are numpy gathers
on it. Element 0 is always the identity and labels are the
normal-form words. Every built table is proven a group (entries in range,
identity, right inverses, generation and Light's associativity test,
O(|gens| n^2) at every order; a monoid with right inverses is a group, hence
Latin), and every relation of the family's own presentation is checked, so
the shared builders and the row fill are verified, not trusted.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .descriptors import GroupDescriptor, validate_descriptor
from .errors import GroupTooLargeError, InternalConsistencyError
from .numtheory import is_prime, prime_power
from .report import Report
from .theory import ORDER_CAP


class FiniteGroup:
    """A finite group as a complete multiplication table on 0..order-1.

    Immutable after construction; instances are safe to share. ``array`` is
    the table as a read-only n x n int16 numpy array, its only store, for
    whole-group sweeps by gathers. ``table[x]`` is row x, a read-only slice
    of one flat memoryview over the array (format 'h'), so ``table[x][y]``,
    the product x*y, is an int: index a row, slice it or take ``list(row)``
    for a list copy, but do not compare it with a list. Index 0 is the
    identity, ``prime`` is set when the order is a prime power.

    The table may be given as that array (``build``) or as rows of ints
    (lists, arrays, memoryviews); either way it is stored as int16 once every
    entry is known to lie in 0..n-1, and InternalConsistencyError is raised
    otherwise, or when a row holds no 0 (no right inverse). A C-contiguous
    int16 array is kept without a copy and made read-only. The named
    ``generators`` generate the whole group (``build`` checks this); centers,
    abelianness and whole-group subgroups rely on it. A group made with no
    named generators counts as generated by all of its elements.
    """

    __slots__ = ("name", "order", "array", "table", "inverse", "labels",
                 "generators", "prime", "_orders")

    def __init__(self, name: str, table: np.ndarray | Sequence[Sequence[int]],
                 labels: list[str], generators: dict[str, int],
                 prime: int | None = None):
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
        self.prime = prime
        self._orders: list[int] | None = None

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
        base = x
        table = self.table
        while k:
            if k & 1:
                result = table[result][base]
            base = table[base][base]
            k >>= 1
        return result

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
        k = 1
        y = x
        while y != 0:
            y = self.table[y][x]
            k += 1
        return k

    def element_orders(self) -> list[int]:
        """The order of every element, by index; do not mutate the list.

        The order of x is the least divisor d of |G| with x^d = 1: starting
        from d = |G|, each prime p of |G| is divided out of d while
        x^(d/p) = 1, one power by squaring per test.
        """
        if self._orders is None:
            n = self.order
            primes = [p for p in range(2, n + 1) if n % p == 0 and is_prime(p)]
            orders = []
            for x in range(n):
                d = n
                for p in primes:
                    while d % p == 0 and self.pow(x, d // p) == 0:
                        d //= p
                orders.append(d)
            self._orders = orders
        return self._orders

    def exponent(self) -> int:
        return math.lcm(*self.element_orders())

    def max_element_order(self) -> int:
        return max(self.element_orders())

    def is_cyclic(self) -> bool:
        # exponent == order is not enough outside abelian groups (S_3 has
        # exponent 6), so test for an element of full order.
        return self.max_element_order() == self.order

    def generating_set(self) -> list[int]:
        """The named generators, or every element when none are named."""
        return list(self.generators.values()) or list(self.elements())

    def is_abelian(self) -> bool:
        t = self.table
        gens = self.generating_set()
        return all(t[x][y] == t[y][x] for x in gens for y in gens)

    def center(self) -> list[int]:
        """Elements commuting with every generator, hence with every element."""
        t = self.table
        gens = self.generating_set()
        return [z for z in range(self.order) if all(t[z][g] == t[g][z] for g in gens)]

    def word(self, spec: list[tuple[str, int]]) -> int:
        """Evaluate a word in the named generators, e.g. [("a",-1),("b",1)]."""
        result = 0
        for name, exp in spec:
            result = self.table[result][self.pow(self.generators[name], exp)]
        return result


def _word_label(parts: list[tuple[str, int]]) -> str:
    bits = []
    for name, e in parts:
        if e == 0:
            continue
        bits.append(name if e == 1 else f"{name}^{e}")
    return " ".join(bits) if bits else "1"


# --- normal-form systems -----------------------------------------------------
# Each _sys_* returns a _System for a descriptor: _sys_abelian for c and ab,
# _sys_metacyclic for d, q, sd, m2 and g2, _sys_central for g1 and g4, and
# _sys_g3. Elements are coordinate tuples in row-major mixed-radix order over
# `radices` (so the identity, all zeros, is element 0); coordinate k is the
# exponent of the k-th named generator in the normal-form word. `mult` is one
# formula on coordinate tuples whose entries may be ints or broadcastable numpy
# integer arrays: it uses only +, -, *, //, % and lookups in precomputed power
# arrays, branching on the parameters but never on the elements, so _table
# evaluates it on each generator's row at once. The word of coordinates
# (e_0, ..., e_k, 0, ..., 0) times g_k^e is the word with e_k + e in place of
# e_k while that stays below the radix, so _table gathers every other row
# from the generator rows; build()'s checks run on the filled table.
# _relations and validate_descriptor stay per family, as the independent
# check on the shared forms.


class _System(NamedTuple):
    radices: tuple[int, ...]
    mult: Callable[[tuple, tuple], tuple]
    label: Callable[[tuple], str]
    gens: dict[str, tuple[int, ...]]
    prime: int | None


def _system(names, radices, mult, prime) -> _System:
    """Labels are words in `names`; generator k is the k-th unit tuple."""
    radices = tuple(radices)
    gens = {name: tuple(1 % r if i == k else 0 for i, r in enumerate(radices))
            for k, name in enumerate(names)}
    return _System(radices, mult, lambda e: _word_label(list(zip(names, e))), gens, prime)


def _prime_of(order: int) -> int | None:
    pp = prime_power(order)
    return pp[0] if pp else None


def _sys_abelian(d: GroupDescriptor):
    """c[n] and ab[n1,...]: componentwise sums; c names its one generator g."""
    factors = d.values()
    def mult(x, y):
        return tuple((a + b) % k for a, b, k in zip(x, y, factors))
    names = ("g",) if d.family == "c" else [f"g{i+1}" for i in range(len(factors))]
    return _system(names, factors, mult, _prime_of(math.prod(factors)))


def _metacyclic(names, m: int, n: int, r: int, s: int, prime: int | None,
                normal_first: bool = False) -> _System:
    """<x, y | y^m = 1, x^n = y^s, x^-1 y x = y^r> on the words x^i y^j.

    With normal_first the words are y^j x^i instead, coordinates (j, i).
    `names` lists the two generators in coordinate order. The presentation
    needs r^n = 1 and s (r - 1) = 0 modulo m; build() checks the result.
    """
    # y^j x^i = x^i y^(j r^i), so x^i y^j = y^(j r^-i) x^i
    rpow = np.array([pow(r, -k if normal_first else k, m) for k in range(n)],
                    dtype=np.int64)
    def mult(e1, e2):
        if normal_first:
            (j1, i1), (j2, i2) = e1, e2
            j = j1 + j2 * rpow[i1]
        else:
            (i1, j1), (i2, j2) = e1, e2
            j = j1 * rpow[i2] + j2
        if s:
            # x^n = y^s is central, so a wrapped x exponent leaves y^s behind
            j = j + s * ((i1 + i2) // n)
        i, j = (i1 + i2) % n, j % m
        return (j, i) if normal_first else (i, j)
    radices = (m, n) if normal_first else (n, m)
    return _system(names, radices, mult, prime)


def _sys_metacyclic(d: GroupDescriptor):
    """d, q, sd and m2 have the cyclic subgroup <y> of index 2; g2 is split
    with b^-1 a b = a^(1 + p^(alpha-gamma)) and keeps its words a^i b^j."""
    if d.family == "g2":
        p, alpha = d["p"], d["alpha"]
        return _metacyclic(("a", "b"), p ** alpha, p ** d["beta"],
                           1 + p ** (alpha - d["gamma"]), 0, p, normal_first=True)
    order = d["order"]
    m = order // 2
    r, s = {"d": (-1, 0), "q": (-1, m // 2),
            "sd": (m // 2 - 1, 0), "m2": (m // 2 + 1, 0)}[d.family]
    return _metacyclic(("x", "y"), m, 2, r, s, _prime_of(order))


def _sys_central(d: GroupDescriptor):
    """g1 and g4: [a,b] = c central on the words a^i b^j c^t, and for g4
    a^(p^alpha) = c^(p^rho), b^(p^beta) = c^(p^sigma).

    Collecting b^j1 past a^i2 with b a = a b c^-1 gives the cocycle term
    -j1*i2 on the c exponent; a wrapped a or b exponent adds its carry. The
    smallest admissible g4 parameters already give order p^8, so g4 tables
    always exceed the order cap; its rule is exercised at tuple level.
    """
    p = d["p"]
    pa, pb, pg = p ** d["alpha"], p ** d["beta"], p ** d["gamma"]
    ca, cb = (p ** d["rho"], p ** d["sigma"]) if d.family == "g4" else (0, 0)
    def mult(e1, e2):
        (i1, j1, t1), (i2, j2, t2) = e1, e2
        t = t1 + t2 - j1 * i2
        # (i1 + i2) // pa is the 0/1 carry of the a exponent, likewise for b
        if ca:
            t = t + ca * ((i1 + i2) // pa)
        if cb:
            t = t + cb * ((j1 + j2) // pb)
        return ((i1 + i2) % pa, (j1 + j2) % pb, t % pg)
    return _system(("a", "b", "c"), (pa, pb, pg), mult, p)


def _mat_mul(A, B):
    return (
        (A[0][0] * B[0][0] + A[0][1] * B[1][0], A[0][0] * B[0][1] + A[0][1] * B[1][1]),
        (A[1][0] * B[0][0] + A[1][1] * B[1][0], A[1][0] * B[0][1] + A[1][1] * B[1][1]),
    )


def _sys_g3(d: GroupDescriptor):
    """Family with [a,b] = a^e c and [c,b] = a^(-e^2) c^(-e), e = p^(alpha-gamma).

    Built as (C_{p^alpha} x C_{p^sigma}) extended by b acting through the
    automorphism phi(a) = a^(1+e) c, phi(c) = a^(-e^2) c^(1-e); triples
    (i, t, j) stand for a^i c^t b^j and products use phi^(-j1) on the middle.
    The action matrix has determinant 1 and its p^beta-th power must be the
    identity, which is verified here before any table is built.
    """
    p = d["p"]
    pa, pb, ps = p ** d["alpha"], p ** d["beta"], p ** d["sigma"]
    e = p ** (d["alpha"] - d["gamma"])
    # phi as a matrix on exponent columns (i, t); phi^-1 = [[1-e, e^2], [-1, 1+e]]
    minv = ((1 - e, e * e), (-1, 1 + e))
    powers = [((1, 0), (0, 1))]
    for _ in range(pb - 1):
        m = _mat_mul(powers[-1], minv)
        powers.append(((m[0][0] % pa, m[0][1] % pa), (m[1][0] % pa, m[1][1] % pa)))
    closing = _mat_mul(powers[-1], minv)
    if (closing[0][0] % pa, closing[0][1] % pa) != (1, 0) or (
        closing[1][0] % ps, closing[1][1] % ps) != (0, 1):
        raise InternalConsistencyError(
            f"{d}: conjugation action is not of order dividing p^beta")
    # entry [r][c] of phi^(-j) for every j, indexed by j
    A00, A01, A10, A11 = (np.array([P[r][c] for P in powers], dtype=np.int64)
                          for r in range(2) for c in range(2))
    def mult(e1, e2):
        (i1, t1, j1), (i2, t2, j2) = e1, e2
        i2b = (A00[j1] * i2 + A01[j1] * t2) % pa
        t2b = (A10[j1] * i2 + A11[j1] * t2) % ps
        return ((i1 + i2b) % pa, (t1 + t2b) % ps, (j1 + j2) % pb)
    return _system(("a", "c", "b"), (pa, ps, pb), mult, p)


_SYSTEMS = {
    "c": _sys_abelian,
    "ab": _sys_abelian,
    "d": _sys_metacyclic,
    "q": _sys_metacyclic,
    "sd": _sys_metacyclic,
    "m2": _sys_metacyclic,
    "g1": _sys_central,
    "g2": _sys_metacyclic,
    "g3": _sys_g3,
    "g4": _sys_central,
}


# Rows per block of the associativity test: its buffers, a few 128 x n
# arrays, stay a few MB at the order cap, where one n x n int64 array alone
# would take 134 MB.
_BLOCK_ROWS = 128


def check_group_axioms(group: FiniteGroup) -> None:
    """Prove that the table is a group generated by its named generators.

    Five premises are checked: (1) every entry lies in 0..n-1 and (3) every
    row holds a 0, a right inverse (``FiniteGroup`` refuses a table
    otherwise, "out of range" or "has no inverse"); (2) row 0 and column 0
    are the identity; (4) right products of the generators reach every
    element from 0; (5) each generator a passes Light's test, (x a) y =
    x (a y) for all x, y. The elements that pass it are closed under products
    and include 0 by (2), so (4) and (5) prove associativity in
    O(|gens| n^2), not the O(n^3) of all triples. A monoid in which every
    element has a right inverse is a group, and a group table is a Latin
    square, so that needs no test of its own.
    """
    n = group.order
    T = group.array
    rng = np.arange(n)
    if not (np.array_equal(T[0], rng) and np.array_equal(T[:, 0], rng)):
        raise InternalConsistencyError(f"{group.name}: identity row/column broken")
    gens = group.generating_set()
    table = group.table
    reached = [False] * n
    reached[0] = True
    queue = [0]
    for x in queue:
        row = table[x]
        for g in gens:
            y = row[g]
            if not reached[y]:
                reached[y] = True
                queue.append(y)
    if len(queue) != n:
        raise InternalConsistencyError(
            f"{group.name}: generators {sorted(group.generators)} do not generate it")
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
        for start in range(0, n, _BLOCK_ROWS):
            X = T[start:start + _BLOCK_ROWS]
            k = len(X)
            np.take(T, X[:, g], axis=0, out=left[:k], mode="clip")
            np.take(X, gy, axis=1, out=right[:k], mode="clip")
            if not np.equal(left[:k], right[:k], out=same[:k]).all():
                raise InternalConsistencyError(
                    f"{group.name}: associativity fails at generator {g}")


def _table(radices: tuple[int, ...], mult) -> np.ndarray:
    """The multiplication table of a system, as an n x n int16 array.

    `mult` runs once per generator g_k, on its unit tuple against every
    column, for row(g_k). Every other row is gathered: (w h) y = w (h y), so
    row(w h) = row(w)[row(h)]. Coordinate by coordinate, the rows whose k-th
    exponent lies in [d, 2d) and whose later exponents are 0 are the rows of
    exponent [0, d) gathered at row(g_k^d), for d = 1, 2, 4, ...; the next
    step is row(g_k^2d) = row(g_k^d)[row(g_k^d)].
    """
    n = math.prod(radices)
    coords = np.unravel_index(np.arange(n), radices)
    T = np.empty((n, n), dtype=np.int16)
    T[0] = np.arange(n)
    # each row is gathered straight into T, so the fill makes no temporary
    # of more than n cells; every index is in range, so mode="clip" clips
    # none (mode="raise" would buffer the output)
    filled = [0]  # rows whose exponents past coordinate k are 0
    stride = n
    for k, r in enumerate(radices):
        stride //= r
        unit = tuple(1 % r if i == k else 0 for i in range(len(radices)))
        step = np.ravel_multi_index(mult(unit, coords), radices)
        d = 1
        while d < r:
            for x in filled:
                for y in range(x, x + min(d, r - d) * stride, stride):
                    np.take(T[y], step, out=T[y + d * stride], mode="clip")
            step = step[step]
            d *= 2
        filled = [y for x in filled for y in range(x, x + r * stride, stride)]
    return T


def _inverses(name: str, T: np.ndarray) -> list[int]:
    """The right inverses of a table array whose entries are in 0..n-1: the
    first 0 of each row, read off the whole array at once (argmin finds the
    first least entry)."""
    inverse = T.argmin(axis=1)
    missing = np.flatnonzero(T[np.arange(len(T)), inverse])
    if missing.size:
        raise InternalConsistencyError(f"{name}: element {missing[0]} has no inverse")
    return inverse.tolist()


@functools.lru_cache(maxsize=32)
def build(desc: GroupDescriptor) -> FiniteGroup:
    """Construct the group for a validated descriptor.

    Refuses orders above ORDER_CAP. The named generators generate the built
    table, which passes the group axioms and every relation of the
    presentation; otherwise an InternalConsistencyError is raised.
    """
    validate_descriptor(desc)
    order = desc.theoretical_order()
    if order > ORDER_CAP:
        # str() refuses ints past a few thousand digits
        shown = order if order < 2 ** 64 else f">= 2^{order.bit_length() - 1}"
        raise GroupTooLargeError(
            f"{desc}: order {shown} exceeds cap {ORDER_CAP}")
    system = _SYSTEMS[desc.family](desc)
    T = _table(system.radices, system.mult)
    if len(T) != order:
        raise InternalConsistencyError(
            f"{desc}: built order {len(T)} != expected {order}")
    labels = [system.label(e) for e in itertools.product(*map(range, system.radices))]
    generators = {name: int(np.ravel_multi_index(g, system.radices))
                  for name, g in system.gens.items()}
    group = FiniteGroup(desc.canonical(), T, labels, generators, prime=system.prime)
    check_group_axioms(group)
    report = verify_presentation(group, desc)
    if not report.ok:
        raise InternalConsistencyError(
            f"{desc}: presentation check failed: {report.failures()}")
    return group


def build_from_string(text: str) -> FiniteGroup:
    from .descriptors import parse_descriptor
    return build(parse_descriptor(text))


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
    elif f == "g4":
        pr, psg = p ** desc["rho"], p ** desc["sigma"]
        yield (f"[a,b]^{pg} = 1", G.pow(c_ab, pg), 0)
        yield ("[[a,b],a] = 1", G.commutator(c_ab, a), 0)
        yield ("[[a,b],b] = 1", G.commutator(c_ab, b), 0)
        yield (f"a^{pa} = [a,b]^{pr}", G.pow(a, pa), G.pow(c_ab, pr))
        yield (f"b^{pb} = [a,b]^{psg}", G.pow(b, pb), G.pow(c_ab, psg))


def verify_presentation(group: FiniteGroup, desc: GroupDescriptor) -> Report:
    """Check every displayed relation of the descriptor's presentation."""
    report = Report(f"presentation of {desc.canonical()}")
    for name, lhs, rhs in _relations(group, desc):
        report.add(name, lhs == rhs, f"lhs={lhs} rhs={rhs}")
    return report


@dataclass
class GroupInfo:
    descriptor: str
    order: int
    exponent: int
    center_size: int
    commutator_size: int
    nilpotency_class: int | None
    generator_orders: dict[str, int]
    prime: int | None


def group_info(group: FiniteGroup) -> GroupInfo:
    """Summary invariants used by the CLI info command."""
    from .subgroups import commutator_subgroup, nilpotency_class, whole_subgroup
    G = whole_subgroup(group)
    gamma2 = commutator_subgroup(group, G, G)
    return GroupInfo(
        descriptor=group.name,
        order=group.order,
        exponent=group.exponent(),
        center_size=len(group.center()),
        commutator_size=len(gamma2),
        nilpotency_class=nilpotency_class(group),
        generator_orders={n: group.element_order(g) for n, g in group.generators.items()},
        prime=group.prime,
    )
