"""Exact zero-sum invariants by reachable-set search.

The ordered Davenport constant D(G) is 1 plus the longest sequence with no
nonempty index-increasing subsequence multiplying to the identity. The set
of all such subsequence products of a prefix (the reach set, stored as an
int bit mask) is a sufficient statistic: extending by g maps S to
S | S*g | {g}. The search is over walks on reach states, which are finite
because an identity-free extension strictly grows the state.

One engine, _longest_free, runs that search with an explicit stack, owns the
memo and the witness, and stops on the budget's clock. Each invariant
supplies its start state and the live steps of a state in letter order:
weighted reach masks for D_A(G), S -> S | {g^a} | S*g^a over the weights a
in A, of which D(G) is the case A = {1}; per-length product sets packed into
one int for E(G); and sorted multisets for the unordered constant D'(G).

The engine refutes lengths rather than maximizing, with a counting cut for
D and D_A (_room) that is neither the Loewy nor the Olson-White bound, so
the search stays an independent check of both. It keys its memo by orbits:
an automorphism a maps a free sequence to a free one, and the state of the
image sequence is a(S), so the key of a state is its least image under the
automorphisms that subgroups.automorphisms finds, while steps, paths and the
witness stay on raw states. E keys by central translations too:
multiplying every term by a central z moves a product of m+1 terms by
z^(m+1), so the key of an E state is its least image under the maps
phi(a, z) that send each x of component m to a(x)*z^(m+1), at every order.
They keep E's freeness because z^|G| = 1; a shorter product moves by z^k,
which need not be 1, so D, D_A and D' take the automorphisms alone, the
maps phi(a, 1). One builder, _phi_targets, gives the maps of every key.
D and D_A key one mask, and E up to the table width its lifted state, by
the least image under those maps (_least_image). D' keys the multiplicity
layers of its multiset (_layers), which determine the multiset, and E above
the table width the tuple of its components, both componentwise
(_tuple_key). Every cache of keys and images, the engine's and the
componentwise key's, holds at most two generations of
_KEY_CACHE_GENERATION entries (_Generations). A map of the key that fixes
every letter of a path fixes the state of the path, a function of its
letters, so it sends the child by a letter h to an orbit-mate, the child by
the image of h. The engine tries only the least letter of each orbit of
the path's stabilizer: that one comes first and leaves the bound each
orbit-mate would get, so walks, bounds and states stay, and keys are saved.

Every reach state of at most _BYTE_TABLE_MAX_ORDER = 64 bits is stepped by
every letter at once, with one lookup per byte of the state (_byte_map, one
to eight bytes): for D and D_A up to order 64, slot g of one int holds the
union of the S*g^a (_packed_step); for E up to order 8, whose state has n^2
bits, slot g of a lifted table's entry holds the whole next state
(_eg_children). The orbit keys of such states read the image under every
map of the key from tables of the same kind (_orbit_images). Above the cutoff
D and D_A step one letter at a time by the set-bit loop over the column of
each power (checkers._weighted_extend), E steps each component of a state
held as a tuple of masks, with D's tables up to order 64, and the keys loop
over the set bits of the state. The D' search needs one letter per step, so
like the checkers it never builds byte tables: it walks the set-bit loop
over the column of each letter it meets (checkers._ColumnSteps).

The checkers and the naive oracles live in checkers, which imports nothing
from here; its docstring lists the computations written twice on purpose.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
import sys
import time
from typing import NamedTuple

import numpy as np

from .checkers import _ColumnSteps, _validate_weights, _weighted_extend, _weighted_rows
# not called here: davbench's worker checks its witnesses through zerosum.<name>
from .checkers import has_group_length_product_one, is_unordered_free, is_weighted_free  # noqa
from .errors import DavlabError, GroupTooLargeError
from .groups import FiniteGroup
from .sequences import Sequence, is_ordered_free
from .subgroups import automorphisms
from .theory import DEFAULT_ORDERED_CAP

DEFAULT_UNORDERED_CAP = 32
DEFAULT_EG_CAP = 8
WEIGHT_SET_CAP = 16

# Widest reach state, in bits, whose steps and orbit keys use per-byte lookup
# tables: eight bytes, the widest lookup _byte_map unrolls. That is order 64
# for D and D_A and order 8 for E (n^2 bits). The ceil(n/8) * 256 entries of
# D's step pack n images of n bits in 64-bit slots, 1 MB at order 64 (5 GB
# at order 1100); E's lifted step at order 8 takes 128 KB. D's orbit tables
# hold ceil(n/8) * 256 * floor(2^15/n) slots of the state's width, one per
# automorphism (subgroups): 5.6 MiB at order 17, 9.7 MiB at 33, 8 MiB at 64.
# E's hold ceil(n^2/8) * 256 * |A||Z| slots of up to 64 bits, one per map
# phi(a, z): 21 MiB for the 1,344 of ab[2,2,2], at most 1 MiB for the rest.
_BYTE_TABLE_MAX_ORDER = 64
# Fewest maps whose least image numpy's reduce finds quicker than Python's
# min, per key call on the states the pinned searches key (one CPU): 6 maps
# (E of d[6]) 1.2 us by min, 1.9 by reduce; 16 (D of sd[16], E of d[8])
# 1.2-2.0 against 1.5-2.3; 32 (D of q[16], E of c[8]) even, 1.6-2.6 both;
# 48 (D of q[24], E of q[8]) 2.3-3.4 against 1.8-2.6; 128 (D of d[32]) 5.6
# against 2.3.
_NUMPY_MIN_MAPS = 32
# Entries of one generation of every cache of raw states' keys and of their
# components' images (_Generations): at most twice as many are held, at any
# state budget. A state met again after its key has left both generations
# is keyed again: D(q[64]) computes 627,342 keys, against 604,351 with a
# cache as large as its memo of 202,047 states, which took 38 MB more.
_KEY_CACHE_GENERATION = 1 << 13


class SearchBudget(NamedTuple):
    max_states: int = 10_000_000
    max_seconds: float = 60.0


def budget_from(max_states: int | None, max_seconds: float | None) -> SearchBudget | None:
    """The budget of the command line's --budget-states and --budget-seconds:
    None, the default budget with its order caps, when neither is set, else a
    SearchBudget whose unset limit keeps its default."""
    if max_states is None and max_seconds is None:
        return None
    default = SearchBudget()
    return SearchBudget(
        max_states=default.max_states if max_states is None else max_states,
        max_seconds=default.max_seconds if max_seconds is None else max_seconds)


class SearchResult(NamedTuple):
    """states_explored is the number of memo entries of the search, one per
    orbit representative, for all four invariants, and keys the number of
    orbit keys it computed. stop_reason is "done" for an exact result, else
    the budget limit that tripped: "states" or "seconds"."""

    value: int
    witness: Sequence
    states_explored: int
    elapsed: float
    stop_reason: str = "done"
    keys: int = 0

    @property
    def exact(self) -> bool:
        return self.stop_reason == "done"


class _BudgetHit(Exception):
    pass


class _Clock:
    """Cooperative budget checks. tick(states) tests the state budget, and
    the time budget at every 64th call; the engine ticks at every stored
    state. read() tests the time budget alone: at every 64 letters a lazy
    state tries, as one state of a large group can try thousands, and at
    each step of the greedy descent. stop_reason names the limit that
    tripped."""

    def __init__(self, budget: SearchBudget):
        self.max_states = budget.max_states
        self.max_seconds = budget.max_seconds
        self.start = time.perf_counter()
        self.stop_reason = "done"
        self.ticks = 0

    def tick(self, states: int) -> None:
        if states > self.max_states:
            self.stop("states")
        self.ticks += 1
        if not self.ticks & 63:
            self.read()

    def read(self) -> None:
        if self.elapsed() > self.max_seconds:
            self.stop("seconds")

    def stop(self, reason: str):
        self.stop_reason = reason
        raise _BudgetHit

    def elapsed(self) -> float:
        return time.perf_counter() - self.start


def _checked_budget(group: FiniteGroup, budget: SearchBudget | None,
                    max_order: int, cap: str) -> _Clock:
    """The started clock of the budget to search with (the default budget
    when None); groups above max_order need an explicit one. The clock
    starts before the search builds its steps and keys, so elapsed and the
    time budget count that setup."""
    if group.order > max_order and budget is None:
        raise GroupTooLargeError(
            f"{group.name}: order {group.order} above {cap} cap {max_order}; "
            "pass an explicit budget to attempt anyway")
    return _Clock(budget or SearchBudget())


class _Generations(dict):
    """self[x] = compute(x), cached in two generations: an x missing from this
    one is looked up in the one before, and this one is retired once it
    holds _KEY_CACHE_GENERATION entries, so at most twice that many are
    held. computed counts the calls of compute."""

    def __init__(self, compute):
        self.compute = compute
        self.retired: dict = {}
        self.computed = 0

    def __missing__(self, x):
        value = self.retired.get(x)
        if value is None:
            value = self.compute(x)
            self.computed += 1
        if len(self) >= _KEY_CACHE_GENERATION:
            self.retired = dict(self)
            self.clear()
        self[x] = value
        return value


def _longest_free(group: FiniteGroup, start, children, clock: _Clock,
                  key, top: int | None = None, *, targets: np.ndarray) -> SearchResult:
    """Longest walk from start along the steps (g, next state) that
    children(state) yields in increasing g, found by refuting one length at
    a time: with w the length of the best walk found so far, an
    explicit-stack DFS asks whether a walk of length w+1 exists. On success
    the walk is extended greedily, by the first step at each state; on
    failure the result is w+1, exact. When the budget trips, the longest
    walk verified so far is a lower bound and the result is flagged
    exact=False. children yields live steps only; a lazy children reads the
    clock itself as it tries letters.

    dead[key(state)] = b means that no state of that key has a walk of
    length b, or longer. A frame that fails stores the largest child bound
    plus one, and 1 when it has no live child; a child whose bound is at
    most the length it still needs is not entered. A bound is a fact about
    the state, so it holds as the asked length grows. top, when given (D and
    D_A, _room), bounds the length of a walk from a state S by top - |S|: a
    child with that room below the length it needs is cut with bound room +
    1 before its key is computed, and never enters dead. Live steps strictly
    grow the state, so the walk graph is acyclic. key is used for dead only;
    steps and paths stay on raw states. States of one key must have the same
    walks up to relabelling, as orbit keys do (_least_image), and the same
    room. The keys of raw states are cached in two generations of
    _KEY_CACHE_GENERATION states (_Generations), so at any budget only dead
    grows with the search; a state met again after its key was retired is
    keyed again.

    targets holds the maps of key (_phi_targets; np.arange(|G|)[:, None]
    for the identity alone): row h < |G| is the image of letter h under
    each map. A frame's mask H holds the maps that fix every letter of its
    path: all of them at start, H & stab[g] past letter g. Such a map fixes
    the state, so the children by h and by an image of h under H are
    orbit-mates, and a frame tries only the letters least in their H-orbit
    (least). The least comes first, and whatever became of its child (not
    live, cut by its room, skipped by its bound, or entered and refuted,
    leaving its bound in dead) becomes of every orbit-mate's, while a walk
    it finds ends the frame. So the least walk, dead, states_explored and
    budget trips are those of trying every letter; only keys are saved.

    The witness is the lexicographically least longest walk: the last
    successful DFS finds the least walk of its length w+1, since it enters
    letters in order and skips only subtrees without a walk that long, and
    from its end the least live letter leads on to a longest walk, as the
    greedy descent from it reached the final length.
    """
    dead: dict = {}
    bound_of = dead.get
    keys = _Generations(key)  # raw state -> key
    n = group.order
    letters = targets[:n]
    fixed = np.packbits(letters == np.arange(n)[:, None], axis=1, bitorder="little")
    stab = [int.from_bytes(row.tobytes(), "little") for row in fixed]  # maps fixing g

    @functools.lru_cache(maxsize=None)
    def least(H: int) -> tuple[bool, ...]:
        """least(H)[g]: whether letter g is the least of its H-orbit."""
        maps = [i for i in range(letters.shape[1]) if H >> i & 1]
        return tuple((letters[:, maps].min(axis=1) == np.arange(n)).tolist())

    def least_walk(target: int):
        """(path, end state) of the least walk of length target, or None
        once the bounds stored in dead refute it."""
        path: list[int] = []
        frames = []  # (key, children, bound, H, tried) of each state below the top one
        H = (1 << letters.shape[1]) - 1
        k, steps, bound, tried = keys[start], iter(children(start)), 1, least(H)
        while True:
            need = target - len(path) - 1  # length a child still needs
            if not need:
                for g, nxt in steps:
                    path.append(g)
                    return path, nxt
            else:
                for g, nxt in steps:
                    if not tried[g]:
                        continue
                    if top is not None:
                        room = top - nxt.bit_count()
                        if room < need:
                            if room + 2 > bound:
                                bound = room + 2
                            continue
                    kn = keys[nxt]
                    b = bound_of(kn)
                    if b is not None and b <= need:
                        if b >= bound:
                            bound = b + 1
                        continue
                    path.append(g)
                    frames.append((k, steps, bound, H, tried))
                    if H & stab[g] != H:
                        H &= stab[g]
                        tried = least(H)
                    k, steps, bound = kn, iter(children(nxt)), 1
                    break
                else:
                    steps = None  # every child tried
                if steps is not None:
                    continue
            dead[k] = bound
            if not frames:
                return None
            clock.tick(len(dead))
            path.pop()
            b = bound
            k, steps, bound, H, tried = frames.pop()
            if b >= bound:
                bound = b + 1

    best: list[int] = []
    try:
        while (found := least_walk(len(best) + 1)) is not None:
            best, state = found  # verified, and grown in place by the descent
            while (step := next(iter(children(state)), None)) is not None:
                g, state = step
                best.append(g)
                clock.read()
    except _BudgetHit:
        pass  # clock.stop_reason names the limit; best is a verified lower bound
    return SearchResult(1 + len(best), Sequence(group, tuple(best)), len(dead),
                        clock.elapsed(), clock.stop_reason, keys.computed)


def _mapped(mask: int, row: list) -> int:
    """The OR of row[x] over the set bits x of mask (_orbit_images)."""
    out = 0
    while mask:
        low = mask & -mask
        out |= row[low.bit_length() - 1]
        mask ^= low
    return out


def _byte_tables(row: list[int]) -> list[list[int]]:
    """tabs[k][b] is the image under row of the bits b << 8k, the OR of the
    row[8k + i] over the set bits i of b; the last table covers only the
    bits of row."""
    tabs = []
    for lo in range(0, len(row), 8):
        bits = row[lo:lo + 8]
        tab = [0] * (1 << len(bits))
        for b in range(1, len(tab)):
            low = b & -b
            tab[b] = tab[b ^ low] | bits[low.bit_length() - 1]
        tabs.append(tab)
    return tabs


def _byte_map(tabs: list[list[int]]):
    """mask -> OR of one table entry per byte of mask, for one to eight
    bytes, so for every reach state of at most 64 bits. The lookups are
    unrolled, which is where the speed of the tables comes from."""
    t0, t1, t2, t3, t4, t5, t6, t7 = tabs + [None] * (8 - len(tabs))
    return [
        t0.__getitem__,
        lambda m: t0[m & 255] | t1[m >> 8],
        lambda m: t0[m & 255] | t1[m >> 8 & 255] | t2[m >> 16],
        lambda m: t0[m & 255] | t1[m >> 8 & 255] | t2[m >> 16 & 255] | t3[m >> 24],
        lambda m: (t0[m & 255] | t1[m >> 8 & 255] | t2[m >> 16 & 255]
                   | t3[m >> 24 & 255] | t4[m >> 32]),
        lambda m: (t0[m & 255] | t1[m >> 8 & 255] | t2[m >> 16 & 255]
                   | t3[m >> 24 & 255] | t4[m >> 32 & 255] | t5[m >> 40]),
        lambda m: (t0[m & 255] | t1[m >> 8 & 255] | t2[m >> 16 & 255]
                   | t3[m >> 24 & 255] | t4[m >> 32 & 255] | t5[m >> 40 & 255]
                   | t6[m >> 48]),
        lambda m: (t0[m & 255] | t1[m >> 8 & 255] | t2[m >> 16 & 255]
                   | t3[m >> 24 & 255] | t4[m >> 32 & 255] | t5[m >> 40 & 255]
                   | t6[m >> 48 & 255] | t7[m >> 56]),
    ][len(tabs) - 1]


def _slot_format(bits: int) -> tuple[str, int]:
    """The memoryview format and width of the narrowest slot of 8 to 64 bits
    that holds bits bits."""
    return next((fmt, width) for fmt, width in (("B", 8), ("H", 16), ("I", 32), ("Q", 64))
                if bits <= width)


def _packed_step(group: FiniteGroup, A: tuple[int, ...], width: int):
    """step(S) holds M_g(S), the union of the S*g^a over a in A, at bit
    g*width for every letter g: one lookup per byte of S (_byte_map) over
    P[x] = sum over g of (OR over the powers h of g of 1 << x*h) << g*width,
    for groups of order at most _BYTE_TABLE_MAX_ORDER."""
    n = group.order
    rows = _weighted_rows(group, A)
    # in one row of the table distinct powers give distinct bits: sum is OR
    return _byte_map(_byte_tables([sum(1 << g * width + row[h] for g in range(n)
                                       for h in rows[g])
                                   for row in group.array.tolist()]))


def _right_step(group: FiniteGroup, g: int):
    """S -> S*g: one lookup per byte of S (_byte_map) up to
    _BYTE_TABLE_MAX_ORDER, the column step of g (_ColumnSteps) above it."""
    if group.order > _BYTE_TABLE_MAX_ORDER:
        return _ColumnSteps(group)[g]
    return _byte_map(_byte_tables([1 << y for y in group.array[:, g].tolist()]))


def _orbit_images(targets: np.ndarray):
    """images(state) -> the images of state under every map of targets, as
    a numpy array; None for the identity alone. The k-th map sends bit i of
    a state to bit targets[i, k]. Up to _BYTE_TABLE_MAX_ORDER bits, like the
    search steps: one lookup per byte of the state (_byte_map) gives one int
    whose slot k, of the narrowest width that holds the state, is the image
    under the k-th map, read as one array of words; above it, the set-bit
    loop over arrays of ints."""
    bits, count = targets.shape
    if count == 1:
        return None
    if bits > _BYTE_TABLE_MAX_ORDER:
        cols = [np.array([1 << y for y in row], dtype=object) for row in targets.tolist()]
        zero = np.zeros(count, dtype=object)
        return lambda state: zero | _mapped(state, cols)
    dtype = np.dtype(_slot_format(bits)[0])
    words = dtype.type(1) << targets.astype(dtype)
    step = _byte_map(_byte_tables([int.from_bytes(row.tobytes(), sys.byteorder)
                                   for row in words]))
    size = count * dtype.itemsize
    return lambda state: np.frombuffer(step(state).to_bytes(size, sys.byteorder), dtype)


def _least_image(targets: np.ndarray):
    """key(state) -> the least image of state under the maps of targets
    (_orbit_images), one representative per orbit: by Python's min over few
    maps, numpy's reduce over many."""
    images = _orbit_images(targets)
    if images is None:
        return int  # the state itself
    if targets.shape[1] < _NUMPY_MIN_MAPS:
        return lambda state: min(images(state).tolist())
    least = np.minimum.reduce
    return lambda state: int(least(images(state)))


def _phi_targets(group: FiniteGroup, center, parts: int) -> np.ndarray:
    """targets[m*n + x, (z, a)] = m*n + a(x)*z^(m+1) for m < parts, as
    _orbit_images reads them: the maps phi(a, z) over the automorphisms a
    that automorphisms() finds and the central z in center. One part and
    center (0,) give the automorphisms alone, the maps of the keys of D and
    D_A, sound for every step that commutes with automorphisms, as a(g^w) =
    a(g)^w; n parts and the centre give the maps of E's key."""
    n = group.order
    auts = np.array(automorphisms(group), dtype=np.int64).T  # auts[x, a] = a(x)
    powers = np.array([[group.pow(z, m + 1) for z in center] for m in range(parts)])
    targets = (group.array[auts[None, :, None, :], powers[:, None, :, None]]
               + np.arange(0, parts * n, n)[:, None, None, None])
    return targets.reshape(parts * n, len(center) * auts.shape[1])


def _room(group: FiniteGroup) -> int:
    """top such that top - |S| bounds the free walks from a reach mask S,
    for D and D_A: a free step grows S, since S | S*h | {h} = S would put
    every power of h in S and so 1, and 1 is never in S, so no walk is
    longer than |G|-1-|S|."""
    return group.order - 1


def _tuple_key(group: FiniteGroup, center=(0,)):
    """The memo key of tuples of masks, component m a set of products of m+1
    terms: the least of their images under the maps phi(a, z) over the z in
    center (_phi_targets), compared as tuples. The images of each mask under
    the automorphisms are read from the orbit tables of one mask and cached
    (_Generations), as states share most of their components; with center
    (0,), the key of D' layers, those images are the components' own. With
    more central elements, E's key above the table width, component m is
    first multiplied by u^(m+1) for each central u, by one small table per
    central element (_right_step), since a(x*u) = a(x)*a(u): image (u, a) is
    phi(a, a(u)), the same map in every component, and the concatenated
    images of each (mask, m) are cached too."""
    images = _orbit_images(_phi_targets(group, (0,), 1))
    automorphic = _Generations(lambda mask: [mask] if images is None
                               else images(mask).tolist())
    if len(center) == 1:
        return lambda state: min(zip(*map(automorphic.__getitem__, state)), default=())
    steps = {u: _right_step(group, u) for u in center[1:]}
    steps[0] = int  # u^(m+1) = 1
    shifts = [[steps[group.pow(u, m + 1)] for u in center] for m in range(group.order)]
    component = _Generations(lambda mask_m: [
        y for shift in shifts[mask_m[1]] for y in automorphic[shift(mask_m[0])]])
    ms = range(group.order)
    return lambda state: min(zip(*map(component.__getitem__, zip(state, ms))))


def _layers(ms: tuple[int, ...]) -> tuple[int, ...]:
    """Layer k of a sorted multiset is the mask of the elements occurring
    more than k times."""
    layers: list[int] = []
    k = 0
    for i, x in enumerate(ms):
        k = k + 1 if i and ms[i - 1] == x else 0
        if k == len(layers):
            layers.append(0)
        layers[k] |= 1 << x
    return tuple(layers)


# --- ordered Davenport constant -----------------------------------------------

def davenport_ordered(group: FiniteGroup,
                      budget: SearchBudget | None = None) -> SearchResult:
    """Exact D(G) by memoized search on reach sets: D_A(G) at A = {1}
    (_weighted_search), whose step is S -> S | {g} | S*g.

    Groups above DEFAULT_ORDERED_CAP are refused unless an explicit budget is
    passed; when a budget trips, the best witness found so far gives a lower
    bound and the result is flagged exact=False.
    """
    return _weighted_search(group, (1,), budget)


# --- unordered Davenport constant ----------------------------------------------

def _submultiset_products(group: FiniteGroup):
    """reach(ms) -> the mask R(ms) of the products of all arrangements of all
    sub-multisets of the sorted multiset ms, the empty one giving 1.

    P(V), the arrangement products of V itself, and R(V) follow over the
    distinct elements h of V: P(V) is the union of P(V-h)*h (arrangements
    ending in h), and R(V) is P(V) with the union of the R(V-h). Both are
    kept per sorted multiset, and filled in with an explicit stack, as a
    multiset of |G| - 1 terms is |G| - 1 removals deep. P*h is the column
    step of h: each (multiset, removed element) pair reads one letter.
    """
    steps = _ColumnSteps(group)
    memo: dict[tuple, tuple[int, int]] = {(): (1, 1)}  # V -> (P(V), R(V))

    def smaller(ms):
        return [(h, ms[:i] + ms[i + 1:]) for i, h in enumerate(ms)
                if i == 0 or ms[i - 1] != h]

    def reach(ms: tuple[int, ...]) -> int:
        got = memo.get(ms)
        if got is not None:
            return got[1]
        todo = [ms]
        while todo:
            v = todo[-1]
            if v in memo:
                todo.pop()
                continue
            subs = smaller(v)
            missing = [s for _, s in subs if s not in memo]
            if missing:
                todo += missing
                continue
            todo.pop()
            p = r = 0
            for h, s in subs:
                ps, rs = memo[s]
                p |= steps[h](ps)
                r |= rs
            memo[v] = (p, r | p)
        return memo[ms][1]

    return reach


def davenport_unordered(group: FiniteGroup,
                        budget: SearchBudget | None = None) -> SearchResult:
    """Exact D'(G) by memoized search over sorted multisets (_longest_free).

    A step adds any element g != 1. For a free multiset M, M + g is free iff
    g^-1 is not in R(M) (_submultiset_products): an arrangement of a sub-multiset
    of M + g with product 1 that uses g can be rotated to end in g, and
    rotating conjugates the product, so it stays 1. The memo is keyed by
    _tuple_key of the _layers of M; the least longest walk is sorted.
    """
    clock = _checked_budget(group, budget, DEFAULT_UNORDERED_CAP, "unordered")
    reach = _submultiset_products(group)
    inv = group.inverse

    def children(ms: tuple[int, ...]):
        r = reach(ms)
        for g in range(1, group.order):
            if not r >> inv[g] & 1:
                i = bisect.bisect_right(ms, g)
                yield g, ms[:i] + (g,) + ms[i:]

    layer_key = _tuple_key(group)
    return _longest_free(group, (), children, clock, lambda ms: layer_key(_layers(ms)),
                         targets=_phi_targets(group, (0,), 1))


# --- E(G): product-one subsequences of length exactly |G| ------------------------

def _eg_children(group: FiniteGroup):
    """children(state) -> the live (g, next state) of the E search. Component
    m of a state, the products of the subsequences of length m+1
    (checkers.group_length_reach), is an n-bit mask, and g is live while component
    n-1 of its next state lacks 1. Up to _BYTE_TABLE_MAX_ORDER bits (n <= 8)
    a state is one int, component m at bit m*n, and one lookup per byte of
    a lifted table (_byte_map) steps every letter at once into 64-bit slots:
    bit m*n+x goes to bit m*n+x, and for m < n-1 to bit (m+1)*n + x*g, of
    slot g, which also gains bit g, the empty product times g. A wider state
    is the tuple of its n components, each stepped by every letter at once,
    with D's tables up to the cutoff order and by the column steps above
    it: no table wider than D's step of the same order."""
    n = group.order
    if n * n > _BYTE_TABLE_MAX_ORDER:
        if n > _BYTE_TABLE_MAX_ORDER:
            steps = _ColumnSteps(group)

            def letters(part: int) -> list:
                return [steps[g](part) for g in range(n)]
        else:
            fmt, width = _slot_format(n)
            step, size = _packed_step(group, (1,), width), n * width // 8

            def letters(part: int) -> list:
                return memoryview(step(part).to_bytes(size, sys.byteorder)).cast(fmt).tolist()

        none = [0] * n

        def wide(state: tuple[int, ...]) -> list:
            # moved[m][g]: the products of length m+2 that letter g adds
            moved = [letters(part) if part else none for part in state[:-1]]
            out = []
            for g, grown in enumerate(zip(*moved)):
                nxt = (state[0] | 1 << g, *map(operator.or_, state[1:], grown))
                if not nxt[-1] & 1:
                    out.append((g, nxt))
            return out

        return wide
    top = (n - 1) * n
    cols = group.array.T.tolist()  # cols[g][x] = x*g
    rows = []  # rows[m*n + x]: the lifted image of bit m*n + x
    for m in range(n):
        up = 1 << m * n + n if m < n - 1 else 0  # bit 0 of component m+1
        rows += [sum((1 << m * n + x | up << col[x]) << g * 64 for g, col in enumerate(cols))
                 for x in range(n)]
    tabs = _byte_tables(rows)
    base = sum(1 << g * 65 for g in range(n))  # bit g of slot g
    tabs[0] = [entry | base for entry in tabs[0]]
    step, size = _byte_map(tabs), n * 8

    def children(state: int) -> list:
        slots = memoryview(step(state).to_bytes(size, sys.byteorder)).cast("Q").tolist()
        return [(g, slot) for g, slot in enumerate(slots) if not slot >> top & 1]

    return children


def eg_invariant(group: FiniteGroup, budget: SearchBudget | None = None) -> SearchResult:
    """Exact E(G) over length-stratified reach states (_eg_children), keyed
    by the maps phi(a, z) over the whole centre, a group, Z(G) semidirect A.
    Identity terms stay legal: extremal E witnesses are identity-padded."""
    clock = _checked_budget(group, budget, DEFAULT_EG_CAP, "E")
    n, center = group.order, group.center()
    if n * n <= _BYTE_TABLE_MAX_ORDER:
        targets = _phi_targets(group, center, n)
        return _longest_free(group, 0, _eg_children(group), clock, _least_image(targets),
                             targets=targets)
    return _longest_free(group, (0,) * n, _eg_children(group), clock, _tuple_key(group, center),
                         targets=_phi_targets(group, center, 1))


def eg_lower_witness(ordered_witness: Sequence) -> Sequence:
    """A free sequence of length D-1 padded with |G|-1 identities has no
    index-ordered product-one subsequence of length exactly |G|."""
    if not is_ordered_free(ordered_witness):
        raise DavlabError("eg_lower_witness needs an ordered-product-one-free input")
    group = ordered_witness.group
    return Sequence(group, ordered_witness.terms + (0,) * (group.order - 1))


# --- weighted Davenport constant -------------------------------------------------

def _weighted_children(group: FiniteGroup, A: tuple[int, ...], clock: _Clock):
    """children(S) -> the live (g, extend(S, g)): up to the cutoff, slot g
    of S*REP | step(S | {1}) (_packed_step) in slots of w = 8, 16, 32 or
    64 >= n bits, REP copying S into every slot and step({1}) holding B_g in
    slot g, read as one array of words; above it a lazy walk of
    _weighted_extend that reads the clock every 64 letters, as one state of
    a large group can try thousands. The identity letter is never live."""
    n = group.order
    if n > _BYTE_TABLE_MAX_ORDER:
        extend = _weighted_extend(group, A)

        def lazy(mask: int):
            for g in range(1, n):
                if not g & 63:
                    clock.read()
                nxt = extend(mask, g)
                if nxt is not None:
                    yield g, nxt

        return lazy
    fmt, width = _slot_format(n)
    step, size = _packed_step(group, A, width), n * width // 8
    rep = sum(1 << g * width for g in range(n))

    def children(mask: int) -> list:
        grown = mask * rep | step(mask | 1)
        slots = memoryview(grown.to_bytes(size, sys.byteorder)).cast(fmt).tolist()
        return [(g, slot) for g, slot in enumerate(slots) if not slot & 1]

    return children


def _weighted_search(group: FiniteGroup, A: tuple[int, ...],
                     budget: SearchBudget | None) -> SearchResult:
    """D_A(G) by reach-mask search, for weights A that are valid or (1,)."""
    clock = _checked_budget(group, budget, DEFAULT_ORDERED_CAP, "search")
    targets = _phi_targets(group, (0,), 1)
    return _longest_free(group, 0, _weighted_children(group, A, clock), clock,
                         _least_image(targets), _room(group), targets=targets)


def davenport_weighted(group: FiniteGroup, weights,
                       budget: SearchBudget | None = None) -> SearchResult:
    """Exact D_A(G): the reach extension also ranges over the weight powers,
    S -> S | {s * g^a} | {g^a}. D(G) is the case A = {1}."""
    return _weighted_search(group, _validate_weights(group, weights), budget)


def min_weight_set(group: FiniteGroup, k: int) -> int | None:
    """min |A| over weight sets with D_A(G) <= k, or None when no A works.

    Exhausts subsets of [1, exp(G)-1] by size, smallest first; D_A shrinks as
    A grows, so the first success is optimal. Refused above WEIGHT_SET_CAP,
    which bounds the exponent too.
    """
    if k < 1:
        raise DavlabError("min_weight_set needs k >= 1")
    if group.order > WEIGHT_SET_CAP:
        raise GroupTooLargeError(
            f"{group.name}: weight-set exhaustion capped at order {WEIGHT_SET_CAP}")
    universe = list(range(1, group.exponent()))
    if not universe:
        return None
    for size in range(1, len(universe) + 1):
        for A in itertools.combinations(universe, size):
            if davenport_weighted(group, A).value <= k:
                return size
    return None
