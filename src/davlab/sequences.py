"""Sequences of group elements and the check that one is product-one free.

Apart from the search engine in zerosum, so that a command that checks a
witness and searches nothing (witness, and a scan whose rows need no D)
never imports the engine. This module imports nothing from zerosum or
subgroups; zerosum imports both names from here.
"""

from __future__ import annotations

import itertools

import numpy as np

from .cache import compact_labels


class Sequence:
    """An ordered sequence of group elements (repetition allowed): an
    immutable value, equal and hashed by (group, terms)."""

    __slots__ = ("group", "terms")
    group: FiniteGroup  # groups.FiniteGroup; not evaluated at run time
    terms: tuple[int, ...]

    def __init__(self, group: FiniteGroup, terms: tuple[int, ...]):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.group, self.terms) == (other.group, other.terms)

    def __hash__(self) -> int:
        return hash((self.group, self.terms))

    def __repr__(self) -> str:
        return f"Sequence(group={self.group!r}, terms={self.terms!r})"

    def __len__(self) -> int:
        return len(self.terms)

    def labels(self) -> list[str]:
        return [self.group.labels[g] for g in self.terms]

    def compact(self) -> str:
        """Run-length display, e.g. '(y)^3 x' for (y, y, y, x)."""
        return compact_labels(self.labels())


def is_ordered_free(seq: Sequence) -> bool:
    """True when no nonempty index-increasing subsequence multiplies to 1.

    The products S of the nonempty subsequences of each prefix are kept as
    their inverses, a bool vector R = S^-1: appending g makes S | S*g | {g},
    so R becomes R | g^-1 R^ with R^ = R | {1}, and y lies in g^-1 R^
    exactly when g y lies in R^, one gather of R^ at row g of the table. A
    run g^m makes R | g^-1 U_m with U_m the union of g^-j R^ over j < m,
    doubled as U_2k = U_k | g^-k U_k (and U_2k+1 = U_2k | g^-2k R^): O(log m)
    gathers a run. R only grows, so testing 1 in R once a run is exact."""
    group = seq.group
    T, table = group.array, group.table
    R = np.zeros(group.order, dtype=bool)
    for g, run in itertools.groupby(seq.terms):
        m = sum(1 for _ in run)
        hat = R.copy()
        hat[0] = True
        U, gk = hat, g  # U_k and g^k, from k = 1 by the bits of m
        for bit in bin(m)[3:]:
            U = U | U[T[gk]]
            gk = table[gk][gk]
            if bit == "1":
                U |= hat[T[gk]]
                gk = table[gk][g]
        R |= U[T[g]]
        if R[0]:
            return False
    return True
