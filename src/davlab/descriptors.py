"""Group descriptors: the typed form of the CLI grammar.

Grammar (whitespace-free, decimal integers):

    c[n]  ab[n1,n2,...]  d[order]  q[order]  sd[order]  m2[order]
    g1[p,alpha,beta,gamma]  g2[p,alpha,beta,gamma]
    g3[p,alpha,beta,gamma,sigma]
"""

from __future__ import annotations

import re

from .errors import ConstraintError, DescriptorError
from .numtheory import is_prime

# Fixed positional parameter names; None marks variadic families.
_PARAM_NAMES = {
    "c": ("n",),
    "ab": None,
    "d": ("order",),
    "q": ("order",),
    "sd": ("order",),
    "m2": ("order",),
    "g1": ("p", "alpha", "beta", "gamma"),
    "g2": ("p", "alpha", "beta", "gamma"),
    "g3": ("p", "alpha", "beta", "gamma", "sigma"),
}

GRAMMAR_HINT = "descriptors: " + ", ".join(
    f"{family}[{','.join(names or ('n1', 'n2', '...'))}]"
    for family, names in _PARAM_NAMES.items())

_SHOWN_DIGITS = 40


def _shown(value: int) -> str:
    text = str(value)
    if len(text) <= _SHOWN_DIGITS:
        return text
    return f"{text[:3]}...{text[-3:]} ({len(text)} digits)"


_DESCRIPTOR_RE = re.compile(r"^([a-z][a-z0-9]*)\[(\d+(?:,\d+)*)\]$")


class GroupDescriptor:
    """Parsed family-plus-parameters identifier: an immutable value, equal
    and hashed by (family, params)."""

    __slots__ = ("family", "params")
    family: str
    params: tuple[tuple[str, int], ...]

    def __init__(self, family: str, params: tuple[tuple[str, int], ...]):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "params", params)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # pickle's default restores slots by setattr, which this class refuses
        return (GroupDescriptor, (self.family, self.params))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.family, self.params) == (other.family, other.params)

    def __hash__(self) -> int:
        return hash((self.family, self.params))

    def __repr__(self) -> str:
        return f"GroupDescriptor(family={self.family!r}, params={self.params!r})"

    def __getitem__(self, name: str) -> int:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    @property
    def pmap(self) -> dict[str, int]:
        return dict(self.params)

    def values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.params)

    def canonical(self) -> str:
        return f"{self.family}[{','.join(str(v) for v in self.values())}]"

    def __str__(self) -> str:
        """canonical() for messages: a parameter past _SHOWN_DIGITS digits is
        shortened to its ends and its length, e.g. 999...998 (3001 digits)."""
        return f"{self.family}[{','.join(_shown(v) for v in self.values())}]"

    def theoretical_order(self) -> int:
        """Group order implied by the parameters (construction must match it)."""
        f = self.family
        if f == "c":
            return self["n"]
        if f == "ab":
            n = 1
            for _, v in self.params:
                n *= v
            return n
        if f in ("d", "q", "sd", "m2"):
            return self["order"]
        p = self["p"]
        if f == "g1":
            return p ** (self["alpha"] + self["beta"] + self["gamma"])
        if f == "g2":
            return p ** (self["alpha"] + self["beta"])
        if f == "g3":
            return p ** (self["alpha"] + self["beta"] + self["sigma"])
        raise DescriptorError(f"unknown family {f!r}")


def make_descriptor(family: str, *values: int) -> GroupDescriptor:
    """Build a descriptor from positional parameter values, unvalidated."""
    if family not in _PARAM_NAMES:
        raise DescriptorError(f"unknown family {family!r}; {GRAMMAR_HINT}")
    names = _PARAM_NAMES[family]
    if names is None:
        if not values:
            raise DescriptorError("ab needs at least one factor; " + GRAMMAR_HINT)
        names = tuple(f"n{i+1}" for i in range(len(values)))
    elif len(values) != len(names):
        raise DescriptorError(
            f"{family} takes {len(names)} parameters {names}, got {len(values)}; "
            + GRAMMAR_HINT
        )
    return GroupDescriptor(family, tuple(zip(names, values)))


def parse_descriptor(text: str) -> GroupDescriptor:
    """Parse a descriptor string; raises DescriptorError with a grammar hint."""
    m = _DESCRIPTOR_RE.match(text.strip())
    if not m:
        raise DescriptorError(f"cannot parse {text!r}; {GRAMMAR_HINT}")
    family = m.group(1)
    try:
        values = tuple(int(tok) for tok in m.group(2).split(","))
    except ValueError:  # a parameter past the interpreter's int digit limit
        raise DescriptorError(f"{family}[...]: a parameter has too many digits") from None
    return make_descriptor(family, *values)


def _require(ok: bool, desc: GroupDescriptor, constraint: str) -> None:
    if not ok:
        raise ConstraintError(f"{desc}: requires {constraint}")


def validate_descriptor(desc: GroupDescriptor) -> None:
    """Check the family-specific parameter constraints; raise ConstraintError."""
    f = desc.family
    if f == "c":
        _require(desc["n"] >= 1, desc, "n >= 1")
        return
    if f == "ab":
        _require(all(v >= 1 for v in desc.values()), desc, "every factor >= 1")
        return
    if f == "d":
        n = desc["order"]
        _require(n % 2 == 0 and n >= 4, desc, "even order >= 4")
        return
    if f == "q":
        n = desc["order"]
        _require(n % 4 == 0 and n >= 8, desc, "order 4n with n >= 2")
        return
    if f == "sd":
        n = desc["order"]
        _require(n % 8 == 0 and n >= 16, desc, "order 8n with n >= 2")
        return
    if f == "m2":
        n = desc["order"]
        _require(n >= 16 and n & (n - 1) == 0, desc, "order 2^r with r >= 4")
        return

    p = desc["p"]
    _require(p < 2 ** 64, desc, "p < 2^64")
    # no group this large builds; the bound keeps every p^e cheap to compute
    _require(max(desc.values()[1:]) <= 64, desc, "every exponent <= 64")
    _require(p % 2 == 1 and is_prime(p), desc, "odd prime p")
    a, b, g = desc["alpha"], desc["beta"], desc["gamma"]
    if f == "g1":
        _require(a >= b >= g >= 1, desc, "alpha >= beta >= gamma >= 1")
    elif f == "g2":
        _require(a >= 2 * g, desc, "alpha >= 2*gamma")
        _require(b >= g >= 1, desc, "beta >= gamma >= 1")
    elif f == "g3":
        s = desc["sigma"]
        _require(b >= g > s >= 1, desc, "beta >= gamma > sigma >= 1")
        _require(a + s >= 2 * g, desc, "alpha + sigma >= 2*gamma")
    else:
        raise DescriptorError(f"unknown family {f!r}")
