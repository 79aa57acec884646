"""Cross-module bounds that tie the search to the algebraic side."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from davlab import (Sequence, build, davenport_ordered, davenport_unordered,
                    is_product_one, loewy_length, parse_descriptor,
                    validate_descriptor)
from davlab.errors import BudgetExceededError, DavlabError
from davlab.numtheory import prime_power
from davlab.theory import olson_white
from davlab.zerosum import SearchBudget

P_GROUPS = ["c[2]", "c[4]", "c[8]", "c[9]", "ab[2,2]", "ab[3,3]",
            "d[8]", "q[8]", "d[16]", "q[16]", "sd[16]", "m2[16]"]


@pytest.mark.parametrize("text", P_GROUPS)
def test_davenport_at_most_loewy(text, grp):
    G = grp(text)
    assert davenport_ordered(G).value <= loewy_length(G), text


@pytest.mark.parametrize("text", ["ab[2,2]", "ab[3,3]", "d[6]", "d[8]", "q[8]",
                                  "q[12]", "d[16]", "sd[16]", "m2[16]"])
def test_davenport_at_most_olson_white(text, grp):
    G = grp(text)
    assert davenport_ordered(G).value <= olson_white(G.order), text


@pytest.mark.parametrize("text", P_GROUPS + ["c[5]", "c[7]", "d[6]", "q[12]"])
def test_davenport_at_most_order(text, grp):
    # the reach set grows strictly until the identity appears
    G = grp(text)
    assert davenport_ordered(G).value <= G.order, text


def test_unordered_budget_trips_gracefully(grp):
    res = davenport_unordered(grp("m2[16]"), SearchBudget(max_states=50))
    assert not res.exact
    assert res.value >= 1


def test_arrangement_search_length_cap(grp):
    G = grp("c[2]")
    with pytest.raises(BudgetExceededError):
        is_product_one(Sequence(G, (1,) * 17))


def family_p_groups(max_order):
    """Every valid descriptor of prime-power order <= max_order in the
    families c, ab (two to four factors), d, q, sd and m2; the g families
    start above order 16."""
    texts = [f"c[{n}]" for n in range(2, max_order + 1)]
    texts += [f"{f}[{n}]" for f in ("d", "q", "sd", "m2") for n in range(4, max_order + 1)]
    for k in (2, 3, 4):
        texts += [f"ab[{','.join(map(str, t))}]"
                  for t in itertools.product(range(2, max_order // 2 + 1), repeat=k)]
    out = []
    for text in texts:
        try:
            desc = parse_descriptor(text)
            validate_descriptor(desc)
        except DavlabError:
            continue
        if desc.theoretical_order() <= max_order and prime_power(desc.theoretical_order()):
            out.append(text)
    return out


SMALL_P_GROUPS = family_p_groups(16) + ["g1[3,1,1,1]"]


@functools.lru_cache(maxsize=None)
def _search_and_loewy(text):
    G = build(parse_descriptor(text))
    return davenport_ordered(G), loewy_length(G)


@settings(derandomize=True, deadline=None)
@given(st.sampled_from(SMALL_P_GROUPS))
def test_exact_davenport_never_exceeds_loewy_length(text):
    res, L = _search_and_loewy(text)
    assert res.exact and res.value <= L, (text, res.value, L)


def test_small_p_group_grid_is_covered():
    # the property above draws from this grid; it must reach every member
    assert len(SMALL_P_GROUPS) == 30
    test_exact_davenport_never_exceeds_loewy_length()
    assert _search_and_loewy.cache_info().currsize == len(SMALL_P_GROUPS)
