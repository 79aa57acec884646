"""Acceptance suite: one test per criterion, each ending in a printed verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every test also asserts its stated wall-clock budget.
"""

import json
import time

from davlab import (SearchBudget, build, congruence_oracle, congruence_system,
                    davenport_ordered, davenport_ordered_naive, davenport_unordered,
                    davenport_weighted, discriminant_check, eg_invariant,
                    has_group_length_product_one, is_ordered_free, is_prime,
                    jennings_data, loewy_formula, loewy_length,
                    mseries_closed_form_check, olson_white_bound, parse_descriptor,
                    power_generators_check, witness_for_theorem)
from conftest import schema_errors
from davlab.cli import _grid, main
from davlab.jennings import quotient_elementary_abelian_report


def _pass(n: int, message: str) -> None:
    print(f"criterion {n}: PASS  {message}")


# every valid g1/g2/g3 descriptor of order at most 729 at p = 3 and 5
G_FAMILY_GRID = _grid(["g1", "g2", "g3"], [3, 5], 729, [])


TWO_GROUPS_R5 = ["d[8]", "d[16]", "d[32]", "q[8]", "q[16]", "q[32]",
                 "sd[16]", "sd[32]", "m2[16]", "m2[32]"]


def test_criterion_1_theorem1_exact():
    """D equals ceil((|G|+1)/2) for Q_8, Q_12, SD_16 by exhaustive search."""
    for text, expected in (("q[8]", 5), ("q[12]", 7), ("sd[16]", 9)):
        t0 = time.perf_counter()
        G = build(parse_descriptor(text))
        result = davenport_ordered(G)
        elapsed = time.perf_counter() - t0
        assert result.exact, text
        assert result.value == expected == olson_white_bound(G), text
        assert elapsed < 10.0, f"{text} took {elapsed:.1f}s"
    _pass(1, "D(Q_8)=5, D(Q_12)=7, D(SD_16)=9, each = ceil((|G|+1)/2)")


def test_criterion_2_theorem7_exact():
    """Search and the Jennings chain independently give 2^(r-1)+1 at r = 3, 4."""
    t0 = time.perf_counter()
    for text in ("d[8]", "q[8]", "d[16]", "q[16]", "sd[16]", "m2[16]"):
        G = build(parse_descriptor(text))
        r = G.order.bit_length() - 1
        expected = 2 ** (r - 1) + 1
        search = davenport_ordered(G)
        assert search.exact and search.value == expected, text
        assert loewy_length(G) == expected, text
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"{elapsed:.1f}s"
    _pass(2, "D = L = 2^(r-1)+1 on D_8, Q_8, D_16, Q_16, SD_16, M_16 "
             f"({elapsed:.1f}s)")


def test_criterion_3_order27_anchors():
    """L = 9 and 11 for the two nonabelian order-27 groups; free witnesses of
    lengths 8 and 10 pin D without any search."""
    t0 = time.perf_counter()
    pinned = {}
    for text, expected_L in (("g1[3,1,1,1]", 9), ("g2[3,2,1,1]", 11)):
        desc = parse_descriptor(text)
        G = build(desc)
        L = loewy_length(G)
        assert L == expected_L == loewy_formula(desc), text
        spec = witness_for_theorem(desc, 6)
        assert spec.length == expected_L - 1, text
        assert is_ordered_free(spec.sequence(G)), text
        # upper bound L meets the witness lower bound: D is pinned exactly
        pinned[text] = spec.length + 1
        assert pinned[text] == L
    elapsed = time.perf_counter() - t0
    assert pinned == {"g1[3,1,1,1]": 9, "g2[3,2,1,1]": 11}
    assert elapsed < 5.0, f"{elapsed:.1f}s"
    _pass(3, f"order-27 anchors pinned: D = 9 and D = 11 ({elapsed:.2f}s)")


def test_criterion_4_jennings_consistency_suite():
    """Dimension sum, palindrome, L = m + 1, elementary abelian quotients, and
    the two closed-form reports, over the full desk grid."""
    t0 = time.perf_counter()
    grid = [parse_descriptor(t) for t in TWO_GROUPS_R5] + G_FAMILY_GRID
    checked = 0
    for desc in grid:
        G = build(desc)
        data = jennings_data(G)
        p = data.prime
        assert sum(data.coefficients) == G.order, desc.canonical()
        assert data.coefficients == data.coefficients[::-1], desc.canonical()
        m = (p - 1) * sum(i * e for i, e in enumerate(data.exponents, start=1))
        assert data.loewy_length == m + 1, desc.canonical()
        report = quotient_elementary_abelian_report(data.series)
        assert report.ok, f"{desc.canonical()}: {report.failures()}"
        if desc.family in ("g1", "g2", "g3"):
            r1 = mseries_closed_form_check(G, desc)
            assert r1.ok, f"{desc.canonical()}: {r1.failures()}"
            r2 = power_generators_check(G, desc)
            assert r2.ok, f"{desc.canonical()}: {r2.failures()}"
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"{elapsed:.1f}s"
    _pass(4, f"Jennings consistency on {checked} groups ({elapsed:.1f}s)")


def test_criterion_5_formula_vs_direct():
    """Closed-form Loewy lengths equal the chain computation on the g grids."""
    t0 = time.perf_counter()
    grid = G_FAMILY_GRID
    assert len(grid) >= 15
    for desc in grid:
        assert loewy_formula(desc) == loewy_length(build(desc)), desc.canonical()
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"{elapsed:.1f}s"
    _pass(5, f"loewy_formula = loewy_length on {len(grid)} descriptors "
             f"({elapsed:.1f}s)")


def test_criterion_6_quadratic_residue_machinery():
    """Congruence oracles, discriminants below 100, and table agreement."""
    t0 = time.perf_counter()
    for p in (3, 7, 5, 13, 17):
        assert congruence_oracle(congruence_system(
            parse_descriptor(f"g1[{p},1,1,1]"))), f"g1 p={p}"
        assert congruence_oracle(congruence_system(
            parse_descriptor(f"g3[{p},3,2,2,1]"))), f"g3 p={p}"
    for p in range(3, 100, 2):
        if is_prime(p):
            case = "3mod4" if p % 4 == 3 else "1mod4"
            assert discriminant_check(p, case), p
    # both routes agree on every witness whose group fits under the cap
    agreements = 0
    for text in ("g1[3,1,1,1]", "g1[5,1,1,1]", "g1[7,1,1,1]", "g1[13,1,1,1]",
                 "g3[3,3,2,2,1]"):
        desc = parse_descriptor(text)
        free = is_ordered_free(witness_for_theorem(desc, 6).sequence(build(desc)))
        oracle = congruence_oracle(congruence_system(desc))
        assert free and oracle and free == oracle, text
        agreements += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"{elapsed:.1f}s"
    _pass(6, f"oracles true at p in {{3,7,5,13,17}}, discriminants < 100, "
             f"{agreements} table agreements ({elapsed:.1f}s)")


def test_criterion_7_naive_oracle_equivalence():
    """Search equals plain enumeration on every grid group of order <= 10,
    and weight set {1} collapses to the unweighted constant."""
    t0 = time.perf_counter()
    grid = [f"c[{n}]" for n in range(1, 11)] + ["ab[2,2]", "d[6]", "q[8]", "d[8]"]
    for text in grid:
        G = build(parse_descriptor(text))
        value = davenport_ordered(G).value
        assert value == davenport_ordered_naive(G), text
        if G.exponent() > 1:
            assert davenport_weighted(G, (1,)).value == value, text
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"{elapsed:.1f}s"
    _pass(7, f"naive oracle equivalence on {len(grid)} groups ({elapsed:.1f}s)")


def test_criterion_8_unordered_and_eg_variants():
    """D'(M_16) = 9; D' = D on abelian groups; E(C_n) = 2n - 1; the additive
    lower bound for E holds wherever both invariants complete."""
    t0 = time.perf_counter()
    assert davenport_unordered(build(parse_descriptor("m2[16]"))).value == 9
    for text in ("c[2]", "c[3]", "c[4]", "c[5]", "c[6]", "c[7]", "c[8]",
                 "c[9]", "c[10]", "ab[2,2]", "ab[3,3]"):
        G = build(parse_descriptor(text))
        assert davenport_unordered(G).value == davenport_ordered(G).value, text
    for n in range(1, 6):
        assert eg_invariant(build(parse_descriptor(f"c[{n}]"))).value == 2 * n - 1
    conjecture_rows = []
    for text in ("c[1]", "c[2]", "c[3]", "c[4]", "c[5]", "ab[2,2]", "q[8]"):
        G = build(parse_descriptor(text))
        budget = SearchBudget(max_states=3_000_000, max_seconds=60) \
            if G.order > 5 else None
        e_res = eg_invariant(G, budget) if budget else eg_invariant(G)
        if not e_res.exact:
            continue
        d_val = davenport_ordered(G).value
        assert e_res.value >= d_val + G.order - 1, text
        conjecture_rows.append((text, e_res.value, d_val + G.order - 1))
        assert not has_group_length_product_one(e_res.witness)
    for text, e_val, conj in conjecture_rows:
        marker = "=" if e_val == conj else ">"
        print(f"  E data: {text}: E = {e_val} {marker} D + |G| - 1 = {conj}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0, f"{elapsed:.1f}s"
    _pass(8, f"D'(M_16) = 9, abelian D' = D, E(C_n) = 2n-1, bound checked on "
             f"{len(conjecture_rows)} groups ({elapsed:.1f}s)")


SCAN_INVOCATIONS = [
    ("--families=d,q,sd,m2", "--max-order=32"),
    ("--families=g1", "--max-order=729", "--param-ranges=gamma=1"),
    ("--families=g2", "--max-order=729"),
    ("--families=g3", "--max-order=729", "--param-ranges=sigma=1"),
]


def test_criterion_9_scan_integrity(tmp_path, capsys):
    """Every proven-family scan exits 0 with no REFUTED row, and a second
    identical scan runs at least ten times faster from cache with the same
    values. Each pass is timed as the best of three, every cold one against
    a fresh cache: a single cold pass of about 0.1 s in-process left the
    ratio to the noise of one run."""

    def run_all(cache):
        docs = []
        total = 0.0
        for extra in SCAN_INVOCATIONS:
            argv = ["scan", *extra, "--json", "--cache", cache]
            t0 = time.perf_counter()
            code = main(argv)
            total += time.perf_counter() - t0
            out = capsys.readouterr().out
            doc = json.loads(out)
            assert schema_errors(doc) == []
            assert code == 0, argv
            docs.append(doc)
        return docs, total

    strip = lambda docs: [[{k: v for k, v in r.items()
                            if k not in ("elapsed_ms", "cached")}
                           for r in doc["rows"]] for doc in docs]
    caches = [str(tmp_path / f"scan{i}.jsonl") for i in range(3)]
    cold = [run_all(cache) for cache in caches]
    first_docs = cold[0][0]
    assert [len(doc["rows"]) for doc in first_docs] == [15, 8, 14, 1]
    rows = [r for doc in first_docs for r in doc["rows"]]
    assert rows
    assert all(r["status"] != "REFUTED" for r in rows)
    assert sum(r["status"] == "CONFIRMED" for r in rows) == len(rows)
    assert all(strip(docs) == strip(first_docs) for docs, _ in cold)

    warm = [run_all(caches[-1]) for _ in range(3)]
    for second_docs, _ in warm:
        assert strip(first_docs) == strip(second_docs)
        assert all(r["cached"] for doc in second_docs for r in doc["rows"])
    first_time = min(t for _, t in cold)
    second_time = min(t for _, t in warm)
    assert second_time * 10 <= first_time, \
        f"first {first_time:.2f}s, second {second_time:.2f}s"
    _pass(9, f"{len(rows)} scan rows CONFIRMED, cache speedup "
             f"{first_time / max(second_time, 1e-9):.0f}x")
