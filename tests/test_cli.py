import argparse
import concurrent.futures
import csv
import hashlib
import io
import itertools
import json
import os
import re
import sys
from pathlib import Path

import pytest

from conftest import run_python, schema_errors
from davlab import cli, groups, zerosum
from davlab.cache import ResultRecord, cache_get, cache_put, cache_records
from davlab.cli import _grid, main, scan_row
from davlab.descriptors import make_descriptor, validate_descriptor
from davlab.errors import DavlabError, InternalConsistencyError
from davlab.numtheory import prime_power
from davlab.theory import COVERAGE, constructions, loewy_formula, olson_white, witness_plan
from davlab.version import SEARCH_ALGO
from davlab.witnesses import witness_for_theorem


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


def run_json(capsys, *argv) -> tuple[int, dict]:
    code, out = run(capsys, *argv)
    doc = json.loads(out)
    assert schema_errors(doc) == []
    return code, doc


def test_info_text(capsys):
    code, out = run(capsys, "info", "g1[3,1,1,1]")
    assert code == 0
    assert "order: 27" in out
    assert "exponent: 3" in out
    assert "nilpotency_class: 2" in out


def test_info_json(capsys):
    code, doc = run_json(capsys, "info", "g2[3,2,1,1]", "--json")
    assert code == 0
    assert doc["value"] == 27 and doc["exponent"] == 9


def test_info_trivial(capsys):
    code, out = run(capsys, "info", "c[1]")
    assert code == 0 and "order: 1" in out


@pytest.mark.parametrize("text, commutator, nil_class", [
    ("g1[3,1,1,1]", 3, 2), ("m2[4096]", 2, 2), ("d[6]", 3, None), ("q[8]", 2, 2)])
def test_info_takes_the_commutator_subgroup_from_the_lower_central_series(
        capsys, monkeypatch, text, commutator, nil_class):
    """[G, G] is the series' second term: info makes the two commutator_subgroup
    calls of the series, [G, G] and the [gamma_2, G] that ends it."""
    from davlab import subgroups
    calls = []
    real = subgroups.commutator_subgroup
    monkeypatch.setattr(subgroups, "commutator_subgroup",
                        lambda H, K: calls.append(1) or real(H, K))
    code, doc = run_json(capsys, "info", text, "--json")
    assert code == 0 and len(calls) == 2
    assert (doc["commutator_size"], doc["nilpotency_class"]) == (commutator, nil_class)


def test_parse_error_exit_code(capsys):
    code = main(["info", "nope[3]"])
    err = capsys.readouterr().err
    assert code == 2
    assert "descriptors:" in err  # grammar hint


def test_loewy_both(capsys):
    code, out = run(capsys, "loewy", "g1[3,1,1,1]", "--method=both")
    assert code == 0
    assert "loewy_length(direct): 9" in out
    assert "loewy_length(formula): 9" in out
    assert "agreement: yes" in out


def test_loewy_cyclic(capsys):
    code, out = run(capsys, "loewy", "c[3]")
    assert code == 0 and "loewy_length(direct): 3" in out


def test_loewy_json_document(capsys):
    code, doc = run_json(capsys, "loewy", "g3[3,3,2,2,1]", "--method=both", "--json")
    assert code == 0
    assert doc["value"] == 39 and doc["agreement"] is True
    assert sum(doc["coefficients"]) == 729


def test_loewy_not_p_group(capsys):
    assert main(["loewy", "c[6]"]) == 1


def test_loewy_formula_unsupported(capsys):
    assert main(["loewy", "sd[24]", "--method=formula"]) == 1


def test_davenport_q8(capsys, tmp_path):
    cache = str(tmp_path / "c.jsonl")
    code, doc = run_json(capsys, "davenport", "q[8]", "--json", "--cache", cache)
    assert code == 0
    assert doc["invariant"] == "D" and doc["value"] == 5 and doc["exact"]
    assert doc["cached"] is False
    code2, doc2 = run_json(capsys, "davenport", "q[8]", "--json", "--cache", cache)
    assert code2 == 0 and doc2["cached"] is True and doc2["value"] == 5


@pytest.mark.parametrize("argv", [
    ("q[8]",),
    ("q[8]", "--variant=unordered"),
    ("c[4]", "--variant=E"),
    ("c[5]", "--variant=weighted", "--weights=1,4"),
], ids=["D", "Dprime", "E", "DA"])
def test_davenport_cached_document_equals_fresh(argv, capsys, tmp_path):
    cache = str(tmp_path / "c.jsonl")
    _, fresh = run_json(capsys, "davenport", *argv, "--json", "--cache", cache)
    _, hit = run_json(capsys, "davenport", *argv, "--json", "--cache", cache)
    assert fresh["cached"] is False and hit["cached"] is True
    assert "states" in fresh and "states" not in hit
    assert fresh["stop_reason"] == hit["stop_reason"] == "done"
    drop = lambda doc: {k: v for k, v in doc.items()
                        if k not in ("cached", "states", "elapsed_ms")}
    assert drop(hit) == drop(fresh)


def test_davenport_unordered_m16(capsys, tmp_path):
    code, doc = run_json(capsys, "davenport", "m2[16]", "--variant=unordered",
                         "--json", "--no-cache")
    assert code == 0
    assert doc["invariant"] == "Dprime" and doc["value"] == 9


def test_davenport_weighted(capsys, tmp_path):
    cache = str(tmp_path / "c.jsonl")
    code, doc = run_json(capsys, "davenport", "c[5]", "--variant=weighted",
                         "--weights=1,4", "--json", "--cache", cache)
    assert code == 0 and doc["invariant"] == "DA" and doc["value"] == 3
    # weighted cache key keeps weight sets apart
    code, doc = run_json(capsys, "davenport", "c[5]", "--variant=weighted",
                         "--weights=1", "--json", "--cache", cache)
    assert doc["value"] == 5 and doc["cached"] is False


def test_davenport_weights_are_a_set_in_the_cache(capsys, tmp_path):
    """A repeated weight names the same set: the second command is a cache
    hit, and the file holds one record."""
    cache = tmp_path / "c.jsonl"
    for weights, cached in (("1,3", False), ("1,3,3", True)):
        code, doc = run_json(capsys, "davenport", "q[8]", "--variant=weighted",
                             f"--weights={weights}", "--json", "--cache", str(cache))
        assert (code, doc["cached"]) == (0, cached)
    assert len(cache.read_text().splitlines()) == 1


def test_davenport_weighted_needs_weights(capsys):
    assert main(["davenport", "c[5]", "--variant=weighted", "--no-cache"]) == 2


@pytest.mark.parametrize("variant", [(), ("--variant=unordered",), ("--variant=E",)],
                         ids=["D", "Dprime", "E"])
def test_davenport_weights_need_the_weighted_variant(variant, capsys, tmp_path):
    """--weights with another variant is refused, not searched as that
    variant and cached under the weight set."""
    cache = tmp_path / "c.jsonl"
    assert main(["davenport", "q[8]", "--variant=weighted", "--weights=1,3",
                 "--cache", str(cache)]) == 0
    before = cache.read_bytes()
    capsys.readouterr()
    assert main(["davenport", "q[8]", *variant, "--weights=1,3", "--cache", str(cache)]) == 2
    assert capsys.readouterr().err.startswith("error: --weights")
    assert cache.read_bytes() == before


def test_davenport_trivial_group(capsys):
    code, doc = run_json(capsys, "davenport", "c[1]", "--json", "--no-cache")
    assert code == 0 and doc["value"] == 1


def test_davenport_eg_variant(capsys):
    code, doc = run_json(capsys, "davenport", "c[3]", "--variant=E", "--json",
                         "--no-cache")
    assert code == 0 and doc["invariant"] == "E" and doc["value"] == 5


def test_davenport_group_too_large(capsys):
    assert main(["davenport", "g1[3,2,1,1]", "--no-cache"]) == 1


def test_davenport_budget_allows_inexact(capsys):
    code, doc = run_json(capsys, "davenport", "g1[3,1,1,1]", "--json", "--no-cache",
                         "--budget-states", "500")
    assert code == 0
    assert doc["exact"] is False and doc["stop_reason"] == "states"
    assert doc["value"] >= 2
    assert not schema_errors(doc)


def test_davenport_inexact_cache_record_is_not_served(capsys, tmp_path):
    cache = str(tmp_path / "c.jsonl")
    code, doc = run_json(capsys, "davenport", "q[24]", "--budget-states=100",
                         "--json", "--cache", cache)
    assert code == 0 and doc["exact"] is False
    code, doc = run_json(capsys, "davenport", "q[24]", "--json", "--cache", cache)
    assert code == 0
    assert doc["cached"] is False and doc["exact"] is True and doc["value"] == 13


def test_cached_davenport_prints_the_fresh_text(capsys, tmp_path):
    cache = str(tmp_path / "c.jsonl")
    _, fresh = run(capsys, "davenport", "q[12]", "--cache", cache)
    _, cached = run(capsys, "davenport", "q[12]", "--cache", cache)
    fresh, cached = fresh.splitlines(), cached.splitlines()
    assert fresh[4] == "witness: (y)^5 x" and cached[-1].startswith("cache: hit")
    assert cached[:-1] == fresh[:5]


def _drop_algo(cache, invariant, value, algo=None):
    """Rewrite the cache with a wrong value on every record of invariant, so
    that serving one shows, and those records marked as of search version
    algo; with algo None, as written before records carried algo."""
    lines = [json.loads(line) for line in open(cache, encoding="utf-8")]
    with open(cache, "w", encoding="utf-8") as fh:
        for line in lines:
            if algo is None:
                del line["algo"]
            if line["invariant"] == invariant:
                line["value"] = value
                if algo is not None:
                    line["algo"] = algo
            fh.write(json.dumps(line) + "\n")


def test_davenport_recomputes_records_without_algo(capsys, tmp_path):
    """Records without algo, and D records of search version 2, whose
    witnesses on g2 and g3 were spelled in the former words, are recomputed."""
    cache = str(tmp_path / "c.jsonl")
    code, doc = run_json(capsys, "davenport", "q[8]", "--json", "--cache", cache)
    assert code == 0 and doc["cached"] is False
    for algo in (None, 2):
        code, doc = run_json(capsys, "davenport", "q[8]", "--json", "--cache", cache)
        assert doc["cached"] is True and doc["value"] == 5
        _drop_algo(cache, "D", 4, algo)
        code, doc = run_json(capsys, "davenport", "q[8]", "--json", "--cache", cache)
        assert code == 0 and doc["cached"] is False and doc["value"] == 5, algo


def test_davenport_recomputes_e_records_of_search_version_3(capsys, tmp_path):
    """E records of search version 3 were keyed by automorphisms alone, and a
    budget-tripped E may now stop at another walk: they are recomputed."""
    cache = str(tmp_path / "c.jsonl")
    args = ("davenport", "c[4]", "--variant=E", "--json", "--cache", cache)
    code, doc = run_json(capsys, *args)
    assert code == 0 and doc["cached"] is False and doc["value"] == 7
    code, doc = run_json(capsys, *args)
    assert doc["cached"] is True and doc["value"] == 7
    _drop_algo(cache, "E", 6, 3)
    code, doc = run_json(capsys, *args)
    assert code == 0 and doc["cached"] is False and doc["value"] == 7


def test_scan_recomputes_records_without_algo(capsys, tmp_path):
    cache = str(tmp_path / "scan.jsonl")
    args = ("scan", "--families=d,q", "--max-order=16", "--json", "--cache", cache)
    code, first = run_json(capsys, *args)
    strip = lambda rows: [{k: v for k, v in r.items()
                           if k not in ("elapsed_ms", "cached")} for r in rows]
    for algo in (None, 2):
        _drop_algo(cache, "D", 2, algo)
        code, again = run_json(capsys, *args)
        assert code == 0
        assert not any(r["cached"] for r in again["rows"]), algo
        assert strip(again["rows"]) == strip(first["rows"])
        code, third = run_json(capsys, *args)
        assert all(r["cached"] for r in third["rows"])


@pytest.mark.parametrize("argv", [("davenport", "q[8]"), ("scan", "--families=q", "--max-order=8")],
                         ids=["davenport", "scan"])
def test_cached_d_records_store_the_search_time(argv, capsys, monkeypatch, tmp_path):
    """Both writers of D records store the search's own elapsed time, not
    the command's: with a search that reports 0.25 s, elapsed_ms is 250."""
    search = zerosum.davenport_ordered
    monkeypatch.setattr(zerosum, "davenport_ordered", lambda group, budget=None:
                        search(group, budget)._replace(elapsed=0.25))
    cache = tmp_path / "c.jsonl"
    code, _ = run(capsys, *argv, "--cache", str(cache))
    record = cache_get(cache, "q[8]", "D")
    assert code == 0 and (record.value, record.exact, record.elapsed_ms) == (5, True, 250)


def test_witness_verify(capsys):
    code, out = run(capsys, "witness", "q[12]", "--theorem=1", "--verify")
    assert code == 0
    assert "ordered_free: true" in out
    assert "D >= 7" in out


def test_witness_g2_verify(capsys):
    code, out = run(capsys, "witness", "g2[3,2,1,1]", "--theorem=6", "--verify")
    assert code == 0 and "D >= 11" in out


def test_witness_d8_two_power(capsys):
    code, out = run(capsys, "witness", "d[8]", "--theorem=7", "--verify")
    assert code == 0
    assert "(y)^3 x" in out and "D >= 5" in out


def test_witness_oracle_agreement_reported(capsys):
    code, doc = run_json(capsys, "witness", "g1[3,1,1,1]", "--theorem=6",
                         "--verify", "--json")
    assert code == 0
    assert doc["ordered_free"] is True and doc["oracle"] is True


def test_witness_reads_the_clock(capsys, monkeypatch):
    """elapsed_ms is the time from after the imports to the verdict: with a
    clock that moves 0.25 s per reading it is 250."""
    ticks = iter(range(100))
    monkeypatch.setattr("davlab.cli.time.perf_counter", lambda: 0.25 * next(ticks))
    code, doc = run_json(capsys, "witness", "q[12]", "--theorem=1", "--verify", "--json")
    assert code == 0 and doc["elapsed_ms"] == 250


def _count_builds(monkeypatch) -> list[str]:
    """The names groups._pc_group builds from now on, one entry a call."""
    from davlab import groups
    calls = []
    pc_group = groups._pc_group

    def counted(name, pc):
        calls.append(name)
        return pc_group(name, pc)

    monkeypatch.setattr(groups, "_pc_group", counted)
    return calls


@pytest.mark.parametrize("text, theorem", [("m2[2048]", "7"), ("g1[3,2,2,1]", "6")])
def test_witness_builds_the_group_once(text, theorem, capsys, monkeypatch):
    """The witness plan builds nothing; the command builds the table once
    and finds the witness's elements on it."""
    calls = _count_builds(monkeypatch)
    code, doc = run_json(capsys, "witness", text, f"--theorem={theorem}", "--verify", "--json")
    assert code == 0 and doc["ordered_free"] is True
    assert len(calls) == 1


@pytest.mark.parametrize("text, err", [
    ("m2[2048]", "error: m2[2048]: theorem 6 covers g1, g2, g3\n"),
    ("g1[3,2,2,2]", "error: g1[3,2,2,2]: verified construction needs gamma = 1 (pass "
                    "allow_unverified, or --unverified-explore on the command line, "
                    "to explore)\n"),
], ids=["wrong_family", "out_of_scope"])
def test_witness_refusal_builds_no_table(text, err, capsys, monkeypatch):
    calls = _count_builds(monkeypatch)
    assert main(["witness", text, "--theorem=6"]) == 1
    assert capsys.readouterr().err == err
    assert calls == []


def test_witness_scope_error_and_override(capsys):
    assert main(["witness", "g1[3,2,2,2]", "--theorem=6"]) == 1
    assert "--unverified-explore" in capsys.readouterr().err
    # the gamma=2 exploration is a finding, not an assertion: this sequence
    # is in fact not free, and the command must report that with exit 0
    code, out = run(capsys, "witness", "g1[3,2,2,2]", "--theorem=6",
                    "--unverified-explore", "--verify")
    assert code == 0
    assert "ordered_free: false" in out
    assert "outside the proven parameter scope" in out


def test_a_coverage_entry_reaches_the_help_the_choices_and_the_refusals(capsys,
                                                                        monkeypatch):
    """theory.COVERAGE is the one list of witness constructions: an entry added
    there shows in the --theorem help and choices and in the library's
    refusals."""
    q8 = make_descriptor("q", 8)
    with pytest.raises(DavlabError) as exc:
        witness_for_theorem(q8, 5)
    assert str(exc.value) == "no witness construction labeled 5 (use 1, 6 or 7)"
    monkeypatch.setitem(COVERAGE, 9, ("e and f", "an extra entry"))
    monkeypatch.setenv("COLUMNS", "200")
    cli.build_parser.cache_clear()
    try:
        with pytest.raises(SystemExit):
            main(["witness", "--help"])
        out = capsys.readouterr().out
        assert "--theorem {1,6,7,9}" in out
        assert ("construction family: 1 dicyclic/semidihedral, 6 odd-prime class two, "
                "7 order 2^r, 9 an extra entry\n") in out
        with pytest.raises(SystemExit):
            main(["witness", "q[8]", "--theorem=5"])
        assert "invalid choice: 5 (choose from 1, 6, 7, 9)" in capsys.readouterr().err
        assert main(["witness", "q[8]", "--theorem=9"]) == 1
        assert capsys.readouterr().err == "error: q[8]: theorem 9 covers e and f\n"
        with pytest.raises(DavlabError) as exc:
            witness_for_theorem(q8, 5)
        assert str(exc.value) == "no witness construction labeled 5 (use 1, 6, 7 or 9)"
    finally:
        cli.build_parser.cache_clear()  # the next test builds without the entry


def test_oracle_command(capsys):
    code, out = run(capsys, "oracle", "g1[5,1,1,1]")
    assert code == 0
    assert "only_trivial_solution: true" in out
    assert "least_non_residue: 2" in out


def test_oracle_json(capsys):
    code, doc = run_json(capsys, "oracle", "g3[3,3,2,2,1]", "--json")
    assert code == 0
    assert doc["invariant"] == "oracle_check" and doc["value"] is True


def test_oracle_rejects_g2(capsys):
    assert main(["oracle", "g2[3,2,1,1]"]) == 1


def _stdout_digest(capsys, argv) -> tuple[int, str]:
    """(exit code, sha256 of stdout) of `davlab argv`, with every elapsed_ms
    number and the "(N ms)" of a cache hit read as 0."""
    code, out = run(capsys, *argv)
    out = re.sub(r'(elapsed_ms"?: )\d+', r"\g<1>0", out)
    out = re.sub(r"\(\d+ ms\)", "(0 ms)", out)
    return code, hashlib.sha256(out.encode()).hexdigest()


# The whole stdout of every command but scan: (exit code, then the sha256 of
# stdout as _stdout_digest reads it, in text and with --json). {cache} is a
# fresh cache file of the test; a command ending in " again" runs a second
# time, on the cache that its first run filled.
STDOUT_DIGESTS = {
    "davenport c[4] --variant=E --cache={cache}": (0,
        "32705559546fb7501607d57dcbcd59cca2ba53a82c4df0da6a6a94aa8f13aa61",
        "443d080ba2e71f55601bf6cf84574d8a3f85b15f6cd8bec6cfd947680ee24f3b"),
    "davenport c[4] --variant=E --cache={cache} again": (0,
        "255bd0014e3a3b6357125bb1f7561a2e9dfdf7c356d50f97aae72d932d08c479",
        "a9c234b88aa21acc1a990588d31f3d0196d741d45fc541ee7417a542b894aa07"),
    "davenport c[5] --variant=weighted --weights=1,4 --cache={cache}": (0,
        "d87d1aef83c3fff0d358849a92de0c41fc10c508995f83969b8409519b27b8ae",
        "bef41b3dadafc2df029009ba43eec0d02aa2c0691865586d7744a8044cf9e6ee"),
    "davenport c[5] --variant=weighted --weights=1,4 --cache={cache} again": (0,
        "6a630ce8fb41b3978a61a4083dccb72b427c322dfe4548058b44a91b5592fabf",
        "ba83b147824a2d3ebe819105f38b4220366e7adceb4667761cd1c1401ff4f523"),
    "davenport g1[3,1,1,1] --no-cache --budget-states=500": (0,
        "8a6a449a899a8e0d58c3b5920986a05028eb69d1fd02a5e37c116763e3026a53",
        "8b65f8b0ba7a6bb07028711d0ec0ae7b67468db74b36a97e87cdd949e43c0566"),
    "davenport q[8] --cache={cache}": (0,
        "fc8a9d0c2394179187d646320bb65c99ea0fcc03c39ec4ebaf66a8363041bfbd",
        "47f755262550961cf8f4a96ece3921c3c6231648c516a408982e95055b8b7e50"),
    "davenport q[8] --cache={cache} again": (0,
        "db6e8d645aecda0fc5e765e276d7ad9c5d2894fa64cd3309e40df245073df4dc",
        "73a13a5da6e5e6c83034de199041cf4ecdb5ba8992eab7de70694822a40a56a2"),
    "davenport q[8] --variant=unordered --cache={cache}": (0,
        "f64e2acd9208bb56c965e8ed36e810b7eafd1a623ddb7c5daa6f7ccfebf0d2d6",
        "c80f508dd7425c5ae64e79e3885de84de22c668051bbb3f5685f6ff8fbe33d53"),
    "davenport q[8] --variant=unordered --cache={cache} again": (0,
        "20a40d8816410970599117ec7734e6e06943dc24f7c2391a6baae3883eeda15f",
        "5fb3221e4cc78152484aed52692cbe7e13b644f7c35df0edbd8afab3f7b5336a"),
    "info ab[2,4]": (0,
        "3b3573ba0ca0ccee879ebb49f349db5f5171bc24e1caaba5d2118dcbeab85195",
        "8785a51306f6abbde992a440becc7d5737eb47755fc169a7911ef3f0f8b79870"),
    "info c[1]": (0,
        "9c192abe84bcd2ca8a03bd05702ba478a30d21ff1b74f1d7e8d41ed4777b942d",
        "f8daba28251bf196f635aad186b07b72da54d691bfd6f0324236d1243ad41158"),
    "info d[6]": (0,
        "d7187bf3fac35fc42471c63e91f0c24c4efbdfc23641fbd7bac560cf766e63e0",
        "a122d0d3d03d47028a42e6e088f198cb2f4b3a48d19df5c8401dcdf239268e88"),
    "info g1[3,1,1,1]": (0,
        "cf4bb8100a0050511a5e7d4fd55250f185d0857234cc04f755643d503f2486aa",
        "0722dc8d0efefca31da8184a1e7974836b686a35d8237261f85d3f54b3adba5b"),
    "info sd[16]": (0,
        "58a693d5814bc4b34d1437b2885e1d91adb9a5df37da699de594eec88d55ea79",
        "1237de9ea4b6e2334f6c85e012e36ef98d4b4e6586cc924612cfcd4f38991808"),
    "loewy c[6]": (1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "loewy g2[3,2,1,1]": (0,
        "bd890a12558e70a4676cf87e1be750713625adcdb6cce5c03bb8360e9dd4c6d4",
        "919793be2e74911ff4a2ed8a8b933c607e9f6dcb110547e04b7adf118d24da85"),
    "loewy g2[3,2,1,1] --method=both": (0,
        "9d01f1324127f37c6b865f94922d2001c8986c53dfbf8be991cddeba4cdda0b7",
        "bdcefad69794b1b97cf1ccfe3b76c5c3051032f58503c1cf7a95203130d35976"),
    "loewy g2[3,2,1,1] --method=formula": (0,
        "19cacb9ecf9a55c951aaa62d6b7f19565b57062dda510572cf3c16215dea474c",
        "f4242902c1f32356c546af9a064811aab5f89570c2b00eb0e4245be680937b86"),
    "oracle g1[5,1,1,1]": (0,
        "ad92ae67150b640870c31376824fc4a379b1fb6f57a382071b45fd4c0624f5a3",
        "0759eade9d8d092c80c19ba7e0e2168cb73fc3775f1529b71fddc973c1daa558"),
    "oracle g3[3,3,2,2,1]": (0,
        "d342bd2b03c0a6a47f41926d5a4c5b6a6f1d48043e161dddee8d46c458c327a6",
        "1cf7450890408f623a6f03a20eaf19439dcc6fd1e55d1150ba1f0e56eb43551a"),
    "witness d[8] --theorem=7": (0,
        "5d09ed01719d9f2a1462ef51c1d5a7e3809b2978dfb6b5fd0dc88fd62d0fa459",
        "648c8267ebfd87118bd2e0660155d3067cc7bde78b32d2c90d9919dd7d069fd7"),
    "witness g1[3,2,1,1] --theorem=6 --verify --unverified-explore": (0,
        "a0caf31d43593027526e84c9f2c942dbbb404f9a32e177e577c703eb525fe0af",
        "4d3fa4c05e3d4e6e0d9787b22c863c599ace26790ebaa992ab31fc0c727b2cb5"),
    "witness q[12] --theorem=1 --verify": (0,
        "f7bebd24d5cfa405a7a75c461259ad923b9816843105ae1a3b5d87b7080fbf34",
        "956ef8603661f2bd1f494ac37cd742ea4e78416bbbb34bd3acacb0108681e6bd"),
}


@pytest.mark.parametrize("command", sorted(STDOUT_DIGESTS))
def test_stdout_matches_its_digest(command, capsys, tmp_path):
    code, *digests = STDOUT_DIGESTS[command]
    base = command.removesuffix(" again")
    for flags, digest in zip(([], ["--json"]), digests):
        argv = base.format(cache=tmp_path / f"{len(flags)}.jsonl").split() + flags
        if base != command:
            run(capsys, *argv)
        assert _stdout_digest(capsys, argv) == (code, digest), flags


# Every usage output: (exit code, sha256 of stdout, sha256 of stderr) of
# `davlab <key>` at 80 columns, "" being no arguments. argparse words its
# help and errors differently from one Python version to the next, so the
# digests hold on 3.11, the version they were read on.
USAGE_DIGESTS = {
    "": (2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "6abf3a39489be44b7f9f58bde56ea94b629f55eb12b96c4209da94cf57ee1a06"),
    "--help": (0,
        "74af458f6c94efe9ab04fbfa60557f1fbee24d1821ce33a3567099712d66a58b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "--version": (0,
        "e9dd8507f4bf0c6f42458e41aea833ad0bd3f6127272335eee9bf4d58541ed67",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "bogus": (2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "831a4eac228efd11cf75e319547344aabed89e11ade4c3ce669d7c70520bea85"),
    "info --help": (0,
        "069afe5821590f2bdbabe9a13c0f18dc32b0e1840917825f3cab91d17cf2322c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "loewy --help": (0,
        "6aeda3e607fbef1801348a10a2659843f31d89d97c945795004ad6b7adf92553",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "davenport --help": (0,
        "efebb3863772ae16b1ec6c3631ce3c1d66e9403b3235857432955d1bd213d794",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "witness --help": (0,
        "5ac15c2c3f170f8de6dfc7b909036fd4191cbc2d081915d4ec75bd5a0b88b757",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "oracle --help": (0,
        "e2f30ef569d4ddc0de59c6422fb059d8d79dd62d17977ae439aeb45f2a51a455",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "scan --help": (0,
        "f33d19bacff7c7feb3b3ef883ebcb4ae3d0c914200b5de3e2b944b08fd90942e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "info q[8] --bogus": (2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "84ad8fca3b4d0330a967c90ffdccff311ca007ea6f787bd7c579aa3b8560afc6"),
    "loewy q[8] --bogus": (2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "84ad8fca3b4d0330a967c90ffdccff311ca007ea6f787bd7c579aa3b8560afc6"),
    "davenport q[8] --bogus": (2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "84ad8fca3b4d0330a967c90ffdccff311ca007ea6f787bd7c579aa3b8560afc6"),
    "witness q[8] --theorem=1 --bogus": (2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "84ad8fca3b4d0330a967c90ffdccff311ca007ea6f787bd7c579aa3b8560afc6"),
    "oracle g1[5,1,1,1] --bogus": (2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "84ad8fca3b4d0330a967c90ffdccff311ca007ea6f787bd7c579aa3b8560afc6"),
    "scan --bogus": (2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "84ad8fca3b4d0330a967c90ffdccff311ca007ea6f787bd7c579aa3b8560afc6"),
    "info": (2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "ff168c50f236e21bf8491e5db3ad200e87cc85b3b6d497435b93807894c3a15b"),
    "info zz[3]": (2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "b28832b236cbd0333b8a00d3f2f7490b286c0f855e134ec802ab077e71372506"),
    "loewy q[8] --method=bogus": (2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "75af0e6642d5e53ca95147eefeec9abcab37339e10db2e5b43c2c4123cef41e6"),
    "davenport q[8] --budget-states=0": (2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "e507e6a9616868003a647ce5e440fd152ea69903fec1daa471af29093cc5884d"),
    "witness q[8]": (2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "0718b6e654f509b20b891ed3d700c83858aa4edec3bb743586f3882c7f4d7e2d"),
    "oracle": (2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "cba034ef81e2f1940e64a562a8b73aaea5b848a671df84ed0765b8fd280a78c5"),
    "oracle q[8]": (1,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "449062ecf59ac9651859f554bdac2e85efe98b535c98cb2aa418db1ca3b6b015"),
    "scan --max-order=0": (2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "76654688bd927140affea1e29277cc60f554d11fb69125237e6a538bbed9e3cf"),
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="digests read on Python 3.11")
@pytest.mark.parametrize("command", list(USAGE_DIGESTS))
def test_usage_output_matches_its_digest(command, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(command.split())
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (code, hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(err.encode()).hexdigest()) == USAGE_DIGESTS[command]


@pytest.mark.parametrize("command", [c for c in USAGE_DIGESTS if c.endswith(" --bogus")])
def test_a_usage_error_lists_every_command(command, capsys):
    """The parser of one command still names all six in the usage line of
    an error that the top-level parser reports, on every Python version."""
    with pytest.raises(SystemExit) as exc:
        main(command.split())
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines() == [
        "usage: davlab [-h] [--version] {info,loewy,davenport,witness,oracle,scan} ...",
        "davlab: error: unrecognized arguments: --bogus"]


def test_repeated_main_calls_reuse_one_parser_per_command(capsys, monkeypatch):
    """Each command has one parser per process, which holds that command
    alone: a fresh parser per call would leave cyclic garbage behind."""
    used = []
    parse_args = argparse.ArgumentParser.parse_args
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                        lambda self, *a, **k: used.append(self) or parse_args(self, *a, **k))
    for _ in range(2):
        assert main(["info", "c[2]"]) == 0
        assert main(["scan", "--families=q", "--max-order=8", "--search-max-order=0",
                     "--no-cache"]) == 0
    info, scan, *again = used
    assert again == [info, scan] and info is not scan
    assert info is cli.build_parser("info") and scan is cli.build_parser("scan")
    with pytest.raises(SystemExit):
        scan.parse_args(["info", "c[2]"])
    assert "invalid choice: 'info'" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    "scan --families=q --max-order=16 --cache={cache}",
    "scan --families=q --max-order=16 --cache={cache} --json",
    "info q[16]",
    "loewy q[16]",
    "davenport q[16] --no-cache",
    "witness q[16] --theorem=1 --verify",
])
def test_a_failing_build_is_one_error_line(command, capsys, monkeypatch, tmp_path):
    """A build that fails its checks ends every command with exit 1, one
    error line naming the group and nothing on stdout; a scan has put the
    records of the rows before it."""
    real = groups.build

    def build(desc):
        if desc.canonical() == "q[16]":
            raise InternalConsistencyError(f"{desc}: identity row/column broken")
        return real(desc)

    monkeypatch.setattr(groups, "build", build)
    cache = tmp_path / "c.jsonl"
    assert main(command.format(cache=cache).split()) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: q[16]: identity row/column broken\n"
    if command.startswith("scan"):
        records = [json.loads(line) for line in cache.read_text().splitlines()]
        assert [(r["descriptor"], r["invariant"]) for r in records] == [
            ("q[8]", "L"), ("q[8]", "witness_check"), ("q[8]", "D")]


def test_scan_text_and_exit(capsys, tmp_path):
    cache = str(tmp_path / "scan.jsonl")
    code, out = run(capsys, "scan", "--families=d,q", "--max-order=16",
                    "--cache", cache)
    assert code == 0
    assert "REFUTED" not in out.replace("0 REFUTED", "")
    assert "d[8]" in out and "q[12]" in out


def test_scan_json_schema(capsys, tmp_path):
    cache = str(tmp_path / "scan.jsonl")
    code, doc = run_json(capsys, "scan", "--families=d,m2", "--max-order=16",
                         "--json", "--cache", cache)
    assert code == 0
    rows = {r["descriptor"]: r for r in doc["rows"]}
    assert rows["d[8]"]["status"] == "CONFIRMED"
    assert rows["d[8]"]["exact_value"] == 5
    assert rows["m2[16]"]["status"] == "CONFIRMED"


def test_scan_grid_of_the_two_power_families(capsys):
    code, doc = run_json(capsys, "scan", "--families=d,q,sd,m2", "--max-order=32",
                         "--json", "--no-cache")
    assert code == 0
    # sd[8] and m2[8] are no valid descriptors, so the grid leaves them out
    assert [r["descriptor"] for r in doc["rows"]] == [
        "d[8]", "d[16]", "d[32]", "q[8]", "q[16]", "q[32]", "q[12]", "q[20]",
        "q[24]", "q[28]", "sd[16]", "sd[32]", "sd[24]", "m2[16]", "m2[32]"]


@pytest.mark.parametrize("family", ["d", "q", "sd", "m2", "g1", "g2", "g3"])
def test_scan_grid_of_a_p_family_is_every_valid_descriptor_in_order(family):
    """The grid of a family holds each valid descriptor of order at most
    max_order that a witness construction covers, by brute force: every order
    up to 4096, the 2-powers first, or at p = 3 and 5 every exponent tuple
    from 1 to 8 (3^8 > 4096) in lexicographic order."""
    if family in ("g1", "g2", "g3"):
        tried = {p: [make_descriptor(family, p, *exps) for exps in
                     itertools.product(range(1, 9), repeat=4 if family == "g3" else 3)]
                 for p in (3, 5)}
    else:  # the grid of an order family reads no prime
        orders = sorted(range(1, 4097), key=lambda n: (n & (n - 1) != 0, n))
        tried = {3: [make_descriptor(family, n) for n in orders]}
    for p, candidates in tried.items():
        valid = []
        for desc in candidates:
            try:
                validate_descriptor(desc)
            except DavlabError:
                continue
            if constructions(desc):
                valid.append(desc)
        for max_order in (8, 27, 32, 81, 100, 125, 243, 625, 729, 1000, 2187, 3125, 4096):
            want = [d.canonical() for d in valid if d.theoretical_order() <= max_order]
            got = [d.canonical() for d in _grid([family], [p], max_order, [])]
            assert got == want, (p, max_order)


@pytest.mark.parametrize("families, refused", [("c", "c"), ("ab", "ab"), ("d,c", "c")])
def test_scan_refuses_a_family_no_construction_covers(capsys, monkeypatch, tmp_path,
                                                       families, refused):
    """The refusal is one error line and exit 2, before any row is computed."""
    monkeypatch.setattr(cli, "_row_records", None)  # a computed row would raise
    cache = tmp_path / "scan.jsonl"
    code = main(["scan", f"--families={families}", "--max-order=32", "--cache", str(cache)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == f"error: scan does not cover family {refused!r}\n"
    assert not cache.exists()


@pytest.mark.parametrize("p", ["1000000000000000003", str(2 ** 64 + 13)])
def test_info_with_a_huge_prime_p_is_a_quick_error(p):
    done = run_python("-m", "davlab.cli", "info", f"g1[{p},1,1,1]", timeout=10)
    assert done.returncode in (1, 2)
    assert done.stderr.startswith("error:") and "Traceback" not in done.stderr
    assert max(map(len, done.stderr.splitlines())) <= 200


@pytest.mark.parametrize("argv", [
    ("info", "g1[3,1000000000,1,1]"),
    ("loewy", "g1[3,1000000000,1,1]", "--method", "formula"),
    ("oracle", "g1[3,1000000000,1,1]"),
    ("info", "g2[3,200000,1,1]"),
    ("info", f"ab[{'9' * 4000},{'9' * 4000}]"),
    ("info", f"c[{'9' * 5000}]"),
    ("info", f"d[{'9' * 2999}8]"),
    ("loewy", f"d[{'9' * 2999}8]", "--method", "formula"),
    ("witness", f"q[{'9' * 2997}996]", "--theorem", "1"),
], ids=["info-g1", "loewy-g1", "oracle-g1", "info-g2", "info-ab", "info-c",
        "info-d", "loewy-d", "witness-q"])
def test_descriptor_with_huge_parameters_is_a_quick_error(argv):
    # p ** e hangs for e near 10^9, and str() and int() refuse ints past the
    # interpreter's digit limit; messages shorten a long parameter
    done = run_python("-m", "davlab.cli", *argv, timeout=10)
    assert done.returncode in (1, 2)
    assert done.stderr.startswith("error:") and "Traceback" not in done.stderr
    assert max(map(len, done.stderr.splitlines())) <= 200


def test_g4_is_an_unknown_family():
    # the carry family g4 had order >= 3^8 above the order cap at every
    # admissible parameter, so no command computed anything for it
    for argv in (("info", "g4[3,4,2,2,1,0]"), ("scan", "--families=g4", "--no-cache")):
        done = run_python("-m", "davlab.cli", *argv, timeout=10)
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error:") and "Traceback" not in done.stderr
        assert "family 'g4'" in done.stderr
        assert max(map(len, done.stderr.splitlines())) <= 200


@pytest.mark.parametrize("max_order", ["8192", "0", "x"])
def test_scan_max_order_stays_within_the_order_cap(max_order):
    # refused before any row of the grid is built
    done = run_python("-m", "davlab.cli", "scan", "--families=d",
                      f"--max-order={max_order}", "--no-cache", timeout=10)
    assert done.returncode == 2
    assert "--max-order: expected an integer from 1 to 4096" in done.stderr
    assert "Traceback" not in done.stderr
    assert max(map(len, done.stderr.splitlines())) <= 200
    assert done.stdout == ""


@pytest.mark.parametrize("value", ["-5", "4097", "x", "", "1.5"])
def test_scan_search_max_order_stays_within_the_order_cap(value, capsys):
    # 0, which searches nothing, is the least order it takes
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--families=q", "--max-order=24", f"--search-max-order={value}",
              "--no-cache"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    [error] = [line for line in err.splitlines() if "error:" in line]
    assert error.endswith(f"--search-max-order: expected an integer from 0 to 4096, "
                          f"got {value!r}")


@pytest.mark.parametrize("primes", ["1", "0", "-3", "2", "9", "3,x", "", "4099"])
def test_scan_primes_takes_odd_primes_only(primes):
    done = run_python("-m", "davlab.cli", "scan", "--families=g1", f"--primes={primes}",
                      "--no-cache")
    assert done.returncode == 2
    assert "--primes: expected a comma list of odd primes" in done.stderr
    assert done.stdout == ""


def test_scan_primes_list(capsys):
    code, doc = run_json(capsys, "scan", "--families=g1", "--primes=5, 3,",
                         "--max-order=125", "--json", "--no-cache")
    assert code == 0
    assert [r["descriptor"] for r in doc["rows"]] == ["g1[5,1,1,1]", "g1[3,1,1,1]",
                                                     "g1[3,2,1,1]"]


def test_import_cli_leaves_out_jsonschema():
    done = run_python("-c", "import sys, davlab.cli; sys.exit('jsonschema' in sys.modules)")
    assert done.returncode == 0


# Runs `davlab <argv[1:]>` in this interpreter, then prints as the last line
# of stderr which of the modules named by argv[0], a JSON list, it imported.
_MODULES_PROBE = """
import json, sys
from davlab.cli import main
watched = set(json.loads(sys.argv.pop(1)))
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(json.dumps(sorted(watched & set(sys.modules))), file=sys.stderr)
sys.exit(code)
"""
# The modules a warm run does without: numpy and the table builder; datetime,
# which only a new cache record needs; inspect, which numpy loads; and
# dataclasses, which no davlab module imports.
_WARM_FREE = ["numpy", "davlab.groups", "datetime", "dataclasses", "inspect"]
_COLD = ["datetime", "davlab.groups", "inspect", "numpy"]


def _modules_after(watched, *argv) -> list[str]:
    """The modules of watched that a fresh `davlab argv` imported, sorted."""
    done = run_python("-c", _MODULES_PROBE, json.dumps(list(watched)), *argv)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stderr.splitlines()[-1])


def _warm_free_modules_after(*argv) -> list[str]:
    return _modules_after(_WARM_FREE, *argv)


def test_import_davlab_and_cli_leave_out_numpy():
    done = run_python("-c", "import sys, davlab, davlab.cli; "
                            "loaded = {'numpy', 'davlab.groups', 'datetime', 'dataclasses', "
                            "'inspect'} & set(sys.modules); "
                            "sys.exit(f'imported {sorted(loaded)}' if loaded else 0)")
    assert done.returncode == 0, done.stderr


def test_help_leaves_out_numpy():
    assert _warm_free_modules_after("--help") == []


def test_warm_scan_leaves_out_numpy(tmp_path):
    """A cold scan builds tables and a warm one does not; neither loads the
    module of the one-group commands."""
    args = ("scan", "--families=d,q,sd,m2", "--max-order=32", "--cache",
            str(tmp_path / "c.jsonl"))
    watched = [*_WARM_FREE, "davlab.onegroup"]
    assert _modules_after(watched, *args) == _COLD  # builds, writes records
    assert _modules_after(watched, *args) == []


def test_cached_davenport_leaves_out_numpy(tmp_path):
    args = ("davenport", "q[8]", "--cache", str(tmp_path / "c.jsonl"))
    assert _warm_free_modules_after(*args) == _COLD
    assert _warm_free_modules_after(*args) == []


@pytest.mark.parametrize("argv", [
    ("scan", "--families=g1", "--max-order=729", "--param-ranges=gamma=1"),
    ("scan", "--families=g2", "--max-order=729"),
    ("scan", "--families=g3", "--max-order=729", "--param-ranges=sigma=1"),
    ("scan", "--families=g2", "--max-order=243", "--budget-states=100"),
    ("witness", "g1[3,1,1,1]", "--theorem=6", "--verify"),
    ("oracle", "g1[5,1,1,1]"),
    ("loewy", "g1[3,1,1,1]"),
    ("info", "g1[3,1,1,1]"),
], ids=["scan-g1", "scan-g2", "scan-g3", "scan-budget", "witness", "oracle", "loewy", "info"])
def test_commands_that_search_nothing_leave_out_the_engine(argv, tmp_path):
    """A cold g-family scan builds tables and checks witnesses but searches
    nothing, also under a set budget, so neither it nor witness, oracle,
    loewy or info compiles the search engine. The four one-group commands
    load their module, which no scan loads."""
    scan = argv[0] == "scan"
    cache = ("--cache", str(tmp_path / "c.jsonl")) if scan else ()
    assert _modules_after(["davlab.onegroup", "davlab.zerosum", "dataclasses"],
                          *argv, *cache) == ([] if scan else ["davlab.onegroup"])


@pytest.mark.parametrize("argv", [
    ("scan", "--families=d,q,sd,m2", "--max-order=32"),  # exact D up to order 16
    ("davenport", "q[8]", "--no-cache"),
], ids=["scan", "davenport"])
def test_commands_that_search_load_the_engine(argv, tmp_path):
    scan = argv[0] == "scan"
    cache = ("--cache", str(tmp_path / "c.jsonl")) if scan else ()
    assert _modules_after(["davlab.onegroup", "davlab.zerosum", "dataclasses"],
                          *argv, *cache) == (["davlab.zerosum"] if scan else
                                             ["davlab.onegroup", "davlab.zerosum"])


def test_no_davlab_module_imports_dataclasses():
    done = run_python("-c", "import importlib, pkgutil, sys, davlab\n"
                            "names = [m.name for m in pkgutil.iter_modules(davlab.__path__)]\n"
                            "for name in names: importlib.import_module('davlab.' + name)\n"
                            "print(' '.join(names), 'dataclasses' in sys.modules)")
    assert done.returncode == 0, done.stderr
    *names, loaded = done.stdout.split()
    assert {"cli", "groups", "sequences", "zerosum"} <= set(names) and loaded == "False"


def test_sequence_and_its_check_load_without_the_engine():
    done = run_python("-c", "import sys, davlab; davlab.Sequence, davlab.is_ordered_free; "
                            "sys.exit('davlab.zerosum' in sys.modules)")
    assert done.returncode == 0, done.stderr


_CHECKERS_PROBE = """
import sys
from davlab import checkers
from davlab.descriptors import parse_descriptor
from davlab.groups import build
from davlab.sequences import Sequence
G = build(parse_descriptor("q[8]"))
x, y = G.generators["x"], G.generators["y"]
terms = (y, y, y, x)
free, closed = Sequence(G, terms), Sequence(G, terms + (G.inv(G.product(terms)),))
print(checkers.is_weighted_free(free, (1,)), checkers.is_unordered_free(free),
      checkers.is_product_one(closed), checkers.has_proper_ordered_product_one(closed),
      checkers.has_group_length_product_one(free), checkers.group_length_reach(G, free.terms)[0],
      checkers.davenport_ordered_naive(G), checkers.davenport_weighted_naive(G, (1, 3)),
      *(name in sys.modules for name in ("davlab.zerosum", "davlab.subgroups")))
"""


def test_the_checkers_load_without_the_engine():
    """Each checker and naive oracle of checkers runs on q[8] with neither
    the search engine nor subgroups imported."""
    done = run_python("-c", _CHECKERS_PROBE)
    assert done.returncode == 0, done.stderr
    # y^3 x is free both ways, and closing it gives a minimal product-one
    # sequence; its letters are y = 1 and x = 4, the mask 18 of its 1-term products
    assert done.stdout.split() == ["True", "True", "True", "False", "False", "18", "5", "4",
                                   "False", "False"]


def test_every_zerosum_name_davbench_calls_is_a_name_of_zerosum():
    """davbench's worker checks witnesses through zerosum.<name>, also for
    the checkers that zerosum only imports."""
    worker = (Path(__file__).resolve().parents[1] / "davbench" / "worker.py").read_text()
    names = set(re.findall(r"\bzerosum\.(\w+)", worker))
    assert {"is_unordered_free", "is_weighted_free", "has_group_length_product_one"} <= names
    assert [name for name in sorted(names) if not hasattr(zerosum, name)] == []


# davbench's trace mode in this interpreter: wraps davlab's functions where
# davlab looks them up, runs `davlab <argv[2:]>` and prints the number of
# spans of each name as the last line of stderr. argv[1] is davbench's folder.
_TRACE_PROBE = """
import collections, json, sys
sys.path.insert(0, sys.argv.pop(1))
import spans
from davlab.cli import main
tracer = spans.Tracer()
spans.install(tracer)
code = main(sys.argv[1:])
print(json.dumps(collections.Counter(s["name"] for s in tracer.spans)), file=sys.stderr)
sys.exit(code)
"""


def test_davbench_trace_mode_wraps_the_cache_functions_of_cli(tmp_path):
    """davbench's spans.install rebinds cli.cache_get and cli.cache_put, so a
    cold scan under it records a span per record it puts."""
    davbench = Path(__file__).resolve().parents[1] / "davbench"
    done = run_python("-c", _TRACE_PROBE, str(davbench), "scan", "--families=g2",
                      "--max-order=243", "--json", "--cache", str(tmp_path / "c.jsonl"))
    assert done.returncode == 0, done.stderr[-2000:]
    counts = json.loads(done.stderr.splitlines()[-1])
    records = (tmp_path / "c.jsonl").read_text().splitlines()
    assert counts["cache.cache_put"] == len(records) > 0


# Runs `davlab <argv>` twice in this interpreter and prints each elapsed_ms.
_ELAPSED_TWICE_PROBE = """
import contextlib, io, json, sys
from davlab.cli import main
for _ in range(2):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(sys.argv[1:]) == 0
    print(json.loads(out.getvalue())["elapsed_ms"])
"""


@pytest.mark.parametrize("argv", [("davenport", "c[1]", "--no-cache"), ("loewy", "q[8]")])
def test_elapsed_ms_leaves_out_the_first_imports(argv):
    """The first run of a fresh process imports numpy and the table modules;
    its elapsed_ms counts the computation only, like the second run's."""
    done = run_python("-c", _ELAPSED_TWICE_PROBE, *argv, "--json")
    assert done.returncode == 0, done.stderr
    first, second = map(int, done.stdout.split())
    assert abs(first - second) <= 30, (first, second)


def test_loewy_formula_leaves_out_numpy():
    assert _warm_free_modules_after("loewy", "q[16]", "--method", "formula") == []
    # numpy may import datetime itself, so only the table modules are pinned
    assert {"davlab.groups", "numpy"} <= set(
        _warm_free_modules_after("loewy", "q[16]", "--method", "direct"))


def _computing_fails(monkeypatch):
    """Make every table build and scan row fail, so a command that gets as
    far as computing anything raises."""
    def refuse(*args):
        raise AssertionError("computed before the cache path was checked")
    monkeypatch.setattr(groups, "build", refuse)
    monkeypatch.setattr(cli, "_row_records", refuse)


def test_unwritable_cache_is_an_error_line(capsys, tmp_path, monkeypatch):
    """Found before the first computation, so no work is thrown away."""
    cache = tmp_path / "missing-dir" / "c.jsonl"
    _computing_fails(monkeypatch)
    for argv in (["davenport", "q[8]"], ["scan", "--families=q", "--max-order=8"]):
        assert main([*argv, "--cache", str(cache)]) == 1, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cache file {cache} is not writable: ")
        assert len(captured.err.splitlines()) == 1


def test_commands_that_write_no_record_never_open_the_cache_for_writing(
        capsys, tmp_path, monkeypatch):
    """A cache hit, a fully warm scan and --no-cache open no file to write."""
    cache = tmp_path / "c.jsonl"
    for argv in (["davenport", "q[8]"], ["scan", "--families=q", "--max-order=8"]):
        assert main([*argv, "--cache", str(cache)]) == 0
    capsys.readouterr()
    opened = []
    real_open = open

    def recording_open(file, mode="r", *args, **kwargs):
        opened.append((str(file), mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr("builtins.open", recording_open)
    assert main(["davenport", "q[8]", "--no-cache", "--cache", str(tmp_path / "no")]) == 0
    assert opened == [] and not (tmp_path / "no").exists()
    _computing_fails(monkeypatch)
    for argv in (["davenport", "q[8]"], ["scan", "--families=q", "--max-order=8"]):
        assert main([*argv, "--cache", str(cache)]) == 0, argv
    assert opened and all(mode == "rb" for _, mode in opened), opened


def test_unreadable_cache_is_an_error_line(capsys, tmp_path):
    assert main(["scan", "--families=q", "--max-order=8", "--cache", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cache file {tmp_path} is not readable: ")
    assert len(err.splitlines()) == 1


def test_schema_is_strict():
    good = {"descriptor": "q[8]", "invariant": "D", "value": 5, "exact": True,
            "witness": ["y", "x"], "cached": False, "elapsed_ms": 1, "version": "0.1.0"}
    row = {"descriptor": "q[8]", "order": 8, "lower": 5, "upper": 5,
           "status": "CONFIRMED", "exact_value": 5, "cached": True}
    scan = {"rows": [row], "elapsed_ms": 1, "version": "0.1.0"}
    assert schema_errors(good) == [] and schema_errors(scan) == []
    bad = [
        [],
        {**good, "invariant": "Q"},
        {**good, "exact": 1},
        {**good, "value": "5"},
        {**good, "value": 5.0},
        {**good, "elapsed_ms": True},
        {**good, "witness": [3]},
        {k: v for k, v in good.items() if k != "version"},
        {**scan, "rows": {}},
        {**scan, "elapsed_ms": "1"},
        {**scan, "rows": [{**row, "status": "MAYBE"}]},
        {**scan, "rows": [{**row, "order": True}]},
        {**scan, "rows": [{**row, "exact_value": 5.0}]},
        {**scan, "rows": [{**row, "cached": "yes"}]},
        {**scan, "rows": [{k: v for k, v in row.items() if k != "upper"}]},
    ]
    for doc in bad:
        assert schema_errors(doc), doc


def test_scan_csv(capsys, tmp_path):
    cache = str(tmp_path / "scan.jsonl")
    code, out = run(capsys, "scan", "--families=q", "--max-order=8", "--csv",
                    "--cache", cache)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("descriptor,")
    assert any(line.startswith("q[8],") for line in lines[1:])


@pytest.mark.parametrize("families", ["", ","])
def test_scan_of_no_family_is_a_usage_error(families, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scan", f"--families={families}", "--no-cache"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"davlab scan: error: argument --families: expected a comma list of families, "
        f"got {families!r}"]


def test_scan_of_an_empty_grid_is_a_valid_empty_scan(capsys):
    code, doc = run_json(capsys, "scan", "--families=d", "--max-order=7", "--json",
                         "--no-cache")
    assert code == 0 and doc["rows"] == []


def test_scan_json_and_csv_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--families=q", "--max-order=8", "--json", "--csv", "--no-cache"])
    assert exc.value.code == 2


def test_scan_param_ranges(capsys, tmp_path):
    cache = str(tmp_path / "scan.jsonl")
    code, doc = run_json(capsys, "scan", "--families=g1", "--max-order=243",
                         "--param-ranges=gamma=1,alpha<=2", "--json",
                         "--cache", cache, "--search-max-order", "0")
    assert code == 0
    names = [r["descriptor"] for r in doc["rows"]]
    assert "g1[3,1,1,1]" in names and "g1[3,2,1,1]" in names
    assert all("gamma" not in n or True for n in names)
    for row in doc["rows"]:
        assert row["status"] == "CONFIRMED"


def test_a_param_range_no_requested_family_carries_is_a_usage_error(capsys):
    code = main(["scan", "--families=g1", "--max-order=81", "--param-ranges=gamm=1",
                 "--no-cache"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: param range gamm=1 names no parameter of the requested families "
        "(g1: p, alpha, beta, gamma)"]
    # a parameter of a family left out of the scan is no parameter of the scan
    assert main(["scan", "--families=d,q", "--max-order=16", "--param-ranges=gamma=1",
                 "--no-cache"]) == 2
    assert "(d: order; q: order)" in capsys.readouterr().err


def test_a_param_range_some_requested_family_carries_filters_only_that_family(capsys):
    code, doc = run_json(capsys, "scan", "--families=d,g1", "--max-order=81",
                         "--param-ranges=alpha<=1", "--json", "--no-cache")
    assert code == 0
    # g1[3,2,1,1] goes; the d rows, which carry no alpha, all stay
    names = [r["descriptor"] for r in doc["rows"]]
    assert names == ["d[8]", "d[16]", "d[32]", "d[64]", "g1[3,1,1,1]"]


def test_scan_cache_round_trip_identical(capsys, tmp_path):
    cache = str(tmp_path / "scan.jsonl")
    args = ("scan", "--families=d,q,sd,m2", "--max-order=16", "--json",
            "--cache", cache)
    code1, doc1 = run_json(capsys, *args)
    code2, doc2 = run_json(capsys, *args)
    assert code1 == code2 == 0
    strip = lambda rows: [{k: v for k, v in r.items()
                           if k not in ("elapsed_ms", "cached")} for r in rows]
    assert strip(doc1["rows"]) == strip(doc2["rows"])
    assert all(r["cached"] for r in doc2["rows"])


def test_scan_ignores_davlab_threads(capsys, monkeypatch):
    """scan computes its rows in its own process: DAVLAB_THREADS, once the
    switch to a process pool, is not read."""
    args = ("scan", "--families=d,q", "--max-order=16", "--json", "--no-cache")
    monkeypatch.delenv("DAVLAB_THREADS", raising=False)
    code1, doc1 = run_json(capsys, *args)

    class NoPool:
        def __init__(self, *args, **kwargs):
            raise AssertionError("scan started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
    monkeypatch.setenv("DAVLAB_THREADS", "3")
    code2, doc2 = run_json(capsys, *args)
    assert code1 == code2 == 0 and len(doc1["rows"]) > 3
    assert _strip(doc2["rows"]) == _strip(doc1["rows"])


def _strip(rows):
    return [{k: v for k, v in r.items() if k not in ("elapsed_ms", "cached")}
            for r in rows]


@pytest.mark.parametrize("argv", [("scan", "--families=q", "--max-order=8"),
                                  ("davenport", "q[8]")], ids=["scan", "davenport"])
def test_a_cache_line_that_is_not_utf8_is_skipped(argv, tmp_path):
    cache = tmp_path / "bad.jsonl"
    cache.write_bytes(b"\xff\xfe garbage\n")
    for _ in range(2):  # against the bad line alone, then with the records added
        done = run_python("-m", "davlab.cli", *argv, "--json", "--cache", str(cache))
        assert done.returncode == 0, done.stderr
        assert "Traceback" not in done.stderr
        assert f"{cache}:1: skipping corrupted cache line" in done.stderr
        assert schema_errors(json.loads(done.stdout)) == []
    # the bad line stays; the records appended after it are served
    assert cache.read_bytes().startswith(b"\xff\xfe garbage\n")
    rows = json.loads(done.stdout).get("rows", [json.loads(done.stdout)])
    assert all(r["cached"] for r in rows)


@pytest.mark.parametrize("invariant, field, bad", [
    ("L", "value", "x"), ("L", "value", None), ("L", "value", [1]),
    ("D", "exact", "false"), ("D", "witness", 5), ("D", "witness", [1, 2])],
    ids=["L-str", "L-null", "L-list", "D-exact-str", "D-witness-int", "D-witness-ints"])
def test_a_cache_line_of_the_wrong_type_is_skipped(invariant, field, bad, capsys,
                                                   tmp_path):
    """A line whose value is not an int, whose exact is not a bool or whose
    witness is neither null nor a list of strings is a corrupted line: it is
    skipped with a warning, never served (nor read as exact), and the record
    is computed again."""
    line = json.dumps({**vars(ResultRecord("q[8]", invariant, 4, True)), field: bad},
                      sort_keys=True)

    def bad_cache(name):
        path = tmp_path / name
        path.write_text(line + "\n")
        return path

    path = bad_cache("lookup.jsonl")
    with pytest.warns(UserWarning, match=f"{path}:1: skipping corrupted cache line"):
        assert cache_records(path, [("q[8]", invariant, None)]) == {}
    with pytest.warns(UserWarning, match="corrupted"):
        code, doc = run_json(capsys, "scan", "--families=q", "--max-order=8", "--json",
                             "--cache", str(bad_cache("scan.jsonl")))
    assert code == 0
    assert [(r["descriptor"], r["status"], r["cached"]) for r in doc["rows"]] == [
        ("q[8]", "CONFIRMED", False)]
    with pytest.warns(UserWarning, match="corrupted"):
        code, doc = run_json(capsys, "davenport", "q[8]", "--json",
                             "--cache", str(bad_cache("davenport.jsonl")))
    assert code == 0
    assert (doc["value"], doc["exact"], doc["cached"]) == (5, True, False)


def test_warm_scan_reads_cache_once(capsys, tmp_path, monkeypatch):
    import builtins
    import davlab.cache
    cache = str(tmp_path / "scan.jsonl")
    args = ("scan", "--families=d,q,sd,m2", "--max-order=16", "--json", "--cache", cache)
    run_json(capsys, *args)
    opens = []

    def counting_open(file, mode="r", *rest, **kwargs):
        opens.append((str(file), mode))
        return builtins.open(file, mode, *rest, **kwargs)

    monkeypatch.setattr(davlab.cache, "open", counting_open, raising=False)
    code, doc = run_json(capsys, *args)
    assert code == 0 and len(doc["rows"]) > 5
    assert all(r["cached"] for r in doc["rows"])
    assert opens == [(cache, "rb")]  # one read, nothing appended


def test_a_warm_scan_reads_past_20000_filler_records_and_a_truncated_line(capsys, tmp_path):
    """The grid's records, 20,000 filler records and a truncated filler line:
    a fresh warm scan warns on the last line and serves every row from the
    cache within 10 s."""
    cache = tmp_path / "warm.jsonl"
    args = ("scan", "--families=d,q,sd,m2", "--max-order=32", "--json", "--cache", str(cache))
    assert main(list(args)) == 0
    capsys.readouterr()
    for n in range(20000):
        cache_put(cache, ResultRecord(f"c[{2 + n % 4000}]", "D", 5, n % 5 > 0,
                                      witness=["g"] * 4, elapsed_ms=n))
    lines = cache.read_text().splitlines()
    with open(cache, "a") as fh:
        fh.write(lines[-1][:len(lines[-1]) // 2] + "\n")
    done = run_python("-m", "davlab.cli", *args, timeout=10)
    assert done.returncode == 0, done.stderr[-2000:]
    assert "Traceback" not in done.stderr
    assert f"{cache}:{len(lines) + 1}: skipping corrupted cache line" in done.stderr
    rows = json.loads(done.stdout)["rows"]
    assert rows and all(r["cached"] is True for r in rows)


def test_scan_recomputes_rows_with_inexact_or_missing_records(capsys, tmp_path):
    cache = tmp_path / "scan.jsonl"
    args = ("scan", "--families=d,q", "--max-order=16", "--json", "--cache", str(cache))
    _, cold = run_json(capsys, *args)
    # q[8]: its D record becomes inexact; the others lose one needed record
    dropped = {("d[8]", "D"), ("d[16]", "L"), ("q[12]", "witness_check")}
    kept = []
    for line in cache.read_text().splitlines():
        record = json.loads(line)
        key = (record["descriptor"], record["invariant"])
        if key in dropped:
            continue
        if key == ("q[8]", "D"):
            record["exact"] = False
        kept.append(json.dumps(record))
    cache.write_text("\n".join(kept) + "\n")
    code, warm = run_json(capsys, *args)
    assert code == 0
    assert _strip(warm["rows"]) == _strip(cold["rows"])
    recomputed = {r["descriptor"] for r in warm["rows"] if not r["cached"]}
    assert recomputed == {"q[8]", "d[8]", "d[16]", "q[12]"}
    # only the missing records are computed and appended, the others reused
    appended = [json.loads(line) for line in cache.read_text().splitlines()[len(kept):]]
    assert sorted((r["descriptor"], r["invariant"]) for r in appended) == sorted(
        dropped | {("q[8]", "D")})


def test_scan_recomputes_an_l_record_of_another_algo(capsys, tmp_path):
    """A cached L is served only under the current SEARCH_ALGO: the L record
    of g1[3,1,1,1] rewritten to 12 under algo 1 is recomputed, so the row is
    CONFIRMED at 9 and the fresh record is appended."""
    cache = tmp_path / "scan.jsonl"
    args = ("scan", "--families=g1", "--max-order=81", "--json", "--cache", str(cache))
    run_json(capsys, *args)
    lines = []
    for line in cache.read_text().splitlines():
        record = json.loads(line)
        if (record["descriptor"], record["invariant"]) == ("g1[3,1,1,1]", "L"):
            record.update(value=12, algo=1)
        lines.append(json.dumps(record, sort_keys=True))
    cache.write_text("\n".join(lines) + "\n")
    code, warm = run_json(capsys, *args)
    assert code == 0
    row = warm["rows"][0]
    assert (row["descriptor"], row["status"], row["lower"], row["upper"], row["cached"]) == (
        "g1[3,1,1,1]", "CONFIRMED", 9, 9, False)
    assert all(r["cached"] for r in warm["rows"][1:])
    appended = [json.loads(line) for line in cache.read_text().splitlines()[len(lines):]]
    assert [(r["descriptor"], r["invariant"], r["value"], r["algo"]) for r in appended] == [
        ("g1[3,1,1,1]", "L", 9, SEARCH_ALGO)]
    assert all(r["exact"] for r in appended)


def test_scan_drops_repeated_families_and_primes(capsys):
    grid = ("--max-order=243", "--json", "--no-cache")
    _, once = run_json(capsys, "scan", "--families=g2", "--primes=3", *grid)
    _, twice = run_json(capsys, "scan", "--families=g2,g2", "--primes=3,3", *grid)
    assert len(once["rows"]) == 6
    assert _strip(twice["rows"]) == _strip(once["rows"])


def test_scan_refuted_row_exits_1(capsys, tmp_path):
    cache = tmp_path / "scan.jsonl"
    args = ("scan", "--families=q", "--max-order=12", "--cache", str(cache))
    assert main(list(args)) == 0
    capsys.readouterr()
    records = [json.loads(line) for line in cache.read_text().splitlines()]
    for record in records:
        if (record["descriptor"], record["invariant"]) == ("q[8]", "D"):
            record["value"] = 4  # an exact D off the proven 5
    cache.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out = run(capsys, *args)
    assert code == 1
    assert "summary: 2 rows, 1 CONFIRMED, 0 CONSISTENT, 1 REFUTED" in out


def test_scan_search_above_cap_needs_a_budget(capsys, tmp_path):
    cache = tmp_path / "scan.jsonl"
    code = main(["scan", "--families=d", "--max-order=128", "--search-max-order=128",
                 "--cache", str(cache)])
    assert code == 2
    assert "d[128]: order 128 above search cap 64" in capsys.readouterr().err
    assert not cache.exists()
    code, doc = run_json(capsys, "scan", "--families=d", "--max-order=32",
                         "--search-max-order=128", "--json", "--cache", str(cache))
    assert code == 0
    assert [r["exact_value"] for r in doc["rows"]] == [5, 9, 17]


@pytest.mark.parametrize("flag", ["--budget-states", "--budget-seconds"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_nonpositive_budget_is_a_usage_error(flag, value, capsys):
    for argv in (["davenport", "q[8]"], ["scan", "--families=q", "--max-order=8"]):
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"{flag}={value}", "--no-cache"])
        assert exc.value.code == 2
        assert "must be positive" in capsys.readouterr().err


# The verdict scan rows had before it read the bounds alone, kept as the
# reference: it consulted the D value the covered results pin, and decided
# an exact D before looking at the bounds.

def _reference_claim(desc):
    """The proven D(G) of a row a proven construction covers: Olson-White
    for the dicyclic and semidihedral groups whose order is not a power of 2,
    the closed-form Loewy length for the rest."""
    plan = witness_plan(desc)
    if plan is None or not plan[1]:
        return None
    order = desc.theoretical_order()
    if desc.family in ("q", "sd") and order & (order - 1):
        return olson_white(order)
    return loewy_formula(desc)


def _reference_status(desc, is_p, lower, upper, exact_D):
    claim = _reference_claim(desc)
    if exact_D is not None:
        if exact_D == upper:
            return "CONFIRMED"
        if claim is not None and exact_D != claim:
            return "REFUTED"
        if is_p and exact_D != upper:
            return "REFUTED"
        return "CONSISTENT"
    if lower > upper:
        return "REFUTED"
    return "CONFIRMED" if lower == upper else "CONSISTENT"


def test_scan_status_logic_marks_refutations():
    """On every row of a seven-family grid, over synthesized records around
    the upper bound, the verdict of scan_row is the reference's, except that
    crossed bounds with an exact D at the upper bound are REFUTED."""
    crossed = 0
    for desc in _grid(["d", "q", "sd", "m2", "g1", "g2", "g3"], [3, 5, 7], 729, []):
        name, order = desc.canonical(), desc.theoretical_order()
        is_p = prime_power(order) is not None
        L = loewy_formula(desc) if is_p else None
        for upper in ((L - 1, L, L + 1) if is_p else (olson_white(order),)):
            records = {"L": ResultRecord(name, "L", upper, True)} if is_p else {}
            for w in (1, upper - 1, upper, upper + 1):
                records["witness_check"] = ResultRecord(name, "witness_check", w, w > 1)
                for d in (None, upper - 1, upper, upper + 1):
                    # no exact D: an inexact record, which the row ignores
                    records["D"] = ResultRecord(name, "D", d or upper + 1, d is not None)
                    row = scan_row(desc, records, True)
                    lower = max(w, d or 1)
                    assert (row["lower"], row["upper"], row["exact_value"]) == (lower, upper, d)
                    want = _reference_status(desc, is_p, lower, upper, d)
                    if lower > upper == d:
                        crossed += 1
                        assert (want, row["status"]) == ("CONFIRMED", "REFUTED"), name
                    else:
                        assert row["status"] == want, (name, upper, w, d)
    assert crossed > 0


def test_scan_crossed_bounds_are_refuted(capsys, tmp_path):
    cache = tmp_path / "scan.jsonl"
    args = ("scan", "--families=q", "--max-order=8", "--json", "--cache", str(cache))
    assert main(list(args)) == 0
    capsys.readouterr()
    records = [json.loads(line) for line in cache.read_text().splitlines()]
    for record in records:
        if (record["descriptor"], record["invariant"]) == ("q[8]", "witness_check"):
            record["value"] = 6  # a verified witness above L = 5, with exact D = 5
    cache.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, doc = run_json(capsys, *args)
    assert code == 1
    [row] = doc["rows"]
    assert (row["lower"], row["upper"], row["exact_value"]) == (6, 5, 5)
    assert row["status"] == "REFUTED"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


# --- the process entry point -------------------------------------------------------

@pytest.mark.parametrize("argv, code", [
    (["info", "q[8]"], 0), (["loewy", "c[6]"], 1), (["info", "zz[3]"], 2)])
def test_run_flushes_and_exits_with_the_code_of_main(argv, code, monkeypatch):
    """run() hands main's code to os._exit, after its output is flushed:
    nothing that os._exit skips may hold any of it."""
    out, err = io.BytesIO(), io.BytesIO()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(out, encoding="utf-8"))
    monkeypatch.setattr(sys, "stderr", io.TextIOWrapper(err, encoding="utf-8"))
    monkeypatch.setattr(sys, "argv", ["davlab", *argv])
    exits = []
    monkeypatch.setattr(cli.os, "_exit",
                        lambda n: exits.append((n, out.getvalue(), err.getvalue())))
    cli.run()
    [(n, written, errors)] = exits
    assert n == code
    if code == 0:
        assert written.startswith(b"descriptor: q[8]\n") and b"order: 8\n" in written
    else:
        assert written == b"" and errors.startswith(b"error: ") and errors.endswith(b"\n")


_SCAN_16 = ("-m", "davlab.cli", "scan", "--families=d,q,sd,m2", "--max-order=16")
_SCAN_16_ROWS = ["d[8]", "d[16]", "q[8]", "q[16]", "q[12]", "sd[16]", "m2[16]"]


def test_a_scan_process_prints_all_its_json_and_caches_every_record(tmp_path):
    cache = tmp_path / "scan.jsonl"
    cold = run_python(*_SCAN_16, "--json", "--cache", str(cache))
    assert cold.returncode == 0, cold.stderr[-2000:]
    doc = json.loads(cold.stdout)
    assert schema_errors(doc) == []
    assert [r["descriptor"] for r in doc["rows"]] == _SCAN_16_ROWS
    assert not any(r["cached"] for r in doc["rows"])
    records = cache.read_bytes()
    warm = run_python(*_SCAN_16, "--json", "--cache", str(cache))
    assert warm.returncode == 0, warm.stderr[-2000:]
    assert all(r["cached"] for r in json.loads(warm.stdout)["rows"])
    assert cache.read_bytes() == records


def test_a_scan_process_prints_every_csv_row():
    done = run_python(*_SCAN_16, "--csv", "--no-cache")
    assert done.returncode == 0, done.stderr[-2000:]
    rows = list(csv.DictReader(io.StringIO(done.stdout)))
    assert [r["descriptor"] for r in rows] == _SCAN_16_ROWS
    assert all(r["status"] == "CONFIRMED" for r in rows)


# `python -m davlab.cli ARGS` with its stdout moved onto TARGET: a pipe whose
# read end is closed before the command writes, or a file opened for writing.
_STDOUT_ON = """
import os, runpy, sys
target, sys.argv[1:] = sys.argv[1], sys.argv[2:]
if target == "closed-pipe":
    read, fd = os.pipe()
    os.close(read)
else:
    fd = os.open(target, os.O_WRONLY)
os.dup2(fd, 1)
runpy.run_module("davlab.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("argv", [
    ["info", "q[8]"],  # the pipe breaks at the final flush
    # 15 kB of JSON, more than stdout buffers: the pipe breaks inside main
    ["scan", "--families=d,q,sd,m2", "--max-order=128", "--search-max-order=0",
     "--json", "--no-cache"]])
def test_a_closed_stdout_pipe_exits_1_without_a_traceback(argv):
    done = run_python("-c", _STDOUT_ON, "closed-pipe", *argv)
    assert done.returncode == 1
    assert done.stderr == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_disk_on_stdout_is_one_error_line():
    done = run_python("-c", _STDOUT_ON, "/dev/full", "info", "q[8]")
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines() == ["error: [Errno 28] No space left on device"]
