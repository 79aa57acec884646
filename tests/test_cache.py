import json
from dataclasses import asdict

import pytest

from davlab.cache import (ResultRecord, cache_get, cache_path, cache_put, cache_records,
                          record_key)
from davlab.version import SEARCH_ALGO, __version__


def test_roundtrip(tmp_path):
    path = tmp_path / "cache.jsonl"
    record = ResultRecord("q[8]", "D", 5, True, witness=["y", "y", "y", "x"],
                          elapsed_ms=12)
    cache_put(path, record)
    got = cache_get(path, "q[8]", "D")
    assert got is not None
    assert (got.descriptor, got.value, got.exact, got.witness, got.elapsed_ms) == \
        ("q[8]", 5, True, ["y", "y", "y", "x"], 12)


def test_get_on_missing_file(tmp_path):
    assert cache_get(tmp_path / "nope.jsonl", "q[8]", "D") is None


def test_get_on_empty_file(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text("")
    assert cache_get(path, "q[8]", "D") is None


def test_later_put_wins(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache_put(path, ResultRecord("q[8]", "D", 4, False))
    cache_put(path, ResultRecord("q[8]", "D", 5, True))
    got = cache_get(path, "q[8]", "D")
    assert got.value == 5 and got.exact


def test_exact_record_beats_later_inexact(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache_put(path, ResultRecord("q[8]", "D", 5, True))
    cache_put(path, ResultRecord("q[8]", "D", 4, False))
    got = cache_get(path, "q[8]", "D")
    assert got.value == 5 and got.exact
    cache_put(path, ResultRecord("q[16]", "D", 7, False))
    cache_put(path, ResultRecord("q[16]", "D", 8, False))
    assert cache_get(path, "q[16]", "D").value == 8


def test_key_includes_weights(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache_put(path, ResultRecord("c[5]", "DA", 3, True, weight_set=[1, 4]))
    cache_put(path, ResultRecord("c[5]", "DA", 5, True, weight_set=[1]))
    assert cache_get(path, "c[5]", "DA", [4, 1]).value == 3
    assert cache_get(path, "c[5]", "DA", [1]).value == 5
    assert cache_get(path, "c[5]", "DA") is None


def test_corrupted_lines_warn_and_skip(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache_put(path, ResultRecord("q[8]", "D", 5, True))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
        fh.write(json.dumps({"unexpected": "shape"}) + "\n")
        fh.write(json.dumps({"descriptor": "q[8]", "invariant": "D", "value": 6,
                             "exact": True, "tool_version": 1}) + "\n")
    with pytest.warns(UserWarning, match="corrupted"):
        got = cache_get(path, "q[8]", "D")
    assert got is not None and got.value == 5


def test_lines_that_are_not_utf8_warn_and_skip(tmp_path):
    path = tmp_path / "cache.jsonl"
    with open(path, "wb") as fh:
        fh.write(b"\xff\xfe garbage\n")
        # valid JSON around an invalid byte: no repair may serve it
        fh.write(json.dumps({"descriptor": "q[8]", "invariant": "L", "value": 4,
                             "exact": True}).encode().replace(b"q[8]", b"q[8\xff]") + b"\n")
    cache_put(path, ResultRecord("q[8]", "D", 5, True))
    # UTF-8 outside ASCII is text like any other
    line = {"descriptor": "q[8]", "invariant": "L", "value": 5, "exact": True,
            "witness": ["\u03c9"], "tool_version": __version__}
    with open(path, "ab") as fh:
        fh.write(json.dumps(line, ensure_ascii=False).encode("utf-8") + b"\n")
    with pytest.warns(UserWarning) as caught:
        got = cache_records(path, [record_key("q[8]", "D"), record_key("q[8]", "L")])
    assert [str(w.message).split(" (")[0] for w in caught] == [
        f"{path}:1: skipping corrupted cache line",
        f"{path}:2: skipping corrupted cache line"]
    assert got[("q[8]", "D", None)].value == 5
    assert (got[("q[8]", "L", None)].value, got[("q[8]", "L", None)].witness) == (5, ["\u03c9"])


def test_version_major_mismatch_skipped(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache_put(path, ResultRecord("q[8]", "D", 99, True, tool_version="9.0.0"))
    assert cache_get(path, "q[8]", "D") is None
    cache_put(path, ResultRecord("q[8]", "D", 5, True))
    assert cache_get(path, "q[8]", "D").value == 5


def test_unknown_invariant_rejected(tmp_path):
    with pytest.raises(ValueError):
        cache_get(tmp_path / "cache.jsonl", "q[8]", "bogus")


def test_cache_path_resolution(tmp_path, monkeypatch):
    monkeypatch.delenv("DAVLAB_CACHE", raising=False)
    assert str(cache_path(None)) == "davlab-cache.jsonl"
    monkeypatch.setenv("DAVLAB_CACHE", str(tmp_path / "env.jsonl"))
    assert cache_path(None) == tmp_path / "env.jsonl"
    assert cache_path(tmp_path / "x.jsonl") == tmp_path / "x.jsonl"


def test_put_unwritable_path(tmp_path):
    with pytest.raises(OSError):
        cache_put(tmp_path / "no" / "dir" / "cache.jsonl",
                  ResultRecord("q[8]", "D", 5, True))


def test_cache_records_keeps_only_wanted_keys(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache_put(path, ResultRecord("q[8]", "D", 4, False))
    cache_put(path, ResultRecord("q[8]", "D", 5, True))
    cache_put(path, ResultRecord("q[16]", "D", 7, True))           # not wanted
    cache_put(path, ResultRecord("q[12]", "L", 9, True, tool_version="9.0.0"))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{not json\n")
    cache_put(path, ResultRecord("c[5]", "DA", 3, True, weight_set=[4, 1]))
    cache_put(path, ResultRecord("q[8]", "D", 3, False))           # exact still wins
    cache_put(path, ResultRecord("q[8]", "L", 4, True))            # not wanted
    wanted = [record_key("q[8]", "D"), record_key("q[12]", "L"),
              record_key("c[5]", "DA", [1, 4]), record_key("d[8]", "D")]
    with pytest.warns(UserWarning, match="corrupted"):
        got = cache_records(path, wanted)
    assert set(got) == {("q[8]", "D", None), ("c[5]", "DA", (1, 4))}
    assert (got[("q[8]", "D", None)].value, got[("q[8]", "D", None)].exact) == (5, True)
    assert got[("c[5]", "DA", (1, 4))].value == 3
    with pytest.warns(UserWarning, match="corrupted"):
        for key in wanted:
            one = cache_get(path, *key)
            assert (asdict(one) if one else None) == \
                (asdict(got[key]) if key in got else None)



def test_search_records_need_the_current_algo(tmp_path):
    path = tmp_path / "cache.jsonl"
    line = {"descriptor": "q[8]", "invariant": "D", "value": 5, "exact": True,
            "tool_version": __version__}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(line) + "\n")                           # no algo field
        fh.write(json.dumps({**line, "algo": SEARCH_ALGO + 1}) + "\n")
        fh.write(json.dumps({**line, "invariant": "L"}) + "\n")     # not a search
    assert cache_get(path, "q[8]", "D") is None
    assert cache_get(path, "q[8]", "L").value == 5
    cache_put(path, ResultRecord("q[8]", "D", 5, True))
    got = cache_get(path, "q[8]", "D")
    assert got.value == 5 and got.algo == SEARCH_ALGO
