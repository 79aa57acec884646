import json
import random
import warnings
from pathlib import Path

import pytest

from davlab.cache import (_HEAD, ResultRecord, cache_get, cache_path, cache_put,
                          cache_records, record_key)
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


def test_record_takes_the_davbench_filler_fields():
    """`ResultRecord(**fields)` as davbench fills its caches; a key that is no
    field raises TypeError, which cache_records reads as a corrupted line."""
    fields = {"descriptor": "c[7]", "invariant": "DA", "value": 3, "exact": True,
              "weight_set": [1, 4], "witness": ["y^2", "y^5"], "elapsed_ms": 40}
    record = ResultRecord(**fields)
    assert {name: getattr(record, name) for name in fields} == fields
    assert (record.tool_version, record.v, record.algo) == (__version__, 1, SEARCH_ALGO)
    assert isinstance(record.timestamp, str)
    with pytest.raises(TypeError):
        ResultRecord(**fields, colour="red")
    with pytest.raises(TypeError):
        ResultRecord("c[7]", "D")


def test_record_keeps_an_explicit_null_timestamp(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(json.dumps({"descriptor": "q[8]", "invariant": "L", "value": 4,
                                "exact": True, "timestamp": None,
                                "algo": SEARCH_ALGO}) + "\n")
    assert cache_get(path, "q[8]", "L").timestamp is None
    assert ResultRecord("q[8]", "L", 4, True, timestamp=None).timestamp is None


def test_record_equality_repr_and_pickle():
    import pickle
    record = ResultRecord("q[8]", "D", 5, True, witness=["y", "x"],
                          timestamp="2026-01-01T00:00:00+00:00")
    same = ResultRecord("q[8]", "D", 5, True, witness=["y", "x"],
                        timestamp="2026-01-01T00:00:00+00:00")
    assert record == same and record != ResultRecord("q[8]", "D", 4, True)
    assert pickle.loads(pickle.dumps(record)) == record
    assert repr(record) == (
        "ResultRecord(descriptor='q[8]', invariant='D', value=5, exact=True, "
        "weight_set=None, witness=['y', 'x'], tool_version='" + __version__ + "', "
        "elapsed_ms=0, timestamp='2026-01-01T00:00:00+00:00', v=1, "
        f"algo={SEARCH_ALGO})")


def test_put_line_is_pinned(tmp_path):
    """One cache_put line, byte for byte, as the dataclass record wrote it."""
    path = tmp_path / "cache.jsonl"
    cache_put(path, ResultRecord("g1[3,1,1,1]", "DA", 7, False, weight_set=[1, 4],
                                 witness=["a", "b^2"], tool_version="0.1.0", elapsed_ms=12,
                                 timestamp="2026-01-01T00:00:00+00:00", algo=3))
    assert path.read_bytes() == (
        b'{"algo": 3, "descriptor": "g1[3,1,1,1]", "elapsed_ms": 12, "exact": false, '
        b'"invariant": "DA", "timestamp": "2026-01-01T00:00:00+00:00", '
        b'"tool_version": "0.1.0", "v": 1, "value": 7, "weight_set": [1, 4], '
        b'"witness": ["a", "b^2"]}\n')


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
    # an inexact search record is a lower bound, never served as the answer
    cache_put(path, ResultRecord("q[16]", "D", 7, False))
    cache_put(path, ResultRecord("q[16]", "D", 8, False))
    assert cache_get(path, "q[16]", "D") is None


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
                             "exact": True, "algo": SEARCH_ALGO}).encode().replace(
                                 b"q[8]", b"q[8\xff]") + b"\n")
    cache_put(path, ResultRecord("q[8]", "D", 5, True))
    # UTF-8 outside ASCII is text like any other
    line = {"descriptor": "q[8]", "invariant": "L", "value": 5, "exact": True,
            "witness": ["\u03c9"], "tool_version": __version__, "algo": SEARCH_ALGO}
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
            assert (vars(one) if one else None) == \
                (vars(got[key]) if key in got else None)


def test_every_record_needs_the_current_algo(tmp_path):
    path = tmp_path / "cache.jsonl"
    line = {"descriptor": "q[8]", "invariant": "D", "value": 5, "exact": True,
            "tool_version": __version__}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(line) + "\n")                           # no algo field
        fh.write(json.dumps({**line, "algo": SEARCH_ALGO + 1}) + "\n")
        fh.write(json.dumps({**line, "invariant": "L"}) + "\n")     # not a search
    assert cache_get(path, "q[8]", "D") is None
    assert cache_get(path, "q[8]", "L") is None
    cache_put(path, ResultRecord("q[8]", "D", 5, True))
    got = cache_get(path, "q[8]", "D")
    assert got.value == 5 and got.algo == SEARCH_ALGO


def _parse_every_line(path, keys):
    """The lookup without the head prefilter, kept as the reference: every
    line is decoded and parsed before its key is checked."""
    wanted = set(keys)
    hits = {}
    if not Path(path).exists():
        return hits
    major = __version__.split(".", 1)[0]
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                text = line.decode("utf-8")
                record = ResultRecord(**{"algo": None, **json.loads(text)})
                key = record.key()
                if key not in wanted or record.tool_version.split(".", 1)[0] != major:
                    continue
                if record.algo != SEARCH_ALGO or (
                        record.invariant in ("D", "Dprime", "E", "DA") and not record.exact):
                    continue
            except (UnicodeDecodeError, json.JSONDecodeError, TypeError,
                    AttributeError) as exc:
                warnings.warn(f"{path}:{lineno}: skipping corrupted cache line ({exc})")
                continue
            hit = hits.get(key)
            if record.exact or hit is None or not hit.exact:
                hits[key] = record
    return hits


def _lookup(lookup, path, keys):
    """(hits as dicts, warning messages) of one lookup."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        hits = lookup(path, keys)
    return {k: vars(r) for k, r in hits.items()}, [str(w.message) for w in caught]


# Descriptors of the mixed file: plain ones, one JSON escapes (a quote) and
# one outside ASCII.
_MIXED_DESCRIPTORS = ["q[8]", "d[8]", "sd[16]", "m2[16]", "c[5]", "ab[2,4]",
                      "g1[3,1,1,1]", 'q"[8]', "\u03c9[8]"]
_MIXED_INVARIANTS = ["D", "L", "DA", "witness_check"]


def _mixed_record(rng) -> ResultRecord:
    invariant = rng.choice(_MIXED_INVARIANTS)
    return ResultRecord(
        rng.choice(_MIXED_DESCRIPTORS), invariant, rng.randint(2, 20), rng.random() < 0.7,
        weight_set=[1, rng.randint(2, 4)] if invariant == "DA" else None,
        witness=["x"] * rng.randint(0, 3),
        tool_version=__version__ if rng.random() < 0.85 else "9.0.0",
        algo=rng.choice([SEARCH_ALGO] * 4 + [SEARCH_ALGO - 1, None]),
        timestamp="2026-01-01T00:00:00+00:00")


def _canonical(record: ResultRecord) -> bytes:
    return json.dumps(vars(record), sort_keys=True).encode()


def _write_mixed_cache(path, seed: int, lines: int = 400) -> None:
    """cache_put lines mixed with every other kind of line a lookup can meet."""
    rng = random.Random(seed)
    for _ in range(lines):
        record = _mixed_record(rng)
        kind = rng.choice(["put"] * 6 + ["unsorted", "compact", "escaped", "truncated",
                                          "not_utf8", "wrong_type", "no_algo", "blank"])
        if kind == "put":
            cache_put(path, record)
            continue
        fields = dict(vars(record))
        desc = record.descriptor
        if kind == "unsorted":
            line = json.dumps(fields).encode()
        elif kind == "compact":
            line = json.dumps(fields, sort_keys=True, separators=(",", ":")).encode()
        elif kind == "escaped":  # "q[8]" as "\\u0071[8]"
            escaped = '"\\u%04x%s"' % (ord(desc[0]), json.dumps(desc[1:])[1:-1])
            line = _canonical(record).replace(json.dumps(desc).encode(), escaped.encode())
        elif kind == "truncated":
            line = _canonical(record)
            line = line[:rng.randint(1, len(line) - 2)]
        elif kind == "not_utf8":
            line = rng.choice([b"\xff\xfe garbage", _canonical(record).replace(
                json.dumps(desc).encode(), json.dumps(desc).encode()[:-1] + b'\xff"')])
        elif kind == "wrong_type":
            line = rng.choice([
                json.dumps({**fields, "tool_version": 1}, sort_keys=True),
                json.dumps({**fields, "weight_set": 5}),
                json.dumps({**fields, "descriptor": 8}, sort_keys=True)]).encode()
        elif kind == "no_algo":  # a record from before the field existed
            del fields["algo"]
            line = json.dumps(fields, sort_keys=True).encode()
        else:
            line = b"  "
        with open(path, "ab") as fh:
            fh.write(line + b"\n")


def _mixed_keys():
    keys = [record_key(d, i) for d in _MIXED_DESCRIPTORS for i in _MIXED_INVARIANTS
            if i != "DA"]
    keys += [record_key(d, "DA", [1, w]) for d in _MIXED_DESCRIPTORS for w in (2, 3, 4)]
    return keys + [record_key("q[64]", "D")]  # in no line


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_lookup_equals_parsing_every_line(tmp_path, seed):
    """Same hits and same warnings as the full parse, on several key sets."""
    path = tmp_path / "cache.jsonl"
    _write_mixed_cache(path, seed)
    keys = _mixed_keys()
    rng = random.Random(seed)
    key_sets = [[], keys, [record_key("q[64]", "D")], [record_key('q"[8]', "L")],
                [record_key("\u03c9[8]", "D")]]
    key_sets += [rng.sample(keys, k) for k in (1, 2, 5, 12, 30)]
    served = warned = 0
    for wanted in key_sets:
        got = _lookup(cache_records, path, wanted)
        assert got == _lookup(_parse_every_line, path, wanted), wanted
        hits, messages = got
        served += len(hits)
        warned += len(messages)
        for hit in hits.values():
            assert hit["tool_version"] == __version__
            assert hit["algo"] == SEARCH_ALGO
            assert hit["invariant"] not in ("D", "DA") or hit["exact"]
    assert served and warned


def test_an_unwanted_line_corrupted_behind_the_head_is_skipped_silently(tmp_path):
    """The one difference from parsing every line: a line with the cache_put
    head of an unwanted descriptor that still ends in a brace is not read, so
    its corruption shows only on lookups that want its descriptor."""
    path = tmp_path / "cache.jsonl"
    cache_put(path, ResultRecord("c[5]", "L", 5, True))
    cache_put(path, ResultRecord("q[8]", "L", 4, True))
    first, second = path.read_bytes().splitlines()
    end = _HEAD.match(first).end()
    path.write_bytes(first[:end] + b"@@ not json @@" + first[-12:] + b"\n" + second + b"\n")
    key_q, key_c = record_key("q[8]", "L"), record_key("c[5]", "L")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cache_records(path, [key_q])[key_q].value == 4
    for lookup, keys in ((_parse_every_line, [key_q]), (cache_records, [key_c]),
                         (cache_records, [key_q, key_c])):
        with pytest.warns(UserWarning, match=":1: skipping corrupted cache line"):
            assert key_c not in lookup(path, keys)


def test_a_lookup_parses_only_lines_that_can_hold_a_wanted_key(tmp_path, monkeypatch):
    """json.loads runs once per line that names a wanted descriptor or lacks
    the cache_put head, and never on the rest of a 5k-line filler file."""
    rng = random.Random(11)
    path = tmp_path / "cache.jsonl"
    wanted = [record_key("q[8]", "D"), record_key("d[16]", "L"),
              record_key("c[5]", "DA", [1, 2])]
    wanted_descriptors = sorted({key[0] for key in wanted})
    expected = 0
    for _ in range(5000):
        roll = rng.random()
        if roll < 0.05:
            desc, expected = rng.choice(wanted_descriptors), expected + 1
        else:
            desc = f"c[{rng.randint(6, 4096)}]"
        invariant = rng.choice(["D", "L", "DA"])
        record = ResultRecord(desc, invariant, rng.randint(2, 40), rng.random() < 0.8,
                              weight_set=[1, rng.randint(2, 3)] if invariant == "DA" else None,
                              witness=["y"] * rng.randint(0, 20))
        if roll > 0.95:  # no cache_put head: compact separators
            expected += 1
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(vars(record), sort_keys=True,
                                    separators=(",", ":")) + "\n")
        else:
            cache_put(path, record)
    reference = _lookup(_parse_every_line, path, wanted)
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda text: calls.append(text) or loads(text))
    got = _lookup(cache_records, path, wanted)
    assert len(calls) == expected
    assert got == reference and got[0]


@pytest.mark.parametrize("record", [
    ResultRecord("q[8]", "D", 5, True, witness=["y", "y", "y", "x"], elapsed_ms=12),
    ResultRecord("c[5]", "DA", 3, True, weight_set=[4, 1]),
    ResultRecord("g1[3,1,1,1]", "L", 9, True, algo=None),
])
def test_cache_put_lines_carry_the_head(tmp_path, monkeypatch, record):
    """Every fresh cache_put line has the head the lookup skips by, so a field
    added to ResultRecord cannot silently turn the skip off."""
    path = tmp_path / "cache.jsonl"
    cache_put(path, record)
    line = path.read_bytes().strip()
    head = _HEAD.match(line)
    assert head and head[1] == record.descriptor.encode() and line.endswith(b"}")

    def no_parse(text):
        raise AssertionError(f"parsed {text}")
    monkeypatch.setattr(json, "loads", no_parse)
    assert cache_records(path, [record_key("d[8]", "D")]) == {}
