"""Append-only JSON-lines result cache keyed by (descriptor, invariant, weights).

One read loop, `cache_records`, serves every lookup. `cache_get` is its
one-key case; `scan` asks for the keys of its whole grid at once, so it
reads the file once per invocation. A record is served only under the
current SEARCH_ALGO, and a search result (D, Dprime, E, DA) only when exact:
an inexact one is a lower bound, never the answer.

A lookup parses only the lines that can hold a wanted key. A line that
begins with the head `cache_put` writes, `{"algo": <null|int>,
"descriptor": "<d>", `, with <d> plain printable ASCII naming no wanted
descriptor, and that ends in `}`, is skipped unparsed, so a corrupted line
of that shape warns only on lookups that want its descriptor. Every other
line is decoded and parsed, and warns when corrupted. A skip can only turn
a hit into a miss, which is recomputed, never a wrong answer.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import warnings
from pathlib import Path

from .errors import CacheFileError
from .version import SEARCH_ALGO, __version__

SCHEMA_VERSION = 1
DEFAULT_CACHE_FILE = "davlab-cache.jsonl"
ENV_CACHE = "DAVLAB_CACHE"

# The invariant each search variant of `davenport --variant` computes.
VARIANT_INVARIANT = {"ordered": "D", "unordered": "Dprime", "E": "E", "weighted": "DA"}
_SEARCH_INVARIANTS = set(VARIANT_INVARIANT.values())
_INVARIANTS = _SEARCH_INVARIANTS | {"L", "L_formula", "witness_check", "oracle_check"}


# The start of every line cache_put writes (sorted keys, default separators),
# capturing a descriptor that needs no JSON escape.
_HEAD = re.compile(rb'\{"algo": (?:null|-?[0-9]+), "descriptor": "([ !#-\[\]-~]*)", ')


def _now() -> str:
    import datetime  # only new records need it; a warm lookup skips the import
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


_NOW = object()  # the timestamp default: the time the record is made


class ResultRecord:
    """One cached result. Its fields are its instance dict, in this order;
    `cache_put` writes them as they are."""

    def __init__(self, descriptor: str, invariant: str, value: int | bool, exact: bool,
                 weight_set: list[int] | None = None, witness: list[str] | None = None,
                 tool_version: str = __version__, elapsed_ms: int = 0,
                 timestamp: str | None = _NOW, v: int = SCHEMA_VERSION,
                 algo: int | None = SEARCH_ALGO):
        self.descriptor = descriptor
        self.invariant = invariant
        self.value = value
        self.exact = exact
        self.weight_set = weight_set
        self.witness = witness
        self.tool_version = tool_version
        self.elapsed_ms = elapsed_ms
        self.timestamp = _now() if timestamp is _NOW else timestamp
        self.v = v
        self.algo = algo

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"ResultRecord({fields})"

    def key(self) -> tuple:
        return record_key(self.descriptor, self.invariant, self.weight_set)


def search_record(descriptor: str, invariant: str, result, weights=None) -> ResultRecord:
    """The record of one zerosum.SearchResult."""
    return ResultRecord(descriptor, invariant, result.value, result.exact,
                        weight_set=list(weights) if weights else None,
                        witness=result.witness.labels(), elapsed_ms=int(1000 * result.elapsed))


def compact_labels(labels) -> str:
    """Run-length display of a witness's labels, e.g. '(y)^3 x' for
    ['y', 'y', 'y', 'x']."""
    out = []
    for label, run in itertools.groupby(labels):
        n = len(list(run))
        out.append(label if n == 1 else f"({label})^{n}")
    return " ".join(out) if out else "(empty)"


def record_key(descriptor: str, invariant: str, weight_set=None) -> tuple:
    """The cache key of a result; the weights are a set, keyed by their
    sorted distinct members."""
    return (descriptor, invariant,
            tuple(sorted(set(weight_set))) if weight_set else None)


def cache_path(explicit: str | os.PathLike | None = None) -> Path:
    """Explicit path, else the DAVLAB_CACHE environment variable, else cwd."""
    if explicit:
        return Path(explicit)
    env = os.environ.get(ENV_CACHE)
    return Path(env) if env else Path(DEFAULT_CACHE_FILE)


def check_writable(path: Path) -> None:
    """Raise cache_put's error now, before any work, if path cannot be
    appended to; a missing file is created empty."""
    try:
        open(path, "a").close()
    except OSError as exc:
        raise CacheFileError(f"cache file {path} is not writable: {exc}") from exc


def cache_put(path: Path, record: ResultRecord) -> None:
    """Append one record as a single JSON line."""
    try:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(vars(record), sort_keys=True) + "\n")
    except OSError as exc:
        raise CacheFileError(f"cache file {path} is not writable: {exc}") from exc


def _major(version: str) -> str:
    return version.split(".", 1)[0]


def cache_records(path: Path, keys) -> dict[tuple, ResultRecord]:
    """Stream the file once and return, for each given key that has records
    of this tool's major version, the exact one if any, else the latest.
    Records of an algo other than SEARCH_ALGO (a line without the field
    predates it) and inexact search records are never served, and are skipped.

    Only lines that can hold a wanted key are parsed: a line with the
    `cache_put` head (`_HEAD`) whose descriptor no wanted key names, and
    which ends in `}`, is skipped unread. Corrupted parsed lines, such as
    one that is not UTF-8 or not JSON, or whose `value` is not an int (a
    bool counts), `exact` not a bool or `witness` not null or a list of
    strings, are skipped with a warning; so a truncated line always warns,
    and one corrupted after an unwanted head does not. A missing file has no
    records, one that cannot be read raises CacheFileError. Records of other
    keys are dropped as they are read, so memory grows with the keys asked
    for, not with the file.
    """
    wanted = set(keys)
    wanted_heads = {key[0].encode() for key in wanted}
    hits: dict[tuple, ResultRecord] = {}
    if not Path(path).exists():
        return hits
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CacheFileError(f"cache file {path} is not readable: {exc}") from exc
    major = _major(__version__)
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            head = _HEAD.match(line)
            if head and head[1] not in wanted_heads and line.endswith(b"}"):
                continue
            try:
                # strict: a line that is not UTF-8 is corrupted, not repaired
                text = line.decode("utf-8")
                record = ResultRecord(**{"algo": None, **json.loads(text)})
                key = record.key()
                # a field of the wrong type raises here too
                if (not isinstance(record.value, int) or not isinstance(record.exact, bool)
                        or not isinstance(record.witness, (list, type(None)))
                        or not all(isinstance(w, str) for w in record.witness or ())):
                    raise TypeError("value, exact or witness of the wrong type")
                if key not in wanted or _major(record.tool_version) != major:
                    continue
                if record.algo != SEARCH_ALGO or (
                        record.invariant in _SEARCH_INVARIANTS and not record.exact):
                    continue
            except (UnicodeDecodeError, json.JSONDecodeError, TypeError,
                    AttributeError) as exc:
                warnings.warn(f"{path}:{lineno}: skipping corrupted cache line ({exc})")
                continue
            hit = hits.get(key)
            if record.exact or hit is None or not hit.exact:
                hits[key] = record
    return hits


def cache_get(path: Path, descriptor: str, invariant: str,
              weight_set=None) -> ResultRecord | None:
    """The record `cache_records` keeps for this one key, or None."""
    if invariant not in _INVARIANTS:
        raise ValueError(f"unknown invariant {invariant!r}")
    key = record_key(descriptor, invariant, weight_set)
    return cache_records(path, [key]).get(key)
