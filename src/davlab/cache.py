"""Append-only JSON-lines result cache keyed by (descriptor, invariant, weights)."""

from __future__ import annotations

import datetime
import json
import os
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .version import __version__

SCHEMA_VERSION = 1
DEFAULT_CACHE_FILE = "davlab-cache.jsonl"
ENV_CACHE = "DAVLAB_CACHE"

_INVARIANTS = {"D", "Dprime", "E", "DA", "L", "L_formula", "witness_check",
               "oracle_check"}


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


@dataclass
class ResultRecord:
    descriptor: str
    invariant: str
    value: int | bool
    exact: bool
    weight_set: list[int] | None = None
    witness: list[str] | None = None
    tool_version: str = __version__
    elapsed_ms: int = 0
    timestamp: str = field(default_factory=_now)
    v: int = SCHEMA_VERSION

    def key(self) -> tuple:
        weights = tuple(sorted(self.weight_set)) if self.weight_set else None
        return (self.descriptor, self.invariant, weights)


def cache_path(explicit: str | os.PathLike | None = None) -> Path:
    """Explicit path, else the DAVLAB_CACHE environment variable, else cwd."""
    if explicit:
        return Path(explicit)
    env = os.environ.get(ENV_CACHE)
    return Path(env) if env else Path(DEFAULT_CACHE_FILE)


def cache_put(path: Path, record: ResultRecord) -> None:
    """Append one record as a single JSON line."""
    try:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(asdict(record), sort_keys=True) + "\n")
    except OSError as exc:
        raise OSError(f"cache file {path} is not writable: {exc}") from exc


def _major(version: str) -> str:
    return version.split(".", 1)[0]


def cache_get(path: Path, descriptor: str, invariant: str,
              weight_set=None) -> ResultRecord | None:
    """Latest record matching the key whose tool version major matches.

    An exact record beats any inexact one, whatever their order in the file.
    Corrupted lines are skipped with a warning; a missing file is a miss.
    """
    if invariant not in _INVARIANTS:
        raise ValueError(f"unknown invariant {invariant!r}")
    key = (descriptor, invariant,
           tuple(sorted(weight_set)) if weight_set else None)
    if not Path(path).exists():
        return None
    hit: ResultRecord | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
                record = ResultRecord(**raw)
            except (json.JSONDecodeError, TypeError) as exc:
                warnings.warn(f"{path}:{lineno}: skipping corrupted cache line ({exc})")
                continue
            if record.key() != key:
                continue
            if _major(record.tool_version) != _major(__version__):
                continue
            if record.exact or hit is None or not hit.exact:
                hit = record
    return hit
