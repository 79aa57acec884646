"""Tiny pass/fail report container used by the verification operations."""

from __future__ import annotations

from typing import NamedTuple


class ReportEntry(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


class Report:
    """A titled list of entries; each report starts with a list of its own."""

    def __init__(self, title: str, entries: list[ReportEntry] | None = None):
        self.title = title
        self.entries = [] if entries is None else entries

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.title, self.entries) == (other.title, other.entries)

    def __repr__(self) -> str:
        return f"Report(title={self.title!r}, entries={self.entries!r})"

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.entries.append(ReportEntry(name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        return all(e.ok for e in self.entries)

    def failures(self) -> list[ReportEntry]:
        return [e for e in self.entries if not e.ok]

    def lines(self) -> list[str]:
        out = [f"{self.title}:"]
        for e in self.entries:
            mark = "pass" if e.ok else "FAIL"
            detail = f"  ({e.detail})" if e.detail and not e.ok else ""
            out.append(f"  [{mark}] {e.name}{detail}")
        return out

    def __str__(self) -> str:
        return "\n".join(self.lines())
