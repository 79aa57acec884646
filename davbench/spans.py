"""In-memory spans around davlab's public functions, and per-layer figures.

A span records its name, start, end, parent and a few attributes. Spans
stay in memory and are written out once, at the end of the traced run. The
wrappers are installed at the places where davlab looks the functions up
(module attributes), so no file of the program is edited.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import os
import time


class Tracer:
    """Single-threaded span recorder."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.enabled = True

    def open(self, name: str) -> dict | None:
        if not self.enabled:
            return None
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(), "end": None, "attrs": {}}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict | None) -> None:
        if span is None:
            return
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, fn, name: str, attrs=None):
        """fn timed as span `name`; attrs(args, kwargs, result) adds fields."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if span is not None and attrs is not None:
                span["attrs"].update(attrs(args, kwargs, result))
            return result

        return traced


# --- installing the wrappers ------------------------------------------------------

def _search_attrs(args, kwargs, result):
    return {"states": result.states_explored}


def _build_attrs(args, kwargs, result):
    return {"order": result.order}


def _oracle_attrs(args, kwargs, result):
    return {"tuples": math.prod(args[0].ranges)}


class _CacheFileStats:
    """Size and record count of the cache file at each lookup.

    cache_get reads the whole file, so its size is the bytes read (computed,
    not measured). The record count is recounted only when the size changed.
    """

    def __init__(self):
        self._size = None
        self._records = 0

    def __call__(self, args, kwargs, result):
        path = args[0]
        try:
            size = os.path.getsize(path)
        except OSError:
            size = 0
        if size != self._size:
            self._size = size
            self._records = 0
            if size:
                with open(path, "rb") as fh:
                    self._records = sum(1 for line in fh if line.strip())
        return {"hit": result is not None, "bytes": size, "records": self._records}


def install(tracer: Tracer) -> None:
    """Wrap davlab's public functions where davlab looks them up."""
    import davlab.cli as cli
    import davlab.groups as groups
    import davlab.jennings as jennings
    import davlab.witnesses as witnesses
    import davlab.zerosum as zerosum

    build = tracer.wrap(groups.build, "groups.build", _build_attrs)
    groups.build = build
    cli.build = build
    cli.cache_get = tracer.wrap(cli.cache_get, "cache.cache_get", _CacheFileStats())
    cli.cache_put = tracer.wrap(cli.cache_put, "cache.cache_put")
    for name in ("check_group_axioms", "verify_presentation"):
        setattr(groups, name, tracer.wrap(getattr(groups, name), f"groups.{name}"))
    for name in ("commutator_subgroup", "power_subgroup", "product_subgroup"):
        setattr(jennings, name, tracer.wrap(getattr(jennings, name), f"subgroups.{name}"))
    jennings.loewy_length = tracer.wrap(jennings.loewy_length, "jennings.loewy_length")
    attrs = {"davenport_ordered": _search_attrs, "davenport_unordered": _search_attrs,
             "davenport_weighted": _search_attrs, "eg_invariant": _search_attrs,
             "congruence_oracle": _oracle_attrs}
    for module, short in ((zerosum, "zerosum"), (witnesses, "witnesses")):
        for name, fn in vars(module).copy().items():
            if (not name.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__):
                setattr(module, name, tracer.wrap(fn, f"{short}.{name}", attrs.get(name)))


# --- arithmetic on finished spans -------------------------------------------------

def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """span id -> duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - covered(children.get(s["id"], []), s["start"], s["end"])
            for s in spans}


def by_name(spans: list[dict]) -> dict[str, dict]:
    """name -> {calls, total_s, self_s} over all spans of that name."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for s in spans:
        agg = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += s["end"] - s["start"]
        agg["self_s"] += selfs[s["id"]]
    return out


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[dict], traced_wall: float,
                  overhead_frac: float) -> dict[str, float]:
    """The per-layer figures named in BENCHMARK.json, from one traced pass."""
    agg = by_name(spans)

    def get(name, field):
        return agg.get(name, {}).get(field, 0)

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)

    kids: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append(s)

    # A build that checked axioms constructed a table; others were cache hits.
    cells = sum(s["attrs"]["order"] ** 2 for s in spans if s["name"] == "groups.build"
                and any(k["name"] == "groups.check_group_axioms"
                        for k in kids.get(s["id"], [])))
    series_terms = sum(1 + sum(k["name"] == "subgroups.commutator_subgroup"
                               for k in kids.get(s["id"], []))
                       for s in spans if s["name"] == "jennings.loewy_length")

    m = {
        "groups.build_calls": get("groups.build", "calls"),
        "groups.build_self_s": get("groups.build", "self_s"),
        "groups.check_group_axioms_s": get("groups.check_group_axioms", "total_s"),
        "groups.verify_presentation_s": get("groups.verify_presentation", "total_s"),
        "groups.cells_per_s": _rate(cells, get("groups.build", "self_s")),
        "subgroups.commutator_subgroup_calls": get("subgroups.commutator_subgroup", "calls"),
        "subgroups.commutator_subgroup_s": get("subgroups.commutator_subgroup", "total_s"),
        "subgroups.power_subgroup_s": get("subgroups.power_subgroup", "total_s"),
        "subgroups.product_subgroup_s": get("subgroups.product_subgroup", "total_s"),
        "jennings.loewy_length_calls": get("jennings.loewy_length", "calls"),
        "jennings.loewy_length_self_s": get("jennings.loewy_length", "self_s"),
        "jennings.series_terms": series_terms,
    }
    for short, fn in (("ordered", "davenport_ordered"), ("weighted", "davenport_weighted"),
                      ("unordered", "davenport_unordered"), ("eg", "eg_invariant")):
        name = f"zerosum.{fn}"
        seconds, states = get(name, "total_s"), attr_sum(name, "states")
        m[f"zerosum.{short}_s"] = seconds
        m[f"zerosum.{short}_states"] = states
        m[f"zerosum.{short}_states_per_s"] = _rate(states, seconds)
    m["zerosum.is_ordered_free_s"] = get("zerosum.is_ordered_free", "total_s")

    oracle_s = get("witnesses.congruence_oracle", "total_s")
    tuples = attr_sum("witnesses.congruence_oracle", "tuples")
    m.update({
        "witnesses.oracle_s": oracle_s,
        "witnesses.oracle_tuples": tuples,
        "witnesses.oracle_tuples_per_s": _rate(tuples, oracle_s),
        "witnesses.witness_for_theorem_s": get("witnesses.witness_for_theorem", "total_s"),
    })

    gets = [s for s in spans if s["name"] == "cache.cache_get"]
    per_1k = [1000 * (s["end"] - s["start"]) / (s["attrs"]["records"] / 1000)
              for s in gets if s["attrs"]["records"]]
    m.update({
        "cache.get_calls": len(gets),
        "cache.get_s": get("cache.cache_get", "total_s"),
        "cache.get_ms_per_1k_records": _rate(sum(per_1k), len(per_1k)),
        "cache.hit_ratio": _rate(sum(s["attrs"]["hit"] for s in gets), len(gets)),
        "cache.put_calls": get("cache.cache_put", "calls"),
        "cache.put_s": get("cache.cache_put", "total_s"),
        "cache.bytes_read_computed": attr_sum("cache.cache_get", "bytes"),
    })

    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    m.update({
        "cli.scan_self_s": get("cli.scan", "self_s"),
        "cli.rows": attr_sum("cli.scan", "rows"),
        "harness.other_s": traced_wall - roots,
        "trace.overhead_frac": overhead_frac,
    })
    return m


def self_time_table(spans: list[dict], traced_wall: float) -> list[tuple[str, float, int]]:
    """(name, self seconds, calls) by descending self time, plus the remainder
    of the traced wall time that no span covers, as 'harness/other'."""
    agg = by_name(spans)
    roots = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    rows = [(name, v["self_s"], v["calls"]) for name, v in agg.items()]
    rows.append(("harness/other", traced_wall - roots, 0))
    return sorted(rows, key=lambda r: -r[1])
