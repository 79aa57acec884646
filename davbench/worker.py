"""One fresh process of a davbench run: a set-up probe, the filler, or a pass.

    python3 worker.py '<json spec>'

The spec names the job ("setup", "fill" or "pass"), the workload, and for
scans and the filler the cache file. A pass runs the workload in this one
process; scans go through davlab.cli.main. davlab is imported from the
PYTHONPATH the harness sets. Stdout is one JSON object; every step of a
pass carries its [start, end] on the system-wide perf_counter clock. With
"trace" set, spans are kept in memory and written to "spans_out" at the
end.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import items

clock = time.perf_counter


def _inputs(workload, parse_descriptor, cache=None):
    """The parsed inputs of one pass (the input-generation part of set-up)."""
    if workload == "search":
        return [(item, parse_descriptor(item[2])) for item in items.SEARCH_ITEMS]
    if workload == "pin_large":
        return [(item, parse_descriptor(item[2])) for item in items.PIN_ITEMS]
    return [items.scan_argv(inv, cache or "") for inv in items.SCAN_INVOCATIONS]


def _search_pass(inputs, groups, zerosum):
    out = []
    for (iid, kind, _, weights, budget, _, _), desc in inputs:
        t0 = clock()
        G = groups.build(desc)
        budget = zerosum.SearchBudget(**budget) if budget else None
        if kind == "ordered":
            res = zerosum.davenport_ordered(G, budget)
        elif kind == "unordered":
            res = zerosum.davenport_unordered(G, budget)
        elif kind == "eg":
            res = zerosum.eg_invariant(G, budget)
        else:
            res = zerosum.davenport_weighted(G, weights, budget)
        t1 = clock()
        out.append(({"id": iid, "kind": kind, "group": G.name, "order": G.order,
                     "value": res.value, "exact": res.exact,
                     "states": res.states_explored, "witness_len": len(res.witness),
                     "steps": {iid: [t0, t1]}}, res.witness, weights))
    return out


def _check_witnesses(results, zerosum):
    """Witness freeness by davlab's verifiers; outside the timed pass."""
    for result, witness, weights in results:
        kind = result["kind"]
        if kind == "ordered":
            free = zerosum.is_ordered_free(witness)
        elif kind == "unordered":
            free = zerosum.is_unordered_free(witness)
        elif kind == "eg":
            free = not zerosum.has_group_length_product_one(witness)
        else:
            free = zerosum.is_weighted_free(witness, weights)
        result["witness_free"] = free
    return [r for r, _, _ in results]


def _pin_pass(inputs, groups, jennings, witnesses, zerosum):
    out = []
    for (iid, kind, _, theorem, _, _), desc in inputs:
        t0 = clock()
        if kind == "oracle":
            ok = witnesses.congruence_oracle(witnesses.congruence_system(desc))
            out.append({"id": iid, "kind": kind, "oracle": ok, "steps": {iid: [t0, clock()]}})
            continue
        G = groups.build(desc)
        t1 = clock()
        L = jennings.loewy_length(G)
        t2 = clock()
        spec = witnesses.witness_for_theorem(desc, theorem)
        seq = spec.sequence(G)
        free = zerosum.is_ordered_free(seq)
        formula = jennings.loewy_formula(desc)
        t3 = clock()
        out.append({"id": iid, "kind": kind, "group": G.name, "order": G.order,
                    "loewy_length": L, "loewy_formula": formula,
                    "witness_free": free, "witness_len": len(seq),
                    "steps": {f"{iid}:build": [t0, t1], f"{iid}:loewy": [t1, t2],
                              f"{iid}:witness": [t2, t3]}})
    return out


def _scan_pass(argvs, cli, tracer):
    docs = []
    for k, argv in enumerate(argvs):
        buf = io.StringIO()
        t0 = clock()
        with contextlib.ExitStack() as stack:
            span = stack.enter_context(tracer.span("cli.scan")) if tracer else None
            stack.enter_context(contextlib.redirect_stdout(buf))
            code = cli.main(argv)
        t1 = clock()
        try:
            doc = json.loads(buf.getvalue())
        except json.JSONDecodeError:
            doc = {"rows": []}
        if span is not None:
            span["attrs"]["rows"] = len(doc["rows"])
        docs.append({"code": code, "rows": doc["rows"], "steps": {f"scan{k}": [t0, t1]}})
    return docs


def main(spec: dict) -> dict:
    job, workload = spec["job"], spec["workload"]
    import davlab.cli as cli
    import davlab.groups as groups
    import davlab.jennings as jennings
    import davlab.witnesses as witnesses
    import davlab.zerosum as zerosum
    from davlab.descriptors import parse_descriptor
    if job == "fill":
        from davlab.cache import ResultRecord, cache_put
        for record in items.filler_records(spec["seed"]):
            cache_put(spec["cache"], ResultRecord(**record))
        return {}
    inputs = _inputs(workload, parse_descriptor, spec.get("cache"))
    if job == "setup":
        import numpy
        return {"python": sys.version.split()[0], "numpy": numpy.__version__}

    tracer = None
    if spec.get("trace"):
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    start = clock()
    if workload == "search":
        raw = _search_pass(inputs, groups, zerosum)
    elif workload == "pin_large":
        results = _pin_pass(inputs, groups, jennings, witnesses, zerosum)
    else:
        results = _scan_pass(inputs, cli, tracer)
    end = clock()
    if tracer is not None:
        tracer.enabled = False
    if workload == "search":
        results = _check_witnesses(raw, zerosum)
    if tracer is not None:
        with open(spec["spans_out"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return {"start": start, "end": end, "results": results}


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
