"""Self-checks of the davbench harness.

    python3 davbench/selfcheck.py

Checks the self-time arithmetic on a synthetic span tree, the contention
correction on synthetic samples, the correctness gate on hand-made wrong
answers, that a deliberately wrong reference makes a real run fail with a
nonzero exit, that a directory without the davlab source exits nonzero
without a result, and that BENCHMARK.json names the metrics run.py
reports. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import items
import run
import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _span(sid, name, parent, start, end, **attrs):
    return {"id": sid, "name": name, "parent": parent, "start": start, "end": end,
            "attrs": attrs}


def check_self_times() -> None:
    # A [0,10] has children B [1,4] and C [3,6], which overlap, and D [8,12],
    # which outlives A; E [2,3] is a child of B.
    tree = [
        _span(0, "cli.scan", None, 0.0, 10.0, rows=3),
        _span(1, "groups.build", 0, 1.0, 4.0, order=4),
        _span(2, "groups.build", 0, 3.0, 6.0, order=2),
        _span(3, "cache.cache_get", 0, 8.0, 12.0, hit=True, bytes=100, records=2000),
        _span(4, "groups.check_group_axioms", 1, 2.0, 3.0),
        _span(5, "groups.build", None, 13.0, 14.0, order=8),
    ]
    selfs = spans.self_times(tree)
    want = {0: 3.0, 1: 2.0, 2: 3.0, 3: 4.0, 4: 1.0, 5: 1.0}
    assert all(abs(selfs[k] - v) < 1e-12 for k, v in want.items()), selfs
    agg = spans.by_name(tree)
    assert agg["groups.build"]["calls"] == 3
    assert abs(agg["groups.build"]["self_s"] - 6.0) < 1e-12
    m = spans.layer_metrics(tree, traced_wall=20.0, overhead_frac=0.25)
    assert abs(m["harness.other_s"] - 9.0) < 1e-12, m["harness.other_s"]   # 20 - 10 - 1
    assert abs(m["cli.scan_self_s"] - 3.0) < 1e-12
    assert m["cli.rows"] == 3
    assert m["groups.build_calls"] == 3
    assert abs(m["groups.cells_per_s"] - 16 / 6.0) < 1e-12  # only span 1 built a table
    assert abs(m["cache.get_ms_per_1k_records"] - 2000.0) < 1e-9  # 4000 ms at 2k records
    assert abs(m["trace.overhead_frac"] - 0.25) < 1e-12
    assert set(m) == set(run.PER_LAYER), set(m) ^ set(run.PER_LAYER)


def check_correction() -> None:
    q = speed.QUIET_UNIT_S
    sampler = speed.SpeedSampler()
    sampler.starts = [0.0, 0.02, 0.04, 1.0]
    sampler.durations = [2 * q, 2 * q, 5 * q, q]
    assert abs(sampler.slowdown(0.0, 0.04) - 2.0) < 1e-12   # median of samples 0..2
    assert abs(sampler.corrected(0.0, 0.04) - 0.04 / 2) < 1e-12
    assert abs(sampler.corrected(1.0, 1.001) - 0.001) < 1e-12  # nearest sample, quiet
    assert abs(sampler.slowdown(5.0, 6.0) - 2.0) < 1e-12  # no sample near: run median


def check_gate() -> None:
    good = {"value": 9, "exact": True, "witness_len": 8, "witness_free": True}
    assert items.check_search(good, 9) is None
    assert items.check_search(good, 10)
    assert items.check_search(dict(good, witness_free=False), 9)
    assert items.check_search(dict(good, witness_len=7), 9)
    assert items.check_search(dict(good, exact=False, value=18, witness_len=17), 17)
    assert items.check_search(dict(good, exact=False), 17) is None
    row = {"descriptor": "g1[3,1,1,1]", "status": "CONFIRMED", "upper": 9, "lower": 9,
           "exact_value": None}
    assert items.check_scan([{"code": 0, "rows": [row] * items.SCAN_ROWS}])[1] == []
    assert items.check_scan([{"code": 0, "rows": [dict(row, upper=10)] * items.SCAN_ROWS}])[1]
    refuted = dict(row, status="REFUTED")
    assert items.check_scan([{"code": 1, "rows": [refuted] + [row] * 37}])[1] == \
        ["g1[3,1,1,1]: REFUTED"]
    assert len(items.check_scan([{"code": 0, "rows": [row] * 30}])[1]) == 8
    assert items.filler_records(7) == items.filler_records(7)
    assert items.filler_records(7) != items.filler_records(8)


# A real scan_cold run in which the reference of one grid row is shifted by one.
WRONG_REFERENCE_RUN = f"""
import sys
sys.path.insert(0, {str(HERE)!r})
import items, run
closed_form_D = items.closed_form_D
items.closed_form_D = lambda d: closed_form_D(d) + (d == "q[8]")
sys.exit(run.main(["--workload", "scan_cold", "--seed", "1", "--seconds", "1",
                   "--trace", "0"]))
"""


def check_wrong_reference_fails() -> None:
    out = subprocess.run([sys.executable, "-c", WRONG_REFERENCE_RUN],
                         capture_output=True, text=True, timeout=600)
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert out.returncode != 0, out.returncode
    assert last["correct"] is False and last["failed"] > 0 and last["metrics"] == {}, last
    assert "FAILED q[8]: upper" in out.stdout, out.stdout[-2000:]


def check_missing_program_fails() -> None:
    with tempfile.TemporaryDirectory(prefix=".davbench-selfcheck-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "search",
                              "--seed", "1", "--seconds", "1", "--trace", "0"],
                             cwd=tmp, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0 and '"correct"' not in out.stdout, out


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(items.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == \
        {k: v[:2] for k, v in run.PER_LAYER.items()}


def main() -> int:
    checks = [check_self_times, check_correction, check_gate, check_benchmark_json,
              check_missing_program_fails, check_wrong_reference_fails]
    failed = 0
    for check in checks:
        try:
            check()
            print(f"ok   {check.__name__}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc!r}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
