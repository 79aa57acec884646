"""davbench: the davlab benchmark, measured from outside as users drive it.

    python3 davbench/run.py --workload search --seed 1 --seconds 20 --trace 0

Run it from anywhere; it benchmarks the program under src/ of the checkout
that holds this file and exits with code 2, printing no result, when that
source is missing.

Workloads (closed loop, one client, passes back to back):
  search     the reach-state engines of zerosum on small groups;
  pin_large  the search-free route at orders 2048-2187: tables, Jennings
             M-series, witness freeness and the congruence oracles;
  scan_cold  the four acceptance `scan` invocations as subprocesses, each
             pass against a fresh cache file;
  scan_warm  the same invocations against a cache that set-up filled with
             one cold pass and seeded filler records.

Each pass runs in fresh processes, so no in-process cache carries over.
The number of passes follows from the workload and --seconds alone (see
pass_count), never from the speed of the code under test. Every process is
pinned to one CPU next to a speed sampler (speed.py), each step's time is
corrected to the quiet speed of that core, and wall_s is the median of the
corrected pass times; the raw times are printed too.

With --trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 the workload runs once untraced and once traced, each in one
process, and the last line holds the per-layer metrics. A run with any
failed item reports no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import items
import spans
from speed import SpeedSampler, pin_to_one_cpu

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up probes before each pass and after the last: spread over the run, their
# median does not hang on the contention of its first seconds.
PROBES_PER_GAP = 3
MIN_PASSES = 2
# Raw seconds of one pass of each workload on the host where the benchmark
# was defined; only pass_count reads them.
PASS_SECONDS = {"search": 13.0, "pin_large": 13.0, "scan_cold": 7.0, "scan_warm": 6.0}
CHILD_TIMEOUT_S = 150.0

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "exact_count": ("count", "higher"),
}

# name -> (unit, better, the end-to-end figures it should move)
PER_LAYER = {
    "groups.build_calls": ("count", "lower", "pin_large, scan_cold wall_s"),
    "groups.build_self_s": ("s", "lower", "pin_large, scan_cold wall_s; pin_large peak_rss_mb"),
    "groups.check_group_axioms_s": ("s", "lower", "pin_large, scan_cold wall_s"),
    "groups.verify_presentation_s": ("s", "lower", "pin_large, scan_cold wall_s"),
    "groups.cells_per_s": ("1/s", "higher", "pin_large, scan_cold wall_s"),
    "subgroups.commutator_subgroup_calls": ("count", "lower", "pin_large, scan_cold wall_s"),
    "subgroups.commutator_subgroup_s": ("s", "lower", "pin_large, scan_cold wall_s"),
    "subgroups.power_subgroup_s": ("s", "lower", "pin_large, scan_cold wall_s"),
    "subgroups.product_subgroup_s": ("s", "lower", "pin_large, scan_cold wall_s"),
    "jennings.loewy_length_calls": ("count", "lower", "pin_large, scan_cold wall_s"),
    "jennings.loewy_length_self_s": ("s", "lower", "pin_large, scan_cold wall_s"),
    "jennings.series_terms": ("count", "lower", "pin_large, scan_cold wall_s"),
    "zerosum.ordered_s": ("s", "lower", "search wall_s"),
    "zerosum.ordered_states": ("count", "lower", "search wall_s, exact_count, peak_rss_mb"),
    "zerosum.ordered_states_per_s": ("1/s", "higher", "search wall_s; scan_cold a little"),
    "zerosum.weighted_s": ("s", "lower", "search wall_s"),
    "zerosum.weighted_states": ("count", "lower", "search wall_s, peak_rss_mb"),
    "zerosum.weighted_states_per_s": ("1/s", "higher", "search wall_s"),
    "zerosum.unordered_s": ("s", "lower", "search wall_s"),
    "zerosum.unordered_states": ("count", "lower", "search wall_s, peak_rss_mb"),
    "zerosum.unordered_states_per_s": ("1/s", "higher", "search wall_s"),
    "zerosum.eg_s": ("s", "lower", "search wall_s"),
    "zerosum.eg_states": ("count", "lower", "search wall_s, peak_rss_mb"),
    "zerosum.eg_states_per_s": ("1/s", "higher", "search wall_s"),
    "zerosum.is_ordered_free_s": ("s", "lower", "pin_large, scan_cold wall_s"),
    "witnesses.oracle_s": ("s", "lower", "pin_large wall_s"),
    "witnesses.oracle_tuples": ("count", "lower", "pin_large wall_s"),
    "witnesses.oracle_tuples_per_s": ("1/s", "higher", "pin_large wall_s"),
    "witnesses.witness_for_theorem_s": ("s", "lower", "pin_large wall_s"),
    "cache.get_calls": ("count", "lower", "scan_warm wall_s"),
    "cache.get_s": ("s", "lower", "scan_warm wall_s (scan_cold unchanged)"),
    "cache.get_ms_per_1k_records": ("ms", "lower", "scan_warm wall_s"),
    "cache.hit_ratio": ("ratio", "higher", "scan_warm wall_s"),
    "cache.put_calls": ("count", "lower", "scan_cold wall_s"),
    "cache.put_s": ("s", "lower", "scan_cold wall_s"),
    "cache.bytes_read_computed": ("B", "lower", "scan_warm wall_s"),
    "cli.scan_self_s": ("s", "lower", "scan_cold, scan_warm wall_s"),
    "cli.rows": ("count", "higher", "none (row count of the scans)"),
    "harness.other_s": ("s", "lower", "none (time outside every span)"),
    "trace.overhead_frac": ("ratio", "lower", "none (traced against untraced wall)"),
}


class ProgramMissing(Exception):
    """The checkout holds no davlab source that imports."""


class Child:
    """A finished child process: exit code, output, clock interval, peak RSS."""

    def __init__(self, code, out, err, start, end, rss_mb):
        self.code, self.out, self.err = code, out, err
        self.start, self.end, self.rss_mb = start, end, rss_mb


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("DAVLAB_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(cmd: list[str], work: Path) -> Child:
    """Run cmd to completion; wait4 gives this one process's peak RSS."""
    with tempfile.TemporaryFile(dir=work) as out, tempfile.TemporaryFile(dir=work) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=work, env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read().decode(), err.read().decode(),
                     start, end, usage.ru_maxrss / 1024)


def worker(spec: dict, work: Path) -> tuple[dict | None, Child]:
    child = spawn([sys.executable, str(HERE / "worker.py"), json.dumps(spec)], work)
    if child.code != 0:
        sys.stderr.write(child.err[-4000:])
        return None, child
    return json.loads(child.out.strip().splitlines()[-1]), child


def cli_scan(cache: Path, work: Path) -> tuple[list[dict], float]:
    """One pass of the four scans as user processes: docs and peak RSS."""
    docs, rss = [], 0.0
    for k, inv in enumerate(items.SCAN_INVOCATIONS):
        child = spawn([sys.executable, "-m", "davlab.cli", *items.scan_argv(inv, str(cache))],
                      work)
        rss = max(rss, child.rss_mb)
        try:
            rows = json.loads(child.out)["rows"]
        except (json.JSONDecodeError, KeyError):
            sys.stderr.write(child.err[-4000:])
            rows = []
        docs.append({"code": child.code, "rows": rows,
                     "steps": {f"scan{k}": [child.start, child.end]}})
    return docs, rss


# --- one pass of each workload ------------------------------------------------------

class Pass:
    """Outcome of one pass: step intervals, memory, answers and failures."""

    def __init__(self, results, rss_mb, attempted, failures, exact, table_cells=0,
                 cache_bytes=0):
        self.results, self.rss_mb = results, rss_mb
        self.steps = {name: tuple(iv) for r in results for name, iv in r["steps"].items()}
        self.attempted, self.failures, self.exact = attempted, failures, exact
        self.table_cells, self.cache_bytes = table_cells, cache_bytes
        self.start = min((s for s, _ in self.steps.values()), default=0.0)
        self.end = max((e for _, e in self.steps.values()), default=0.0)

    def raw(self) -> float:
        return sum(e - s for s, e in self.steps.values())


def judge_items(workload: str, results: list[dict]) -> tuple[int, list[str], int]:
    """Attempted, failures and exact count of a search or pin_large pass."""
    defs = items.SEARCH_ITEMS if workload == "search" else items.PIN_ITEMS
    refs = items.references(workload)
    check = items.check_search if workload == "search" else items.check_pin
    failures = []
    for r in results:
        why = check(r, refs[r["id"]])
        if why:
            failures.append(f"{r['id']}: {why}")
    failures += ["missing item"] * (len(defs) - len(results))
    if workload == "search":
        return len(defs), failures, sum(r["exact"] for r in results)
    return len(defs), failures, len(results) - len(failures)


class Workload:
    """Set-up and passes of one workload inside one work directory."""

    def __init__(self, name: str, seed: int, work: Path):
        self.name, self.seed, self.work = name, seed, work
        self.scan = name.startswith("scan")
        self.cold_rows = None
        self.warm_cache = work / "warm.jsonl"
        self.setup_steps: list[tuple[float, float]] = []
        self.setup_failures: list[str] = []
        self.caches = 0

    def cache(self) -> Path:
        """The warm cache for scan_warm, a fresh file for each scan_cold pass."""
        if self.name == "scan_warm":
            return self.warm_cache
        self.caches += 1
        return self.work / f"cold-{self.caches}.jsonl"

    def prepare(self) -> None:
        """Workload-specific set-up: one cold pass and the filler for scan_warm."""
        if self.name != "scan_warm":
            return
        docs, _ = cli_scan(self.warm_cache, self.work)
        self.cold_rows, failures = items.check_scan(docs)
        res, child = worker({"job": "fill", "workload": self.name, "seed": self.seed,
                             "cache": str(self.warm_cache)}, self.work)
        if res is None:
            failures.append("filler could not be written")
        self.setup_steps = [tuple(iv) for d in docs for iv in d["steps"].values()]
        self.setup_steps.append((child.start, child.end))
        self.setup_failures = failures

    def judge_scan(self, docs, cache: Path, size_before: int, rss_mb: float) -> Pass:
        rows, failures = items.check_scan(docs)
        size_after = cache.stat().st_size if cache.exists() else 0
        cells = 0
        if self.name == "scan_warm":
            if not all(r["cached"] for r in rows):
                failures.append("a warm row was not served from the cache")
            if [items.strip_row(r) for r in rows] != [items.strip_row(r)
                                                      for r in self.cold_rows]:
                failures.append("warm rows differ from the cold rows")
            if size_after != size_before:
                failures.append("the warm pass wrote to the cache")
        else:
            cells = sum(r["order"] ** 2 for r in rows)
        return Pass(docs, rss_mb, max(items.SCAN_ROWS, len(rows)), failures,
                    sum(r["status"] == "CONFIRMED" for r in rows), cells, size_after)

    def run_pass(self, inprocess: bool = False, trace: bool = False) -> Pass:
        """One pass: scans as user processes unless `inprocess`; search and
        pin_large always run in one worker process."""
        cache = self.cache() if self.scan else None
        size_before = cache.stat().st_size if cache and cache.exists() else 0
        if self.scan and not inprocess:
            docs, rss = cli_scan(cache, self.work)
            return self.judge_scan(docs, cache, size_before, rss)
        spec = {"job": "pass", "workload": self.name, "cache": cache and str(cache)}
        if trace:
            spec.update(trace=True, spans_out=str(self.work / "spans.json"))
        res, child = worker(spec, self.work)
        results = res["results"] if res else []
        if self.scan:
            done = self.judge_scan(results, cache, size_before, child.rss_mb)
        else:
            attempted, failures, exact = judge_items(self.name, results)
            cells = sum({r["group"]: r["order"] ** 2 for r in results
                         if "order" in r}.values())
            done = Pass(results, child.rss_mb, attempted, failures, exact, cells)
        if res:
            done.start, done.end = res["start"], res["end"]
        return done


# --- run record and report -------------------------------------------------------------

def _cache_size(level: int) -> str | None:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            kind = (index / "type").read_text().strip()
            if int((index / "level").read_text()) == level and kind != "Instruction":
                return (index / "size").read_text().strip()
    except OSError:
        pass
    return None


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_record(versions: dict, cpu: int) -> dict:
    return {
        "python": versions.get("python"),
        "numpy": versions.get("numpy"),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "l2": _cache_size(2),
        "l3": _cache_size(3),
        "git_commit": _git_commit(),
    }


def print_baseline(workload: str, last: Pass, spans_list=None) -> None:
    """The figures of the ROADMAP Baseline section this workload yields."""
    lines = []
    for r in last.results:
        steps = {k.split(":")[-1]: e - s for k, (s, e) in r["steps"].items()}
        if r.get("id") in ("D:q[24]", "D:d[32]", "D:q[32]"):
            lines.append(f"davenport_ordered {r['group']}: {r['states']} states, "
                         f"{sum(steps.values()):.3f} s raw, exact={r['exact']}")
        elif r.get("kind") == "pin":
            lines.append(f"{r['group']}: build {steps['build']:.3f} s, "
                         f"loewy_length {steps['loewy']:.3f} s (raw)")
    gets = [s for s in spans_list or () if s["name"] == "cache.cache_get"]
    if gets:
        records = max(s["attrs"]["records"] for s in gets)
        ms = 1000 * sum(s["end"] - s["start"] for s in gets) / len(gets)
        lines.append(f"cache_get: {ms:.2f} ms per lookup at {records} records "
                     f"({len(gets)} lookups, raw)")
    for line in lines:
        print(f"baseline[{workload}]: {line}")


def result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def probe_setup(wl: Workload, versions: dict) -> Child:
    """Start an interpreter, import davlab and make the inputs."""
    res, child = worker({"job": "setup", "workload": wl.name}, wl.work)
    if res is None:
        raise ProgramMissing("davlab does not import from src/")
    versions.update(res)
    return child


def pass_count(workload: str, seconds: float) -> int:
    """Passes of one run: as many as fill --seconds at the defining host's
    speed, so every commit is measured over the same number of passes."""
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


def measure(args, wl: Workload, versions: dict) -> tuple[list[Pass], dict]:
    """pass_count passes with set-up probes around them; end-to-end metrics."""
    with SpeedSampler() as sampler:
        probe_setup(wl, versions)  # unmeasured: fills the OS file cache
        wl.prepare()
        probes: list[Child] = []
        passes: list[Pass] = []
        for _ in range(pass_count(wl.name, args.seconds)):
            probes += [probe_setup(wl, versions) for _ in range(PROBES_PER_GAP)]
            passes.append(wl.run_pass())
            if passes[-1].failures or wl.setup_failures:
                return passes, {}
        probes += [probe_setup(wl, versions) for _ in range(PROBES_PER_GAP)]
    fix = sampler.corrected
    workload_setup = sum(fix(s, e) for s, e in wl.setup_steps)
    corrected = [sum(fix(s, e) for s, e in p.steps.values()) for p in passes]
    metrics = {
        "wall_s": statistics.median(corrected),
        "setup_s": statistics.median(fix(c.start, c.end) for c in probes) + workload_setup,
        "peak_rss_mb": max(p.rss_mb for p in passes),
        "exact_count": statistics.median_low(p.exact for p in passes),
    }
    print(f"passes: {len(passes)}; raw s per pass: "
          + ", ".join(f"{p.raw():.4f}" for p in passes)
          + "; corrected s per pass: " + ", ".join(f"{c:.4f}" for c in corrected)
          + "; slowdown per pass: "
          + ", ".join(f"{sampler.slowdown(p.start, p.end):.3f}" for p in passes)
          + f"; fastest unit {1e6 * min(sampler.durations):.1f} us")
    print("setup probes raw s: " + ", ".join(f"{c.end - c.start:.4f}" for c in probes)
          + f"; workload set-up corrected {workload_setup:.4f} s")
    return passes, metrics


def trace_run(wl: Workload, versions: dict) -> tuple[list[Pass], dict, list[dict]]:
    """The workload once untraced and once traced, each in one process."""
    with SpeedSampler() as sampler:
        probe_setup(wl, versions)
        wl.prepare()
        plain = wl.run_pass(inprocess=True)
        traced = wl.run_pass(inprocess=True, trace=True)
    if plain.failures or traced.failures or wl.setup_failures:
        return [plain, traced], {}, []
    with open(wl.work / "spans.json", encoding="utf-8") as fh:
        recorded = json.load(fh)
    overhead = (sampler.corrected(traced.start, traced.end)
                / sampler.corrected(plain.start, plain.end) - 1)
    traced_wall = traced.end - traced.start
    metrics = spans.layer_metrics(recorded, traced_wall, overhead)
    print(f"in-process pass raw: untraced {plain.end - plain.start:.4f} s, "
          f"traced {traced_wall:.4f} s")
    print("self time by span (traced pass, raw):")
    for name, seconds, calls in spans.self_time_table(recorded, traced_wall):
        print(f"  {name:<40} {seconds:9.4f} s {100 * seconds / traced_wall:6.1f}%"
              f"  {calls} calls")
    return [plain, traced], metrics, recorded


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=items.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "davlab" / "__init__.py").is_file():
        print(f"error: no davlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    cpu = pin_to_one_cpu()
    versions: dict = {}
    with tempfile.TemporaryDirectory(prefix=".davbench-", dir=ROOT) as tmp:
        wl = Workload(args.workload, args.seed, Path(tmp))
        try:
            if args.trace:
                passes, metrics, recorded = trace_run(wl, versions)
                units = {k: v[0] for k, v in PER_LAYER.items()}
            else:
                passes, metrics = measure(args, wl, versions)
                recorded = None
                units = {k: v[0] for k, v in END_TO_END.items()}
        except ProgramMissing as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        failures = wl.setup_failures + [f for p in passes for f in p.failures]
        attempted = sum(p.attempted for p in passes)
        failed = min(len(failures), attempted)
        last = passes[-1]
        record = dict(run_record(versions, cpu), workload=args.workload, seed=args.seed,
                      seconds=args.seconds, trace=args.trace, passes=len(passes),
                      table_bytes_computed=8 * last.table_cells,
                      cache_file_bytes=last.cache_bytes)
        print("record: " + json.dumps(record, sort_keys=True))
        print(f"fail_rate: {failed / attempted:.4f} ({failed} of {attempted})")
        for why in failures[:20]:
            print(f"FAILED {why}")
        if failed:
            print(result_line(False, attempted, failed, {}))
            return 1
        print_baseline(args.workload, last, recorded)
        for name, value in metrics.items():
            moves = f"  (should move: {PER_LAYER[name][2]})" if args.trace else ""
            print(f"{name}: {value:.6g} {units[name]}{moves}")
        print(result_line(True, attempted, 0, {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
