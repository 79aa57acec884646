"""Regenerate the figures of the ROADMAP "Baseline" section in one command.

    python3 davbench/baseline.py [--seed N]

Runs search and pin_large untraced and scan_warm traced, each for the
shortest run the harness allows, and prints the states of q[24], d[32] and
the q[32] rung, the split between build and loewy_length at order
2048-2187, and the milliseconds per cache lookup at the filler size.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUNS = [("search", 0), ("pin_large", 0), ("scan_warm", 1)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    status = 0
    for workload, trace in RUNS:
        out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                              "--seed", str(args.seed), "--seconds", "1",
                              "--trace", str(trace)], capture_output=True, text=True)
        lines = [l for l in out.stdout.splitlines()
                 if l.startswith(("baseline[", "record:", "fail_rate:"))]
        print("\n".join(lines))
        if out.returncode != 0:
            print(f"{workload}: run failed with exit code {out.returncode}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
