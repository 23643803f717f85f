"""Check that every count metric repeats exactly for a seed.

    python3 perfbench/repeat_check.py --seed 3 --seconds 5

Runs ``run.py`` twice per workload and trace mode with the same seed and
compares the count metrics (everything that is not a time or a memory
size). A count that differs between the two runs is a benchmark bug.
Exits 1 on any difference or failed run.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

TIMED = {"s", "edges/s", "MB"}


def counts(workload: str, seed: int, seconds: str, trace: int) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", str(seed), "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=180,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} trace {trace}: run was not correct")
    return {
        k: m["value"]
        for k, m in result["metrics"].items()
        if m["unit"] not in TIMED and k != "trace.overhead_ratio"
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", default="5")
    args = parser.parse_args()
    bad = 0
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            first = counts(workload, args.seed, args.seconds, trace)
            second = counts(workload, args.seed, args.seconds, trace)
            diff = {k for k in first if first[k] != second.get(k)}
            bad += len(diff)
            print(f"{workload} trace {trace}: {len(first)} counts, "
                  + (f"DIFFER: {sorted(diff)}" if diff else "identical"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
