"""Record the sha256 of every workload's input set for seeds 0..31.

    python3 perfbench/record_fingerprints.py

``run.py`` compares its input set against this record whenever the seed is
listed, so a parent commit and a change provably measure identical inputs.
Re-run this only when a generator or workload definition changes.
"""

from __future__ import annotations

import contextlib
import json
import shutil
from pathlib import Path

import run

SEEDS = range(32)


def main() -> None:
    workdir = run.ROOT / ".perfbench_tmp" / "fingerprints"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record = {
            name: {str(seed): run.build_pool(wl, seed, workdir)[2] for seed in SEEDS}
            for name, wl in run.WORKLOADS.items()
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    out = Path(__file__).with_name("fingerprints.json")
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
