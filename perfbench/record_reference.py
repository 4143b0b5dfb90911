#!/usr/bin/env python3
"""Record the final-sample values that run.py compares every repetition with.

    python3 perfbench/record_reference.py

For each workload and each seed in workloads.SEEDS, runs one untraced
repetition, requires it to pass the invariant checks (status, verdicts,
budget gate) and stores the final energy, smallness and X_m of every run
directory in reference.json, replacing the whole file.  Run it
only at a commit whose trajectories are the accepted reference; a change that
alters a trajectory on purpose re-records and says why.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    table: dict = {}
    workdir = run.OUT_ROOT / f"record_{os.getpid()}"
    try:
        for name in workloads.WORKLOADS:
            for seed in workloads.SEEDS:
                rep = run.run_repetition(workloads.spec(name, seed), False, workdir / f"{name}_{seed}", None)
                if rep["problems"]:
                    print(f"{name} seed {seed}: {rep['problems']}", file=sys.stderr)
                    return 1
                table.setdefault(name, {})[str(seed)] = rep["finals"]
                print(f"{name} seed {seed}: wall {rep['wall_s']:.3f} s", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
