#!/usr/bin/env python3
"""Stability battery: small-data runs over several seeds, damped and undamped.

The battery is one sweep over alpha in {0, 0.5} and seeds 1..--seeds: one run
directory per (alpha, seed) cell, plus aggregate.csv, whose stability,
sup_over_eps and x2_violations columns carry each cell's verdicts and replace
the former digest.txt.

    python scripts/stability_experiment.py --out results/stability --seeds 5
"""

import argparse
import math
from pathlib import Path

from tcm2d.cli import execute_sweep, parse_sweep


def sweep_doc(seeds: int, n: int, epsilon: float, t_end: float) -> dict:
    """The sweep document: one cell per (alpha, seed)."""
    return {
        "base": {
            "grid": {"n": n, "box_length": 16 * math.pi},
            "params": {"beta": 1.0, "mu_lower": 1.0, "s": 1.5},
            "stepper": {"t_end": t_end, "sample_every": 0.5},
            "epsilon": epsilon,
            "spectrum_peak": 8,
            "diagnostics": {"norms": [["u", 1.0], ["v", 1.0], ["theta", 1.0]]},
        },
        "axes": {"alpha": [0.0, 0.5], "seed": list(range(1, seeds + 1))},
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--n", type=int, default=128)
    ap.add_argument("--epsilon", type=float, default=0.01)
    ap.add_argument("--t-end", type=float, default=20.0)
    args = ap.parse_args()

    base, cells, threads = parse_sweep(sweep_doc(args.seeds, args.n, args.epsilon, args.t_end))
    code = execute_sweep(base, cells, args.out, threads=threads, quiet=False)
    print((Path(args.out) / "aggregate.csv").read_text())
    raise SystemExit(code)


if __name__ == "__main__":
    main()
