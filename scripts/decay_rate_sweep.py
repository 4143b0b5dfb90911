#!/usr/bin/env python3
"""Decay-rate experiment: sweep the u-damping and compare fitted exponents
against the theoretical rate table at gamma = 1.

The box parameters are calibrated so the fit window [t_end/4, 3 t_end/4]
precedes box-gap saturation: large beta slows the slaved temperature branch,
small mu_lower slows the barotropic mode, and the initial spectrum carries a
k^-1 envelope below its peak.

    python scripts/decay_rate_sweep.py --out results/rates
"""

import argparse
import math
from pathlib import Path

from tcm2d.cli import execute_sweep, parse_sweep


def sweep_doc(seed: int, t_end: float, alphas: list[float]) -> dict:
    """The sweep document: one cell per u-damping rate alpha."""
    return {
        "base": {
            "grid": {"n": 64, "box_length": 16 * math.pi},
            "params": {"beta": 8.0, "mu_lower": 0.25, "s": 1.5},
            "stepper": {"t_end": t_end, "sample_every": 1.0},
            "epsilon": 0.01,
            "seed": seed,
            "spectrum_peak": 8,
            "spectrum_slope": 1.0,
            "diagnostics": {"norms": [["u", 1.0], ["v", 1.0], ["theta", 1.0]]},
        },
        "axes": {"alpha": alphas},
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--t-end", type=float, default=100.0)
    ap.add_argument("--threads", type=int, default=2)
    ap.add_argument("--alphas", type=float, nargs="+", default=[0.0, 0.5])
    args = ap.parse_args()

    base, cells, _ = parse_sweep(sweep_doc(args.seed, args.t_end, args.alphas))
    code = execute_sweep(base, cells, args.out, threads=args.threads, quiet=False)
    print((Path(args.out) / "aggregate.csv").read_text())
    raise SystemExit(code)


if __name__ == "__main__":
    main()
