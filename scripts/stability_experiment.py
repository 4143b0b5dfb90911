#!/usr/bin/env python3
"""Stability battery: small-data runs over several seeds, damped and undamped.

Writes one run directory per (alpha, seed) cell plus a short text digest of
the stability and monotonicity verdicts.

    python scripts/stability_experiment.py --out results/stability --seeds 5
"""

import argparse
import math
from pathlib import Path

from tcm2d.cli import execute_run, parse_run_config


def run_doc(alpha: float, seed: int, n: int, epsilon: float, t_end: float) -> dict:
    """The run document of one (alpha, seed) cell."""
    return {
        "grid": {"n": n, "box_length": 16 * math.pi},
        "params": {"alpha": alpha, "beta": 1.0, "mu_lower": 1.0, "s": 1.5},
        "stepper": {"t_end": t_end, "sample_every": 0.5},
        "epsilon": epsilon,
        "seed": seed,
        "spectrum_peak": 8,
        "diagnostics": {"norms": [["u", 1.0], ["v", 1.0], ["theta", 1.0]]},
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--n", type=int, default=128)
    ap.add_argument("--epsilon", type=float, default=0.01)
    ap.add_argument("--t-end", type=float, default=20.0)
    args = ap.parse_args()

    root = Path(args.out)
    digest = []
    for alpha in (0.0, 0.5):
        for seed in range(1, args.seeds + 1):
            doc = run_doc(alpha, seed, args.n, args.epsilon, args.t_end)
            out = root / f"alpha_{alpha:g}__seed_{seed}"
            res = execute_run(parse_run_config(doc), out, quiet=False)
            s = res.summary
            digest.append(
                f"alpha={alpha:g} seed={seed}: {s['status']}, "
                f"stability={s['stability']['verdict']} "
                f"(sup {s['stability']['sup_norm_sum']:.4e}), "
                f"x2={s['x2_monotonicity']['verdict']}"
            )
    (root / "digest.txt").write_text("\n".join(digest) + "\n")
    print("\n".join(digest))


if __name__ == "__main__":
    main()
