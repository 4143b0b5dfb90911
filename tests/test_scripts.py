"""Smoke tests of the experiment scripts: each runs end to end on tiny arguments."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_decay_rate_sweep(tmp_path):
    out = tmp_path / "rates"
    proc = run_script("decay_rate_sweep.py", "--t-end", "0.2", "--threads", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    rows = (out / "aggregate.csv").read_text().strip().splitlines()
    assert len(rows) == 3  # header + alpha = 0 and 0.5
    cells = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert cells == ["cell_0000__alpha_0", "cell_0001__alpha_0.5"]
    for cell in cells:
        for name in ("manifest.json", "diagnostics.csv", "diagnostics.jsonl", "summary.json"):
            assert (out / cell / name).exists()


def test_stability_experiment(tmp_path):
    out = tmp_path / "stability"
    proc = run_script("stability_experiment.py", "--seeds", "1", "--n", "32", "--t-end", "0.2", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    with open(out / "aggregate.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2  # alpha = 0 and 0.5, seed 1
    assert all((row["status"], row["stability"]) == ("completed", "pass") for row in rows)
    cells = sorted(p.name for p in out.iterdir() if p.is_dir())
    assert cells == ["cell_0000__alpha_0__seed_1", "cell_0001__alpha_0.5__seed_1"]
    for cell in cells:
        for name in ("manifest.json", "diagnostics.csv", "summary.json"):
            assert (out / cell / name).exists()
