"""Tests of the benchmark itself, on a tiny configuration.

    python3 -m pytest perfbench -q

They are outside the repository's tier-1 suite (pyproject testpaths) and take
about 20 s.
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

from tracer import TraceWiringError, Tracer  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _tiny(seed: int) -> dict:
    return {
        "grid": {"n": 16, "box_length": 2.0 * math.pi},
        "stepper": {"t_end": 0.3, "sample_every": 0.1},
        "seed": seed,
        "spectrum_peak": 2,
    }


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", ("run", 3, _tiny))
    # reference.json holds only the real workloads; the tiny one is checked
    # for its invariants (status, verdicts, budget gate) alone.
    monkeypatch.setattr(run, "load_reference", lambda workload, seed: {})


def _result(capsys, trace: int) -> dict:
    assert run.main(["--workload", "tiny", "--seconds", "0", "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_REPS
    return result


def test_every_metric_is_emitted_with_its_unit(tiny, capsys):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        metrics = _result(capsys, trace)["metrics"]
        declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {name: m["unit"] for name, m in metrics.items()} == declared
        assert all(isinstance(m["value"], (int, float)) for m in metrics.values())


def test_counts_repeat_exactly_across_traced_runs(tiny, capsys):
    first, second = (_result(capsys, 1)["metrics"] for _ in range(2))
    for name in run.COUNTS:
        assert first[name]["value"] == second[name]["value"] > 0, name


def test_setup_only_repetition_stops_at_the_integrator(tiny, tmp_path):
    rep = run.run_repetition(workloads.spec("tiny", 3), False, tmp_path / "rep", None, setup_only=True)
    assert rep["problems"] == [] and rep["setup_scaled_s"] > 0
    assert "wall_s" not in rep and not (tmp_path / "rep" / "out").exists()


def test_missing_entry_point_fails_loudly():
    tracer = Tracer()
    with pytest.raises(TraceWiringError):
        tracer.install([("cli.run", "tcm2d.cli", "no_such_entry_point")])
    with pytest.raises(TraceWiringError):
        tracer.check_coverage()


def test_reference_tolerance_separates_rounding_from_a_changed_trajectory():
    expected = {"run": {"energy": 1.0, "smallness": 2.0, "X_m": 3.0}}
    rounded = {"run": {k: v * (1 + 1e-14) for k, v in expected["run"].items()}}
    changed = {"run": dict(expected["run"], X_m=3.0 * (1 + 1e-8))}
    assert run.compare_reference(rounded, expected) == []
    assert len(run.compare_reference(changed, expected)) == 1
    assert run.compare_reference({}, expected) == ["run: missing (reference has it)"]


def test_reference_covers_every_workload_seed():
    reference = json.loads(run.REFERENCE.read_text())
    assert set(reference) == set(workloads.WORKLOADS)
    for table in reference.values():
        assert set(table) == {str(seed) for seed in workloads.SEEDS}
