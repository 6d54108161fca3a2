"""tools/op_faults.py: one round of a workload at the benchmark's tiny sizes,
every operation counted by role and mode, its output checked."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("op_faults", ROOT / "tools" / "op_faults.py")
op_faults = importlib.util.module_from_spec(spec)
spec.loader.exec_module(op_faults)


@pytest.mark.parametrize("workload, ops", [
    ("width_design", {"primary sweep-w": 1, "aux synthesize": 2}),
    ("fit_solve", {"primary fit": 2, "aux analyze": 4}),
])
def test_a_tiny_round_counts_each_operation(workload, ops):
    report = op_faults.measure(workload, seed=1, rounds=1, tiny=True)
    assert report["problems"] == []
    assert {name: group["count"] for name, group in report["ops"].items()} == ops
    for group in report["ops"].values():
        assert 0 <= group["faults_p50"] <= group["faults_max"]
        assert 0 < group["ms_p50"] <= group["ms_max"]


def test_rounds_below_one_are_refused(capsys):
    with pytest.raises(SystemExit):
        op_faults.main(["--workload", "width_design", "--rounds", "0"])
    assert "--rounds must be at least 1" in capsys.readouterr().err
