"""tools/op_faults.py: one round of a workload at the benchmark's tiny sizes,
every operation counted by role and mode, its output checked, and the bytes
that the process holds after it."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("op_faults", ROOT / "tools" / "op_faults.py")
op_faults = importlib.util.module_from_spec(spec)
spec.loader.exec_module(op_faults)


#: tiny sizes: a 401-point sweep-w and the 2001-point synthesize grid; a fit
#: on 401 points; a simulate on 201 points at 4 angles.  A grid copy takes 8 B
#: per point, a lossy phase 32 and a lossless one 16; spares of None are not pinned
@pytest.mark.parametrize("workload, ops, phases, spares", [
    ("width_design", {"primary sweep-w": 1, "aux synthesize": 2}, (8 + 32) * (401 + 2001), 7 * 16 * (401 + 2001)),
    ("fit_solve", {"primary fit": 2, "aux analyze": 4}, (8 + 32 + 16) * 401, None),
    ("oblique_io", {"primary simulate": 1, "aux analyze": 8}, (8 + 4 * (32 + 16)) * 201, 0),
])
def test_a_tiny_round_counts_each_operation(workload, ops, phases, spares, fresh_phases, monkeypatch):
    monkeypatch.setattr(op_faults.twoport, "_SPARES", {})
    monkeypatch.setattr(op_faults.twoport.HeldArrays, "largest", 0)
    report = op_faults.measure(workload, seed=1, rounds=1, tiny=True)
    assert report["problems"] == []
    assert {name: group["count"] for name, group in report["ops"].items()} == ops
    for group in report["ops"].values():
        assert 0 <= group["faults_p50"] <= group["faults_max"]
        assert 0 < group["ms_p50"] <= group["ms_max"]
    # the spacer, and in a second-order stack the air gap, once per grid and angle;
    # the width evaluators' seven arrays of each grid; a simulate holds no arrays
    held = report["held_bytes"]
    assert held["phases"] == phases
    assert held["spares"] == spares if spares is not None else held["spares"] > 0


def test_rounds_below_one_are_refused(capsys):
    with pytest.raises(SystemExit):
        op_faults.main(["--workload", "width_design", "--rounds", "0"])
    assert "--rounds must be at least 1" in capsys.readouterr().err
