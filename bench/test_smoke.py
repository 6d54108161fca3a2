"""Self-test of the benchmark at tiny sizes; no timing asserts.

Run from the repository root:  python -m pytest -q bench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    record_line, result_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, record_line
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())

    record = json.loads(record_line)
    assert record["fail_ratio"] == 0
    for key in ("commit", "python", "numpy", "nproc", "seed", "machine_note"):
        assert key in record
    if trace:
        ratio = result["metrics"]["builder.distinct_element_ratio"]["value"]
        if workload == "fit_solve":
            assert ratio == pytest.approx(4 / 7)
        if workload == "width_design":
            assert ratio == 1.0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_reports_missing_targets_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import fsskit
    from fsskit import analysis, builder, twoport
    from tracer import Tracer

    def bindings():
        return {(mod.__name__, k): v for mod in (fsskit, analysis, builder, twoport)
                for k, v in vars(mod).items()} | {
            "matmul": vars(twoport.TwoPortMatrix)["__matmul__"]}

    monkeypatch.delattr(twoport, "abcd_shunt")
    monkeypatch.delattr(twoport, "shunt_rl_admittance")  # one of two admittance targets
    before = bindings()
    tracer = Tracer()
    tracer.install()
    try:
        assert analysis.sweep_response is not before["fsskit.analysis", "sweep_response"]
        net = builder.build_first_order(builder.params_from_geometry(builder.DEFAULT_GEOMETRY))
        with tracer.op(0):
            analysis.sweep_response(net, analysis.FrequencyGrid(1e9, 5e9, 11))
    finally:
        tracer.restore()
    after = bindings()
    assert all(after[k] is v for k, v in before.items())
    assert "fsskit.twoport.abcd_shunt not found" in tracer.absent["twoport.abcd_shunt"]
    assert "twoport.admittance" not in tracer.absent
    agg = tracer.aggregate()
    assert agg["analysis.sweep_response"]["calls"] == 1
    assert agg["builder.element_abcd"]["calls"] == 3
    assert tracer.counters["points"] == 11
