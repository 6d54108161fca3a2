"""What the incidence conditions of one sweep share, against one sweep per condition.

analysis.sweep_conditions evaluates a shunt branch once per call, a line's
phase once per angle and a line's matrix once per condition; simulate makes
one such call for all its conditions.  These tests check its curves against
one sweep_response, and one network_smatrix, per condition bit for bit,
count the kernel calls, and check that the first error raised is the one
that a sweep per condition raises first.
"""

import contextlib
import io
import json
import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsskit import builder, cli, twoport
from fsskit.analysis import FrequencyGrid, ResponseCurve, network_smatrix, sweep_conditions, sweep_response
from fsskit.builder import CircuitParams, build_network
from fsskit.errors import FssError
from fsskit.twoport import IncidenceCondition, Polarization

TE, TM = Polarization.TE, Polarization.TM
#: radians; drawn with repeats, so conditions share angles
ANGLES = (0.0, 0.3, 0.7, 1.2, 1.5)


def _bits(x) -> bytes:
    return np.ascontiguousarray(x, dtype=complex).tobytes()


def _outcome(sweep):
    """The curves' incidences and S bits, or the type and text of the error raised."""
    try:
        curves = sweep()
    except FssError as exc:
        return type(exc).__name__, str(exc)
    return [(c.incidence, _bits(c.freqs), _bits(c.s11), _bits(c.s21), _bits(c.s22)) for c in curves]


def _fresh(net, grid, inc) -> ResponseCurve:
    """A curve whose every element is evaluated afresh, its repeats included."""
    s = network_smatrix(net, grid.points, inc)
    return ResponseCurve(freqs=grid.points, s11=s.s11, s21=s.s21, incidence=inc, s22=s.s22)


circuits = st.fixed_dictionaries({
    "L": st.floats(1e-9, 6e-9),
    "L1": st.floats(0.5e-9, 3e-9),
    "C1": st.floats(0.2e-12, 1.2e-12),
    "R": st.sampled_from([0.0, 0.1]),
    "R1": st.sampled_from([0.0, 0.1]),
    "h": st.sampled_from([0.0, 0.254e-3]) | st.floats(1e-5, 2e-3),
    "eps_r": st.floats(0.2, 12.0),  # under 1, the larger angles are evanescent
    "loss_tangent": st.sampled_from([0.0, 0.0009]) | st.floats(0.0, 0.05),
    "order": st.sampled_from([1, 2]),
    "h1": st.floats(0.0, 20e-3),
})
conditions = st.lists(
    st.builds(IncidenceCondition, st.sampled_from(ANGLES), st.sampled_from([TE, TM])),
    min_size=1, max_size=6,
)


@settings(max_examples=150, deadline=None)
@given(circuit=circuits, mirrored=st.booleans(), conds=conditions, n=st.integers(2, 40))
@example(circuit=dict(L=2.85e-9, L1=1.61e-9, C1=0.6e-12, R=0.1, R1=0.1, h=0.254e-3, eps_r=2.2,
                      loss_tangent=0.0009, order=2, h1=10e-3),
         mirrored=False, n=11,
         conds=[IncidenceCondition(0.0, TE), IncidenceCondition(0.0, TM), IncidenceCondition(0.7, TM),
                IncidenceCondition(0.7, TE), IncidenceCondition(0.7, TM)])
@example(circuit=dict(L=2.85e-9, L1=1.61e-9, C1=0.6e-12, R=0.1, R1=0.1, h=0.0, eps_r=2.2,
                      loss_tangent=0.0, order=1, h1=None),
         mirrored=True, n=11, conds=[IncidenceCondition(0.0, TM), IncidenceCondition(1.2, TM)])
@example(circuit=dict(L=2.85e-9, L1=1.61e-9, C1=0.6e-12, R=0.1, R1=0.1, h=0.254e-3, eps_r=0.3,
                      loss_tangent=0.0009, order=2, h1=10e-3),
         mirrored=True, n=11, conds=[IncidenceCondition(0.3, TE), IncidenceCondition(0.7, TM)])
def test_shared_sweep_has_the_bits_and_first_error_of_one_sweep_per_condition(circuit, mirrored, conds, n):
    if circuit["order"] == 1:
        circuit = {**circuit, "h1": None}
    net = build_network(CircuitParams(**circuit), mirrored=mirrored)
    grid = FrequencyGrid(1e9, 5e9, n)
    shared = _outcome(lambda: sweep_conditions(net, grid, conds))
    assert shared == _outcome(lambda: [sweep_response(net, grid, inc) for inc in conds])
    assert shared == _outcome(lambda: [_fresh(net, grid, inc) for inc in conds])


def test_each_curve_holds_the_grid_points_unchecked():
    net = build_network(CircuitParams(L=2.85e-9, L1=1.61e-9, C1=0.6e-12, order=2, h1=10e-3))
    grid = FrequencyGrid(1e9, 5e9, 101)
    # the grid checked that its points increase when it was made
    with mock.patch.object(np, "diff", side_effect=AssertionError("grid points checked again")):
        curves = sweep_conditions(net, grid, [IncidenceCondition(0.3, TE), IncidenceCondition(0.3, TM)])
        curves.append(sweep_response(net, grid))
    assert all(curve.freqs is grid.points for curve in curves)


STUDY = {
    "mode": "simulate",
    "circuit": {"order": 2, "l_nh": 2.85, "h1_mm": 10.0},
    "grid": {"n_points": 201},
    "incidence": {"theta_deg": [0, 15, 30, 45], "pol": ["TE", "TM"]},
}


@contextlib.contextmanager
def kernel_calls():
    """Calls of each kernel that a ladder's elements evaluate, by name; abcd_tline,
    which the builder does not import, is spied on in twoport."""
    names = ("rlc_admittance", "rl_admittance", "tline_phase", "tline_matrix", "abcd_tline")
    spies = {name: mock.patch.object(twoport if name == "abcd_tline" else builder, name,
                                     wraps=getattr(twoport, name)) for name in names}
    with contextlib.ExitStack() as stack:
        yield {name: stack.enter_context(spy) for name, spy in spies.items()}


def test_simulate_evaluates_each_shunt_branch_once_and_each_line_phase_once_per_angle(tmp_path, fresh_phases):
    cfg = cli.parse_config(json.dumps(STUDY))
    with kernel_calls() as calls:
        cli.run(cfg, tmp_path)
    # ring and grid; spacer and air gap at 4 angles; their matrices at 8 conditions
    assert calls["rlc_admittance"].call_count == 1
    assert calls["rl_admittance"].call_count == 1
    assert calls["tline_phase"].call_count == 2 * 4
    assert calls["tline_matrix"].call_count == 2 * 8
    assert calls["abcd_tline"].call_count == 0

    net = build_network(cfg.circuit, mirrored=cfg.mirrored)
    again = (cfg.incidence[5], IncidenceCondition(cfg.incidence[2].theta, TM), cfg.incidence[0])
    fresh_phases.clear()  # the run above holds every phase of the grid
    with kernel_calls() as calls:
        sweep_conditions(net, cfg.grid, cfg.incidence + again)
    # a line's matrix is formed again for each condition, from its held phase
    assert [calls[name].call_count for name in calls] == [1, 1, 2 * 4, 2 * (8 + 3), 0]


def test_te_and_tm_at_one_angle_share_a_phase_too_large_to_hold(fresh_phases, monkeypatch):
    """With nothing held, a work keeps each line's phase until the angle
    changes: spacer and air gap once at 30 degrees, as within the budget."""
    net = build_network(CircuitParams(L=2.85e-9, L1=1.61e-9, C1=0.6e-12, order=2, h1=10e-3))
    conds = [IncidenceCondition(math.radians(30), TE), IncidenceCondition(math.radians(30), TM)]
    counts = []
    for budget in (twoport.HELD_BUDGET, 0):
        monkeypatch.setattr(twoport, "HELD_BUDGET", budget)
        fresh_phases.clear()
        with kernel_calls() as calls:
            sweep_conditions(net, FrequencyGrid(1e9, 5e9, 201), conds)
        counts.append(calls["tline_phase"].call_count)
        assert not fresh_phases or budget
    assert counts == [2, 2]


def test_an_evanescent_second_angle_exits_3_with_the_first_error_and_writes_nothing(tmp_path):
    doc = {**STUDY, "circuit": {"l_nh": 2.85, "eps_r": 0.3},
           "incidence": {"theta_deg": [10, 40], "pol": ["TE", "TM"]},
           "output": {"csv": "r.csv", "touchstone": "r.s2p"}}
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(["--config", str(config), "--out-dir", str(tmp_path / "out")])
    assert code == cli.EXIT_COMPUTE
    s2 = math.sin(math.radians(40)) ** 2
    assert err.getvalue() == (
        f"computation error: no propagating mode: eps_r = 0.3 <= sin^2(theta) = {s2:.6f} "
        f"at theta = {math.radians(40):.6f} rad\n")
    assert list((tmp_path / "out").iterdir()) == []
