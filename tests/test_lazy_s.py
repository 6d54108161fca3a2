"""s11 and s22 are formed by the caller's choice, with the same bits.

abcd_to_s forms all three arrays, or s21 alone when asked with
reflections=False.  The reference below is the eager conversion as it was
written before, with b/z and c z shared by the three sums; every array
formed must match it bit for bit.  The solvers read only s21, so every S
matrix and every curve they make must come without s11 and s22.  Every
array a curve holds is checked at construction: a curve whose s21 is finite
but whose s11 is not fails there, and simulate fails before any file is
opened.  A curve swept for s21 alone cannot be written as a Touchstone file.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from fsskit import analysis, synthesis
from fsskit.analysis import FrequencyGrid, ResponseCurve, network_smatrix, sweep_response
from fsskit.builder import (
    DEFAULT_CALIBRATION,
    DEFAULT_GEOMETRY,
    CalibrationConstants,
    CircuitParams,
    build_network,
    params_from_geometry,
)
from fsskit.cli import EXIT_COMPUTE, main, parse_config, run
from fsskit.errors import DomainError
from fsskit.synthesis import FitProblem, fit_circuit, width_for_bandwidth
from fsskit.touchstone import write_touchstone
from fsskit.twoport import NORMAL, IncidenceCondition, Polarization, wave_impedance

L1, C1 = 1.61e-9, 0.6e-12
INCIDENCES = {
    "normal": NORMAL,
    "TE40": IncidenceCondition(math.radians(40.0), Polarization.TE),
    "TM57": IncidenceCondition(math.radians(57.0), Polarization.TM),
}
LOSSLESS = CalibrationConstants(DEFAULT_CALIBRATION.l_scale, 0.0, 0.0)
#: (order, mirrored)
LADDERS = {"first": (1, True), "second-mirrored": (2, True), "second": (2, False)}


def eager_s(m, z_ref):
    """abcd_to_s as it formed all three arrays at once."""
    bz = m.b / z_ref
    cz = m.c * z_ref
    delta = m.a + bz + cz + m.d
    s11 = (m.a + bz - cz - m.d) / delta
    s21 = 2.0 / delta
    s22 = (-m.a + bz - cz + m.d) / delta
    return s11, s21, s22


def reference(net, f, inc):
    return eager_s(net.abcd(f, inc), wave_impedance(inc.theta, inc.polarization))


def _bits(x) -> bytes:
    return np.ascontiguousarray(x, dtype=complex).tobytes()


def ladder(order, mirrored, lossy, w_mm=1.4):
    cal = DEFAULT_CALIBRATION if lossy else LOSSLESS
    p = replace(
        params_from_geometry(replace(DEFAULT_GEOMETRY, strip_width=w_mm * 1e-3), cal, L1, C1),
        h1=10e-3 if order == 2 else None, order=order,
        loss_tangent=0.0009 if lossy else 0.0,
    )
    return build_network(p, mirrored=mirrored)


def assert_s21_alone(obj):
    assert obj.s11 is None and obj.s22 is None


@pytest.mark.parametrize("n", [2001, 20001])
@pytest.mark.parametrize("inc", INCIDENCES.values(), ids=INCIDENCES)
@pytest.mark.parametrize("lossy", [True, False], ids=["lossy", "lossless"])
@pytest.mark.parametrize("shape", LADDERS.values(), ids=LADDERS)
def test_formed_arrays_match_eager_formulas(shape, lossy, inc, n):
    net = ladder(*shape, lossy)
    grid = FrequencyGrid(1e9, 5e9, n)
    want11, want21, want22 = reference(net, grid.points, inc)

    s = network_smatrix(net, grid.points, inc)
    assert _bits(s.s11) == _bits(want11)
    assert _bits(s.s21) == _bits(want21)
    assert s.s12 is s.s21
    assert _bits(s.s22) == _bits(want22)

    alone = network_smatrix(net, grid.points, inc, reflections=False)
    assert_s21_alone(alone)
    assert _bits(alone.s21) == _bits(want21)
    assert alone.s12 is alone.s21

    curve = sweep_response(net, grid, inc)
    assert _bits(curve.s11) == _bits(want11)
    assert _bits(curve.s21) == _bits(want21)
    assert _bits(curve.s22) == _bits(want22)


@pytest.mark.parametrize("lossy", [True, False], ids=["lossy", "lossless"])
def test_batch_matches_eager_formulas(lossy):
    f = FrequencyGrid(1e9, 5e9, 2001).points
    inc = INCIDENCES["TE40"]
    col = np.array([[0.8], [1.0], [1.25]])
    r = 0.1 if lossy else 0.0
    p = CircuitParams(L=2.85e-9 * col, L1=L1 * col[::-1], C1=C1 * col, R=r * col, R1=r,
                      order=2, h1=10e-3, loss_tangent=0.0009 if lossy else 0.0)
    net = build_network(p)
    s = network_smatrix(net, f, inc)
    want11, want21, want22 = reference(net, f, inc)
    for got, want in zip((s.s11, s.s21, s.s22), (want11, want21, want22)):
        assert got.shape == (3, f.size)
        assert _bits(got) == _bits(want)
    alone = network_smatrix(net, f, inc, reflections=False)
    assert_s21_alone(alone)
    assert _bits(alone.s21) == _bits(want21)


def test_scalar_frequency_matches_eager_formulas():
    net = ladder(2, True, True)
    inc = INCIDENCES["TM57"]
    s = network_smatrix(net, 2.7e9, inc)
    for name, want in zip(("s11", "s21", "s22"), reference(net, 2.7e9, inc)):
        assert _bits(getattr(s, name)) == _bits(want), name


# ---------------------------------------------------------------------------
# the solvers ask for s21 alone


@pytest.fixture
def smatrices(monkeypatch):
    """Every S matrix that network_smatrix makes, with the reflections flag it asked for."""
    made = []
    convert = analysis.abcd_to_s

    def recording_abcd_to_s(m, z_ref, reflections=True, *arrays):
        s = convert(m, z_ref, reflections, *arrays)
        made.append((reflections, s))
        return s

    monkeypatch.setattr(analysis, "abcd_to_s", recording_abcd_to_s)
    return made


def assert_none_formed(made):
    assert made
    for reflections, s in made:
        assert reflections is False
        assert_s21_alone(s)


@pytest.fixture
def width_curves(monkeypatch):
    """Every curve that the strip-width loop hands to extract_metrics."""
    read = []
    real = synthesis.extract_metrics

    def recording(curve):
        read.append(curve)
        return real(curve)

    monkeypatch.setattr(synthesis, "extract_metrics", recording)
    return read


def test_width_for_bandwidth_forms_no_reflections(width_curves):
    w = width_for_bandwidth(0.25, DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, L1, C1, (0.3e-3, 3e-3))
    assert 0.3e-3 < w < 3e-3
    assert width_curves
    for curve in width_curves:
        assert_s21_alone(curve)


def test_sweep_w_run_forms_no_reflections(width_curves, tmp_path):
    cfg = parse_config(json.dumps({
        "mode": "sweep-w",
        "grid": {"f_start_ghz": 1.0, "f_stop_ghz": 5.0, "n_points": 2001},
        "sweep": {"w_mm": [0.6, 1.4, 2.6]},
    }))
    summary = run(cfg, tmp_path)
    assert len(summary["rows"]) == 3
    assert len(width_curves) == 3
    for curve in width_curves:
        assert_s21_alone(curve)


def test_fit_circuit_forms_no_reflections(smatrices):
    truth = CircuitParams(L=2.85e-9, L1=L1, C1=C1, R=0.1, R1=0.1, h=0.254e-3, eps_r=2.2,
                          order=2, h1=10e-3)
    observed = sweep_response(build_network(truth), FrequencyGrid(1e9, 5e9, 401))
    assert observed.s11 is not None
    smatrices.clear()
    start = {"L": 2.5e-9, "C1": 0.65e-12}
    problem = FitProblem(observed=observed, base=truth, free=tuple(start), initial=start,
                         bounds={k: (v / 4, v * 4) for k, v in start.items()})
    result = fit_circuit(problem)
    assert result.converged
    assert len(smatrices) > 2
    assert_none_formed(smatrices)


def test_simulate_forms_every_s_parameter(smatrices, tmp_path):
    cfg = parse_config(json.dumps({
        "mode": "simulate",
        "circuit": {"order": 2, "l_nh": 2.85},
        "grid": {"n_points": 101},
        "incidence": {"theta_deg": [0, 30], "pol": ["TE", "TM"]},
    }))
    run(cfg, tmp_path)
    assert len(smatrices) == 4
    assert all(reflections is True and s.s11 is not None and s.s22 is not None
               for reflections, s in smatrices)


# ---------------------------------------------------------------------------
# every array is checked at construction

#: A second-order ladder whose 5.08 m lossy spacers overflow near 4.447 GHz:
#: Delta's real part is inf there, so s21 = 2/Delta is 0 while s11 and s22
#: are not finite.  At 30 degrees the spacers are electrically shorter and
#: every sample is finite.
OVERFLOWING = CircuitParams(L=2.85e-9, L1=L1, C1=C1, R=0.1, R1=0.1, h=5.08, eps_r=2.2,
                            order=2, h1=10e-3, loss_tangent=1.0)
OVERFLOW_GRID = FrequencyGrid(4.446e9, 4.448e9, 11)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_s11_raises_at_construction():
    net = build_network(OVERFLOWING)
    with pytest.raises(DomainError, match="^s11 contains non-finite samples$"):
        sweep_response(net, OVERFLOW_GRID)
    s = network_smatrix(net, OVERFLOW_GRID.points)
    assert np.all(np.isfinite(s.s21)) and not np.all(np.isfinite(s.s11))
    with pytest.raises(DomainError, match="^s22 contains non-finite samples$"):
        ResponseCurve(OVERFLOW_GRID.points, np.zeros(11, complex), s.s21, s22=s.s22)
    # formed for s21 alone, as the solvers form it, the same ladder gives a finite curve
    alone = network_smatrix(net, OVERFLOW_GRID.points, reflections=False)
    assert_s21_alone(alone)
    assert _bits(alone.s21) == _bits(s.s21)
    ResponseCurve(OVERFLOW_GRID.points, None, alone.s21)


@pytest.mark.parametrize("name", ["s11", "s21", "s22"])
def test_arrays_given_to_the_constructor_are_checked_there(name):
    arrays = {"s11": np.zeros(3, complex), "s21": np.zeros(3, complex), name: np.array([0, np.inf, 0])}
    with pytest.raises(DomainError, match=f"^{name} contains non-finite samples$"):
        ResponseCurve(np.linspace(1e9, 2e9, 3), **arrays)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_frequency_raises_at_construction(bad):
    with pytest.raises(DomainError, match="^freqs contains non-finite samples$"):
        ResponseCurve(np.array([1e9, 2e9, bad]), None, np.zeros(3, complex))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("csv", ["response.csv", ""], ids=["csv-and-s2p", "s2p-only"])
def test_simulate_with_non_finite_s11_writes_nothing(csv, tmp_path, capsys):
    # the first condition is finite throughout; the second has s11 = nan
    doc = {
        "mode": "simulate",
        "circuit": {"order": 2, "l_nh": 2.85, "h_mm": 5080, "loss_tangent": 1},
        "grid": {"f_start_ghz": 4.446, "f_stop_ghz": 4.448, "n_points": 11},
        "incidence": {"theta_deg": [30.0, 0.0], "pol": ["TE"]},
        "output": {"csv": csv, "touchstone": "response.s2p"},
    }
    config = tmp_path / "run.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["--config", str(config), "--out-dir", str(out)]) == EXIT_COMPUTE
    assert "s11 contains non-finite samples" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_touchstone_writer_rejects_a_curve_of_s21_alone(tmp_path):
    f = FrequencyGrid(1e9, 5e9, 11).points
    curve = ResponseCurve(f, None, network_smatrix(ladder(2, True, True), f, reflections=False).s21)
    path = tmp_path / "alone.s2p"
    with pytest.raises(DomainError, match="holds s21 alone"):
        write_touchstone(curve, path)
    assert not path.exists()


def test_touchstone_writer_rejects_a_curve_without_s22(tmp_path):
    # an asymmetric ladder: s11 does not stand in for s22
    s = sweep_response(ladder(2, False, True), FrequencyGrid(1e9, 5e9, 11), NORMAL)
    assert not np.array_equal(s.s11, s.s22)
    curve = ResponseCurve(s.freqs, s.s11, s.s21)
    path = tmp_path / "no_s22.s2p"
    with pytest.raises(DomainError, match="^a Touchstone file needs s11 and s22; the curve holds no s22$"):
        write_touchstone(curve, path)
    assert not path.exists()
