"""Results held within a sweep or across a width loop, against plain evaluation.

sweep_response evaluates an element object that its ladder holds more than
once, as the mirrored second-order stack does, only once.  The strip-width
loop of sweep-w and width_for_bandwidth, synthesis.width_evaluator, holds
more: the ring and spacer product, its b/z, jw and two complex buffers,
formed once per evaluator, into which each width's split kernels
(rl_admittance, TwoPortMatrix.shunt_right, abcd_delta) write.  These tests
check every held result against network_smatrix, which evaluates each
element afresh, bit for bit, count the element evaluations, and bound what
a width allocates.
"""

import json
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsskit import cli, synthesis
from fsskit.analysis import FrequencyGrid, extract_metrics, network_smatrix, sweep_response
from fsskit.builder import (
    DEFAULT_CALIBRATION,
    DEFAULT_GEOMETRY,
    CalibrationConstants,
    CircuitParams,
    LineSegment,
    ShuntBranch,
    build_network,
    params_from_geometry,
)
from fsskit.errors import DomainError, FssError, OneSidedBandError, SingularNetworkError
from fsskit.synthesis import width_evaluator, width_for_bandwidth
from fsskit.twoport import (
    NORMAL,
    IncidenceCondition,
    Polarization,
    TwoPortMatrix,
    abcd_delta,
    abcd_shunt,
    abcd_to_s,
    j_omega,
    rl_admittance,
    shunt_rl_admittance,
    wave_impedance,
)

L1, C1 = 1.61e-9, 0.6e-12
GRID = FrequencyGrid(1e9, 5e9, 2001)
TM40 = IncidenceCondition(math.radians(40.0), Polarization.TM)
LOSSLESS = CalibrationConstants(DEFAULT_CALIBRATION.l_scale, 0.0, 0.0)


def _bits(x) -> bytes:
    return np.ascontiguousarray(x, dtype=complex).tobytes()


def ladder_at(w_mm, geometry=DEFAULT_GEOMETRY, cal=DEFAULT_CALIBRATION, l1=L1, c1=C1):
    params = params_from_geometry(replace(geometry, strip_width=w_mm * 1e-3), cal, l1, c1)
    return build_network(params)


@pytest.fixture
def element_evaluations(monkeypatch):
    """The element of every ShuntBranch.abcd and LineSegment.abcd call, in order."""
    calls = []
    for cls in (ShuntBranch, LineSegment):
        def recording(self, f, inc=NORMAL, *phase, _real=cls.abcd):
            calls.append(self)
            return _real(self, f, inc, *phase)
        monkeypatch.setattr(cls, "abcd", recording)
    return calls


#: (order, mirrored)
LADDERS = {"first": (1, True), "second-mirrored": (2, True), "second": (2, False)}


@pytest.mark.parametrize("inc", [NORMAL, TM40])
@pytest.mark.parametrize("shape", LADDERS.values(), ids=LADDERS)
def test_sweep_evaluates_each_distinct_element_once(shape, inc, element_evaluations):
    order, mirrored = shape
    p = CircuitParams(L=2.85e-9, L1=L1, C1=C1, order=order, h1=10e-3 if order == 2 else None)
    net = build_network(p, mirrored=mirrored)
    curve = sweep_response(net, GRID, inc)
    # each element object once, in ladder order; a second-order stack holds
    # 7 elements, 4 of them distinct
    assert list(map(id, element_evaluations)) == list(dict.fromkeys(map(id, net.elements)))
    assert len(element_evaluations) == (3 if order == 1 else 4)
    want = network_smatrix(net, GRID.points, inc)
    for name in ("s11", "s21", "s22"):
        assert _bits(getattr(curve, name)) == _bits(getattr(want, name)), name


def assert_ring_and_spacer_once(calls, params):
    ring, line, _ = build_network(params).elements
    assert calls == [ring, line]


def test_sweep_w_rows_match_plain_evaluation(tmp_path, element_evaluations):
    widths = [2.2, 0.6, 11.0, 1.4, 0.6, 0.0, 2.6, 1.0]
    doc = {
        "mode": "sweep-w",
        "circuit": {"l1_nh": 1.61, "c1_pf": 0.6},
        "grid": {"f_start_ghz": 1.0, "f_stop_ghz": 5.0, "n_points": 2001},
        "incidence": {"theta_deg": [40], "pol": ["TM"]},
        "sweep": {"w_mm": widths},
    }
    cfg = cli.parse_config(json.dumps(doc))
    summary = cli.run(cfg, out_dir=tmp_path)

    # the ring and the spacer, evaluated once for the first width that builds
    assert_ring_and_spacer_once(element_evaluations, params_from_geometry(
        replace(cfg.geometry, strip_width=0.6e-3), cfg.calibration, cfg.ring_l1, cfg.ring_c1))

    rows, failures = [], []
    for w_mm in sorted(widths):
        try:
            net = ladder_at(w_mm, cfg.geometry, cfg.calibration, cfg.ring_l1, cfg.ring_c1)
            curve = sweep_response(net, cfg.grid, cfg.incidence[0])
            rows.append(dict(w_mm=w_mm, **cli._metrics_dict(extract_metrics(curve))))
        except FssError as exc:
            failures.append({"w_mm": w_mm, "error": str(exc)})

    def hexed(entries):
        return [{k: v.hex() if isinstance(v, float) else v for k, v in e.items()} for e in entries]

    assert hexed(summary["rows"]) == hexed(rows) and len(rows) == 6
    assert summary["failures"] == failures and len(failures) == 2


def test_width_for_bandwidth_matches_plain_evaluation(element_evaluations):
    l1 = 1.0 / ((2 * math.pi * 5.1207263563633e9) ** 2 * C1)  # the shipped synthesize target
    w = width_for_bandwidth(0.25, DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, l1, C1, (0.3e-3, 3.0e-3))
    assert 0.3e-3 < w < 3.0e-3
    # the ring and the spacer, evaluated once for the first width, w_min
    assert_ring_and_spacer_once(element_evaluations, params_from_geometry(
        replace(DEFAULT_GEOMETRY, strip_width=0.3e-3), DEFAULT_CALIBRATION, l1, C1))


# ---------------------------------------------------------------------------
# the width evaluator's held kernels


class HeldKernels:
    """A head closed by a grounded R-L branch, as width_evaluator holds it:
    the head, its b/z, jw and two buffers; s21(r, l) calls the split kernels
    into the buffers in the evaluator's order."""

    def __init__(self, head, f, z_ref):
        self.head, self.z_ref = head, z_ref
        self.bz, self.jw = head.b / z_ref, j_omega(f)
        self.y, self.a = np.empty_like(self.jw), np.empty_like(self.jw)

    def s21(self, r, l):
        y, a = self.y, self.a
        m = self.head.shunt_right(abcd_shunt(rl_admittance(r, l, self.jw, out=y)).c, out=(a, y))
        delta = abcd_delta(m.a, self.bz, np.multiply(m.c, self.z_ref, out=y), m.d, out=a)
        return np.divide(2.0, delta, out=a)


def evaluated_s21(metrics_at, w):
    """The metrics of metrics_at(w), or the FssError it raised, and a copy of the
    s21 it handed to extract_metrics (None if it raised before that)."""
    seen = []

    def recording(curve):
        seen.append(curve.s21.copy())
        return extract_metrics(curve)

    with mock.patch.object(synthesis, "extract_metrics", recording):
        try:
            result = metrics_at(w)
        except FssError as exc:
            result = exc
    return result, seen[0] if seen else None


def outcome(make_s21):
    """The bits of make_s21(), or the type and message of the FssError it raised."""
    try:
        return _bits(make_s21())
    except FssError as exc:
        return type(exc), str(exc)


def plain_s21(params, grid, inc):
    return network_smatrix(build_network(params), grid.points, inc, reflections=False).s21


def evaluator(cal=DEFAULT_CALIBRATION, grid=GRID, inc=NORMAL):
    return width_evaluator(DEFAULT_GEOMETRY, cal, L1, C1, grid, inc)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(
    w=st.floats(0.0, DEFAULT_GEOMETRY.period, exclude_min=True, exclude_max=True),
    theta_deg=st.floats(0.0, 60.0),
    pol=st.sampled_from(Polarization),
    lossy=st.booleans(),
    n=st.sampled_from([2001, 20001]),
)
def test_held_kernel_matches_network_smatrix(w, theta_deg, pol, lossy, n):
    inc = IncidenceCondition(math.radians(theta_deg), pol)
    grid = FrequencyGrid(1e9, 5e9, n)
    cal = DEFAULT_CALIBRATION if lossy else LOSSLESS
    # a first width, so that w is evaluated from what is held
    metrics_at = evaluator(cal, grid, inc)
    evaluated_s21(metrics_at, 1.4e-3)
    result, got = evaluated_s21(metrics_at, w)
    try:
        params = params_from_geometry(replace(DEFAULT_GEOMETRY, strip_width=w), cal, L1, C1)
    except DomainError as exc:
        assert got is None and str(result) == str(exc)
        return
    want = outcome(lambda: plain_s21(params, grid, inc))
    assert (_bits(got) if got is not None else (type(result), str(result))) == want
    # the evaluator's spacer has the default loss tangent; the held kernels also take a lossless one
    for loss_tangent in (0.0009, 0.0):
        p = replace(params, loss_tangent=loss_tangent)
        ring, line, _ = build_network(p).elements
        held = HeldKernels(ring.abcd(grid.points, inc) @ line.abcd(grid.points, inc),
                           grid.points, wave_impedance(inc.theta, inc.polarization))
        assert outcome(lambda: held.s21(p.R, p.L)) == outcome(lambda: plain_s21(p, grid, inc))


@pytest.mark.parametrize("inc", [NORMAL, TM40])
def test_evaluation_order_does_not_change_a_result(inc):
    w1, w2 = 2.2e-3, 0.6e-3
    metrics_at = evaluator(inc=inc)
    got = [evaluated_s21(metrics_at, w) for w in (w1, w2, w1)]
    fresh = [evaluated_s21(evaluator(inc=inc), w) for w in (w1, w2, w1)]
    for (m, s21), (m_fresh, s21_fresh) in zip(got, fresh):
        assert m == m_fresh and _bits(s21) == _bits(s21_fresh)
    assert got[0][0] == got[2][0] != got[1][0]


@pytest.mark.parametrize("bad_mm, error", [(11.0, DomainError), (0.01, OneSidedBandError)])
def test_a_width_that_raises_leaves_the_next_result_as_fresh(bad_mm, error):
    for first in ([], [1.4]):  # the failure before and after anything is held
        metrics_at = evaluator()
        for w_mm in first:
            metrics_at(w_mm * 1e-3)
        with pytest.raises(error):
            metrics_at(bad_mm * 1e-3)
        got = evaluated_s21(metrics_at, 2.6e-3)
        want = evaluated_s21(evaluator(), 2.6e-3)
        assert got[0] == want[0] and _bits(got[1]) == _bits(want[1])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_failed_held_call_leaves_what_is_held():
    ring, line, _ = ladder_at(1.4).elements
    f, z_ref = GRID.points, wave_impedance(0.0, Polarization.TE)
    held = HeldKernels(ring.abcd(f) @ line.abcd(f), f, z_ref)

    def held_bits():
        h = held.head
        return [_bits(x) for x in (h.a, h.b, h.c, h.d, held.bz, held.jw)]

    held_before = held_bits()
    good = ladder_at(2.6).elements[2]
    want = held.s21(good.resistance, good.inductance).copy()
    # with R = 0, jw L underflows to a subnormal, and 1/(jw L) overflows
    with pytest.raises(DomainError, match="^shunt admittance must be finite$"):
        held.s21(0.0, 1e-320)
    with pytest.raises(DomainError, match="RL branch requires"):
        held.s21(0.1, 0.0)
    assert held_bits() == held_before
    fresh = HeldKernels(ring.abcd(f) @ line.abcd(f), f, z_ref)
    assert _bits(held.s21(good.resistance, good.inductance)) == _bits(want)
    assert _bits(fresh.s21(good.resistance, good.inductance)) == _bits(want)


def test_a_singular_delta_is_named_as_abcd_to_s_names_it():
    f, z_ref = GRID.points, wave_impedance(0.0, Polarization.TE)
    zero = TwoPortMatrix(*np.zeros((4, f.size), complex))  # Delta = 0 at every frequency
    with pytest.raises(SingularNetworkError) as held:
        HeldKernels(zero, f, z_ref).s21(0.1, 2.85e-9)
    with pytest.raises(SingularNetworkError) as plain:
        abcd_to_s(zero @ abcd_shunt(shunt_rl_admittance(0.1, 2.85e-9, f)), z_ref, reflections=False)
    assert str(held.value) == str(plain.value) == "singular network: a + b/z + c z + d = 0"


def test_a_width_after_the_first_allocates_under_48_bytes_per_point():
    """Every grid-sized array a width needs is held, apart from what
    extract_metrics forms (about 10-12 B per point)."""
    n = 20001
    metrics_at = evaluator(grid=FrequencyGrid(1e9, 5e9, n))
    metrics_at(1.4e-3)
    tracemalloc.start()
    try:
        metrics_at(2.6e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 48


def test_a_width_allocates_under_16_bytes_per_point():
    """Beyond the buffers, a width forms |s21| (8 B per point), a mask and dB
    on its band alone: its curve holds the evaluator's grid unchecked."""
    n = 20001
    metrics_at = evaluator(grid=FrequencyGrid(1e9, 5e9, n))
    metrics_at(1.4e-3)
    for w in (2.6e-3, 0.3e-3):  # a narrow band and the widest of width_design
        tracemalloc.start()
        try:
            metrics_at(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 16


def test_each_width_curve_holds_the_grid_points():
    grid = FrequencyGrid(1e9, 5e9, 2001)
    with mock.patch.object(synthesis, "extract_metrics", wraps=extract_metrics) as spy:
        evaluator(grid=grid)(1.4e-3)
    assert spy.call_args.args[0].freqs is grid.points


def test_ring_and_spacer_are_evaluated_when_the_evaluator_is_made(element_evaluations):
    evaluator()
    assert_ring_and_spacer_once(
        element_evaluations, params_from_geometry(DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, L1, C1))


def test_ring_and_spacer_are_evaluated_once_per_evaluator(element_evaluations):
    metrics_at = evaluator()
    for w_mm in (11.0, 2.2, 0.6, 0.01, 1.4):
        try:
            metrics_at(w_mm * 1e-3)
        except FssError:
            pass
    assert_ring_and_spacer_once(
        element_evaluations, params_from_geometry(DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, L1, C1))
