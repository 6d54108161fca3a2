"""Ladder-shaped kernels against the general formulas, bit for bit.

A product with a shunt on either side takes an update form, and abcd_to_s
forms b/z and c z once.  The reference below is the general eight-product
chain multiply and the three-sum conversion written out in full; every
final S bit must match it.  The general product computes a*0.0 + b, which
may flip the sign of a zero that the update form keeps, so lossless ladders
(whose lines have ±0 real parts) are part of the grid.  network_smatrix,
which evaluates every element, and sweep_response, which evaluates each
distinct element once, are both checked.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from fsskit.analysis import FrequencyGrid, network_smatrix, sweep_response
from fsskit.builder import (
    DEFAULT_CALIBRATION,
    DEFAULT_GEOMETRY,
    CalibrationConstants,
    CircuitParams,
    LayeredNetwork,
    LineSegment,
    ShuntBranch,
    build_network,
    params_from_geometry,
)
from fsskit.twoport import NORMAL, IncidenceCondition, Polarization, TwoPortMatrix, wave_impedance

L1, C1 = 1.61e-9, 0.6e-12
INCIDENCES = {
    "normal": NORMAL,
    "TM40": IncidenceCondition(math.radians(40.0), Polarization.TM),
    "TE57": IncidenceCondition(math.radians(57.0), Polarization.TE),
}
LOSSLESS = CalibrationConstants(DEFAULT_CALIBRATION.l_scale, 0.0, 0.0)
#: (order, mirrored)
LADDERS = {"first": (1, True), "second-mirrored": (2, True), "second": (2, False)}


def general_product(m, n):
    return TwoPortMatrix(
        a=m.a * n.a + m.b * n.c,
        b=m.a * n.b + m.b * n.d,
        c=m.c * n.a + m.d * n.c,
        d=m.c * n.b + m.d * n.d,
    )


def reference_s(net, f, inc):
    out = None
    for el in net.elements:
        m = el.abcd(f, inc)
        out = m if out is None else general_product(out, m)
    z = wave_impedance(inc.theta, inc.polarization)
    delta = out.a + out.b / z + out.c * z + out.d
    s11 = (out.a + out.b / z - out.c * z - out.d) / delta
    s21 = 2.0 / delta
    s22 = (-out.a + out.b / z - out.c * z + out.d) / delta
    return s11, s21, s22


def _bits(x) -> bytes:
    return np.ascontiguousarray(x, dtype=complex).tobytes()


def assert_same_s(s, want):
    for name, w in zip(("s11", "s21", "s22"), want):
        assert _bits(getattr(s, name)) == _bits(w), name
    assert s.s12 is s.s21


def assert_same_curve(curve, want):
    for name, w in zip(("s11", "s21", "s22"), want):
        assert _bits(getattr(curve, name)) == _bits(w), name


def ladder(w_mm, order, mirrored, lossy):
    cal = DEFAULT_CALIBRATION if lossy else LOSSLESS
    p = replace(
        params_from_geometry(replace(DEFAULT_GEOMETRY, strip_width=w_mm * 1e-3), cal, L1, C1),
        h1=10e-3 if order == 2 else None, order=order,
        loss_tangent=0.0009 if lossy else 0.0,
    )
    return build_network(p, mirrored=mirrored)


@pytest.mark.parametrize("inc", INCIDENCES.values(), ids=INCIDENCES)
@pytest.mark.parametrize("lossy", [True, False], ids=["lossy", "lossless"])
@pytest.mark.parametrize("shape", LADDERS.values(), ids=LADDERS)
def test_width_loop_matches_general_formulas(shape, lossy, inc):
    grid = FrequencyGrid(1e9, 5e9, 2001)
    for w_mm in (2.6, 0.6, 1.4, 0.6):
        net = ladder(w_mm, *shape, lossy)
        want = reference_s(net, grid.points, inc)
        assert_same_s(network_smatrix(net, grid.points, inc), want)
        assert_same_curve(sweep_response(net, grid, inc), want)


@pytest.mark.parametrize("lossy", [True, False], ids=["lossy", "lossless"])
def test_dense_grid_and_scalar_frequency(lossy):
    inc = INCIDENCES["TM40"]
    grid = FrequencyGrid(1e9, 5e9, 20001)
    for w_mm in (1.0, 2.2):
        net = ladder(w_mm, 2, True, lossy)
        want = reference_s(net, grid.points, inc)
        assert_same_s(network_smatrix(net, grid.points, inc), want)
        assert_same_curve(sweep_response(net, grid, inc), want)
    for fk in (1.3e9, 2.7e9):
        assert_same_s(network_smatrix(net, fk, inc), reference_s(net, fk, inc))


@pytest.mark.parametrize("lossy", [True, False], ids=["lossy", "lossless"])
def test_batch_matches_general_formulas(lossy):
    f = FrequencyGrid(1e9, 5e9, 2001).points
    inc = INCIDENCES["TE57"]
    col = np.array([[0.8], [1.0], [1.25]])
    r = 0.1 if lossy else 0.0
    p = CircuitParams(L=2.85e-9 * col, L1=L1 * col[::-1], C1=C1 * col, R=r * col, R1=r,
                      order=2, h1=10e-3, loss_tangent=0.0009 if lossy else 0.0)
    net = build_network(p)
    s = network_smatrix(net, f, inc)
    assert s.s21.shape == (3, f.size)
    assert_same_s(s, reference_s(net, f, inc))


@pytest.mark.parametrize("rows", [False, True], ids=["1-D", "k-rows"])
@pytest.mark.parametrize("lossy", [True, False], ids=["lossy", "lossless"])
def test_shunt_on_the_left_matches_general_formulas(lossy, rows):
    # every ladder starts with a shunt on the left: the ring @ spacer head of
    # the width loop and of simulate, and the first product of a fit model call
    f = FrequencyGrid(1e9, 5e9, 2001).points
    inc = INCIDENCES["TM40"]
    col = np.array([[0.8], [1.0], [1.25]]) if rows else 1.0
    r = 0.1 if lossy else 0.0
    ring = ShuntBranch(r, L1 * col, C1 / col)
    spacer = LineSegment(2.2, 0.254e-3, 0.0009 if lossy else 0.0)
    grid = ShuntBranch(r * col, 2.85e-9 * col)
    gap = LineSegment(1.0, 10e-3)
    line = spacer.abcd(f, inc)
    head = ring.abcd(f, inc) @ line
    assert head.a is line.a and head.b is line.b  # the update form was taken
    for elements in [(ring, spacer), (ring, spacer, grid),
                     (ring, spacer, grid, gap, grid, spacer, ring)]:
        net = LayeredNetwork(elements)
        s = network_smatrix(net, f, inc)
        assert s.s21.shape == ((3, f.size) if rows else (f.size,))
        assert_same_s(s, reference_s(net, f, inc))
