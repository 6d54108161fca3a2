"""Geometry-to-circuit mapping and ladder assembly."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fsskit.analysis import FrequencyGrid, sweep_response, zero_freq
from fsskit.builder import (
    DEFAULT_CALIBRATION,
    DEFAULT_GEOMETRY,
    CalibrationConstants,
    CircuitParams,
    GeometryParams,
    LayeredNetwork,
    LineSegment,
    ShuntBranch,
    build_first_order,
    build_network,
    build_second_order,
    calibrate_inductance_scale,
    grid_inductance,
    grid_resistance,
    grid_width,
    params_from_geometry,
)
from fsskit.errors import DomainError
from fsskit.twoport import NORMAL, abcd_shunt, abcd_to_s, cascade, shunt_rl_admittance, wave_impedance

# Reference cell: 10.2 mm period, 2.6 mm strips, calibrated to 2.85 nH / 0.1 ohm.
K_L = 3.024971189784066e-9
REFERENCE_VALUES = dict(L=2.85e-9, L1=1.61e-9, C1=0.6e-12, h=0.254e-3, eps_r=2.2)


class TestGridLaws:
    def test_calibrated_anchor(self):
        assert calibrate_inductance_scale(2.6e-3, 10.2e-3, 2.85e-9) == pytest.approx(K_L, rel=1e-12)
        assert grid_inductance(2.6e-3, 10.2e-3, K_L) == pytest.approx(2.85e-9, rel=1e-6)

    def test_narrow_strip_value(self):
        # ln(1/sin(pi * 1.0 / 20.4)) = 1.87476 with the calibrated scale
        assert grid_inductance(1.0e-3, 10.2e-3, K_L) == pytest.approx(5.671097385292351e-9, rel=1e-9)

    def test_inductance_vanishes_at_full_width(self):
        assert grid_inductance(10.2e-3 * (1 - 1e-12), 10.2e-3, K_L) < 1e-18

    def test_calibration_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            w = float(rng.uniform(0.05, 0.95)) * 10.2e-3
            l_ref = float(rng.uniform(0.1, 20)) * 1e-9
            k = calibrate_inductance_scale(w, 10.2e-3, l_ref)
            assert grid_inductance(w, 10.2e-3, k) == pytest.approx(l_ref, rel=1e-12)

    def test_half_period_calibration(self):
        # ln(1/sin(pi/4)) = 0.34657...
        assert calibrate_inductance_scale(5.1e-3, 10.2e-3, 1e-9) == pytest.approx(
            2.8853900817779268e-9, rel=1e-12
        )

    @pytest.mark.parametrize("period, scale", [(10.2e-3, K_L), (3.0e-3, 1e-9), (25e-3, 7.5e-9)])
    def test_grid_width_inverts_grid_inductance(self, period, scale):
        # above 0.999 period, L ~ (period - w)^2 and one ulp of w moves L by more than 1e-12
        for w in np.random.default_rng(5).uniform(0.0, 0.999, 500) * period:
            l = grid_inductance(w, period, scale)
            assert grid_inductance(grid_width(l, period, scale), period, scale) == pytest.approx(l, rel=1e-12)
            assert grid_width(l, period, scale) == pytest.approx(w, rel=1e-12)

    @pytest.mark.parametrize("l, scale", [(0.0, K_L), (-1e-9, K_L), (math.nan, K_L), (1e-9, 0.0)])
    def test_grid_width_domain(self, l, scale):
        with pytest.raises(DomainError):
            grid_width(l, 10.2e-3, scale)

    def test_resistance_values(self):
        assert grid_resistance(2.6e-3, 2.6e-4) == pytest.approx(0.1, rel=1e-12)
        assert grid_resistance(1.3e-3, 2.6e-4) == pytest.approx(0.2, rel=1e-12)
        assert grid_resistance(1.7e-3, 0.0) == 0.0

    def test_strict_monotonicity(self):
        widths = np.linspace(0.2e-3, 10.0e-3, 200)
        ls = [grid_inductance(w, 10.2e-3, K_L) for w in widths]
        rs = [grid_resistance(w, 2.6e-4) for w in widths]
        assert all(a > b for a, b in zip(ls, ls[1:]))
        assert all(a > b for a, b in zip(rs, rs[1:]))

    def test_domain_errors(self):
        for w in (0.0, -1e-3, 10.2e-3, 11e-3):
            with pytest.raises(DomainError):
                grid_inductance(w, 10.2e-3, K_L)
        with pytest.raises(DomainError):
            grid_resistance(0.0, 2.6e-4)
        with pytest.raises(DomainError):
            calibrate_inductance_scale(10.2e-3, 10.2e-3, 1e-9)


class TestParamTypes:
    def test_geometry_invariants(self):
        with pytest.raises(DomainError):
            GeometryParams(10.2e-3, 9.8e-3, 0.4e-3, 11e-3, 0.254e-3)  # w > period
        with pytest.raises(DomainError):
            GeometryParams(10.2e-3, 9.8e-3, 5.0e-3, 2.6e-3, 0.254e-3)  # t >= d/2
        with pytest.raises(DomainError):
            GeometryParams(9.5e-3, 9.8e-3, 0.4e-3, 2.6e-3, 0.254e-3)  # d >= period
        with pytest.raises(DomainError):
            GeometryParams(10.2e-3, 9.8e-3, 0.4e-3, 2.6e-3, 0.254e-3, eps_r=0.9)

    def test_circuit_invariants(self):
        with pytest.raises(DomainError):
            CircuitParams(L=0.0, L1=1.61e-9, C1=0.6e-12)
        with pytest.raises(DomainError):
            CircuitParams(L=2.85e-9, L1=1.61e-9, C1=0.6e-12, R=-0.1)
        with pytest.raises(DomainError):
            CircuitParams(L=2.85e-9, L1=1.61e-9, C1=0.6e-12, order=2)  # missing h1
        with pytest.raises(DomainError):
            CircuitParams(L=2.85e-9, L1=1.61e-9, C1=0.6e-12, order=3, h1=1e-2)

    @pytest.mark.parametrize("name", ["L", "L1", "C1", "R", "R1", "h", "eps_r", "h1", "loss_tangent"])
    def test_nan_value_rejected(self, name):
        values = dict(L=2.85e-9, L1=1.61e-9, C1=0.6e-12, order=2, h1=10e-3)
        with pytest.raises(DomainError):
            CircuitParams(**{**values, name: float("nan")})

    def test_column_element_values(self):
        column = np.array([[2.5e-9], [2.85e-9]])
        p = CircuitParams(L=column, L1=column, C1=0.6e-12, R=np.zeros((2, 1)))
        assert p.L is column
        with pytest.raises(DomainError):
            CircuitParams(L=np.array([[2.85e-9], [float("nan")]]), L1=1.61e-9, C1=0.6e-12)
        with pytest.raises(DomainError):
            CircuitParams(L=2.85e-9, L1=1.61e-9, C1=0.6e-12, R1=np.array([[0.1], [-0.1]]))

    def test_zero_spacer_allowed(self):
        p = CircuitParams(L=2.85e-9, L1=1.61e-9, C1=0.6e-12, h=0.0)
        assert p.h == 0.0

    def test_calibration_invariants(self):
        with pytest.raises(DomainError):
            CalibrationConstants(l_scale=0.0, r_scale=2.6e-4)
        with pytest.raises(DomainError):
            CalibrationConstants(l_scale=K_L, r_scale=-1.0)


class TestParamsFromGeometry:
    def test_reference_cell(self):
        p = params_from_geometry(DEFAULT_GEOMETRY, DEFAULT_CALIBRATION)
        assert p.L == pytest.approx(2.85e-9, rel=1e-9)
        assert p.R == pytest.approx(0.1, rel=1e-9)
        assert p.R1 == 0.1
        assert p.h == DEFAULT_GEOMETRY.spacer
        assert p.eps_r == DEFAULT_GEOMETRY.eps_r

    def test_narrow_strip(self):
        g = replace(DEFAULT_GEOMETRY, strip_width=1.0e-3)
        p = params_from_geometry(g, DEFAULT_CALIBRATION)
        assert p.L == pytest.approx(5.671097385292351e-9, rel=1e-9)
        assert p.R == pytest.approx(0.26, rel=1e-9)

    def test_lossless_grid_scale(self):
        cal = CalibrationConstants(l_scale=K_L, r_scale=0.0, r1_default=0.0)
        p = params_from_geometry(DEFAULT_GEOMETRY, cal)
        assert p.R == 0.0 and p.R1 == 0.0


def reference_first_order(**overrides) -> CircuitParams:
    kwargs = dict(REFERENCE_VALUES, R=0.1, R1=0.1, order=1)
    kwargs.update(overrides)
    return CircuitParams(**kwargs)


def reference_second_order(**overrides) -> CircuitParams:
    kwargs = dict(REFERENCE_VALUES, R=0.1, R1=0.1, order=2, h1=10e-3)
    kwargs.update(overrides)
    return CircuitParams(**kwargs)


class TestLadderStructure:
    def test_first_order_layout(self):
        net = build_first_order(reference_first_order())
        kinds = [type(el) for el in net.elements]
        assert kinds == [ShuntBranch, LineSegment, ShuntBranch]
        ring, line, grid = net.elements
        assert ring.capacitance is not None
        assert grid.capacitance is None
        assert line.length == 0.254e-3 and line.eps_r == 2.2

    def test_second_order_default_symmetric_layout(self):
        # default: second layer flipped so both grids face the air gap
        net = build_second_order(reference_second_order())
        assert len(net.elements) == 7
        gap = net.elements[3]
        assert isinstance(gap, LineSegment)
        assert gap.eps_r == 1.0 and gap.length == 10e-3 and gap.loss_tangent == 0.0
        assert net.elements[2].capacitance is None
        assert net.elements[4].capacitance is None
        assert net.elements[6].capacitance is not None

    def test_second_order_identical_layout(self):
        net = build_second_order(reference_second_order(), mirrored=False)
        assert len(net.elements) == 7
        assert net.elements[4].capacitance is not None
        assert net.elements[6].capacitance is None

    def test_order_mismatch_rejected(self):
        with pytest.raises(DomainError):
            build_first_order(reference_second_order())
        with pytest.raises(DomainError):
            build_second_order(reference_first_order())

    def test_build_network_dispatch(self):
        assert len(build_network(reference_first_order()).elements) == 3
        assert len(build_network(reference_second_order()).elements) == 7


class TestBuiltResponses:
    def test_first_order_null_at_branch_resonance(self):
        net = build_first_order(reference_first_order(R=0.0, R1=0.0, loss_tangent=0.0))
        curve = sweep_response(net, FrequencyGrid(1e9, 6e9, 5001), NORMAL)
        f_null = curve.freqs[np.argmin(np.abs(curve.s21))]
        assert f_null == pytest.approx(zero_freq(1.61e-9, 0.6e-12), rel=5e-3)

    def test_first_order_peak_position(self):
        net = build_first_order(reference_first_order(R=0.0, R1=0.0, loss_tangent=0.0))
        curve = sweep_response(net, FrequencyGrid(1e9, 6e9, 5001), NORMAL)
        f_peak = curve.freqs[np.argmax(np.abs(curve.s21))]
        assert 2.9e9 <= f_peak <= 3.08e9

    def test_null_position_independent_of_grid_inductance(self):
        f_z = zero_freq(1.61e-9, 0.6e-12)
        for l_grid in (1e-9, 2.5e-9, 5e-9, 10e-9):
            net = build_first_order(reference_first_order(L=l_grid, R=0.0, R1=0.0))
            curve = sweep_response(net, FrequencyGrid(4.5e9, 5.7e9, 4001), NORMAL)
            f_null = curve.freqs[np.argmin(np.abs(curve.s21))]
            assert abs(f_null - f_z) / f_z < 5e-3

    def test_degenerate_gap_matches_explicit_cascade(self):
        # mirrored stack with h1 = 0 puts the two grids at one node: the
        # response must equal [ring, line, shunt(2 Y_grid), line, ring]
        p = reference_second_order(h1=0.0)
        net = build_second_order(p, mirrored=True)
        grid = FrequencyGrid(1e9, 5e9, 201)
        curve = sweep_response(net, grid, NORMAL)

        f = grid.points
        ring = ShuntBranch(p.R1, p.L1, p.C1)
        line = LineSegment(p.eps_r, p.h, p.loss_tangent)
        doubled = abcd_shunt(2 * shunt_rl_admittance(p.R, p.L, f))
        explicit = cascade(
            [ring.abcd(f), line.abcd(f), doubled, line.abcd(f), ring.abcd(f)]
        )
        s = abcd_to_s(explicit, wave_impedance(0.0, NORMAL.polarization))
        np.testing.assert_allclose(curve.s21, s.s21, rtol=0, atol=1e-12)

    def test_empty_network_rejected(self):
        net = LayeredNetwork(elements=())
        with pytest.raises(DomainError, match="at least one segment"):
            sweep_response(net, FrequencyGrid(1e9, 2e9, 11), NORMAL)

    def test_network_immutable(self):
        net = build_first_order(reference_first_order())
        with pytest.raises(AttributeError):
            net.elements = ()
        with pytest.raises(AttributeError):
            replace_target = net.elements[0]
            replace_target.resistance = 1.0
