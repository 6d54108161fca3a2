"""Resonance formulas, sweeps, and passband metric extraction."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fsskit.analysis import (
    FrequencyGrid,
    ResponseCurve,
    _parabolic_vertex,
    extract_metrics,
    network_smatrix,
    passband_freq,
    sweep_response,
    zero_freq,
)
from fsskit.builder import (
    DEFAULT_CALIBRATION,
    DEFAULT_GEOMETRY,
    CircuitParams,
    build_first_order,
    build_second_order,
    params_from_geometry,
)
from fsskit.errors import BandNotBracketedError, DomainError, OneSidedBandError
from fsskit.synthesis import loss_budget_for_q
from fsskit.twoport import NORMAL, IncidenceCondition, Polarization

F_P = 3076642798.29332      # 1 / (2 pi sqrt(4.46 nH * 0.6 pF))
F_Z = 5120726356.363333     # 1 / (2 pi sqrt(1.61 nH * 0.6 pF))


class TestResonanceFormulas:
    def test_passband_freq_reference_values(self):
        assert passband_freq(2.85e-9, 1.61e-9, 0.6e-12) == pytest.approx(F_P, rel=1e-12)

    def test_passband_degenerates_to_zero_freq(self):
        assert passband_freq(0.0, 1.61e-9, 0.6e-12) == zero_freq(1.61e-9, 0.6e-12)

    def test_passband_scaling(self):
        base = passband_freq(2e-9, 1e-9, 1e-12)
        assert passband_freq(2e-9, 1e-9, 4e-12) == pytest.approx(base / 2, rel=1e-12)

    def test_zero_freq_values(self):
        assert zero_freq(1.61e-9, 0.6e-12) == pytest.approx(F_Z, rel=1e-12)
        assert zero_freq(1e-9, 1e-12) == pytest.approx(5032921210.448703, rel=1e-12)

    def test_zero_freq_scaling(self):
        assert zero_freq(4e-9, 1e-12) == pytest.approx(zero_freq(1e-9, 1e-12) / 2, rel=1e-12)

    def test_passband_below_zero(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            l = float(rng.uniform(0.01, 10)) * 1e-9
            l1 = float(rng.uniform(0.1, 10)) * 1e-9
            c1 = float(rng.uniform(0.05, 10)) * 1e-12
            assert passband_freq(l, l1, c1) < zero_freq(l1, c1)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            passband_freq(1e-9, 0.0, 1e-12)
        with pytest.raises(DomainError):
            zero_freq(1e-9, -1e-12)


class TestGridAndCurve:
    def test_grid_points(self):
        g = FrequencyGrid(1e9, 5e9, 5)
        np.testing.assert_allclose(g.points, [1e9, 2e9, 3e9, 4e9, 5e9])

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            FrequencyGrid(0.0, 1e9, 11)
        with pytest.raises(DomainError):
            FrequencyGrid(2e9, 1e9, 11)
        with pytest.raises(DomainError):
            FrequencyGrid(1e9, 2e9, 1)

    @pytest.mark.parametrize("n", [2001.0, 2.5, np.float64(3.0), "10", None, True, False, np.bool_(True)])
    def test_grid_rejects_a_count_that_is_not_an_integer(self, n):
        with pytest.raises(DomainError, match="^grid point count must be an integer"):
            FrequencyGrid(1e9, 5e9, n)

    def test_grid_accepts_a_numpy_integer_count(self):
        assert FrequencyGrid(1e9, 5e9, np.int64(5)).points.size == 5

    @pytest.mark.parametrize("start, stop", [
        (1e9, math.inf), (-math.inf, 1e9), (math.inf, math.inf), (1e9, math.nan), (math.nan, 1e9),
    ])
    def test_grid_rejects_non_finite_endpoints(self, start, stop):
        with pytest.raises(DomainError, match="f_stop < inf"):
            FrequencyGrid(start, stop, 11)

    def test_curve_validation(self):
        f = np.linspace(1e9, 2e9, 8)
        ones = np.ones(8, dtype=complex)
        with pytest.raises(DomainError):
            ResponseCurve(freqs=f[::-1], s11=ones, s21=ones)
        with pytest.raises(DomainError):
            ResponseCurve(freqs=f, s11=ones[:4], s21=ones)
        bad = ones.copy()
        bad[3] = complex("nan")
        with pytest.raises(DomainError):
            ResponseCurve(freqs=f, s11=ones, s21=bad)

    def test_curve_from_a_grid_holds_its_points(self):
        g = FrequencyGrid(1e9, 2e9, 8)
        curve = ResponseCurve(freqs=g, s11=None, s21=np.ones(8, dtype=complex))
        assert curve.freqs is g.points
        assert not curve.freqs.flags.writeable
        assert len(curve) == 8

    def test_curve_from_a_grid_checks_each_s_parameter(self):
        g = FrequencyGrid(1e9, 2e9, 8)
        bad = np.ones(8, dtype=complex)
        bad[3] = complex("nan")
        with pytest.raises(DomainError, match="^s21 contains non-finite samples$"):
            ResponseCurve(freqs=g, s11=None, s21=bad)
        with pytest.raises(DomainError, match="^s21 sample count does not match the grid$"):
            ResponseCurve(freqs=g, s11=None, s21=np.ones(7, dtype=complex))
        with pytest.raises(DomainError, match="^s11 sample count does not match the grid$"):
            ResponseCurve(freqs=g, s11=np.ones(9, dtype=complex), s21=np.ones(8, dtype=complex))


def reference_params(**overrides) -> CircuitParams:
    kwargs = dict(L=2.85e-9, L1=1.61e-9, C1=0.6e-12, R=0.1, R1=0.1,
                  h=0.254e-3, eps_r=2.2, order=1)
    kwargs.update(overrides)
    return CircuitParams(**kwargs)


TM_40 = IncidenceCondition(math.radians(40.0), Polarization.TM)


class TestSweepResponse:
    def test_branch_short_at_exact_zero_frequency(self):
        net = build_first_order(reference_params(R=0.0, R1=0.0, loss_tangent=0.0))
        s = network_smatrix(net, F_Z, NORMAL)
        assert abs(s.s21) <= 1e-4

    def test_lossy_floor_at_zero_frequency(self):
        net = build_first_order(reference_params(R=0.0, R1=0.1, loss_tangent=0.0))
        s = network_smatrix(net, F_Z, NORMAL)
        assert abs(s.s21) <= 1e-3

    def test_sweep_matches_pointwise_evaluation(self):
        # 0-d and vectorized evaluations may differ in the last ulp (numpy's
        # array kernels use fused multiply-adds), so compare at 1e-14; the
        # mirrored ladders put both branch kinds and both line kinds (the
        # lossy spacer, the lossless gap) through the 0-d path
        second = dict(order=2, h1=10e-3)
        lossless = dict(second, R=0.0, R1=0.0, loss_tangent=0.0)
        cases = [
            (build_first_order(reference_params()), NORMAL),
            (build_second_order(reference_params(**second)), TM_40),
            (build_second_order(reference_params(**lossless)), TM_40),
        ]
        grid = FrequencyGrid(2e9, 4e9, 21)
        for net, inc in cases:
            curve = sweep_response(net, grid, inc)
            for k in (0, 7, 20):
                s = network_smatrix(net, grid.points[k], inc)
                assert curve.s21[k] == pytest.approx(s.s21, rel=1e-14)
                assert curve.s11[k] == pytest.approx(s.s11, rel=1e-14)

    def test_batched_ladder_rejected(self):
        # (k, 1) element values give a (k, nf) response, which is not one curve
        column = np.array([[2.85e-9], [3.0e-9]])
        net = build_first_order(reference_params(L=column))
        with pytest.raises(DomainError, match="s11 sample count does not match the grid"):
            sweep_response(net, FrequencyGrid(2e9, 4e9, 21), NORMAL)

    def test_curve_carries_s22(self):
        net = build_first_order(reference_params())
        curve = sweep_response(net, FrequencyGrid(2e9, 4e9, 5), NORMAL)
        assert curve.s22 is not None
        # asymmetric ladder: s22 differs from s11
        assert np.max(np.abs(curve.s22 - curve.s11)) > 1e-3


def lorentzian_curve(f0=3e9, q=40.0, n=2001, span=(2e9, 4e9)):
    f = np.linspace(span[0], span[1], n)
    mag = 1.0 / np.sqrt(1.0 + (2.0 * q * (f - f0) / f0) ** 2)
    return ResponseCurve(freqs=f, s11=np.zeros(n, complex), s21=mag.astype(complex))


class TestExtractMetrics:
    def test_lorentzian_oracle(self):
        # closed form: the -3 dB (power factor 10^-0.3) points sit at
        # f0 * (1 +/- x / (2 q)) with x = sqrt(10^0.3 - 1), so the loaded
        # q evaluates to q / x = q * 1.002378...
        q = 40.0
        m = extract_metrics(lorentzian_curve(q=q))
        assert m.f_c == pytest.approx(3e9, rel=1e-4)
        x = math.sqrt(10 ** 0.3 - 1.0)
        assert m.q_loaded == pytest.approx(q / x, rel=1e-2)
        assert m.q_loaded == pytest.approx(q, rel=1e-2)
        assert m.insertion_loss_db == pytest.approx(0.0, abs=1e-6)
        assert m.f_zero is None

    def test_q_loaded_is_reciprocal_fbw(self):
        m = extract_metrics(lorentzian_curve())
        assert m.q_loaded == 1.0 / m.fbw

    def test_non_uniform_grid(self):
        # log-spaced samples, as an imported file might carry
        f = np.geomspace(2e9, 4e9, 1501)
        mag = 1.0 / np.sqrt(1.0 + (2.0 * 40.0 * (f - 3e9) / 3e9) ** 2)
        curve = ResponseCurve(freqs=f, s11=np.zeros_like(f, complex), s21=mag.astype(complex))
        m = extract_metrics(curve)
        assert m.f_c == pytest.approx(3e9, rel=1e-4)
        assert m.q_loaded == pytest.approx(40.0, rel=1e-2)

    def test_flat_curve_rejected(self):
        n = 101
        f = np.linspace(1e9, 2e9, n)
        flat = ResponseCurve(freqs=f, s11=np.zeros(n, complex), s21=np.ones(n, complex))
        with pytest.raises(BandNotBracketedError):
            extract_metrics(flat)

    def test_one_sided_band_reports_side(self):
        # peak inside the grid but the lower -3 dB crossing is cut off
        curve = lorentzian_curve(f0=2.02e9, q=40.0, span=(2e9, 4e9))
        with pytest.raises(OneSidedBandError) as err:
            extract_metrics(curve)
        assert err.value.side == "lower"

    def test_transmission_zero_found(self):
        net = build_first_order(reference_params())
        curve = sweep_response(net, FrequencyGrid(1e9, 6e9, 3001), NORMAL)
        m = extract_metrics(curve)
        assert m.f_zero is not None
        assert m.f_zero == pytest.approx(F_Z, rel=5e-3)
        assert m.f_c < m.f_zero

    @pytest.mark.parametrize("peak_at", [0.2, 0.2003])
    def test_tied_tail_minima_pick_the_first_dip(self, peak_at):
        # a symmetric peak puts f_c on a grid point (0.2), which is not above it;
        # the tail holds two dips of exactly the same depth
        f = np.linspace(1e9, 5e9, 1001)
        x = (f - 1e9) / 4e9
        mag = 0.5 / np.sqrt(1.0 + ((x - peak_at) / 0.01) ** 2)
        dips = [600, 601, 602, 800, 801, 802]
        mag[dips] = [0.003, 0.001, 0.003, 0.003, 0.001, 0.003]
        curve = ResponseCurve(freqs=f, s11=None, s21=mag.astype(complex))
        m = extract_metrics(curve)
        # the tail view's first minimum is the masked search's
        above = np.nonzero(f > m.f_c)[0]
        masked = int(above[np.argmin(mag[above])])
        first = int(np.searchsorted(f, m.f_c, side="right"))
        assert first + int(np.argmin(mag[first:])) == masked == 601
        want, _ = _parabolic_vertex(f[600], f[601], f[602], mag[600], mag[601], mag[602])
        assert m.f_zero == want

    def test_second_order_reference_response(self):
        # Characterization of the full ladder with the reference element
        # values; both orientations cross-checked against an independent
        # nodal-analysis solver of the same circuit.
        grid = FrequencyGrid(1e9, 5e9, 2001)
        symmetric = build_second_order(reference_params(order=2, h1=10e-3))
        m = extract_metrics(sweep_response(symmetric, grid, NORMAL))
        assert m.f_c == pytest.approx(3.0004e9, rel=1e-3)
        assert m.fbw == pytest.approx(0.1650, rel=1e-2)
        assert m.insertion_loss_db < 0.5

        identical = build_second_order(
            reference_params(order=2, h1=10e-3), mirrored=False
        )
        m2 = extract_metrics(sweep_response(identical, grid, NORMAL))
        assert m2.f_c == pytest.approx(3.2748e9, rel=1e-3)
        assert m2.fbw == pytest.approx(0.1636, rel=1e-2)


class TestAnalyticNumericConsistency:
    def test_lumped_limit_matches_formulas(self):
        # h = 0 collapses the layer to one node; peak and null must land on
        # the closed-form frequencies
        net = build_first_order(reference_params(R=0.05, R1=0.05, h=0.0))
        curve = sweep_response(net, FrequencyGrid(1e9, 6e9, 4001), NORMAL)
        m = extract_metrics(curve)
        assert m.f_c == pytest.approx(F_P, rel=5e-3)
        assert m.f_zero == pytest.approx(F_Z, rel=5e-3)

    def test_loaded_q_below_unloaded_q(self):
        net = build_first_order(reference_params())
        curve = sweep_response(net, FrequencyGrid(1e9, 6e9, 4001), NORMAL)
        m = extract_metrics(curve)
        # the loss that would give Q_loaded exceeds the circuit's R + R1 = 0.2, so Q_loaded < Q_u
        assert loss_budget_for_q(m.q_loaded, 2.85e-9, 1.61e-9, 0.6e-12) > 0.2

    def test_grid_refinement_convergence(self):
        net = build_second_order(reference_params(order=2, h1=10e-3))
        m1 = extract_metrics(sweep_response(net, FrequencyGrid(1e9, 5e9, 2001), NORMAL))
        m2 = extract_metrics(sweep_response(net, FrequencyGrid(1e9, 5e9, 4001), NORMAL))
        assert abs(m2.f_c - m1.f_c) / m1.f_c < 5e-4


class TestWidthTrends:
    WIDTHS_MM = (0.6, 1.0, 1.4, 1.8, 2.2, 2.6)

    def test_monotone_fbw_q_and_center(self):
        grid = FrequencyGrid(1e9, 5e9, 3001)
        rows = []
        for w_mm in self.WIDTHS_MM:
            g = replace(DEFAULT_GEOMETRY, strip_width=w_mm * 1e-3)
            params = params_from_geometry(g, DEFAULT_CALIBRATION)
            curve = sweep_response(build_first_order(params), grid, NORMAL)
            rows.append(extract_metrics(curve))
        fbws = [m.fbw for m in rows]
        qs = [m.q_loaded for m in rows]
        fcs = [m.f_c for m in rows]
        assert all(a > b for a, b in zip(fbws, fbws[1:])), fbws
        assert all(a < b for a, b in zip(qs, qs[1:])), qs
        assert all(a < b for a, b in zip(fcs, fcs[1:])), fcs
