"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Criterion 1 checks the paper's claim -- two stacked layers give a
second-order passband at 2.70 GHz with 8.5% fractional bandwidth -- on a
second-order design derived in the test from the coupled-resonator design
relations (Butterworth prototype, external Q = g1 / FBW, quarter-wave
inverter coupling).  The other criteria use the repo's reference layer
(L = 2.85 nH, L1 = 1.61 nH, C1 = 0.6 pF), a first-order anchor whose
10 mm stack passes 3.00 GHz at 16.5% FBW (frozen in test_analysis); no gap
brings that stack inside criterion 1's bounds.
"""

import json
import math
import time
from dataclasses import replace

import numpy as np

from fsskit.analysis import (
    FrequencyGrid,
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
    LineSegment,
    build_first_order,
    build_second_order,
    params_from_geometry,
)
from fsskit.cli import parse_config, run
from fsskit.synthesis import DesignSpec, FitProblem, fit_circuit, synthesize_lc
from fsskit.touchstone import read_touchstone, write_touchstone
from fsskit.twoport import (
    C0,
    ETA0,
    NORMAL,
    IncidenceCondition,
    Polarization,
    abcd_shunt,
    abcd_to_s,
    cascade,
    shunt_rl_admittance,
    shunt_series_rlc_admittance,
    wave_impedance,
)

F_P = 3076642798.29332      # closed-form passband of the reference layer
F_Z = 5120726356.363333     # closed-form transmission zero of the reference layer


def reference_params(**overrides) -> CircuitParams:
    kwargs = dict(
        L=2.85e-9, L1=1.61e-9, C1=0.6e-12, R=0.1, R1=0.1,
        h=0.254e-3, eps_r=2.2, order=1,
    )
    kwargs.update(overrides)
    return CircuitParams(**kwargs)


def _report(criterion: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {criterion}: {status} - {description}{suffix}")
    assert ok, f"criterion {criterion} ({description}): {detail}"


class TestAcceptance:
    def test_criterion_1_second_order_reference_response(self):
        """Second order, designed for 2.70 GHz / 8.5% FBW: f_c = 2.70 +/- 0.15
        GHz, FBW = 8.5% +/- 2 points, under 1 s single-threaded.

        Two-pole Butterworth prototype (g1 = g2 = sqrt 2), so each layer
        needs external Q = g1 / FBW.  The layer's susceptance slope at w0 is
        w0 C1 / (1 - r)^2 with r = L1 / (L + L1), so with C1 pinned at the
        reference 0.6 pF, Qe = w0 C1 eta0 / (1 - r)^2 fixes r and the zero
        f0 / sqrt(r); synthesize_lc returns L and L1.  A quarter-wave air gap
        is an inverter J = Y0, i.e. coupling 1 / Qe = FBW / sqrt(g1 g2).
        """
        f0, fbw, c1 = 2.70e9, 0.085, 0.6e-12
        q_ext = math.sqrt(2.0) / fbw
        w0 = 2.0 * math.pi * f0
        r = 1.0 - math.sqrt(w0 * c1 * ETA0 / q_ext)
        lc = synthesize_lc(DesignSpec(f_passband=f0, f_zero=f0 / math.sqrt(r), c1=c1))
        h1 = C0 / (4.0 * f0)
        net = build_second_order(reference_params(L=lc.l, L1=lc.l1, order=2, h1=h1))
        t0 = time.perf_counter()
        curve = sweep_response(net, FrequencyGrid(1e9, 5e9, 2001), NORMAL)
        m = extract_metrics(curve)
        elapsed = time.perf_counter() - t0

        design = f"L = {lc.l * 1e9:.3f} nH, L1 = {lc.l1 * 1e9:.3f} nH, h1 = {h1 * 1e3:.2f} mm"
        measured = f"f_c = {m.f_c / 1e9:.4f} GHz, FBW = {m.fbw * 100:.2f}%"
        checks = []
        if not 2.55e9 <= m.f_c <= 2.85e9:
            checks.append(f"f_c = {m.f_c / 1e9:.4f} GHz not in 2.70 +/- 0.15 GHz")
        if not 0.065 <= m.fbw <= 0.105:
            checks.append(f"FBW = {m.fbw * 100:.2f}% not in 8.5 +/- 2.0%")
        if elapsed >= 1.0:
            checks.append(f"runtime {elapsed:.3f} s >= 1 s")
        _report(
            1,
            "second-order reference response (2.70 GHz, 8.5% FBW, < 1 s)",
            not checks,
            "; ".join([design, *(checks or [measured])]),
        )

    def test_criterion_2_analytic_numeric_consistency(self):
        """Lossless lumped single layer (h = 0): peak and null within 0.5%
        of the closed-form frequencies."""
        net = build_first_order(
            reference_params(R=0.0, R1=0.0, h=0.0, loss_tangent=0.0)
        )
        m = extract_metrics(sweep_response(net, FrequencyGrid(1e9, 6e9, 5001), NORMAL))
        peak_err = abs(m.f_c - F_P) / F_P
        zero_err = abs(m.f_zero - F_Z) / F_Z if m.f_zero else math.inf
        ok = peak_err < 5e-3 and zero_err < 5e-3
        _report(
            2,
            "lumped-limit peak/null match the closed-form resonances (0.5%)",
            ok,
            f"peak err {peak_err * 100:.4f}%, null err {zero_err * 100:.4f}%",
        )

    def test_criterion_3_transmission_zero_depth(self):
        """|s21| at the exact zero frequency: <= 1e-6 lossless,
        <= 1e-3 with 0.1 ohm ring loss."""
        lossless = build_first_order(reference_params(R=0.0, R1=0.0, loss_tangent=0.0))
        lossy = build_first_order(reference_params(R=0.0, R1=0.1, loss_tangent=0.0))
        mag_lossless = abs(network_smatrix(lossless, F_Z, NORMAL).s21)
        mag_lossy = abs(network_smatrix(lossy, F_Z, NORMAL).s21)
        ok = mag_lossless <= 1e-6 and mag_lossy <= 1e-3
        _report(
            3,
            "transmission-zero depth at the exact null frequency",
            ok,
            f"lossless {mag_lossless:.2e}, R1=0.1 {mag_lossy:.2e}",
        )

    def test_criterion_4_property_suites(self):
        """Unitarity (1e-10, 1000 random lossless networks), passivity,
        det = 1 (1e-9), associativity (1e-12), theta=0 TE/TM bitwise."""
        rng = np.random.default_rng(2024)
        f = np.linspace(0.5e9, 8e9, 64)
        failures = []

        def random_net(lossless: bool):
            parts = []
            for _ in range(rng.integers(1, 6)):
                kind = rng.integers(0, 3)
                r = 0.0 if lossless else float(rng.uniform(0, 2))
                if kind == 0:
                    parts.append(abcd_shunt(shunt_rl_admittance(r, float(rng.uniform(0.5, 8)) * 1e-9, f)))
                elif kind == 1:
                    parts.append(abcd_shunt(shunt_series_rlc_admittance(
                        r, float(rng.uniform(0.5, 4)) * 1e-9, float(rng.uniform(0.2, 2)) * 1e-12, f)))
                else:
                    parts.append(LineSegment(float(rng.uniform(1, 4)), float(rng.uniform(0, 0.03))).abcd(f, NORMAL))
            return cascade(parts)

        def det_defect(m):
            # relative to the product scale: a*d and b*c cancel to 1, so the
            # representable accuracy of the difference is set by their size
            scale = np.maximum(1.0, np.maximum(np.abs(m.a * m.d), np.abs(m.b * m.c)))
            return float(np.max(np.abs(m.det() - 1.0) / scale))

        worst_unitarity = 0.0
        worst_det = 0.0
        worst_passivity = 0.0
        for _ in range(1000):
            m = random_net(lossless=True)
            s = abcd_to_s(m, ETA0)
            worst_unitarity = max(worst_unitarity, float(np.max(np.abs(
                np.abs(s.s11) ** 2 + np.abs(s.s21) ** 2 - 1.0))))
            worst_det = max(worst_det, det_defect(m))
        for _ in range(300):
            m = random_net(lossless=False)
            s = abcd_to_s(m, ETA0)
            worst_passivity = max(worst_passivity, float(np.max(
                np.abs(s.s11) ** 2 + np.abs(s.s21) ** 2)))
            worst_det = max(worst_det, det_defect(m))
        if worst_unitarity >= 1e-10:
            failures.append(f"unitarity defect {worst_unitarity:.2e}")
        if worst_det >= 1e-9:
            failures.append(f"det defect {worst_det:.2e}")
        if worst_passivity > 1.0 + 1e-9:
            failures.append(f"passivity excess {worst_passivity - 1.0:.2e}")

        worst_assoc = 0.0
        for _ in range(100):
            a, b, c = (random_net(lossless=False) for _ in range(3))
            left = (a @ b) @ c
            right = a @ (b @ c)
            for name in "abcd":
                x, y = getattr(left, name), getattr(right, name)
                scale = np.maximum(np.abs(x), 1e-30)
                worst_assoc = max(worst_assoc, float(np.max(np.abs(x - y) / scale)))
        if worst_assoc >= 1e-12:
            failures.append(f"associativity defect {worst_assoc:.2e}")

        net = build_second_order(reference_params(order=2, h1=10e-3))
        s_te = network_smatrix(net, f, IncidenceCondition(0.0, Polarization.TE))
        s_tm = network_smatrix(net, f, IncidenceCondition(0.0, Polarization.TM))
        if not (np.array_equal(s_te.s11, s_tm.s11) and np.array_equal(s_te.s21, s_tm.s21)):
            failures.append("theta=0 TE/TM not bitwise identical")

        _report(4, "unitarity/passivity/determinant/associativity/bitwise suites",
                not failures, "; ".join(failures))

    def test_criterion_5_width_trends(self):
        """First order, default calibration, w in {0.6 .. 2.6} mm: FBW
        strictly falls, loaded Q and f_c strictly rise."""
        grid = FrequencyGrid(1e9, 5e9, 3001)
        metrics = []
        for w_mm in (0.6, 1.0, 1.4, 1.8, 2.2, 2.6):
            params = params_from_geometry(
                replace(DEFAULT_GEOMETRY, strip_width=w_mm * 1e-3), DEFAULT_CALIBRATION
            )
            metrics.append(extract_metrics(sweep_response(build_first_order(params), grid, NORMAL)))
        fbws = [m.fbw for m in metrics]
        qs = [m.q_loaded for m in metrics]
        fcs = [m.f_c for m in metrics]
        ok = (
            all(a > b for a, b in zip(fbws, fbws[1:]))
            and all(a < b for a, b in zip(qs, qs[1:]))
            and all(a < b for a, b in zip(fcs, fcs[1:]))
        )
        _report(
            5,
            "strip-width trends: FBW down, Q up, f_c up",
            ok,
            f"fbw {fbws[0]:.3f}->{fbws[-1]:.3f}, q {qs[0]:.2f}->{qs[-1]:.2f}, "
            f"f_c {fcs[0] / 1e9:.3f}->{fcs[-1] / 1e9:.3f} GHz",
        )

    def test_criterion_6_oblique_stability(self):
        """Second order, 0..45 degrees, both polarizations: f_c drift <= 5%
        versus normal incidence; responses finite and passive."""
        net = build_second_order(reference_params(order=2, h1=10e-3))
        grid = FrequencyGrid(1e9, 5e9, 2001)
        f_ref = extract_metrics(sweep_response(net, grid, NORMAL)).f_c
        failures = []
        drifts = []
        for pol in (Polarization.TE, Polarization.TM):
            for deg in (0.0, 15.0, 30.0, 45.0):
                inc = IncidenceCondition(math.radians(deg), pol)
                curve = sweep_response(net, grid, inc)
                power = np.abs(curve.s11) ** 2 + np.abs(curve.s21) ** 2
                if not (np.all(np.isfinite(curve.s21)) and np.all(power <= 1.0 + 1e-9)):
                    failures.append(f"{pol.value}@{deg:g} not finite/passive")
                drift = abs(extract_metrics(curve).f_c - f_ref) / f_ref
                drifts.append(f"{pol.value}@{deg:g}:{drift * 100:.2f}%")
                if drift > 0.05:
                    failures.append(f"{pol.value}@{deg:g} drift {drift * 100:.2f}% > 5%")
        _report(6, "oblique f_c drift <= 5%, finite and passive",
                not failures, "; ".join(failures) or "; ".join(drifts))

    def test_criterion_7_synthesis_round_trip(self):
        """1000 random feasible targets invert within 1e-9; the reference
        round trip returns 2.850 nH / 1.610 nH within 1e-6."""
        rng = np.random.default_rng(77)
        worst = 0.0
        for _ in range(1000):
            f_p = float(rng.uniform(0.5, 8)) * 1e9
            f_z = f_p * float(rng.uniform(1.01, 4.0))
            c1 = float(rng.uniform(0.05, 5)) * 1e-12
            lc = synthesize_lc(DesignSpec(f_passband=f_p, f_zero=f_z, c1=c1))
            worst = max(
                worst,
                abs(passband_freq(lc.l, lc.l1, lc.c1) - f_p) / f_p,
                abs(zero_freq(lc.l1, lc.c1) - f_z) / f_z,
            )
        anchor = synthesize_lc(DesignSpec(f_passband=F_P, f_zero=F_Z, c1=0.6e-12))
        anchor_err = max(
            abs(anchor.l - 2.85e-9) / 2.85e-9, abs(anchor.l1 - 1.61e-9) / 1.61e-9
        )
        ok = worst < 1e-9 and anchor_err < 1e-6
        _report(
            7,
            "synthesis round trip (1000 random + reference anchor)",
            ok,
            f"worst random {worst:.2e}, anchor err {anchor_err:.2e}",
        )

    def test_criterion_8_fit_recovery(self):
        """Self-generated second-order curve, +/-30% start: parameters back
        within 1%, residual < 1e-6, within 500 iterations."""
        truth = reference_params(order=2, h1=10e-3)
        observed = sweep_response(
            build_second_order(truth), FrequencyGrid(1e9, 5e9, 401), NORMAL
        )
        problem = FitProblem(
            observed=observed,
            base=truth,
            free=("L", "L1", "C1"),
            initial={"L": truth.L * 1.3, "L1": truth.L1 * 0.7, "C1": truth.C1 * 1.3},
            bounds={"L": (0.5e-9, 10e-9), "L1": (0.3e-9, 6e-9), "C1": (0.1e-12, 3e-12)},
        )
        result = fit_circuit(problem)
        errs = {
            name: abs(result.params[name] - getattr(truth, name)) / getattr(truth, name)
            for name in ("L", "L1", "C1")
        }
        ok = (
            all(e < 0.01 for e in errs.values())
            and result.residual_norm < 1e-6
            and result.iterations <= 500
        )
        _report(
            8,
            "fit recovers perturbed L/L1/C1 within 1%",
            ok,
            f"errs {', '.join(f'{k}={v:.2e}' for k, v in errs.items())}, "
            f"residual {result.residual_norm:.2e}, iters {result.iterations}",
        )

    def test_criterion_9_io_round_trips(self, tmp_path):
        """Touchstone round trip within 1e-12, CSV/Touchstone agreement
        within 1e-9, byte-identical repeated runs."""
        failures = []
        net = build_second_order(reference_params(order=2, h1=10e-3))
        curve = sweep_response(net, FrequencyGrid(1e9, 5e9, 201), NORMAL)
        path = tmp_path / "roundtrip.s2p"
        write_touchstone(curve, path)
        back = read_touchstone(path)
        rt_err = max(
            float(np.max(np.abs(back.s11 - curve.s11))),
            float(np.max(np.abs(back.s21 - curve.s21))),
        )
        if rt_err > 1e-12:
            failures.append(f"touchstone round trip {rt_err:.2e} > 1e-12")

        doc = {
            "mode": "simulate",
            "circuit": {
                "order": 2, "l_nh": 2.85, "l1_nh": 1.61, "c1_pf": 0.6,
                "r_ohm": 0.1, "r1_ohm": 0.1, "h_mm": 0.254, "eps_r": 2.2,
                "h1_mm": 10.0,
            },
            "grid": {"f_start_ghz": 1.0, "f_stop_ghz": 5.0, "n_points": 501},
            "output": {"csv": "response.csv", "touchstone": "response.s2p"},
        }
        cfg = parse_config(json.dumps(doc))
        run(cfg, out_dir=tmp_path / "a")
        run(cfg, out_dir=tmp_path / "b")
        for name in ("response.csv", "response_te0deg.s2p"):
            if (tmp_path / "a" / name).read_bytes() != (tmp_path / "b" / name).read_bytes():
                failures.append(f"{name} differs between identical runs")

        file_curve = read_touchstone(tmp_path / "a" / "response_te0deg.s2p")
        csv_rows = (tmp_path / "a" / "response.csv").read_text().splitlines()[1:]
        worst_db = 0.0
        for row, s21 in zip(csv_rows, file_curve.s21):
            s21_db_csv = float(row.split(",")[2])
            s21_db_file = max(20 * math.log10(max(abs(s21), 1e-300)), -200.0)
            worst_db = max(worst_db, abs(s21_db_csv - s21_db_file))
        if worst_db > 1e-9:
            failures.append(f"CSV vs touchstone dB mismatch {worst_db:.2e}")

        _report(9, "IO round trips and byte-identical runs", not failures, "; ".join(failures))
