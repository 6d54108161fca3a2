"""Whole ladders against an oracle that shares no formula with the program.

Every other S-value comparison checks the program against its own leaf
kernels.  Here each element's scattering matrix is taken directly, referenced
to the port impedance z0 = wave_impedance(inc):
- a shunt sheet of admittance Y: s11 = s22 = -Y z0 / (2 + Y z0), s21 = 2 / (2 + Y z0);
- a slab of impedance Z and propagation gamma l (the Airy slab):
  G = (Z - z0) / (Z + z0), p = exp(-gamma l), s21 = (1 - G^2) p / (1 - G^2 p^2),
  s11 = s22 = G (1 - p^2) / (1 - G^2 p^2);
and the elements are joined by the Redheffer star product (R. Redheffer, "On
the relation of transmission-line theory to scattering and transfer",
J. Math. Phys. 41, 1962; Orfanidis, Electromagnetic Waves and Antennas,
ch. 6, for the slab).  No chain matrix, cosh, sinh or abcd_to_s enters it.
slab_constants states the slab's q, Z and gamma l in one place.

|S| <= 1 for a passive ladder, so S is compared with an absolute tolerance:
a relative bound on s21 breaks near a transmission zero.  The oracle computes
in numpy's long double (80-bit on x86-64).  In double precision, a lossless
ladder at grazing TE incidence, whose sheets form a cavity with 1 - a22 b11
about 5e-4 in a star product, took the oracle 1.0e-12 to 3.9e-12 from a
50-digit evaluation, while the program stayed within 1.2e-13.

The property draws each branch loss from 0.05 ohm up.  A ladder with no loss
at all has resonances of unbounded Q, and at a grid point that falls on one
the rounding of the program's double inputs alone moves S by up to 3.6e-12
(12,000 random lossless ladders of order 1 and 2 against this oracle); from
0.05 ohm the worst of 12,000 draws with tan_delta = 0 was 3.5e-13.  The
lossless case is pinned on the shipped second-order design instead.
"""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsskit import cli
from fsskit.analysis import FrequencyGrid, network_smatrix, sweep_conditions
from fsskit.builder import CircuitParams, LineSegment, build_network, params_from_geometry
from fsskit.synthesis import _auto_grid, synthesize_lc, width_for_bandwidth
from fsskit.twoport import C0, ETA0, IncidenceCondition, Polarization, wave_impedance

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
TOL = 1e-12
PI = 4 * np.arctan(np.longdouble(1))


def slab_constants(eps_r, theta, pol, loss_tangent, f, length):
    """The slab's wave impedance Z and propagation gamma l: q = sqrt(eps_r - sin^2 theta),
    Z = eta0 / q (TE) or eta0 q / eps_r (TM), and the low-loss rule
    gamma l = (2 pi f / c0) q l (tan_delta / 2 + j)."""
    eps_r, eta0 = np.longdouble(eps_r), np.longdouble(ETA0)
    q = np.sqrt(eps_r - np.sin(np.longdouble(theta)) ** 2)
    z = eta0 / q if pol is Polarization.TE else eta0 * q / eps_r
    return z, 2 * PI * f / C0 * q * np.longdouble(length) * (np.longdouble(loss_tangent) / 2 + 1j)


def sheet_s(y, z0):
    """(s11, s21, s22) of a shunt sheet of admittance y between ports of impedance z0."""
    yz = y * z0
    return -yz / (2 + yz), 2 / (2 + yz), -yz / (2 + yz)


def slab_s(z, gl, z0):
    """(s11, s21, s22) of a slab of impedance z and propagation gl between ports of impedance z0."""
    g, p = (z - z0) / (z + z0), np.exp(-gl)
    den = 1 - g**2 * p**2
    return g * (1 - p**2) / den, (1 - g**2) * p / den, g * (1 - p**2) / den


def star(a, b):
    """The Redheffer star product of reciprocal two-ports a and b, a facing the wave."""
    a11, a21, a22 = a
    b11, b21, b22 = b
    loop = 1 - a22 * b11
    return a11 + a21**2 * b11 / loop, a21 * b21 / loop, b22 + b21**2 * a22 / loop


def oracle_s(net, f, inc):
    """(s11, s21, s22) of the ladder net on the frequencies f at inc, from the star product."""
    z0 = np.longdouble(wave_impedance(inc.theta, inc.polarization))
    f = np.asarray(f, dtype=np.longdouble)
    jw = 2j * PI * f
    out = None
    for el in net.elements:
        if isinstance(el, LineSegment):
            z, gl = slab_constants(el.eps_r, inc.theta, inc.polarization, el.loss_tangent, f, el.length)
            s = slab_s(z, gl, z0)
        else:
            impedance = np.longdouble(el.resistance) + jw * np.longdouble(el.inductance)
            if el.capacitance is not None:
                impedance = impedance + 1 / (jw * np.longdouble(el.capacitance))
            s = sheet_s(1 / impedance, z0)
        out = s if out is None else star(out, s)
    return out


def assert_matches_oracle(got, net, f, inc):
    for name, want in zip(("s11", "s21", "s22"), oracle_s(net, f, inc)):
        err = np.max(np.abs(getattr(got, name) - want))
        assert err <= TOL, f"{name}: |S - oracle| = {err:.3g}"


CONDITIONS = st.builds(
    IncidenceCondition,
    st.floats(0.0, math.radians(80.0)),
    st.sampled_from(Polarization),
)
LOSS_TANGENTS = st.one_of(st.sampled_from([0.0, 0.0009]), st.floats(0.0, 0.05))


@st.composite
def circuits(draw):
    order = draw(st.sampled_from([1, 2]))
    return CircuitParams(
        L=draw(st.floats(0.3e-9, 10e-9)),
        L1=draw(st.floats(0.3e-9, 5e-9)),
        C1=draw(st.floats(0.1e-12, 3e-12)),
        R=draw(st.floats(0.05, 5.0)),
        R1=draw(st.floats(0.05, 5.0)),
        h=draw(st.floats(0.0, 3e-3)),
        eps_r=draw(st.floats(1.0, 12.0)),
        h1=draw(st.floats(0.0, 30e-3)) if order == 2 else None,
        order=order,
        loss_tangent=draw(LOSS_TANGENTS),
    )


@settings(max_examples=200, deadline=None)
@given(p=circuits(), mirrored=st.booleans(), inc=CONDITIONS)
def test_ladders_match_the_star_product_oracle(p, mirrored, inc):
    net = build_network(p, mirrored=mirrored)
    f = FrequencyGrid(1e9, 6e9, 401).points
    assert_matches_oracle(network_smatrix(net, f, inc), net, f, inc)


def _config(name):
    return cli.parse_config((CONFIGS / name).read_text())


@pytest.mark.parametrize("name", ["second_order.json", "oblique_study.json"])
def test_simulate_configs_match_the_oracle(name):
    cfg = _config(name)
    net = build_network(cfg.circuit, mirrored=cfg.mirrored)
    for curve in sweep_conditions(net, cfg.grid, cfg.incidence):
        assert_matches_oracle(curve, net, cfg.grid.points, curve.incidence)


@pytest.mark.parametrize("mirrored", [True, False])
def test_the_lossless_oblique_study_matches_the_oracle(mirrored):
    cfg = _config("oblique_study.json")
    net = build_network(replace(cfg.circuit, R=0.0, R1=0.0, loss_tangent=0.0), mirrored=mirrored)
    for inc in cfg.incidence:
        assert_matches_oracle(network_smatrix(net, cfg.grid.points, inc), net, cfg.grid.points, inc)


def test_width_sweep_config_matches_the_oracle():
    cfg = _config("width_sweep.json")
    for w_mm in cfg.sweep_widths_mm:
        geometry = replace(cfg.geometry, strip_width=w_mm * 1e-3)
        net = build_network(params_from_geometry(geometry, cfg.calibration, cfg.ring_l1, cfg.ring_c1))
        inc = cfg.incidence[0]
        assert_matches_oracle(network_smatrix(net, cfg.grid.points, inc), net, cfg.grid.points, inc)


def test_synthesize_config_matches_the_oracle():
    cfg = _config("synthesize.json")
    lc = synthesize_lc(cfg.design)
    w = width_for_bandwidth(cfg.design.fbw_target, cfg.geometry, cfg.calibration, lc.l1, lc.c1, cfg.width_range)
    geometry = replace(cfg.geometry, strip_width=w)
    net = build_network(params_from_geometry(geometry, cfg.calibration, lc.l1, lc.c1))
    f = _auto_grid(cfg.geometry, cfg.calibration, lc.l1, lc.c1, cfg.width_range).points
    inc = IncidenceCondition(0.0, Polarization.TE)
    assert_matches_oracle(network_smatrix(net, f, inc), net, f, inc)
