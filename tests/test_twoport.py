"""Two-port algebra: element matrices, cascading, S conversion, properties."""

import math

import numpy as np
import pytest

from fsskit import twoport
from fsskit.errors import DomainError, EvanescentModeError, SingularNetworkError
from fsskit.twoport import (
    C0,
    ETA0,
    NORMAL,
    HeldArrays,
    IncidenceCondition,
    Polarization,
    TwoPortMatrix,
    abcd_delta,
    abcd_shunt,
    abcd_to_s,
    cascade,
    j_omega,
    rl_admittance,
    rlc_admittance,
    shunt_rl_admittance,
    shunt_series_rlc_admittance,
    tline_matrix,
    tline_phase,
    wave_impedance,
)

TE = Polarization.TE
TM = Polarization.TM


class TestWaveImpedance:
    def test_normal_incidence_both_polarizations(self):
        assert wave_impedance(0.0, TE) == ETA0
        assert wave_impedance(0.0, TM) == ETA0

    def test_oblique_values(self):
        # eta0 / cos(45 deg) and eta0 * cos(60 deg), evaluated directly
        assert wave_impedance(math.radians(45), TE) == pytest.approx(532.7766753528161, rel=1e-12)
        assert wave_impedance(math.radians(60), TM) == pytest.approx(188.365, rel=1e-9)

    def test_te_above_tm_below_eta0(self):
        for theta in (0.1, 0.5, 1.0, 1.4):
            assert wave_impedance(theta, TE) >= ETA0 >= wave_impedance(theta, TM)

    def test_grazing_incidence_rejected(self):
        with pytest.raises(DomainError):
            wave_impedance(math.pi / 2, TE)
        with pytest.raises(DomainError):
            wave_impedance(-0.1, TM)


class TestShuntElements:
    def test_zero_admittance_is_identity(self):
        m = abcd_shunt(0j)
        assert (m.a, m.b, m.c, m.d) == (1.0, 0.0, 0j, 1.0)

    def test_pure_inductor_admittance(self):
        # 1 / (j w L) at 2.7 GHz, 2.85 nH
        y = shunt_rl_admittance(0.0, 2.85e-9, 2.7e9)
        assert y == pytest.approx(-0.020682903585691404j, rel=1e-12)
        m = abcd_shunt(y)
        assert m.c == y and m.a == 1.0 and m.b == 0.0

    def test_lossy_inductor_admittance(self):
        y = shunt_rl_admittance(0.1, 2.85e-9, 2.7e9)
        assert y == pytest.approx(1.0 / (0.1 + 48.34911093874691j), rel=1e-12)

    def test_inductor_opens_at_high_frequency(self):
        assert abs(shunt_rl_admittance(0.0, 2.85e-9, 1e15)) < 1e-7

    def test_adjacent_shunts_add(self):
        y = 0.003 - 0.02j
        m = cascade([abcd_shunt(y), abcd_shunt(y)])
        assert m.c == pytest.approx(2 * y, rel=1e-15)
        assert m.a == 1.0 and m.d == 1.0 and m.b == 0.0

    def test_non_finite_admittance_rejected(self):
        with pytest.raises(DomainError):
            abcd_shunt(complex("inf"))
        with pytest.raises(DomainError):
            abcd_shunt(complex("nan") + 1j)


class TestSeriesRlcBranch:
    F_ZERO = 5120726356.363333  # 1 / (2 pi sqrt(1.61 nH * 0.6 pF))

    def test_branch_shorts_at_resonance(self):
        y = shunt_series_rlc_admittance(0.0, 1.61e-9, 0.6e-12, self.F_ZERO)
        # impedance magnitude below 1e-6 ohm at the resonance
        assert abs(1.0 / y) < 1e-6

    def test_exact_zero_impedance_clamped_finite(self):
        # R = 0 and reactance cancelled by construction
        l1, c1 = 1e-9, 1e-12
        f = 1.0 / (2 * math.pi * math.sqrt(l1 * c1))
        y = shunt_series_rlc_admittance(0.0, l1, c1, f)
        assert np.isfinite(y)
        assert abs(y) > 1e12

    def test_resistive_floor_at_resonance(self):
        y = shunt_series_rlc_admittance(0.1, 1.61e-9, 0.6e-12, self.F_ZERO)
        assert y.real == pytest.approx(10.0, rel=1e-6)
        assert abs(y.imag) < 1e-3

    def test_capacitor_blocks_low_frequency(self):
        y = shunt_series_rlc_admittance(0.0, 1.61e-9, 0.6e-12, 1.0)
        assert abs(y) < 1e-10

    def test_vectorized_short_guard(self):
        from fsskit.twoport import SHORT_ADMITTANCE

        # w = 1 rad/s at the middle point gives z = j(2 - 2) = exactly 0
        f = np.array([0.5, 1.0, 2.0]) / (2 * math.pi)
        y = shunt_series_rlc_admittance(0.0, 2.0, 0.5, f)
        assert y[1] == SHORT_ADMITTANCE
        assert np.all(np.isfinite(y))

    def test_held_short_guard(self):
        from fsskit.twoport import SHORT_ADMITTANCE

        f = np.array([0.5, 1.0, 2.0]) / (2 * math.pi)
        jw = j_omega(f)
        out = (np.empty(3, complex), np.empty(3, complex))
        y = rlc_admittance(0.0, 2.0, 0.5, jw, out=out)
        assert y is out[0]
        want = 1.0 / (0.0 + jw * 2.0 + 1 / (jw * 0.5))[[0, 2]]
        assert y[1] == SHORT_ADMITTANCE and y[[0, 2]].tobytes() == want.tobytes()
        assert y.tobytes() == shunt_series_rlc_admittance(0.0, 2.0, 0.5, f).tobytes()

    def test_dc_rejected(self):
        with pytest.raises(DomainError):
            shunt_series_rlc_admittance(0.0, 1.61e-9, 0.6e-12, 0.0)

    def test_bad_elements_rejected(self):
        with pytest.raises(DomainError):
            shunt_series_rlc_admittance(-0.1, 1.61e-9, 0.6e-12, 1e9)
        with pytest.raises(DomainError):
            shunt_series_rlc_admittance(0.0, 0.0, 0.6e-12, 1e9)

    @pytest.mark.parametrize("slot", range(3))
    def test_nan_elements_rejected(self, slot):
        values = [0.1, 1.61e-9, 0.6e-12]
        values[slot] = math.nan
        with pytest.raises(DomainError):
            shunt_series_rlc_admittance(*values, 1e9)
        if slot < 2:
            with pytest.raises(DomainError):
                shunt_rl_admittance(*values[:2], 1e9)

    def test_column_elements_match_rows(self):
        f = np.linspace(1e9, 5e9, 7)
        r1 = np.array([[0.0], [0.1], [2.0]])
        l1 = np.array([[1.2e-9], [1.61e-9], [3e-9]])
        c1 = np.array([[0.5e-12], [0.6e-12], [0.9e-12]])
        rlc = shunt_series_rlc_admittance(r1, l1, c1, f)
        rl = shunt_rl_admittance(r1, l1, f)
        assert rlc.shape == rl.shape == (3, 7)
        for i in range(3):
            assert np.array_equal(rlc[i], shunt_series_rlc_admittance(r1[i, 0], l1[i, 0], c1[i, 0], f))
            assert np.array_equal(rl[i], shunt_rl_admittance(r1[i, 0], l1[i, 0], f))

    @pytest.mark.parametrize("bad", [math.nan, -1e-9])
    def test_one_bad_row_rejects_the_batch(self, bad):
        l1 = np.array([[1.61e-9], [bad]])
        with pytest.raises(DomainError):
            shunt_series_rlc_admittance(0.1, l1, 0.6e-12, 1e9)
        with pytest.raises(DomainError):
            shunt_rl_admittance(0.1, l1, 1e9)


def slab(eps_r, length, f, inc=NORMAL, loss_tangent=0.0):
    """A dielectric slab's chain matrix: tline_matrix of its tline_phase."""
    return tline_matrix(tline_phase(eps_r, length, f, inc.theta, loss_tangent), eps_r, inc.polarization)


class TestTline:
    @pytest.mark.parametrize(
        "args, kwargs",
        [((math.nan, 1e-3), {}), ((2.2, math.nan), {}), ((2.2, 1e-3), {"loss_tangent": math.nan})],
        ids=["eps_r", "length", "loss_tangent"],
    )
    def test_nan_inputs_rejected(self, args, kwargs):
        with pytest.raises(DomainError):
            slab(*args, 3e9, NORMAL, **kwargs)

    def test_column_lengths_match_rows(self):
        f = np.linspace(1e9, 5e9, 7)
        lengths = np.array([[0.0], [0.254e-3], [10e-3]])
        m = slab(2.2, lengths, f, NORMAL, loss_tangent=0.0009)
        assert m.a.shape == (3, 7)
        for i in range(3):
            row = slab(2.2, lengths[i, 0], f, NORMAL, loss_tangent=0.0009)
            for name in "abcd":
                assert np.array_equal(getattr(m, name)[i], getattr(row, name))
        with pytest.raises(DomainError):
            slab(2.2, np.array([[1e-3], [math.nan]]), f, NORMAL)

    def test_zero_length_is_identity(self):
        m = slab(2.2, 0.0, 3.3e9, NORMAL)
        assert m.a == 1.0 and m.d == 1.0
        assert m.b == 0.0 and m.c == 0.0

    def test_quarter_wave_air_line(self):
        # 10 mm air line is a quarter wave at c0 / 0.04
        f = C0 / (4 * 0.01)
        m = slab(1.0, 0.01, f, NORMAL)
        assert abs(m.a) < 1e-6 and abs(m.d) < 1e-6
        assert m.b == pytest.approx(1j * ETA0, rel=1e-9)
        assert m.c == pytest.approx(1j / ETA0, rel=1e-9)

    def test_thin_dielectric_slab(self):
        # phi = (2 pi f / c0) sqrt(2.2) * 0.254 mm at 2.7 GHz
        m = slab(2.2, 0.254e-3, 2.7e9, NORMAL)
        assert m.a == pytest.approx(0.9997727575156841, rel=1e-12)
        assert m.b == pytest.approx(5.414445085197921j, rel=1e-9)
        assert m.c == pytest.approx(8.392980671786997e-05j, rel=1e-9)

    def test_oblique_effective_impedances(self):
        inc_te = IncidenceCondition(math.radians(40), TE)
        inc_tm = IncidenceCondition(math.radians(40), TM)
        q = math.sqrt(2.2 - math.sin(math.radians(40)) ** 2)
        f = 3e9
        m_te = slab(2.2, 1e-3, f, inc_te)
        m_tm = slab(2.2, 1e-3, f, inc_tm)
        z_te = m_te.b / m_te.c
        z_tm = m_tm.b / m_tm.c
        assert math.sqrt(z_te.real) == pytest.approx(ETA0 / q, rel=1e-9)
        assert math.sqrt(z_tm.real) == pytest.approx(ETA0 * q / 2.2, rel=1e-9)

    def test_normal_incidence_te_tm_bitwise_equal(self):
        inc_te = IncidenceCondition(0.0, TE)
        inc_tm = IncidenceCondition(0.0, TM)
        f = np.linspace(1e9, 6e9, 11)
        m_te = slab(2.2, 0.254e-3, f, inc_te)
        m_tm = slab(2.2, 0.254e-3, f, inc_tm)
        for name in "abcd":
            np.testing.assert_array_equal(getattr(m_te, name), getattr(m_tm, name))

    def test_lossy_line_keeps_unit_determinant(self):
        m = slab(2.2, 5e-3, 4e9, NORMAL, loss_tangent=0.02)
        assert m.det() == pytest.approx(1.0, abs=1e-12)
        s = abcd_to_s(m, ETA0)
        assert abs(s.s11) ** 2 + abs(s.s21) ** 2 < 1.0

    def test_evanescent_medium_rejected(self):
        inc = IncidenceCondition(math.radians(80), TE)
        with pytest.raises(EvanescentModeError):
            slab(0.5, 1e-3, 1e9, inc)

    def test_bad_inputs_rejected(self):
        with pytest.raises(DomainError):
            slab(0.0, 1e-3, 1e9, NORMAL)
        with pytest.raises(DomainError):
            slab(2.2, -1e-3, 1e9, NORMAL)
        with pytest.raises(DomainError):
            slab(2.2, 1e-3, 0.0, NORMAL)


def _random_reciprocal(rng, f, lossless=True):
    """Random ladder of shunt branches and lines as one chain matrix."""
    parts = []
    for _ in range(rng.integers(1, 6)):
        kind = rng.integers(0, 3)
        r = 0.0 if lossless else float(rng.uniform(0, 2))
        if kind == 0:
            parts.append(abcd_shunt(shunt_rl_admittance(r, float(rng.uniform(0.5, 8)) * 1e-9, f)))
        elif kind == 1:
            parts.append(
                abcd_shunt(
                    shunt_series_rlc_admittance(
                        r, float(rng.uniform(0.5, 4)) * 1e-9, float(rng.uniform(0.2, 2)) * 1e-12, f
                    )
                )
            )
        else:
            parts.append(slab(float(rng.uniform(1, 4)), float(rng.uniform(0, 0.03)), f, NORMAL))
    return cascade(parts)


#: The through connection [[1, 0], [0, 1]].
IDENTITY = TwoPortMatrix(1.0 + 0j, 0.0 + 0j, 0.0 + 0j, 1.0 + 0j)


class TestCascadeAndConversion:
    def test_cascade_of_identity(self):
        m = cascade([IDENTITY])
        assert (m.a, m.b, m.c, m.d) == (IDENTITY.a, IDENTITY.b, IDENTITY.c, IDENTITY.d)

    def test_empty_cascade_rejected(self):
        with pytest.raises(DomainError):
            cascade([])

    def test_associativity(self):
        rng = np.random.default_rng(7)
        f = np.linspace(1e9, 5e9, 64)
        for _ in range(50):
            ms = [_random_reciprocal(rng, f) for _ in range(3)]
            left = (ms[0] @ ms[1]) @ ms[2]
            right = ms[0] @ (ms[1] @ ms[2])
            for name in "abcd":
                a = getattr(left, name)
                b = getattr(right, name)
                scale = np.maximum(np.abs(a), 1e-30)
                assert np.max(np.abs(a - b) / scale) < 1e-12

    def test_identity_through_connection(self):
        s = abcd_to_s(IDENTITY, ETA0)
        assert s.s11 == 0 and s.s21 == 1 and s.s12 == 1 and s.s22 == 0

    def test_identity_elements_are_exact_cascade_units(self):
        rng = np.random.default_rng(29)
        f = np.linspace(1e9, 5e9, 16)
        m = _random_reciprocal(rng, f, lossless=False)
        zero_line = slab(2.2, 0.0, f, NORMAL)
        open_shunt = abcd_shunt(0j)
        wrapped = cascade([zero_line, m, open_shunt])
        for name in "abcd":
            np.testing.assert_array_equal(getattr(wrapped, name), getattr(m, name))

    def test_quarter_wave_matched_line(self):
        f = C0 / (4 * 0.01)
        s = abcd_to_s(slab(1.0, 0.01, f, NORMAL), ETA0)
        assert abs(s.s11) < 1e-9
        assert s.s21 == pytest.approx(-1j, abs=1e-9)

    def test_real_shunt_admittance(self):
        s = abcd_to_s(abcd_shunt(2.0 / ETA0 + 0j), ETA0)
        assert s.s11 == pytest.approx(-0.5, rel=1e-12)
        assert s.s21 == pytest.approx(0.5, rel=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(DomainError):
            abcd_to_s(IDENTITY, 0.0)

    def test_singular_network_detected(self):
        # a + b/z + c z + d = 0 for this artificial matrix
        m = TwoPortMatrix(a=1.0, b=-2.0 * ETA0, c=0.0, d=1.0)
        with pytest.raises(SingularNetworkError):
            abcd_to_s(m, ETA0)


class TestNetworkProperties:
    N_TRIALS = 1000

    def test_determinant_unity(self):
        # measured relative to the a*d / b*c product scale: near-resonant
        # shunt branches make those products huge and their difference of 1
        # is only representable to that relative accuracy
        rng = np.random.default_rng(11)
        f = np.linspace(0.5e9, 8e9, 32)
        for _ in range(200):
            m = _random_reciprocal(rng, f, lossless=False)
            scale = np.maximum(1.0, np.maximum(np.abs(m.a * m.d), np.abs(m.b * m.c)))
            assert np.max(np.abs(m.det() - 1.0) / scale) < 1e-9

    def test_element_determinants_exact(self):
        f = np.linspace(0.5e9, 8e9, 32)
        for m in (
            abcd_shunt(shunt_rl_admittance(0.3, 2.85e-9, f)),
            abcd_shunt(shunt_series_rlc_admittance(0.1, 1.61e-9, 0.6e-12, f)),
            slab(2.2, 0.01, f, NORMAL),
            slab(2.2, 0.01, f, NORMAL, loss_tangent=0.001),
        ):
            assert np.max(np.abs(m.det() - 1.0)) < 1e-9

    def test_lossless_unitarity(self):
        rng = np.random.default_rng(13)
        f = np.linspace(0.5e9, 8e9, 64)
        for _ in range(self.N_TRIALS):
            s = abcd_to_s(_random_reciprocal(rng, f, lossless=True), ETA0)
            power = np.abs(s.s11) ** 2 + np.abs(s.s21) ** 2
            assert np.max(np.abs(power - 1.0)) < 1e-10

    def test_passivity_with_loss(self):
        rng = np.random.default_rng(17)
        f = np.linspace(0.5e9, 8e9, 64)
        for _ in range(300):
            s = abcd_to_s(_random_reciprocal(rng, f, lossless=False), ETA0)
            power = np.abs(s.s11) ** 2 + np.abs(s.s21) ** 2
            assert np.max(power) <= 1.0 + 1e-9

    def test_reciprocity_constructed(self):
        rng = np.random.default_rng(19)
        f = np.linspace(0.5e9, 8e9, 16)
        for _ in range(50):
            s = abcd_to_s(_random_reciprocal(rng, f, lossless=False), ETA0)
            np.testing.assert_array_equal(s.s12, s.s21)

    def test_theta_zero_te_tm_bitwise(self):
        rng = np.random.default_rng(23)
        f = np.linspace(0.5e9, 8e9, 32)
        inc_te = IncidenceCondition(0.0, TE)
        inc_tm = IncidenceCondition(0.0, TM)
        for _ in range(20):
            eps = float(rng.uniform(1, 4))
            length = float(rng.uniform(0, 0.02))
            m_te = slab(eps, length, f, inc_te)
            m_tm = slab(eps, length, f, inc_tm)
            s_te = abcd_to_s(m_te, wave_impedance(0.0, TE))
            s_tm = abcd_to_s(m_tm, wave_impedance(0.0, TM))
            np.testing.assert_array_equal(s_te.s11, s_tm.s11)
            np.testing.assert_array_equal(s_te.s21, s_tm.s21)


def _bits(x) -> bytes:
    return np.ascontiguousarray(x).tobytes()


class TestHeldForms:
    """The kernels' out= forms, the HeldArrays they come from, and the values held per grid."""

    @pytest.mark.parametrize("length", [0.254e-3, np.array([[0.1e-3], [0.254e-3], [10e-3]])], ids=["1-D", "rows"])
    @pytest.mark.parametrize("loss_tangent", [0.0009, 0.0])
    @pytest.mark.parametrize("inc", [NORMAL, IncidenceCondition(math.radians(40.0), TE),
                                     IncidenceCondition(math.radians(40.0), TM)], ids=["normal", "TE40", "TM40"])
    def test_out_forms_have_the_bits_of_the_plain_ones(self, inc, loss_tangent, length):
        """The admittances, the shunt updates, the general product and Delta,
        formed in given arrays, against their forms with no out."""
        f = np.linspace(1e9, 5e9, 2001)
        shape = np.broadcast_shapes(f.shape, np.shape(length))

        def out():
            return np.full(shape, np.nan, complex)

        jw, col = j_omega(f), np.linspace(0.97, 1.03, shape[0])[:, None] if len(shape) == 2 else 1.0
        line = tline_matrix(tline_phase(2.2, length, f, inc.theta, loss_tangent), 2.2, inc.polarization)
        ring = rlc_admittance(0.1, 1.61e-9 * col, 0.6e-12, jw, out=(out(), out()))
        grid = rl_admittance(0.1, 2.85e-9 * col, jw, out=out())
        assert _bits(ring) == _bits(rlc_admittance(0.1, 1.61e-9 * col, 0.6e-12, jw))
        assert _bits(grid) == _bits(rl_admittance(0.1, 2.85e-9 * col, jw))
        head = line.shunt_left(ring, out=(out(), out()))
        m = head.shunt_right(grid, out=(out(), out()))
        twice = line.product(line, out=(out(), out(), out(), out()), scratch=out())
        for got, want in ((head, abcd_shunt(ring) @ line), (m, head @ abcd_shunt(grid)), (twice, line @ line)):
            assert [_bits(x) for x in (got.a, got.b, got.c, got.d)] == [_bits(x) for x in (want.a, want.b, want.c, want.d)]
        delta = abcd_delta(m.a, m.b / 50.0, m.c * 50.0, m.d, out=out())
        assert _bits(delta) == _bits(abcd_delta(m.a, m.b / 50.0, m.c * 50.0, m.d))

    @pytest.mark.parametrize("shape", [(2001,), (4, 401), (20001,), ()])
    def test_a_new_held_array_starts_on_a_64_byte_boundary(self, shape):
        arrays = HeldArrays()
        arrays.start(shape)
        for x in [arrays.take() for _ in range(10)]:
            assert x.shape == shape and x.dtype == complex and x.flags.c_contiguous
            assert x.ctypes.data % 64 == 0

    @pytest.fixture
    def store(self, monkeypatch):
        monkeypatch.setattr(twoport, "_HELD", {})
        return twoport._HELD

    def test_held_values_are_aligned_read_only_copies_and_held_within_the_budget(self, store, monkeypatch):
        f = np.linspace(1e9, 5e9, 2001)
        block = np.zeros(2 * f.size + 3, complex)
        offset = next(k for k in range(4) if block[k:].ctypes.data % 64)
        unaligned = block[offset:offset + f.size]
        unaligned[:] = 1j * f
        calls = []

        def make():
            calls.append(1)
            return unaligned, 3.0

        value = twoport.held(f, ("x",), make)
        again = twoport.held(f.copy(), ("x",), make)
        assert again is value and len(calls) == 1 and value[1] == 3.0
        x = value[0]
        assert x.ctypes.data % 64 == 0 and not x.flags.writeable and not np.shares_memory(x, unaligned)
        assert _bits(x) == _bits(unaligned)
        assert twoport.held_bytes() == f.nbytes + x.nbytes
        # an aligned array is held as it is; a value shared by two keys counts once
        assert twoport.held(f, ("y",), lambda: (x, 1.0))[0] is x
        assert twoport.held_bytes() == f.nbytes + x.nbytes
        # an error is raised and not held; a 0-d frequency and a value over the budget are not held
        with pytest.raises(ZeroDivisionError):
            twoport.held(f, ("z",), lambda: (1 / 0,))
        assert twoport.held(np.float64(1e9), ("x",), lambda: (5,)) == (5,)
        monkeypatch.setattr(twoport, "HELD_BUDGET", f.nbytes + x.nbytes - 1)
        big = twoport.held(f[::-1].copy(), ("x",), make)
        assert big[0].ctypes.data % 64 == 0 and not big[0].flags.writeable
        assert {shape: list(values) for shape, (_, values) in store.items()} == {f.shape: [("x",), ("y",)]}
