"""Touchstone two-port read/write round trips and format handling."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import fsskit
from fsskit.analysis import FrequencyGrid, ResponseCurve, sweep_response
from fsskit.builder import CircuitParams, build_second_order
from fsskit.errors import TouchstoneError
from fsskit.touchstone import _divmod, read_touchstone, write_touchstone
from fsskit.twoport import IncidenceCondition, Polarization


def identity_curve(n=3):
    f = np.linspace(1e9, 3e9, n)
    return ResponseCurve(
        freqs=f,
        s11=np.zeros(n, complex),
        s21=np.ones(n, complex),
        s22=np.zeros(n, complex),
    )


def reference_curve(n=101, theta_deg=0.0, pol=Polarization.TE):
    params = CircuitParams(
        L=2.85e-9, L1=1.61e-9, C1=0.6e-12, R=0.1, R1=0.1,
        h=0.254e-3, eps_r=2.2, order=2, h1=10e-3,
    )
    inc = IncidenceCondition(math.radians(theta_deg), pol)
    return sweep_response(build_second_order(params), FrequencyGrid(1e9, 5e9, n), inc)


class TestWriter:
    def test_identity_network_lines(self, tmp_path):
        path = tmp_path / "ident.s2p"
        write_touchstone(identity_curve(), path)
        text = path.read_text()
        lines = [l for l in text.splitlines() if l and not l.startswith(("!", "#"))]
        assert len(lines) == 3
        fields = lines[0].split()
        assert len(fields) == 9
        assert float(fields[1]) == 0.0 and float(fields[2]) == 0.0   # s11
        assert float(fields[3]) == 1.0 and float(fields[4]) == 0.0   # s21
        assert float(fields[5]) == 1.0 and float(fields[6]) == 0.0   # s12 = s21

    def test_option_line_and_comments(self, tmp_path):
        path = tmp_path / "ref.s2p"
        write_touchstone(reference_curve(n=5, theta_deg=30, pol=Polarization.TM), path)
        text = path.read_text().splitlines()
        assert any(line.startswith("# GHz S RI R 376.73") for line in text)
        assert any("theta_deg = 30" in line for line in text if line.startswith("!"))
        assert any("polarization = TM" in line for line in text if line.startswith("!"))
        assert text[0].startswith("!")

    def test_header_names_the_package_version(self, tmp_path):
        path = tmp_path / "ident.s2p"
        write_touchstone(identity_curve(), path)
        assert path.read_text().splitlines()[0] == f"! fsskit {fsskit.__version__}"

    def test_package_metadata_takes_the_same_version(self):
        tomllib = pytest.importorskip("tomllib")
        meta = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
        assert "version" not in meta["project"] and meta["project"]["dynamic"] == ["version"]
        assert meta["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "fsskit.__version__"}

    def test_twelve_significant_digits(self, tmp_path):
        path = tmp_path / "digits.s2p"
        write_touchstone(reference_curve(n=5), path)
        data_line = next(
            l for l in path.read_text().splitlines() if not l.startswith(("!", "#"))
        )
        for token in data_line.split():
            mantissa = token.split("e")[0].replace("-", "").replace(".", "")
            assert len(mantissa) == 12


class TestRoundTrip:
    def test_write_read_identity(self, tmp_path):
        path = tmp_path / "rt.s2p"
        curve = reference_curve(n=101)
        write_touchstone(curve, path)
        back = read_touchstone(path)
        np.testing.assert_allclose(back.freqs, curve.freqs, rtol=1e-12)
        np.testing.assert_allclose(back.s11, curve.s11, rtol=0, atol=1e-12)
        np.testing.assert_allclose(back.s21, curve.s21, rtol=0, atol=1e-12)
        np.testing.assert_allclose(back.s22, curve.s22, rtol=0, atol=1e-12)

    def test_incidence_survives_round_trip(self, tmp_path):
        path = tmp_path / "rt_oblique.s2p"
        curve = reference_curve(n=11, theta_deg=45, pol=Polarization.TM)
        write_touchstone(curve, path)
        back = read_touchstone(path)
        assert back.incidence.polarization is Polarization.TM
        assert math.degrees(back.incidence.theta) == pytest.approx(45.0, abs=1e-9)

    def test_reciprocity_in_file(self, tmp_path):
        path = tmp_path / "recip.s2p"
        write_touchstone(reference_curve(n=21), path)
        back = read_touchstone(path)
        np.testing.assert_array_equal(back.s21, read_touchstone(path).s21)


class TestReaderFormats:
    def test_ma_format(self, tmp_path):
        path = tmp_path / "ma.s2p"
        path.write_text(
            "# GHz S MA R 50\n"
            "1.0 0.0 0 0.5 0 0.5 0 0.0 0\n"
            "2.0 0.0 0 0.5 90 0.5 90 0.0 0\n"
        )
        curve = read_touchstone(path)
        assert curve.freqs[0] == 1e9
        assert curve.s21[0] == pytest.approx(0.5 + 0j, abs=1e-12)
        assert curve.s21[1] == pytest.approx(0.5j, abs=1e-12)

    def test_single_point_ma_file(self, tmp_path):
        path = tmp_path / "one.s2p"
        path.write_text("# GHz S MA R 50\n1.0 0.0 0 0.5 0 0.5 0 0.0 0\n")
        curve = read_touchstone(path)
        assert len(curve) == 1
        assert curve.s21[0] == pytest.approx(0.5 + 0j, abs=1e-12)

    def test_db_format(self, tmp_path):
        path = tmp_path / "db.s2p"
        path.write_text(
            "# MHz S DB R 50\n"
            "100 -40 0 -3.0103 0 -3.0103 0 -40 0\n"
            "200 -40 0 -3.0103 45 -3.0103 45 -40 0\n"
        )
        curve = read_touchstone(path)
        assert curve.freqs[0] == 100e6
        assert abs(curve.s21[0]) == pytest.approx(0.70711, abs=1e-5)
        assert np.angle(curve.s21[1], deg=True) == pytest.approx(45.0, abs=1e-9)

    def test_hz_unit_and_default_options(self, tmp_path):
        path = tmp_path / "hz.s2p"
        path.write_text(
            "# Hz S RI R 50\n"
            "1000000000 0 0 1 0 1 0 0 0\n"
            "2000000000 0 0 1 0 1 0 0 0\n"
        )
        curve = read_touchstone(path)
        assert curve.freqs[1] == 2e9

    def test_inline_comments_ignored(self, tmp_path):
        path = tmp_path / "c.s2p"
        path.write_text(
            "! header chatter\n"
            "# GHz S RI R 50\n"
            "1.0 0 0 1 0 1 0 0 0 ! trailing note\n"
            "2.0 0 0 1 0 1 0 0 0\n"
        )
        curve = read_touchstone(path)
        assert len(curve) == 2


class TestReaderEncoding:
    RECORD = "1.0 0 0 1 0 1 0 0 0\n"

    def test_leading_byte_order_mark_is_dropped(self, tmp_path):
        path = tmp_path / "bom.s2p"
        path.write_text("\ufeff! exported\n# GHz S RI R 50\n" + self.RECORD, encoding="utf-8")
        curve = read_touchstone(path)
        assert curve.freqs.tolist() == [1e9]
        assert curve.s21.tolist() == [1 + 0j]

    @pytest.mark.parametrize("text, line_no", [
        ("\ufeff\ufeff! exported\n# GHz S RI R 50\n" + RECORD, 1),
        ("! exported\n\ufeff# GHz S RI R 50\n" + RECORD, 2),
        ("# GHz S RI R 50\n\ufeff" + RECORD, 2),
    ])
    def test_byte_order_mark_anywhere_else_is_rejected(self, tmp_path, text, line_no):
        path = tmp_path / "bom.s2p"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(TouchstoneError) as err:
            read_touchstone(path)
        assert err.value.line_no == line_no

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_invalid_utf8_names_the_line_of_the_bad_byte(self, tmp_path, newline):
        path = tmp_path / "latin.s2p"
        head = newline.join(["! exported", "# GHz S RI R 50", "1.0 0 0 1 0 1 0 0 0", "2.0 0 0 1 0 1 0 0 "])
        path.write_bytes(head.encode() + b"\xff" + newline.encode())
        with pytest.raises(TouchstoneError) as err:
            read_touchstone(path)
        assert str(err.value) == "line 4: file is not valid UTF-8 (byte 0xff)"


class TestReaderErrors:
    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "cols.s2p"
        path.write_text("# GHz S RI R 50\n1.0 0 0 1 0\n")
        with pytest.raises(TouchstoneError) as err:
            read_touchstone(path)
        assert err.value.line_no == 2
        assert "line 2" in str(err.value)

    def test_non_monotone_frequency_names_line(self, tmp_path):
        path = tmp_path / "mono.s2p"
        path.write_text(
            "# GHz S RI R 50\n"
            "2.0 0 0 1 0 1 0 0 0\n"
            "1.0 0 0 1 0 1 0 0 0\n"
        )
        with pytest.raises(TouchstoneError) as err:
            read_touchstone(path)
        assert err.value.line_no == 3

    def test_malformed_option_line(self, tmp_path):
        path = tmp_path / "opt.s2p"
        path.write_text("# GHz S XY R 50\n1.0 0 0 1 0 1 0 0 0\n")
        with pytest.raises(TouchstoneError) as err:
            read_touchstone(path)
        assert err.value.line_no == 1

    @pytest.mark.parametrize("z_ref", ["nan", "inf", "-inf", "0", "-0.0", "-5"])
    def test_reference_impedance_must_be_finite_and_positive(self, tmp_path, z_ref):
        path = tmp_path / "ref.s2p"
        path.write_text(f"! measured\n# GHz S RI R {z_ref}\n1.0 0 0 1 0 1 0 0 0\n")
        with pytest.raises(TouchstoneError) as err:
            read_touchstone(path)
        assert str(err.value) == f"line 2: reference impedance must be finite and positive, got '{z_ref}'"

    def test_unsupported_parameter_type(self, tmp_path):
        path = tmp_path / "ytype.s2p"
        path.write_text("# GHz Y RI R 50\n1.0 0 0 1 0 1 0 0 0\n")
        with pytest.raises(TouchstoneError):
            read_touchstone(path)

    def test_data_before_options(self, tmp_path):
        path = tmp_path / "early.s2p"
        path.write_text("1.0 0 0 1 0 1 0 0 0\n# GHz S RI R 50\n")
        with pytest.raises(TouchstoneError) as err:
            read_touchstone(path)
        assert err.value.line_no == 1

    def test_missing_option_line(self, tmp_path):
        path = tmp_path / "none.s2p"
        path.write_text("! only comments\n")
        with pytest.raises(TouchstoneError):
            read_touchstone(path)

    def test_empty_data_section(self, tmp_path):
        path = tmp_path / "nodata.s2p"
        path.write_text("# GHz S RI R 50\n")
        with pytest.raises(TouchstoneError, match="no data"):
            read_touchstone(path)

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "nan.s2p"
        path.write_text("# GHz S RI R 50\n1.0 0 0 one 0 1 0 0 0\n")
        with pytest.raises(TouchstoneError) as err:
            read_touchstone(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize(
        "field, fmt, column",
        [("nan", "RI", 1), ("inf", "MA", 2), ("-inf", "DB", 4), ("Infinity", "MA", 0)],
    )
    def test_non_finite_field_names_its_line(self, tmp_path, field, fmt, column):
        fields = "1.0 1 0 0 0 0 0 1 0".split()
        fields[column] = field
        path = tmp_path / "nonfinite.s2p"
        path.write_text(
            f"# GHz S {fmt} R 50\n0.5 1 0 0 0 0 0 1 0\n{' '.join(fields)}\n2.0 1 0 0 0 0 0 1 0\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TouchstoneError, match="non-finite field") as err:
                read_touchstone(path)
        assert err.value.line_no == 3

    #: a comment after the first record sends the file through the line loop
    PATHS = {"at-once": "", "line-loop": "! late comment\n"}

    @pytest.mark.parametrize("late", PATHS.values(), ids=PATHS)
    def test_negative_frequency_names_its_line(self, tmp_path, late):
        path = tmp_path / "negative.s2p"
        path.write_text(f"# GHz S RI R 50\n-1.0 0 0 1 0 1 0 0 0\n{late}2.0 0 0 1 0 1 0 0 0\n")
        with pytest.raises(TouchstoneError) as err:
            read_touchstone(path)
        assert str(err.value) == "line 2: negative frequency in '-1.0 0 0 1 0 1 0 0 0'"

    @pytest.mark.parametrize("late", PATHS.values(), ids=PATHS)
    def test_frequency_overflowing_in_hz_names_its_line(self, tmp_path, late):
        """1e300 is a finite field, but 1e309 Hz is past the largest float; 1e308 Hz is read."""
        path = tmp_path / "far.s2p"
        path.write_text(f"# GHz S RI R 50\n1e299 0 0 1 0 1 0 0 0\n{late}1e300 0 0 1 0 1 0 0 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TouchstoneError) as err:
                read_touchstone(path)
        line_no = 3 + bool(late)
        assert str(err.value) == f"line {line_no}: frequency overflows in Hz in '1e300 0 0 1 0 1 0 0 0'"
        path.write_text("# GHz S RI R 50\n1e299 0 0 1 0 1 0 0 0\n")
        assert read_touchstone(path).freqs.tolist() == [1e299 * 1e9]

    @pytest.mark.parametrize("late", PATHS.values(), ids=PATHS)
    def test_zero_frequency_is_read(self, tmp_path, late):
        path = tmp_path / "dc.s2p"
        path.write_text(f"# GHz S RI R 50\n0 0 0 1 0 1 0 0 0\n{late}2.0 0 0 1 0 1 0 0 0\n")
        assert read_touchstone(path).freqs.tolist() == [0.0, 2e9]

    def test_earliest_of_non_finite_and_order_faults(self, tmp_path):
        path = tmp_path / "two_faults.s2p"
        path.write_text(
            "# GHz S MA R 50\n1.0 1 0 0 0 0 0 1 0\n0.5 1 0 0 0 0 0 1 0\n2.0 1 inf 0 0 0 0 1 0\n"
        )
        with pytest.raises(TouchstoneError, match="strictly increasing") as err:
            read_touchstone(path)
        assert err.value.line_no == 3
        path.write_text(
            "# GHz S MA R 50\n1.0 1 0 0 0 0 0 1 0\n2.0 1 inf 0 0 0 0 1 0\n0.5 1 0 0 0 0 0 1 0\n"
        )
        with pytest.raises(TouchstoneError, match="non-finite field") as err:
            read_touchstone(path)
        assert err.value.line_no == 3

    def test_db_overflow_names_its_line(self, tmp_path):
        path = tmp_path / "loud.s2p"
        path.write_text("# GHz S DB R 50\n0.5 0 0 0 0 0 0 0 0\n1.0 7000 0 0 0 0 0 0 0\n")
        with pytest.raises(TouchstoneError) as err:
            read_touchstone(path)
        assert err.value.line_no == 3
        assert str(err.value) == "line 3: dB magnitude overflows in '1.0 7000 0 0 0 0 0 0 0'"

    def test_db_overflow_before_a_later_fault(self, tmp_path):
        path = tmp_path / "loud_then_bad.s2p"
        path.write_text(
            "# GHz S DB R 50\n1.0 0 0 6200 0 0 0 0 0\n0.5 0 0 0 0 0 0 0 0\n2.0 0 0 x 0 0 0 0 0\n"
        )
        with pytest.raises(TouchstoneError, match="overflows") as err:
            read_touchstone(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("angle", ["95", "90", "nan", "inf", "-1"])
    def test_incidence_annotation_outside_the_domain_names_its_line(self, tmp_path, angle):
        path = tmp_path / "angle.s2p"
        path.write_text(f"! fsskit\n! incidence theta_deg = {angle}\n# GHz S RI R 50\n1.0 0 0 1 0 1 0 0 0\n")
        with pytest.raises(TouchstoneError, match=r"incidence angle must be in \[0, pi/2\)") as err:
            read_touchstone(path)
        assert err.value.line_no == 2
        assert str(err.value).endswith(f"in '! incidence theta_deg = {angle}'")

    @pytest.mark.parametrize("annotation, why", [
        ("! incidence theta_deg = forty", "bad incidence angle"),
        ("! incidence theta_deg =", "bad incidence angle"),
        ("! incidence theta_deg", "bad incidence angle"),
        ("! polarization = XM", "polarization must be TE or TM"),
        ("! polarization =", "polarization must be TE or TM"),
        ("!polarization", "polarization must be TE or TM"),
    ])
    def test_bad_incidence_annotation_names_its_line(self, tmp_path, annotation, why):
        path = tmp_path / "annotated.s2p"
        path.write_text(f"! fsskit\n{annotation}\n# GHz S RI R 50\n1.0 0 0 1 0 1 0 0 0\n")
        with pytest.raises(TouchstoneError) as err:
            read_touchstone(path)
        assert err.value.line_no == 2
        assert str(err.value) == f"line 2: {why} in {annotation!r}"

    def test_annotations_are_read_by_their_exact_key(self, tmp_path):
        path = tmp_path / "annotated.s2p"
        path.write_text(
            "! incidence theta_deg of the next line = forty\n! incidence theta_deg = 40\n"
            "! polarization is set below\n!  polarization = tm\n! Polarization = XM\n"
            "# GHz S RI R 50\n1.0 0 0 1 0 1 0 0 0\n"
        )
        inc = read_touchstone(path).incidence
        assert inc.polarization is Polarization.TM
        assert inc.theta == math.radians(40.0)

    def test_largest_finite_db_magnitude_is_read(self, tmp_path):
        path = tmp_path / "loudest.s2p"
        path.write_text("# GHz S DB R 50\n1.0 6165 0 0 0 0 0 0 0\n")
        assert abs(read_touchstone(path).s11[0]) == 10.0 ** (6165 / 20.0)


@given(arrays(np.int64, st.integers(1, 64), elements=st.integers(0, 10**15)), st.data())
def test_divmod_matches_numpy_on_the_kernel_ranges(a, data):
    """Dividends 0 to 10**15; the divisor one integer from 1 to 10**15, or a power of ten per cell."""
    powers = arrays(np.int64, a.shape, elements=st.sampled_from([10**k for k in range(16)]))
    b = data.draw(st.integers(1, 10**15) | powers)
    for got, want in zip(_divmod(a, b), np.divmod(a, b)):
        np.testing.assert_array_equal(got, want)
