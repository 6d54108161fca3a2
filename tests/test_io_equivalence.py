"""The array I/O paths against per-value scalar references.

The Touchstone writer formats its table with a numpy kernel, the CSV writer
with one ``%`` operation, and the reader parses and converts all records as
arrays.  These properties check that each gives exactly what formatting,
parsing and converting one value at a time in Python gives, bit for bit, and
that a faulty record is still reported on its own line.
"""

import math
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fsskit.analysis import ResponseCurve
from fsskit.errors import TouchstoneError
from fsskit.touchstone import format_e11, format_table, read_touchstone, write_touchstone

FINITE = st.floats(allow_nan=False, allow_infinity=False)
#: zeros of both signs, subnormals down to the smallest, a -200 dB floor
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, -200.0, 1.7976931348623157e308]
#: the double nearest n + 1/2 times 10**-k: its 12-digit rounding is decided
#: by the last bits, so each shortcut of the %.11e kernel shows here
NEAR_TIES = st.builds(
    lambda n, k, sign: sign * float(Fraction(2 * n + 1, 2) / Fraction(10) ** k),
    st.integers(10**11, 10**12 - 2), st.integers(-22, 22), st.sampled_from([1.0, -1.0]),
)
#: one row per case the %.11e kernel leaves to CPython, or must get right
E11_CASES = {
    "exact decimal ties": [2.0**-18, 12345678901.25, -98765432109.75],
    "scaled to a tie, but not one": [82450263137.05, 467625884.8775, 3.572212420795e-11],
    "exact ties that a rounded 10**-k would miss": [9.464575406435e16, 4.394124284095e16],
    "below 1e-11 or from 1e34": [9.99999999999e-12, 1e-11, -1e34, 1.23456789012e33],
    "carry to the next power of ten": [9.9999999999996e5, -9.99999999999999e-7, 99999999999.99998],
    "three-digit exponents": [1e100, -2.5e-150, 1e-100, 1.7976931348623157e308],
}


def tables(max_cols=17, extra=st.nothing()):
    shapes = st.tuples(st.integers(1, 12), st.integers(1, max_cols))
    elements = st.one_of(FINITE, st.sampled_from(EDGE_VALUES), extra)
    return arrays(np.float64, shapes, elements=elements)


def _per_cell(table: np.ndarray, spec: str, sep: str) -> str:
    return "".join(sep.join(format(x, spec) for x in row) + "\n" for row in table.tolist())


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint64)


def _read_text(text: str) -> ResponseCurve:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.s2p"
        path.write_text(text)
        return read_touchstone(path)


def _with_examples(*rows):
    def decorate(test):
        for row in rows:
            test = example(np.array([row]))(test)
        return test
    return decorate


class TestWriters:
    @given(tables(extra=NEAR_TIES))
    @_with_examples(EDGE_VALUES, *E11_CASES.values())
    def test_touchstone_cells_are_per_cell_e11(self, table):
        assert format_e11(table) == _per_cell(table, ".11e", " ").encode()

    @given(tables())
    @example(np.array([EDGE_VALUES]))
    def test_csv_cells_are_per_cell_g12(self, table):
        assert format_table(table, "%.12g", ",") == _per_cell(table, ".12g", ",")

    @settings(max_examples=30)
    @given(arrays(np.float64, (5, 6), elements=st.one_of(FINITE, st.sampled_from(EDGE_VALUES), NEAR_TIES)))
    @example(np.resize(sum(E11_CASES.values(), EDGE_VALUES), (5, 6)))
    def test_write_touchstone_body_matches_row_loop(self, parts):
        s11, s21, s22 = (parts[:, k] + 1j * parts[:, k + 1] for k in (0, 2, 4))
        curve = ResponseCurve(np.linspace(1e9, 3e9, 5), s11, s21, s22=s22)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "out.s2p"
            write_touchstone(curve, path)
            body = path.read_text().splitlines()[4:]
        expected = [
            " ".join(
                [f"{f / 1e9:.11e}"]
                + [f"{x:.11e}" for v in (a, b, b, d) for x in (v.real, v.imag)]
            )
            for f, a, b, d in zip(curve.freqs, s11, s21, s22)
        ]
        assert body == expected


def _to_complex_scalar(fmt: str, a: float, b: float) -> complex:
    """The reader's former per-pair conversion, kept as the reference."""
    if fmt == "ri":
        return complex(a, b)
    if fmt == "ma":
        return a * complex(math.cos(math.radians(b)), math.sin(math.radians(b)))
    mag = 10.0 ** (a / 20.0)
    return mag * complex(math.cos(math.radians(b)), math.sin(math.radians(b)))


SIGNED_ZEROS = st.sampled_from([0.0, -0.0])
FIRST = {
    "ri": st.one_of(FINITE, SIGNED_ZEROS, st.sampled_from(EDGE_VALUES)),
    "ma": st.one_of(FINITE, SIGNED_ZEROS, st.sampled_from(EDGE_VALUES)),
    "db": st.one_of(st.floats(-400.0, 400.0), SIGNED_ZEROS, st.just(-200.0)),
}
ANGLES = st.one_of(
    st.floats(-1e4, 1e4), SIGNED_ZEROS, st.sampled_from([90.0, -90.0, 180.0, -180.0, 270.0, 360.0])
)


class TestReader:
    @settings(max_examples=150)
    @given(
        fmt=st.sampled_from(["ri", "ma", "db"]),
        unit=st.sampled_from(["hz", "khz", "mhz", "ghz"]),
        data=st.data(),
    )
    def test_bit_identical_to_scalar_conversion(self, fmt, unit, data):
        n = data.draw(st.integers(1, 8))
        pairs = [
            [(data.draw(FIRST[fmt]), data.draw(FIRST["ri"] if fmt == "ri" else ANGLES)) for _ in range(4)]
            for _ in range(n)
        ]
        lines = [f"# {unit} S {fmt} R 50"]
        for i, row in enumerate(pairs):
            lines.append(" ".join([repr(1.5 + i)] + [repr(x) for pair in row for x in pair]))
        curve = _read_text("\n".join(lines) + "\n")

        expected = np.array([[_to_complex_scalar(fmt, a, b) for a, b in row] for row in pairs])
        mult = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}[unit]
        assert np.array_equal(_bits(curve.freqs), _bits(np.array([(1.5 + i) * mult for i in range(n)])))
        for got, col in ((curve.s11, 0), (curve.s21, 1), (curve.s22, 3)):
            assert np.array_equal(_bits(got), _bits(expected[:, col]))


FAULTS = {
    "token": "non-numeric field",
    "columns": "expected 9 columns",
    "order": "strictly increasing",
    "option": "duplicate option line",
    "nonfinite": "non-finite field",
}


class TestReaderLineNumbers:
    @given(n=st.integers(2, 10), data=st.data())
    def test_earliest_faulty_line_is_reported(self, n, data):
        lines = ["! written by hand", "# GHz S RI R 50"]
        record_line = []
        for i in range(n):
            lines += data.draw(st.lists(st.sampled_from(["", "   ", "! note"]), max_size=2))
            lines.append(f"{i + 1}.0 0 0 1 0 1 0 0 0 ! record {i}")
            record_line.append(len(lines))
        faults = data.draw(
            st.lists(
                st.tuples(st.integers(1, n - 1), st.sampled_from(sorted(FAULTS))),
                min_size=1, max_size=3, unique_by=lambda fault: fault[0],
            )
        )
        for i, kind in faults:
            fields = f"{i + 1}.0 0 0 1 0 1 0 0 0".split()
            if kind == "token":
                fields[data.draw(st.integers(0, 8))] = "one"
            elif kind == "columns":
                fields = fields[:data.draw(st.sampled_from([1, 5, 8]))]
            elif kind == "order":
                fields[0] = f"{i}.0"
            elif kind == "nonfinite":
                fields[data.draw(st.integers(0, 8))] = data.draw(st.sampled_from(["nan", "inf", "-inf"]))
            else:
                fields = ["# GHz S RI R 50"]
            lines[record_line[i] - 1] = " ".join(fields)

        first, kind = min(faults)
        with pytest.raises(TouchstoneError, match=FAULTS[kind]) as err:
            _read_text("\n".join(lines) + "\n")
        assert err.value.line_no == record_line[first]

    def test_bad_token_after_blank_and_comment_lines(self, tmp_path):
        path = tmp_path / "late.s2p"
        path.write_text(
            "! header\n"
            "# GHz S RI R 50\n"
            "1.0 0 0 1 0 1 0 0 0\n"
            "\n"
            "! a comment\n"
            "2.0 0 0 1 0 1 0 0 0\n"
            "   \n"
            "3.0 0 0 1 0 1 0 x 0\n"
            "4.0 0 0 1 0 1 0 0 0\n"
        )
        with pytest.raises(TouchstoneError) as err:
            read_touchstone(path)
        assert err.value.line_no == 8
        assert str(err.value) == "line 8: non-numeric field in '3.0 0 0 1 0 1 0 x 0'"
