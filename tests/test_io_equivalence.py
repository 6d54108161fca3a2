"""The array I/O paths against per-value scalar references.

The Touchstone and CSV writers format their tables with one numpy kernel,
rendered as ``%.11e`` and ``%.12g`` in blocks of rows, and the reader parses
and converts all records as arrays.  These properties check that each gives
exactly what formatting, parsing and converting one value at a time in Python
gives, bit for bit, and that a faulty record is still reported on its own line.
"""

import json
import math
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fsskit import cli, touchstone
from fsskit.analysis import FrequencyGrid, PassbandMetrics, ResponseCurve, sweep_response
from fsskit.builder import CircuitParams, build_network
from fsskit.errors import TouchstoneError
from fsskit.touchstone import BLOCK_CELLS, _block_rows, _e11_words, format_g12, read_touchstone, write_touchstone
from fsskit.twoport import IncidenceCondition, Polarization

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
#: one row per branch of the %.12g renderer
G12_CASES = {
    "fixed from 1e-4, exponent below": [1e-4, -1.00000000001e-4, 9.99999999999e-5, 1.23456789012e-5],
    "fixed below 1e12, exponent from": [999999999998.0, -123456789012.0, 1e12, 1.00000000001e12],
    "carry across each switch": [9.99999999999996e11, -9.99999999999996e11, 9.99999999999996e-5],
    "ties": [-123456789012.5, 12345678901.25, 1001 / 2**13, 11 / 2**16],
    "zeros, a subnormal, the -200 dB floor": [0.0, -0.0, 5e-324, -200.0],
    "leading and trailing zeros": [1.0, -10.0, 1e11, 0.5, 0.0001000002, 1.2300000000004, 9000.000001],
}
#: cells below 1e4 in magnitude, and cells that % formats: ties, a carry to
#: 1e4, exponent notation below 1e-4 and from 1e12, subnormals
G12_NARROW = [-3.25, 0.0625, 1.0, -200.0, 2.7, 1e-4, 9999.99999999, 1001 / 2**13, -11 / 2**16,
              12345678901.25, 9999.99999999996, -9.99999999999996e-5, 1e-5, -1.23456789012e-5,
              5e-324, -1e-310, -1.7976931348623157e308, 1e12]
#: fixed-notation cells from 1e4 and the carries to it, which % formats
G12_FROM_1E4 = [1e4, 12345.678, 9999.999999999998, 99999.99999999999, -5e4, 1e11,
                123456789012.3, 999999999999.4, 999999999999.5]
#: a value for every branch of both renderers, repeated to fill larger tables
MIXED = sum(G12_CASES.values(), sum(E11_CASES.values(), EDGE_VALUES)) + [-3.25, 4.5e6, 0.0625]


def _seam_tables(cols):
    """Tables of 0 rows and of one row either side of the block seams of a CSV of ``cols`` columns."""
    block = _block_rows(8 * cols)
    return [np.resize(MIXED, (rows, cols)) for rows in (0, block - 1, block, block + 1, 2 * block + 1)]


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


def _with_examples(*tables):
    def decorate(test):
        for table in tables:
            test = example(np.array(table, ndmin=2))(test)
        return test
    return decorate


#: s11 and s22 parts that the kernel formats, s21 parts that only % formats
ONLY_S21_FALLS_BACK = np.column_stack(
    [np.full((5, 2), 0.375), np.resize(E11_CASES["exact decimal ties"] + EDGE_VALUES[:3], (5, 2)),
     np.full((5, 2), -0.625)]
)


def _s2p_body_per_cell(curve: ResponseCurve) -> list[str]:
    """The data lines of a .s2p file, formatted one value at a time."""
    return [
        " ".join(
            [f"{f / 1e9:.11e}"]
            + [f"{x:.11e}" for v in (a, b, b, d) for x in (v.real, v.imag)]
        )
        for f, a, b, d in zip(curve.freqs, curve.s11, curve.s21, curve.s22)
    ]


def _written_body(curve: ResponseCurve) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.s2p"
        write_touchstone(curve, path)
        return path.read_text().splitlines()[4:]


class TestWriters:
    @given(tables(extra=NEAR_TIES))
    @_with_examples(EDGE_VALUES, *E11_CASES.values(), MIXED)
    def test_touchstone_cells_are_per_cell_e11(self, table):
        words = np.empty((table.size, 5), np.uint32)
        _e11_words(table.ravel(), words)
        words = words.reshape(len(table), -1)
        words.view(np.uint8)[:, -1] = ord("\n")
        assert words.tobytes().translate(None, b"\0") == _per_cell(table, ".11e", " ").encode()

    @pytest.mark.parametrize("rows", [1, _block_rows(45) - 1, _block_rows(45), _block_rows(45) + 1,
                                      2 * _block_rows(45) + 1, BLOCK_CELLS + 1])
    def test_write_touchstone_rows_at_the_block_seams(self, rows):
        """The s-parameter blocks are _block_rows(45) rows (9 cells of 5 words)
        and the frequency column's BLOCK_CELLS; a zero frequency and tie cells
        fall to %."""
        parts = np.resize(MIXED[::-1], (rows, 6))
        s11, s21, s22 = (parts[:, k] + 1j * parts[:, k + 1] for k in (0, 2, 4))
        curve = ResponseCurve(np.arange(rows) * 1.25e8 + np.resize([0.0, 2.0**-18], rows), s11, s21, s22=s22)
        assert _written_body(curve) == _s2p_body_per_cell(curve)

    @given(tables())
    @example(np.array([EDGE_VALUES]))
    def test_csv_cells_are_per_cell_g12(self, table):
        assert b"".join(format_g12(table)) == _per_cell(table, ".12g", ",").encode()

    @given(tables(extra=NEAR_TIES))
    @_with_examples(*G12_CASES.values(), G12_FROM_1E4, *_seam_tables(17))
    def test_g12_kernel_branches_are_per_cell(self, table):
        assert b"".join(format_g12(table)) == _per_cell(table, ".12g", ",").encode()

    @given(tables(extra=NEAR_TIES).flatmap(lambda t: st.tuples(st.just(t), arrays(bool, t.shape))))
    @example(tuple(np.resize(v, (2 * _block_rows(8 * 7) + 1, 7)) for v in (MIXED, [True, False, False])))
    @example((np.array([G12_FROM_1E4]), np.arange(9)[None] % 4 == 1))
    def test_blank_cells_are_empty(self, case):
        table, blank = case
        expected = "".join(
            ",".join("" if b else format(x, ".12g") for x, b in zip(row, flags)) + "\n"
            for row, flags in zip(table.tolist(), blank.tolist())
        )
        assert b"".join(format_g12(np.where(blank, np.nan, table))) == expected.encode()

    @settings(max_examples=30)
    @given(arrays(np.float64, (5, 6), elements=st.one_of(FINITE, st.sampled_from(EDGE_VALUES), NEAR_TIES)))
    @example(np.resize(sum(E11_CASES.values(), EDGE_VALUES), (5, 6)))
    @example(ONLY_S21_FALLS_BACK)
    def test_write_touchstone_body_matches_row_loop(self, parts):
        s11, s21, s22 = (parts[:, k] + 1j * parts[:, k + 1] for k in (0, 2, 4))
        curve = ResponseCurve(np.linspace(1e9, 3e9, 5), s11, s21, s22=s22)
        assert _written_body(curve) == _s2p_body_per_cell(curve)

    def test_g12_cell_widths_at_the_block_seams(self):
        """Every cell is six words, in blocks of _block_rows(8 * cols) rows.
        0.0, NaN, ties, carries, 1e-5, subnormals, exponent notation and
        fixed notation from 1e4 fall to % (or are blank), and their text fits
        the 23 bytes a cell has after its separator."""
        assert max(len(b"%.12g" % x) for x in G12_NARROW + G12_FROM_1E4) <= 23
        cols = 7
        rows = _block_rows(8 * cols)
        narrow = np.resize(G12_NARROW, (rows, cols))
        wide, zero = narrow.copy(), narrow.copy()
        wide.flat[-len(G12_FROM_1E4):] = G12_FROM_1E4
        wide[0, 0], zero[3, 2] = np.nan, 0.0
        table = np.concatenate([narrow, wide, zero, narrow[:5]])
        with mock.patch.object(touchstone, "_text", wraps=touchstone._text) as text:
            written = b"".join(format_g12(table))
        block_words = [call.args[0].size for call in text.call_args_list]
        assert block_words == [6 * rows * cols + 1] * 3 + [6 * 5 * cols + 1]
        expected = "".join(
            ",".join("" if math.isnan(x) else format(x, ".12g") for x in row) + "\n" for row in table.tolist()
        )
        assert written == expected.encode()

    @pytest.mark.parametrize("cols", [6826, 6827, 7001])
    def test_a_row_wider_than_a_block_is_a_block_of_its_own(self, cols):
        """From 6827 columns a row's six-word cells outgrow a block's 40960 words;
        each row is then one block, in words sized for it."""
        table = np.resize(MIXED, (2, cols))
        table[0, 3], table[1, -1] = np.nan, np.nan
        with mock.patch.object(touchstone, "_text", wraps=touchstone._text) as text:
            written = b"".join(format_g12(table))
        assert [call.args[0].size for call in text.call_args_list] == [6 * cols + 1] * 2
        expected = "".join(
            ",".join("" if math.isnan(x) else format(x, ".12g") for x in row) + "\n" for row in table.tolist()
        )
        assert written == expected.encode()


def _metrics_csv_per_cell(rows) -> bytes:
    """The metrics CSV as the former per-cell loop wrote it, kept as the reference.

    ``rows`` are the summary's rows: ``w_mm``, then each metric or None.
    """
    names = ["w_mm"] + [name for name, _ in cli._METRIC_FIELDS]
    lines = [",".join(names)]
    for row in rows:
        lines.append(",".join("" if row[name] is None else f"{row[name]:.12g}" for name in names))
    return ("\n".join(lines) + "\n").encode()


METRIC_VALUES = st.one_of(FINITE, st.sampled_from(EDGE_VALUES), NEAR_TIES)
PASSBANDS = st.builds(
    PassbandMetrics, METRIC_VALUES, METRIC_VALUES, METRIC_VALUES, METRIC_VALUES, METRIC_VALUES,
    st.one_of(st.none(), METRIC_VALUES),
)


class TestMetricsCsv:
    @given(st.lists(st.tuples(METRIC_VALUES, PASSBANDS), max_size=12))
    @example([])
    @example([(0.5, PassbandMetrics(4.1e9, 0.75, 2e8, 0.0487804878049, 20.5))])
    def test_rows_match_the_per_cell_loop(self, rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "metrics.csv"
            summary_rows = [dict(w_mm=w_mm, **cli._metrics_dict(m)) for w_mm, m in rows]
            cli._write_metrics_csv(path, summary_rows)
            written = path.read_bytes()
        assert written == _metrics_csv_per_cell(summary_rows)

    @pytest.mark.parametrize("widths, ok_rows", [([5.5, 5.9], 2), ([30.0, 0.001, 40.0], 0)])
    def test_sweep_w_file_matches_the_per_cell_loop(self, widths, ok_rows, tmp_path, capsys):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(
            {"mode": "sweep-w", "sweep": {"w_mm": widths}, "output": {"metrics_csv": "m.csv"}}
        ))
        assert cli.main(["--config", str(config), "--out-dir", str(tmp_path)]) == cli.EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert len(summary["rows"]) == ok_rows
        assert len(summary["failures"]) == len(widths) - ok_rows
        assert all(row["f_zero_ghz"] is None for row in summary["rows"])
        assert (tmp_path / "m.csv").read_bytes() == _metrics_csv_per_cell(summary["rows"])


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


#: the largest y whose 10.0 ** y is finite (a dB magnitude of 6165.09...) and
#: the largest whose 10.0 ** y is 0
Y_MAX, Y_ZERO = 308.2547155599167, -323.6072453387798
EXPONENTS = st.one_of(
    st.floats(Y_ZERO - 10.0, Y_MAX),  # every magnitude that does not overflow
    st.floats(-323.7, -307.6),  # subnormal and zero results
    SIGNED_ZEROS,
    st.sampled_from([Y_MAX, Y_ZERO, math.nextafter(Y_ZERO, 0.0)]),
)


class TestDbMagnitudes:
    """The reader takes each dB magnitude from ``np.float_power``, which calls
    libm's ``pow`` as CPython's ``**`` does; ``np.power``'s SIMD loop differs
    in the last bit for some inputs."""

    @given(arrays(np.float64, st.integers(1, 100), elements=EXPONENTS))
    @example(np.array([Y_MAX, Y_ZERO, math.nextafter(Y_ZERO, 0.0), 0.0, -0.0, -310.0, -320.5] * 3))
    def test_float_power_is_cpython_pow_bit_for_bit(self, y):
        assert np.array_equal(_bits(np.float_power(10.0, y)), _bits(np.array([10.0 ** v for v in y.tolist()])))

    @given(st.floats(20.0 * math.nextafter(Y_MAX, math.inf), 1e308), st.sampled_from(["", "! late\n"]))
    @example(6165.1, "")
    def test_overflow_is_a_touchstone_error_not_a_warning(self, db, late):
        text = f"# GHz S DB R 50\n1.0 0 0 0 0 0 0 0 0\n{late}2.0 0 0 {db!r} 0 0 0 0 0\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TouchstoneError, match="dB magnitude overflows") as err:
                _read_text(text)
        assert err.value.line_no == 3 + bool(late)


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


# ---------------------------------------------------------------------------
# the one-call parse of the records against the line loop

#: runs of characters that both str.split and np.loadtxt read as whitespace
SEPARATORS = st.text(st.sampled_from(" \t\x0c\xa0\x85"), min_size=1, max_size=3)
#: tokens that float() reads and np.loadtxt does not: no number on either path
LINE_ONLY_TOKENS = ("1_0", "١", "0.2_5")


def _read_bytes(text: str) -> ResponseCurve:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "case.s2p"
        path.write_bytes(text.encode())
        return read_touchstone(path)


def _with_late_note(text: str, eol: str) -> str:
    """``text`` with a ``! note`` line after its first record, which the line loop must read."""
    lines = text.split(eol)
    first = next(i for i, line in enumerate(lines) if line.strip() and line.strip()[0] not in "!#")
    return eol.join(lines[: first + 1] + ["! note"] + lines[first + 1 :])


def _assert_same_curve(got: ResponseCurve, expected: ResponseCurve):
    for name in ("freqs", "s11", "s21", "s22"):
        assert np.array_equal(_bits(getattr(got, name)), _bits(getattr(expected, name))), name
    assert _bits(np.array(got.incidence.theta)) == _bits(np.array(expected.incidence.theta))
    assert got.incidence.polarization is expected.incidence.polarization


class TestReaderPaths:
    """A file whose comments all come first is parsed in one call; the line loop reads any other."""

    @settings(max_examples=100)
    @given(
        fmt=st.sampled_from(["ri", "ma", "db"]),
        unit=st.sampled_from(["hz", "khz", "mhz", "ghz"]),
        data=st.data(),
    )
    def test_both_paths_agree_bit_for_bit(self, fmt, unit, data):
        header = ["! written by hand", f"# {unit.upper()} S {fmt.upper()} R 50"]
        if data.draw(st.booleans()):
            theta = data.draw(st.floats(0.0, 89.0))
            header += [f"! incidence theta_deg = {theta!r}", f"! polarization = {data.draw(st.sampled_from(['TE', 'TM']))}"]
        spoiled = data.draw(st.booleans())  # whether a field may be a line-only token
        records, line_only = [], []  # the line numbers of the records, and of those with a line-only token
        body = []
        for i in range(data.draw(st.integers(1, 6))):
            body += data.draw(st.lists(st.sampled_from(["", "  ", "\t\xa0", "\x0c"]), max_size=2))
            fields = [repr(1.5 + i)]
            for _ in range(4):
                for kind in (FIRST[fmt], FIRST["ri"] if fmt == "ri" else ANGLES):
                    token = kind.map(repr)
                    fields.append(data.draw(st.one_of(token, st.sampled_from(LINE_ONLY_TOKENS)) if spoiled else token))
            lead = data.draw(st.sampled_from(["", " ", "\xa0\t"]))
            body.append(lead + "".join(token + data.draw(SEPARATORS) for token in fields))
            records.append(len(header) + len(body))
            if set(fields) & set(LINE_ONLY_TOKENS):
                line_only.append(records[-1])
        eol = data.draw(st.sampled_from(["\n", "\r\n"]))
        text = eol.join(header + body) + eol

        if line_only:
            for late in (False, True):  # the late note comes after the first record
                with pytest.raises(TouchstoneError, match="non-numeric field") as err:
                    _read_bytes(_with_late_note(text, eol) if late else text)
                assert err.value.line_no == line_only[0] + (late and line_only[0] > records[0])
            return
        with mock.patch.object(touchstone, "_parse_lines", wraps=touchstone._parse_lines) as loop:
            curve = _read_bytes(text)
        assert not loop.called
        _assert_same_curve(curve, _read_bytes(_with_late_note(text, eol)))

    def _second_order_curve(self, n):
        params = CircuitParams(L=2.85e-9, L1=1.61e-9, C1=0.6e-12, R=0.1, R1=0.1, h=0.254e-3,
                               eps_r=2.2, order=2, h1=10e-3)
        inc = IncidenceCondition(math.radians(30.0), Polarization.TM)
        return sweep_response(build_network(params), FrequencyGrid(1e9, 5e9, n), inc)

    @pytest.mark.parametrize("shape", ["write_touchstone, 2001 points", "dB/MHz, 401 points"])
    def test_written_files_take_the_one_call_parse(self, shape, tmp_path, monkeypatch):
        path = tmp_path / "written.s2p"
        if shape.startswith("write_touchstone"):
            curve = self._second_order_curve(2001)
            write_touchstone(curve, path)
            rel = 1e-11
        else:  # shaped like a measured file: MHz, dB and degrees, 12 significant digits
            curve = self._second_order_curve(401)
            s = np.column_stack([curve.s11, curve.s21, curve.s21, curve.s11])
            table = np.column_stack([curve.freqs / 1e6, *(
                part for k in range(4) for part in (20 * np.log10(abs(s[:, k])), np.angle(s[:, k], deg=True))
            )])
            head = "! measured-style reference curve\n# MHz S DB R 376.73\n"
            path.write_text(head + _per_cell(table, ".12g", " "))
            rel = 1e-10
        text = path.read_text()
        late = tmp_path / "late.s2p"
        late.write_text(_with_late_note(text, "\n"))
        expected = read_touchstone(late)

        def refuse(*args):
            raise AssertionError("the line loop read a file that np.loadtxt parses")

        monkeypatch.setattr(touchstone, "_parse_lines", refuse)
        got = read_touchstone(path)
        _assert_same_curve(got, expected)
        assert len(got) == len(curve)
        for name in ("freqs", "s11", "s21"):
            np.testing.assert_allclose(getattr(got, name), getattr(curve, name), rtol=rel, atol=1e-12)
