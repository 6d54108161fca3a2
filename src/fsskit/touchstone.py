"""Touchstone v1 two-port reader and writer.

The writer emits RI format in GHz with 12 significant digits and records
the incidence condition in comment lines so a round trip restores it.
The reader accepts RI, MA, and dB formats in any standard frequency unit.
"""

from __future__ import annotations

import math
import os

import numpy as np

from . import __version__
from .analysis import ResponseCurve
from .errors import TouchstoneError
from .twoport import IncidenceCondition, Polarization

_UNIT_HZ = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}


def format_table(table: np.ndarray, spec: str, sep: str) -> str:
    """Text lines of a 2-D float table, each cell exactly ``spec % cell``.

    One ``%`` over the row template repeated per row formats the whole table.
    """
    rows, cols = table.shape
    return ((sep.join([spec] * cols) + "\n") * rows) % tuple(table.ravel().tolist())


def write_touchstone(curve: ResponseCurve, path: str | os.PathLike) -> None:
    """Write a two-port .s2p file: f_GHz then re/im pairs of s11 s21 s12 s22.

    s12 duplicates s21 (reciprocal network); s22 falls back to s11 when the
    curve does not carry it.
    """
    s22 = curve.s22 if curve.s22 is not None else curve.s11
    header = [
        f"! fsskit {__version__}",
        f"! incidence theta_deg = {math.degrees(curve.incidence.theta):.12g}",
        f"! polarization = {curve.incidence.polarization.value}",
        "# GHz S RI R 376.73",
    ]
    s = np.column_stack([curve.s11, curve.s21, curve.s21, s22])
    table = np.column_stack([curve.freqs / 1e9, s.view(float)])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(header) + "\n" + format_table(table, "%.11e", " "))


def _parse_option_line(tokens: list[str], line_no: int) -> tuple[float, str, float]:
    """Return (unit multiplier, data format, reference impedance)."""
    unit, fmt, z_ref = "ghz", "ma", 50.0
    want_r_value = False
    for tok in tokens:
        t = tok.lower()
        if want_r_value:
            try:
                z_ref = float(tok)
            except ValueError as exc:
                raise TouchstoneError(f"bad reference impedance {tok!r}", line_no) from exc
            want_r_value = False
        elif t in _UNIT_HZ:
            unit = t
        elif t in ("ri", "ma", "db"):
            fmt = t
        elif t == "r":
            want_r_value = True
        elif t in ("y", "z", "g", "h"):
            raise TouchstoneError(f"unsupported parameter type {tok!r}", line_no)
        elif t == "s":
            pass
        else:
            raise TouchstoneError(f"unrecognized option token {tok!r}", line_no)
    if want_r_value:
        raise TouchstoneError("option line ends after 'R' without a value", line_no)
    return _UNIT_HZ[unit], fmt, z_ref


def _to_complex(fmt: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Complex values from the two columns of each pair in RI, MA or dB.

    A dB magnitude too large for a float raises OverflowError.
    """
    if fmt == "db":
        # numpy's pow differs from CPython's in the last bit for some inputs
        a = np.array([10.0 ** x for x in (a / 20.0).ravel().tolist()]).reshape(a.shape)
    if fmt != "ri":
        rad = np.radians(b)
        cos, sin = np.cos(rad), np.sin(rad)
        # mag * complex(cos, sin) as CPython (before 3.14) computes it: mag is
        # promoted to mag + 0j, and the 0j terms set the sign of zero results
        a, b = a * cos - 0.0 * sin, a * sin + 0.0 * cos
    out = np.empty(a.shape, dtype=complex)
    out.real, out.imag = a, b
    return out


def _parse_records(records: list, mult: float, fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies in Hz and the (n, 4) complex values of (line_no, line, tokens) records.

    Raises for the earliest record with a non-numeric or non-finite field,
    a frequency that does not increase, or a dB magnitude that overflows.
    """
    try:
        values = np.array([tokens for _, _, tokens in records], dtype=float)
    except ValueError:
        for bad, (line_no, line, tokens) in enumerate(records):
            try:
                list(map(float, tokens))
            except ValueError:
                break
        if bad:
            _parse_records(records[:bad], mult, fmt)
        raise TouchstoneError(f"non-numeric field in {line!r}", line_no) from None
    freqs = values[:, 0] * mult
    bad = ~np.isfinite(values).all(axis=1)
    bad[1:] |= freqs[1:] <= freqs[:-1]
    if bad.any():
        i = int(np.argmax(bad))
        if i:
            _parse_records(records[:i], mult, fmt)
        line_no, line, _ = records[i]
        if not np.isfinite(values[i]).all():
            raise TouchstoneError(f"non-finite field in {line!r}", line_no)
        raise TouchstoneError(
            f"frequencies must be strictly increasing; "
            f"{float(freqs[i])} follows {float(freqs[i - 1])}",
            line_no,
        )
    try:
        return freqs, _to_complex(fmt, values[:, 1::2], values[:, 2::2])
    except OverflowError:
        for (line_no, line, _), row in zip(records, values):
            try:
                _to_complex(fmt, row[1::2], row[2::2])
            except OverflowError:
                raise TouchstoneError(f"dB magnitude overflows in {line!r}", line_no) from None
        raise


def read_touchstone(path: str | os.PathLike) -> ResponseCurve:
    """Read a two-port .s2p file into a ResponseCurve (Hz, complex RI).

    Comment lines are ignored except for the incidence annotations this
    package writes, which are restored when present.
    """
    theta_deg = 0.0
    pol = Polarization.TE
    mult = fmt = None
    records: list[tuple[int, str, list[str]]] = []

    with open(path, "r", encoding="utf-8") as fh:
        try:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line:
                    continue
                if line.startswith("!"):
                    body = line[1:].strip()
                    if body.startswith("incidence theta_deg"):
                        try:
                            theta_deg = float(body.split("=", 1)[1])
                        except (IndexError, ValueError):
                            pass
                    elif body.startswith("polarization"):
                        value = body.split("=", 1)[-1].strip().upper()
                        if value in ("TE", "TM"):
                            pol = Polarization[value]
                    continue
                if line.startswith("#"):
                    if mult is not None:
                        raise TouchstoneError("duplicate option line", line_no)
                    mult, fmt, _ = _parse_option_line(line[1:].split(), line_no)
                    continue
                if mult is None:
                    raise TouchstoneError("data before the option line", line_no)
                tokens = line.split("!", 1)[0].split()
                if len(tokens) != 9:
                    raise TouchstoneError(
                        f"expected 9 columns for a two-port record, got {len(tokens)}",
                        line_no,
                    )
                records.append((line_no, line, tokens))
        except TouchstoneError:
            if records:  # a fault in an earlier record is reported first
                _parse_records(records, mult, fmt)
            raise

    if mult is None:
        raise TouchstoneError("file has no option line", line_no=None)
    if not records:
        raise TouchstoneError("file holds no data records", line_no=None)
    freqs, data = _parse_records(records, mult, fmt)
    return ResponseCurve(
        freqs=freqs,
        s11=data[:, 0],
        s21=data[:, 1],
        incidence=IncidenceCondition(math.radians(theta_deg), pol),
        s22=data[:, 3],
    )
