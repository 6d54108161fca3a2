"""Touchstone v1 two-port reader and writer.

The writer emits RI format in GHz and records the incidence condition in
comment lines so a round trip restores it.  Each cell is exactly CPython's
``"%.11e" % cell`` (12 significant digits): a numpy kernel formats the
cells whose correct rounding it can decide, and ``%`` formats the rest one
at a time.  The reader accepts RI, MA, and dB formats in any standard
frequency unit.
"""

from __future__ import annotations

import functools
import math
import os

import numpy as np

from . import __version__
from .analysis import ResponseCurve
from .errors import DomainError, TouchstoneError
from .twoport import IncidenceCondition, Polarization

_UNIT_HZ = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}


def format_table(table: np.ndarray, spec: str, sep: str) -> str:
    """Text lines of a 2-D float table, each cell exactly ``spec % cell``.

    One ``%`` over the row template repeated per row formats the whole table.
    """
    rows, cols = table.shape
    return ((sep.join([spec] * cols) + "\n") * rows) % tuple(table.ravel().tolist())


#: 10**k for k in 0..22, each exact in a double (5**22 < 2**53)
_POW10 = np.array([10**k for k in range(23)], dtype=float)


def _words(*columns) -> np.ndarray:
    """A table of 4-byte words; column j, broadcast, gives byte j of each word."""
    rows = np.stack(np.broadcast_arrays(*columns), axis=1)
    return rows.astype(np.uint8).view(np.uint32).ravel()


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The word tables of ``format_e11``, built once, on its first call.

    A cell is five words, and its NUL bytes are dropped from the output:
    NUL, sign or NUL, digit, "." | 4 digits | 4 digits | 3 digits, "e" |
    exponent sign, 2 exponent digits, separator.
    """
    ascii_digits = np.frombuffer(b"0123456789", np.uint8)
    four = np.stack(np.meshgrid(*[ascii_digits] * 4, indexing="ij"), axis=-1).reshape(10000, 4)
    e = np.arange(-11, 34)  # the exponents of the kernel's range
    return (
        _words(0, np.repeat([0, ord("-")], 10), np.tile(ascii_digits, 2), ord(".")),  # [d + 10 * (x < 0)]
        _words(*four.T),  # [q]: the 4 digits of q
        _words(*four[:1000, 1:].T, ord("e")),  # [q]: the 3 digits of q, "e"
        _words(np.where(e < 0, ord("-"), ord("+")), *four[abs(e), 2:].T, ord(" ")),  # [11 + e]
    )


def format_e11(table: np.ndarray) -> bytes:
    """Space-separated lines of a 2-D float table, each cell exactly ``"%.11e" % cell``.

    With ``e = floor(log10|x|)``, one multiply or divide by an exact power
    of ten scales ``|x|`` to ``m``, the 12-digit mantissa, rounded once.
    Half is representable in that range and rounding is monotonic, so ``m``
    lies on the same side of every ``n + 0.5`` as the exact mantissa, and
    ``rint(m)`` is its correctly rounded digits unless ``m`` is a tie.
    Cells outside ``|11 - e| <= 22``, ties, and mantissas that fall outside
    ``[1e11, 1e12 - 1)`` (a wrong ``e`` or a carry to ``10.0``) are formatted
    one at a time by ``%``, so CPython settles every case the kernel cannot.
    """
    cols = table.shape[1]
    x = table.ravel()
    m = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = 11.0 - np.floor(np.log10(m))
    ok = np.abs(k) <= 22.0
    k[~ok] = 0.0
    k = k.astype(np.intp)
    m *= _POW10[np.maximum(k, 0)]
    m /= _POW10[np.maximum(-k, 0)]
    ok &= (m >= 1e11) & (m < 1e12 - 1) & (m - np.floor(m) != 0.5)
    fallback = np.flatnonzero(~ok)
    m[fallback] = 1e11
    first, n = np.divmod(np.rint(m, out=m).astype(np.int64), 10**11)
    first += 10 * np.signbit(x)
    high, n = np.divmod(n, 10**7)
    low, n = np.divmod(n, 10**3)

    lead, digits4, tail, exponent = _tables()
    cells = np.empty((x.size, 5), np.uint32)
    cells[:, 0] = lead[first]
    cells[:, 1] = digits4[high]
    cells[:, 2] = digits4[low]
    cells[:, 3] = tail[n]
    cells[:, 4] = exponent[22 - k]
    text = cells.view(np.uint8)
    text[cols - 1 :: cols, -1] = ord("\n")
    for i, value in zip(fallback.tolist(), x[fallback].tolist()):
        text[i, :-1] = np.frombuffer((b"%.11e" % value).ljust(19, b"\0"), np.uint8)
    return text.tobytes().translate(None, b"\0")


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
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode())
        fh.write(format_e11(table))


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
    package writes, ``! incidence theta_deg = <degrees>`` and
    ``! polarization = TE|TM``, which are restored when present.  An
    annotation whose value is missing or invalid raises TouchstoneError.
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
                    key, _, value = line[1:].partition("=")
                    key, value = key.strip(), value.strip()
                    if key == "incidence theta_deg":
                        try:
                            theta_deg = float(value)
                        except ValueError:
                            raise TouchstoneError(f"bad incidence angle in {line!r}", line_no) from None
                        try:
                            IncidenceCondition(math.radians(theta_deg), pol)
                        except DomainError as exc:
                            raise TouchstoneError(f"{exc} in {line!r}", line_no) from None
                    elif key == "polarization":
                        if value.upper() not in ("TE", "TM"):
                            raise TouchstoneError(f"polarization must be TE or TM in {line!r}", line_no)
                        pol = Polarization[value.upper()]
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
