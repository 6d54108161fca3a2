"""Touchstone v1 two-port reader and writer, the decimal text kernel, and
``create``, which opens every artifact the package writes.

The writer emits RI format in GHz and records the incidence condition in
comment lines so a round trip restores it.  The reader accepts RI, MA, and
dB formats in any standard frequency unit.

Both text formats share one numpy kernel.  ``_mantissa`` rounds each cell
once to its 12 significant digits and marks the cells whose correct
rounding it cannot decide; ``_e11_words`` renders the digits as CPython's
``"%.11e" % cell`` (each Touchstone number) and ``_g12_lines`` as
``"%.12g" % cell`` (each CSV number).  ``%`` formats the marked cells one
at a time, so every cell is exactly what ``%`` gives.

A writer formats its table a block of whole rows at a time in a set of
arrays of its own (``_Blocks``), and writes each block's text as it comes,
so the memory that formatting takes does not grow with the table.  A .s2p
file's frequency column is formatted once per grid: its cell words are
held for the process per grid (``twoport.held``), for the next file on
that grid.
"""

from __future__ import annotations

import functools
import math
import os
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import ResponseCurve
from .errors import DomainError, TouchstoneError
from .twoport import ETA0, IncidenceCondition, Polarization, aligned_empty, all_finite, held

_UNIT_HZ = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}

#: A block is whole rows of at most BLOCK_CELLS ``%.11e`` cells, five words
#: each, or of as many ``%.12g`` cells, eight words each, as fill the same
#: words (5120).  A writer formats each block in its own ``_Blocks``.
BLOCK_CELLS = 8192
_BLOCK_WORDS = 5 * BLOCK_CELLS
#: A block's text is made _PIECE_WORDS words at a time.  Each piece is a new
#: bytes object, small enough that freeing it does not trim the heap (README,
#: "Performance notes").
_PIECE_WORDS = 16384

#: 10**k for k in 0..22, each exact in a double (5**22 < 2**53)
_POW10 = np.array([10**k for k in range(23)], dtype=float)
#: 10**k for k in 0..15 as integers
_IPOW10 = 10 ** np.arange(16, dtype=np.int64)


def create(path: str | os.PathLike):
    """Open ``path`` for binary writing as a new regular file, unlinking what the name held.

    So a symlink at the name is replaced, not written through, and a hard link
    is broken.  OSError is raised for a directory at the name, for an existing
    file in a directory the user cannot write (or in a sticky directory, owned
    by another user), and for a file another process creates at the name
    between the two steps.
    """
    Path(path).unlink(missing_ok=True)
    return open(path, "xb")


class _Blocks:
    """The arrays that one writer makes and formats its blocks in.

    ``parts`` takes a block's values, ``cells`` its cell words (and one word
    more) and ``lines`` a .s2p block's rows of words.  Each block overwrites
    them; the text made from them is a copy, so they go with the writer.
    """

    def __init__(self):
        self.parts = np.empty(BLOCK_CELLS)
        self.cells = np.empty(_BLOCK_WORDS + 1, np.uint32)
        self.lines = np.empty(_BLOCK_WORDS, np.uint32)


def _divmod(a: np.ndarray, b) -> tuple[np.ndarray, np.ndarray]:
    """``np.divmod(a, b)`` for nonnegative ``a`` and positive ``b``.

    Floor division by a scalar takes a fast path that ``np.divmod`` does not.
    """
    q = a // b
    return q, a - q * b


def _text(words: np.ndarray) -> Iterator[bytes]:
    """The text of ``words`` without its NUL bytes, in pieces of _PIECE_WORDS words."""
    words = words.ravel()
    for i in range(0, words.size, _PIECE_WORDS):
        yield words[i : i + _PIECE_WORDS].tobytes().translate(None, b"\0")


def _block_rows(row_words: int) -> int:
    """The rows of a block whose rows take ``row_words`` cell words each."""
    return max(1, _BLOCK_WORDS // row_words)


def _mantissa(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rounded 12-digit mantissa ``n``, the scale ``k`` and the decided mask of ``x``.

    With ``e = floor(log10|x|)`` and ``k = 11 - e``, one multiply or divide
    by an exact power of ten scales ``|x|`` to ``m``, the 12-digit mantissa,
    rounded once.  Half is representable in that range and rounding is
    monotonic, so ``m`` lies on the same side of every ``n + 0.5`` as the
    exact mantissa, and ``n = rint(m)`` is its correctly rounded digits
    unless ``m`` is a tie.  Cells outside ``|k| <= 22``, ties, and mantissas
    that fall outside ``[1e11, 1e12 - 1)`` (a wrong ``e`` or a carry to the
    next power of ten) are not decided; their ``n`` is ``10**11`` and their
    ``k`` lies in ``[-22, 22]``.  A decided cell is ``n * 10**-k``, exactly
    to 12 digits, and its decimal exponent is ``11 - k``.
    """
    m = np.abs(x)
    with np.errstate(divide="ignore", invalid="ignore"):
        k = 11.0 - np.floor(np.log10(m))
        ok = np.abs(k) <= 22.0
        k[~ok] = 0.0
        k = k.astype(np.intp)
        m *= _POW10[np.maximum(k, 0)]
        m /= _POW10[np.maximum(-k, 0)]
        ok &= (m >= 1e11) & (m < 1e12 - 1) & (m - np.floor(m) != 0.5)
    m[~ok] = 1e11
    return np.rint(m, out=m).astype(np.int64), k, ok


def _words(*columns) -> np.ndarray:
    """A table of 4-byte words; column j, broadcast, gives byte j of each word."""
    rows = np.stack(np.broadcast_arrays(*columns), axis=1)
    return rows.astype(np.uint8).view(np.uint32).ravel()


def _digits(width: int) -> np.ndarray:
    """The ASCII digits of 0 .. 10**width - 1, one row of ``width`` bytes each."""
    ascii_digits = np.frombuffer(b"0123456789", np.uint8)
    grid = np.meshgrid(*[ascii_digits] * width, indexing="ij")
    return np.stack(grid, axis=-1).reshape(10**width, width)


@functools.cache
def _e11_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The word tables of ``_e11_words``, built once, on its first call.

    A cell is five words, and its NUL bytes are dropped from the output:
    NUL, sign or NUL, digit, "." | 4 digits | 4 digits | 3 digits, "e" |
    exponent sign, 2 exponent digits, separator.
    """
    ascii_digits = np.frombuffer(b"0123456789", np.uint8)
    four = _digits(4)
    e = np.arange(-11, 34)  # the exponents of the kernel's range
    return (
        _words(0, np.repeat([0, ord("-")], 10), np.tile(ascii_digits, 2), ord(".")),  # [d + 10 * (x < 0)]
        _words(*four.T),  # [q]: the 4 digits of q
        _words(*four[:1000, 1:].T, ord("e")),  # [q]: the 3 digits of q, "e"
        _words(np.where(e < 0, ord("-"), ord("+")), *four[abs(e), 2:].T, ord(" ")),  # [11 + e]
    )


def _e11_words(x: np.ndarray, cells: np.ndarray) -> None:
    """Write the ``"%.11e "`` cells of the 1-D ``x`` into ``cells``, five words each.

    A cell is its sign, the first digit of ``n``, ".", the other 11, the
    exponent ``11 - k`` (see ``_mantissa``) and a space; ``%`` formats the
    undecided cells.
    """
    n, k, ok = _mantissa(x)
    lead, digits4, tail, exponent = _e11_tables()
    cells[:, 4] = exponent[22 - k]
    first, n = _divmod(n, 10**11)
    first += 10 * np.signbit(x)
    high, n = _divmod(n, 10**7)
    low, n = _divmod(n, 10**3)
    cells[:, 0] = lead[first]
    cells[:, 1] = digits4[high]
    cells[:, 2] = digits4[low]
    cells[:, 3] = tail[n]
    text = cells.view(np.uint8)
    fallback = np.flatnonzero(~ok)
    for i, value in zip(fallback.tolist(), x[fallback].tolist()):
        text[i, :-1] = np.frombuffer((b"%.11e" % value).ljust(19, b"\0"), np.uint8)


def _e11_lines(s: list[np.ndarray], frequency: np.ndarray, blocks: _Blocks) -> Iterator[bytes]:
    """.s2p lines: the cell words ``frequency``, then the ``"%.11e"`` cells of the
    re/im pairs of ``s``, s11, s21 and s22, with the s21 pair's words again as s12."""
    rows = len(frequency)
    parts = blocks.parts[: 6 * rows].view(complex).reshape(rows, 3)
    for j, column in enumerate(s):
        parts[:, j] = column
    cells = blocks.cells[: 30 * rows].reshape(rows, 6, 5)
    _e11_words(parts.view(float).ravel(), cells.reshape(-1, 5))
    words = blocks.lines[: 45 * rows].reshape(rows, 9, 5)
    words[:, 0] = frequency
    words[:, 1:5] = cells[:, :4]
    words[:, 5:] = cells[:, 2:]
    words.view(np.uint8)[:, -1, -1] = ord("\n")
    yield from _text(words)


@functools.cache
def _g12_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The word tables of ``format_g12``, built once, on its first call.

    A cell is eight words, and its NUL bytes are dropped from the output:
    the separator before it, sign or NUL, "0" or NUL, NUL | the integer
    part's 3 groups of 4 digits | ".", then the fraction's 15 digits in
    groups of 3, 4, 4, 4.  Tables indexed ``q`` write the group ``q`` with
    its leading or trailing zeros as NUL; indexed ``q + 10**width`` they
    write it in full.
    """
    four, three = _digits(4), _digits(3)
    q4, q3 = np.arange(10**4)[:, None], np.arange(10**3)[:, None]
    nul = np.uint8(0)
    leading = np.where(q4 < 10 ** np.arange(3, -1, -1), nul, four)
    trailing = np.where(q4 % 10 ** np.arange(4, 0, -1) == 0, nul, four)
    point_trailing = np.where(q3 % 10 ** np.arange(3, 0, -1) == 0, nul, three)
    points = np.full((2000, 1), ord("."))
    points[0] = 0  # a zero fraction has no point
    return (
        # [(x < 0) + 2 * (e < 0)]
        _words(ord(","), [0, ord("-"), 0, ord("-")], [0, 0, ord("0"), ord("0")], 0),
        _words(*np.concatenate([leading, four]).T),  # [q + 10**4 * (higher digits)]
        # [q + 10**3 * (lower nonzero digits)]
        _words(*np.concatenate([points, np.concatenate([point_trailing, three])], axis=1).T),
        _words(*np.concatenate([trailing, four]).T),  # [q + 10**4 * (lower nonzero digits)]
    )


def _g12_lines(block: np.ndarray, blocks: _Blocks) -> Iterator[bytes]:
    """Comma-separated lines of ``"%.12g"`` cells, with the NaN cells empty."""
    x = block.ravel()
    n, k, ok = _mantissa(x)
    ok &= (k >= 0) & (k <= 15)  # fixed notation: -4 <= e < 12
    k = np.clip(k, 0, 15)
    head, integer, point, fraction = _g12_tables()
    words = blocks.cells[: 8 * x.size + 1]
    cells = words[:-1].reshape(x.size, 8)
    cells[:, 0] = head[np.signbit(x) + 2 * (k >= 12)]
    n, f = _divmod(n, _IPOW10[k])
    f *= _IPOW10[15 - k]  # the fraction's digits, left-aligned to 15
    high, n = _divmod(n, 10**8)
    mid, n = _divmod(n, 10**4)
    cells[:, 1] = integer[high]
    cells[:, 2] = integer[mid + 10**4 * (k <= 3)]
    cells[:, 3] = integer[n + 10**4 * (k <= 7)]
    q, f = _divmod(f, 10**12)
    cells[:, 4] = point[q + 10**3 * (f > 0)]
    q, f = _divmod(f, 10**8)
    cells[:, 5] = fraction[q + 10**4 * (f > 0)]
    q, f = _divmod(f, 10**4)
    cells[:, 6] = fraction[q + 10**4 * (f > 0)]
    cells[:, 7] = fraction[f]
    text = cells.view(np.uint8)
    fallback = np.flatnonzero(~ok)
    for i, value in zip(fallback.tolist(), x[fallback].tolist()):
        text[i, 1:] = np.frombuffer((b"%.12g" % value).ljust(31, b"\0"), np.uint8)
    text[np.isnan(x), 1:] = 0
    text.reshape(block.shape + (32,))[:, 0, 0] = ord("\n")  # a row's first separator ends the row before
    text[0, 0] = 0  # the block's first row has none before it
    words[-1] = ord("\n")  # and one word after the cells ends its last
    yield from _text(words)


def format_g12(table: np.ndarray) -> Iterator[bytes]:
    """Comma-separated lines of a 2-D float table, each cell exactly ``"%.12g" % cell``.

    The text comes one block of rows at a time, to be written as it comes.

    A cell with ``-4 <= e < 12`` (``e = 11 - k``, see ``_mantissa``) is in
    fixed notation: the integer part ``n // 10**k``, then "." and the
    fraction ``n % 10**k`` left-aligned to 15 digits, with the integer's
    leading and the fraction's trailing zeros dropped.  ``%`` formats the
    cells in exponent notation and the undecided ones.  A NaN cell, an
    absent value, is written empty.
    """
    step, blocks = _block_rows(8 * table.shape[1]), _Blocks()
    for i in range(0, len(table), step):
        yield from _g12_lines(table[i : i + step], blocks)


def _frequency_words(freqs: np.ndarray, blocks: _Blocks) -> np.ndarray:
    """The ``"%.11e "`` cell words of ``freqs / 1e9``, held for the process (``twoport.held``).

    Frequencies equal bit for bit to the held ones (so -0.0 is not 0.0), as
    every curve of one ``sweep_conditions`` call is, take the held words.
    """
    def make():
        words = aligned_empty((freqs.size, 5), np.uint32)
        for i in range(0, freqs.size, BLOCK_CELLS):
            f = freqs[i : i + BLOCK_CELLS]
            _e11_words(np.divide(f, 1e9, out=blocks.parts[: f.size]), words[i : i + f.size])
        return (words,)

    return held(freqs, ("%.11e GHz",), make)[0]


def write_touchstone(curve: ResponseCurve, path: str | os.PathLike) -> None:
    """Write a two-port .s2p file: f_GHz then re/im pairs of s11 s21 s12 s22.

    s12 duplicates s21 (reciprocal network): the s21 pair is formatted once
    and its text copied.  A curve without s11 (swept for s21 alone) or
    without s22 raises DomainError, and no file is made.
    """
    if curve.s11 is None or curve.s22 is None:
        held = "s21 alone" if curve.s11 is None else "no s22"
        raise DomainError(f"a Touchstone file needs s11 and s22; the curve holds {held}")
    header = [
        f"! fsskit {__version__}",
        f"! incidence theta_deg = {math.degrees(curve.incidence.theta):.12g}",
        f"! polarization = {curve.incidence.polarization.value}",
        f"# GHz S RI R {ETA0:g}",
    ]
    step, blocks = _block_rows(45), _Blocks()  # 9 cells a row
    frequency = _frequency_words(curve.freqs, blocks)
    with create(path) as fh:
        fh.write(("\n".join(header) + "\n").encode())
        for i in range(0, len(curve), step):
            rows = slice(i, i + step)
            s = [curve.s11[rows], curve.s21[rows], curve.s22[rows]]
            fh.writelines(_e11_lines(s, frequency[rows], blocks))


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
            if not 0.0 < z_ref < math.inf:
                raise TouchstoneError(f"reference impedance must be finite and positive, got {tok!r}", line_no)
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


class _Header:
    """What a file's blank, comment and option lines set: the incidence
    annotations, and the option line's unit multiplier and data format."""

    def __init__(self):
        self.theta_deg = 0.0
        self.pol = Polarization.TE
        self.mult = self.fmt = None

    def take(self, line: str, line_no: int) -> bool:
        """Apply a stripped blank, comment or option line; False for a record."""
        if not line:
            return True
        if line.startswith("!"):
            key, _, value = line[1:].partition("=")
            key, value = key.strip(), value.strip()
            if key == "incidence theta_deg":
                try:
                    self.theta_deg = float(value)
                except ValueError:
                    raise TouchstoneError(f"bad incidence angle in {line!r}", line_no) from None
                try:
                    IncidenceCondition(math.radians(self.theta_deg), self.pol)
                except DomainError as exc:
                    raise TouchstoneError(f"{exc} in {line!r}", line_no) from None
            elif key == "polarization":
                if value.upper() not in ("TE", "TM"):
                    raise TouchstoneError(f"polarization must be TE or TM in {line!r}", line_no)
                self.pol = Polarization[value.upper()]
            return True
        if line.startswith("#"):
            if self.mult is not None:
                raise TouchstoneError("duplicate option line", line_no)
            self.mult, self.fmt, _ = _parse_option_line(line[1:].split(), line_no)
            return True
        if self.mult is None:
            raise TouchstoneError("data before the option line", line_no)
        return False


def _parse_at_once(body: list[str], mult: float) -> np.ndarray | None:
    """The (n, 9) fields of the records among the ``body`` lines, parsed in one call.

    None when a line is not nine numbers that ``np.loadtxt`` reads (with
    ``comments=None`` a comment or option line is not), or a row fails a check
    of ``_parse_lines``; the line loop then reads the body and names the fault.
    """
    try:
        fields = np.loadtxt(body, ndmin=2, comments=None)
    except ValueError:
        return None
    freqs = fields[:, 0] * mult
    ok = fields.shape[1] == 9 and all_finite(fields) and (freqs >= 0).all()
    return fields if ok and (freqs[1:] > freqs[:-1]).all() else None


def _parse_lines(body: list[str], first_no: int, header: _Header) -> np.ndarray:
    """The (n, 9) fields of the records among the ``body`` lines, numbered from ``first_no``.

    The comment and option lines among them go to ``header``.  The lines are
    read in order, and the first fault raises: a record that is not nine
    numbers, a non-finite field, a negative frequency, a frequency that does
    not increase, or a dB magnitude that overflows.
    """
    rows, last = [], -math.inf
    for line_no, raw in enumerate(body, start=first_no):
        line = raw.strip()
        if header.take(line, line_no):
            continue
        tokens = line.split("!", 1)[0].split()
        if len(tokens) != 9:
            raise TouchstoneError(f"expected 9 columns for a two-port record, got {len(tokens)}", line_no)
        try:
            row = list(map(float, tokens))
        except ValueError:
            raise TouchstoneError(f"non-numeric field in {line!r}", line_no) from None
        if not all(map(math.isfinite, row)):
            raise TouchstoneError(f"non-finite field in {line!r}", line_no)
        f = row[0] * header.mult
        if f < 0:
            raise TouchstoneError(f"negative frequency in {line!r}", line_no)
        if f <= last:
            raise TouchstoneError(f"frequencies must be strictly increasing; {f} follows {last}", line_no)
        if header.fmt == "db":
            try:
                for mag in row[1::2]:
                    10.0 ** (mag / 20.0)
            except OverflowError:
                raise TouchstoneError(f"dB magnitude overflows in {line!r}", line_no) from None
        rows.append(row)
        last = f
    return np.array(rows)


def _lines(text: str) -> list[str]:
    """The lines of ``text``, split at \\r\\n, \\r and \\n only (splitlines() splits at \\x85 and more)."""
    if "\r" in text:  # most files have none, and each replace copies the text
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def read_touchstone(path: str | os.PathLike) -> ResponseCurve:
    """Read a two-port .s2p file into a ResponseCurve (Hz, complex RI).

    Comment lines are ignored except for the incidence annotations this
    package writes, ``! incidence theta_deg = <degrees>`` and
    ``! polarization = TE|TM``, which are restored when present.  An
    annotation whose value is missing or invalid raises TouchstoneError.
    The file must be UTF-8; one byte-order mark at its start is dropped.

    The records go to one ``np.loadtxt`` call first.  A file that call
    rejects, such as one with a comment or option line after its first
    record, or whose rows fail a check, is read line by line, which gives the
    same values and names the earliest faulty line.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TouchstoneError(f"file is not valid UTF-8 (byte 0x{data[exc.start]:02x})",
                              len(_lines(data[:exc.start].decode("utf-8")))) from None
    data = None  # freed, so a large file is not held twice through the parse
    lines = _lines(text.removeprefix("\ufeff"))  # one byte-order mark, at the very start only
    header = _Header()
    first = next((i for i, line in enumerate(lines) if not header.take(line.strip(), i + 1)), None)
    if header.mult is None:
        raise TouchstoneError("file has no option line", line_no=None)
    if first is None:
        raise TouchstoneError("file holds no data records", line_no=None)
    body = lines[first:]
    fields = _parse_at_once(body, header.mult)
    if fields is None:
        fields = _parse_lines(body, first + 1, header)
    try:
        data = _to_complex(header.fmt, fields[:, 1::2], fields[:, 2::2])
    except OverflowError:
        _parse_lines(body, first + 1, header)  # names the line whose dB magnitude overflows
        raise
    return ResponseCurve(
        freqs=fields[:, 0] * header.mult,
        s11=data[:, 0],
        s21=data[:, 1],
        incidence=IncidenceCondition(math.radians(header.theta_deg), header.pol),
        s22=data[:, 3],
    )
