"""Resonance formulas, frequency sweeps, and passband metric extraction."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .builder import HeldWork, LayeredNetwork
from .errors import BandNotBracketedError, DomainError, OneSidedBandError
from .twoport import NORMAL, IncidenceCondition, SMatrix, abcd_to_s, all_finite, wave_impedance

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
    """Linear frequency grid, endpoints inclusive; n_points is an int (not a bool).  The points are
    formed once, at construction, checked to strictly increase and held read-only in points."""

    f_start: float
    f_stop: float
    n_points: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.f_start < self.f_stop < math.inf:
            raise DomainError("grid requires 0 < f_start < f_stop < inf")
        if not isinstance(self.n_points, (int, np.integer)) or isinstance(self.n_points, bool):
            raise DomainError(f"grid point count must be an integer, got {self.n_points!r}")
        if self.n_points < 2:
            raise DomainError("grid requires at least 2 points")
        points = np.linspace(self.f_start, self.f_stop, self.n_points)
        if not (np.diff(points) > 0).all():
            raise DomainError(f"grid points must strictly increase; {self.n_points} are too many for the span")
        points.flags.writeable = False
        object.__setattr__(self, "points", points)


@dataclass(frozen=True)
class ResponseCurve:
    """Sampled complex reflection/transmission for one incidence condition.

    freqs holds the sample frequencies in Hz (strictly increasing, not
    necessarily uniform, so curves loaded from interchange files fit the
    same type).  s11 and s22 are None in the curves that the solvers form
    from s21 alone; synthetic curves may omit s22.

    freqs may be given as a FrequencyGrid, which checked its points when it
    was made; the curve then holds grid.points, the same read-only array,
    and checks it no further.  freqs given as an array is checked for a
    finite, strictly increasing 1-D grid.  Each S-parameter is checked for
    its shape against freqs and for finite samples.
    """

    freqs: np.ndarray | FrequencyGrid
    s11: np.ndarray | None
    s21: np.ndarray
    incidence: IncidenceCondition = NORMAL
    s22: np.ndarray | None = None

    def __post_init__(self):
        if isinstance(self.freqs, FrequencyGrid):
            freqs = self.freqs.points
        else:
            freqs = np.asarray(self.freqs, dtype=float)
            if freqs.ndim != 1 or freqs.size < 1:
                raise DomainError("a response curve needs a 1-D grid of frequencies")
            if not all_finite(freqs):
                raise DomainError("freqs contains non-finite samples")
            if np.any(np.diff(freqs) <= 0):
                raise DomainError("curve frequencies must be strictly increasing")
        object.__setattr__(self, "freqs", freqs)
        for name in ("s11", "s21", "s22"):
            v = getattr(self, name)
            if v is None:
                continue
            v = np.asarray(v, dtype=complex)
            object.__setattr__(self, name, v)
            if v.shape != freqs.shape:
                raise DomainError(f"{name} sample count does not match the grid")
            if not all_finite(v):
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
    net: LayeredNetwork, f, inc: IncidenceCondition = NORMAL, reflections: bool = True,
    work: HeldWork | None = None,
) -> SMatrix:
    """Evaluate a ladder at one or more frequencies.

    The port reference is the oblique free-space wave impedance for the
    given incidence, on both sides.  reflections is passed to abcd_to_s.
    The ladder's elements are those that work, a HeldWork on f (a new
    HeldWork(f, arrays=False) if None; started for this call if it holds
    arrays), holds, and with its arrays every array is formed in them, so
    the result holds until work's next call.
    """
    z_ref = wave_impedance(inc.theta, inc.polarization)
    work = work or HeldWork(f, arrays=False)
    return abcd_to_s(net.abcd(f, inc, work), z_ref, reflections, work.arrays)


def sweep_response(net: LayeredNetwork, grid: FrequencyGrid, inc: IncidenceCondition = NORMAL) -> ResponseCurve:
    """Vectorized frequency sweep of a ladder network: s11, s21 and s22; sweep_conditions of one."""
    return sweep_conditions(net, grid, (inc,))[0]


def sweep_conditions(net: LayeredNetwork, grid: FrequencyGrid, conditions) -> list[ResponseCurve]:
    """One sweep_response curve per incidence condition, in their order.

    Each curve is a network_smatrix of the ladder with one HeldWork, which
    holds no arrays, so no two curves share one: each shunt branch is formed
    once and each line's matrix once per condition, from the phase that the
    process holds for the line, angle and grid (builder.line_phase).
    Each curve is finished before the next starts, so the first error is
    that of one sweep_response per condition.
    """
    work = HeldWork(grid.points, arrays=False)
    curves = []
    for inc in conditions:
        s = network_smatrix(net, grid.points, inc, work=work)
        curves.append(ResponseCurve(freqs=grid, s11=s.s11, s21=s.s21, incidence=inc, s22=s.s22))
    return curves


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


def _bracket(mag: np.ndarray, i: int, level: float) -> tuple[int, int]:
    """Samples lo:hi from the first |s21| under level on either side of i
    (the grid's end where there is none), and at least i - 1:i + 2."""
    below = mag < level
    j = i + int(np.argmax(below[i:]))
    k = i - int(np.argmax(below[i::-1]))
    return min(k, i - 1) if below[k] else 0, max(j, i + 1) + 1 if below[j] else len(mag)


def extract_metrics(curve: ResponseCurve) -> PassbandMetrics:
    """Locate the transmission peak and measure the -3 dB band around it.

    The peak is refined with a three-point parabola; the band edges come
    from linear interpolation of |s21| in dB crossing (peak - 3 dB),
    searched outward from the peak.  dB is formed only on the samples that
    |s21| against 10^((peak - 3 dB)/20) brackets.  The search there gives
    the whole-curve result when it finds both crossings; when it misses one,
    the search runs again on the whole curve, so rounding at the threshold
    never changes a result or the side a OneSidedBandError names.  A deep
    |s21| minimum above the peak (magnitude < 0.1) is reported as the
    transmission-zero frequency.
    """
    f = curve.freqs
    mag = np.abs(curve.s21)
    i = int(np.argmax(mag))
    if i == 0 or i == len(f) - 1:
        raise BandNotBracketedError(
            "transmission peak is not bracketed inside the frequency grid"
        )

    f_c, peak = _parabolic_vertex(f[i - 1], f[i], f[i + 1], mag[i - 1], mag[i], mag[i + 1])
    thr = 20.0 * math.log10(max(peak, _DB_FLOOR)) - 3.0

    lo, hi = _bracket(mag, i, 10.0 ** (thr / 20.0))
    try:
        f_lo, f_hi = _band_edges(f[lo:hi], _db(mag[lo:hi]), i - lo, thr)
    except OneSidedBandError:
        if hi - lo == len(f):
            raise
        f_lo, f_hi = _band_edges(f, _db(mag), i, thr)

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
