"""Complex two-port algebra for plane-wave circuit models.

Every network element is expressed as a 2x2 ABCD chain matrix relating
port voltages and currents.  Cascading is matrix multiplication with the
wave-arrival side on the left.  A two-port is always four broadcastable
numpy values a, b, c and d: 0-d for a scalar frequency, (nf,) for a 1-D
frequency array, so a full sweep is a single vectorized call.  Element
values may also be column arrays of shape (k, 1); they broadcast against
the frequencies, so k parameter sets are evaluated at once as a (k, nf)
batch.

The kernels follow the ladder's shape.  A shunt branch is a ShuntMatrix,
and a product with one on either side is a two-product update instead of
the general eight-product form: (a + b Y, b, c + d Y, d) with the shunt
on the right, (a, b, c + Y a, d + Y b) with it on the left.  abcd_to_s
forms b/z and c z once for its three sums.  All keep the final S
bit-identical to the general formulas.  A caller that reads only s21
asks abcd_to_s for it alone with reflections=False.  The parts of the
kernels take out= arrays, so a loop can form each result in arrays it
holds, its own or a HeldArrays; the general kernels call the same parts.
Every array guard of the package, a finiteness or an exact-zero test, goes
through all_finite or any_zero.

One store here keeps arrays for the process: held() keeps values per grid,
read-only (line phases, jw, the .s2p frequency words and the width loop's
ring-spacer product).  A HeldArrays keeps the scratch arrays of one loop
and goes with it.
"""

from __future__ import annotations

import enum
import itertools
import math
import threading
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, EvanescentModeError, SingularNetworkError

#: Free-space wave impedance, ohm.
ETA0 = 376.730

#: Vacuum speed of light, m/s.
C0 = 299_792_458.0

#: Admittance substituted for a perfectly shorted shunt branch so that
#: cascades stay finite.  Large enough that the resulting |s21| is far
#: below any numeric tolerance used in this package.
SHORT_ADMITTANCE = 1e30


class Polarization(enum.Enum):
    """Plane-wave polarization relative to the plane of incidence."""

    TE = "TE"
    TM = "TM"


@dataclass(frozen=True)
class IncidenceCondition:
    """Incidence angle (radians, 0 <= theta < pi/2) and polarization."""

    theta: float
    polarization: Polarization

    def __post_init__(self):
        if not 0.0 <= self.theta < math.pi / 2:
            raise DomainError(f"incidence angle must be in [0, pi/2), got {self.theta}")


def everywhere(cond) -> bool:
    """Whether a scalar or elementwise comparison holds for every entry.

    Write domain checks as ``not everywhere(x > 0)`` so that NaN fails
    them.  A plain bool is returned as is, which keeps scalar checks cheap.
    """
    return cond if cond.__class__ is bool else bool(cond.all())


def _parts(z):
    """The float64 view of z when z is a C-contiguous complex128 array of one or
    more dimensions, else None.  numpy tests float64 with SIMD loops and complex128
    element by element; a 0-d array has no float view."""
    if z.dtype == np.complex128 and z.ndim and z.flags.c_contiguous:
        return z.view(np.float64)
    return None


def all_finite(z) -> bool:
    """np.isfinite(z).all() of the numpy array or scalar z, as a bool.

    A complex value is finite when both its parts are, so a C-contiguous
    complex128 array is tested through its float64 view.  Any other z, such as
    a 0-d, real or strided array, is tested as it is.
    """
    parts = _parts(z)
    return bool(np.isfinite(z if parts is None else parts).all())


def any_zero(z) -> bool:
    """np.any(z == 0) of the numpy array or scalar z, as a bool.

    A complex value is 0 only when both its parts are (either sign), so a
    C-contiguous complex128 array none of whose float64 parts is 0 has no
    zero; when one part is 0, or z is any other array, z == 0 is tested.
    """
    parts = _parts(z)
    if parts is not None and not (parts == 0).any():
        return False
    return bool(np.any(z == 0))


#: Normal incidence.  TE and TM produce identical results at theta = 0.
NORMAL = IncidenceCondition(0.0, Polarization.TE)


@dataclass(frozen=True)
class TwoPortMatrix:
    """ABCD chain matrix.  b carries ohms, c carries siemens.

    Entries are numpy values (or plain numbers) that broadcast against
    each other: 0-d, one entry per frequency, or one row per parameter set.
    """

    a: complex | np.ndarray
    b: complex | np.ndarray
    c: complex | np.ndarray
    d: complex | np.ndarray

    def __matmul__(self, other: "TwoPortMatrix") -> "TwoPortMatrix":
        return self.times(other)

    def times(self, other: "TwoPortMatrix", arrays: "HeldArrays | None" = None) -> "TwoPortMatrix":
        """self @ other, as an update when either side is a ShuntMatrix.

        With arrays, each new entry is formed in an array taken from it, and
        what the product no longer needs is given back: its scratch array and
        the entries of self that it replaces, unless self is a ShuntMatrix,
        whose admittance belongs to its branch.
        """
        take = _unheld if arrays is None else arrays.take
        if other.__class__ is ShuntMatrix:
            out = self.shunt_right(other.c, out=(take(), take()))
            replaced = (self.a, self.c)
        elif self.__class__ is ShuntMatrix:
            return other.shunt_left(self.c, out=(take(), take()))
        else:
            scratch = take()
            out = self.product(other, out=(take(), take(), take(), take()), scratch=scratch)
            replaced = (self.a, self.b, self.c, self.d, scratch)
        if arrays is not None and self.__class__ is not ShuntMatrix:
            arrays.give(*replaced)
        return out

    def shunt_right(self, y, out=(None, None)) -> "TwoPortMatrix":
        """self @ [[1, 0], [y, 1]]: (a + b y, b, c + d y, d).

        out names the arrays for the new a and c; the one for c may be y.
        """
        a = np.add(self.a, np.multiply(self.b, y, out=out[0]), out=out[0])
        c = np.add(self.c, np.multiply(self.d, y, out=out[1]), out=out[1])
        return TwoPortMatrix(a=a, b=self.b, c=c, d=self.d)

    def shunt_left(self, y, out=(None, None)) -> "TwoPortMatrix":
        """[[1, 0], [y, 1]] @ self: (a, b, c + y a, d + y b).

        out names the arrays for the new c and d.
        """
        c = np.add(self.c, _mul(y, self.a, out[0]), out=out[0])
        d = np.add(self.d, _mul(y, self.b, out[1]), out=out[1])
        return TwoPortMatrix(a=self.a, b=self.b, c=c, d=d)

    def product(self, other: "TwoPortMatrix", out=(None, None, None, None), scratch=None) -> "TwoPortMatrix":
        """self @ other in the general eight-product form.

        out names the arrays for the new a, b, c and d, none of them an entry
        of self or other; scratch holds the second product of each sum.
        """
        def entry(x, y, u, v, o):  # x y + u v
            return np.add(_mul(x, y, o), _mul(u, v, scratch), out=o)

        return TwoPortMatrix(
            a=entry(self.a, other.a, self.b, other.c, out[0]),
            b=entry(self.a, other.b, self.b, other.d, out[1]),
            c=entry(self.c, other.a, self.d, other.c, out[2]),
            d=entry(self.c, other.b, self.d, other.d, out[3]),
        )

    def det(self) -> complex | np.ndarray:
        """a*d - b*c; unity for reciprocal networks."""
        return self.a * self.d - self.b * self.c


class ShuntMatrix(TwoPortMatrix):
    """[[1, 0], [Y, 1]] of a shunt branch; c holds Y.

    Marks the matrix so that a product with it on either side takes an
    update form in TwoPortMatrix.times.
    """


def _mul(x, y, out):
    """x * y, formed in out if given.  With no out it is the operator: numpy
    scalars multiply complex values by their own rule, whose last bit may differ
    from np.multiply's."""
    return x * y if out is None else np.multiply(x, y, out=out)


def _unheld():
    """No array: each kernel allocates its result."""
    return None


def aligned_empty(shape: tuple[int, ...], dtype=complex) -> np.ndarray:
    """A new array of shape whose data starts on a 64-byte boundary.  numpy aligns
    complex data to 16 bytes only, and the width loop's kernels run about 6%
    slower over data 16 bytes off a 32-byte boundary; a held array keeps its
    address for the life of the process."""
    block = np.empty(math.prod(shape) * np.dtype(dtype).itemsize + 64, np.uint8)
    start = -block.ctypes.data % 64
    return block[start:start + block.size - 64].view(dtype).reshape(shape)


def _aligned_out(x, dtype=complex):
    """An aligned_empty array for a result shaped as x, or None if x is 0-d.  So
    held() keeps the results of j_omega and tline_phase as they are formed, and
    the process makes no copy of them: a copy would raise its peak memory."""
    return aligned_empty(np.shape(x), dtype) if np.ndim(x) else None


class HeldArrays:
    """Complex scratch arrays that the calls of a loop over ladders reuse, one shape per call.

    start(shape) begins a call: every array of that shape that take() handed
    out is free again, so what the last call returned is overwritten from
    here on.  take() hands out a free array, or a new aligned_empty one if
    none is free; give(*entries) takes back those of them that take() handed
    out.  A call that takes and gives as the last one did makes no array.
    The arrays go when the HeldArrays does.
    """

    def __init__(self):
        self.shape = None
        self._made: dict[int, np.ndarray] = {}  # by id, what take() handed out
        self._free: list[np.ndarray] = []

    def start(self, shape: tuple[int, ...]) -> None:
        self.shape = shape
        self._free = [x for x in self._made.values() if x.shape == shape]

    def take(self) -> np.ndarray:
        if self._free:
            return self._free.pop()
        x = aligned_empty(self.shape)
        self._made[id(x)] = x
        return x

    def give(self, *entries) -> None:
        self._free.extend(x for x in entries if id(x) in self._made)


#: Bytes that the values held per grid (_HELD) take at most, their grid
#: copies included.
HELD_BUDGET = 4 * 2**20

#: What held() keeps, by grid shape, the least recently used grid first:
#: (a copy of the grid, {key: tuple}).  One grid per shape.
_HELD: dict[tuple[int, ...], tuple[np.ndarray, dict]] = {}
_HELD_LOCK = threading.Lock()


def held(f, key, make) -> tuple:
    """make(), a tuple of values on the frequencies f, held for the process under key.

    A grid equal bit for bit to the held grid of its shape (so -0.0 is not
    0.0) takes the tuple held under key, if any; a hit does no more than move
    it to the most recently used end.  Otherwise make() is called, and each
    array in its tuple that does not start on a 64-byte boundary is replaced
    by an aligned copy.  The tuple is held unless f is 0-d or its arrays and
    a copy of f alone take more than HELD_BUDGET bytes.  A new grid replaces
    the held grid of its shape.  Then, to stay within the budget, the least
    recently used grids are dropped first, then the least recently used
    tuples of this one.  An error that make() raises is never held.  Every
    array returned is read-only, and key must separate every input of make()
    that could change a bit of its value.
    """
    f = np.asarray(f, dtype=float)
    with _HELD_LOCK:
        grid, values = _HELD.get(f.shape, (None, {}))
        if key in values and np.array_equal(grid.view(np.uint64), f.view(np.uint64)):
            values[key] = value = values.pop(key)  # the most recently used last, as its grid
            _HELD[f.shape] = _HELD.pop(f.shape)
            return value
    value = tuple(map(_aligned, make()))
    if not f.ndim or f.nbytes + sum(getattr(x, "nbytes", 0) for x in value) > HELD_BUDGET:
        return value
    with _HELD_LOCK:
        grid, values = _HELD.pop(f.shape, (None, {}))
        if grid is None or not np.array_equal(grid.view(np.uint64), f.view(np.uint64)):
            grid, values = f.copy(), {}
        values[key] = value
        _HELD[f.shape] = grid, values
        while held_bytes() > HELD_BUDGET:
            shape = next(iter(_HELD))
            if shape == f.shape:
                del values[next(iter(values))]
            else:
                del _HELD[shape]
    return value


def _aligned(x):
    """x, read-only, and if it is an array off a 64-byte boundary, an aligned copy of it."""
    if isinstance(x, np.ndarray):
        if x.ctypes.data % 64 or not x.flags.c_contiguous:
            copy = aligned_empty(x.shape, x.dtype)
            copy[...] = x
            x = copy
        x.flags.writeable = False
    return x


def held_bytes() -> int:
    """Bytes that the held values take, their grid copies included; an array
    that two values share counts once."""
    arrays = {id(x): x for grid, values in _HELD.values() for x in (grid, *itertools.chain(*values.values()))}
    return sum(getattr(x, "nbytes", 0) for x in arrays.values())


@dataclass(frozen=True)
class SMatrix:
    """Scattering parameters referenced to the same real impedance at both ports.

    Reciprocity is built in: s12 is constructed equal to s21.  s11 and s22
    are None when abcd_to_s was asked for s21 alone.
    """

    s11: complex | np.ndarray | None
    s21: complex | np.ndarray
    s12: complex | np.ndarray
    s22: complex | np.ndarray | None
    z_ref: float


def wave_impedance(theta: float, pol: Polarization) -> float:
    """Free-space wave impedance seen by an obliquely incident plane wave.

    TE: eta0 / cos(theta);  TM: eta0 * cos(theta).  Both equal eta0 at
    normal incidence (bitwise: cos(0) is exactly 1.0).
    """
    if not 0.0 <= theta < math.pi / 2:
        raise DomainError(f"incidence angle must be in [0, pi/2), got {theta}")
    c = math.cos(theta)
    return ETA0 / c if pol is Polarization.TE else ETA0 * c


def abcd_shunt(admittance: complex | np.ndarray) -> ShuntMatrix:
    """Chain matrix [[1, 0], [Y, 1]] of a shunt branch with admittance Y."""
    y = np.asarray(admittance, dtype=complex)
    if not all_finite(y):
        raise DomainError("shunt admittance must be finite")
    return ShuntMatrix(a=1.0, b=0.0, c=y, d=1.0)


def shunt_series_rlc_admittance(r1, l1, c1, f):
    """Admittance of a grounded series R-L-C branch: Y = 1/(R + jwL + 1/(jwC)).

    At the branch resonance with r1 = 0 the impedance vanishes; the exact
    zero is clamped to SHORT_ADMITTANCE so downstream cascades stay finite.
    """
    return rlc_admittance(r1, l1, c1, j_omega(f))


def rlc_admittance(r, l, c, jw, out=(None, None)):
    """1/(r + jw l + 1/(jw c)), with an exact zero impedance clamped to
    SHORT_ADMITTANCE.  out names the arrays for Y and for 1/(jw c); Y is formed in
    out[0] if given, shorted or not."""
    if not (everywhere(r >= 0) and everywhere(l > 0) and everywhere(c > 0)):
        raise DomainError("series RLC branch requires r1 >= 0, l1 > 0, c1 > 0")
    y, inv = out
    z = np.add(np.add(r, np.multiply(jw, l, out=y), out=y),
               np.divide(1, np.multiply(jw, c, out=inv), out=inv), out=y)
    if not any_zero(z):
        return np.divide(1.0, z, out=y)
    shorted = z == 0
    y = np.divide(1.0, z, out=np.empty(np.shape(z), complex) if y is None else y, where=~shorted)
    y[shorted] = SHORT_ADMITTANCE
    return y


def j_omega(f):
    """jw = 2 pi j f of the frequencies f, which must be positive."""
    f = np.asarray(f, dtype=float)
    if not np.all(f > 0):
        raise DomainError("frequency must be positive")
    return np.multiply(1j * 2 * np.pi, f, out=_aligned_out(f))


def rl_admittance(r, l, jw, out=None):
    """1/(r + jw l), formed in out if given."""
    if not (everywhere(r >= 0) and everywhere(l > 0)):
        raise DomainError("RL branch requires r >= 0 and l > 0")
    return np.divide(1.0, np.add(r, np.multiply(jw, l, out=out), out=out), out=out)


def shunt_rl_admittance(r, l, f):
    """Admittance of a grounded series R-L branch: Y = 1/(R + jwL)."""
    return rl_admittance(r, l, j_omega(f))


def abcd_tline(
    eps_r: float, length: float, f, inc: IncidenceCondition = NORMAL, *, loss_tangent: float = 0.0
) -> TwoPortMatrix:
    """Chain matrix of a dielectric slab crossed at oblique incidence.

    The longitudinal phase is phi = (2 pi f / c0) * sqrt(eps_r - sin^2 theta)
    * length.  The effective impedance is eta0 / sqrt(eps_r - sin^2 theta)
    for TE and eta0 * sqrt(eps_r - sin^2 theta) / eps_r for TM; both reduce
    to eta0 / sqrt(eps_r) at normal incidence (the TM branch reuses the TE
    expression at theta = 0 so the two polarizations agree bitwise).

    A nonzero loss tangent adds dielectric attenuation via the complex
    propagation factor gamma*l = phi * (tan_delta / 2 + j).

    eps_r and loss_tangent are scalars; length may be a (k, 1) column array.
    The phase part, tline_phase, does not depend on the polarization, so a
    caller with both at one angle forms it once and calls tline_matrix twice.
    """
    return tline_matrix(tline_phase(eps_r, length, f, inc.theta, loss_tangent), eps_r, inc.polarization)


def tline_phase(eps_r: float, length, f, theta: float, loss_tangent: float = 0.0):
    """abcd_tline's checks and its (cosh gamma l, sinh gamma l) if the line is
    lossy, else (cos phi, sin phi), with q = sqrt(eps_r - sin^2 theta) and
    whether sin^2 theta is 0."""
    if not eps_r > 0:
        raise DomainError(f"relative permittivity must be positive, got {eps_r}")
    if not everywhere(length >= 0):
        raise DomainError(f"line length must be nonnegative, got {length}")
    if not loss_tangent >= 0:
        raise DomainError("loss tangent must be nonnegative")
    f = np.asarray(f, dtype=float)
    if not np.all(f > 0):
        raise DomainError("frequency must be positive")

    s2 = math.sin(theta) ** 2
    if not eps_r > s2:
        raise EvanescentModeError(
            f"no propagating mode: eps_r = {eps_r} <= sin^2(theta) = {s2:.6f} "
            f"at theta = {theta:.6f} rad"
        )
    q = math.sqrt(eps_r - s2)
    phi = (2 * np.pi * f / C0) * q * length
    if loss_tangent > 0.0:
        gl = phi * (0.5 * loss_tangent + 1j)
        return np.cosh(gl, out=_aligned_out(gl)), np.sinh(gl, out=_aligned_out(gl)), q, s2 == 0.0
    return np.cos(phi, out=_aligned_out(phi, float)), np.sin(phi, out=_aligned_out(phi, float)), q, s2 == 0.0


def tline_matrix(phase, eps_r: float, pol: Polarization) -> TwoPortMatrix:
    """abcd_tline's chain matrix at polarization pol, from its tline_phase."""
    even, odd, q, normal = phase  # cosh and sinh (complex) or cos and sin (real)
    z_eff = ETA0 / q if pol is Polarization.TE or normal else ETA0 * q / eps_r
    if np.iscomplexobj(even):
        return TwoPortMatrix(a=even, b=z_eff * odd, c=odd / z_eff, d=even)
    return TwoPortMatrix(a=even, b=1j * z_eff * odd, c=1j * odd / z_eff, d=even)


def cascade(
    segments: Sequence[TwoPortMatrix] | Iterable[TwoPortMatrix], arrays: HeldArrays | None = None
) -> TwoPortMatrix:
    """Left-to-right chain product; the leftmost segment faces the incoming wave.

    With arrays, each product is formed in arrays taken from it (TwoPortMatrix.times).
    """
    segments = list(segments)
    if not segments:
        raise DomainError("cascade requires at least one segment")
    out = segments[0]
    for seg in segments[1:]:
        out = out @ seg if arrays is None else out.times(seg, arrays)
    return out


def abcd_to_s(m: TwoPortMatrix, z_ref: float, reflections: bool = True, arrays: HeldArrays | None = None) -> SMatrix:
    """Convert a chain matrix to scattering parameters.

    Both ports share the real reference impedance z_ref.  The conversion
    assumes a reciprocal network (everything this package builds) and
    constructs s12 = s21 = 2/Delta with Delta = a + b/z + c*z + d,
    s11 = (a + b/z - c z - d)/Delta and s22 = (-a + b/z - c z + d)/Delta.
    With reflections=False, s11 and s22 are not formed and come back None.
    With arrays, b/z, c z, Delta and s21 are formed in arrays taken from it.
    """
    if not z_ref > 0:
        raise DomainError(f"reference impedance must be positive, got {z_ref}")
    take = _unheld if arrays is None else arrays.take
    bz = np.divide(m.b, z_ref, out=take())
    cz = _mul(m.c, z_ref, take())
    delta = abcd_delta(m.a, bz, cz, m.d, out=take())
    s21 = np.divide(2.0, delta, out=take())
    s11 = (m.a + bz - cz - m.d) / delta if reflections else None
    s22 = (-m.a + bz - cz + m.d) / delta if reflections else None
    return SMatrix(s11=s11, s21=s21, s12=s21, s22=s22, z_ref=z_ref)


def abcd_delta(a, bz, cz, d, out=None):
    """Delta = a + b/z + c z + d from b/z and c z, formed in out if given;
    SingularNetworkError where it is 0."""
    delta = np.add(np.add(np.add(a, bz, out=out), cz, out=out), d, out=out)
    if any_zero(delta):
        raise SingularNetworkError("singular network: a + b/z + c z + d = 0")
    return delta
