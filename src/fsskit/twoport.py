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
bit-identical to the general formulas.  A caller that reads only s21,
such as the |s21| fit, asks abcd_to_s for it alone with
reflections=False; the strip-width loop uses ShuntRLTail, which holds
everything that does not depend on the width.
"""

from __future__ import annotations

import enum
import math
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
        if other.__class__ is ShuntMatrix:
            y = other.c
            return TwoPortMatrix(a=self.a + self.b * y, b=self.b, c=self.c + self.d * y, d=self.d)
        if self.__class__ is ShuntMatrix:
            y = self.c
            return TwoPortMatrix(a=other.a, b=other.b, c=other.c + y * other.a, d=other.d + y * other.b)
        return TwoPortMatrix(
            a=self.a * other.a + self.b * other.c,
            b=self.a * other.b + self.b * other.d,
            c=self.c * other.a + self.d * other.c,
            d=self.c * other.b + self.d * other.d,
        )

    def det(self) -> complex | np.ndarray:
        """a*d - b*c; unity for reciprocal networks."""
        return self.a * self.d - self.b * self.c


class ShuntMatrix(TwoPortMatrix):
    """[[1, 0], [Y, 1]] of a shunt branch; c holds Y.

    Marks the matrix so that a product with it on either side takes an
    update form in TwoPortMatrix.__matmul__.
    """


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
    if not np.all(np.isfinite(y)):
        raise DomainError("shunt admittance must be finite")
    return ShuntMatrix(a=1.0, b=0.0, c=y, d=1.0)


def shunt_series_rlc_admittance(r1, l1, c1, f):
    """Admittance of a grounded series R-L-C branch: Y = 1/(R + jwL + 1/(jwC)).

    At the branch resonance with r1 = 0 the impedance vanishes; the exact
    zero is clamped to SHORT_ADMITTANCE so downstream cascades stay finite.
    """
    if not (everywhere(r1 >= 0) and everywhere(l1 > 0) and everywhere(c1 > 0)):
        raise DomainError("series RLC branch requires r1 >= 0, l1 > 0, c1 > 0")
    f = np.asarray(f, dtype=float)
    if not np.all(f > 0):
        raise DomainError("frequency must be positive (series capacitor blocks DC)")
    w = 2 * np.pi * f
    z = r1 + 1j * w * l1 + 1 / (1j * w * c1)
    shorted = z == 0
    return np.where(shorted, SHORT_ADMITTANCE + 0j, 1.0 / np.where(shorted, 1.0, z))


def shunt_rl_admittance(r, l, f):
    """Admittance of a grounded series R-L branch: Y = 1/(R + jwL)."""
    if not (everywhere(r >= 0) and everywhere(l > 0)):
        raise DomainError("RL branch requires r >= 0 and l > 0")
    f = np.asarray(f, dtype=float)
    if not np.all(f > 0):
        raise DomainError("frequency must be positive")
    return 1.0 / (r + 1j * 2 * np.pi * f * l)


def abcd_tline(
    eps_r: float,
    length: float,
    f,
    inc: IncidenceCondition = NORMAL,
    *,
    loss_tangent: float = 0.0,
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
    """
    if not eps_r > 0:
        raise DomainError(f"relative permittivity must be positive, got {eps_r}")
    if not everywhere(length >= 0):
        raise DomainError(f"line length must be nonnegative, got {length}")
    if not loss_tangent >= 0:
        raise DomainError("loss tangent must be nonnegative")
    f = np.asarray(f, dtype=float)
    if not np.all(f > 0):
        raise DomainError("frequency must be positive")

    s2 = math.sin(inc.theta) ** 2
    if not eps_r > s2:
        raise EvanescentModeError(
            f"no propagating mode: eps_r = {eps_r} <= sin^2(theta) = {s2:.6f} "
            f"at theta = {inc.theta:.6f} rad"
        )
    q = math.sqrt(eps_r - s2)
    if inc.polarization is Polarization.TE or s2 == 0.0:
        z_eff = ETA0 / q
    else:
        z_eff = ETA0 * q / eps_r

    phi = (2 * np.pi * f / C0) * q * length
    if loss_tangent > 0.0:
        gl = phi * (0.5 * loss_tangent + 1j)
        cosh_gl = np.cosh(gl)
        sinh_gl = np.sinh(gl)
        return TwoPortMatrix(a=cosh_gl, b=z_eff * sinh_gl, c=sinh_gl / z_eff, d=cosh_gl)
    cos_phi = np.cos(phi)
    sin_phi = np.sin(phi)
    return TwoPortMatrix(
        a=cos_phi, b=1j * z_eff * sin_phi, c=1j * sin_phi / z_eff, d=cos_phi
    )


def cascade(segments: Sequence[TwoPortMatrix] | Iterable[TwoPortMatrix]) -> TwoPortMatrix:
    """Left-to-right chain product; the leftmost segment faces the incoming wave."""
    segments = list(segments)
    if not segments:
        raise DomainError("cascade requires at least one segment")
    out = segments[0]
    for seg in segments[1:]:
        out = out @ seg
    return out


def abcd_to_s(m: TwoPortMatrix, z_ref: float, reflections: bool = True) -> SMatrix:
    """Convert a chain matrix to scattering parameters.

    Both ports share the real reference impedance z_ref.  The conversion
    assumes a reciprocal network (everything this package builds) and
    constructs s12 = s21 = 2/Delta with Delta = a + b/z + c*z + d,
    s11 = (a + b/z - c z - d)/Delta and s22 = (-a + b/z - c z + d)/Delta.
    With reflections=False, s11 and s22 are not formed and come back None.
    """
    if not z_ref > 0:
        raise DomainError(f"reference impedance must be positive, got {z_ref}")
    bz = m.b / z_ref
    cz = m.c * z_ref
    delta = m.a + bz + cz + m.d
    if np.any(delta == 0):
        raise SingularNetworkError("singular network: a + b/z + c z + d = 0")
    s21 = 2.0 / delta
    s11 = (m.a + bz - cz - m.d) / delta if reflections else None
    s22 = (-m.a + bz - cz + m.d) / delta if reflections else None
    return SMatrix(s11=s11, s21=s21, s12=s21, s22=s22, z_ref=z_ref)


class ShuntRLTail:
    """s21 of a held chain product, the head, closed by a grounded R-L branch.

    A loop in which only that branch changes, such as the strip-width loop
    over first-order ladders, makes one tail per frequency array and port
    impedance.  It keeps the head, the head's b/z, jw = 2 pi j f and two
    complex buffers.  s21(r, l) writes y = 1/(r + jw l) and then c + d y
    into one, and a + b y, Delta = a + b/z + c z + d and then s21 = 2/Delta
    into the other.  Each step keeps the operand order of
    shunt_rl_admittance, the ShuntMatrix update and abcd_to_s, so s21(r, l)
    is bit-identical to
    abcd_to_s(head @ abcd_shunt(shunt_rl_admittance(r, l, f)), z_ref).s21.
    r and l are scalars.  The array returned is overwritten by the next call.
    """

    def __init__(self, head: TwoPortMatrix, f, z_ref: float):
        f = np.asarray(f, dtype=float)
        if not np.all(f > 0):
            raise DomainError("frequency must be positive")
        if not z_ref > 0:
            raise DomainError(f"reference impedance must be positive, got {z_ref}")
        self.head = head
        self.z_ref = z_ref
        self.bz = head.b / z_ref
        self.jw = 1j * 2 * np.pi * f
        self._y, self._a = np.empty_like(self.jw), np.empty_like(self.jw)

    def s21(self, r: float, l: float) -> np.ndarray:
        if not (r >= 0 and l > 0):
            raise DomainError("RL branch requires r >= 0 and l > 0")
        h, y, a = self.head, self._y, self._a
        np.divide(1.0, np.add(r, np.multiply(self.jw, l, out=y), out=y), out=y)
        if not np.all(np.isfinite(y)):
            raise DomainError("shunt admittance must be finite")
        np.add(h.a, np.multiply(h.b, y, out=a), out=a)
        c = np.add(h.c, np.multiply(h.d, y, out=y), out=y)
        # Delta, formed in a
        np.add(np.add(a, self.bz, out=a), np.multiply(c, self.z_ref, out=c), out=a)
        np.add(a, h.d, out=a)
        if np.any(a == 0):
            raise SingularNetworkError("singular network: a + b/z + c z + d = 0")
        return np.divide(2.0, a, out=a)
