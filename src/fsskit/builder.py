"""Mapping from unit-cell geometry to circuit values and ladder assembly.

A single FSS layer is modeled as three cascaded elements: a shunt
series-RLC branch for the ring-resonator sheet, a short dielectric line
for the spacer, and a shunt RL branch for the backing wire grid.  The
second-order variant joins two such layers with an air line.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .twoport import (
    NORMAL,
    HeldArrays,
    IncidenceCondition,
    TwoPortMatrix,
    abcd_shunt,
    cascade,
    everywhere,
    held,
    j_omega,
    rl_admittance,
    rlc_admittance,
    tline_matrix,
    tline_phase,
)

#: Default ring-branch element values used when no fitted values are supplied.
DEFAULT_RING_INDUCTANCE = 1.61e-9
DEFAULT_RING_CAPACITANCE = 0.6e-12

#: Spacer laminate defaults (PTFE-glass, 10 mil).
DEFAULT_EPS_R = 2.2
DEFAULT_LOSS_TANGENT = 0.0009


@dataclass(frozen=True)
class GeometryParams:
    """Unit-cell dimensions, all in meters.

    period      square cell pitch (same in both directions)
    ring_side   outer side of the square ring
    arm_width   ring arm width
    strip_width back-layer grid strip width (the bandwidth knob)
    spacer      dielectric spacer thickness between the two metal layers
    eps_r       spacer relative permittivity
    """

    period: float
    ring_side: float
    arm_width: float
    strip_width: float
    spacer: float
    eps_r: float = DEFAULT_EPS_R

    def __post_init__(self):
        if not 0 < self.strip_width < self.period:
            raise DomainError("strip width must satisfy 0 < w < period")
        if not 0 < self.arm_width < self.ring_side / 2:
            raise DomainError("arm width must satisfy 0 < t < ring_side/2")
        if not self.ring_side < self.period:
            raise DomainError("ring side must be smaller than the cell period")
        if not self.spacer > 0:
            raise DomainError("spacer thickness must be positive")
        if not self.eps_r >= 1:
            raise DomainError("spacer permittivity must be >= 1")


#: Reference cell used throughout the examples and CLI defaults (w = 2.6 mm).
DEFAULT_GEOMETRY = GeometryParams(
    period=10.2e-3,
    ring_side=9.8e-3,
    arm_width=0.4e-3,
    strip_width=2.6e-3,
    spacer=0.254e-3,
)


@dataclass(frozen=True)
class CalibrationConstants:
    """Scale factors pinning the grid proportionalities to absolute values.

    l_scale     grid inductance scale, H (multiplies the log term)
    r_scale     grid resistance scale, ohm*m (divided by strip width)
    r1_default  ring branch loss assigned by params_from_geometry, ohm
    """

    l_scale: float
    r_scale: float
    r1_default: float = 0.1

    def __post_init__(self):
        if not self.l_scale > 0:
            raise DomainError("inductance scale must be positive")
        if self.r_scale < 0 or self.r1_default < 0:
            raise DomainError("resistance scales must be nonnegative")


@dataclass(frozen=True)
class CircuitParams:
    """Lumped element values of one FSS layer (plus stacking info).

    L, R      wire-grid inductance (H) and loss (ohm)
    L1, C1, R1  ring-branch inductance (H), capacitance (F), loss (ohm)
    h         spacer length, m (0 collapses the layer to a single node)
    eps_r     spacer permittivity
    h1        air gap between layers, m; required when order = 2
    order     1 or 2
    loss_tangent  spacer dielectric loss

    The element values L, L1, C1, R and R1 may be (k, 1) column arrays:
    the network then evaluates k parameter sets at once, one per row.
    """

    L: float
    L1: float
    C1: float
    R: float = 0.1
    R1: float = 0.1
    h: float = 0.254e-3
    eps_r: float = DEFAULT_EPS_R
    h1: float | None = None
    order: int = 1
    loss_tangent: float = DEFAULT_LOSS_TANGENT

    def __post_init__(self):
        if not (everywhere(self.L > 0) and everywhere(self.L1 > 0) and everywhere(self.C1 > 0)):
            raise DomainError("L, L1 and C1 must be positive")
        if not (everywhere(self.R >= 0) and everywhere(self.R1 >= 0)):
            raise DomainError("R and R1 must be nonnegative")
        if not self.h >= 0:
            raise DomainError("spacer length must be nonnegative")
        if not self.eps_r > 0:
            raise DomainError("spacer permittivity must be positive")
        if not 0 <= self.loss_tangent <= 1:
            raise DomainError(f"loss tangent must be in [0, 1], got {self.loss_tangent}")
        if self.order not in (1, 2):
            raise DomainError(f"order must be 1 or 2, got {self.order}")
        if self.order == 2 and self.h1 is None:
            raise DomainError("second-order parameters require the air gap h1")
        if self.h1 is not None and not self.h1 >= 0:
            raise DomainError("air gap must be nonnegative")


@dataclass(frozen=True)
class ShuntBranch:
    """Grounded branch: the ring sheet's series R-L-C when it has a
    capacitance, the wire grid's series R-L when it has none.

    Element values may be (k, 1) column arrays, as in CircuitParams.
    """

    resistance: float
    inductance: float
    capacitance: float | None = None

    def abcd(self, f, inc: IncidenceCondition = NORMAL, work: "HeldWork | None" = None) -> TwoPortMatrix:
        """Its matrix on f as work holds it (HeldWork.shunt); with no work, a new HeldWork(f, arrays=False)."""
        return (work or HeldWork(f, arrays=False)).shunt(self)


@dataclass(frozen=True)
class LineSegment:
    """Dielectric slab section of the ladder."""

    eps_r: float
    length: float
    loss_tangent: float = 0.0

    def abcd(self, f, inc: IncidenceCondition = NORMAL, work: "HeldWork | None" = None) -> TwoPortMatrix:
        """Its matrix on f at inc as work holds it (HeldWork.line); with no work, a new HeldWork(f, arrays=False)."""
        return (work or HeldWork(f, arrays=False)).line(self, inc)


class HeldWork:
    """What evaluations of ladders on the frequencies f share, each element formed once.

    Every element's matrix is formed here; an element's abcd returns what the
    work holds:
    - shunt(branch): abcd_shunt of the branch's rl_admittance or
      rlc_admittance on jw = j_omega(f), which the process holds per grid
      (twoport.held) and the work fetches at its first shunt; the matrix is
      kept with the branch object until start(), so a branch that a mirrored
      stack holds twice is formed once;
    - line(line, inc): tline_matrix of the line's line_phase, which the
      process holds per grid, the phase kept by the line's value until a
      line is asked for at another angle, and the matrix until one is asked
      for at another condition.  So a fit, in which no fittable value
      changes a line, forms each matrix once, a loop that runs again on the
      same grid forms no phase, and TE and TM at one angle share a phase
      that is too large to hold;
    - arrays (None if arrays=False): the HeldArrays, started on f's shape,
      that a call's admittances, products and s21 are formed in; they go
      with the work.
      start(shape) begins a call, after which what the last call returned is
      overwritten.  TwoPortMatrix.times never gives a line's or a held
      value's arrays back to them.
    """

    def __init__(self, f, arrays: bool = True):
        self.f = f
        self.arrays = HeldArrays() if arrays else None
        if arrays:
            self.arrays.start(np.shape(f))
        self.jw = None
        self._shunts: dict[int, tuple[ShuntBranch, TwoPortMatrix]] = {}  # by id
        self._inc, self._lines, self._phases = None, {}, {}

    def start(self, shape: tuple[int, ...]) -> None:
        """Begin a call whose element values broadcast against f to shape."""
        self.arrays.start(shape)
        self._shunts.clear()

    def shunt(self, branch: ShuntBranch) -> TwoPortMatrix:
        key = id(branch)
        if key not in self._shunts:  # the branch is kept too, so its id is not reused
            if self.jw is None:
                self.jw = held(self.f, ("jw",), lambda: (j_omega(self.f),))[0]
            r, l, c, arrays = branch.resistance, branch.inductance, branch.capacitance, self.arrays
            if c is None:
                y = rl_admittance(r, l, self.jw, out=None if arrays is None else arrays.take())
            elif arrays is None:
                y = rlc_admittance(r, l, c, self.jw)
            else:
                y, inv = arrays.take(), arrays.take()
                y = rlc_admittance(r, l, c, self.jw, out=(y, inv))
                arrays.give(inv)
            self._shunts[key] = branch, abcd_shunt(y)
        return self._shunts[key][1]

    def line(self, line: LineSegment, inc: IncidenceCondition) -> TwoPortMatrix:
        if inc != self._inc:
            if self._inc is None or inc.theta != self._inc.theta:
                self._phases = {}
            self._inc, self._lines = inc, {}
        if line not in self._lines:
            if line not in self._phases:
                self._phases[line] = line_phase(line, self.f, inc.theta)
            self._lines[line] = tline_matrix(self._phases[line], line.eps_r, inc.polarization)
        return self._lines[line]


def line_phase(line: LineSegment, f, theta: float) -> tuple:
    """tline_phase of line on the frequencies f at angle theta, held for the
    process (twoport.held).

    tline_phase's checks depend on the key and the grid alone, so a held
    phase needs none again.  The key takes length by its bits, since sinh
    keeps the sign of a zero phase.
    """
    key = ("phase", line.eps_r, struct.pack("d", line.length), line.loss_tangent, theta)
    return held(f, key, lambda: tline_phase(line.eps_r, line.length, f, theta, line.loss_tangent))


@dataclass(frozen=True)
class LayeredNetwork:
    """Ordered ladder of shunt branches and line sections.

    The first element faces the incoming wave.  Immutable.
    """

    elements: tuple[ShuntBranch | LineSegment, ...]

    def abcd(self, f, inc: IncidenceCondition = NORMAL, work: HeldWork | None = None) -> TwoPortMatrix:
        """Chain matrix of the whole ladder, every element's abcd called with
        work, a HeldWork on f (a new HeldWork(f, arrays=False) if None), and
        the products formed in the work's arrays, if any."""
        work = work or HeldWork(f, arrays=False)
        return cascade([el.abcd(f, inc, work) for el in self.elements], work.arrays)


def grid_inductance(w: float, period: float, scale: float) -> float:
    """Wire-grid sheet inductance: scale * ln(1 / sin(pi w / (2 period))).

    Strictly decreasing in w; tends to 0 as w -> period and diverges as
    w -> 0.
    """
    if not 0 < w < period:
        raise DomainError(f"strip width must lie in (0, {period}), got {w}")
    return scale * math.log(1.0 / math.sin(math.pi * w / (2.0 * period)))


def grid_width(l: float, period: float, scale: float) -> float:
    """Strip width with grid inductance l: (2 period / pi) asin(exp(-l / scale)).

    The exact inverse of grid_inductance for l > 0 and scale > 0.
    """
    if not (l > 0 and scale > 0):
        raise DomainError(f"grid inductance and its scale must be positive, got {l}, {scale}")
    return 2.0 * period / math.pi * math.asin(math.exp(-l / scale))


def grid_resistance(w: float, scale: float) -> float:
    """Wire-grid sheet loss: scale / w."""
    if not w > 0:
        raise DomainError(f"strip width must be positive, got {w}")
    if scale < 0:
        raise DomainError("resistance scale must be nonnegative")
    return scale / w


def calibrate_inductance_scale(w_ref: float, period: float, l_ref: float) -> float:
    """Pin the grid-inductance proportionality so L(w_ref) = l_ref."""
    if not 0 < w_ref < period:
        raise DomainError(f"reference width must lie in (0, {period}), got {w_ref}")
    if not l_ref > 0:
        raise DomainError("reference inductance must be positive")
    log_term = grid_inductance(w_ref, period, 1.0)
    if log_term == 0.0:
        raise DomainError("degenerate calibration: w_ref equals the period")
    return l_ref / log_term


#: Default calibration: L(2.6 mm) = 2.85 nH and R(2.6 mm) = 0.1 ohm on the
#: reference cell, ring loss 0.1 ohm.
DEFAULT_CALIBRATION = CalibrationConstants(
    l_scale=calibrate_inductance_scale(2.6e-3, DEFAULT_GEOMETRY.period, 2.85e-9),
    r_scale=2.6e-4,
    r1_default=0.1,
)


def params_from_geometry(
    g: GeometryParams,
    cal: CalibrationConstants = DEFAULT_CALIBRATION,
    l1: float = DEFAULT_RING_INDUCTANCE,
    c1: float = DEFAULT_RING_CAPACITANCE,
) -> CircuitParams:
    """First-order circuit values of the cell geometry.

    The grid branch follows the calibrated width laws; the ring branch has
    no geometric formula here, so l1 and c1 are caller-supplied.  The spacer
    keeps the default loss tangent.
    """
    return CircuitParams(
        L=grid_inductance(g.strip_width, g.period, cal.l_scale),
        L1=l1,
        C1=c1,
        R=grid_resistance(g.strip_width, cal.r_scale),
        R1=cal.r1_default,
        h=g.spacer,
        eps_r=g.eps_r,
    )


def _layer_elements(p: CircuitParams) -> tuple[ShuntBranch, LineSegment, ShuntBranch]:
    ring = ShuntBranch(p.R1, p.L1, p.C1)
    grid = ShuntBranch(p.R, p.L)
    line = LineSegment(p.eps_r, p.h, p.loss_tangent)
    return ring, line, grid


def build_first_order(p: CircuitParams) -> LayeredNetwork:
    """Single layer: [ring shunt, spacer line, grid shunt], ring facing the wave."""
    if p.order != 1:
        raise DomainError(f"first-order builder requires order = 1, got {p.order}")
    return LayeredNetwork(_layer_elements(p))


def build_second_order(p: CircuitParams, *, mirrored: bool = True) -> LayeredNetwork:
    """Two layers joined by an air line of length h1 (7 elements).

    By default the second layer is flipped (mirrored) so both wire grids
    face the air gap and the stack is symmetric; that arrangement keeps
    the passband center stable under oblique incidence.  mirrored=False
    orients both layers identically (ring facing the source), which shifts
    the upper coupled mode noticeably higher.
    """
    if p.order != 2:
        raise DomainError(f"second-order builder requires order = 2, got {p.order}")
    first = _layer_elements(p)
    gap = LineSegment(1.0, p.h1, 0.0)
    second = tuple(reversed(first)) if mirrored else first
    return LayeredNetwork(first + (gap,) + second)


def build_network(p: CircuitParams, *, mirrored: bool = True) -> LayeredNetwork:
    """Dispatch on p.order."""
    if p.order == 1:
        return build_first_order(p)
    return build_second_order(p, mirrored=mirrored)
