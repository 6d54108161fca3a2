"""Inverse design: element synthesis, width search, and curve fitting."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .analysis import (
    FrequencyGrid,
    PassbandMetrics,
    ResponseCurve,
    extract_metrics,
    network_smatrix,
    passband_freq,
    zero_freq,
)
from .builder import (
    CalibrationConstants,
    CircuitParams,
    GeometryParams,
    HeldWork,
    ShuntBranch,
    build_network,
    grid_inductance,
    grid_resistance,
    grid_width,
    params_from_geometry,
)
from .errors import (
    BandNotBracketedError,
    DomainError,
    InfeasibleSpecError,
    InfeasibleTargetError,
    OneSidedBandError,
)
from .twoport import (
    NORMAL, IncidenceCondition, SMatrix, TwoPortMatrix, abcd_delta, aligned_empty, all_finite, held, wave_impedance
)


@dataclass(frozen=True)
class DesignSpec:
    """Target passband and transmission-zero frequencies with a pinned C1.

    Two equations fix three unknowns, so the capacitance (the value hardest
    to tune physically) is chosen by the caller.
    """

    f_passband: float
    f_zero: float
    c1: float
    q_target: float | None = None
    fbw_target: float | None = None

    def __post_init__(self):
        if not 0 < self.f_passband:
            raise DomainError("passband target must be positive")
        if not self.c1 > 0:
            raise DomainError("pinned capacitance must be positive")
        if self.q_target is not None and not self.q_target > 0:
            raise DomainError("quality-factor target must be positive")
        if self.fbw_target is not None and not self.fbw_target > 0:
            raise DomainError("bandwidth target must be positive")
        if not self.f_passband < self.f_zero:
            raise InfeasibleSpecError(
                f"passband target {self.f_passband} must lie below the "
                f"transmission-zero target {self.f_zero}"
            )
        synthesize_lc(self)


class SynthesizedLC(NamedTuple):
    l: float
    l1: float
    c1: float


def synthesize_lc(spec: DesignSpec) -> SynthesizedLC:
    """Invert the resonance formulas for (L, L1) given targets and C1.

    l1 = 1 / ((2 pi f_zero)^2 c1);  l = 1 / ((2 pi f_passband)^2 c1) - l1.
    f_passband < f_zero guarantees l > 0.  Values outside the float range
    (l1 not finite and positive, l not finite) raise InfeasibleSpecError.
    """
    w_z = 2.0 * math.pi * spec.f_zero
    w_p = 2.0 * math.pi * spec.f_passband
    try:
        l1 = 1.0 / (w_z * w_z * spec.c1)
        l = 1.0 / (w_p * w_p * spec.c1) - l1
    except ZeroDivisionError:  # (2 pi f)^2 c1 underflowed to 0
        l1 = l = math.inf
    if not (0.0 < l1 < math.inf and math.isfinite(l)):
        raise InfeasibleSpecError(f"f_p = {spec.f_passband:g} Hz, f_z = {spec.f_zero:g} Hz and "
                                  f"C1 = {spec.c1:g} F put L or L1 outside the float range")
    return SynthesizedLC(l=l, l1=l1, c1=spec.c1)


def loss_budget_for_q(q_target: float, l: float, l1: float, c1: float) -> float:
    """Total series loss R + R1 that gives the quality factor sqrt((l + l1) / c1) / (R + R1)."""
    if not q_target > 0:
        raise DomainError("quality-factor target must be positive")
    if l < 0 or l1 <= 0 or c1 <= 0:
        raise DomainError("loss budget requires l >= 0, l1 > 0, c1 > 0")
    return math.sqrt((l + l1) / c1) / q_target


def _auto_grid(
    geometry: GeometryParams,
    cal: CalibrationConstants,
    l1: float,
    c1: float,
    w_range: tuple[float, float],
) -> FrequencyGrid:
    """Grid bracketing the passband over the whole width range."""
    f_low = passband_freq(grid_inductance(w_range[0], geometry.period, cal.l_scale), l1, c1)
    f_z = zero_freq(l1, c1)
    return FrequencyGrid(0.35 * f_low, 1.2 * f_z, 2001)


def width_evaluator(
    geometry: GeometryParams,
    cal: CalibrationConstants,
    l1: float,
    c1: float,
    grid: FrequencyGrid,
    inc: IncidenceCondition,
    work: HeldWork,
) -> Callable[[float], PassbandMetrics]:
    """Passband metrics of the first-order cell as a function of its strip width.

    The returned function takes the circuit values at width w (m) from
    geometry, with every other dimension, the calibration, l1 and c1 fixed,
    and sweeps s21 on grid at inc.  Only the grid branch depends on w, so
    the ring and the spacer are evaluated at geometry's own width, and
    their product's (a, b, c, d) and b/z are the ones that the process
    holds for the ring's values, the spacer, inc and the grid
    (twoport.held).  Each width takes L and R from grid_inductance and
    grid_resistance, starts work, a HeldWork on grid.points that serves
    this evaluator alone, evaluates its grid branch ShuntBranch(R, L) with
    it, and writes the shunt update, c z, Delta and s21 = 2/Delta into the
    work's arrays with the kernels that network_smatrix calls, in their
    operand order, so the s21 is bit-identical to
    network_smatrix(build_network(params), grid.points, inc,
    reflections=False).s21.
    A width outside (0, period) raises the DomainError of GeometryParams,
    and one whose L rounds to 0 that of CircuitParams: for these alone the
    width's records are built, and they raise.
    """
    f = grid.points
    z_ref = wave_impedance(inc.theta, inc.polarization)
    ring, line, _ = build_network(params_from_geometry(geometry, cal, l1, c1)).elements

    def product():  # c, d and b/z formed where they are held: a copy of each would raise the peak
        y = ring.abcd(f, inc).c
        m = line.abcd(f, inc).shunt_left(y, out=(aligned_empty(f.shape), aligned_empty(f.shape)))
        return m.a, m.b, m.c, m.d, np.divide(m.b, z_ref, out=aligned_empty(f.shape))

    key = ("ring-spacer", struct.pack("3d", ring.resistance, ring.inductance, ring.capacitance),
           line.eps_r, struct.pack("d", line.length), line.loss_tangent, inc)
    a, b, c, d, bz = held(f, key, product)
    head = TwoPortMatrix(a, b, c, d)

    def metrics_at(w: float) -> PassbandMetrics:
        if 0 < w < geometry.period and (l := grid_inductance(w, geometry.period, cal.l_scale)) > 0:
            r = grid_resistance(w, cal.r_scale)
        else:  # the records raise their DomainError: GeometryParams' for w, CircuitParams' for L = 0
            params = params_from_geometry(replace(geometry, strip_width=w), cal, l1, c1)
            l, r = params.L, params.R
        work.start(f.shape)
        y = ShuntBranch(r, l).abcd(f, inc, work).c
        m = head.shunt_right(y, out=(work.arrays.take(), y))
        delta = abcd_delta(m.a, bz, np.multiply(m.c, z_ref, out=y), m.d, out=m.a)
        return extract_metrics(ResponseCurve(freqs=grid, s11=None, s21=np.divide(2.0, delta, out=delta), incidence=inc))

    return metrics_at


def check_width_range(w_range: tuple[float, float], period: float) -> None:
    """Raise DomainError unless the width search range lies inside the cell."""
    if not 0 < w_range[0] <= w_range[1] < period:
        raise DomainError("width range must satisfy 0 < w_min <= w_max < period")


#: width_for_bandwidth stops once the FBW is within FBW_TOL of its target or
#: the width bracket is narrower than WIDTH_TOL (m)
FBW_TOL = 1e-3
WIDTH_TOL = 1e-6


def width_for_bandwidth(
    fbw_target: float,
    geometry: GeometryParams,
    cal: CalibrationConstants,
    l1: float,
    c1: float,
    w_range: tuple[float, float],
) -> float:
    """Find the grid strip width whose simulated FBW meets the target.

    Illinois regula falsi (Dowell and Jarratt, BIT 11, 1971) on
    x = ln L(w), the log grid inductance, and g = ln fbw - ln fbw_target,
    which is smooth and monotone in x.  Each trial x is mapped back to a
    width with grid_width and clamped into the bracket.  Each width is
    evaluated at normal incidence on a 2001-point grid that brackets the
    passband over the whole width range.  Relies on the fractional
    bandwidth being strictly decreasing in w.  Raises InfeasibleTargetError
    (reporting the achievable range) when the target is not within
    FBW_TOL of [fbw(w_max), fbw(w_min)].
    """
    check_width_range(w_range, geometry.period)
    grid = _auto_grid(geometry, cal, l1, c1, w_range)
    metrics_at = width_evaluator(geometry, cal, l1, c1, grid, NORMAL, HeldWork(grid.points))
    return _search_width(fbw_target, metrics_at, geometry, cal, w_range)


def _search_width(
    fbw_target: float,
    metrics_at: Callable[[float], PassbandMetrics],
    geometry: GeometryParams,
    cal: CalibrationConstants,
    w_range: tuple[float, float],
) -> float:
    """width_for_bandwidth's search, with its width evaluator."""
    w_lo, w_hi = w_range
    fbw_max = metrics_at(w_lo).fbw
    if w_lo == w_hi:
        if abs(fbw_max - fbw_target) < FBW_TOL:
            return w_lo
        raise InfeasibleTargetError(
            f"degenerate width bracket: fbw({w_lo}) = {fbw_max:.6f} misses the "
            f"target {fbw_target:.6f}",
            achievable=(fbw_max, fbw_max),
        )
    fbw_min = metrics_at(w_hi).fbw
    # strict: at either edge no width can come within FBW_TOL of the target
    if not fbw_min - FBW_TOL < fbw_target < fbw_max + FBW_TOL:
        raise InfeasibleTargetError(
            f"bandwidth target {fbw_target:.6f} outside the achievable range "
            f"[{fbw_min:.6f}, {fbw_max:.6f}] for widths [{w_lo}, {w_hi}]",
            achievable=(fbw_min, fbw_max),
        )
    if abs(fbw_max - fbw_target) < FBW_TOL:
        return w_lo
    if abs(fbw_min - fbw_target) < FBW_TOL:
        return w_hi

    # a target <= 0 gets here only by rounding, within an ulp of fbw_min - FBW_TOL;
    # every g is then +inf, so each step takes the midpoint and moves w_lo up
    ln_target = math.log(fbw_target) if fbw_target > 0 else -math.inf

    def ln_l(w: float) -> float:
        return math.log(grid_inductance(w, geometry.period, cal.l_scale))

    x_lo, g_lo = ln_l(w_lo), math.log(fbw_max) - ln_target
    x_hi, g_hi = ln_l(w_hi), math.log(fbw_min) - ln_target
    side = 0  # +1 after w_lo moved, -1 after w_hi moved
    while w_hi - w_lo > WIDTH_TOL:
        if g_lo == g_hi:
            w = 0.5 * (w_lo + w_hi)
        else:
            x = x_hi - g_hi * (x_lo - x_hi) / (g_lo - g_hi)
            w = min(max(grid_width(math.exp(x), geometry.period, cal.l_scale), w_lo), w_hi)
        fbw = metrics_at(w).fbw
        if abs(fbw - fbw_target) < FBW_TOL:
            return w
        g = math.log(fbw) - ln_target
        if fbw > fbw_target:
            w_lo, x_lo, g_lo = w, ln_l(w), g
            if side > 0:
                g_hi *= 0.5
            side = 1
        else:
            w_hi, x_hi, g_hi = w, ln_l(w), g
            if side < 0:
                g_lo *= 0.5
            side = -1
    return 0.5 * (w_lo + w_hi)


#: Circuit fields that fit_circuit may treat as free.
FITTABLE = ("L", "L1", "C1", "R", "R1")

#: fit_circuit stops after MAX_ITERATIONS, at a relative step below STEP_TOL,
#: or at an improvement of the squared residual below IMPROVEMENT_TOL
MAX_ITERATIONS = 500
STEP_TOL = 1e-8
IMPROVEMENT_TOL = 1e-12


@dataclass(frozen=True)
class FitProblem:
    """Least-squares match of a model |s21| curve to observed samples.

    base supplies the fixed parameters and the network order; free names
    the CircuitParams fields to adjust.  Bounds are hard box constraints.
    The observed curve must start above 0 Hz: the series capacitor blocks DC.
    """

    observed: ResponseCurve
    base: CircuitParams
    free: tuple[str, ...]
    initial: Mapping[str, float]
    bounds: Mapping[str, tuple[float, float]]
    mirrored: bool = True

    def __post_init__(self):
        check_fit_settings(self.free, self.initial, self.bounds)
        if not self.observed.freqs[0] > 0:
            raise DomainError(f"a fit needs f > 0; the observed curve starts at {self.observed.freqs[0]} Hz")


def check_fit_settings(
    free: tuple[str, ...], initial: Mapping[str, float], bounds: Mapping[str, tuple[float, float]]
) -> None:
    """Raise DomainError unless free names distinct FITTABLE fields, each with
    a start inside a finite box lo < hi (lo > 0 for L, L1 and C1, lo >= 0 for
    R and R1)."""
    if not free:
        raise DomainError("fit requires at least one free parameter")
    if len(set(free)) < len(free):
        raise DomainError(f"fit parameters must be distinct, got {free}")
    for name in free:
        if name not in FITTABLE:
            raise DomainError(f"unknown fit parameter {name!r}; choose from {FITTABLE}")
        if name not in initial:
            raise DomainError(f"missing initial guess for {name!r}")
        if name not in bounds:
            raise DomainError(f"missing bounds for {name!r}")
        lo, hi = bounds[name]
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise DomainError(f"bounds for {name!r} must be finite with lo < hi, got {(lo, hi)}")
        if name in ("L", "L1", "C1") and lo <= 0:
            raise DomainError(f"reactive element {name!r} needs positive bounds")
        if name in ("R", "R1") and lo < 0:
            raise DomainError(f"resistive element {name!r} needs nonnegative bounds")
        if not lo <= initial[name] <= hi:
            raise DomainError(f"initial guess for {name!r} lies outside its bounds")


@dataclass(frozen=True)
class FitResult:
    params: dict[str, float]
    residual_norm: float
    iterations: int
    converged: bool
    message: str
    #: residual norm after each accepted step (never increasing)
    residual_history: tuple[float, ...] = ()
    #: model calls, aligned_start's included (MINPACK's nfev)
    model_calls: int = 0
    #: trial steps whose residual rose, each one model call
    rejected_steps: int = 0


def fit_model(problem: FitProblem, work: HeldWork) -> Callable[[Mapping[str, object]], SMatrix]:
    """The model of problem: element values -> its s21 alone, on the observed
    frequencies and incidence.

    Each call builds the ladder at the values (floats or (k, 1) columns) and
    makes one network_smatrix call with work, a HeldWork on the observed
    frequencies that all calls share: each line's matrix is formed at the
    first call only, each shunt branch once per call (the mirrored ring and
    grid once each), and each call's arrays are formed in the work's arrays,
    so the s21 returned is overwritten by the next call.
    Its bits are those of network_smatrix(build_network(...), f, inc,
    reflections=False).s21.
    """
    observed, base, mirrored = problem.observed, problem.base, problem.mirrored

    def model(values: Mapping[str, object]) -> SMatrix:
        net = build_network(replace(base, **values), mirrored=mirrored)
        work.start(np.broadcast_shapes(observed.freqs.shape, *map(np.shape, values.values())))
        return network_smatrix(net, observed.freqs, observed.incidence, reflections=False, work=work)

    return model


def aligned_start(problem: FitProblem, model: Callable[[Mapping[str, object]], SMatrix]) -> dict[str, float]:
    """The start of problem with its model passband moved onto the observed one.

    The circuit's passband lies near 1/(2 pi sqrt((L + L1) C1)), so with
    r = (f_c,model / f_c,observed)^2 the free ones of L and L1 are scaled
    by r, which keeps C1 and the ratio L1/L; if neither is free, a free C1
    is scaled instead.  Each value is clipped into its bounds.  Costs one
    call of model, a fit_model of problem, at the start.  The start
    is returned unchanged when none of L, L1 and C1 is free, when the model's
    s21 is not finite (fit_circuit then names its start), or when either
    passband cannot be extracted (not bracketed by the grid, or one-sided).
    """
    start = {name: problem.initial[name] for name in problem.free}
    scaled = [name for name in ("L", "L1") if name in start] or [n for n in ("C1",) if n in start]
    if not scaled:
        return start
    observed = problem.observed
    s21 = model(start).s21
    if not all_finite(s21):
        return start
    curve = ResponseCurve(freqs=observed.freqs, s11=None, s21=s21, incidence=observed.incidence)
    try:
        ratio = (extract_metrics(curve).f_c / extract_metrics(observed).f_c) ** 2
    except (BandNotBracketedError, OneSidedBandError):
        return start
    for name in scaled:
        lo, hi = problem.bounds[name]
        start[name] = min(max(start[name] * ratio, lo), hi)
    return start


def fit_circuit(problem: FitProblem) -> FitResult:
    """Damped least squares on |s21| residuals with a finite-difference Jacobian.

    The fit starts from aligned_start(problem), not from problem.initial,
    so a start whose passband misses the observed one still converges;
    the parameters are scaled by that aligned start (a start of 0 by the
    larger magnitude of its bounds).  Levenberg damping:
    steps that increase the residual are rejected and the damping grows;
    accepted steps shrink it.  The Jacobian takes forward differences, as
    MINPACK's lmdif does, with a step h of 1e-6 relative in the scaled
    parameter space: row i moves u_i to u_i + h_i, or to max(u_i - h_i, lo_i)
    when that leaves the box, or to hi_i when u_i sits on lo_i of a box
    narrower than h_i, so no row leaves the box.  Every point, the start and
    each trial step, is evaluated with its k perturbed parameter sets as one
    batch of 1 + k rows, so a fit makes one model call per trial step, and
    an accepted step already has its Jacobian.
    All model calls share one HeldWork (fit_model).
    A step delta the box does not cut moves a free L, L1 or C1 to
    u exp(delta / u), along its logarithm, as the resonances
    w^2 (L + L1) C1 = 1 and w^2 L1 C1 = 1 do, when that point lies inside
    the box too; R and R1 step to u + delta.  Any other trial point is
    clip(u + delta) into the box.
    A singular normal matrix only increases the damping, never aborts.  A
    step that clipping at the bounds cuts below the step tolerance is a
    stall, not a minimum: the fit ends unconverged, "stalled at bound
    <clipped names>".  Nor is a step of 0 along a Jacobian column of 0 at a
    residual above 0: "no sensitivity to <names>", unconverged.  A value at
    a bound is returned as that bound, bit for bit; every other value as
    u times its scale, clipped into the box.  The result counts the model
    calls, aligned_start's included, and the rejected trial steps.
    """
    held_model, calls = fit_model(problem, HeldWork(problem.observed.freqs)), 0

    def model(values: Mapping[str, object]) -> SMatrix:
        nonlocal calls
        calls += 1
        return held_model(values)

    problem = replace(problem, initial=aligned_start(problem, model))
    obs = np.abs(problem.observed.s21)
    start = np.array([problem.initial[n] for n in problem.free])
    box = np.array([problem.bounds[n] for n in problem.free]).T
    scale = np.where(start == 0, np.abs(box).max(axis=0), abs(start))
    lo, hi = box / scale
    u = start / scale
    k = u.size
    eye = np.eye(k, dtype=bool)
    multiplicative = np.isin(problem.free, ("L", "L1", "C1"))

    def evaluate(u_vec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Residuals at u_vec and their (nf, k) Jacobian, from one model call."""
        h = 1e-6 * np.maximum(np.abs(u_vec), 1e-3)
        t = np.where(u_vec + h <= hi, u_vec + h, np.maximum(u_vec - h, lo))
        t = np.where(t == u_vec, hi, t)  # u on lo of a box narrower than h
        rows = np.concatenate([u_vec[None, :], np.where(eye, t, u_vec)])
        values = rows * scale
        s = model({name: values[:, i:i + 1] for i, name in enumerate(problem.free)})
        res = np.abs(s.s21) - obs
        # BLAS rounds jac.T @ jac differently for an F-ordered jac, so keep C order
        return res[0], np.ascontiguousarray(((res[1:] - res[0]) / (t - u_vec)[:, None]).T)

    r, jac = evaluate(u)
    if not (all_finite(r) and all_finite(jac)):
        raise DomainError("the model's |s21| is not finite at the fit's start")
    cost = float(r @ r)
    lam = 1e-3
    iterations = rejected = 0
    message = "iteration cap reached without convergence"
    converged = False
    history = [math.sqrt(cost)]

    for iterations in range(1, MAX_ITERATIONS + 1):
        jtj = jac.T @ jac
        jtr = jac.T @ r
        diag = np.maximum(np.diag(jtj), 1e-30)
        accepted = False
        while lam < 1e14:
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            trial = u + step
            u_new = np.clip(trial, lo, hi)
            cut = u_new != trial
            if not cut.any():
                with np.errstate(all="ignore"):  # an inf or nan product lies outside the box
                    along = u * np.exp(np.divide(step, u, out=np.zeros(k), where=multiplicative))
                if ((lo <= along) & (along <= hi)).all():
                    u_new = np.where(multiplicative, along, trial)
            r_new, jac_new = evaluate(u_new)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                accepted = True
                break
            rejected += 1
            lam *= 10.0
        if not accepted:
            message = "damping exhausted without an accepting step"
            break

        rel_step = float(np.max(np.abs(u_new - u) / np.maximum(np.abs(u), 1e-30)))
        clipped = [name for name, hit in zip(problem.free, cut) if hit]
        improvement = cost - cost_new
        u, r, jac, cost = u_new, r_new, jac_new, cost_new
        history.append(math.sqrt(cost))
        lam = max(lam / 3.0, 1e-12)
        if rel_step < STEP_TOL:
            converged = not clipped
            message = f"converged: relative step {rel_step:.2e} below tolerance"
            if clipped:
                message = f"stalled at bound {', '.join(clipped)}"
            break
        if improvement < IMPROVEMENT_TOL:
            converged = True
            message = f"converged: residual improvement {improvement:.2e} below tolerance"
            break

    flat = [name for name, column in zip(problem.free, jac.T) if not column.any()]
    if converged and flat and cost > 0:
        converged = False
        message = f"no sensitivity to {', '.join(flat)} where the fit stopped (Jacobian column 0)"
    # a value the box holds is its bound bit for bit, which (bound / scale) * scale need not be
    values = np.where(u == lo, box[0], np.where(u == hi, box[1], np.clip(u * scale, *box)))
    return FitResult(
        params=dict(zip(problem.free, values.tolist())),
        residual_norm=float(math.sqrt(cost)),
        iterations=iterations,
        converged=converged,
        message=message,
        residual_history=tuple(history),
        model_calls=calls,
        rejected_steps=rejected,
    )
