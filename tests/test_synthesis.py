"""Element synthesis, width search, and least-squares parameter recovery."""


import functools
import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsskit import synthesis
from fsskit.analysis import (
    FrequencyGrid,
    ResponseCurve,
    extract_metrics,
    passband_freq,
    sweep_response,
    zero_freq,
)
from fsskit.builder import (
    DEFAULT_CALIBRATION,
    DEFAULT_GEOMETRY,
    CircuitParams,
    HeldWork,
    build_network,
    build_second_order,
)
from fsskit.errors import DomainError, InfeasibleSpecError, InfeasibleTargetError
from fsskit.synthesis import (
    FBW_TOL,
    DesignSpec,
    FitProblem,
    SynthesizedLC,
    aligned_start,
    fit_circuit,
    fit_model,
    loss_budget_for_q,
    synthesize_lc,
    width_for_bandwidth,
)
from fsskit.twoport import NORMAL, IncidenceCondition, Polarization

F_P = 3076642798.29332
F_Z = 5120726356.363333


class TestSynthesizeLc:
    def test_reference_design(self):
        lc = synthesize_lc(DesignSpec(f_passband=F_P, f_zero=F_Z, c1=0.6e-12))
        assert lc.l1 == pytest.approx(1.61e-9, rel=1e-6)
        assert lc.l == pytest.approx(2.85e-9, rel=1e-6)
        assert lc.c1 == 0.6e-12

    def test_round_trip_thousand_random_specs(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            f_p = float(rng.uniform(0.5, 8)) * 1e9
            f_z = f_p * float(rng.uniform(1.01, 4.0))
            c1 = float(rng.uniform(0.05, 5)) * 1e-12
            lc = synthesize_lc(DesignSpec(f_passband=f_p, f_zero=f_z, c1=c1))
            assert lc.l > 0
            assert passband_freq(lc.l, lc.l1, lc.c1) == pytest.approx(f_p, rel=1e-9)
            assert zero_freq(lc.l1, lc.c1) == pytest.approx(f_z, rel=1e-9)

    def test_capacitance_scaling(self):
        a = synthesize_lc(DesignSpec(f_passband=2e9, f_zero=4e9, c1=1e-12))
        b = synthesize_lc(DesignSpec(f_passband=2e9, f_zero=4e9, c1=4e-12))
        assert b.l == pytest.approx(a.l / 4, rel=1e-12)
        assert b.l1 == pytest.approx(a.l1 / 4, rel=1e-12)

    def test_coincident_targets_rejected(self):
        with pytest.raises(InfeasibleSpecError):
            DesignSpec(f_passband=3e9, f_zero=3e9, c1=1e-12)
        with pytest.raises(InfeasibleSpecError):
            DesignSpec(f_passband=4e9, f_zero=3e9, c1=1e-12)

    @pytest.mark.parametrize("target", [{"q_target": 0.0}, {"q_target": -1.0}, {"fbw_target": 0.0},
                                        {"fbw_target": -0.2}])
    def test_nonpositive_targets_rejected(self, target):
        with pytest.raises(DomainError, match="target must be positive"):
            DesignSpec(f_passband=2e9, f_zero=4e9, c1=1e-12, **target)


class TestLossBudget:
    def test_reference_budget(self):
        assert loss_budget_for_q(431.0839052125854, 2.85e-9, 1.61e-9, 0.6e-12) == pytest.approx(
            0.2, rel=1e-12
        )

    def test_reciprocal_scaling(self):
        b = loss_budget_for_q(100.0, 2.85e-9, 1.61e-9, 0.6e-12)
        assert loss_budget_for_q(50.0, 2.85e-9, 1.61e-9, 0.6e-12) == pytest.approx(2 * b, rel=1e-12)
        assert loss_budget_for_q(100.0, 2.85e-9, 1.61e-9, 2.4e-12) == pytest.approx(b / 2, rel=1e-12)

    def test_infinite_q_needs_zero_loss(self):
        assert loss_budget_for_q(1e30, 2.85e-9, 1.61e-9, 0.6e-12) == pytest.approx(0.0, abs=1e-25)

    def test_bad_target_rejected(self):
        with pytest.raises(DomainError):
            loss_budget_for_q(0.0, 2.85e-9, 1.61e-9, 0.6e-12)


class TestWidthForBandwidth:
    L1 = 1.61e-9
    C1 = 0.6e-12
    RANGE = (0.3e-3, 3.0e-3)

    def test_self_consistency_fixed_point(self):
        from fsskit.synthesis import _auto_grid, width_evaluator

        grid = _auto_grid(DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, self.L1, self.C1, self.RANGE)
        metrics_at = width_evaluator(DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, self.L1, self.C1, grid, NORMAL)
        target = metrics_at(1.4e-3).fbw
        w = width_for_bandwidth(
            target, DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, self.L1, self.C1, self.RANGE
        )
        assert w == pytest.approx(1.4e-3, abs=10e-6)
        assert self.RANGE[0] <= w <= self.RANGE[1]

    def test_forward_evaluation_meets_tolerance(self):
        from fsskit.synthesis import _auto_grid, width_evaluator

        grid = _auto_grid(DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, self.L1, self.C1, self.RANGE)
        target = 0.30
        w = width_for_bandwidth(
            target, DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, self.L1, self.C1, self.RANGE
        )
        metrics_at = width_evaluator(DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, self.L1, self.C1, grid, NORMAL)
        achieved = metrics_at(w).fbw
        assert abs(achieved - target) < 1e-3

    def test_unreachable_target_reports_range(self):
        with pytest.raises(InfeasibleTargetError) as err:
            width_for_bandwidth(
                0.9, DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, self.L1, self.C1, self.RANGE
            )
        lo, hi = err.value.achievable
        assert 0 < lo < hi < 0.9

    def test_degenerate_bracket(self):
        from fsskit.synthesis import _auto_grid, width_evaluator

        grid = _auto_grid(DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, self.L1, self.C1, self.RANGE)
        metrics_at = width_evaluator(DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, self.L1, self.C1, grid, NORMAL)
        fbw_here = metrics_at(1.0e-3).fbw
        w = width_for_bandwidth(
            fbw_here, DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, self.L1, self.C1, (1.0e-3, 1.0e-3)
        )
        assert w == 1.0e-3
        with pytest.raises(InfeasibleTargetError):
            width_for_bandwidth(
                fbw_here + 0.05,
                DEFAULT_GEOMETRY,
                DEFAULT_CALIBRATION,
                self.L1,
                self.C1,
                (1.0e-3, 1.0e-3),
            )

    @pytest.mark.parametrize("edge", ["lower", "upper"])
    def test_a_target_at_the_edge_of_the_range_is_infeasible(self, edge):
        # no width comes within FBW_TOL of a target exactly FBW_TOL past an end
        from fsskit.synthesis import _auto_grid, width_evaluator

        grid = _auto_grid(DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, self.L1, self.C1, self.RANGE)
        metrics_at = width_evaluator(DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, self.L1, self.C1, grid, NORMAL)
        fbw_min, fbw_max = metrics_at(self.RANGE[1]).fbw, metrics_at(self.RANGE[0]).fbw
        target = fbw_min - FBW_TOL if edge == "lower" else fbw_max + FBW_TOL
        with pytest.raises(InfeasibleTargetError) as err:
            width_for_bandwidth(target, DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, self.L1, self.C1, self.RANGE)
        assert err.value.achievable == (fbw_min, fbw_max)

    def test_bad_range_rejected(self):
        with pytest.raises(DomainError):
            width_for_bandwidth(
                0.3, DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, self.L1, self.C1, (0.0, 3e-3)
            )


#: (l1, c1) of two rings: the shipped synthesize.json block and a second one
RINGS = (
    (synthesize_lc(DesignSpec(F_P, F_Z, 0.6e-12)).l1, 0.6e-12),
    (2.4e-9, 0.45e-12),
)
WIDTHS = (0.3e-3, 3.0e-3)


def ring_evaluator(ring):
    l1, c1 = ring
    grid = synthesis._auto_grid(DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, l1, c1, WIDTHS)
    return synthesis.width_evaluator(DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, l1, c1, grid, NORMAL)


@functools.cache
def achievable(ring) -> tuple[float, float]:
    """(fbw(w_max), fbw(w_min)), the range InfeasibleTargetError reports."""
    metrics_at = ring_evaluator(ring)
    return metrics_at(WIDTHS[1]).fbw, metrics_at(WIDTHS[0]).fbw


@st.composite
def ring_targets(draw):
    ring = draw(st.sampled_from(RINGS))
    lo, hi = achievable(ring)
    return ring, draw(st.floats(lo - 0.05, hi + 0.05))


@settings(max_examples=200, deadline=None)
@given(ring_targets())
def test_width_meets_the_target_or_the_target_is_infeasible(case):
    ring, target = case
    lo, hi = achievable(ring)
    try:
        w = width_for_bandwidth(target, DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, *ring, WIDTHS)
    except InfeasibleTargetError as err:
        assert err.achievable == (lo, hi)
        assert not lo - FBW_TOL <= target <= hi + FBW_TOL
        return
    assert WIDTHS[0] <= w <= WIDTHS[1]
    assert abs(ring_evaluator(ring)(w).fbw - target) < FBW_TOL


@pytest.mark.parametrize("end", [0, 1])
def test_a_bracket_end_that_meets_the_target_is_returned(end):
    target = achievable(RINGS[0])[1 - end] + (0.5 - end) * FBW_TOL
    w = width_for_bandwidth(target, DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, *RINGS[0], WIDTHS)
    assert w == WIDTHS[end]


def test_bench_targets_take_at_most_six_evaluations(monkeypatch):
    """Both bracket ends included; bisection on w takes up to 11 on these targets."""
    calls = []
    evaluator = synthesis.width_evaluator

    def counting(*args):
        metrics_at = evaluator(*args)

        def counted(w):
            calls[-1] += 1
            return metrics_at(w)

        return counted

    monkeypatch.setattr(synthesis, "width_evaluator", counting)
    for target in np.linspace(0.18, 0.48, 61):
        calls.append(0)
        width_for_bandwidth(float(target), DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, *RINGS[0], WIDTHS)
    assert max(calls) <= 6


def reference_truth() -> CircuitParams:
    return CircuitParams(
        L=2.85e-9, L1=1.61e-9, C1=0.6e-12, R=0.1, R1=0.1,
        h=0.254e-3, eps_r=2.2, order=2, h1=10e-3,
    )


def observed_curve(params: CircuitParams, n_points=401) -> ResponseCurve:
    return sweep_response(build_second_order(params), FrequencyGrid(1e9, 5e9, n_points), NORMAL)


BOUNDS = {"L": (0.5e-9, 10e-9), "L1": (0.3e-9, 6e-9), "C1": (0.1e-12, 3e-12)}


class TestFitCircuit:
    def test_truth_start_converges_immediately(self):
        truth = reference_truth()
        problem = FitProblem(
            observed=observed_curve(truth),
            base=truth,
            free=("L", "L1", "C1"),
            initial={"L": truth.L, "L1": truth.L1, "C1": truth.C1},
            bounds=BOUNDS,
        )
        result = fit_circuit(problem)
        assert result.converged
        assert result.iterations <= 2
        assert result.residual_norm < 1e-12

    def test_perturbed_start_recovers_truth(self):
        truth = reference_truth()
        problem = FitProblem(
            observed=observed_curve(truth),
            base=truth,
            free=("L", "L1", "C1"),
            initial={"L": truth.L * 1.3, "L1": truth.L1 * 0.7, "C1": truth.C1 * 1.3},
            bounds=BOUNDS,
        )
        result = fit_circuit(problem)
        assert result.converged
        assert result.iterations <= 500
        assert result.residual_norm < 1e-6
        assert result.params["L"] == pytest.approx(truth.L, rel=1e-2)
        assert result.params["L1"] == pytest.approx(truth.L1, rel=1e-2)
        assert result.params["C1"] == pytest.approx(truth.C1, rel=1e-2)

    def test_step_clipped_to_nothing_at_the_bounds_is_a_stall(self):
        # the box excludes the truth: (L + L1) C1 is at most 60 % of the truth's,
        # so every model passband in it lies above the observed one; the steps
        # run L and L1 to their upper bounds and C1 to its lower one
        truth = reference_truth()
        bounds = {"L": (0.5e-9, 2.0e-9), "L1": (0.3e-9, 1.2e-9), "C1": (0.1e-12, 0.5e-12)}
        problem = FitProblem(
            observed=observed_curve(truth),
            base=truth,
            free=("L", "L1", "C1"),
            initial={"L": 1.9e-9, "L1": 1.0e-9, "C1": 0.45e-12},
            bounds=bounds,
        )
        result = fit_circuit(problem)
        assert not result.converged
        assert result.message == "stalled at bound L, L1, C1"
        assert result.residual_norm > 1.0
        assert result.params["L"] == pytest.approx(bounds["L"][1], rel=1e-12)
        assert result.params["L1"] == pytest.approx(bounds["L1"][1], rel=1e-12)
        assert result.params["C1"] == pytest.approx(bounds["C1"][0], rel=1e-12)

    def test_a_value_the_residual_does_not_feel_is_not_converged(self):
        # at L ~ 1e-300 H the Jacobian's step in L changes no bit of |s21|, so
        # its column is exactly 0 and so is every step
        truth = reference_truth()
        problem = FitProblem(observed=observed_curve(truth), base=truth, free=("L",),
                             initial={"L": 1e-300}, bounds={"L": (2.5e-301, 4e-300)})
        result = fit_circuit(problem)
        assert not result.converged
        assert result.message == "no sensitivity to L where the fit stopped (Jacobian column 0)"
        assert result.residual_norm > 7.0

    @pytest.mark.parametrize("l", [2.85e-9, 1e-300])
    def test_a_start_on_the_exact_optimum_converges(self, l):
        # the observed curve is the model at the start, so the residual is 0;
        # at l = 1e-300 H the Jacobian column of L is 0 as well
        truth = replace(reference_truth(), L=l)
        start = {"L": l, "L1": truth.L1, "C1": truth.C1}
        problem = FitProblem(observed=observed_curve(truth), base=truth, free=tuple(start), initial=start,
                             bounds={name: (v / 4, v * 4) for name, v in start.items()})
        result = fit_circuit(problem)
        assert result.converged and result.residual_norm == 0.0
        assert result.message == "converged: relative step 0.00e+00 below tolerance"
        assert result.params == start

    def test_five_parameter_fit(self):
        truth = CircuitParams(
            L=2.85e-9, L1=1.61e-9, C1=0.6e-12, R=0.15, R1=0.08,
            h=0.254e-3, eps_r=2.2, order=2, h1=10e-3,
        )
        observed = sweep_response(
            build_second_order(truth), FrequencyGrid(1e9, 5e9, 801), NORMAL
        )
        problem = FitProblem(
            observed=observed,
            base=truth,
            free=("L", "L1", "C1", "R", "R1"),
            initial={"L": 3.4e-9, "L1": 1.2e-9, "C1": 0.75e-12, "R": 0.3, "R1": 0.2},
            bounds={
                "L": (0.5e-9, 10e-9), "L1": (0.3e-9, 6e-9), "C1": (0.1e-12, 3e-12),
                "R": (0.0, 2.0), "R1": (0.0, 2.0),
            },
        )
        result = fit_circuit(problem)
        assert result.converged
        for name in ("L", "L1", "C1", "R", "R1"):
            assert result.params[name] == pytest.approx(getattr(truth, name), rel=1e-2)

    def test_residual_never_increases(self):
        truth = reference_truth()
        problem = FitProblem(
            observed=observed_curve(truth),
            base=truth,
            free=("L", "L1", "C1"),
            initial={"L": truth.L * 0.75, "L1": truth.L1 * 1.25, "C1": truth.C1 * 0.8},
            bounds=BOUNDS,
        )
        result = fit_circuit(problem)
        hist = result.residual_history
        assert len(hist) >= 2
        assert all(b <= a + 1e-15 for a, b in zip(hist, hist[1:]))

    def test_noisy_curves_recover_within_five_percent(self):
        truth = reference_truth()
        clean = observed_curve(truth, n_points=301)
        rng = np.random.default_rng(101)
        errors = []
        for _ in range(20):
            noisy_mag = np.abs(clean.s21) + rng.uniform(-0.01, 0.01, size=len(clean))
            noisy = ResponseCurve(
                freqs=clean.freqs,
                s11=clean.s11,
                s21=np.maximum(noisy_mag, 0.0).astype(complex),
                incidence=clean.incidence,
            )
            problem = FitProblem(
                observed=noisy,
                base=truth,
                free=("L", "L1", "C1"),
                initial={
                    "L": truth.L * float(rng.uniform(0.8, 1.2)),
                    "L1": truth.L1 * float(rng.uniform(0.8, 1.2)),
                    "C1": truth.C1 * float(rng.uniform(0.8, 1.2)),
                },
                bounds=BOUNDS,
            )
            result = fit_circuit(problem)
            errors.append(
                max(
                    abs(result.params["L"] - truth.L) / truth.L,
                    abs(result.params["L1"] - truth.L1) / truth.L1,
                    abs(result.params["C1"] - truth.C1) / truth.C1,
                )
            )
        assert float(np.median(errors)) < 0.05

    def test_problem_validation(self):
        truth = reference_truth()
        curve = observed_curve(truth, n_points=51)
        with pytest.raises(DomainError):
            FitProblem(observed=curve, base=truth, free=(), initial={}, bounds={})
        with pytest.raises(DomainError):
            FitProblem(
                observed=curve, base=truth, free=("Lx",),
                initial={"Lx": 1e-9}, bounds={"Lx": (1e-10, 1e-8)},
            )
        with pytest.raises(DomainError):
            FitProblem(
                observed=curve, base=truth, free=("L",),
                initial={"L": 1e-9}, bounds={"L": (2e-9, 8e-9)},  # start outside bounds
            )
        with pytest.raises(DomainError):
            FitProblem(
                observed=curve, base=truth, free=("C1",),
                initial={"C1": 1e-12}, bounds={"C1": (-1e-12, 2e-12)},  # reactive <= 0
            )

    @pytest.mark.parametrize("name", ["R", "R1"])
    def test_a_resistive_box_below_zero_is_rejected(self, name):
        # the fit may otherwise step R below 0, where the ladder raises, or not,
        # depending on its path; a box from 0 is accepted
        truth = reference_truth()
        curve = observed_curve(truth, n_points=51)
        with pytest.raises(DomainError, match=f"resistive element '{name}' needs nonnegative bounds"):
            FitProblem(observed=curve, base=truth, free=(name,), initial={name: 0.5}, bounds={name: (-1.0, 1.0)})
        FitProblem(observed=curve, base=truth, free=(name,), initial={name: 0.0}, bounds={name: (0.0, 1.0)})

    def test_duplicate_free_parameter_is_rejected(self):
        truth = reference_truth()
        with pytest.raises(DomainError, match="must be distinct"):
            FitProblem(
                observed=observed_curve(truth, n_points=51), base=truth, free=("L", "L"),
                initial={"L": 2e-9}, bounds={"L": (1e-9, 8e-9)},
            )

    @pytest.mark.parametrize("name", ["R", "R1"])
    def test_free_loss_that_starts_at_zero(self, name):
        # a start of 0 has no magnitude to scale by; the bound's 1 ohm is used
        truth = reference_truth()
        problem = FitProblem(
            observed=observed_curve(truth),
            base=truth,
            free=("L", name),
            initial={"L": 2.5e-9, name: 0.0},
            bounds={"L": (1e-9, 5e-9), name: (0.0, 1.0)},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fit_circuit(problem)
        assert result.converged
        assert result.params["L"] == pytest.approx(truth.L, rel=1e-3)
        assert result.params[name] == pytest.approx(0.1, abs=1e-2)


#: each of L, L1 and C1 lowered by 10, 20 or 30 %: 27 starts, some of whose
#: passbands miss the observed one
LOW_STARTS = list(itertools.product((0.9, 0.8, 0.7), repeat=3))
#: the start box: criterion 8's, or the CLI's default of start/4 to start x4
START_BOXES = {
    "criterion-8": lambda start: BOUNDS,
    "cli-default": lambda start: {name: (v / 4.0, v * 4.0) for name, v in start.items()},
}


@pytest.mark.parametrize("box", START_BOXES.values(), ids=START_BOXES)
@pytest.mark.parametrize("factors", LOW_STARTS, ids=lambda f: "/".join(map(str, f)))
def test_every_low_start_recovers_the_truth(factors, box):
    truth = reference_truth()
    start = {name: getattr(truth, name) * x for name, x in zip(("L", "L1", "C1"), factors)}
    problem = FitProblem(observed=observed_curve(truth), base=truth, free=tuple(start),
                         initial=start, bounds=box(start))
    result = fit_circuit(problem)
    assert result.converged, result.message
    assert result.residual_norm < 1e-6
    for name in start:
        assert result.params[name] == pytest.approx(getattr(truth, name), rel=1e-2)


@functools.cache
def criterion_8_curve() -> ResponseCurve:
    return observed_curve(reference_truth())


@settings(max_examples=30, deadline=None)
@given(boxes=st.lists(st.tuples(st.floats(0.25, 1.6), st.floats(1.05, 5.0), st.floats(0.0, 1.0)),
                      min_size=3, max_size=3))
def test_a_fit_keeps_to_its_box_and_names_the_bounds_it_stalls_at(boxes):
    """Boxes around the criterion-8 truth, most of which exclude it, each with
    a start inside: a value comes back inside its box, a value the box holds
    is its bound bit for bit, and a stall names exactly the values at a bound.
    A fit the iteration cap ends does not claim convergence."""
    truth = reference_truth()
    names = ("L", "L1", "C1")
    bounds = {n: (getattr(truth, n) * a, getattr(truth, n) * a * b) for n, (a, b, _) in zip(names, boxes)}
    start = {n: lo + t * (hi - lo) for n, (lo, hi), (_, _, t) in zip(names, bounds.values(), boxes)}
    problem = FitProblem(observed=criterion_8_curve(), base=truth, free=names, initial=start, bounds=bounds)
    result = fit_circuit(problem)
    at_bound = []
    for name, value in result.params.items():
        lo, hi = bounds[name]
        assert lo <= value <= hi
        for bound in (lo, hi):
            if abs(value - bound) <= 4e-16 * bound:
                assert value == bound
                at_bound.append(name)
    if result.message.startswith("stalled at bound "):
        assert not result.converged
        assert result.message.removeprefix("stalled at bound ").split(", ") == at_bound
    if result.iterations == synthesis.MAX_ITERATIONS:
        assert not result.converged


def test_a_step_tolerance_stop_inside_the_box_is_converged():
    """Inside the box a step moves L, L1 and C1 along their logarithm, so the
    new point differs from u + step without any bound touched.  This fit, an
    unmirrored second-order cell at 40 degrees TM, stops on the step tolerance
    with every value inside its box, and is converged, not stalled."""
    truth = CircuitParams(L=2.85e-9, L1=1.61e-9, C1=0.6e-12, order=2, h1=10e-3)
    tm40 = IncidenceCondition(math.radians(40.0), Polarization.TM)
    observed = sweep_response(build_network(truth, mirrored=False), FrequencyGrid(1e9, 5e9, 401), tm40)
    start = {"L": 2.5e-9, "L1": 1.5e-9, "C1": 0.65e-12}
    bounds = {name: (v / 4, v * 4) for name, v in start.items()}
    problem = FitProblem(observed=observed, base=truth, free=tuple(start), initial=start, bounds=bounds,
                         mirrored=False)
    result = fit_circuit(problem)
    assert result.message.startswith("converged: relative step")
    assert result.converged
    for name, value in result.params.items():
        assert bounds[name][0] < value < bounds[name][1]
        assert value == pytest.approx(getattr(truth, name), rel=1e-9)


def model_of(problem):
    """The fit_model of problem on a HeldWork of its own."""
    return fit_model(problem, HeldWork(problem.observed.freqs))


def test_aligned_start_moves_the_model_passband_onto_the_observed_one():
    truth = reference_truth()
    observed = observed_curve(truth)
    start = {"L": truth.L * 0.7, "L1": truth.L1 * 0.7, "C1": truth.C1 * 0.7}
    problem = FitProblem(observed=observed, base=truth, free=tuple(start), initial=start, bounds=BOUNDS)
    aligned = aligned_start(problem, model_of(problem))
    assert aligned["C1"] == start["C1"]
    assert aligned["L1"] / aligned["L"] == pytest.approx(start["L1"] / start["L"], rel=1e-12)
    model = observed_curve(replace(truth, **aligned))
    assert extract_metrics(model).f_c == pytest.approx(extract_metrics(observed).f_c, rel=1e-2)


def test_aligned_start_scales_c1_when_neither_inductance_is_free():
    truth = reference_truth()
    problem = FitProblem(observed=observed_curve(truth), base=truth, free=("C1", "R"),
                         initial={"C1": truth.C1 * 0.7, "R": 0.1},
                         bounds={"C1": BOUNDS["C1"], "R": (0.0, 2.0)})
    aligned = aligned_start(problem, model_of(problem))
    assert aligned["R"] == 0.1
    assert aligned["C1"] == pytest.approx(truth.C1, rel=1e-2)


@pytest.mark.parametrize(
    "free, grid",
    [
        (("R", "R1"), FrequencyGrid(1e9, 5e9, 401)),  # nothing to scale
        (("L", "L1", "C1"), FrequencyGrid(1e9, 2.5e9, 401)),  # observed peak at the grid's end
    ],
    ids=["resistances", "unbracketed"],
)
def test_aligned_start_keeps_the_start_it_cannot_align(free, grid):
    truth = reference_truth()
    start = {"L": truth.L * 0.7, "L1": truth.L1 * 0.7, "C1": truth.C1 * 0.7, "R": 0.3, "R1": 0.2}
    start = {name: start[name] for name in free}
    bounds = {**BOUNDS, "R": (0.0, 2.0), "R1": (0.0, 2.0)}
    problem = FitProblem(observed=sweep_response(build_second_order(truth), grid, NORMAL),
                         base=truth, free=free, initial=start,
                         bounds={name: bounds[name] for name in free})
    assert aligned_start(problem, model_of(problem)) == start


def test_aligned_start_is_clipped_into_the_bounds():
    truth = reference_truth()
    start = {"L": truth.L * 0.7, "L1": truth.L1 * 0.7}
    bounds = {"L": (0.5e-9, truth.L * 0.8), "L1": (0.3e-9, truth.L1 * 0.8)}
    problem = FitProblem(observed=observed_curve(truth), base=truth, free=tuple(start),
                         initial=start, bounds=bounds)
    assert aligned_start(problem, model_of(problem)) == {"L": bounds["L"][1], "L1": bounds["L1"][1]}


class TestSynthesizedType:
    def test_named_tuple_fields(self):
        lc = SynthesizedLC(l=1e-9, l1=2e-9, c1=3e-12)
        assert lc.l == 1e-9 and lc.l1 == 2e-9 and lc.c1 == 3e-12
        l, l1, c1 = lc
        assert (l, l1, c1) == (1e-9, 2e-9, 3e-12)
