"""The batch axis of the element values against one evaluation per row.

CircuitParams element values may be (k, 1) column arrays, and fit_circuit
evaluates each point with the k forward-difference rows of its Jacobian
in one model call.  These tests check both against scalar evaluations,
bit for bit: the batched network against k separate networks, and
fit_circuit against the former per-column fit, which is kept here as the
reference and run from the same aligned start.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from fsskit import synthesis
from fsskit.analysis import FrequencyGrid, network_smatrix, sweep_response
from fsskit.builder import CircuitParams, HeldWork, build_network, build_second_order
from fsskit.synthesis import (
    IMPROVEMENT_TOL,
    MAX_ITERATIONS,
    STEP_TOL,
    FitProblem,
    FitResult,
    aligned_start,
    fit_circuit,
    fit_model,
)
from fsskit.twoport import NORMAL, IncidenceCondition, Polarization


def _bits(x) -> np.ndarray:
    return np.ascontiguousarray(x).view(np.uint64)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def reference_fit(problem: FitProblem) -> FitResult:
    """fit_circuit as it was with one scalar model call per Jacobian column,
    with its difference rule and update rule: column i steps u_i forward by
    h_i, or back where that leaves the box, or to hi_i from lo_i of a box
    narrower than h_i; a trial point the box does not cut moves L, L1 and
    C1 to u exp(step / u) when that point lies inside the box too."""
    obs = np.abs(problem.observed.s21)
    scale = np.array([abs(problem.initial[n]) for n in problem.free])
    lo = np.array([problem.bounds[n][0] for n in problem.free]) / scale
    hi = np.array([problem.bounds[n][1] for n in problem.free]) / scale
    u = np.clip(np.ones(len(problem.free)), lo, hi)
    multiplicative = np.array([name in ("L", "L1", "C1") for name in problem.free])

    def residual(u_vec):
        params = replace(problem.base, **dict(zip(problem.free, u_vec * scale)))
        net = build_network(params, mirrored=problem.mirrored)
        s21 = network_smatrix(net, problem.observed.freqs, problem.observed.incidence).s21
        return np.abs(s21) - obs

    def jacobian(u_vec, r_vec):
        cols = []
        for k in range(u_vec.size):
            step = 1e-6 * max(abs(u_vec[k]), 1e-3)
            moved = u_vec.copy()
            if u_vec[k] + step <= hi[k]:
                moved[k] = u_vec[k] + step
            else:
                moved[k] = max(u_vec[k] - step, lo[k])
            if moved[k] == u_vec[k]:
                moved[k] = hi[k]
            cols.append((residual(moved) - r_vec) / (moved[k] - u_vec[k]))
        return np.column_stack(cols)

    r = residual(u)
    cost = float(r @ r)
    lam = 1e-3
    iterations = 0
    message = "iteration cap reached without convergence"
    converged = False
    history = [math.sqrt(cost)]
    for iterations in range(1, MAX_ITERATIONS + 1):
        jac = jacobian(u, r)
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
            u_new = np.clip(u + step, lo, hi)
            if np.array_equal(u_new, u + step):
                # inside the box, L, L1 and C1 step along their logarithm
                with np.errstate(all="ignore"):
                    along = u * np.exp(np.divide(step, u, out=np.zeros(u.size), where=multiplicative))
                if ((lo <= along) & (along <= hi)).all():
                    u_new = np.where(multiplicative, along, u + step)
            r_new = residual(u_new)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            message = "damping exhausted without an accepting step"
            break
        rel_step = float(np.max(np.abs(u_new - u) / np.maximum(np.abs(u), 1e-30)))
        improvement = cost - cost_new
        u, r, cost = u_new, r_new, cost_new
        history.append(math.sqrt(cost))
        lam = max(lam / 3.0, 1e-12)
        if rel_step < STEP_TOL:
            converged = True
            message = f"converged: relative step {rel_step:.2e} below tolerance"
            break
        if improvement < IMPROVEMENT_TOL:
            converged = True
            message = f"converged: residual improvement {improvement:.2e} below tolerance"
            break
    return FitResult(
        params=dict(zip(problem.free, (u * scale).tolist())),
        residual_norm=float(math.sqrt(cost)),
        iterations=iterations,
        converged=converged,
        message=message,
        residual_history=tuple(history),
    )


def criterion_8_problem() -> FitProblem:
    truth = CircuitParams(
        L=2.85e-9, L1=1.61e-9, C1=0.6e-12, R=0.1, R1=0.1,
        h=0.254e-3, eps_r=2.2, order=2, h1=10e-3,
    )
    return FitProblem(
        observed=sweep_response(build_second_order(truth), FrequencyGrid(1e9, 5e9, 401), NORMAL),
        base=truth,
        free=("L", "L1", "C1"),
        initial={"L": truth.L * 1.3, "L1": truth.L1 * 0.7, "C1": truth.C1 * 1.3},
        bounds={"L": (0.5e-9, 10e-9), "L1": (0.3e-9, 6e-9), "C1": (0.1e-12, 3e-12)},
    )


def five_parameter_problem() -> FitProblem:
    truth = CircuitParams(
        L=2.85e-9, L1=1.61e-9, C1=0.6e-12, R=0.15, R1=0.08,
        h=0.254e-3, eps_r=2.2, order=2, h1=10e-3,
    )
    return FitProblem(
        observed=sweep_response(build_second_order(truth), FrequencyGrid(1e9, 5e9, 801), NORMAL),
        base=truth,
        free=("L", "L1", "C1", "R", "R1"),
        initial={"L": 3.4e-9, "L1": 1.2e-9, "C1": 0.75e-12, "R": 0.3, "R1": 0.2},
        bounds={
            "L": (0.5e-9, 10e-9), "L1": (0.3e-9, 6e-9), "C1": (0.1e-12, 3e-12),
            "R": (0.0, 2.0), "R1": (0.0, 2.0),
        },
    )


@pytest.mark.parametrize("make_problem", [criterion_8_problem, five_parameter_problem])
def test_fit_matches_per_column_reference_bit_for_bit(make_problem):
    problem = make_problem()
    start = aligned_start(problem, held_model(problem))
    got, want = fit_circuit(problem), reference_fit(replace(problem, initial=start))
    assert got.iterations == want.iterations
    assert list(got.params) == list(want.params)
    assert _hex(got.params.values()) == _hex(want.params.values())
    assert float(got.residual_norm).hex() == float(want.residual_norm).hex()
    assert _hex(got.residual_history) == _hex(want.residual_history)
    assert (got.converged, got.message) == (want.converged, want.message)


def test_fit_makes_one_model_call_per_trial_step(monkeypatch):
    """1 call aligns the start, 1 evaluates it, and each trial step takes 1 for its
    residual and Jacobian together: no separate Jacobian call remains."""
    rows = []
    solves = []
    smatrix, solve = synthesis.network_smatrix, np.linalg.solve

    def counting_smatrix(*args, **kwargs):
        s = smatrix(*args, **kwargs)
        rows.append(s.s21.shape[:-1])
        return s

    def counting_solve(*args):
        x = solve(*args)  # a singular matrix raises before it is counted
        solves.append(x)
        return x

    monkeypatch.setattr(synthesis, "network_smatrix", counting_smatrix)
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    result = fit_circuit(criterion_8_problem())
    assert result.converged
    assert len(solves) >= result.iterations
    assert len(rows) == 1 + 1 + len(solves)
    assert rows[0] == ()  # the alignment call, at the user's start alone
    assert set(rows[1:]) == {(1 + 3,)}


def stalled_problem() -> FitProblem:
    """criterion 8 in a box that excludes its truth: the fit rejects a step and stalls."""
    problem = criterion_8_problem()
    return replace(problem, initial={"L": 1.9e-9, "L1": 1.0e-9, "C1": 0.45e-12},
                   bounds={"L": (0.5e-9, 2.0e-9), "L1": (0.3e-9, 1.2e-9), "C1": (0.1e-12, 0.5e-12)})


@pytest.mark.parametrize("make_problem", [criterion_8_problem, five_parameter_problem, stalled_problem])
def test_fit_counts_its_model_calls_and_rejected_steps(monkeypatch, make_problem):
    """model_calls is every network_smatrix call of the fit, the alignment's
    included, and rejected_steps every trial step whose residual rose above
    the last accepted one; the spy reads each call's squared residual."""
    problem = make_problem()
    observed = np.abs(problem.observed.s21)
    costs = []
    smatrix = synthesis.network_smatrix

    def counting_smatrix(*args, **kwargs):
        s = smatrix(*args, **kwargs)
        residual = np.abs(np.atleast_2d(s.s21)[0]) - observed
        costs.append(float(residual @ residual))
        return s

    monkeypatch.setattr(synthesis, "network_smatrix", counting_smatrix)
    result = fit_circuit(problem)
    accepted, rejected = costs[1], 0  # the alignment call, then the start
    for cost in costs[2:]:
        if cost <= accepted:
            accepted = cost
        else:
            rejected += 1
    assert result.model_calls == len(costs)
    assert result.rejected_steps == rejected
    assert result.model_calls == 2 + result.iterations + rejected


@pytest.mark.parametrize("make_problem", [criterion_8_problem, five_parameter_problem])
def test_fit_converges_within_ten_model_calls(make_problem):
    """The additive update took 15 and 10; L, L1 and C1 stepping along their logarithm take 9."""
    result = fit_circuit(make_problem())
    assert result.converged
    assert result.model_calls <= 10


def held_model(problem):
    """The fit_model of problem on a HeldWork of its own."""
    return fit_model(problem, HeldWork(problem.observed.freqs))


def record_model_calls(monkeypatch) -> list[tuple[dict[str, np.ndarray], np.ndarray]]:
    """Each model call of the fits that follow: its values, one row per set,
    and a copy of its |s21| (the fit's arrays overwrite the s21 it returns)."""
    calls = []
    fit_model = synthesis.fit_model

    def recording_fit_model(problem, work):
        model = fit_model(problem, work)

        def record(values):
            s = model(values)
            calls.append(({n: np.ravel(v).astype(float) for n, v in values.items()}, np.abs(s.s21)))
            return s

        return record

    monkeypatch.setattr(synthesis, "fit_model", recording_fit_model)
    return calls


@pytest.mark.parametrize("make_problem", [criterion_8_problem, five_parameter_problem])
def test_forward_columns_agree_with_central_ones(monkeypatch, make_problem):
    """At the aligned start and at the optimum, each forward-difference column
    of the fit's batch agrees with a central one over the same step, formed
    from two scalar-row evaluations, within 1e-4 relative."""
    problem = make_problem()
    calls = record_model_calls(monkeypatch)
    assert fit_circuit(problem).converged
    monkeypatch.undo()
    model = held_model(problem)
    for values, s21 in (calls[1], calls[-1]):  # the start, and the last (accepted) point
        assert s21.shape == (1 + len(problem.free), problem.observed.freqs.size)
        for i, name in enumerate(problem.free, start=1):
            point = {n: v[0] for n, v in values.items()}
            h = values[name][i] - point[name]
            forward = (s21[i] - s21[0]) / h
            pair = {**point, name: np.array([[point[name] + h], [point[name] - h]])}
            up, dn = np.abs(model(pair).s21)
            central = (up - dn) / (2.0 * h)
            assert np.max(np.abs(forward - central)) <= 1e-4 * np.max(np.abs(central))


def assert_every_row_inside_the_box(problem: FitProblem, calls) -> None:
    for values, _ in calls:
        for name in problem.free:
            lo, hi = problem.bounds[name]
            assert ((lo <= values[name]) & (values[name] <= hi)).all(), (name, values[name])


def test_a_row_at_an_upper_bound_steps_back_inside_the_box(monkeypatch):
    """The stall test's corner ends with L and L1 on their upper bounds, where
    a forward row would leave the box: their rows step back, every row of
    every model call lies inside the box, and the fit stalls there as before."""
    problem = stalled_problem()
    calls = record_model_calls(monkeypatch)
    assert fit_circuit(problem).message == "stalled at bound L, L1, C1"
    assert_every_row_inside_the_box(problem, calls)
    last = calls[-1][0]
    assert last["L"][0] == problem.bounds["L"][1] > last["L"][1]


def test_a_box_narrower_than_the_step_takes_its_upper_bound_as_the_row(monkeypatch):
    """L on the lower bound of a box narrower than its step, where u + h and
    u - h both leave the box: its row is the upper bound, and the fit ends as
    it did with central differences."""
    bounds = (3.0e-9, 3.0000000001e-9)
    problem = replace(criterion_8_problem(), free=("L",), initial={"L": 3.0e-9}, bounds={"L": bounds})
    calls = record_model_calls(monkeypatch)
    result = fit_circuit(problem)
    assert (result.converged, result.message, result.params) == (False, "stalled at bound L", {"L": bounds[0]})
    assert_every_row_inside_the_box(problem, calls)
    assert calls[1][0]["L"].tolist() == list(bounds)


ROWS = {
    "L": [2.5e-9, 2.85e-9, 3.4e-9],
    "L1": [1.2e-9, 1.61e-9, 2.0e-9],
    "C1": [0.5e-12, 0.6e-12, 0.75e-12],
    "R": [0.0, 0.1, 0.3],
    "R1": [0.2, 0.0, 0.08],
}


@pytest.mark.parametrize(
    "order, mirrored, inc",
    [
        (1, True, NORMAL),
        (2, True, NORMAL),
        (2, False, NORMAL),
        (2, True, IncidenceCondition(math.radians(40), Polarization.TE)),
        (2, True, IncidenceCondition(math.radians(40), Polarization.TM)),
    ],
)
def test_column_params_match_scalar_evaluations(order, mirrored, inc):
    base = CircuitParams(L=2.85e-9, L1=1.61e-9, C1=0.6e-12, order=order, h1=10e-3)
    f = np.linspace(1e9, 5e9, 201)
    batch = replace(base, **{name: np.array(values)[:, None] for name, values in ROWS.items()})
    s = network_smatrix(build_network(batch, mirrored=mirrored), f, inc)
    assert s.s21.shape == (3, f.size)
    for i in range(3):
        row = replace(base, **{name: values[i] for name, values in ROWS.items()})
        want = network_smatrix(build_network(row, mirrored=mirrored), f, inc)
        for name in ("s11", "s21", "s22"):
            assert np.array_equal(_bits(getattr(s, name)[i]), _bits(getattr(want, name)))
