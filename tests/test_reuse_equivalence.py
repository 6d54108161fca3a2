"""Results held within a sweep or across a width loop, against plain evaluation.

sweep_response evaluates an element object that its ladder holds more than
once, as the mirrored second-order stack does, only once.  The strip-width
loop of sweep-w and width_for_bandwidth, synthesis.width_evaluator, holds
more: the ring and spacer product, its b/z, jw and two complex buffers,
formed once per evaluator, into which each width's split kernels
(rl_admittance, TwoPortMatrix.shunt_right, abcd_delta) write.  A fit's
model, synthesis.fit_model, holds a HeldWork across its calls: each line's
phase, evaluated at the first call, and the arrays that every call's
admittances, products and s21 are formed in.  These tests check every held
result against network_smatrix, which evaluates each element afresh, bit
for bit, count the element and kernel evaluations, and bound what a width
and a model call allocate.
"""

import json
import math
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsskit import builder, cli, synthesis
from fsskit.analysis import FrequencyGrid, ResponseCurve, extract_metrics, network_smatrix, sweep_response
from fsskit.builder import (
    DEFAULT_CALIBRATION,
    DEFAULT_GEOMETRY,
    CalibrationConstants,
    CircuitParams,
    LineSegment,
    ShuntBranch,
    build_network,
    params_from_geometry,
)
from fsskit.errors import DomainError, FssError, OneSidedBandError, SingularNetworkError
from fsskit.synthesis import FITTABLE, FitProblem, fit_circuit, fit_model, width_evaluator, width_for_bandwidth
from fsskit.touchstone import read_touchstone
from fsskit.twoport import (
    NORMAL,
    IncidenceCondition,
    Polarization,
    TwoPortMatrix,
    abcd_delta,
    abcd_shunt,
    abcd_to_s,
    j_omega,
    rl_admittance,
    shunt_rl_admittance,
    wave_impedance,
)

L1, C1 = 1.61e-9, 0.6e-12
GRID = FrequencyGrid(1e9, 5e9, 2001)
TM40 = IncidenceCondition(math.radians(40.0), Polarization.TM)
LOSSLESS = CalibrationConstants(DEFAULT_CALIBRATION.l_scale, 0.0, 0.0)


def _bits(x) -> bytes:
    return np.ascontiguousarray(x, dtype=complex).tobytes()


def ladder_at(w_mm, geometry=DEFAULT_GEOMETRY, cal=DEFAULT_CALIBRATION, l1=L1, c1=C1):
    params = params_from_geometry(replace(geometry, strip_width=w_mm * 1e-3), cal, l1, c1)
    return build_network(params)


@pytest.fixture
def element_evaluations(monkeypatch):
    """The element of every ShuntBranch.abcd and LineSegment.abcd call, in order."""
    calls = []
    for cls in (ShuntBranch, LineSegment):
        def recording(self, f, inc=NORMAL, *work, _real=cls.abcd):
            calls.append(self)
            return _real(self, f, inc, *work)
        monkeypatch.setattr(cls, "abcd", recording)
    return calls


#: (order, mirrored)
LADDERS = {"first": (1, True), "second-mirrored": (2, True), "second": (2, False)}


@pytest.mark.parametrize("inc", [NORMAL, TM40])
@pytest.mark.parametrize("shape", LADDERS.values(), ids=LADDERS)
def test_sweep_evaluates_each_distinct_element_once(shape, inc, element_evaluations):
    order, mirrored = shape
    p = CircuitParams(L=2.85e-9, L1=L1, C1=C1, order=order, h1=10e-3 if order == 2 else None)
    net = build_network(p, mirrored=mirrored)
    curve = sweep_response(net, GRID, inc)
    # each element object once, in ladder order; a second-order stack holds
    # 7 elements, 4 of them distinct
    assert list(map(id, element_evaluations)) == list(dict.fromkeys(map(id, net.elements)))
    assert len(element_evaluations) == (3 if order == 1 else 4)
    want = network_smatrix(net, GRID.points, inc)
    for name in ("s11", "s21", "s22"):
        assert _bits(getattr(curve, name)) == _bits(getattr(want, name)), name


def assert_ring_and_spacer_once(calls, params):
    ring, line, _ = build_network(params).elements
    assert calls == [ring, line]


def test_sweep_w_rows_match_plain_evaluation(tmp_path, element_evaluations):
    widths = [2.2, 0.6, 11.0, 1.4, 0.6, 0.0, 2.6, 1.0]
    doc = {
        "mode": "sweep-w",
        "circuit": {"l1_nh": 1.61, "c1_pf": 0.6},
        "grid": {"f_start_ghz": 1.0, "f_stop_ghz": 5.0, "n_points": 2001},
        "incidence": {"theta_deg": [40], "pol": ["TM"]},
        "sweep": {"w_mm": widths},
    }
    cfg = cli.parse_config(json.dumps(doc))
    summary = cli.run(cfg, out_dir=tmp_path)

    # the ring and the spacer, evaluated once for the first width that builds
    assert_ring_and_spacer_once(element_evaluations, params_from_geometry(
        replace(cfg.geometry, strip_width=0.6e-3), cfg.calibration, cfg.ring_l1, cfg.ring_c1))

    rows, failures = [], []
    for w_mm in sorted(widths):
        try:
            net = ladder_at(w_mm, cfg.geometry, cfg.calibration, cfg.ring_l1, cfg.ring_c1)
            curve = sweep_response(net, cfg.grid, cfg.incidence[0])
            rows.append(dict(w_mm=w_mm, **cli._metrics_dict(extract_metrics(curve))))
        except FssError as exc:
            failures.append({"w_mm": w_mm, "error": str(exc)})

    def hexed(entries):
        return [{k: v.hex() if isinstance(v, float) else v for k, v in e.items()} for e in entries]

    assert hexed(summary["rows"]) == hexed(rows) and len(rows) == 6
    assert summary["failures"] == failures and len(failures) == 2


def test_width_for_bandwidth_matches_plain_evaluation(element_evaluations):
    l1 = 1.0 / ((2 * math.pi * 5.1207263563633e9) ** 2 * C1)  # the shipped synthesize target
    w = width_for_bandwidth(0.25, DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, l1, C1, (0.3e-3, 3.0e-3))
    assert 0.3e-3 < w < 3.0e-3
    # the ring and the spacer, evaluated once for the first width, w_min
    assert_ring_and_spacer_once(element_evaluations, params_from_geometry(
        replace(DEFAULT_GEOMETRY, strip_width=0.3e-3), DEFAULT_CALIBRATION, l1, C1))


# ---------------------------------------------------------------------------
# the width evaluator's held kernels


class HeldKernels:
    """A head closed by a grounded R-L branch, as width_evaluator holds it:
    the head, its b/z, jw and two buffers; s21(r, l) calls the split kernels
    into the buffers in the evaluator's order."""

    def __init__(self, head, f, z_ref):
        self.head, self.z_ref = head, z_ref
        self.bz, self.jw = head.b / z_ref, j_omega(f)
        self.y, self.a = np.empty_like(self.jw), np.empty_like(self.jw)

    def s21(self, r, l):
        y, a = self.y, self.a
        m = self.head.shunt_right(abcd_shunt(rl_admittance(r, l, self.jw, out=y)).c, out=(a, y))
        delta = abcd_delta(m.a, self.bz, np.multiply(m.c, self.z_ref, out=y), m.d, out=a)
        return np.divide(2.0, delta, out=a)


def evaluated_s21(metrics_at, w):
    """The metrics of metrics_at(w), or the FssError it raised, and a copy of the
    s21 it handed to extract_metrics (None if it raised before that)."""
    seen = []

    def recording(curve):
        seen.append(curve.s21.copy())
        return extract_metrics(curve)

    with mock.patch.object(synthesis, "extract_metrics", recording):
        try:
            result = metrics_at(w)
        except FssError as exc:
            result = exc
    return result, seen[0] if seen else None


def outcome(make_s21):
    """The bits of make_s21(), or the type and message of the FssError it raised."""
    try:
        return _bits(make_s21())
    except FssError as exc:
        return type(exc), str(exc)


def plain_s21(params, grid, inc):
    return network_smatrix(build_network(params), grid.points, inc, reflections=False).s21


def evaluator(cal=DEFAULT_CALIBRATION, grid=GRID, inc=NORMAL):
    return width_evaluator(DEFAULT_GEOMETRY, cal, L1, C1, grid, inc)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None)
@given(
    w=st.floats(0.0, DEFAULT_GEOMETRY.period, exclude_min=True, exclude_max=True),
    theta_deg=st.floats(0.0, 60.0),
    pol=st.sampled_from(Polarization),
    lossy=st.booleans(),
    n=st.sampled_from([2001, 20001]),
)
def test_held_kernel_matches_network_smatrix(w, theta_deg, pol, lossy, n):
    inc = IncidenceCondition(math.radians(theta_deg), pol)
    grid = FrequencyGrid(1e9, 5e9, n)
    cal = DEFAULT_CALIBRATION if lossy else LOSSLESS
    # a first width, so that w is evaluated from what is held
    metrics_at = evaluator(cal, grid, inc)
    evaluated_s21(metrics_at, 1.4e-3)
    result, got = evaluated_s21(metrics_at, w)
    try:
        params = params_from_geometry(replace(DEFAULT_GEOMETRY, strip_width=w), cal, L1, C1)
    except DomainError as exc:
        assert got is None and str(result) == str(exc)
        return
    want = outcome(lambda: plain_s21(params, grid, inc))
    assert (_bits(got) if got is not None else (type(result), str(result))) == want
    # the evaluator's spacer has the default loss tangent; the held kernels also take a lossless one
    for loss_tangent in (0.0009, 0.0):
        p = replace(params, loss_tangent=loss_tangent)
        ring, line, _ = build_network(p).elements
        held = HeldKernels(ring.abcd(grid.points, inc) @ line.abcd(grid.points, inc),
                           grid.points, wave_impedance(inc.theta, inc.polarization))
        assert outcome(lambda: held.s21(p.R, p.L)) == outcome(lambda: plain_s21(p, grid, inc))


@pytest.mark.parametrize("inc", [NORMAL, TM40])
def test_evaluation_order_does_not_change_a_result(inc):
    w1, w2 = 2.2e-3, 0.6e-3
    metrics_at = evaluator(inc=inc)
    got = [evaluated_s21(metrics_at, w) for w in (w1, w2, w1)]
    fresh = [evaluated_s21(evaluator(inc=inc), w) for w in (w1, w2, w1)]
    for (m, s21), (m_fresh, s21_fresh) in zip(got, fresh):
        assert m == m_fresh and _bits(s21) == _bits(s21_fresh)
    assert got[0][0] == got[2][0] != got[1][0]


@pytest.mark.parametrize("bad_mm, error", [(11.0, DomainError), (0.01, OneSidedBandError)])
def test_a_width_that_raises_leaves_the_next_result_as_fresh(bad_mm, error):
    for first in ([], [1.4]):  # the failure before and after anything is held
        metrics_at = evaluator()
        for w_mm in first:
            metrics_at(w_mm * 1e-3)
        with pytest.raises(error):
            metrics_at(bad_mm * 1e-3)
        got = evaluated_s21(metrics_at, 2.6e-3)
        want = evaluated_s21(evaluator(), 2.6e-3)
        assert got[0] == want[0] and _bits(got[1]) == _bits(want[1])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_failed_held_call_leaves_what_is_held():
    ring, line, _ = ladder_at(1.4).elements
    f, z_ref = GRID.points, wave_impedance(0.0, Polarization.TE)
    held = HeldKernels(ring.abcd(f) @ line.abcd(f), f, z_ref)

    def held_bits():
        h = held.head
        return [_bits(x) for x in (h.a, h.b, h.c, h.d, held.bz, held.jw)]

    held_before = held_bits()
    good = ladder_at(2.6).elements[2]
    want = held.s21(good.resistance, good.inductance).copy()
    # with R = 0, jw L underflows to a subnormal, and 1/(jw L) overflows
    with pytest.raises(DomainError, match="^shunt admittance must be finite$"):
        held.s21(0.0, 1e-320)
    with pytest.raises(DomainError, match="RL branch requires"):
        held.s21(0.1, 0.0)
    assert held_bits() == held_before
    fresh = HeldKernels(ring.abcd(f) @ line.abcd(f), f, z_ref)
    assert _bits(held.s21(good.resistance, good.inductance)) == _bits(want)
    assert _bits(fresh.s21(good.resistance, good.inductance)) == _bits(want)


def test_a_singular_delta_is_named_as_abcd_to_s_names_it():
    f, z_ref = GRID.points, wave_impedance(0.0, Polarization.TE)
    zero = TwoPortMatrix(*np.zeros((4, f.size), complex))  # Delta = 0 at every frequency
    with pytest.raises(SingularNetworkError) as held:
        HeldKernels(zero, f, z_ref).s21(0.1, 2.85e-9)
    with pytest.raises(SingularNetworkError) as plain:
        abcd_to_s(zero @ abcd_shunt(shunt_rl_admittance(0.1, 2.85e-9, f)), z_ref, reflections=False)
    assert str(held.value) == str(plain.value) == "singular network: a + b/z + c z + d = 0"


def test_a_width_after_the_first_allocates_under_48_bytes_per_point():
    """Every grid-sized array a width needs is held, apart from what
    extract_metrics forms (about 10-12 B per point)."""
    n = 20001
    metrics_at = evaluator(grid=FrequencyGrid(1e9, 5e9, n))
    metrics_at(1.4e-3)
    tracemalloc.start()
    try:
        metrics_at(2.6e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 48


def test_a_width_allocates_under_16_bytes_per_point():
    """Beyond the buffers, a width forms |s21| (8 B per point), a mask and dB
    on its band alone: its curve holds the evaluator's grid unchecked."""
    n = 20001
    metrics_at = evaluator(grid=FrequencyGrid(1e9, 5e9, n))
    metrics_at(1.4e-3)
    for w in (2.6e-3, 0.3e-3):  # a narrow band and the widest of width_design
        tracemalloc.start()
        try:
            metrics_at(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 16


def test_each_width_curve_holds_the_grid_points():
    grid = FrequencyGrid(1e9, 5e9, 2001)
    with mock.patch.object(synthesis, "extract_metrics", wraps=extract_metrics) as spy:
        evaluator(grid=grid)(1.4e-3)
    assert spy.call_args.args[0].freqs is grid.points


def test_ring_and_spacer_are_evaluated_when_the_evaluator_is_made(element_evaluations):
    evaluator()
    assert_ring_and_spacer_once(
        element_evaluations, params_from_geometry(DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, L1, C1))


def test_ring_and_spacer_are_evaluated_once_per_evaluator(element_evaluations):
    metrics_at = evaluator()
    for w_mm in (11.0, 2.2, 0.6, 0.01, 1.4):
        try:
            metrics_at(w_mm * 1e-3)
        except FssError:
            pass
    assert_ring_and_spacer_once(
        element_evaluations, params_from_geometry(DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, L1, C1))


# ---------------------------------------------------------------------------
# the fit's model and its held work

#: a range for each fittable value
RANGES = {"L": (1e-9, 6e-9), "L1": (0.5e-9, 3e-9), "C1": (0.2e-12, 1.2e-12), "R": (0.0, 1.0), "R1": (0.0, 1.0)}
START = {"L": 2.5e-9, "L1": 1.5e-9, "C1": 0.65e-12}


def start_problem(observed, base, mirrored=True, start=START):
    return FitProblem(observed=observed, base=base, free=tuple(start), initial=start,
                      bounds={k: (v / 4, v * 4) for k, v in start.items()}, mirrored=mirrored)


def fit_problem(order, mirrored=True, inc=NORMAL, n=401):
    truth = CircuitParams(L=2.85e-9, L1=L1, C1=C1, order=order, h1=10e-3 if order == 2 else None)
    observed = sweep_response(build_network(truth, mirrored=mirrored), FrequencyGrid(1e9, 5e9, n), inc)
    return start_problem(observed, truth, mirrored)


def plain_model(problem, work=None):
    """fit_model's function with no held work: one network_smatrix of a new ladder per call."""
    observed = problem.observed

    def model(values):
        net = build_network(replace(problem.base, **values), mirrored=problem.mirrored)
        return network_smatrix(net, observed.freqs, observed.incidence, reflections=False)

    return model


@pytest.mark.parametrize("shape", LADDERS.values(), ids=LADDERS)
def test_a_fit_evaluates_each_line_phase_once(shape, element_evaluations):
    order, mirrored = shape
    problem = fit_problem(order, mirrored, TM40)
    element_evaluations.clear()
    with mock.patch.object(builder, "tline_phase", wraps=builder.tline_phase) as phase, \
            mock.patch.object(builder, "abcd_tline", wraps=builder.abcd_tline) as tline, \
            mock.patch.object(synthesis, "network_smatrix", wraps=network_smatrix) as calls:
        result = fit_circuit(problem)
    assert result.converged and calls.call_count > 3
    # the spacer and, in a second-order stack, the air gap, at the one angle of the fit
    assert phase.call_count == order
    # every element of every model call, each line's matrix formed from its held phase
    assert tline.call_count == 0
    assert len(element_evaluations) == calls.call_count * (3 if order == 1 else 7)


circuits = st.fixed_dictionaries({
    "L": st.floats(*RANGES["L"]),
    "L1": st.floats(*RANGES["L1"]),
    "C1": st.floats(*RANGES["C1"]),
    "R": st.sampled_from([0.0, 0.1]),
    "R1": st.sampled_from([0.0, 0.1]),
    "h": st.sampled_from([0.0, 0.254e-3]) | st.floats(1e-5, 2e-3),
    "eps_r": st.floats(0.2, 12.0),  # under 1, the larger angles are evanescent
    "loss_tangent": st.sampled_from([0.0, 0.0009]) | st.floats(0.0, 0.05),
    "order": st.sampled_from([1, 2]),
    "h1": st.floats(0.0, 20e-3),
})
incidences = st.builds(IncidenceCondition, st.sampled_from([0.0, 0.3, 0.7, 1.2, 1.5]), st.sampled_from(Polarization))


#: model calls: (rows, fractions), with rows = 0 for floats; value i of a
#: fittable name j lies fractions[5 i + j] of the way across its range
calls = st.lists(st.tuples(st.integers(0, 7), st.lists(st.floats(0.0, 1.0), min_size=35, max_size=35)),
                 min_size=1, max_size=4)


def call_values(free, rows, fractions):
    frac = np.reshape(fractions, (7, 5))[:max(rows, 1)]
    values = {}
    for name in free:
        lo, hi = RANGES[name]
        x = lo + frac[:, FITTABLE.index(name)] * (hi - lo)
        values[name] = x[:, None] if rows else float(x[0])
    return values


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=150, deadline=None)
@given(circuit=circuits, mirrored=st.booleans(), inc=incidences, n=st.integers(2, 40),
       free=st.lists(st.sampled_from(FITTABLE), min_size=1, unique=True), calls=calls)
@example(circuit=dict(L=2.85e-9, L1=L1, C1=C1, R=0.1, R1=0.0, h=0.0, eps_r=2.2, loss_tangent=0.0,
                      order=2, h1=10e-3),
         mirrored=False, inc=IncidenceCondition(0.7, Polarization.TE), n=11, free=["L", "R1", "C1"],
         calls=[(7, [0.5] * 35), (0, [0.1] * 35), (3, [0.9] * 35), (7, [0.2] * 35)])
@example(circuit=dict(L=2.85e-9, L1=L1, C1=C1, R=0.1, R1=0.1, h=0.254e-3, eps_r=0.3, loss_tangent=0.0009,
                      order=2, h1=10e-3),
         mirrored=True, inc=IncidenceCondition(0.7, Polarization.TM), n=11, free=["L1"],
         calls=[(3, [0.5] * 35), (0, [0.5] * 35)])
def test_the_fit_model_has_the_bits_and_first_error_of_network_smatrix(circuit, mirrored, inc, n, free, calls):
    if circuit["order"] == 1:
        circuit = {**circuit, "h1": None}
    base = CircuitParams(**circuit)
    f = FrequencyGrid(1e9, 5e9, n).points
    observed = ResponseCurve(freqs=f, s11=None, s21=np.ones(n, complex), incidence=inc)
    problem = FitProblem(observed=observed, base=base, free=tuple(free), initial={k: RANGES[k][1] for k in free},
                         bounds={k: RANGES[k] for k in free}, mirrored=mirrored)
    held, plain = fit_model(problem), plain_model(problem)
    # several calls on one model, with floats or (rows, 1) columns
    for rows, fractions in calls:
        values = call_values(free, rows, fractions)
        assert outcome(lambda: held(values).s21) == outcome(lambda: plain(values).s21)


@pytest.fixture(scope="module")
def oblique_files(tmp_path_factory):
    """Annotated .s2p files of a second-order stack at 30 and 55 degrees, TE and TM."""
    out = tmp_path_factory.mktemp("oblique")
    doc = {"mode": "simulate", "circuit": {"order": 2, "l_nh": 2.85, "h1_mm": 10.0},
           "grid": {"f_start_ghz": 1.0, "f_stop_ghz": 5.0, "n_points": 401},
           "incidence": {"theta_deg": [30, 55], "pol": ["TE", "TM"]},
           "output": {"csv": "", "touchstone": "obs.s2p"}}
    cli.run(cli.parse_config(json.dumps(doc)), out_dir=out)
    return sorted(out.glob("obs_*.s2p"))


def recorded(make_model, seen):
    """make_model with the s21 bits of each call appended to seen."""
    def fit_model(problem, work=None):
        model = make_model(problem, work)

        def call(values):
            s = model(values)
            seen.append(_bits(s.s21))
            return s

        return call

    return fit_model


@settings(max_examples=12, deadline=None)
@given(index=st.integers(0, 3), mirrored=st.booleans(),
       free=st.sampled_from([("L", "L1", "C1"), ("L", "C1"), ("L1", "R"), ("C1", "R1")]),
       scale=st.floats(0.8, 1.25))
def test_a_fit_at_oblique_incidence_from_a_file_has_the_bits_of_plain_model_calls(
        oblique_files, index, mirrored, free, scale):
    observed = read_touchstone(oblique_files[index])
    assert observed.incidence.theta > 0
    base = CircuitParams(L=2.85e-9, L1=L1, C1=C1, order=2, h1=10e-3)
    start = {name: getattr(base, name) * scale if name in START else 0.3 for name in free}
    problem = start_problem(observed, base, mirrored, start)
    held_calls, plain_calls = [], []
    with mock.patch.object(synthesis, "fit_model", recorded(fit_model, held_calls)):
        held = fit_circuit(problem)
    with mock.patch.object(synthesis, "fit_model", recorded(plain_model, plain_calls)):
        plain = fit_circuit(problem)
    assert held == plain
    assert held_calls == plain_calls and len(held_calls) > 2


def test_a_model_call_after_the_first_allocates_under_160_kib():
    """A call forms every (k, nf) array in held arrays; at 401 points and 7
    rows, about 670 KiB while each call made its own.  What remains is its
    three line matrices ((nf,) arrays, about 40 KiB) and the buffers numpy's
    iterator makes for a broadcast operand (45 KiB each, two at once)."""
    problem = fit_problem(2, True, TM40, n=401)
    model = fit_model(problem)
    col = np.linspace(0.97, 1.03, 7)[:, None]
    model({name: value * col for name, value in START.items()})
    for scale in (1.0, 1.01, 0.99):
        values = {name: value * scale * col for name, value in START.items()}
        tracemalloc.start()
        try:
            model(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 160 * 1024


def test_a_fit_after_a_fit_takes_up_its_arrays():
    """fit_circuit hands its held arrays on when it ends and the next fit takes
    them up, so it makes none of the eleven (7, 401) arrays (484 KiB) again,
    and what they held does not change its result."""
    problem = fit_problem(2, True, TM40)
    first = fit_circuit(problem)
    tracemalloc.start()
    try:
        again = fit_circuit(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == first
    assert peak < 320 * 1024
