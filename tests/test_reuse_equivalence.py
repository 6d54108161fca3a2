"""Results held within a sweep or across a width loop, against plain evaluation.

sweep_response forms an element object that its ladder holds more than
once, as the mirrored second-order stack does, only once.  The strip-width
loop of sweep-w and width_for_bandwidth, synthesis.width_evaluator, takes
the ring and spacer product and its b/z from what the process holds per
grid (twoport.held) and, per width, evaluates its grid branch through a
HeldWork and writes the split kernels (TwoPortMatrix.shunt_right,
abcd_delta) into the work's two scratch arrays.  A fit's model,
synthesis.fit_model, holds a HeldWork across its calls: each line's
matrix, formed at the first call, each shunt branch's matrix, formed once
per call, and the arrays that every call's admittances, products and s21
are formed in.  jw and each line's phase are the ones that the process
holds for the grid, within its byte budget.  Across loops, sweep-w,
width_for_bandwidth and fit_circuit hand their arrays on when they end,
also when they raise, and the next loop takes them up.  These tests check
the width loop's and the fit's held results and a sweep's, bit for bit,
against leaf_s: each element formed afresh by the public leaf kernels, not
by the HeldWork that every ladder is evaluated through, with the general
chain product and abcd_to_s's formulas written out.  A held condition is
checked against network_smatrix with no held arrays.  Fits and sweeps run
in turn, on arrays the other handed on, are checked against fresh ones.
They also count the element and kernel evaluations, check that nothing held
goes stale or is overwritten while it is held, bound what a width, a
model call, an evaluator after a released one and a fit after fits
allocate, and pin the bytes that the width loops leave in the spares and in
the held values.  The held values are checked against cold runs: a second
run of a config forms no phase, a grid one ulp apart and a length of -0.0
are held apart, every held array is read-only and aligned, and any
sequence of sweeps, .s2p writes, width evaluators and fits on grids, lines
and conditions keeps the bits of a cold run within the budget.
"""

import contextlib
import functools
import json
import math
import tracemalloc
from pathlib import Path
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsskit import builder, cli, synthesis, twoport
from fsskit.analysis import FrequencyGrid, ResponseCurve, extract_metrics, network_smatrix, sweep_response
from fsskit.builder import (
    DEFAULT_CALIBRATION,
    DEFAULT_GEOMETRY,
    CalibrationConstants,
    CircuitParams,
    HeldWork,
    LineSegment,
    ShuntBranch,
    build_network,
    params_from_geometry,
)
from fsskit.errors import DomainError, FssError, OneSidedBandError, SingularNetworkError
from fsskit.synthesis import FITTABLE, FitProblem, fit_circuit, fit_model, width_evaluator, width_for_bandwidth
from fsskit.touchstone import read_touchstone, write_touchstone
from fsskit.twoport import (
    NORMAL,
    IncidenceCondition,
    Polarization,
    SMatrix,
    TwoPortMatrix,
    abcd_delta,
    abcd_shunt,
    abcd_tline,
    abcd_to_s,
    j_omega,
    rl_admittance,
    shunt_rl_admittance,
    shunt_series_rlc_admittance,
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


@contextlib.contextmanager
def kernel_calls(*names):
    """Spies on the builder's kernels of the given names, in that order."""
    with contextlib.ExitStack() as stack:
        yield [stack.enter_context(mock.patch.object(builder, name, wraps=getattr(builder, name)))
               for name in names]


@pytest.mark.parametrize("inc", [NORMAL, TM40])
@pytest.mark.parametrize("shape", LADDERS.values(), ids=LADDERS)
def test_sweep_evaluates_each_distinct_element_once(shape, inc, element_evaluations, fresh_phases):
    order, mirrored = shape
    p = CircuitParams(L=2.85e-9, L1=L1, C1=C1, order=order, h1=10e-3 if order == 2 else None)
    net = build_network(p, mirrored=mirrored)
    with kernel_calls("rlc_admittance", "rl_admittance", "tline_phase", "tline_matrix") as spies:
        curve = sweep_response(net, GRID, inc)
    # every element's abcd in ladder order; a second-order stack holds 7
    # elements, 4 of them distinct, and the kernels form each distinct one once
    assert list(map(id, element_evaluations)) == list(map(id, net.elements))
    assert [spy.call_count for spy in spies] == [1, 1, order, order]
    for name, want in zip(("s11", "s21", "s22"), leaf_s(net, GRID.points, inc)):
        assert _bits(getattr(curve, name)) == _bits(want), name


def grid_branch(w, geometry=DEFAULT_GEOMETRY, cal=DEFAULT_CALIBRATION, l1=L1, c1=C1):
    """The grid branch of the cell at strip width w (m)."""
    return build_network(params_from_geometry(replace(geometry, strip_width=w), cal, l1, c1)).elements[2]


def assert_ring_and_spacer_once(calls, params, branches):
    """The ring and the spacer, once per process and grid, then one grid branch per width."""
    ring, line, _ = build_network(params).elements
    assert calls == [ring, line, *branches]


def test_sweep_w_rows_match_plain_evaluation(tmp_path, element_evaluations, fresh_phases):
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

    # the ring and the spacer, then the grid branch of each width inside the cell, in sweep order
    branches = [grid_branch(w_mm * 1e-3, cfg.geometry, cfg.calibration, cfg.ring_l1, cfg.ring_c1)
                for w_mm in sorted(widths) if 0 < w_mm < 10.2]
    assert_ring_and_spacer_once(element_evaluations, params_from_geometry(
        cfg.geometry, cfg.calibration, cfg.ring_l1, cfg.ring_c1), branches)
    element_evaluations.clear()
    assert cli.run(cfg, out_dir=tmp_path) == summary
    assert element_evaluations == branches  # the ring and the spacer are held for the grid

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


def test_width_for_bandwidth_matches_plain_evaluation(element_evaluations, fresh_phases):
    l1 = 1.0 / ((2 * math.pi * 5.1207263563633e9) ** 2 * C1)  # the shipped synthesize target
    with mock.patch.object(synthesis, "grid_resistance", wraps=builder.grid_resistance) as spy:
        w = width_for_bandwidth(0.25, DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, l1, C1, (0.3e-3, 3.0e-3))
    assert 0.3e-3 < w < 3.0e-3
    # the ring and the spacer, then the grid branch of each width the search tried, none twice
    widths = [call.args[0] for call in spy.call_args_list]
    assert len(widths) > 2 and len(set(widths)) == len(widths) and w in widths
    assert_ring_and_spacer_once(element_evaluations, params_from_geometry(DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, l1, C1),
                                [grid_branch(x, l1=l1) for x in widths])


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


def leaf_matrix(el, f, inc):
    """An element's chain matrix from the public leaf kernels, not through HeldWork."""
    if isinstance(el, LineSegment):
        return abcd_tline(el.eps_r, el.length, f, inc, loss_tangent=el.loss_tangent)
    r, l, c = el.resistance, el.inductance, el.capacitance
    return abcd_shunt(shunt_rl_admittance(r, l, f) if c is None else shunt_series_rlc_admittance(r, l, c, f))


def general_product(m, n):
    return TwoPortMatrix(a=m.a * n.a + m.b * n.c, b=m.a * n.b + m.b * n.d,
                         c=m.c * n.a + m.d * n.c, d=m.c * n.b + m.d * n.d)


def leaf_s(net, f, inc):
    """The ladder's (s11, s21, s22) from its leaf_matrix elements, the general chain
    product and abcd_to_s's formulas written out, with its error at Delta = 0."""
    z = wave_impedance(inc.theta, inc.polarization)
    m = functools.reduce(general_product, [leaf_matrix(el, f, inc) for el in net.elements])
    delta = m.a + m.b / z + m.c * z + m.d
    if np.any(delta == 0):
        raise SingularNetworkError("singular network: a + b/z + c z + d = 0")
    return (m.a + m.b / z - m.c * z - m.d) / delta, 2.0 / delta, (-m.a + m.b / z - m.c * z + m.d) / delta


def leaf_s21(net, f, inc):
    return leaf_s(net, f, inc)[1]


def plain_s21(params, grid, inc):
    return leaf_s21(build_network(params), grid.points, inc)


def evaluator(cal=DEFAULT_CALIBRATION, grid=GRID, inc=NORMAL, work=None):
    """width_evaluator through work, or through a new HeldWork on grid that is never released."""
    return width_evaluator(DEFAULT_GEOMETRY, cal, L1, C1, grid, inc, HeldWork(grid.points) if work is None else work)


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


def test_ring_and_spacer_are_evaluated_when_the_evaluator_is_made(element_evaluations, fresh_phases):
    evaluator()
    evaluator()
    assert_ring_and_spacer_once(
        element_evaluations, params_from_geometry(DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, L1, C1), [])


def test_ring_and_spacer_are_evaluated_once_per_process_and_grid(element_evaluations, fresh_phases):
    """A width outside the cell raises before its branch is formed; one whose
    band is one-sided raises after it."""
    widths = (11.0, 2.2, 0.6, 0.01, 1.4)
    for _ in range(2):
        metrics_at = evaluator()
        for w_mm in widths:
            try:
                metrics_at(w_mm * 1e-3)
            except FssError:
                pass
    branches = [grid_branch(w_mm * 1e-3) for w_mm in widths[1:]]
    assert_ring_and_spacer_once(
        element_evaluations, params_from_geometry(DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, L1, C1), branches * 2)


@pytest.mark.parametrize("w", [0.0, -1e-3, DEFAULT_GEOMETRY.period, math.nan, math.inf, -math.inf])
def test_a_width_outside_the_cell_raises_the_error_of_geometry_params(w):
    with pytest.raises(DomainError) as raised:
        evaluator()(w)
    assert str(raised.value) == "strip width must satisfy 0 < w < period"


def test_a_width_whose_grid_inductance_rounds_to_0_raises_the_error_of_circuit_params():
    w = math.nextafter(DEFAULT_GEOMETRY.period, 0.0)
    assert builder.grid_inductance(w, DEFAULT_GEOMETRY.period, DEFAULT_CALIBRATION.l_scale) == 0.0
    with pytest.raises(DomainError) as raised:
        evaluator()(w)
    assert str(raised.value) == "L, L1 and C1 must be positive"


def test_a_width_inside_the_cell_builds_no_records():
    """Each width takes L and R from grid_inductance and grid_resistance; the
    evaluator builds its circuit values once, at geometry's own width."""
    with mock.patch.object(synthesis, "params_from_geometry", wraps=params_from_geometry) as records:
        metrics_at = evaluator()
        for w in WIDTHS:
            metrics_at(w)
    assert records.call_count == 1


# ---------------------------------------------------------------------------
# the width loop's arrays across loops


@pytest.fixture
def fresh_spares(monkeypatch):
    """No array handed on yet, and no set released: what earlier tests left does not count."""
    monkeypatch.setattr(twoport, "_SPARES", {})
    monkeypatch.setattr(twoport.HeldArrays, "largest", 0, raising=False)
    return twoport._SPARES


WIDTHS = (2.2e-3, 0.6e-3, 1.4e-3)


def released_sweep(grid, widths=WIDTHS, inc=NORMAL):
    """evaluated_s21 at each width of an evaluator whose work is released at the end, as sweep-w does."""
    work = HeldWork(grid.points)
    try:
        metrics_at = evaluator(grid=grid, inc=inc, work=work)
        return [evaluated_s21(metrics_at, w) for w in widths]
    finally:
        work.arrays.release()


def assert_same_results(got, want):
    for (m, s21), (m_want, s21_want) in zip(got, want, strict=True):
        assert m == m_want and _bits(s21) == _bits(s21_want)


def shipped_width_for_bandwidth(fbw=0.25):
    l1 = 1.0 / ((2 * math.pi * 5.1207263563633e9) ** 2 * C1)  # the shipped synthesize target
    return width_for_bandwidth(fbw, DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, l1, C1, (0.3e-3, 3.0e-3))


@pytest.mark.parametrize("between", ["nothing", "width_for_bandwidth"])
def test_an_evaluator_after_a_released_one_makes_no_grid_sized_array(fresh_spares, between):
    """The second loop takes up the two scratch arrays that the first handed
    on, also after a width_for_bandwidth on its own 2001-point grid, and
    takes the ring and spacer product from what the process holds; what is
    left is extract_metrics."""
    n = 20001
    grid = FrequencyGrid(1e9, 5e9, n)
    first = released_sweep(grid)
    if between == "width_for_bandwidth":
        shipped_width_for_bandwidth()
    tracemalloc.start()
    try:
        again = released_sweep(grid, WIDTHS[:1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same_results(again, first[:1])
    assert peak / n < 40


def test_width_loops_leave_one_set_of_each_grid_in_the_spares(fresh_spares, fresh_phases):
    """sweep-w and width_for_bandwidth in turn, as width_design runs them: the
    spares keep the two scratch arrays of each grid (0.7 MB), inside twice
    the 20001-point set, and the process holds on each grid (twoport.held)
    a copy of the grid, the spacer's (cosh, sinh), jw and the ring-spacer
    product's (a, b, c, d, b/z) (2.6 MB), however often the loops run.  The
    product's a is the spacer's held cosh, so it counts once."""
    n = 20001
    grid = FrequencyGrid(1e9, 5e9, n)
    for _ in range(3):
        released_sweep(grid, WIDTHS[:1])
        shipped_width_for_bandwidth()
        shipped_width_for_bandwidth()
        assert twoport.HeldArrays.largest == 2 * n * 16
        assert {shape: len(spares) for shape, spares in fresh_spares.items()} == {(n,): 2, (2001,): 2}
        spares = sum(x.nbytes for spares in fresh_spares.values() for x in spares)
        assert spares == 2 * (n + 2001) * 16
        assert {shape: len(values) for shape, (_, values) in fresh_phases.items()} == {(n,): 3, (2001,): 3}
        assert twoport.held_bytes() == (8 + 2 * 16 + 16 + 4 * 16) * (n + 2001)
        assert spares + twoport.held_bytes() == 3_344_304


def test_a_fit_of_one_value_between_fits_of_three_leaves_their_arrays(fresh_spares):
    """The (2, 401) set of the one-value fit is handed on beside the (4, 401)
    set, so the next three-value fit makes none of its arrays again (about
    420 KiB while release kept one set alone)."""
    problem = fit_problem(2, True, TM40)
    one = start_problem(problem.observed, problem.base, start={"C1": START["C1"]})
    first = fit_circuit(problem)
    fit_circuit(one)
    tracemalloc.start()
    try:
        again = fit_circuit(problem)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert again == first
    assert peak < 320 * 1024


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_fit_that_raises_hands_its_arrays_on(fresh_spares):
    problem = fit_problem(2, True, TM40)
    fit_circuit(problem)
    counts = {shape: len(spares) for shape, spares in fresh_spares.items()}
    # 1/(jw C1) overflows, so the start's admittance is not finite
    bad = replace(problem, initial={**problem.initial, "C1": 1e-320}, bounds={**problem.bounds, "C1": (1e-321, 4 * C1)})
    with pytest.raises(DomainError, match="^shunt admittance must be finite$"):
        fit_circuit(bad)
    assert {shape: len(spares) for shape, spares in fresh_spares.items()} == counts


@pytest.mark.parametrize("order", [("fit", "sweep", "fit"), ("sweep", "fit", "sweep")], ids="/".join)
def test_fits_and_sweeps_in_turn_have_the_bits_of_fresh_ones(fresh_spares, order):
    """The sweep's grid has the fit's 401 points, so each loop takes up the
    (401,) arrays that the other handed on."""
    problem = fit_problem(2, True, TM40)
    grid = FrequencyGrid(1e9, 5e9, 401)
    assert grid.points.shape == problem.observed.freqs.shape
    want = {"fit": fit_circuit(problem)}
    fresh_spares.clear()
    want["sweep"] = released_sweep(grid, inc=TM40)
    fresh_spares.clear()
    for step in order:
        if step == "fit":
            assert fit_circuit(problem) == want["fit"]
        else:
            assert_same_results(released_sweep(grid, inc=TM40), want["sweep"])
    assert fresh_spares[grid.points.shape]


def test_no_start_of_an_evaluators_work_frees_what_it_holds():
    grid = FrequencyGrid(1e9, 5e9, 2001)
    want = [evaluated_s21(evaluator(grid=grid), w) for w in WIDTHS]
    work = HeldWork(grid.points)
    metrics_at = evaluator(grid=grid, work=work)
    evaluated_s21(metrics_at, WIDTHS[0])
    # every array of the grid's shape that a start frees, then new ones, overwritten
    work.start(grid.points.shape)
    for _ in range(16):
        work.arrays.take().fill(np.nan)
    assert_same_results([evaluated_s21(metrics_at, w) for w in WIDTHS], want)


def test_no_call_of_a_fit_model_frees_its_lines_arrays():
    """A call with float values has the (nf,) shape of the lines' arrays,
    which stay held across it."""
    problem = fit_problem(2, True, TM40)
    work = HeldWork(problem.observed.freqs)
    held, plain = fit_model(problem, work), plain_model(problem)
    for scale in (1.0, 1.01, 0.99):
        values = {name: value * scale for name, value in START.items()}
        assert _bits(held(values).s21) == _bits(plain(values).s21)
        for _ in range(16):  # what the next call's start frees, then new ones
            work.arrays.take().fill(np.nan)


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
    """fit_model's function with no held work: the leaf_s21 of a new ladder per call."""
    f, inc = problem.observed.freqs, problem.observed.incidence

    def model(values):
        s21 = leaf_s21(build_network(replace(problem.base, **values), mirrored=problem.mirrored), f, inc)
        return SMatrix(s11=None, s21=s21, s12=s21, s22=None, z_ref=wave_impedance(inc.theta, inc.polarization))

    return model


@pytest.mark.parametrize("shape", LADDERS.values(), ids=LADDERS)
def test_a_fit_evaluates_each_line_phase_once(shape, element_evaluations, fresh_phases):
    order, mirrored = shape
    problem = fit_problem(order, mirrored, TM40)
    element_evaluations.clear()
    fresh_phases.clear()  # the sweep of the observed curve held its phases
    with mock.patch.object(builder, "tline_phase", wraps=builder.tline_phase) as phase, \
            mock.patch.object(twoport, "abcd_tline", wraps=twoport.abcd_tline) as tline, \
            mock.patch.object(synthesis, "network_smatrix", wraps=network_smatrix) as calls:
        result = fit_circuit(problem)
    assert result.converged and calls.call_count > 3
    # the spacer and, in a second-order stack, the air gap, at the one angle of the fit
    assert phase.call_count == order
    # every element of every model call, each line's matrix formed from its held phase
    assert tline.call_count == 0
    assert len(element_evaluations) == calls.call_count * (3 if order == 1 else 7)


@pytest.mark.parametrize("shape", LADDERS.values(), ids=LADDERS)
def test_a_fit_forms_each_shunt_branch_once_per_call_and_each_line_once(shape, element_evaluations):
    order, mirrored = shape
    problem = fit_problem(order, mirrored, TM40)
    element_evaluations.clear()
    with kernel_calls("rlc_admittance", "rl_admittance", "tline_matrix") as (rlc, rl, matrix), \
            mock.patch.object(synthesis, "network_smatrix", wraps=network_smatrix) as calls:
        result = fit_circuit(problem)
    assert result.converged and calls.call_count > 3
    # a second-order stack holds its ring and its grid twice, mirrored or not
    assert rlc.call_count == rl.call_count == calls.call_count
    assert matrix.call_count == order
    assert len(element_evaluations) == calls.call_count * (3 if order == 1 else 7)


def test_a_held_matrix_is_never_given_back_to_the_arrays():
    problem = fit_problem(2, True, TM40)
    f, inc = problem.observed.freqs, problem.observed.incidence
    work = HeldWork(f)
    col = np.linspace(0.97, 1.03, 7)[:, None]
    for scale in (1.0, 1.01, 0.99):
        net = build_network(replace(problem.base, **{k: v * scale * col for k, v in START.items()}))
        work.start((7, f.size))
        s21 = network_smatrix(net, f, inc, reflections=False, work=work).s21
        held = [el.abcd(f, inc, work) for el in net.elements]
        assert all(m is el.abcd(f, inc, work) for m, el in zip(held, net.elements))
        # more arrays than a call takes: every free one, then new ones
        drawn = [work.arrays.take() for _ in range(16)]
        entries = [x for m in held for x in (m.a, m.b, m.c, m.d) if isinstance(x, np.ndarray)]
        assert not any(x is y for x in drawn for y in entries + [s21])
        assert _bits(s21) == _bits(leaf_s21(net, f, inc))


@pytest.mark.parametrize("inc", [NORMAL, TM40])
def test_a_new_held_work_with_arrays_serves_a_network_smatrix_call(inc):
    """A HeldWork with arrays is started on f's shape when it is made."""
    net = build_network(CircuitParams(L=2.85e-9, L1=L1, C1=C1, order=2, h1=10e-3))
    got = network_smatrix(net, GRID.points, inc, work=HeldWork(GRID.points))
    want = network_smatrix(net, GRID.points, inc)
    assert [_bits(x) for x in (got.s11, got.s21, got.s22)] == [_bits(x) for x in (want.s11, want.s21, want.s22)]
    assert _bits(got.s21) == _bits(leaf_s21(net, GRID.points, inc))


def test_a_call_that_raises_mid_ladder_leaves_the_next_call_plain():
    problem = fit_problem(2, True, TM40)
    held, plain = fit_model(problem, HeldWork(problem.observed.freqs)), plain_model(problem)
    col = np.linspace(0.97, 1.03, 7)[:, None]
    good = {name: value * col for name, value in START.items()}
    held(good)
    # the ring and the spacer are formed, then the grid's admittance is not finite
    bad = {**good, "L": np.where(col == col[3], np.inf, good["L"])}
    with np.errstate(invalid="ignore"), pytest.raises(DomainError, match="shunt admittance must be finite"):
        held(bad)
    for values in (good, {name: value * 1.01 for name, value in good.items()}):
        assert _bits(held(values).s21) == _bits(plain(values).s21)


def test_a_second_condition_forms_its_line_matrices_again(fresh_phases):
    net = build_network(CircuitParams(L=2.85e-9, L1=L1, C1=C1, order=2, h1=10e-3))
    f = GRID.points
    work = HeldWork(f)
    te40 = IncidenceCondition(TM40.theta, Polarization.TE)
    conditions = (TM40, TM40, te40, NORMAL, TM40)
    # a plain call forms its lines too, so the references are formed, and their
    # phases dropped, before counting
    want = [_bits(network_smatrix(net, f, inc, reflections=False).s21) for inc in conditions]
    fresh_phases.clear()
    with kernel_calls("tline_phase", "tline_matrix") as (phase, matrix):
        for inc, bits in zip(conditions, want):
            work.start(f.shape)
            s21 = network_smatrix(net, f, inc, reflections=False, work=work).s21
            assert _bits(s21) == bits
    # spacer and air gap: a phase per angle, and a matrix at each change of condition
    assert (phase.call_count, matrix.call_count) == (2 * 2, 2 * 4)


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
    held, plain = fit_model(problem, HeldWork(problem.observed.freqs)), plain_model(problem)
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
    def fit_model(problem, work):
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


def test_a_model_call_after_the_first_allocates_under_112_kib():
    """A call forms every (k, nf) array in held arrays, and its line matrices
    are held from the first call; at 401 points and 7 rows, about 670 KiB
    while each call made its own, and about 137 KiB while each call formed
    its three line matrices.  What remains, about 98 KiB, is mostly the
    buffers numpy's iterator makes for a broadcast operand (45 KiB each, two
    at once)."""
    problem = fit_problem(2, True, TM40, n=401)
    model = fit_model(problem, HeldWork(problem.observed.freqs))
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
        assert peak < 112 * 1024


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



# ---------------------------------------------------------------------------
# the values that the process holds per grid (twoport.held)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.mark.parametrize("config", ["width_sweep.json", "oblique_study.json"])
def test_a_second_run_of_a_config_forms_no_phase_and_writes_the_same_bytes(tmp_path, fresh_phases, config):
    cfg = cli.parse_config((CONFIGS / config).read_text())
    first = cli.run(cfg, tmp_path / "first")
    with kernel_calls("tline_phase") as (phase,):
        again = cli.run(cfg, tmp_path / "again")
    assert phase.call_count == 0 and fresh_phases
    assert json.dumps(again).replace("again", "first") == json.dumps(first)
    names = sorted(path.name for path in (tmp_path / "first").iterdir())
    assert names and names == sorted(path.name for path in (tmp_path / "again").iterdir())
    for name in names:
        assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "first" / name).read_bytes()


def test_a_grid_one_ulp_apart_forms_its_phases_again(fresh_phases):
    net = build_network(CircuitParams(L=2.85e-9, L1=L1, C1=C1, order=2, h1=10e-3))
    f = GRID.points
    nudged = f.copy()
    nudged[1000] = np.nextafter(nudged[1000], np.inf)
    with kernel_calls("tline_phase") as (phase,):
        counts = []
        for grid in (f, f, nudged, nudged, f):
            assert _bits(network_smatrix(net, grid, TM40).s21) == _bits(leaf_s21(net, grid, TM40))
            counts.append(phase.call_count)
    # spacer and air gap; one grid of a shape is held, so the first comes back anew
    assert counts == [2, 2, 4, 4, 6]
    held_grid, values = fresh_phases[f.shape]
    assert _bits(held_grid) == _bits(f) and len(values) == 3  # the two phases and jw


def test_every_held_array_is_read_only_aligned_and_apart_from_the_spares(tmp_path, fresh_spares, fresh_phases):
    released_sweep(GRID)
    fit_circuit(fit_problem(2, True, TM40))
    curve = sweep_response(ladder_at(2.6), GRID, TM40)
    write_touchstone(curve, tmp_path / "c.s2p")
    values = [value for _, held in fresh_phases.values() for value in held.values()]
    held = [x for value in values for x in value if isinstance(x, np.ndarray)]
    # on GRID: the spacer at 0 and 40 degrees, jw, the width loop's product and
    # the frequency words; on the fit's grid: spacer and air gap at 40 degrees, jw
    assert len(values) == 5 + 3 and len(held) == 2 * 2 + 1 + 5 + 1 + 2 * 2 + 1
    for x in held:
        assert x.ctypes.data % 64 == 0 and x.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            x[0] = 0
    spares = [y for ys in fresh_spares.values() for y in ys]
    assert spares and not any(np.shares_memory(x, y) for x in held for y in spares)


def test_a_line_of_length_minus_0_after_one_of_0_has_the_bits_of_a_cold_run(fresh_phases):
    def run(h):
        net = build_network(CircuitParams(L=2.85e-9, L1=L1, C1=C1, h=h))
        s = network_smatrix(net, GRID.points, TM40)
        phase = builder.line_phase(net.elements[1], GRID.points, TM40.theta)
        return [_bits(x) for x in (s.s11, s.s21, s.s22, *phase[:2])]

    cold = run(-0.0)
    fresh_phases.clear()
    zero = run(0.0)
    assert run(-0.0) == cold
    assert zero[3:] != cold[3:]  # sinh keeps the sign of a zero phase, so the two are held apart


#: (start, stop, points) of a grid, and whether one point of it is one ulp higher
phase_grids = st.tuples(st.sampled_from([(1e9, 5e9, 11), (2e9, 3e9, 11), (1e9, 5e9, 41), (1e9, 5e9, 401)]),
                        st.booleans())
phase_lines = st.tuples(st.sampled_from([0.5, 1.0, 2.2]), st.sampled_from([0.0, -0.0, 0.254e-3, 2e-3]),
                        st.sampled_from([0.0, 0.0009]))
#: what a step runs on its grid: a sweep of the ladder, a .s2p file of it,
#: a width of an evaluator (lossy or lossless grid) or a fit of L to it
held_steps = st.sampled_from(["sweep", "s2p", "width", "width-lossless", "fit"])


@pytest.fixture(scope="module")
def held_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("held")


def held_step(step, net, grid, inc, out):
    """The outcome of one step: the bits, bytes or fit it forms, or its FssError."""
    f = grid.points
    try:
        if step == "sweep":
            return _bits(network_smatrix(net, f, inc, reflections=False).s21)
        if step == "s2p":
            s11, s21, s22 = leaf_s(net, f, inc)
            write_touchstone(ResponseCurve(freqs=f, s11=s11, s21=s21, s22=s22, incidence=inc), out)
            return out.read_bytes()
        if step.startswith("width"):
            work = HeldWork(f)
            try:
                result, s21 = evaluated_s21(evaluator(LOSSLESS if step == "width-lossless" else DEFAULT_CALIBRATION,
                                                      grid, inc, work), 1.4e-3)
            finally:
                work.arrays.release()
            return (type(result), str(result)) if s21 is None else _bits(s21)
        observed = ResponseCurve(freqs=f, s11=None, s21=np.abs(leaf_s21(net, f, inc)) + 0j, incidence=inc)
        return fit_circuit(FitProblem(observed=observed, base=replace(net_params(net), L=3e-9), free=("L",),
                                      initial={"L": 3e-9}, bounds={"L": (1e-9, 6e-9)}, mirrored=True))
    except FssError as exc:
        return type(exc), str(exc)


def net_params(net):
    ring, line, grid, gap = net.elements[:4]
    return CircuitParams(L=grid.inductance, L1=ring.inductance, C1=ring.capacitance, R=grid.resistance,
                         R1=ring.resistance, h=line.length, eps_r=line.eps_r, loss_tangent=line.loss_tangent,
                         order=2, h1=gap.length)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=80, deadline=None)
@given(steps=st.lists(st.tuples(phase_grids, phase_lines, incidences, held_steps), min_size=1, max_size=12),
       budget=st.sampled_from([0, 2_000, 30_000, twoport.HELD_BUDGET]))
def test_held_phases_stay_within_their_budget_and_keep_every_bit(held_dir, steps, budget):
    """Sequences of sweeps, .s2p writes, width evaluators and fits on grids
    (one ulp nudges included), lines and conditions, an eps_r of 0.5
    evanescent at the larger angles: every outcome is that of a cold run
    with nothing held, every sweep's that of the leaf-kernel reference, and
    the held values never take more than the budget."""
    with mock.patch.object(twoport, "_HELD", {}), mock.patch.object(twoport, "HELD_BUDGET", budget):
        for ((start, stop, n), nudged), (eps_r, h, loss_tangent), inc, step in steps:
            grid = FrequencyGrid(start, stop, n)
            if nudged:
                f = grid.points.copy()
                f[n // 2] = np.nextafter(f[n // 2], np.inf)
                f.flags.writeable = False
                object.__setattr__(grid, "points", f)
            net = build_network(CircuitParams(L=2.85e-9, L1=L1, C1=C1, h=h, eps_r=eps_r,
                                              loss_tangent=loss_tangent, order=2, h1=10e-3))
            got = held_step(step, net, grid, inc, held_dir / "held.s2p")
            with mock.patch.object(twoport, "_HELD", {}):
                cold = held_step(step, net, grid, inc, held_dir / "cold.s2p")
            assert got == cold
            if step == "sweep":
                assert got == outcome(lambda: leaf_s21(net, grid.points, inc))
            assert twoport.held_bytes() <= budget
