"""Element reuse across the ladders of a strip-width loop, against plain evaluation.

sweep-w and width_for_bandwidth evaluate widths through
synthesis.width_evaluator, which passes one mapping from element to its
chain matrix to every sweep of its loop, so the ring branch and the spacer,
which do not depend on the strip width, are evaluated once, and so is
their chain product.  These tests check every reused result against a
sweep that evaluates each element afresh, bit for bit, and check what the
mapping holds afterwards.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from fsskit import cli, synthesis
from fsskit.analysis import FrequencyGrid, extract_metrics, network_smatrix, sweep_response
from fsskit.builder import (
    DEFAULT_CALIBRATION,
    DEFAULT_GEOMETRY,
    CircuitParams,
    LayeredNetwork,
    LineSegment,
    build_network,
    params_from_geometry,
)
from fsskit.errors import DomainError, EvanescentModeError, FssError
from fsskit.synthesis import width_for_bandwidth
from fsskit.twoport import NORMAL, IncidenceCondition, Polarization

L1, C1 = 1.61e-9, 0.6e-12
GRID = FrequencyGrid(1e9, 5e9, 2001)
TM40 = IncidenceCondition(math.radians(40.0), Polarization.TM)


def _bits(x) -> bytes:
    return np.ascontiguousarray(x, dtype=complex).tobytes()


def assert_same_curve(got, want):
    for name in ("freqs", "s11", "s21", "s22"):
        g, w = getattr(got, name), getattr(want, name)
        assert g is w is None or _bits(g) == _bits(w), name


def ladder_at(w_mm, geometry=DEFAULT_GEOMETRY, cal=DEFAULT_CALIBRATION, l1=L1, c1=C1):
    params = params_from_geometry(replace(geometry, strip_width=w_mm * 1e-3), cal, l1, c1)
    return build_network(params)


def held(net) -> list:
    """Keys of the mapping after a sweep of net: its distinct elements, then
    its head (all elements but the last) if that has two or more."""
    els = net.elements
    keys = list(dict.fromkeys(els))
    return keys + [els[:-1]] if len(els) > 2 else keys


@pytest.mark.parametrize("inc", [NORMAL, TM40])
def test_width_loop_matches_plain_evaluation(inc):
    # unsorted, repeated, and an out-of-range width between valid ones
    widths = [2.2, 0.6, 1.4, 11.0, 0.6, 2.6, -1.0, 1.0]
    reuse = {}
    last = first = None
    for w_mm in widths:
        try:
            net = ladder_at(w_mm)
        except DomainError:
            assert w_mm in (11.0, -1.0)
            assert list(reuse) == held(last)
            continue
        assert_same_curve(sweep_response(net, GRID, inc, reuse), sweep_response(net, GRID, inc))
        assert list(reuse) == held(net)
        head = net.elements[:2]
        first = first or [reuse[el] for el in head] + [reuse[head]]
        last = net
    # the first ladder's ring and spacer matrices, and their product, served the whole loop
    head = last.elements[:2]
    assert all(reuse[key] is m for key, m in zip([*head, head], first))


def test_repeated_elements_within_a_ladder_are_evaluated_once():
    # the mirrored second-order stack holds 7 elements, 4 of them distinct
    p = CircuitParams(L=2.85e-9, L1=L1, C1=C1, order=2, h1=10e-3)
    net = build_network(p)
    reuse = {}
    assert_same_curve(sweep_response(net, GRID, TM40, reuse), sweep_response(net, GRID, TM40))
    assert list(reuse) == held(net) and len(reuse) == 4 + 1


def test_failed_ladder_leaves_the_mapping_as_it_was():
    inc = IncidenceCondition(math.radians(60.0), Polarization.TE)
    good = ladder_at(1.4)
    reuse = {}
    sweep_response(good, GRID, inc, reuse)
    before = dict(reuse)
    ring, _, grid = good.elements
    # eps_r = 0.5 < sin^2(60 deg): the spacer has no propagating mode
    bad = type(good)((ring, LineSegment(0.5, 1e-3), grid))
    with pytest.raises(EvanescentModeError):
        sweep_response(bad, GRID, inc, reuse)
    assert reuse.keys() == before.keys()
    assert all(reuse[el] is before[el] for el in before)
    after = ladder_at(2.6)
    assert_same_curve(sweep_response(after, GRID, inc, reuse), sweep_response(after, GRID, inc))


def test_empty_ladder_leaves_the_mapping_as_it_was():
    reuse = {}
    network_smatrix(ladder_at(1.4), GRID.points, NORMAL, reuse)
    before = dict(reuse)
    with pytest.raises(DomainError, match="at least one segment"):
        network_smatrix(LayeredNetwork(()), GRID.points, NORMAL, reuse)
    assert list(reuse) == list(before)
    assert all(reuse[key] is before[key] for key in before)


@pytest.fixture
def width_loop_sweeps(monkeypatch):
    """Check every sweep of synthesis.width_evaluator against plain evaluation,
    and collect the ring and spacer matrices and their product that each used."""
    shared = []
    real = synthesis.sweep_response

    def checked(net, grid, inc, reuse, reflections=True):
        got = real(net, grid, inc, reuse, reflections=reflections)
        assert_same_curve(got, real(net, grid, inc, reflections=reflections))
        assert list(reuse) == held(net)
        head = net.elements[:2]
        shared.append([reuse[el] for el in head] + [reuse[head]])
        return got

    monkeypatch.setattr(synthesis, "sweep_response", checked)
    return shared


def test_sweep_w_rows_match_plain_evaluation(tmp_path, width_loop_sweeps):
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
    # the first width's ring and spacer matrices, and their product, served every later one
    shared = width_loop_sweeps
    assert len(shared) == 6
    assert all(m is f for ms in shared for m, f in zip(ms, shared[0]))


def test_width_for_bandwidth_matches_plain_evaluation(width_loop_sweeps):
    shared = width_loop_sweeps
    l1 = 1.0 / ((2 * math.pi * 5.1207263563633e9) ** 2 * C1)  # the shipped synthesize target
    w = width_for_bandwidth(0.25, DEFAULT_GEOMETRY, DEFAULT_CALIBRATION, l1, C1, (0.3e-3, 3.0e-3))
    assert 0.3e-3 < w < 3.0e-3
    assert len(shared) > 2
    # the first evaluation's ring and spacer matrices, and their product, served every later one
    assert all(m is f for ms in shared for m, f in zip(ms, shared[0]))
