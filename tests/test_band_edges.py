"""The vectorised band-edge search of extract_metrics against the former walk.

extract_metrics finds the -3 dB crossings nearest the peak with one
first-crossing search per side over a boolean mask.  It used to step
outward from the peak one sample at a time in Python; that walk is kept
here as the reference.  Both must pick the same crossing samples, so give
the same f_lo / f_hi bits, or raise the same OneSidedBandError.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsskit.analysis import (
    _DB_FLOOR,
    ResponseCurve,
    _band_edges,
    _db,
    _interp_crossing,
    _parabolic_vertex,
    extract_metrics,
)
from fsskit.errors import BandNotBracketedError, OneSidedBandError


def walk_edges(f, db, i, thr):
    """extract_metrics' band edges as a sample-by-sample walk from the peak."""
    j = i
    while j < len(f) - 1 and db[j] >= thr:
        j += 1
    if db[j] >= thr:
        raise OneSidedBandError("upper")
    f_hi = _interp_crossing(f[j - 1], f[j], db[j - 1], db[j], thr)

    k = i
    while k > 0 and db[k] >= thr:
        k -= 1
    if db[k] >= thr:
        raise OneSidedBandError("lower")
    f_lo = _interp_crossing(f[k], f[k + 1], db[k], db[k + 1], thr)
    return f_lo, f_hi


def outcome(search, *args):
    """Hex bits of (f_lo, f_hi), or the side of the OneSidedBandError."""
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            return tuple(float(x).hex() for x in search(*args))
    except OneSidedBandError as exc:
        return ("one-sided", exc.side)


def threshold_level(thr):
    """A magnitude whose dB value is thr exactly, when one is near 10^(thr/20)."""
    v = 10.0 ** (thr / 20.0)
    for cand in (v, np.nextafter(v, 0.0), np.nextafter(v, 2.0)):
        if _db(np.array([cand]))[0] == thr:
            return float(cand)
    return v


@st.composite
def db_rows(draw):
    """dB samples with plateaus at, just above and just below the threshold."""
    n = draw(st.integers(3, 40))
    thr = draw(st.floats(-40.0, 0.0))
    near = [thr, float(np.nextafter(thr, -np.inf)), float(np.nextafter(thr, np.inf))]
    level = st.one_of(st.sampled_from(near), st.floats(-60.0, 3.0))
    db = np.array(draw(st.lists(level, min_size=n, max_size=n)))
    i = draw(st.integers(1, n - 2))
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    return np.cumsum(steps) + 1.0, db, i, thr


@settings(max_examples=200, deadline=None)
@given(db_rows())
def test_search_matches_walk_on_any_samples(case):
    assert outcome(_band_edges, *case) == outcome(walk_edges, *case)


@pytest.mark.parametrize("db, expected", [
    # samples exactly at the threshold count as in band on both sides
    ([-3.0, -1.0, -1.0, 0.0, -1.0, -1.0, -3.0], ("one-sided", "upper")),
    ([-4.0, -3.0, 0.0, -3.0, -3.0, -3.0, -3.0], ("one-sided", "upper")),
    ([-3.0, -3.0, 0.0, -3.0, -4.0], ("one-sided", "lower")),
    ([-5.0, -3.0, -3.0, 0.0, -3.0, -3.5], None),
    # the band reaches either edge of the grid
    ([-1.0, 0.0, -1.0, -9.0], ("one-sided", "lower")),
    ([-9.0, -1.0, 0.0, -1.0], ("one-sided", "upper")),
])
def test_plateaus_at_the_threshold(db, expected):
    f = np.arange(len(db), dtype=float) + 1.0
    db = np.array(db)
    i = int(np.argmax(db))
    got = outcome(_band_edges, f, db, i, -3.0)
    assert got == outcome(walk_edges, f, db, i, -3.0)
    if expected is not None:
        assert got == expected


@st.composite
def curves(draw):
    """|s21| samples on a non-uniform grid; None marks a sample at the -3 dB level."""
    n = draw(st.integers(3, 40))
    level = st.one_of(st.none(), st.sampled_from([0.5, 0.7, 1.0]), st.floats(1e-4, 1.0))
    mag = draw(st.lists(level, min_size=n, max_size=n))
    edge_peak = draw(st.sampled_from([None, 1, n - 2]))
    steps = draw(st.lists(st.floats(1e-3, 1.0), min_size=n, max_size=n))
    return np.cumsum(steps) + 1.0, mag, edge_peak


def reference_band(f, mag):
    """Peak sample i and -3 dB threshold thr, as extract_metrics computes them."""
    i = int(np.argmax(mag))
    if i == 0 or i == len(f) - 1:
        raise BandNotBracketedError("transmission peak is not bracketed inside the frequency grid")
    _, peak = _parabolic_vertex(f[i - 1], f[i], f[i + 1], mag[i - 1], mag[i], mag[i + 1])
    thr = 20.0 * math.log10(max(peak, _DB_FLOOR)) - 3.0
    return i, thr


@settings(max_examples=200, deadline=None)
@given(curves())
@example((np.arange(7.0) + 1.0, [0.1, None, 1.0, 1.0, 1.0, None, 0.1], None))
@example((np.arange(5.0) + 1.0, [0.2, 1.0, 0.9, None, None], 1))
@example((np.arange(5.0) + 1.0, [None, None, 0.9, 1.0, 0.2], 3))
def test_extract_metrics_matches_walk_on_random_curves(case):
    f, levels, edge_peak = case
    mag = np.array([1e-6 if v is None else v for v in levels])
    if edge_peak is not None:
        mag[edge_peak] = 2.0
    i = int(np.argmax(mag))
    if 0 < i < len(f) - 1:
        # samples at the -3 dB level, kept off the three points that fix the peak
        at_thr = threshold_level(reference_band(f, mag)[1])
        for m, v in enumerate(levels):
            if v is None and abs(m - i) > 1:
                mag[m] = at_thr
    curve = ResponseCurve(freqs=f, s11=np.zeros(f.size, complex), s21=mag.astype(complex))
    try:
        i, thr = reference_band(f, mag)
    except BandNotBracketedError:
        with pytest.raises(BandNotBracketedError):
            extract_metrics(curve)
        return
    db = _db(mag)
    want = outcome(walk_edges, f, db, i, thr)
    assert outcome(_band_edges, f, db, i, thr) == want
    if want[0] == "one-sided":
        with pytest.raises(OneSidedBandError) as err:
            extract_metrics(curve)
        assert err.value.side == want[1]
    else:
        f_lo, f_hi = (float.fromhex(x) for x in want)
        with np.errstate(divide="ignore", invalid="ignore"):
            bw = extract_metrics(curve).bw_3db
        assert bw.hex() == (f_hi - f_lo).hex()


def test_plateau_exactly_at_the_threshold_on_a_curve():
    f = np.arange(9.0) + 1.0
    mag = np.array([0.3, 0.2, 0.9, 1.0, 0.9, 0.2, 0.1, 0.05, 0.01])
    i, thr = reference_band(f, mag)
    mag[[1, 5, 6]] = threshold_level(thr)
    db = _db(mag)
    assert np.count_nonzero(db == thr) == 3
    assert outcome(_band_edges, f, db, i, thr) == outcome(walk_edges, f, db, i, thr)
    # the crossings lie beyond the plateaus: samples 0..1 and 6..7
    f_lo, f_hi = _band_edges(f, db, i, thr)
    assert 1.0 < f_lo <= 2.0 and 7.0 <= f_hi < 8.0


# extract_metrics forms dB only on the samples that |s21| against
# 10^(thr/20) brackets, and searches the whole curve when that window misses
# a crossing.  The curves below put samples at, just under and just over that
# level and the magnitude whose dB is thr exactly, so the window can end one
# sample short of, on, or past a crossing, and a side may stay in band out to
# the grid's end.


def edges_found(curve):
    """Hex bits of extract_metrics' (f_lo, f_hi) and bandwidth, or the side it names."""
    found = []

    def record(*args):
        found.append(_band_edges(*args))
        return found[-1]

    with mock.patch("fsskit.analysis._band_edges", side_effect=record) as search:
        try:
            with np.errstate(divide="ignore", invalid="ignore"):
                bw = extract_metrics(curve).bw_3db
        except OneSidedBandError as exc:
            return ("one-sided", exc.side), search.call_count
    return (tuple(x.hex() for x in found[-1]), bw.hex()), search.call_count


@st.composite
def threshold_curves(draw):
    """|s21| with its peak at sample i, other samples at levels next to the -3 dB level."""
    n = draw(st.integers(4, 200))
    i = draw(st.integers(1, n - 2))
    # steps within a factor of 2 keep the parabolic peak, and so every level, under |s21| at i
    f = np.cumsum(draw(st.lists(st.floats(0.5, 1.0), min_size=n, max_size=n))) + 1.0
    mag = np.full(n, 0.95)
    mag[i] = 1.0
    thr = reference_band(f, mag)[1]
    level, at = 10.0 ** (thr / 20.0), threshold_level(thr)
    values = {
        "at": at, "under at": np.nextafter(at, 0.0), "level": level,
        "under level": np.nextafter(level, 0.0), "over level": np.nextafter(level, 2.0),
        "in band": 0.95, "out of band": 0.1,
    }
    kinds = draw(st.lists(st.sampled_from(sorted(values)), min_size=n, max_size=n))
    in_band_to_end = draw(st.sampled_from([None, "lower", "upper"]))
    for m, kind in enumerate(kinds):
        if abs(m - i) > 1:
            to_end = (in_band_to_end == "lower" and m < i) or (in_band_to_end == "upper" and m > i)
            mag[m] = max(values[kind], at) if to_end else values[kind]
    return f, mag


@settings(max_examples=300, deadline=None)
@given(threshold_curves())
@example((np.arange(7.0) + 1.0, np.array([0.1, 0.95, 0.95, 1.0, 0.95, 0.95, 0.95])))
@example((np.arange(7.0) + 1.0, np.array([0.95, 0.95, 0.95, 1.0, 0.95, 0.1, 0.1])))
def test_windowed_search_matches_the_whole_curve(case):
    f, mag = case
    i, thr = reference_band(f, mag)
    db = _db(mag)
    want = outcome(_band_edges, f, db, i, thr)
    assert want == outcome(walk_edges, f, db, i, thr)
    if want[0] != "one-sided":
        f_lo, f_hi = (float.fromhex(x) for x in want)
        want = (want, (f_hi - f_lo).hex())
    got, _ = edges_found(ResponseCurve(freqs=f, s11=None, s21=mag.astype(complex)))
    assert got == want


def test_a_crossing_the_window_misses_is_found_on_the_whole_curve():
    """A sample just under 10^(thr/20) whose dB is not under thr ends the
    window one sample short; the whole-curve search finds the crossing."""
    f = np.arange(7.0) + 1.0
    for peak in np.geomspace(0.01, 1.0, 101):
        mag = peak * np.array([0.2, 0.0, 0.85, 1.0, 0.85, 0.2, 0.1])
        i, thr = reference_band(f, mag)
        mag[1] = np.nextafter(10.0 ** (thr / 20.0), 0.0)
        if _db(mag[1:2])[0] >= thr:
            break
    else:
        pytest.fail("no peak puts a sample under 10^(thr/20) with its dB at or over thr")
    db = _db(mag)
    f_lo, f_hi = _band_edges(f, db, i, thr)
    assert 1.0 < f_lo <= 2.0  # the crossing lies between samples 0 and 1
    got, searches = edges_found(ResponseCurve(freqs=f, s11=None, s21=mag.astype(complex)))
    assert got == ((f_lo.hex(), f_hi.hex()), (f_hi - f_lo).hex())
    assert searches == 2
