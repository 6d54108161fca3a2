"""parse_config's schema table against the hand-written parser it replaced.

The former parser is kept below, unchanged, as the reference.  Hypothesis
drives both with configs shaped like the schema, mostly valid values with
some of the wrong type, range or finiteness:

- when both accept a config, every RunConfig field its mode reads is equal
  (the geometry's strip width is not read: the design modes replace it),
  except where a library-owned key is omitted: parse_config takes its
  owner's value in SI (DEFAULT_GEOMETRY.period), the reference its
  config-unit literal times the multiplier (10.2 * 1e-3), which can differ
  by an ulp; simulate's .s2p names are compared with those the reference's
  run formed from output.touchstone;
- when the reference rejects a config, parse_config rejects it too, except a
  cell of period <= 2.6 mm in sweep-w or synthesize: the reference rejects
  it only for its 2.6 mm default strip width, which neither mode reads;
- parse_config may reject a config the reference accepts only when a key is
  present that the mode does not read: a key outside the mode's blocks, or
  circuit.h1_mm / circuit.mirrored at order 1, a fit start or box for a fixed
  parameter, or width-design keys in a synthesize run without fbw_target;
  or when fit.free names a parameter twice, a fit start or box is one the
  fit rejects, a sweep-w ring value is not positive, a synthesize width
  range does not lie inside the cell, an output name is not a bare file
  name (the reference took any string), or two simulate conditions share an
  output token or output.csv is one of their .s2p names (the reference left
  both to the run).

A second property feeds parse_config arbitrary JSON: the result is a
RunConfig or a ConfigError, never another exception.
"""

import dataclasses
import json
import math
from pathlib import Path
from types import SimpleNamespace
from typing import Any

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fsskit.analysis import FrequencyGrid
from fsskit.builder import (
    DEFAULT_CALIBRATION,
    DEFAULT_EPS_R,
    DEFAULT_GEOMETRY,
    DEFAULT_LOSS_TANGENT,
    DEFAULT_RING_CAPACITANCE,
    DEFAULT_RING_INDUCTANCE,
    CalibrationConstants,
    CircuitParams,
    GeometryParams,
)
from fsskit.cli import MODES, RunConfig, parse_config
from fsskit.errors import ConfigError, FssError
from fsskit.synthesis import DesignSpec
from fsskit.twoport import IncidenceCondition, Polarization

# ---------------------------------------------------------------------------
# the reference: parse_config as it was written block by block

#: config key -> (CircuitParams field, SI multiplier)
_FIT_KEYS = {
    "l_nh": ("L", 1e-9),
    "l1_nh": ("L1", 1e-9),
    "c1_pf": ("C1", 1e-12),
    "r_ohm": ("R", 1.0),
    "r1_ohm": ("R1", 1.0),
}


def _check_keys(block: dict, allowed: set[str], context: str) -> None:
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in '{context}': {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _block(doc: dict, name: str) -> dict:
    value = doc.get(name, {})
    if not isinstance(value, dict):
        raise ConfigError(f"'{name}' must be an object")
    return value


def _is_number(value: Any) -> bool:
    """A JSON number other than a bool, finite as a float (no Infinity/NaN)."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


def _number(block: dict, key: str, context: str, default=None, *, required_for=None):
    if key not in block:
        if required_for is not None:
            raise ConfigError(f"mode '{required_for}' requires field '{context}.{key}'")
        return default
    value = block[key]
    if not _is_number(value):
        raise ConfigError(f"'{context}.{key}' must be a finite number")
    return float(value)


def _integer(block: dict, key: str, context: str, default: int) -> int:
    value = _number(block, key, context, default)
    if not float(value).is_integer():
        raise ConfigError(f"'{context}.{key}' must be an integer")
    return int(value)


def _parse_circuit(doc: dict, mode: str, required: bool) -> tuple[CircuitParams | None, bool]:
    block = _block(doc, "circuit")
    allowed = {
        "order", "l_nh", "l1_nh", "c1_pf", "r_ohm", "r1_ohm",
        "h_mm", "eps_r", "h1_mm", "loss_tangent", "mirrored",
    }
    _check_keys(block, allowed, "circuit")
    mirrored = block.get("mirrored", True)
    if not isinstance(mirrored, bool):
        raise ConfigError("'circuit.mirrored' must be true or false")
    if not block and not required:
        return None, False

    order = _integer(block, "order", "circuit", 1)
    l_nh = _number(block, "l_nh", "circuit", required_for=mode if required else None)
    if l_nh is None:
        return None, False
    h1_mm = _number(block, "h1_mm", "circuit", 10.0 if order == 2 else None)
    try:
        params = CircuitParams(
            L=l_nh * 1e-9,
            L1=_number(block, "l1_nh", "circuit", 1.61) * 1e-9,
            C1=_number(block, "c1_pf", "circuit", 0.6) * 1e-12,
            R=_number(block, "r_ohm", "circuit", 0.1),
            R1=_number(block, "r1_ohm", "circuit", 0.1),
            h=_number(block, "h_mm", "circuit", 0.254) * 1e-3,
            eps_r=_number(block, "eps_r", "circuit", DEFAULT_EPS_R),
            h1=None if h1_mm is None else h1_mm * 1e-3,
            order=order,
            loss_tangent=_number(block, "loss_tangent", "circuit", DEFAULT_LOSS_TANGENT),
        )
    except FssError as exc:
        raise ConfigError(f"invalid circuit block: {exc}") from exc
    return params, mirrored


def _parse_geometry(doc: dict) -> GeometryParams:
    block = _block(doc, "geometry")
    allowed = {"period_mm", "ring_side_mm", "arm_width_mm", "strip_width_mm", "spacer_mm", "eps_r"}
    _check_keys(block, allowed, "geometry")
    try:
        return GeometryParams(
            period=_number(block, "period_mm", "geometry", 10.2) * 1e-3,
            ring_side=_number(block, "ring_side_mm", "geometry", 9.8) * 1e-3,
            arm_width=_number(block, "arm_width_mm", "geometry", 0.4) * 1e-3,
            strip_width=_number(block, "strip_width_mm", "geometry", 2.6) * 1e-3,
            spacer=_number(block, "spacer_mm", "geometry", 0.254) * 1e-3,
            eps_r=_number(block, "eps_r", "geometry", DEFAULT_EPS_R),
        )
    except FssError as exc:
        raise ConfigError(f"invalid geometry block: {exc}") from exc


def _parse_calibration(doc: dict) -> CalibrationConstants:
    block = _block(doc, "calibration")
    _check_keys(block, {"k_l_nh", "k_r_ohm_m", "r1_ohm"}, "calibration")
    try:
        return CalibrationConstants(
            l_scale=_number(block, "k_l_nh", "calibration", DEFAULT_CALIBRATION.l_scale * 1e9) * 1e-9,
            r_scale=_number(block, "k_r_ohm_m", "calibration", DEFAULT_CALIBRATION.r_scale),
            r1_default=_number(block, "r1_ohm", "calibration", DEFAULT_CALIBRATION.r1_default),
        )
    except FssError as exc:
        raise ConfigError(f"invalid calibration block: {exc}") from exc


def _parse_grid(doc: dict) -> FrequencyGrid:
    block = _block(doc, "grid")
    _check_keys(block, {"f_start_ghz", "f_stop_ghz", "n_points"}, "grid")
    try:
        return FrequencyGrid(
            f_start=_number(block, "f_start_ghz", "grid", 1.0) * 1e9,
            f_stop=_number(block, "f_stop_ghz", "grid", 5.0) * 1e9,
            n_points=_integer(block, "n_points", "grid", 1001),
        )
    except FssError as exc:
        raise ConfigError(f"invalid grid block: {exc}") from exc


def _parse_incidence(doc: dict) -> tuple[IncidenceCondition, ...]:
    block = _block(doc, "incidence")
    _check_keys(block, {"theta_deg", "pol"}, "incidence")
    thetas = block.get("theta_deg", [0.0])
    pols = block.get("pol", ["TE"])
    if not isinstance(thetas, list) or not thetas:
        raise ConfigError("'incidence.theta_deg' must be a non-empty list of angles")
    if not isinstance(pols, list) or not pols:
        raise ConfigError("'incidence.pol' must be a non-empty list of 'TE'/'TM'")
    conditions = []
    for theta in thetas:
        if not _is_number(theta):
            raise ConfigError("'incidence.theta_deg' entries must be finite numbers")
        for pol in pols:
            if pol not in ("TE", "TM"):
                raise ConfigError(f"'incidence.pol' entries must be 'TE' or 'TM', got {pol!r}")
            try:
                conditions.append(
                    IncidenceCondition(math.radians(float(theta)), Polarization[pol])
                )
            except FssError as exc:
                raise ConfigError(f"invalid incidence angle {theta}: {exc}") from exc
    return tuple(conditions)


def reference_parse_config(text: str) -> RunConfig:
    """parse_config before the schema table, unchanged."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer of over 4300 digits
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(
        doc,
        {"mode", "circuit", "geometry", "calibration", "grid", "incidence",
         "output", "sweep", "synthesize", "fit", "analyze"},
        "config",
    )
    mode = doc.get("mode")
    if mode is None:
        raise ConfigError("mode required")
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")

    circuit, mirrored = _parse_circuit(doc, mode, required=mode in ("simulate", "fit"))
    cfg = RunConfig(
        mode=mode,
        circuit=circuit,
        mirrored=mirrored,
        geometry=_parse_geometry(doc),
        calibration=_parse_calibration(doc),
        grid=_parse_grid(doc),
        incidence=_parse_incidence(doc),
    )
    if circuit is not None:
        cfg.ring_l1 = circuit.L1
        cfg.ring_c1 = circuit.C1
    else:
        block = _block(doc, "circuit")
        cfg.ring_l1 = _number(block, "l1_nh", "circuit", 1.61) * 1e-9
        cfg.ring_c1 = _number(block, "c1_pf", "circuit", 0.6) * 1e-12

    output = _block(doc, "output")
    _check_keys(output, {"csv", "touchstone", "metrics_csv"}, "output")
    for key in ("csv", "touchstone", "metrics_csv"):
        if key in output and not isinstance(output[key], str):
            raise ConfigError(f"'output.{key}' must be a file name string")
    cfg.csv_name = output.get("csv", "response.csv" if mode == "simulate" else None)
    cfg.touchstone_name = output.get("touchstone")
    cfg.metrics_csv_name = output.get(
        "metrics_csv", "metrics.csv" if mode == "sweep-w" else None
    )

    if mode == "sweep-w":
        sweep = _block(doc, "sweep")
        _check_keys(sweep, {"w_mm"}, "sweep")
        widths = sweep.get("w_mm")
        if not isinstance(widths, list) or not widths:
            raise ConfigError("mode 'sweep-w' requires field 'sweep.w_mm' (non-empty list)")
        if not all(_is_number(w) for w in widths):
            raise ConfigError("'sweep.w_mm' entries must be finite numbers")
        cfg.sweep_widths_mm = tuple(sorted(float(w) for w in widths))
        ignored = [f"circuit.{key}" for key in _block(doc, "circuit") if key not in ("l1_nh", "c1_pf")]
        if "strip_width_mm" in _block(doc, "geometry"):
            ignored.append("geometry.strip_width_mm")
        if ignored:
            raise ConfigError(
                f"mode 'sweep-w' does not use {', '.join(ignored)}: it sweeps a first-order "
                "layer built from the geometry, circuit.l1_nh/c1_pf and sweep.w_mm"
            )
        if len(cfg.incidence) > 1:
            raise ConfigError(
                f"mode 'sweep-w' takes one incidence condition, got {len(cfg.incidence)} "
                "(incidence.theta_deg x incidence.pol)"
            )

    if mode == "synthesize":
        synth = _block(doc, "synthesize")
        _check_keys(
            synth,
            {"f_p_ghz", "f_z_ghz", "c1_pf", "q_target", "fbw_target", "w_min_mm", "w_max_mm"},
            "synthesize",
        )
        try:
            cfg.design = DesignSpec(
                f_passband=_number(synth, "f_p_ghz", "synthesize", required_for=mode) * 1e9,
                f_zero=_number(synth, "f_z_ghz", "synthesize", required_for=mode) * 1e9,
                c1=_number(synth, "c1_pf", "synthesize", required_for=mode) * 1e-12,
                q_target=_number(synth, "q_target", "synthesize"),
                fbw_target=_number(synth, "fbw_target", "synthesize"),
            )
        except FssError as exc:
            raise ConfigError(f"invalid synthesize block: {exc}") from exc
        cfg.width_range = (
            _number(synth, "w_min_mm", "synthesize", 0.3) * 1e-3,
            _number(synth, "w_max_mm", "synthesize", 3.0) * 1e-3,
        )

    if mode == "fit":
        fit = _block(doc, "fit")
        _check_keys(fit, {"touchstone", "free", "initial", "bounds"}, "fit")
        path = fit.get("touchstone")
        if not isinstance(path, str):
            raise ConfigError("mode 'fit' requires field 'fit.touchstone' (input path)")
        if not Path(path).is_file():
            raise ConfigError(f"fit input file does not exist: {path}")
        cfg.fit_touchstone = path
        free = fit.get("free")
        if not isinstance(free, list) or not free:
            raise ConfigError("mode 'fit' requires field 'fit.free' (non-empty list)")
        for name in free:
            if name not in _FIT_KEYS:
                raise ConfigError(
                    f"unknown fit parameter {name!r}; allowed: {', '.join(_FIT_KEYS)}"
                )
        cfg.fit_free = tuple(free)
        initial = _block(fit, "initial")
        bounds = _block(fit, "bounds")
        _check_keys(initial, set(_FIT_KEYS), "fit.initial")
        _check_keys(bounds, set(_FIT_KEYS), "fit.bounds")
        base = cfg.circuit
        for name in free:
            circ_field, mult = _FIT_KEYS[name]
            start = _number(initial, name, "fit.initial")
            start_si = getattr(base, circ_field) if start is None else start * mult
            if name in bounds:
                pair = bounds[name]
                if not (isinstance(pair, list) and len(pair) == 2 and all(map(_is_number, pair))):
                    raise ConfigError(f"'fit.bounds.{name}' must be a [low, high] pair of finite numbers")
                lo, hi = float(pair[0]) * mult, float(pair[1]) * mult
            else:
                lo, hi = start_si / 4.0, start_si * 4.0
            cfg.fit_initial[circ_field] = start_si
            cfg.fit_bounds[circ_field] = (lo, hi)

    if mode == "analyze":
        analyze = _block(doc, "analyze")
        _check_keys(analyze, {"touchstone"}, "analyze")
        path = analyze.get("touchstone")
        if not isinstance(path, str):
            raise ConfigError("mode 'analyze' requires field 'analyze.touchstone'")
        if not Path(path).is_file():
            raise ConfigError(f"analyze input file does not exist: {path}")
        cfg.analyze_touchstone = path

    return cfg


# ---------------------------------------------------------------------------
# which keys each mode reads, written out independently of cli._SCHEMA

SIM_FIT = {"simulate", "fit"}
SIM_SWEEP = {"simulate", "sweep-w"}
DESIGN = {"sweep-w", "synthesize"}
CIRCUIT_KEYS = ("order", "l_nh", "l1_nh", "c1_pf", "r_ohm", "r1_ohm", "h_mm", "eps_r",
                "h1_mm", "loss_tangent", "mirrored")
READ_BY = {
    "circuit": {key: SIM_FIT | ({"sweep-w"} if key in ("l1_nh", "c1_pf") else set())
                for key in CIRCUIT_KEYS},
    "geometry": {"period_mm": DESIGN, "ring_side_mm": DESIGN, "arm_width_mm": DESIGN,
                 "strip_width_mm": set(), "spacer_mm": DESIGN, "eps_r": DESIGN},
    "calibration": {"k_l_nh": DESIGN, "k_r_ohm_m": DESIGN, "r1_ohm": DESIGN},
    "grid": {"f_start_ghz": SIM_SWEEP, "f_stop_ghz": SIM_SWEEP, "n_points": SIM_SWEEP},
    "incidence": {"theta_deg": SIM_SWEEP, "pol": SIM_SWEEP},
    "output": {"csv": {"simulate"}, "touchstone": {"simulate"}, "metrics_csv": {"sweep-w"}},
    "sweep": {"w_mm": {"sweep-w"}},
    "synthesize": {key: {"synthesize"} for key in (
        "f_p_ghz", "f_z_ghz", "c1_pf", "q_target", "fbw_target", "w_min_mm", "w_max_mm")},
    "fit": {key: {"fit"} for key in ("touchstone", "free", "initial", "bounds")},
    "analyze": {"touchstone": {"analyze"}},
}

#: RunConfig fields each mode reads
READS = {
    "simulate": ("circuit", "mirrored", "grid", "incidence", "csv_name", "s2p_names"),
    "sweep-w": ("geometry", "calibration", "ring_l1", "ring_c1", "grid", "incidence",
                "metrics_csv_name", "sweep_widths_mm"),
    "synthesize": ("design", "geometry", "calibration", "width_range"),
    "fit": ("circuit", "mirrored", "fit_touchstone", "fit_free", "fit_initial", "fit_bounds"),
    "analyze": ("analyze_touchstone",),
}


#: block -> library-owned key -> (attribute it sets, its owner in builder)
OWNERS = {
    "circuit": {
        "order": ("order", CircuitParams.order),
        "l1_nh": ("L1", DEFAULT_RING_INDUCTANCE),
        "c1_pf": ("C1", DEFAULT_RING_CAPACITANCE),
        "r_ohm": ("R", CircuitParams.R),
        "r1_ohm": ("R1", CircuitParams.R1),
        "h_mm": ("h", CircuitParams.h),
        "eps_r": ("eps_r", CircuitParams.eps_r),
        "loss_tangent": ("loss_tangent", CircuitParams.loss_tangent),
    },
    "geometry": {
        "period_mm": ("period", DEFAULT_GEOMETRY.period),
        "ring_side_mm": ("ring_side", DEFAULT_GEOMETRY.ring_side),
        "arm_width_mm": ("arm_width", DEFAULT_GEOMETRY.arm_width),
        "spacer_mm": ("spacer", DEFAULT_GEOMETRY.spacer),
        "eps_r": ("eps_r", DEFAULT_GEOMETRY.eps_r),
    },
    "calibration": {
        "k_l_nh": ("l_scale", DEFAULT_CALIBRATION.l_scale),
        "k_r_ohm_m": ("r_scale", DEFAULT_CALIBRATION.r_scale),
        "r1_ohm": ("r1_default", DEFAULT_CALIBRATION.r1_default),
    },
}


def has_unread_key(doc: dict) -> bool:
    """Whether the config carries a key its mode does not read."""
    mode = doc["mode"]
    for block, read_by in READ_BY.items():
        given = doc.get(block, {})
        if not isinstance(given, dict):
            return True  # the reference accepts a non-object only in a block it skips
        if any(mode not in read_by.get(key, ()) for key in given):
            return True
    circuit = doc.get("circuit", {})
    if mode in SIM_FIT and circuit.get("order", 1) == 1 and {"h1_mm", "mirrored"} & set(circuit):
        return True
    fit = doc.get("fit", {})
    if mode == "fit" and any(
        key not in fit["free"] for part in ("initial", "bounds") for key in fit.get(part, {})
    ):
        return True
    synth = doc.get("synthesize", {})
    return mode == "synthesize" and "fbw_target" not in synth and bool(
        doc.get("geometry") or doc.get("calibration") or {"w_min_mm", "w_max_mm"} & set(synth)
    )


# ---------------------------------------------------------------------------
# schema-shaped configs

EXISTING_FILE = str(Path(__file__))
MISSING_FILE = str(Path(__file__).with_name("no_such_input.s2p"))
#: wrong type, sign or finiteness for a number field
BAD_NUMBER = st.sampled_from([None, "1.0", True, [], {}, math.inf, -math.inf, math.nan,
                              10**400, -1.0, 0])
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=3),
    max_leaves=8,
)


def number(lo: float, hi: float) -> st.SearchStrategy:
    integers = range(math.ceil(lo), math.floor(hi) + 1)
    return st.floats(lo, hi) | (st.sampled_from(integers) if integers else st.nothing())


def items(good, bad) -> tuple[st.SearchStrategy, st.SearchStrategy]:
    """A non-empty list of good entries, and an empty one or one with a bad entry."""
    spoiled = st.tuples(st.lists(good, max_size=2), bad).map(lambda t: t[0] + [t[1]])
    return st.lists(good, min_size=1, max_size=4), st.just([]) | spoiled


FIT_NAMES = st.sampled_from(["l_nh", "l1_nh", "c1_pf", "r_ohm", "r1_ohm"])
NAME = st.sampled_from(["a.csv", "b.s2p"])
NOT_A_BARE_NAME = st.sampled_from(["sub/a.csv", "/tmp/b.s2p", "..", "."])
PATH = (st.just(EXISTING_FILE), st.just(MISSING_FILE))
N = st.nothing()

#: block -> key -> (good values, values wrong for this key in particular);
#: any key may also get BAD_NUMBER or arbitrary JSON
KEYS = {
    "circuit": {
        "order": (st.sampled_from([1, 2, 2.0]), st.sampled_from([1.5, 3])),
        "l_nh": (number(0.5, 10), N), "l1_nh": (number(0.5, 5), N),
        "c1_pf": (number(0.1, 2), N), "r_ohm": (number(0, 1), N), "r1_ohm": (number(0, 1), N),
        "h_mm": (number(0.05, 1), N), "eps_r": (number(1, 10), st.just(0.5)),
        "h1_mm": (number(0, 20), N), "loss_tangent": (number(0, 0.01), N),
        "mirrored": (st.booleans(), N),
    },
    "geometry": {
        "period_mm": (number(8, 15), number(1, 3)), "ring_side_mm": (number(2, 8), number(8, 14)),
        "arm_width_mm": (number(0.1, 1), number(1, 5)), "strip_width_mm": (number(0.1, 5), N),
        "spacer_mm": (number(0.05, 1), N), "eps_r": (number(1, 10), N),
    },
    "calibration": {
        "k_l_nh": (number(0.1, 5), N), "k_r_ohm_m": (number(0, 1e-3), N),
        "r1_ohm": (number(0, 1), N),
    },
    "grid": {
        "f_start_ghz": (number(0.5, 2), number(2, 9)), "f_stop_ghz": (number(2, 8), N),
        "n_points": (st.integers(2, 50) | st.just(11.0), st.sampled_from([1, 11.5])),
    },
    "incidence": {
        "theta_deg": items(number(0, 89), number(90, 180)),
        "pol": items(st.sampled_from(["TE", "TM"]), st.just("te")),
    },
    "output": {"csv": (NAME, NOT_A_BARE_NAME), "touchstone": (NAME, NOT_A_BARE_NAME),
               "metrics_csv": (NAME, NOT_A_BARE_NAME)},
    "sweep": {"w_mm": items(number(0.1, 3), BAD_NUMBER)},
    "synthesize": {
        "f_p_ghz": (number(1, 3), N), "f_z_ghz": (number(3, 8), number(0.5, 1)),
        "c1_pf": (number(0.1, 2), N), "q_target": (number(10, 1000), N),
        "fbw_target": (number(0.01, 0.5), N), "w_min_mm": (number(0.1, 1), N),
        "w_max_mm": (number(1, 4), N),
    },
    "fit": {
        "touchstone": PATH,
        "free": items(FIT_NAMES, st.sampled_from(["h_mm", 5])),
        "initial": (st.dictionaries(FIT_NAMES, number(0.1, 5), max_size=3),
                    st.dictionaries(st.just("h_mm") | FIT_NAMES, BAD_NUMBER, min_size=1)),
        "bounds": (st.dictionaries(FIT_NAMES, st.lists(number(0.01, 20), min_size=2,
                                                       max_size=2).map(sorted), max_size=3),
                   st.dictionaries(FIT_NAMES, st.lists(BAD_NUMBER, max_size=3), min_size=1)),
    },
    "analyze": {"touchstone": PATH},
}


#: keys whose absence a mode that reads them rejects
REQUIRED = {"circuit": ("l_nh",), "sweep": ("w_mm",), "synthesize": ("f_p_ghz", "f_z_ghz", "c1_pf"),
            "fit": ("touchstone", "free"), "analyze": ("touchstone",)}


@st.composite
def configs(draw, bad=BAD_NUMBER) -> dict:
    """Good values for keys the mode reads, then at most one fault.

    The fault is a bad value, an unknown key, a key the mode does not read,
    or a block that is not an object; about half of the configs have none.
    """
    mode = draw(st.sampled_from(MODES))
    doc = {"mode": mode}
    unread = []
    for block, keys in KEYS.items():
        read = [key for key in keys if mode in READ_BY[block][key]]
        unread += [(block, key) for key in keys if key not in read]
        must = [key for key in REQUIRED.get(block, ()) if key in read]
        if must or (read and draw(st.integers(0, 9)) < 8):
            required = [key for key in must if draw(st.integers(0, 19)) != 7]
            doc[block] = draw(st.fixed_dictionaries(
                {key: keys[key][0] for key in required},
                optional={key: keys[key][0] for key in read if key not in required},
            ))
    fault = draw(st.integers(0, 7))  # 0, the value hypothesis favours, adds no fault
    present = [(block, key) for block in doc if block != "mode" for key in doc[block]]
    if fault in (1, 2, 3) and present:
        block, key = draw(st.sampled_from(present))
        doc[block][key] = draw(KEYS[block][key][1] | bad)
    elif fault == 4:
        doc.setdefault(draw(st.sampled_from(sorted(KEYS))), {})["bogus"] = 1
    elif fault == 5:
        block, key = draw(st.sampled_from(unread))
        doc.setdefault(block, {})[key] = draw(KEYS[block][key][0])
    elif fault == 6:
        doc[draw(st.sampled_from(sorted(KEYS)))] = draw(bad)
    return doc


def names_a_fit_parameter_twice(doc: dict) -> bool:
    """Whether a fit config lists a parameter twice in fit.free, which the
    reference accepted although the fit would adjust it as one."""
    block = doc.get("fit")
    free = block.get("free") if doc["mode"] == "fit" and isinstance(block, dict) else None
    return isinstance(free, list) and len(set(map(repr, free))) < len(free)


def has_an_invalid_fit_box(want: RunConfig) -> bool:
    """Whether the reference's fit starts and boxes hold one that the fit
    rejects: a box that is not lo < hi, a reactive box from 0 or below, or a
    start outside its box.  The reference accepted these and left them to
    the fit."""
    return any(
        not (lo < hi and lo <= want.fit_initial[name] <= hi) or (name in ("L", "L1", "C1") and lo <= 0)
        for name, (lo, hi) in want.fit_bounds.items()
    )


def has_a_nonpositive_ring(want: RunConfig) -> bool:
    """Whether a sweep-w config's ring L1 or C1 is not positive, which the
    reference accepted although every width then failed."""
    return want.mode == "sweep-w" and not (want.ring_l1 > 0 and want.ring_c1 > 0)


def has_a_width_range_outside_the_cell(want: RunConfig) -> bool:
    """Whether a synthesize config's width range is not 0 < w_min <= w_max <
    period, which the reference accepted and left to the width search."""
    if want.mode != "synthesize":
        return False
    lo, hi = want.width_range
    return not 0 < lo <= hi < want.geometry.period


def condition_tokens(want: RunConfig) -> list[str]:
    """Each incidence condition's token, which names its .s2p file and its CSV columns."""
    return [f"{inc.polarization.value.lower()}{math.degrees(inc.theta):g}deg".replace(".", "p")
            for inc in want.incidence]


def s2p_names_at_run(want: RunConfig) -> tuple[str, ...]:
    """The .s2p names that simulate's run formed from the reference's output.touchstone."""
    if not want.touchstone_name:
        return ()
    stem = Path(want.touchstone_name)
    return tuple(f"{stem.stem}_{token}{stem.suffix or '.s2p'}" for token in condition_tokens(want))


def has_colliding_outputs(want: RunConfig) -> bool:
    """Whether two simulate conditions share a token, or output.csv is one of
    their .s2p names, which the reference accepted and the run rejected."""
    tokens = condition_tokens(want)
    shared = len(set(tokens)) < len(tokens)
    return want.mode == "simulate" and (shared or want.csv_name in s2p_names_at_run(want))


def has_an_output_path(want: RunConfig) -> bool:
    """Whether an output name the reference accepted has a directory part or
    is . or .., which the reference wrote wherever it pointed."""
    names = (want.csv_name, want.touchstone_name, want.metrics_csv_name)
    return any(name and (Path(name).name != name or name == "..") for name in names)


def rejects_only_for_its_default_width(doc: dict, want: Exception) -> bool:
    """Whether the reference rejected a design cell only because its default
    2.6 mm strip width does not fit inside the period."""
    period = doc.get("geometry", {}).get("period_mm", 10.2)
    return doc["mode"] in DESIGN and period <= 2.6 and "strip width must satisfy" in str(want)


def with_owner_defaults(doc: dict, want: RunConfig) -> RunConfig:
    """The reference's RunConfig with each omitted library-owned key at its
    owner's value, and the fit starts and boxes that follow from the circuit."""
    fixed = dataclasses.replace(want, fit_initial=dict(want.fit_initial), fit_bounds=dict(want.fit_bounds))
    for block, owned in OWNERS.items():
        omitted = {attr: owner for key, (attr, owner) in owned.items() if key not in doc.get(block, {})}
        if getattr(want, block) is not None:
            setattr(fixed, block, dataclasses.replace(getattr(want, block), **omitted))
    circuit = doc.get("circuit", {})
    fixed.ring_l1 = want.ring_l1 if "l1_nh" in circuit else DEFAULT_RING_INDUCTANCE
    fixed.ring_c1 = want.ring_c1 if "c1_pf" in circuit else DEFAULT_RING_CAPACITANCE
    fit = doc.get("fit", {})
    for name in want.fit_free:
        circ_field = _FIT_KEYS[name][0]
        if name not in fit.get("initial", {}):
            fixed.fit_initial[circ_field] = start = getattr(fixed.circuit, circ_field)
            if name not in fit.get("bounds", {}):
                fixed.fit_bounds[circ_field] = (start / 4.0, start * 4.0)
    return fixed


def takes_owner_defaults(doc: dict, name: str, want: RunConfig, got: RunConfig) -> bool:
    """Whether parse_config's field is the reference's with each omitted
    library-owned key at its owner's value in SI, where the reference's
    config-unit literal times the multiplier can miss it by an ulp."""
    return as_read(getattr(got, name)) == as_read(getattr(with_owner_defaults(doc, want), name))


def as_read(value: Any) -> Any:
    """A RunConfig field as its mode reads it: a geometry without its strip width."""
    if isinstance(value, GeometryParams):
        return {k: v for k, v in vars(value).items() if k != "strip_width"}
    return value


def outcome(parse, text: str):
    try:
        return parse(text)
    except Exception as exc:  # the reference may also fail with a bare TypeError
        return exc


@settings(max_examples=300, deadline=None)
@given(configs())
@example({"mode": "simulate", "circuit": {"l_nh": 2.85, "order": 1.5}})
@example({"mode": "simulate", "circuit": {"l_nh": 2.85}, "grid": {"n_points": 11.5}})
@example({"mode": "simulate", "circuit": {"l_nh": 2.85}, "incidence": {"pol": []}})
@example({"mode": "sweep-w", "sweep": {"w_mm": []}})
@example({"mode": "sweep-w", "sweep": {"w_mm": [1.0]}, "geometry": {"period_mm": 2.6}})
@example({"mode": "sweep-w", "sweep": {"w_mm": [1.0]},
          "geometry": {"period_mm": 2.6, "ring_side_mm": 2.4, "arm_width_mm": 0.2}})
@example({"mode": "sweep-w", "sweep": {"w_mm": [1.0]}, "circuit": {"l1_nh": -1.0}})
@example({"mode": "synthesize", "synthesize": {"f_p_ghz": 2.7, "f_z_ghz": 5.0, "c1_pf": 0.6,
                                               "fbw_target": 0.1, "w_min_mm": 0}})
def test_schema_parser_matches_reference(doc):
    text = json.dumps(doc)
    want, got = outcome(reference_parse_config, text), outcome(parse_config, text)
    if isinstance(got, Exception):
        assert isinstance(got, ConfigError), repr(got)
        if not isinstance(want, Exception):
            allowed = (has_unread_key(doc) or names_a_fit_parameter_twice(doc) or has_an_invalid_fit_box(want)
                       or has_a_nonpositive_ring(want) or has_a_width_range_outside_the_cell(want)
                       or has_an_output_path(want) or has_colliding_outputs(want))
            assert allowed, f"newly rejected: {got}"
    elif isinstance(want, Exception):
        assert rejects_only_for_its_default_width(doc, want), f"newly accepted; reference said {want!r}"
    else:
        want.s2p_names = s2p_names_at_run(want)
        for name in READS[doc["mode"]]:
            assert takes_owner_defaults(doc, name, want, got), name


#: the smallest config of each mode that reads library-owned keys, and how many it reads
MINIMAL = {
    "simulate": ({"mode": "simulate", "circuit": {"l_nh": 2.85}}, 8),
    "fit": ({"mode": "fit", "circuit": {"l_nh": 2.85},
             "fit": {"touchstone": EXISTING_FILE, "free": ["l_nh"]}}, 8),
    "sweep-w": ({"mode": "sweep-w", "sweep": {"w_mm": [1.0]}}, 10),
    "synthesize": ({"mode": "synthesize", "synthesize": {"f_p_ghz": 2.7, "f_z_ghz": 5.0, "c1_pf": 0.6,
                                                         "fbw_target": 0.1}}, 8),
}


@pytest.mark.parametrize("mode", sorted(MINIMAL))
def test_an_omitted_library_owned_key_parses_bit_equal_to_its_owner(mode):
    doc, count = MINIMAL[mode]
    cfg = parse_config(json.dumps(doc))
    parsed = {"circuit": cfg.circuit, "geometry": cfg.geometry, "calibration": cfg.calibration}
    if mode == "sweep-w":  # of the circuit block it reads only the ring values
        parsed["circuit"] = SimpleNamespace(L1=cfg.ring_l1, C1=cfg.ring_c1)
    got, owners = {}, {}
    for block, owned in OWNERS.items():
        for key, (attr, owner) in owned.items():
            if hasattr(parsed[block], attr):
                got[f"{block}.{key}"] = float(getattr(parsed[block], attr)).hex()
                owners[f"{block}.{key}"] = float(owner).hex()
    assert len(got) == count and got == owners


@settings(max_examples=100, deadline=None)
@given(st.one_of(JSON, configs(bad=JSON)))
def test_any_json_gives_a_config_or_a_config_error(doc):
    try:
        assert isinstance(parse_config(json.dumps(doc)), RunConfig)
    except ConfigError:
        pass
