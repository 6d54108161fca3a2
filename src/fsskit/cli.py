"""Command-line front end: JSON run configs, CSV/Touchstone export.

Usage: fsskit --config run.json [--out-dir DIR]

All physical inputs live in the config file; field names carry their
units as suffixes (l_nh, h_mm, f_start_ghz, ...).  Every key, its default
and the modes that read it are declared once, in _SCHEMA; a key the chosen
mode does not read is rejected by name.  Outputs are deterministic:
repeated runs of the same config produce byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .analysis import (
    FrequencyGrid,
    PassbandMetrics,
    ResponseCurve,
    _db,
    extract_metrics,
    sweep_conditions,
)
from .builder import (
    DEFAULT_CALIBRATION,
    DEFAULT_GEOMETRY,
    DEFAULT_RING_CAPACITANCE,
    DEFAULT_RING_INDUCTANCE,
    CalibrationConstants,
    CircuitParams,
    GeometryParams,
    build_network,
    params_from_geometry,
)
from .errors import ConfigError, FssError, TouchstoneError
from .synthesis import (
    FITTABLE,
    DesignSpec,
    FitProblem,
    check_fit_settings,
    check_width_range,
    fit_circuit,
    loss_budget_for_q,
    synthesize_lc,
    width_evaluator,
    width_for_bandwidth,
)
from .touchstone import create, format_g12, read_touchstone, write_touchstone
from .twoport import IncidenceCondition, Polarization

OUT_DIR_ENV = "FSSKIT_OUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_IO = 4

#: default of a key that every mode reading it must give
_REQUIRED = object()

_SIM_FIT = ("simulate", "fit")
_SIM_SWEEP = ("simulate", "sweep-w")
_DESIGN = ("sweep-w", "synthesize")

#: Largest frequency grid a config may ask for; one complex array over it is
#: 16 MB.  A larger count fails as a config error before anything is allocated.
#: ``simulate`` holds every condition's curves, so it also caps conditions x
#: points at this count.
MAX_GRID_POINTS = 1_000_000

#: block -> config key -> (target field, SI multiplier or JSON type, default in
#: SI, modes that read the key).  A multiplier marks a finite number, ``int`` an
#: integral one, a ``range`` an integral one inside it, ``Path`` the name of an
#: existing file, ``str`` the bare name of an output file inside the output
#: directory ("" for none).  An omitted key's field takes the default as is, a
#: value ``builder`` owns from its owner; None leaves the field unset.
_SCHEMA: dict[str, dict[str, tuple]] = {
    "circuit": {
        "order": ("order", int, CircuitParams.order, _SIM_FIT),
        "l_nh": ("L", 1e-9, _REQUIRED, _SIM_FIT),
        "l1_nh": ("L1", 1e-9, DEFAULT_RING_INDUCTANCE, _SIM_FIT + ("sweep-w",)),
        "c1_pf": ("C1", 1e-12, DEFAULT_RING_CAPACITANCE, _SIM_FIT + ("sweep-w",)),
        "r_ohm": ("R", 1.0, CircuitParams.R, _SIM_FIT),
        "r1_ohm": ("R1", 1.0, CircuitParams.R1, _SIM_FIT),
        "h_mm": ("h", 1e-3, CircuitParams.h, _SIM_FIT),
        "eps_r": ("eps_r", 1.0, CircuitParams.eps_r, _SIM_FIT),
        "h1_mm": ("h1", 1e-3, 10e-3, _SIM_FIT),  # order 2 only
        "loss_tangent": ("loss_tangent", 1.0, CircuitParams.loss_tangent, _SIM_FIT),
        "mirrored": ("mirrored", bool, build_network.__kwdefaults__["mirrored"], _SIM_FIT),  # order 2 only
    },
    "geometry": {
        "period_mm": ("period", 1e-3, DEFAULT_GEOMETRY.period, _DESIGN),
        "ring_side_mm": ("ring_side", 1e-3, DEFAULT_GEOMETRY.ring_side, _DESIGN),
        "arm_width_mm": ("arm_width", 1e-3, DEFAULT_GEOMETRY.arm_width, _DESIGN),
        # both modes that read the geometry set the strip width themselves
        "strip_width_mm": ("strip_width", 1e-3, None, ()),
        "spacer_mm": ("spacer", 1e-3, DEFAULT_GEOMETRY.spacer, _DESIGN),
        "eps_r": ("eps_r", 1.0, DEFAULT_GEOMETRY.eps_r, _DESIGN),
    },
    "calibration": {
        "k_l_nh": ("l_scale", 1e-9, DEFAULT_CALIBRATION.l_scale, _DESIGN),
        "k_r_ohm_m": ("r_scale", 1.0, DEFAULT_CALIBRATION.r_scale, _DESIGN),
        "r1_ohm": ("r1_default", 1.0, DEFAULT_CALIBRATION.r1_default, _DESIGN),
    },
    "grid": {
        "f_start_ghz": ("f_start", 1e9, 1e9, _SIM_SWEEP),
        "f_stop_ghz": ("f_stop", 1e9, 5e9, _SIM_SWEEP),
        "n_points": ("n_points", range(2, MAX_GRID_POINTS + 1), 1001, _SIM_SWEEP),
    },
    "incidence": {
        "theta_deg": ("thetas", list, [0.0], _SIM_SWEEP),
        "pol": ("pols", list, ["TE"], _SIM_SWEEP),
    },
    "output": {
        "csv": ("csv_name", str, "response.csv", ("simulate",)),
        "touchstone": ("touchstone_name", str, None, ("simulate",)),
        "metrics_csv": ("metrics_csv_name", str, "metrics.csv", ("sweep-w",)),
    },
    "sweep": {"w_mm": ("widths", list, _REQUIRED, ("sweep-w",))},
    "synthesize": {
        "f_p_ghz": ("f_passband", 1e9, _REQUIRED, ("synthesize",)),
        "f_z_ghz": ("f_zero", 1e9, _REQUIRED, ("synthesize",)),
        "c1_pf": ("c1", 1e-12, _REQUIRED, ("synthesize",)),
        "q_target": ("q_target", 1.0, None, ("synthesize",)),
        "fbw_target": ("fbw_target", 1.0, None, ("synthesize",)),
        "w_min_mm": ("w_min", 1e-3, 0.3e-3, ("synthesize",)),
        "w_max_mm": ("w_max", 1e-3, 3e-3, ("synthesize",)),
    },
    "fit": {
        "touchstone": ("fit_touchstone", Path, _REQUIRED, ("fit",)),
        "free": ("free", list, _REQUIRED, ("fit",)),
        "initial": ("initial", dict, {}, ("fit",)),
        "bounds": ("bounds", dict, {}, ("fit",)),
    },
    "analyze": {"touchstone": ("analyze_touchstone", Path, _REQUIRED, ("analyze",))},
}

#: fit parameter key -> (CircuitParams field, SI multiplier)
_FIT_KEYS = {key: spec[:2] for key, spec in _SCHEMA["circuit"].items() if spec[0] in FITTABLE}

_TYPE_NAMES = {bool: "true or false", str: "a string", list: "a non-empty list", dict: "an object"}


@dataclass
class RunConfig:
    mode: str
    circuit: CircuitParams | None = None
    mirrored: bool | None = None
    geometry: GeometryParams | None = None
    calibration: CalibrationConstants | None = None
    ring_l1: float | None = None
    ring_c1: float | None = None
    grid: FrequencyGrid | None = None
    incidence: tuple[IncidenceCondition, ...] = ()
    csv_name: str | None = None
    s2p_names: tuple[str, ...] = ()  # one per incidence condition, in its order
    metrics_csv_name: str | None = None
    sweep_widths_mm: tuple[float, ...] = ()
    design: DesignSpec | None = None
    width_range: tuple[float, float] | None = None
    fit_touchstone: str | None = None
    fit_free: tuple[str, ...] = ()
    fit_initial: dict[str, float] = field(default_factory=dict)
    fit_bounds: dict[str, tuple[float, float]] = field(default_factory=dict)
    analyze_touchstone: str | None = None


def _check_keys(block: dict, allowed: set[str], context: str) -> None:
    unknown = sorted(set(block) - allowed)
    if unknown:
        raise ConfigError(
            f"unknown key(s) in '{context}': {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


def _reject_unread(mode: str, names: list[str], why: str = "") -> None:
    if names:
        raise ConfigError(f"mode '{mode}' does not use {', '.join(names)}{why}")


def _value(name: str, value: Any, kind: Any) -> Any:
    """One value checked against its schema kind; numbers come back scaled to SI."""
    if kind is Path:
        if not (isinstance(value, str) and Path(value).is_file()):
            raise ConfigError(f"'{name}' must name an existing file; {value!r} does not exist")
        return value
    if kind in _TYPE_NAMES:
        if not isinstance(value, kind) or (kind is list and not value):
            raise ConfigError(f"'{name}' must be {_TYPE_NAMES[kind]}")
        if kind is str and value and (Path(value).name != value or value == ".." or "\0" in value):
            raise ConfigError(f"'{name}' must be a bare file name inside the output directory, got {value!r}")
        return value
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # not a number, or an integer beyond the float range
        finite = False
    if not finite:
        raise ConfigError(f"'{name}' must be a finite number")
    if kind is int or kind.__class__ is range:
        if not float(value).is_integer():
            raise ConfigError(f"'{name}' must be an integer")
        value = int(float(value))
        if kind is not int and value not in kind:
            raise ConfigError(f"'{name}' must be an integer from {kind.start} to {kind.stop - 1}")
        return value
    return float(value) * kind


def _read(given: dict, block: str, mode: str) -> dict[str, Any]:
    """The block's values by target field for the keys the mode reads, given ones checked and scaled."""
    values = {}
    for key, (target, kind, default, modes) in _SCHEMA[block].items():
        if mode not in modes:
            continue
        value = _value(f"{block}.{key}", given[key], kind) if key in given else default
        if value is _REQUIRED:
            raise ConfigError(f"mode '{mode}' requires field '{block}.{key}'")
        values[target] = value
    return values


def _build(cls: Callable, block: str, values: dict[str, Any]) -> Any:
    try:
        return cls(**values)
    except FssError as exc:
        raise ConfigError(f"invalid {block} block: {exc}") from exc


def _incidence(thetas: list, pols: list) -> tuple[IncidenceCondition, ...]:
    """Every (theta, pol) pair, theta outermost."""
    if not all(pol in ("TE", "TM") for pol in pols):
        raise ConfigError(f"'incidence.pol' entries must be 'TE' or 'TM', got {pols!r}")
    conditions = []
    for theta in thetas:
        radians = math.radians(_value("incidence.theta_deg", theta, 1.0))
        try:
            conditions += [IncidenceCondition(radians, Polarization[pol]) for pol in pols]
        except FssError as exc:
            raise ConfigError(f"invalid incidence angle {theta}: {exc}") from exc
    return tuple(conditions)


def _condition_token(inc: IncidenceCondition) -> str:
    deg = math.degrees(inc.theta)
    token = f"{deg:g}".replace(".", "p")
    return f"{inc.polarization.value.lower()}{token}deg"


def _fit_settings(cfg: RunConfig, free: list, initial: dict, bounds: dict) -> None:
    """Checked free parameters with SI starts and boxes; by default the circuit value, /4 to x4."""
    for name in free:
        if not (isinstance(name, str) and name in _FIT_KEYS):
            raise ConfigError(f"unknown fit parameter {name!r}; allowed: {', '.join(_FIT_KEYS)}")
    for part, given in (("initial", initial), ("bounds", bounds)):
        _check_keys(given, set(_FIT_KEYS), f"fit.{part}")
        _reject_unread("fit", [f"fit.{part}.{k}" for k in given if k not in free], " (not in fit.free)")
    cfg.fit_free = tuple(free)
    for name in free:
        circ_field, mult = _FIT_KEYS[name]
        start = getattr(cfg.circuit, circ_field)
        if name in initial:
            start = _value(f"fit.initial.{name}", initial[name], mult)
        if name in bounds:
            pair = bounds[name]
            if not (isinstance(pair, list) and len(pair) == 2):
                raise ConfigError(f"'fit.bounds.{name}' must be a [low, high] pair")
            lo, hi = (_value(f"fit.bounds.{name}", x, mult) for x in pair)
        else:
            lo, hi = start / 4.0, start * 4.0
        cfg.fit_initial[circ_field] = start
        cfg.fit_bounds[circ_field] = (lo, hi)
    fields = tuple(_FIT_KEYS[name][0] for name in free)
    _build(check_fit_settings, "fit", dict(free=fields, initial=cfg.fit_initial, bounds=cfg.fit_bounds))


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration against _SCHEMA."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer of over 4300 digits
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("config is nested too deeply to parse") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    _check_keys(doc, {"mode", *_SCHEMA}, "config")
    mode = doc.get("mode")
    if mode is None:
        raise ConfigError("mode required")
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {', '.join(MODES)}")
    unread = []
    for block, keys in _SCHEMA.items():
        given = doc.setdefault(block, {})
        if not isinstance(given, dict):
            raise ConfigError(f"'{block}' must be an object")
        _check_keys(given, set(keys), block)
        unread += [f"{block}.{key}" for key in given if mode not in keys[key][3]]
    _reject_unread(mode, unread)
    values = {block: _read(doc[block], block, mode) for block in _SCHEMA}
    touchstone = values["output"].pop("touchstone_name", None)
    cfg = RunConfig(mode=mode, **values["output"], **values["analyze"])
    circuit = values["circuit"]
    if mode in _SIM_FIT:
        if circuit["order"] != 2:  # one layer: no gap, nothing to mirror
            one_layer = [f"circuit.{key}" for key in ("h1_mm", "mirrored") if key in doc["circuit"]]
            _reject_unread(mode, one_layer, f" with circuit.order {circuit['order']}")
            circuit["h1"] = None
        cfg.mirrored = circuit.pop("mirrored")
        cfg.circuit = _build(CircuitParams, "circuit", circuit)
    if mode in _SIM_SWEEP:
        cfg.grid = _build(FrequencyGrid, "grid", values["grid"])
        cfg.incidence = _incidence(**values["incidence"])
    if mode == "simulate":
        held = len(cfg.incidence) * cfg.grid.n_points
        if held > MAX_GRID_POINTS:
            raise ConfigError(
                f"{len(cfg.incidence)} incidence conditions x grid.n_points {cfg.grid.n_points} = {held} "
                f"points, above the {MAX_GRID_POINTS} that mode 'simulate' holds"
            )
        # a condition's token names its .s2p file and its CSV columns
        angles: dict[str, float] = {}
        for inc in cfg.incidence:
            token = _condition_token(inc)
            if token in angles:
                raise ConfigError(
                    f"incidence angles {angles[token]:.12g} and {math.degrees(inc.theta):.12g} "
                    f"both give condition '{token}', whose outputs would overwrite each other"
                )
            angles[token] = math.degrees(inc.theta)
        if touchstone:
            stem = Path(touchstone)
            cfg.s2p_names = tuple(f"{stem.stem}_{token}{stem.suffix or '.s2p'}" for token in angles)
        if cfg.csv_name in cfg.s2p_names:
            raise ConfigError(
                f"output.csv {cfg.csv_name!r} is also the Touchstone file of a condition; "
                f"the two outputs would overwrite each other"
            )
    if mode in _DESIGN:
        geometry = values["geometry"]
        # a template: every evaluation replaces the width, so any inside the cell will do
        geometry["strip_width"] = geometry["period"] / 2
        cfg.geometry = _build(GeometryParams, "geometry", geometry)
        cfg.calibration = _build(CalibrationConstants, "calibration", values["calibration"])

    if mode == "sweep-w":
        cfg.ring_l1, cfg.ring_c1 = circuit["L1"], circuit["C1"]
        _build(params_from_geometry, "circuit",  # its CircuitParams checks the ring values
               dict(g=cfg.geometry, cal=cfg.calibration, l1=cfg.ring_l1, c1=cfg.ring_c1))
        widths = (_value("sweep.w_mm", w, 1.0) for w in values["sweep"]["widths"])
        cfg.sweep_widths_mm = tuple(sorted(widths))
        if len(cfg.incidence) > 1:
            raise ConfigError(f"mode 'sweep-w' takes one incidence condition, got {len(cfg.incidence)}")
    if mode == "synthesize":
        synth, synth_given = values["synthesize"], doc["synthesize"]
        cfg.width_range = (synth.pop("w_min"), synth.pop("w_max"))
        cfg.design = _build(DesignSpec, "synthesize", synth)
        if cfg.design.fbw_target is None:
            width_keys = [f"{block}.{key}" for block in ("geometry", "calibration") for key in doc[block]]
            width_keys += [f"synthesize.{key}" for key in ("w_min_mm", "w_max_mm") if key in synth_given]
            _reject_unread(mode, width_keys, " without synthesize.fbw_target")
        _build(check_width_range, "synthesize", dict(w_range=cfg.width_range, period=cfg.geometry.period))
    if mode == "fit":
        cfg.fit_touchstone = values["fit"].pop("fit_touchstone")
        _fit_settings(cfg, **values["fit"])
    return cfg


# ---------------------------------------------------------------------------
# output helpers


def _write_response_csv(path: Path, curves: Sequence[ResponseCurve]) -> None:
    header = ["f_ghz"]
    table = np.empty((len(curves[0]), 1 + 2 * len(curves)))
    np.divide(curves[0].freqs, 1e9, out=table[:, 0])
    for i, curve in enumerate(curves):
        token = _condition_token(curve.incidence)
        header += [f"s11_db_{token}", f"s21_db_{token}"]
        for j, s in enumerate((curve.s11, curve.s21), start=1 + 2 * i):
            np.maximum(_db(np.abs(s)), -200.0, out=table[:, j])
    with create(path) as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.writelines(format_g12(table))


_METRIC_FIELDS = (
    ("f_c_ghz", lambda m: m.f_c / 1e9),
    ("bw_3db_ghz", lambda m: m.bw_3db / 1e9),
    ("fbw", lambda m: m.fbw),
    ("q_loaded", lambda m: m.q_loaded),
    ("insertion_loss_db", lambda m: m.insertion_loss_db),
    ("f_zero_ghz", lambda m: None if m.f_zero is None else m.f_zero / 1e9),
)


def _metrics_dict(m: PassbandMetrics) -> dict[str, float | None]:
    return {name: get(m) for name, get in _METRIC_FIELDS}


def _write_metrics_csv(path: Path, rows: Sequence[dict[str, float | None]]) -> None:
    header = "w_mm," + ",".join(name for name, _ in _METRIC_FIELDS)
    table = np.array([list(row.values()) for row in rows], float).reshape(-1, 1 + len(_METRIC_FIELDS))
    with create(path) as fh:
        fh.write((header + "\n").encode())
        fh.writelines(format_g12(table))


# ---------------------------------------------------------------------------
# modes


def _condition(curve: ResponseCurve) -> dict[str, Any]:
    inc = curve.incidence
    return {"theta_deg": math.degrees(inc.theta), "polarization": inc.polarization.value}


def _run_simulate(cfg: RunConfig, out_dir: Path) -> dict:
    net = build_network(cfg.circuit, mirrored=cfg.mirrored)
    curves = sweep_conditions(net, cfg.grid, cfg.incidence)

    artifacts: list[str] = []
    if cfg.csv_name:
        csv_path = out_dir / cfg.csv_name
        _write_response_csv(csv_path, curves)
        artifacts.append(str(csv_path))
    for name, curve in zip(cfg.s2p_names, curves):
        ts_path = out_dir / name
        write_touchstone(curve, ts_path)
        artifacts.append(str(ts_path))

    conditions = []
    for curve in curves:
        entry = _condition(curve)
        try:
            entry["metrics"] = _metrics_dict(extract_metrics(curve))
        except FssError as exc:
            entry["error"] = str(exc)
        conditions.append(entry)
    return {"mode": "simulate", "conditions": conditions, "artifacts": artifacts}


def _run_sweep_w(cfg: RunConfig, out_dir: Path) -> dict:
    rows, failures = [], []
    metrics_at = width_evaluator(
        cfg.geometry, cfg.calibration, cfg.ring_l1, cfg.ring_c1, cfg.grid, cfg.incidence[0]
    )
    for w_mm in cfg.sweep_widths_mm:
        try:
            rows.append(dict(w_mm=w_mm, **_metrics_dict(metrics_at(w_mm * 1e-3))))
        except FssError as exc:
            failures.append({"w_mm": w_mm, "error": str(exc)})
    artifacts: list[str] = []
    if cfg.metrics_csv_name:
        path = out_dir / cfg.metrics_csv_name
        _write_metrics_csv(path, rows)
        artifacts.append(str(path))
    return {"mode": "sweep-w", "rows": rows, "failures": failures, "artifacts": artifacts}


def _run_synthesize(cfg: RunConfig, out_dir: Path) -> dict:
    lc = synthesize_lc(cfg.design)
    report: dict[str, Any] = {
        "mode": "synthesize",
        "l_nh": lc.l * 1e9,
        "l1_nh": lc.l1 * 1e9,
        "c1_pf": lc.c1 * 1e12,
        "artifacts": [],
    }
    if cfg.design.q_target is not None:
        report["loss_budget_ohm"] = loss_budget_for_q(cfg.design.q_target, lc.l, lc.l1, lc.c1)
    if cfg.design.fbw_target is not None:
        w = width_for_bandwidth(
            cfg.design.fbw_target,
            cfg.geometry,
            cfg.calibration,
            lc.l1,
            lc.c1,
            cfg.width_range,
        )
        report["strip_width_mm"] = w * 1e3
    return report


def _run_fit(cfg: RunConfig, out_dir: Path) -> dict:
    observed = read_touchstone(cfg.fit_touchstone)
    free = tuple(_FIT_KEYS[name][0] for name in cfg.fit_free)
    problem = FitProblem(
        observed=observed,
        base=cfg.circuit,
        free=free,
        initial=cfg.fit_initial,
        bounds=cfg.fit_bounds,
        mirrored=cfg.mirrored,
    )
    result = fit_circuit(problem)
    fitted = {}
    for name in cfg.fit_free:
        circ_field, mult = _FIT_KEYS[name]
        fitted[name] = result.params[circ_field] / mult
    return {
        "mode": "fit",
        "fitted": fitted,
        "residual_norm": result.residual_norm,
        "iterations": result.iterations,
        "converged": result.converged,
        "message": result.message,
        "artifacts": [],
    }


def _run_analyze(cfg: RunConfig, out_dir: Path) -> dict:
    curve = read_touchstone(cfg.analyze_touchstone)
    entry = {**_condition(curve), "metrics": _metrics_dict(extract_metrics(curve))}
    return {"mode": "analyze", "conditions": [entry], "artifacts": []}


_RUNNERS = {
    "simulate": _run_simulate,
    "sweep-w": _run_sweep_w,
    "synthesize": _run_synthesize,
    "fit": _run_fit,
    "analyze": _run_analyze,
}
MODES = tuple(_RUNNERS)


def run(cfg: RunConfig, out_dir: str | os.PathLike) -> dict:
    """Execute one mode, writing artifacts under out_dir; returns the summary."""
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[cfg.mode](cfg, out_path)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call in a process."""
    parser = argparse.ArgumentParser(
        prog="fsskit",
        description="Transfer-matrix simulator and design tool for narrowband "
        "bandpass frequency selective surfaces.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run configuration")
    parser.add_argument(
        "--out-dir",
        default=None,
        help=f"output directory (default ./out, or ${OUT_DIR_ENV} when set)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    out_dir = args.out_dir or os.environ.get(OUT_DIR_ENV) or "out"

    try:
        # one byte-order mark at the very start is dropped (RFC 8259, section 8.1)
        text = Path(args.config).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO
    except UnicodeDecodeError as exc:
        print(f"config error: config is not UTF-8: {exc.reason} at byte offset {exc.start}",
              file=sys.stderr)
        return EXIT_CONFIG

    try:
        with np.errstate(all="ignore"):  # every array reported is checked: an overflow is one typed error
            summary = run(parse_config(text), out_dir=out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TouchstoneError as exc:
        print(f"input data error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except FssError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO

    print(json.dumps(summary, indent=2))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
