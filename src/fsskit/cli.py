"""Command-line front end: JSON run configs, CSV/Touchstone export.

Usage: fsskit --config run.json [--out-dir DIR]

All physical inputs live in the config file; field names carry their
units as suffixes (l_nh, h_mm, f_start_ghz, ...).  Outputs are
deterministic: repeated runs of the same config produce byte-identical
files.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .analysis import (
    FrequencyGrid,
    PassbandMetrics,
    ResponseCurve,
    extract_metrics,
    sweep_response,
)
from .builder import (
    DEFAULT_CALIBRATION,
    DEFAULT_EPS_R,
    DEFAULT_GEOMETRY,
    DEFAULT_LOSS_TANGENT,
    DEFAULT_RING_CAPACITANCE,
    DEFAULT_RING_INDUCTANCE,
    CalibrationConstants,
    CircuitParams,
    GeometryParams,
    build_network,
    geometry_with_width,
    params_from_geometry,
)
from .errors import ConfigError, FssError, TouchstoneError
from .synthesis import (
    DesignSpec,
    FitProblem,
    fit_circuit,
    loss_budget_for_q,
    synthesize_lc,
    width_for_bandwidth,
)
from .touchstone import format_table, read_touchstone, write_touchstone
from .twoport import IncidenceCondition, Polarization

OUT_DIR_ENV = "FSSKIT_OUT_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_IO = 4

MODES = ("simulate", "sweep-w", "synthesize", "fit", "analyze")

#: config key -> (CircuitParams field, SI multiplier)
_FIT_KEYS = {
    "l_nh": ("L", 1e-9),
    "l1_nh": ("L1", 1e-9),
    "c1_pf": ("C1", 1e-12),
    "r_ohm": ("R", 1.0),
    "r1_ohm": ("R1", 1.0),
}


@dataclass
class RunConfig:
    mode: str
    circuit: CircuitParams | None = None
    mirrored: bool = True
    geometry: GeometryParams = DEFAULT_GEOMETRY
    calibration: CalibrationConstants = DEFAULT_CALIBRATION
    ring_l1: float = DEFAULT_RING_INDUCTANCE
    ring_c1: float = DEFAULT_RING_CAPACITANCE
    grid: FrequencyGrid = field(default_factory=lambda: FrequencyGrid(1e9, 5e9, 1001))
    incidence: tuple[IncidenceCondition, ...] = ()
    csv_name: str | None = None
    touchstone_name: str | None = None
    metrics_csv_name: str | None = None
    sweep_widths_mm: tuple[float, ...] = ()
    design: DesignSpec | None = None
    width_range: tuple[float, float] = (0.3e-3, 3.0e-3)
    fit_touchstone: str | None = None
    fit_free: tuple[str, ...] = ()
    fit_initial: dict[str, float] = field(default_factory=dict)
    fit_bounds: dict[str, tuple[float, float]] = field(default_factory=dict)
    analyze_touchstone: str | None = None


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
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(block: dict, key: str, context: str, default=None, *, required_for=None):
    if key not in block:
        if required_for is not None:
            raise ConfigError(f"mode '{required_for}' requires field '{context}.{key}'")
        return default
    value = block[key]
    if not _is_number(value):
        raise ConfigError(f"'{context}.{key}' must be a number")
    return float(value)


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

    order = int(_number(block, "order", "circuit", 1))
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
            n_points=int(_number(block, "n_points", "grid", 1001)),
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
            raise ConfigError("'incidence.theta_deg' entries must be numbers")
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


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
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
            raise ConfigError("'sweep.w_mm' entries must be numbers")
        cfg.sweep_widths_mm = tuple(sorted(float(w) for w in widths))

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
                    raise ConfigError(f"'fit.bounds.{name}' must be a [low, high] pair of numbers")
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
# output helpers


def _fmt_num(x: float) -> str:
    return f"{x:.12g}"


def _condition_token(inc: IncidenceCondition) -> str:
    deg = math.degrees(inc.theta)
    token = f"{deg:g}".replace(".", "p")
    return f"{inc.polarization.value.lower()}{token}deg"


def _db_floor(mag: np.ndarray) -> np.ndarray:
    return np.maximum(20.0 * np.log10(np.maximum(mag, 1e-300)), -200.0)


def _write_response_csv(path: Path, curves: Sequence[tuple[IncidenceCondition, ResponseCurve]]) -> None:
    header = ["f_ghz"]
    columns = [curves[0][1].freqs / 1e9]
    for inc, curve in curves:
        token = _condition_token(inc)
        header += [f"s11_db_{token}", f"s21_db_{token}"]
        columns += [_db_floor(np.abs(curve.s11)), _db_floor(np.abs(curve.s21))]
    body = format_table(np.column_stack(columns), "%.12g", ",")
    path.write_text(",".join(header) + "\n" + body, encoding="utf-8")


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


def _write_metrics_csv(path: Path, rows: Sequence[tuple[float, PassbandMetrics]]) -> None:
    header = "w_mm," + ",".join(name for name, _ in _METRIC_FIELDS)
    lines = [header]
    for w_mm, m in rows:
        cells = [_fmt_num(w_mm)]
        for _, get in _METRIC_FIELDS:
            v = get(m)
            cells.append("" if v is None else _fmt_num(v))
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# modes


def _run_simulate(cfg: RunConfig, out_dir: Path) -> dict:
    net = build_network(cfg.circuit, mirrored=cfg.mirrored)
    pairs = [(inc, sweep_response(net, cfg.grid, inc)) for inc in cfg.incidence]

    artifacts: list[str] = []
    if cfg.csv_name:
        csv_path = out_dir / cfg.csv_name
        _write_response_csv(csv_path, pairs)
        artifacts.append(str(csv_path))
    if cfg.touchstone_name:
        stem = Path(cfg.touchstone_name)
        for inc, curve in pairs:
            ts_path = out_dir / f"{stem.stem}_{_condition_token(inc)}{stem.suffix or '.s2p'}"
            write_touchstone(curve, ts_path)
            artifacts.append(str(ts_path))

    conditions = []
    for inc, curve in pairs:
        entry: dict[str, Any] = {
            "theta_deg": math.degrees(inc.theta),
            "polarization": inc.polarization.value,
        }
        try:
            entry["metrics"] = _metrics_dict(extract_metrics(curve))
        except FssError as exc:
            entry["error"] = str(exc)
        conditions.append(entry)
    return {"mode": "simulate", "conditions": conditions, "artifacts": artifacts}


def _run_sweep_w(cfg: RunConfig, out_dir: Path) -> dict:
    ok_rows, failures = [], []
    for w_mm in cfg.sweep_widths_mm:
        try:
            geometry = geometry_with_width(cfg.geometry, w_mm * 1e-3)
            params = params_from_geometry(geometry, cfg.calibration, cfg.ring_l1, cfg.ring_c1)
            curve = sweep_response(build_network(params), cfg.grid, cfg.incidence[0])
            ok_rows.append((w_mm, extract_metrics(curve)))
        except FssError as exc:
            failures.append({"w_mm": w_mm, "error": str(exc)})
    artifacts: list[str] = []
    if cfg.metrics_csv_name:
        path = out_dir / cfg.metrics_csv_name
        _write_metrics_csv(path, ok_rows)
        artifacts.append(str(path))
    rows = [dict(w_mm=w_mm, **_metrics_dict(m)) for w_mm, m in ok_rows]
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
    entry = {
        "theta_deg": math.degrees(curve.incidence.theta),
        "polarization": curve.incidence.polarization.value,
        "metrics": _metrics_dict(extract_metrics(curve)),
    }
    return {"mode": "analyze", "conditions": [entry], "artifacts": []}


_RUNNERS = {
    "simulate": _run_simulate,
    "sweep-w": _run_sweep_w,
    "synthesize": _run_synthesize,
    "fit": _run_fit,
    "analyze": _run_analyze,
}


def run(cfg: RunConfig, out_dir: str | os.PathLike = "out") -> dict:
    """Execute one mode, writing artifacts under out_dir; returns the summary."""
    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[cfg.mode](cfg, out_path)


def main(argv: Sequence[str] | None = None) -> int:
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
    args = parser.parse_args(argv)

    out_dir = args.out_dir or os.environ.get(OUT_DIR_ENV) or "out"

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        summary = run(cfg, out_dir=out_dir)
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
