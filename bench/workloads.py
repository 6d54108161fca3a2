"""Seeded inputs, operations and correctness checks of the three workloads.

Every workload writes its configs and input files under its own directory
before timing starts; `--seed` is the only source of variation.  An
operation is one `fsskit.cli.main()` call on one of those configs.  A round
is the list of operations that repeats unchanged, so whole rounds do the
same work in every run of a seed:

    oblique_io    1 simulate (CSV + 8 .s2p) then 8 analyze, one per file
    fit_solve     per pool start: 1 fit then 2 analyze of the measured file
    width_design  per pair of FBW targets: 1 sweep-w (16 widths) then 2 synthesize

Checks run outside the timed region and return a list of problems; an
empty list means the operation's output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import reference

#: call(config_path) -> (exit code, seconds, captured stdout)
Call = Callable[[Path], "tuple[int, float, str]"]
Check = Callable[[dict], "list[str]"]


@dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is what the benchmark measures, TINY is for the self-test."""

    oblique_points: int
    fit_points: int
    fit_starts: int
    widths: int
    width_points: int
    fbw_targets: int
    min_primary_ops: int


FULL = Sizes(oblique_points=2001, fit_points=401, fit_starts=100, widths=16,
             width_points=20001, fbw_targets=50, min_primary_ops=100)
TINY = Sizes(oblique_points=201, fit_points=401, fit_starts=2, widths=3,
             width_points=401, fbw_targets=2, min_primary_ops=1)

#: Circuit block of the shipped configs/oblique_study.json.
SHIPPED_CIRCUIT = {"l_nh": 2.85, "l1_nh": 1.61, "c1_pf": 0.6, "r_ohm": 0.1,
                   "r1_ohm": 0.1, "h_mm": 0.254, "eps_r": 2.2, "h1_mm": 10.0}
LOSS_TANGENT = 0.0009  # the program's default spacer loss, left unset in configs
SHIPPED_SYNTH = {"f_p_ghz": 3.0766427982933, "f_z_ghz": 5.1207263563633, "c1_pf": 0.6,
                 "q_target": 431.08, "w_min_mm": 0.3, "w_max_mm": 3.0}
FBW_TOL = 1e-3  # width_for_bandwidth's default tolerance
REF_TOL = 1e-9  # relative |s11|, |s21| agreement with the reference model


@dataclass(frozen=True)
class Op:
    primary: bool
    config: Path
    check: Check


def parse_summary(rc: int, stdout: str) -> tuple[dict | None, list[str]]:
    if rc != 0:
        return None, [f"exit code {rc}"]
    try:
        return json.loads(stdout), []
    except json.JSONDecodeError as exc:
        return None, [f"summary is not JSON: {exc}"]


def _ladder(circuit: dict, order: int) -> reference.Ladder:
    return reference.Ladder(
        L=circuit["l_nh"] * 1e-9, L1=circuit["l1_nh"] * 1e-9, C1=circuit["c1_pf"] * 1e-12,
        R=circuit["r_ohm"], R1=circuit["r1_ohm"], h=circuit["h_mm"] * 1e-3,
        eps_r=circuit["eps_r"], loss_tangent=LOSS_TANGENT, order=order,
        h1=circuit.get("h1_mm", 0.0) * 1e-3,
    )


def _close(a, b, rel: float) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _metrics_agree(got: dict, want: dict, rel: float = 1e-6) -> list[str]:
    return [f"{k}: {got.get(k)} != {v}" for k, v in want.items() if not _close(got.get(k), v, rel)]


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Workload:
    """Inputs under `root`, program calls through `call`."""

    name = ""

    def __init__(self, root: Path, seed: int, sizes: Sizes, call: Call):
        self.root = root
        self.rng = random.Random(f"{self.name}:{seed}")
        self.sizes = sizes
        self.call = call
        root.mkdir(parents=True, exist_ok=True)

    def write_config(self, name: str, doc: dict) -> Path:
        path = self.root / name
        path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
        return path

    def untimed(self, config: Path) -> tuple[dict | None, list[str]]:
        """One call outside the timed region: (summary, problems)."""
        rc, _, stdout = self.call(config)
        return parse_summary(rc, stdout)

    def run_checked(self, config: Path, check: Check) -> list[str]:
        """One untimed call with its check, for the warm-up round."""
        summary, problems = self.untimed(config)
        return problems if summary is None else check(summary)

    def compare_with_reference(self, s2p, ladder, theta_deg=0.0, tm=False) -> list[str]:
        err = reference.max_rel_error(s2p, ladder, math.radians(theta_deg), tm)
        if not err <= REF_TOL:
            return [f"reference check: {Path(s2p).name} deviates by {err:.3e} relative"]
        return []

    def prepare(self) -> list[str]:
        """Write inputs, warm up, and check one condition against the reference."""
        raise NotImplementedError

    def ops(self) -> list[Op]:
        """One round."""
        raise NotImplementedError

    def final_check(self) -> list[str]:
        """Reference check on the output of the run's last operations."""
        raise NotImplementedError

    def input_sizes(self) -> dict:
        raise NotImplementedError


class ObliqueIO(Workload):
    """Write-heavy then read-heavy: simulate writes CSV + one .s2p per condition."""

    name = "oblique_io"

    def prepare(self) -> list[str]:
        r = self.rng
        self.circuit = {"order": 2} | {
            k: round(v * r.uniform(0.9, 1.1), 6) for k, v in SHIPPED_CIRCUIT.items()}
        # one angle per 15-degree stratum of [0, 60), so every seed spans the range
        self.angles = [round(15.0 * i + 14.99 * r.random(), 2) for i in range(4)]
        self.conditions = [(a, pol) for a in self.angles for pol in ("TE", "TM")]
        self.primary = self.write_config("simulate.json", {
            "mode": "simulate",
            "circuit": self.circuit,
            "grid": {"f_start_ghz": 1.0, "f_stop_ghz": 5.0,
                     "n_points": self.sizes.oblique_points},
            "incidence": {"theta_deg": self.angles, "pol": ["TE", "TM"]},
            "output": {"csv": "oblique.csv", "touchstone": "cond.s2p"},
        })
        self.hashes: dict[str, str] = {}
        summary, problems = self.untimed(self.primary)
        if summary is None:
            return problems
        problems += self._check_conditions(summary)
        artifacts = summary.get("artifacts", [])
        if len(artifacts) != 1 + len(self.conditions):
            return problems + [f"expected CSV + {len(self.conditions)} .s2p, got {artifacts}"]
        self.hashes = {p: _sha256(p) for p in artifacts}
        self.s2p = artifacts[1:]
        self.analyze = [
            self.write_config(f"analyze_{k}.json",
                              {"mode": "analyze", "analyze": {"touchstone": path}})
            for k, path in enumerate(self.s2p)]
        self.last = summary
        for op in self.ops()[1:]:
            problems += self.run_checked(op.config, op.check)
        return problems + self.final_check()

    def _check_conditions(self, summary: dict) -> list[str]:
        conds = summary.get("conditions", [])
        problems = [f"condition {k}: {c['error']}" for k, c in enumerate(conds) if "error" in c]
        if len(conds) != len(self.conditions):
            problems.append(f"{len(conds)} conditions reported, {len(self.conditions)} expected")
        return problems

    def _check_primary(self, summary: dict) -> list[str]:
        problems = self._check_conditions(summary)
        for path, digest in self.hashes.items():
            if _sha256(path) != digest:
                problems.append(f"{Path(path).name} differs from the warm-up output")
        if summary.get("artifacts") != list(self.hashes):
            problems.append("artifact list differs from the warm-up run")
        self.last = summary
        return problems

    def _check_analyze(self, k: int) -> Check:
        theta, pol = self.conditions[k]

        def check(summary: dict) -> list[str]:
            got = (summary.get("conditions") or [{}])[0]
            want = self.last["conditions"][k]
            problems = _metrics_agree(got.get("metrics", {}), want.get("metrics", {}))
            if not (_close(got.get("theta_deg"), theta, 1e-9) and got.get("polarization") == pol):
                problems.append(f"analyze of condition {k} reports the wrong incidence")
            return [f"analyze {k}: {p}" for p in problems]

        return check

    def ops(self) -> list[Op]:
        return [Op(True, self.primary, self._check_primary)] + [
            Op(False, cfg, self._check_analyze(k)) for k, cfg in enumerate(self.analyze)]

    def final_check(self) -> list[str]:
        # the largest-angle TM condition: oblique incidence on the TM branch
        theta, pol = self.conditions[-1]
        return self.compare_with_reference(
            self.s2p[-1], _ladder(self.circuit, 2), theta, tm=pol == "TM")

    def input_sizes(self) -> dict:
        return {"points": self.sizes.oblique_points, "conditions": len(self.conditions),
                "files_written": 1 + len(self.conditions), "files_read": len(self.conditions)}


def _latin_hypercube(rng: random.Random, n: int, dims: int) -> list[list[float]]:
    """n points in [0, 1)^dims with exactly one point per 1/n slice of each axis."""
    cols = []
    for _ in range(dims):
        strata = list(range(n))
        rng.shuffle(strata)
        cols.append([(s + rng.random()) / n for s in strata])
    return [list(row) for row in zip(*cols)]


class FitSolve(Workload):
    """Levenberg-Marquardt fit of L/L1/C1 to a measured-style dB/MHz file."""

    name = "fit_solve"
    FREE = ("l_nh", "l1_nh", "c1_pf")
    #: criterion 8's perturbation pattern: L high, L1 low, C1 high
    SIGNS = (1.0, -1.0, 1.0)

    def prepare(self) -> list[str]:
        r = self.rng
        # the truth is criterion 8's published circuit; the seed picks the starts
        self.truth = dict(SHIPPED_CIRCUIT)
        ladder = _ladder(self.truth, 2)
        grid = {"f_start_ghz": 1.0, "f_stop_ghz": 5.0, "n_points": self.sizes.fit_points}
        f = np.linspace(1e9, 5e9, self.sizes.fit_points)
        s11, s21 = reference.s_params(ladder, f)
        self.measured = self.root / "measured.s2p"
        reference.write_s2p_db_mhz(self.measured, f, s11, s21)

        # starts 10-28 % off the truth, stratified so every seed covers the range
        self.fits = []
        for k, u in enumerate(_latin_hypercube(r, self.sizes.fit_starts, len(self.FREE))):
            start = {name: self.truth[name] * (1.0 + sign * (0.1 + 0.18 * x))
                     for name, sign, x in zip(self.FREE, self.SIGNS, u)}
            self.fits.append(self.write_config(f"fit_{k:02d}.json", self._fit_config(start)))
        # the warm-up fit starts from criterion 8's own start, so set-up work
        # does not depend on the seed
        warmup = self.write_config("fit_warmup.json", self._fit_config(
            {name: self.truth[name] * (1.0 + 0.3 * sign)
             for name, sign in zip(self.FREE, self.SIGNS)}))
        self.analyze = self.write_config(
            "analyze.json", {"mode": "analyze", "analyze": {"touchstone": str(self.measured)}})
        self.simulate = self.write_config("simulate.json", {
            "mode": "simulate", "circuit": {"order": 2} | self.truth, "grid": grid,
            "output": {"touchstone": "truth.s2p"},
        })
        return (self.final_check() + self.run_checked(warmup, self._check_fit)
                + self.run_checked(self.analyze, self._check_analyze))

    def _fit_config(self, start: dict) -> dict:
        return {
            "mode": "fit",
            "circuit": {"order": 2} | self.truth | start,
            # no bounds: the CLI's default box is start / 4 to start * 4
            "fit": {"touchstone": str(self.measured), "free": list(self.FREE),
                    "initial": start},
        }

    def _check_fit(self, summary: dict) -> list[str]:
        problems = []
        if summary.get("converged") is not True:
            problems.append(f"fit did not converge: {summary.get('message')}")
        if not summary.get("residual_norm", math.inf) < 1e-6:
            problems.append(f"residual {summary.get('residual_norm')} >= 1e-6")
        fitted = summary.get("fitted", {})
        for name in self.FREE:
            if not _close(fitted.get(name), self.truth[name], 0.01):
                problems.append(f"{name} = {fitted.get(name)} not within 1% of {self.truth[name]}")
        return problems

    def _check_analyze(self, summary: dict) -> list[str]:
        got = (summary.get("conditions") or [{}])[0]
        return [f"analyze: {p}" for p in _metrics_agree(got.get("metrics", {}), self.metrics)]

    def ops(self) -> list[Op]:
        # two analyze ops per fit, so the short aux op has twice the samples
        analyze = Op(False, self.analyze, self._check_analyze)
        ops = []
        for cfg in self.fits:
            ops += [Op(True, cfg, self._check_fit), analyze, analyze]
        return ops

    def final_check(self) -> list[str]:
        """Simulate the truth circuit and compare the written .s2p with the reference."""
        summary, problems = self.untimed(self.simulate)
        if summary is None:
            return ["reference simulate: " + p for p in problems]
        self.metrics = summary["conditions"][0].get("metrics", {})
        return self.compare_with_reference(summary["artifacts"][-1], _ladder(self.truth, 2))

    def input_sizes(self) -> dict:
        return {"points": self.sizes.fit_points, "free_parameters": len(self.FREE),
                "starts": len(self.fits)}


class WidthDesign(Workload):
    """Dense-grid strip-width sweep and width synthesis on a first-order cell."""

    name = "width_design"
    L1_NH, C1_PF = 1.61, 0.6

    def prepare(self) -> list[str]:
        r, n = self.rng, self.sizes.widths
        self.widths = [round(0.3 + 2.7 * (i + r.random()) / n, 4) for i in range(n)]
        m = self.sizes.fbw_targets
        self.targets = [round(0.18 + 0.30 * (i + r.random()) / m, 4) for i in range(m)]
        self.sweep = self.write_config("sweep.json", {
            "mode": "sweep-w",
            "circuit": {"l1_nh": self.L1_NH, "c1_pf": self.C1_PF},
            "grid": {"f_start_ghz": 1.0, "f_stop_ghz": 5.0, "n_points": self.sizes.width_points},
            "sweep": {"w_mm": self.widths},
            "output": {"metrics_csv": "width_metrics.csv"},
        })
        self.synth = [
            self.write_config(f"synth_{k:02d}.json",
                              {"mode": "synthesize", "synthesize": SHIPPED_SYNTH | {"fbw_target": t}})
            for k, t in enumerate(self.targets)]
        self.verified: dict[float, float] = {}
        problems = self.final_check()
        for op in self.ops()[:2]:
            problems += self.run_checked(op.config, op.check)
        return problems

    def _check_sweep(self, summary: dict) -> list[str]:
        problems = [f"w = {f['w_mm']} mm: {f['error']}" for f in summary.get("failures", [])]
        rows = summary.get("rows", [])
        if [row["w_mm"] for row in rows] != sorted(self.widths):
            problems.append("sweep rows do not match the requested widths")
        fbw = [row["fbw"] for row in rows]
        if any(b >= a for a, b in zip(fbw, fbw[1:])):
            problems.append("FBW is not strictly decreasing in w")
        return problems

    def _check_synth(self, target: float) -> Check:
        def check(summary: dict) -> list[str]:
            w_mm = summary.get("strip_width_mm")
            if w_mm is None:
                return [f"no strip width for fbw_target {target}"]
            if target not in self.verified:
                problems = self._verify_width(target, w_mm)
                if problems:
                    return problems
                self.verified[target] = w_mm
            if w_mm != self.verified[target]:
                return [f"fbw_target {target}: width {w_mm} differs from verified "
                        f"{self.verified[target]}"]
            return []

        return check

    def _verify_width(self, target: float, w_mm: float) -> list[str]:
        """Re-simulate the synthesized width on the solver's own grid."""
        f_p, f_z, c1 = (SHIPPED_SYNTH[k] for k in ("f_p_ghz", "f_z_ghz", "c1_pf"))
        c1 *= 1e-12
        l1 = 1.0 / ((2 * math.pi * f_z * 1e9) ** 2 * c1)
        l_wide = reference.ladder_at_width(SHIPPED_SYNTH["w_min_mm"] * 1e-3, l1, c1).L
        f_low = 1.0 / (2 * math.pi * math.sqrt((l_wide + l1) * c1))
        cfg = self.write_config("verify_synth.json", {
            "mode": "sweep-w",
            "circuit": {"l1_nh": l1 * 1e9, "c1_pf": c1 * 1e12},
            "grid": {"f_start_ghz": 0.35 * f_low / 1e9, "f_stop_ghz": 1.2 * f_z,
                     "n_points": 2001},
            "sweep": {"w_mm": [w_mm]},
            "output": {"metrics_csv": "verify_synth.csv"},
        })
        summary, problems = self.untimed(cfg)
        if summary is None or not summary.get("rows"):
            return [f"verifying fbw_target {target}: {problems or summary.get('failures')}"]
        fbw = summary["rows"][0]["fbw"]
        if not abs(fbw - target) < FBW_TOL:
            return [f"width {w_mm} mm gives FBW {fbw}, target {target}"]
        return []

    def ops(self) -> list[Op]:
        # two synthesize ops per sweep, so the short aux op has twice the samples
        synth = [Op(False, cfg, self._check_synth(t)) for t, cfg in zip(self.targets, self.synth)]
        half = len(synth) // 2
        ops = []
        for first, second in zip(synth[:half], synth[half:]):
            ops += [Op(True, self.sweep, self._check_sweep), first, second]
        return ops

    def final_check(self) -> list[str]:
        """Simulate the narrowest swept width and compare with the reference."""
        w = min(self.widths)
        ladder = reference.ladder_at_width(w * 1e-3, self.L1_NH * 1e-9, self.C1_PF * 1e-12)
        cfg = self.write_config("simulate.json", {
            "mode": "simulate",
            "circuit": {"order": 1, "l_nh": ladder.L * 1e9, "l1_nh": self.L1_NH,
                        "c1_pf": self.C1_PF, "r_ohm": ladder.R, "r1_ohm": ladder.R1,
                        "h_mm": 0.254, "eps_r": 2.2},
            "grid": {"f_start_ghz": 1.0, "f_stop_ghz": 5.0, "n_points": 2001},
            "output": {"touchstone": "narrowest.s2p"},
        })
        summary, problems = self.untimed(cfg)
        if summary is None:
            return ["reference simulate: " + p for p in problems]
        return self.compare_with_reference(summary["artifacts"][-1], ladder)

    def input_sizes(self) -> dict:
        return {"points": self.sizes.width_points, "widths": len(self.widths),
                "fbw_targets": len(self.targets), "synth_grid_points": 2001}


WORKLOADS = {cls.name: cls for cls in (ObliqueIO, FitSolve, WidthDesign)}
