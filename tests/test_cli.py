"""Config parsing, run modes, export formats, determinism, exit codes."""

import json
import math
import warnings

import pytest

from fsskit import cli
from fsskit.cli import (
    EXIT_COMPUTE,
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_OK,
    main,
    parse_config,
    run,
)
from fsskit.errors import ConfigError
from fsskit.touchstone import read_touchstone
from fsskit.twoport import Polarization

REFERENCE_CIRCUIT = {
    "order": 2,
    "l_nh": 2.85,
    "l1_nh": 1.61,
    "c1_pf": 0.6,
    "r_ohm": 0.1,
    "r1_ohm": 0.1,
    "h_mm": 0.254,
    "eps_r": 2.2,
    "h1_mm": 10.0,
}


def simulate_doc(**overrides):
    doc = {
        "mode": "simulate",
        "circuit": dict(REFERENCE_CIRCUIT),
        "grid": {"f_start_ghz": 1.0, "f_stop_ghz": 5.0, "n_points": 2001},
        "output": {"csv": "response.csv", "touchstone": "response.s2p"},
    }
    doc.update(overrides)
    return doc


class TestParseConfig:
    def test_minimal_simulate(self):
        cfg = parse_config(json.dumps({"mode": "simulate", "circuit": {"l_nh": 2.85}}))
        assert cfg.mode == "simulate"
        assert cfg.circuit.L == pytest.approx(2.85e-9)
        assert cfg.circuit.order == 1
        # defaults applied
        assert cfg.circuit.L1 == pytest.approx(1.61e-9)
        assert cfg.circuit.C1 == pytest.approx(0.6e-12)
        assert cfg.circuit.eps_r == 2.2
        assert cfg.grid.n_points == 1001
        assert len(cfg.incidence) == 1 and cfg.incidence[0].theta == 0.0

    def test_reference_second_order(self):
        cfg = parse_config(json.dumps(simulate_doc()))
        assert cfg.circuit.order == 2
        assert cfg.circuit.h1 == pytest.approx(10e-3)
        assert cfg.grid.n_points == 2001

    def test_empty_document(self):
        with pytest.raises(ConfigError, match="mode required"):
            parse_config("{}")

    def test_unknown_mode(self):
        with pytest.raises(ConfigError, match="unknown mode"):
            parse_config(json.dumps({"mode": "explode"}))

    def test_incidence_study_grid(self):
        doc = simulate_doc(incidence={"theta_deg": [0, 15, 30, 45], "pol": ["TE", "TM"]})
        cfg = parse_config(json.dumps(doc))
        assert len(cfg.incidence) == 8
        degs = sorted({round(math.degrees(c.theta)) for c in cfg.incidence})
        assert degs == [0, 15, 30, 45]
        assert {c.polarization for c in cfg.incidence} == {Polarization.TE, Polarization.TM}

    def test_unknown_key_rejected_by_name(self):
        doc = simulate_doc()
        doc["circuit"]["f_start_hz"] = 1.0
        with pytest.raises(ConfigError, match="f_start_hz"):
            parse_config(json.dumps(doc))

    def test_unknown_top_level_key(self):
        doc = simulate_doc(bogus={})
        with pytest.raises(ConfigError, match="bogus"):
            parse_config(json.dumps(doc))

    def test_missing_required_field_names_mode_and_field(self):
        with pytest.raises(ConfigError, match=r"mode 'simulate' requires field 'circuit.l_nh'"):
            parse_config(json.dumps({"mode": "simulate", "circuit": {"order": 1}}))

    def test_sweep_requires_width_list(self):
        with pytest.raises(ConfigError, match=r"sweep.w_mm"):
            parse_config(json.dumps({"mode": "sweep-w"}))

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("{mode: simulate}")

    def test_fit_requires_existing_file(self, tmp_path):
        doc = {
            "mode": "fit",
            "circuit": dict(REFERENCE_CIRCUIT),
            "fit": {"touchstone": str(tmp_path / "missing.s2p"), "free": ["l_nh"]},
        }
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config(json.dumps(doc))

    def test_fit_defaults_initial_and_bounds_from_circuit(self, tmp_path):
        s2p = tmp_path / "obs.s2p"
        s2p.write_text(
            "# GHz S RI R 376.73\n"
            "1.0 0 0 1 0 1 0 0 0\n"
            "2.0 0 0 1 0 1 0 0 0\n"
        )
        doc = {
            "mode": "fit",
            "circuit": dict(REFERENCE_CIRCUIT),
            "fit": {"touchstone": str(s2p), "free": ["l_nh", "c1_pf"]},
        }
        cfg = parse_config(json.dumps(doc))
        assert cfg.fit_initial["L"] == pytest.approx(2.85e-9)
        assert cfg.fit_initial["C1"] == pytest.approx(0.6e-12)
        lo, hi = cfg.fit_bounds["L"]
        assert lo == pytest.approx(2.85e-9 / 4) and hi == pytest.approx(2.85e-9 * 4)

    def test_unknown_fit_parameter_rejected(self, tmp_path):
        s2p = tmp_path / "obs.s2p"
        s2p.write_text("# GHz S RI R 50\n1.0 0 0 1 0 1 0 0 0\n")
        doc = {
            "mode": "fit",
            "circuit": dict(REFERENCE_CIRCUIT),
            "fit": {"touchstone": str(s2p), "free": ["h_mm"]},
        }
        with pytest.raises(ConfigError, match="h_mm"):
            parse_config(json.dumps(doc))


class TestSimulateMode:
    def test_artifacts_and_summary(self, tmp_path):
        cfg = parse_config(json.dumps(simulate_doc()))
        summary = run(cfg, out_dir=tmp_path / "out")
        assert summary["mode"] == "simulate"
        assert len(summary["conditions"]) == 1
        metrics = summary["conditions"][0]["metrics"]
        assert metrics["f_c_ghz"] > 0 and metrics["fbw"] > 0
        from pathlib import Path

        assert summary["artifacts"]
        for artifact in summary["artifacts"]:
            assert Path(artifact).exists()
        assert (tmp_path / "out" / "response.csv").exists()
        assert (tmp_path / "out" / "response_te0deg.s2p").exists()

    def test_csv_agrees_with_touchstone(self, tmp_path):
        cfg = parse_config(json.dumps(simulate_doc()))
        run(cfg, out_dir=tmp_path)
        rows = (tmp_path / "response.csv").read_text().splitlines()
        header = rows[0].split(",")
        assert header == ["f_ghz", "s11_db_te0deg", "s21_db_te0deg"]
        curve = read_touchstone(tmp_path / "response_te0deg.s2p")
        for row, f_hz, s11, s21 in zip(rows[1:], curve.freqs, curve.s11, curve.s21):
            f_csv, s11_db, s21_db = (float(x) for x in row.split(","))
            assert f_csv == pytest.approx(f_hz / 1e9, rel=1e-9)
            assert s11_db == pytest.approx(
                max(20 * math.log10(max(abs(s11), 1e-300)), -200.0), abs=1e-9
            )
            assert s21_db == pytest.approx(
                max(20 * math.log10(max(abs(s21), 1e-300)), -200.0), abs=1e-9
            )

    def test_db_floor_applied(self, tmp_path):
        # a deep transmission zero inside the grid must be floored, not -inf
        doc = simulate_doc()
        doc["circuit"]["r1_ohm"] = 0.0
        doc["circuit"]["order"] = 1
        del doc["circuit"]["h1_mm"]
        doc["grid"] = {"f_start_ghz": 5.1205, "f_stop_ghz": 5.1209, "n_points": 101}
        cfg = parse_config(json.dumps(doc))
        run(cfg, out_dir=tmp_path)
        body = (tmp_path / "response.csv").read_text()
        values = [float(line.split(",")[2]) for line in body.splitlines()[1:]]
        assert min(values) >= -200.0
        assert "inf" not in body

    def test_repeated_runs_byte_identical(self, tmp_path):
        doc = simulate_doc(incidence={"theta_deg": [0, 30], "pol": ["TE", "TM"]})
        cfg = parse_config(json.dumps(doc))
        run(cfg, out_dir=tmp_path / "a")
        run(cfg, out_dir=tmp_path / "b")
        for name in ("response.csv", "response_te0deg.s2p", "response_tm30deg.s2p"):
            a = (tmp_path / "a" / name).read_bytes()
            assert a == (tmp_path / "b" / name).read_bytes()

    def test_theta_zero_te_tm_identical_metrics(self, tmp_path):
        doc = simulate_doc(incidence={"theta_deg": [0], "pol": ["TE", "TM"]})
        cfg = parse_config(json.dumps(doc))
        summary = run(cfg, out_dir=tmp_path)
        te, tm = summary["conditions"]
        assert te["metrics"] == tm["metrics"]


class TestAnalyzeMode:
    def test_pipeline_consistency(self, tmp_path):
        cfg = parse_config(json.dumps(simulate_doc()))
        summary = run(cfg, out_dir=tmp_path)
        sim_metrics = summary["conditions"][0]["metrics"]

        doc = {
            "mode": "analyze",
            "analyze": {"touchstone": str(tmp_path / "response_te0deg.s2p")},
        }
        out = run(parse_config(json.dumps(doc)), out_dir=tmp_path)
        ana_metrics = out["conditions"][0]["metrics"]
        for key, value in sim_metrics.items():
            if value is None:
                assert ana_metrics[key] is None
            else:
                assert ana_metrics[key] == pytest.approx(value, rel=1e-9)


class TestSweepMode:
    def test_monotone_bandwidth_column(self, tmp_path):
        doc = {
            "mode": "sweep-w",
            "circuit": {"l1_nh": 1.61, "c1_pf": 0.6},
            "grid": {"f_start_ghz": 1.0, "f_stop_ghz": 5.0, "n_points": 2001},
            "sweep": {"w_mm": [0.6, 1.0, 1.4, 1.8, 2.2, 2.6]},
        }
        summary = run(parse_config(json.dumps(doc)), out_dir=tmp_path)
        fbws = [row["fbw"] for row in summary["rows"]]
        assert len(fbws) == 6 and not summary["failures"]
        assert all(a > b for a, b in zip(fbws, fbws[1:]))
        csv_rows = (tmp_path / "metrics.csv").read_text().splitlines()
        assert csv_rows[0].startswith("w_mm,f_c_ghz,")
        assert len(csv_rows) == 7
        csv_fbws = [float(r.split(",")[3]) for r in csv_rows[1:]]
        assert all(a > b for a, b in zip(csv_fbws, csv_fbws[1:]))

    def test_rows_ordered_by_width(self, tmp_path):
        doc = {
            "mode": "sweep-w",
            "circuit": {"l1_nh": 1.61, "c1_pf": 0.6},
            "grid": {"f_start_ghz": 1.0, "f_stop_ghz": 5.0, "n_points": 1001},
            "sweep": {"w_mm": [2.2, 0.6, 1.4]},
        }
        summary = run(parse_config(json.dumps(doc)), out_dir=tmp_path)
        assert [row["w_mm"] for row in summary["rows"]] == [0.6, 1.4, 2.2]

    def test_partial_failures_reported_not_fatal(self, tmp_path):
        # the 4-5 GHz window misses the w = 2.6 mm passband entirely
        doc = {
            "mode": "sweep-w",
            "circuit": {"l1_nh": 1.61, "c1_pf": 0.6},
            "grid": {"f_start_ghz": 4.4, "f_stop_ghz": 4.9, "n_points": 301},
            "sweep": {"w_mm": [2.6]},
        }
        summary = run(parse_config(json.dumps(doc)), out_dir=tmp_path)
        assert summary["rows"] == []
        assert len(summary["failures"]) == 1
        assert summary["failures"][0]["w_mm"] == 2.6


SWEEP_W = {"mode": "sweep-w", "sweep": {"w_mm": [1.0, 2.0]}}


class TestSweepModeRejectsWhatItCannotHonour:
    """sweep-w builds a first-order layer from geometry, l1/c1 and each width."""

    @pytest.mark.parametrize("extra, named", [
        ({"circuit": {"order": 2, "mirrored": False, "l_nh": 9, "h_mm": 5, "eps_r": 9.9}},
         ["circuit.order", "circuit.mirrored", "circuit.l_nh", "circuit.h_mm", "circuit.eps_r"]),
        ({"circuit": {"l1_nh": 1.61, "r1_ohm": 0.5, "loss_tangent": 0.0}},
         ["circuit.r1_ohm", "circuit.loss_tangent"]),
        ({"circuit": {"order": 1}}, ["circuit.order"]),
        ({"geometry": {"strip_width_mm": 2.0}}, ["geometry.strip_width_mm"]),
        ({"circuit": {"mirrored": True}, "geometry": {"strip_width_mm": 2.0}},
         ["circuit.mirrored", "geometry.strip_width_mm"]),
    ])
    def test_ignored_keys_are_named(self, extra, named):
        with pytest.raises(ConfigError, match="does not use") as info:
            parse_config(json.dumps({**SWEEP_W, **extra}))
        for name in named:
            assert name in str(info.value)

    @pytest.mark.parametrize("incidence", [
        {"theta_deg": [0, 40], "pol": ["TE", "TM"]},
        {"theta_deg": [0, 40]},
        {"pol": ["TE", "TM"]},
    ])
    def test_more_than_one_incidence_condition_rejected(self, incidence):
        with pytest.raises(ConfigError, match="one incidence condition"):
            parse_config(json.dumps({**SWEEP_W, "incidence": incidence}))

    def test_exit_code_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**SWEEP_W, "circuit": {"order": 2}}))
        assert main(["--config", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "circuit.order" in capsys.readouterr().err

    def test_used_settings_still_accepted(self):
        cfg = parse_config(json.dumps({
            **SWEEP_W,
            "circuit": {"l1_nh": 1.5, "c1_pf": 0.7},
            "geometry": {"period_mm": 10.0, "spacer_mm": 0.3, "eps_r": 3.0},
            "incidence": {"theta_deg": [40], "pol": ["TM"]},
        }))
        assert cfg.ring_l1 == pytest.approx(1.5e-9) and cfg.ring_c1 == pytest.approx(0.7e-12)
        assert cfg.geometry.spacer == pytest.approx(0.3e-3)
        assert len(cfg.incidence) == 1 and cfg.incidence[0].polarization is Polarization.TM


SMALL_CELL = {"period_mm": 2.6, "ring_side_mm": 2.4, "arm_width_mm": 0.2}
SMALL_CELL_SYNTHESIS = {
    "mode": "synthesize",
    "geometry": SMALL_CELL,
    "synthesize": {"f_p_ghz": 3.0766427982933, "f_z_ghz": 5.1207263563633, "c1_pf": 0.6,
                   "fbw_target": 0.25, "w_max_mm": 2.0},
}


class TestSmallCell:
    """A cell of period <= 2.6 mm: the design modes set every strip width themselves."""

    def test_sweep_w_evaluates_the_widths_inside_the_cell(self, tmp_path):
        doc = {**SWEEP_W, "geometry": SMALL_CELL, "sweep": {"w_mm": [0.5, 1.0, 2.6]}}
        summary = run(parse_config(json.dumps(doc)), out_dir=tmp_path)
        assert [row["w_mm"] for row in summary["rows"]] == [0.5, 1.0]
        assert summary["failures"] == [{"w_mm": 2.6, "error": "strip width must satisfy 0 < w < period"}]

    def test_synthesize_finds_a_width_inside_the_cell(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(SMALL_CELL_SYNTHESIS))
        assert main(["--config", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_OK
        assert 0.3 < json.loads(capsys.readouterr().out)["strip_width_mm"] < 2.0

    @pytest.mark.parametrize("doc", [SWEEP_W, SMALL_CELL_SYNTHESIS], ids=["sweep-w", "synthesize"])
    def test_a_given_strip_width_is_still_rejected_by_name(self, doc):
        geometry = {**SMALL_CELL, "strip_width_mm": 1.0}
        with pytest.raises(ConfigError, match="does not use geometry.strip_width_mm"):
            parse_config(json.dumps({**doc, "geometry": geometry}))


class TestGridSizeCap:
    """grid.n_points above cli.MAX_GRID_POINTS fails as a config error, before any allocation.

    Every size passed to main() here is rejected while the config is parsed.
    """

    DOCS = {
        "simulate": {"mode": "simulate", "circuit": {"l_nh": 2.85}},
        "sweep-w": {"mode": "sweep-w", "sweep": {"w_mm": [1.0]}},
    }

    @pytest.mark.parametrize("mode", sorted(DOCS))
    @pytest.mark.parametrize("n", [10**6 + 1, 10**15])
    def test_parse_rejects_a_grid_above_the_cap(self, mode, n):
        doc = {**self.DOCS[mode], "grid": {"n_points": n}}
        with pytest.raises(ConfigError, match="'grid.n_points' must be an integer from 2 to 1000000"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("mode", sorted(DOCS))
    def test_parse_accepts_the_cap(self, mode):
        assert cli.MAX_GRID_POINTS == 10**6
        doc = {**self.DOCS[mode], "grid": {"n_points": 10**6}}
        assert parse_config(json.dumps(doc)).grid.n_points == 10**6

    #: 4 angles x 2 polarizations
    OBLIQUE = {"theta_deg": [0, 15, 30, 45], "pol": ["TE", "TM"]}

    def test_simulate_accepts_conditions_times_points_at_the_cap(self):
        doc = {**self.DOCS["simulate"], "grid": {"n_points": 125_000}, "incidence": self.OBLIQUE}
        cfg = parse_config(json.dumps(doc))
        assert len(cfg.incidence) * cfg.grid.n_points == cli.MAX_GRID_POINTS

    def test_simulate_rejects_conditions_times_points_above_the_cap(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        doc = {**self.DOCS["simulate"], "grid": {"n_points": 125_001}, "incidence": self.OBLIQUE}
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: 8 incidence conditions x grid.n_points 125001 = 1000008 points, "
            "above the 1000000 that mode 'simulate' holds\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", sorted(DOCS))
    def test_absurd_grid_exits_as_config_error(self, mode, tmp_path, capsys):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**self.DOCS[mode], "grid": {"n_points": 10**15}}))
        assert main(["--config", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "config error: 'grid.n_points' must be an integer" in capsys.readouterr().err


def first_order(**extra):
    circuit = {key: value for key, value in REFERENCE_CIRCUIT.items() if key != "h1_mm"}
    return {**circuit, "order": 1, **extra}


SYNTH = {"f_p_ghz": 3.0766427982933, "f_z_ghz": 5.1207263563633, "c1_pf": 0.6}

#: configs that carry a key their mode does not read, and the names the error must give
UNREAD = {
    "simulate_with_sweep_and_fit": lambda s2p: (
        {"mode": "simulate", "circuit": {"l_nh": 2.85}, "sweep": {"w_mm": "junk"},
         "fit": {"free": 1}}, ["sweep.w_mm", "fit.free"]),
    "sweep_w_with_response_outputs": lambda s2p: (
        {**SWEEP_W, "output": {"csv": "r.csv", "touchstone": "x.s2p"}},
        ["output.csv", "output.touchstone"]),
    "analyze_with_incidence": lambda s2p: (
        {"mode": "analyze", "analyze": {"touchstone": s2p},
         "incidence": {"theta_deg": [80], "pol": ["TM"]}},
        ["incidence.theta_deg", "incidence.pol"]),
    "fit_start_of_fixed_parameter": lambda s2p: (
        fit_doc(s2p, initial={"l_nh": 2.9, "c1_pf": 0.5}), ["fit.initial.c1_pf"]),
    "fit_box_of_fixed_parameter": lambda s2p: (
        fit_doc(s2p, bounds={"r_ohm": [0.0, 1.0]}), ["fit.bounds.r_ohm"]),
    "order_1_gap": lambda s2p: (
        simulate_doc(circuit=first_order(h1_mm=10.0)), ["circuit.h1_mm"]),
    "order_1_mirrored": lambda s2p: (
        {**fit_doc(s2p), "circuit": first_order(mirrored=False)}, ["circuit.mirrored"]),
    "synthesize_geometry_without_fbw": lambda s2p: (
        {"mode": "synthesize", "synthesize": SYNTH, "geometry": {"period_mm": 10.0}},
        ["geometry.period_mm"]),
    "synthesize_calibration_without_fbw": lambda s2p: (
        {"mode": "synthesize", "synthesize": SYNTH, "calibration": {"k_r_ohm_m": 2.6e-4}},
        ["calibration.k_r_ohm_m"]),
    "synthesize_width_range_without_fbw": lambda s2p: (
        {"mode": "synthesize", "synthesize": {**SYNTH, "w_min_mm": 0.5, "w_max_mm": 2.0}},
        ["synthesize.w_min_mm", "synthesize.w_max_mm"]),
}


class TestModesRejectKeysTheyDoNotRead:
    @pytest.fixture(scope="class")
    def s2p(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("sim")
        run(parse_config(json.dumps(simulate_doc())), out_dir=out)
        return str(out / "response_te0deg.s2p")

    @pytest.mark.parametrize("case", sorted(UNREAD))
    def test_exits_as_config_error_naming_the_keys(self, case, s2p, tmp_path, capsys):
        doc, named = UNREAD[case](s2p)
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "does not use" in err
        for name in named:
            assert name in err

    def test_keys_read_under_those_conditions_are_accepted(self, s2p):
        cfg = parse_config(json.dumps(simulate_doc(circuit={**REFERENCE_CIRCUIT, "mirrored": False})))
        assert cfg.mirrored is False and cfg.circuit.h1 == pytest.approx(10e-3)
        cfg = parse_config(json.dumps(fit_doc(s2p, free=["l_nh", "c1_pf"], initial={"c1_pf": 0.5})))
        assert cfg.fit_initial == {"L": pytest.approx(2.85e-9), "C1": pytest.approx(0.5e-12)}
        cfg = parse_config(json.dumps({
            "mode": "synthesize", "synthesize": {**SYNTH, "fbw_target": 0.25, "w_min_mm": 0.5},
            "geometry": {"period_mm": 10.0}, "calibration": {"k_r_ohm_m": 3e-4},
        }))
        assert cfg.width_range == (pytest.approx(0.5e-3), pytest.approx(3e-3))
        assert cfg.geometry.period == pytest.approx(10e-3)
        assert cfg.calibration.r_scale == 3e-4


class TestSynthesizeMode:
    def test_reference_synthesis(self, tmp_path):
        doc = {
            "mode": "synthesize",
            "synthesize": {
                "f_p_ghz": 3.0766427982933,
                "f_z_ghz": 5.1207263563633,
                "c1_pf": 0.6,
                "q_target": 431.0839052125854,
            },
        }
        summary = run(parse_config(json.dumps(doc)), out_dir=tmp_path)
        assert summary["l_nh"] == pytest.approx(2.85, rel=1e-6)
        assert summary["l1_nh"] == pytest.approx(1.61, rel=1e-6)
        assert summary["loss_budget_ohm"] == pytest.approx(0.2, rel=1e-9)


class TestFitMode:
    def test_fit_from_generated_file(self, tmp_path):
        cfg = parse_config(json.dumps(simulate_doc()))
        run(cfg, out_dir=tmp_path)
        doc = {
            "mode": "fit",
            "circuit": dict(REFERENCE_CIRCUIT),
            "fit": {
                "touchstone": str(tmp_path / "response_te0deg.s2p"),
                "free": ["l_nh", "l1_nh", "c1_pf"],
                "initial": {"l_nh": 3.4, "l1_nh": 1.3, "c1_pf": 0.72},
                "bounds": {"l_nh": [0.5, 10], "l1_nh": [0.3, 6], "c1_pf": [0.1, 3]},
            },
        }
        summary = run(parse_config(json.dumps(doc)), out_dir=tmp_path)
        assert summary["converged"]
        assert summary["fitted"]["l_nh"] == pytest.approx(2.85, rel=1e-2)
        assert summary["fitted"]["l1_nh"] == pytest.approx(1.61, rel=1e-2)
        assert summary["fitted"]["c1_pf"] == pytest.approx(0.6, rel=1e-2)
        assert summary["residual_norm"] < 1e-6


    def test_duplicate_free_parameter_exits_as_config_error(self, tmp_path, capsys):
        run(parse_config(json.dumps(simulate_doc())), out_dir=tmp_path)
        doc = fit_doc(tmp_path / "response_te0deg.s2p", free=["l_nh", "l_nh"])
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(doc))
        assert main(["--config", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_CONFIG
        assert "fit parameters must be distinct" in capsys.readouterr().err

    def test_free_resistance_that_starts_at_zero(self, tmp_path, capsys):
        run(parse_config(json.dumps(simulate_doc())), out_dir=tmp_path)
        doc = fit_doc(tmp_path / "response_te0deg.s2p", free=["l_nh", "r_ohm"],
                      initial={"l_nh": 2.5, "r_ohm": 0}, bounds={"l_nh": [1, 5], "r_ohm": [0, 1]})
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["--config", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_OK
        out, err = capsys.readouterr()
        assert err == ""
        fitted = json.loads(out)["fitted"]
        assert fitted["l_nh"] == pytest.approx(2.85, rel=1e-3)
        assert fitted["r_ohm"] == pytest.approx(0.1, abs=1e-2)

    def test_model_that_is_not_finite_at_the_start_is_named(self, tmp_path, capsys):
        doc = {"mode": "simulate", "circuit": {"order": 2, "l_nh": 2.85, "h1_mm": 10},
               "output": {"touchstone": "obs.s2p"}}
        run(parse_config(json.dumps(doc)), out_dir=tmp_path)
        # a spacer so thick and lossy that the model overflows on every row of the first call
        doc = {"mode": "fit", "circuit": {**doc["circuit"], "h_mm": 5080, "loss_tangent": 1.0},
               "fit": {"touchstone": str(tmp_path / "obs_te0deg.s2p"), "free": ["r_ohm"]}}
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["--config", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_COMPUTE
        assert capsys.readouterr().err == "computation error: the model's |s21| is not finite at the fit's start\n"

    def test_negative_frequency_file_exits_as_input_data_error(self, tmp_path, capsys):
        s2p = tmp_path / "negative.s2p"
        s2p.write_text("# GHz S RI R 376.73\n-1.0 0 0 1 0 1 0 0 0\n2.0 0 0 1 0 1 0 0 0\n")
        path = tmp_path / "analyze.json"
        path.write_text(json.dumps({"mode": "analyze", "analyze": {"touchstone": str(s2p)}}))
        assert main(["--config", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_COMPUTE
        assert "input data error: line 2: negative frequency" in capsys.readouterr().err

    def test_file_with_a_0_hz_record_names_the_fit_fault(self, tmp_path, capsys):
        run(parse_config(json.dumps(simulate_doc())), out_dir=tmp_path)
        s2p = tmp_path / "response_te0deg.s2p"
        lines = s2p.read_text().split("\n")
        s2p.write_text("\n".join(lines[:4] + ["0.0 0 0 1 0 1 0 0 0"] + lines[4:]))
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(fit_doc(s2p)))
        assert main(["--config", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_COMPUTE
        assert "computation error: a fit needs f > 0" in capsys.readouterr().err

    def test_fit_from_a_start_whose_passband_misses_the_observed_one(self, tmp_path, capsys):
        # 30 % low on all three, in the default start/4 to start x4 box
        run(parse_config(json.dumps(simulate_doc())), out_dir=tmp_path)
        doc = {
            "mode": "fit",
            "circuit": {**REFERENCE_CIRCUIT, "l_nh": 2.85 * 0.7, "l1_nh": 1.61 * 0.7, "c1_pf": 0.6 * 0.7},
            "fit": {"touchstone": str(tmp_path / "response_te0deg.s2p"), "free": ["l_nh", "l1_nh", "c1_pf"]},
        }
        path = tmp_path / "fit.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["--config", str(path), "--out-dir", str(tmp_path / "out")]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["converged"] is True
        assert summary["fitted"]["l_nh"] == pytest.approx(2.85, rel=1e-2)
        assert summary["fitted"]["l1_nh"] == pytest.approx(1.61, rel=1e-2)
        assert summary["fitted"]["c1_pf"] == pytest.approx(0.6, rel=1e-2)


class TestShippedConfigs:
    def configs_dir(self):
        from pathlib import Path

        return Path(__file__).parents[1] / "configs"

    def test_all_shipped_configs_parse(self):
        paths = sorted(self.configs_dir().glob("*.json"))
        assert paths, "no shipped configs found"
        for path in paths:
            cfg = parse_config(path.read_text())
            assert cfg.mode in ("simulate", "sweep-w", "synthesize", "fit", "analyze")

    def test_second_order_config_runs(self, tmp_path):
        cfg = parse_config((self.configs_dir() / "second_order.json").read_text())
        summary = run(cfg, out_dir=tmp_path)
        assert summary["conditions"][0]["metrics"]["f_c_ghz"] > 0
        assert (tmp_path / "response.csv").exists()

    def test_width_sweep_config_runs(self, tmp_path):
        cfg = parse_config((self.configs_dir() / "width_sweep.json").read_text())
        summary = run(cfg, out_dir=tmp_path)
        fbws = [row["fbw"] for row in summary["rows"]]
        assert all(a > b for a, b in zip(fbws, fbws[1:]))


def fit_doc(s2p, **fit):
    return {
        "mode": "fit",
        "circuit": dict(REFERENCE_CIRCUIT),
        "fit": {"touchstone": str(s2p), "free": ["l_nh"], **fit},
    }


#: configs whose values have the wrong JSON type; each must fail as a config error
WRONG_TYPES = {
    "sweep_w_mm_word": lambda s2p: {"mode": "sweep-w", "sweep": {"w_mm": [1.0, "x"]}},
    "sweep_w_mm_numeric_string": lambda s2p: {"mode": "sweep-w", "sweep": {"w_mm": [0.6, "1.4"]}},
    "fit_initial_word": lambda s2p: fit_doc(s2p, initial={"l_nh": "x"}),
    "fit_initial_list": lambda s2p: fit_doc(s2p, initial=[3.0]),
    "fit_bounds_word": lambda s2p: fit_doc(s2p, bounds={"l_nh": [0.5, "x"]}),
    "mirrored_string": lambda s2p: simulate_doc(circuit={**REFERENCE_CIRCUIT, "mirrored": "false"}),
    "mirrored_number": lambda s2p: simulate_doc(circuit={**REFERENCE_CIRCUIT, "mirrored": 0}),
    "order_fraction": lambda s2p: simulate_doc(circuit={**REFERENCE_CIRCUIT, "order": 1.7}),
    "n_points_fraction": lambda s2p: simulate_doc(
        grid={"f_start_ghz": 1.0, "f_stop_ghz": 5.0, "n_points": 2.9}
    ),
    # JSON Infinity, and integers beyond the float range, are not config numbers
    "l_nh_infinity": lambda s2p: simulate_doc(circuit={**REFERENCE_CIRCUIT, "l_nh": math.inf}),
    "f_stop_infinity": lambda s2p: simulate_doc(
        grid={"f_start_ghz": 1.0, "f_stop_ghz": math.inf, "n_points": 2001}
    ),
    "n_points_huge_integer": lambda s2p: simulate_doc(
        grid={"f_start_ghz": 1.0, "f_stop_ghz": 5.0, "n_points": 10**400}
    ),
    "n_points_over_4300_digits": lambda s2p: simulate_doc(
        grid={"f_start_ghz": 1.0, "f_stop_ghz": 5.0, "n_points": "DIGITS"}
    ),
    "sweep_w_mm_infinity": lambda s2p: {"mode": "sweep-w", "sweep": {"w_mm": [1.0, math.inf]}},
    "sweep_w_mm_nan": lambda s2p: {"mode": "sweep-w", "sweep": {"w_mm": [math.nan, 1.0]}},
    "theta_infinity": lambda s2p: simulate_doc(incidence={"theta_deg": [math.inf], "pol": ["TE"]}),
    "geometry_infinity": lambda s2p: {
        "mode": "sweep-w", "geometry": {"period_mm": math.inf}, "sweep": {"w_mm": [1.0]}
    },
    "fit_initial_infinity": lambda s2p: fit_doc(s2p, initial={"l_nh": math.inf}),
    "fit_bounds_infinity": lambda s2p: fit_doc(s2p, bounds={"l_nh": [0.5, math.inf]}),
    "synthesize_infinity": lambda s2p: {
        "mode": "synthesize",
        "synthesize": {"f_p_ghz": 3.0, "f_z_ghz": math.inf, "c1_pf": 0.6},
    },
}


#: values that no single key bounds, whose spacer line overflows: a grid and a spacer
OVERFLOWS = {
    "grid": {"grid": {"f_start_ghz": 1e9, "f_stop_ghz": 5e9, "n_points": 2}},
    "spacer": {"circuit": {"l_nh": 2.85, "h_mm": 1e9}},
}


class TestMainEntry:
    def write_config(self, tmp_path, doc):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_success_exit_zero(self, tmp_path, capsys):
        path = self.write_config(tmp_path, simulate_doc())
        code = main(["--config", path, "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["mode"] == "simulate"

    def test_config_error_exit(self, tmp_path, capsys):
        path = self.write_config(tmp_path, {"mode": "simulate"})
        code = main(["--config", path, "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "requires field" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(WRONG_TYPES))
    def test_wrong_value_type_exits_as_config_error(self, case, tmp_path, capsys):
        s2p = tmp_path / "obs.s2p"
        s2p.write_text("# GHz S RI R 50\n1.0 0 0 1 0 1 0 0 0\n")
        path = self.write_config(tmp_path, WRONG_TYPES[case](s2p))
        text = (tmp_path / "run.json").read_text()
        (tmp_path / "run.json").write_text(text.replace('"DIGITS"', "9" * 4400))
        code = main(["--config", path, "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["l_nh", "l1_nh", "c1_pf", "r_ohm", "r1_ohm", "h_mm", "eps_r", "h1_mm"])
    def test_nan_circuit_value_exits_as_config_error(self, key, tmp_path, capsys):
        path = self.write_config(tmp_path, simulate_doc(circuit={**REFERENCE_CIRCUIT, key: math.nan}))
        assert "NaN" in (tmp_path / "run.json").read_text()
        code = main(["--config", path, "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_integral_float_counts_are_accepted(self):
        cfg = parse_config(json.dumps(simulate_doc(
            circuit={**REFERENCE_CIRCUIT, "order": 2.0},
            grid={"f_start_ghz": 1.0, "f_stop_ghz": 5.0, "n_points": 11.0},
        )))
        assert cfg.circuit.order == 2 and cfg.grid.n_points == 11

    def test_compute_error_exit(self, tmp_path, capsys):
        doc = {
            "mode": "synthesize",
            "synthesize": {
                "f_p_ghz": 3.0,
                "f_z_ghz": 5.0,
                "c1_pf": 0.6,
                "fbw_target": 0.9,
            },
        }
        path = self.write_config(tmp_path, doc)
        code = main(["--config", path, "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_COMPUTE
        assert "achievable" in capsys.readouterr().err

    def test_db_overflow_exits_as_input_data_error(self, tmp_path, capsys):
        s2p = tmp_path / "loud.s2p"
        s2p.write_text("# GHz S DB R 50\n1.0 7000 0 0 0 0 0 0 0\n")
        path = self.write_config(tmp_path, {"mode": "analyze", "analyze": {"touchstone": str(s2p)}})
        assert main(["--config", path, "--out-dir", str(tmp_path / "out")]) == EXIT_COMPUTE
        assert "line 2: dB magnitude overflows" in capsys.readouterr().err

    def test_invalid_utf8_exits_as_input_data_error(self, tmp_path, capsys):
        s2p = tmp_path / "latin.s2p"
        s2p.write_bytes(b"# GHz S RI R 50\n1.0 0 0 1 0 1 0 0 0\xff\n")
        path = self.write_config(tmp_path, {"mode": "analyze", "analyze": {"touchstone": str(s2p)}})
        assert main(["--config", path, "--out-dir", str(tmp_path / "out")]) == EXIT_COMPUTE
        assert "input data error: line 2: file is not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("annotation, error", [
        ("! incidence theta_deg = 95", "incidence angle"),
        ("! incidence theta_deg = forty", "bad incidence angle"),
        ("! polarization = XM", "polarization must be TE or TM"),
    ])
    def test_bad_incidence_annotation_exits_as_input_data_error(self, annotation, error, tmp_path, capsys):
        s2p = tmp_path / "steep.s2p"
        s2p.write_text(f"{annotation}\n# GHz S RI R 50\n1.0 0 0 1 0 1 0 0 0\n")
        path = self.write_config(tmp_path, {"mode": "analyze", "analyze": {"touchstone": str(s2p)}})
        assert main(["--config", path, "--out-dir", str(tmp_path / "out")]) == EXIT_COMPUTE
        assert f"input data error: line 1: {error}" in capsys.readouterr().err

    @pytest.mark.parametrize("z_ref", ["nan", "inf", "0", "-5"])
    def test_bad_reference_impedance_exits_as_input_data_error(self, z_ref, tmp_path, capsys):
        s2p = tmp_path / "ref.s2p"
        s2p.write_text(f"! measured\n# GHz S RI R {z_ref}\n1.0 0 0 1 0 1 0 0 0\n")
        path = self.write_config(tmp_path, {"mode": "analyze", "analyze": {"touchstone": str(s2p)}})
        assert main(["--config", path, "--out-dir", str(tmp_path / "out")]) == EXIT_COMPUTE
        assert (
            f"input data error: line 2: reference impedance must be finite and positive, got '{z_ref}'"
            in capsys.readouterr().err
        )

    @pytest.mark.parametrize("loss_tangent", [-1, 1.5, 2e4])
    def test_loss_tangent_outside_0_to_1_exits_as_config_error(self, loss_tangent, tmp_path, capsys):
        doc = {
            "mode": "simulate",
            "circuit": {"order": 2, "l_nh": 2.85, "loss_tangent": loss_tangent},
            "grid": {"f_start_ghz": 4.446, "f_stop_ghz": 4.448, "n_points": 11},
        }
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--config", self.write_config(tmp_path, doc), "--out-dir", str(out)])
        assert code == EXIT_CONFIG
        assert "config error: invalid circuit block: loss tangent must be in [0, 1]" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("overflow", sorted(OVERFLOWS))
    def test_an_overflow_prints_one_line(self, overflow, tmp_path, capsys):
        doc = {"mode": "simulate", "circuit": {"l_nh": 2.85}, **OVERFLOWS[overflow]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--config", self.write_config(tmp_path, doc), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_COMPUTE
        assert capsys.readouterr().err == "computation error: s11 contains non-finite samples\n"

    def test_an_overflow_in_a_width_sweep_prints_nothing(self, tmp_path, capsys):
        doc = {"mode": "sweep-w", "sweep": {"w_mm": [0.6, 1.4]}, **OVERFLOWS["grid"]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["--config", self.write_config(tmp_path, doc), "--out-dir", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert (code, err) == (EXIT_OK, "")
        assert [row["error"] for row in json.loads(out)["failures"]] == ["s21 contains non-finite samples"] * 2

    @pytest.mark.parametrize("thetas",[[10.0000001, 10.0000002], [15, 15]])
    def test_colliding_condition_tokens_exit_as_config_error(self, thetas, tmp_path, capsys):
        doc = simulate_doc(incidence={"theta_deg": thetas, "pol": ["TE", "TM"]})
        out = tmp_path / "out"
        assert main(["--config", self.write_config(tmp_path, doc), "--out-dir", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"incidence angles {thetas[0]:.12g} and {thetas[1]:.12g} both give condition 'te" in err
        assert not out.exists()  # found at parse, before the output directory is made

    def test_csv_named_as_a_touchstone_file_exits_as_config_error(self, tmp_path, capsys):
        doc = simulate_doc(incidence={"theta_deg": [0, 30], "pol": ["TE"]},
                           output={"csv": "r_te30deg.s2p", "touchstone": "r.s2p"})
        out = tmp_path / "out"
        assert main(["--config", self.write_config(tmp_path, doc), "--out-dir", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: output.csv 'r_te30deg.s2p' is also the Touchstone file of a condition; "
            "the two outputs would overwrite each other\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv, code, stream, text", [
        (["--help"], 0, "out", "usage: fsskit [-h] --config CONFIG [--out-dir OUT_DIR]\n"),
        (["--out-dir", "x"], 2, "err", "fsskit: error: the following arguments are required: --config\n"),
    ])
    def test_help_and_usage_error_on_every_call(self, argv, code, stream, text, capsys):
        for _ in range(2):  # the parser is built once per process
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
            assert text in getattr(capsys.readouterr(), stream)

    def test_missing_config_file_exit(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "nope.json")])
        assert code == EXIT_IO

    def test_out_dir_env_override(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "env_out"
        monkeypatch.setenv("FSSKIT_OUT_DIR", str(target))
        monkeypatch.chdir(tmp_path)
        path = self.write_config(tmp_path, simulate_doc())
        assert main(["--config", path]) == EXIT_OK
        assert (target / "response.csv").exists()

    def test_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FSSKIT_OUT_DIR", str(tmp_path / "ignored"))
        path = self.write_config(tmp_path, simulate_doc())
        assert main(["--config", path, "--out-dir", str(tmp_path / "flag_out")]) == EXIT_OK
        assert (tmp_path / "flag_out" / "response.csv").exists()
        assert not (tmp_path / "ignored").exists()
