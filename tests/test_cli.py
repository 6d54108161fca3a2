"""Config parsing, run modes, export formats, determinism, exit codes."""

import json
import math

import pytest

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
        code = main(["--config", path, "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

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
