import inspect
import json

import pytest

from kerrcomb import phases, steady
from kerrcomb.cli import main
from kerrcomb.dispersion import composite_pump_weights
from kerrcomb.config import (
    ParseError,
    ValidationError,
    config_digest,
    default_config_path,
    load_config,
    serialize_config,
)
from kerrcomb.model import NormalizedDrive


class TestConfig:
    def test_default_loads_four_families(self, cfg):
        assert cfg.resonator.labels == ("TE00", "TM00", "TE10", "TM10")
        assert cfg.resonator.radius == pytest.approx(240e-6)

    def test_te00_fsr_field(self, cfg):
        raw = cfg.raw["resonator"]["families"][0]
        assert raw["label"] == "TE00"
        assert raw["fsr_ghz"] == 95.76181600935617

    def test_bad_intrinsic_fraction_named(self, tmp_path):
        raw = json.loads(default_config_path().read_text())
        raw["resonator"]["families"][0]["intrinsic_fraction"] = 1.2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError, match="intrinsic_fraction"):
            load_config(path)

    def test_unknown_keys_rejected(self, tmp_path):
        raw = json.loads(default_config_path().read_text())
        raw["resonator"]["families"][0]["mystery_knob"] = 1.0
        raw["surprise"] = {}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError) as err:
            load_config(path)
        assert "mystery_knob" in str(err.value)
        assert "surprise" in str(err.value)

    def test_inconsistent_derived_row_rejected(self, tmp_path):
        raw = json.loads(default_config_path().read_text())
        raw["resonator"]["families"][0]["fsr_ghz"] = 90.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ValidationError, match="fsr_ghz"):
            load_config(path)

    def test_parse_error_on_garbage(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_config(path)
        with pytest.raises(ParseError):
            load_config(tmp_path / "missing.json")

    def test_round_trip_identical(self, cfg, tmp_path):
        path = tmp_path / "copy.json"
        path.write_text(serialize_config(cfg))
        again = load_config(path)
        assert again.resonator == cfg.resonator
        assert again.tolerances == cfg.tolerances
        assert config_digest(again) == config_digest(cfg)


class TestCli:
    def test_dispersion_exit_and_output(self, tmp_path, capsys):
        code = main(["dispersion", "--l-min", "-2", "--l-max", "2",
                     "--out", str(tmp_path / "o")])
        assert code == 0
        lines = (tmp_path / "o" / "dispersion.csv").read_text().splitlines()
        assert lines[0] == "family,L,f_Hz,Dint_rad_s"
        assert len(lines) == 1 + 4 * 5
        assert (tmp_path / "o" / "manifest.json").exists()

    def test_json_format(self, tmp_path):
        code = main(["dispersion", "--l-min", "0", "--l-max", "1",
                     "--format", "json", "--out", str(tmp_path / "o")])
        assert code == 0
        records = json.loads((tmp_path / "o" / "dispersion.json").read_text())
        assert records[0]["family"] == "TE00"

    def test_bad_config_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        code = main(["--config", str(bad), "dispersion",
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_computation_error_exit_code(self, tmp_path, capsys):
        # a pump-only root above the pair threshold: M is not Hurwitz
        code = main(["oracle", "langevin", "--f-norm", "2.5", "--dtp", "1",
                     "--dtl", "3", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "computation error: UnstableError" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, problem", [
        (["steady"], "provide --family"),
        (["steady", "--f-norm", "1.0", "--dtp", "1.0"],
         "--dtl required with --f-norm"),
        (["oracle", "duan-grid"], "duan-grid requires --sigma-json"),
        (["oracle", "langevin", "--f-norm", "1.2", "--dtp", "1.6",
          "--dtl", "1.6", "--n-samples", "500"], "--n-samples"),
    ], ids=["no-point", "f-norm-without-dtl", "duan-grid-without-sigma",
            "langevin-few-samples"])
    def test_usage_error_exit_code(self, tmp_path, capsys, argv, problem):
        code = main([*argv, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and problem in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section, key, value, problem", [
        ("sweep_defaults", "grid", 0, "grid must be an integer >= 1"),
        ("sweep_defaults", "grid", "x", "grid must be an integer >= 1"),
        ("sweep_defaults", "delta_min_ghz", 0.9, "must be below"),
        ("sweep_defaults", "amp_min_v_per_m", -1.0, "must be >= 0"),
        ("heatmap", "bucket_edges", [-0.5, -0.6, 0.0], "must ascend"),
        ("heatmap", "bucket_colors", ["#000000"], "one color per edge"),
    ], ids=["grid-zero", "grid-not-int", "delta-min-above-max",
            "negative-amp-min", "edges-descend", "too-few-colors"])
    def test_config_mistake_exits_2_before_sweep(self, tmp_path, capsys,
                                                 section, key, value,
                                                 problem):
        raw = json.loads(default_config_path().read_text())
        raw[section][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        code = main(["--config", str(path), "phase-diagram", "--family",
                     "TE00", "--grid", "2", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {section}:") and problem in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags, problem", [
        (["--grid", "0"], "grid must be an integer >= 1"),
        (["--delta-min-ghz", "0.5", "--delta-max-ghz", "0.1"],
         "must be below"),
        (["--amp-min", "2e7", "--amp-max", "1e7"], "must be below"),
        (["--amp-min", "-1"], "must be >= 0"),
    ], ids=["grid-zero", "delta-min-above-max", "amp-min-above-max",
            "negative-amp-min"])
    def test_axis_flag_mistake_exits_2_before_sweep(self, tmp_path, capsys,
                                                    flags, problem):
        code = main(["phase-diagram", "--family", "TE00", *flags,
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and problem in err
        assert not (tmp_path / "o").exists()

    def test_failed_polish_exits_1(self, tmp_path, monkeypatch):
        def stall(*args):
            raise steady.NoConvergenceError("stalled")

        monkeypatch.setattr(steady, "_polish_pair", stall)
        point = ["--f-norm", "1.6", "--dtp", "2.4", "--dtl", "2.4"]
        for command in ("steady", "duan", "spectrum"):
            out = tmp_path / command
            assert main([command, *point, "--out", str(out)]) == 1

    def test_raising_cell_exits_3_after_writing(self, tmp_path, monkeypatch,
                                                capsys):
        real = phases.operating_state
        calls = []

        def flaky(drive, *args):
            calls.append(drive)
            if len(calls) == 5:
                raise steady.NoConvergenceError("stalled")
            return real(drive, *args)

        monkeypatch.setattr(phases, "operating_state", flaky)
        out = tmp_path / "o"
        code = main(["phase-diagram", "--family", "TE00", "--grid", "4",
                     "--workers", "1", "--out", str(out)])
        assert code == 3
        assert len(calls) == 16
        for name in ("phase_TE00_L1.csv", "phase_TE00_L1.svg",
                     "phase_TE00_L1_meta.json", "manifest.json"):
            assert (out / name).is_file()
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert err.startswith("cell errors: 1 (marked MI)")
        assert err.endswith("NoConvergenceError: stalled")

    def test_steady_json_branches(self, tmp_path):
        code = main(["steady", "--f-norm", "1.6", "--dtp", "2.4",
                     "--dtl", "2.4", "--out", str(tmp_path / "o")])
        assert code == 0
        data = json.loads((tmp_path / "o" / "steady.json").read_text())
        branches = {b["branch"] for b in data["branches"]}
        assert branches == {"PumpOnly", "Parametric"}

    def test_duan_subcommand(self, tmp_path):
        code = main(["duan", "--family", "TE00", "--detuning-ghz", "0.36",
                     "--apin-v-per-m", "1.1e7", "--out", str(tmp_path / "o")])
        assert code == 0
        data = json.loads((tmp_path / "o" / "duan.json").read_text())
        assert data["entangled"] is True
        assert data["c_min"] < -0.4
        assert data["phase"] == "ET"

    def test_duan_from_sigma_file(self, tmp_path):
        sigma = tmp_path / "sigma.json"
        sigma.write_text(json.dumps([[0.5, 0, 0, 0], [0, 0.5, 0, 0],
                                     [0, 0, 0.5, 0], [0, 0, 0, 0.5]]))
        code = main(["duan", "--sigma-json", str(sigma),
                     "--out", str(tmp_path / "o")])
        assert code == 0
        data = json.loads((tmp_path / "o" / "duan.json").read_text())
        assert abs(data["c_min"]) < 1e-9
        assert data["phase"] is None

    @pytest.mark.parametrize("matrix, problem", [
        ([[0.5, 0.3, 0, 0], [0, 0.5, 0, 0], [0, 0, 0.5, 0], [0, 0, 0, 0.5]],
         "not symmetric"),
        ([[float("nan"), 0, 0, 0], [0, 0.5, 0, 0], [0, 0, 0.5, 0],
          [0, 0, 0, 0.5]], "non-finite"),
        ([[0.5, 0], [0, 0.5]], "4x4"),
    ], ids=["asymmetric", "nan", "2x2"])
    @pytest.mark.parametrize("command", [["duan"], ["oracle", "duan-grid"]],
                             ids=["duan", "duan-grid"])
    def test_bad_sigma_json_rejected(self, tmp_path, capsys, matrix,
                                     problem, command):
        sigma = tmp_path / "sigma.json"
        sigma.write_text(json.dumps(matrix))
        code = main([*command, "--sigma-json", str(sigma),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_single_point_commands_flag_mi(self, tmp_path):
        # three pump-only roots plus a parametric branch: the sweep
        # classifier calls this point MI, and so must duan and spectrum
        point = ["--f-norm", "1.5", "--dtp", "2.2", "--dtl", "2.2"]
        for command in ("duan", "spectrum"):
            out = tmp_path / command
            assert main([command, *point, "--out", str(out)]) == 0
            data = json.loads((out / f"{command}.json").read_text())
            assert data["phase"] == "MI"
        drive = NormalizedDrive(f_norm=1.5, dtp=2.2, dtl=2.2)
        assert phases.classify_drive(drive).phase is phases.Phase.MI

    def test_spectrum_payload(self, tmp_path):
        code = main(["spectrum", "--family", "TE00", "--detuning-ghz", "0.2",
                     "--apin-v-per-m", "5e6", "--out", str(tmp_path / "o")])
        assert code == 0
        data = json.loads((tmp_path / "o" / "spectrum.json").read_text())
        assert len(data["s"]) == 4
        assert len(data["quadrature_covariance"]) == 4

    def test_phase_diagram_outputs(self, tmp_path):
        out = tmp_path / "o"
        code = main(["phase-diagram", "--family", "TE00", "--L", "1",
                     "--grid", "8", "--out", str(out)])
        assert code == 0
        csv_text = (out / "phase_TE00_L1.csv").read_text()
        assert csv_text.splitlines()[0] == \
            "delta_p0_hz,a_pin_v_per_m,phase,c_min,n_branches,max_eig_re"
        svg = (out / "phase_TE00_L1.svg").read_text()
        digest = config_digest(load_config())
        assert digest in svg
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"] == digest
        assert "phase_TE00_L1.csv" in manifest["outputs"]

    def test_phase_writers_agree(self, tmp_path):
        def run(name, *argv):
            out = tmp_path / name
            assert main([*argv, "--grid", "6", "--out", str(out)]) == 0
            return out

        diagram = run("pd", "phase-diagram", "--family", "TE00", "--L", "1")
        fig4 = run("fig4", "reproduce", "fig4")
        best = run("bp", "best-pump", "--families", "TE00,TE10,TM10",
                   "--Ls", "1,3,6")
        fig7 = run("fig7", "reproduce", "fig7")
        csv_bytes = (diagram / "phase_TE00_L1.csv").read_bytes()
        assert (fig4 / "fig4_TE00_L1.csv").read_bytes() == csv_bytes
        assert (best / "best_pump_TE00_L1.csv").read_bytes() == csv_bytes
        payload = json.loads((best / "best_pump.json").read_text())
        assert payload == \
            json.loads((fig7 / "fig7_best_pump.json").read_text())
        assert payload["slm_weights"] == \
            composite_pump_weights(payload["amplitudes_v_per_m"])

    def test_single_point_witness_matches_grid_cell(self, tmp_path):
        # duan at a grid cell reports that cell's c_min bit for bit
        out = tmp_path / "pd"
        assert main(["phase-diagram", "--family", "TE00", "--L", "1",
                     "--grid", "8", "--out", str(out)]) == 0
        lines = (out / "phase_TE00_L1.csv").read_text().splitlines()[1:]
        checked = 0
        for line in lines:
            delta, amp, phase, c_min = line.split(",")[:4]
            ghz = float(delta) / 1e9
            if phase == "MI" or ghz * 1e9 != float(delta):
                continue
            point = ["--family", "TE00", "--detuning-ghz", repr(ghz),
                     "--apin-v-per-m", amp]
            cell = tmp_path / f"cell{checked}"
            assert main(["duan", *point, "--out", str(cell)]) == 0
            data = json.loads((cell / "duan.json").read_text())
            assert data["c_min"] == float(c_min)
            assert data["phase"] == phase
            checked += 1
            if checked == 4:
                break
        assert checked == 4

    def test_fig6_sweeps_use_config_truncation_order(self, tmp_path,
                                                      monkeypatch):
        raw = json.loads(default_config_path().read_text())
        raw["tolerances"]["truncation_order"] = 5
        path = tmp_path / "order5.json"
        path.write_text(json.dumps(raw))
        original = phases.sweep
        orders = []

        def sweep(*args, **kwargs):
            bound = inspect.signature(original).bind(*args, **kwargs)
            bound.apply_defaults()
            orders.append(bound.arguments["truncation_order"])
            return original(*args, **kwargs)

        monkeypatch.setattr(phases, "sweep", sweep)
        code = main(["--config", str(path), "reproduce", "fig6",
                     "--grid", "4", "--out", str(tmp_path / "o")])
        assert code == 0
        assert orders == [5, 5, 5]

    def test_manifest_checksums_stable(self, tmp_path):
        args = ["dispersion", "--l-min", "-1", "--l-max", "1"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "manifest.json").read_bytes()
        b = (tmp_path / "b" / "manifest.json").read_bytes()
        assert a == b

    def test_reproduce_fig2(self, tmp_path):
        out = tmp_path / "o"
        code = main(["reproduce", "fig2", "--out", str(out)])
        assert code == 0
        text = (out / "fig2_dispersion.csv").read_text()
        assert text.startswith("family,L,f_Hz,Dint_rad_s")
        assert (out / "fig2_dispersion.svg").exists()

    def test_reproduce_fig3_overlap(self, tmp_path):
        out = tmp_path / "o"
        code = main(["reproduce", "fig3", "--out", str(out)])
        assert code == 0
        lines = (out / "fig3_overlap.csv").read_text().splitlines()
        assert len(lines) >= 2
        assert "TE00+TE10+TM10" in lines[1]

    def test_oracle_jacobian_subcommand(self, tmp_path):
        out = tmp_path / "o"
        code = main(["oracle", "jacobian", "--f-norm", "1.2", "--dtp", "1.6",
                     "--dtl", "1.6", "--out", str(out)])
        assert code == 0
        data = json.loads((out / "oracle_jacobian.json").read_text())
        assert data["max_abs_difference"] < 1e-6
