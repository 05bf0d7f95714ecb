import argparse
import inspect
import json
import multiprocessing.process

import numpy as np
import pytest

from kerrcomb import phases, steady
from kerrcomb.cli import build_parser, main
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
        code = main(["dispersion", "--config", str(bad),
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
        (["phase-diagram", "--family", "XX"], "unknown family 'XX'"),
        (["dispersion", "--families", "TE00,XX"], "unknown family 'XX'"),
        (["steady", "--family", "TE00", "--L", "0", "--detuning-ghz", "0.36",
          "--apin-v-per-m", "1.1e7"], "--L must be >= 1"),
        (["phase-diagram", "--family", "TE00", "--L", "0"],
         "--L must be >= 1"),
        (["best-pump", "--Ls", "0"], "--Ls entries must be >= 1"),
        (["best-pump", "--Ls", "1,,3"], "not a comma-separated list"),
        (["dispersion", "--l-min", "5", "--l-max", "1"],
         "--l-min must not exceed --l-max"),
        (["overlap", "--f-min-thz", "215", "--f-max-thz", "214"],
         "--f-min-thz must be below --f-max-thz"),
        (["transmission", "--samples", "1"], "--samples must be >= 2"),
        (["steady", "--f-norm", "1.6", "--dtp", "2.4", "--dtl", "2.4",
          "--family", "TE00"], "--f-norm excludes"),
        (["duan", "--f-norm", "1.6", "--dtp", "2.4", "--dtl", "2.4",
          "--detuning-ghz", "0.36", "--apin-v-per-m", "1.1e7"],
         "--f-norm excludes"),
        (["steady", "--f-norm", "1.2", "--dtp", "1.6", "--dtl", "1.6",
          "--L", "3"], "--f-norm excludes"),
        (["duan", "--f-norm", "1.2", "--dtp", "1.6", "--dtl", "1.6",
          "--L", "1"], "--f-norm excludes"),
        (["transmission", "--span-ghz", "0"], "--span-ghz must be > 0"),
        (["overlap", "--tolerance-ghz", "-1"],
         "--tolerance-ghz must be > 0"),
        (["oracle", "langevin", "--f-norm", "1.2", "--dtp", "1.6",
          "--dtl", "1.6", "--t-end", "10"], "--t-end at least 50"),
        (["oracle", "duan-grid", "--sigma-json", "sigma.json",
          "--grid-n", "10"], "--grid-n must be >= 64"),
        (["oracle", "mean-field", "--f-norm", "1.2", "--dtp", "1.6",
          "--dtl", "1.6", "--dt", "0"], "--dt and --t-end must be > 0"),
        (["phase-diagram", "--family", "TE00", "--grid", "2",
          "--workers", "0"], "--workers must be >= 1"),
        (["duan", "--sigma-json", "sigma.json", "--f-norm", "1.2", "--dtp",
          "1.6", "--dtl", "1.55", "--omega", "0.7"], "--sigma-json excludes"),
        (["duan", "--sigma-json", "sigma.json", "--family", "TE00",
          "--detuning-ghz", "0.36"], "--sigma-json excludes"),
        (["duan", "--sigma-json", "sigma.json", "--L", "3"],
         "--sigma-json excludes"),
        (["duan", "--sigma-json", "sigma.json", "--L", "1"],
         "--sigma-json excludes"),
        (["duan", "--sigma-json", "sigma.json", "--omega", "0"],
         "--sigma-json excludes"),
    ], ids=["no-point", "f-norm-without-dtl", "duan-grid-without-sigma",
            "langevin-few-samples", "unknown-family",
            "unknown-family-in-list", "L-zero", "phase-diagram-L-zero",
            "Ls-zero", "Ls-malformed", "l-min-above-l-max",
            "f-min-above-f-max", "one-sample", "f-norm-with-family",
            "f-norm-with-physical-point", "steady-f-norm-with-L",
            "duan-f-norm-with-default-L", "zero-span", "negative-tolerance",
            "langevin-inside-burn-in", "duan-grid-coarse", "zero-dt",
            "zero-workers", "sigma-json-with-drive", "sigma-json-with-family",
            "sigma-json-with-L", "sigma-json-with-default-L",
            "sigma-json-with-default-omega"])
    def test_usage_error_exit_code(self, tmp_path, capsys, argv, problem):
        code = main([*argv, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and problem in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["oracle", "langevin", "--f-norm", "1.2", "--dtp", "1.6", "--dtl",
         "1.6", "--omega", "0.5"],
        ["oracle", "jacobian", "--f-norm", "1.2", "--dtp", "1.6", "--dtl",
         "1.6", "--seed", "3"],
        ["oracle", "duan-grid", "--f-norm", "1"],
        ["steady", "--f-norm", "1.6", "--dtp", "2.4", "--dtl", "2.4",
         "--workers", "2"],
        ["dispersion", "--omega", "1"],
        ["phase-diagram", "--family", "TE00", "--grid", "2", "--format",
         "json"],
        ["reproduce", "fig2", "--grid", "8"],
    ], ids=["langevin-omega", "jacobian-seed", "duan-grid-f-norm",
            "steady-workers", "dispersion-omega", "phase-diagram-format",
            "fig2-grid"])
    def test_unread_flag_is_argparse_error(self, tmp_path, capsys, argv):
        # each flag here used to be accepted and ignored
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, keys", [
        (["reproduce", "fig4", "--grid", "4"],
         {"command", "figure", "omega", "grid"}),
        (["oracle", "jacobian", "--f-norm", "1.2", "--dtp", "1.6",
          "--dtl", "1.6"], {"command", "oracle_op", "f_norm", "dtp", "dtl"}),
        (["steady", "--f-norm", "1.2", "--dtp", "1.6", "--dtl", "1.6"],
         {"command", "f_norm", "dtp", "dtl"}),
        (["duan", "--sigma-json", "SIGMA"], {"command", "sigma_json"}),
    ], ids=["fig4", "oracle-jacobian", "steady-raw", "duan-sigma"])
    def test_manifest_parameters_are_flags_read(self, tmp_path, argv, keys):
        # a raw drive reads no --L, and a --sigma-json run no --L/--omega
        sigma = tmp_path / "sigma.json"
        sigma.write_text(json.dumps((0.5 * np.eye(4)).tolist()))
        argv = [str(sigma) if a == "SIGMA" else a for a in argv]
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["parameters"]) == keys

    def test_parser_leaves(self, capsys):
        def walk(parser, path=()):
            yield path, parser
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, child in action.choices.items():
                        yield from walk(child, (*path, name))

        def is_leaf(parser):
            return not any(isinstance(a, argparse._SubParsersAction)
                           for a in parser._actions)

        parsers = list(walk(build_parser()))
        leaves = [(path, p) for path, p in parsers if is_leaf(p)]
        assert len(leaves) == 18
        for path, leaf in leaves:
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([*path, "--help"])
            assert exc.value.code == 0
            flags = {s for a in leaf._actions for s in a.option_strings}
            assert {"--config", "--out"} <= flags, path
            assert callable(leaf.get_default("handler")), path
        # every accepted flag slot, top level and intermediate parsers
        # included; a flag added to a shared parent changes this count
        slots = sum(1 for _, p in parsers for a in p._actions
                    if a.option_strings
                    and not isinstance(a, argparse._HelpAction))
        assert slots == 150

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
        code = main(["phase-diagram", "--config", str(path), "--family",
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
        # one stable pump-only root: the parametric search runs here
        point = ["--f-norm", "1.2957", "--dtp", "1.9306", "--dtl", "3.5463"]
        for command in ("steady", "duan", "spectrum"):
            out = tmp_path / command
            assert main([command, *point, "--out", str(out)]) == 1

    def test_sweeps_start_no_process(self, tmp_path, monkeypatch):
        # every multiprocessing Process class (fork, spawn, forkserver)
        # starts through BaseProcess.start
        def refuse(self):
            raise AssertionError("a sweep started a process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            refuse)
        assert main(["reproduce", "fig7", "--grid", "4", "--workers", "2",
                     "--out", str(tmp_path / "o")]) == 0

    def test_programming_error_in_a_cell_exits_1(self, tmp_path,
                                                 monkeypatch, capsys):
        def broken(*args):
            raise TypeError("broken")

        monkeypatch.setattr(phases, "pump_only_branches", broken)
        code = main(["phase-diagram", "--family", "TE00", "--grid", "4",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "computation error: TypeError: broken")

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

    @pytest.mark.parametrize("argv, name", [
        (["reproduce", "fig4"], "fig4_TE00_L1.csv"),
        (["phase-diagram", "--family", "TE00"], "phase_TE00_L1.csv"),
    ], ids=["fig4", "phase-diagram"])
    def test_phase_csv_numbers_parse(self, tmp_path, argv, name):
        # a numpy scalar written with repr() reads "np.float64(...)"
        out = tmp_path / "o"
        assert main([*argv, "--grid", "4", "--out", str(out)]) == 0
        lines = (out / name).read_text().splitlines()
        header = lines[0].split(",")
        assert len(lines) == 1 + 16
        for line in lines[1:]:
            for key, field in zip(header, line.split(","), strict=True):
                if key != "phase":
                    float(field)

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
        code = main(["reproduce", "fig6", "--config", str(path),
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
