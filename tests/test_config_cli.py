import argparse
import json
import math
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
from kerrcomb.model import NormalizedDrive, OperatingPoint, normalize

from helpers import config_at_order


def parser_leaves(parser, path=()):
    """(command path, parser) of every leaf below ``parser``."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from parser_leaves(child, (*path, name))


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

    def test_config_that_is_not_utf8_is_a_parse_error(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"label": "\xff"}')
        with pytest.raises(ParseError, match="cannot read"):
            load_config(path)

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

    def test_langevin_step_past_euler_limit_exit_code(self, tmp_path, capsys):
        # |1 + 2.5·λ| = 2.8 at M's eigenvalue −1.53: the chain would diverge
        code = main(["oracle", "langevin", "--f-norm", "1.0", "--dtp", "1.2",
                     "--dtl", "1.1", "--t-end", "400", "--dt", "2.5",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("computation error: ValueError: dt = 2.5 ")
        assert not (tmp_path / "o").exists()

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
        (["oracle", "langevin", "--f-norm", "1.2", "--dtp", "1.6",
          "--dtl", "1.6", "--dt", "0"], "--dt must be > 0"),
        (["oracle", "langevin", "--f-norm", "1.2", "--dtp", "1.6",
          "--dtl", "1.6", "--t-end", "inf"], "--t-end must be finite"),
        (["oracle", "mean-field", "--f-norm", "1.2", "--dtp", "1.6",
          "--dtl", "1.6", "--t-end", "inf"], "--t-end must be finite"),
        (["oracle", "mean-field", "--f-norm", "1.2", "--dtp", "1.6",
          "--dtl", "1.6", "--t-end", "0"], "--t-end must be > 0"),
        (["duan", "--f-norm", "1", "--dtp", "1", "--dtl", "1", "--omega",
          "nan"], "--omega must be finite"),
        (["phase-diagram", "--family", "TE00", "--grid", "4", "--omega",
          "nan"], "--omega must be finite"),
        (["reproduce", "fig7", "--grid", "8", "--omega", "inf"],
         "--omega must be finite"),
        (["steady", "--f-norm", "nan", "--dtp", "1", "--dtl", "1"],
         "--f-norm must be finite"),
        (["oracle", "mean-field", "--f-norm", "1.2", "--dtp", "1.6",
          "--dtl", "1.6", "--alpha0", "inf"], "--alpha0 must be finite"),
        (["transmission", "--center-thz", "nan"],
         "--center-thz must be finite"),
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
            "langevin-infinite-t-end", "mean-field-infinite-t-end",
            "mean-field-zero-t-end", "duan-nan-omega",
            "phase-diagram-nan-omega", "fig7-infinite-omega",
            "steady-nan-f-norm", "mean-field-infinite-alpha0",
            "transmission-nan-center-thz",
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

    def test_mean_field_takes_no_dt(self, tmp_path, capsys):
        # the adaptive integrator chooses its own steps; on this leaf
        # --dt is no flag, only a prefix of --dtp and --dtl
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "mean-field", "--f-norm", "1.2", "--dtp", "1.6",
                  "--dtl", "1.6", "--dt", "0.01", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --dt 0.01" in capsys.readouterr().err

    def test_no_leaf_takes_a_flag_prefix(self, capsys):
        # argparse's allow_abbrev would read `duan ... --om 0.5` as
        # --omega, and a removed flag that prefixes one remaining flag
        # would silently set it
        parser = build_parser()
        required = {"--family": "TE00"}

        checked = 0
        for path, leaf in parser_leaves(parser):
            needed = [x for a in leaf._actions if a.required
                      for x in (a.option_strings[0],
                                required[a.option_strings[0]])]
            flags = {s for a in leaf._actions for s in a.option_strings}
            for flag in sorted(f for f in flags if f.startswith("--")):
                for end in range(3, len(flag)):
                    prefix = flag[:end]
                    if prefix in flags:
                        continue
                    with pytest.raises(SystemExit) as exc:
                        parser.parse_args([*path, *needed, prefix, "1"])
                    assert exc.value.code == 2, (path, prefix)
                    err = capsys.readouterr().err
                    assert f"unrecognized arguments: {prefix} 1" in err, \
                        (path, prefix)
                    checked += 1
        assert checked == 851  # every proper prefix on all 18 leaves

    @pytest.mark.parametrize("argv, keys", [
        (["reproduce", "fig4", "--grid", "4"],
         {"command", "figure", "omega", "grid"}),
        (["oracle", "jacobian", "--f-norm", "1.2", "--dtp", "1.6",
          "--dtl", "1.6"], {"command", "oracle_op", "f_norm", "dtp", "dtl"}),
        (["steady", "--f-norm", "1.2", "--dtp", "1.6", "--dtl", "1.6"],
         {"command", "f_norm", "dtp", "dtl"}),
        (["duan", "--sigma-json", "SIGMA"], {"command", "sigma_json"}),
        (["oracle", "mean-field", "--f-norm", "1.2", "--dtp", "1.6",
          "--dtl", "1.6", "--t-end", "5"],
         {"command", "oracle_op", "f_norm", "dtp", "dtl", "t_end", "alpha0"}),
    ], ids=["fig4", "oracle-jacobian", "steady-raw", "duan-sigma",
            "oracle-mean-field"])
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
        assert slots == 149

    def test_every_float_flag_is_checked_finite(self, tmp_path, capsys):
        # a non-finite value on any float flag of any leaf is a usage
        # error before its handler runs, so a new flag cannot skip it
        required = {"--family": "TE00"}

        checked = 0
        for path, leaf in parser_leaves(build_parser()):
            needed = [x for a in leaf._actions if a.required
                      for x in (a.option_strings[0],
                                required[a.option_strings[0]])]
            for action in leaf._actions:
                if action.type is not float:
                    continue
                flag = action.option_strings[0]
                out = tmp_path / "o"
                code = main([*path, *needed, flag, "nan", "--out", str(out)])
                err = capsys.readouterr().err
                assert code == 2, (path, flag)
                assert f"usage error: {flag} must be finite" in err
                assert not out.exists()
                checked += 1
        assert checked == 71

    @pytest.mark.parametrize("section, key, value, problem", [
        ("sweep_defaults", "grid", 0, "grid must be an integer >= 1"),
        ("sweep_defaults", "grid", "x", "grid must be an integer >= 1"),
        ("sweep_defaults", "delta_min_ghz", 0.9, "must be below"),
        ("sweep_defaults", "amp_min_v_per_m", -1.0, "must be >= 0"),
        ("heatmap", "bucket_edges", [-0.5, -0.6, 0.0], "must ascend"),
        ("heatmap", "bucket_colors", ["#000000"], "one color per edge"),
        ("tolerances", "epsilon_ne", True, "epsilon_ne must be a finite "
         "positive number"),
        ("tolerances", "epsilon_ne", 0.0, "epsilon_ne must be a finite "
         "positive number"),
        ("tolerances", "mi_margin_cells", 1.5, "must be an integer >= 0"),
        ("tolerances", "mi_margin_cells", True, "must be an integer >= 0"),
        ("tolerances", "mi_margin_cells", "2", "must be an integer >= 0"),
        ("tolerances", "mi_margin_cells", -1, "must be an integer >= 0"),
        ("tolerances", "truncation_order", 3.0, "must be an integer in 2..5"),
        ("tolerances", "truncation_order", True, "must be an integer in 2..5"),
        ("tolerances", "truncation_order", 6, "must be an integer in 2..5"),
    ], ids=["grid-zero", "grid-not-int", "delta-min-above-max",
            "negative-amp-min", "edges-descend", "too-few-colors",
            "epsilon-bool", "epsilon-zero", "margin-float", "margin-bool",
            "margin-string", "margin-negative", "order-float", "order-bool",
            "order-six"])
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

    @pytest.mark.parametrize("keys, name, value", [
        (("resonator", "radius_um"), "resonator.radius_um", math.inf),
        (("resonator", "families", 0, "d2_rad_s"),
         "resonator.families[0].d2_rad_s", math.nan),
        (("tolerances", "epsilon_ne"), "tolerances.epsilon_ne", math.nan),
        (("sweep_defaults", "delta_max_ghz"), "sweep_defaults.delta_max_ghz",
         math.inf),
        (("heatmap", "bucket_edges", 1), "heatmap.bucket_edges[1]",
         -math.inf),
    ], ids=["resonator", "family", "tolerances", "sweep_defaults",
            "heatmap"])
    def test_non_finite_config_number_exits_2(self, tmp_path, capsys, keys,
                                              name, value):
        raw = json.loads(default_config_path().read_text())
        node = raw
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))  # writes NaN, Infinity, -Infinity
        code = main(["phase-diagram", "--config", str(path), "--family",
                     "TE00", "--grid", "2", "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: {name} must be finite, got {value!r}\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("keys, value, problem", [
        (("tolerances",), 5, "tolerances must be an object, got 5"),
        ((), [], "top level must be an object, got []"),
        (("resonator", "families"), 5,
         "resonator.families must be a list, got 5"),
        (("resonator", "families", 0), 7,
         "resonator.families[0] must be an object, got 7"),
        (("resonator", "families", 0, "fsr_ghz"), "x",
         "resonator.families[0].fsr_ghz must be a number, got 'x'"),
        (("resonator", "families", 0, "d2_rad_s"), True,
         "resonator.families[0].d2_rad_s must be a number, got True"),
        (("resonator", "radius_um"), True,
         "resonator.radius_um must be a number, got True"),
        (("resonator", "geometry"), [["gap_um", 0.49]],
         "resonator.geometry must be an object, got [['gap_um', 0.49]]"),
    ], ids=["tolerances-int", "top-level-list", "families-int",
            "family-entry-int", "fsr-string", "d2-bool", "radius-bool",
            "geometry-list"])
    def test_wrong_json_type_exits_2(self, tmp_path, capsys, keys, value,
                                     problem):
        raw = json.loads(default_config_path().read_text())
        node = raw
        for key in keys[:-1]:
            node = node[key]
        if keys:
            node[keys[-1]] = value
        else:
            raw = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(raw))
        code = main(["dispersion", "--config", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {problem}")
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

    def test_overflowing_pair_detuning_exits_1(self, tmp_path, capsys):
        code = main(["steady", "--f-norm", "1", "--dtp", "0", "--dtl",
                     "1e155", "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == (
            "computation error: ValueError: dtl is too large: its square "
            "overflows\n")
        assert not (tmp_path / "o").exists()

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

    def test_duan_claims_no_entanglement_on_mi(self, tmp_path):
        # bistable: three pump-only roots, with a negative witness value
        code = main(["duan", "--f-norm", "2.0", "--dtp", "3.0", "--dtl",
                     "3.0", "--out", str(tmp_path / "o")])
        assert code == 0
        data = json.loads((tmp_path / "o" / "duan.json").read_text())
        assert data["phase"] == "MI"
        assert data["entangled"] is None
        assert data["c_min"] < -0.2

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

    def test_fig5_solves_each_pump_cell_once(self, tmp_path, monkeypatch):
        # six L share one pump grid: the pump-only roots are L-free
        calls = []
        real = phases.pump_only_branches

        def counted(f_norm, dtp):
            calls.append((f_norm, dtp))
            return real(f_norm, dtp)

        monkeypatch.setattr(phases, "pump_only_branches", counted)
        assert main(["reproduce", "fig5", "--grid", "5",
                     "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 5 * 5
        assert len(set(calls)) == len(calls)

    # operating_state searches at every one-root drive, which covers all
    # 192 points of the default fine scans; on the high-amplitude axis 4
    # points have three roots, and only there does fig6 search itself
    @pytest.mark.parametrize("axes, searches", [
        ([], 0), (["--grid", "16", "--amp-min", "2e7", "--amp-max", "6e7"], 4),
    ], ids=["default", "multi_root_points"])
    def test_fig6_searches_only_where_operating_state_did_not(
            self, tmp_path, monkeypatch, cfg, axes, searches):
        calls = []
        real = steady.parametric_branch

        def counted(f_norm, dtp, dtl):
            calls.append((f_norm, dtp, dtl))
            return real(f_norm, dtp, dtl)

        monkeypatch.setattr(steady, "parametric_branch", counted)
        out = tmp_path / "o"
        assert main(["reproduce", "fig6", *axes, "--out", str(out)]) == 0
        assert len(calls) == searches
        # every row's pair power is that of a fresh search at its drive
        rows = 0
        for label in ("TE00", "TE10", "TM10"):
            fam = cfg.resonator.family(label)
            lines = (out / f"fig6_{label}.csv").read_text().splitlines()
            for line in lines[1:]:
                delta, a_pin, _, a2_mean = line.split(",")[:4]
                drive = normalize(OperatingPoint(
                    family=fam, L=1, delta_p0=float(delta),
                    a_pin=float(a_pin)))
                found = real(drive.f_norm, drive.dtp, drive.dtl)
                assert float(a2_mean) == max((s.a2 for s in found),
                                             default=0.0)
                rows += 1
        assert rows == 3 * (int(axes[1]) if axes else 64)

    def test_config_truncation_order_applied_at_load(self, tmp_path):
        # load_config zeroes d_n past the order, so no sweep, table or
        # drive takes one; a higher order still moves the outputs
        raw = json.loads(default_config_path().read_text())
        outputs = {}
        for order in (2, 3, 4, 5):
            path = config_at_order(order, tmp_path)
            families = load_config(path).resonator.families
            for fam, fam_raw in zip(families, raw["resonator"]["families"]):
                for n in range(1, 6):
                    expected = fam_raw[f"d{n}_rad_s"] if n <= order else 0.0
                    assert getattr(fam, f"d{n}") == expected
            if order in (3, 5):
                out = tmp_path / f"o{order}"
                for argv in (["reproduce", "fig6", "--grid", "4"],
                             ["dispersion"]):
                    assert main([*argv, "--config", str(path),
                                 "--out", str(out)]) == 0
                outputs[order] = {f.name: f.read_bytes()
                                  for f in out.glob("*.csv")}
        assert outputs[3].keys() == outputs[5].keys()
        assert len(outputs[3]) == 4  # fig6 per family, and dispersion
        assert all(outputs[3][name] != outputs[5][name]
                   for name in outputs[3])

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
