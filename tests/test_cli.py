import argparse
import json
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from radialnls import ClassificationVerdict, FunctionalReport
from radialnls.cli import (
    _COMMANDS, ORACLE_AGREEMENT_REL, ConfigError, RunConfig, _build_parser, main,
    parse_config, write_csv,
)
from radialnls import cli, evolve
from radialnls.ground_state import MAX_ITER
from radialnls.localized_virial import RigidityReport

from helpers import ABORTING


#: the blow-up factor is the constant evolve.BLOWUP_GRAD_FACTOR; its name
#: as a key is neither a flag nor a config key of any command
FACTOR_KEY = "BLOWUP_GRAD_FACTOR".lower()

BASE = "gamma = 1.0\nmu = 1.0\nomega = 1.0\nn = 512\nR_max = 16\n"


def write_cfg(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestParseConfig:
    def test_valid_file(self, tmp_path):
        path = write_cfg(tmp_path, "gamma = 1.0\nmu = 1.0\nomega = 1.0\nn = 4096\nR_max = 32")
        cfg = parse_config("functionals", path)
        assert cfg.gamma == 1.0 and cfg.n == 4096 and cfg.R_max == 32.0

    def test_mu_constraint_cites_line(self, tmp_path):
        path = write_cfg(tmp_path, "gamma = 1.0\nmu = 2.5\n")
        with pytest.raises(ConfigError, match=r":2: mu must satisfy 0 < mu < 2"):
            parse_config("functionals", path)

    def test_unknown_key_cites_line(self, tmp_path):
        path = write_cfg(tmp_path, "gamma = 1.0\nomeg = 1.0\n")
        with pytest.raises(ConfigError, match=r":2: unknown key 'omeg'"):
            parse_config("functionals", path)

    def test_malformed_number(self, tmp_path):
        path = write_cfg(tmp_path, "gamma = squid\n")
        with pytest.raises(ConfigError, match=r":1: bad value"):
            parse_config("functionals", path)

    def test_flag_overrides_file(self, tmp_path):
        path = write_cfg(tmp_path, "omega = 1.0\n")
        cfg = parse_config("functionals", path, {"omega": 2.0})
        assert cfg.omega == 2.0

    def test_override_key_the_command_does_not_read(self):
        with pytest.raises(ConfigError, match=r"^unknown key 'dt' for functionals$"):
            parse_config("functionals", None, {"dt": 1e-3})

    def test_comments_and_blanks(self, tmp_path):
        path = write_cfg(tmp_path, "# comment\n\ngamma = 0.5  # trailing\n")
        assert parse_config("functionals", path).gamma == 0.5

    def test_line_without_equals_cites_line(self, tmp_path):
        path = write_cfg(tmp_path, BASE + "gamma 2\n")
        with pytest.raises(ConfigError, match=r"run.cfg:6: expected 'key = value', got 'gamma 2'$"):
            parse_config("functionals", path)

    @pytest.mark.parametrize("text,value", [
        ("true", True), ("ON", True), ("false", False), ("0", False), ("No", False),
        ("off", False),
    ])
    def test_boolean_values(self, tmp_path, text, value):
        path = write_cfg(tmp_path, BASE + f"with_oracle = {text}\n")
        assert parse_config("ground-state", path).with_oracle is value

    def test_bad_boolean_cites_line(self, tmp_path):
        path = write_cfg(tmp_path, BASE + "with_oracle = maybe\n")
        with pytest.raises(ConfigError, match=re.escape(
                "run.cfg:6: bad value for with_oracle: not a boolean: ' maybe'")):
            parse_config("ground-state", path)


    def test_seed_key_unknown(self, tmp_path):
        path = write_cfg(tmp_path, BASE + "seed = 3\n")
        with pytest.raises(ConfigError, match=r"run.cfg:6: unknown key 'seed'"):
            parse_config("functionals", path)

    def test_evolution_carries_every_shared_field(self, tmp_path):
        path = write_cfg(tmp_path, BASE + (
            "dt = 5e-4\nt_end = 3\nmonitor_every = 7\nabsorb = true\n"
            "absorb_width = 2.5\ndecay_window = 1.5\nsplitting_order = 4\n"
        ))
        evo = parse_config("evolve", path)
        assert (evo.dt, evo.t_end, evo.monitor_every, evo.absorb) == (5e-4, 3.0, 7, True)
        assert (evo.absorb_width, evo.decay_window) == (2.5, 1.5)
        assert evo.splitting_order == 4

    def test_every_field_is_read_by_some_command(self):
        read = {name for _, _, names in _COMMANDS.values() for name in names}
        assert read == {f.name for f in fields(RunConfig)}

    @pytest.mark.parametrize("command,line", [
        ("evolve", "dt = 1"),
        ("classify", "dt = 1"),
        ("functionals", "R_max = inf"),
        ("ground-state", "omega = 0"),
        ("virial-check", "splitting_order = 3"),
        ("evolve", "decay_window = 0"),
        ("evolve", "dt = 1e-300"),
        ("classify", "amplitude = nan"),
        ("sweep", "amplitudes = 0.5, inf"),
        ("evolve", "t_end = 1e308"),
        ("evolve", "t_end = 0"),
        ("evolve", "monitor_every = 0"),
    ])
    def test_file_value_rejected_with_its_line(self, tmp_path, command, line):
        key = line.split()[0]
        path = write_cfg(tmp_path, BASE + line + "\n")
        with pytest.raises(ConfigError, match=rf"run.cfg:6: {key} must"):
            parse_config(command, path)


def _failing_oracle(*args):
    raise RuntimeError("bracket search left floating-point range")


class TestExitCodes:
    def test_raised_numerical_failure_removes_the_directory_it_made(
            self, tmp_path, capsys, monkeypatch):
        # the oracle raises after the descent: the new directory goes too
        monkeypatch.setattr(cli, "shoot_ode", _failing_oracle)
        out = tmp_path / "new" / "gs"
        rc = main(["ground-state", "--with-oracle", "--n", "512", "--r-max", "16",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (
            "numerical failure: bracket search left floating-point range\n")
        assert not (tmp_path / "new").exists()

    def test_raised_failure_writes_nothing_into_an_existing_out(
            self, tmp_path, capsys, monkeypatch):
        # no Q.csv is left behind by a ground state whose oracle then raises
        monkeypatch.setattr(cli, "shoot_ode", _failing_oracle)
        out = tmp_path / "gs"
        out.mkdir()
        rc = main(["ground-state", "--with-oracle", "--n", "512", "--r-max", "16",
                   "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("numerical failure:")
        assert list(out.iterdir()) == []

    def test_memory_error_exits_one_with_a_resource_error(
            self, tmp_path, capsys, monkeypatch):
        # stands in for a grid too large to allocate, e.g. --n 99999999999
        def exhausted(*args):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(cli, "minimize_quotient", exhausted)
        out = tmp_path / "new" / "fn"
        rc = main(["functionals", "--n", "512", "--r-max", "16", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "resource error: Unable to allocate 745. GiB for an array\n"
        assert "Traceback" not in err
        assert not (tmp_path / "new").exists()

    def test_bad_constraint_exits_one(self, tmp_path, capsys):
        rc = main(["functionals", "--mu", "2.5", "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "mu" in capsys.readouterr().err

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        path = write_cfg(tmp_path, "nonsense = 3\n")
        rc = main(["functionals", "--config", path, "--out", str(tmp_path / "o")])
        assert rc == 1

    @pytest.mark.parametrize("command,line,flags", [
        ("virial-check", "absorb = true", ["--dt", "1e-3", "--t-probe", "0.01"]),
        ("virial-check", "t_end = 0.001", ["--dt", "1e-3", "--t-probe", "0.01"]),
        ("virial-check", "decay_window = 0.001", ["--dt", "1e-3", "--t-probe", "0.01"]),
        ("virial-check", "absorb_width = nan", ["--dt", "1e-3", "--t-probe", "0.01"]),
        ("ground-state", "dt = 0", []),
        ("evolve", f"{FACTOR_KEY} = 6", []),
        ("functionals", "t_end = 1", []),
    ])
    def test_key_the_command_does_not_read_exits_one(
        self, tmp_path, capsys, command, line, flags
    ):
        path = write_cfg(tmp_path, BASE + line + "\n", name="f")
        rc = main([command, "--config", path, *flags, "--out", str(tmp_path / "o")])
        assert rc == 1
        key = line.split()[0]
        assert f"f:6: unknown key {key!r} for {command}" in capsys.readouterr().err

    def test_missing_config_file_exits_one(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        rc = main(["evolve", "--config", str(missing), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("file error:") and str(missing) in err

    def test_out_under_a_regular_file_exits_one(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        rc = main(["functionals", "--family", "gaussian", "--n", "512", "--r-max", "16",
                   "--out", str(blocker / "fn")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("file error:") and str(blocker) in err

    @pytest.mark.parametrize(
        "flag,name", [("--r-max", "R_max"), ("--gamma", "gamma"), ("--omega", "omega")])
    def test_infinite_parameter_exits_one(self, tmp_path, capsys, flag, name):
        out = tmp_path / "fn"
        rc = main([
            "functionals", "--family", "gaussian", "--n", "512", "--r-max", "16",
            flag, "inf", "--out", str(out),
        ])
        assert rc == 1
        assert f"validation error: {name} must be finite" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    # a non-finite amplitude is named before any ground state or field is built
    @pytest.mark.parametrize("command,flag,value", [
        ("functionals", "--amplitude", "nan"),
        ("evolve", "--amplitude", "inf"),
        ("classify", "--amplitude", "inf"),
        ("virial-check", "--amplitude", "-inf"),
        ("sweep", "--amplitudes", "0.5,nan"),
    ])
    def test_non_finite_amplitude_exits_one(self, tmp_path, capsys, command, flag, value):
        out = tmp_path / "o"
        rc = main([command, "--n", "512", "--r-max", "16", f"{flag}={value}", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: {flag[2:]} must be finite, got ")
        assert not out.exists()


    @pytest.mark.parametrize("argv", [
        ["ground-state", "--gamma", "1e300"],
        ["evolve", "--amplitude", "1e200", "--n", "64", "--r-max", "16", "--t-end", "0.01"],
    ])
    def test_overflowing_input_prints_one_line(self, tmp_path, capsys, argv):
        """An input that overflows on the way to the finiteness checks ends
        in their message alone: numpy warns of no overflow on stderr."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(argv + ["--out", str(tmp_path / "o")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "validation error: integrand contains non-finite entries\n")


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["functionals", "--n", "abc"],
        ["functionals", "--bogus"],
        ["evolve", "--" + FACTOR_KEY.replace("_", "-"), "6"],
        [],
    ])
    def test_usage_error_exits_one(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["functionals", "--help"])
        assert exc.value.code == 0

    def test_unknown_family_exits_one(self, tmp_path, capsys):
        out = tmp_path / "fn"
        rc = main(["functionals", "--family", "foo", "--out", str(out)])
        assert rc == 1
        assert "family must be 'cQ' or 'gaussian'" in capsys.readouterr().err
        assert not out.exists()

    # a NaN or non-positive window would switch decay detection off; +inf is "off"
    @pytest.mark.parametrize("window", ["nan", "0", "-1"])
    def test_bad_decay_window_exits_one(self, tmp_path, capsys, window):
        out = tmp_path / "ev"
        rc = main([
            "evolve", "--family", "gaussian", "--amplitude", "0.5", "--n", "512",
            "--r-max", "16", "--t-end", "3", "--absorb", "--absorb-width", "3",
            f"--decay-window={window}", "--out", str(out),
        ])
        assert rc == 1
        assert "validation error: decay_window must be positive" in capsys.readouterr().err
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("width", [["--width", "0"], ["--width=-1"]])
    def test_nonpositive_width_exits_one(self, tmp_path, capsys, width):
        out = tmp_path / "fn"
        rc = main(["functionals", "--family", "gaussian", "--n", "512", "--r-max", "16",
                   *width, "--out", str(out)])
        assert rc == 1
        assert "validation error: width" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    # 0.01 and 0.02 are 10 and 20 steps: no tick of monitor_every = 20 has
    # steps on both sides, so the second difference could not be checked
    @pytest.mark.parametrize("t_probe", ["1e-4", "inf", "0.01", "0.02"])
    def test_probe_horizon_checked(self, tmp_path, capsys, t_probe):
        out = tmp_path / "vc"
        rc = main(["virial-check", "--n", "512", "--r-max", "16", "--dt", "1e-3",
                   "--t-probe", t_probe, "--out", str(out)])
        assert rc == 1
        assert "validation error: probe horizon" in capsys.readouterr().err
        assert not out.exists()

    # each horizon is more steps than a float can count
    @pytest.mark.parametrize("argv", [
        ["evolve", "--t-end", "1e308"],
        ["classify", "--verify", "--t-end", "1e308"],
        ["virial-check", "--t-probe", "1e308"],
    ], ids=lambda argv: argv[0])
    def test_horizon_beyond_float_steps_exits_one(self, tmp_path, capsys, argv):
        out = tmp_path / "run" / "deep"
        rc = main([*argv, "--n", "512", "--r-max", "16", "--dt", "1e-11",
                   "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "run").exists()


_COMMON_FLAGS = ["--config", "--gamma", "--mu", "--omega", "--n", "--r-max", "--out"]
_EVOLUTION_FLAGS = [
    "--dt", "--t-end", "--monitor-every", "--absorb", "--no-absorb", "--absorb-width",
    "--decay-window", "--splitting-order",
]
_VERIFY_FLAGS = [f for f in _EVOLUTION_FLAGS if f not in ("--absorb", "--no-absorb")]
_FAMILY_FLAGS = ["--family", "--amplitude", "--width"]

#: the option strings of every subcommand, in help order
COMMAND_FLAGS = {
    "ground-state": _COMMON_FLAGS + ["--with-oracle", "--no-with-oracle"],
    "functionals": _COMMON_FLAGS + _FAMILY_FLAGS,
    "evolve": _COMMON_FLAGS + _EVOLUTION_FLAGS + _FAMILY_FLAGS + ["--snapshot-times"],
    "classify": _COMMON_FLAGS + _VERIFY_FLAGS + _FAMILY_FLAGS + ["--verify", "--no-verify"],
    "sweep": _COMMON_FLAGS + _VERIFY_FLAGS + [
        "--family", "--amplitudes", "--widths", "--workers", "--verify", "--no-verify",
    ],
    "virial-check": _COMMON_FLAGS + ["--dt", "--monitor-every", "--splitting-order",
                                     "--amplitude", "--t-probe"],
}


class TestCommandSurface:
    def test_flags_per_command(self):
        (subs,) = [a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
        surface = {
            name: [s for a in sub._actions for s in a.option_strings
                   if s not in ("-h", "--help")]
            for name, sub in subs.choices.items()
        }
        assert surface == COMMAND_FLAGS

    @pytest.mark.parametrize("argv,fname,cls", [
        (["functionals", "--family", "gaussian", "--n", "512", "--r-max", "16"],
         "report.json", FunctionalReport),
        (["classify", "--family", "cQ", "--amplitude", "1.1", "--n", "512",
          "--r-max", "16"], "verdict.json", ClassificationVerdict),
        (["virial-check", "--amplitude", "0.9", "--t-probe", "0.2", "--n", "1024",
          "--r-max", "32"], "probe.json", RigidityReport),
    ])
    def test_json_keys_are_dataclass_fields(self, tmp_path, argv, fname, cls):
        out = tmp_path / "o"
        assert main(argv + ["--out", str(out)]) == 0
        data = json.loads((out / fname).read_text())
        assert set(data) == {f.name for f in fields(cls)}
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["config"]) == set(_COMMANDS[argv[0]][2])


    @pytest.mark.parametrize("argv,phases", [
        pytest.param(["ground-state", "--with-oracle", "--n", "1024"],
                     {"descent", "oracle", "write"}, id="ground-state"),
        pytest.param(["functionals"], {"descent", "report", "write"}, id="functionals"),
        pytest.param(["evolve", "--t-end", "0.05"], {"descent", "run", "write"},
                     id="evolve"),
        pytest.param(["classify", "--verify", "--t-end", "0.05"],
                     {"descent", "verify", "write"}, id="classify"),
        pytest.param(["sweep", "--amplitudes", "0.7,1.1"], {"descent", "rows", "write"},
                     id="sweep"),
        pytest.param(["virial-check", "--t-probe", "0.05"], {"descent", "probe", "write"},
                     id="virial-check"),
    ])
    def test_phases_fit_in_the_duration(self, tmp_path, argv, phases):
        out = tmp_path / "o"
        assert main(argv + ["--r-max", "16", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["phases_s"]) == phases
        assert all(v >= 0.0 for v in manifest["phases_s"].values())
        assert sum(manifest["phases_s"].values()) <= manifest["duration_s"]


class TestManifestOutputs:
    @pytest.mark.parametrize("argv,rc,outputs", [
        pytest.param(["ground-state"], 0, ["Q.csv", "result.json"], id="ground-state"),
        pytest.param(["functionals"], 0, ["report.json"], id="functionals"),
        pytest.param(["evolve", "--family", "gaussian", "--amplitude", "0.3",
                      "--t-end", "0.02", "--snapshot-times", "0.01,0.02"], 0,
                     ["trace.csv", "snapshot_000.csv", "snapshot_001.csv", "result.json"],
                     id="evolve"),
        pytest.param(["classify"], 0, ["verdict.json"], id="classify"),
        pytest.param(["sweep", "--amplitudes", "0.5"], 0, ["sweep.csv"], id="sweep"),
        pytest.param(["virial-check", "--t-probe", "0.05"], 0, ["probe.json"],
                     id="virial-check"),
        pytest.param(["ground-state", "--gamma", "100", "--mu", "1.5"], 2,
                     ["Q.csv", "result.json"], id="unconverged"),
        pytest.param(["ground-state", "--with-oracle", "--n", "64"], 2,
                     ["Q.csv", "result.json"], id="oracle-gap"),
    ])
    def test_outputs_are_the_files_written_in_order(self, tmp_path, argv, rc, outputs):
        out = tmp_path / "o"
        # a later flag wins, so the oracle-gap case runs at --n 64
        command, *flags = argv
        assert main([command, "--n", "512", "--r-max", "16", *flags,
                     "--out", str(out)]) == rc
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == outputs
        written = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert written == set(outputs)


class TestWriteCsv:
    def test_float_array_prints_as_its_rows(self, tmp_path):
        # the one-pass array branch against the cell-by-cell rows branch
        rng = np.random.default_rng(3)
        table = rng.standard_normal((200, 3)) * 10.0 ** rng.uniform(-300, 300, (200, 3))
        table[:6, 1] = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324]
        write_csv(tmp_path / "bulk.csv", ["a", "b", "c"], table)
        write_csv(tmp_path / "rows.csv", ["a", "b", "c"], [tuple(row) for row in table])
        bulk = (tmp_path / "bulk.csv").read_bytes()
        assert bulk == (tmp_path / "rows.csv").read_bytes()
        assert bulk.count(b"\n") == 201

    def test_flag_column_prints_as_integers(self, tmp_path):
        # trace.csv's k_bound_ok column: bools stacked with floats print as
        # the 1 and 0 of int(flag)
        times, flags = [0.0, 0.25, 1e-300], [True, False, True]
        write_csv(tmp_path / "bulk.csv", ["t", "ok"], np.column_stack((times, flags)))
        write_csv(tmp_path / "rows.csv", ["t", "ok"],
                  [(t, int(b)) for t, b in zip(times, flags)])
        bulk = (tmp_path / "bulk.csv").read_text()
        assert bulk == (tmp_path / "rows.csv").read_text()
        assert bulk.splitlines()[1:] == ["0,1", "0.25,0", "1e-300,1"]

    def test_columns_print_as_their_stack(self, tmp_path):
        columns = (np.linspace(0.0, 1.0, 7), np.exp(np.arange(7.0)), [True, False] * 3 + [True])
        write_csv(tmp_path / "cols.csv", ["a", "b", "ok"], columns)
        write_csv(tmp_path / "bulk.csv", ["a", "b", "ok"], np.column_stack(columns))
        assert (tmp_path / "cols.csv").read_bytes() == (tmp_path / "bulk.csv").read_bytes()

    def test_empty_array_writes_the_header(self, tmp_path):
        write_csv(tmp_path / "e.csv", ["r", "Q"], np.empty((0, 2)))
        assert (tmp_path / "e.csv").read_text() == "r,Q\n"


class TestGroundStateCommand:
    def test_happy_path(self, tmp_path):
        out = tmp_path / "gs"
        cfg = write_cfg(tmp_path, BASE)
        rc = main(["ground-state", "--config", cfg, "--out", str(out)])
        assert rc == 0
        assert (out / "Q.csv").exists()
        result = json.loads((out / "result.json").read_text())
        assert result["converged"] is True
        assert result["level"] > 0.0
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == {
            "command", "config", "versions", "started_at", "import_s", "duration_s",
            "outputs", "phases_s",
        }
        assert manifest["command"] == "ground-state"
        assert "Q.csv" in manifest["outputs"]
        assert set(manifest["phases_s"]) == {"descent", "write"}

    def test_oracle_block_keys(self, tmp_path):
        out = tmp_path / "gs"
        cfg = write_cfg(tmp_path, BASE)
        assert main(["ground-state", "--config", cfg, "--with-oracle",
                     "--out", str(out)]) == 0
        oracle = json.loads((out / "result.json").read_text())["oracle"]
        assert set(oracle) == {
            "level", "amplitude", "agreement_rel", "iterations", "ode_residual",
        }
        assert isinstance(oracle["iterations"], int) and oracle["iterations"] > 0
        assert oracle["ode_residual"] >= 0.0

    def test_oracle_disagreement_exits_two(self, tmp_path, capsys):
        # h sqrt(omega) = 0.25 passes the core check, but the two levels
        # differ by 3.5 %: the files are written and the gap is named
        out = tmp_path / "gs"
        rc = main(["ground-state", "--with-oracle", "--n", "64", "--r-max", "16",
                   "--out", str(out)])
        assert rc == 2
        oracle = json.loads((out / "result.json").read_text())["oracle"]
        assert oracle["agreement_rel"] > ORACLE_AGREEMENT_REL
        err = capsys.readouterr().err
        assert err == (f"oracle disagreement: agreement_rel = {oracle['agreement_rel']:.3g} "
                       f"exceeds {ORACLE_AGREEMENT_REL}\n")
        assert (out / "manifest.json").exists()

    def test_oracle_agreement_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "gs"
        rc = main(["ground-state", "--with-oracle", "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().err == ""
        oracle = json.loads((out / "result.json").read_text())["oracle"]
        assert oracle["agreement_rel"] <= 1e-6

    def test_unresolved_core_exits_one(self, tmp_path, capsys):
        # h = 1/128 is wider than the core width 1/sqrt(omega) = 1/200
        out = tmp_path / "gs"
        rc = main(["ground-state", "--with-oracle", "--gamma", "0",
                   "--omega", "40000", "--out", str(out)])
        assert rc == 1
        assert "h*sqrt(omega) = 1.562 exceeds 0.3" in capsys.readouterr().err
        assert not (out / "result.json").exists()

    def test_q_csv_roundtrip(self, tmp_path):
        out = tmp_path / "gs"
        cfg = write_cfg(tmp_path, BASE)
        main(["ground-state", "--config", cfg, "--out", str(out)])
        lines = (out / "Q.csv").read_text().splitlines()
        assert lines[0] == "r,Q"
        r0 = float(lines[1].split(",")[0])
        assert r0 == 16.0 / 512 / 2.0  # exact round-trip of the first node

    def test_determinism(self, tmp_path):
        cfg = write_cfg(tmp_path, BASE)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["ground-state", "--config", cfg, "--out", str(out)]) == 0
            outs.append(out)
        for fname in ("Q.csv", "result.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()


#: a point where the descent runs out of iterations (ROADMAP item 2)
UNCONVERGED = ["--gamma", "100", "--mu", "1.5", "--n", "512", "--r-max", "16"]


class TestUnconvergedGroundState:
    def test_ground_state_writes_its_files_and_exits_two(self, tmp_path, capsys):
        out = tmp_path / "gs"
        assert main(["ground-state", *UNCONVERGED, "--out", str(out)]) == 2
        result = json.loads((out / "result.json").read_text())
        assert result["converged"] is False
        assert result["iterations"] == MAX_ITER
        assert capsys.readouterr().err == (
            f"numerical failure: ground state did not converge in {MAX_ITER} descent "
            f"iterations (grad_norm = {result['grad_norm']:.3g})\n")
        assert sorted(p.name for p in out.iterdir()) == ["Q.csv", "manifest.json", "result.json"]

    @pytest.mark.parametrize("argv", [
        ["functionals", *UNCONVERGED],
        ["evolve", "--t-end", "0.01", *UNCONVERGED],
        ["classify", *UNCONVERGED],
        ["sweep", "--amplitudes", "0.5", *UNCONVERGED],
        ["virial-check", "--t-probe", "0.05", *UNCONVERGED],
        # exp(-r^2) underflows to zero on every node: the descent cannot start
        ["ground-state", "--omega", "1e-6", "--n", "16", "--r-max", "1000"],
    ])
    def test_other_commands_exit_two_before_writing(self, tmp_path, capsys, argv):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == 2
        cause = ("initial iterate degenerate; cannot start descent\n" if argv[0] == "ground-state"
                 else f"ground state did not converge in {MAX_ITER} descent iterations")
        assert capsys.readouterr().err.startswith(f"numerical failure: {cause}")
        assert not out.exists()


class TestFunctionalsCommand:
    def test_gaussian_report(self, tmp_path):
        out = tmp_path / "fn"
        rc = main([
            "functionals", "--family", "gaussian", "--amplitude", "1.0",
            "--width", "1.0", "--n", "4096", "--r-max", "16",
            "--out", str(out),
        ])
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert set(rep) == {
            "mass", "kinetic", "potential_term", "quartic",
            "energy", "action", "sobolev_gamma_sq", "h1_omega_gamma_sq",
        }
        assert rep["mass"] == pytest.approx((np.pi / 2.0) ** 1.5, rel=1e-6)


class TestEvolveCommand:
    def test_trace_and_snapshots(self, tmp_path):
        out = tmp_path / "ev"
        rc = main([
            "evolve", "--family", "gaussian", "--amplitude", "0.3",
            "--width", "1.0", "--n", "512", "--r-max", "16",
            "--dt", "1e-3", "--t-end", "0.1", "--monitor-every", "10",
            "--decay-window", "inf",
            "--snapshot-times", "0.05",
            "--out", str(out),
        ])
        assert rc == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "t,mass_drift,energy_drift,l4,grad,K_gamma,k_bound_ok"
        assert len(lines) > 2
        assert (out / "snapshot_000.csv").exists()
        result = json.loads((out / "result.json").read_text())
        assert result["outcome"] == "ran_to_t_end"
        # the snapshot holds the first tick at or past the requested time
        (snap,) = result["snapshots"]
        assert snap["file"] == "snapshot_000.csv"
        assert snap["t_requested"] == 0.05
        ticks = [float(line.split(",")[0]) for line in lines[1:]]
        assert snap["t"] == min(t for t in ticks if t >= 0.05)
        assert result["snapshots_unreached"] == []

    def test_result_lists_dt_events(self, tmp_path):
        # 0.9 Q on a coarse grid: the probe shrinks dt at t = 0, and once the
        # error falls dt grows back; each change is one event record
        out = tmp_path / "ev"
        rc = main(["evolve", "--n", "512", "--r-max", "16", "--t-end", "0.2",
                   "--out", str(out)])
        assert rc == 0
        result = json.loads((out / "result.json").read_text())
        events = result["events"]
        causes = [e["cause"] for e in events]
        assert causes[0] == "probe" and "grow" in causes
        assert all(sorted(e) == ["cause", "dt_new", "dt_old", "err", "t"] for e in events)
        assert [e["dt_old"] for e in events[1:]] == [e["dt_new"] for e in events[:-1]]
        assert max(e["dt_new"] for e in events) <= 1e-3
        assert result["dt_final"] == events[-1]["dt_new"]
        assert result["stepper_builds"] >= 2 + len(events)

    def test_unreached_snapshot_times_listed(self, tmp_path):
        # blow-up is detected at t = 0.1, before the second requested time
        out = tmp_path / "ev"
        rc = main([
            "evolve", "--family", "gaussian", "--amplitude", "5", "--n", "512",
            "--r-max", "8", "--t-end", "0.3", "--snapshot-times", "0.05,0.25",
            "--out", str(out),
        ])
        assert rc == 0
        result = json.loads((out / "result.json").read_text())
        assert result["outcome"] == "blowup_detected"
        assert [snap["t_requested"] for snap in result["snapshots"]] == [0.05]
        assert result["snapshots_unreached"] == [0.25]

    @pytest.mark.parametrize("times", ["nan,0.02", "-0.01", "inf"])
    def test_bad_snapshot_time_exits_one(self, tmp_path, capsys, times):
        out = tmp_path / "ev"
        rc = main([
            "evolve", "--family", "gaussian", "--amplitude", "0.3", "--n", "256",
            "--r-max", "8", "--t-end", "0.05", f"--snapshot-times={times}",
            "--out", str(out),
        ])
        assert rc == 1
        assert "validation error: snapshot_times must be finite" in capsys.readouterr().err
        assert not (out / "result.json").exists()

    def test_snapshot_past_t_end_exits_one(self, tmp_path, capsys):
        out = tmp_path / "ev"
        rc = main([
            "evolve", "--family", "gaussian", "--amplitude", "0.3", "--n", "256",
            "--r-max", "8", "--t-end", "0.01", "--snapshot-times", "0.005,5",
            "--out", str(out),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: snapshot_times must be finite")
        assert "t_end = 0.01" in err
        assert not out.exists()

    def test_infinite_t_end_exits_one(self, tmp_path, capsys):
        rc = main([
            "evolve", "--family", "gaussian", "--n", "512", "--r-max", "16",
            "--t-end", "inf", "--out", str(tmp_path / "ev"),
        ])
        assert rc == 1
        assert "t_end must be finite" in capsys.readouterr().err

    def test_dt_below_min_dt_exits_one(self, tmp_path, capsys):
        out = tmp_path / "ev"
        rc = main([
            "evolve", "--n", "512", "--r-max", "16", "--dt", "1e-300",
            "--t-end", "1", "--out", str(out),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("validation error: dt must be >= min_dt")
        assert "Traceback" not in err
        assert not out.exists()


    def test_aborted_run_writes_its_files_and_names_the_failure(
            self, tmp_path, capsys, monkeypatch):
        for name, value in ABORTING.items():
            monkeypatch.setattr(evolve, name, value)
        out = tmp_path / "ab"
        rc = main([
            "evolve", "--family", "gaussian", "--amplitude", "0.3", "--n", "512",
            "--r-max", "16", "--t-end", "1", "--out", str(out),
        ])
        assert rc == 2
        result = json.loads((out / "result.json").read_text())
        assert result["outcome"] == "aborted"
        assert result["dt_final"] < ABORTING["MIN_DT"]
        assert capsys.readouterr().err == (
            f"numerical failure: evolution aborted at t = {result['final_time']:.6g}: "
            f"dt_final = {result['dt_final']:.3g} is below the refinement floor\n")
        assert sorted(p.name for p in out.iterdir()) == [
            "manifest.json", "result.json", "trace.csv"]


class TestClassifyCommand:
    def test_blowup_verdict(self, tmp_path):
        out = tmp_path / "cl"
        cfg = write_cfg(tmp_path, BASE)
        rc = main([
            "classify", "--config", cfg, "--family", "cQ",
            "--amplitude", "1.1", "--out", str(out),
        ])
        assert rc == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["predicted"] == "blowup"
        assert verdict["below_threshold"] is True
        assert verdict["empirical"] == "inconclusive"

    def test_verify_labels_an_out_of_scope_datum(self, tmp_path):
        out = tmp_path / "cl"
        cfg = write_cfg(tmp_path, BASE)
        rc = main([
            "classify", "--config", cfg, "--family", "gaussian", "--amplitude", "2",
            "--width", "2", "--verify", "--t-end", "3", "--out", str(out),
        ])
        assert rc == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["predicted"] == "out_of_scope"
        assert verdict["empirical"] == "blowup"


class TestVirialCheckCommand:
    def test_probe_json(self, tmp_path):
        out = tmp_path / "vc"
        cfg = write_cfg(tmp_path, BASE + "n = 1024\nR_max = 32\n", name="vc.cfg")
        rc = main([
            "virial-check", "--config", cfg, "--amplitude", "0.9",
            "--t-probe", "0.2", "--dt", "1e-3", "--monitor-every", "20",
            "--out", str(out),
        ])
        assert rc == 0
        probe = json.loads((out / "probe.json").read_text())
        for key in ("R", "delta0", "min_Ipp", "bound_ok", "Iprime_max", "terms"):
            assert key in probe
        assert probe["delta0"] > 0.0
        assert probe["min_Ipp"] > 0.0

    def test_probe_terms_columns(self, tmp_path):
        out = tmp_path / "vc"
        rc = main([
            "virial-check", "--amplitude", "0.9", "--t-probe", "0.2", "--n", "1024",
            "--r-max", "32", "--dt", "1e-3", "--monitor-every", "7",
            "--splitting-order", "4", "--out", str(out),
        ])
        assert rc == 0
        probe = json.loads((out / "probe.json").read_text())
        assert set(probe["terms"]) == {
            "I", "Iprime", "Ipp", "Ipp_decomposed", "F1", "grad", "F2", "F3",
            "potential", "R1", "R2", "R3", "R4", "remainder_sum",
            "remainder_bound", "h1_norm_sq",
        }
        # ticks every 7 steps of 200, plus the last step
        assert probe["times"] == pytest.approx([k * 1e-3 for k in [*range(7, 200, 7), 200]])
        assert all(len(column) == 29 for column in probe["terms"].values())


class TestSweepCommand:
    def test_empty_family_header_only(self, tmp_path):
        out = tmp_path / "sw"
        cfg = write_cfg(tmp_path, BASE)
        rc = main([
            "sweep", "--config", cfg, "--family", "cQ",
            "--amplitudes", "", "--out", str(out),
        ])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines == ["c,w,S,below_threshold,K_gamma,predicted,empirical,agree"]

    def test_prediction_column(self, tmp_path):
        out = tmp_path / "sw2"
        cfg = write_cfg(tmp_path, BASE)
        rc = main([
            "sweep", "--config", cfg, "--family", "cQ",
            "--amplitudes", "0.5,1.1", "--no-verify", "--out", str(out),
        ])
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[5] == "scatter"
        assert lines[2].split(",")[5] == "blowup"

    @pytest.mark.parametrize("c,w,empirical", [("2", "2", "blowup"), ("1", "4", "decay")])
    def test_verify_labels_out_of_scope_rows(self, tmp_path, c, w, empirical):
        out = tmp_path / "sw"
        # verification never absorbs, so a width above R_max/4 is no error
        cfg = write_cfg(tmp_path, BASE + "absorb_width = 5\n")
        rc = main([
            "sweep", "--config", cfg, "--family", "gaussian", "--amplitudes", c,
            "--widths", w, "--verify", "--t-end", "3", "--out", str(out),
        ])
        assert rc == 0
        (row,) = (out / "sweep.csv").read_text().splitlines()[1:]
        assert row.split(",")[5:] == ["out_of_scope", empirical, ""]

    def test_widths_for_cq_family_exits_one(self, tmp_path, capsys):
        out = tmp_path / "new" / "sw"
        rc = main([
            "sweep", "--n", "512", "--r-max", "16", "--amplitudes", "0.5",
            "--widths", "1", "--out", str(out),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == "validation error: cQ family takes no widths\n"
        # the run made both directories, and removes both
        assert not (tmp_path / "new").exists()

    def test_workers_below_one_exits_one(self, tmp_path, capsys):
        out = tmp_path / "sw"
        cfg = write_cfg(tmp_path, BASE)
        rc = main([
            "sweep", "--config", cfg, "--family", "cQ", "--amplitudes", "0.5",
            "--no-verify", "--workers", "-2", "--out", str(out),
        ])
        assert rc == 1
        assert "validation error: workers must be >= 1, got -2" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_run_keeps_an_existing_out(self, tmp_path, capsys):
        out = tmp_path / "sw"
        out.mkdir()
        (out / "keep.txt").write_text("kept")
        rc = main(["sweep", "--n", "512", "--r-max", "16", "--amplitudes", "0.5",
                   "--no-verify", "--workers", "-2", "--out", str(out)])
        assert rc == 1
        assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]

    def test_absorber_width_unchecked_without_verify(self, tmp_path):
        out = tmp_path / "sw"
        cfg = write_cfg(tmp_path, BASE + "absorb_width = 5\n")
        rc = main([
            "sweep", "--config", cfg, "--family", "cQ", "--amplitudes", "0.8",
            "--no-verify", "--out", str(out),
        ])
        assert rc == 0
        assert (out / "sweep.csv").read_text().splitlines()[1].split(",")[6] == "inconclusive"
