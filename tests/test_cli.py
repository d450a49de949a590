import argparse
import json
from dataclasses import fields

import numpy as np
import pytest

from radialnls import ClassificationVerdict, FunctionalReport
from radialnls.cli import (
    _COMMANDS, ORACLE_AGREEMENT_REL, ConfigError, RunConfig, _build_parser, main,
    parse_config,
)
from radialnls.localized_virial import RigidityReport


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

    def test_comments_and_blanks(self, tmp_path):
        path = write_cfg(tmp_path, "# comment\n\ngamma = 0.5  # trailing\n")
        assert parse_config("functionals", path).gamma == 0.5


    def test_seed_key_unknown(self, tmp_path):
        path = write_cfg(tmp_path, BASE + "seed = 3\n")
        with pytest.raises(ConfigError, match=r"run.cfg:6: unknown key 'seed'"):
            parse_config("functionals", path)

    def test_evolution_carries_every_shared_field(self, tmp_path):
        path = write_cfg(tmp_path, BASE + (
            "dt = 5e-4\nt_end = 3\nmonitor_every = 7\nabsorb = true\n"
            "absorb_width = 2.5\ndecay_window = 1.5\nsplitting_order = 4\n"
        ))
        evo = parse_config("evolve", path).evolution()
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
    ])
    def test_file_value_rejected_with_its_line(self, tmp_path, command, line):
        key = line.split()[0]
        path = write_cfg(tmp_path, BASE + line + "\n")
        with pytest.raises(ConfigError, match=rf"run.cfg:6: {key} must"):
            parse_config(command, path)


class TestExitCodes:
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
            "command", "config", "versions", "started_at", "duration_s", "outputs",
        }
        assert manifest["command"] == "ground-state"
        assert "Q.csv" in manifest["outputs"]

    def test_oracle_block_keys(self, tmp_path):
        out = tmp_path / "gs"
        cfg = write_cfg(tmp_path, BASE)
        assert main(["ground-state", "--config", cfg, "--with-oracle",
                     "--out", str(out)]) == 0
        oracle = json.loads((out / "result.json").read_text())["oracle"]
        assert set(oracle) == {
            "level", "amplitude", "agreement_rel", "bisections", "ode_residual",
        }
        assert isinstance(oracle["bisections"], int) and oracle["bisections"] > 0
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
        # ticks fall every 0.01, so the requested time is a tick time
        (snap,) = result["snapshots"]
        assert snap["file"] == "snapshot_000.csv"
        assert snap["t_requested"] == 0.05
        assert snap["t"] == pytest.approx(0.05)

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

    @pytest.mark.parametrize("command", ["sweep", "classify"])
    def test_verify_absorber_too_wide_flag_exits_one(self, tmp_path, capsys, command):
        out = tmp_path / "sw"
        cfg = write_cfg(tmp_path, BASE)
        amplitude = ["--amplitudes", "0.8"] if command == "sweep" else ["--amplitude", "0.8"]
        rc = main([
            command, "--config", cfg, "--family", "cQ", *amplitude, "--verify",
            "--t-end", "3", "--absorb-width", "5", "--out", str(out),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "validation error: absorb_width must lie in (0, R_max/4]" in err
        assert "got 5.0 with R_max = 16; set --absorb-width" in err
        assert not (out / "sweep.csv").exists()
        assert not (out / "verdict.json").exists()

    def test_verify_absorber_too_wide_in_file_cites_line(self, tmp_path, capsys):
        out = tmp_path / "sw"
        cfg = write_cfg(tmp_path, BASE + "absorb_width = 5\n")
        rc = main([
            "sweep", "--config", cfg, "--family", "cQ", "--amplitudes", "0.8",
            "--verify", "--t-end", "3", "--out", str(out),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "configuration error: " in err
        assert "run.cfg:6: absorb_width must lie in (0, R_max/4]" in err
        assert not (out / "sweep.csv").exists()

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
