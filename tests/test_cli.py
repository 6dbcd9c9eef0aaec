"""Command-line layer: config round trips, snapshot files, exit codes, determinism."""

import argparse
import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import besovlab
from besovlab import cli, evolution
from besovlab.cli import (
    _VERBS,
    ExperimentConfig,
    _build_parser,
    load_snapshot,
    resolve_exponent,
    run_cli,
    save_snapshot,
)
from besovlab.elliptic import solve_pressure
from besovlab.evolution import StateSnapshot
from besovlab.random_fields import random_band_field, random_divergence_free, trial_seed
from besovlab.spectral import SpectralField, gradient, make_grid


@pytest.fixture
def floor_breach(monkeypatch):
    """Transport that lowers a by 1e-2 in the first half step of step 5, which must stop the run there.

    The per-step check reads node minima, and those sit up to a few 1e-3 above
    the polynomial minimum the run records as its floor, so the breach exceeds
    that gap plus the floor's 1e-3 slack.
    """
    transport, calls = evolution.transport_step, []

    def lowering(a, u, dt, scheme):
        calls.append(dt)
        moved = transport(a, u, dt, scheme)
        return SpectralField.from_physical(a.grid, moved.values - 1e-2) if len(calls) == 9 else moved

    monkeypatch.setattr(evolution, "transport_step", lowering)


class TestResolveExponent:
    def test_numbers_pass_through(self):
        assert resolve_exponent(0.5, 2.0) == 0.5
        assert resolve_exponent(-1, 3.0) == -1.0

    def test_symbolic_in_p(self):
        assert resolve_exponent("2/p-1", 2.0) == pytest.approx(0.0)
        assert resolve_exponent("2/p-1", 3.0) == pytest.approx(2.0 / 3.0 - 1.0)
        assert resolve_exponent("2/p", 4.0) == pytest.approx(0.5)

    def test_symbolic_in_p_and_q(self):
        assert resolve_exponent("1/p+1/q", 2.0, 4.0) == pytest.approx(0.75)

    def test_unary_minus_and_parens(self):
        assert resolve_exponent("-1/2", 2.0) == -0.5
        assert resolve_exponent("2*(1/p)", 4.0) == pytest.approx(0.5)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown name"):
            resolve_exponent("2/x", 2.0)

    def test_function_calls_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            resolve_exponent("abs(p)", 2.0)

    def test_division_by_zero_rejected(self):
        with pytest.raises(ValueError, match="division by zero"):
            resolve_exponent("1/(p-p)", 2.0)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError, match="parse"):
            resolve_exponent("2/", 2.0)


class TestExperimentConfig:
    def test_defaults_are_valid(self):
        config = ExperimentConfig()
        assert config.n == 64
        assert config.smoothness() == pytest.approx(1.0)

    def test_text_round_trip_defaults(self):
        config = ExperimentConfig()
        assert ExperimentConfig.from_text(config.to_text()) == config

    def test_text_round_trip_custom(self):
        config = ExperimentConfig(
            n=128,
            L=2.0 * math.pi,
            p=2.5,
            q=3.0,
            s="2/p-1",
            r=1.0,
            homogeneous=False,
            viscosity="affine",
            mu0=1.0,
            mu1=0.5,
            T=0.3,
            dt=1e-3,
            snapshot_every=10,
            scheme="semi_lagrangian",
            split_m=2,
            epsilon_budget=0.125,
            pressure_tol=1e-11,
            tolerance=1e-7,
            seed=991,
            trials=12,
            j=4,
            k=2,
            initial="taylor_green",
            amplitude_a=0.05,
            amplitude_u=0.02,
            k0=4.0,
        )
        text = config.to_text()
        assert ExperimentConfig.from_text(text) == config
        # symbolic exponents survive as strings
        assert ExperimentConfig.from_text(text).s == "2/p-1"

    def test_float_precision_survives(self):
        config = ExperimentConfig(dt=0.1 + 1e-17, T=1.0 / 3.0, mu0=math.pi)
        again = ExperimentConfig.from_text(config.to_text())
        assert again.dt == config.dt
        assert again.T == config.T
        assert again.mu0 == config.mu0

    def test_omitted_split_m_stays_none(self):
        config = ExperimentConfig()
        assert "split_m" not in config.to_text()
        assert ExperimentConfig.from_text(config.to_text()).split_m is None

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\nn = 32  # trailing comment\n\np = 2.5\n"
        config = ExperimentConfig.from_text(text)
        assert config.n == 32
        assert config.p == 2.5

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            ExperimentConfig.from_text("nn = 32\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentConfig.from_text("n = 32\nn = 64\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            ExperimentConfig.from_text("n 32\n")

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(n=63), "power of two"),
            (dict(p=0.5), "in \\(1, 64\\)"),
            (dict(q=80.0), "in \\(1, 64\\)"),
            (dict(r=0.5), ">= 1"),
            (dict(viscosity="cubic"), "viscosity"),
            (dict(scheme="upwind"), "scheme"),
            (dict(initial="vortex"), "preset"),
            (dict(dt=0.0), "positive"),
            (dict(T=-1.0), "positive"),
            (dict(snapshot_every=0), "cadence"),
            (dict(trials=0), "trial count"),
            (dict(tolerance=0.0), "tolerance"),
            (dict(s="2/x"), "unknown name"),
            (dict(k0=0.0), "k0"),
        ],
    )
    def test_validation_rejects_bad_values(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**kwargs)

    def test_config_id_is_stable_and_sensitive(self):
        a = ExperimentConfig()
        b = ExperimentConfig()
        c = ExperimentConfig(seed=1)
        assert a.config_id() == b.config_id()
        assert a.config_id() != c.config_id()
        assert len(a.config_id()) == 12
        assert all(ch in "0123456789abcdef" for ch in a.config_id())

    def test_with_overrides_skips_none(self):
        config = ExperimentConfig()
        assert config.with_overrides(n=None, p=None) == config
        assert config.with_overrides(n=128).n == 128
        with pytest.raises(ValueError):
            config.with_overrides(n=100)

    def test_derived_objects(self):
        config = ExperimentConfig(p=2.0, s="2/p-1", viscosity="affine", mu1=0.5)
        assert config.smoothness() == pytest.approx(0.0)
        spec = config.besov_spec()
        assert spec.p == 2.0 and spec.r == 1.0 and spec.homogeneous
        law = config.viscosity_law()
        assert law.kind == "affine" and law.mu1 == 0.5
        run = config.integration()
        assert run.T == config.T and run.visc.kind == "affine"

    def test_integration_carries_every_shared_field(self):
        settings = {
            "T": 0.3, "dt": 0.05, "p": 3.0, "scheme": "semi_lagrangian_monotone", "split_m": 2,
            "epsilon_budget": 7.5, "snapshot_every": 3, "pressure_tol": 1e-8, "pressure_max_iter": 40,
        }
        defaults = ExperimentConfig()
        assert all(getattr(defaults, name) != value for name, value in settings.items())
        config = ExperimentConfig(viscosity="exponential", mu1=0.25, **settings)
        run = config.integration()
        assert run.T == 0.3
        assert run.dt == 0.05
        assert run.p == 3.0
        assert run.scheme == "semi_lagrangian_monotone"
        assert run.split_m == 2
        assert run.epsilon_budget == 7.5
        assert run.snapshot_every == 3
        assert run.pressure_tol == 1e-8
        assert run.pressure_max_iter == 40
        assert run.visc == config.viscosity_law() and run.monitor_ms == ()


def _sample_state(n=32, seed=88):
    grid = make_grid(n)
    a = random_band_field(grid, 1.0, 6.0, trial_seed(seed, 0), amplitude=0.02)
    u = random_divergence_free(grid, 1.0, 6.0, trial_seed(seed, 1), amplitude=0.1)
    pressure = random_band_field(grid, 1.0, 6.0, trial_seed(seed, 2))
    return StateSnapshot(t=0.375, a=a, u=u, gradPi=gradient(pressure))


class TestSnapshotIO:
    def test_round_trip_is_exact_modewise(self, tmp_path):
        state = _sample_state()
        path = tmp_path / "state.bsns"
        save_snapshot(state, path)
        again = load_snapshot(path)
        assert again.t == state.t
        assert again.a.grid.n == state.a.grid.n
        for got, want in (
            (again.a, state.a),
            (again.u.u1, state.u.u1),
            (again.u.u2, state.u.u2),
            (again.gradPi.u1, state.gradPi.u1),
            (again.gradPi.u2, state.gradPi.u2),
        ):
            scale = max(np.max(np.abs(want.modes)), 1e-300)
            assert np.max(np.abs(got.modes - want.modes)) <= 1e-13 * scale

    def test_bad_magic_names_offset(self, tmp_path):
        path = tmp_path / "state.bsns"
        save_snapshot(_sample_state(), path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="offset 0"):
            load_snapshot(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "state.bsns"
        save_snapshot(_sample_state(), path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<H", data, 4, 2)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="unsupported snapshot version 2"):
            load_snapshot(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "state.bsns"
        save_snapshot(_sample_state(), path)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(ValueError, match="truncated"):
            load_snapshot(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "state.bsns"
        save_snapshot(_sample_state(), path)
        path.write_bytes(path.read_bytes() + b"x")
        with pytest.raises(ValueError, match="truncated or padded"):
            load_snapshot(path)

    def test_non_finite_pressure_plane_rejected(self, tmp_path):
        path = tmp_path / "state.bsns"
        save_snapshot(_sample_state(), path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<d", data, len(data) - 8, math.nan)  # last node of the pressure plane
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="pressure plane holds non-finite values"):
            load_snapshot(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "state.bsns"
        path.write_bytes(b"BSNS\x01\x00")
        with pytest.raises(ValueError, match="truncated snapshot header"):
            load_snapshot(path)

    def test_non_power_of_two_grid_rejected(self, tmp_path):
        path = tmp_path / "state.bsns"
        header = b"BSNS" + struct.pack("<HIdd", 1, 24, 2 * math.pi, 0.0)
        path.write_bytes(header + b"\x00" * (4 * 24 * 24 * 8))
        with pytest.raises(ValueError, match="not a power of two"):
            load_snapshot(path)


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli(["frobnicate"]) == 2
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli(["decompose", "--frobnicate"]) == 2
        capsys.readouterr()

    def test_no_arguments_is_usage_error(self, capsys):
        assert run_cli([]) == 2
        capsys.readouterr()

    def test_version_exits_zero(self, capsys):
        assert run_cli(["--version"]) == 0
        assert "besovlab" in capsys.readouterr().out

    def test_one_parser_serves_every_call(self):
        parser = _build_parser()
        assert _build_parser() is parser
        # a verb's flags and defaults do not leak into the next parse
        for argv in (["verify", "heat", "--refine"], ["simulate", "--n", "64"], ["verify", "heat"]):
            assert parser.parse_args(argv) == _build_parser.__wrapped__().parse_args(argv)

    def test_flags_are_the_config_fields_that_declare_help(self):
        flagged = {field.name: field for field in dataclasses.fields(ExperimentConfig) if "help" in field.metadata}
        unflagged = {field.name for field in dataclasses.fields(ExperimentConfig)} - set(flagged)
        assert unflagged == {"homogeneous", "epsilon_budget", "pressure_tol", "pressure_max_iter"}
        flag_types = {"int": int, "int | None": int, "float": float, "float | str": None, "str": None}
        verbs = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for verb, parser in verbs.choices.items():
            own = {"--config", "--out", "--help", *(name for name, _ in _VERBS[verb][1])}
            actions = {
                action.option_strings[-1]: action
                for action in parser._actions
                if action.option_strings and action.option_strings[-1] not in own
            }
            assert set(actions) == {"--" + name.replace("_", "-") for name in flagged}, verb
            for flag, action in actions.items():
                field = flagged[action.dest]
                assert flag == "--" + field.name.replace("_", "-")
                assert action.type is flag_types[field.type], flag
                assert action.help == field.metadata["help"] and action.default is None

    @pytest.mark.parametrize("module", ["besovlab", "besovlab.cli"])
    def test_module_entry_point_runs(self, module, tmp_path):
        src = str(Path(besovlab.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

        def run(*argv):
            done = subprocess.run([sys.executable, "-m", module, *argv], env=env, capture_output=True, text=True)
            # runpy warns when the package root has already imported the module it runs as __main__
            assert "RuntimeWarning" not in done.stderr
            return done.returncode

        out = tmp_path / "heat"
        assert run("verify", "heat", "--n", "32", "--trials", "2", "--out", str(out)) == 0
        assert json.loads((out / "report.json").read_text())["passed"] is True
        assert run("frobnicate") == 2

    @pytest.mark.parametrize(
        "argv, config_text, field",
        [
            (["elliptic", "--amplitude-a", "nan"], None, "amplitude_a"),
            (["simulate", "--amplitude-u", "inf"], None, "amplitude_u"),
            (["simulate", "--T", "nan"], None, "T"),
            (["verify", "product", "--tolerance", "nan"], None, "tolerance"),
            (["verify", "product"], "trials = 2.5\n", "trials"),
            (["verify", "product"], 'seed = "abc"\n', "seed"),
        ],
        ids=["amplitude_a-nan", "amplitude_u-inf", "T-nan", "tolerance-nan", "trials-float", "seed-string"],
    )
    def test_malformed_value_is_usage_error_naming_the_field(self, argv, config_text, field, tmp_path, capsys):
        if config_text is not None:
            (tmp_path / "bad.cfg").write_text(config_text, encoding="utf-8")
            argv = [*argv, "--config", str(tmp_path / "bad.cfg")]
        assert run_cli([*argv, "--n", "16", "--out", str(tmp_path / "out")]) == 2
        assert f"{field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["--p", "5"], ["--T", "0.1", "--dt", "0.03"], ["--mu0", "-1"]], ids=["p", "dt", "mu0"]
    )
    def test_setting_only_the_integrator_rejects_is_usage_error(self, argv, tmp_path, capsys):
        assert run_cli(["simulate", *argv, "--n", "16", "--out", str(tmp_path / "out")]) == 2
        assert "usage error" in capsys.readouterr().err

    def test_norm_spec_on_constant_field_fails(self, tmp_path, capsys):
        code = run_cli(
            [
                "norm",
                "--out", str(tmp_path / "out"),
                "--n", "32",
                "--spec", "2/p-1,p=3,r=1,homog",
                "--source", "constant",
            ]
        )
        assert code == 1
        assert "mean-zero" in capsys.readouterr().err

    def test_pressure_tolerance_below_rounding_fails_the_check(self, tmp_path, capsys):
        cfg = tmp_path / "tight.cfg"
        cfg.write_text("n = 32\npressure_tol = 1e-17\n", encoding="utf-8")
        assert run_cli(["elliptic", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "check failed: pressure solve did not reach tol=1.0e-17" in capsys.readouterr().err

    def test_bad_config_file_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("frobnicate = 12\n", encoding="utf-8")
        code = run_cli(["decompose", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        code = run_cli(
            ["decompose", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        capsys.readouterr()

    def test_invalid_flag_value_is_usage_error(self, tmp_path, capsys):
        code = run_cli(["decompose", "--out", str(tmp_path / "o"), "--n", "100"])
        assert code == 2
        assert "power of two" in capsys.readouterr().err

    @pytest.mark.parametrize("check", ["product", "commutator", "envelope"])
    def test_refine_on_a_check_that_cannot_refine_is_usage_error(self, check, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["verify", check, "--refine", "--n", "32", "--trials", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bernstein, heat, ij, transport, elliptic, deltas" in err
        assert not out.exists()  # rejected before any work

    @pytest.mark.parametrize("argv", [["--j", "9", "--n", "32"], ["--j", "8", "--refine"]], ids=["j9", "j8-refine"])
    def test_heat_grid_beyond_2048_is_usage_error(self, argv, tmp_path, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("the heat check ran")

        monkeypatch.setattr(cli, "check_heat_decay", unreachable)
        out = tmp_path / "out"
        assert run_cli(["verify", "heat", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"j = {argv[1]}" in err and "4096^2 grid" in err
        assert not (out / "heat_decay.csv").exists()

    @pytest.mark.parametrize("verb", [["elliptic"], ["verify", "elliptic"]])
    def test_coefficient_amplitude_beyond_the_floor_is_usage_error(self, verb, tmp_path, capsys):
        common = ["--n", "32", "--trials", "1"]
        code = run_cli([*verb, *common, "--amplitude-a", "2.0", "--out", str(tmp_path / "big")])
        assert code == 2
        assert "exceeds 0.7" in capsys.readouterr().err
        assert run_cli([*verb, *common, "--out", str(tmp_path / "default")]) == 0
        capsys.readouterr()


class TestVerifyVerbs:
    def test_heat_example_writes_fitted_constants(self, tmp_path, capsys):
        out = tmp_path / "heat"
        code = run_cli(
            ["verify", "heat", "--out", str(out), "--j", "4", "--p", "2", "--trials", "3"]
        )
        assert code == 0
        capsys.readouterr()
        lines = (out / "heat_decay.csv").read_text().strip().splitlines()
        assert lines[0] == "config_id,seed,j,lhs,rhs,ratio"
        assert len(lines) == 4  # three trials
        report = json.loads((out / "report.json").read_text())
        lo, hi = report["extra"]["c_window"]
        for line in lines[1:]:
            parts = line.split(",")
            c_fit, prefactor = float(parts[3]), float(parts[4])
            assert lo <= c_fit <= hi
            assert prefactor > 0.0

    def test_product_decomposition_passes(self, tmp_path, capsys):
        out = tmp_path / "prod"
        code = run_cli(
            ["verify", "product", "--out", str(out), "--n", "32", "--trials", "3"]
        )
        assert code == 0
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["max_defect"] <= 1e-12

    def test_elliptic_check_reports_l2_bound(self, tmp_path, capsys):
        out = tmp_path / "ell"
        code = run_cli(
            ["verify", "elliptic", "--out", str(out), "--n", "32", "--trials", "2"]
        )
        assert code == 0
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        assert report["extra"]["l2_ok"] is True

    def test_deltas_with_refinement_flag(self, tmp_path, capsys):
        out = tmp_path / "deltas"
        code = run_cli(
            [
                "verify", "deltas", "--out", str(out), "--n", "32",
                "--T", "0.1", "--dt", "0.025", "--refine",
            ]
        )
        assert code == 0
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        assert report["refinement_stable"] is True
        assert len(report["ratios"]) == 4

    def test_ij_refined_rows_carry_the_octave(self, tmp_path, capsys):
        out = tmp_path / "ij"
        code = run_cli(
            ["verify", "ij", "--out", str(out), "--n", "32", "--trials", "2", "--j", "3", "--refine"]
        )
        assert code == 0
        capsys.readouterr()
        lines = (out / "pressure_flux_bound.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert [line.split(",")[2] for line in lines[1:]] == ["3", "3"]
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["grid_n"] == 64

    def test_envelope_failure_names_the_stop_reason(self, tmp_path, capsys):
        # this velocity amplitude breaks the CFL bound at t=0 on the default grid
        code = run_cli(
            ["verify", "envelope", "--amplitude-u", "0.05", "--out", str(tmp_path / "env")]
        )
        assert code == 1
        assert "cfl_violation; step 1: CFL number" in capsys.readouterr().err

    def test_envelope_report_and_summary_name_the_stop_cause(self, tmp_path, capsys, floor_breach):
        out = tmp_path / "env"
        argv = [
            "verify", "envelope", "--n", "32", "--viscosity", "constant", "--initial", "random",
            "--amplitude-a", "0.2", "--amplitude-u", "0.3", "--dt", "0.002", "--T", "0.02",
            "--seed", "3", "--out", str(out),
        ]
        assert run_cli(argv) == 1
        report = json.loads((out / "report.json").read_text())
        assert report["stop_reason"] == "invalid_state"
        assert report["stop_cause"].startswith("step 5: coefficient floor violation")
        assert f"stopped: invalid_state; {report['stop_cause']})" in capsys.readouterr().out

    def test_envelope_beyond_floating_range_is_an_infinite_bound(self, tmp_path, capsys, monkeypatch):
        # A + Z = 50 fits C near 2.9, whose envelope at t = 4 exceeds the floating range
        times, zeros = (0.0, 2.0, 4.0), (0.0, 0.0, 0.0)
        diag = evolution.DiagnosticsSeries(times, (30.0,) * 3, (20.0,) * 3, zeros, zeros, zeros)
        monkeypatch.setattr(besovlab.cli, "ns_integrate", lambda run, a0, u0: ([], diag))
        out = tmp_path / "env"
        assert run_cli(["verify", "envelope", "--out", str(out)]) == 0
        capsys.readouterr()
        last = (out / "growth_envelope.csv").read_text().strip().splitlines()[-1].split(",")
        assert [float(v) for v in last[2:]] == [2.0, 50.0, math.inf, 0.0]

    @pytest.mark.parametrize("verb", [["simulate"], ["verify", "envelope"]])
    def test_default_config_runs_inside_the_cfl_bound(self, verb, tmp_path, capsys):
        out = tmp_path / "default"
        assert run_cli([*verb, "--out", str(out)]) == 0
        capsys.readouterr()
        if verb == ["simulate"]:
            report = json.loads((out / "report.json").read_text())
            assert report["stop_reason"] == "completed"
            assert report["snapshots"] == 11


_EVERY_VERB = {
    "decompose": ["decompose"],
    "norm": ["norm"],
    "verify-bernstein": ["verify", "bernstein"],
    "verify-heat": ["verify", "heat"],
    "verify-product": ["verify", "product"],
    "verify-commutator": ["verify", "commutator"],
    "verify-ij": ["verify", "ij"],
    "verify-transport": ["verify", "transport"],
    "verify-elliptic": ["verify", "elliptic"],
    "verify-envelope": ["verify", "envelope"],
    "verify-deltas": ["verify", "deltas"],
    "elliptic": ["elliptic"],
    "simulate": ["simulate"],
    "lagrangian": ["lagrangian"],
}


class TestDeterminism:
    @pytest.mark.parametrize("verb", list(_EVERY_VERB.values()), ids=list(_EVERY_VERB))
    def test_same_config_and_seed_gives_identical_bytes(self, verb, tmp_path, capsys):
        args = [*verb, "--n", "32", "--seed", "7", "--trials", "2"]
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert run_cli(args + ["--out", str(out1)]) == run_cli(args + ["--out", str(out2)])
        capsys.readouterr()
        # report CSV, report.json, manifest.json, and simulate's diagnostics and snapshots
        names = sorted(path.name for path in out1.iterdir() if path.name != "run.log")
        assert names == sorted(path.name for path in out2.iterdir() if path.name != "run.log")
        assert {"manifest.json", "report.json"} <= set(names)
        assert any(name.endswith(".csv") for name in names)
        if verb[0] == "simulate":
            assert "diagnostics.csv" in names and "snapshot_000000.bsns" in names
        for name in names:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_different_seed_changes_report(self, tmp_path, capsys):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert run_cli(["decompose", "--n", "32", "--seed", "7", "--out", str(out1)]) == 0
        assert run_cli(["decompose", "--n", "32", "--seed", "8", "--out", str(out2)]) == 0
        capsys.readouterr()
        assert (out1 / "decompose.csv").read_bytes() != (out2 / "decompose.csv").read_bytes()

    def test_manifest_records_config_and_versions(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["decompose", "--n", "32", "--seed", "5", "--out", str(out)]) == 0
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        config = ExperimentConfig.from_text(manifest["config"])
        assert manifest["config_id"] == config.config_id()
        assert manifest["seed"] == 5
        assert set(manifest["versions"]) == {"besovlab", "numpy", "python"}

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "base.cfg"
        cfg.write_text("n = 64\nseed = 3\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(
            ["decompose", "--config", str(cfg), "--n", "16", "--out", str(out)]
        ) == 0
        capsys.readouterr()
        manifest = json.loads((out / "manifest.json").read_text())
        config = ExperimentConfig.from_text(manifest["config"])
        assert config.n == 16  # flag wins
        assert config.seed == 3  # file survives where no flag given


class TestSimulateCommand:
    def test_taylor_green_run_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "sim"
        code = run_cli(
            [
                "simulate", "--out", str(out), "--n", "32",
                "--T", "0.02", "--dt", "0.002",
                "--initial", "taylor_green", "--amplitude-u", "1.0",
            ]
        )
        assert code == 0
        capsys.readouterr()
        diag = (out / "diagnostics.csv").read_text().splitlines()
        assert diag[0].startswith("t,A,Z,E0,E1,E2")
        snapshots = sorted(out.glob("snapshot_*.bsns"))
        assert len(snapshots) == 11
        first = load_snapshot(snapshots[0])
        grid = first.a.grid
        x, y = grid.coords
        assert np.max(np.abs(first.u.u1.values.real - np.cos(x) * np.sin(y))) < 1e-12
        assert first.a.linf() < 1e-14

    def test_restart_from_snapshot(self, tmp_path, capsys):
        out1 = tmp_path / "leg1"
        assert run_cli(
            [
                "simulate", "--out", str(out1), "--n", "32",
                "--T", "0.01", "--dt", "0.002",
                "--initial", "taylor_green", "--amplitude-u", "1.0",
            ]
        ) == 0
        last = sorted(out1.glob("snapshot_*.bsns"))[-1]
        out2 = tmp_path / "leg2"
        code = run_cli(
            [
                "simulate", "--out", str(out2), "--n", "32",
                "--T", "0.01", "--dt", "0.002",
                "--snapshot", str(last),
            ]
        )
        assert code == 0
        capsys.readouterr()

    def test_report_and_summary_name_the_stop_cause(self, tmp_path, capsys, monkeypatch):
        argv = [
            "simulate", "--n", "32", "--T", "0.01", "--dt", "0.002",
            "--initial", "random", "--amplitude-a", "0.2", "--amplitude-u", "0.005",
        ]
        assert run_cli([*argv, "--out", str(tmp_path / "ok")]) == 0
        capsys.readouterr()
        assert json.loads((tmp_path / "ok" / "report.json").read_text())["stop_cause"] is None

        calls = []

        def failing_solve(*args, **kwargs):
            # solve 3 is the end-of-step solve of step 1
            calls.append(1)
            if len(calls) == 3:
                kwargs.update(tol=1e-14, max_iter=1)
            return solve_pressure(*args, **kwargs)

        monkeypatch.setattr(evolution, "solve_pressure", failing_solve)
        assert run_cli([*argv, "--out", str(tmp_path / "failed")]) == 1
        out = capsys.readouterr().out
        report = json.loads((tmp_path / "failed" / "report.json").read_text())
        assert report["stop_reason"] == "solver_failure"
        assert report["stop_cause"].startswith("step 1: pressure solve did not reach tol=1.0e-14")
        assert f"stopped: solver_failure (1 snapshots, t=0); {report['stop_cause']}" in out

    def test_floor_violation_mid_run_keeps_the_run(self, tmp_path, capsys, floor_breach):
        out = tmp_path / "floor"
        argv = [
            "simulate", "--n", "32", "--viscosity", "constant", "--initial", "random",
            "--amplitude-a", "0.2", "--amplitude-u", "0.3", "--dt", "0.002", "--T", "0.02",
            "--seed", "3", "--out", str(out),
        ]
        assert run_cli(argv) == 1
        assert "stopped: invalid_state" in capsys.readouterr().out
        report = json.loads((out / "report.json").read_text())
        assert report["stop_reason"] == "invalid_state"
        assert report["stop_cause"].startswith("step 5: coefficient floor violation")
        rows = (out / "diagnostics.csv").read_text().splitlines()
        assert len(rows) == 1 + report["snapshots"] == 6
        assert len(list(out.glob("snapshot_*.bsns"))) == 5

    def test_zero_velocity_amplitude_means_zero_velocity(self, tmp_path, capsys):
        common = ["--n", "32", "--amplitude-u", "0"]
        assert run_cli(["lagrangian", *common, "--out", str(tmp_path / "lag")]) == 0
        assert run_cli(["verify", "transport", *common, "--out", str(tmp_path / "tr")]) == 0
        capsys.readouterr()
        report = json.loads((tmp_path / "lag" / "report.json").read_text())
        for key in ("volume_defect", "inverse_consistency", "div_identity_trace", "div_identity_flux"):
            assert report[key] == 0.0
        report = json.loads((tmp_path / "tr" / "report.json").read_text())
        assert report["extra"]["C_min"] == 0.0
        assert set(report["extra"]["U"]) == {0.0}

    @pytest.mark.parametrize("seed", [2024, 53])
    def test_lagrangian_command_passes_at_its_defaults(self, tmp_path, capsys, seed):
        # 53 has the largest divergence-identity residual of seeds 1-200
        out = tmp_path / "lag"
        assert run_cli(["lagrangian", "--seed", str(seed), "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith("lagrangian: pass")
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True

    def test_lagrangian_command_passes_on_cellular_flow(self, tmp_path, capsys):
        out = tmp_path / "lag"
        code = run_cli(
            [
                "lagrangian", "--out", str(out), "--n", "32",
                "--T", "0.1", "--dt", "0.01",
                "--initial", "taylor_green", "--tolerance", "1e-5",
            ]
        )
        assert code == 0
        capsys.readouterr()
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["volume_defect"] <= 1e-5
