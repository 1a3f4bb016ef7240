"""Config parsing/round-trip and end-to-end CLI commands."""

import json
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from phaselab import Field, Grid, load_field, save_field
from phaselab.analysis import classify_good_times
from phaselab import cli, stationary
from phaselab.cli import _analysis_report, load_run, main
from phaselab.config import _SCHEMA, ExperimentConfig, parse_config
from phaselab.dynamics import DIAGNOSTICS, StepperConfig, Trajectory, run
from phaselab.errors import ParseError, ValidationError

MINIMAL_AC = """
[grid]
dim = 1
nx = 64
lx = 1.0

[potential]
theta = 0.3
theta0 = 1.0

[model]
preset = CONSERVED_AC
gamma = 0.02

[initial]
kind = cosine-perturbation
mean = 0.1
amplitude = 0.3
mode = 4

[time]
dt_init = 1e-4
dt_max = 2e-2
t_max = 2.0
snapshot_every = 20

[output]
dir = {out}
"""


# The paper's nonlocal model, F_log - theta0/2 s^2 with the kernel term
# (sigma1 = sigma2 = 1, gamma = 0), on the grid given as {grid}.
PAPER_NONLOCAL = """
[grid]
{grid}

[mobility]
kind = poly
m_star = 0.5
coeffs = 1.0 0.0 -0.5

[kernel]
kind = gaussian
scale = 0.1

[model]
alpha = 1.0
beta = 0.0
gamma = 0.0
sigma1 = 1
sigma2 = 1

[initial]
mean = 0.1

[output]
dir = {out}
"""


def write_cfg(tmp_path, text, name="exp.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestConfig:
    def test_minimal_valid_with_defaults(self, tmp_path):
        p = write_cfg(tmp_path, MINIMAL_AC.format(out=tmp_path / "run"))
        cfg = parse_config(p)
        assert cfg.values["time"]["newton_tol"] == 1e-10  # documented default
        assert cfg.values["model"]["preset"] == "CONSERVED_AC"
        model = cfg.build_model()
        assert model.preset == "CONSERVED_AC"
        assert model.gamma == 0.02
        grid = cfg.build_grid()
        assert grid.shape == (64,)
        phi0 = cfg.build_initial_field(grid)
        assert phi0.mean() == pytest.approx(0.1, abs=1e-15)

    def test_inadmissible_mean_rejected(self, tmp_path):
        text = MINIMAL_AC.format(out=tmp_path).replace("mean = 0.1", "mean = 1.2")
        with pytest.raises(ValidationError, match="admissible-mean"):
            ExperimentConfig.from_string(text)

    def test_amplitude_bound_rejected(self, tmp_path):
        text = MINIMAL_AC.format(out=tmp_path).replace("amplitude = 0.3",
                                                       "amplitude = 0.95")
        with pytest.raises(ValidationError):
            ExperimentConfig.from_string(text)

    def test_unknown_key_rejected(self, tmp_path):
        text = MINIMAL_AC.format(out=tmp_path) + "\n[grid]\nwizardry = 3\n"
        with pytest.raises((ParseError, Exception)):
            ExperimentConfig.from_string(text)

    @pytest.mark.parametrize("section, key, value", [
        ("model", "nonlocal_consistency", "off"),
        ("time", "newton_max_iter", "50"),
        ("analysis", "loja_window_frac", "0.5"),
        ("analysis", "eq_tol", "1e-10"),
    ])
    def test_removed_keys_rejected(self, tmp_path, section, key, value):
        # a config written for the removed knobs fails loudly instead of
        # running with a value it did not ask for
        text = MINIMAL_AC.format(out=tmp_path)
        if f"[{section}]" in text:
            text = text.replace(f"[{section}]", f"[{section}]\n{key} = {value}")
        else:
            text += f"\n[{section}]\n{key} = {value}\n"
        with pytest.raises(ParseError, match=f"unknown key '{key}'"):
            ExperimentConfig.from_string(text)

    def test_unknown_section_rejected(self):
        with pytest.raises(ParseError):
            ExperimentConfig.from_string("[conjuring]\nx = 1\n")

    def test_roundtrip_digest_stable(self, tmp_path):
        cfg = ExperimentConfig.from_string(MINIMAL_AC.format(out=tmp_path / "r"))
        text = cfg.canonical()
        cfg2 = ExperimentConfig.from_string(text)
        assert cfg.digest() == cfg2.digest()
        assert cfg2.canonical() == text

    def test_digest_invariant_under_key_reordering(self, tmp_path):
        a = "[grid]\ndim = 1\nnx = 32\n\n[model]\npreset = CONSERVED_AC\n"
        b = "[model]\npreset = CONSERVED_AC\n\n[grid]\nnx = 32\ndim = 1\n"
        assert (ExperimentConfig.from_string(a).digest()
                == ExperimentConfig.from_string(b).digest())

    def test_time_defaults_are_the_stepper_defaults(self):
        cfg = ExperimentConfig.from_string("[model]\npreset = CONSERVED_AC\n")
        assert cfg.build_stepper() == StepperConfig()
        # the digest of the default-filled canonical form is pinned
        assert cfg.digest() == "4b69fdc7a611a194"

    def test_explicit_constants(self):
        text = """
[model]
alpha = 1.0
beta = 0.5
gamma = 0.01
sigma1 = 1
sigma2 = 0
"""
        cfg = ExperimentConfig.from_string(text)
        M = cfg.build_model()
        assert M.alpha == 1.0 and M.beta == 0.5 and M.preset is None

    def test_missing_constants_without_preset(self):
        with pytest.raises(ValidationError):
            ExperimentConfig.from_string("[model]\nalpha = 1.0\n")

    def test_unknown_potential_kind_rejected(self):
        # a custom potential needs callables; a config must not run the
        # logarithmic one in its place
        text = MINIMAL_AC.format(out="run").replace("[potential]", "[potential]\nkind = custom")
        with pytest.raises(ValidationError, match="potential kind"):
            ExperimentConfig.from_string(text)

    @pytest.mark.parametrize("line, bad", [
        ("dt_init = 1e-4", "dt_init = 1e-4\ndt_min = 1e-3"),
        ("snapshot_every = 20", "snapshot_every = 0"),
        ("t_max = 2.0", "t_max = 2.0\nsteady_dwell = 0"),
        ("nx = 64", "nx = 1"),
        ("lx = 1.0", "lx = -1.0"),
    ])
    def test_bad_time_values_rejected(self, tmp_path, capsys, line, bad):
        # and bad grid values: each error names the section of the bad key
        section = "[grid]" if bad.startswith(("nx", "lx")) else "[time]"
        text = MINIMAL_AC.format(out=tmp_path / "run").replace(line, bad)
        with pytest.raises(ValidationError, match=re.escape(section)):
            ExperimentConfig.from_string(text)
        for command in ("simulate", "equilibrium"):
            assert main([command, str(write_cfg(tmp_path, text))]) == 2
            assert capsys.readouterr().err.startswith(f"error: {section}")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("seeds", ["tanh_mid", "constant tanh_flip", ""])
    def test_unknown_eq_seeds_rejected(self, tmp_path, seeds):
        text = MINIMAL_AC.format(out=tmp_path).replace(
            "[output]", f"[analysis]\neq_seeds = {seeds}\n\n[output]")
        with pytest.raises(ValidationError, match="eq_seeds"):
            ExperimentConfig.from_string(text)
        ExperimentConfig.from_string(text.replace(f"eq_seeds = {seeds}", "eq_seeds = tanh"))

    def test_file_initial_data_must_exist(self, tmp_path):
        text = MINIMAL_AC.format(out=tmp_path).replace(
            "kind = cosine-perturbation", "kind = file")
        with pytest.raises(ValidationError):
            ExperimentConfig.from_string(text)


    def test_file_initial_data_keeps_its_grid(self, tmp_path):
        # 100 cells of 3.3 / 100: rebuilding the length as n * h would give
        # 3.3000000000000003 and a grid that no longer matches the config
        snap = tmp_path / "init.dat"
        grid = Grid((100,), (3.3,))
        save_field(snap, Field(grid, 0.1 + 0.05 * np.cos(2 * np.pi * grid.axes()[0] / 3.3)))
        text = MINIMAL_AC.format(out=tmp_path / "run")
        text = text.replace("nx = 64\nlx = 1.0", "nx = 100\nlx = 3.3")
        text = text.replace("kind = cosine-perturbation", f"kind = file\npath = {snap}")
        cfg = ExperimentConfig.from_string(text)
        assert cfg.build_grid() == grid
        assert cfg.build_initial_field(cfg.build_grid()).grid == grid

    def test_malformed_initial_snapshot_is_typed(self, tmp_path, capsys):
        snap = tmp_path / "init.dat"
        snap.write_text("4 0.25\n" + "0.1\n" * 4)
        text = MINIMAL_AC.format(out=tmp_path / "run").replace(
            "kind = cosine-perturbation", f"kind = file\npath = {snap}")
        assert main(["simulate", str(write_cfg(tmp_path, text))]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: snapshot {snap}: malformed snapshot header '4 0.25'")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("values, found", [
        ([0.1] * 63 + [1.5], "max |phi| = 1.5, mean 0.121875"),
        ([1.0] * 64, "max |phi| = 1, mean 1"),
    ])
    def test_out_of_range_initial_snapshot_is_typed(self, tmp_path, capsys, values, found):
        snap = tmp_path / "init.dat"
        save_field(snap, Field(Grid((64,), (1.0,)), np.array(values)))
        text = MINIMAL_AC.format(out=tmp_path / "run").replace(
            "kind = cosine-perturbation", f"kind = file\npath = {snap}")
        assert main(["simulate", str(write_cfg(tmp_path, text))]) == 2
        assert capsys.readouterr().err == (f"error: initial data file {snap}: {found}; "
                                           "need |phi| <= 1 and a mean in (-1, 1)\n")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("line, empty", [
        ("dt_init = 1e-4", "[time] dt_init"),
        ("nx = 64", "[grid] nx"),
        ("[output]", "[analysis] eq_seeds"),
    ])
    def test_empty_value_of_a_defaulted_key_is_typed(self, tmp_path, capsys, line, empty):
        section, key = empty[1:].split("] ")
        blank = f"{key} =" if line != "[output]" else f"[{section}]\n{key} =\n\n[output]"
        text = MINIMAL_AC.format(out=tmp_path / "run").replace(line, blank)
        with pytest.raises(ValidationError, match=re.escape(f"{empty} is empty")):
            ExperimentConfig.from_string(text)
        assert main(["simulate", str(write_cfg(tmp_path, text))]) == 2
        assert capsys.readouterr().err.startswith(f"error: {empty} is empty")
        assert not (tmp_path / "run").exists()

    def test_model_without_an_admissible_dt_leaves_no_run_directory(self, tmp_path, capsys):
        # transport with the concave term and no gradient energy: the step's
        # implicit map is monotone at no dt, which the stepper rejects typed
        text = MINIMAL_AC.format(out=tmp_path / "run").replace(
            "preset = CONSERVED_AC\ngamma = 0.02",
            "alpha = 1.0\nbeta = 0.0\ngamma = 0.0\nsigma1 = 1\nsigma2 = 0")
        assert main(["simulate", str(write_cfg(tmp_path, text))]) == 2
        assert "not monotone at any dt" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_unbuildable_model_leaves_no_equilibrium_directory(self, tmp_path, capsys):
        text = MINIMAL_AC.format(out=tmp_path / "run").replace("theta0 = 1.0", "theta0 = 0.2")
        assert main(["equilibrium", str(write_cfg(tmp_path, text))]) == 2
        assert capsys.readouterr().err == "error: theta0 must exceed theta\n"
        assert not (tmp_path / "run").exists()

    def test_readme_names_every_schema_key(self):
        # the config block of README.md lists each section's keys, comma-separated,
        # a key's values after "="; continuation lines belong to the section above
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Configuration", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
        named, section = {}, None
        for line in block.splitlines():
            head = re.match(r"\[(\w+)\]", line)
            if head:
                section, line = head.group(1), line[head.end():]
            named.setdefault(section, []).extend(
                item.split("=")[0].strip() for item in line.split(",") if item.strip())
        assert {sec: sorted(keys) for sec, keys in named.items()} == {
            sec: sorted(keys) for sec, keys in _SCHEMA.items()}

    def test_empty_value_of_an_optional_key_leaves_it_unset(self, tmp_path):
        text = MINIMAL_AC.format(out=tmp_path).replace(
            "[output]", "[kernel]\nsupport =\n\n[output]")
        assert ExperimentConfig.from_string(text).values["kernel"]["support"] is None


class TestCLI:
    def simulate(self, tmp_path, extra=None):
        out = tmp_path / "run"
        text = MINIMAL_AC.format(out=out)
        if extra:
            text = text.replace("[time]", f"[time]\n{extra}")
        cfg_path = write_cfg(tmp_path, text)
        rc = main(["simulate", str(cfg_path)])
        return rc, out

    def test_simulate_writes_artifacts(self, tmp_path):
        rc, out = self.simulate(tmp_path)
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pass"]
        assert (out / "diagnostics.csv").exists()
        assert (out / "summary.json").exists()
        listed = {Path(f).name for f in manifest["files"]}
        emitted = {p.name for p in out.iterdir() if p.name != "manifest.json"}
        assert emitted <= listed | {"manifest.json"}
        assert "snapshots.npy" in listed
        summary = json.loads((out / "summary.json").read_text())
        assert 1 <= summary["factorizations"] <= summary["accepted"]

    def test_simulate_deterministic_diagnostics(self, tmp_path):
        rc1, out1 = self.simulate(tmp_path)
        cfg2 = tmp_path / "exp2.ini"
        cfg2.write_text(MINIMAL_AC.format(out=tmp_path / "run2"))
        rc2 = main(["simulate", str(cfg2)])
        assert rc1 == rc2 == 0
        assert ((out1 / "diagnostics.csv").read_text()
                == (tmp_path / "run2" / "diagnostics.csv").read_text())

    def test_short_run_analyzes_with_its_omega_polish(self, tmp_path):
        # the dt ramp crosses this horizon in 165 steps, ~15 of them in the
        # trailing half: the recorder's floor in time gives analyze enough
        # late snapshots for the omega-limit estimate and its polish
        out = tmp_path / "run"
        text = f"""
[grid]
dim = 1
nx = 32

[mobility]
kind = poly
m_star = 0.5
coeffs = 1.0 0.0 -0.5

[diffusion]
kind = poly
a_star = 1.0
coeffs = 1.0 0.0 0.5

[model]
preset = CH_NONLINEAR
gamma = 0.01

[initial]
kind = cosine-perturbation
mean = 0.0
amplitude = 0.05
mode = 3

[time]
dt_init = 1e-6
dt_max = 1e-2
t_max = 0.01
snapshot_every = 10
steady_tol = 0.0

[output]
dir = {out}
"""
        assert main(["simulate", str(write_cfg(tmp_path, text))]) == 0
        assert json.loads((out / "summary.json").read_text())["accepted"] == 165
        assert main(["analyze", str(out)]) == 0
        omega = json.loads((out / "report.json").read_text())["omega"]
        nearest = omega["nearest_eq"]
        assert nearest["residual"] <= 1e-10
        assert nearest["iterations"] >= 1 and nearest["linear_iterations"] == 0  # no kernel
        assert omega["polish_error"] is None

    def test_analyze_reports_good_times_ok(self, tmp_path):
        rc, out = self.simulate(tmp_path)
        assert rc == 0
        rc = main(["analyze", str(out), "--M", "1.0"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        entry = report["good_times"][0]
        assert entry["M"] == 1.0
        assert entry["ok"] is True
        assert entry["bad_measure"] <= entry["bound"]

    def test_load_run_roundtrip(self, tmp_path):
        rc, out = self.simulate(tmp_path)
        traj = load_run(out)
        assert traj.times[0] == 0.0
        assert len(traj.snapshots) >= 2
        assert traj.model is not None
        assert traj.verify()["ok"]

    def test_disk_and_memory_analysis_agree(self, tmp_path):
        # alpha != 1 scales the implied good-time bound of a transport run
        text = MINIMAL_AC.format(out=tmp_path / "ch").replace(
            "preset = CONSERVED_AC", "preset = CH_NONLINEAR\nalpha = 2.0").replace(
            "t_max = 2.0", "t_max = 0.05")
        cfg_path = write_cfg(tmp_path, text)
        assert main(["simulate", str(cfg_path)]) == 0
        cfg = parse_config(cfg_path)
        memory = run(cfg.build_model(), cfg.build_initial_field(cfg.build_grid()),
                     cfg.t_max, cfg.build_stepper())
        disk = load_run(tmp_path / "ch")
        for M in (0.1, 1.0, 10.0):
            a = classify_good_times(memory, M, 0.0, strict=False)
            b = classify_good_times(disk, M, 0.0, strict=False)
            assert a.implied_bound == b.implied_bound
            assert a.bad_measure == b.bad_measure

    def test_lemmas_degiorgi(self, tmp_path, capsys):
        rc = main(["lemmas", "degiorgi", "--C", "1", "--b", "2", "--eps", "1",
                   "--y0", "0.5", "--n", "6"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["threshold"] == pytest.approx(0.5, abs=1e-15)
        assert out["condition_met"]
        assert out["bounds"][0] == pytest.approx(0.5)
        assert out["bounds"][3] == pytest.approx(0.5 / 8.0)

    def test_lemmas_integrability(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        t = np.linspace(0, 30, 30001)
        with open(trace, "w") as fh:
            fh.write("t,Z\n")
            for tt, zz in zip(t, np.exp(-t)):
                fh.write(f"{float(tt)!r},{float(zz)!r}\n")
        rc = main(["lemmas", "integrability", str(trace),
                   "--alpha", "1.5", "--zeta", str(2.0 ** -1.5)])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        assert out["hypothesis_holds"]
        assert out["integral"] == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("trace, alpha, message", [
        ("t,z\n0,1\n1,abc\n2,0.5\n", "1.5",
         "lemmas integrability: times and values must be finite"),
        ("t\n0\n1\n", "1.5", "trace "),
        ("t,z\n0,1\n", "1.5", "lemmas integrability: need "),
        (None, "1.5", "trace "),
        ("", "1.5", "trace "),
        ("t,z\n0,1\n1,0.5\n", "3", "lemmas integrability: alpha_tilde"),
    ], ids=["non_numeric", "one_column", "one_row", "missing_file", "empty_file",
            "alpha_out_of_range"])
    def test_lemmas_integrability_bad_input_is_typed(self, tmp_path, capsys, trace, alpha,
                                                      message):
        path = tmp_path / "trace.csv"
        if trace is not None:
            path.write_text(trace)
        assert main(["lemmas", "integrability", str(path), "--alpha", alpha, "--zeta", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}")
        assert captured.out == ""

    def test_lemmas_degiorgi_bad_base_is_typed(self, capsys):
        assert main(["lemmas", "degiorgi", "--C", "1", "--b", "0.5", "--eps", "1"]) == 2
        assert capsys.readouterr().err.startswith("error: lemmas degiorgi: need C > 0, b > 1")

    def test_sweep_isolated_outputs(self, tmp_path):
        out = tmp_path / "sweeproot"
        cfg_path = write_cfg(tmp_path, MINIMAL_AC.format(out=out)
                             .replace("t_max = 2.0", "t_max = 0.05"))
        rc = main(["sweep", str(cfg_path), "--axis", "initial.mean=0.05,0.1"])
        assert rc == 0
        agg = json.loads((out / "sweep_manifest.json").read_text())
        assert len(agg) == 2 and all(agg.values())
    def test_sweep_collision_raises(self, tmp_path, capsys):
        out = tmp_path / "sw"
        cfg_path = write_cfg(tmp_path, MINIMAL_AC.format(out=out)
                             .replace("t_max = 2.0", "t_max = 0.05"))
        assert main(["sweep", str(cfg_path), "--axis", "initial.mean=0.07"]) == 0
        capsys.readouterr()
        # an existing variant directory is a typed input error, like a repeated one
        assert main(["sweep", str(cfg_path), "--axis", "initial.mean=0.07"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sweep output collision: ")
        assert str(out / "initial.mean=0.07") in err

    def test_sweep_repeated_value_is_typed(self, tmp_path, capsys):
        # both variants would write one directory: rejected before any worker starts
        out = tmp_path / "sw"
        cfg_path = write_cfg(tmp_path, MINIMAL_AC.format(out=out))
        assert main(["sweep", str(cfg_path), "--axis", "initial.mean=0.1,0.05,0.1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sweep repeats the variant directory")
        assert str(out / "initial.mean=0.1") in err
        assert not out.exists()

    def test_sweep_value_typo_is_typed(self, tmp_path, capsys):
        out = tmp_path / "sw"
        cfg_path = write_cfg(tmp_path, MINIMAL_AC.format(out=out))
        assert main(["sweep", str(cfg_path), "--axis", "grid.nx=64,abc"]) == 2
        assert capsys.readouterr().err.startswith("error: [grid] nx = 'abc'")
        assert not out.exists()

    @pytest.mark.parametrize("axis", ["time.dt_init=,", "grid.nx=32,"])
    def test_sweep_empty_value_is_typed(self, tmp_path, capsys, axis):
        out = tmp_path / "sw"
        cfg_path = write_cfg(tmp_path, MINIMAL_AC.format(out=out))
        assert main(["sweep", str(cfg_path), "--axis", axis]) == 2
        key = axis.partition("=")[0].replace(".", "] ", 1)
        assert capsys.readouterr().err.startswith(f"error: [{key} is empty")
        assert not out.exists()

    @pytest.mark.parametrize("axis, message", [
        ("grid.nx", "axis 'grid.nx' must look like section.key=v1,v2,..."),
        ("grid.foo=1,2", "unknown sweep key 'grid.foo'"),
    ], ids=["no_values", "unknown_key"])
    def test_sweep_malformed_axis_is_typed(self, tmp_path, capsys, axis, message):
        out = tmp_path / "sw"
        cfg_path = write_cfg(tmp_path, MINIMAL_AC.format(out=out))
        assert main(["sweep", str(cfg_path), "--axis", axis]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_sweep_variant_that_fails_to_build_runs_nothing(self, tmp_path, capsys):
        # theta0 = 0.2 < theta fails the model's build: checked before any variant runs
        out = tmp_path / "sw"
        cfg_path = write_cfg(tmp_path, MINIMAL_AC.format(out=out)
                             .replace("t_max = 2.0", "t_max = 0.05"))
        assert main(["sweep", str(cfg_path), "--axis", "potential.theta0=1.0,0.2"]) == 2
        assert capsys.readouterr().err == "error: theta0 must exceed theta\n"
        assert not out.exists()

    def test_sweep_under_relative_output_root(self, tmp_path, monkeypatch):
        # each variant directory is resolved against the root once, not twice
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("PHASELAB_OUTPUT_ROOT", "root")
        cfg_path = write_cfg(tmp_path, MINIMAL_AC.format(out="sw")
                             .replace("t_max = 2.0", "t_max = 0.05"))
        assert main(["sweep", str(cfg_path), "--axis", "initial.mean=0.05,0.1"]) == 0
        for val in ("0.05", "0.1"):
            assert (tmp_path / "root" / "sw" / f"initial.mean={val}" / "manifest.json").exists()
        assert not (tmp_path / "root" / "root").exists()

    def test_equilibrium_command(self, tmp_path, capsys):
        out = tmp_path / "eq"
        cfg_path = write_cfg(tmp_path, MINIMAL_AC.format(out=out))
        rc = main(["equilibrium", str(cfg_path)])
        assert rc == 0
        assert "equilibrium: seed constant mu_inf=" in capsys.readouterr().out
        results = json.loads((out / "equilibria.json").read_text())
        assert len(results) >= 2
        for r in results:
            assert r["delta"] > 0
            assert r["residual"] <= 1e-10
        sidecar = json.loads((out / "eq_constant.json").read_text())
        assert set(sidecar) == {"mu_inf", "residual", "delta", "k", "seed_id",
                                "iterations", "linear_iterations"}
        assert sidecar["iterations"] >= 1
        assert sidecar["linear_iterations"] == 0  # no kernel, no GMRES
        assert [set(r) for r in results] == [set(sidecar)] * len(results)

    def test_equilibrium_reports_skipped_seeds(self, tmp_path, capsys):
        # at mean 0.85 neither tanh layer fits inside (-1, 1)
        out = tmp_path / "eq"
        text = (MINIMAL_AC.format(out=out).replace("nx = 64", "nx = 32")
                .replace("mean = 0.1", "mean = 0.85").replace("amplitude = 0.3", "amplitude = 0.05")
                + "\n[analysis]\neq_seeds = tanh\n")
        assert main(["equilibrium", str(write_cfg(tmp_path, text))]) == 1
        results = json.loads((out / "equilibria.json").read_text())
        assert [r["seed_id"] for r in results] == ["tanh_mid", "tanh_flip"]
        printed = capsys.readouterr().out
        for r in results:
            assert set(r) == {"seed_id", "error"}
            assert r["error"].startswith("skipped: k = 0.85, amplitude = ")
            assert f"seed {r['seed_id']} {r['error']}" in printed
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["assertions"] == {"any_converged": False}

    def test_equilibrium_prints_failed_seeds(self, tmp_path, capsys, monkeypatch):
        # gamma = 0, sigma1 = sigma2 = 1 on 24x24 with a one-iteration GMRES: the
        # constant seed needs no linear solve, and both layer seeds fail in GMRES;
        # the failures are printed, not only recorded
        monkeypatch.setattr(stationary, "GMRES_RESTART", 1)
        monkeypatch.setattr(stationary, "GMRES_MAXITER", 1)
        out = tmp_path / "eq"
        text = PAPER_NONLOCAL.format(grid="dim = 2\nnx = 24\nny = 24", out=out)
        assert main(["equilibrium", str(write_cfg(tmp_path, text))]) == 0
        printed = capsys.readouterr().out
        results = {r["seed_id"]: r for r in json.loads((out / "equilibria.json").read_text())}
        assert "error" not in results["constant"]
        assert "equilibrium: seed constant mu_inf=" in printed
        for seed in ("tanh_mid", "tanh_flip"):
            assert "GMRES" in results[seed]["error"]
            assert f"equilibrium: seed {seed} failed: {results[seed]['error']}" in printed

    def test_layered_nonlocal_equilibria_from_a_config(self, tmp_path, monkeypatch):
        # on 1D N=128 all three seeds converge, both layer seeds to layers
        # (measured delta = 0.0026, ptp = 1.995, 5 Newton and 16 GMRES iterations)
        gmres = []
        newton_step = stationary._newton_step

        def spy(*args):
            step, its = newton_step(*args)
            gmres.append(its)
            return step, its

        monkeypatch.setattr(stationary, "_newton_step", spy)
        out = tmp_path / "eq"
        text = PAPER_NONLOCAL.format(grid="dim = 1\nnx = 128", out=out)
        assert main(["equilibrium", str(write_cfg(tmp_path, text))]) == 0
        results = {r["seed_id"]: r for r in json.loads((out / "equilibria.json").read_text())}
        assert set(results) == {"constant", "tanh_mid", "tanh_flip"}
        assert all(r["residual"] <= 1e-10 for r in results.values())
        for seed in ("tanh_mid", "tanh_flip"):
            assert results[seed]["delta"] > 0
            assert np.ptp(load_field(out / f"eq_{seed}.dat").data) > 1.9
        assert gmres and max(gmres) <= 10

    def test_manifest_stamps_the_environment(self, tmp_path):
        out = tmp_path / "run"
        text = MINIMAL_AC.format(out=out).replace("t_max = 2.0", "t_max = 0.05")
        assert main(["simulate", str(write_cfg(tmp_path, text))]) == 0
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest["environment"] == {"python": platform.python_version(),
                                           "numpy": np.__version__, "scipy": scipy.__version__}
        # a run directory written without the stamp is still analyzed
        del manifest["environment"]
        path.write_text(json.dumps(manifest))
        assert main(["analyze", str(out)]) == 0
        assert "environment" in json.loads(path.read_text())

    def test_manifest_stamps_the_git_revision(self, tmp_path):
        if not (cli.SOURCE_ROOT / ".git").exists():
            expected = None
        elif shutil.which("git") is None:
            pytest.skip("git is not installed")
        else:
            expected = subprocess.run(["git", "rev-parse", "HEAD"], cwd=cli.SOURCE_ROOT,
                                      capture_output=True, text=True, check=True).stdout.strip()
        assert cli.git_revision() == expected
        out = tmp_path / "run"
        text = MINIMAL_AC.format(out=out).replace("t_max = 2.0", "t_max = 0.05")
        assert main(["simulate", str(write_cfg(tmp_path, text))]) == 0
        assert json.loads((out / "manifest.json").read_text())["git_revision"] == expected

    def test_git_revision_outside_a_checkout_is_none(self, tmp_path, monkeypatch):
        assert cli.git_revision(tmp_path) is None
        monkeypatch.setattr(cli, "GIT_REVISION", cli.git_revision(tmp_path))
        out = tmp_path / "run"
        text = MINIMAL_AC.format(out=out).replace("t_max = 2.0", "t_max = 0.05")
        assert main(["simulate", str(write_cfg(tmp_path, text))]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert "git_revision" in manifest and manifest["git_revision"] is None

    def test_git_revision_reads_refs_without_git(self, tmp_path):
        sha, other = "1" * 40, "2" * 40
        git = tmp_path / "repo" / ".git"
        (git / "refs" / "heads").mkdir(parents=True)
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        (git / "packed-refs").write_text(f"# pack-refs with: peeled\n{other} refs/heads/dev\n"
                                         f"{sha} refs/heads/main\n")
        assert cli.git_revision(git.parent) == sha  # packed
        (git / "refs" / "heads" / "main").write_text(other + "\n")
        assert cli.git_revision(git.parent) == other  # a loose ref wins
        # a worktree's .git file names its own git dir, whose refs live in the common one
        wt = tmp_path / "wt"
        (git / "worktrees" / "wt").mkdir(parents=True)
        (git / "worktrees" / "wt" / "HEAD").write_text("ref: refs/heads/dev\n")
        (git / "worktrees" / "wt" / "commondir").write_text("../..\n")
        wt.mkdir()
        (wt / ".git").write_text(f"gitdir: {git / 'worktrees' / 'wt'}\n")
        assert cli.git_revision(wt) == other
        (git / "HEAD").write_text(sha + "\n")  # detached
        assert cli.git_revision(git.parent) == sha

    def test_output_root_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PHASELAB_OUTPUT_ROOT", str(tmp_path / "root"))
        cfg_path = write_cfg(tmp_path, MINIMAL_AC.format(out="rel_run")
                             .replace("t_max = 2.0", "t_max = 0.05"))
        rc = main(["simulate", str(cfg_path)])
        assert rc == 0
        assert (tmp_path / "root" / "rel_run" / "manifest.json").exists()


class TestRunRecord:
    """The run on disk is the run in memory: one schema, one simulate path."""

    def test_diagnostics_round_trip_bit_exact(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, MINIMAL_AC.format(out=tmp_path / "run")
                                     .replace("t_max = 2.0", "t_max = 0.05")))
        traj = run(cfg.build_model(), cfg.build_initial_field(cfg.build_grid()),
                   cfg.t_max, cfg.build_stepper())
        traj.to_csv(tmp_path / "d.csv")
        back = Trajectory.read_csv(tmp_path / "d.csv", traj.grid, snapshots=[], provenance={})
        for attr in DIAGNOSTICS:
            a, b = getattr(traj, attr), getattr(back, attr)
            assert a.dtype == b.dtype and np.array_equal(a, b), attr
        (tmp_path / "bad.csv").write_text("t,mass\n0.0,0.1\n")
        with pytest.raises(ParseError):
            Trajectory.read_csv(tmp_path / "bad.csv", traj.grid, snapshots=[], provenance={})

    @pytest.mark.parametrize("model", ["preset = CONSERVED_AC",
                                       "preset = CH_NONLINEAR\nalpha = 2.0"])
    def test_disk_report_equals_memory_report(self, tmp_path, model):
        # dense snapshots give the truncation, fit and omega-limit sections data
        text = MINIMAL_AC.format(out=tmp_path / "run").replace(
            "preset = CONSERVED_AC", model).replace("t_max = 2.0", "t_max = 1.0").replace(
            "snapshot_every = 20", "snapshot_every = 4").replace("dt_max = 2e-2", "dt_max = 5e-3")
        cfg_path = write_cfg(tmp_path, text)
        assert main(["simulate", str(cfg_path)]) == 0
        cfg = parse_config(cfg_path)
        memory = run(cfg.build_model(), cfg.build_initial_field(cfg.build_grid()),
                     cfg.t_max, cfg.build_stepper())
        disk = load_run(tmp_path / "run")

        def as_json(traj):
            report, assertions, level_sets = _analysis_report(traj, cfg.analysis_params())
            series = [(d, r.times.tolist(), r.measures.tolist()) for d, r in level_sets]
            return json.dumps([report, assertions, series], sort_keys=True)

        assert as_json(disk) == as_json(memory)

    # the second case is a deep quench on which the energy gate caps dt growth
    @pytest.mark.parametrize("edits", [
        {"t_max = 2.0": "t_max = 0.05"},
        {"t_max = 2.0": "t_max = 0.05", "gamma = 0.02": "gamma = 0.001",
         "amplitude = 0.3": "amplitude = 0.05", "mode = 4": "mode = 2",
         "dt_max = 2e-2": "dt_max = 5e-2"},
    ], ids=["ramp", "gate_bound"])
    def test_loaded_run_keeps_the_stepper_counts(self, tmp_path, edits):
        text = MINIMAL_AC.format(out=tmp_path / "run")
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg_path = write_cfg(tmp_path, text)
        assert main(["simulate", str(cfg_path)]) == 0
        cfg = parse_config(cfg_path)
        memory = run(cfg.build_model(), cfg.build_initial_field(cfg.build_grid()),
                     cfg.t_max, cfg.build_stepper()).summary()
        disk = load_run(tmp_path / "run").summary()
        assert disk["stop_reason"] == "t_max" and disk["factorizations"] >= 1
        assert (disk["gate_limited"] > 0) == ("gamma = 0.02" in edits)
        del memory["wall_time_s"], disk["wall_time_s"]
        assert disk == memory

    @pytest.mark.parametrize("edits", [
        {},
        {"dim = 1\nnx = 64\nlx = 1.0": "dim = 2\nnx = 12\nny = 8\nlx = 1.0\nly = 0.75\n"
                                        "bc = periodic"},
    ], ids=["1d_neumann", "2d_periodic"])
    def test_snapshots_round_trip_bit_exact(self, tmp_path, edits):
        text = MINIMAL_AC.format(out=tmp_path / "run").replace("t_max = 2.0", "t_max = 0.05")
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg_path = write_cfg(tmp_path, text)
        assert main(["simulate", str(cfg_path)]) == 0
        cfg = parse_config(cfg_path)
        memory = run(cfg.build_model(), cfg.build_initial_field(cfg.build_grid()),
                     cfg.t_max, cfg.build_stepper())
        disk = load_run(tmp_path / "run")
        assert disk.grid == memory.grid and memory.grid.dim == (2 if edits else 1)
        assert len(disk.snapshots) == len(memory.snapshots) >= 2
        for (t, f), (t_mem, f_mem) in zip(disk.snapshots, memory.snapshots):
            assert t == t_mem and f.grid == memory.grid
            assert np.array_equal(f.data, f_mem.data)
        stored = np.load(tmp_path / "run" / "snapshots.npy", allow_pickle=False)
        assert stored.dtype == np.float64
        assert stored.shape == (len(memory.snapshots), memory.grid.n_cells)

    @pytest.mark.parametrize("damage, message", [
        (lambda store, data: np.save(store, data[:, :-1]), r"\(\d+, 63\), expected float64"),
        (lambda store, data: np.save(store, data[:-1]), r"expected float64 .* snapshot_times\.csv"),
        (lambda store, data: store.unlink(), r"snap_\*\.dat files are the phaselab-run-1 layout"),
    ], ids=["cells", "rows", "old_layout"])
    def test_snapshot_store_errors_are_typed(self, tmp_path, capsys, damage, message):
        out = tmp_path / "run"
        text = MINIMAL_AC.format(out=out).replace("t_max = 2.0", "t_max = 0.05")
        assert main(["simulate", str(write_cfg(tmp_path, text))]) == 0
        store = out / "snapshots.npy"
        data = np.load(store)
        damage(store, data)
        if not store.exists():  # what the earlier layout wrote: one text file per snapshot
            for i, row in enumerate(data):
                save_field(out / f"snap_{i:06d}.dat", Field(Grid((64,), (1.0,)), row))
        with pytest.raises(ParseError, match=message) as exc:
            load_run(out)
        assert str(store) in str(exc.value)
        assert main(["analyze", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"

    def test_analyze_of_an_equilibrium_directory_is_typed(self, tmp_path, capsys):
        out = tmp_path / "eq"
        assert main(["equilibrium", str(write_cfg(tmp_path, MINIMAL_AC.format(out=out)))]) == 0
        capsys.readouterr()
        with pytest.raises(ParseError, match="run `phaselab simulate` on its config first"):
            load_run(out)
        assert main(["analyze", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {out} holds no diagnostics.csv, so it is not a " \
                               f"simulated run; run `phaselab simulate` on its config first\n"
        assert captured.out == ""
        assert not (out / "report.json").exists()

    def test_analyze_parses_the_config_once(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        text = MINIMAL_AC.format(out=out).replace("t_max = 2.0", "t_max = 0.05")
        assert main(["simulate", str(write_cfg(tmp_path, text))]) == 0
        calls = []
        real = cli.parse_config
        monkeypatch.setattr(cli, "parse_config", lambda p: calls.append(p) or real(p))
        assert main(["analyze", str(out)]) == 0
        assert calls == [out / "config.ini"]

    def test_manifest_stamps_peak_rss(self, tmp_path):
        out = tmp_path / "run"
        text = MINIMAL_AC.format(out=out).replace("t_max = 2.0", "t_max = 0.05")
        assert main(["simulate", str(write_cfg(tmp_path, text))]) == 0
        path = out / "manifest.json"
        manifest = json.loads(path.read_text())
        assert manifest["peak_rss_mb"] > 0
        # a run directory written without the key is still analyzed
        del manifest["peak_rss_mb"]
        path.write_text(json.dumps(manifest))
        assert main(["analyze", str(out)]) == 0
        assert json.loads(path.read_text())["peak_rss_mb"] > 0

    def test_sweep_directory_matches_simulate_directory(self, tmp_path):
        text = MINIMAL_AC.format(out=tmp_path / "sim").replace("t_max = 2.0", "t_max = 0.05")
        assert main(["simulate", str(write_cfg(tmp_path, text))]) == 0
        swept = write_cfg(tmp_path, text.replace(str(tmp_path / "sim"), str(tmp_path / "sw")),
                          "sweep.ini")
        assert main(["sweep", str(swept), "--axis", "initial.mean=0.1"]) == 0
        dirs = (tmp_path / "sim", tmp_path / "sw" / "initial.mean=0.1")
        csvs = [(d / "diagnostics.csv").read_bytes() for d in dirs]
        assert csvs[0] == csvs[1]
        manifests = [json.loads((d / "manifest.json").read_text()) for d in dirs]
        assert manifests[0]["assertions"] == manifests[1]["assertions"]
        assert manifests[0]["assertions"]["times_increasing"]
        summaries = [json.loads((d / "summary.json").read_text()) for d in dirs]
        assert summaries[0].keys() == summaries[1].keys()


NONLOCAL_1D = """
[grid]
dim = 1
nx = 32
lx = 1.0

[potential]
theta = 0.3
theta0 = 1.0

[kernel]
kind = gaussian
scale = 0.1

[model]
preset = NONLOCAL_CH

[initial]
kind = cosine-perturbation
mean = 0.1
amplitude = 0.05
mode = 2

[time]
dt_init = 1e-4
dt_max = 2e-2
t_max = 0.2
snapshot_every = 5

[output]
dir = {out}
"""

# scipy modules phaselab must not load: each costs more start-up time than
# the library would use of it
UNLOADED = {
    "scipy.fft": "the kernel and H^-1 transforms are numpy FFTs",
    "scipy.special": "x log x is numpy; scipy.fft pulls it in (~0.1 s)",
    "scipy.optimize": "the root finders are one bisection in physics; ~0.2 s",
    "scipy.signal": "pulls in scipy.stats, most of the CLI's start-up time",
    "scipy.stats": "pulled in by scipy.signal",
}


def unloaded_modules_loaded_by(code: str) -> list:
    """Which modules of UNLOADED a fresh interpreter has loaded after ``code``."""
    code += ("\nimport json, sys\n"
             f"print(json.dumps(sorted(m for m in {tuple(UNLOADED)!r} if m in sys.modules)))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return json.loads(out.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def loaded_by_cli_import():
    return unloaded_modules_loaded_by("import phaselab.cli")


@pytest.mark.parametrize("module", sorted(UNLOADED))
def test_cli_import_leaves_module_out(loaded_by_cli_import, module):
    assert module not in loaded_by_cli_import, UNLOADED[module]


def test_pipeline_leaves_unloaded_modules_out(tmp_path):
    # every kernel apply, H^-1 norm and x log x of simulate -> analyze -> equilibrium
    cfg = str(write_cfg(tmp_path, NONLOCAL_1D.format(out=tmp_path / "run")))
    code = ("from phaselab.cli import main\n"
            f"rcs = [main(['simulate', {cfg!r}]), main(['analyze', {str(tmp_path / 'run')!r}]),"
            f" main(['equilibrium', {cfg!r}])]\n"
            "assert rcs == [0, 0, 0], rcs")
    assert unloaded_modules_loaded_by(code) == []
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["omega"]["nearest_eq"] is not None  # the H^-1 path ran
    assert report["omega"]["nearest_eq"]["linear_iterations"] > 0  # the kernel's GMRES ran
