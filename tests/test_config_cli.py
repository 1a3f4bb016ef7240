"""Config parsing/round-trip and end-to-end CLI commands."""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from phaselab import Field, Grid, save_field
from phaselab.analysis import classify_good_times
from phaselab import cli
from phaselab.cli import _analysis_report, load_run, main
from phaselab.config import ExperimentConfig, parse_config
from phaselab.dynamics import DIAGNOSTICS, Trajectory, run
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
        ("t_max = 2.0", "t_max = 2.0\nnewton_max_iter = 0"),
        ("t_max = 2.0", "t_max = 2.0\nsteady_dwell = 0"),
    ])
    def test_bad_time_values_rejected(self, tmp_path, capsys, line, bad):
        text = MINIMAL_AC.format(out=tmp_path / "run").replace(line, bad)
        with pytest.raises(ValidationError, match=r"\[time\]"):
            ExperimentConfig.from_string(text)
        assert main(["simulate", str(write_cfg(tmp_path, text))]) == 2
        assert capsys.readouterr().err.startswith("error: [time]")
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
        assert any(name.startswith("snap_") for name in listed)
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

    def test_loja_window_frac_sets_the_fit_window(self, tmp_path):
        # finer steps, so that the trailing fifth still holds enough samples
        out = tmp_path / "run"
        text = MINIMAL_AC.format(out=out).replace("dt_max = 2e-2", "dt_max = 5e-3")
        assert main(["simulate", str(write_cfg(tmp_path, text))]) == 0
        traj = load_run(out)
        pars = parse_config(out / "config.ini").analysis_params()
        assert pars["loja_window_frac"] == 0.5
        default = _analysis_report(traj, pars)[0]["lojasiewicz"]
        pars["loja_window_frac"] = 0.8
        late = _analysis_report(traj, pars)[0]["lojasiewicz"]
        assert "error" not in default and "error" not in late
        assert late != default

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

    def test_sweep_isolated_outputs(self, tmp_path):
        out = tmp_path / "sweeproot"
        cfg_path = write_cfg(tmp_path, MINIMAL_AC.format(out=out)
                             .replace("t_max = 2.0", "t_max = 0.05"))
        rc = main(["sweep", str(cfg_path), "--axis", "initial.mean=0.05,0.1"])
        assert rc == 0
        agg = json.loads((out / "sweep_manifest.json").read_text())
        assert len(agg) == 2 and all(agg.values())
    def test_sweep_collision_raises(self, tmp_path):
        out = tmp_path / "sw"
        cfg_path = write_cfg(tmp_path, MINIMAL_AC.format(out=out)
                             .replace("t_max = 2.0", "t_max = 0.05"))
        assert main(["sweep", str(cfg_path), "--axis", "initial.mean=0.07"]) == 0
        with pytest.raises(SystemExit):
            main(["sweep", str(cfg_path), "--axis", "initial.mean=0.07"])

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

    def test_equilibrium_command(self, tmp_path):
        out = tmp_path / "eq"
        cfg_path = write_cfg(tmp_path, MINIMAL_AC.format(out=out))
        rc = main(["equilibrium", str(cfg_path)])
        assert rc == 0
        results = json.loads((out / "equilibria.json").read_text())
        assert len(results) >= 2
        for r in results:
            assert r["delta"] > 0
            assert r["residual"] <= 1e-10
        sidecar = json.loads((out / "eq_constant.json").read_text())
        assert set(sidecar) == {"mu_inf", "residual", "delta", "k", "seed_id"}

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

    def test_loaded_run_keeps_the_stepper_counts(self, tmp_path):
        cfg_path = write_cfg(tmp_path, MINIMAL_AC.format(out=tmp_path / "run")
                             .replace("t_max = 2.0", "t_max = 0.05"))
        assert main(["simulate", str(cfg_path)]) == 0
        cfg = parse_config(cfg_path)
        memory = run(cfg.build_model(), cfg.build_initial_field(cfg.build_grid()),
                     cfg.t_max, cfg.build_stepper()).summary()
        disk = load_run(tmp_path / "run").summary()
        assert disk["stop_reason"] == "t_max" and disk["factorizations"] >= 1
        del memory["wall_time_s"], disk["wall_time_s"]
        assert disk == memory

    def test_analyze_parses_the_config_once(self, tmp_path, monkeypatch):
        out = tmp_path / "run"
        text = MINIMAL_AC.format(out=out).replace("t_max = 2.0", "t_max = 0.05")
        assert main(["simulate", str(write_cfg(tmp_path, text))]) == 0
        calls = []
        real = cli.parse_config
        monkeypatch.setattr(cli, "parse_config", lambda p: calls.append(p) or real(p))
        assert main(["analyze", str(out)]) == 0
        assert calls == [out / "config.ini"]

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
