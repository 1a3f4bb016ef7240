"""Command-line shell: simulate, equilibrium, analyze, lemmas, sweep.

Every run directory is self-describing: a canonical copy of the config, the
diagnostics CSV, one snapshot array, a summary, and a manifest listing emitted
files with the pass/fail outcome of the assertion suite.  Assertion failures
are exit-status failures, not warnings.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import datetime
import json
import os
import platform
import resource
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import analysis as an
from . import grid as g
from . import stationary as st
from .config import ExperimentConfig, convert_value, parse_config
from .dynamics import Trajectory, model_provenance, run, solvability_bound
from .errors import (
    DegenerateWindowError,
    InsufficientSnapshotsError,
    ParseError,
    PhaselabError,
    StepFloorError,
    ValidationError,
    WindowOutOfRangeError,
)

ENV_OUTPUT_ROOT = "PHASELAB_OUTPUT_ROOT"
SCHEMA_TAG = "phaselab-run-2"
SNAPSHOTS = "snapshots.npy"
# The residual an equilibrium seed must reach, and the De Giorgi levels analyze evaluates.
EQ_TOL = 1e-10
DEGIORGI_NMAX = 10
# The versions every run record depends on (the kernel FFT is numpy's).
ENVIRONMENT = {"python": platform.python_version(), "numpy": np.__version__,
               "scipy": scipy.__version__}
# The checkout that holds this package's source (src/phaselab/cli.py -> its root).
SOURCE_ROOT = Path(__file__).resolve().parents[2]


def git_revision(root: Path = SOURCE_ROOT) -> str | None:
    """The commit checked out at root, read from its .git files without a
    subprocess; None outside a checkout (or when the files are unreadable)."""
    git = root / ".git"
    try:
        if git.is_file():  # a worktree or submodule: "gitdir: <path>"
            git = root / git.read_text().partition("gitdir:")[2].strip()
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head or None  # a detached HEAD holds the commit itself
        ref = head[5:]
        common = git / (git / "commondir").read_text().strip() \
            if (git / "commondir").is_file() else git
        for d in (git, common):
            if (d / ref).is_file():
                return (d / ref).read_text().strip()
        for line in (common / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return None


GIT_REVISION = git_revision()


def _resolve_outdir(cfg_dir: str) -> Path:
    root = os.environ.get(ENV_OUTPUT_ROOT)
    p = Path(cfg_dir)
    if root and not p.is_absolute():
        p = Path(root) / p
    return p


def _write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True))
    return path


def _manifest(outdir: Path, digest: str, files, assertions: dict, started: float) -> dict:
    manifest = {
        "schema": SCHEMA_TAG,
        "code_version": __version__,
        "git_revision": GIT_REVISION,
        "config_digest": digest,
        "environment": ENVIRONMENT,
        "started_at": datetime.datetime.fromtimestamp(started).isoformat(),
        "finished_at": datetime.datetime.now().isoformat(),
        # the process's peak resident set so far (ru_maxrss is in KiB on Linux)
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "files": sorted(str(f) for f in files),
        "assertions": assertions,
        "pass": all(assertions.values()),
    }
    _write_json(outdir / "manifest.json", manifest)
    return manifest


def _prepare_outdir(cfg: ExperimentConfig, exist_ok: bool = True) -> Path:
    outdir = _resolve_outdir(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=exist_ok)
    cfg.write(outdir / "config.ini")
    return outdir


def _write_csv(path: Path, header: str, rows) -> Path:
    """Write rows of Python ints and floats, each value as its repr."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)
    return path


def _write_trajectory(outdir: Path, traj: Trajectory) -> list:
    files = [outdir / "config.ini", outdir / "diagnostics.csv"]
    traj.to_csv(files[-1])
    # row i of SNAPSHOTS (cells in row-major order) is row i (step, t) of snapshot_times.csv
    times = [float(t) for t, _ in traj.snapshots]
    steps = np.searchsorted(traj.times, times).tolist()
    files.append(outdir / SNAPSHOTS)
    np.save(files[-1], np.array([f.data for _, f in traj.snapshots]).reshape(
        len(times), traj.grid.n_cells))
    files.append(_write_csv(outdir / "snapshot_times.csv", "step,t", zip(steps, times)))
    return files


def _simulate(cfg: ExperimentConfig, exist_ok: bool = True) -> tuple[Path, dict]:
    """Integrate cfg and write its run record; returns the run directory and manifest.

    The directory is prepared once the run has a trajectory, so a config
    whose initial data or model fail to build leaves no run directory.  The
    manifest asserts that the run completed and every invariant that
    ``Trajectory.verify`` re-checks from the recorded series.
    """
    started = time.time()
    failed = None
    try:
        traj = run(cfg.build_model(), cfg.build_initial_field(cfg.build_grid()),
                   cfg.t_max, cfg.build_stepper(), provenance=cfg.provenance())
    except StepFloorError as exc:
        traj, failed = exc.trajectory, str(exc)
    outdir = _prepare_outdir(cfg, exist_ok)
    files = _write_trajectory(outdir, traj)
    checks = traj.verify()
    del checks["ok"]
    summary = {"schema": SCHEMA_TAG, "config_digest": cfg.digest(), "error": failed,
               **traj.summary()}
    files.append(_write_json(outdir / "summary.json", summary))
    return outdir, _manifest(outdir, cfg.digest(), files,
                             {"complete": traj.complete, **checks}, started)


def cmd_simulate(args) -> int:
    outdir, manifest = _simulate(parse_config(args.config))
    print(f"simulate: {outdir}  pass={manifest['pass']}")
    return 0 if manifest["pass"] else 1


def cmd_equilibrium(args) -> int:
    cfg = parse_config(args.config)
    started = time.time()
    grid = cfg.build_grid()
    model = cfg.build_model()  # a model that fails to build leaves no run directory
    outdir = _prepare_outdir(cfg)
    k = cfg.values["initial"]["mean"]
    files = [outdir / "config.ini"]
    assertions = {}
    results = []
    converged = 0
    for seed_id, guess in st.equilibrium_seeds(grid, k, potential=model.potential):
        if isinstance(guess, str):
            results.append({"seed_id": seed_id, "error": f"skipped: {guess}"})
            print(f"equilibrium: seed {seed_id} skipped: {guess}")
            continue
        key = f"eq_{seed_id}"
        try:
            eq = st.solve_equilibrium(model, k, guess, tol=EQ_TOL,
                                      seed_id=seed_id)
        except PhaselabError as exc:
            # stationary states are guess-dependent; a seed landing outside
            # every basin is recorded, not fatal, as long as some seed works
            results.append({"seed_id": seed_id, "error": str(exc)})
            print(f"equilibrium: seed {seed_id} failed: {exc}")
            continue
        converged += 1
        print(f"equilibrium: seed {seed_id} mu_inf={eq.mu_inf:.12g} delta={eq.delta:.6g} "
              f"newton={eq.iterations} gmres={eq.linear_iterations}")
        snap = outdir / f"{key}.dat"
        g.save_field(snap, eq.phi_inf)
        files += [snap, _write_json(outdir / f"{key}.json", eq.sidecar())]
        assertions[key] = (eq.residual_l2 <= EQ_TOL and eq.delta > 0)
        results.append(eq.sidecar())
    assertions["any_converged"] = converged > 0
    files.append(_write_json(outdir / "equilibria.json", results))
    manifest = _manifest(outdir, cfg.digest(), files, assertions, started)
    print(f"equilibrium: {outdir}  pass={manifest['pass']}")
    return 0 if manifest["pass"] else 1


def load_run(run_dir, cfg: ExperimentConfig | None = None) -> Trajectory:
    """Rebuild a Trajectory (model, stepper counts) from a run directory and its config;
    a directory that ``simulate`` did not write (no ``diagnostics.csv``) is a ParseError."""
    run_dir = Path(run_dir)
    diagnostics = run_dir / "diagnostics.csv"
    if not diagnostics.exists():
        raise ParseError(f"{run_dir} holds no {diagnostics.name}, so it is not a simulated "
                         f"run; run `phaselab simulate` on its config first")
    cfg = cfg or parse_config(run_dir / "config.ini")
    model = cfg.build_model()
    summary_file = run_dir / "summary.json"
    summary = json.loads(summary_file.read_text()) if summary_file.exists() else {}
    provenance = {**model_provenance(model), **cfg.provenance(),
                  **{k: summary[k] for k in Trajectory.RUN_COUNTS if k in summary}}
    grid = cfg.build_grid()
    snaps = []
    times_file = run_dir / "snapshot_times.csv"
    if times_file.exists():
        times = np.loadtxt(times_file, delimiter=",", skiprows=1, usecols=1, ndmin=1)
        store = run_dir / SNAPSHOTS
        try:
            data = np.load(store, allow_pickle=False)
        except (OSError, ValueError) as exc:
            old = ("; snap_*.dat files are the phaselab-run-1 layout"
                   if any(run_dir.glob("snap_*.dat")) else "")
            raise ParseError(f"{store}: {type(exc).__name__}: {exc}{old}") from exc
        if data.dtype != np.float64 or data.shape != (times.size, grid.n_cells):
            raise ParseError(f"{store}: {data.dtype} {data.shape}, expected float64 "
                             f"{(times.size, grid.n_cells)} from {times_file.name} and the grid")
        snaps = [(t, g.Field(grid, row)) for t, row in zip(times.tolist(), data)]
    return Trajectory.read_csv(diagnostics, grid, snapshots=snaps,
                               provenance=provenance, model=model)


def _analysis_report(traj: Trajectory, pars: dict) -> tuple[dict, dict, list]:
    """The report, the manifest assertions and the (delta, level-set series) pairs."""
    report: dict = {}
    assertions: dict = {}
    t0, t1 = float(traj.times[0]), float(traj.times[-1])

    good_entries = []
    gts_for_fit = None
    for M in pars["m_levels"]:
        gts = an.classify_good_times(traj, M, strict=False)
        good_entries.append({
            "M": M, "T": gts.T, "bad_measure": gts.bad_measure,
            "bound": gts.bound, "ok": gts.ok,
            "implied_bound": gts.implied_bound, "chain_ok": gts.chain_ok,
        })
        # the manifest asserts what the discrete energy inequality implies;
        # the literal paper-shadow bound stays in the report (it is vacuous
        # for data whose energy starts negative)
        assertions[f"good_times_M{M:g}"] = gts.chain_ok
        gts_for_fit = gts if gts.chain_ok else gts_for_fit
    report["good_times"] = good_entries

    level_sets = []
    level_entries = []
    delta_star = None
    t_star = None
    for delta in pars["delta_levels"]:
        try:
            rep = an.level_set_series(traj, delta)
        except InsufficientSnapshotsError:
            continue
        level_sets.append((delta, rep))
        delta_star, t_star = rep.delta_star, rep.T_star
        level_entries.append({
            "delta": delta,
            "final_measure": float(rep.measures[-1]) if rep.measures.size else None,
        })
    report["separation"] = {"delta_star": delta_star, "T_star": t_star,
                            "levels": level_entries}

    degiorgi = None
    dg_delta = 0.95 * delta_star if delta_star else None
    if dg_delta:
        start = t_star if t_star is not None else t0 + 0.5 * (t1 - t0)
        tau = max((t1 - start) / 3.5, 1e-9)
        try:
            it = an.degiorgi_from_trajectory(traj, dg_delta, tau, t1, n_max=DEGIORGI_NMAX)
            degiorgi = {"delta": dg_delta, "tau": tau, "T": t1,
                        "y": [float(y) for y in it.y], "certified": it.certified}
        except (WindowOutOfRangeError, InsufficientSnapshotsError) as exc:
            degiorgi = {"delta": dg_delta, "error": str(exc)}
    report["degiorgi"] = degiorgi

    loja = None
    if gts_for_fit is not None:
        try:
            fit = an.lojasiewicz_fit(traj, gts_for_fit)
            loja = {"theta": fit.theta, "C": fit.C, "fit_r2": fit.r2,
                    "E_inf": fit.e_inf}
        except DegenerateWindowError as exc:
            loja = {"error": str(exc)}
    report["lojasiewicz"] = loja

    omega = None
    try:
        est = an.omega_limit_estimate(traj, gts_for_fit)
        omega = {
            "dispersion": est.dispersion,
            "singleton": est.singleton,
            "nearest_eq": None if est.nearest_eq is None else
            {"residual": est.nearest_eq.residual_l2,
             "delta": est.nearest_delta,
             "distance": est.nearest_distance,
             "iterations": est.nearest_eq.iterations,
             "linear_iterations": est.nearest_eq.linear_iterations},
            "polish_error": est.polish_error,
        }
    except InsufficientSnapshotsError as exc:
        omega = {"error": str(exc)}
    report["omega"] = omega
    return report, assertions, level_sets


def cmd_analyze(args) -> int:
    run_dir = Path(args.run_dir)
    if not run_dir.exists():
        run_dir = _resolve_outdir(args.run_dir)
    cfg = parse_config(run_dir / "config.ini")
    pars = cfg.analysis_params()
    if args.M:
        pars["m_levels"] = tuple(float(x) for x in args.M)
    if args.delta:
        pars["delta_levels"] = tuple(float(x) for x in args.delta)
    started = time.time()
    traj = load_run(run_dir, cfg)
    report, assertions, level_sets = _analysis_report(traj, pars)
    files = [_write_json(run_dir / "report.json", report)]
    for delta, rep in level_sets:
        files.append(_write_csv(run_dir / f"level_set_delta{delta:g}.csv", "t,measure",
                                zip(map(float, rep.times), map(float, rep.measures))))
    if "y" in (report["degiorgi"] or {}):
        files.append(_write_csv(run_dir / "degiorgi_y.csv", "n,y",
                                enumerate(report["degiorgi"]["y"])))
    manifest = _manifest(run_dir, cfg.digest(), files, assertions, started)
    print(f"analyze: {run_dir}  pass={manifest['pass']}")
    return 0 if manifest["pass"] else 1


def _read_trace(path) -> tuple[np.ndarray, np.ndarray]:
    """The first two columns (time, value) of a CSV trace with a header line."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # e.g. an empty file
            data = np.genfromtxt(path, delimiter=",", names=True)
    except (OSError, ValueError, Warning) as exc:
        raise ParseError(f"trace {path}: {type(exc).__name__}: {exc}") from exc
    if len(data.dtype.names or ()) < 2:
        raise ParseError(f"trace {path}: need a header and two columns (time, value)")
    return data[data.dtype.names[0]], data[data.dtype.names[1]]


def cmd_lemmas(args) -> int:
    try:
        if args.lemma == "degiorgi":
            theta = an.degiorgi_threshold(args.C, args.b, args.eps)
            out = {"threshold": theta, "C": args.C, "b": args.b, "eps": args.eps}
            if args.y0 is not None:
                out["y0"] = args.y0
                out["condition_met"] = bool(args.y0 <= theta)
                if out["condition_met"]:
                    bounds = an.degiorgi_predict(args.y0, args.C, args.b, args.eps,
                                                 np.arange(args.n + 1))
                    out["bounds"] = [float(b) for b in bounds]
            print(json.dumps(out, indent=2, sort_keys=True))
            return 0
        rep = an.integrability_check(*_read_trace(args.trace), args.alpha, args.zeta)
    except ValueError as exc:  # arguments or a trace outside the lemma's hypotheses
        raise ValidationError(f"lemmas {args.lemma}: {exc}") from exc
    print(json.dumps(vars(rep), indent=2, sort_keys=True))
    return 0 if rep.hypothesis_holds else 1


def _sweep_worker(text: str) -> tuple[str, bool]:
    outdir, manifest = _simulate(ExperimentConfig.from_string(text), exist_ok=False)
    return str(outdir), manifest["pass"]


def cmd_sweep(args) -> int:
    cfg = parse_config(args.config)
    key, _, values = args.axis.partition("=")
    section, _, name = key.partition(".")
    if not values or name == "":
        raise ValidationError(f"axis {args.axis!r} must look like section.key=v1,v2,...")
    if section not in cfg.values or name not in cfg.values[section]:
        raise ValidationError(f"unknown sweep key {key!r}")
    base = _resolve_outdir(cfg.output_dir)
    payloads = {}  # variant directory -> config text
    for val in values.split(","):
        variant = ExperimentConfig.from_string(cfg.canonical())
        variant.values[section][name] = convert_value(section, name, val)
        # unresolved, like the base dir: the worker resolves it once
        variant.values["output"]["dir"] = str(Path(cfg.output_dir) / f"{section}.{name}={val}")
        variant.validate()
        # every variant builds before any runs, so a bad one leaves no partial sweep
        solvability_bound(variant.build_model(), variant.build_grid())
        outdir = _resolve_outdir(variant.output_dir)
        if outdir in payloads:
            raise ValidationError(f"sweep repeats the variant directory {outdir}")
        if outdir.exists():
            raise ValidationError(f"sweep output collision: {outdir} exists")
        payloads[outdir] = variant.canonical()
    if len(payloads) == 1:
        results = [_sweep_worker(*payloads.values())]
    else:
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=min(4, len(payloads))) as pool:
            results = list(pool.map(_sweep_worker, payloads.values()))
    agg = dict(results)
    _write_json(base / "sweep_manifest.json", agg)
    print(json.dumps(agg, indent=2, sort_keys=True))
    return 0 if all(agg.values()) else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="phaselab",
                                description="phase-field gradient-flow laboratory")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("simulate", help="integrate a configured model")
    s.add_argument("config")
    s.set_defaults(fn=cmd_simulate)

    s = sub.add_parser("equilibrium", help="solve stationary states over the seed library")
    s.add_argument("config")
    s.set_defaults(fn=cmd_equilibrium)

    s = sub.add_parser("analyze", help="run the analysis battery on a run directory")
    s.add_argument("run_dir")
    s.add_argument("--M", nargs="*", default=None, help="good-time levels")
    s.add_argument("--delta", nargs="*", default=None, help="level-set depths")
    s.set_defaults(fn=cmd_analyze)

    s = sub.add_parser("lemmas", help="standalone lemma utilities")
    lem = s.add_subparsers(dest="lemma", required=True)
    dg = lem.add_parser("degiorgi")
    dg.add_argument("--C", type=float, required=True)
    dg.add_argument("--b", type=float, required=True)
    dg.add_argument("--eps", type=float, required=True)
    dg.add_argument("--y0", type=float, default=None)
    dg.add_argument("--n", type=int, default=10)
    ig = lem.add_parser("integrability")
    ig.add_argument("trace", help="CSV with time and value columns")
    ig.add_argument("--alpha", type=float, required=True)
    ig.add_argument("--zeta", type=float, required=True)
    s.set_defaults(fn=cmd_lemmas)

    s = sub.add_parser("sweep", help="fan a config out along one parameter axis")
    s.add_argument("config")
    s.add_argument("--axis", required=True, help="section.key=v1,v2,...")
    s.set_defaults(fn=cmd_sweep)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PhaselabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
