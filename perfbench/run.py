"""phaselab benchmark: simulate -> analyze -> equilibrium on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is this file's grandparent directory.  The
seed makes the workload's inputs (see workloads.py).  Each repetition is one
fresh Python process (worker.py) that calls ``phaselab.cli.main`` three
times; repetitions run one at a time until ``--seconds`` is spent (at least
three untraced, or one untraced/traced pair).  Every repetition's outputs
pass the correctness gate below, or the run fails.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over repetitions.  ``--trace 1`` alternates untraced and traced repetitions
and reports the per-layer metrics of the traced ones, plus the tracing
overhead (traced minus untraced ``pipeline_s``).  A table of every metric
with unit, median, quartiles and sample count goes to stdout; the last line
is one JSON object ``{correct, attempted, failed, metrics}``.  The exit code
is 0 only if every operation passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
MIN_REPS = 3
RUN_LIMIT_S = 170.0     # the whole command must end within 180 s
# Single-threaded BLAS keeps the dense stationary solves steady on a shared
# machine; a run then uses one busy process and one thread (<= nproc).  A
# fixed hash seed removes one source of process-to-process variation.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}
CHECKED_ASSERTIONS = ("complete", "mass_conserved", "mass_per_step", "energy_inequality",
                      "strict_bounds", "finite")
# Tolerances of the independent re-check of diagnostics.csv; they equal the
# defaults of Trajectory.verify and StepperConfig.tol_e.
TOL_MASS, TOL_MASS_STEP, TOL_E = 1e-10, 1e-14, 1e-10
# Stationary states do not depend on the time scheme or the seed: every
# equilibrium seed must reproduce the reference (mu_inf, delta) within this.
TOL_REFERENCE = 1e-6
EQ_TOL = 1e-10          # the default analysis.eq_tol, which no workload changes
OMEGA_POLISH_TOL = 1e-10
COMPUTED = {"stationary.jacobian_bytes", "grid.save_field.bytes", "cli.bytes_written",
            "cli.bytes_read"}

# (mu_inf, delta) per equilibrium seed, measured at the commit that added the
# benchmark.
REFERENCE = {
    "ac1d_quench": {
        "constant": (-0.0698993956806773, 0.9),
        "tanh_mid": (-2.5001994834239318e-08, 0.0025861826699749013),
        "tanh_flip": (-2.5001994827373252e-08, 0.0025861826699749013),
    },
    "ch2d_spinodal": {
        "constant": (0.0, 1.0),
        "tanh_mid": (0.0, 0.0025862044224277403),
        "tanh_flip": (0.0, 0.0025862044224277403),
    },
    "nl2d_equilibrium": {
        "constant": (0.030100604319322686, 0.9),
        "tanh_mid": (0.030100604319322658, 0.9),
        "tanh_flip": (0.03010060431932266, 0.9),
    },
}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _load(path: Path):
    return json.loads(path.read_text())


def recheck_diagnostics(csv_path: Path, t_max: float) -> list[str]:
    """Re-derive the structural invariants from the written diagnostics."""
    d = np.genfromtxt(csv_path, delimiter=",", names=True)
    problems = []
    series = [d[c] for c in ("mass", "energy", "dissipation", "phi_min", "phi_max")]
    if not all(np.all(np.isfinite(s)) for s in series):
        problems.append("diagnostics: non-finite values")
    if np.max(np.abs(d["mass"] - d["mass"][0])) > TOL_MASS:
        problems.append("diagnostics: mass drift")
    if np.max(np.abs(np.diff(d["mass"]))) > TOL_MASS_STEP:
        problems.append("diagnostics: mass change in one step")
    gate = d["energy"][1:] + d["dt"][1:] * d["dissipation"][1:] - d["energy"][:-1]
    if np.max(gate) > TOL_E:
        problems.append("diagnostics: energy inequality violated")
    if not (np.all(d["phi_min"] > -1.0) and np.all(d["phi_max"] < 1.0)):
        problems.append("diagnostics: |phi| < 1 violated")
    if abs(d["t"][-1] - t_max) > 1e-12 * max(1.0, t_max):
        problems.append(f"diagnostics: ends at t={d['t'][-1]!r}, not t_max={t_max!r}")
    return problems


def check_pipeline(name: str, outroot: Path, result: dict, t_max: float) -> tuple[int, dict]:
    """Correctness gate of one pipeline.

    Returns the number of operations attempted (3 CLI commands plus every
    equilibrium seed) and the problems found, keyed by the failed operation.
    """
    problems = {}

    def fail(op, msg):
        problems.setdefault(op, []).append(msg)

    def manifest_pass(op, path):
        if not path.exists():
            fail(op, f"{path.name} missing")
            return None
        manifest = _load(path)
        if not manifest.get("pass"):
            fail(op, f"manifest pass=false: {manifest.get('assertions')}")
        return manifest

    for op, rc in result["rc"].items():
        if rc != 0:
            fail(op, f"exit status {rc}")
    run_dir, eq_dir = outroot / "run", outroot / "eq"

    manifest = manifest_pass("simulate", outroot / "simulate_manifest.json")
    if manifest is not None:
        bad = [k for k in CHECKED_ASSERTIONS if manifest["assertions"].get(k) is not True]
        if bad:
            fail("simulate", f"assertions not passed: {bad}")
    summary_path = run_dir / "summary.json"
    if summary_path.exists():
        summary = _load(summary_path)
        if summary.get("stop_reason") != "t_max":
            fail("simulate", f"stop_reason={summary.get('stop_reason')!r}")
    else:
        fail("simulate", "summary.json missing")
    if (run_dir / "diagnostics.csv").exists():
        for msg in recheck_diagnostics(run_dir / "diagnostics.csv", t_max):
            fail("simulate", msg)
    else:
        fail("simulate", "diagnostics.csv missing")

    manifest_pass("analyze", run_dir / "manifest.json")
    report_path = run_dir / "report.json"
    omega = _load(report_path).get("omega") if report_path.exists() else None
    nearest = (omega or {}).get("nearest_eq")
    if not nearest or not nearest["residual"] <= OMEGA_POLISH_TOL:
        fail("analyze", f"omega-limit polish did not run or converge: {omega}")

    manifest_pass("equilibrium", eq_dir / "manifest.json")
    eq_path = eq_dir / "equilibria.json"
    seeds = {s["seed_id"]: s for s in _load(eq_path)} if eq_path.exists() else {}
    for seed_id, (mu_ref, delta_ref) in REFERENCE[name].items():
        seed = seeds.get(seed_id)
        if (seed is None or "error" in seed or not seed["residual"] <= EQ_TOL
                or abs(seed["mu_inf"] - mu_ref) > TOL_REFERENCE
                or abs(seed["delta"] - delta_ref) > TOL_REFERENCE):
            fail(f"seed:{seed_id}", f"expected mu_inf={mu_ref!r}, delta={delta_ref!r}; got {seed}")
    return 3 + len(REFERENCE[name]), problems


def _dir_bytes(path: Path, pattern: str = "*") -> int:
    return sum(p.stat().st_size for p in path.glob(pattern) if p.is_file())


def run_pipeline(name: str, inputs: dict, repdir: Path, traced: bool, deadline: float) -> dict:
    """One fresh worker process; returns its measurements and gate results."""
    repdir.mkdir(parents=True)
    result_path = repdir / "result.json"
    env = dict(os.environ, PHASELAB_OUTPUT_ROOT=str(repdir), **WORKER_ENV)
    t_spawn = _now()
    cmd = [sys.executable, str(HERE / "worker.py"), inputs["simulate"], inputs["equilibrium"],
           repr(t_spawn), "1" if traced else "0", str(result_path)]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(deadline - _now(), 1.0))
        crashed = proc.returncode != 0 or not result_path.exists()
        log = proc.stderr
    except subprocess.TimeoutExpired:
        crashed, log = True, "worker timed out"
    if crashed:
        sys.stderr.write(log[-4000:])
        ops = ["simulate", "analyze", "equilibrium", *(f"seed:{s}" for s in REFERENCE[name])]
        return {"attempted": len(ops), "problems": {op: ["worker crashed"] for op in ops}}
    result = _load(result_path)
    attempted, problems = check_pipeline(name, repdir, result, inputs["t_max"])
    run_dir = repdir / "run"
    summary = _load(run_dir / "summary.json") if (run_dir / "summary.json").exists() else {}
    rep = {
        "attempted": attempted, "problems": problems,
        "e2e": {
            **{k: result[k] for k in ("setup_s", "simulate_s", "analyze_s", "equilibrium_s",
                                      "pipeline_s", "peak_rss_mb")},
            "accepted_steps": summary.get("accepted", 0),
            "rejected_steps": sum((summary.get("rejected") or {}).values()),
        },
    }
    if traced and (repdir / "spans.jsonl").exists():
        layer = spans.layer_metrics(spans.read(repdir / "spans.jsonl"))
        layer["cli.bytes_written"] = _dir_bytes(run_dir)
        layer["cli.bytes_read"] = sum(_dir_bytes(run_dir, p) for p in (
            "config.ini", "diagnostics.csv", "snapshot_times.csv", "snap_*.dat"))
        if (layer["grid.kernel_apply.calls"] > 0) != workloads.WORKLOADS[name]["kernel"]:
            problems.setdefault("simulate", []).append(
                f"kernel calls {layer['grid.kernel_apply.calls']} contradict the workload")
        rep["layer"] = layer
        rep["spans"] = repdir / "spans.jsonl"
    return rep


def _summary(values: list) -> dict:
    vals = [float(v) for v in values]
    q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
    return {"median": statistics.median(vals), "q1": q[0], "q3": q[2], "n": len(vals)}


def _print_table(title: str, specs: list, stats: dict):
    print(title)
    print(f"  {'metric':40s} {'unit':6s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>6s}")
    for spec in specs:
        s = stats[spec["name"]]
        label = spec["name"] + (" (computed)" if spec["name"] in COMPUTED else "")
        print(f"  {label:40s} {spec['unit']:6s} {s['median']:14.6g} {s['q1']:14.6g} "
              f"{s['q3']:14.6g} {s['n']:6d}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    started = _now()
    if not (ROOT / "src" / "phaselab" / "__init__.py").is_file():
        print(f"error: no phaselab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = _load(ROOT / "BENCHMARK.json")
    deadline = started + RUN_LIMIT_S

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    inputs = workloads.generate(args.workload, args.seed, workdir / "inputs")

    reps = []
    attempted = failed = 0
    trace_file = None
    while True:
        elapsed = _now() - started
        if args.trace:
            # an untraced/traced pair per round, for the overhead
            rounds = len(reps) // 2
            if rounds and elapsed + elapsed / rounds > args.seconds:
                break
            plan = (False, True)
        else:
            if len(reps) >= MIN_REPS and elapsed + elapsed / len(reps) > args.seconds:
                break
            plan = (False,)
        for traced in plan:
            repdir = workdir / f"rep{len(reps)}"
            rep = run_pipeline(args.workload, inputs, repdir, traced, deadline)
            rep["traced"] = traced
            reps.append(rep)
            attempted += rep["attempted"]
            failed += len(rep["problems"])
            if "spans" in rep:
                trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
                shutil.move(rep.pop("spans"), trace_file)
            shutil.rmtree(repdir, ignore_errors=True)
            if rep["problems"]:
                print(f"correctness gate failed in rep {len(reps) - 1}: {rep['problems']}",
                      file=sys.stderr)
        if failed:
            break
    shutil.rmtree(workdir, ignore_errors=True)

    untraced = [r for r in reps if not r["traced"] and "e2e" in r]
    metrics = {}
    if failed == 0:
        if args.trace:
            traced = [r["layer"] for r in reps if r["traced"]]
            overhead = (statistics.median(r["e2e"]["pipeline_s"] for r in reps if r["traced"])
                        - statistics.median(r["e2e"]["pipeline_s"] for r in untraced))
            for layer in traced:
                layer["trace.overhead_s"] = overhead
            specs = bench["per_layer"]
            stats = {s["name"]: _summary([t[s["name"]] for t in traced]) for s in specs}
            _print_table(f"{args.workload} seed {args.seed}: per-layer, traced repetitions",
                         specs, stats)
            print(f"  step latency samples per repetition: "
                  f"{int(stats['dynamics.step.calls']['median'])}; spans: {trace_file}")
        else:
            specs = bench["end_to_end"]
            stats = {s["name"]: _summary([r["e2e"][s["name"]] for r in untraced]) for s in specs}
            _print_table(f"{args.workload} seed {args.seed}: end to end", specs, stats)
        metrics = {s["name"]: {"value": stats[s["name"]]["median"], "unit": s["unit"]}
                   for s in specs}
    print(f"  failed_frac (ratio): {failed / max(attempted, 1):.6g} "
          f"({failed} of {attempted} operations)")
    ok = failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
