"""Spans recorded around phaselab's public callables, from outside the library.

Every callable is wrapped at the module or class attribute through which its
callers look it up, so no file of the library changes.  A span is
``(id, parent, name, start, end, failed, info)``; spans stay in memory and
are written out once, when the traced process ends.  The root span of each
CLI command is the trace identifier of every span below it.
"""

from __future__ import annotations

import functools
import json
import os
import time
import types

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, owner, attr: str, name: str, info=None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``info(args, kwargs, result)`` may return a small JSON-able value kept
        on the span (an iteration count, a size in bytes).
        """
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name,
                   time.perf_counter(), 0.0, 0, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[5] = 1
                raise
            finally:
                rec[4] = time.perf_counter()
                stack.pop()
            if info is not None:
                rec[6] = info(args, kwargs, out)
            return out

        setattr(owner, attr, traced)

    def write(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _eq_info(args, kwargs, out):
    guess = kwargs.get("guess", args[2] if len(args) > 2 else None)
    n = guess.grid.n_cells
    return {"iterations": out.iterations, "jacobian_bytes": (n + 1) ** 2 * 8}


def _run_info(args, kwargs, out):
    prov = out.provenance
    return {"accepted": prov["accepted"], "rejected": prov["rejected"]}


def install(tracer: Tracer):
    """Wrap the public callables of every phaselab layer the benchmark reports."""
    from phaselab import analysis, cli, config, dynamics, grid, physics, stationary
    import scipy.sparse.linalg as spla

    w = tracer.wrap
    for fn in ("cmd_simulate", "cmd_analyze", "cmd_equilibrium", "load_run"):
        w(cli, fn, f"cli.{fn}")
    w(cli, "parse_config", "config.parse_config")
    w(config, "parse_config", "config.parse_config")
    for fn in ("build_grid", "build_model", "build_stepper", "build_initial_field"):
        w(config.ExperimentConfig, fn, "config.build")
    w(dynamics.Trajectory, "to_csv", "cli.to_csv")
    w(dynamics.Trajectory, "verify", "cli.verify")
    w(cli, "run", "dynamics.run", _run_info)
    w(dynamics, "step", "dynamics.step", lambda a, k, out: out.newton_iters)
    # splu as dynamics looks it up, without touching scipy for anyone else
    dynamics.spla = types.SimpleNamespace(**vars(spla))
    w(dynamics.spla, "splu", "dynamics.splu")
    for fn in ("chemical_potential", "energy", "grad_sq_cell"):
        w(physics, fn, f"physics.{fn}")
    w(grid.KernelMatrix, "apply_values", "grid.kernel_apply")
    for fn in ("norm_hminus1", "weighted_laplacian_matrix", "load_field"):
        w(grid, fn, f"grid.{fn}")
    w(grid, "save_field", "grid.save_field",
      lambda a, k, out: os.path.getsize(a[0]))
    w(stationary, "solve_equilibrium", "stationary.solve_equilibrium", _eq_info)
    for fn in ("classify_good_times", "level_set_series", "degiorgi_from_trajectory",
               "lojasiewicz_fit", "omega_limit_estimate"):
        w(analysis, fn, f"analysis.{fn}")


def read(path) -> list:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def self_times(spans: list) -> list:
    """Per span: duration minus the part of it that its child spans cover."""
    children = {}
    for rec in spans:
        children.setdefault(rec[1], []).append(rec)
    out = []
    for rec in spans:
        covered, reach = 0.0, rec[3]
        for child in sorted(children.get(rec[0], ()), key=lambda c: c[3]):
            lo, hi = max(child[3], reach), min(child[4], rec[4])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(rec[4] - rec[3] - covered)
    return out


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced pipeline, keyed by metric name."""
    selfs = self_times(spans)
    by_name = {}
    for rec, own in zip(spans, selfs):
        by_name.setdefault(rec[2], []).append((rec, own))

    def total(name):
        return sum(r[4] - r[3] for r, _ in by_name.get(name, ()))

    def self_total(name):
        return sum(own for _, own in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def failed(name):
        return sum(r[5] for r, _ in by_name.get(name, ()))

    steps = by_name.get("dynamics.step", [])
    step_ms = np.array([(r[4] - r[3]) * 1e3 for r, _ in steps]) if steps else np.zeros(1)
    ok_iters = [r[6] for r, _ in steps if not r[5]]
    runs = [r[6] for r, _ in by_name.get("dynamics.run", ()) if r[6]]
    accepted = sum(x["accepted"] for x in runs)
    rejected = {k: sum(x["rejected"][k] for x in runs) for k in ("energy", "newton", "bounds")}
    eqs = [r[6] for r, _ in by_name.get("stationary.solve_equilibrium", ()) if r[6]]
    saves = [r[6] for r, _ in by_name.get("grid.save_field", ()) if r[6] is not None]

    m = {
        "config.parse_config.s": total("config.parse_config"),
        "config.build.s": total("config.build"),
        "dynamics.run.s": total("dynamics.run"),
        "dynamics.run.self_s": self_total("dynamics.run"),
        "dynamics.step.calls": calls("dynamics.step"),
        "dynamics.step.self_s": self_total("dynamics.step"),
        "dynamics.step.failed": failed("dynamics.step"),
        "dynamics.step_ms.p50": float(np.percentile(step_ms, 50)),
        "dynamics.step_ms.p99": float(np.percentile(step_ms, 99)),
        "dynamics.accept_ratio": accepted / max(calls("dynamics.step"), 1),
        "dynamics.newton_iters_per_step": float(np.mean(ok_iters)) if ok_iters else 0.0,
        "dynamics.splu.calls": calls("dynamics.splu"),
        "dynamics.splu.s": total("dynamics.splu"),
        "dynamics.splu_per_step": calls("dynamics.splu") / max(calls("dynamics.step"), 1),
        "physics.chemical_potential.calls": calls("physics.chemical_potential"),
        "physics.chemical_potential.s": total("physics.chemical_potential"),
        "physics.energy.calls": calls("physics.energy"),
        "physics.energy.s": total("physics.energy"),
        "physics.grad_sq_cell.s": total("physics.grad_sq_cell"),
        "grid.kernel_apply.calls": calls("grid.kernel_apply"),
        "grid.kernel_apply.s": total("grid.kernel_apply"),
        "grid.norm_hminus1.s": total("grid.norm_hminus1"),
        "grid.weighted_laplacian_matrix.s": total("grid.weighted_laplacian_matrix"),
        "grid.save_field.calls": calls("grid.save_field"),
        "grid.save_field.s": total("grid.save_field"),
        "grid.save_field.bytes": sum(saves),
        "grid.load_field.s": total("grid.load_field"),
        "stationary.solve_equilibrium.calls": calls("stationary.solve_equilibrium"),
        "stationary.solve_equilibrium.s": total("stationary.solve_equilibrium"),
        "stationary.iterations": sum(x["iterations"] for x in eqs),
        "stationary.failed": failed("stationary.solve_equilibrium"),
        "stationary.jacobian_bytes": max((x["jacobian_bytes"] for x in eqs), default=0),
        "analysis.omega_limit_estimate.self_s": self_total("analysis.omega_limit_estimate"),
        "cli.cmd_simulate.self_s": self_total("cli.cmd_simulate"),
        "cli.cmd_analyze.self_s": self_total("cli.cmd_analyze"),
        "cli.load_run.s": total("cli.load_run"),
        "cli.to_csv.s": total("cli.to_csv"),
        "cli.verify.s": total("cli.verify"),
    }
    for k, v in rejected.items():
        m[f"dynamics.rejected.{k}"] = v
    for fn in ("classify_good_times", "level_set_series", "degiorgi_from_trajectory",
               "lojasiewicz_fit", "omega_limit_estimate"):
        m[f"analysis.{fn}.s"] = total(f"analysis.{fn}")
    return m
