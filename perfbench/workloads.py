"""The benchmark's workloads and the inputs it generates for them.

Each workload is a phaselab experiment config plus a fixed structured base
profile.  The seed only adds a mean-zero perturbation of amplitude 1e-3 to
that profile, so every seed takes the same code paths with nearly the same
step counts; random-admissible initial data are not seed-steady (the step
counts of a 2D run spread by a factor of two across seeds).

phaselab sees only the generated files: an ``initial.kind = file`` snapshot
and two configs that differ only in their output directory, because
``simulate``/``analyze`` and ``equilibrium`` each rewrite the manifest of the
directory they write to.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

PERTURBATION = 1e-3

# Sections shared by every workload: the deep-quench logarithmic potential
# and the polynomial coefficients of tests/conftest.py.
_POTENTIAL = {"kind": "logarithmic", "theta": 0.3, "theta0": 1.0}
_MOBILITY = {"kind": "poly", "m_star": 0.5, "coeffs": "1.0 0.0 -0.5"}
_DIFFUSION = {"kind": "poly", "a_star": 1.0, "coeffs": "1.0 0.0 0.5"}

WORKLOADS = {
    "ac1d_quench": {
        "why": "Deep-quench conserved Allen-Cahn in 1D: throttled by the energy "
               "gate, bound by per-step Python overhead, writes and reads "
               "hundreds of small snapshots; LU is a minor cost.",
        "sections": {
            "grid": {"dim": 1, "nx": 128, "lx": 1.0},
            "potential": _POTENTIAL,
            "model": {"preset": "CONSERVED_AC", "gamma": 1e-3},
            "initial": {"mean": 0.1, "amplitude": 0.05, "mode": 2},
            "time": {"dt_init": 1e-4, "dt_max": 5e-2, "t_max": 0.5,
                     "snapshot_every": 10, "steady_tol": 0.0},
            "analysis": {"delta_levels": "0.001 0.01"},
        },
        "kernel": False,
    },
    "ch2d_spinodal": {
        "why": "2D Cahn-Hilliard with varying mobility and diffusion: dominated "
               "by SuperLU refactoring a varying-coefficient operator every "
               "Newton iteration; few snapshots, no kernel.",
        "sections": {
            "grid": {"dim": 2, "nx": 32, "ny": 32, "lx": 1.0, "ly": 1.0},
            "potential": _POTENTIAL,
            "mobility": _MOBILITY,
            "diffusion": _DIFFUSION,
            "model": {"preset": "CH_NONLINEAR", "gamma": 0.01},
            "initial": {"mean": 0.0, "amplitude": 0.05, "mode": 2},
            "time": {"dt_init": 1e-6, "dt_max": 1e-2, "t_max": 0.01,
                     "snapshot_every": 10, "steady_tol": 0.0},
        },
        "kernel": False,
    },
    "nl2d_equilibrium": {
        "why": "2D nonlocal Cahn-Hilliard with a Gaussian kernel: the only "
               "workload that calls the FFT convolution; its dense stationary "
               "Jacobian dominates equilibrium and the omega polish, and drives peak RSS.",
        "sections": {
            "grid": {"dim": 2, "nx": 40, "ny": 40, "lx": 1.0, "ly": 1.0},
            "potential": _POTENTIAL,
            "mobility": _MOBILITY,
            "kernel": {"kind": "gaussian", "scale": 0.1},
            "model": {"preset": "NONLOCAL_CH"},
            "initial": {"mean": 0.1, "amplitude": 0.05, "mode": 2},
            "time": {"dt_max": 2e-2, "t_max": 0.005, "snapshot_every": 10,
                     "steady_tol": 0.0},
        },
        "kernel": True,
    },
}


def base_profile(sections: dict) -> tuple[np.ndarray, tuple[float, ...]]:
    """Cosine profile ``mean + amplitude * prod cos(mode pi x / L)`` at cell centres."""
    gv = sections["grid"]
    iv = sections["initial"]
    shape = (gv["nx"],) if gv["dim"] == 1 else (gv["nx"], gv["ny"])
    lengths = (gv["lx"],) if gv["dim"] == 1 else (gv["lx"], gv["ly"])
    prof = np.ones(shape)
    for axis, (n, L) in enumerate(zip(shape, lengths)):
        x = (np.arange(n) + 0.5) * (L / n)
        x = x.reshape([-1 if a == axis else 1 for a in range(len(shape))])
        prof = prof * np.cos(iv["mode"] * np.pi * x / L)
    return (iv["mean"] + iv["amplitude"] * prof).ravel(), tuple(L / n for n, L in zip(shape, lengths))


def initial_values(name: str, seed: int) -> np.ndarray:
    """Base profile plus a seeded mean-zero perturbation of amplitude 1e-3."""
    values, _ = base_profile(WORKLOADS[name]["sections"])
    noise = np.random.default_rng(seed).uniform(-1.0, 1.0, values.size)
    noise -= noise.mean()
    return values + PERTURBATION * noise / np.max(np.abs(noise))


def _write_snapshot(path: Path, sections: dict, values: np.ndarray):
    """phaselab's snapshot format: ``nx [ny] hx [hy] bc`` then one value a line."""
    gv = sections["grid"]
    shape = (gv["nx"],) if gv["dim"] == 1 else (gv["nx"], gv["ny"])
    _, spacing = base_profile(sections)
    header = " ".join([*(str(n) for n in shape), *(repr(h) for h in spacing), "neumann"])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        np.savetxt(fh, values, fmt="%.17g")


def _write_config(path: Path, sections: dict, snapshot: Path, output_dir: str,
                  t_max: float):
    lines = []
    for section, keys in sections.items():
        keys = dict(keys)
        if section == "initial":
            keys = {"kind": "file", "mean": keys["mean"], "path": str(snapshot)}
        if section == "time":
            keys["t_max"] = t_max
        lines.append(f"[{section}]")
        lines += [f"{k} = {v}" for k, v in keys.items()]
        lines.append("")
    lines += ["[output]", f"dir = {output_dir}", ""]
    path.write_text("\n".join(lines))


def generate(name: str, seed: int, workdir: Path, t_max: float | None = None) -> dict:
    """Write the snapshot and both configs of one workload into ``workdir``.

    Returns both config paths and the horizon; ``t_max`` overrides the
    workload's horizon (the benchmark's own tests use a tiny one).
    """
    sections = WORKLOADS[name]["sections"]
    workdir.mkdir(parents=True, exist_ok=True)
    snapshot = workdir.resolve() / "initial.dat"
    _write_snapshot(snapshot, sections, initial_values(name, seed))
    horizon = sections["time"]["t_max"] if t_max is None else t_max
    paths = {"simulate": workdir / "simulate.ini", "equilibrium": workdir / "equilibrium.ini"}
    _write_config(paths["simulate"], sections, snapshot, "run", horizon)
    _write_config(paths["equilibrium"], sections, snapshot, "eq", horizon)
    return {**{k: str(v.resolve()) for k, v in paths.items()}, "t_max": horizon}
