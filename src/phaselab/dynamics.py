"""Energy-stable, mass-conserving time integration of the evolution models.

One semi-implicit step solves

    (phi+ - phi) / dt = alpha div(m(phi) grad mu+) - beta (mu+ - mean(mu+))

with the gradient diffusion (its coefficient a frozen at the old state) and
the whole local part F'(phi+) + c phi+ implicit (backward Euler in the local
potential; c is ``physics.linear_coefficient``, -sigma1 theta0 plus the
kernel row sums J*1 of a nonlocal model), while the nonlocal -J*phi and the a'
gradient-square term stay explicit.  -J*phi is extrapolated linearly from
the last two accepted states (IMEX; Ascher, Ruuth & Wetton, SIAM J. Numer.
Anal. 32, 1995): lagged, its O(dt^2) energy-gate defect throttled every
nonlocal run.  Their evaluations hold both convolutions, so this costs no
FFT; a run's first step has no history and lags it.  With the concave term
implicit the energy gate leans on tol_e only where E is nonconvex along the
step; the price is that the implicit map is monotone only below a dt bound
(``solvability_bound``), at which ``run`` caps dt.  Damped Newton with
pointwise clamping inside (-1, 1) is robust below it; the barrier of F'
itself keeps iterates off the pure phases.

Newton starts from the quadratic through the last three accepted states,
taken at the new time and clipped into the guard band (Hairer & Wanner,
Solving ODEs II, IV.8), so its first residual is the predictor's error, not a
whole increment; the commit and the energy gate read only the solution.  The
Jacobian is lagged (a chord iteration): a run keeps its last sparse LU, with
the mean term as its border, across passes, retries and steps.  A pass
stalls if it shrinks the residual less than 4-fold (a failed chord pass too).
One rule refactors: when there is no LU, when dt has left [dt_f / 2, 2 dt_f]
(dt_f the dt of the last LU), or when the previous pass backtracked or
stalled above newton_tol.  One rule stops, after at least one pass (a commit
without an implicit solve would be an explicit step of the stiff operator):
at min(0.01 newton_tol, CHORD_RTOL r0), r0 the size of the step's increment
(the start's residual or its distance from phi, whichever is larger), or at
a stalled pass below newton_tol, the roundoff floor.  ``run`` drops an LU
factored off dt_max once dt settles there, so one LU serves the plateau.
``newton_iters`` counts every pass; ``provenance["factorizations"]`` the LUs.

The frozen diffusion and mobility operators L_a and L_m are applied
matrix-free, as -div(w * diff(x)) by index gather and ``bincount``, and
assembled only when the Jacobian I + dt R B is factored, both factors by
``grid.local_block``: R = beta I - alpha L_m, B = diag(F'' + c) - gamma L_a.
Newton reads F' unchecked (``step`` keeps max|x| < 1 - eps_guard): its
evaluation checks each state.

Mass is conserved exactly: the committed update is phi + dt * RHS(phi+),
whose discrete mean vanishes to roundoff (the flux form telescopes; the
relaxation form subtracts the discrete mean of the whole right-hand side).

The adaptive driver rejects any step that violates the one-step energy
inequality E(phi+) + dt * D(phi+) <= E(phi) + tol_E (a NaN on either side
violates it) and retries with half the step; trajectories that violate
dissipation are worthless for the analysis layer, so violation is treated as
failure, not warning.  Where the gate binds, its defect d = E(phi+) +
dt D(phi+) - E(phi) is O(dt^2): while D rises even the exact flow, with
E(t + dt) - E(t) = -int D, exceeds -dt D(t + dt) by ~dt^2 D'/2.  So dt
grows no further than dt sqrt(GATE_SAFETY tol_E / d) rather than into the
gate.  Snapshots follow ``snapshot_every`` with a floor in time
(``_Recorder``).  Each trial state is evaluated once (``physics.Evaluation``):
the same evaluation feeds the gate, the recorded diagnostics and, once
accepted, the coefficients and explicit terms that the next step freezes.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from . import grid as g
from . import linalg
from . import physics as ph
from .errors import (
    BoundsViolationError,
    NewtonDivergenceError,
    ParseError,
    StepFloorError,
    ValidationError,
)


@dataclass
class State:
    """Evolving field plus the Newton count of the step that produced it."""

    phi: g.Field
    t: float = 0.0
    newton_iters: int = 0


@dataclass
class StepperConfig:
    dt_init: float = 1e-5
    dt_min: float = 1e-12
    dt_max: float = 1e-2
    newton_tol: float = 1e-10
    tol_e: float = 1e-10
    snapshot_every: int = 50
    steady_tol: float = 1e-9
    steady_dwell: int = 100

    def __post_init__(self):
        if not (0 < self.dt_min <= self.dt_init <= self.dt_max):
            raise ValueError("need 0 < dt_min <= dt_init <= dt_max")
        if self.newton_tol <= 0 or self.tol_e <= 0:
            raise ValueError("tolerances must be positive")
        if min(self.snapshot_every, self.steady_dwell) < 1:
            raise ValueError("snapshot_every and steady_dwell must be >= 1")


# Trajectory attribute -> (diagnostics.csv column, value type), in CSV order.
# The recorder, to_csv and read_csv all iterate over this one table.
DIAGNOSTICS = {
    "times": ("t", float),
    "mass": ("mass", float),
    "energy": ("energy", float),
    "dissipation": ("dissipation", float),
    "grad_mu_l2": ("grad_mu_l2", float),
    "mu_fluct_l2": ("mu_fluct_l2", float),
    "phi_min": ("phi_min", float),
    "phi_max": ("phi_max", float),
    "sep_margin": ("sep_margin", float),
    "dt": ("dt", float),
    "newton_iters": ("newton_iters", int),
}


def model_provenance(M: ph.ModelConfig) -> dict:
    """The model constants the analysis layer reads from a trajectory's provenance."""
    return {"dissipation_norm": M.dissipation_norm, "m_star": M.mobility.m_star,
            "preset": M.preset, "alpha": M.alpha, "beta": M.beta, "gamma": M.gamma}


@dataclass
class Trajectory:
    """Per-step diagnostics plus sparse field snapshots of one run.

    The per-step series are the attributes named in ``DIAGNOSTICS``, which
    also fixes their ``diagnostics.csv`` columns, so a trajectory written with
    ``to_csv`` and read back with ``read_csv`` has the same series bit for bit.
    """

    grid: g.Grid
    times: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    dissipation: np.ndarray
    grad_mu_l2: np.ndarray
    mu_fluct_l2: np.ndarray
    phi_min: np.ndarray
    phi_max: np.ndarray
    sep_margin: np.ndarray
    dt: np.ndarray
    newton_iters: np.ndarray
    snapshots: list
    provenance: dict
    model: ph.ModelConfig | None = None
    complete: bool = True

    CSV_COLUMNS = ",".join(col for col, _ in DIAGNOSTICS.values())
    RUN_COUNTS = ("accepted", "rejected", "factorizations", "gate_limited", "wall_time_s",
                  "stop_reason")

    @classmethod
    def from_series(cls, grid: g.Grid, series, **rest) -> "Trajectory":
        """Build from a mapping of ``DIAGNOSTICS`` attribute -> sequence of values."""
        return cls(grid=grid, **{attr: np.asarray(series[attr], dtype=kind)
                                 for attr, (_, kind) in DIAGNOSTICS.items()}, **rest)

    @classmethod
    def read_csv(cls, path, grid: g.Grid, **rest) -> "Trajectory":
        """Read the series that ``to_csv`` wrote; ``rest`` as for the constructor."""
        with open(path) as fh:
            if (header := fh.readline().strip()) != cls.CSV_COLUMNS:
                raise ParseError(f"{path}: columns {header!r} are not {cls.CSV_COLUMNS}")
            columns = np.loadtxt(fh, delimiter=",", ndmin=2, unpack=True)
        return cls.from_series(grid, dict(zip(DIAGNOSTICS, columns)), **rest)

    @property
    def dissipation_norm_kind(self) -> str:
        return self.provenance.get("dissipation_norm", "grad_mu")

    def dissipation_norm_series(self) -> np.ndarray:
        if self.dissipation_norm_kind == "mu_fluct":
            return self.mu_fluct_l2
        return self.grad_mu_l2

    def to_csv(self, path):
        cols = [np.asarray(getattr(self, attr), dtype=kind).tolist()
                for attr, (_, kind) in DIAGNOSTICS.items()]
        with open(path, "w") as fh:
            fh.write(self.CSV_COLUMNS + "\n")
            fh.writelines(",".join(map(repr, row)) + "\n" for row in zip(*cols))

    def summary(self) -> dict:
        """The end state and the stepper's counts, as ``summary.json`` records them."""
        return {
            "t_end": float(self.times[-1]),
            "final_dissipation_norm": float(self.dissipation_norm_series()[-1]),
            "final_energy": float(self.energy[-1]),
            "mass_drift": float(np.max(np.abs(self.mass - self.mass[0]))),
            **{k: self.provenance.get(k) for k in self.RUN_COUNTS},
        }

    def verify(self, tol_mass: float = 1e-10, tol_mass_step: float = 1e-14,
               tol_e: float = 1e-10) -> dict:
        """Re-check the structural invariants from the recorded series."""
        out = {}
        out["finite"] = all(
            bool(np.all(np.isfinite(a)))
            for a in (self.mass, self.energy, self.dissipation,
                      self.phi_min, self.phi_max)
        )
        out["times_increasing"] = bool(np.all(np.diff(self.times) > 0))
        drift = np.abs(self.mass - self.mass[0])
        out["mass_conserved"] = bool(np.all(drift <= tol_mass))
        step_drift = np.abs(np.diff(self.mass))
        out["mass_per_step"] = bool(np.all(step_drift <= tol_mass_step))
        de = self.energy[1:] + self.dt[1:] * self.dissipation[1:] - self.energy[:-1]
        out["energy_inequality"] = bool(np.all(de <= tol_e))
        out["strict_bounds"] = bool(
            np.all(self.phi_min > -1.0) and np.all(self.phi_max < 1.0)
        )
        out["ok"] = all(out.values())
        return out


# ---------------------------------------------------------------------------
# lagged-LU Newton

# Reuse an LU while dt is within this factor of its dt: beyond, stiff modes stop contracting.
DT_WINDOW = 2.0
# A pass shrinking the residual less than this stalls: above newton_tol the next pass refactors
# (one LU then beats more chord passes), below it the step has reached its roundoff floor.
MIN_CONTRACTION = 4.0
# A chord iterate also resolves the step's increment (~ its initial residual) to this accuracy,
# since near steady state the fourth-order operator amplifies commit noise past steady_tol.
CHORD_RTOL = 1e-8
# Step-size control: after GROW_EVERY clean steps dt grows by GROW_FACTOR (up to dt_max),
# but never past the dt that puts the next energy-gate defect at GATE_SAFETY * tol_e.
GROW_FACTOR = 1.2
GROW_EVERY = 5
GATE_SAFETY = 0.8
# Newton passes per step, and damping halvings of a pass with a fresh LU.
NEWTON_MAX_ITER = 50
MAX_BACKTRACKS = 40
# The recorder keeps a snapshot in each of this many equal slots of [0, t_max]:
# twice omega_limit_estimate's default n_reps, so the trailing half holds enough for analyze.
SNAPSHOT_SLOTS = 16


def solvability_bound(M: ph.ModelConfig, grid: g.Grid) -> float:
    """The dt below which the implicit step map on grid is monotone (inf: every dt).

    The step Jacobian is I + dt R B, both factors from ``grid.local_block``:
    R = beta I - alpha L_m and B = diag(F'' + c) - gamma L_a, c the
    ``physics.linear_coefficient``.  B's diagonal is at least -kappa,
    kappa = -theta - min c; on a mode where -L has eigenvalue lam the map
    stays positive while dt (beta + alpha m lam)(kappa - gamma a lam) < 1, for
    every lam once dt (beta kappa + alpha m_max kappa^2 / (4 gamma a_min)) < 1.
    With alpha > 0 and gamma = 0 no dt does.
    """
    kappa = -M.potential.theta - float(np.min(ph.linear_coefficient(M, grid)))
    if kappa <= 0:
        return math.inf
    rate = M.beta * kappa
    if M.alpha > 0:
        if M.gamma <= 0:
            raise ValidationError(f"the implicit step map is not monotone at any dt: "
                                  f"gamma = 0 and kappa = {kappa:.3g} > 0")
        m_max = float(np.max(M.mobility(np.linspace(-1.0, 1.0, 2001))))
        rate += M.alpha * m_max * kappa ** 2 / (4.0 * M.gamma * M.diffusion.a_star)
    return 1.0 / rate


class _StepWorkspace:
    """One run's operators, frozen at the last accepted state, and its LU.

    ``freeze`` takes the evaluation of a newly accepted state and the dt
    that reached it (0: a new history): its face coefficients (scaled to
    ``w / h^2``), the explicit part of its chemical potential, whose
    -J*phi ``extrapolate`` carries to a step's new time level from the last
    two states' convolutions (no FFT; lagged before there are two), and the
    divided differences from which ``predict`` starts Newton.  ``mu_of``
    and ``rhs_of`` apply ``L_a`` and ``L_m`` matrix-free as
    ``-div(w * diff(x))``, and ``mu_of`` reads F' unchecked;
    the sparse matrices are assembled only in ``jacobian_solver``.  The LU
    outlives Newton iterations and steps: ``step`` refactors only when it stops paying.
    """

    def __init__(self, M: ph.ModelConfig, phi_field: g.Field,
                 evaluation: ph.Evaluation | None = None):
        self.M = M
        self.P = M.potential
        self.grid = phi_field.grid
        self.ops = self.grid.faces
        self.n = self.grid.n_cells
        self.solve = None
        self.dt_f = 0.0
        self.factorizations = 0
        self.linear = ph.linear_coefficient(M, self.grid)
        self.freeze(evaluation or ph.Evaluation(M, phi_field))
        self.dt_solvable = solvability_bound(M, self.grid)

    def freeze(self, ev: ph.Evaluation, dt: float = 0.0):
        """Freeze the coefficients and explicit terms at a newly accepted state,
        reached by a step of size dt (0: a state with no history)."""
        M = self.M
        inv_h2 = self.ops.inv_h2
        self.a_face = ev.a_face if M.gamma > 0 else None
        self.m_face = ev.m_face if M.alpha > 0 else None
        self.wa = None if self.a_face is None else M.gamma * self.a_face * inv_h2
        self.wm = None if self.m_face is None else M.alpha * self.m_face * inv_h2
        self.lagged = self.explicit = ev.explicit
        # J*phi's change over the step that reached this state
        self.trend = ev.conv - self.conv if M.sigma2 and dt else None
        # divided differences of the last three accepted states, for predict
        slope = (ev.phi - self.phi) / dt if dt else None
        self.curve = None if slope is None or self.slope is None else \
            (slope - self.slope) / (dt + self.dt_prev)
        self.phi, self.slope = ev.phi, slope
        self.conv, self.dt_prev = (ev.conv if M.sigma2 else None), dt

    def predict(self, dt: float) -> np.ndarray:
        """Newton's start for a step of size dt: the quadratic through the last three
        accepted states at the new time (linear through two, the state itself alone)."""
        x = self.phi if self.slope is None else self.phi + dt * self.slope
        if self.curve is not None:
            x += (dt * (dt + self.dt_prev)) * self.curve
        return x

    def extrapolate(self, dt: float):
        """Set the explicit term of a step of size dt: -J*phi extrapolated
        linearly to the new time level, or lagged while there is no history."""
        if self.trend is not None:
            self.explicit = self.lagged - (dt / self.dt_prev) * self.trend

    def mu_of(self, x: np.ndarray) -> np.ndarray:
        mu = self.P._f1(x) + self.explicit  # F' unchecked: step guards every iterate
        mu += self.linear * x
        if self.wa is not None:  # -gamma L_a x
            mu += self.ops.div(self.wa * self.ops.diff(x))
        return mu

    def rhs_of(self, mu: np.ndarray) -> np.ndarray:
        M = self.M
        if M.beta > 0:
            r = -M.beta * (mu - mu.sum() / self.n)
            if self.wm is not None:  # alpha L_m mu
                r -= self.ops.div(self.wm * self.ops.diff(mu))
            return r
        return -self.ops.div(self.wm * self.ops.diff(mu))

    def fits(self, dt: float) -> bool:
        """Whether the lagged LU may serve a solve at this dt."""
        return self.solve is not None and self.dt_f / DT_WINDOW <= dt <= self.dt_f * DT_WINDOW

    def jacobian_solver(self, x: np.ndarray, dt: float):
        """Factor the Jacobian at x and keep it as the workspace's LU.

        The sparse part is A = I + dt R B, with R = beta I - alpha L_m and
        B = diag c - gamma L_a, c = F''(x) + ``physics.linear_coefficient``:
        both factors come from ``grid.local_block`` at the frozen coefficients,
        the one place where L_a and L_m are assembled, and ``linalg.factor``
        factors it in the ordering kept for its pattern.  The mean subtraction
        adds -dt beta / n 1 c^T (L_a has zero column sums): the border
        col = -dt beta / n 1, row = c, corner = -1.
        """
        M = self.M
        c = self.P.d2F_checked(x) + self.linear
        A = g.local_block(self.grid, M.alpha, self.m_face, M.beta) \
            @ g.local_block(self.grid, M.gamma, self.a_face, c)
        A.data *= dt
        A.setdiag(A.diagonal() + 1.0)
        lu = linalg.factor(spla.splu, A)
        solve = lu.solve
        if M.beta > 0:
            border = linalg.bordered_solver(lu, np.full(self.n, -dt * M.beta / self.n), c, -1.0)
            solve = lambda b: border(b)[0]
        self.solve = solve
        self.dt_f = dt
        self.factorizations += 1
        return solve


def step(M: ph.ModelConfig, s: State, dt: float, cfg: StepperConfig,
         _workspace: _StepWorkspace | None = None) -> State:
    """One semi-implicit step; raises NewtonDivergenceError / BoundsViolationError.

    Newton with a lagged Jacobian, started from ``ws.predict(dt)`` (from phi
    without a workspace); the commit phi + dt rhs(x) and the gate read only
    the converged x.  A pass stalls if it shrinks the residual less than
    MIN_CONTRACTION-fold (a failed pass: not at all).  Refactor: a pass
    factors at its iterate when no LU ``fits`` dt or the previous pass
    backtracked or stalled above newton_tol.  Stop: after at least one pass,
    at min(0.01 newton_tol, CHORD_RTOL r0), r0 = max(|resid(x0)|, |x0 - phi|)
    the size of the step's increment, or at a stalled pass below newton_tol
    (the roundoff floor, which flags no refactor).  ``newton_iters`` counts
    every pass, a failed chord pass included.
    """
    grid = s.phi.grid
    phi = s.phi.data
    limit = 1.0 - M.potential.eps_guard
    sqrt_vol = math.sqrt(grid.cell_volume)
    ws = _workspace if _workspace is not None else _StepWorkspace(M, s.phi)
    ws.extrapolate(dt)

    x = ws.predict(dt).clip(-limit, limit)
    rhs = ws.rhs_of(ws.mu_of(x))
    inc = x - phi
    resid = inc - dt * rhs
    rnorm = math.sqrt(np.dot(resid, resid)) * sqrt_vol
    r0 = max(rnorm, math.sqrt(np.dot(inc, inc)) * sqrt_vol)  # the increment's size
    lam, stalled = 1.0, False  # the last pass's damping, and whether it stalled
    for iters in range(NEWTON_MAX_ITER + 1):
        # at least one implicit pass: committing phi + dt rhs(x0) unsolved
        # would be an explicit step of the stiff operator
        if iters and rnorm <= cfg.newton_tol and (
                rnorm <= min(0.01 * cfg.newton_tol, CHORD_RTOL * r0) or stalled
                or iters == NEWTON_MAX_ITER):
            break
        if iters == NEWTON_MAX_ITER:
            raise NewtonDivergenceError(
                f"no convergence in {NEWTON_MAX_ITER} iterations",
                iterations=iters, residual=rnorm,
            )
        fresh = lam < 1.0 or stalled or not ws.fits(dt)
        delta = (ws.jacobian_solver(x, dt) if fresh else ws.solve)(-resid)
        lam, r_prev = 1.0, rnorm
        for _ in range(MAX_BACKTRACKS if fresh else 1):
            xn = x + lam * delta
            if np.abs(xn).max() < limit:
                rhs_n = ws.rhs_of(ws.mu_of(xn))
                resid_n = xn - phi - dt * rhs_n
                rn = math.sqrt(np.dot(resid_n, resid_n)) * sqrt_vol
                if rn <= cfg.newton_tol or rn < r_prev * (1.0 - 1e-4 * lam):
                    x, rhs, resid, rnorm = xn, rhs_n, resid_n, rn
                    break
            lam *= 0.5
        else:  # no decrease, so the pass stalls; with a fresh LU above newton_tol, Newton fails
            if fresh and rnorm > cfg.newton_tol:
                raise NewtonDivergenceError(
                    "damping exhausted (iterate pinned at the singular barrier)",
                    iterations=iters, residual=rnorm,
                )
        stalled = rnorm * MIN_CONTRACTION > r_prev

    phi_new = phi + dt * rhs  # mass-exact commit: mean(rhs) telescopes to 0
    if not np.abs(phi_new).max() < limit:  # NaN counts as a violation
        raise BoundsViolationError("post-solve values hit the guard band; reduce dt")
    return State(g.Field(grid, phi_new), s.t + dt, newton_iters=iters)


class _Recorder:
    """One ``DIAGNOSTICS`` row per accepted state, plus the sampled snapshots.

    Besides the states ``run`` asks for, a state that leaves a slot
    [k, k + 1) * t_max / SNAPSHOT_SLOTS holding no snapshot has its
    predecessor, the slot's last state, snapshotted: a floor in time.
    """

    def __init__(self, t_max: float):
        self.rows = {attr: [] for attr in DIAGNOSTICS}
        self.snapshots = []
        self.slots_per_t = SNAPSHOT_SLOTS / t_max if t_max > 0 else 0.0
        self.covered = -1  # the slot of the last snapshot
        self.prev = None

    def snapshot(self, state: State):
        self.snapshots.append((state.t, state.phi.copy()))
        self.covered = int(state.t * self.slots_per_t)

    def sample(self, state: State, dt: float, snapshot: bool, ev: ph.Evaluation):
        phi = state.phi
        lo, hi = float(phi.data.min()), float(phi.data.max())
        values = {
            "times": state.t,
            "mass": phi.mean(),
            "energy": ev.energy,
            "dissipation": ev.dissipation,
            "grad_mu_l2": ev.grad_mu_l2,
            "mu_fluct_l2": ev.mu_fluct_l2,
            "phi_min": lo,
            "phi_max": hi,
            "sep_margin": 1.0 - max(-lo, hi),
            "dt": dt,
            "newton_iters": state.newton_iters,
        }
        for attr, row in self.rows.items():
            row.append(values[attr])
        prev = self.prev
        if prev is not None and \
                self.covered < int(prev.t * self.slots_per_t) < int(state.t * self.slots_per_t):
            self.snapshot(prev)
        if snapshot:
            self.snapshot(state)
        self.prev = state


def run(M: ph.ModelConfig, phi0: g.Field, t_max: float, cfg: StepperConfig | None = None,
        provenance: dict | None = None) -> Trajectory:
    """Adaptive integration to t_max (or steady state), fully diagnosed.

    Steps failing Newton, the pointwise guard, or the one-step energy
    inequality are rejected and retried with dt/2; after GROW_EVERY clean
    steps dt grows by GROW_FACTOR up to dt_max; dt_init and dt_max are capped
    at ``solvability_bound``.  An accepted step's gate defect d, O(dt^2) where
    the gate binds, caps the next dt at dt sqrt(GATE_SAFETY tol_e / d) (a cap
    below dt restarts the clean count); ``provenance["gate_limited"]`` counts
    the accepted steps whose next dt the cap lowered.  Once dt settles at
    dt_max, an LU factored off it is dropped, so one LU serves the plateau.
    Raises StepFloorError (with the partial trajectory attached) if dt_min is
    reached while still failing.
    """
    cfg = cfg or StepperConfig()
    if np.max(np.abs(phi0.data)) > 1.0:
        raise ValueError("initial data must satisfy |phi0| <= 1")
    if abs(phi0.mean()) >= 1.0:
        raise ValueError("initial mean must lie in (-1, 1)")
    eps = M.potential.eps_guard
    start = phi0.copy()
    np.clip(start.data, -(1.0 - eps), 1.0 - eps, out=start.data)

    prov = {**model_provenance(M), **(provenance or {})}

    rec = _Recorder(t_max)
    state = State(start, 0.0)
    ev = ph.Evaluation(M, start)
    rec.sample(state, 0.0, True, ev)
    e_prev = ev.energy

    t0 = _time.perf_counter()
    ws = _StepWorkspace(M, start, ev)
    dt_max = min(cfg.dt_max, ws.dt_solvable)
    dt = min(cfg.dt_init, dt_max)
    clean = 0
    accepted = 0
    gate_limited = 0  # accepted steps whose next dt the gate defect lowered
    rejected = {"newton": 0, "bounds": 0, "energy": 0}
    dwell = 0
    stop_reason = "t_max"

    def finish(reason: str, complete: bool) -> Trajectory:
        out = dict(prov, accepted=accepted, rejected=dict(rejected),
                   factorizations=ws.factorizations, gate_limited=gate_limited,
                   wall_time_s=_time.perf_counter() - t0, stop_reason=reason)
        return Trajectory.from_series(phi0.grid, rec.rows, snapshots=rec.snapshots,
                                      provenance=out, model=M, complete=complete)

    while state.t < t_max - 1e-14 * max(1.0, t_max):
        dt_step = min(dt, t_max - state.t)
        kind = cause = None
        try:
            new_state = step(M, state, dt_step, cfg, _workspace=ws)
        except (NewtonDivergenceError, BoundsViolationError) as exc:
            kind, cause = ("newton" if isinstance(exc, NewtonDivergenceError) else "bounds"), exc
        else:
            ev = ph.Evaluation(M, new_state.phi)
            # written so that a NaN energy or dissipation fails the gate
            if not ev.energy + dt_step * ev.dissipation <= e_prev + cfg.tol_e:
                kind = "energy"
        if kind:
            rejected[kind] += 1
            clean = 0
            dt *= 0.5
            if dt < cfg.dt_min:
                raise StepFloorError(f"dt fell below dt_min after {kind} failures",
                                     finish("step_floor", False)) from cause
            continue

        defect = ev.energy + dt_step * ev.dissipation - e_prev
        state = new_state
        e_prev = ev.energy
        ws.freeze(ev, dt_step)
        accepted += 1
        rec.sample(state, dt_step, accepted % cfg.snapshot_every == 0, ev)

        clean += 1
        grow = GROW_FACTOR if clean >= GROW_EVERY else 1.0
        pred = math.sqrt(GATE_SAFETY * cfg.tol_e / defect) if defect > 0 else math.inf
        dt_next = min(dt * min(grow, pred), dt_max)
        gate_limited += dt_next < min(dt * grow, dt_max)
        dt = dt_next
        if grow > 1 or pred < 1:
            clean = 0
        if dt == dt_max != ws.dt_f:  # the next step refactors at the plateau's dt
            ws.solve = None

        dissnorm = ev.grad_mu_l2 if M.dissipation_norm == "grad_mu" else ev.mu_fluct_l2
        if dissnorm < cfg.steady_tol:
            dwell += 1
            if dwell >= cfg.steady_dwell:
                stop_reason = "steady"
                break
        else:
            dwell = 0

    if not rec.snapshots or rec.snapshots[-1][0] < state.t:
        rec.snapshot(state)
    return finish(stop_reason, True)
