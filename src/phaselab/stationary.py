"""Stationary states: mu(phi_inf) = mu_inf constant, at prescribed mean.

All three model presets share the same stationary form, so the residual is
simply the chemical potential minus an unknown constant multiplier.  One
damped bordered Newton solves for an unknown z and mu_inf,

    [ d(mu)/d(phi) diag(t)   -1 ] [ d_z      ]   [ mu(phi) - mu_inf ]
    [ mean-row diag(t)        0 ] [ d_mu_inf ] = [ mean(phi) - k    ]

with z = phi and t = 1 when gamma > 0 (backtracking keeps phi inside the
guard band), and z = psi = F'(phi), phi = (F')^{-1}(psi), t = 1/F''(phi)
when gamma = 0 (every psi maps strictly inside (-1, 1), so the barrier never
throttles the step).  Each trial state gets one ``physics.Evaluation``; it
supplies the residual and the diffusion terms of the next Jacobian, and in
psi it takes psi as F'(phi).  A step backtracks at most
``MAX_BACKTRACKS`` halvings.  The bordered Jacobian is never formed densely:
in phi SuperLU factors only its n x n local block B (``linalg.factor``), in
psi B is diagonal and is solved by division, ``linalg.bordered_solver``
eliminates the border, and a kernel part, applied by FFT, leaves the full
system to ``linalg.gmres``, preconditioned by that bordered block solve.
GMRES solves Newton step k only to the Eisenstat-Walker forcing term eta_k
(``ETA_MAX`` at the first step, then 0.9 times the squared ratio of the last
two nonlinear residuals, kept between the floor ``GMRES_RTOL`` and the cap
``ETA_MAX``): inexact early steps, fast convergence near the solution.
Without a kernel each step is the direct bordered solve.  With c the
``physics.linear_coefficient``, B is in phi ``grid.local_block`` with the
diagonal F'' + c, the exact Jacobian of mu (the stencil of a plus
``Evaluation.a_hessian``) on the grid's fixed pattern, and in psi (gamma = 0)
the diagonal 1 + c t, an array applied elementwise.  A singular local block
(in psi, a zero or non-finite diagonal entry) fails the step even where the
bordered matrix is regular.  Stationary states are generally non-unique;
which one is found depends on the initial guess, so seeds are first-class
inputs and get recorded with the result.
"""

from __future__ import annotations

import types
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from . import grid as g
from . import linalg
from . import physics as ph
from .errors import NewtonDivergenceError, SeparationFailureError


@dataclass
class EquilibriumState:
    phi_inf: g.Field
    mu_inf: float
    residual_l2: float
    delta: float            # separation margin 1 - max|phi_inf|
    k: float                # prescribed mean
    seed_id: str = ""
    iterations: int = 0
    linear_iterations: int = 0  # GMRES iterations over all Newton steps; 0 without a kernel
    model: ph.ModelConfig | None = None

    def sidecar(self) -> dict:
        return {
            "mu_inf": self.mu_inf,
            "residual": self.residual_l2,
            "delta": self.delta,
            "k": self.k,
            "seed_id": self.seed_id,
            "iterations": self.iterations,
            "linear_iterations": self.linear_iterations,
        }


@dataclass
class SeparationReport:
    delta: float
    grad_norm: float | None = None
    grad_bound: float | None = None
    bound_ok: bool | None = None


# GMRES settings of the bordered solve with a kernel part.  The nonlinear
# residual decides convergence; GMRES only has to keep each step a Newton step.
# Step k solves to the Eisenstat-Walker (1996) "choice 2" forcing term
# eta_k = min(ETA_MAX, max(GMRES_RTOL, 0.9 (r_k / r_{k-1})^2)), eta_0 = ETA_MAX.
ETA_MAX = 1e-4          # caps above 1e-2 exhaust the damping on the psi kernel cases
GMRES_RTOL = 1e-13      # floor of eta: the linear residual stays above roundoff
GMRES_RESTART = 100     # the LU-preconditioned kernel operator converges well within one cycle
GMRES_MAXITER = 20      # restart cycles; more means the linear solve is failing, not slow

# Step halvings per Newton step before the damping gives up.
MAX_BACKTRACKS = 60


def _newton_step(B, r, rhs, K, t, rtol):
    """The step of the bordered Jacobian [[B - K diag(t), -1], [r, 0]] for
    right-hand side ``rhs``, and its GMRES iteration count; with a kernel K
    the step solves to relative residual ``rtol``, without one it is exact.
    B is a sparse matrix, or the 1-D array of its diagonal (psi form)."""
    n = B.shape[0]
    if B.ndim == 1:  # diagonal: divide, and apply elementwise
        if not np.all(np.isfinite(B) & (B != 0.0)):
            raise NewtonDivergenceError("singular stationary Jacobian")
        lu, local = types.SimpleNamespace(solve=lambda b: b / B), lambda x: B * x
    else:
        try:
            lu = linalg.factor(spla.splu, B)
        except RuntimeError as exc:
            raise NewtonDivergenceError("singular stationary Jacobian") from exc
        local = lambda x: B @ x
    border = linalg.bordered_solver(lu, np.full(n, -1.0), r, 0.0)

    def bordered(v):
        return np.append(*border(v[:n], v[n]))

    if K is None:
        return bordered(rhs), 0

    def matvec(v):
        x = v[:n]
        return np.concatenate((local(x) - v[n] - K.apply_values(t * x), [(r * x).sum()]))

    x, its, ok = linalg.gmres(matvec, bordered, rhs, rtol, GMRES_RESTART, GMRES_MAXITER)
    if not ok:
        reached = np.linalg.norm(rhs - matvec(x)) / np.linalg.norm(rhs)
        raise NewtonDivergenceError(
            f"stationary GMRES did not converge: the Newton Jacobian is ill-conditioned at "
            f"this iterate (relative residual {reached:.3g} against eta = {rtol:g})")
    return x, its


def solve_equilibrium(M: ph.ModelConfig, k: float, guess: g.Field,
                      tol: float = 1e-12, max_iter: int = 80,
                      seed_id: str = "") -> EquilibriumState:
    """Damped bordered Newton for (phi_inf, mu_inf) with mean(phi_inf) = k,
    over phi when gamma > 0 and over psi = F'(phi) when gamma = 0."""
    if abs(k) >= 1.0:
        raise ValueError("prescribed mean must lie in (-1, 1)")
    grid = guess.grid
    n = grid.n_cells
    P = M.potential
    eps = P.eps_guard
    limit = 1.0 - eps
    K = M.kernel.matrix(grid) if M.sigma2 else None
    coef = ph.linear_coefficient(M, grid)
    entropy = M.gamma == 0

    def evaluate(z):
        """The state of unknown z, or None where z leaves the guard band."""
        if entropy:
            return ph.Evaluation(M, g.Field(grid, P.inverse_dF(z)), dF=z)
        return ph.Evaluation(M, g.Field(grid, z)) if np.abs(z).max() < limit else None

    def residual(ev, mu_c):
        res = np.append(ev.mu - mu_c, float(ev.phi.mean()) - k)
        return res, float(np.sqrt(np.dot(res[:n], res[:n]) * grid.cell_volume
                                  + res[n] * res[n]))

    z = (np.asarray(P.dF(np.clip(guess.data, -limit, limit))) if entropy
         else np.clip(guess.data, -limit + eps, limit - eps))
    ev = evaluate(z)
    mu_c = float(ev.mu.mean())
    res, rnorm = residual(ev, mu_c)
    linear, eta = 0, ETA_MAX
    for iters in range(1, max_iter + 1):
        if rnorm <= tol and abs(res[n]) <= 1e-12:
            break
        d2 = P.d2F_checked(ev.phi)
        # t = dphi/dz scales the columns and the border row; in psi (gamma = 0)
        # F'' t is 1 and B is the array of its diagonal.  In phi B is the exact
        # Jacobian of mu: the stencil of a at the iterate plus the a' and a''
        # face terms of the gradient energy's Hessian, so Newton converges
        # quadratically
        t = 1.0 / d2 if entropy else 1.0
        B = 1.0 + coef * t if entropy else \
            g.local_block(grid, M.gamma, ev.a_face, d2 + coef, ev.a_hessian)
        try:
            step, its = _newton_step(B, t / n, -res, K, t, eta)
        except NewtonDivergenceError as exc:
            exc.iterations, exc.residual = iters, rnorm
            raise
        linear += its
        lam, r_old = 1.0, rnorm
        for _ in range(MAX_BACKTRACKS):
            z_n, mu_n = z + lam * step[:n], mu_c + lam * step[n]
            trial = evaluate(z_n)
            if trial is not None:
                res_n, rnorm_n = residual(trial, mu_n)
                if rnorm_n <= tol or rnorm_n < rnorm * (1.0 - 1e-4 * lam):
                    z, ev, mu_c, res, rnorm = z_n, trial, mu_n, res_n, rnorm_n
                    break
            lam *= 0.5
        else:
            raise NewtonDivergenceError("stationary damping exhausted",
                                        iterations=iters, residual=rnorm)
        eta = min(ETA_MAX, max(GMRES_RTOL, 0.9 * (rnorm / r_old) ** 2))
    else:
        raise NewtonDivergenceError(
            f"stationary solve did not converge in {max_iter} iterations",
            iterations=max_iter, residual=rnorm,
        )

    phi_inf = g.Field(grid, np.clip(ev.phi, -limit, limit))
    delta = 1.0 - float(np.max(np.abs(phi_inf.data)))
    if delta <= 0:
        raise SeparationFailureError(
            "converged state touches the pure phases; this should be impossible"
        )
    res_l2 = float(np.linalg.norm(res[:n])) * np.sqrt(grid.cell_volume)
    return EquilibriumState(phi_inf, mu_c, res_l2, delta, k,
                            seed_id=seed_id, iterations=iters, linear_iterations=linear,
                            model=M)


def separation_bound(e: EquilibriumState, full: bool = False):
    """Separation margin of a converged state.

    For the nonlocal model additionally checks the kernel gradient bound
    |grad phi_inf|_{L2} <= |grad J|_{L1} / theta and reports both sides when
    ``full`` is requested.  The bound follows from F'' >= theta for the
    stationary form F'(phi) - J*phi = const; mu also carries the kernel row
    sums (and -theta0 phi when sigma1 = 1), so here it is an empirical check.
    """
    delta = 1.0 - float(np.max(np.abs(e.phi_inf.data)))
    report = SeparationReport(delta=delta)
    M = e.model
    if M is not None and M.sigma2:
        grad_norm = g.norm_h1_semi(e.phi_inf)
        bound = M.kernel.grad_l1(e.phi_inf.grid) / M.potential.theta
        report.grad_norm = grad_norm
        report.grad_bound = bound
        report.bound_ok = bool(grad_norm <= bound)
    return report if full else delta


def bulk_root(potential, tol: float = 1e-13) -> float:
    """Positive root of f'(s) = F'(s) - theta0 s (the coexistence bulk value).

    Layer profiles plateau near +-this value; seeding there keeps Newton off
    the long valley between the mixed state and the singular barrier.
    """
    def fprime(s):  # F' unchecked: the bracket lies inside the guard band
        return potential._f1(s) - potential.theta0 * s

    hi = 1.0 - max(potential.eps_guard, 1e-13)
    if fprime(hi) <= 0:
        return 0.9
    return float(ph.bisect(fprime, 1e-9, hi, xtol=tol))


# The seed kinds of equilibrium_seeds: "tanh" names both layer profiles.
SEED_KINDS = ("constant", "tanh")


def equilibrium_seeds(grid: g.Grid, k: float, kinds=SEED_KINDS,
                      amplitude: float | None = None, width: float | None = None,
                      potential=None) -> list:
    """Library of initial guesses: constants and interface-layer profiles.

    Every returned pair is (seed_id, guess).  The guess is an admissible Field
    with mean exactly k or, for a layer profile that cannot be placed at this
    k, a str saying why it was skipped.  With a potential supplied, layer
    plateaus sit just inside the coexistence bulk values; the default layer
    width is a few cells so thin-interface equilibria are reachable.
    """
    seeds = []
    if "constant" in kinds:
        seeds.append(("constant", g.Field.constant(grid, k)))
    if "tanh" in kinds:
        if amplitude is None:
            amplitude = 0.999 * bulk_root(potential) if potential is not None else 0.9
        amplitude = min(amplitude, 0.999)
        xs = grid.cell_centers()[0].ravel()
        L = grid.lengths[0]
        w = width if width is not None else 3.0 * grid.spacing[0]
        at = f"k = {k:g}, amplitude = {amplitude:g}"
        for sign, name in ((+1.0, "tanh_mid"), (-1.0, "tanh_flip")):
            if abs(k) >= 0.9 * amplitude:
                seeds.append((name, f"{at}: |k| >= 0.9 * amplitude leaves no room for a layer"))
                continue
            # place the interface so the discrete mean hits k exactly
            x0 = 0.5 * L * (1.0 - sign * k / amplitude)
            for _ in range(60):
                prof = sign * amplitude * np.tanh((xs - x0) / w)
                err = prof.mean() - k
                if abs(err) < 1e-15:
                    break
                x0 += sign * err * L / (2.0 * amplitude)
                x0 = float(np.clip(x0, w, L - w))
            prof = sign * amplitude * np.tanh((xs - x0) / w)
            prof += k - prof.mean()  # residual shift far below the margin
            peak = float(np.max(np.abs(prof)))
            seeds.append((name, g.Field(grid, prof) if peak < 1.0 else
                          f"{at}: the layer reaches |phi| = {peak:g} >= 1"))
    return seeds
