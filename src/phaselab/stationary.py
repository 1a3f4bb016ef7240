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
supplies the residual and the diffusion coefficient frozen for the next
Jacobian, and in psi it takes psi as F'(phi).  A step backtracks at most
``MAX_BACKTRACKS`` halvings.  The bordered Jacobian is never formed densely:
its local part (the potential diagonal, the frozen-coefficient diffusion
stencil and the border) is a sparse matrix factored by SuperLU; a
convolution kernel adds a part that is applied by FFT, and GMRES
preconditioned by the local LU solves the full system.  Stationary states are
generally non-unique; which one is found depends on the initial guess, so
seeds are first-class inputs and get recorded with the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import grid as g
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
    model: ph.ModelConfig | None = None

    def sidecar(self) -> dict:
        return {
            "mu_inf": self.mu_inf,
            "residual": self.residual_l2,
            "delta": self.delta,
            "k": self.k,
            "seed_id": self.seed_id,
        }


@dataclass
class SeparationReport:
    delta: float
    grad_norm: float | None = None
    grad_bound: float | None = None
    bound_ok: bool | None = None


def stationary_residual(M: ph.ModelConfig, phi: g.Field, mu_c: float) -> g.Field:
    """mu(phi) - mu_c; identically zero exactly at a stationary state."""
    mu = ph.chemical_potential(M, phi)
    return g.Field(phi.grid, mu.data - mu_c)


# GMRES settings of the bordered solve with a kernel part.  The nonlinear
# residual decides convergence; these only make each step an exact Newton step.
GMRES_RTOL = 1e-13      # at roundoff level, so Newton iteration counts match an exact solve
GMRES_RESTART = 100     # the LU-preconditioned kernel operator converges well within one cycle
GMRES_MAXITER = 20      # restart cycles; more means the linear solve is failing, not slow

# Step halvings per Newton step before the damping gives up.
MAX_BACKTRACKS = 60


class _BorderedJacobian:
    """Bordered stationary Jacobian [[diag(d) + S, -1], [r, 0]] (- kernel part).

    The sparse local part lives on a CSC pattern built once from ``S``; each
    solve writes only the diagonal and the border row into ``.data``, and
    ``set_local`` only the values of an ``S`` with the same pattern, because
    rebuilding the pattern costs more than a 1D factorization.  Without a
    kernel the local part is the whole Jacobian and its LU solves directly.
    With one, the Jacobian gains ``-K (t * v)`` in its first n rows and GMRES
    solves with that LU as preconditioner, applying K by FFT.
    """

    def __init__(self, S: sp.spmatrix):
        n = S.shape[0]
        A = sp.bmat([[S, np.full((n, 1), -1.0)], [np.ones((1, n)), None]], format="csc")
        A.sort_indices()
        col = np.repeat(np.arange(n + 1), np.diff(A.indptr))
        border = A.indices == n
        self._diag = np.flatnonzero(A.indices == col)
        self._border = np.flatnonzero(border)
        self._local = np.flatnonzero(~border & (col < n))     # S's entries in CSC order
        self._base = A.data[self._diag].copy()
        self.A = A

    def set_local(self, S: sp.spmatrix):
        self.A.data[self._local] = S.tocsc().data
        self._base = self.A.data[self._diag].copy()

    def solve(self, d, r, rhs, K, t, iters: int, rnorm: float) -> np.ndarray:
        A = self.A
        n = A.shape[0] - 1
        A.data[self._diag] = self._base + d
        A.data[self._border] = r
        try:
            lu = spla.splu(A, **g.SPLU_ORDERING)
        except RuntimeError as exc:
            raise NewtonDivergenceError("singular stationary Jacobian",
                                        iterations=iters, residual=rnorm) from exc
        if K is None:
            return lu.solve(rhs)

        def matvec(v):
            out = A @ v
            out[:n] -= K.apply_values(t * v[:n])
            return out

        op = spla.LinearOperator(A.shape, matvec=matvec)
        pre = spla.LinearOperator(A.shape, matvec=lu.solve)
        x, info = spla.gmres(op, rhs, rtol=GMRES_RTOL, atol=0.0, restart=GMRES_RESTART,
                             maxiter=GMRES_MAXITER, M=pre)
        if info != 0:
            raise NewtonDivergenceError("stationary GMRES did not converge",
                                        iterations=iters, residual=rnorm)
        return x


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
    shift = -P.theta0 * M.sigma1
    if K is not None and M.nonlocal_consistency:
        shift = shift + K.row_sums
    entropy = M.gamma == 0

    def evaluate(z):
        """The state of unknown z, or None where z leaves the guard band."""
        if entropy:
            return ph.Evaluation(M, g.Field(grid, P.inverse_dF(z)), dF=z)
        return ph.Evaluation(M, g.Field(grid, z)) if np.max(np.abs(z)) < limit else None

    def residual(ev, mu_c):
        res = np.append(ev.mu - mu_c, float(ev.phi.mean()) - k)
        return res, float(np.sqrt(np.dot(res[:n], res[:n]) * grid.cell_volume
                                  + res[n] * res[n]))

    z = (np.asarray(P.dF(np.clip(guess.data, -limit, limit))) if entropy
         else np.clip(guess.data, -limit + eps, limit - eps))
    jac = _BorderedJacobian(sp.identity(n, format="csc")) if entropy else None
    ev = evaluate(z)
    mu_c = float(ev.mu.mean())
    res, rnorm = residual(ev, mu_c)
    for iters in range(1, max_iter + 1):
        if rnorm <= tol and abs(res[n]) <= 1e-12:
            break
        # the diffusion coefficient is frozen at the iterate and its a'
        # gradient-square derivative dropped, trading quadratic convergence
        # for robustness
        if jac is None or not (entropy or M.diffusion.is_constant):
            S = -M.gamma * g.weighted_laplacian_matrix(grid, ev.a_face)
            if jac is None:
                jac = _BorderedJacobian(S)
            else:
                jac.set_local(S)
        d2 = P.d2F_checked(ev.phi)
        # t = dphi/dz scales the columns and the border row; in psi the
        # local part's identity stands for the potential diagonal F'' t = 1
        t = 1.0 / d2 if entropy else 1.0
        d = shift * t if entropy else d2 + shift
        step = jac.solve(d, t / n, -res, K, t, iters, rnorm)
        lam = 1.0
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
                            seed_id=seed_id, iterations=iters, model=M)


def separation_bound(e: EquilibriumState, full: bool = False):
    """Separation margin of a converged state.

    For the nonlocal model additionally checks the kernel gradient bound
    |grad phi_inf|_{L2} <= |grad J|_{L1} / theta and reports both sides when
    ``full`` is requested.
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
