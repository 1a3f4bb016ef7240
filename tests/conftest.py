"""Shared fixtures: synthetic-trajectory builder and the session run suite.

The long physical runs are session-scoped so each happens once and every
criterion that needs it reuses the cached result.
"""

from typing import NamedTuple

import numpy as np
import pytest
import scipy.sparse as sp

from phaselab import (
    DiffusionSpec,
    Field,
    Grid,
    KernelSpec,
    MobilitySpec,
    PotentialSpec,
    StepperConfig,
    cahn_hilliard,
    conserved_allen_cahn,
    nonlocal_cahn_hilliard,
    run,
)
from phaselab.dynamics import Trajectory
from phaselab.errors import GridMismatchError
from phaselab.grid import weighted_laplacian_matrix


def make_synthetic_trajectory(times, *, grid=None, grad_mu=None, mu_fluct=None,
                              energy=None, dissipation=None, snapshots=None,
                              sep_margin=None, e0=None, m_star=1.0,
                              norm_kind="grad_mu", model=None):
    """Assemble a Trajectory from explicit series (for analysis-layer tests)."""
    times = np.asarray(times, dtype=float)
    n = times.size
    grid = grid or Grid((8,), (1.0,))
    dt = np.concatenate([[0.0], np.diff(times)])
    zeros = np.zeros(n)
    grad_mu = zeros if grad_mu is None else np.asarray(grad_mu, dtype=float)
    mu_fluct = zeros if mu_fluct is None else np.asarray(mu_fluct, dtype=float)
    energy = zeros if energy is None else np.asarray(energy, dtype=float)
    if e0 is not None:
        energy = energy.copy()
        energy[0] = e0
    dissipation = zeros if dissipation is None else np.asarray(dissipation, dtype=float)
    sep = np.ones(n) if sep_margin is None else np.asarray(sep_margin, dtype=float)
    if snapshots is None:
        snapshots = [(times[0], Field.constant(grid, 0.0)),
                     (times[-1], Field.constant(grid, 0.0))]
    return Trajectory(
        grid=grid,
        times=times,
        mass=np.zeros(n),
        energy=energy,
        dissipation=dissipation,
        grad_mu_l2=grad_mu,
        mu_fluct_l2=mu_fluct,
        phi_min=-(1.0 - sep),
        phi_max=(1.0 - sep),
        sep_margin=sep,
        dt=dt,
        newton_iters=np.zeros(n, dtype=int),
        snapshots=list(snapshots),
        provenance={"dissipation_norm": norm_kind, "m_star": m_star},
        model=model,
        complete=True,
    )


def dense_kernel(K) -> np.ndarray:
    """Dense ``K[i][j] = stencil[x_i - x_j]`` of a KernelMatrix (test oracle)."""
    shape = K.grid.shape
    if K.grid.dim == 1:
        i = np.arange(shape[0])
        return K.stencil[i[:, None] - i[None, :] + (shape[0] - 1)]
    nx, ny = shape
    ix, iy = np.divmod(np.arange(nx * ny), ny)
    dx = ix[:, None] - ix[None, :] + (nx - 1)
    dy = iy[:, None] - iy[None, :] + (ny - 1)
    return K.stencil[dx, dy]


# ---------------------------------------------------------------------------
# slice-based discrete operators on per-axis face arrays: oracles for the
# library's face-difference operator (grid.faces)


class FaceField(NamedTuple):
    """Per-axis face values: axis a has shape[a]+1 entries along axis a
    (entries 0 and n are the boundary faces; under periodic wrap they hold
    the same physical face twice)."""

    grid: Grid
    components: tuple


def flat_faces(face_field: FaceField) -> np.ndarray:
    """A FaceField's values on the physical faces, in ``grid.faces`` order:
    per axis its interior faces, then under periodic wrap its wrap face
    (read at entry 0)."""
    grid, out = face_field.grid, []
    for a, (n, comp) in enumerate(zip(grid.shape, face_field.components)):
        along = (slice(None),) * a
        out.append(comp[along + (slice(1, n),)].ravel())
        if grid.bc == "periodic":
            out.append(comp[along + (slice(0, 1),)].ravel())
    return np.concatenate(out)


def gradient(phi: Field) -> FaceField:
    """Face-centered differences of a cell field (slice-based oracle).

    Interior face k between cells k-1 and k holds (phi[k]-phi[k-1])/h.
    Boundary faces are zero for Neumann and wrap for periodic grids.
    """
    grid = phi.grid
    u = phi.data.reshape(grid.shape)
    comps = []
    for a, (n, h) in enumerate(zip(grid.shape, grid.spacing)):
        shape = tuple(n + 1 if a == b else m for b, m in enumerate(grid.shape))
        g = np.zeros(shape)
        interior = [slice(None)] * grid.dim
        interior[a] = slice(1, n)
        lo = [slice(None)] * grid.dim
        lo[a] = slice(0, n - 1)
        hi = [slice(None)] * grid.dim
        hi[a] = slice(1, n)
        g[tuple(interior)] = (u[tuple(hi)] - u[tuple(lo)]) / h
        if grid.bc == "periodic":
            first = [slice(None)] * grid.dim
            first[a] = 0
            last = [slice(None)] * grid.dim
            last[a] = n
            edge_lo = [slice(None)] * grid.dim
            edge_lo[a] = n - 1
            edge_hi = [slice(None)] * grid.dim
            edge_hi[a] = 0
            wrap = (u[tuple(edge_hi)] - u[tuple(edge_lo)]) / h
            g[tuple(first)] = wrap
            g[tuple(last)] = wrap
        comps.append(g)
    return FaceField(grid, tuple(comps))


def face_average(phi: Field, mode: str = "arithmetic") -> FaceField:
    """Interpolate cell values to faces, arithmetic or harmonic (oracle).

    Boundary faces copy the adjacent cell value under Neumann (the flux there
    is zero regardless) and wrap-average under periodic boundaries.
    """
    grid = phi.grid
    u = phi.data.reshape(grid.shape)
    comps = []
    for a, n in enumerate(grid.shape):
        shape = tuple(n + 1 if a == b else m for b, m in enumerate(grid.shape))
        w = np.zeros(shape)
        interior = [slice(None)] * grid.dim
        interior[a] = slice(1, n)
        lo = [slice(None)] * grid.dim
        lo[a] = slice(0, n - 1)
        hi = [slice(None)] * grid.dim
        hi[a] = slice(1, n)
        ul, uh = u[tuple(lo)], u[tuple(hi)]
        if mode == "arithmetic":
            w[tuple(interior)] = 0.5 * (ul + uh)
        elif mode == "harmonic":
            w[tuple(interior)] = 2.0 * ul * uh / (ul + uh)
        else:
            raise ValueError(f"unknown face averaging mode {mode!r}")
        first = [slice(None)] * grid.dim
        first[a] = 0
        last = [slice(None)] * grid.dim
        last[a] = n
        cell_lo = [slice(None)] * grid.dim
        cell_lo[a] = 0
        cell_hi = [slice(None)] * grid.dim
        cell_hi[a] = n - 1
        if grid.bc == "periodic":
            u0, u1 = u[tuple(cell_hi)], u[tuple(cell_lo)]
            wrap = 0.5 * (u0 + u1) if mode == "arithmetic" else 2.0 * u0 * u1 / (u0 + u1)
            w[tuple(first)] = wrap
            w[tuple(last)] = wrap
        else:
            w[tuple(first)] = u[tuple(cell_lo)]
            w[tuple(last)] = u[tuple(cell_hi)]
        comps.append(w)
    return FaceField(grid, tuple(comps))


def weighted_div_grad(phi: Field, face_weights: FaceField) -> Field:
    """div(w grad(phi)), slice by slice; zero-flux or wrap at boundaries (oracle).

    The flux telescopes, so the cell-volume-weighted sum of the result is zero
    to roundoff in both boundary modes.
    """
    grid = phi.grid
    if face_weights.grid != grid:
        raise GridMismatchError("operands live on different grids")
    g = gradient(phi)
    out = np.zeros(grid.shape)
    for a, h in enumerate(grid.spacing):
        flux = face_weights.components[a] * g.components[a]
        lo = [slice(None)] * grid.dim
        lo[a] = slice(0, grid.shape[a])
        hi = [slice(None)] * grid.dim
        hi[a] = slice(1, grid.shape[a] + 1)
        out += (flux[tuple(hi)] - flux[tuple(lo)]) / h
    return Field(grid, out.ravel())


def face_sum(grid: Grid, face_values: FaceField) -> float:
    """Sum face values times face volume, counting each physical face once."""
    total = 0.0
    vol = grid.cell_volume
    for a in range(grid.dim):
        sl = [slice(None)] * grid.dim
        sl[a] = slice(1, None)
        total += float(face_values.components[a][tuple(sl)].sum()) * vol
    return total


def unit_face_weights(grid: Grid) -> FaceField:
    comps = tuple(
        np.ones(tuple(n + 1 if a == b else m for b, m in enumerate(grid.shape)))
        for a, n in enumerate(grid.shape)
    )
    return FaceField(grid, comps)



def jacobian_diagonal_oracle(ws, x: np.ndarray) -> np.ndarray:
    """c = F''(x) - sigma1 theta0 (+ w, the kernel row sums of the nonlocal
    term): the derivative of the step's local part, whose concave term is
    implicit."""
    M = ws.M
    c = M.potential.d2F(x) - M.sigma1 * M.potential.theta0
    if M.sigma2:
        c = c + M.kernel.matrix(ws.grid).row_sums
    return c


def jacobian_matrix_oracle(ws, x: np.ndarray, dt: float):
    """I + dt (beta I - alpha L_m)(diag c - gamma L_a), c from
    ``jacobian_diagonal_oracle``, at a stepper workspace's frozen
    coefficients, assembled as sums and products of scipy sparse matrices
    (oracle of ``_StepWorkspace.jacobian_solver``)."""
    M, n = ws.M, ws.n
    c = jacobian_diagonal_oracle(ws, x)
    eye = sp.identity(n, format="csr")
    dmu = sp.diags(c, format="csr")
    if ws.a_face is not None:
        dmu = dmu - M.gamma * weighted_laplacian_matrix(ws.grid, ws.a_face)
    drhs = M.beta * eye
    if ws.m_face is not None:
        drhs = drhs - M.alpha * weighted_laplacian_matrix(ws.grid, ws.m_face)
    return eye + dt * (drhs @ dmu)


@pytest.fixture(scope="session")
def synthetic_trajectory_factory():
    return make_synthetic_trajectory


# ---------------------------------------------------------------------------
# model builders shared by the run fixtures


def log_potential(theta=0.3, theta0=1.0):
    return PotentialSpec.logarithmic(theta, theta0)


def poly_mobility():
    return MobilitySpec.polynomial([1.0, 0.0, -0.5], m_star=0.5)


def poly_diffusion():
    return DiffusionSpec.polynomial([1.0, 0.0, 0.5], a_star=1.0)


def ch_model(gamma=0.01):
    return cahn_hilliard(log_potential(), poly_mobility(), poly_diffusion(),
                         alpha=1.0, gamma=gamma)


def ac_model(gamma=0.01):
    return conserved_allen_cahn(log_potential(), beta=1.0, gamma=gamma)


def nlch_model(scale=0.1):
    return nonlocal_cahn_hilliard(log_potential(), poly_mobility(),
                                  KernelSpec("gaussian", scale=scale))


def cosine_ic(grid, mean, amplitude, mode=2):
    axes = grid.cell_centers()
    prof = np.ones(grid.shape)
    for ax, L in zip(axes, grid.lengths):
        prof = prof * np.cos(mode * np.pi * ax / L)
    return Field(grid, (mean + amplitude * prof).ravel())


def noise_ic(grid, mean, amplitude, seed):
    r = np.random.default_rng(np.random.Philox(seed))
    vals = r.uniform(-amplitude, amplitude, grid.n_cells)
    vals -= vals.mean()
    return Field(grid, mean + vals)


# ---------------------------------------------------------------------------
# session runs


@pytest.fixture(scope="session")
def t50_runs_1d():
    """Every preset, 1D N = 128, integrated to t = 50 (criteria 1-3)."""
    grid = Grid((128,), (1.0,))
    cfg = StepperConfig(dt_init=1e-4, dt_max=2e-2, snapshot_every=50,
                        steady_tol=0.0)
    out = {}
    out["CH_NONLINEAR"] = run(ch_model(), cosine_ic(grid, 0.9, 0.05), 50.0, cfg)
    out["CONSERVED_AC"] = run(ac_model(), cosine_ic(grid, 0.9, 0.05), 50.0, cfg)
    out["NONLOCAL_CH"] = run(nlch_model(), noise_ic(grid, 0.1, 0.4, seed=23), 50.0, cfg)
    return out


@pytest.fixture(scope="session")
def t50_runs_2d():
    """Every preset, 2D 32 x 32, integrated to t = 50 (criteria 1-3)."""
    grid = Grid((32, 32), (1.0, 1.0))
    cfg = StepperConfig(dt_init=1e-4, dt_max=2e-2, snapshot_every=100,
                        steady_tol=0.0)
    out = {}
    out["CH_NONLINEAR"] = run(ch_model(), cosine_ic(grid, 0.9, 0.05), 50.0, cfg)
    out["CONSERVED_AC"] = run(ac_model(), cosine_ic(grid, 0.9, 0.05), 50.0, cfg)
    out["NONLOCAL_CH"] = run(nlch_model(), noise_ic(grid, 0.1, 0.4, seed=29), 50.0, cfg)
    return out


@pytest.fixture(scope="session")
def ch_deepquench_run():
    """Noise data at deep quench with gradient-dominated positive energy.

    All wavelengths admitted by the box are stabilized by the chosen gamma,
    so dissipation decays monotonically while the measure-bound inequality
    is exercised with nonempty bad sets at every level (criterion 5).
    """
    grid = Grid((128,), (1.0,))
    cfg = StepperConfig(dt_init=1e-6, dt_max=1e-2, snapshot_every=25,
                        steady_tol=0.0)
    return run(ch_model(gamma=0.1), noise_ic(grid, 0.0, 0.3, seed=11), 10.0, cfg)


@pytest.fixture(scope="session")
def converged_runs():
    """Per preset: perturbed stable constants run to dissipation < 1e-9.

    The transport preset uses a coarser grid: its fourth-order operator
    amplifies double-precision commit noise by (gamma a / h^2)(m / h^2), and
    N = 32 keeps that evaluation floor well below the steady threshold.
    """
    out = {}
    g32 = Grid((32,), (1.0,))
    cfg_ch = StepperConfig(dt_init=1e-4, dt_max=2e-3, snapshot_every=5,
                           steady_tol=1e-9, steady_dwell=100)
    out["CH_NONLINEAR"] = run(ch_model(), cosine_ic(g32, 0.9, 0.05), 100.0, cfg_ch)
    g128 = Grid((128,), (1.0,))
    cfg = StepperConfig(dt_init=1e-4, dt_max=2e-2, snapshot_every=5,
                        steady_tol=1e-9, steady_dwell=100)
    out["CONSERVED_AC"] = run(ac_model(), cosine_ic(g128, 0.9, 0.05), 100.0, cfg)
    out["NONLOCAL_CH"] = run(nlch_model(), cosine_ic(g128, 0.1, 0.05), 100.0, cfg)
    return out


@pytest.fixture(scope="session")
def ac_deepquench_run():
    """Conserved relaxation at deep quench: separates into near-pure layers
    with a small but strictly positive margin (criterion 7)."""
    grid = Grid((128,), (1.0,))
    cfg = StepperConfig(dt_init=1e-4, dt_max=5e-2, snapshot_every=50,
                        steady_tol=1e-9, steady_dwell=100)
    return run(ac_model(gamma=1e-3), cosine_ic(grid, 0.1, 0.05), 50.0, cfg)


@pytest.fixture(scope="session")
def ac_overshoot_run():
    """Deep-quench relaxation whose initial data overshoot the limiting
    separation margin: the near-pure-phase set starts with positive measure
    and must empty out as the flow settles onto the coexistence plateaus."""
    grid = Grid((128,), (1.0,))
    cfg = StepperConfig(dt_init=1e-5, dt_max=2e-2, snapshot_every=10,
                        steady_tol=1e-10, steady_dwell=100)
    return run(ac_model(gamma=1e-3), cosine_ic(grid, 0.1, 0.8995), 10.0, cfg)
