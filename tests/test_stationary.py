"""Stationary solves: constant branches, interface layers, separation checks."""

import re
import tracemalloc
import types

import numpy as np
import pytest
import scipy.sparse as sp

from phaselab import (
    DiffusionSpec,
    Field,
    Grid,
    KernelSpec,
    MobilitySpec,
    ModelConfig,
    PotentialSpec,
    State,
    cahn_hilliard,
    chemical_potential,
    conserved_allen_cahn,
    energy,
    nonlocal_cahn_hilliard,
    norm_l2,
    solve_equilibrium,
    separation_bound,
    step,
)
from phaselab import linalg, physics, stationary
from phaselab.errors import NewtonDivergenceError
from phaselab.stationary import equilibrium_seeds
from conftest import dense_kernel


def log_potential(theta=0.3, theta0=1.0):
    return PotentialSpec.logarithmic(theta, theta0)


def deep_quench_ch(gamma=1e-3, diffusion=None):
    P = log_potential()
    mob = MobilitySpec.polynomial([1.0, 0.0, -0.5], m_star=0.5)
    dif = diffusion or DiffusionSpec.polynomial([1.0, 0.0, 0.5], a_star=1.0)
    return cahn_hilliard(P, mob, dif, alpha=1.0, gamma=gamma)


def tanh_seed(grid, width=0.01, amplitude=0.99):
    x = grid.axes()[0]
    prof = amplitude * np.tanh((x - 0.5) / width)
    prof -= prof.mean()
    return Field(grid, prof)


def cosine_seed(grid, k, amplitude=0.05):
    """k plus one cosine period along the first axis, at mean exactly k."""
    prof = k + amplitude * np.cos(2 * np.pi * grid.cell_centers()[0])
    return Field(grid, prof + (k - prof.mean()))


class TestResidual:
    def test_ac_constant_branch(self):
        P = log_potential()
        M = conserved_allen_cahn(P, beta=1.0, gamma=1e-3)
        grid = Grid((32,), (1.0,))
        k = 0.2
        mu_c = float(P.dF(k)) - P.theta0 * k
        res = chemical_potential(M, Field.constant(grid, k)).data - mu_c
        assert np.max(np.abs(res)) == 0.0

    def test_ch_unit_diffusion_constant_branch(self):
        P = log_potential()
        M = cahn_hilliard(P, MobilitySpec.constant(1.0), DiffusionSpec.constant(1.0),
                          alpha=1.0, gamma=1e-3)
        grid = Grid((32,), (1.0,))
        k = 0.2
        mu_c = float(P.dF(k)) - P.theta0 * k  # f'(k)
        res = chemical_potential(M, Field.constant(grid, k)).data - mu_c
        assert np.max(np.abs(res)) <= 1e-15

    def test_nonlocal_degenerate_kernel(self):
        P = log_potential()
        ker = KernelSpec("custom", scale=1.0, profile=lambda r: np.zeros_like(r))
        M = nonlocal_cahn_hilliard(P, MobilitySpec.constant(1.0), ker)
        grid = Grid((16,), (1.0,))
        k = 0.3
        res = chemical_potential(M, Field.constant(grid, k)).data - float(P.dF(k))
        assert np.max(np.abs(res)) == 0.0


class TestSolve:
    def test_ac_constant_converges_immediately(self):
        P = log_potential()
        M = conserved_allen_cahn(P, beta=1.0, gamma=1e-3)
        grid = Grid((32,), (1.0,))
        eq = solve_equilibrium(M, 0.2, Field.constant(grid, 0.2), tol=1e-12)
        assert np.allclose(eq.phi_inf.data, 0.2, atol=1e-13)
        assert eq.mu_inf == pytest.approx(float(P.dF(0.2)) - 0.2, abs=1e-12)
        assert eq.residual_l2 <= 1e-12
        assert eq.delta == pytest.approx(0.8, abs=1e-12)

    def test_deep_quench_layer(self):
        M = deep_quench_ch()
        grid = Grid((128,), (1.0,))
        eq = solve_equilibrium(M, 0.0, tanh_seed(grid), tol=1e-12)
        # interior transition layer, not a constant
        assert np.ptp(eq.phi_inf.data) > 1.5
        assert eq.delta > 0.0
        assert energy(M, eq.phi_inf) < energy(M, Field.constant(grid, 0.0))
        # fixed point of the dynamic stepper
        out = step(M, State(eq.phi_inf), 1e-2)
        assert norm_l2(Field(grid, out.phi.data - eq.phi_inf.data)) <= 1e-9

    def test_continuation_warm_starts(self):
        # constant diffusion keeps the stationary Jacobian exact
        M = deep_quench_ch(diffusion=DiffusionSpec.constant(1.0))
        grid = Grid((128,), (1.0,))
        prev = solve_equilibrium(M, 0.0, tanh_seed(grid), tol=1e-10)
        for k in (0.05, 0.1):
            eq = solve_equilibrium(M, k, prev.phi_inf, tol=1e-10)
            assert eq.iterations <= 10
            assert eq.phi_inf.mean() == pytest.approx(k, abs=1e-12)
            prev = eq

    def test_mean_constraint_exact(self):
        M = deep_quench_ch()
        grid = Grid((64,), (1.0,))
        eq = solve_equilibrium(M, 0.1, tanh_seed(grid, width=0.02, amplitude=0.9),
                               tol=1e-12)
        assert abs(eq.phi_inf.mean() - 0.1) <= 1e-12

    def test_mu_inf_is_mean_of_chemical_potential(self):
        M = deep_quench_ch()
        grid = Grid((64,), (1.0,))
        eq = solve_equilibrium(M, 0.0, tanh_seed(grid, width=0.02), tol=1e-12)
        mu = chemical_potential(M, eq.phi_inf)
        assert abs(eq.mu_inf - mu.data.mean()) <= 1e-10

    @pytest.mark.parametrize("dt", [1e-4, 1e-2])
    def test_fixed_point_property(self, dt):
        M = deep_quench_ch()
        grid = Grid((64,), (1.0,))
        eq = solve_equilibrium(M, 0.0, tanh_seed(grid, width=0.02), tol=1e-12)
        out = step(M, State(eq.phi_inf), dt)
        assert norm_l2(Field(grid, out.phi.data - eq.phi_inf.data)) <= 1e-8


def dense_gradient_hessian(M, grid, phi):
    """The dense Hessian of gamma/2 sum_f a_f g_f^2 (test oracle), summed face by
    face: a_f is the mean of a at the face's two cells and g_f their difference
    over h, with a wrap face per axis under periodic boundaries."""
    n = grid.n_cells
    a, da, d2a = M.diffusion(phi), M.diffusion.dfn(phi), M.diffusion.d2fn(phi)
    H = np.zeros((n, n))
    cells = np.arange(n).reshape(grid.shape)
    for axis, h in enumerate(grid.spacing):
        # every cell's face to its successor along the axis; the last wraps
        has_face = (np.indices(grid.shape)[axis] < grid.shape[axis] - 1) | (grid.bc == "periodic")
        lo, hi = cells[has_face], np.roll(cells, -1, axis=axis)[has_face]
        g = (phi[hi] - phi[lo]) / h
        a_f = 0.5 * (a[lo] + a[hi])
        np.add.at(H, (lo, lo), a_f / h**2 - da[lo] * g / h + d2a[lo] * g**2 / 4)
        np.add.at(H, (hi, hi), a_f / h**2 + da[hi] * g / h + d2a[hi] * g**2 / 4)
        cross = -a_f / h**2 + (da[lo] - da[hi]) * g / (2 * h)
        np.add.at(H, (lo, hi), cross)
        np.add.at(H, (hi, lo), cross)
    return M.gamma * H


def dense_equilibrium(M, k, guess, tol=1e-12, max_iter=80):
    """Damped bordered Newton with the dense (n+1)^2 Jacobian (test oracle).

    Iterates on phi for gamma > 0 and on psi = F'(phi) for gamma = 0.  In phi
    the Jacobian is the exact Hessian, a' and a'' terms included.
    """
    grid = guess.grid
    n = grid.n_cells
    vol = grid.cell_volume
    P = M.potential
    entropy = M.gamma == 0
    Kd = dense_kernel(M.kernel.matrix(grid)) if M.sigma2 else np.zeros((n, n))
    w = Kd.sum(axis=1)
    phi_of = P.inverse_dF if entropy else (lambda z: z)
    z = P.dF(np.clip(guess.data, -1 + 1e-14, 1 - 1e-14)) if entropy else guess.data.copy()

    def mu_of(z):
        # in psi, mu = psi + (w - sigma1 theta0) phi - K phi: F' is never
        # evaluated at a phi = tanh(psi / theta) that rounds to +-1
        phi = phi_of(z)
        if entropy:
            return z + (w - M.sigma1 * P.theta0) * phi - Kd @ phi
        return chemical_potential(M, Field(grid, phi)).data

    def residual(z, mu_c):
        r = np.append(mu_of(z) - mu_c, phi_of(z).mean() - k)
        return r, np.sqrt(r[:n] @ r[:n] * vol + r[n] ** 2)

    mu_c = mu_of(z).mean()
    r, rnorm = residual(z, mu_c)
    for _ in range(max_iter):
        if rnorm <= tol:
            break
        phi = phi_of(z)
        J_mu = np.diag(P.d2F(phi) - M.sigma1 * P.theta0 + w) - Kd
        if M.gamma > 0:
            J_mu += dense_gradient_hessian(M, grid, phi)
        dphi = 1.0 / P.d2F(phi) if entropy else np.ones(n)
        J = np.zeros((n + 1, n + 1))
        J[:n, :n] = J_mu * dphi[None, :]
        J[:n, n] = -1.0
        J[n, :n] = dphi / n
        dz = np.linalg.solve(J, -r)
        lam = 1.0
        while lam > 1e-12:
            zn = z + lam * dz[:n]
            if entropy or np.max(np.abs(zn)) < 1 - 1e-14:
                rn, rnn = residual(zn, mu_c + lam * dz[n])
                if rnn < rnorm * (1 - 1e-4 * lam):
                    z, mu_c, r, rnorm = zn, mu_c + lam * dz[n], rn, rnn
                    break
            lam *= 0.5
        else:
            raise AssertionError("oracle damping exhausted")
    assert rnorm <= tol
    return phi_of(z), mu_c


def psi_layer_case(sigma2, seed):
    """gamma = 0, sigma1 = 1 on (64,) at k = 0.1 from a layer seed, with or without a kernel."""
    P = log_potential()
    M = ModelConfig(1, 0, 0, 1, sigma2, P, MobilitySpec.polynomial([1.0, 0.0, -0.5], m_star=0.5),
                    DiffusionSpec.polynomial([1.0, 0.0, 0.5], a_star=1.0),
                    kernel=KernelSpec("gaussian", scale=0.1) if sigma2 else None)
    return M, 0.1, dict(equilibrium_seeds(Grid((64,), (1.0,)), 0.1, potential=P))[seed]


def _oracle_cases():
    P = log_potential()
    mob = MobilitySpec.polynomial([1.0, 0.0, -0.5], m_star=0.5)
    dif = DiffusionSpec.polynomial([1.0, 0.0, 0.5], a_star=1.0)
    g64 = Grid((64,), (1.0,))
    g128 = Grid((128,), (1.0,))
    nl_on = nonlocal_cahn_hilliard(P, mob, KernelSpec("gaussian", scale=0.1))
    general = ModelConfig(1, 0, 1e-2, 1, 1, P, mob, dif,
                          kernel=KernelSpec("gaussian", scale=0.1))
    # the concave term with the kernel (sigma1 = sigma2 = 1, gamma = 0) reaches
    # layered nonlocal states
    nl_layered = ModelConfig(1, 0, 0, 1, 1, P, mob, DiffusionSpec.constant(1.0),
                             kernel=KernelSpec("gaussian", scale=0.1))
    # two interfaces across the periodic wrap
    gp = Grid((16, 12), (1.0, 0.75), "periodic")
    layers = 0.9 * np.tanh(2.0 * np.cos(2 * np.pi * gp.cell_centers()[0].ravel()))
    # gamma = 0 with the concave term: the psi iteration's local block
    # 1 - theta0/F''(phi) changes sign across the spinodal
    entropy = {}
    for sigma2 in (1, 0):
        M = ModelConfig(1, 0, 0, 1, sigma2, P, mob, dif,
                        kernel=KernelSpec("gaussian", scale=0.1) if sigma2 else None)
        for grid in (g64, Grid((24, 24), (1.0, 1.0))):
            for k in (0.1, 0.5):
                name = "x".join(map(str, grid.shape))
                entropy[f"general_psi_{'kernel' if sigma2 else 'local'}_{name}_k{k}"] = (
                    M, k, cosine_seed(grid, k))
    # layer seeds saturate tanh(psi / theta) at trial states
    for seed in ("tanh_mid", "tanh_flip"):
        entropy[f"general_psi_kernel_64_k0.1_{seed}"] = psi_layer_case(1, seed)
    return {
        "ch_varying_diffusion": (deep_quench_ch(), 0.0,
                                 tanh_seed(g64, width=0.02)),
        "ch_varying_diffusion_2d": (deep_quench_ch(gamma=1e-2), 0.0,
                                    dict(equilibrium_seeds(Grid((16, 16), (1.0, 1.0)), 0.0,
                                                           potential=P))["tanh_mid"]),
        "ch_varying_diffusion_2d_periodic": (deep_quench_ch(gamma=1e-2), 0.1,
                                             Field(gp, layers + 0.1 - layers.mean())),
        "ac": (conserved_allen_cahn(P, beta=1.0, gamma=1e-3), 0.1,
               dict(equilibrium_seeds(g64, 0.1, potential=P))["tanh_mid"]),
        "nl_consistent": (nl_on, 0.1,
                          dict(equilibrium_seeds(Grid((16, 16), (1.0, 1.0)), 0.1,
                                                 potential=P))["tanh_mid"]),
        "nl_layered": (nl_layered, 0.0, tanh_seed(g128, width=0.08, amplitude=0.8)),
        "general_kernel": (general, 0.0,
                           dict(equilibrium_seeds(g64, 0.0, potential=P))["tanh_mid"]),
        **entropy,
    }


class TestExactJacobian:
    """In phi the stationary Jacobian is the exact derivative of mu, a' and a''
    terms of a varying diffusion coefficient included."""

    class Captured(Exception):
        pass

    @pytest.mark.parametrize("bc", ["neumann", "periodic"])
    def test_phi_block_matches_finite_differences(self, bc, monkeypatch):
        M = deep_quench_ch(gamma=1e-2)  # a = 1 + s^2/2
        grid = Grid((12, 9), (1.0, 0.75), bc)
        phi = np.random.default_rng(12).uniform(-0.6, 0.6, grid.n_cells)
        blocks = []

        def capture(B, *args):
            blocks.append(B.toarray())
            raise self.Captured

        monkeypatch.setattr(stationary, "_newton_step", capture)
        with pytest.raises(self.Captured):
            solve_equilibrium(M, float(phi.mean()), Field(grid, phi), tol=1e-12)
        h, n = 1e-6, grid.n_cells
        J = np.column_stack([
            (chemical_potential(M, Field(grid, phi + h * e)).data
             - chemical_potential(M, Field(grid, phi - h * e)).data) / (2 * h)
            for e in np.eye(n)])
        B = blocks[0]
        assert np.abs(B - J).max() <= 1e-8 * np.abs(J).max()
        assert np.abs(B - B.T).max() <= 1e-14 * np.abs(B).max()

    @pytest.mark.parametrize("seed", ["tanh_mid", "tanh_flip"])
    def test_layer_seed_with_varying_diffusion_converges_fast(self, seed):
        # the model of the 2D spinodal benchmark: a frozen-a Jacobian takes 11
        # iterations here and ends at 7.5e-13
        M = deep_quench_ch(gamma=1e-2)
        grid = Grid((32, 32), (1.0, 1.0))
        guess = dict(equilibrium_seeds(grid, 0.0, potential=M.potential))[seed]
        eq = solve_equilibrium(M, 0.0, guess, tol=1e-13)
        assert eq.iterations <= 7
        assert eq.residual_l2 <= 1e-13


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("case", list(_oracle_cases()))
    def test_matches_dense_bordered_newton(self, case):
        M, k, guess = _oracle_cases()[case]
        phi_ref, mu_ref = dense_equilibrium(M, k, guess)
        eq = solve_equilibrium(M, k, guess, tol=1e-12)
        assert np.max(np.abs(eq.phi_inf.data - phi_ref)) <= 1e-10
        assert abs(eq.mu_inf - mu_ref) <= 1e-10

    @pytest.mark.parametrize("seed", ["tanh_mid", "tanh_flip"])
    def test_local_psi_layers_stall_in_both_solvers(self, seed):
        # without a kernel the residual F'(phi) - theta0 phi - mu_inf is
        # pointwise, and from a layer seed both Newtons exhaust their damping
        # (the psi block 1 - theta0 / F''(phi) changes sign across the spinodal)
        M, k, guess = psi_layer_case(0, seed)
        with pytest.raises(AssertionError, match="oracle damping exhausted"):
            dense_equilibrium(M, k, guess)
        with pytest.raises(NewtonDivergenceError, match="stationary damping exhausted"):
            solve_equilibrium(M, k, guess, tol=1e-12)

    @pytest.mark.parametrize("case", ["ch_varying_diffusion", "nl_consistent"])
    def test_one_evaluation_per_trial_state(self, case, monkeypatch):
        M, k, guess = _oracle_cases()[case]
        states = []

        class Counted(physics.Evaluation):
            def __init__(self, M, phi, *args, **kwargs):
                super().__init__(M, phi, *args, **kwargs)
                states.append(phi.data.tobytes())

        monkeypatch.setattr(physics, "Evaluation", Counted)
        eq = solve_equilibrium(M, k, guess, tol=1e-12)
        # every iterate is evaluated, and no state twice
        assert len(states) >= eq.iterations > 2
        assert len(set(states)) == len(states)

    def test_gmres_failure_is_typed(self, monkeypatch):
        M, k, guess = _oracle_cases()["general_kernel"]
        monkeypatch.setattr(stationary, "GMRES_RESTART", 1)
        monkeypatch.setattr(stationary, "GMRES_MAXITER", 1)
        with pytest.raises(NewtonDivergenceError, match="GMRES") as exc:
            solve_equilibrium(M, k, guess, tol=1e-12)
        msg = str(exc.value)
        assert "Newton Jacobian is ill-conditioned at this iterate" in msg
        # the first Newton step solves to eta_0 = ETA_MAX, and one iteration misses it
        reached = re.search(r"relative residual (\S+) against eta = (\S+)\)", msg)
        assert reached and float(reached[2]) == stationary.ETA_MAX
        assert float(reached[1]) > stationary.ETA_MAX
        assert exc.value.iterations == 1
        assert np.isfinite(exc.value.residual) and exc.value.residual > 0

    @pytest.mark.parametrize("seed", ["tanh_mid", "tanh_flip"])
    def test_psi_kernel_layers_on_24x24_end_typed(self, seed):
        # gamma = 0, sigma1 = sigma2 = 1 on 24x24 from a layer seed: Newton heads for a
        # near-singular Jacobian at residual ~0.012.  Whether it leaves that valley
        # depends on ETA_MAX, so either end is accepted, as long as it is typed or
        # independently a stationary state
        P = log_potential()
        M = ModelConfig(1, 0, 0, 1, 1, P, MobilitySpec.polynomial([1.0, 0.0, -0.5], m_star=0.5),
                        DiffusionSpec.constant(1.0), kernel=KernelSpec("gaussian", scale=0.1))
        grid = Grid((24, 24), (1.0, 1.0))
        guess = dict(equilibrium_seeds(grid, 0.1, potential=P))[seed]
        try:
            eq = solve_equilibrium(M, 0.1, guess, tol=1e-12)
        except NewtonDivergenceError as exc:
            assert exc.iterations > 0
            assert np.isfinite(exc.residual) and exc.residual > 0
            return
        phi = eq.phi_inf.data
        Kd = dense_kernel(M.kernel.matrix(grid))
        mu = P.dF(phi) - P.theta0 * phi + Kd.sum(axis=1) * phi - Kd @ phi
        assert eq.delta > 0 and abs(phi.mean() - 0.1) <= 1e-12
        assert np.linalg.norm(mu - eq.mu_inf) * np.sqrt(grid.cell_volume) <= 1e-12

    def test_forcing_term_loosens_the_early_linear_solves(self, monkeypatch):
        M, k, guess = _oracle_cases()["nl_consistent"]
        n = guess.grid.n_cells
        etas, norms = [], []
        newton_step = stationary._newton_step

        def spy(B, r, rhs, K, t, rtol):
            etas.append(rtol)
            norms.append(np.sqrt(np.dot(rhs[:n], rhs[:n]) * guess.grid.cell_volume
                                 + rhs[n] ** 2))
            return newton_step(B, r, rhs, K, t, rtol)

        monkeypatch.setattr(stationary, "_newton_step", spy)
        inexact = solve_equilibrium(M, k, guess, tol=1e-12)
        forcing = [min(stationary.ETA_MAX, max(stationary.GMRES_RTOL, 0.9 * (b / a) ** 2))
                   for a, b in zip(norms, norms[1:])]
        assert etas == [stationary.ETA_MAX] + forcing
        assert min(etas) < stationary.ETA_MAX
        # eta pinned at its floor is the fixed-tolerance solve: 5 Newton, 70 GMRES iterations
        monkeypatch.setattr(stationary, "ETA_MAX", stationary.GMRES_RTOL)
        exact = solve_equilibrium(M, k, guess, tol=1e-12)
        assert (exact.iterations, exact.linear_iterations) == (5, 70)
        assert inexact.linear_iterations <= 0.6 * exact.linear_iterations
        assert inexact.iterations <= exact.iterations + 1
        assert np.max(np.abs(inexact.phi_inf.data - exact.phi_inf.data)) <= 1e-10
        assert abs(inexact.mu_inf - exact.mu_inf) <= 1e-10

    @pytest.mark.parametrize("case", ["ch_varying_diffusion", "ac", "nl_consistent",
                                      "nl_layered", "general_kernel"])
    def test_only_the_local_block_is_factored(self, case, monkeypatch):
        M, k, guess = _oracle_cases()[case]
        shapes = []
        splu = stationary.spla.splu

        def spy(A, **kw):
            shapes.append(A.shape)
            return splu(A, **kw)

        monkeypatch.setattr(stationary, "spla", types.SimpleNamespace(splu=spy))
        eq = solve_equilibrium(M, k, guess, tol=1e-12)
        n = guess.grid.n_cells
        # psi form (gamma = 0) divides by its diagonal block: no LU at all
        assert len(shapes) == (eq.iterations - 1 if M.gamma > 0 else 0)
        assert set(shapes) <= {(n, n)}

    @pytest.mark.parametrize("case, per_step", [("ch_varying_diffusion", 1), ("ac", 1),
                                                 ("nl_consistent", 0)])
    def test_one_stencil_per_newton_step_in_phi_only(self, case, per_step, monkeypatch):
        # phi assembles the diffusion stencil at each iterate, constant
        # diffusion (ac) included; psi has no stencil to assemble
        M, k, guess = _oracle_cases()[case]
        calls, lus = [], []
        real, splu = stationary.g.weighted_laplacian_matrix, stationary.spla.splu
        monkeypatch.setattr(stationary.g, "weighted_laplacian_matrix",
                            lambda grid, w: calls.append(1) or real(grid, w))
        monkeypatch.setattr(stationary, "spla", types.SimpleNamespace(
            splu=lambda A, **kw: lus.append(1) or splu(A, **kw)))
        eq = solve_equilibrium(M, k, guess, tol=1e-12)
        # the last iteration only finds the residual converged; psi has no LU either
        assert eq.iterations - 1 > 1
        assert len(lus) == len(calls) == per_step * (eq.iterations - 1)

    @pytest.mark.parametrize("breakdown", ["nan", "zero"])
    def test_unresolvable_border_is_typed(self, monkeypatch, breakdown):
        M, k, guess = _oracle_cases()["ac"]
        # a stub B^-1 = diag(+-1) alternating over the 64 cells puts r.B^-1 1 at
        # zero; B^-1 = NaN makes it NaN
        sign = np.nan if breakdown == "nan" else np.resize([1.0, -1.0], guess.grid.n_cells)
        stub = types.SimpleNamespace(solve=lambda b: sign * b)
        monkeypatch.setattr(stationary, "spla", types.SimpleNamespace(splu=lambda A, **kw: stub))
        with pytest.raises(NewtonDivergenceError, match="Schur complement") as exc:
            solve_equilibrium(M, k, guess, tol=1e-12)
        assert exc.value.iterations == 1
        assert np.isfinite(exc.value.residual) and exc.value.residual > 0

    def test_singular_local_block_is_typed(self):
        # B = diag(0, 1, ..., 1) is singular although the bordered matrix is not:
        # the one case the block factorization gives up where a bordered LU would not
        n = 8
        B = sp.identity(n, format="csc")
        B.data[0] = 0.0  # an explicit zero: singular in value, not in pattern
        bordered = np.block([[B.toarray(), -np.ones((n, 1))],
                             [np.full((1, n), 1.0 / n), np.zeros((1, 1))]])
        assert np.linalg.matrix_rank(bordered) == n + 1
        with pytest.raises(NewtonDivergenceError, match="singular stationary Jacobian"):
            stationary._newton_step(B, 1.0 / n, np.ones(n + 1), None, 1.0,
                                    stationary.GMRES_RTOL)

    def test_diagonal_block_is_divided(self, monkeypatch):
        # psi form hands its block as the array of the diagonal: no LU, and the
        # step equals the dense bordered solve and the sparse-diagonal LU path
        monkeypatch.setattr(stationary, "spla", None)
        r = np.random.default_rng(21)
        n = 12
        d = r.uniform(-2.0, 2.0, n)
        row = r.uniform(0.2, 1.0, n) / n
        rhs = r.standard_normal(n + 1)
        step, its = stationary._newton_step(d, row, rhs, None, 1.0, stationary.GMRES_RTOL)
        dense = np.block([[np.diag(d), -np.ones((n, 1))], [row[None, :], np.zeros((1, 1))]])
        ref = np.linalg.solve(dense, rhs)
        assert its == 0
        assert np.linalg.norm(step - ref) <= 1e-13 * np.linalg.norm(ref)
        monkeypatch.undo()
        lu_step, _ = stationary._newton_step(sp.diags(d, format="csc"), row, rhs, None, 1.0,
                                             stationary.GMRES_RTOL)
        assert np.linalg.norm(step - lu_step) <= 1e-14 * np.linalg.norm(ref)

    @pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
    def test_singular_diagonal_block_is_typed(self, bad):
        n = 8
        d = np.ones(n)
        d[3] = bad
        with pytest.raises(NewtonDivergenceError, match="singular stationary Jacobian"):
            stationary._newton_step(d, 1.0 / n, np.ones(n + 1), None, 1.0,
                                    stationary.GMRES_RTOL)

    def test_singular_local_block_carries_the_newton_context(self, monkeypatch):
        M, k, guess = _oracle_cases()["ac"]

        def splu(A, **kw):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(stationary, "spla", types.SimpleNamespace(splu=splu))
        with pytest.raises(NewtonDivergenceError, match="singular stationary Jacobian") as exc:
            solve_equilibrium(M, k, guess, tol=1e-12)
        assert exc.value.iterations == 1
        assert np.isfinite(exc.value.residual) and exc.value.residual > 0

    def test_linear_iterations_are_counted(self):
        nl = solve_equilibrium(*_oracle_cases()["nl_consistent"], tol=1e-12)
        ch = solve_equilibrium(*_oracle_cases()["ch_varying_diffusion"], tol=1e-12)
        assert nl.linear_iterations > 0 and ch.linear_iterations == 0
        assert nl.sidecar()["linear_iterations"] == nl.linear_iterations

    def test_nonlocal_96x96_bounded_memory(self):
        # the dense bordered Jacobian alone would take (96^2 + 1)^2 * 8 B = 680 MB
        P = log_potential()
        M = nonlocal_cahn_hilliard(P, MobilitySpec.polynomial([1.0, 0.0, -0.5], m_star=0.5),
                                   KernelSpec("gaussian", scale=0.1))
        grid = Grid((96, 96), (1.0, 1.0))
        guess = dict(equilibrium_seeds(grid, 0.1, potential=P))["tanh_mid"]
        tracemalloc.start()
        try:
            eq = solve_equilibrium(M, 0.1, guess, tol=1e-10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert eq.residual_l2 <= 1e-10
        assert peak < 64 * 2**20, peak


class TestGmres:
    def test_jacobi_preconditioned_random_system(self):
        rng = np.random.default_rng(60)
        n = 60
        A = np.diag(rng.uniform(1.0, 10.0, n)) + rng.standard_normal((n, n)) / np.sqrt(n)
        b = rng.standard_normal(n)
        # one cycle, and cycles of 5 that rely on the true residual at each restart
        for restart in (stationary.GMRES_RESTART, 5):
            x, its, ok = linalg.gmres(lambda v: A @ v, lambda v: v / np.diag(A), b,
                                      stationary.GMRES_RTOL, restart, n)
            assert ok and 0 < its < n
            assert np.linalg.norm(b - A @ x) <= stationary.GMRES_RTOL * np.linalg.norm(b)

    def test_exact_preconditioner_takes_one_iteration(self):
        rng = np.random.default_rng(61)
        A = np.eye(60) + 0.3 * rng.standard_normal((60, 60))
        b = rng.standard_normal(60)
        x, its, ok = linalg.gmres(lambda v: A @ v, lambda v: np.linalg.solve(A, v), b,
                                  stationary.GMRES_RTOL, stationary.GMRES_RESTART,
                                  stationary.GMRES_MAXITER)
        assert ok and its == 1
        assert np.linalg.norm(b - A @ x) <= stationary.GMRES_RTOL * np.linalg.norm(b)


class TestSeparation:
    def test_constant_margin(self):
        P = log_potential()
        M = conserved_allen_cahn(P, beta=1.0, gamma=1e-3)
        grid = Grid((16,), (1.0,))
        eq = solve_equilibrium(M, 0.2, Field.constant(grid, 0.2), tol=1e-12)
        assert separation_bound(eq) == pytest.approx(0.8, abs=1e-12)

    def test_layer_delta_stable_under_refinement(self):
        # thin interface: the bulk plateau solves the pointwise equation, so
        # the margin is grid-independent to far below the tolerance
        M = deep_quench_ch()
        g128 = Grid((128,), (1.0,))
        eq1 = solve_equilibrium(M, 0.0, tanh_seed(g128), tol=1e-12)
        assert eq1.delta > 0.0
        g256 = Grid((256,), (1.0,))
        x256 = g256.axes()[0]
        vals = np.interp(x256, g128.axes()[0], eq1.phi_inf.data)
        vals -= vals.mean()
        eq2 = solve_equilibrium(M, 0.0, Field(g256, vals), tol=1e-12)
        assert abs(eq1.delta - eq2.delta) <= 1e-6

    def test_nonlocal_gradient_bound(self):
        # the concave term (sigma1 = 1) with the kernel admits layered states;
        # the kernel-gradient inequality, derived without the row-sum and
        # concave terms, holds here empirically with measurable slack
        # (measured |grad phi| = 5.67 against the bound 26.6)
        P = log_potential()
        mob = MobilitySpec.polynomial([1.0, 0.0, -0.5], m_star=0.5)
        M = ModelConfig(1, 0, 0, 1, 1, P, mob, DiffusionSpec.constant(1.0),
                        kernel=KernelSpec("gaussian", scale=0.1))
        grid = Grid((128,), (1.0,))
        eq = solve_equilibrium(M, 0.0, tanh_seed(grid, width=0.08, amplitude=0.8),
                               tol=1e-11)
        assert np.ptp(eq.phi_inf.data) > 1.9
        rep = separation_bound(eq, full=True)
        assert rep.delta > 0.0
        assert rep.grad_norm <= rep.grad_bound
        assert rep.bound_ok

    def test_nonlocal_consistent_constant_is_equilibrium(self):
        P = log_potential()
        ker = KernelSpec("gaussian", scale=0.08)
        M = nonlocal_cahn_hilliard(P, MobilitySpec.constant(1.0), ker)
        grid = Grid((64,), (1.0,))
        eq = solve_equilibrium(M, 0.1, Field.constant(grid, 0.1), tol=1e-12)
        assert np.allclose(eq.phi_inf.data, 0.1, atol=1e-12)


class TestSeeds:
    def test_seed_library_admissible(self):
        grid = Grid((64,), (1.0,))
        for seed_id, f in equilibrium_seeds(grid, k=0.1):
            assert f.mean() == pytest.approx(0.1, abs=1e-12), seed_id
            assert np.max(np.abs(f.data)) < 1.0, seed_id

    def test_layers_without_room_are_skipped_with_a_reason(self):
        grid = Grid((32,), (1.0,))
        seeds = equilibrium_seeds(grid, k=0.85, amplitude=0.9)
        assert [seed_id for seed_id, _ in seeds] == ["constant", "tanh_mid", "tanh_flip"]
        for _, reason in seeds[1:]:
            assert reason == ("k = 0.85, amplitude = 0.9: "
                              "|k| >= 0.9 * amplitude leaves no room for a layer")
