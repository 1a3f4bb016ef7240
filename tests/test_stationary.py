"""Stationary solves: constant branches, interface layers, separation checks."""

import tracemalloc

import numpy as np
import pytest

from phaselab import (
    DiffusionSpec,
    Field,
    Grid,
    KernelSpec,
    MobilitySpec,
    ModelConfig,
    PotentialSpec,
    State,
    StepperConfig,
    cahn_hilliard,
    chemical_potential,
    conserved_allen_cahn,
    energy,
    nonlocal_cahn_hilliard,
    norm_l2,
    solve_equilibrium,
    separation_bound,
    stationary_residual,
    step,
)
from phaselab import physics, stationary
from phaselab.errors import NewtonDivergenceError
from phaselab.grid import weighted_laplacian_matrix
from phaselab.stationary import equilibrium_seeds
from conftest import dense_kernel, face_average


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


class TestResidual:
    def test_ac_constant_branch(self):
        P = log_potential()
        M = conserved_allen_cahn(P, beta=1.0, gamma=1e-3)
        grid = Grid((32,), (1.0,))
        k = 0.2
        mu_c = float(P.dF(k)) - P.theta0 * k
        res = stationary_residual(M, Field.constant(grid, k), mu_c)
        assert np.max(np.abs(res.data)) == 0.0

    def test_ch_unit_diffusion_constant_branch(self):
        P = log_potential()
        M = cahn_hilliard(P, MobilitySpec.constant(1.0), DiffusionSpec.constant(1.0),
                          alpha=1.0, gamma=1e-3)
        grid = Grid((32,), (1.0,))
        k = 0.2
        mu_c = float(P.dF(k)) - P.theta0 * k  # f'(k)
        res = stationary_residual(M, Field.constant(grid, k), mu_c)
        assert np.max(np.abs(res.data)) <= 1e-15

    def test_nonlocal_degenerate_kernel(self):
        P = log_potential()
        ker = KernelSpec("custom", scale=1.0, profile=lambda r: np.zeros_like(r))
        M = nonlocal_cahn_hilliard(P, MobilitySpec.constant(1.0), ker,
                                   nonlocal_consistency=False)
        grid = Grid((16,), (1.0,))
        k = 0.3
        res = stationary_residual(M, Field.constant(grid, k), float(P.dF(k)))
        assert np.max(np.abs(res.data)) == 0.0


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
        out = step(M, State(eq.phi_inf), 1e-2, StepperConfig())
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
        out = step(M, State(eq.phi_inf), dt, StepperConfig())
        assert norm_l2(Field(grid, out.phi.data - eq.phi_inf.data)) <= 1e-8


def dense_equilibrium(M, k, guess, tol=1e-12, max_iter=80):
    """Damped bordered Newton with the dense (n+1)^2 Jacobian (test oracle).

    Iterates on phi for gamma > 0 and on psi = F'(phi) for gamma = 0, with the
    diffusion coefficient frozen at the iterate, like the library solver.
    """
    grid = guess.grid
    n = grid.n_cells
    vol = grid.cell_volume
    P = M.potential
    entropy = M.gamma == 0
    Kd = dense_kernel(M.kernel.matrix(grid)) if M.sigma2 else np.zeros((n, n))
    w = Kd.sum(axis=1) if M.sigma2 and M.nonlocal_consistency else np.zeros(n)
    phi_of = P.inverse_dF if entropy else (lambda z: z)
    z = P.dF(np.clip(guess.data, -1 + 1e-14, 1 - 1e-14)) if entropy else guess.data.copy()

    def residual(z, mu_c):
        phi = phi_of(z)
        r = np.append(chemical_potential(M, Field(grid, phi)).data - mu_c, phi.mean() - k)
        return r, np.sqrt(r[:n] @ r[:n] * vol + r[n] ** 2)

    mu_c = chemical_potential(M, Field(grid, phi_of(z))).data.mean()
    r, rnorm = residual(z, mu_c)
    for _ in range(max_iter):
        if rnorm <= tol:
            break
        phi = phi_of(z)
        J_mu = np.diag(P.d2F(phi) - M.sigma1 * P.theta0 + w) - Kd
        if M.gamma > 0:
            a_face = face_average(Field(grid, M.diffusion(phi)), M.face_mode)
            J_mu -= M.gamma * weighted_laplacian_matrix(grid, a_face).toarray()
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


def _oracle_cases():
    P = log_potential()
    mob = MobilitySpec.polynomial([1.0, 0.0, -0.5], m_star=0.5)
    dif = DiffusionSpec.polynomial([1.0, 0.0, 0.5], a_star=1.0)
    g64 = Grid((64,), (1.0,))
    g128 = Grid((128,), (1.0,))
    nl_on = nonlocal_cahn_hilliard(P, mob, KernelSpec("gaussian", scale=0.1))
    nl_off = nonlocal_cahn_hilliard(P, mob, KernelSpec("gaussian", scale=0.08),
                                    nonlocal_consistency=False)
    general = ModelConfig(1, 0, 1e-2, 1, 1, P, mob, dif,
                          kernel=KernelSpec("gaussian", scale=0.1))
    return {
        "ch_varying_diffusion": (deep_quench_ch(), 0.0,
                                 tanh_seed(g64, width=0.02)),
        "ch_varying_diffusion_2d": (deep_quench_ch(gamma=1e-2), 0.0,
                                    dict(equilibrium_seeds(Grid((16, 16), (1.0, 1.0)), 0.0,
                                                           potential=P))["tanh_mid"]),
        "ac": (conserved_allen_cahn(P, beta=1.0, gamma=1e-3), 0.1,
               dict(equilibrium_seeds(g64, 0.1, potential=P))["tanh_mid"]),
        "nl_consistent": (nl_on, 0.1,
                          dict(equilibrium_seeds(Grid((16, 16), (1.0, 1.0)), 0.1,
                                                 potential=P))["tanh_mid"]),
        "nl_literal": (nl_off, 0.0, tanh_seed(g128, width=0.08, amplitude=0.8)),
        "general_kernel": (general, 0.0,
                           dict(equilibrium_seeds(g64, 0.0, potential=P))["tanh_mid"]),
    }


class TestAgainstDenseOracle:
    @pytest.mark.parametrize("case", list(_oracle_cases()))
    def test_matches_dense_bordered_newton(self, case):
        M, k, guess = _oracle_cases()[case]
        phi_ref, mu_ref = dense_equilibrium(M, k, guess)
        eq = solve_equilibrium(M, k, guess, tol=1e-12)
        assert np.max(np.abs(eq.phi_inf.data - phi_ref)) <= 1e-10
        assert abs(eq.mu_inf - mu_ref) <= 1e-10

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
        with pytest.raises(NewtonDivergenceError, match="GMRES"):
            solve_equilibrium(M, k, guess, tol=1e-12)

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
        # literal convolution stationary form admits layered states; the
        # kernel-gradient inequality must hold with measurable slack
        P = log_potential()
        mob = MobilitySpec.polynomial([1.0, 0.0, -0.5], m_star=0.5)
        ker = KernelSpec("gaussian", scale=0.08)
        M = nonlocal_cahn_hilliard(P, mob, ker, nonlocal_consistency=False)
        grid = Grid((128,), (1.0,))
        eq = solve_equilibrium(M, 0.0, tanh_seed(grid, width=0.08, amplitude=0.8),
                               tol=1e-11)
        assert np.ptp(eq.phi_inf.data) > 1.5
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
