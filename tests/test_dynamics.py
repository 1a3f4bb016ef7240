"""Stepper and driver tests: fixed points, conservation, dissipation, adaptivity."""

import types

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
    conserved_allen_cahn,
    energy,
    nonlocal_cahn_hilliard,
    norm_l2,
    run,
    solve_equilibrium,
    step,
)
from phaselab import dynamics, linalg
from phaselab import grid as g
from phaselab import physics as ph
from phaselab import stationary
from phaselab.errors import NewtonDivergenceError, StepFloorError, ValidationError
from conftest import (cosine_ic, dense_kernel, jacobian_diagonal_oracle, jacobian_matrix_oracle,
                      noise_ic)


def rng(seed=0):
    return np.random.default_rng(np.random.Philox(seed))


def ch_model(theta=0.3, theta0=1.0, gamma=0.01):
    P = PotentialSpec.logarithmic(theta, theta0)
    mob = MobilitySpec.polynomial([1.0, 0.0, -0.5], m_star=0.5)
    dif = DiffusionSpec.polynomial([1.0, 0.0, 0.5], a_star=1.0)
    return cahn_hilliard(P, mob, dif, alpha=1.0, gamma=gamma)


def ac_model(theta=0.3, theta0=1.0, gamma=1e-3):
    return conserved_allen_cahn(PotentialSpec.logarithmic(theta, theta0),
                                beta=1.0, gamma=gamma)


def nl_model(theta=0.3, theta0=1.0):
    return nonlocal_cahn_hilliard(
        PotentialSpec.logarithmic(theta, theta0),
        MobilitySpec.polynomial([1.0, 0.0, -0.5], m_star=0.5),
        KernelSpec("gaussian", scale=0.1),
    )


def general_model():
    """alpha, beta, gamma > 0 with both the concave term and a Gaussian kernel."""
    return ModelConfig(1, 0.5, 1e-2, 1, 1, PotentialSpec.logarithmic(0.3, 1.0),
                       MobilitySpec.polynomial([1.0, 0.0, -0.5], m_star=0.5),
                       DiffusionSpec.polynomial([1.0, 0.0, 0.5], a_star=1.0),
                       kernel=KernelSpec("gaussian", scale=0.1))


class TestStep:
    def test_ac_constant_is_exact_fixed_point(self):
        M = ac_model()
        grid = Grid((32,), (1.0,))
        s = State(Field.constant(grid, 0.2))
        out = step(M, s, 1e-2)
        assert np.array_equal(out.phi.data, s.phi.data)

    @pytest.mark.parametrize("factory", [ch_model, ac_model, nl_model])
    def test_equilibrium_is_fixed_point(self, factory):
        M = factory()
        grid = Grid((48,), (1.0,))
        eq = solve_equilibrium(M, k=0.9, guess=Field.constant(grid, 0.9), tol=1e-13)
        for dt in (1e-4, 1e-2):
            out = step(M, State(eq.phi_inf), dt)
            moved = norm_l2(Field(grid, out.phi.data - eq.phi_inf.data))
            assert moved <= 1e-9, (M.preset, dt, moved)

    def test_ch_step_mass_and_energy(self):
        M = ch_model()
        grid = Grid((64,), (1.0,))
        r = rng(1)
        vals = np.clip(0.05 + 0.3 * r.standard_normal(64), -0.8, 0.8)
        s = State(Field(grid, vals))
        e0 = energy(M, s.phi)
        out = step(M, s, 1e-3)
        assert abs(out.phi.mean() - s.phi.mean()) <= 1e-14
        assert energy(M, out.phi) <= e0 + 1e-10

    @pytest.mark.parametrize("factory", [ch_model, ac_model, nl_model])
    def test_strict_bounds_preserved(self, factory):
        M = factory()
        grid = Grid((64,), (1.0,))
        vals = 0.97 * np.cos(4 * np.pi * grid.axes()[0])
        s = State(Field(grid, vals))
        out = step(M, s, 1e-4)
        assert np.max(np.abs(out.phi.data)) < 1.0

    def test_first_order_consistency(self):
        # one-step defect against a tiny-dt reference halves with dt
        M = ac_model(gamma=0.01)
        grid = Grid((64,), (1.0,))
        x = grid.axes()[0]
        s = State(Field(grid, 0.1 + 0.2 * np.cos(np.pi * x)))
        T = 4e-3
        ref = s
        for _ in range(64):
            ref = step(M, ref, T / 64)
        errs = []
        for nsteps in (2, 4):
            cur = s
            for _ in range(nsteps):
                cur = step(M, cur, T / nsteps)
            errs.append(norm_l2(Field(grid, cur.phi.data - ref.phi.data)))
        ratio = errs[0] / errs[1]
        assert 1.6 <= ratio <= 2.6


    def test_commit_follows_an_implicit_pass(self):
        # at this dt the unsolved start already meets 0.01 * NEWTON_TOL; the
        # step must still solve once instead of committing an explicit step
        M = ch_model()
        grid = Grid((32,), (1.0,))
        s = State(Field(grid, 0.1 + 0.3 * np.cos(2 * np.pi * grid.axes()[0])))
        ws = dynamics._StepWorkspace(M, s.phi)
        rhs = ws.rhs_of(ws.mu_of(s.phi.data))
        dt = 1e-3 * dynamics.NEWTON_TOL / float(np.linalg.norm(rhs))
        r0 = dt * float(np.linalg.norm(rhs)) * np.sqrt(grid.cell_volume)
        assert r0 <= 0.01 * dynamics.NEWTON_TOL
        out = step(M, s, dt)
        assert out.newton_iters >= 1


class TestRun:
    def test_equilibrium_stays_flat(self):
        M = ac_model()
        grid = Grid((32,), (1.0,))
        eq = solve_equilibrium(M, k=0.9, guess=Field.constant(grid, 0.9), tol=1e-13)
        cfg = StepperConfig(dt_init=1e-3, dt_max=1e-2, steady_tol=0.0)
        traj = run(M, eq.phi_inf, 1.0, cfg)
        assert traj.complete
        assert np.max(np.abs(traj.mass - traj.mass[0])) <= 1e-12
        assert np.max(traj.dissipation) <= 1e-15
        assert np.max(traj.energy) - np.min(traj.energy) <= 1e-12

    def test_ac_perturbed_constant_relaxes(self):
        # shallow quench: all modes stable, fast exponential relaxation
        M = ac_model(theta=0.8, theta0=1.0, gamma=0.02)
        grid = Grid((64,), (1.0,))
        x = grid.axes()[0]
        phi0 = Field(grid, 0.1 + 0.05 * np.cos(2 * np.pi * x))
        cfg = StepperConfig(dt_init=1e-3, dt_max=0.1, steady_tol=1e-10, steady_dwell=20)
        traj = run(M, phi0, 200.0, cfg)
        ver = traj.verify()
        assert ver["ok"], ver
        assert traj.mu_fluct_l2[-1] < 1e-6
        assert np.all(np.diff(traj.energy) <= 1e-10)
        assert traj.mass[0] == pytest.approx(0.1, abs=1e-15)

    def test_nonlocal_cumulative_dissipation_bound(self):
        M = nl_model()
        grid = Grid((48,), (1.0,))
        r = rng(2)
        vals = np.clip(0.1 + 0.3 * r.standard_normal(48), -0.85, 0.85)
        phi0 = Field(grid, vals)
        cfg = StepperConfig(dt_init=1e-4, dt_max=1e-2, steady_tol=1e-10, steady_dwell=20)
        traj = run(M, phi0, 20.0, cfg)
        assert traj.verify()["ok"]
        cumulative = float(np.sum(traj.dissipation[1:] * traj.dt[1:]))
        budget = traj.energy[0] - traj.energy[-1] + len(traj.times) * 1e-10
        assert cumulative <= budget

    def test_snapshot_cadence_and_final(self):
        M = ac_model(theta=0.8, gamma=0.02)
        grid = Grid((32,), (1.0,))
        phi0 = Field(grid, 0.1 + 0.02 * np.cos(2 * np.pi * grid.axes()[0]))
        cfg = StepperConfig(dt_init=1e-3, dt_max=1e-3, snapshot_every=10, steady_tol=0.0)
        traj = run(M, phi0, 0.05, cfg)
        assert traj.snapshots[0][0] == 0.0
        assert traj.snapshots[-1][0] == pytest.approx(traj.times[-1])
        assert len(traj.snapshots) >= 5

    def test_step_floor_carries_partial_trajectory(self, monkeypatch):
        M = ac_model()
        grid = Grid((16,), (1.0,))
        phi0 = Field(grid, 0.1 + 0.5 * np.cos(2 * np.pi * grid.axes()[0]))
        # impossible tolerance forces endless energy rejections
        monkeypatch.setattr(dynamics, "TOL_E", 1e-300)
        monkeypatch.setattr(dynamics, "DT_MIN", 0.99e-3)
        cfg = StepperConfig(dt_init=1e-3, dt_max=1e-3)
        with pytest.raises(StepFloorError) as err:
            run(M, phi0, 1.0, cfg)
        traj = err.value.trajectory
        assert traj is not None and not traj.complete

    def test_nan_energy_is_an_energy_rejection(self, monkeypatch):
        # F is NaN at every state but the initial one, so each trial state's
        # gate compares NaN: that must reject, not pass
        base = PotentialSpec.logarithmic(0.3, 1.0)
        grid = Grid((16,), (1.0,))
        phi0 = Field(grid, 0.1 + 0.2 * np.cos(2 * np.pi * grid.axes()[0]))

        def f0(s):
            s = np.asarray(s, dtype=float)
            if s.shape == phi0.data.shape and not np.array_equal(s, phi0.data):
                return np.full(s.shape, np.nan)
            return base.F(s)

        P = PotentialSpec.custom(0.3, 1.0, f0, base.dF, base.d2F)
        M = conserved_allen_cahn(P, beta=1.0, gamma=1e-2)
        monkeypatch.setattr(dynamics, "DT_MIN", 1e-6)
        cfg = StepperConfig(dt_init=1e-3, dt_max=1e-3)
        with pytest.raises(StepFloorError) as err:
            run(M, phi0, 1.0, cfg)
        traj = err.value.trajectory
        assert traj.provenance["accepted"] == 0
        assert traj.provenance["rejected"]["energy"] >= 1
        assert np.all(np.isfinite(traj.energy))

    def test_rejects_inadmissible_initial_data(self):
        M = ac_model()
        grid = Grid((8,), (1.0,))
        with pytest.raises(ValueError):
            run(M, Field(grid, np.full(8, 1.5)), 1.0, StepperConfig())

    def test_determinism(self):
        M = ch_model()
        grid = Grid((32,), (1.0,))
        r1 = rng(42).uniform(-0.4, 0.4, 32)
        cfg = StepperConfig(dt_init=1e-5, dt_max=1e-3)
        t1 = run(M, Field(grid, r1 - r1.mean()), 0.01, cfg)
        t2 = run(M, Field(grid, r1 - r1.mean()), 0.01, cfg)
        assert np.array_equal(t1.energy, t2.energy)
        assert np.array_equal(t1.mass, t2.mass)

    def test_deep_quench_relaxation_run(self, ac_deepquench_run):
        # mean-subtracted flow from 0.1 + 0.05 cos(2 pi x): the energy falls
        # monotonically, the mass pins at 0.1, and the fluctuation norm of
        # the chemical potential relaxes to zero
        traj = ac_deepquench_run
        assert np.all(np.diff(traj.energy) <= 1e-10)
        assert traj.energy[-1] < traj.energy[0]
        assert np.max(np.abs(traj.mass - 0.1)) <= 1e-12
        assert traj.mu_fluct_l2[-1] < 1e-8
        assert traj.mu_fluct_l2[-1] < 1e-4 * traj.mu_fluct_l2.max()


class TestSolvabilityCap:
    def test_bounds_of_the_presets(self):
        # kappa = theta0 - theta = 0.7; CH: m_max = 1 (m = 1 - s^2 / 2), a_min = 1
        grid = Grid((32,), (1.0,))
        assert dynamics.solvability_bound(ac_model(), grid) == pytest.approx(1.0 / 0.7)
        assert dynamics.solvability_bound(ch_model(gamma=0.01), grid) == \
            pytest.approx(4.0 * 0.01 / 0.7 ** 2)
        assert dynamics.solvability_bound(nl_model(), grid) == np.inf

    @pytest.mark.parametrize("grid", [Grid((48,), (1.0,)), Grid((12, 10), (1.0, 0.8), "periodic")],
                             ids=["1d_neumann", "2d_periodic"])
    def test_bound_of_the_general_model_reads_the_kernel_row_sums(self, grid):
        # kappa = theta0 - theta - min w, w the row sums of the dense kernel; m_max = a_min = 1
        M = general_model()
        w = dense_kernel(M.kernel.matrix(grid)).sum(axis=1)
        kappa = 1.0 - 0.3 - w.min()
        assert kappa > 0.1
        rate = 0.5 * kappa + kappa ** 2 / (4.0 * 1e-2)
        assert dynamics.solvability_bound(M, grid) == pytest.approx(1.0 / rate, rel=1e-12)

    def test_run_caps_dt(self):
        M = ac_model(theta=0.3, gamma=0.02)
        grid = Grid((16,), (1.0,))
        phi0 = Field(grid, 0.9 + 0.01 * np.cos(np.pi * grid.axes()[0]))
        cfg = StepperConfig(dt_init=5.0, dt_max=5.0, steady_tol=0.0)
        traj = run(M, phi0, 5.0, cfg)
        assert traj.dt[1] == traj.dt.max() == 1.0 / 0.7

    def test_transport_without_gradient_energy_fails_when_built(self):
        P = PotentialSpec.logarithmic(0.3, 1.0)
        M = dynamics.ph.ModelConfig(1.0, 0.0, 0.0, 1, 0, P, MobilitySpec.constant(),
                                    DiffusionSpec.constant())
        grid = Grid((16,), (1.0,))
        with pytest.raises(ValidationError, match="not monotone"):
            run(M, Field.constant(grid, 0.1), 1.0)


class TestTimeAccuracy:
    """Self-convergence in dt at fixed dt_init = dt_max.

    With d(dt) = |phi_dt(T) - phi_dt/2(T)|_L2 the observed order is
    log2(d(dt) / d(dt/2)) and the error constant d(dt) / dt.  Both states
    are small smooth perturbations of a constant, so no step is rejected.
    The constants were measured at dt = T/8 .. T/32; a committed increment
    scaled by 1 + dt keeps the order on AC but moves its constant 7-fold.
    """

    @pytest.mark.parametrize("factory, mean, T, constant", [
        (lambda: ac_model(gamma=0.01), 0.8, 2.0, 6.1e-4),
        (lambda: ch_model(gamma=0.01), 0.7, 0.5, 7.3e-3),
    ], ids=["AC", "CH"])
    def test_first_order_in_dt(self, factory, mean, T, constant):
        M = factory()
        grid = Grid((32,), (1.0,))
        phi0 = Field(grid, mean + 0.05 * np.cos(2 * np.pi * grid.axes()[0]))
        steps = (8, 16, 32, 64)
        ends = []
        for n in steps:
            cfg = StepperConfig(dt_init=T / n, dt_max=T / n, steady_tol=0.0)
            traj = run(M, phi0, T, cfg)
            assert traj.provenance["accepted"] == n
            assert sum(traj.provenance["rejected"].values()) == 0
            ends.append(traj.snapshots[-1][1].data)
        d = np.array([norm_l2(Field(grid, a - b)) for a, b in zip(ends, ends[1:])])
        orders = np.log2(d[:-1] / d[1:])
        assert np.all((0.9 <= orders) & (orders <= 1.1)), orders
        constants = d * np.array(steps[:-1]) / T
        assert np.all(np.abs(constants / constant - 1.0) <= 0.15), constants


class TestGateController:
    """Where the energy gate binds, its own defect sizes the next dt.

    From 0.1 + 0.05 cos(2 pi x) at deep quench D rises on most early steps,
    so the defect E+ + dt D+ - E is ~dt^2 D'/2 and the gate binds.  Halving
    on rejection and regrowing 1.2-fold every five clean steps took 1119
    accepted / 57 rejected steps on this run; capping growth at
    dt sqrt(GATE_SAFETY TOL_E / defect) takes 913 / 0.
    """

    T = 0.5

    @pytest.fixture(scope="class")
    def case(self):
        grid = Grid((64,), (1.0,))
        return ac_model(), Field(grid, 0.1 + 0.05 * np.cos(2 * np.pi * grid.axes()[0]))

    @pytest.fixture(scope="class")
    def controlled(self, case):
        return run(*case, self.T, StepperConfig(dt_init=1e-4, dt_max=5e-2, steady_tol=0.0))

    def test_counts(self, controlled):
        prov = controlled.provenance
        assert controlled.verify()["ok"]
        assert prov["accepted"] == 913
        assert sum(prov["rejected"].values()) == 0
        assert prov["gate_limited"] == 858

    def test_predicted_start_takes_one_pass_per_step(self, controlled):
        # started from the old state, this run takes 2.34 chord passes per step;
        # from the quadratic through the last three accepted states, one each
        assert np.mean(controlled.newton_iters[1:]) <= 1.1

    def test_cap_shrinks_dt_at_most_by_sqrt_safety(self, controlled):
        # an accepted defect is at most TOL_E; the last step is cut to reach T
        ratios = controlled.dt[2:-1] / controlled.dt[1:-2]
        assert ratios.min() >= np.sqrt(dynamics.GATE_SAFETY) * (1.0 - 1e-9)
        assert ratios.min() < 1.0

    def test_final_energy_matches_fixed_dt(self, case, controlled):
        ends = []
        for n in (1000, 2000):
            traj = run(*case, self.T, StepperConfig(dt_init=self.T / n, dt_max=self.T / n,
                                                    steady_tol=0.0))
            assert sum(traj.provenance["rejected"].values()) == 0
            ends.append(traj.energy[-1])
        reference = 2.0 * ends[1] - ends[0]  # Richardson: the scheme is first order
        # in fewer steps than the fixed dt = T/1000, about as close to the reference
        # (measured 9.6e-8 against 8.5e-8; halve-and-regrow: 8.1e-8)
        assert abs(controlled.energy[-1] - reference) <= 1.3 * abs(ends[0] - reference)


class TestExtrapolatedKernelTerm:
    """The nonlocal step extrapolates -J*phi linearly from the last two accepted
    states, so the kernel's lag no longer throttles the energy gate."""

    def test_explicit_term_is_extrapolated_after_the_first_step(self):
        M = nl_model()
        grid = Grid((32,), (1.0,))
        phi0, phi1 = (np.clip(0.1 + 0.3 * rng(s).standard_normal(32), -0.85, 0.85)
                      for s in (3, 4))
        ws = dynamics._StepWorkspace(M, Field(grid, phi0))
        K = dense_kernel(M.kernel.matrix(grid))
        ws.extrapolate(1e-3)  # the first step has no history: lagged
        np.testing.assert_allclose(ws.explicit, -K @ phi0, rtol=0, atol=1e-13)
        ws.freeze(ph.Evaluation(M, Field(grid, phi1)), 2e-3)
        ws.extrapolate(3e-3)
        r = 1.5
        np.testing.assert_allclose(ws.explicit, -((1 + r) * K @ phi1 - r * K @ phi0),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("grid", [Grid((48,), (1.0,)), Grid((12, 10), (1.0, 0.8), "periodic")],
                             ids=["1d_neumann", "2d_periodic"])
    @pytest.mark.parametrize("factory", [ch_model, ac_model, nl_model, general_model],
                             ids=["ch", "ac", "nl", "general"])
    def test_stepper_mu_is_the_chemical_potential(self, factory, grid):
        # at the state it froze, the stepper's matrix-free mu, its local linear
        # term implicit, is that state's chemical potential
        M = factory()
        phi = Field(grid, 0.1 + 0.4 * rng(7).uniform(-1.0, 1.0, grid.n_cells))
        ws = dynamics._StepWorkspace(M, phi)
        mu = ph.Evaluation(M, phi).mu
        assert np.max(np.abs(ws.mu_of(phi.data) - mu)) <= 1e-13 * np.max(np.abs(mu))

    def test_local_models_keep_the_lagged_term(self):
        grid = Grid((32,), (1.0,))
        phi0 = Field(grid, 0.1 + 0.05 * np.cos(2 * np.pi * grid.axes()[0]))
        phi1 = Field(grid, 0.1 + 0.04 * np.cos(2 * np.pi * grid.axes()[0]))
        for M in (ch_model(), ac_model()):
            ws = dynamics._StepWorkspace(M, phi0)
            ev = ph.Evaluation(M, phi1)
            ws.freeze(ev, 2e-3)
            ws.extrapolate(3e-3)
            assert ws.trend is None
            np.testing.assert_array_equal(ws.explicit, ev.explicit)

    def test_t50_runs_meet_the_nonlocal_step_gate(self, t50_runs_1d, t50_runs_2d):
        p1 = t50_runs_1d["NONLOCAL_CH"].provenance
        p2 = t50_runs_2d["NONLOCAL_CH"].provenance
        # measured 2621 / 0 (the ramp floor) and 15 LUs; the lagged term took
        # 6133 / 3 in 1D and 22 LUs in 2D, with 858 and 395 steps gate-limited
        assert p1["accepted"] + sum(p1["rejected"].values()) <= 2700
        assert p2["factorizations"] <= 22
        assert p1["gate_limited"] == p2["gate_limited"] == 0

    def test_final_energy_matches_fixed_dt(self):
        M = nl_model()
        T = 0.1
        phi0 = noise_ic(Grid((32,), (1.0,)), 0.1, 0.4, seed=5)
        adaptive = run(M, phi0, T, StepperConfig(dt_init=1e-4, dt_max=2e-2, steady_tol=0.0))
        assert adaptive.provenance["gate_limited"] == 0
        ends = []
        for n in (100, 400, 800):
            traj = run(M, phi0, T, StepperConfig(dt_init=T / n, dt_max=T / n, steady_tol=0.0))
            assert sum(traj.provenance["rejected"].values()) == 0
            ends.append(traj.energy[-1])
        reference = 2.0 * ends[2] - ends[1]  # Richardson: the scheme is first order
        # in about as many steps as the fixed dt = T/100, about as close to the
        # reference (measured 102 steps, 1.5e-6 against 7.9e-7)
        assert adaptive.provenance["accepted"] <= 110
        assert abs(adaptive.energy[-1] - reference) <= 2.5 * abs(ends[0] - reference)


class TestPredictor:
    """Newton starts from the polynomial through the last three accepted states."""

    GRID = Grid((32,), (1.0,))

    def field(self, t):
        # quadratic in time at every cell, inside the guard band for t in [0, 0.1]
        x = self.GRID.axes()[0]
        return Field(self.GRID, 0.1 + 0.3 * np.cos(2 * np.pi * x) * (1 + 2 * t - 5 * t * t))

    def workspace(self, times):
        M = ac_model()
        ws = dynamics._StepWorkspace(M, self.field(times[0]))
        for t0, t1 in zip(times, times[1:]):
            ws.freeze(ph.Evaluation(M, self.field(t1)), t1 - t0)
        return ws

    def test_quadratic_in_time_is_reproduced_with_unequal_steps(self):
        ws = self.workspace([0.0, 0.013, 0.0171, 0.0302])
        for dt in (1e-4, 7e-3, 0.05):
            np.testing.assert_allclose(ws.predict(dt), self.field(0.0302 + dt).data,
                                       rtol=0, atol=1e-14)

    def test_linear_through_two_states_and_the_state_alone(self):
        ws = self.workspace([0.02])
        assert ws.predict(3e-3) is ws.phi
        ws = self.workspace([0.02, 0.025])
        slope = (self.field(0.025).data - self.field(0.02).data) / 5e-3
        np.testing.assert_allclose(ws.predict(3e-3), self.field(0.025).data + 3e-3 * slope,
                                   rtol=0, atol=1e-15)
        # a new history starts at freeze(ev, 0.0)
        ws.freeze(ph.Evaluation(ac_model(), self.field(0.03)))
        assert ws.predict(3e-3) is ws.phi

    def test_a_rejected_trial_leaves_the_history_unchanged(self, monkeypatch):
        # trial 10 is forced to fail after its solve; its retry at dt/2 must
        # start from the quadratic through accepted states 7, 8 and 9
        starts, trials = [], []
        predict, real_step = dynamics._StepWorkspace.predict, dynamics.step

        def recorded(ws, dt):
            starts.append(predict(ws, dt))
            return starts[-1]

        def flaky(*args, **kw):
            trials.append(real_step(*args, **kw))
            if len(trials) == 10:
                raise NewtonDivergenceError("forced rejection")
            return trials[-1]

        monkeypatch.setattr(dynamics._StepWorkspace, "predict", recorded)
        monkeypatch.setattr(dynamics, "step", flaky)
        grid = Grid((64,), (1.0,))
        traj = run(ac_model(), Field(grid, 0.1 + 0.05 * np.cos(2 * np.pi * grid.axes()[0])), 0.01,
                   StepperConfig(dt_init=1e-4, dt_max=5e-2, snapshot_every=1, steady_tol=0.0))
        assert traj.provenance["rejected"]["newton"] == 1
        (t0, p0), (t1, p1), (t2, p2) = ((t, f.data) for t, f in traj.snapshots[7:10])
        dt = traj.times[10] - t2
        assert dt == pytest.approx(0.5 * (trials[9].t - t2), rel=1e-12)
        d1, d0 = (p2 - p1) / (t2 - t1), (p1 - p0) / (t1 - t0)
        expected = p2 + dt * d1 + dt * (dt + t2 - t1) * (d1 - d0) / (t2 - t0)
        np.testing.assert_allclose(starts[10], expected, rtol=0, atol=1e-14)


class TestSnapshotFloor:
    @staticmethod
    def slots(times, t_max):
        return set((np.asarray(times) * dynamics.SNAPSHOT_SLOTS / t_max).astype(int).tolist())

    def test_short_run_keeps_a_snapshot_in_every_slot(self):
        # a 1D analogue of a short 2D spinodal run: the dt ramp from 1e-6
        # crosses t_max = 0.01 in 165 steps with no rejection, only the last
        # ~15 in the trailing half, where snapshot_every = 10 alone leaves 3
        grid = Grid((32,), (1.0,))
        phi0 = Field(grid, 0.05 * np.cos(3 * np.pi * grid.axes()[0]))
        cfg = StepperConfig(dt_init=1e-6, dt_max=1e-2, snapshot_every=10, steady_tol=0.0)
        t_max = 0.01
        traj = run(ch_model(), phi0, t_max, cfg)
        assert sum(traj.provenance["rejected"].values()) == 0
        snap_t = np.array([t for t, _ in traj.snapshots])
        assert np.all(np.diff(snap_t) > 0) and np.all(np.isin(snap_t, traj.times))
        assert np.count_nonzero(snap_t >= 0.5 * t_max) >= 8
        assert self.slots(snap_t, t_max) == self.slots(traj.times, t_max)

    def test_dense_steps_take_only_the_cadence(self):
        # three steps of 1e-3 are shorter than a slot, 0.05 / 16
        M = ac_model(theta=0.8, gamma=0.02)
        grid = Grid((32,), (1.0,))
        phi0 = Field(grid, 0.1 + 0.02 * np.cos(2 * np.pi * grid.axes()[0]))
        cfg = StepperConfig(dt_init=1e-3, dt_max=1e-3, snapshot_every=3, steady_tol=0.0)
        traj = run(M, phi0, 0.05, cfg)
        assert len(traj.times) == 51
        expected = [*traj.times[::3], traj.times[-1]]
        assert [t for t, _ in traj.snapshots] == expected


class TestLaggedJacobian:
    def test_2d_ch_factors_less_than_once_per_step(self, monkeypatch):
        seen = []
        real = dynamics.spla.splu
        monkeypatch.setattr(dynamics, "spla", types.SimpleNamespace(
            splu=lambda A, **kw: seen.append(A) or real(A, **kw)))
        M = ch_model()
        grid = Grid((16, 16), (1.0, 1.0))
        vals = rng(5).uniform(-0.05, 0.05, grid.n_cells)
        cfg = StepperConfig(dt_init=1e-6, dt_max=1e-2, steady_tol=0.0)
        traj = run(M, Field(grid, vals - vals.mean()), 1.3e-4, cfg)
        steps = len(traj.times) - 1
        assert traj.verify()["ok"]
        assert steps >= 45
        assert len(seen) < steps
        assert traj.provenance["factorizations"] == len(seen)

    def test_1d_ch_plateau_reuses_one_lu(self, monkeypatch):
        # the run sits near its constant state from t ~ 1: chord passes
        # that stall below NEWTON_TOL end the step without a fresh LU, and
        # one LU at dt_max serves the plateau
        seen = []
        real = dynamics.spla.splu
        monkeypatch.setattr(dynamics, "spla", types.SimpleNamespace(
            splu=lambda A, **kw: seen.append(A) or real(A, **kw)))
        grid = Grid((128,), (1.0,))
        cfg = StepperConfig(dt_init=1e-4, dt_max=2e-2, steady_tol=0.0)
        traj = run(ch_model(), cosine_ic(grid, 0.9, 0.05), 2.0, cfg)
        assert traj.verify()["ok"]
        assert len(traj.times) - 1 >= 200
        assert len(seen) == traj.provenance["factorizations"] <= 25

    @pytest.mark.parametrize("factory", [ch_model, ac_model, nl_model])
    def test_stale_lu_step_matches_fresh_step(self, factory):
        M = factory()
        grid = Grid((64,), (1.0,))
        s = State(Field(grid, 0.1 + 0.3 * np.cos(4 * np.pi * grid.axes()[0])))
        dt = 1e-3
        ws = dynamics._StepWorkspace(M, s.phi)
        ws.jacobian_solver(s.phi.data, 0.6 * dt)
        stale = step(M, s, dt, _workspace=ws)
        fresh = step(M, s, dt)
        assert norm_l2(Field(grid, stale.phi.data - fresh.phi.data)) <= 1e-12

    @pytest.mark.parametrize("bc", ["neumann", "periodic"])
    @pytest.mark.parametrize("shape", [(24,), (6, 5)])
    @pytest.mark.parametrize("factory", [ch_model, ac_model, nl_model])
    def test_jacobian_matches_sparse_algebra_oracle(self, monkeypatch, factory, shape, bc):
        # the matrix handed to the LU; splu itself may see it permuted (linalg.factor)
        seen = []
        real = linalg.factor
        monkeypatch.setattr(linalg, "factor",
                            lambda splu, A: seen.append(A.toarray()) or real(splu, A))
        M = factory()
        grid = Grid(shape, (1.0,) * len(shape), bc)
        phi = 0.1 + 0.3 * rng(3).uniform(-1.0, 1.0, grid.n_cells)
        ws = dynamics._StepWorkspace(M, Field(grid, phi))
        x = phi + 0.01 * rng(4).uniform(-1.0, 1.0, grid.n_cells)
        dt = 1e-3
        solve = ws.jacobian_solver(x, dt)
        A = seen[0]
        ref = jacobian_matrix_oracle(ws, x, dt).toarray()
        if M.preset == "CH_NONLINEAR":
            # the product sums each entry in another order
            assert np.max(np.abs(A - ref)) <= 1e-12 * np.max(np.abs(ref))
        else:
            assert np.array_equal(A, ref)
        # the solve inverts the full Jacobian: the sparse part minus the mean
        # term u v^T, u = dt beta / n, v = c, that the bordered solve folds in
        c = jacobian_diagonal_oracle(ws, x)
        b = rng(6).standard_normal(grid.n_cells)
        y = solve(b)
        J_y = ref @ y - (dt * M.beta / grid.n_cells) * (c @ y)
        assert np.linalg.norm(J_y - b) <= 1e-12 * np.linalg.norm(b)

    def test_stepper_and_stationary_share_the_lu_ordering(self, monkeypatch):
        # the first LU of a pattern orders it; later LUs of that pattern get it
        # permuted by that ordering and keep it
        kwargs = []
        real = dynamics.spla.splu
        monkeypatch.setattr(linalg, "_plans", {})

        def splu(A, **kw):
            kwargs.append(kw)
            return real(A, **kw)

        for module in (dynamics, stationary):
            monkeypatch.setattr(module, "spla", types.SimpleNamespace(
                **{**vars(module.spla), "splu": splu}))
        M = ch_model()
        grid = Grid((16,), (1.0,))
        s = State(Field(grid, 0.1 + 0.3 * np.cos(2 * np.pi * grid.axes()[0])))
        step(M, s, 1e-3)
        stepper_calls = len(kwargs)
        solve_equilibrium(M, 0.1, s.phi)
        assert 0 < stepper_calls < len(kwargs)
        # one ordering each for the stepper's pentadiagonal and the stationary
        # tridiagonal pattern
        planned = {**linalg.SPLU_ORDERING, "permc_spec": "NATURAL"}
        assert kwargs[0] == kwargs[stepper_calls] == linalg.SPLU_ORDERING
        assert kwargs.count(linalg.SPLU_ORDERING) == len(linalg._plans) == 2
        assert kwargs.count(planned) == len(kwargs) - 2

    def test_lu_ordering_fills_less_than_colamd(self, monkeypatch):
        seen = []
        real = dynamics.spla.splu
        monkeypatch.setattr(dynamics, "spla", types.SimpleNamespace(
            splu=lambda A, **kw: seen.append(A) or real(A, **kw)))
        grid = Grid((40, 40), (1.0, 1.0))
        phi = 0.1 + 0.3 * rng(1).uniform(-1.0, 1.0, grid.n_cells)
        dynamics._StepWorkspace(nl_model(), Field(grid, phi)).jacobian_solver(phi, 1e-4)
        ordered = real(seen[0], **linalg.SPLU_ORDERING)
        colamd = real(seen[0], permc_spec="COLAMD")
        assert ordered.L.nnz + ordered.U.nnz <= 0.75 * (colamd.L.nnz + colamd.U.nnz)

    @pytest.mark.parametrize("breakdown", ["nan", "zero"])
    def test_sherman_morrison_breakdown_raises(self, monkeypatch, breakdown):
        M = ac_model()
        grid = Grid((16,), (1.0,))
        dt = 1e-3
        s = State(Field(grid, 0.2 + 0.01 * np.cos(2 * np.pi * grid.axes()[0])))
        # with A^-1 = scale * I, v.A^-1 u = scale * dt * beta * mean(c),
        # c = F''(phi) - theta0, so this stub LU puts the denominator
        # 1 - v.A^-1 u at zero
        c = np.asarray(M.potential.d2F(s.phi.data)) - M.potential.theta0
        scale = np.nan if breakdown == "nan" else 1.0 / (dt * M.beta * c.mean())
        stub = types.SimpleNamespace(solve=lambda b: scale * b)
        monkeypatch.setattr(dynamics, "spla", types.SimpleNamespace(splu=lambda A, **kw: stub))
        with pytest.raises(NewtonDivergenceError, match="Schur complement"):
            step(M, s, dt)

    def test_sherman_morrison_breakdown_is_rejected_and_retried(self, monkeypatch):
        real = dynamics.spla.splu
        calls = []

        def splu(A, **kw):
            calls.append(A)
            if len(calls) == 1:
                return types.SimpleNamespace(solve=lambda b: np.full_like(b, np.nan))
            return real(A, **kw)

        monkeypatch.setattr(dynamics, "spla", types.SimpleNamespace(splu=splu))
        M = ac_model(theta=0.8, gamma=0.02)
        grid = Grid((32,), (1.0,))
        phi0 = Field(grid, 0.1 + 0.02 * np.cos(2 * np.pi * grid.axes()[0]))
        cfg = StepperConfig(dt_init=1e-3, dt_max=1e-3, steady_tol=0.0)
        traj = run(M, phi0, 0.01, cfg)
        assert traj.provenance["rejected"]["newton"] == 1
        assert traj.provenance["factorizations"] == len(calls) - 1
        assert traj.verify()["ok"]
        assert traj.times[-1] == pytest.approx(0.01)

    def test_changed_model_constant_takes_effect(self):
        grid = Grid((64,), (1.0,))
        phi0 = Field(grid, 0.1 + 0.3 * np.cos(4 * np.pi * grid.axes()[0]))
        cfg = StepperConfig(dt_init=1e-4, dt_max=1e-2, steady_tol=0.0)
        M = ac_model(gamma=0.01)
        run(M, phi0, 0.05, cfg)
        M.gamma = 0.02
        reused = run(M, phi0, 0.05, cfg)
        fresh = run(ac_model(gamma=0.02), phi0, 0.05, cfg)
        assert np.array_equal(reused.times, fresh.times)
        assert np.array_equal(reused.energy, fresh.energy)
        assert np.array_equal(reused.snapshots[-1][1].data, fresh.snapshots[-1][1].data)


class TestOneEvaluationPerState:
    def test_one_kernel_apply_per_gated_state(self, monkeypatch):
        calls = []
        real = g.KernelMatrix.apply_values
        monkeypatch.setattr(g.KernelMatrix, "apply_values",
                            lambda K, v: calls.append(1) or real(K, v))
        M = nl_model()
        grid = Grid((48,), (1.0,))
        vals = np.clip(0.1 + 0.3 * rng(2).standard_normal(48), -0.85, 0.85)
        # at dt_init = dt_max = 0.1 the first trial steps, with no history to
        # extrapolate the kernel term from, fail the energy gate
        cfg = StepperConfig(dt_init=0.1, dt_max=0.1, steady_tol=0.0)
        traj = run(M, Field(grid, vals), 0.5, cfg)
        gated = traj.provenance["accepted"] + traj.provenance["rejected"]["energy"]
        assert traj.provenance["rejected"]["energy"] > 0
        # one per state that reached the energy gate, one for the initial
        # state and one for the kernel row sums
        assert len(calls) == gated + 2

    def test_each_trial_state_is_domain_checked_once(self, monkeypatch):
        orders, peaks = [], []
        real = PotentialSpec._check_domain

        def spy(P, s, order, peak=None):
            orders.append(order)
            peaks.append(peak)
            return real(P, s, order, peak)

        monkeypatch.setattr(PotentialSpec, "_check_domain", spy)
        M = ac_model()
        grid = Grid((64,), (1.0,))
        phi0 = Field(grid, 0.1 + 0.05 * np.cos(2 * np.pi * grid.axes()[0]))
        # the first trial steps, at dt_init = dt_max, fail the energy gate
        cfg = StepperConfig(dt_init=5e-2, dt_max=5e-2, steady_tol=0.0)
        traj = run(M, phi0, 0.2, cfg)
        prov = traj.provenance
        assert prov["rejected"]["energy"] > 0
        trial = 1 + prov["accepted"] + sum(prov["rejected"].values())
        evaluated = 1 + prov["accepted"] + prov["rejected"]["energy"]
        # F and F' once per evaluated state (Newton reads F' unchecked), F'' once per LU
        assert orders.count(0) == orders.count(1) == evaluated
        # both against the one max|phi| of the state's evaluation
        assert all(p is not None for o, p in zip(orders, peaks) if o < 2)
        assert orders.count(2) == prov["factorizations"]
        assert orders.count(0) + orders.count(1) <= 2 * trial

    def test_laplacians_assembled_only_at_factorization(self, monkeypatch):
        calls = []
        real = g.weighted_laplacian_matrix
        monkeypatch.setattr(g, "weighted_laplacian_matrix",
                            lambda grid, w: calls.append(1) or real(grid, w))
        M = ch_model()
        grid = Grid((16, 16), (1.0, 1.0))
        vals = rng(5).uniform(-0.05, 0.05, grid.n_cells)
        cfg = StepperConfig(dt_init=1e-6, dt_max=1e-2, steady_tol=0.0)
        traj = run(M, Field(grid, vals - vals.mean()), 1.3e-4, cfg)
        assert len(traj.times) - 1 > traj.provenance["factorizations"]
        assert len(calls) == 2 * traj.provenance["factorizations"]


class TestConvexityFloor:
    # F'' dips below theta in a Gaussian of width 1e-6 at DIP, which lies
    # halfway between two points of the contract battery's sample, so the
    # potential is accepted and only the Jacobians' check can catch it
    DIP = 0.25025

    def dipped_case(self):
        base = PotentialSpec.logarithmic(0.3, 1.0)

        def f2(s):
            return base.d2F(s) - 0.3 * np.exp(-((np.asarray(s) - self.DIP) / 1e-6) ** 2)

        # only F'' carries the dip: the floor is a statement about F'' alone
        P = PotentialSpec.custom(0.3, 1.0, base.F, base.dF, f2)
        M = conserved_allen_cahn(P, beta=1.0, gamma=1e-2)
        grid = Grid((16,), (1.0,))
        vals = 0.1 + 0.1 * np.cos(2 * np.pi * grid.axes()[0])
        vals[5] = self.DIP
        assert float(P.d2F(self.DIP)) < P.theta
        return M, Field(grid, vals)

    def test_step_raises(self):
        M, phi = self.dipped_case()
        with pytest.raises(ValidationError, match="convexity"):
            step(M, State(phi), 1e-3)

    def test_solve_equilibrium_raises(self):
        M, phi = self.dipped_case()
        # phi is not stationary, so Newton assembles a Jacobian at it
        with pytest.raises(ValidationError, match="convexity"):
            solve_equilibrium(M, phi.mean(), phi)
