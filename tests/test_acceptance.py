"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test prints a single pass line after its assertions; a failure shows up
as the test failing, so the per-criterion verdict is always visible.
"""

import numpy as np
import pytest

from phaselab import (
    Field,
    Grid,
    KernelSpec,
    State,
    chemical_potential,
    energy,
    inner,
    norm_l2,
    step,
)
from phaselab.analysis import (
    classify_good_times,
    degiorgi_from_trajectory,
    degiorgi_predict,
    degiorgi_threshold,
    integrability_check,
    level_set_series,
    lojasiewicz_fit,
    omega_limit_estimate,
)
from conftest import (
    ac_model,
    ch_model,
    dense_kernel,
    log_potential,
    make_synthetic_trajectory,
    nlch_model,
)

RUNTIME_PER_RUN = 180.0
RUNTIME_CONVERGENCE = 600.0
# accepted steps to the steady stop of each converged run: 10% above 532 / 1118 / 287
STEADY_STEPS = {"CH_NONLINEAR": 585, "CONSERVED_AC": 1229, "NONLOCAL_CH": 315}


def _models():
    return {
        "CH_NONLINEAR": ch_model(),
        "CONSERVED_AC": ac_model(),
        "NONLOCAL_CH": nlch_model(),
    }


class TestCriterion1MassConservation:
    def test_mass_conservation(self, t50_runs_1d, t50_runs_2d):
        for label, runs in (("1D", t50_runs_1d), ("2D", t50_runs_2d)):
            for preset, traj in runs.items():
                assert traj.complete, (label, preset)
                assert traj.times[-1] == pytest.approx(50.0, abs=1e-9)
                drift = np.max(np.abs(traj.mass - traj.mass[0]))
                step_drift = np.max(np.abs(np.diff(traj.mass)))
                assert drift <= 1e-10, (label, preset, drift)
                assert step_drift <= 1e-14, (label, preset, step_drift)
                assert traj.provenance["wall_time_s"] <= RUNTIME_PER_RUN, (label, preset)
        # the plateau at the constant state reuses one LU instead of one per step
        assert t50_runs_1d["CH_NONLINEAR"].provenance["factorizations"] <= 40
        print("[criterion 1] PASS mass conserved to 1e-10 (per step 1e-14) "
              "on all six t=50 runs")


class TestCriterion2EnergyInequality:
    def test_energy_inequality(self, t50_runs_1d, t50_runs_2d):
        for label, runs in (("1D", t50_runs_1d), ("2D", t50_runs_2d)):
            for preset, traj in runs.items():
                lhs = traj.energy[1:] + traj.dt[1:] * traj.dissipation[1:]
                assert np.all(lhs <= traj.energy[:-1] + 1e-10), (label, preset)
                n_steps = len(traj.times) - 1
                cumulative = traj.energy[1:] + np.cumsum(traj.dt[1:] * traj.dissipation[1:])
                assert np.all(cumulative <= traj.energy[0] + n_steps * 1e-10), (label, preset)
        print("[criterion 2] PASS per-step and cumulative energy inequalities "
              "hold at 1e-10 on all six runs")


class TestCriterion3StrictBounds:
    def test_strict_bounds(self, t50_runs_1d, t50_runs_2d):
        for label, runs in (("1D", t50_runs_1d), ("2D", t50_runs_2d)):
            for preset, traj in runs.items():
                assert np.all(traj.phi_min > -1.0), (label, preset)
                assert np.all(traj.phi_max < 1.0), (label, preset)
                for arr in (traj.mass, traj.energy, traj.dissipation,
                            traj.grad_mu_l2, traj.mu_fluct_l2):
                    assert np.all(np.isfinite(arr)), (label, preset)
                for _, f in traj.snapshots:
                    assert np.all(np.isfinite(f.data)), (label, preset)
        print("[criterion 3] PASS |phi| < 1 strictly at every step; no NaN anywhere")


class TestCriterion4VariationalConsistency:
    @pytest.mark.parametrize("shape", [(32,), (16, 16)])
    def test_chemical_potential_is_energy_gradient(self, shape):
        grid = Grid(shape, tuple(1.0 for _ in shape))
        r = np.random.default_rng(np.random.Philox(101))
        eps = 1e-5
        for preset, M in _models().items():
            for _ in range(20):
                phi = Field(grid, r.uniform(-0.9, 0.9, grid.n_cells))
                v = Field(grid, r.uniform(-1.0, 1.0, grid.n_cells))
                ep = energy(M, Field(grid, phi.data + eps * v.data))
                em = energy(M, Field(grid, phi.data - eps * v.data))
                fd = (ep - em) / (2.0 * eps)
                ip = inner(chemical_potential(M, phi), v)
                assert abs(fd - ip) <= 1e-5 * max(1.0, abs(ip)), preset
        print(f"[criterion 4] PASS central differences of E match mu to 1e-5 "
              f"(20 random fields per preset, grid {shape})")


class TestCriterion5MeasureBound:
    def test_good_time_measure_bound(self, ch_deepquench_run):
        traj = ch_deepquench_run
        assert traj.model.potential.theta == 0.3
        assert traj.model.potential.theta0 == 1.0
        assert traj.energy[0] > 0.0
        for M in (0.1, 1.0, 10.0):
            gts = classify_good_times(traj, M, T=0.0)  # raises on violation
            assert gts.bad_measure <= gts.bound, M
        print("[criterion 5] PASS bad-time measure <= E(phi0)/(m* M^2) exactly "
              "for M in {0.1, 1, 10} on the deep-quench transport run")


class TestCriterion6SingleEquilibrium:
    def test_convergence_to_single_equilibrium(self, converged_runs):
        for preset, traj in converged_runs.items():
            assert traj.provenance["stop_reason"] == "steady", preset
            # the Newton stop resolves each step finely enough that commit
            # noise does not delay the steady stop
            assert traj.provenance["accepted"] <= STEADY_STEPS[preset], preset
            assert traj.dissipation_norm_series()[-1] < 1e-9, preset
            assert traj.provenance["wall_time_s"] <= RUNTIME_CONVERGENCE, preset
            gts = classify_good_times(traj, M=1.0, strict=False)
            est = omega_limit_estimate(traj, gts, n_reps=8, tol=1e-5)
            assert est.dispersion <= 1e-5, (preset, est.dispersion)
            assert est.singleton, preset
            eq = est.nearest_eq
            assert eq is not None, preset
            assert eq.residual_l2 <= 1e-8, (preset, eq.residual_l2)
            for dt in (1e-4, 1e-2):
                moved = norm_l2(Field(
                    traj.grid,
                    step(traj.model, State(eq.phi_inf), dt).phi.data
                    - eq.phi_inf.data))
                assert moved <= 1e-8, (preset, dt, moved)
        print("[criterion 6] PASS all presets reach dissipation < 1e-9 with "
              "omega-dispersion <= 1e-5, polish residual <= 1e-8, fixed point <= 1e-8")


class TestCriterion7AsymptoticSeparation:
    def _check(self, traj, label):
        rep = level_set_series(traj, delta=1e-3, window_frac=0.5)
        delta_star = rep.delta_star
        assert delta_star >= 1e-3, (label, delta_star)
        # the level set at delta* is empty over the trailing window
        star = level_set_series(traj, delta=delta_star, window_frac=0.5)
        in_window = star.times >= rep.T_star
        assert np.all(star.measures[in_window] == 0.0), label
        # certify with the truncation scheme at a level just inside delta*
        t_end = float(traj.times[-1])
        tau = (t_end - rep.T_star) / 3.2
        it = degiorgi_from_trajectory(traj, 0.95 * delta_star, tau, t_end, n_max=8)
        assert it.certified, (label, it.y)
        assert it.y[-1] == 0.0, label
        return delta_star

    def test_separation_certificates(self, ac_deepquench_run, t50_runs_1d):
        d1 = self._check(ac_deepquench_run, "CONSERVED_AC deep quench")
        d2 = self._check(t50_runs_1d["NONLOCAL_CH"], "NONLOCAL_CH")
        print(f"[criterion 7] PASS delta* = {d1:.4f} (AC) and {d2:.4f} (nonlocal) "
              ">= 1e-3 with empty level sets and certified truncation decay")


class TestCriterion8GeometricLemma:
    def test_threshold_and_prediction_exact(self):
        # equality recursion y_{n+1} = 2^n y_n^2, y_0 = 1/2: y_n = 0.5 * 2^{-n}
        theta = degiorgi_threshold(1.0, 2.0, 1.0)
        assert abs(theta - 0.5) <= 1e-14
        bounds = degiorgi_predict(0.5, 1.0, 2.0, 1.0, np.arange(20))
        y = 0.5
        for n in range(20):
            assert abs(y - 0.5 * 2.0 ** (-n)) <= 1e-14
            assert abs(y - bounds[n]) <= 1e-14
            y = 2.0 ** n * y * y

    def test_randomized_property(self):
        r = np.random.default_rng(np.random.Philox(8))
        for trial in range(100):
            C = float(r.uniform(0.1, 10.0))
            b = float(r.uniform(1.0 + 1e-6, 4.0))
            eps = float(r.uniform(0.05, 2.0))
            theta = degiorgi_threshold(C, b, eps)
            y0 = theta * float(r.uniform(0.0, 1.0))
            bounds = degiorgi_predict(y0, C, b, eps, np.arange(30))
            y = y0
            for n in range(30):
                assert y <= bounds[n] * (1.0 + 1e-12), (trial, n)
                y = float(r.uniform(0.0, 1.0)) * C * b ** n * y ** (1.0 + eps)
        print("[criterion 8] PASS threshold/prediction exact to 1e-14; "
              "no violation in 100 randomized recursions")


class TestCriterion9IntegrabilityLemma:
    def test_exponential_accepted(self):
        t = np.linspace(0.0, 30.0, 30001)
        rep = integrability_check(t, np.exp(-t), alpha_tilde=1.5, zeta=2.0 ** -1.5)
        assert rep.hypothesis_holds
        assert rep.integral == pytest.approx(1.0, abs=1e-6)

    def test_slow_decay_rejected(self):
        t = np.linspace(0.0, 30.0, 30001)
        rep = integrability_check(t, 1.0 / (1.0 + t), alpha_tilde=1.5, zeta=2.0 ** -1.5)
        assert not rep.hypothesis_holds
        assert rep.violation_time is not None
        print("[criterion 9] PASS exp(-t) accepted with integral 1 +- 1e-6; "
              f"1/(1+t) rejected at s = {rep.violation_time:g}")


class TestCriterion10LojasiewiczShadow:
    def test_synthetic_exponents(self):
        t = np.linspace(0.0, 20.0, 2001)
        traj = make_synthetic_trajectory(t, grad_mu=np.exp(-t / 2), energy=np.exp(-t))
        gts = classify_good_times(traj, M=10.0, strict=False)
        fit = lojasiewicz_fit(traj, gts, e_inf=0.0)
        assert fit.theta == pytest.approx(0.5, abs=0.02)

        t = np.linspace(1.0, 100.0, 5001)
        traj = make_synthetic_trajectory(t, grad_mu=t ** -3.0, energy=t ** -4.0)
        gts = classify_good_times(traj, M=10.0, strict=False)
        fit = lojasiewicz_fit(traj, gts, e_inf=0.0)
        assert fit.theta == pytest.approx(0.25, abs=0.02)

    def test_analytic_run_semilog_linear(self, converged_runs):
        traj = converged_runs["CH_NONLINEAR"]
        tail = max(2, int(0.05 * len(traj.energy)))
        e_inf = float(np.mean(traj.energy[-tail:]))
        gap = traj.energy - e_inf
        floor = 1e5 * np.finfo(float).eps * abs(e_inf)
        usable = gap > floor
        g_lo = gap[usable].min()
        window = usable & (gap <= 10.0 * g_lo)  # final usable decade
        assert np.count_nonzero(window) >= 10
        t_lo = float(traj.times[window][0])
        t_hi = float(traj.times[window][-1])
        gts = classify_good_times(traj, M=1.0, strict=False)
        fit = lojasiewicz_fit(traj, gts, window=(t_lo, t_hi), gap_floor=floor)
        assert 0.4 <= fit.theta <= 0.5, fit.theta
        assert fit.r2 >= 0.99, fit.r2
        lg = np.log(gap[window])
        coef = np.polyfit(traj.times[window], lg, 1)
        pred = np.polyval(coef, traj.times[window])
        r2_t = 1.0 - np.sum((lg - pred) ** 2) / np.sum((lg - lg.mean()) ** 2)
        assert r2_t >= 0.99, r2_t
        print(f"[criterion 10] PASS synthetic exponents 0.5/0.25 within 0.02; "
              f"run fit theta = {fit.theta:.3f}, decade r^2 = {fit.r2:.5f}")


class TestCriterion11OracleEquivalences:
    def test_fast_convolution_matches_dense(self):
        grid = Grid((16, 16), (1.0, 1.0))
        spec = KernelSpec("gaussian", scale=0.15)
        K = spec.matrix(grid)
        K_dense = dense_kernel(K)
        r = np.random.default_rng(np.random.Philox(11))
        for _ in range(10):
            u = r.uniform(-1.0, 1.0, grid.n_cells)
            assert np.max(np.abs(K.apply_values(u) - K_dense @ u)) <= 1e-10

    def test_dual_quadrature_energy(self):
        P = log_potential()
        gamma = 0.02
        M = ch_model(gamma=gamma)
        grid = Grid((16,), (1.0,))
        h = grid.spacing[0]
        r = np.random.default_rng(np.random.Philox(12))
        vals = r.uniform(-0.6, 0.6, 16)
        phi = Field(grid, vals)

        def a_of(s):
            return 1.0 + 0.5 * s * s

        def f_of(s):
            return float(P.F(s)) - 0.5 * P.theta0 * s * s

        same = 0.0
        for k in range(1, 16):
            gk = (vals[k] - vals[k - 1]) / h
            ak = 0.5 * (a_of(vals[k]) + a_of(vals[k - 1]))
            same += 0.5 * gamma * ak * gk * gk * h
        for k in range(16):
            same += f_of(vals[k]) * h
        assert energy(M, phi) == pytest.approx(same, abs=1e-12)

        nodes = np.concatenate([[vals[0]], 0.5 * (vals[1:] + vals[:-1]), [vals[-1]]])
        dnode = np.concatenate([[0.0], (vals[1:] - vals[:-1]) / h, [0.0]])
        integrand = 0.5 * gamma * a_of(nodes) * dnode ** 2 \
            + np.array([f_of(s) for s in nodes])
        alt = float(np.trapezoid(integrand, dx=h))
        assert energy(M, phi) == pytest.approx(alt, rel=0.05, abs=0.05 * abs(alt) + 1e-3)
        print("[criterion 11] PASS fast convolution within 1e-10 of the dense "
              "matrix; energy matches longhand re-sum (1e-12) and alternate "
              "quadrature (5%)")
