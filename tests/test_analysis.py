"""Analysis-layer tests on synthetic traces with analytic oracles."""

import numpy as np
import pytest

from phaselab import (
    DiffusionSpec,
    Field,
    Grid,
    MobilitySpec,
    ModelConfig,
    PotentialSpec,
    conserved_allen_cahn,
)
from phaselab.analysis import (
    classify_good_times,
    degiorgi_from_trajectory,
    degiorgi_predict,
    degiorgi_sequences,
    degiorgi_threshold,
    integrability_check,
    level_set_series,
    lojasiewicz_fit,
    omega_limit_estimate,
)
from phaselab.errors import (
    BoundViolationError,
    ConditionNotMetError,
    DegenerateWindowError,
    InsufficientSnapshotsError,
    WindowOutOfRangeError,
)

from phaselab.stationary import equilibrium_seeds
from conftest import make_synthetic_trajectory


def rng(seed=0):
    return np.random.default_rng(np.random.Philox(seed))


class TestGoodTimes:
    def test_exponential_trace_bad_measure(self):
        # |grad mu| = exp(-t) exceeds M = 1/2 exactly on [0, ln 2)
        t = np.linspace(0.0, 20.0, 20001)
        traj = make_synthetic_trajectory(t, grad_mu=np.exp(-t), e0=10.0)
        gts = classify_good_times(traj, M=0.5, T=0.0)
        assert gts.bad_measure == pytest.approx(np.log(2.0), abs=1e-3)
        assert gts.bound == pytest.approx(10.0 / 0.25, abs=1e-12)
        assert gts.ok

    def test_constant_small_trace_all_good(self):
        t = np.linspace(0.0, 5.0, 101)
        traj = make_synthetic_trajectory(t, grad_mu=np.full_like(t, 0.1), e0=1.0)
        gts = classify_good_times(traj, M=1.0)
        assert gts.bad_measure == 0.0
        assert np.all(gts.mask)

    def test_mask_monotone_in_M(self):
        t = np.linspace(0.0, 10.0, 501)
        traj = make_synthetic_trajectory(t, grad_mu=np.exp(-t) * 3.0, e0=50.0)
        small = classify_good_times(traj, M=0.5)
        large = classify_good_times(traj, M=2.0)
        assert np.all(large.mask[small.mask])  # good(M1) subset good(M2)

    def test_ac_uses_fluctuation_norm_and_bound(self):
        t = np.linspace(0.0, 10.0, 1001)
        traj = make_synthetic_trajectory(
            t, mu_fluct=np.exp(-t), e0=4.0, m_star=0.25, norm_kind="mu_fluct")
        gts = classify_good_times(traj, M=0.5)
        assert gts.norm_kind == "mu_fluct"
        assert gts.bound == pytest.approx(4.0 / 0.25, abs=1e-12)  # no m_star
        assert gts.bad_measure == pytest.approx(np.log(2.0), abs=1e-2)

    def test_bound_violation_raises(self):
        t = np.linspace(0.0, 10.0, 101)
        traj = make_synthetic_trajectory(t, grad_mu=np.full_like(t, 2.0), e0=1e-6)
        with pytest.raises(BoundViolationError):
            classify_good_times(traj, M=1.0)
        gts = classify_good_times(traj, M=1.0, strict=False)
        assert not gts.ok

    def test_window_start(self):
        t = np.linspace(0.0, 10.0, 1001)
        traj = make_synthetic_trajectory(t, grad_mu=np.exp(-t), e0=10.0)
        gts = classify_good_times(traj, M=0.5, T=5.0)
        assert gts.bad_measure == 0.0  # exp(-t) < 0.5 for t >= 5
        assert not np.any(gts.mask[t < 5.0])


class TestLevelSets:
    def make_traj(self, margin=0.5):
        grid = Grid((10,), (1.0,))
        t = np.linspace(0.0, 10.0, 201)
        snaps = [(tt, Field.constant(grid, 0.5)) for tt in t[::20]]
        return make_synthetic_trajectory(
            t, grid=grid, sep_margin=np.full_like(t, margin), snapshots=snaps)

    def test_constant_half_series(self):
        traj = self.make_traj()
        rep = level_set_series(traj, delta=0.1)
        assert np.all(rep.measures == 0.0)
        assert rep.delta_star >= 0.4999

    def test_half_cells_at_level(self):
        grid = Grid((10,), (1.0,))
        vals = np.where(np.arange(10) < 5, 0.99, 0.0)
        t = np.array([0.0, 1.0])
        traj = make_synthetic_trajectory(
            t, grid=grid, snapshots=[(0.0, Field(grid, vals)), (1.0, Field(grid, vals))],
            sep_margin=np.full(2, 0.01))
        rep = level_set_series(traj, delta=0.05)
        assert np.allclose(rep.measures, 0.5)  # half the unit domain

    def test_monotone_in_delta(self):
        grid = Grid((16,), (1.0,))
        r = rng(1)
        vals = r.uniform(-0.99, 0.99, 16)
        t = np.array([0.0, 1.0])
        traj = make_synthetic_trajectory(
            t, grid=grid, snapshots=[(0.0, Field(grid, vals)), (1.0, Field(grid, vals))])
        sizes = [level_set_series(traj, d).measures[0] for d in (0.05, 0.2, 0.5)]
        assert sizes[0] <= sizes[1] <= sizes[2]

    def test_requires_snapshots(self):
        traj = self.make_traj()
        traj.snapshots = []
        with pytest.raises(InsufficientSnapshotsError):
            level_set_series(traj, 0.1)

    def test_overshoot_run_level_set_decays(self, ac_overshoot_run):
        # data start beyond the limiting plateau, so the near-pure set has
        # positive measure initially and must empty out as the flow settles
        traj = ac_overshoot_run
        rep = level_set_series(traj, delta=1e-3)
        assert rep.measures[0] > 0.0
        assert rep.measures[-1] == 0.0
        thirds = np.array_split(rep.measures, 3)
        means = [seg.mean() for seg in thirds]
        assert means[0] >= means[1] >= means[2]
        assert rep.delta_star > 1e-3
        assert traj.sep_margin[-1] >= rep.delta_star


class TestDeGiorgiSequences:
    def test_level_and_time_ladders(self):
        delta, tau, T = 0.1, 0.5, 10.0
        k, t = degiorgi_sequences(delta, tau, T, n_max=20)
        assert k[0] == pytest.approx(1.0 - 2 * delta, abs=1e-15)
        assert np.all(np.diff(k) > 0)
        assert np.all(k[1:] > 1.0 - 2 * delta) and np.all(k < 1.0 - delta)
        assert t[0] == pytest.approx(T - 3 * tau, abs=1e-15)
        assert np.all(np.diff(t) > 0)
        assert np.all(t < T - tau + 1e-15)

    def test_threshold_formula(self):
        assert degiorgi_threshold(1.0, 2.0, 1.0) == pytest.approx(0.5, abs=1e-15)
        # log-space evaluation survives extreme exponents
        assert degiorgi_threshold(0.1, 4.0, 0.05) > 0.0

    def test_equality_recursion_meets_bound(self):
        # y_{n+1} = 2^n y_n^2 from y_0 = 1/2 gives y_n = 2^{-(n+1)} exactly
        C, b, eps, y0 = 1.0, 2.0, 1.0, 0.5
        bounds = degiorgi_predict(y0, C, b, eps, np.arange(12))
        y = y0
        for n in range(12):
            assert abs(y - bounds[n]) <= 1e-14
            y = C * b**n * y ** (1 + eps)

    def test_condition_not_met(self):
        with pytest.raises(ConditionNotMetError):
            degiorgi_predict(0.6, 1.0, 2.0, 1.0, 3)

    def test_randomized_recursions_never_violate(self):
        r = rng(2)
        for trial in range(100):
            C = float(r.uniform(0.1, 10.0))
            b = float(r.uniform(1.0 + 1e-6, 4.0))
            eps = float(r.uniform(0.05, 2.0))
            theta = degiorgi_threshold(C, b, eps)
            y0 = theta * float(r.uniform(0.0, 1.0))
            bounds = degiorgi_predict(y0, C, b, eps, np.arange(25))
            y = y0
            for n in range(25):
                assert y <= bounds[n] * (1.0 + 1e-12), (trial, n)
                y = float(r.uniform(0.0, 1.0)) * C * b**n * y ** (1 + eps)


class TestDeGiorgiFromTrajectory:
    def make_traj(self, field_vals, t_end=10.0, n_snaps=41):
        grid = Grid((len(field_vals),), (1.0,))
        times = np.linspace(0.0, t_end, 201)
        snap_times = np.linspace(0.0, t_end, n_snaps)
        f = Field(grid, np.asarray(field_vals, dtype=float))
        snaps = [(tt, f) for tt in snap_times]
        return make_synthetic_trajectory(times, grid=grid, snapshots=snaps)

    def test_separated_trajectory_all_zero(self):
        delta = 0.2
        vals = np.full(8, 1.0 - 2.5 * delta)  # below k_0 = 1 - 2 delta
        traj = self.make_traj(vals)
        it = degiorgi_from_trajectory(traj, delta, tau_tilde=1.0, T=9.0, n_max=8)
        assert it.y[0] == 0.0
        assert np.all(it.y == 0.0)
        assert it.certified

    def test_single_hot_cell_never_decays(self):
        # one cell pinned at 1 - delta/2 > all levels k_n: y_n stays positive
        delta = 0.2
        vals = np.zeros(8)
        vals[3] = 1.0 - delta / 2.0
        traj = self.make_traj(vals)
        it = degiorgi_from_trajectory(traj, delta, tau_tilde=1.0, T=9.0, n_max=10)
        cell = 1.0 / 8.0
        for n, yn in enumerate(it.y):
            interval = 9.0 - it.t_times[n]
            assert yn == pytest.approx(cell * interval, rel=1e-12)
        assert not it.certified
        assert np.all(np.diff(it.y) <= 0.0)  # nested sets

    def test_negative_side(self):
        delta = 0.2
        vals = np.zeros(8)
        vals[2] = -(1.0 - delta / 2.0)
        traj = self.make_traj(vals)
        pos = degiorgi_from_trajectory(traj, delta, 1.0, 9.0, n_max=4, sign=+1)
        neg = degiorgi_from_trajectory(traj, delta, 1.0, 9.0, n_max=4, sign=-1)
        assert pos.certified
        assert not neg.certified

    def test_window_validation(self):
        traj = self.make_traj(np.zeros(8))
        with pytest.raises(WindowOutOfRangeError):
            degiorgi_from_trajectory(traj, 0.2, tau_tilde=5.0, T=9.0)
        with pytest.raises(InsufficientSnapshotsError):
            degiorgi_from_trajectory(self.make_traj(np.zeros(8), n_snaps=3),
                                     0.2, 1.0, 9.0)


class TestIntegrability:
    def test_exponential_passes_with_unit_integral(self):
        t = np.linspace(0.0, 30.0, 30001)
        rep = integrability_check(t, np.exp(-t), alpha_tilde=1.5, zeta=2.0 ** -1.5)
        assert rep.hypothesis_holds
        assert rep.integral == pytest.approx(1.0, abs=1e-6)

    def test_slow_decay_rejected_with_location(self):
        t = np.linspace(0.0, 30.0, 30001)
        rep = integrability_check(t, 1.0 / (1.0 + t), alpha_tilde=1.5, zeta=2.0 ** -1.5)
        assert not rep.hypothesis_holds
        assert rep.violation_time is not None
        assert rep.integral is None

    def test_zero_trace(self):
        t = np.linspace(0.0, 5.0, 101)
        rep = integrability_check(t, np.zeros_like(t), 1.5, 1.0)
        assert rep.hypothesis_holds
        assert rep.integral == 0.0

    def test_compact_support_exact_quadrature(self):
        # ramp supported on [0, 1]: tail(s) = (1-s)^3/3 <= zeta (1-s)^2 for
        # zeta >= 3^{-1.5}, and identically 0 = 0 past the support
        t = np.linspace(0.0, 10.0, 10001)
        Z = np.clip(1.0 - t, 0.0, None)
        rep = integrability_check(t, Z, alpha_tilde=1.5, zeta=1.0)
        assert rep.hypothesis_holds
        assert rep.integral == pytest.approx(0.5, abs=1e-6)

    def test_invalid_exponent(self):
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            integrability_check(t, np.ones_like(t), alpha_tilde=2.5, zeta=1.0)

    @pytest.mark.parametrize("where", ["times", "values"])
    def test_non_finite_trace_is_rejected(self, where):
        # a NaN compares false everywhere, so it would pass the hypothesis check
        t = np.linspace(0.0, 1.0, 11)
        Z = np.exp(-t)
        (t if where == "times" else Z)[5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            integrability_check(t, Z, alpha_tilde=1.5, zeta=1.0)


class TestLojasiewiczFit:
    def exp_synthetic(self, lam=1.0):
        t = np.linspace(0.0, 20.0, 2001)
        gap = np.exp(-lam * t)
        norm = np.exp(-lam * t / 2.0)
        traj = make_synthetic_trajectory(t, grad_mu=norm, energy=gap, e0=None)
        gts = classify_good_times(traj, M=10.0, strict=False)
        return traj, gts

    def test_exponential_gives_half(self):
        traj, gts = self.exp_synthetic()
        fit = lojasiewicz_fit(traj, gts, e_inf=0.0)
        assert fit.theta == pytest.approx(0.5, abs=0.02)
        assert fit.r2 > 0.999

    def test_algebraic_gives_quarter(self):
        t = np.linspace(1.0, 100.0, 5001)
        traj = make_synthetic_trajectory(t, grad_mu=t ** -3.0, energy=t ** -4.0)
        gts = classify_good_times(traj, M=10.0, strict=False)
        fit = lojasiewicz_fit(traj, gts, e_inf=0.0)
        assert fit.theta == pytest.approx(0.25, abs=0.02)

    def test_affine_time_reparameterization_invariant(self):
        traj, gts = self.exp_synthetic()
        fit1 = lojasiewicz_fit(traj, gts, e_inf=0.0)
        t2 = 7.0 + 3.0 * traj.times
        traj2 = make_synthetic_trajectory(t2, grad_mu=traj.grad_mu_l2,
                                          energy=traj.energy)
        gts2 = classify_good_times(traj2, M=10.0, strict=False)
        fit2 = lojasiewicz_fit(traj2, gts2, e_inf=0.0)
        assert fit2.theta == pytest.approx(fit1.theta, abs=1e-12)

    def test_degenerate_window(self):
        t = np.linspace(0.0, 1.0, 12)
        traj = make_synthetic_trajectory(t, grad_mu=np.exp(-t), energy=np.exp(-t))
        gts = classify_good_times(traj, M=10.0, strict=False)
        with pytest.raises(DegenerateWindowError):
            lojasiewicz_fit(traj, gts, e_inf=0.0, window=(0.99, 1.0))

    def test_theta_clipped_to_upper_half(self):
        # gap ~ norm^1 exactly would give slope 1 (theta -> 0 edge); gap ~ norm^3
        # gives slope 3 => theta = 2/3, clipped to 1/2
        t = np.linspace(0.0, 20.0, 2001)
        gap = np.exp(-3.0 * t)
        norm = np.exp(-t)
        traj = make_synthetic_trajectory(t, grad_mu=norm, energy=gap)
        gts = classify_good_times(traj, M=10.0, strict=False)
        fit = lojasiewicz_fit(traj, gts, e_inf=0.0)
        assert fit.theta == 0.5


class TestOmegaLimit:
    def test_interleaved_constants_dispersion(self):
        grid = Grid((16,), (2.0,))
        t = np.linspace(0.0, 100.0, 201)
        snaps = []
        for i, tt in enumerate(t[::5]):
            c = 0.1 if i % 2 == 0 else 0.2
            snaps.append((tt, Field.constant(grid, c)))
        traj = make_synthetic_trajectory(t, grid=grid, snapshots=snaps)
        est = omega_limit_estimate(traj, None, n_reps=6, tol=1e-3)
        # |0.1 - 0.2| * sqrt(|Omega|) with |Omega| = 2
        assert est.dispersion == pytest.approx(0.1 * np.sqrt(2.0), rel=1e-12)
        assert not est.singleton

    def test_already_at_equilibrium(self):
        grid = Grid((16,), (1.0,))
        t = np.linspace(0.0, 10.0, 101)
        f = Field.constant(grid, 0.3)
        snaps = [(tt, f) for tt in t[::10]]
        traj = make_synthetic_trajectory(t, grid=grid, snapshots=snaps)
        est = omega_limit_estimate(traj, None, n_reps=4, tol=1e-8)
        assert est.dispersion == 0.0
        assert est.singleton

    def test_failed_polish_records_why(self):
        # gamma = 0, sigma1 = 1 without a kernel: from a layer profile the psi
        # Newton exhausts its damping, and the estimate says so
        P = PotentialSpec.logarithmic(0.3, 1.0)
        M = ModelConfig(1, 0, 0, 1, 0, P, MobilitySpec.constant(1.0), DiffusionSpec.constant(1.0))
        grid = Grid((64,), (1.0,))
        layer = dict(equilibrium_seeds(grid, 0.1, potential=P))["tanh_mid"]
        t = np.linspace(0.0, 10.0, 101)
        traj = make_synthetic_trajectory(t, grid=grid, snapshots=[(tt, layer) for tt in t[::10]])
        est = omega_limit_estimate(traj, None, n_reps=4, tol=1e-8, model=M)
        assert est.nearest_eq is None and est.nearest_delta is None
        assert est.polish_error == "stationary damping exhausted"
        est = omega_limit_estimate(traj, None, n_reps=4, tol=1e-8,
                                   model=conserved_allen_cahn(P, beta=1.0, gamma=1e-3))
        assert est.nearest_eq is not None and est.polish_error is None

    def test_insufficient_snapshots(self):
        grid = Grid((8,), (1.0,))
        t = np.linspace(0.0, 10.0, 11)
        traj = make_synthetic_trajectory(
            t, grid=grid, snapshots=[(10.0, Field.constant(grid, 0.0))])
        with pytest.raises(InsufficientSnapshotsError):
            omega_limit_estimate(traj, None, n_reps=4, tol=1e-3)
