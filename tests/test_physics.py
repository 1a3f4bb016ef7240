"""Potential contracts, chemical potential, energies, dissipation."""

import warnings

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
    cahn_hilliard,
    chemical_potential,
    conserved_allen_cahn,
    dissipation_rate,
    energy,
    inner,
    nonlocal_cahn_hilliard,
)
from phaselab.errors import PotentialDomainError, ValidationError
from conftest import dense_kernel


def rng(seed=0):
    return np.random.default_rng(np.random.Philox(seed))


def log_potential(theta=0.3, theta0=1.0):
    return PotentialSpec.logarithmic(theta, theta0)


class TestPotential:
    def test_f_zero_at_origin(self):
        P = PotentialSpec.logarithmic(1.0, 2.0)
        assert P.F(0.0) == 0.0

    def test_value_at_pure_phase(self):
        # continuous extension: F(+-1) = theta * ln 2
        P = PotentialSpec.logarithmic(2.0, 3.0)
        assert P.F(1.0) == pytest.approx(2.0 * np.log(2.0), abs=1e-12)
        assert P.F(-1.0) == pytest.approx(2.0 * np.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("theta", [0.3, 2.0])
    def test_value_at_pure_phase_is_exact_and_silent(self, theta):
        P = PotentialSpec.logarithmic(theta, theta + 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = [P.F(1.0), P.F(-1.0), *P.F(np.array([1.0, -1.0, 0.0]))]
        assert values == [theta * np.log(2.0)] * 4 + [0.0]

    def test_F_matches_xlogy_oracle(self):
        from scipy.special import xlogy

        theta = 0.3
        P = PotentialSpec.logarithmic(theta, 1.0)
        s = rng(21).uniform(-1.0, 1.0, 100_000)
        a, b = xlogy(1.0 + s, 1.0 + s), xlogy(1.0 - s, 1.0 - s)
        # the bound is relative to the two terms: near s = 0 they cancel to
        # ~s^2, and one ulp of either logarithm is then far more than one of F
        size = 0.5 * theta * (np.abs(a) + np.abs(b))
        assert np.all(np.abs(P.F(s) - 0.5 * theta * (a + b)) <= 1e-15 * size)

    def test_first_derivative_closed_form(self):
        P = PotentialSpec.logarithmic(1.0, 2.0)
        assert P.dF(0.5) == pytest.approx(0.5 * np.log(3.0), abs=1e-14)

    def test_second_derivative_minimum(self):
        P = PotentialSpec.logarithmic(1.0, 2.0)
        assert P.d2F(0.0) == pytest.approx(1.0, abs=1e-14)

    def test_convexity_floor_everywhere(self):
        P = PotentialSpec.logarithmic(0.25, 1.0)
        s = np.linspace(-0.999, 0.999, 1001)
        assert np.all(P.d2F(s) >= 0.25)

    def test_domain_errors(self):
        P = PotentialSpec.logarithmic(1.0, 2.0)
        with pytest.raises(PotentialDomainError):
            P.dF(1.0)
        with pytest.raises(PotentialDomainError):
            P.F(1.5)

    def test_public_evaluations_keep_domain_checks(self):
        P = PotentialSpec.logarithmic(0.3, 1.0)
        for fn in (P.dF, P.d2F, P.d2F_checked):
            with pytest.raises(PotentialDomainError):
                fn(1.0)
        with pytest.raises(PotentialDomainError):
            P.F(np.array([0.0, -1.0 - 1e-12]))
        grid = Grid((8,), (1.0,))
        M = conserved_allen_cahn(P, beta=1.0, gamma=0.01)
        with pytest.raises(PotentialDomainError):
            chemical_potential(M, Field(grid, np.r_[np.full(7, 0.1), 1.0]))
        with pytest.raises(PotentialDomainError):
            energy(M, Field(grid, np.r_[np.full(7, 0.1), 1.5]))

    def test_custom_inverse_dF_bisects_to_the_closed_form(self):
        ref = PotentialSpec.logarithmic(0.5, 1.0)
        P = PotentialSpec.custom(0.5, 1.0, f0=ref._log0, f1=ref._log1, f2=ref._log2)
        psi = np.array([[-5.0, -1.0, -0.2], [0.0, 1e-3, 2.5]])
        got = P.inverse_dF(psi)
        assert got.shape == psi.shape
        assert np.allclose(got, ref.inverse_dF(psi), rtol=0, atol=2e-15)
        assert isinstance(P.inverse_dF(0.3), float)
        # beyond F' at the guard, the guard itself
        assert P.inverse_dF(100.0) == 1.0 - P.eps_guard
        assert P.inverse_dF(-100.0) == -1.0 + P.eps_guard

    def test_custom_potential_battery_accepts_equivalent_log(self):
        theta = 0.5
        ref = PotentialSpec.logarithmic(theta, 1.0)
        P = PotentialSpec.custom(
            theta, 1.0,
            f0=ref._log0, f1=ref._log1, f2=ref._log2,
        )
        assert P.dF(0.5) == ref.dF(0.5)

    def test_custom_potential_battery_rejects_polynomial(self):
        # quartic double well has bounded derivative: no singular barrier
        with pytest.raises(ValidationError):
            PotentialSpec.custom(
                0.5, 1.0,
                f0=lambda s: np.asarray(s) ** 4,
                f1=lambda s: 4.0 * np.asarray(s) ** 3,
                f2=lambda s: 12.0 * np.asarray(s) ** 2,
            )

    def test_custom_potential_battery_rejects_wrong_floor(self):
        ref = PotentialSpec.logarithmic(0.1, 1.0)
        with pytest.raises(ValidationError):
            PotentialSpec.custom(0.5, 1.0, f0=ref._log0, f1=ref._log1, f2=ref._log2)

    def test_theta_ordering_enforced(self):
        with pytest.raises(ValidationError):
            PotentialSpec.logarithmic(1.0, 0.5)


class TestCoefficientSpecs:
    def test_mobility_floor_enforced(self):
        with pytest.raises(ValidationError):
            MobilitySpec.polynomial([0.5, 0.0, -0.5], m_star=0.5)  # m(1) = 0

    def test_diffusion_derivative_consistency(self):
        with pytest.raises(ValidationError):
            DiffusionSpec(
                lambda s: 1.0 + np.asarray(s) ** 2,
                lambda s: np.zeros_like(np.asarray(s, dtype=float)),  # wrong a'
                a_star=1.0,
            )


class TestPresets:
    def test_preset_constant_tables(self):
        P = log_potential()
        mob = MobilitySpec.constant(1.0)
        dif = DiffusionSpec.constant(1.0)
        ch = cahn_hilliard(P, mob, dif, alpha=1.0, gamma=0.5)
        assert (ch.alpha > 0 and ch.beta == 0 and ch.gamma > 0
                and ch.sigma1 == 1 and ch.sigma2 == 0)
        ac = conserved_allen_cahn(P, beta=2.0, gamma=0.5)
        assert (ac.alpha == 0 and ac.beta > 0 and ac.gamma > 0
                and ac.sigma1 == 1 and ac.sigma2 == 0)
        assert ac.diffusion.is_constant and ac.diffusion.constant_value == 1.0
        nl = nonlocal_cahn_hilliard(P, mob, KernelSpec("gaussian", 0.1))
        assert (nl.alpha > 0 and nl.beta == 0 and nl.gamma == 0
                and nl.sigma1 == 0 and nl.sigma2 == 1)

    def test_model_requires_driving_term(self):
        P = log_potential()
        with pytest.raises(ValidationError):
            ModelConfig(0.0, 0.0, 1.0, 1, 0, P,
                        MobilitySpec.constant(), DiffusionSpec.constant())

    def test_kernel_required_for_nonlocal(self):
        P = log_potential()
        with pytest.raises(ValidationError):
            ModelConfig(1.0, 0.0, 0.0, 0, 1, P,
                        MobilitySpec.constant(), DiffusionSpec.constant())

    def test_dissipation_norm_kinds(self):
        P = log_potential()
        assert cahn_hilliard(P, MobilitySpec.constant(), DiffusionSpec.constant(),
                             gamma=0.1).dissipation_norm == "grad_mu"
        assert conserved_allen_cahn(P).dissipation_norm == "mu_fluct"


class TestChemicalPotential:
    def test_ac_constant_field_constant_mu(self):
        P = log_potential()
        M = conserved_allen_cahn(P, beta=1.0, gamma=1e-3)
        grid = Grid((32,), (1.0,))
        c = 0.2
        mu = chemical_potential(M, Field.constant(grid, c))
        expected = float(P.dF(c)) - P.theta0 * c
        assert np.allclose(mu.data, expected, atol=1e-15)
        assert np.ptp(mu.data) == 0.0

    def test_ch_with_unit_diffusion_matches_ac(self):
        P = log_potential()
        gamma = 2e-3
        ch = cahn_hilliard(P, MobilitySpec.constant(1.0), DiffusionSpec.constant(1.0),
                           alpha=1.0, gamma=gamma)
        ac = conserved_allen_cahn(P, beta=1.0, gamma=gamma)
        grid = Grid((24,), (1.0,))
        phi = Field(grid, 0.4 * np.sin(2 * np.pi * grid.axes()[0]))
        mu1 = chemical_potential(ch, phi)
        mu2 = chemical_potential(ac, phi)
        assert np.max(np.abs(mu1.data - mu2.data)) <= 1e-14

    def test_nonlocal_literal_form_brute_force(self):
        # literal convolution form: mu_i = F'(phi_i) - sum_j K[i][j] phi_j
        P = log_potential()
        ker = KernelSpec("gaussian", scale=0.2)
        M = nonlocal_cahn_hilliard(P, MobilitySpec.constant(1.0), ker,
                                   nonlocal_consistency=False)
        grid = Grid((8,), (1.0,))
        phi = Field(grid, rng(1).uniform(-0.9, 0.9, 8))
        K = dense_kernel(ker.matrix(grid))
        oracle = np.array([
            float(P.dF(phi.data[i])) - sum(K[i, j] * phi.data[j] for j in range(8))
            for i in range(8)
        ])
        mu = chemical_potential(M, phi)
        assert np.max(np.abs(mu.data - oracle)) <= 1e-12

    def test_consistency_flag_changes_by_row_sum_term(self):
        P = log_potential()
        ker = KernelSpec("gaussian", scale=0.2)
        M_on = nonlocal_cahn_hilliard(P, MobilitySpec.constant(1.0), ker)
        M_off = nonlocal_cahn_hilliard(P, MobilitySpec.constant(1.0), ker,
                                       nonlocal_consistency=False)
        grid = Grid((16,), (1.0,))
        phi = Field(grid, rng(2).uniform(-0.5, 0.5, 16))
        w = ker.matrix(grid).row_sums
        diff = chemical_potential(M_on, phi).data - chemical_potential(M_off, phi).data
        assert np.allclose(diff, w * phi.data, atol=1e-14)


class TestEnergy:
    def test_ac_constant(self):
        P = log_potential()
        M = conserved_allen_cahn(P, beta=1.0, gamma=1e-3)
        grid = Grid((32,), (1.0,))
        c = 0.3
        expected = float(P.F(c)) - 0.5 * P.theta0 * c * c
        assert energy(M, Field.constant(grid, c)) == pytest.approx(expected, abs=1e-14)

    def test_nonlocal_constant(self):
        P = log_potential()
        ker = KernelSpec("gaussian", scale=0.15)
        M = nonlocal_cahn_hilliard(P, MobilitySpec.constant(1.0), ker)
        grid = Grid((32,), (2.0,))
        c = 0.25
        # double-integral term vanishes for constants
        expected = float(P.F(c)) * grid.volume
        assert energy(M, Field.constant(grid, c)) == pytest.approx(expected, abs=1e-13)

    def test_nonlocal_double_sum_identity(self):
        P = log_potential()
        ker = KernelSpec("gaussian", scale=0.2)
        M = nonlocal_cahn_hilliard(P, MobilitySpec.constant(1.0), ker)
        grid = Grid((12,), (1.0,))
        phi = Field(grid, rng(3).uniform(-0.8, 0.8, 12))
        K = dense_kernel(ker.matrix(grid))
        vol = grid.cell_volume
        brute = 0.25 * sum(
            K[i, j] * (phi.data[i] - phi.data[j]) ** 2
            for i in range(12) for j in range(12)
        ) * vol + float(np.sum(P.F(phi.data))) * vol
        assert energy(M, phi) == pytest.approx(brute, rel=1e-12)

    def test_ch_dual_quadrature_oracle(self):
        # same-rule literal re-sum to 1e-12; alternate node-based trapezoid to 5%
        P = log_potential()
        dif = DiffusionSpec.polynomial([1.0, 0.0, 0.5], a_star=1.0)  # a = 1 + s^2/2
        gamma = 0.02
        M = cahn_hilliard(P, MobilitySpec.constant(1.0), dif, alpha=1.0, gamma=gamma)
        grid = Grid((16,), (1.0,))
        h = grid.spacing[0]
        vals = rng(4).uniform(-0.6, 0.6, 16)
        phi = Field(grid, vals)

        def a_of(s):
            return 1.0 + 0.5 * s * s

        def f_of(s):
            return float(P.F(s)) - 0.5 * P.theta0 * s * s

        # same discretization, written out longhand
        same = 0.0
        for k in range(1, 16):  # interior faces
            gk = (vals[k] - vals[k - 1]) / h
            ak = 0.5 * (a_of(vals[k]) + a_of(vals[k - 1]))
            same += 0.5 * gamma * ak * gk * gk * h
        for k in range(16):
            same += f_of(vals[k]) * h
        assert energy(M, phi) == pytest.approx(same, abs=1e-12)

        # alternate rule: trapezoid on nodal (linearly interpolated) values
        nodes = np.concatenate([[vals[0]], 0.5 * (vals[1:] + vals[:-1]), [vals[-1]]])
        dnode = np.concatenate([[0.0], (vals[1:] - vals[:-1]) / h, [0.0]])
        integrand = 0.5 * gamma * a_of(nodes) * dnode**2 + \
            np.array([f_of(s) for s in nodes])
        alt = np.trapezoid(integrand, dx=h)
        assert energy(M, phi) == pytest.approx(alt, rel=0.05, abs=0.05 * abs(alt) + 1e-3)


class TestDissipation:
    def test_equilibrium_zero(self):
        P = log_potential()
        M = conserved_allen_cahn(P, beta=1.0, gamma=1e-3)
        grid = Grid((16,), (1.0,))
        phi = Field.constant(grid, 0.2)
        mu = chemical_potential(M, phi)
        assert dissipation_rate(M, phi, mu) == 0.0

    def test_zero_when_alpha_beta_zero(self):
        # degenerate constants are rejected at model build; emulate by hand
        P = log_potential()
        M = ModelConfig(1.0, 0.0, 1e-3, 1, 0, P, MobilitySpec.constant(1.0),
                        DiffusionSpec.constant(1.0))
        M.alpha = 0.0
        grid = Grid((8,), (1.0,))
        phi = Field(grid, rng(5).uniform(-0.5, 0.5, 8))
        mu = chemical_potential(M, phi)
        assert dissipation_rate(M, phi, mu) == 0.0

    def test_linear_ramp_hand_sum(self):
        # mu = c x on 4 cells, m from face means; only interior faces carry flux
        P = log_potential()
        mob = MobilitySpec.polynomial([1.0, 0.5], m_star=0.5)  # m = 1 + s/2
        M = cahn_hilliard(P, mob, DiffusionSpec.constant(1.0), alpha=2.0, gamma=1e-3)
        grid = Grid((4,), (1.0,))
        h = grid.spacing[0]
        phi_vals = np.array([-0.4, -0.1, 0.2, 0.4])
        slope = 3.0
        mu = Field(grid, slope * grid.axes()[0])
        hand = 0.0
        for k in range(1, 4):
            m_face = 0.5 * ((1 + 0.5 * phi_vals[k]) + (1 + 0.5 * phi_vals[k - 1]))
            hand += m_face * slope**2 * h
        hand *= 2.0  # alpha
        assert dissipation_rate(M, Field(grid, phi_vals), mu) == pytest.approx(hand, rel=1e-14)


class TestVariationalConsistency:
    """The central correctness property: mu is the exact first variation."""

    def make_models(self):
        P = log_potential()
        mob = MobilitySpec.polynomial([1.0, 0.0, -0.5], m_star=0.5)
        dif = DiffusionSpec.polynomial([1.0, 0.0, 0.5], a_star=1.0)
        ker = KernelSpec("gaussian", scale=0.15)
        return {
            "CH_NONLINEAR": cahn_hilliard(P, mob, dif, alpha=1.0, gamma=0.02),
            "CONSERVED_AC": conserved_allen_cahn(P, beta=1.0, gamma=0.02),
            "NONLOCAL_CH": nonlocal_cahn_hilliard(P, mob, ker),
        }

    @pytest.mark.parametrize("shape", [(32,), (16, 16)])
    def test_energy_gradient_matches(self, shape):
        grid = Grid(shape, tuple(1.0 for _ in shape))
        r = rng(6)
        eps = 1e-5
        for name, M in self.make_models().items():
            for trial in range(5):
                phi = Field(grid, r.uniform(-0.9, 0.9, grid.n_cells))
                v = Field(grid, r.uniform(-1.0, 1.0, grid.n_cells))
                ep = energy(M, Field(grid, phi.data + eps * v.data))
                em = energy(M, Field(grid, phi.data - eps * v.data))
                fd = (ep - em) / (2 * eps)
                ip = inner(chemical_potential(M, phi), v)
                assert abs(fd - ip) <= 1e-5 * max(1.0, abs(ip)), (name, trial)

    def test_literal_nonlocal_form_needs_correction(self):
        P = log_potential()
        ker = KernelSpec("gaussian", scale=0.15)
        M = nonlocal_cahn_hilliard(P, MobilitySpec.constant(1.0), ker,
                                   nonlocal_consistency=False)
        grid = Grid((32,), (1.0,))
        r = rng(7)
        phi = Field(grid, r.uniform(-0.9, 0.9, 32))
        v = Field(grid, r.uniform(-1.0, 1.0, 32))
        eps = 1e-5
        fd = (energy(M, Field(grid, phi.data + eps * v.data))
              - energy(M, Field(grid, phi.data - eps * v.data))) / (2 * eps)
        w = ker.matrix(grid).row_sums
        corrected = chemical_potential(M, phi).data + w * phi.data
        assert abs(fd - inner(Field(grid, corrected), v)) <= 1e-5 * max(1.0, abs(fd))
