"""Potentials, coefficients, model constants, chemical potential, energies.

The general model couples a conserved flux and a mean-subtracted relaxation::

    dphi/dt = alpha * div(m(phi) grad mu) - beta * (mu - mean(mu))
    mu      = -gamma div(a(phi) grad phi) + gamma a'(phi)/2 |grad phi|^2
              + F'(phi) - sigma1 * theta0 * phi - sigma2 * (J * phi)

with zero-flux boundaries.  Three named presets select the cases of interest:
mass-conserving transport with nonlinear diffusion (CH_NONLINEAR), the
conserved relaxation flow (CONSERVED_AC, a == 1), and the convolution-kernel
model (NONLOCAL_CH, gamma = 0).

The convex part of the mixing energy is the singular entropy term F with
F'' >= theta and F' blowing up at the pure phases +-1; the logarithmic form

    F(s) = theta/2 * ((1+s) ln(1+s) + (1-s) ln(1-s)),   F(+-1) = theta ln 2

is built in, and custom potentials are admitted after passing the same
invariant battery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import grid as g
from .errors import PotentialDomainError, ValidationError

PRESET_CH = "CH_NONLINEAR"
PRESET_AC = "CONSERVED_AC"
PRESET_NONLOCAL = "NONLOCAL_CH"

_SAMPLE = np.linspace(-1 + 1e-9, 1 - 1e-9, 4001)
_BELOW_ONE = np.nextafter(1.0, 0.0)


class PotentialSpec:
    """Singular double-obstacle-free entropy F on (-1, 1).

    ``theta`` is the entropy temperature (convexity floor of F''), ``theta0``
    the critical temperature entering the concave decoupling term.  Orders 1
    and 2 are only defined up to the guard distance ``eps_guard`` from the
    pure phases; order 0 extends continuously to the closed interval.
    """

    def __init__(self, theta, theta0, kind="logarithmic", eps_guard=1e-14,
                 f0=None, f1=None, f2=None):
        if theta <= 0:
            raise ValidationError("theta must be positive")
        if theta0 <= theta:
            raise ValidationError("theta0 must exceed theta")
        self.theta = float(theta)
        self.theta0 = float(theta0)
        self.kind = kind
        self.eps_guard = float(eps_guard)
        if kind == "logarithmic":
            self._f0 = self._log0
            self._f1 = self._log1
            self._f2 = self._log2
        elif kind == "custom":
            if not (f0 and f1 and f2):
                raise ValidationError("custom potentials must supply F, F', F''")
            self._f0, self._f1, self._f2 = f0, f1, f2
        else:
            raise ValidationError(f"unknown potential kind {kind!r}")
        self._validate()

    @classmethod
    def logarithmic(cls, theta, theta0, eps_guard=1e-14) -> "PotentialSpec":
        return cls(theta, theta0, "logarithmic", eps_guard)

    @classmethod
    def custom(cls, theta, theta0, f0, f1, f2, eps_guard=1e-14) -> "PotentialSpec":
        return cls(theta, theta0, "custom", eps_guard, f0, f1, f2)

    def _log0(self, s):
        # 2F/theta = 2 a T + log1p(-a^2) below a = |s| = 1/2, 2 log1p(a) - 2 (1 - a) T above
        # (T = atanh(a)): neither cancels on its side, as (1+s) ln(1+s) + (1-s) ln(1-s) does
        # near 0.  T is taken just below 1, so F(+-1) = theta ln 2 exactly and silently.
        a = np.abs(s)
        far = a >= 0.5
        T = np.arctanh(np.minimum(a, _BELOW_ONE))
        return 0.5 * self.theta * (2.0 * (a - far) * T
                                   + (1.0 + far) * np.log1p(np.where(far, a, -a * a)))

    def _log1(self, s):
        return self.theta * np.arctanh(s)

    def _log2(self, s):
        return self.theta / ((1.0 - s) * (1.0 + s))

    def _validate(self):
        # contract battery: F(0)=0, F'(0)=0, F'' >= theta on a dense sample,
        # and F' must diverge approaching the pure phases
        if abs(float(self._f0(0.0))) > 1e-12:
            raise ValidationError("potential must satisfy F(0) = 0")
        if abs(float(self._f1(0.0))) > 1e-12:
            raise ValidationError("potential must satisfy F'(0) = 0")
        d2 = np.asarray(self._f2(_SAMPLE))
        if np.any(d2 < self.theta * (1.0 - 1e-9)):
            raise ValidationError("potential must satisfy F'' >= theta on (-1, 1)")
        probe = 1.0 - 1e-12
        near = abs(float(self._f1(probe)))
        ref = abs(float(self._f1(0.99)))
        if not (near >= 2.0 * ref + self.theta and float(self._f1(probe)) > 0
                and float(self._f1(-probe)) < 0):
            raise ValidationError("F' must diverge to +-inf at the pure phases")
        if self.kind == "logarithmic":
            target = self.theta * np.log(2.0)
            if abs(float(self._f0(1.0)) - target) > 1e-12 * max(1.0, target):
                raise ValidationError("logarithmic potential must have F(+-1) = theta ln 2")

    def _check_domain(self, s, order, peak=None):
        a = np.asarray(s, dtype=float)
        if peak is None:
            peak = float(np.abs(a).max(initial=0.0))
        limit = 1.0 if order == 0 else 1.0 - self.eps_guard
        if peak > limit:
            raise PotentialDomainError(
                f"order-{order} potential evaluation at |s| > {limit}"
            )
        return a

    # ``peak``, where given, is max|s| taken by the caller
    def F(self, s, peak=None):
        return self._f0(self._check_domain(s, 0, peak))

    def dF(self, s, peak=None):
        return self._f1(self._check_domain(s, 1, peak))

    def d2F(self, s):
        return self._f2(self._check_domain(s, 2))

    def d2F_checked(self, s) -> np.ndarray:
        """F''(s), raising ValidationError where it dips below the floor theta.

        The contract battery samples F'' on a fixed grid only; the Jacobians
        rely on the floor at their actual iterates, so they read F'' here.
        """
        d2 = np.asarray(self.d2F(s))
        if float(d2.min()) < self.theta * (1.0 - 1e-9):
            raise ValidationError(
                "F'' dipped below theta during Jacobian assembly; the supplied "
                "potential violates its convexity contract"
            )
        return d2

    def inverse_dF(self, psi):
        """(F')^{-1}: maps all of R strictly inside (-1, 1).

        Closed form tanh(psi/theta) for the logarithmic kind; bisection on
        the guarded interval otherwise (F' is strictly increasing).
        """
        psi = np.asarray(psi, dtype=float)
        if self.kind == "logarithmic":
            return np.tanh(psi / self.theta)
        lo, hi = -1.0 + self.eps_guard, 1.0 - self.eps_guard
        out = bisect(lambda s: self._f1(s) - psi, lo, hi, xtol=1e-15)
        out = np.where(self._f1(lo) >= psi, lo, np.where(self._f1(hi) <= psi, hi, out))
        return out if psi.shape else float(out)


def bisect(f, lo, hi, xtol: float):
    """Elementwise bisection for a root of f where f(lo) < 0 <= f(hi): the
    midpoints once every bracket is at most xtol wide, or after 64 halvings
    (below the float spacing of any bracket inside [-1, 1])."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    for _ in range(64):
        if not (hi - lo > xtol).any():
            break
        mid = 0.5 * (lo + hi)
        neg = f(mid) < 0
        lo, hi = np.where(neg, mid, lo), np.where(neg, hi, mid)
    return 0.5 * (lo + hi)


class MobilitySpec:
    """Non-degenerate mobility m(s) >= m_star > 0 on [-1, 1]."""

    def __init__(self, fn, m_star):
        if m_star <= 0:
            raise ValidationError("m_star must be positive")
        self.fn = fn
        self.m_star = float(m_star)
        sample = np.asarray(fn(np.linspace(-1.0, 1.0, 2001)))
        if np.any(sample < self.m_star * (1.0 - 1e-12)):
            raise ValidationError("mobility dips below its declared m_star")

    @classmethod
    def constant(cls, value=1.0) -> "MobilitySpec":
        v = float(value)
        out = cls(lambda s: np.full_like(np.asarray(s, dtype=float), v), v)
        out.is_constant = True
        out.constant_value = v
        return out

    @classmethod
    def polynomial(cls, coeffs, m_star) -> "MobilitySpec":
        c = np.asarray(coeffs, dtype=float)
        if c.size == 1:
            return cls.constant(c[0])
        return cls(lambda s: np.polynomial.polynomial.polyval(np.asarray(s, dtype=float), c), m_star)

    is_constant: bool = False
    constant_value: float | None = None

    def __call__(self, s):
        return self.fn(s)


class DiffusionSpec:
    """Nonlinear gradient-energy coefficient a(s) >= a_star > 0 with its derivatives
    a' (``dfn``) and a'' (``d2fn``), each checked against differences of the last."""

    def __init__(self, fn, dfn, d2fn, a_star):
        if a_star <= 0:
            raise ValidationError("a_star must be positive")
        self.fn = fn
        self.dfn = dfn
        self.d2fn = d2fn
        self.a_star = float(a_star)
        s = np.linspace(-1.0, 1.0, 2001)
        vals = np.asarray(fn(s))
        if np.any(vals < self.a_star * (1.0 - 1e-12)):
            raise ValidationError("diffusion coefficient dips below its declared a_star")
        h = 1e-5
        inner_pts = s[(np.abs(s) < 1.0 - 2 * h)]
        for name, f, df in (("a'", fn, dfn), ("a''", dfn, d2fn)):
            fd = (np.asarray(f(inner_pts + h)) - np.asarray(f(inner_pts - h))) / (2 * h)
            declared = np.asarray(df(inner_pts))
            scale = np.maximum(1.0, np.abs(declared))
            if np.any(np.abs(fd - declared) > 1e-6 * scale * (1.0 + 1e3 * h)):
                raise ValidationError(f"declared {name} inconsistent with finite differences "
                                      f"of {name[:-1]}")

    @classmethod
    def constant(cls, value=1.0) -> "DiffusionSpec":
        v = float(value)
        out = cls(
            lambda s: np.full_like(np.asarray(s, dtype=float), v),
            lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            lambda s: np.zeros_like(np.asarray(s, dtype=float)),
            v,
        )
        out.is_constant = True
        out.constant_value = v
        return out

    @classmethod
    def polynomial(cls, coeffs, a_star) -> "DiffusionSpec":
        c = np.asarray(coeffs, dtype=float)
        if c.size == 1:
            return cls.constant(c[0])
        dc, d2c = (np.polynomial.polynomial.polyder(c, m) for m in (1, 2))
        return cls(
            lambda s: np.polynomial.polynomial.polyval(np.asarray(s, dtype=float), c),
            lambda s: np.polynomial.polynomial.polyval(np.asarray(s, dtype=float), dc),
            lambda s: np.polynomial.polynomial.polyval(np.asarray(s, dtype=float), d2c),
            a_star,
        )

    is_constant: bool = False
    constant_value: float | None = None

    def __call__(self, s):
        return self.fn(s)


class KernelSpec:
    """Even interaction kernel built from a radial profile J(|x|).

    Evenness is structural (the profile only sees |x|).  Per-grid kernel
    matrices are cached, and so is the numerical ``|grad J|_{L1}`` estimate
    over a compact box containing all cell-center differences, which only
    the separation bound reads and which is computed on its first request.
    """

    def __init__(self, kind="gaussian", scale=0.1, support=None, profile=None):
        self.kind = kind
        self.scale = float(scale)
        if self.scale <= 0:
            raise ValidationError("kernel scale must be positive")
        self.support = float(support) if support is not None else 4.0 * self.scale
        if kind == "gaussian":
            pass
        elif kind == "tophat":
            self.support = float(support) if support is not None else self.scale
        elif kind == "custom":
            if profile is None:
                raise ValidationError("custom kernels must supply a radial profile")
        else:
            raise ValidationError(f"unknown kernel kind {kind!r}")
        self._profile = profile
        self._matrices: dict[g.Grid, g.KernelMatrix] = {}
        self._grad_l1: dict[tuple, float] = {}

    def profile(self, r, dim: int):
        r = np.asarray(r, dtype=float)
        if self.kind == "gaussian":
            s2 = self.scale * self.scale
            norm = (2.0 * np.pi * s2) ** (dim / 2.0)
            out = np.exp(-0.5 * r * r / s2) / norm
            return np.where(r <= self.support, out, 0.0)
        if self.kind == "tophat":
            R = self.support
            vol = 2.0 * R if dim == 1 else np.pi * R * R
            return np.where(r <= R, 1.0 / vol, 0.0)
        return self._profile(r)

    def grad_l1(self, grid: g.Grid) -> float:
        """Numerical |grad J|_{L1} over the box [-L, L]^d of center differences.

        Forward differences on a fine sampling grid; for a kernel with jumps
        this converges to the total variation rather than diverging.
        """
        key = (grid.dim, grid.lengths)
        if key not in self._grad_l1:
            per_axis = 4096 if grid.dim == 1 else 512
            axes = [np.linspace(-L, L, per_axis) for L in grid.lengths]
            steps = [ax[1] - ax[0] for ax in axes]
            if grid.dim == 1:
                r = np.abs(axes[0])
                J = self.profile(r, 1)
                total = float(np.sum(np.abs(np.diff(J))))  # sum |dJ| = int |J'| dx
            else:
                X, Y = np.meshgrid(*axes, indexing="ij")
                J = self.profile(np.sqrt(X * X + Y * Y), 2)
                gx = np.diff(J, axis=0)[:, :-1] / steps[0]
                gy = np.diff(J, axis=1)[:-1, :] / steps[1]
                total = float(np.sum(np.sqrt(gx * gx + gy * gy)) * steps[0] * steps[1])
            self._grad_l1[key] = total
        return self._grad_l1[key]

    def matrix(self, grid: g.Grid) -> g.KernelMatrix:
        if grid not in self._matrices:
            self._matrices[grid] = g.KernelMatrix.from_profile(
                grid, lambda r: self.profile(r, grid.dim))
        return self._matrices[grid]


@dataclass
class ModelConfig:
    """Constants and coefficient specifications of the general model."""

    alpha: float
    beta: float
    gamma: float
    sigma1: int
    sigma2: int
    potential: PotentialSpec
    mobility: MobilitySpec
    diffusion: DiffusionSpec
    kernel: KernelSpec | None = None
    preset: str | None = None

    def __post_init__(self):
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValidationError("alpha, beta, gamma must be non-negative")
        if self.sigma1 not in (0, 1) or self.sigma2 not in (0, 1):
            raise ValidationError("sigma1, sigma2 must be 0 or 1")
        if self.alpha <= 0 and self.beta <= 0:
            raise ValidationError("at least one of alpha, beta must be positive")
        if self.sigma2 == 1 and self.kernel is None:
            raise ValidationError("sigma2 = 1 requires a kernel specification")

    @property
    def dissipation_norm(self) -> str:
        """Diagnostic norm classifying good times: gradient for conserved
        transport, mean-free fluctuation for the relaxation flow."""
        return "grad_mu" if self.alpha > 0 else "mu_fluct"


def cahn_hilliard(potential, mobility, diffusion, alpha=1.0, gamma=1.0) -> ModelConfig:
    """Mass-conserving transport with nonlinear diffusion (alpha>0, gamma>0, sigma1=1)."""
    if alpha <= 0 or gamma <= 0:
        raise ValidationError("CH_NONLINEAR needs alpha > 0 and gamma > 0")
    return ModelConfig(alpha, 0.0, gamma, 1, 0, potential, mobility, diffusion,
                       preset=PRESET_CH)


def conserved_allen_cahn(potential, beta=1.0, gamma=1.0) -> ModelConfig:
    """Mean-subtracted relaxation flow (beta>0, gamma>0, sigma1=1, a == 1)."""
    if beta <= 0 or gamma <= 0:
        raise ValidationError("CONSERVED_AC needs beta > 0 and gamma > 0")
    return ModelConfig(0.0, beta, gamma, 1, 0, potential, MobilitySpec.constant(1.0),
                       DiffusionSpec.constant(1.0), preset=PRESET_AC)


def nonlocal_cahn_hilliard(potential, mobility, kernel, alpha=1.0) -> ModelConfig:
    """Convolution-kernel transport model (alpha>0, gamma=0, sigma2=1)."""
    if alpha <= 0:
        raise ValidationError("NONLOCAL_CH needs alpha > 0")
    return ModelConfig(alpha, 0.0, 0.0, 0, 1, potential, mobility,
                       DiffusionSpec.constant(1.0), kernel=kernel,
                       preset=PRESET_NONLOCAL)


def linear_coefficient(M: ModelConfig, grid: g.Grid) -> np.ndarray | float:
    """The coefficient of mu's local linear term: -sigma1 theta0, plus the
    kernel row sums J*1 of the nonlocal term when sigma2 = 1.

    The chemical potential, both Newton Jacobians and the stepper's dt bound
    read it here.
    """
    c = -M.sigma1 * M.potential.theta0
    return M.kernel.matrix(grid).row_sums + c if M.sigma2 else c


class _once(cached_property):
    """``cached_property`` without the lock that Python 3.11 takes on each first
    read: the value is computed once and kept as a plain attribute."""

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.attrname] = self.func(obj)
        return value


class Evaluation:
    """The discrete quantities of one state, each computed at most once.

    Everything is derived on first use from the grid's face operator: the
    face coefficients ``a`` and ``m`` (a scalar when the coefficient is
    constant), the face gradient, ``|grad phi|^2`` at cells, the convolution
    ``J * phi``, the chemical potential and its split explicit part, the
    energy, the dissipation and the diagnostic norms.  The stepper's energy
    gate, its frozen coefficients and the recorded diagnostics read one
    evaluation of each state, through the same code the public functions
    below use.  ``mu`` may be given to evaluate the dissipation of another
    potential at this state, and ``dF`` to supply F'(phi) for a state
    parametrized by the entropy variable psi = F'(phi).
    """

    def __init__(self, M: ModelConfig, phi: g.Field, mu: np.ndarray | None = None,
                 dF: np.ndarray | None = None):
        self.M = M
        self.grid = phi.grid
        self.phi = phi.data
        self.ops = phi.grid.faces
        if mu is not None:
            self.mu = mu
        if dF is not None:
            self.dF = dF

    def _faces(self, spec) -> np.ndarray | float:
        if spec.is_constant:
            return spec.constant_value
        return self.ops.average(np.asarray(spec(self.phi)))

    @_once
    def a_face(self) -> np.ndarray | float:
        return self._faces(self.M.diffusion)

    @_once
    def m_face(self) -> np.ndarray | float:
        return self._faces(self.M.mobility)

    @_once
    def grad(self) -> np.ndarray:
        return self.ops.grad(self.phi)

    @_once
    def grad_sq(self) -> np.ndarray:
        return self.ops.cell_sq(self.grad)

    @_once
    def kernel(self) -> g.KernelMatrix:
        return self.M.kernel.matrix(self.grid)

    @_once
    def conv(self) -> np.ndarray:
        return self.kernel.apply_values(self.phi)

    @_once
    def explicit(self) -> np.ndarray | float:
        """The part of the chemical potential that the stepper keeps explicit:
        the a' gradient square and -sigma2 J*phi (0.0 if both vanish)."""
        M = self.M
        out = 0.0
        if M.gamma > 0 and not M.diffusion.is_constant:
            da = np.asarray(M.diffusion.dfn(self.phi))
            if da.any():
                out = M.gamma * 0.5 * da * self.grad_sq + out
        if M.sigma2:
            out = out - self.conv
        return out

    @_once
    def a_hessian(self) -> np.ndarray | None:
        """Per face, the lo-lo, hi-hi, lo-hi and hi-lo entries gamma (a''_lo g^2/4 -
        a'_lo g/h), gamma (a''_hi g^2/4 + a'_hi g/h) and twice gamma (a'_lo - a'_hi)
        g/(2h) that a varying a adds to the Hessian of gamma/2 sum_f a_f g_f^2
        beyond -gamma L_a (g the face gradient); None when a is constant."""
        M, ops = self.M, self.ops
        if M.diffusion.is_constant:
            return None
        da, d2a = np.asarray(M.diffusion.dfn(self.phi)), np.asarray(M.diffusion.d2fn(self.phi))
        g_h, sq = self.grad * ops.inv_h, 0.25 * self.grad * self.grad
        cross = 0.5 * (da[ops.lo] - da[ops.hi]) * g_h
        return M.gamma * np.column_stack((d2a[ops.lo] * sq - da[ops.lo] * g_h,
                                          d2a[ops.hi] * sq + da[ops.hi] * g_h, cross, cross))

    @_once
    def peak(self) -> float:
        """max|phi|, against which both potential domains are checked."""
        return float(np.abs(self.phi).max())

    @_once
    def dF(self) -> np.ndarray:
        return np.asarray(self.M.potential.dF(self.phi, self.peak))

    @_once
    def mu(self) -> np.ndarray:
        M = self.M
        mu = self.dF + self.explicit
        mu += linear_coefficient(M, self.grid) * self.phi
        if M.gamma > 0:  # -gamma div(a grad phi)
            mu += M.gamma * self.ops.div(self.ops.inv_h * (self.a_face * self.grad))
        return mu

    @_once
    def energy(self) -> float:
        M = self.M
        P = M.potential
        phi = self.phi
        E = float(P.F(phi, self.peak).sum())
        if M.sigma1:
            E -= 0.5 * P.theta0 * float(np.dot(phi, phi))
        if M.gamma > 0:
            E += 0.5 * M.gamma * float(np.dot(self.a_face * self.grad, self.grad))
        if M.sigma2:
            E += 0.5 * (float(np.dot(self.kernel.row_sums * phi, phi))
                        - float(np.dot(self.conv, phi)))
        return E * self.grid.cell_volume

    @_once
    def grad_mu(self) -> np.ndarray:
        return self.ops.grad(self.mu)

    @_once
    def mu_fluct(self) -> np.ndarray:
        return self.mu - self.mu.sum() / self.mu.size

    @_once
    def dissipation(self) -> float:
        M = self.M
        D = 0.0
        if M.alpha > 0:
            D += M.alpha * float(np.dot(self.m_face * self.grad_mu, self.grad_mu))
        if M.beta > 0:
            D += M.beta * float(np.dot(self.mu_fluct, self.mu_fluct))
        return D * self.grid.cell_volume

    @_once
    def grad_mu_l2(self) -> float:
        return math.sqrt(np.dot(self.grad_mu, self.grad_mu) * self.grid.cell_volume)

    @_once
    def mu_fluct_l2(self) -> float:
        return math.sqrt(np.dot(self.mu_fluct, self.mu_fluct) * self.grid.cell_volume)


def grad_sq_cell(phi: g.Field) -> np.ndarray:
    """|grad phi|^2 at cells: per-axis average of the two adjacent squared
    face differences, summed over axes.

    Built from the same face gradients as the divergence term, which is what
    makes the chemical potential the exact discrete first variation of the
    gradient energy.
    """
    ops = phi.grid.faces
    return ops.cell_sq(ops.grad(phi.data))


def chemical_potential(M: ModelConfig, phi: g.Field) -> g.Field:
    """First variation of the discrete free energy.

    The convolution part carries the diagonal (J*1) phi term (through
    ``linear_coefficient``) next to -J*phi, so that mu is the exact gradient
    of the double-integral energy on the bounded domain.
    """
    return g.Field(phi.grid, Evaluation(M, phi).mu)


def energy(M: ModelConfig, phi: g.Field) -> float:
    """Total free energy of a configuration.

    E = gamma/2 * sum_faces a |grad phi|^2 + sum F(phi)
        - sigma1 * theta0/2 * sum phi^2
        + sigma2 * 1/4 * sum_ij K_ij (phi_i - phi_j)^2,

    all weighted by cell volume.  The double sum is evaluated through the
    convolution identity sum_ij K_ij (phi_i - phi_j)^2 = 2 (w phi, phi) -
    2 (J*phi, phi) with w the kernel row sums.
    """
    return Evaluation(M, phi).energy


def dissipation_rate(M: ModelConfig, phi: g.Field, mu: g.Field) -> float:
    """Instantaneous dissipation: alpha * sum m(phi)|grad mu|^2 + beta * sum (mu - mean)^2."""
    return Evaluation(M, phi, mu.data).dissipation
