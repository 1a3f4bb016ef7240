"""Trajectory analysis: good times, level sets, iteration certificates, fits.

Everything here is a pure function of recorded trajectory data (or of plain
sampled traces).  Time-set measures use piecewise-constant quadrature on the
trajectory's own adaptive step grid: sample k >= 1 represents the interval
(t_{k-1}, t_k] of length dt_k.

The machinery divides into

* good-time classification with the energy measure bound on the bad set,
* spatial level-set measures and the empirical separation pair (T*, delta*),
* the geometric level/time truncation scheme whose measures y_n certify a
  uniform bound when they hit zero,
* two standalone lemma utilities (geometric-recursion threshold/prediction
  and the tail-integrability checker), and
* convergence diagnostics: decay-exponent fitting and omega-limit dispersion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as g
from .errors import (
    BoundViolationError,
    ConditionNotMetError,
    DegenerateWindowError,
    InsufficientSnapshotsError,
    PhaselabError,
    WindowOutOfRangeError,
)


# ---------------------------------------------------------------------------
# good times


@dataclass
class GoodTimeSet:
    M: float
    T: float
    norm_kind: str                  # "grad_mu" or "mu_fluct"
    times: np.ndarray
    mask: np.ndarray                # per-sample: dissipation norm <= M and t >= T
    bad_measure: float
    bound: float                    # E(phi_0) / (m_star M^2), resp. / M^2
    ok: bool                        # bad_measure <= bound, literally
    implied_bound: float = np.inf   # (E(0) - E(end) + slack) / (denom M^2)
    chain_ok: bool = True           # the part the energy inequality guarantees

    def good_times(self) -> np.ndarray:
        return self.times[self.mask]


def classify_good_times(traj, M: float, T: float = 0.0,
                        strict: bool = True) -> GoodTimeSet:
    """Split recorded times at the dissipation-norm level M.

    The norm is the gradient of the chemical potential for conserved
    transport models and the mean-free fluctuation for the relaxation flow
    (carried on the result, not re-inferred later).  The measure of the bad
    set within [T, end] must not exceed E(phi_0) / (m_star M^2) (gradient
    norm) or E(phi_0) / M^2 (fluctuation norm); violation raises
    BoundViolationError when ``strict``.

    That literal bound presumes nonnegative energy along the flow; for data
    whose energy dips negative it is vacuous.  What the discrete energy
    inequality genuinely implies is bad_measure <= (E(0) - E(end) + slack) /
    (denom M^2); that version is carried as ``implied_bound``/``chain_ok``
    and is the right assertion for arbitrary admissible runs.
    """
    if M <= 0:
        raise ValueError("M must be positive")
    kind = traj.dissipation_norm_kind
    series = traj.dissipation_norm_series()
    times = traj.times
    in_window = times >= T
    mask = in_window & (series <= M)
    bad = in_window & (series > M)
    bad_measure = float(traj.dt[bad].sum())
    e0 = float(traj.energy[0])
    m_star = float(traj.provenance.get("m_star", 1.0))
    bound = e0 / (m_star * M * M) if kind == "grad_mu" else e0 / (M * M)
    ok = bad_measure <= bound
    if strict and not ok:
        raise BoundViolationError(
            f"bad-time measure {bad_measure:.6g} exceeds bound {bound:.6g}: "
            "either the producing run violated the energy inequality, or the "
            "initial energy is negative and the bound is vacuous"
        )
    if kind == "grad_mu":
        denom = float(traj.provenance.get("alpha", 1.0)) * m_star
    else:
        denom = float(traj.provenance.get("beta", 1.0))
    slack = 1e-10 * max(len(times) - 1, 1)
    drop = e0 - float(traj.energy[-1])
    implied = (drop + slack) / (denom * M * M)
    chain_ok = bad_measure <= implied
    return GoodTimeSet(M, T, kind, times, mask, bad_measure, bound, ok,
                       implied, chain_ok)


# ---------------------------------------------------------------------------
# level sets and separation


@dataclass
class LevelSetReport:
    delta: float
    times: np.ndarray
    measures: np.ndarray            # |{x : |phi| >= 1 - delta}| per snapshot
    delta_star: float
    T_star: float


def level_set_series(traj, delta: float, window_frac: float = 0.5) -> LevelSetReport:
    """Measure of the near-pure-phase set per snapshot, plus (T*, delta*).

    delta* is the largest level whose set stays empty over the trailing
    window [T*, t_end] (T* cuts the run at ``window_frac``); it is derived
    from the per-step separation margins, so it is safe against snapshots
    missing the worst step.
    """
    if not traj.snapshots:
        raise InsufficientSnapshotsError("trajectory carries no snapshots")
    vol = traj.grid.cell_volume
    times = np.array([t for t, _ in traj.snapshots])
    measures = np.array([
        float(np.count_nonzero(np.abs(f.data) >= 1.0 - delta)) * vol
        for _, f in traj.snapshots
    ])
    t_end = traj.times[-1]
    T_star = traj.times[0] + window_frac * (t_end - traj.times[0])
    trailing = traj.times >= T_star
    margin = float(traj.sep_margin[trailing].min()) if np.any(trailing) else 0.0
    # strictly below the worst margin so the level set is genuinely empty
    delta_star = max(margin - 1e-12, 0.0)
    return LevelSetReport(delta, times, measures, delta_star, float(T_star))


# ---------------------------------------------------------------------------
# geometric truncation scheme


@dataclass
class DeGiorgiIterates:
    delta: float
    tau_tilde: float
    T: float
    sign: int
    k_levels: np.ndarray            # k_n = 1 - delta - delta / 2^n
    t_times: np.ndarray             # t_{-1} = T - 3 tau, t_n = t_{n-1} + tau / 2^n
    y: np.ndarray                   # y_n = int_{I_n} |A_n(s)| ds
    certified: bool                 # y_{n_max} == 0


def degiorgi_sequences(delta: float, tau_tilde: float, T: float, n_max: int):
    """Closed-form level and time ladders of the truncation scheme."""
    n = np.arange(n_max + 1)
    k = 1.0 - delta - delta / (2.0 ** n)
    t = np.empty(n_max + 2)
    t[0] = T - 3.0 * tau_tilde
    for j in range(n_max + 1):
        t[j + 1] = t[j] + tau_tilde / (2.0 ** j)
    return k, t


def degiorgi_from_trajectory(traj, delta: float, tau_tilde: float, T: float,
                             n_max: int = 12, sign: int = +1,
                             min_snapshots: int = 4) -> DeGiorgiIterates:
    """Evaluate the truncation measures y_n from stored snapshots.

    A_n(t) = {x : sign * phi(x, t) >= k_n} on I_n = [t_{n-1}, T]; the time
    integral uses the snapshot sequence as a piecewise-constant-in-time
    field.  All y_n = 0 at the deepest level certifies
    sup sign*phi <= 1 - delta on [T - tau, T] at snapshot resolution.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    if tau_tilde <= 0:
        raise ValueError("tau_tilde must be positive")
    start = T - 3.0 * tau_tilde
    if start < traj.times[0] - 1e-12 or T > traj.times[-1] + 1e-12:
        raise WindowOutOfRangeError(
            f"window [{start:.6g}, {T:.6g}] not covered by recorded "
            f"[{traj.times[0]:.6g}, {traj.times[-1]:.6g}]"
        )
    snaps = [(t, f) for t, f in traj.snapshots if start - 1e-12 <= t <= T + 1e-12]
    before = [(t, f) for t, f in traj.snapshots if t < start - 1e-12]
    if before:
        # piecewise-constant segment of the preceding snapshot covers the
        # sliver between the window start and the first in-window snapshot
        snaps = [before[-1]] + snaps
    if len(snaps) < min_snapshots:
        raise InsufficientSnapshotsError(
            f"{len(snaps)} snapshots in the window, need at least {min_snapshots}"
        )
    if snaps[0][0] > start + 0.75 * tau_tilde:
        raise InsufficientSnapshotsError(
            "no snapshot near the start of the iteration window"
        )

    k_levels, t_times = degiorgi_sequences(delta, tau_tilde, T, n_max)
    vol = traj.grid.cell_volume
    snap_t = np.array([t for t, _ in snaps])
    # piecewise-constant segments [tau_j, tau_{j+1}) capped at T
    seg_lo = snap_t.copy()
    seg_hi = np.append(snap_t[1:], T)
    y = np.zeros(n_max + 1)
    for n in range(n_max + 1):
        lo_n = t_times[n]           # I_n = [t_{n-1}, T]
        level = k_levels[n]
        total = 0.0
        for (t_s, f), lo, hi in zip(snaps, seg_lo, seg_hi):
            overlap = min(hi, T) - max(lo, lo_n)
            if overlap <= 0:
                continue
            vals = sign * f.data
            measure = float(np.count_nonzero(vals >= level)) * vol
            total += measure * overlap
        y[n] = total
    certified = bool(y[-1] == 0.0)
    return DeGiorgiIterates(delta, tau_tilde, T, sign, k_levels, t_times, y, certified)


def degiorgi_threshold(C: float, b: float, eps: float) -> float:
    """Smallness threshold theta = C^(-1/eps) * b^(-1/eps^2).

    A nonnegative sequence obeying y_{n+1} <= C b^n y_n^(1+eps) decays to
    zero whenever y_0 <= theta.
    """
    if C <= 0 or b <= 1 or eps <= 0:
        raise ValueError("need C > 0, b > 1, eps > 0")
    return float(np.exp(-np.log(C) / eps - np.log(b) / (eps * eps)))


def degiorgi_predict(y0: float, C: float, b: float, eps: float, n) -> np.ndarray:
    """Guaranteed bounds y_n <= theta * b^(-n/eps); refuses if y0 > theta."""
    theta = degiorgi_threshold(C, b, eps)
    if y0 > theta:
        raise ConditionNotMetError(
            f"y0 = {y0:.6g} exceeds the threshold {theta:.6g}; no decay guarantee"
        )
    n = np.asarray(n)
    return theta * np.power(float(b), -n / eps)


# ---------------------------------------------------------------------------
# tail integrability checker


@dataclass
class IntegrabilityReport:
    alpha_tilde: float
    zeta: float
    Y: float                        # quadrature of Z^2 over the record
    hypothesis_holds: bool
    violation_time: float | None
    integral: float | None          # int Z over the record, only when the hypothesis holds
    checked: int


def integrability_check(times, values, alpha_tilde: float,
                        zeta: float) -> IntegrabilityReport:
    """Verify (int_s^inf Z^2)^alpha <= zeta Z(s)^2 on a sampled trace.

    Tails are computed with the right-endpoint rule, which underestimates the
    tail of a nonincreasing integrand: a reported violation is genuine, while
    equality cases pass cleanly.  When the hypothesis holds at every checked
    sample, the trapezoid integral of Z is returned (the trace is treated as
    supported on the recorded window).
    """
    if not (1.0 < alpha_tilde < 2.0):
        raise ValueError("alpha_tilde must lie in (1, 2)")
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    t = np.asarray(times, dtype=float)
    Z = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != Z.shape or t.size < 2:
        raise ValueError("need matching 1-D time and value arrays (>= 2 samples)")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(Z))):
        raise ValueError("times and values must be finite")
    if np.any(np.diff(t) <= 0):
        raise ValueError("times must be strictly increasing")
    if np.any(Z < 0):
        raise ValueError("Z must be nonnegative")

    Z2 = Z * Z
    seg = np.diff(t)
    # right-endpoint tail: tail[i] = sum_{j >= i} Z2[j+1] * (t[j+1] - t[j])
    tail = np.zeros_like(Z2)
    tail[:-1] = np.cumsum((Z2[1:] * seg)[::-1])[::-1]

    Y = float(np.trapezoid(Z2, t))
    # the first sample that violates the hypothesis, if any
    bad = next((i for i in range(Z.size) if tail[i] ** alpha_tilde > zeta * Z2[i]), None)
    if bad is None:
        return IntegrabilityReport(alpha_tilde, zeta, Y, True, None,
                                   float(np.trapezoid(Z, t)), Z.size)
    return IntegrabilityReport(alpha_tilde, zeta, Y, False, float(t[bad]), None, bad + 1)


# ---------------------------------------------------------------------------
# decay-exponent fitting


@dataclass
class LojasiewiczFit:
    theta: float                    # fitted exponent in (0, 1/2]
    C: float                        # max observed gap^(1-theta) / norm
    r2: float                       # goodness of the log-log regression
    e_inf: float
    slope: float                    # raw d log(gap) / d log(norm)
    n_samples: int
    window: tuple


def lojasiewicz_fit(traj, gts: GoodTimeSet, e_inf="auto",
                    window: tuple | None = None, min_samples: int = 10,
                    gap_floor: float | None = None) -> LojasiewiczFit:
    """Fit (E - E_inf)^(1-theta) <= C * dissipation norm over good times.

    Regresses log(gap) against log(norm); the slope is 1/(1-theta).  E_inf
    defaults to the mean energy over the trailing 5% of samples, and samples
    whose gap sits below ``gap_floor`` (default: resolution of that plateau
    estimate) are excluded.  The fit never sees absolute time, so affine
    reparameterizations cannot change the exponent.
    """
    times = traj.times
    energy = traj.energy
    norm = traj.dissipation_norm_series()

    tail = max(2, int(0.05 * len(times)))
    if e_inf == "auto":
        e_inf_val = float(np.mean(energy[-tail:]))
        plateau_spread = float(np.std(energy[-tail:]))
    else:
        e_inf_val = float(e_inf)
        plateau_spread = 0.0
    if gap_floor is None:
        gap_floor = max(10.0 * plateau_spread,
                        100.0 * np.finfo(float).eps * max(1.0, abs(e_inf_val)))

    if window is None:
        window = (times[0] + 0.5 * (times[-1] - times[0]), times[-1])
    lo, hi = window
    gap = energy - e_inf_val
    use = (gts.mask & (times >= lo) & (times <= hi)
           & (gap > gap_floor) & (norm > 0.0))
    n_use = int(np.count_nonzero(use))
    if n_use < min_samples:
        raise DegenerateWindowError(
            f"{n_use} usable samples in the fit window, need {min_samples}"
        )
    lg = np.log(gap[use])
    ln = np.log(norm[use])
    slope, intercept = np.polyfit(ln, lg, 1)
    pred = slope * ln + intercept
    ss_res = float(np.sum((lg - pred) ** 2))
    ss_tot = float(np.sum((lg - lg.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    # slope = 1/(1-theta); slopes <= 1 mean no admissible exponent (floor it)
    theta_raw = 1.0 - 1.0 / slope if slope > 0 else 0.0
    theta = float(np.clip(theta_raw, 1e-6, 0.5))
    C = float(np.max(gap[use] ** (1.0 - theta) / norm[use]))
    return LojasiewiczFit(theta, C, r2, e_inf_val, float(slope), n_use, (float(lo), float(hi)))


# ---------------------------------------------------------------------------
# omega-limit estimation


@dataclass
class OmegaLimitEstimate:
    rep_times: np.ndarray
    l2_distances: np.ndarray        # pairwise, as a square matrix
    dispersion: float               # max pairwise L2 distance
    singleton: bool
    nearest_eq: object | None = None
    nearest_distance: float | None = None
    nearest_delta: float | None = None
    polish_error: str | None = None     # why the polish found no nearest_eq


def omega_limit_estimate(traj, gts: GoodTimeSet | None, n_reps: int = 8, tol: float = 1e-5,
                         model=None, polish_tol: float = 1e-10) -> OmegaLimitEstimate:
    """Probe the late-time limit set with geometrically spaced snapshots.

    Representatives are snapshots from the trailing half of the run at
    geometrically spaced target times (restricted to good times when a
    classification is supplied).  If a model is available, a stationary solve
    seeded from the last snapshot reports the nearest equilibrium.
    """
    from . import stationary as st

    if not traj.snapshots:
        raise InsufficientSnapshotsError("trajectory carries no snapshots")
    t0, t_end = traj.times[0], traj.times[-1]
    t_half = t0 + 0.5 * (t_end - t0)
    candidates = [(t, f) for t, f in traj.snapshots if t >= t_half]
    if gts is not None:
        good_times = gts.times[gts.mask]
        def is_good(t):
            if good_times.size == 0:
                return False
            j = int(np.argmin(np.abs(good_times - t)))
            return abs(good_times[j] - t) <= 1e-9 + 1e-6 * max(1.0, abs(t))
        candidates = [(t, f) for t, f in candidates if is_good(t)]
    if len(candidates) < n_reps:
        raise InsufficientSnapshotsError(
            f"{len(candidates)} usable late snapshots, need {n_reps}"
        )
    cand_t = np.array([t for t, _ in candidates])
    lo = max(cand_t[0], 1e-12)
    ratio = (cand_t[-1] / lo) ** (1.0 / max(n_reps - 1, 1)) if cand_t[-1] > lo else 1.0
    targets = lo * ratio ** np.arange(n_reps)
    chosen = sorted({int(np.argmin(np.abs(cand_t - tt))) for tt in targets})
    if len(chosen) < n_reps:
        extra = [j for j in range(len(candidates)) if j not in chosen]
        chosen = sorted(chosen + extra[-(n_reps - len(chosen)):])
    reps = [candidates[j] for j in chosen]

    m = len(reps)
    l2 = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            diff = g.Field(traj.grid, reps[i][1].data - reps[j][1].data)
            l2[i, j] = l2[j, i] = g.norm_l2(diff)
    dispersion = float(l2.max())
    singleton = dispersion < tol

    nearest = None
    nearest_distance = None
    nearest_delta = None
    polish_error = None
    model = model if model is not None else traj.model
    if model is not None:
        last_t, last_f = traj.snapshots[-1]
        try:
            eq = st.solve_equilibrium(model, k=last_f.mean(), guess=last_f,
                                      tol=polish_tol, seed_id="trajectory_end")
            nearest = eq
            nearest_distance = g.norm_l2(
                g.Field(traj.grid, last_f.data - eq.phi_inf.data))
            nearest_delta = eq.delta
        except PhaselabError as exc:
            polish_error = str(exc)
    return OmegaLimitEstimate(
        np.array([t for t, _ in reps]), l2, dispersion, singleton,
        nearest, nearest_distance, nearest_delta, polish_error,
    )
