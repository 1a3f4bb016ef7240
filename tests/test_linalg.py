"""The bordered elimination and the LU ordering kept per sparsity pattern, shared by
the stepper and the stationary solver."""

import types

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from phaselab import Field, Grid, dynamics, linalg
from phaselab import grid as g
from phaselab import physics as ph
from conftest import ac_model, ch_model, nlch_model


def tridiagonal(n, rng):
    """A regular sparse matrix with a symmetric pattern and unsymmetric values."""
    return sp.diags([rng.uniform(-1.0, 0.0, n - 1), rng.uniform(3.0, 5.0, n),
                     rng.uniform(-1.0, 0.0, n - 1)], [-1, 0, 1], format="csc")


def borders(n, rng):
    """(col, row, corner) of the stepper's mean term and of the stationary multiplier."""
    dt, beta = 1e-2, 2.0
    return {
        "stepper": (np.full(n, -dt * beta / n), rng.uniform(0.5, 3.0, n), -1.0),
        "stationary": (np.full(n, -1.0), rng.uniform(0.2, 1.0, n) / n, 0.0),
    }


@pytest.mark.parametrize("shape", ["stepper", "stationary"])
def test_bordered_solve_matches_the_dense_bordered_matrix(shape):
    rng = np.random.default_rng(70)
    n = 48
    A = tridiagonal(n, rng)
    col, row, corner = borders(n, rng)[shape]
    solve = linalg.bordered_solver(spla.splu(A, **linalg.SPLU_ORDERING), col, row, corner)
    dense = np.block([[A.toarray(), col[:, None]], [row[None, :], np.array([[corner]])]])
    for c in (0.0, rng.standard_normal()):
        rhs = np.append(rng.standard_normal(n), c)
        x, s = solve(rhs[:n], rhs[n])
        ref = np.linalg.solve(dense, rhs)
        assert np.linalg.norm(np.append(x, s) - ref) <= 1e-12 * np.linalg.norm(ref)


# ---------------------------------------------------------------------------
# the ordering kept per sparsity pattern


def step_jacobians(monkeypatch, M, grid, dt=1e-3):
    """Two step Jacobians I + dt R B of ``M`` on ``grid`` at different states:
    one sparsity pattern, other values."""
    seen = []
    monkeypatch.setattr(linalg, "factor", lambda splu, A: seen.append(A.copy())
                        or types.SimpleNamespace(solve=lambda b: b))
    for seed in (1, 2):
        phi = 0.1 + 0.3 * np.random.default_rng(seed).uniform(-1.0, 1.0, grid.n_cells)
        dynamics._StepWorkspace(M, Field(grid, phi)).jacobian_solver(phi, dt)
    monkeypatch.undo()
    return seen


def stationary_blocks(M, grid):
    """Two stationary local blocks (phi form) of ``M`` on ``grid`` at different states."""
    blocks = []
    for seed in (1, 2):
        phi = 0.1 + 0.3 * np.random.default_rng(seed).uniform(-1.0, 1.0, grid.n_cells)
        ev = ph.Evaluation(M, Field(grid, phi))
        c = M.potential.d2F(phi) + ph.linear_coefficient(M, grid)
        blocks.append(g.local_block(grid, M.gamma, ev.a_face, c, ev.a_hessian))
    return blocks


CASES = {
    "ac_1d_step": lambda mp: step_jacobians(mp, ac_model(), Grid((64,), (1.0,))),
    "ch_2d_step": lambda mp: step_jacobians(mp, ch_model(), Grid((16, 12), (1.0, 0.75))),
    "nl_2d_step": lambda mp: step_jacobians(mp, nlch_model(), Grid((16, 16), (1.0, 1.0))),
    "ch_2d_stationary": lambda mp: stationary_blocks(ch_model(), Grid((16, 12), (1.0, 0.75))),
}


def unsorted(A):
    """A copy of CSC ``A`` with each column's entries in reverse order."""
    order = np.concatenate([np.arange(hi - 1, lo - 1, -1)
                            for lo, hi in zip(A.indptr[:-1], A.indptr[1:])])
    return sp.csc_matrix((A.data[order], A.indices[order], A.indptr.copy()), shape=A.shape)


def assert_solves_like_a_fresh_lu(lu, A, seed=0):
    ref = spla.splu(A, **linalg.SPLU_ORDERING)
    for b in (np.random.default_rng(seed).standard_normal(A.shape[0]), np.ones(A.shape[0])):
        x = ref.solve(b)
        assert np.linalg.norm(lu.solve(b) - x) <= 1e-12 * np.linalg.norm(x)


def spy_splu(monkeypatch):
    """The kwargs of every ``splu`` call that ``linalg.factor`` makes, from no plans."""
    monkeypatch.setattr(linalg, "_plans", {})
    kwargs = []
    return kwargs, lambda A, **kw: kwargs.append(kw) or spla.splu(A, **kw)


@pytest.mark.parametrize("case", list(CASES))
def test_planned_lu_solves_like_a_fresh_lu(case, monkeypatch):
    first, second = CASES[case](monkeypatch)
    assert np.array_equal(first.indices, second.indices)
    kwargs, splu = spy_splu(monkeypatch)
    for A in (first, second, first):
        assert_solves_like_a_fresh_lu(linalg.factor(splu, A.copy()), A)
    assert [kw["permc_spec"] for kw in kwargs] == ["MMD_AT_PLUS_A", "NATURAL", "NATURAL"]


@pytest.mark.parametrize("plan_from", ["sorted", "unsorted"])
def test_unsorted_indices_find_their_plan(plan_from, monkeypatch):
    # the stepper's product R @ B comes with unsorted indices
    first, second = CASES["ch_2d_step"](monkeypatch)
    kwargs, splu = spy_splu(monkeypatch)
    linalg.factor(splu, unsorted(first) if plan_from == "unsorted" else first.copy())
    for A, ref in ((unsorted(second), second), (second.copy(), second), (unsorted(first), first)):
        assert_solves_like_a_fresh_lu(linalg.factor(splu, A), ref)
    assert [kw["permc_spec"] for kw in kwargs] == ["MMD_AT_PLUS_A"] + ["NATURAL"] * 3


def test_no_plan_goes_stale_across_grids_and_patterns(monkeypatch):
    # four patterns of n = 24 (two grids, two boundary modes), each factored
    # twice with new values in between the others, then more patterns than the cache holds
    grids = [Grid((6, 4), (1.0, 1.0)), Grid((4, 6), (1.0, 1.0)), Grid((24,), (1.0,)),
             Grid((24,), (1.0,), "periodic")]
    kwargs, splu = spy_splu(monkeypatch)
    r = np.random.default_rng(5)
    for _ in range(2):
        for grid in grids:
            A = g.local_block(grid, 0.01, r.uniform(0.5, 1.5, grid.faces.lo.size),
                              r.uniform(1.0, 3.0, grid.n_cells))
            assert_solves_like_a_fresh_lu(linalg.factor(splu, A), A)
    assert [kw["permc_spec"] for kw in kwargs] == ["MMD_AT_PLUS_A"] * 4 + ["NATURAL"] * 4
    for n in range(10, 10 + linalg.PLAN_CACHE + 2):
        A = g.local_block(Grid((n,), (1.0,)), 0.01, 1.0, r.uniform(1.0, 3.0, n))
        assert_solves_like_a_fresh_lu(linalg.factor(splu, A), A)
    assert len(linalg._plans) == linalg.PLAN_CACHE
