"""The bordered elimination shared by the stepper and the stationary solver."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from phaselab import linalg


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
