"""Sparse linear algebra of both Newton solvers: the one SuperLU setting and
the ordering it keeps per sparsity pattern, the elimination of a one-row,
one-column border around an LU, and GMRES.
"""

import math
import types

import numpy as np
import scipy.sparse as sp

from .errors import NewtonDivergenceError

# SuperLU settings of every sparse LU: the operators' sparsity patterns are
# symmetric, so a minimum-degree ordering of A^T + A fills less than COLAMD,
# and at n ~ 1e3 panels of one column cost less set-up than SuperLU's default.
SPLU_ORDERING = {"permc_spec": "MMD_AT_PLUS_A", "panel_size": 1,
                 "options": {"SymmetricMode": True}}
PLAN_CACHE = 8  # sparsity patterns whose ordering ``factor`` keeps
_plans: dict = {}  # pattern -> (q, q^-1, data map, indices, indptr of A[q][:, q]), oldest first


def factor(splu, A):
    """LU of the square CSC matrix ``A`` by ``splu`` (scipy's, as the caller
    looks it up) in the setting ``SPLU_ORDERING``, ordered once per pattern.

    The minimum-degree ordering depends on the sparsity pattern alone.  The
    first LU of a pattern keeps its final column ordering q (the postordered
    ``perm_c``) and the CSC data map of ``A[q][:, q]``; each later LU of the
    pattern gathers that matrix and factors it in natural order, and its
    ``solve`` permutes b and x.  The key is the pattern itself, with the
    indices sorted first (in place, as ``splu`` sorts them), so a plan cannot
    go stale; the oldest of ``PLAN_CACHE`` plans goes first.
    """
    A.sort_indices()
    key = (A.indptr.tobytes(), A.indices.tobytes())
    if key in _plans:
        q, perm, src, indices, indptr = _plans[key]
        lu = splu(sp.csc_matrix((A.data[src], indices, indptr), shape=A.shape),
                  **{**SPLU_ORDERING, "permc_spec": "NATURAL"})
        return types.SimpleNamespace(solve=lambda b: lu.solve(b[q])[perm])
    lu = splu(A, **SPLU_ORDERING)
    perm = getattr(lu, "perm_c", None)  # a stand-in factor carries no ordering to keep
    if perm is not None:
        # entry (i, j) of A is entry (perm[i], perm[j]) of A[q][:, q], q = perm^-1
        rows, cols = perm[A.indices], np.repeat(perm, np.diff(A.indptr))
        src = np.lexsort((rows, cols))
        if len(_plans) >= PLAN_CACHE:
            del _plans[next(iter(_plans))]
        _plans[key] = (np.argsort(perm), perm.astype(np.intp), src, rows[src], np.searchsorted(
            cols[src], np.arange(A.shape[0] + 1)).astype(A.indptr.dtype))
    return lu


DENOM_FLOOR = 1e-12  # below this size relative to its terms a Schur complement is noise


def bordered_solver(lu, col, row, corner):
    """Solver of ``[[A, col], [row, corner]] [x; s] = [b; c]`` for ``lu``, an LU of ``A``.

    Keller's bordering algorithm (1977): ``u = A^-1 col`` and the Schur
    complement ``sigma = corner - row . u`` once, then per solve
    ``s = (c - row . A^-1 b) / sigma`` and ``x = A^-1 b - s u``.  A ``sigma``
    that is not finite or lost to cancellation raises ``NewtonDivergenceError``.
    A scalar ``row`` stands for a constant row.  ``solve(b, c=0.0)`` returns ``(x, s)``.
    """
    u = lu.solve(col)
    row = np.full(u.shape, row) if np.ndim(row) == 0 else row
    terms = row * u
    ru = float(terms.sum())
    sigma = corner - ru
    if not (np.isfinite(sigma)
            and abs(sigma) > DENOM_FLOOR * (abs(corner) + float(np.abs(terms).sum()))):
        raise NewtonDivergenceError(f"Schur complement {sigma!r} of the border "
                                    f"(row . A^-1 col = {ru!r}) is not resolvable")

    def solve(b, c=0.0):
        y = lu.solve(b)
        s = (c - float(np.dot(row, y))) / sigma
        return y - s * u, s

    return solve


def gmres(matvec, precond, b, rtol, restart, maxiter):
    """Solve ``A x = b`` by restarted GMRES (Saad & Schultz 1986), right-preconditioned
    by ``precond`` ~ ``A^-1``: CGS2 Arnoldi, Givens rotations, and the true residual
    rechecked at each restart against ``rtol ||b||``.  Returns ``(x, iterations, converged)``.
    """
    m = b.size
    bnorm = float(np.linalg.norm(b))
    x = np.zeros(m)
    V = np.empty((restart + 1, m))
    H = np.zeros((restart + 1, restart))
    cs, sn = [0.0] * restart, [0.0] * restart   # Python floats: the rotations are scalar work
    iterations = 0
    r = b
    for _ in range(maxiter):
        beta = float(np.linalg.norm(r))
        if beta <= rtol * bnorm:
            return x, iterations, True
        V[0] = r / beta
        e = np.zeros(restart + 1)   # the rotated residual beta e_1
        e[0] = beta
        for j in range(restart):
            w = matvec(precond(V[j]))
            iterations += 1
            h = V[:j + 1] @ w
            w -= h @ V[:j + 1]
            h2 = V[:j + 1] @ w
            w -= h2 @ V[:j + 1]
            hn = float(np.linalg.norm(w))
            col = (h + h2).tolist()
            for i in range(j):
                col[i], col[i + 1] = (cs[i] * col[i] + sn[i] * col[i + 1],
                                      cs[i] * col[i + 1] - sn[i] * col[i])
            den = math.hypot(col[j], hn)
            if den == 0.0:          # A M^-1 is singular on the Krylov space
                return x, iterations, False
            cs[j], sn[j] = col[j] / den, hn / den
            col[j] = den
            H[:j + 1, j] = col
            e[j + 1], e[j] = -sn[j] * e[j], cs[j] * e[j]
            if abs(e[j + 1]) <= rtol * bnorm or hn == 0.0:
                break
            V[j + 1] = w / hn
        k = j + 1
        x = x + precond(np.linalg.solve(H[:k, :k], e[:k]) @ V[:k])
        r = b - matvec(x)
    return x, iterations, bool(np.linalg.norm(r) <= rtol * bnorm)
