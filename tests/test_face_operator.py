"""Property tests of the face-difference operator and of mu as the energy gradient.

Random 1D/2D grids in both boundary modes, random cell values and random
positive face weights.
"""

import numpy as np
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from phaselab import (
    DiffusionSpec,
    Field,
    Grid,
    KernelSpec,
    MobilitySpec,
    PotentialSpec,
    cahn_hilliard,
    chemical_potential,
    conserved_allen_cahn,
    energy,
    inner,
    nonlocal_cahn_hilliard,
)
from phaselab.grid import weighted_laplacian_matrix
from conftest import face_average, flat_faces, weighted_div_grad

SETTINGS = settings(max_examples=60, deadline=None)


@st.composite
def grids(draw):
    dim = draw(st.integers(1, 2))
    shape = tuple(draw(st.integers(2, 12)) for _ in range(dim))
    lengths = tuple(draw(st.floats(0.25, 4.0)) for _ in range(dim))
    return Grid(shape, lengths, draw(st.sampled_from(["neumann", "periodic"])))


def cell_values(grid, lo, hi):
    return hnp.arrays(float, grid.n_cells, elements=st.floats(lo, hi))


@st.composite
def grid_field_weights(draw):
    """A grid, cell values u and positive cell coefficients c."""
    grid = draw(grids())
    return grid, draw(cell_values(grid, -1.0, 1.0)), draw(cell_values(grid, 0.05, 5.0))


def incidence(ops):
    """The signed face-cell incidence matrix G: row f holds -1 at lo[f] and +1 at hi[f]."""
    m = ops.lo.size
    return sp.csr_matrix((np.tile([-1.0, 1.0], m), np.column_stack([ops.lo, ops.hi]).ravel(),
                          np.arange(0, 2 * m + 1, 2)), shape=(m, ops.n_cells))


@st.composite
def grid_face_weights(draw):
    """A grid and positive weights on its faces."""
    grid = draw(grids())
    return grid, draw(hnp.arrays(float, grid.faces.lo.size, elements=st.floats(0.05, 5.0)))


def ramp_weights(grid):
    return grid, np.linspace(0.1, 3.0, grid.faces.lo.size)


def apply(grid, w, u):
    """div(w grad u) matrix-free: -div(w / h^2 * diff(u))."""
    ops = grid.faces
    return -ops.div(w * ops.inv_h2 * ops.diff(u))


@SETTINGS
@given(st.data(), grids())
def test_gather_and_bincount_apply_the_incidence_matrix(data, grid):
    ops = grid.faces
    u = data.draw(cell_values(grid, -1.0, 1.0))
    v = data.draw(hnp.arrays(float, ops.lo.size, elements=st.floats(-1e3, 1e3)))
    G = incidence(ops)
    GT = G.T.tocsr()
    assert np.array_equal(ops.diff(u), G @ u)
    ref = GT @ v
    if grid.dim == 1:
        # at most two faces per cell, added in the same order
        assert np.array_equal(ops.div(v), ref)
    else:
        # up to four faces per cell, summed in another order
        scale = abs(GT) @ np.abs(v)
        assert np.all(np.abs(ops.div(v) - ref) <= 4 * np.finfo(float).eps * scale)


# two cells along a periodic axis: the interior face and the wrap face join the same pair
@SETTINGS
@example(ramp_weights(Grid((2,), (1.0,), "periodic")))
@example(ramp_weights(Grid((2, 3), (1.0, 0.7), "periodic")))
@example(ramp_weights(Grid((4, 2), (1.3, 1.0), "periodic")))
@given(grid_face_weights())
def test_assembly_is_the_incidence_product_bit_for_bit(case):
    grid, w = case
    ops = grid.faces
    G = incidence(ops)
    scaled = sp.csr_matrix((G.data * np.repeat(-w * ops.inv_h2, 2), G.indices, G.indptr),
                           shape=G.shape)
    ref = (G.T.tocsr() @ scaled).toarray()
    A = weighted_laplacian_matrix(grid, w)
    assert A.toarray().tobytes() == ref.tobytes()
    # symmetric: the same three arrays are its CSR
    C = A.tocsr()
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(C, name), getattr(A, name))
    # the diagonal slots address the diagonal
    cells = np.arange(grid.n_cells)
    rows = np.repeat(cells, np.diff(A.indptr))
    assert np.array_equal(rows[ops.pattern.diag], cells)
    assert np.array_equal(A.indices[ops.pattern.diag], cells)


@SETTINGS
@given(grid_field_weights())
def test_cell_sum_of_divergence_vanishes(case):
    grid, u, c = case
    w = grid.faces.average(c)
    flux = w * grid.faces.inv_h2 * grid.faces.diff(u)
    total = float(np.sum(apply(grid, w, u)))
    assert abs(total) <= 1e-14 * max(float(np.abs(flux).sum()), 1e-300)


@SETTINGS
@given(grid_field_weights())
def test_apply_matches_matrix_and_slice_oracle(case):
    grid, u, c = case
    faces = face_average(Field(grid, c))
    w = grid.faces.average(c)
    assert np.array_equal(w, flat_faces(faces))
    mf = apply(grid, w, u)
    scale = float(np.max(w * grid.faces.inv_h2)) * 4.0 * grid.dim
    assert np.allclose(weighted_laplacian_matrix(grid, w) @ u, mf, rtol=0, atol=1e-13 * scale)
    assert np.allclose(weighted_div_grad(Field(grid, u), faces).data, mf,
                       rtol=0, atol=1e-13 * scale)


def _model(kind):
    P = PotentialSpec.logarithmic(0.3, 1.0)
    mob = MobilitySpec.polynomial([1.0, 0.0, -0.5], m_star=0.5)
    if kind == "CH_NONLINEAR":
        dif = DiffusionSpec.polynomial([1.0, 0.0, 0.5], a_star=1.0)
        return cahn_hilliard(P, mob, dif, alpha=1.0, gamma=0.02)
    if kind == "CONSERVED_AC":
        return conserved_allen_cahn(P, beta=1.0, gamma=0.02)
    return nonlocal_cahn_hilliard(P, mob, KernelSpec("gaussian", scale=0.15))


@SETTINGS
@given(st.data(), grids(), st.sampled_from(["CH_NONLINEAR", "CONSERVED_AC", "NONLOCAL_CH"]))
def test_mu_is_the_directional_derivative_of_energy(data, grid, kind):
    M = _model(kind)
    phi = data.draw(cell_values(grid, -0.9, 0.9))
    v = data.draw(cell_values(grid, -1.0, 1.0))
    eps = 1e-5
    fd = (energy(M, Field(grid, phi + eps * v)) - energy(M, Field(grid, phi - eps * v))) / (2 * eps)
    ip = inner(chemical_potential(M, Field(grid, phi)), Field(grid, v))
    assert abs(fd - ip) <= 1e-5 * max(1.0, abs(ip))
