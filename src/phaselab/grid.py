"""Uniform-grid discrete calculus on rectangular 1D/2D domains.

Cell-centered finite differences with ghost-cell mirroring for zero-flux
(Neumann) boundaries: boundary faces carry exactly zero flux, so the discrete
divergence theorem and mass conservation hold to roundoff.  Periodic wrap is
supported as an alternative boundary mode.

Conventions:

* A field stores one value per cell, flattened in row-major (C) order.
* A face field stores one array per axis; along that axis it has n+1 entries
  (entry 0 and entry n are the boundary faces; under periodic wrap they hold
  the same physical face twice).
* Face sums (energies, seminorms) iterate faces ``1..n`` per axis so each
  physical face is counted exactly once in both boundary modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy import fft as sp_fft

from .errors import GridMismatchError

NEUMANN = "neumann"
PERIODIC = "periodic"
_BC_MODES = (NEUMANN, PERIODIC)


@dataclass(frozen=True)
class Grid:
    """Uniform rectangular grid with cell-centered unknowns."""

    shape: tuple[int, ...]
    lengths: tuple[float, ...]
    bc: str = NEUMANN

    def __post_init__(self):
        shape = tuple(int(n) for n in self.shape)
        lengths = tuple(float(l) for l in self.lengths)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "lengths", lengths)
        if len(shape) not in (1, 2):
            raise ValueError(f"only 1D/2D grids supported, got dim={len(shape)}")
        if len(lengths) != len(shape):
            raise ValueError("shape and lengths must have the same dimension")
        if any(n < 2 for n in shape):
            raise ValueError("need at least 2 cells per axis")
        if any(l <= 0 for l in lengths):
            raise ValueError("domain lengths must be positive")
        if self.bc not in _BC_MODES:
            raise ValueError(f"unknown boundary mode {self.bc!r}")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(l / n for l, n in zip(self.lengths, self.shape))

    @property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    def axes(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinates along each axis."""
        return tuple(
            (np.arange(n) + 0.5) * h for n, h in zip(self.shape, self.spacing)
        )

    def cell_centers(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinate arrays, each with the grid's full shape."""
        return tuple(np.meshgrid(*self.axes(), indexing="ij"))


@dataclass
class Field:
    """Cell values on a grid; flat float64 storage, all entries finite."""

    grid: Grid
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float).ravel()
        if data.size != self.grid.n_cells:
            raise GridMismatchError(
                f"field has {data.size} values for a {self.grid.n_cells}-cell grid"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("field contains non-finite values")
        self.data = data

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "Field":
        return cls(grid, fn(*grid.cell_centers()).ravel())

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.n_cells, float(value)))

    @property
    def values_nd(self) -> np.ndarray:
        return self.data.reshape(self.grid.shape)

    def mean(self) -> float:
        # uniform cells: volume-weighted mean == arithmetic mean
        return float(self.data.mean())

    def copy(self) -> "Field":
        return Field(self.grid, self.data.copy())


@dataclass
class FaceField:
    """Per-axis face values; axis a has shape[a]+1 entries along axis a."""

    grid: Grid
    components: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.components) != self.grid.dim:
            raise GridMismatchError("one face component required per axis")
        for a, comp in enumerate(self.components):
            expected = tuple(
                n + 1 if a == b else n for b, n in enumerate(self.grid.shape)
            )
            if comp.shape != expected:
                raise GridMismatchError(
                    f"axis-{a} faces have shape {comp.shape}, expected {expected}"
                )


def _require_same_grid(*fields) -> Grid:
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise GridMismatchError("operands live on different grids")
    return grid


def gradient(phi: Field) -> FaceField:
    """Face-centered differences of a cell field.

    Interior face k between cells k-1 and k holds (phi[k]-phi[k-1])/h.
    Boundary faces are zero for Neumann and wrap for periodic grids.
    """
    grid = phi.grid
    u = phi.values_nd
    comps = []
    for a, (n, h) in enumerate(zip(grid.shape, grid.spacing)):
        shape = tuple(n + 1 if a == b else m for b, m in enumerate(grid.shape))
        g = np.zeros(shape)
        interior = [slice(None)] * grid.dim
        interior[a] = slice(1, n)
        lo = [slice(None)] * grid.dim
        lo[a] = slice(0, n - 1)
        hi = [slice(None)] * grid.dim
        hi[a] = slice(1, n)
        g[tuple(interior)] = (u[tuple(hi)] - u[tuple(lo)]) / h
        if grid.bc == PERIODIC:
            first = [slice(None)] * grid.dim
            first[a] = 0
            last = [slice(None)] * grid.dim
            last[a] = n
            edge_lo = [slice(None)] * grid.dim
            edge_lo[a] = n - 1
            edge_hi = [slice(None)] * grid.dim
            edge_hi[a] = 0
            wrap = (u[tuple(edge_hi)] - u[tuple(edge_lo)]) / h
            g[tuple(first)] = wrap
            g[tuple(last)] = wrap
        comps.append(g)
    return FaceField(grid, tuple(comps))


def face_average(phi: Field, mode: str = "arithmetic") -> FaceField:
    """Interpolate cell values to faces (arithmetic or harmonic mean).

    Boundary faces copy the adjacent cell value under Neumann (the flux there
    is zero regardless) and wrap-average under periodic boundaries.
    """
    grid = phi.grid
    u = phi.values_nd
    comps = []
    for a, n in enumerate(grid.shape):
        shape = tuple(n + 1 if a == b else m for b, m in enumerate(grid.shape))
        w = np.zeros(shape)
        interior = [slice(None)] * grid.dim
        interior[a] = slice(1, n)
        lo = [slice(None)] * grid.dim
        lo[a] = slice(0, n - 1)
        hi = [slice(None)] * grid.dim
        hi[a] = slice(1, n)
        ul, uh = u[tuple(lo)], u[tuple(hi)]
        if mode == "arithmetic":
            w[tuple(interior)] = 0.5 * (ul + uh)
        elif mode == "harmonic":
            w[tuple(interior)] = 2.0 * ul * uh / (ul + uh)
        else:
            raise ValueError(f"unknown face averaging mode {mode!r}")
        first = [slice(None)] * grid.dim
        first[a] = 0
        last = [slice(None)] * grid.dim
        last[a] = n
        cell_lo = [slice(None)] * grid.dim
        cell_lo[a] = 0
        cell_hi = [slice(None)] * grid.dim
        cell_hi[a] = n - 1
        if grid.bc == PERIODIC:
            u0, u1 = u[tuple(cell_hi)], u[tuple(cell_lo)]
            wrap = 0.5 * (u0 + u1) if mode == "arithmetic" else 2.0 * u0 * u1 / (u0 + u1)
            w[tuple(first)] = wrap
            w[tuple(last)] = wrap
        else:
            w[tuple(first)] = u[tuple(cell_lo)]
            w[tuple(last)] = u[tuple(cell_hi)]
        comps.append(w)
    return FaceField(grid, tuple(comps))


def weighted_div_grad(phi: Field, face_weights: FaceField) -> Field:
    """div(w grad(phi)) with face weights w; zero-flux or wrap at boundaries.

    The flux telescopes, so the cell-volume-weighted sum of the result is zero
    to roundoff in both boundary modes.
    """
    grid = _require_same_grid(phi, face_weights)
    g = gradient(phi)
    out = np.zeros(grid.shape)
    for a, h in enumerate(grid.spacing):
        flux = face_weights.components[a] * g.components[a]
        lo = [slice(None)] * grid.dim
        lo[a] = slice(0, grid.shape[a])
        hi = [slice(None)] * grid.dim
        hi[a] = slice(1, grid.shape[a] + 1)
        out += (flux[tuple(hi)] - flux[tuple(lo)]) / h
    return Field(grid, out.ravel())


def face_sum(grid: Grid, face_values: FaceField) -> float:
    """Sum face values times face volume, counting each physical face once."""
    total = 0.0
    vol = grid.cell_volume
    for a in range(grid.dim):
        sl = [slice(None)] * grid.dim
        sl[a] = slice(1, None)
        total += float(face_values.components[a][tuple(sl)].sum()) * vol
    return total


def inner(u: Field, v: Field) -> float:
    """L2 inner product: sum(u*v) * cell volume."""
    grid = _require_same_grid(u, v)
    return float(np.dot(u.data, v.data)) * grid.cell_volume


def norm_l2(u: Field) -> float:
    return float(np.sqrt(max(inner(u, u), 0.0)))


def norm_h1_semi(u: Field) -> float:
    """L2 norm of the discrete gradient (face-based)."""
    g = gradient(u)
    sq = FaceField(u.grid, tuple(c * c for c in g.components))
    return float(np.sqrt(max(face_sum(u.grid, sq), 0.0)))


def _laplacian_entries(grid: Grid, face_weights: FaceField):
    """COO entries of the operator u -> div(w grad u)."""
    dim = grid.dim
    idx = np.arange(grid.n_cells).reshape(grid.shape)
    rows, cols, vals = [], [], []

    def add_face(p, q, w, h):
        c = np.asarray(w).ravel() / (h * h)
        p = np.asarray(p).ravel()
        q = np.asarray(q).ravel()
        rows.extend([p, p, q, q])
        cols.extend([p, q, q, p])
        vals.extend([-c, c, -c, c])

    for a, (n, h) in enumerate(zip(grid.shape, grid.spacing)):
        sl_lo = [slice(None)] * dim
        sl_lo[a] = slice(0, n - 1)
        sl_hi = [slice(None)] * dim
        sl_hi[a] = slice(1, n)
        w_int = [slice(None)] * dim
        w_int[a] = slice(1, n)
        add_face(idx[tuple(sl_lo)], idx[tuple(sl_hi)], face_weights.components[a][tuple(w_int)], h)
        if grid.bc == PERIODIC:
            sl_last = [slice(None)] * dim
            sl_last[a] = n - 1
            sl_first = [slice(None)] * dim
            sl_first[a] = 0
            w_wrap = [slice(None)] * dim
            w_wrap[a] = 0
            add_face(idx[tuple(sl_last)], idx[tuple(sl_first)], face_weights.components[a][tuple(w_wrap)], h)
    return (
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(vals),
    )


def weighted_laplacian_matrix(grid: Grid, face_weights: FaceField) -> sp.csr_matrix:
    """Sparse matrix of u -> div(w grad u); agrees with weighted_div_grad."""
    rows, cols, vals = _laplacian_entries(grid, face_weights)
    n = grid.n_cells
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def unit_face_weights(grid: Grid) -> FaceField:
    comps = tuple(
        np.ones(tuple(n + 1 if a == b else m for b, m in enumerate(grid.shape)))
        for a, n in enumerate(grid.shape)
    )
    return FaceField(grid, comps)


def norm_hminus1(u: Field) -> float:
    """Discrete H^{-1} norm of the mean-zero part of u.

    The cell-centred Laplacian with the grid's boundary mode is diagonal in
    the orthonormal DCT-II (Neumann) or Fourier (periodic) basis, with per-axis
    eigenvalues (2/h sin(pi k/2n))^2 or (2/h sin(pi k/n))^2 summed over axes.
    Dropping the zero mode, (u - mean(u), -lap^{-1}(u - mean(u))) is
    vol * sum |u_k|^2 / lam_k.
    """
    grid = u.grid
    b = (u.data - u.data.mean()).reshape(grid.shape)
    periodic = grid.bc == PERIODIC
    coef = sp_fft.fftn(b, norm="ortho") if periodic else sp_fft.dctn(b, type=2, norm="ortho")
    per_axis = [((2.0 / h) * np.sin(np.pi * np.arange(n) / (n if periodic else 2 * n))) ** 2
                for n, h in zip(grid.shape, grid.spacing)]
    lam = sum(np.meshgrid(*per_axis, indexing="ij", sparse=True))
    lam.flat[0] = np.inf
    return float(np.sqrt(np.sum(np.abs(coef) ** 2 / lam) * grid.cell_volume))


class KernelMatrix:
    """Discretized convolution with an even kernel over the domain only.

    ``K[i][j] = J(x_i - x_j) * cellVolume``; because the grid is uniform the
    matrix is (block-)Toeplitz, so the matvec equals a zero-padded discrete
    convolution.  The stencil spectrum is computed once, on the padded shape
    ``next_fast_len(3n - 2)`` per axis that ``fftconvolve(mode="same")`` uses,
    so each apply is one forward and one inverse real FFT.
    """

    def __init__(self, grid: Grid, stencil: np.ndarray, grad_l1: float = float("nan")):
        expected = tuple(2 * n - 1 for n in grid.shape)
        stencil = np.asarray(stencil, dtype=float)
        if stencil.shape != expected:
            raise GridMismatchError(
                f"stencil shape {stencil.shape} does not match offsets {expected}"
            )
        self.grid = grid
        self.stencil = stencil
        self.grad_l1 = float(grad_l1)
        self._fshape = tuple(sp_fft.next_fast_len(3 * n - 2, real=True) for n in grid.shape)
        self._spectrum = sp_fft.rfftn(stencil, self._fshape)
        self._window = tuple(slice(n - 1, 2 * n - 1) for n in grid.shape)
        self._row_sums = None

    @classmethod
    def from_profile(cls, grid: Grid, profile, grad_l1: float = float("nan")) -> "KernelMatrix":
        """Build from a radial profile J(r); evenness is structural."""
        offsets = [
            (np.arange(-(n - 1), n)) * h for n, h in zip(grid.shape, grid.spacing)
        ]
        if grid.dim == 1:
            r = np.abs(offsets[0])
        else:
            ox, oy = np.meshgrid(*offsets, indexing="ij")
            r = np.sqrt(ox * ox + oy * oy)
        return cls(grid, profile(r) * grid.cell_volume, grad_l1)

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        """sum_j K[i][j] values_j on flat cell values."""
        u = sp_fft.rfftn(values.reshape(self.grid.shape), self._fshape)
        out = sp_fft.irfftn(u * self._spectrum, self._fshape)
        return out[self._window].ravel()

    @property
    def row_sums(self) -> np.ndarray:
        """(J * 1)(x_i)."""
        if self._row_sums is None:
            self._row_sums = self.apply_values(np.ones(self.grid.n_cells))
        return self._row_sums


def convolve(K: KernelMatrix, phi: Field) -> Field:
    """(J * phi)(x_i) = sum_j K[i][j] phi_j."""
    if K.grid != phi.grid:
        raise GridMismatchError("kernel matrix built on a different grid")
    return Field(phi.grid, K.apply_values(phi.data))


def save_field(path, phi: Field):
    """Write a snapshot: header ``nx [ny] hx [hy] bc`` then row-major values."""
    grid = phi.grid
    header = " ".join(
        [*(str(n) for n in grid.shape), *(repr(h) for h in grid.spacing), grid.bc]
    )
    with open(path, "w") as fh:
        fh.write(header + "\n")
        np.savetxt(fh, phi.data, fmt="%.17g")


def load_field(path) -> Field:
    """Read a snapshot written by save_field (whitespace or CSV body)."""
    with open(path) as fh:
        header = fh.readline().split()
        body = fh.read()
    if len(header) == 3:
        shape = (int(header[0]),)
        spacing = (float(header[1]),)
        bc = header[2]
    elif len(header) == 5:
        shape = (int(header[0]), int(header[1]))
        spacing = (float(header[2]), float(header[3]))
        bc = header[4]
    else:
        raise ValueError(f"malformed snapshot header: {' '.join(header)!r}")
    lengths = tuple(n * h for n, h in zip(shape, spacing))
    grid = Grid(shape, lengths, bc)
    values = np.array([float(tok) for tok in body.replace(",", " ").split()])
    return Field(grid, values)
