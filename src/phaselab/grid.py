"""Uniform-grid discrete calculus on rectangular 1D/2D domains.

Cell-centered finite differences with ghost-cell mirroring for zero-flux
(Neumann) boundaries: boundary faces carry exactly zero flux, so the discrete
divergence theorem and mass conservation hold to roundoff.  Periodic wrap is
supported as an alternative boundary mode.

Conventions:

* A field stores one value per cell, flattened in row-major (C) order.
* Face values are flat arrays in ``grid.faces`` order, one entry per
  physical face (``FaceOperator``, one per grid): interior faces, plus the
  wrap face under periodic boundaries, each counted exactly once.  Zero-flux
  boundary faces carry nothing and are left out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import GridMismatchError, ParseError

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

    # derived values are cached on the instance; the frozen fields alone
    # decide equality and hashing, so a cache can never go stale
    @cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(l / n for l, n in zip(self.lengths, self.shape))

    @cached_property
    def n_cells(self) -> int:
        return int(np.prod(self.shape))

    @cached_property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @cached_property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    @cached_property
    def faces(self) -> "FaceOperator":
        """The grid's face-difference operator, built on first use."""
        return FaceOperator(self)

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
        if not np.isfinite(data).all():
            raise ValueError("field contains non-finite values")
        self.data = data

    @classmethod
    def constant(cls, grid: Grid, value: float) -> "Field":
        return cls(grid, np.full(grid.n_cells, float(value)))

    def mean(self) -> float:
        # uniform cells: volume-weighted mean == arithmetic mean
        return float(self.data.sum() / self.data.size)

    def copy(self) -> "Field":
        return Field(self.grid, self.data.copy())


class StencilPattern(NamedTuple):
    """The CSR pattern of ``G^T diag(s) G``; being symmetric, it is also its
    CSC pattern.  ``slots`` holds the data slots of each face's four terms,
    face by face, and ``diag`` each cell's diagonal slot."""

    indices: np.ndarray
    indptr: np.ndarray
    slots: np.ndarray
    diag: np.ndarray


class FaceOperator:
    """The physical faces of a grid and the difference operator on them.

    Face f joins cells ``lo[f]`` and ``hi[f]``: each interior face along each
    axis and, under periodic wrap, the face between the last and the first
    cell.  Zero-flux boundary faces carry no flux and are left out.
    ``diff(u) = u[hi] - u[lo]`` (an index gather) and its transpose ``div``
    (two ``bincount`` calls) apply the signed face-cell incidence matrix G and
    G^T, so the face gradient is ``inv_h * diff(u)`` and
    ``div(w grad u) = -div(w / h^2 * diff(u))``.  Each face adds to one cell
    what it takes from another, so the cell sum of any ``div(v)`` telescopes:
    mass conservation is structural.  Differences are taken before scaling by
    1/h, which keeps them exact on nearly constant fields.  ``pattern`` is
    the fixed sparsity pattern that ``weighted_laplacian_matrix`` fills.
    """

    def __init__(self, grid: Grid):
        idx = np.arange(grid.n_cells).reshape(grid.shape)
        lo, hi, inv_h = [], [], []
        for a, (n, h) in enumerate(zip(grid.shape, grid.spacing)):
            # (lo cells, hi cells) along axis a: the interior faces, then the wrap face
            pairs = [(slice(0, n - 1), slice(1, n))]
            if grid.bc == PERIODIC:
                pairs.append((slice(n - 1, n), slice(0, 1)))
            for p, q in pairs:
                along = (slice(None),) * a
                lo.append(idx[along + (p,)].ravel())
                hi.append(idx[along + (q,)].ravel())
                inv_h.append(np.full(lo[-1].size, 1.0 / h))
        self.lo = np.concatenate(lo)
        self.hi = np.concatenate(hi)
        self.inv_h = np.concatenate(inv_h)
        self.inv_h2 = self.inv_h * self.inv_h
        self.n_cells = grid.n_cells

    @cached_property
    def pattern(self) -> StencilPattern:
        """The pattern of ``G^T diag(s) G``, built on first use.  A face's
        terms are lo-lo, hi-hi, lo-hi and hi-lo, with signs + + - -."""
        n, cells = self.n_cells, np.arange(self.n_cells + 1)
        rows = np.column_stack([self.lo, self.hi, self.lo, self.hi]).ravel()
        cols = np.column_stack([self.lo, self.hi, self.hi, self.lo]).ravel()
        keys, slots = np.unique(rows * n + cols, return_inverse=True)
        arrays = [a.astype(np.int32) for a in (keys % n, np.searchsorted(keys, cells * n), slots,
                                               np.searchsorted(keys, cells[:-1] * (n + 1)))]
        for a in arrays:
            a.flags.writeable = False  # shared by every matrix assembled on it
        return StencilPattern(*arrays)

    def diff(self, u: np.ndarray) -> np.ndarray:
        """``G u``: the difference of flat cell values across each face."""
        return u[self.hi] - u[self.lo]

    def div(self, v: np.ndarray) -> np.ndarray:
        """``G^T v``: per cell, face values entering minus face values leaving."""
        return np.bincount(self.hi, v, self.n_cells) - np.bincount(self.lo, v, self.n_cells)

    def grad(self, u: np.ndarray) -> np.ndarray:
        """Face gradient of flat cell values."""
        return self.inv_h * self.diff(u)

    def average(self, c: np.ndarray) -> np.ndarray:
        """Arithmetic mean of cell values at each face."""
        return 0.5 * (c[self.lo] + c[self.hi])

    def cell_sq(self, face_values: np.ndarray) -> np.ndarray:
        """Per cell: the mean of the squares at its two faces along each axis,
        summed over axes (zero-flux boundary faces count as zero)."""
        sq, n = face_values * face_values, self.n_cells
        return 0.5 * (np.bincount(self.lo, sq, n) + np.bincount(self.hi, sq, n))


def inner(u: Field, v: Field) -> float:
    """L2 inner product: sum(u*v) * cell volume."""
    if u.grid != v.grid:
        raise GridMismatchError("operands live on different grids")
    return float(np.dot(u.data, v.data)) * u.grid.cell_volume


def norm_l2(u: Field) -> float:
    return float(np.sqrt(max(inner(u, u), 0.0)))


def norm_h1_semi(u: Field) -> float:
    """L2 norm of the discrete gradient (face-based)."""
    gu = u.grid.faces.grad(u.data)
    return float(np.sqrt(np.dot(gu, gu) * u.grid.cell_volume))


def weighted_laplacian_matrix(grid: Grid, w: np.ndarray | float) -> sp.csc_matrix:
    """Sparse matrix of u -> div(w grad u) = -G^T diag(w / h^2) G u, in CSC on
    ``grid.faces.pattern`` (symmetric, so its CSR arrays are its CSC).

    ``w`` holds the weights on the faces of ``grid.faces`` (an array in face
    order, or a scalar for a constant coefficient).  One ``bincount`` fills
    the pattern; the terms run face by face, so every entry sums its faces in
    ascending order, as the product ``G^T (diag(s) G)`` would.
    """
    ops = grid.faces
    p = ops.pattern
    terms = np.multiply.outer(-w * ops.inv_h2, (1.0, 1.0, -1.0, -1.0)).ravel()
    return sp.csc_matrix((np.bincount(p.slots, terms, p.indices.size), p.indices, p.indptr),
                         shape=(grid.n_cells, grid.n_cells))


def local_block(grid: Grid, gamma: float, a_face, c, face_terms=None) -> sp.csc_matrix:
    """``diag(c) - gamma L_a``, L_a = ``weighted_laplacian_matrix(grid, a_face)``:
    CSC on the grid's stencil pattern, or the diagonal alone when gamma = 0
    (``a_face`` is then not read).  ``c`` is an array of cell values or a scalar.
    Optional ``face_terms`` (lo-lo, hi-hi, lo-hi, hi-lo entries per face) are
    added on the pattern.  Both Newton solvers build their Jacobians from it.
    """
    n = grid.n_cells
    if gamma == 0:
        cells = np.arange(n + 1)
        return sp.csc_matrix((np.full(n, c, dtype=float), cells[:-1], cells), shape=(n, n))
    B = weighted_laplacian_matrix(grid, a_face)
    B.data *= -gamma
    if face_terms is not None:
        B.data += np.bincount(grid.faces.pattern.slots, face_terms.ravel(), B.data.size)
    B.data[grid.faces.pattern.diag] += c
    return B


def norm_hminus1(u: Field) -> float:
    """Discrete H^{-1} norm of the mean-zero part of u.

    The periodic cell-centred Laplacian is diagonal in the Fourier basis, so
    for b = u - mean(u), (b, -lap^{-1} b) is vol * sum |b_k|^2 / lam_k over
    the nonzero modes.  Under Neumann boundaries b is first mirrored to 2n
    cells per axis: the mirror is periodic, and its periodic Laplacian and
    that Laplacian's inverse are the mirrors of the Neumann ones (the DCT-II
    eigenvalues (2/h sin(pi k/2n))^2), so the periodic formula on the mirror
    is 2^dim times the Neumann norm squared.
    """
    grid = u.grid
    b = (u.data - u.data.mean()).reshape(grid.shape)
    if grid.bc == NEUMANN:
        for a in range(b.ndim):
            b = np.concatenate([b, np.flip(b, a)], axis=a)
    coef = np.fft.rfftn(b)
    power = (coef.real ** 2 + coef.imag ** 2) * _hminus1_weights(b.shape, grid.spacing)
    vol = grid.cell_volume * grid.n_cells / b.size  # 1 / 2^dim on the mirror
    return float(np.sqrt(np.sum(power) * vol))


@lru_cache(maxsize=16)
def _hminus1_weights(shape: tuple, spacing: tuple) -> np.ndarray:
    """1 / (N lam_k) per ``np.fft.rfftn`` mode of an N-cell periodic grid.

    lam_k sums the per-axis eigenvalues (2/h sin(pi k/n))^2 (weight 0 at
    k = 0); 1/N makes the transform orthonormal.  Of the last axis rfftn keeps
    k <= n/2, and every such column but k = 0 and k = n/2 counts twice, for
    its conjugate mirror.
    """
    per_axis = [((2.0 / h) * np.sin(np.pi * np.arange(n) / n)) ** 2
                for n, h in zip(shape, spacing)]
    k = np.arange(shape[-1] // 2 + 1)
    per_axis[-1] = per_axis[-1][k]
    lam = sum(np.meshgrid(*per_axis, indexing="ij", sparse=True))
    lam.flat[0] = np.inf
    weights = np.where((k == 0) | (2 * k == shape[-1]), 1.0, 2.0) / (lam * np.prod(shape))
    weights.flags.writeable = False
    return weights


def fast_length(m: int) -> int:
    """The smallest 5-smooth integer (2^a 3^b 5^c) >= m >= 1: the lengths that
    pocketfft transforms fastest, as ``scipy.fft.next_fast_len(m, real=True)``."""
    if m < 1:
        raise ValueError(f"fast_length needs m >= 1, got {m}")
    while True:
        r = m
        for p in (2, 3, 5):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


class KernelMatrix:
    """Discretized convolution with an even kernel over the domain only.

    ``K[i][j] = J(x_i - x_j) * cellVolume``; because the grid is uniform the
    matrix is (block-)Toeplitz, so the matvec is a window of the linear
    convolution of u (length n per axis) with the stencil.  Let R be the
    kernel's reach on an axis, the largest offset at which the stencil is
    nonzero (read from the stencil, so it holds for any kernel; at most
    n - 1).  The stencil's offsets [-R, R] then give the window ``[R, R + n)``
    of a convolution of length n + 2R.  A circular convolution of period L
    adds to output k the terms at k +- L, which lie outside ``[0, n + 2R)``
    for every k in the window once L >= n + R: so each axis is padded only to
    ``fast_length(n + R)`` (60x60 for the 0.1-scale Gaussian on a 40x40 grid,
    R = 16; a kernel reaching across the domain gets ``fast_length(2n - 1)``),
    where the spectrum of the offsets [-R, R] is computed once, and each apply
    is one forward and one inverse real FFT.
    """

    def __init__(self, grid: Grid, stencil: np.ndarray):
        expected = tuple(2 * n - 1 for n in grid.shape)
        stencil = np.asarray(stencil, dtype=float)
        if stencil.shape != expected:
            raise GridMismatchError(
                f"stencil shape {stencil.shape} does not match offsets {expected}"
            )
        self.grid = grid
        self.stencil = stencil
        self._axes = tuple(range(grid.dim))
        reach = []
        for a, n in enumerate(grid.shape):
            hit = np.flatnonzero(np.any(stencil != 0.0, axis=self._axes[:a] + self._axes[a + 1:]))
            reach.append(int(np.abs(hit - (n - 1)).max()) if hit.size else 0)
        self._fshape = tuple(fast_length(n + r) for n, r in zip(grid.shape, reach))
        within = tuple(slice(n - 1 - r, n + r) for n, r in zip(grid.shape, reach))
        self._spectrum = np.fft.rfftn(stencil[within], self._fshape, self._axes)
        self._window = tuple(slice(r, r + n) for n, r in zip(grid.shape, reach))

    @classmethod
    def from_profile(cls, grid: Grid, profile) -> "KernelMatrix":
        """Build from a radial profile J(r); evenness is structural."""
        offsets = [
            (np.arange(-(n - 1), n)) * h for n, h in zip(grid.shape, grid.spacing)
        ]
        if grid.dim == 1:
            r = np.abs(offsets[0])
        else:
            ox, oy = np.meshgrid(*offsets, indexing="ij")
            r = np.sqrt(ox * ox + oy * oy)
        return cls(grid, profile(r) * grid.cell_volume)

    def apply_values(self, values: np.ndarray) -> np.ndarray:
        """sum_j K[i][j] values_j on flat cell values."""
        u = np.fft.rfftn(values.reshape(self.grid.shape), self._fshape, self._axes)
        out = np.fft.irfftn(u * self._spectrum, self._fshape, self._axes)
        return out[self._window].ravel()

    @cached_property
    def row_sums(self) -> np.ndarray:
        """(J * 1)(x_i)."""
        return self.apply_values(np.ones(self.grid.n_cells))


def save_field(path, phi: Field):
    """Write a snapshot: header ``nx [ny] hx [hy] bc Lx [Ly]``, then one value
    per line in row-major order, as ``np.savetxt(fmt="%.17g")`` would."""
    grid = phi.grid
    header = " ".join([*(str(n) for n in grid.shape), *(repr(h) for h in grid.spacing),
                       grid.bc, *(repr(l) for l in grid.lengths)])
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.write(("%.17g\n" * phi.data.size) % tuple(phi.data.tolist()))


# header tokens -> dimension; the shorter forms carry no lengths
_HEADER_DIMS = {3: 1, 4: 1, 5: 2, 7: 2}


def load_field(path) -> Field:
    """Read a snapshot written by save_field (whitespace or CSV body).

    Headers without lengths (``nx [ny] hx [hy] bc``) are read too; their
    lengths are rebuilt as ``n * h``.  A file that is not such a snapshot
    raises ``ParseError`` naming it.
    """
    with open(path) as fh:
        header = fh.readline().split()
        body = fh.read()
    try:
        dim = _HEADER_DIMS.get(len(header))
        if dim is None:
            raise ValueError(f"malformed snapshot header {' '.join(header)!r}")
        shape = tuple(int(tok) for tok in header[:dim])
        spacing = tuple(float(tok) for tok in header[dim:2 * dim])
        lengths = tuple(float(tok) for tok in header[2 * dim + 1:])
        if not lengths:
            lengths = tuple(n * h for n, h in zip(shape, spacing))
        elif any(abs(l - n * h) > 1e-12 * n * h for l, n, h in zip(lengths, shape, spacing)):
            raise ValueError(f"header lengths disagree with its spacing: {' '.join(header)!r}")
        values = np.fromiter(map(float, body.replace(",", " ").split()), float)
        return Field(Grid(shape, lengths, header[2 * dim]), values)
    except (ValueError, GridMismatchError) as exc:
        raise ParseError(f"snapshot {path}: {exc}") from exc
