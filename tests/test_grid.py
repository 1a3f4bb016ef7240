"""Discrete-calculus unit tests: stencils, conservation identities, norms."""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phaselab import (
    Field,
    Grid,
    KernelMatrix,
    convolve,
    inner,
    load_field,
    norm_h1_semi,
    norm_hminus1,
    norm_l2,
    save_field,
)
from phaselab.grid import FaceField, fast_length, weighted_laplacian_matrix
from phaselab.errors import GridMismatchError, ParseError
from phaselab.physics import KernelSpec
from conftest import (
    dense_kernel,
    face_average,
    face_sum,
    gradient,
    unit_face_weights,
    weighted_div_grad,
)


def rng(seed=0):
    return np.random.default_rng(np.random.Philox(seed))


class TestGridCache:
    def test_cached_values_leave_equality_and_hash_alone(self):
        a = Grid((6, 9), (1.0, 0.7), "periodic")
        b = Grid((6, 9), (1.0, 0.7), "periodic")
        h = hash(a)
        assert (a.spacing, a.n_cells, a.cell_volume, a.volume) == \
            ((1.0 / 6, 0.7 / 9), 54, (1.0 / 6) * (0.7 / 9), 0.7)
        assert a.faces is a.faces
        assert a == b and hash(a) == h == hash(b)
        assert {b: 1}[a] == 1
        assert a != Grid((6, 9), (1.0, 0.7))


class TestGradient:
    def test_constant_field_zero_gradient(self):
        grid = Grid((16,), (2.0,))
        f = Field.constant(grid, 0.3)
        g = gradient(f)
        assert np.all(g.components[0] == 0.0)

    def test_1d_stencil(self):
        grid = Grid((4,), (4.0,))  # h = 1
        f = Field(grid, np.array([0.0, 1.0, 2.0, 3.0]))
        g = gradient(f).components[0]
        assert np.allclose(g, [0.0, 1.0, 1.0, 1.0, 0.0])

    def test_1d_periodic_wrap(self):
        grid = Grid((4,), (4.0,), "periodic")
        f = Field(grid, np.array([0.0, 1.0, 0.0, 1.0]))
        g = gradient(f).components[0]
        assert np.allclose(g, [-1.0, 1.0, -1.0, 1.0, -1.0])

    def test_2d_shapes(self):
        grid = Grid((4, 6), (1.0, 2.0))
        f = Field(grid, rng().uniform(-1, 1, 24))
        g = gradient(f)
        assert g.components[0].shape == (5, 6)
        assert g.components[1].shape == (4, 7)
        assert np.all(g.components[0][0] == 0) and np.all(g.components[0][-1] == 0)
        assert np.all(g.components[1][:, 0] == 0) and np.all(g.components[1][:, -1] == 0)


class TestWeightedDivGrad:
    def test_zero_weights(self):
        grid = Grid((8,), (1.0,))
        f = Field(grid, rng(1).uniform(-1, 1, 8))
        w = FaceField(grid, (np.zeros(9),))
        assert np.all(weighted_div_grad(f, w).data == 0.0)

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_laplacian_convergence(self, n):
        # oracle: lap cos(pi x) = -pi^2 cos(pi x), Neumann-compatible on [0, 1]
        grid = Grid((n,), (1.0,))
        x = grid.axes()[0]
        f = Field(grid, np.cos(np.pi * x))
        lap = weighted_div_grad(f, unit_face_weights(grid))
        err = np.max(np.abs(lap.data - (-np.pi**2) * np.cos(np.pi * x)))
        assert err <= 2.0 * (1.0 / n) ** 2 * np.pi**4

    def test_convergence_is_second_order(self):
        errs = []
        for n in (32, 64, 128):
            grid = Grid((n,), (1.0,))
            x = grid.axes()[0]
            lap = weighted_div_grad(Field(grid, np.cos(np.pi * x)), unit_face_weights(grid))
            errs.append(np.max(np.abs(lap.data + np.pi**2 * np.cos(np.pi * x))))
        order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
        assert min(order) > 1.9

    @pytest.mark.parametrize("bc", ["neumann", "periodic"])
    @pytest.mark.parametrize("shape,lengths", [((17,), (1.3,)), ((6, 9), (1.0, 0.7))])
    def test_discrete_divergence_theorem(self, bc, shape, lengths):
        grid = Grid(shape, lengths, bc)
        r = rng(2)
        f = Field(grid, r.uniform(-1, 1, grid.n_cells))
        w = face_average(Field(grid, r.uniform(0.0, 2.0, grid.n_cells)))
        total = np.sum(weighted_div_grad(f, w).data) * grid.cell_volume
        assert abs(total) <= 1e-13

    @pytest.mark.parametrize("bc", ["neumann", "periodic"])
    def test_summation_by_parts(self, bc):
        grid = Grid((12, 7), (1.0, 2.0), bc)
        r = rng(3)
        phi = Field(grid, r.uniform(-1, 1, grid.n_cells))
        psi = Field(grid, r.uniform(-1, 1, grid.n_cells))
        w = face_average(Field(grid, r.uniform(0.1, 2.0, grid.n_cells)))
        lhs = inner(weighted_div_grad(phi, w), psi)
        gp, gq = gradient(phi), gradient(psi)
        flux = FaceField(grid, tuple(
            wc * a * b for wc, a, b in zip(w.components, gp.components, gq.components)
        ))
        rhs = -face_sum(grid, flux)
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))

    def test_matrix_matches_operator(self):
        grid = Grid((9, 5), (1.0, 1.0))
        r = rng(4)
        phi = Field(grid, r.uniform(-1, 1, grid.n_cells))
        w = face_average(Field(grid, r.uniform(0.2, 1.5, grid.n_cells)))
        L = weighted_laplacian_matrix(grid, w)
        assert np.allclose(L @ phi.data, weighted_div_grad(phi, w).data, atol=1e-14)
        assert abs(L - L.T).max() == 0.0  # symmetry

    def test_dimension_mismatch_raises(self):
        grid = Grid((8,), (1.0,))
        other = Grid((9,), (1.0,))
        f = Field(grid, np.zeros(8))
        w = unit_face_weights(other)
        with pytest.raises(GridMismatchError):
            weighted_div_grad(f, w)

    def test_harmonic_face_average(self):
        grid = Grid((4,), (1.0,))
        f = Field(grid, np.array([1.0, 4.0, 4.0, 2.0]))
        arith = face_average(f, "arithmetic").components[0]
        harm = face_average(f, "harmonic").components[0]
        assert harm[2] == 4.0  # equal neighbors
        assert harm[1] == pytest.approx(2 * 1.0 * 4.0 / 5.0)
        assert np.all(harm[1:4] <= arith[1:4] + 1e-15)


class TestNorms:
    def test_unit_constant(self):
        grid = Grid((10,), (1.0,))
        assert norm_l2(Field.constant(grid, 1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_constant_h1_semi_zero(self):
        grid = Grid((6, 6), (1.0, 2.0))
        assert norm_h1_semi(Field.constant(grid, 0.7)) == 0.0

    def test_two_cell_l2(self):
        grid = Grid((2,), (1.0,))  # h = 0.5
        f = Field(grid, np.array([1.0, -1.0]))
        assert norm_l2(f) == pytest.approx(1.0, abs=1e-15)

    def test_inner_grid_mismatch(self):
        with pytest.raises(GridMismatchError):
            inner(Field.constant(Grid((4,), (1.0,)), 1.0),
                  Field.constant(Grid((5,), (1.0,)), 1.0))


class TestHMinus1:
    def test_zero(self):
        grid = Grid((16,), (1.0,))
        assert norm_hminus1(Field.constant(grid, 0.0)) == 0.0

    def test_cosine_oracle(self):
        # -lap v = cos(pi x) solved by v = cos(pi x)/pi^2, so
        # norm^2 = (u, v) = 1/(2 pi^2)
        grid = Grid((128,), (1.0,))
        x = grid.axes()[0]
        u = Field(grid, np.cos(np.pi * x))
        expected = np.sqrt(1.0 / (2.0 * np.pi**2))
        assert norm_hminus1(u) == pytest.approx(expected, abs=1e-3)

    def test_homogeneity(self):
        grid = Grid((32,), (1.0,))
        u = rng(5).uniform(-1, 1, 32)
        u -= u.mean()
        n1 = norm_hminus1(Field(grid, u))
        n2 = norm_hminus1(Field(grid, 2.0 * u))
        assert n2 == pytest.approx(2.0 * n1, abs=1e-10)

    def test_triangle_inequality_random(self):
        grid = Grid((24,), (1.0,))
        r = rng(6)
        for _ in range(10):
            u = r.uniform(-1, 1, 24)
            v = r.uniform(-1, 1, 24)
            u -= u.mean()
            v -= v.mean()
            nu = norm_hminus1(Field(grid, u))
            nv = norm_hminus1(Field(grid, v))
            nuv = norm_hminus1(Field(grid, u + v))
            assert nuv <= nu + nv + 1e-9

    @pytest.mark.parametrize("shape", [(32,), (9, 14)])
    @pytest.mark.parametrize("bc", ["neumann", "periodic"])
    def test_matches_pseudo_inverse_oracle(self, shape, bc):
        grid = Grid(shape, tuple(0.7 + a for a in range(len(shape))), bc)
        A = -weighted_laplacian_matrix(grid, unit_face_weights(grid)).toarray()
        r = rng(14)
        for _ in range(3):
            u = r.uniform(-1, 1, grid.n_cells)
            b = u - u.mean()
            expected = np.sqrt(b @ np.linalg.pinv(A) @ b * grid.cell_volume)
            assert norm_hminus1(Field(grid, u)) == pytest.approx(expected, rel=1e-12)

    def test_mean_removed_automatically(self):
        grid = Grid((32,), (1.0,))
        u = rng(7).uniform(-1, 1, 32)
        n1 = norm_hminus1(Field(grid, u - u.mean()))
        n2 = norm_hminus1(Field(grid, u))
        assert n1 == pytest.approx(n2, rel=1e-10)

    @pytest.mark.parametrize("shape", [(2,), (7,), (128,), (1, 6), (5, 9), (40, 40)])
    @pytest.mark.parametrize("bc", ["neumann", "periodic"])
    def test_matches_spectral_oracle(self, shape, bc):
        check_against_spectral_oracle(shape, bc, 15)

    @given(st.lists(st.integers(1, 40), min_size=1, max_size=2),
           st.sampled_from(["neumann", "periodic"]), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_spectral_oracle_random_shapes(self, shape, bc, seed):
        check_against_spectral_oracle(tuple(shape), bc, seed)


def check_against_spectral_oracle(shape, bc, seed):
    """norm_hminus1 equals the DCT-II (Neumann) or FFT (periodic) diagonalisation.

    A stand-in grid carries the shape, so that one-cell axes are checked too.
    """
    from scipy import fft

    spacing = tuple(0.7 / n + 0.1 * a for a, n in enumerate(shape))
    grid = types.SimpleNamespace(shape=shape, spacing=spacing, bc=bc,
                                 n_cells=int(np.prod(shape)),
                                 cell_volume=float(np.prod(spacing)))
    u = rng(seed).uniform(-1.0, 1.0, grid.n_cells)
    b = (u - u.mean()).reshape(shape)
    periodic = bc == "periodic"
    coef = fft.fftn(b, norm="ortho") if periodic else fft.dctn(b, type=2, norm="ortho")
    per_axis = [((2.0 / h) * np.sin(np.pi * np.arange(n) / (n if periodic else 2 * n))) ** 2
                for n, h in zip(shape, spacing)]
    lam = sum(np.meshgrid(*per_axis, indexing="ij", sparse=True))
    lam.flat[0] = np.inf
    expected = np.sqrt(np.sum(np.abs(coef) ** 2 / lam) * grid.cell_volume)
    assert abs(norm_hminus1(Field(grid, u)) - expected) <= 1e-13 * expected


class TestKernelMatrix:
    def gaussian_profile(self, scale=0.15):
        return lambda r: np.exp(-0.5 * (r / scale) ** 2) / np.sqrt(2 * np.pi * scale**2)

    def test_symmetry(self):
        grid = Grid((16,), (1.0,))
        K = dense_kernel(KernelMatrix.from_profile(grid, self.gaussian_profile()))
        assert np.max(np.abs(K - K.T)) == 0.0

    def test_symmetry_structural_for_any_radial_profile(self):
        # evenness comes from sampling |x_i - x_j|, not from the profile
        r = rng(13)
        table = r.uniform(0.0, 1.0, 64)

        def jagged(radii):
            idx = np.minimum((np.asarray(radii) * 40).astype(int), 63)
            return table[idx]

        for shape in ((11,), (5, 7)):
            grid = Grid(shape, tuple(1.0 for _ in shape))
            K = dense_kernel(KernelMatrix.from_profile(grid, jagged))
            assert np.max(np.abs(K - K.T)) == 0.0

    def test_row_sums_nonnegative(self):
        grid = Grid((16,), (1.0,))
        K = KernelMatrix.from_profile(grid, self.gaussian_profile())
        assert np.all(K.row_sums >= 0.0)
        assert np.all(np.isfinite(K.row_sums))

    def test_constant_field_gives_row_sums(self):
        grid = Grid((16,), (1.0,))
        K = KernelMatrix.from_profile(grid, self.gaussian_profile())
        c = 0.37
        out = convolve(K, Field.constant(grid, c))
        assert np.allclose(out.data, c * K.row_sums, atol=1e-14)

    def test_single_cell_indicator_gives_column(self):
        grid = Grid((12,), (1.0,))
        K = KernelMatrix.from_profile(grid, self.gaussian_profile())
        j = 5
        e = np.zeros(12)
        e[j] = 1.0
        out = convolve(K, Field(grid, e))
        assert np.allclose(out.data, dense_kernel(K)[:, j], atol=1e-15)

    def test_self_adjointness_brute_force(self):
        grid = Grid((16,), (1.0,))
        K = KernelMatrix.from_profile(grid, self.gaussian_profile())
        r = rng(8)
        u = Field(grid, r.uniform(-1, 1, 16))
        v = Field(grid, r.uniform(-1, 1, 16))
        lhs = inner(convolve(K, u), v)
        rhs = inner(u, convolve(K, v))
        assert abs(lhs - rhs) <= 1e-12

    @pytest.mark.parametrize("shape", [(64,), (16, 16)])
    def test_fast_path_matches_dense(self, shape):
        grid = Grid(shape, tuple(1.0 for _ in shape))
        K = KernelMatrix.from_profile(grid, self.gaussian_profile())
        u = rng(9).uniform(-1, 1, grid.n_cells)
        fast = K.apply_values(u)
        dense = dense_kernel(K) @ u
        assert np.max(np.abs(fast - dense)) <= 1e-10

    @pytest.mark.parametrize("kind", ["gaussian", "tophat", "custom"])
    def test_reach_padded_apply_matches_dense(self, kind):
        # a custom profile with full support reaches across the grid: the padding
        # falls back to fast_length(2n - 1)
        spec = KernelSpec(kind, scale=0.1, profile=lambda r: np.exp(-r) if kind == "custom"
                          else None)
        grid = Grid((40, 40), (1.0, 1.0))
        K = spec.matrix(grid)
        u = rng(14).uniform(-1.0, 1.0, grid.n_cells)
        ref = dense_kernel(K) @ u
        assert np.max(np.abs(K.apply_values(u) - ref)) <= 1e-13 * np.max(np.abs(ref))
        reach = {"gaussian": 16, "tophat": 4, "custom": 39}[kind]
        assert K._fshape == (fast_length(40 + reach),) * 2
        assert K._fshape == {"gaussian": (60, 60), "tophat": (45, 45), "custom": (80, 80)}[kind]

    def test_reach_is_read_per_axis(self):
        # reach 2 along axis 0 and 0 along axis 1, on a 1-cell-wide stencil
        grid = Grid((9, 7), (1.0, 1.0))
        stencil = np.zeros((17, 13))
        stencil[6:11, 6] = [1.0, 2.0, 3.0, 2.0, 1.0]
        K = KernelMatrix(grid, stencil)
        assert K._fshape == (fast_length(11), fast_length(7))
        u = rng(15).uniform(-1.0, 1.0, grid.n_cells)
        ref = dense_kernel(K) @ u
        assert np.max(np.abs(K.apply_values(u) - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_fast_length_equals_scipy_next_fast_len(self):
        from scipy import fft

        assert [fast_length(m) for m in range(1, 4097)] == [
            fft.next_fast_len(m, real=True) for m in range(1, 4097)]

    @pytest.mark.parametrize("shape", [(1,), (2,), (7,), (127,), (128,), (1, 5), (5, 9),
                                       (40, 40)])
    def test_exact_length_fft_matches_direct_sum(self, shape):
        check_against_direct_sum(shape, 12)

    @given(st.lists(st.integers(1, 32), min_size=1, max_size=2), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_exact_length_fft_matches_direct_sum_random_shapes(self, shape, seed):
        check_against_direct_sum(tuple(shape), seed)


def check_against_direct_sum(shape, seed):
    """The padded-FFT apply equals sum_j stencil[x_i - x_j] u_j within roundoff.

    Grid needs two cells per axis, the convolution does not: a stand-in grid
    carries the shape so that one-cell axes are checked too.
    """
    grid = types.SimpleNamespace(shape=shape, dim=len(shape),
                                 n_cells=int(np.prod(shape)))
    r = rng(seed)
    stencil = r.uniform(0.0, 1.0, tuple(2 * n - 1 for n in shape))
    K = KernelMatrix(grid, stencil)
    u = r.uniform(-1.0, 1.0, grid.n_cells)
    ref = dense_kernel(K) @ u
    assert np.max(np.abs(K.apply_values(u) - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestFieldIO:
    def test_roundtrip_1d(self, tmp_path):
        grid = Grid((8,), (2.0,))
        f = Field(grid, rng(10).uniform(-0.9, 0.9, 8))
        p = tmp_path / "snap.dat"
        save_field(p, f)
        f2 = load_field(p)
        assert f2.grid == grid
        assert np.array_equal(f2.data, f.data)

    def test_roundtrip_2d(self, tmp_path):
        grid = Grid((4, 6), (1.0, 3.0), "periodic")
        f = Field(grid, rng(11).uniform(-0.9, 0.9, 24))
        p = tmp_path / "snap2.dat"
        save_field(p, f)
        f2 = load_field(p)
        assert f2.grid == grid
        assert np.array_equal(f2.data, f.data)

    def test_csv_body_accepted(self, tmp_path):
        p = tmp_path / "snap.csv"
        p.write_text("4 0.25 neumann\n0.1\n0.2\n0.3\n0.4\n")
        f = load_field(p)
        assert f.grid.shape == (4,)
        assert np.allclose(f.data, [0.1, 0.2, 0.3, 0.4])

    @pytest.mark.parametrize("shape,lengths", [((100,), (3.3,)), ((7, 100), (0.7, 3.3))])
    def test_roundtrip_keeps_lengths(self, tmp_path, shape, lengths):
        # n * h gives 3.3000000000000003 for 3.3 on 100 cells
        grid = Grid(shape, lengths)
        p = tmp_path / "snap.dat"
        save_field(p, Field.constant(grid, 0.1))
        assert load_field(p).grid == grid

    def test_header_without_lengths_2d(self, tmp_path):
        p = tmp_path / "snap.dat"
        p.write_text("2 3 0.5 0.25 periodic\n" + "0.1\n" * 6)
        f = load_field(p)
        assert f.grid == Grid((2, 3), (1.0, 0.75), "periodic")

    def test_header_lengths_must_match_spacing(self, tmp_path):
        p = tmp_path / "snap.dat"
        p.write_text("4 0.25 neumann 2.0\n0.1\n0.2\n0.3\n0.4\n")
        with pytest.raises(ParseError, match="snap.dat: header lengths disagree"):
            load_field(p)

    @pytest.mark.parametrize("text,what", [
        ("4 0.25\n0.1\n0.2\n0.3\n0.4\n", "malformed snapshot header '4 0.25'"),
        ("4 0.25 neumann\n0.1\n0.2\nabc\n0.4\n", "could not convert"),
        ("4 abc neumann\n0.1\n0.2\n0.3\n0.4\n", "could not convert"),
        ("4 0.25 dirichlet\n0.1\n0.2\n0.3\n0.4\n", "unknown boundary mode 'dirichlet'"),
    ], ids=["header", "body_token", "header_token", "bc"])
    def test_malformed_snapshot_is_a_parse_error(self, tmp_path, text, what):
        p = tmp_path / "snap.dat"
        p.write_text(text)
        with pytest.raises(ParseError, match=f"snap.dat: {what}"):
            load_field(p)

    def test_body_bytes_equal_savetxt(self, tmp_path):
        vals = np.array([-0.0, 5e-324, 2.2250738585072014e-308, 1.0 / 3.0, -2.5, 0.1,
                         1e300, -1e-300, 0.0, 123456789.0])
        grid = Grid((vals.size,), (1.0,))
        p = tmp_path / "snap.dat"
        save_field(p, Field(grid, vals))
        ref = tmp_path / "ref.dat"
        np.savetxt(ref, vals, fmt="%.17g")
        body = p.read_bytes().split(b"\n", 1)[1]
        assert body == ref.read_bytes()

    def test_field_invariants(self):
        grid = Grid((4,), (1.0,))
        with pytest.raises(ValueError):
            Field(grid, np.array([1.0, np.nan, 0.0, 0.0]))
        with pytest.raises(GridMismatchError):
            Field(grid, np.zeros(5))
