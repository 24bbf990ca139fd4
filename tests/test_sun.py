"""Tests for the circle-branched harmonic function construction."""
import json
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from z2forms import sun
from z2forms.errors import (DegreeTooLarge, FitIllConditioned, GridTooCoarse,
                            NoNullDirection, SolverDiverged)
from z2forms.fd import fd_laplacian
from z2forms.suites import (MANUFACTURED_GRIDS, _job_grid,
                            _manufactured_errors, _observed_order,
                            normalize_descriptor, run_suite)
from z2forms.sun import (CUTOFF_R1, CUTOFF_R2, MAX_FIT_REL_RESIDUAL, N_THETA,
                         DoubleCoverGrid, SunPipeline, ZonalPoly, chi,
                         extract_a1, manufactured_error, min_ring_grid,
                         null_combination, ring_rms_slope, source_meridian,
                         zonal)

RNG = np.random.default_rng(2718)
N_TEST = 192


# --------------------------------------------------------------------------
# zonal harmonics


class TestZonal:
    def test_low_degrees_closed_form(self):
        x = np.array([0.3, -0.4, 0.7])
        rho2 = float(x @ x)
        assert zonal(0, x) == pytest.approx(1.0)
        assert zonal(1, x) == pytest.approx(x[2])
        assert zonal(2, x) == pytest.approx(0.5 * (3 * x[2] ** 2 - rho2))

    @pytest.mark.parametrize("k", range(5))
    def test_harmonic_in_r3(self, k):
        for _ in range(5):
            x = RNG.uniform(-2, 2, size=3)
            lap = fd_laplacian(lambda y, k=k: zonal(k, y), x, 1e-3)
            assert abs(lap) < 1e-5 * max(1.0, np.linalg.norm(x) ** max(k - 2, 0))

    def test_degree_budget(self):
        with pytest.raises(DegreeTooLarge):
            zonal(13, np.ones(3))
        with pytest.raises(DegreeTooLarge):
            ZonalPoly(((13, 1.0),))

    def test_poly_combination(self):
        p = ZonalPoly(((0, 2.0), (2, -1.0)))
        assert p.value(0.0, 1.0) == pytest.approx(2.0 - 1.0)
        assert p.value_3d([1.0, 0.0, 0.0]) == pytest.approx(2.0 + 0.5)

    def test_meridian_matches_3d(self):
        x = np.array([0.6, 0.8, -0.5])
        s = np.hypot(x[0], x[1])
        for k in range(6):
            assert ZonalPoly.single(k).value(s, x[2]) == \
                pytest.approx(zonal(k, x))


# --------------------------------------------------------------------------
# cutoff and source


class TestCutoff:
    def test_endpoints(self):
        assert chi(CUTOFF_R1, 0) == 0.0
        assert chi(CUTOFF_R2, 0) == 1.0
        assert chi(2.0, 0) == 0.0 and chi(7.0, 0) == 1.0
        assert chi(2.9, 1) == 0.0 and chi(5.1, 1) == 0.0

    def test_derivatives_match_fd(self):
        for rho in np.linspace(3.1, 4.9, 7):
            h = 1e-6
            d1 = (chi(rho + h, 0) - chi(rho - h, 0)) / (2 * h)
            d2 = (chi(rho + h, 1) - chi(rho - h, 1)) / (2 * h)
            assert chi(rho, 1) == pytest.approx(d1, abs=1e-7)
            assert chi(rho, 2) == pytest.approx(d2, abs=1e-6)


class TestSource:
    def test_supported_in_shell(self):
        p = ZonalPoly.single(2)
        assert source_meridian(p, 2.0, 0.0) == 0.0
        assert source_meridian(p, 6.0, 0.0) == 0.0
        assert source_meridian(p, 4.0, 0.0) != 0.0

    @pytest.mark.parametrize("k", range(4))
    def test_equals_laplacian_of_cut_harmonic(self, k):
        """Oracle: H must equal the 3-D Laplacian of chi(rho) * p(x)."""
        p = ZonalPoly.single(k)

        def f(x):
            return chi(np.linalg.norm(x, axis=-1), 0) * p.value_3d(x)

        for _ in range(6):
            x = RNG.uniform(-1, 1, size=3)
            x *= RNG.uniform(3.2, 4.8) / np.linalg.norm(x)
            want = fd_laplacian(f, x, 1e-3)
            got = source_meridian(p, float(np.hypot(x[0], x[1])),
                                  float(x[2]))
            assert got == pytest.approx(want, rel=1e-4, abs=1e-6)


# --------------------------------------------------------------------------
# grid and solve


def coo_matrix(g: DoubleCoverGrid):
    """The grid's five-point matrix assembled from int64 COO triplets of
    the four face directions and converted to CSR: the reference for the
    row-by-row CSR assembly."""
    import scipy.sparse as sp

    n, h, axis = g.n, g.h, g.axis
    idx, active = g.index, g.active
    rows, cols, vals, faces = [], [], [], []
    ii, jj = np.nonzero(active)
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        ni, nj = np.clip(ii + di, 0, n - 1), np.clip(jj + dj, 0, n - 1)
        xm = 0.5 * (axis[ii] + axis[ni])
        ym = 0.5 * (axis[jj] + axis[nj])
        w = np.maximum(1.0 + xm * xm - ym * ym, 0.0) / h**2
        w[1.0 + axis[ni]**2 - axis[nj]**2 <= 0.0] = 0.0
        faces.append(w)
        nb_active = active[ni, nj] & ((ni != ii) | (nj != jj))
        rows.append(idx[ii, jj][nb_active])
        cols.append(idx[ni[nb_active], nj[nb_active]])
        vals.append(w[nb_active])
    m = int(active.sum())
    rows.append(np.arange(m))
    cols.append(np.arange(m))
    vals.append(-((faces[0] + faces[1]) + (faces[2] + faces[3])))
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(m, m)).tocsr()


class TestGrid:
    def test_active_region(self):
        g = DoubleCoverGrid(n=96)
        xi, eta = np.meshgrid(g.axis, g.axis, indexing="ij")
        s = 1.0 + xi**2 - eta**2
        assert not g.active[s <= 0].any()
        assert not g.active[np.hypot(s, 2.0 * xi * eta) >= g.truncation].any()
        # active nodes never sit on the outer edge of the chart square
        assert not g.active[0].any() and not g.active[-1].any()

    @pytest.mark.parametrize("n", [N_TEST, N_TEST + 1])
    def test_axis_exactly_odd(self, n):
        g = DoubleCoverGrid(n=n)
        assert np.array_equal(g.axis[::-1], -g.axis)

    @pytest.mark.parametrize("n", [N_TEST, N_TEST + 1])
    def test_active_node_arrays_follow_index(self, n):
        """``nodes()`` gives each active node's chart coordinates in the
        order of ``index``."""
        g = DoubleCoverGrid(n=n)
        ii, jj = np.nonzero(g.active)
        assert np.array_equal(g.index[ii, jj], np.arange(ii.size))
        xi, eta = g.nodes()
        assert np.array_equal(xi, g.axis[ii])
        assert np.array_equal(eta, g.axis[jj])

    @pytest.mark.parametrize("n", [96, 97, N_TEST, N_TEST + 1])
    def test_sheet_swap_reverses_the_active_index(self, n):
        """The sheet swap (i, j) -> (n-1-i, n-1-j) takes active node q to
        m-1-q, so the swap of a field is its reversal; at odd n the node
        zeta = 0 is its own mirror."""
        g = DoubleCoverGrid(n=n)
        m = np.count_nonzero(g.active)
        assert np.array_equal(g.index[::-1, ::-1][g.active],
                              np.arange(m)[::-1])

    def test_grid_keeps_only_chart_arrays(self):
        """Besides its lazily built products, the grid holds arrays of
        shape (n,) or (n, n) only, none per active node, and an int32
        index."""
        g = DoubleCoverGrid(n=N_TEST + 1)
        g.solve(g.rhs_from_source(ZonalPoly.single(1)))
        lazy = {"_shell_source", "_blocks", "_matrix_csr", "_lu"}
        assert lazy <= set(vars(g))
        shapes = [a.shape for key, a in vars(g).items()
                  if isinstance(a, np.ndarray) and key not in lazy]
        assert shapes and set(shapes) <= {(g.n,), (g.n, g.n)}
        assert g.index.dtype == np.int32

    @pytest.mark.parametrize("n", [N_TEST, N_TEST + 1])
    def test_matrix_commutes_with_swap(self, n):
        """The matrix commutes with the sheet swap S and with the
        reflection R (eta -> -eta), and both are involutions."""
        g = DoubleCoverGrid(n=n)
        a = g._matrix_csr
        swap = np.arange(a.shape[0])[::-1]
        refl = g.index[:, ::-1][g.active]
        for mirror in (swap, refl):
            assert (a[mirror][:, mirror] != a).nnz == 0
            assert np.array_equal(mirror[mirror], np.arange(a.shape[0]))

    def test_solve_linearity(self):
        g = DoubleCoverGrid(n=96)
        r1 = RNG.normal(size=int(g.active.sum()))
        r2 = RNG.normal(size=int(g.active.sum()))
        r1, r2 = r1 - r1[::-1], r2 - r2[::-1]  # sheet-odd sources
        v = g.solve(2.0 * r1 - 3.0 * r2)
        want = 2.0 * g.solve(r1) - 3.0 * g.solve(r2)
        assert np.max(np.abs(v - want)) < 1e-9 * np.max(np.abs(want))

    def test_solve_rejects_sheet_even_source(self):
        g = DoubleCoverGrid(n=96)
        r = RNG.normal(size=int(g.active.sum()))
        with pytest.raises(ValueError):
            g.solve(r + r[::-1])

    def test_batch_with_an_even_column_is_rejected_before_the_lu(self):
        g = DoubleCoverGrid(n=96)
        r = RNG.normal(size=int(g.active.sum()))
        with pytest.raises(ValueError):
            g.solve(np.column_stack([r - r[::-1], r + r[::-1]]))
        assert "_lu" not in g.__dict__

    def test_solve_rejects_a_non_finite_rhs(self):
        """An inf pair (+inf at q, -inf at its swap) is sheet-odd, and a NaN
        pair is not; both are refused as not finite before the LU."""
        g = DoubleCoverGrid(n=96)
        r = RNG.normal(size=int(g.active.sum()))
        r -= r[::-1]
        for bad in (np.inf, np.nan):
            col = r.copy()
            col[5], col[-6] = bad, -bad
            with pytest.raises(ValueError, match="not finite"):
                g.solve(np.column_stack([r, col]))
        assert "_lu" not in g.__dict__

    def test_nan_residual_fails_the_gate(self):
        """A factor that returns NaN gives a NaN residual, which the gate
        refuses instead of returning a NaN field."""
        g = DoubleCoverGrid(n=96)

        class NaNSolve:
            def solve(self, b):
                return np.full(b.shape, np.nan)

        g.__dict__["_lu"] = (NaNSolve(), NaNSolve())
        with pytest.raises(SolverDiverged):
            g.solve(g.rhs_from_source(ZonalPoly.single(1)))

    @pytest.mark.parametrize("n", [96, 97, N_TEST, N_TEST + 1])
    def test_group_action_scatter_equals_block_map(self, n):
        """Each parity block's group-action scatter writes F x to the bit,
        into a contiguous field and into a column of a batch, with the
        zeros of F x (+0.0 also where x holds -0.0) and the 0 of the nodes
        that carry none."""
        g = DoubleCoverGrid(n=n)
        m = g.nodes()[0].size
        for reps, mirrors, eps, spread in g._blocks:
            x = RNG.normal(size=reps.size)
            x[::7], x[3::7] = 0.0, -0.0
            want = (spread @ x).view(np.int64)
            field, batch = np.zeros(m), np.zeros((m, 3))
            sun._spread(field, reps, mirrors, eps, x.copy())
            sun._spread(batch[:, 1], reps, mirrors.astype(np.intp), eps,
                        x.copy())
            assert np.array_equal(field.view(np.int64), want)
            assert np.array_equal(batch[:, 1].view(np.int64), want)
            assert not batch[:, [0, 2]].any()

    @pytest.mark.parametrize("n", [N_TEST, N_TEST + 1])
    def test_rhs_of_polys_is_one_column_each(self, n):
        """rhs_from_source of K polys gives (m, K), each column the single
        poly's rhs to the bit."""
        g = DoubleCoverGrid(n=n)
        polys = [ZonalPoly.single(k) for k in range(3)] + [
            ZonalPoly(((0, 0.7), (2, -1.3)))]
        got = g.rhs_from_source(polys)
        assert got.shape == (g.nodes()[0].size, len(polys))
        for k, p in enumerate(polys):
            assert np.array_equal(got[:, k].view(np.int64),
                                  g.rhs_from_source(p).view(np.int64))

    def test_residual_gate_is_per_column(self):
        """With the parity blocks' factors swapped (equal sizes at even n),
        a batch of a good zero column and a wrong degree-1 column fails on
        the wrong one's relative residual."""
        g = DoubleCoverGrid(n=96)
        g.__dict__["_lu"] = g._lu[::-1]
        m = g.nodes()[0].size
        rhs = np.column_stack([np.zeros(m),
                               g.rhs_from_source(ZonalPoly.single(1))])
        with pytest.raises(SolverDiverged):
            g.solve(rhs)
        assert np.array_equal(g.solve(rhs[:, 0]), np.zeros(m))

    def test_matrix_exactly_symmetric(self):
        a = DoubleCoverGrid(n=N_TEST)._matrix_csr
        assert (a != a.T).nnz == 0
        assert (a.diagonal() < 0.0).all()

    def test_symmetric_lu_matches_colamd_with_less_fill(self):
        """The quarter-chart solve equals a full-domain COLAMD LU solve, from
        about a fifth of its fill, at even and odd n (odd n has the fixed
        nodes: zeta = 0, and the eta = 0 and xi = 0 lines), for a
        mixed-parity and a pure odd-parity source."""
        for n in (N_TEST, N_TEST + 1):
            g = DoubleCoverGrid(n=n)
            ref = spla.splu(g._matrix_csr.tocsc())
            for p in (ZonalPoly(((0, 1.0), (3, -0.5))), ZonalPoly.single(3)):
                rhs = g.rhs_from_source(p)
                want = ref.solve(rhs)
                got = g.solve(rhs)
                assert np.linalg.norm(got - want) <= \
                    1e-12 * np.linalg.norm(want)
            assert g._lu.nnz <= 0.22 * ref.nnz

    @pytest.mark.parametrize("n", [N_TEST, N_TEST + 1])
    def test_matrix_equals_coo_assembly(self, n):
        """The CSR assembled row by row equals, to the bit, the matrix
        assembled from COO triplets of the four face directions."""
        g = DoubleCoverGrid(n=n)
        got, want = g._matrix_csr, coo_matrix(g)
        assert got.has_sorted_indices
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.data.view(np.int64),
                              want.data.view(np.int64))

    @pytest.mark.parametrize("n", [N_TEST, N_TEST + 1])
    def test_batched_solve_equals_single_solves(self, n):
        """A K-column solve gives each column's single solve to the bit,
        for pure and mixed parity and a zero column, as (m, K) on the
        active nodes, and a single solve gives (m,)."""
        g = DoubleCoverGrid(n=n)
        polys = [ZonalPoly.single(k) for k in range(5)] + [
            ZonalPoly(((0, 0.7), (4, -1.3))), ZonalPoly(((1, 1.0), (2, 2.0)))]
        m = g.nodes()[0].size
        rhs = np.column_stack([g.rhs_from_source(p)
                               for p in polys] + [np.zeros(m)])
        got = g.solve(rhs)
        assert got.shape == rhs.shape == (m, len(polys) + 1)
        for k in range(rhs.shape[1]):
            single = g.solve(rhs[:, k])
            assert single.shape == (m,)
            assert np.array_equal(got[..., k].view(np.int64),
                                  single.view(np.int64))

    @pytest.mark.parametrize("n", [N_TEST, N_TEST + 1])
    def test_mixed_parity_source_uses_both_blocks(self, n):
        """A pure-parity source is solved in its block alone, and degrees
        1 + 2 in both; the mixed solve is the sum of the pure ones."""
        g = DoubleCoverGrid(n=n)
        calls = []

        class Counted:
            def __init__(self, lu, eps):
                self.lu, self.eps = lu, eps

            def solve(self, b):
                calls.append(self.eps)
                return self.lu.solve(b)

        g.__dict__["_lu"] = tuple(Counted(lu, eps)
                                  for lu, eps in zip(g._lu, (1, -1)))
        odd, even, mixed = ((1, 1.0),), ((2, 1.0),), ((1, 1.0), (2, 1.0))
        v = {}
        for terms, blocks in ((odd, [-1]), (even, [1]), (mixed, [-1, 1])):
            calls.clear()
            v[terms] = g.solve(g.rhs_from_source(ZonalPoly(terms)))
            assert sorted(calls) == blocks
        want = v[odd] + v[even]
        assert np.abs(v[mixed] - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n", [N_TEST, N_TEST + 1])
    def test_shared_geometry_rhs_equals_source_meridian(self, n):
        """The rhs from the cached shell geometry equals, to the bit, the
        chart factor times source_meridian on all active nodes, for each
        degree and a mixed source (zeros compare by value: the factor gives
        -0.0 where xi < 0)."""
        g = DoubleCoverGrid(n=n)
        xi, eta = g.nodes()
        s = 1.0 + xi**2 - eta**2
        for p in [ZonalPoly.single(k) for k in range(6)] + [
                ZonalPoly(((0, 0.7), (4, -1.3)))]:
            want = (np.sign(xi) * 4.0 * (xi**2 + eta**2) * s
                    * source_meridian(p, s, 2.0 * xi * eta))
            got = g.rhs_from_source(p)
            assert np.array_equal(got, want)
            nz = want != 0.0
            assert nz.any()
            assert np.array_equal(got[nz].view(np.int64),
                                  want[nz].view(np.int64))

    @pytest.mark.parametrize("n", [N_TEST, N_TEST + 1])
    def test_lu_nnz_is_both_blocks_fill(self, n):
        """``_lu`` holds one factor per parity block, each of its block's
        size, and its ``nnz`` is their summed fill."""
        g = DoubleCoverGrid(n=n)
        assert len(g._lu) == 2
        assert [lu.shape[0] for lu in g._lu] == \
            [block[0].size for block in g._blocks]
        assert g._lu.nnz == sum(lu.nnz for lu in g._lu) > 0

    @pytest.mark.parametrize("n", [96, 97, N_TEST])
    def test_single_column_panels_keep_the_factor(self, n):
        """Each block's factor has the fill of a default-panel splu with
        the same ordering, pivot threshold and symmetric mode, and solves
        like it to 1e-13."""
        g = DoubleCoverGrid(n=n)
        rng = np.random.default_rng(n)
        for (reps, _, _, spread), lu in zip(g._blocks, g._lu):
            ref = spla.splu((g._matrix_csr[reps] @ spread).tocsc(),
                            permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                            options={"SymmetricMode": True})
            assert lu.nnz == ref.nnz
            for b in rng.normal(size=(3, reps.size)):
                want = ref.solve(b)
                assert np.linalg.norm(lu.solve(b) - want) <= \
                    1e-13 * np.linalg.norm(want)

    def test_cold_build_peak_is_bounded(self, monkeypatch):
        """Building the matrix, the parity blocks and both blocks' B on a
        fresh n = 192 grid peaks below 17 float64 per active node of traced
        memory (16.1 measured, 23.2 when each face direction derived its
        own per-node arrays); splu is stubbed, so nothing is factored."""
        g = DoubleCoverGrid(n=N_TEST)
        m = g.nodes()[0].size
        shapes = []
        monkeypatch.setattr(spla, "splu",
                            lambda b, **kw: shapes.append(b.shape))
        tracemalloc.start()
        try:
            g._matrix_csr, g._blocks, g._lu
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert shapes == [(reps.size,) * 2 for reps, *_ in g._blocks]
        assert peak <= 17 * m * 8

    @pytest.mark.parametrize("n", [N_TEST, N_TEST + 1])
    def test_interpolator_matches_regular_grid_interpolator(self, n):
        """The numpy bilinear interpolant of active-node values equals
        scipy's linear RegularGridInterpolator of their zero-filled chart
        grid on interior points, on grid lines and nodes and on the edges
        of the chart square, and is 0 outside it."""
        from scipy.interpolate import RegularGridInterpolator

        g = DoubleCoverGrid(n=n)
        a = g.axis
        rng = np.random.default_rng(n)
        values = rng.normal(size=g.nodes()[0].size)
        chart = np.zeros((n, n))
        chart[g.active] = values
        ref = RegularGridInterpolator((a, a), chart, method="linear",
                                      bounds_error=False, fill_value=0.0)
        free = rng.uniform(a[0], a[-1], size=400)
        nodes = rng.choice(a, size=400)
        edges = rng.choice([a[0], a[-1]], size=400)
        inside = np.concatenate([
            np.stack([free, rng.permutation(free)], axis=-1),
            np.stack([nodes, free], axis=-1),
            np.stack([free, nodes], axis=-1),
            np.stack([nodes, rng.permutation(nodes)], axis=-1),
            np.stack([edges, free], axis=-1),
            np.stack([nodes, edges], axis=-1),
            np.array([[a[0], a[0]], [a[0], a[-1]], [a[-1], a[0]],
                      [a[-1], a[-1]]])])
        got = g.interpolator(values)((inside[:, 0], inside[:, 1]))
        want = ref(inside)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        beyond = np.nextafter(a[-1], np.inf)
        outside = np.array([[beyond, 0.0], [0.0, -beyond], [-beyond, beyond],
                            [3.0 * a[-1], 0.5], [0.5, -3.0 * a[-1]]])
        assert np.array_equal(ref(outside), np.zeros(len(outside)))
        assert np.array_equal(
            g.interpolator(values)((outside[:, 0], outside[:, 1])),
            np.zeros(len(outside)))

    @pytest.mark.parametrize("n", [N_TEST, N_TEST + 1])
    def test_interpolator_columns_equal_single_calls(self, n):
        """The interpolant of (m, K) values gives (..., K), each column the
        interpolant of that column alone to the bit, for a row-major and a
        column-major batch, inside and outside the chart square."""
        g = DoubleCoverGrid(n=n)
        rng = np.random.default_rng(n)
        values = rng.normal(size=(g.nodes()[0].size, 3))
        bound = 1.2 * g.half_width
        points = (rng.uniform(-bound, bound, size=(20, 1)),
                  rng.uniform(-bound, bound, size=30))
        for batch in (values, np.asfortranarray(values)):
            got = g.interpolator(batch)(points)
            assert got.shape == (20, 30, 3)
            for k in range(3):
                single = g.interpolator(values[:, k].copy())(points)
                assert np.array_equal(got[..., k].view(np.int64),
                                      single.view(np.int64))

    def test_ring_window_guard(self):
        with pytest.raises(GridTooCoarse):
            DoubleCoverGrid(n=24).ring_window()

    @pytest.mark.parametrize("truncation", [5.5, 20.0, 40.0, 200.0])
    def test_min_ring_grid_is_the_ring_window_boundary(self, truncation):
        n = min_ring_grid(truncation)
        DoubleCoverGrid(n=n, truncation=truncation).ring_window()
        with pytest.raises(GridTooCoarse):
            DoubleCoverGrid(n=n - 1, truncation=truncation).ring_window()

    def test_manufactured_convergence_order(self):
        """The manufactured errors fall from grid to grid, and each pair of
        neighbouring grids, like the whole span, reads an order in
        [1.8, 2.2]."""
        errors = _manufactured_errors()
        assert all(a > b for a, b in zip(errors, errors[1:]))
        grids = MANUFACTURED_GRIDS
        for i in range(len(grids) - 1):
            order = _observed_order(grids[i:i + 2], errors[i:i + 2])
            assert 1.8 <= order <= 2.2
        assert 1.8 <= _observed_order(grids, errors) <= 2.2

    def test_manufactured_small_error(self):
        assert manufactured_error(DoubleCoverGrid(n=320)).max() < 5e-3

    def test_manufactured_error_reverses_one_bump(self, monkeypatch):
        """E(-zeta) at the nodes is E reversed: manufactured_error calls
        _bump once and gives, to the bit, the error from a second call at
        (-xi, -eta)."""
        g = DoubleCoverGrid(n=N_TEST + 1)
        xi, eta = g.nodes()
        (e_pos, lap_pos), (e_neg, lap_neg) = (sun._bump(xi, eta),
                                              sun._bump(-xi, -eta))
        want = np.abs(g.solve(lap_pos - lap_neg) - (e_pos - e_neg))
        calls, bump = [], sun._bump
        monkeypatch.setattr(sun, "_bump",
                            lambda *a: calls.append(a) or bump(*a))
        got = manufactured_error(g)
        assert len(calls) == 1
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


# --------------------------------------------------------------------------
# extraction


class TestExtraction:
    def test_recovers_synthetic_coefficients(self):
        radii = np.geomspace(1e-3, 0.1, 12)

        def u(r, t):
            return (2.0 * np.cos(t / 2) - 1.5 * np.sin(t / 2)) * np.sqrt(r) \
                + 0.3 * r**1.5 * np.cos(3 * t / 2)

        (a_plus, a_minus), _ = extract_a1(u, radii)
        assert a_plus == pytest.approx(2.0, abs=1e-12)
        assert a_minus == pytest.approx(-1.5, abs=1e-12)

    def test_orthogonal_mode_gives_zero(self):
        radii = np.geomspace(1e-3, 0.1, 12)
        a1, _ = extract_a1(lambda r, t: np.sqrt(r) * np.cos(3 * t / 2), radii)
        assert np.abs(a1).max() < 1e-12

    def test_wrong_power_is_flagged(self):
        radii = np.geomspace(1e-3, 0.5, 12)
        _, rel = extract_a1(lambda r, t: np.cos(t / 2) * r**1.5, radii)
        assert rel > MAX_FIT_REL_RESIDUAL

    def test_slope_of_synthetic_power(self):
        radii = np.geomspace(1e-3, 0.05, 10)
        s = ring_rms_slope(lambda r, t: np.cos(t / 2) * r**1.5, radii)
        assert s == pytest.approx(1.5, abs=1e-6)

    def test_columns_fit_as_alone(self):
        """Samples (..., K) give the (2, K) table, the K residuals and the
        K slopes of the columns fitted one at a time, to the bit."""
        radii = np.geomspace(1e-3, 0.1, 12)
        fields = [lambda r, t: np.cos(t / 2) * np.sqrt(r) + r**1.5,
                  lambda r, t: np.sin(t / 2) * np.sqrt(r),
                  lambda r, t: np.cos(3 * t / 2) * r**1.5]

        def u(r, t):
            return np.stack([f(r, t) for f in fields], axis=-1)

        a1, rels = extract_a1(u, radii)
        slopes = ring_rms_slope(u, radii)
        assert a1.shape == (2, 3) and len(rels) == len(slopes) == 3
        for k, f in enumerate(fields):
            want, rel = extract_a1(f, radii)
            assert np.array_equal(a1[:, k], want) and rels[k] == rel
            assert slopes[k] == ring_rms_slope(f, radii)

    def test_null_combination(self):
        a = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 3.0]])
        c = null_combination(a)
        assert np.linalg.norm(a @ c) < 1e-12
        assert np.linalg.norm(c) == pytest.approx(1.0)
        with pytest.raises(NoNullDirection):
            null_combination(np.eye(2))
        with pytest.raises(ValueError, match="2 x K"):
            null_combination(np.ones((3, 4)))


# --------------------------------------------------------------------------
# pipeline


@pytest.fixture(scope="module")
def pipeline():
    return SunPipeline(grid=DoubleCoverGrid(n=N_TEST))


class TestPipeline:
    def test_parity(self, pipeline):
        """Even zonal degrees excite only cos(theta/2); odd only sin."""
        for k, which in ((0, "plus"), (1, "minus"), (2, "plus")):
            (a_plus, a_minus), _ = pipeline.a1_of(
                pipeline.solve_for(ZonalPoly.single(k)))
            big, small = ((a_plus, a_minus) if which == "plus"
                          else (a_minus, a_plus))
            assert abs(big) > 0.1
            assert abs(small) < 1e-10 * abs(big)

    def test_superposition_linearity(self, pipeline):
        v0 = pipeline.solve_for(ZonalPoly.single(0))
        v2 = pipeline.solve_for(ZonalPoly.single(2))
        mixed = pipeline.solve_for(ZonalPoly(((0, 0.7), (2, -1.3))))
        a = pipeline.a1_of(mixed)[0]
        want = 0.7 * pipeline.a1_of(v0)[0] - 1.3 * pipeline.a1_of(v2)[0]
        assert np.linalg.norm(a - want) <= 1e-4 * np.linalg.norm(want)

    def test_half_integer_leading_power(self, pipeline):
        """a(r)/sqrt(r) stays bounded across rings: the sqrt branch, not 1/sqrt."""
        c_fn = pipeline.near_circle_fn(pipeline.solve_for(ZonalPoly.single(2)))
        radii = pipeline.ring_radii()
        theta = 4.0 * np.pi * np.arange(128) / 128
        u = c_fn(radii[:, None], theta)
        ratios = np.abs(2.0 * np.mean(u * np.cos(theta / 2), axis=1)
                        / np.sqrt(radii))
        assert ratios.max() / ratios.min() < 1.5

    def test_wrong_leading_power_fails_the_fit_gate(self, pipeline):
        """A grid field with no sqrt(r) term, u = r^{5/2} cos(theta/2)
        (v = -xi |zeta|^4 on the active nodes), fits sqrt(r) badly, and
        a1_of refuses it."""
        xi, eta = pipeline.grid.nodes()
        v = -xi * (xi**2 + eta**2) ** 2
        _, rel = extract_a1(pipeline.near_circle_fn(v), pipeline.ring_radii())
        assert rel > MAX_FIT_REL_RESIDUAL
        with pytest.raises(FitIllConditioned):
            pipeline.a1_of(v)

    def test_array_extraction_matches_pointwise_loop(self, pipeline):
        """One broadcast u_fn call gives what a per-point loop gives."""
        v = pipeline.solve_for(ZonalPoly.single(1))
        u_fn = pipeline.near_circle_fn(v)
        radii = pipeline.ring_radii()
        theta = 4.0 * np.pi * np.arange(N_THETA) / N_THETA
        u = np.array([[float(u_fn(r, t)) for t in theta] for r in radii])
        proj_c = 2.0 * np.mean(u * np.cos(theta / 2), axis=1)
        proj_s = 2.0 * np.mean(u * np.sin(theta / 2), axis=1)
        sq = np.sqrt(radii)
        want = np.array([proj_c @ sq, proj_s @ sq]) / (sq @ sq)
        got, _ = pipeline.a1_of(v)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

        want_slope, _ = np.polyfit(np.log(radii),
                                   np.log(np.sqrt(np.mean(u**2, axis=1))), 1)
        got_slope = ring_rms_slope(u_fn, radii)
        assert got_slope == pytest.approx(want_slope, rel=1e-12)

    def test_null_combination_kills_leading_term(self, pipeline):
        out = pipeline.run(range(5))
        assert out["reduction"] >= 10.0
        assert out["decay_slope"] >= 1.4

    def test_warm_run_holds_three_batches_at_most(self, pipeline):
        """A warm run's traced peak stays below 3.5 batches of K columns
        (m, K) float64: the rhs, the fields and the residual product, and
        a few (m,) buffers.  A copy of the batch, or K column copies held
        at once, breaks it."""
        degrees = range(5)
        pipeline.run(degrees)
        m = pipeline.grid.nodes()[0].size
        tracemalloc.start()
        try:
            pipeline.run(degrees)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * m * (len(degrees) + 1) * 8

    def test_evaluate_3d_axisymmetric(self, pipeline):
        p = ZonalPoly.single(2)
        v = pipeline.solve_for(p)
        base = np.array([1.4, 0.0, 0.3])
        u0 = pipeline.evaluate_3d(base, v, p)
        for ang in (0.7, 2.1, 4.0):
            rot = np.array([base[0] * np.cos(ang), base[0] * np.sin(ang),
                            base[2]])
            assert pipeline.evaluate_3d(rot, v, p) == pytest.approx(u0,
                                                                    rel=1e-12)

    def test_evaluate_3d_sheet_antisymmetric(self, pipeline):
        p = ZonalPoly.single(2)
        v = pipeline.solve_for(p)
        x = np.array([1.6, -0.2, 0.4])
        up = pipeline.evaluate_3d(x, v, p, sheet=+1)
        dn = pipeline.evaluate_3d(x, v, p, sheet=-1)
        assert dn == pytest.approx(-up, rel=1e-6, abs=1e-10)

    def test_far_field_matches_cut_polynomial(self, pipeline):
        """Outside the cutoff u ~ +-p up to the O(1/rho) correction V."""
        p = ZonalPoly.single(1)
        v = pipeline.solve_for(p)
        x = np.array([4.5, 0.0, 4.5])  # rho ~ 6.4, chi = 1
        u = pipeline.evaluate_3d(x, v, p)
        assert u == pytest.approx(p.value_3d(x), rel=0.2)


# --------------------------------------------------------------------------
# the sun suite


def sun_report(grid: int, truncation: float = 10.0) -> str:
    """The JSON report of a sun suite run (at truncation 10 the ring window
    starts at grid 90)."""
    descriptor = normalize_descriptor({"kind": "sun", "grid": grid,
                                       "truncation": truncation})
    return run_suite("sun", descriptor).to_json()


def sun_check(grid: int, name: str) -> dict:
    """One check of a sun suite run at truncation 10, as its report
    serializes it."""
    return next(c for c in json.loads(sun_report(grid))["checks"]
                if c["name"] == name)


def watch_splu(monkeypatch, record) -> list:
    """A list that gets ``record()`` at each spla.splu call from here on."""
    calls, splu = [], spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **kw:
                        calls.append(record()) or splu(*a, **kw))
    return calls


@pytest.fixture
def splu_calls(monkeypatch):
    return watch_splu(monkeypatch, lambda: None)


class TestSunSuite:
    def test_manufactured_errors_computed_once(self, monkeypatch):
        """The manufactured grids are built by the first sun job of a
        process only; later jobs report the same check."""
        built = []
        post_init = DoubleCoverGrid.__post_init__

        def record(self):
            built.append(self.n)
            post_init(self)

        monkeypatch.setattr(DoubleCoverGrid, "__post_init__", record)
        _manufactured_errors.cache_clear()
        _job_grid.cache_clear()
        first = sun_check(96, "sun.manufactured_order")
        assert set(MANUFACTURED_GRIDS) <= set(built)
        built.clear()
        second = sun_check(100, "sun.manufactured_order")
        assert 100 in built and not set(MANUFACTURED_GRIDS) & set(built)
        assert json.dumps(first) == json.dumps(second)
        assert first["passed"]

    def test_exp_bump_fails_the_order_check(self, monkeypatch):
        """With the C-infinity bump exp(1 - 1/(1 - t^2)) that the check
        once used, the grids are pre-asymptotic: the errors still fall,
        but the order reads above the band, and the check fails."""

        def exp_bump(xi, eta):
            radius = 0.8
            dx, dy = xi - 1.2, eta
            d = np.hypot(dx, dy)
            t = d / radius
            inside = t < 1.0 - 1e-9
            one = np.where(inside, 1.0 - t * t, 1.0)
            e = np.where(inside, np.exp(1.0 - 1.0 / one), 0.0)
            g = -2.0 * t / one**2
            dg = -2.0 / one**2 - 8.0 * t * t / one**3
            de, d2e = e * g, e * (g * g + dg)
            dsafe = np.where(d < 1e-12, 1.0, d)
            lap = np.where(d < 1e-12, 2.0 * d2e / radius**2,
                           d2e / radius**2 + de / (radius * dsafe))
            gx = np.where(d < 1e-12, 0.0, de / (radius * dsafe) * dx)
            gy = np.where(d < 1e-12, 0.0, de / (radius * dsafe) * dy)
            s = 1.0 + xi * xi - eta * eta
            return e, s * lap + 2.0 * xi * gx - 2.0 * eta * gy

        monkeypatch.setattr(sun, "_bump", exp_bump)
        _manufactured_errors.cache_clear()
        try:
            check = sun_check(96, "sun.manufactured_order")
        finally:
            _manufactured_errors.cache_clear()
        rms_errors = check["details"]["rms"]
        assert rms_errors == sorted(rms_errors, reverse=True)
        assert check["details"]["order"] > 2.2
        assert not check["passed"]

    def test_solver_diagnostics_in_details(self):
        """The reduction check carries the job grid's LU fill and each
        degree's fit residual, byte-identical across runs."""
        first, second = (sun_check(96, "sun.null_combination_reduction")
                         ["details"] for _ in range(2))
        assert json.dumps(first) == json.dumps(second)
        residuals = np.array(first["fit_rel_residual"])
        assert residuals.shape == (5,)
        assert np.isfinite(residuals).all()
        assert ((residuals > 0.0) & (residuals < 0.2)).all()
        assert first["lu_nnz"] == \
            DoubleCoverGrid(n=96, truncation=10.0)._lu.nnz > 0


class TestJobGridSlot:
    """One process keeps the last sun job grid, keyed by grid and
    truncation, and factors it once."""

    def test_second_job_factors_nothing(self, splu_calls):
        """A second job at the same grid and truncation makes no splu call
        and writes the report of a job from an emptied cache, byte for
        byte."""
        _job_grid.cache_clear()
        fresh = sun_report(96)
        assert splu_calls  # the job grid's blocks, at least
        splu_calls.clear()
        assert sun_report(96) == fresh
        assert splu_calls == []
        assert _job_grid.cache_info() == (1, 1, 1, 1)  # hits, misses, sizes

    def test_truncation_alone_makes_a_new_grid(self, splu_calls):
        _job_grid.cache_clear()
        sun_report(96)
        old = _job_grid(96, 10.0)
        splu_calls.clear()
        sun_report(96, truncation=9.0)
        assert len(splu_calls) == 2  # one factor per parity block
        assert _job_grid(96, 9.0) is not old
        assert _job_grid.cache_info() == (2, 2, 1, 1)

    def test_old_grid_is_freed_before_the_new_factor(self, monkeypatch):
        """The cache drops its grid when the next is built, and building
        factors nothing, so the old grid and its factors are gone when the
        new grid factors."""
        _job_grid.cache_clear()
        sun_report(96)
        old = weakref.ref(_job_grid(96, 10.0))
        alive = watch_splu(monkeypatch, lambda: old() is not None)
        sun_report(100)
        assert alive == [False, False]  # one factor per parity block
        assert _job_grid.cache_info() == (1, 2, 1, 1)
