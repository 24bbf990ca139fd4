"""Tests for the circle-branched harmonic function construction."""
import json

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from z2forms.errors import (DegreeTooLarge, FitIllConditioned, GridTooCoarse,
                            NoNullDirection)
from z2forms.fd import fd_laplacian, rms
from z2forms.suites import _manufactured_pair, normalize_descriptor, run_suite
from z2forms.sun import (MAX_FIT_REL_RESIDUAL, N_THETA, Cutoff,
                         DoubleCoverGrid, SunPipeline, ZonalPoly, extract_a1,
                         manufactured_error, min_ring_grid, null_combination,
                         ring_rms_slope, source_meridian, zonal)

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
    @pytest.mark.parametrize("kind", ["quintic", "cubic"])
    def test_endpoints(self, kind):
        chi = Cutoff(kind=kind)
        assert chi.chi(chi.r1) == 0.0
        assert chi.chi(chi.r2) == 1.0
        assert chi.chi(2.0) == 0.0 and chi.chi(7.0) == 1.0
        assert chi.chi(2.9, 1) == 0.0 and chi.chi(5.1, 1) == 0.0

    @pytest.mark.parametrize("kind", ["quintic", "cubic"])
    def test_derivatives_match_fd(self, kind):
        chi = Cutoff(kind=kind)
        for rho in np.linspace(3.1, 4.9, 7):
            h = 1e-6
            d1 = (chi.chi(rho + h) - chi.chi(rho - h)) / (2 * h)
            d2 = (chi.chi(rho + h, 1) - chi.chi(rho - h, 1)) / (2 * h)
            assert chi.chi(rho, 1) == pytest.approx(d1, abs=1e-7)
            assert chi.chi(rho, 2) == pytest.approx(d2, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            Cutoff(r1=5.0, r2=3.0)
        with pytest.raises(ValueError):
            Cutoff(kind="septic")


class TestSource:
    def test_supported_in_shell(self):
        p, chi = ZonalPoly.single(2), Cutoff()
        assert source_meridian(p, chi, 2.0, 0.0) == 0.0
        assert source_meridian(p, chi, 6.0, 0.0) == 0.0
        assert source_meridian(p, chi, 4.0, 0.0) != 0.0

    @pytest.mark.parametrize("k", range(4))
    def test_equals_laplacian_of_cut_harmonic(self, k):
        """Oracle: H must equal the 3-D Laplacian of chi(rho) * p(x)."""
        p, chi = ZonalPoly.single(k), Cutoff()

        def f(x):
            return chi.chi(np.linalg.norm(x, axis=-1)) * p.value_3d(x)

        for _ in range(6):
            x = RNG.uniform(-1, 1, size=3)
            x *= RNG.uniform(3.2, 4.8) / np.linalg.norm(x)
            want = fd_laplacian(f, x, 1e-3)
            got = source_meridian(p, chi, float(np.hypot(x[0], x[1])),
                                  float(x[2]))
            assert got == pytest.approx(want, rel=1e-4, abs=1e-6)


# --------------------------------------------------------------------------
# grid and solve


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
        """The active-node arrays hold each active node's chart values in
        the order of ``index``."""
        g = DoubleCoverGrid(n=n)
        ii, jj = np.nonzero(g.active)
        assert np.array_equal(g.index[ii, jj], np.arange(ii.size))
        assert np.array_equal(g.xi, g.axis[ii])
        assert np.array_equal(g.eta, g.axis[jj])
        assert np.array_equal(g.s, 1.0 + g.axis[ii]**2 - g.axis[jj]**2)
        assert np.array_equal(g.x3, 2.0 * g.axis[ii] * g.axis[jj])

    @pytest.mark.parametrize("n", [N_TEST, N_TEST + 1])
    def test_matrix_commutes_with_swap(self, n):
        """The matrix commutes with the sheet swap S and with the
        reflection R (eta -> -eta), and both are involutions."""
        g = DoubleCoverGrid(n=n)
        a = g._matrix_csr
        refl = g.index[:, ::-1][g.active]
        for mirror in (g.swap, refl):
            assert (a[mirror][:, mirror] != a).nnz == 0
            assert np.array_equal(mirror[mirror], np.arange(a.shape[0]))

    def test_solve_linearity(self):
        g = DoubleCoverGrid(n=96)
        r1 = RNG.normal(size=int(g.active.sum()))
        r2 = RNG.normal(size=int(g.active.sum()))
        r1, r2 = r1 - r1[g.swap], r2 - r2[g.swap]  # sheet-odd sources
        v = g.solve(2.0 * r1 - 3.0 * r2)
        want = 2.0 * g.solve(r1) - 3.0 * g.solve(r2)
        assert np.max(np.abs(v - want)) < 1e-9 * np.max(np.abs(want))

    def test_solve_rejects_sheet_even_source(self):
        g = DoubleCoverGrid(n=96)
        r = RNG.normal(size=int(g.active.sum()))
        with pytest.raises(ValueError):
            g.solve(r + r[g.swap])

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
                rhs = g.rhs_from_source(p, Cutoff())
                want = ref.solve(rhs)
                got = g.solve(rhs)[g.active]
                assert np.linalg.norm(got - want) <= \
                    1e-12 * np.linalg.norm(want)
            assert g._lu.nnz <= 0.22 * ref.nnz

    @pytest.mark.parametrize("n", [N_TEST, N_TEST + 1])
    def test_interpolator_matches_regular_grid_interpolator(self, n):
        """The numpy bilinear interpolant equals scipy's linear
        RegularGridInterpolator on interior points, on grid lines and nodes
        and on the edges of the chart square, and is 0 outside it."""
        from scipy.interpolate import RegularGridInterpolator

        g = DoubleCoverGrid(n=n)
        a = g.axis
        rng = np.random.default_rng(n)
        values = rng.normal(size=(n, n))
        ref = RegularGridInterpolator((a, a), values, method="linear",
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
        coarse = rms(manufactured_error(DoubleCoverGrid(n=160)))
        fine = rms(manufactured_error(DoubleCoverGrid(n=320)))
        assert np.log2(coarse / fine) >= 1.8

    def test_manufactured_small_error(self):
        assert manufactured_error(DoubleCoverGrid(n=320)).max() < 5e-3


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

    def test_null_combination(self):
        a = np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 3.0]])
        c = null_combination(a)
        assert np.linalg.norm(a @ c) < 1e-12
        assert np.linalg.norm(c) == pytest.approx(1.0)
        with pytest.raises(NoNullDirection):
            null_combination(np.eye(2))


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
        (v = -xi |zeta|^4), fits sqrt(r) badly, and a1_of refuses it."""
        g = pipeline.grid
        xi, eta = np.meshgrid(g.axis, g.axis, indexing="ij")
        v = np.where(g.active, -xi * (xi**2 + eta**2) ** 2, 0.0)
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

    def test_cubic_cutoff_same_phenomenon(self):
        pipe = SunPipeline(grid=DoubleCoverGrid(n=N_TEST),
                           cutoff=Cutoff(kind="cubic"))
        out = pipe.run(range(5))
        assert out["reduction"] >= 10.0
        assert out["decay_slope"] >= 1.4

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


def sun_check(grid: int, name: str) -> dict:
    """One check of a sun suite run at truncation 10 (ring window from
    grid 90 on), as its report serializes it."""
    descriptor = normalize_descriptor({"kind": "sun", "grid": grid,
                                       "truncation": 10.0})
    report = run_suite("sun", descriptor)
    return next(c.to_dict() for c in report.checks if c.name == name)


class TestSunSuite:
    def test_manufactured_pair_computed_once(self, monkeypatch):
        """The n = 160 / 320 manufactured grids are built by the first sun
        job of a process only; later jobs report the same check."""
        built = []
        post_init = DoubleCoverGrid.__post_init__

        def record(self):
            built.append(self.n)
            post_init(self)

        monkeypatch.setattr(DoubleCoverGrid, "__post_init__", record)
        _manufactured_pair.cache_clear()
        first = sun_check(96, "sun.manufactured_order")
        assert {160, 320} <= set(built)
        built.clear()
        second = sun_check(100, "sun.manufactured_order")
        assert 100 in built and not {160, 320} & set(built)
        assert json.dumps(first) == json.dumps(second)
        assert first["passed"]

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
