import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from z2forms import Polyline, UnivariatePolynomial, circle
from z2forms.branch import winding_number
from z2forms.errors import (ChartBoundary, CurvesTooClose, ImageAtInfinity,
                            NotInTube, NotOnSphere, SingularFiber)
from z2forms.fd import fd_jacobian
from z2forms.forms import PlanarForm
from z2forms import morphisms
from z2forms.morphisms import (BLOCK_VALUES, ComposedGerm, _circle_coords,
                               _radii_for, core_fiber, covering_degree,
                               fiber, fiber_windings, gauss_linking,
                               hopf_chart, hopf_jacobian,
                               laplace_beltrami_residual,
                               lb_cross_oracle, lb_homogeneous_extension,
                               linking_on_sphere,
                               polygon_linking, project_curves, pullback,
                               pullback_form, seifert_value, stereo_embed,
                               stereographic_pole, stereographic_project)
from z2forms.suites import (MAX_FIBER_BASE, MAX_FIBER_INDEX,
                            MIN_FIBER_BASE, normalize_descriptor,
                            run_suite)


class TestPullback:
    def test_closed_form_vs_fd_jacobian(self):
        p = UnivariatePolynomial((0.5, 1.0))
        form = PlanarForm(p)
        x = np.array([0.5, -0.2, 0.6, 0.0])
        x /= np.linalg.norm(x)
        closed = pullback_form(form, x)
        J_fd = fd_jacobian(hopf_chart, x)
        np.testing.assert_allclose(hopf_jacobian(x), J_fd, rtol=1e-6,
                                   atol=1e-6)
        from z2forms.branch import principal_state
        v = form.eval_omega(principal_state(p, hopf_chart(x)))
        np.testing.assert_allclose(closed, J_fd.T @ v, rtol=1e-6, atol=1e-6)

    def test_linearity(self):
        p1 = UnivariatePolynomial((0.5, 1.0))
        p2 = UnivariatePolynomial((1.0, 0.0, 1.0))
        x = np.array([0.5, -0.2, 0.6, 0.0])
        x /= np.linalg.norm(x)

        def cov(form):
            def f(img):
                return form.eval_omega(form.state_at(img))
            return f

        a, b = 2.0, -0.7
        combo = pullback(lambda img: a * cov(PlanarForm(p1))(img)
                         + b * cov(PlanarForm(p2))(img), x)
        parts = a * pullback(cov(PlanarForm(p1)), x) \
            + b * pullback(cov(PlanarForm(p2)), x)
        np.testing.assert_allclose(combo, parts, atol=1e-10)

    def test_pulled_back_monodromy_around_core(self):
        # loop linking {z = 0} once; germ p(zeta) = zeta pulled through z/w
        germ = ComposedGerm(UnivariatePolynomial((0.0, 1.0)))
        t = 2.0 * np.pi * np.arange(64) / 64
        r = 0.5
        z = r * np.exp(1j * t)
        w = np.sqrt(1 - r * r) * np.ones_like(z)
        loop = Polyline(np.column_stack([z.real, z.imag, w.real, w.imag]),
                        closed=True)
        assert winding_number(germ, loop) == 1

    def test_chart_pole_rejected(self):
        for chart in (hopf_chart, hopf_jacobian):
            with pytest.raises(ImageAtInfinity):
                chart(np.array([1.0, 0, 0, 0]))


class TestGuards:
    """Each guard of the morphism layer raises on the input it names."""

    @pytest.mark.parametrize("make, error", [
        (lambda: seifert_value(2, 3, [1.0, 0.0, 0.0, 0.0]), ImageAtInfinity),
        (lambda: fiber(1, 1, 1e-300), SingularFiber),
        (lambda: stereographic_project(np.array([[0.0, 0.0, 0.0, 1.0]]),
                                       np.array([0.0, 0.0, 0.0, 1.0])),
         CurvesTooClose),
        (lambda: polygon_linking(circle([0, 0, 0], 1.0),
                                 Polyline(np.eye(3))), ValueError),
        (lambda: lb_cross_oracle(lambda x: x[..., 0], [0.0, 0.0, 0.0, 1.0]),
         ChartBoundary),
        (lambda: lb_homogeneous_extension(lambda x: x[..., 0],
                                          [2.0, 0.0, 0.0, 0.0], 0.02),
         NotOnSphere),
    ], ids=["seifert-z2-zero", "fiber-meets-core", "curve-at-pole",
            "open-curve", "chart-pole", "off-sphere"])
    def test_bad_input_raises(self, make, error):
        with pytest.raises(error):
            make()


class TestFibers:
    def test_hopf_fiber_is_great_circle(self):
        fb = fiber(1, 1, 0.7 + 0.3j, n=256)
        # spans a 2-plane through the origin and has radius 1
        u, s, vt = np.linalg.svd(fb.points)
        assert s[2] < 1e-10
        np.testing.assert_allclose(np.linalg.norm(fb.points, axis=1), 1.0,
                                   atol=1e-12)

    def test_fiber_invariance(self):
        fb = fiber(2, 3, 0.8 + 0.1j, n=512)
        vals = np.array([seifert_value(2, 3, p) for p in fb.points])
        assert np.max(np.abs(vals - vals[0])) < 1e-10

    def test_fiber_on_torus(self):
        fb = fiber(2, 3, 0.8 + 0.1j, n=512)
        r1 = np.hypot(fb.points[:, 0], fb.points[:, 1])
        r2 = np.hypot(fb.points[:, 2], fb.points[:, 3])
        assert np.ptp(r1) < 1e-12 and np.ptp(r2) < 1e-12

    def test_windings_2_3(self):
        fb = fiber(2, 3, 0.8 + 0.1j)
        assert fiber_windings(fb) == (3, 2)

    def test_windings_3_2(self):
        fb = fiber(3, 2, 0.8 + 0.1j)
        assert fiber_windings(fb) == (2, 3)

    def test_singular_fiber_is_planar_circle(self):
        fb = core_fiber(0, n=128)
        u, s, vt = np.linalg.svd(fb.points)
        assert s[2] < 1e-12

    def test_radii_match_the_full_bisection(self):
        # stopping once the midpoint rounds to an end changes no digit
        def full(p, q, modulus):
            lo, hi = 0.0, 1.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if mid**p - modulus * (1.0 - mid * mid) ** (q / 2.0) < 0.0:
                    lo = mid
                else:
                    hi = mid
            c1 = 0.5 * (lo + hi)
            return c1, np.sqrt(max(0.0, 1.0 - c1 * c1))

        rng = np.random.default_rng(0)
        for p, q in rng.integers(1, 25, size=(400, 2)):
            modulus = 10.0 ** rng.uniform(-12.0, 12.0)
            assert _radii_for(p, q, modulus) == full(p, q, modulus)

    def test_singular_base_rejected(self):
        with pytest.raises(SingularFiber):
            fiber(2, 3, 0.0)

    def test_noncoprime_rejected(self):
        with pytest.raises(ValueError):
            fiber(2, 4, 1.0)


class TestLinking:
    def test_unlinked_circles(self):
        c1 = circle([0, 0, 0], 1.0, n=256, plane=(0, 1))
        c2 = circle([5, 0, 0], 1.0, n=256, plane=(1, 2))
        assert abs(gauss_linking(c1, c2)) < 0.05

    def test_standard_hopf_link(self):
        c1 = circle([0, 0, 0], 1.0, n=512, plane=(0, 1))
        c2 = circle([1, 0, 0], 1.0, n=512, plane=(0, 2))
        assert abs(abs(gauss_linking(c1, c2)) - 1.0) < 0.05

    def test_hopf_fibers_link_once(self):
        f1 = fiber(1, 1, 0.5 + 0.2j, n=512)
        f2 = fiber(1, 1, -2.0 + 1.0j, n=512)
        assert abs(abs(linking_on_sphere(f1, f2)) - 1.0) < 0.05

    def test_pi23_regular_fibers_link_pq(self):
        lk = {n: linking_on_sphere(fiber(2, 3, 0.8 + 0.1j, n=n),
                                   fiber(2, 3, -3.0 + 2.0j, n=n))
              for n in (1024, 2048)}
        assert abs(abs(lk[1024]) - 6.0) < 0.1
        assert abs(abs(lk[2048]) - 6.0) < 0.1
        assert abs(lk[1024] - lk[2048]) < 0.05

    def test_fiber_vs_singular_fibers(self):
        # a regular fiber of pi_{2,3} links {z1 = 0} q = 3 times and
        # {z2 = 0} p = 2 times (Gauss oracle at two resolutions)
        for n in (1024, 2048):
            fb = fiber(2, 3, 100.0 + 0j, n=n)
            assert abs(abs(linking_on_sphere(fb, core_fiber(1, n=n))) - 3.0) < 0.05
            assert abs(abs(linking_on_sphere(fb, core_fiber(0, n=n))) - 2.0) < 0.05

    def test_too_close_rejected(self):
        c1 = circle([0, 0, 0], 1.0, n=64, plane=(0, 1))
        c2 = circle([0, 0, 1e-5], 1.0, n=64, plane=(0, 1))
        with pytest.raises(CurvesTooClose):
            gauss_linking(c1, c2)
        with pytest.raises(CurvesTooClose):
            polygon_linking(c1, c2)

    def test_too_close_rejected_in_a_later_block(self):
        # c2's closing segment has the midpoint of c1's segment 400, past
        # the first blocks of c1's rows
        c1 = circle([0, 0, 0], 1.0, n=512, plane=(0, 1))
        a = c1.vertices()
        m = 0.5 * (a[400] + a[401])
        u, z = m / np.linalg.norm(m), np.array([0.0, 0.0, 1.0])
        t = 2.0 * np.pi * (np.arange(256) + 0.5) / 256
        center = m + np.cos(np.pi / 256) * u
        c2 = Polyline(center - np.outer(np.cos(t), u) + np.outer(np.sin(t), z),
                      closed=True)
        with pytest.raises(CurvesTooClose):
            gauss_linking(c1, c2)

    def test_blocked_gauss_sum_matches_dense(self):
        # row counts that are not multiples of the block
        for p, q, n1, n2 in ((2, 3, 1000, 300), (1, 1, 129, 700)):
            c1, c2 = project_curves([fiber(p, q, 0.8 + 0.1j, n=n1),
                                     fiber(p, q, -1.6 - 0.2j, n=n2)])
            want = dense_gauss(c1, c2)
            assert abs(gauss_linking(c1, c2) - want) <= 1e-12 * abs(want)

    def test_gauss_sum_memory(self):
        # blocks of BLOCK_VALUES values: each (2048, 2048) array of a sum
        # over all segment pairs at once would take 32 MiB
        c1, c2 = project_curves([fiber(2, 3, 0.8 + 0.1j, n=2048),
                                 fiber(2, 3, -3.0 + 2.0j, n=2048)])
        tracemalloc.start()
        try:
            gauss_linking(c1, c2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_projection_preserves_pole_distance(self):
        fb = fiber(1, 1, 0.5 + 0.2j, n=128)
        pole = stereographic_pole([fb.points])
        proj = stereographic_project(fb.points, pole)
        assert np.all(np.isfinite(proj))


def dense_gauss(c1, c2):
    """The Gauss double sum over all segment pairs at once."""
    a, b = c1.vertices(), c2.vertices()
    ra, dra = 0.5 * (a[:-1] + a[1:]), np.diff(a, axis=0)
    rb, drb = 0.5 * (b[:-1] + b[1:]), np.diff(b, axis=0)
    diff = ra[:, None, :] - rb[None, :, :]
    cross = np.cross(dra[:, None, :], drb[None, :, :])
    integrand = np.einsum("ijk,ijk->ij", cross, diff) \
        / np.linalg.norm(diff, axis=2)**3
    return integrand.sum() / (4.0 * np.pi)


def dense_polygon(c1, c2):
    """The segment-pair solid angles over all pairs at once."""
    def solid_angle(u, v, w):
        nu, nv, nw = (np.linalg.norm(x, axis=-1) for x in (u, v, w))
        det = np.einsum("...k,...k->...", u, np.cross(v, w))
        den = (nu * nv * nw + np.einsum("...k,...k->...", u, v) * nw
               + np.einsum("...k,...k->...", u, w) * nv
               + np.einsum("...k,...k->...", v, w) * nu)
        return 2.0 * np.arctan2(det, den)

    a, b = c1.vertices(), c2.vertices()
    a0, a1 = a[:-1, None, :], a[1:, None, :]
    r00, r01 = b[None, :-1, :] - a0, b[None, 1:, :] - a0
    r10, r11 = b[None, :-1, :] - a1, b[None, 1:, :] - a1
    return (solid_angle(r00, r10, r11)
            + solid_angle(r00, r11, r01)).sum() / (4.0 * np.pi)


def noisy_hopf_link(n1, n2, seed):
    """Two linked unit circles with vertices moved by up to 0.1."""
    rng = np.random.default_rng(seed)
    c1 = circle([0, 0, 0], 1.0, n=n1, plane=(0, 1)).points
    c2 = circle([1, 0, 0], 1.0, n=n2, plane=(0, 2)).points
    return (Polyline(c1 + rng.uniform(-0.1, 0.1, c1.shape), closed=True),
            Polyline(c2 + rng.uniform(-0.1, 0.1, c2.shape), closed=True))


def loop_through(point, n, vertex):
    """A unit circle of ``n`` vertices perpendicular to the xy-plane that
    passes 1e-5 above ``point``, which lies on the unit circle of the
    xy-plane; through a vertex if ``vertex``, else a segment midpoint.
    That segment is vertical and spans heights 1e-5 -+ sin(pi/n), so the
    polygon passes through ``point`` itself."""
    u, z = point / np.linalg.norm(point), np.array([0.0, 0.0, 1.0])
    half = 0.0 if vertex else 0.5
    t = 2.0 * np.pi * (np.arange(n) + half) / n
    reach = 1.0 if vertex else np.cos(np.pi / n)
    center = point + 1e-5 * z + reach * u
    return Polyline(center - np.outer(np.cos(t), u) + np.outer(np.sin(t), z),
                    closed=True)


class TestKernelsAgainstReference:
    """The blocked kernels against whole-array formulas.  A closed curve
    of n points has n segments; a block holds BLOCK_VALUES // n rows
    against a partner of n segments in the Gauss sum, in fresh arrays of
    each block, and BLOCK_VALUES // (n + 1) against its n + 1 vertices in
    the crossing count, in arrays allocated once per call."""

    @pytest.mark.parametrize("n1,n2,rows", [
        (40, 30, 273),   # one block, fewer rows than the budget
        (301, 100, 81),  # the last block ragged
        (7, 5000, 1),    # a block holds a single row
    ])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_linking_sums(self, n1, n2, rows, seed):
        assert n_rows(n2) == rows
        c1, c2 = noisy_hopf_link(n1, n2, seed)
        gauss, exact = gauss_linking(c1, c2), polygon_linking(c1, c2)
        assert abs(gauss - dense_gauss(c1, c2)) < 1e-12
        assert exact == round(dense_polygon(c1, c2)) and abs(exact) == 1

    @pytest.mark.parametrize("n1,n2", [(40, 30), (301, 100), (7, 5000),
                                       (256, 256)])
    def test_block_rows_follow_n_rows(self, n1, n2, monkeypatch):
        # both kernels take blocks of rows of c1 segments, fewer only when
        # c1 has fewer segments: n_rows(m) against the m segments of c2 in
        # the Gauss sum, n_rows(m + 1) against the m + 1 vertices of the
        # closed c2 in the crossing count.  The pole takes blocks of the
        # curves' points against its 256 candidates
        seen = []

        def spy(n, cols):
            seen.append((n, cols, block_rows(n, cols)))
            return seen[-1][2]

        block_rows = morphisms._block_rows
        monkeypatch.setattr(morphisms, "_block_rows", spy)
        c1, c2 = noisy_hopf_link(n1, n2, 0)
        gauss_linking(c1, c2)
        polygon_linking(c1, c2)
        stereographic_pole([core_fiber(0, n=n1).points,
                            core_fiber(1, n=n2).points])
        assert seen == [(n1, n2, min(n1, n_rows(n2))),
                        (n1, n2 + 1, min(n1, n_rows(n2 + 1))),
                        (n1 + n2, 256, min(n1 + n2, n_rows(256)))]

    @pytest.mark.parametrize("p,q", [(11, 12), (23, 24)])
    @pytest.mark.parametrize("modulus", [1e-3, 1e3])
    def test_exact_linking_of_suite_fibers(self, p, q, modulus):
        # the topology suite's fiber pair, whose 256-gons link p * q times
        base = modulus * np.exp(0.4j)
        c1, c2 = project_curves([fiber(p, q, base, n=256),
                                 fiber(p, q, -2.0 * base, n=256)])
        exact = polygon_linking(c1, c2)
        assert exact == round(dense_polygon(c1, c2))
        assert abs(exact) == p * q

    @pytest.mark.parametrize("kernel,vertex", [(gauss_linking, False),
                                               (polygon_linking, True)])
    def test_too_close_in_the_ragged_last_block(self, kernel, vertex):
        # the close pair is c1's last segment, in its last block: of
        # 301 - 9 * 32 = 13 rows against 256 partner segments in the Gauss
        # sum, of 301 - 9 * 31 = 22 against 257 partner vertices in the
        # crossing count
        c1 = circle([0, 0, 0], 1.0, n=301, plane=(0, 1))
        a = c1.vertices()
        point = a[300] if vertex else 0.5 * (a[300] + a[301])
        assert n_rows(256) == 32 and 301 % 32 == 13
        assert n_rows(257) == 31 and 301 % 31 == 22
        with pytest.raises(CurvesTooClose):
            kernel(c1, loop_through(point, 256, vertex))
        # the same loop raised 0.5 away is accepted
        far = Polyline(loop_through(point, 256, vertex).points
                       + [0.0, 0.0, 0.5], closed=True)
        kernel(c1, far)


def n_rows(cols):
    """Rows of one block of a pairwise kernel against ``cols`` columns."""
    return max(1, BLOCK_VALUES // cols)


class TestExactLinking:
    def test_unlinked_circles(self):
        c1 = circle([0, 0, 0], 1.0, n=256, plane=(0, 1))
        c2 = circle([5, 0, 0], 1.0, n=256, plane=(1, 2))
        assert polygon_linking(c1, c2) == 0

    def test_standard_hopf_link(self):
        c1 = circle([0, 0, 0], 1.0, n=64, plane=(0, 1))
        c2 = circle([1, 0, 0], 1.0, n=64, plane=(0, 2))
        assert abs(polygon_linking(c1, c2)) == 1

    def test_fiber_vs_singular_fibers(self):
        # a regular fiber of pi_{2,3} links {z1 = 0} q = 3 times and
        # {z2 = 0} p = 2 times, the same integer at every vertex count
        for core, want in ((1, 3), (0, 2)):
            lk = {polygon_linking(*project_curves(
                      [fiber(2, 3, 100.0 + 0j, n=n), core_fiber(core, n=n)]))
                  for n in (128, 256, 512)}
            assert len(lk) == 1 and abs(lk.pop()) == want

    def test_sign_independent_of_pole(self):
        f1, f2 = fiber(2, 3, 0.8 + 0.1j, n=256), fiber(2, 3, -1.6 - 0.2j, n=256)
        lk = {polygon_linking(*project_curves([f1, f2], seed=seed))
              for seed in range(10)}
        # one sign at every pole
        assert len(lk) == 1 and abs(lk.pop()) == 6

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), half1=st.integers(1, 100),
           half2=st.integers(1, 200))
    def test_random_polygons_match_dense(self, seed, half1, half2):
        # odd vertex counts 3..201 and 3..401: most leave the last block of
        # n_rows(n2 + 1) rows ragged
        n1, n2 = 2 * half1 + 1, 2 * half2 + 1
        rng = np.random.default_rng(seed)
        c1 = Polyline(rng.uniform(-1.0, 1.0, (n1, 3)), closed=True)
        c2 = Polyline(rng.uniform(-1.0, 1.0, (n2, 3)), closed=True)
        dense = dense_polygon(c1, c2)
        assume(abs(dense - round(dense)) < 1e-9)
        assert polygon_linking(c1, c2) == round(dense)

    def test_coordinate_plane_hopf_circles(self):
        # viewed along z, c2 (in the xz-plane) would project onto a line
        # and, at n divisible by 4, its vertices (1, 0, +-1) onto c1's
        # vertex (1, 0, 0); VIEW_FRAME views along no axis
        frame = morphisms.VIEW_FRAME
        np.testing.assert_allclose(frame @ frame.T, np.eye(3), atol=1e-15)
        assert np.linalg.det(frame) > 0.0
        for n in range(4, 129):
            c1 = circle([0, 0, 0], 1.0, n=n, plane=(0, 1))
            for n2 in (n, 4):
                c2 = circle([1, 0, 0], 1.0, n=n2, plane=(0, 2))
                for pair in ((c1, c2), (c2, c1)):
                    lk = polygon_linking(*pair)
                    assert abs(lk) == 1 and lk == round(dense_polygon(*pair))

    def test_segment_just_over_a_midpoint(self):
        # the loop's top segment crosses c1's segment 300 -> 301 1e-5
        # above its midpoint, while no two vertices lie within 1e-3
        c1 = circle([0, 0, 0], 1.0, n=301, plane=(0, 1))
        a = c1.vertices()
        loop = loop_over(0.5 * (a[300] + a[301]), 256)
        for pair in ((c1, loop), (loop, c1)):
            lk = polygon_linking(*pair)
            assert abs(lk) == 1 and lk == round(dense_polygon(*pair))

    def test_loop_through_a_midpoint_meets_it(self):
        # loop_through(..., vertex=False) passes through c1's segment
        # midpoint, so the polygons meet there
        c1 = circle([0, 0, 0], 1.0, n=301, plane=(0, 1))
        a = c1.vertices()
        for k in (0, 150, 300):
            loop = loop_through(0.5 * (a[k] + a[k + 1]), 256, vertex=False)
            for pair in ((c1, loop), (loop, c1)):
                with pytest.raises(CurvesTooClose, match="meet"):
                    polygon_linking(*pair)

    def test_polygons_meeting_at_a_crossing(self):
        # c2's first segment passes through (0.5, 0.5, 0) on c1's first
        # segment; no two vertices lie within 1
        c1 = Polyline(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]),
                      closed=True)
        c2 = np.array([[0.0, 0.0, -1.0], [1.0, 1.0, 1.0], [2.0, -1.0, 0.0]])
        for pair in ((c1, Polyline(c2, closed=True)),
                     (Polyline(c2, closed=True), c1)):
            with pytest.raises(CurvesTooClose, match="meet"):
                polygon_linking(*pair)
        # lifted 1e-6, c2 passes over c1 and the two link once
        lifted = Polyline(c2 + [0.0, 0.0, 1e-6], closed=True)
        lk = polygon_linking(c1, lifted)
        assert abs(lk) == 1 and lk == round(dense_polygon(c1, lifted))


def loop_over(point, n):
    """A unit circle of ``n`` vertices perpendicular to the xy-plane whose
    top segment, between its vertices at t = pi/2 -+ pi/n, passes 1e-5
    above ``point``, a point inside the unit circle of the xy-plane, along
    the radial direction: the loop dips through that circle's disk just
    inside ``point`` and leaves it just outside."""
    u, z = point / np.linalg.norm(point), np.array([0.0, 0.0, 1.0])
    t = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    center = point + (1e-5 - np.cos(np.pi / n)) * z
    return Polyline(center + np.outer(np.cos(t), u) + np.outer(np.sin(t), z),
                    closed=True)


class TestSuiteFibers:
    @pytest.mark.parametrize("p,q", [(1, 1), (2, 3), (3, 2), (2, 5)])
    def test_256_gon_is_every_4th_vertex(self, p, q):
        # t = 2 pi k / n scales by powers of two, so the topology suite's
        # 256-gon is every 4th vertex of the 1024-vertex fiber, bit for bit
        for base in (1e-3, 0.1 + 0.2j, -0.7 + 0.3j, 3.0 * np.exp(2.1j),
                     -1e3j):
            want = fiber(p, q, base, n=1024).points[::4]
            assert fiber(p, q, base, n=256).points.tobytes() == \
                want.tobytes()

    def test_every_fiber_at_the_base_bounds(self):
        # every coprime p, q <= MAX_FIBER_INDEX at |base| MIN_FIBER_BASE
        # and MAX_FIBER_BASE, base angle 2.1, seed 0: 718 jobs, each
        # linking exactly p * q times
        failed, jobs = [], 0
        for p in range(1, MAX_FIBER_INDEX + 1):
            for q in range(1, MAX_FIBER_INDEX + 1):
                if math.gcd(p, q) != 1:
                    continue
                for modulus in (MIN_FIBER_BASE, MAX_FIBER_BASE):
                    base = [modulus * math.cos(2.1), modulus * math.sin(2.1)]
                    report = run_suite("topology", normalize_descriptor(
                        {"kind": "fiber", "p": p, "q": q, "base": base}))
                    linking = next(c for c in report.checks
                                   if c.name == "topology.fiber_linking")
                    jobs += 1
                    if not (report.passed and abs(
                            linking.details["linking_exact"]) == p * q):
                        failed.append((p, q, modulus))
        assert jobs == 718 and not failed


class TestPole:
    def test_matches_dense_distance_argmax(self):
        def dense(curves, seed):
            rng = np.random.default_rng(seed)
            cand = rng.normal(size=(256, 4))
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
            allpts = np.vstack(curves)
            dists = np.linalg.norm(cand[:, None, :] - allpts[None, :, :], axis=2)
            return cand[np.argmax(dists.min(axis=1))]

        sets = ([fiber(1, 1, 0.5 + 0.2j, n=128).points],
                [fiber(2, 3, 0.8 + 0.1j, n=1024).points,
                 fiber(2, 3, -1.6 - 0.2j, n=1024).points],
                [core_fiber(0, n=300).points, core_fiber(1, n=300).points,
                 fiber(2, 5, 0.3 - 0.4j, n=777).points])
        for curves in sets:
            for seed in (0, 1, 7):
                np.testing.assert_array_equal(stereographic_pole(curves, seed),
                                              dense(curves, seed))


class TestCoveringDegree:
    @pytest.mark.parametrize("p,q", [(2, 3), (3, 2), (1, 1)])
    def test_near_z2_core(self, p, q):
        fb = fiber(p, q, 5e3 + 0j, n=2048)
        assert covering_degree(fb, core_fiber(0, n=1024)) == q

    def test_degeneration_toward_core(self):
        # covering degree is q for every fiber inside the 0.2-tube
        for mod in (1e3, 1e4, 1e6):
            fb = fiber(2, 3, mod * np.exp(0.7j), n=2048)
            d = np.min(np.linalg.norm(
                fb.points[:, None, :] - core_fiber(0, n=512).points[None, :, :],
                axis=2), axis=1).max()
            if d < 0.2:
                assert covering_degree(fb, core_fiber(0, n=512)) == 3

    @pytest.mark.parametrize("p,q", [(3, 8), (7, 9), (11, 12)])
    def test_topology_suite_covering_degree(self, p, q):
        # the suite's covering fiber stays in the tube for every (p, q), and
        # the whole suite passes, also for (11, 12), whose fibers link 132
        # times
        report = run_suite("topology", normalize_descriptor(
            {"kind": "fiber", "p": p, "q": q}))
        check = next(c for c in report.checks
                     if c.name == "topology.covering_degree")
        assert check.passed and check.details["degree"] == q
        linking = next(c for c in report.checks
                       if c.name == "topology.fiber_linking")
        assert abs(round(linking.details["linking_exact"])) == p * q
        assert report.passed

    def test_topology_suite_memory(self):
        # no O(N * M) temporary: dense kernels peak at 288 MB and 128-row
        # blocks at 12.2 MiB; blocks of BLOCK_VALUES values stay near
        # 0.35 MiB
        descriptor = normalize_descriptor({"kind": "fiber", "p": 2, "q": 5})
        tracemalloc.start()
        try:
            report = run_suite("topology", descriptor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 3), (3, 2), (2, 5)])
    @pytest.mark.parametrize("n_fiber,n_core", [(2048, 1024), (2047, 1000)])
    def test_suite_fibers(self, p, q, n_fiber, n_core):
        # the suite's covering fiber, 0.1 from the core, also at vertex
        # counts that are not powers of two.  Its distance to the fitted
        # circle is the distance to the nearest of 2^14 points of the core,
        # which lies within pi / 2^14 of the nearest circle point: at
        # distance 0.1 that adds at most 0.99 (pi / 2^14)^2 / 0.2 = 1.83e-7
        c2 = 0.1
        c1 = np.sqrt(1.0 - c2**2)
        fb = fiber(p, q, c1**p / c2**q + 0j, n=n_fiber)
        core = core_fiber(0, n=n_core)
        excess = dense_core_distance(fb.points, core_fiber(0, n=2**14).points) \
            - _circle_coords(fb.points, core.points)[0]
        assert excess.min() > -1e-12 and excess.max() < 1.9e-7
        assert covering_degree(fb, core) == q

    @pytest.mark.parametrize("d,inside", [(0.29, True), (0.31, False)])
    def test_tube_edge(self, d, inside):
        # the fiber on the torus |z1| = c1, |z2| = c2 lies
        # sqrt((1 - c1)^2 + c2^2) = sqrt(2 - 2 c1) from the core {z2 = 0}
        c1 = 1.0 - 0.5 * d * d
        c2 = np.sqrt(1.0 - c1**2)
        fb = fiber(2, 3, c1**2 / c2**3 + 0j, n=2048)
        core = core_fiber(0, n=1024)
        np.testing.assert_allclose(_circle_coords(fb.points, core.points)[0],
                                   d, rtol=1e-12)
        if inside:
            assert covering_degree(fb, core) == 3
        else:
            with pytest.raises(NotInTube):
                covering_degree(fb, core)

    def test_not_in_tube_rejected(self):
        fb = fiber(2, 3, 1.0 + 0j, n=512)
        with pytest.raises(NotInTube):
            covering_degree(fb, core_fiber(0, n=256))


def dense_core_distance(points, core_points):
    """Distance of each point x to the nearest core point y, from
    |x - y|^2 = |x|^2 + |y|^2 - 2 x.y over all pairs, 64 points at a time."""
    core_sq = (core_points**2).sum(axis=1)
    return np.concatenate([
        np.sqrt(((x**2).sum(axis=1)[:, None] + core_sq - 2.0 * x @ core_points.T)
                .min(axis=1))
        for x in np.split(points, range(64, len(points), 64))])


class TestLaplaceBeltrami:
    def test_constant_field(self):
        res = laplace_beltrami_residual(lambda y: np.full(y.shape[:-1], 3.7),
                                        [0.2, -0.1, 0.3], step=1e-2)
        assert abs(res) < 1e-9

    def test_hopf_pullback_harmonic_on_s3(self):
        def field(y):
            return hopf_chart(stereo_embed(y))[..., 0]  # Re(z/w), harmonic

        y0 = np.array([0.4, -0.3, 0.25])
        r1 = laplace_beltrami_residual(field, y0, step=2e-2)
        r2 = laplace_beltrami_residual(field, y0, step=1e-2)
        assert 3.4 < r1 / r2 < 4.6

    def test_cross_oracle_agreement(self):
        def field(x):
            return x[..., 0] ** 2 * x[..., 1] + x[..., 2] * x[..., 3] \
                + 0.3 * x[..., 1] ** 3

        x0 = np.array([0.5, -0.2, 0.6, 0.0])
        x0 /= np.linalg.norm(x0)
        a, b = lb_cross_oracle(field, x0)
        assert abs(a - b) <= 1e-6 * max(abs(a), abs(b))
