import tracemalloc
import warnings

import numpy as np
import pytest

from z2forms import (AxialForm, BivariatePolynomial, Node, PlanarForm,
                     ProductOfLines, RamifiedCover, ReHPowerForm,
                     UnivariatePolynomial, sample_sigma, vanishing_order)
from z2forms.branch import HalfPower, principal_state
from z2forms.errors import EmptyIntersection, PathHitsBranchLocus
from z2forms.fd import (fd_curl_components, fd_divergence, fd_jacobian,
                        fd_laplacian, rms)
from z2forms.forms import hausdorff_distance, sample_lines_on_sphere
from z2forms.suites import MAX_POINTS, normalize_descriptor, run_suite

ZW_FORM = ReHPowerForm(Node(0, 0, 0))
THREE_LINES = ProductOfLines(((1, 0), (0, 1), (1, 1)))


def state(form, *coords):
    return principal_state(form.h, np.asarray(coords, dtype=float))


class TestEvalF:
    def test_h_one(self):
        assert ZW_FORM.eval_f(state(ZW_FORM, 1, 0, 1, 0)) == pytest.approx(1.0)

    def test_h_minus_one_has_zero_real_part(self):
        # h = i*i = -1, (-1)^{3/2} = -i
        assert ZW_FORM.eval_f(state(ZW_FORM, 0, 1, 0, 1)) == pytest.approx(0.0, abs=1e-14)

    def test_h_four(self):
        assert ZW_FORM.eval_f(state(ZW_FORM, 4, 0, 1, 0)) == pytest.approx(8.0)

    def test_on_locus_rejected(self):
        from z2forms.branch import PathHitsBranchLocus
        with pytest.raises(PathHitsBranchLocus):
            state(ZW_FORM, 0, 0, 1, 0)


class TestEvalOmega:
    def test_at_ones(self):
        om = ZW_FORM.eval_omega(state(ZW_FORM, 1, 0, 1, 0))
        np.testing.assert_allclose(om, [1.5, 0, 1.5, 0], atol=1e-14)

    def test_at_four_one(self):
        # closed form: h^{1/2} = 2, h_z = w = 1, h_w = z = 4
        om = ZW_FORM.eval_omega(state(ZW_FORM, 4, 0, 1, 0))
        np.testing.assert_allclose(om, [3.0, 0, 12.0, 0], atol=1e-12)

    @pytest.mark.parametrize("point", [
        (1.3, 0.2, 0.9, -0.4), (4, 0, 1, 0), (-1, 1, 2, 0.5)])
    @pytest.mark.parametrize("form", [
        ZW_FORM, ReHPowerForm(THREE_LINES),
        ReHPowerForm(RamifiedCover(1.0)), ReHPowerForm(Node(1, 0, 0))])
    def test_matches_fd_gradient_of_f(self, form, point):
        st = principal_state(form.h, point)
        om = form.eval_omega(st)
        grad = fd_jacobian(form.f_near(st), st.at, 1e-5)
        np.testing.assert_allclose(om, grad, rtol=1e-7, atol=1e-7)

    def test_fd_richardson_ratio_near_four(self):
        # definitional consistency: FD error of the gradient is O(step^2)
        st = state(ZW_FORM, 1.3, 0.2, 0.9, -0.4)
        om = form_om = ZW_FORM.eval_omega(st)
        f = ZW_FORM.f_near(st)
        e1 = np.linalg.norm(fd_jacobian(f, st.at, 2e-3) - om)
        e2 = np.linalg.norm(fd_jacobian(f, st.at, 1e-3) - om)
        assert 3.4 < e1 / e2 < 4.6

    @pytest.mark.parametrize("form, point", [
        (ZW_FORM, (1.3, 0.2, 0.9, -0.4)),
        (PlanarForm(UnivariatePolynomial((1.0, 0.5, 1.0))), (0.7, 0.4)),
        (AxialForm(), (0.8, -0.3, 1.2))], ids=["rehpower", "planar", "axial"])
    def test_sign_flips_covector_not_magnitude(self, form, point):
        st = form.state_at(point)
        flipped = type(st)(at=st.at, h_value=st.h_value, sign=-st.sign)
        om1, om2 = form.eval_omega(st), form.eval_omega(flipped)
        np.testing.assert_allclose(om1, -om2, atol=1e-14)
        assert np.linalg.norm(om1) == pytest.approx(
            form.magnitude(st.at), rel=1e-12)


def axial_omega(z_coord, w):
    """omega of the axial form at (Re w, Im w, z), on the principal branch."""
    form = AxialForm()
    return form.eval_omega(form.state_at([w.real, w.imag, z_coord]))


class TestR3Form:
    def test_axis_origin_example(self):
        np.testing.assert_allclose(axial_omega(0.0, 1.0), [0, 0, 2], atol=1e-14)

    def test_at_one_one(self):
        np.testing.assert_allclose(axial_omega(1.0, 1.0), [3, 0, 2], atol=1e-14)

    def test_at_one_minus_one(self):
        # principal (-1)^{1/2} = i: 3*Re(i(dx+idy)) = -3 dy; Re((-1)^{3/2}) = 0
        np.testing.assert_allclose(axial_omega(1.0, -1.0), [0, -3, 0], atol=1e-14)

    def test_matches_fd_gradient_of_potential(self):
        form = AxialForm()
        st = form.state_at([0.8, -0.3, 1.2])
        grad = fd_jacobian(form.f_near(st), st.at, 1e-6)
        np.testing.assert_allclose(form.eval_omega(st), 2.0 * grad,
                                   rtol=1e-7, atol=1e-7)

    def test_on_axis_rejected(self):
        with pytest.raises(PathHitsBranchLocus):
            AxialForm().state_at([0.0, 0.0, 1.0])


class TestPlanar:
    P_Z = PlanarForm(UnivariatePolynomial((0.0, 1.0)))

    def test_at_one(self):
        st = self.P_Z.state_at([1.0, 0.0])
        np.testing.assert_allclose(self.P_Z.eval_omega(st), [1, 0], atol=1e-14)

    def test_at_minus_one(self):
        st = self.P_Z.state_at([-1.0, 0.0])
        np.testing.assert_allclose(self.P_Z.eval_omega(st), [0, -1], atol=1e-14)

    def test_translated(self):
        a = 2.5
        form = PlanarForm(UnivariatePolynomial((-a, 1.0)))  # z - a
        st = form.state_at([a + 4.0, 0.0])
        np.testing.assert_allclose(form.eval_omega(st), [2, 0], atol=1e-14)

    def test_closed_and_coclosed(self):
        p = UnivariatePolynomial((1.0, 0.5, 1.0))
        form = PlanarForm(p)

        def field(pt):
            return form.eval_omega(principal_state(p, pt))

        pt = np.array([0.7, 0.4])
        assert abs(fd_divergence(field, pt, 1e-5)) < 1e-8
        assert np.all(np.abs(fd_curl_components(field, pt, 1e-5)) < 1e-8)


class TestHarmonicity:
    @pytest.mark.parametrize("form", [
        ZW_FORM, ReHPowerForm(Node(1, 0, 0)), ReHPowerForm(THREE_LINES),
        ReHPowerForm(RamifiedCover(1.0))])
    def test_laplacian_richardson_ratio(self, form):
        rng = np.random.default_rng(7)
        res = {1e-2: [], 5e-3: []}
        n = 0
        while n < 20:
            pt = rng.uniform(-2, 2, size=4)
            if form.h.sigma_distance_bound(pt) <= 0.12:
                continue
            st = principal_state(form.h, pt)
            f = form.f_near(st)
            for h in res:
                res[h].append(fd_laplacian(f, pt, h))
            n += 1
        ratio = rms(res[1e-2]) / rms(res[5e-3])
        assert 3.4 < ratio < 4.6

    def test_r3_potential_harmonic(self):
        form = AxialForm()
        pt = np.array([0.8, -0.3, 1.2])
        f = form.f_near(form.state_at(pt))
        r1 = fd_laplacian(f, pt, 1e-2)
        r2 = fd_laplacian(f, pt, 5e-3)
        assert 3.4 < r1 / r2 < 4.6


class TestHarmonicitySuiteEverySeed:
    """The harmonicity suite passes at every seed, not one picked to pass."""

    @pytest.mark.parametrize("spec", [
        {"kind": "node", "a": 0, "b": 0, "c": 0},
        {"kind": "node", "a": [0.4, 0.3], "b": 0.1, "c": [0, -0.2]},
        {"kind": "lines", "lines": [[1, 0], [0, 1], [1, 1]]},
        {"kind": "ramified", "a": 1},
        {"kind": "bivariate", "terms": [[2, 0, 1], [0, 3, -1], [1, 1, 0.3]]},
        {"kind": "planar", "p": [1.0, 0.5, 1.0]},
        {"kind": "axial", "k": 1},
        {"kind": "axial", "k": 2},
    ], ids=["node0", "node", "lines", "ramified", "bivariate", "planar",
            "axial-k1", "axial-k2"])
    def test_seeds_0_to_39(self, spec):
        d = normalize_descriptor(spec)
        failing = {}
        for seed in range(40):
            checks = run_suite("harmonicity", d, seed).checks
            if not all(c.passed for c in checks):
                failing[seed] = [c.details["ratio"] for c in checks]
        assert not failing


class TestHarmonicityAtPointsCap:
    def test_memory_at_max_points(self):
        # the stencils of all centers are walked as arrays, a few (points,
        # dim) arrays at a time
        d = normalize_descriptor({"kind": "bivariate",
                                  "terms": [[2, 0, 1], [0, 3, -1], [1, 1, 0.3]]})
        tracemalloc.start()
        try:
            report = run_suite("harmonicity", d, 0, {"points": MAX_POINTS})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert report.checks[0].details["points"] == MAX_POINTS
        assert peak < 64 * 2**20


class TestHarmonicPolynomialInputs:
    """Where f (or the planar covector) is a harmonic polynomial the FD
    residual is round-off; it passes under the round-off floor."""

    @pytest.mark.parametrize("spec", [
        {"kind": "bivariate", "terms": [[2, 0, 1]]},
        {"kind": "planar", "p": [0, 0, 1]},
        {"kind": "planar", "p": [0, 0, 0, 0, 1]},
    ], ids=["bivariate-z2", "planar-z2", "planar-z4"])
    def test_seeds_0_to_9(self, spec):
        d = normalize_descriptor(spec)
        for seed in range(10):
            for check in run_suite("harmonicity", d, seed).checks:
                assert check.passed, (seed, check.details)
                assert check.details["residual"] \
                    < check.details["roundoff_floor"]

    def test_passing_ratio_computes_no_floor(self):
        d = normalize_descriptor({"kind": "node", "a": 0, "b": 0, "c": 0})
        check, = run_suite("harmonicity", d).checks
        assert "roundoff_floor" not in check.details


class TestLineDirections:
    def test_tiny_coefficients_do_not_underflow(self):
        """{1e-200 z + 1e-200 w = 0} is the line z + w = 0; |(a, b)|^2
        underflows, and the direction must not."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (v,) = ProductOfLines(((1e-200, 1e-200),)).unit_directions()
        assert np.array_equal(v, np.array([1, -1]) / np.sqrt(2))

    def test_directions_unchanged_for_ordinary_coefficients(self):
        """Bit for bit, signed zeros included, the plain v / |v| wherever
        |v|^2 is a normal float."""
        rng = np.random.default_rng(5)
        coef = (rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))) \
            * 10.0 ** rng.uniform(-100, 100, size=(200, 1))
        coef[::5, 0], coef[1::5, 1] = 0.0, 1.0
        lines = ProductOfLines(tuple(map(tuple, coef)))
        for (a, b), got in zip(coef, lines.unit_directions()):
            v = np.array([b, -a])
            assert got.tobytes() == (v / np.linalg.norm(np.abs(v))).tobytes()


class TestVanishingOrder:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_axial_suite_orders(self, k):
        # k + 1/2 at the origin, k - 1/2 elsewhere on the axis
        checks = run_suite("vanishing-order",
                           normalize_descriptor({"kind": "axial", "k": k})).checks
        assert [c.details["expected"] for c in checks] == [k + 0.5, k - 0.5]
        assert all(c.passed for c in checks)

    def test_zw_smooth_point(self):
        slope = vanishing_order(ZW_FORM.magnitude, [0, 0, 1, 0], [1, 0, 0, 0])
        assert abs(slope - 0.5) < 0.05

    def test_three_lines_smooth_point(self):
        form = ReHPowerForm(THREE_LINES)
        # smooth point of {z = 0} away from the other lines
        slope = vanishing_order(form.magnitude, [0, 0, 1, 0], [1, 0, 0, 0])
        assert abs(slope - 0.5) < 0.05

    def test_r3_origin_order_three_halves(self):
        form = AxialForm()
        slope = vanishing_order(form.magnitude, [0, 0, 0], [1, 0, 0])
        assert abs(slope - 1.5) < 0.05

    def test_r3_axis_point_order_one_half(self):
        form = AxialForm()
        slope = vanishing_order(form.magnitude, [0, 0, 1], [1, 0, 0])
        assert abs(slope - 0.5) < 0.05


class TestHomogeneity:
    @pytest.mark.parametrize("lam", [1e-2, 1e-1, 0.5])
    def test_log_f_scaling(self, lam):
        form = ReHPowerForm(THREE_LINES)
        x = np.array([0.9, 0.1, 0.4, -0.2])
        fx = form.eval_f(principal_state(form.h, x))
        flx = form.eval_f(principal_state(form.h, lam * x))
        J = len(THREE_LINES.lines)
        assert abs(np.log(abs(flx)) - np.log(abs(fx))
                   - 1.5 * J * np.log(lam)) < 1e-8

    def test_sigma_scale_invariance(self):
        samples = {r: sample_lines_on_sphere(THREE_LINES, r) / r
                   for r in (1e-2, 1e-1, 1.0)}
        base = samples[1.0]
        for r in (1e-2, 1e-1):
            assert hausdorff_distance(samples[r], base) < 1e-9


class TestSampleSigma:
    def test_zw_minus_one_residual(self):
        h = Node(a=1.0, b=0.0, c=0.0)  # zw = 1
        window = [[-2, 2]] * 4
        clouds = sample_sigma(h, window, 100, seed=3)
        pts = np.vstack(clouds)
        assert len(pts) > 10
        residuals = [abs(h.value_at(p)) for p in pts]
        assert max(residuals) < 1e-9

    def test_ramified_direct_roots(self):
        h = RamifiedCover(1.0)
        roots = np.roots(list(reversed(h.w_poly_coeffs(0.0))))
        np.testing.assert_allclose(sorted(roots.real), [-1, 1], atol=1e-12)
        np.testing.assert_allclose(roots.imag, 0, atol=1e-12)

    def test_lines_exact(self):
        clouds = sample_sigma(THREE_LINES, [[-1, 1]] * 4, 128)
        assert len(clouds) == 3
        for cloud in clouds:
            assert max(abs(THREE_LINES.value_at(p)) for p in cloud) < 1e-12

    def test_empty_window(self):
        h = Node(a=1.0, b=0.0, c=0.0)
        with pytest.raises(EmptyIntersection):
            sample_sigma(h, [[0.01, 0.02]] * 4, 10)

    def test_nodal_family_degeneration(self):
        # h = (z - b)(w - c) - a; a = 0 degenerates to {z = b} u {w = c}
        assert Node(0, 0, 0).value(2.0, 0.5) == pytest.approx(1.0)
        assert Node(1, 0, 0).value(2.0, 0.5) == pytest.approx(0.0)


class TestGaugeInvariance:
    def test_two_homotopic_paths(self):
        from z2forms import Polyline, continue_branch
        start_pt = np.array([1.0, 0, 1, 0])
        end_pt = np.array([0.5, 0.5, 1.0, 0.5])
        mid_a = np.array([1.0, 0.5, 1.0, 0.2])
        mid_b = np.array([0.4, -0.2, 1.0, 0.4])
        st = principal_state(ZW_FORM.h, start_pt)
        sa = continue_branch(ZW_FORM.h, Polyline(np.array([start_pt, mid_a, end_pt])), st)
        sb = continue_branch(ZW_FORM.h, Polyline(np.array([start_pt, mid_b, end_pt])), st)
        oa, ob = ZW_FORM.eval_omega(sa), ZW_FORM.eval_omega(sb)
        np.testing.assert_allclose(oa, ob, atol=1e-10)

    def test_paths_differing_by_meridian(self):
        from z2forms import Polyline, circle, continue_branch
        start_pt = np.array([1.0, 0, 1, 0])
        st = principal_state(ZW_FORM.h, start_pt)
        loop = circle([0, 0, 1, 0], 1.0, n=64, plane=(0, 1))
        looped = continue_branch(ZW_FORM.h, loop, st)
        oa, ob = ZW_FORM.eval_omega(st), ZW_FORM.eval_omega(looped)
        np.testing.assert_allclose(oa, -ob, atol=1e-10)
        assert np.linalg.norm(oa) == pytest.approx(np.linalg.norm(ob), rel=1e-8)
