import cmath
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from z2forms import (BivariatePolynomial, Node, Polyline, ProductOfLines,
                     RamifiedCover, UnivariatePolynomial, circle,
                     continue_branch, monodromy, principal_state,
                     winding_number)
from z2forms.branch import (EPS_SIGMA, MAX_REFINE_DEPTH, BranchState,
                            HalfPower, _segments, continue_straight,
                            monodromy_and_winding)
from z2forms.errors import PathHitsBranchLocus, RefinementLimit

ZW = Node(a=0, b=0, c=0)          # h = zw
ZW_SQUARED = BivariatePolynomial(((2, 2, 1.0),))   # h = (zw)^2
Z_LINEAR = UnivariatePolynomial((0.0, 1.0))        # h(z) = z


def z_loop(w=1.0, radius=1.0, n=64):
    """Loop {(radius*e^it, w)} in C^2, a meridian of the z-axis {z = 0}."""
    return circle([0, 0, w, 0], radius, n=n, plane=(0, 1))


class TestGuards:
    """Each guard on a path or branch input raises on the input it names."""

    @pytest.mark.parametrize("make, match", [
        (lambda: Polyline(np.zeros((1, 2))), "at least 2 points"),
        (lambda: Polyline(np.zeros((2, 5))), "must live in"),
        (lambda: Polyline([[0.0, 0.0], [np.nan, 1.0]]), "finite"),
        (lambda: Polyline([[0.0, 1.0], [0.0, 1.0]]), "distinct"),
        (lambda: Polyline([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]], closed=True),
         "repeat its first point"),
        (lambda: HalfPower(-1), "nonnegative"),
        (lambda: BranchState(at=[1.0, 0.0, 1.0, 0.0], h_value=1.0, sign=2),
         "sign"),
        (lambda: continue_branch(ZW, z_loop(),
                                 principal_state(ZW, [0.0, 1.0, 1.0, 0.0])),
         "first path point"),
    ], ids=["one-point", "r5", "nan", "repeated-point", "closed-repeat",
            "negative-k", "sign-2", "start-off-path"])
    def test_bad_input_raises(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()


class TestBranchState:
    def test_fields_and_signed_root(self):
        st_ = principal_state(ZW, [0.3, 0.7, -1.1, 0.2])
        assert [f.name for f in dataclasses.fields(st_)] == ["at", "h_value",
                                                             "sign"]
        flipped = BranchState(at=st_.at, h_value=st_.h_value, sign=-1)
        assert flipped.sqrt_value == -st_.sqrt_value == -cmath.sqrt(st_.h_value)


class TestHalfPower:
    def test_exponent(self):
        assert HalfPower(1).exponent == 1.5
        assert HalfPower(0).exponent == 0.5


class TestContinuation:
    def test_sqrt_monodromy_unit_circle(self):
        loop = circle([0, 0], 1.0, n=64)
        assert monodromy(Z_LINEAR, loop) == -1

    def test_square_has_trivial_monodromy(self):
        p = UnivariatePolynomial((0.0, 0.0, 1.0))  # z^2
        loop = circle([0, 0], 1.0, n=64)
        assert monodromy(p, loop) == +1

    def test_zw_meridian_monodromy(self):
        assert monodromy(ZW, z_loop()) == -1

    def test_zw_squared_meridian(self):
        assert monodromy(ZW_SQUARED, z_loop()) == +1

    def test_ramified_cover_smooth_point_meridian(self):
        # smooth point of {w^2 = z^3 + 1} at (0, 1); transverse loop in w
        h = RamifiedCover(a=1.0)
        loop = circle([0, 0, 1, 0], 0.3, n=64, plane=(2, 3))
        assert monodromy(h, loop) == -1
        assert winding_number(h, loop) == 1

    def test_path_near_locus_raises(self):
        loop = circle([0, 0, 0, 0], 1.0, n=64, plane=(0, 1))  # w = 0
        with pytest.raises(PathHitsBranchLocus):
            monodromy(ZW, loop)

    def test_refinement_of_coarse_loop(self):
        # 3 vertices force per-segment refinement but the sign is unchanged
        assert monodromy(ZW, z_loop(n=3)) == -1

    @pytest.mark.parametrize("h,loop,expected", [
        (ZW, z_loop(), -1),
        (ZW, circle([1, 0, 0, 0], 0.5, n=64, plane=(2, 3)), -1),
        (ZW_SQUARED, z_loop(), +1),
        (RamifiedCover(1.0), circle([0, 0, 1, 0], 0.3, n=64, plane=(2, 3)), -1),
    ])
    def test_winding_law(self, h, loop, expected):
        w = winding_number(h, loop)
        assert (-1) ** w == expected == monodromy(h, loop)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_refinement_stability(self, n):
        loop = z_loop(n=n)
        assert monodromy(ZW, loop) == monodromy(ZW, loop.refined(2)) == -1

    def test_reversal_returns_start(self):
        path = Polyline(np.array([[1.0, 0, 1, 0], [0.5, 0.8, 1, 0],
                                  [-0.9, 0.1, 1, 0]]))
        start = principal_state(ZW, path.points[0])
        end = continue_branch(ZW, path, start)
        back = continue_branch(ZW, Polyline(path.points[::-1]), end)
        assert abs(back.sqrt_value - start.sqrt_value) <= 1e-8 * abs(start.sqrt_value)
        assert back.sign == start.sign

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_square_consistency_along_path(self, seed):
        rng = np.random.default_rng(seed)
        pts = np.array([[1.0, 0, 1, 0]])
        for _ in range(4):
            step = rng.uniform(-0.4, 0.4, size=4)
            pts = np.vstack([pts, pts[-1] + step])
        try:
            path = Polyline(pts)
            state = continue_branch(ZW, path, principal_state(ZW, pts[0]))
        except PathHitsBranchLocus:
            return
        assert abs(state.sqrt_value**2 - state.h_value) \
            <= 1e-10 * max(1.0, abs(state.h_value))

    def test_continue_straight_matches_path(self):
        start = principal_state(ZW, [1.0, 0, 1, 0])
        target = np.array([0.2, 0.7, 1.0, 0.3])
        s1 = continue_straight(ZW, start, target)
        s2 = continue_branch(ZW, Polyline(np.array([start.at, target])), start)
        assert s1.sqrt_value == pytest.approx(s2.sqrt_value)


def dyadic(h, a, b, out: list, depth: int = 0) -> None:
    """Reference refinement, one point at a time: append to ``out`` h at
    the end of each dyadic piece of the segment [a, b] on which arg h turns
    by less than pi/2, depth first; ``out[-1]`` is h(a)."""
    hv_b = h.value_at(b)
    if abs(hv_b) < EPS_SIGMA:
        raise PathHitsBranchLocus(f"|h| = {abs(hv_b):.3e} on path")
    if abs(np.angle(hv_b / out[-1])) < np.pi / 2:
        out.append(hv_b)
        return
    if depth >= MAX_REFINE_DEPTH:
        raise RefinementLimit("segment required more than 2**20 subdivisions")
    mid = 0.5 * (a + b)
    dyadic(h, a, mid, out, depth + 1)
    dyadic(h, mid, b, out, depth + 1)


def scalar_walk(h, a, b):
    """Reference: the principal root at a continued to b one point at a
    time, with cmath roots and the dyadic walk; returns (h(b), sign)."""
    hvs = [h.value_at(a)]
    dyadic(h, a, b, hvs)
    sign, r_prev = 1, cmath.sqrt(hvs[0])
    for hv in hvs[1:]:
        r = cmath.sqrt(hv)
        if abs(r - r_prev) > abs(r + r_prev):
            sign = -sign
        r_prev = r
    return hvs[-1], sign


def assert_matches_scalar(h, centers, points):
    """continue_straight from all centers at once equals, segment by
    segment, continue_branch and the reference scalar walk."""
    batch = continue_straight(h, principal_state(h, centers), points)
    ends = np.broadcast_to(points, batch.at.shape)
    starts = np.broadcast_to(centers, batch.at.shape)
    for i in np.ndindex(batch.sign.shape):
        one = continue_branch(h, Polyline(np.array([starts[i], ends[i]])),
                              principal_state(h, starts[i]))
        hv, sign = scalar_walk(h, starts[i], ends[i])
        assert batch.sign[i] == one.sign == sign
        assert batch.h_value[i] == pytest.approx(hv, rel=1e-14)
        assert batch.sqrt_value[i] == pytest.approx(one.sqrt_value, rel=1e-14)
    return batch


class TestBatchedContinuation:
    """The array walk of continue_straight against the scalar walk."""

    # planar h = z^3 near its triple root: stencil segments of step 1e-2
    # from centers at |z| = 0.012 and 0.008 turn arg h by more than pi/2
    H = UnivariatePolynomial((0.0, 0.0, 0.0, 1.0))
    STEP = 1e-2
    OFFSETS = STEP * np.array([[1, 0], [-1, 0], [0, 1], [0, -1]])

    def centers(self, radius):
        t = 2.0 * np.pi * np.arange(8) / 8 + 0.1
        return radius * np.column_stack([np.cos(t), np.sin(t)])

    @pytest.mark.parametrize("radius", [0.012, 0.008])
    def test_refinement_fallback_inside_the_batch(self, radius):
        centers = self.centers(radius)
        points = centers + self.OFFSETS[:, None]   # offsets x centers x 2
        turn = np.angle(self.H.value_at(points) / self.H.value_at(centers))
        assert np.count_nonzero(np.abs(turn) >= np.pi / 2) >= 16
        assert_matches_scalar(self.H, centers, points)

    def test_refinement_changes_signs(self):
        # at |z| = 0.008 one nearest-root step would pick the wrong root
        centers = self.centers(0.008)
        points = centers + self.OFFSETS[:, None]
        batch = continue_straight(self.H, principal_state(self.H, centers),
                                  points)
        r_a = np.sqrt(self.H.value_at(centers))
        r_b = np.sqrt(self.H.value_at(points))
        one_step = np.where(np.abs(r_b - r_a) > np.abs(r_b + r_a), -1, 1)
        assert np.any(one_step != batch.sign)

    def test_path_hits_locus_from_the_batch(self):
        h = UnivariatePolynomial((0.0, 1.0))
        centers = np.array([[0.5, 0.0], [0.3, 0.3], [-0.4, 0.2]])
        points = np.array([[0.6, 0.0], [0.0, 0.0], [-0.4, 0.3]])
        with pytest.raises(PathHitsBranchLocus, match="on path"):
            continue_straight(h, principal_state(h, centers), points)

    def test_refinement_limit_from_the_batch(self):
        # the segment passes 2e-8 from the root of h = z: no 2**20 pieces
        # turn arg h by less than pi/2 across it
        h = UnivariatePolynomial((0.0, 1.0))
        centers = np.array([[0.5, 0.5], [-1.0, 2e-8], [0.2, -0.7]])
        points = np.array([[0.6, 0.5], [1.3, 2e-8], [0.3, -0.7]])
        with pytest.raises(RefinementLimit):
            continue_straight(h, principal_state(h, centers), points)

    def test_single_point_keeps_scalar_values(self):
        start = principal_state(ZW, [1.0, 0, 1, 0])
        end = continue_straight(ZW, start, [0.2, 0.7, 1.0, 0.3])
        assert end.at.shape == (4,)
        assert isinstance(end.h_value, complex) and end.sign in (1, -1)
        assert end.h_value == ZW.value_at(np.array([0.2, 0.7, 1.0, 0.3]))

    @given(kind=st.sampled_from(["node", "ramified", "bivariate", "lines",
                                 "planar"]),
           seed=st.integers(min_value=0, max_value=2**16),
           scale=st.floats(min_value=1e-3, max_value=0.5))
    @settings(max_examples=40, deadline=5000, derandomize=True)
    def test_batch_equals_scalar_walk(self, kind, seed, scale):
        rng = np.random.default_rng(seed)
        c = rng.uniform(-1, 1, size=4) + 1j * rng.uniform(-1, 1, size=4)
        h = {"node": Node(c[0], c[1], c[2]),
             "ramified": RamifiedCover(c[0]),
             "bivariate": BivariatePolynomial(((2, 0, c[0]), (0, 3, c[1]),
                                               (1, 1, c[2]))),
             "lines": ProductOfLines(((c[0], c[1]), (c[2], c[3]), (1, 0))),
             "planar": UnivariatePolynomial(tuple(c))}[kind]
        dim = 2 * h.arity
        centers = rng.uniform(-1.5, 1.5, size=(6, dim))
        points = centers + scale * rng.normal(size=(3, 6, dim))
        if np.min(np.abs(h.value_at(centers))) < 1e-3:
            return
        try:
            expected = [scalar_walk(h, a, b) for a, b in
                        zip(np.broadcast_to(centers, points.shape)
                            .reshape(-1, dim), points.reshape(-1, dim))]
        except (PathHitsBranchLocus, RefinementLimit) as exc:
            with pytest.raises(type(exc)):
                continue_straight(h, principal_state(h, centers), points)
            return
        batch = continue_straight(h, principal_state(h, centers), points)
        assert list(batch.sign.ravel()) == [s for _, s in expected]
        np.testing.assert_allclose(batch.h_value.ravel(),
                                   [hv for hv, _ in expected], rtol=1e-13)


class SignedZeroLine:
    """h(x, y) = x + iy on R^2 with the sign of a zero y kept in Im h
    (x + 1j * y turns y = -0.0 into Im h = +0.0)."""

    def value_at(self, point):
        p = np.asarray(point, dtype=float)
        out = np.empty(p.shape[:-1], dtype=complex)
        out.real, out.imag = p[..., 0], p[..., 1]
        return out[()]


class TestTurnSign:
    """The sign from the turn of arg h where it can go wrong: at the cut of
    the principal root, and across a halved segment turning by more than
    pi, against the root-distance reference ``scalar_walk``."""

    @pytest.mark.parametrize("a, b, sign", [
        ((-1.0, 0.5), (-1.0, 0.0), 1),
        ((-1.0, 0.5), (-1.0, -0.0), -1),
        ((-1.0, -0.5), (-1.0, 0.0), -1),
        ((-1.0, -0.5), (-1.0, -0.0), 1),
        ((-2.0, -0.0), (-1.0, -0.0), 1),
        ((-2.0, -0.0), (-1.0, 0.0), -1),
        ((1.0, 0.5), (-1.0, -0.0), -1),   # halved: arg h turns by 2.7
        ((1.0, -0.5), (-1.0, 0.0), -1),
    ])
    def test_segment_ends_on_the_cut(self, a, b, sign):
        h = SignedZeroLine()
        a, b = np.array(a), np.array(b)
        assert np.signbit(h.value_at(b).imag) == np.signbit(b[1])
        assert scalar_walk(h, a, b)[1] == sign
        assert_matches_scalar(h, a[None], b[None])

    @pytest.mark.parametrize("power, delta", [(2, 0.5), (3, 0.2)])
    def test_halved_segment_turning_more_than_pi(self, power, delta):
        # arg z turns by pi - 2 delta along the segment, arg h by power
        # times that, which exceeds pi; one step would see it mod 2 pi,
        # at least pi/2 away from 0, so the segment is halved
        h = UnivariatePolynomial((0.0,) * power + (1.0,))
        a, b = (0.1 * np.array([np.cos(t), np.sin(t)])
                for t in (delta, np.pi - delta))
        hv = h.value_at(np.array([a, b]))
        assert abs(np.angle(hv[1] / hv[0])) >= np.pi / 2
        turn = _segments(h, a[None], b[None], hv[:1], hv[1:])[0]
        assert turn == pytest.approx(power * (np.pi - 2 * delta), rel=1e-12)
        assert turn > np.pi
        assert_matches_scalar(h, a[None], b[None])


class TestLoopWalk:
    @pytest.mark.parametrize("h,loop", [
        (ZW, z_loop()),
        (ZW, z_loop(n=3)),
        (ZW_SQUARED, z_loop()),
        (RamifiedCover(1.0), circle([0, 0, 1, 0], 0.3, n=64, plane=(2, 3))),
        (UnivariatePolynomial((0.0, 0.0, 0.0, 1.0)), circle([0, 0], 1.0, n=5)),
    ])
    def test_one_walk_gives_sign_and_winding(self, h, loop):
        sign, wind = monodromy_and_winding(h, loop)
        assert sign == monodromy(h, loop) == (-1) ** wind
        assert wind == winding_number(h, loop)

    def test_open_path_rejected(self):
        with pytest.raises(ValueError, match="closed loop"):
            monodromy_and_winding(ZW, Polyline(np.array([[1.0, 0, 1, 0],
                                                         [0, 1.0, 1, 0]])))

    @pytest.mark.parametrize("closed", [True, False])
    @pytest.mark.parametrize("factor", [2, 3, 5])
    def test_refined_vertices_match_the_edge_loop(self, closed, factor):
        # the array form of refined() against the per-edge construction
        pts = np.random.default_rng(factor).uniform(-2, 2, size=(7, 4))
        line = Polyline(pts, closed=closed)
        verts = line.vertices()
        want = [a + (b - a) * (j / factor)
                for a, b in zip(verts[:-1], verts[1:]) for j in range(factor)]
        if not closed:
            want.append(verts[-1])
        got = line.refined(factor)
        assert got.closed == closed
        assert np.array_equal(got.points, np.array(want))
