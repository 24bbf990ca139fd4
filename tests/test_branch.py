import cmath
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from z2forms import (BivariatePolynomial, Node, Polyline, RamifiedCover,
                     UnivariatePolynomial, circle, continue_branch, monodromy,
                     principal_state, winding_number)
from z2forms.branch import BranchState, HalfPower, continue_straight
from z2forms.errors import PathHitsBranchLocus

ZW = Node(a=0, b=0, c=0)          # h = zw
ZW_SQUARED = BivariatePolynomial(((2, 2, 1.0),))   # h = (zw)^2
Z_LINEAR = UnivariatePolynomial((0.0, 1.0))        # h(z) = z


def z_loop(w=1.0, radius=1.0, n=64):
    """Loop {(radius*e^it, w)} in C^2, a meridian of the z-axis {z = 0}."""
    return circle([0, 0, w, 0], radius, n=n, plane=(0, 1))


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
