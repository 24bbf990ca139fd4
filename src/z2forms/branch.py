"""Sign-consistent continuation of half-integer powers along paths.

The square root of a holomorphic germ h is two-valued; this module tracks
one consistent value along a sampled path, always recording the sign
relative to the principal branch (argument in (-pi, pi]).
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import PathHitsBranchLocus, RefinementLimit
from .paths import Polyline

#: proximity cutoff to the branching locus; conditioning of the square
#: root degrades like |h|^(-1/2) below this
EPS_SIGMA = 1e-8

#: maximum dyadic subdivision depth per path segment (2**20 pieces)
MAX_REFINE_DEPTH = 20


@dataclass(frozen=True)
class HalfPower:
    """Exponent (2k+1)/2.  k = 1 gives the default power 3/2."""

    k: int = 1

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("k must be a nonnegative integer")

    @property
    def exponent(self) -> float:
        return (2 * self.k + 1) / 2.0


@dataclass(frozen=True)
class BranchState:
    """Continuation record: point, h value, chosen square root and its sign.

    ``sign`` is +1 exactly when ``sqrt_value`` equals the principal square
    root of ``h_value``.
    """

    at: np.ndarray
    h_value: complex
    sqrt_value: complex
    sign: int

    def __post_init__(self):
        object.__setattr__(self, "at", np.asarray(self.at, dtype=float))
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        if abs(self.sqrt_value**2 - self.h_value) > 1e-10 * max(1.0, abs(self.h_value)):
            raise ValueError("sqrt_value**2 inconsistent with h_value")


def principal_state(h, point) -> BranchState:
    """BranchState at ``point`` on the principal branch (sign +1)."""
    point = np.asarray(point, dtype=float)
    hv = h.value_at(point)
    if abs(hv) < EPS_SIGMA:
        raise PathHitsBranchLocus(f"|h| = {abs(hv):.3e} at base point")
    return BranchState(at=point, h_value=hv, sqrt_value=cmath.sqrt(hv), sign=+1)


def _nearest_sqrt(hv: complex, prev: complex) -> complex:
    r = cmath.sqrt(hv)
    return r if abs(r - prev) <= abs(-r - prev) else -r


def _continue_segment(h, a: np.ndarray, b: np.ndarray, hv_a: complex,
                      sqrt_a: complex, depth: int = 0) -> tuple[complex, complex]:
    """Continue the square root from a to b, bisecting while arg h turns fast."""
    hv_b = h.value_at(b)
    if abs(hv_b) < EPS_SIGMA:
        raise PathHitsBranchLocus(f"|h| = {abs(hv_b):.3e} on path")
    darg = abs(cmath.phase(hv_b / hv_a))
    if darg < np.pi / 2:
        return hv_b, _nearest_sqrt(hv_b, sqrt_a)
    if depth >= MAX_REFINE_DEPTH:
        raise RefinementLimit("segment required more than 2**20 subdivisions")
    mid = 0.5 * (a + b)
    hv_m, sqrt_m = _continue_segment(h, a, mid, hv_a, sqrt_a, depth + 1)
    return _continue_segment(h, mid, b, hv_m, sqrt_m, depth + 1)


def continue_branch(h, path: Polyline, start: BranchState) -> BranchState:
    """Continue ``start`` along ``path`` by stepwise nearest-root choice.

    Segments on which the argument of h changes by pi/2 or more are
    refined dyadically, so the nearest-root choice is always unambiguous.
    """
    verts = path.vertices()
    if not np.allclose(verts[0], start.at, atol=1e-12):
        raise ValueError("start state must sit at the first path point")
    hv, sq = start.h_value, start.sqrt_value
    for a, b in zip(verts[:-1], verts[1:]):
        hv, sq = _continue_segment(h, a, b, hv, sq)
    sign = +1 if abs(sq - cmath.sqrt(hv)) <= abs(sq + cmath.sqrt(hv)) else -1
    return BranchState(at=verts[-1], h_value=hv, sqrt_value=sq, sign=sign)


def continue_straight(h, start: BranchState, point) -> BranchState:
    """Continue ``start`` along the straight segment to ``point``.

    Convenience for finite-difference stencils: keeps the branch choice of
    the stencil center.
    """
    point = np.asarray(point, dtype=float)
    hv, sq = _continue_segment(h, start.at, point, start.h_value, start.sqrt_value)
    sign = +1 if abs(sq - cmath.sqrt(hv)) <= abs(sq + cmath.sqrt(hv)) else -1
    return BranchState(at=point, h_value=hv, sqrt_value=sq, sign=sign)


def monodromy(h, loop: Polyline) -> int:
    """Sign picked up by the square root of h around a closed loop."""
    if not loop.closed:
        raise ValueError("monodromy requires a closed loop")
    start = principal_state(h, loop.points[0])
    return continue_branch(h, loop, start).sign


def winding_number(h, loop: Polyline) -> int:
    """Winding number of t -> h(loop(t)) around 0, by argument increments.

    Independent oracle for ``monodromy``: the monodromy equals
    (-1)**winding_number.
    """
    if not loop.closed:
        raise ValueError("winding number requires a closed loop")
    verts = loop.vertices()
    total = 0.0

    def accumulate(a, b, hv_a, depth=0):
        nonlocal total
        hv_b = h.value_at(b)
        if abs(hv_b) < EPS_SIGMA:
            raise PathHitsBranchLocus(f"|h| = {abs(hv_b):.3e} on loop")
        darg = cmath.phase(hv_b / hv_a)
        if abs(darg) < np.pi / 2:
            total += darg
            return hv_b
        if depth >= MAX_REFINE_DEPTH:
            raise RefinementLimit("loop required more than 2**20 subdivisions")
        mid = 0.5 * (a + b)
        hv_m = accumulate(a, mid, hv_a, depth + 1)
        return accumulate(mid, b, hv_m, depth + 1)

    hv = h.value_at(verts[0])
    if abs(hv) < EPS_SIGMA:
        raise PathHitsBranchLocus(f"|h| = {abs(hv):.3e} at loop base point")
    for a, b in zip(verts[:-1], verts[1:]):
        hv = accumulate(a, b, hv)
    return round(total / (2.0 * np.pi))
