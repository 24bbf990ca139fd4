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
    """Continuation record: point, h value and the sign of the chosen square
    root relative to the principal one."""

    at: np.ndarray
    h_value: complex
    sign: int

    def __post_init__(self):
        object.__setattr__(self, "at", np.asarray(self.at, dtype=float))
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")

    @property
    def sqrt_value(self) -> complex:
        """The chosen square root: the principal one times ``sign``."""
        r = cmath.sqrt(self.h_value)
        return r if self.sign == +1 else -r


def principal_state(h, point) -> BranchState:
    """BranchState at ``point`` on the principal branch (sign +1)."""
    point = np.asarray(point, dtype=float)
    hv = h.value_at(point)
    if abs(hv) < EPS_SIGMA:
        raise PathHitsBranchLocus(f"|h| = {abs(hv):.3e} at base point")
    return BranchState(at=point, h_value=hv, sign=+1)


def _refine(h, a: np.ndarray, b: np.ndarray, out: list, depth: int = 0) -> None:
    """Append to ``out`` h at the end of each dyadic piece of the segment
    [a, b] on which arg h turns by less than pi/2; ``out[-1]`` is h(a)."""
    hv_b = h.value_at(b)
    if abs(hv_b) < EPS_SIGMA:
        raise PathHitsBranchLocus(f"|h| = {abs(hv_b):.3e} on path")
    if abs(cmath.phase(hv_b / out[-1])) < np.pi / 2:
        out.append(hv_b)
        return
    if depth >= MAX_REFINE_DEPTH:
        raise RefinementLimit("segment required more than 2**20 subdivisions")
    mid = 0.5 * (a + b)
    _refine(h, a, mid, out, depth + 1)
    _refine(h, mid, b, out, depth + 1)


def _walk(h, verts, hv: complex) -> list[complex]:
    """h along the polyline through ``verts``, from ``hv`` = h(verts[0]) to
    h(verts[-1]), at steps on which arg h turns by less than pi/2."""
    out = [hv]
    for a, b in zip(verts[:-1], verts[1:]):
        _refine(h, a, b, out)
    return out


def _continued(h, verts, start: BranchState) -> BranchState:
    """``start`` carried to verts[-1]: the sign flips wherever the principal
    root jumps to the far side, so the chosen root moves continuously.
    With |d arg h| < pi/2 per step the two roots are never equidistant."""
    sign = start.sign
    hvs = _walk(h, verts, start.h_value)
    r_prev = cmath.sqrt(hvs[0])
    for hv in hvs[1:]:
        r = cmath.sqrt(hv)
        if abs(r - r_prev) > abs(r + r_prev):
            sign = -sign
        r_prev = r
    return BranchState(at=verts[-1], h_value=hvs[-1], sign=sign)


def continue_branch(h, path: Polyline, start: BranchState) -> BranchState:
    """Continue ``start`` along ``path`` by stepwise nearest-root choice.

    Segments on which the argument of h changes by pi/2 or more are
    refined dyadically, so the nearest-root choice is always unambiguous.
    """
    verts = path.vertices()
    if not np.allclose(verts[0], start.at, atol=1e-12):
        raise ValueError("start state must sit at the first path point")
    return _continued(h, verts, start)


def continue_straight(h, start: BranchState, point) -> BranchState:
    """Continue ``start`` along the straight segment to ``point``.

    Convenience for finite-difference stencils: keeps the branch choice of
    the stencil center.
    """
    return _continued(h, (start.at, np.asarray(point, dtype=float)), start)


def monodromy(h, loop: Polyline) -> int:
    """Sign picked up by the square root of h around a closed loop."""
    if not loop.closed:
        raise ValueError("monodromy requires a closed loop")
    start = principal_state(h, loop.points[0])
    return continue_branch(h, loop, start).sign


def winding_number(h, loop: Polyline) -> int:
    """Winding number of t -> h(loop(t)) around 0, by argument increments.

    Cross-check for ``monodromy`` on the same walk: the monodromy equals
    (-1)**winding_number.
    """
    if not loop.closed:
        raise ValueError("winding number requires a closed loop")
    hvs = _walk(h, loop.vertices(), principal_state(h, loop.points[0]).h_value)
    total = 0.0
    for a, b in zip(hvs[:-1], hvs[1:]):
        total += cmath.phase(b / a)
    return round(total / (2.0 * np.pi))
