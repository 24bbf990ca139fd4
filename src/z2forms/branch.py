"""Sign-consistent continuation of half-integer powers along paths.

The square root of a holomorphic germ h is two-valued; this module tracks
one consistent value along a sampled path, always recording the sign
relative to the principal branch (argument in (-pi, pi]).

Every walk is an array walk: h is evaluated at all segment ends in one
array call and the nearest root is picked for all segments at once.  Only
segments on which arg h turns by pi/2 or more are halved, in rounds of one
array call each.  Every state holds points (..., dim), one point (dim,)
included, and answers with numpy scalars for one point.
"""
from __future__ import annotations

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
    root relative to the principal one.

    ``at`` has shape (..., dim), with ``h_value`` and ``sign`` of shape
    (...) (or a sign that broadcasts); numpy scalars for one point.
    """

    at: np.ndarray
    h_value: complex
    sign: int

    def __post_init__(self):
        object.__setattr__(self, "at", np.asarray(self.at, dtype=float))
        if not np.all(np.abs(self.sign) == 1):
            raise ValueError("sign must be +1 or -1")

    @property
    def sqrt_value(self) -> complex:
        """The chosen square root: the principal one times ``sign``."""
        r = np.sqrt(self.h_value)
        return np.where(self.sign == +1, r, -r)[()]


def principal_state(h, point) -> BranchState:
    """BranchState at points (..., dim) on the principal branch (sign +1)."""
    point = np.asarray(point, dtype=float)
    hv = h.value_at(point)
    least = np.min(np.abs(hv))
    if least < EPS_SIGMA:
        raise PathHitsBranchLocus(f"|h| = {least:.3e} at base point")
    return BranchState(at=point, h_value=hv, sign=+1)


def _flips(h_a, h_b):
    """Whether the principal root jumps to the far side from h_a to h_b, so
    that the continued root changes its sign relative to it.  With
    |d arg h| < pi/2 the two roots are never equidistant."""
    r_a, r_b = np.sqrt(h_a), np.sqrt(h_b)
    return np.abs(r_b - r_a) > np.abs(r_b + r_a)


def _segments(h, a, b, h_a, h_b):
    """Walk the segments [a[i], b[i]], given h at their ends (flat arrays).

    Returns, per segment, whether the continued root flips its sign
    relative to the principal one, and the turn of arg h.  A segment on
    which arg h turns by pi/2 or more, or which ends within EPS_SIGMA of
    the locus, is halved in rounds, one h evaluation per round for the
    pieces of all such segments; every other segment is a single step.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        turn = np.angle(h_b / h_a)
    flip = _flips(h_a, h_b)
    bad = np.flatnonzero(~(np.abs(turn) < np.pi / 2)
                         | (np.abs(h_b) < EPS_SIGMA))
    if not bad.size:
        return flip, turn
    # each piece keeps the index of its segment in ``owner``
    owner, a, b, h_a, h_b = bad, a[bad], b[bad], h_a[bad], h_b[bad]
    turn[bad], flip[bad] = 0.0, False
    for _ in range(MAX_REFINE_DEPTH + 1):
        least = np.min(np.abs(h_b))
        if least < EPS_SIGMA:
            raise PathHitsBranchLocus(f"|h| = {least:.3e} on path")
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.angle(h_b / h_a)
        done = np.abs(step) < np.pi / 2
        turn += np.bincount(owner[done], step[done], turn.size)
        flip ^= np.bincount(owner[done], _flips(h_a[done], h_b[done]),
                            flip.size) % 2 == 1
        if done.all():
            return flip, turn
        a, b, h_a, h_b, owner = (x[~done] for x in (a, b, h_a, h_b, owner))
        mid = 0.5 * (a + b)
        h_mid = h.value_at(mid)
        a, b, h_a, h_b, owner = (np.concatenate(x) for x in (
            (a, mid), (mid, b), (h_a, h_mid), (h_mid, h_b), (owner, owner)))
    raise RefinementLimit("segment required more than 2**20 subdivisions")


def _along(h, verts, start: BranchState) -> tuple[BranchState, float]:
    """``start`` carried along the polyline through ``verts``, and the turn
    of arg h on the way.  h is evaluated at all vertices in one array
    call; a path back to its start ends on the start's h value."""
    hvs = np.empty(len(verts), dtype=complex)
    hvs[0] = start.h_value
    hvs[1:] = h.value_at(verts[1:])
    if np.array_equal(verts[-1], start.at):
        hvs[-1] = start.h_value
    flip, turn = _segments(h, verts[:-1], verts[1:], hvs[:-1], hvs[1:])
    sign = -start.sign if np.count_nonzero(flip) % 2 else start.sign
    return BranchState(at=verts[-1], h_value=hvs[-1], sign=sign), \
        float(turn.sum())


def continue_branch(h, path: Polyline, start: BranchState) -> BranchState:
    """Continue ``start`` along ``path`` by stepwise nearest-root choice.

    Segments on which the argument of h changes by pi/2 or more are
    refined dyadically, so the nearest-root choice is always unambiguous.
    """
    verts = path.vertices()
    if not np.allclose(verts[0], start.at, atol=1e-12):
        raise ValueError("start state must sit at the first path point")
    return _along(h, verts, start)[0]


def continue_straight(h, start: BranchState, point) -> BranchState:
    """Continue ``start`` along the straight segment to ``point``.

    Finite-difference stencils keep the branch choice of their center this
    way.  ``start`` and ``point`` (..., dim) broadcast, and all segments
    are walked at once.
    """
    point = np.asarray(point, dtype=float)
    h_end = h.value_at(point)
    shape = np.broadcast_shapes(np.shape(h_end), np.shape(start.h_value))
    full = shape + point.shape[-1:]
    a, b = (np.broadcast_to(x, full).reshape(-1, full[-1])
            for x in (start.at, point))
    h_end = np.broadcast_to(h_end, shape)
    flip, _ = _segments(h, a, b,
                        np.broadcast_to(start.h_value, shape).ravel(),
                        h_end.ravel())
    sign = np.where(flip, -1, 1).reshape(shape) * start.sign
    return BranchState(at=np.broadcast_to(point, full), h_value=h_end[()],
                       sign=sign[()])


def monodromy_and_winding(h, loop: Polyline) -> tuple[int, int]:
    """Sign picked up by the square root of h around a closed loop, and the
    winding number of t -> h(loop(t)) around 0, from one walk.

    The sign comes from the nearest-root choice and the winding number from
    the argument increments of the same h values; the monodromy equals
    (-1)**winding_number, a cross-check.
    """
    if not loop.closed:
        raise ValueError("monodromy and winding number need a closed loop")
    end, turn = _along(h, loop.vertices(), principal_state(h, loop.points[0]))
    return end.sign, round(turn / (2.0 * np.pi))


def monodromy(h, loop: Polyline) -> int:
    """Sign picked up by the square root of h around a closed loop."""
    return monodromy_and_winding(h, loop)[0]


def winding_number(h, loop: Polyline) -> int:
    """Winding number of t -> h(loop(t)) around 0, by argument increments."""
    return monodromy_and_winding(h, loop)[1]
