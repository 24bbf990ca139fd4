"""Sign-consistent continuation of half-integer powers along paths.

The square root of a holomorphic germ h is two-valued; this module tracks
one consistent value along a sampled path, always recording the sign
relative to the principal branch (argument in (-pi, pi]).

Every walk is an array walk: h is evaluated at all segment ends in one
array call, and it measures only the turn of arg h, from which the sign
of the continued root and a loop's winding number follow.  Segments on
which arg h turns by pi/2 or more are halved, in rounds of one array call
each.  Every state holds points (..., dim), one point (dim,) included,
and answers with numpy scalars for one point.
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


def _check_off_locus(h_value, where: str) -> None:
    """Raise PathHitsBranchLocus where some |h| is below EPS_SIGMA; the
    one near-locus guard of the walks and the form evaluators."""
    least = np.min(np.abs(h_value), initial=np.inf)
    if least < EPS_SIGMA:
        raise PathHitsBranchLocus(f"|h| = {least:.3e} {where}")


def principal_state(h, point) -> BranchState:
    """BranchState at points (..., dim) on the principal branch (sign +1)."""
    point = np.asarray(point, dtype=float)
    hv = h.value_at(point)
    _check_off_locus(hv, "at base point")
    return BranchState(at=point, h_value=hv, sign=+1)


def _sign_change(h_a, turn, h_b):
    """-1 where the principal root at h_a, continued while arg h turns by
    ``turn``, is minus the principal root at h_b, else +1: their arguments
    (angle(h_a) + turn) / 2 and angle(h_b) / 2 differ by a multiple of pi.
    At the cut a signed zero decides ``angle`` and ``sqrt`` the same way."""
    half = np.rint((np.angle(h_a) + turn - np.angle(h_b)) / (2.0 * np.pi)) / 2
    return np.where(half == np.rint(half), 1, -1)  # float % is slow


def _segments(h, a, b, h_a, h_b):
    """The turn of arg h along each segment [a[i], b[i]], given h at their
    ends (flat arrays).

    A segment on which arg h turns by pi/2 or more is halved in rounds,
    one h evaluation per round for the pieces of all such segments, and
    its turn is the sum of its pieces'; every other segment is a single
    step.  Each round first checks the ends of its pieces against the
    locus, so a segment end raises before any halving.
    """
    turn = np.zeros(len(h_b))
    # each piece keeps the index of its segment in ``owner``
    owner = np.arange(len(h_b))
    for _ in range(MAX_REFINE_DEPTH + 1):
        _check_off_locus(h_b, "on path")
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.angle(h_b / h_a)
        done = np.abs(step) < np.pi / 2
        turn += np.bincount(owner[done], step[done], turn.size)
        if done.all():
            return turn
        a, b, h_a, h_b, owner = (x[~done] for x in (a, b, h_a, h_b, owner))
        mid = 0.5 * (a + b)
        h_mid = h.value_at(mid)
        a, b, h_a, h_b, owner = (np.concatenate(x) for x in (
            (a, mid), (mid, b), (h_a, h_mid), (h_mid, h_b), (owner, owner)))
    raise RefinementLimit("segment required more than 2**20 subdivisions")


def _along(h, verts, start: BranchState) -> tuple[BranchState, float]:
    """``start`` carried along the polyline through ``verts``, and the turn
    of arg h on the way.  h is evaluated at all vertices in one array
    call; a path back to its start ends on the start's h value.  The sign
    changes of the segments telescope, so the total turn decides."""
    hvs = np.empty(len(verts), dtype=complex)
    hvs[0] = start.h_value
    hvs[1:] = h.value_at(verts[1:])
    if np.array_equal(verts[-1], start.at):
        hvs[-1] = start.h_value
    turn = float(_segments(h, verts[:-1], verts[1:], hvs[:-1], hvs[1:]).sum())
    sign = start.sign * int(_sign_change(hvs[0], turn, hvs[-1]))
    return BranchState(at=verts[-1], h_value=hvs[-1], sign=sign), turn


def continue_branch(h, path: Polyline, start: BranchState) -> BranchState:
    """Continue ``start`` along ``path`` by the turn of arg h.

    Segments on which the argument of h changes by pi/2 or more are
    refined dyadically, so the turn is always unambiguous.
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
    h_a, h_b = (np.broadcast_to(x, shape) for x in (start.h_value, h_end))
    turn = _segments(h, a, b, h_a.ravel(), h_b.ravel()).reshape(shape)
    sign = _sign_change(h_a, turn, h_b) * start.sign
    return BranchState(at=np.broadcast_to(point, full), h_value=h_b[()],
                       sign=sign[()])


def monodromy_and_winding(h, loop: Polyline) -> tuple[int, int]:
    """Sign picked up by the square root of h around a closed loop, and the
    winding number of t -> h(loop(t)) around 0, from one walk.

    Both come from the one turn of arg h around the loop: the sign is
    (-1)**winding_number by construction, and the monodromy suite's
    independent evidence is the expected sign and a refined loop's.
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
