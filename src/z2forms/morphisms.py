"""Harmonic morphisms and fiber topology on the 3-sphere.

The Hopf chart map (z, w) -> z/w and its Seifert generalizations
[z1^p : z2^q], fiber parameterization (torus knots, multiple covers),
pullback of planar forms, Gauss linking numbers, covering degrees, and
two Laplace-Beltrami discretizations of the round S^3: conformal fluxes
in the stereographic chart, and the flat Laplacian of the homogeneous
extension.

Points of S^3 are real 4-vectors (Re z1, Im z1, Re z2, Im z2).
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import gcd

import numpy as np

from .defining import to_complex_pair
from .errors import (ChartBoundary, CurvesTooClose, ImageAtInfinity,
                     NotInTube, NotOnSphere, SingularFiber)
from .fd import fd_jacobian, fd_laplacian_order4
from .paths import Polyline, circle

SPHERE_TOL = 1e-10


def _chart_pair(x):
    """(z, w) of points (..., 4), none on the deleted fiber {w = 0}."""
    z, w = to_complex_pair(x)
    if np.min(np.abs(w)) < 1e-12:
        raise ImageAtInfinity("point lies over the deleted pole (w = 0)")
    return z, w


def hopf_chart(x) -> np.ndarray:
    """S^3 -> C, (z, w) -> z / w: the Hopf map composed with the
    stereographic identification of S^2 minus a pole with the plane.

    Points (..., 4) to (..., 2); the deleted set is the fiber {w = 0}.
    """
    z, w = _chart_pair(x)
    zeta = z / w
    return np.stack([np.real(zeta), np.imag(zeta)], axis=-1)


def hopf_jacobian(x) -> np.ndarray:
    """Real 2 x 4 Jacobian of ``hopf_chart`` at one point, from
    d zeta = dz / w - z dw / w^2."""
    z, w = _chart_pair(x)
    a, b = 1.0 / w, -z / (w * w)
    return np.array([[a.real, -a.imag, b.real, -b.imag],
                     [a.imag, a.real, b.imag, b.real]])


def pullback(covector_at_image, point) -> np.ndarray:
    """J^T v: pull a planar covector field back through the Hopf chart."""
    point = np.asarray(point, dtype=float)
    v = np.asarray(covector_at_image(hopf_chart(point)), dtype=float)
    return hopf_jacobian(point).T @ v


def pullback_form(form, point) -> np.ndarray:
    """Pull back a planar Z2 form on the principal branch at the image point
    (continue a state with the composed germ to reach the other branch)."""
    return pullback(lambda image_pt: form.eval_omega(form.state_at(image_pt)),
                    point)


@dataclass(frozen=True)
class ComposedGerm:
    """p composed with the Hopf chart; feeds the winding/monodromy oracles.
    Like ``DefiningFunction.value_at``, ``value_at`` takes one point or
    many (..., 4)."""

    p: object          # univariate defining function

    def value_at(self, point) -> complex:
        return self.p.value_at(hopf_chart(point))


# --------------------------------------------------------------------------
# Seifert fibrations: each fiber is sampled as a closed polyline on S^3


def seifert_value(p: int, q: int, point) -> complex:
    """Chart value z1^p / z2^q of the fibration [z1^p : z2^q]."""
    z1, z2 = to_complex_pair(point)
    if abs(z2) < 1e-12:
        raise ImageAtInfinity("chart value undefined on {z2 = 0}")
    return z1**p / z2**q


def _radii_for(p: int, q: int, modulus: float) -> tuple[float, float]:
    """Solve c1^p = modulus * (1 - c1^2)^(q/2), c1 in (0, 1), by bisection.

    Once ``mid`` rounds to ``lo`` or ``hi`` no further step moves it, so
    the loop stops there with the 200-step loop's result."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid**p - modulus * (1.0 - mid * mid) ** (q / 2.0) < 0.0:
            lo = mid
        else:
            hi = mid
    c1 = 0.5 * (lo + hi)
    return c1, np.sqrt(max(0.0, 1.0 - c1 * c1))


def fiber(p: int, q: int, base: complex, n: int = 1024) -> Polyline:
    """The fiber of [z1^p : z2^q] over chart value ``base`` (z1^p / z2^q).

    Parameterized as t -> (e^{iqt} z1, e^{ipt} z2), t in [0, 2 pi); lies on
    the torus {|z1| = c1, |z2| = c2}.
    """
    if gcd(p, q) != 1:
        raise ValueError("p and q must be coprime")
    base = complex(base)
    if base == 0 or not np.isfinite(abs(base)):
        raise SingularFiber("base value lies on a singular fiber")
    c1, c2 = _radii_for(p, q, abs(base))
    if c1 < 1e-9 or c2 < 1e-9:
        raise SingularFiber("fiber meets {z1 = 0} or {z2 = 0}")
    z1 = c1 * cmath.exp(1j * cmath.phase(base) / p)
    z2 = c2
    t = 2.0 * np.pi * np.arange(n) / n
    e1, e2 = np.exp(1j * q * t) * z1, np.exp(1j * p * t) * z2
    pts = np.column_stack([e1.real, e1.imag, e2.real, e2.imag])
    return Polyline(pts, closed=True)


def core_fiber(axis: int, n: int = 1024) -> Polyline:
    """A singular fiber: the unit circle {z2 = 0} (axis=0) or {z1 = 0} (axis=1)."""
    return circle(np.zeros(4), 1.0, n, plane=(0, 1) if axis == 0 else (2, 3))


def fiber_windings(fb: Polyline) -> tuple[int, int]:
    """Winding numbers of arg z1 and arg z2 over one fiber period."""
    pts = fb.vertices()
    z1 = pts[:, 0] + 1j * pts[:, 1]
    z2 = pts[:, 2] + 1j * pts[:, 3]
    w1 = np.angle(z1[1:] / z1[:-1]).sum() / (2.0 * np.pi)
    w2 = np.angle(z2[1:] / z2[:-1]).sum() / (2.0 * np.pi)
    return round(w1), round(w2)


# --------------------------------------------------------------------------
# linking and covering numbers
#
# The pairwise kernels below take the points of one curve against all of
# its partner's points, one block of rows at a time; the linking sums hold
# each curve as coordinate rows, one contiguous array per coordinate.  The
# crossing count and the projection pole, which every topology job runs,
# write their blocks into arrays allocated once per call: fresh 64 KiB
# temporaries, freed at the top of the heap under a fixed glibc mmap
# threshold, would be trimmed and faulted in again every block.  The Gauss
# sum adds its per-block sums with one pairwise numpy sum, where a running
# total over many small blocks would add round-off with every block.

#: most point pairs of one block in the pairwise kernels (64 KiB of
#: float64; the crossing count's sides of the partner's lines add one row):
#: a block's arrays stay in cache, and each lies under glibc's
#: 128 KiB mmap threshold, above which every array is mapped and faulted
#: in afresh
BLOCK_VALUES = 8192


def _block_rows(n: int, cols: int) -> int:
    """Rows of one block of ``range(n)`` against ``cols`` partner points:
    as many (at least one) as fit in ``BLOCK_VALUES`` values."""
    return min(n, max(1, BLOCK_VALUES // cols))


def stereographic_pole(curves: list[np.ndarray], seed: int = 0) -> np.ndarray:
    """The point farthest from all given S^3 curves among 256 seeded random
    points of S^3.

    On the unit sphere |c - x|^2 = 2 - 2 c.x, so the farthest candidate is
    the one whose largest dot product with the curve points is smallest;
    the dot products are taken one block of curve points at a time.
    """
    rng = np.random.default_rng(seed)
    cand = rng.normal(size=(256, 4))
    cand /= np.linalg.norm(cand, axis=1, keepdims=True)
    cols = np.ascontiguousarray(cand.T)
    pts = np.vstack(curves)
    largest = np.full(len(cand), -np.inf)
    step = _block_rows(len(pts), len(cand))
    dots = np.empty((step, len(cand)))
    for lo in range(0, len(pts), step):
        block = np.matmul(pts[lo:lo + step], cols, out=dots[:len(pts) - lo])
        np.maximum(largest, block.max(axis=0), out=largest)
    return cand[np.argmin(largest)]


def stereographic_project(points: np.ndarray, pole: np.ndarray) -> np.ndarray:
    """Stereographic projection of S^3 points to R^3 from ``pole``.

    The basis of the image is oriented so that (pole, basis) is a positive
    frame of R^4; linking numbers then keep their sign whatever the pole.
    """
    pole = np.asarray(pole, dtype=float)
    pole = pole / np.linalg.norm(pole)
    # orthonormal basis of the hyperplane orthogonal to the pole
    basis = np.linalg.svd(pole.reshape(1, 4))[2][1:]
    if np.linalg.det(np.vstack([pole, basis])) < 0.0:
        basis[0] = -basis[0]
    dots = points @ pole
    if np.any(np.abs(1.0 - dots) < 1e-9):
        raise CurvesTooClose("curve passes through the projection pole")
    return (points @ basis.T) / (1.0 - dots)[:, None]


def project_curves(curves: list[Polyline], seed: int = 0) -> list[Polyline]:
    """Closed S^3 curves as closed R^3 polylines, all projected from one
    ``stereographic_pole`` of the set."""
    pole = stereographic_pole([c.points for c in curves], seed=seed)
    return [Polyline(stereographic_project(c.points, pole), closed=True)
            for c in curves]


def _closed_coords(c1: Polyline, c2: Polyline) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate rows of both curves' vertices, the first repeated last."""
    if not (c1.closed and c2.closed):
        raise ValueError("linking number needs closed curves")
    return (np.ascontiguousarray(c1.vertices().T),
            np.ascontiguousarray(c2.vertices().T))


def gauss_linking(c1: Polyline, c2: Polyline) -> float:
    """Gauss double-sum linking number of two disjoint closed curves in R^3.

    A midpoint-rule float oracle: it tends to the linking number as the
    curves are refined.  Tests check other kernels against it; no suite
    runs it.  Blocks of ``_block_rows(n, m)`` rows of ``c1`` segments are
    summed against all m of ``c2``'s in plain numpy, each array of a block
    at most ``BLOCK_VALUES`` values.
    """
    a, b = _closed_coords(c1, c2)
    ra, dra = 0.5 * (a[:, :-1] + a[:, 1:]), np.diff(a, axis=1)
    rb, drb = 0.5 * (b[:, :-1] + b[:, 1:]), np.diff(b, axis=1)
    step = _block_rows(ra.shape[1], rb.shape[1])
    sums = []
    for lo in range(0, ra.shape[1], step):
        rows = slice(lo, lo + step)
        x, y, z = (u[rows, None] - v for u, v in zip(ra, rb))
        square = x * x + y * y + z * z
        dist = np.sqrt(square)
        if dist.min() < 1e-3:
            raise CurvesTooClose(f"min curve distance {dist.min():.2e}")
        # (dra x drb) . (ra - rb), with dra = (p, q, r) and drb = (s, t, u)
        (p, q, r), (s, t, u) = (d[rows, None] for d in dra), drb
        integrand = ((q * u - r * t) * x + (r * s - p * u) * y
                     + (p * t - q * s) * z)
        sums.append((integrand / (square * dist)).sum())
    return float(np.sum(sums) / (4.0 * np.pi))


#: a positive orthonormal frame; ``polygon_linking`` projects onto its first
#: two rows and views along (2, 3, 6) / 7, which no axis-aligned segment
#: or coordinate plane holds
VIEW_FRAME = np.array([[3.0, -6.0, 2.0], [6.0, 2.0, -3.0],
                       [2.0, 3.0, 6.0]]) / 7.0

#: crossing heights that differ by at most this fraction of the polygons'
#: largest coordinate are equal up to round-off: the polygons meet there
MEET_TOL = 1e-12


def polygon_linking(c1: Polyline, c2: Polyline) -> int:
    """Exact linking number of two disjoint closed polygons in R^3: the
    signed count of the crossings where ``c1`` passes over ``c2`` in one
    projection (Rolfsen, Knots and Links, 1976), here onto the first two
    rows of ``VIEW_FRAME`` with heights along the last.

    Segments a_i a_i+1 and b_j b_j+1 cross where each joins two vertices
    on opposite sides of the other's line.  Each vertex's side of each
    partner line is decided once, as ``side > 0``, so the two pairs that
    share a vertex read the same sign and a crossing counts once.  A
    crossing where ``c1`` is higher adds the sign of the projected
    tangents' cross product.  ``CurvesTooClose`` is raised where two
    vertices lie within 1e-3, or where a crossing's heights differ by
    round-off (``MEET_TOL``): there the polygons meet.

    Blocks of ``_block_rows(n, m + 1)`` segments of ``c1`` take the sides
    from small products in homogeneous coordinates: the vertices
    a_lo+1 .. a_hi, (x, y, 1), against the m lines of ``c2``, and the
    block's lines against b_0 .. b_m, with b_m = b_0 copied.  The side of
    a_lo is carried from the previous block and a_n reads a_0's, so every
    side is computed once.  One more product, (x, y, z, 1, |a|^2) against
    (-2 b, |b|^2, 1), gives the squared vertex distances.
    """
    a, b = _closed_coords(c1, c2)
    a, b = VIEW_FRAME @ a, VIEW_FRAME @ b
    n, m = a.shape[1] - 1, b.shape[1] - 1
    da, db = np.diff(a, axis=1), np.diff(b, axis=1)
    ones = np.ones(n + 1)
    a_xy1 = np.column_stack([a[0], a[1], ones])
    a_far = np.column_stack([a[0], a[1], a[2], ones, (a * a).sum(axis=0)])
    a_lines = np.column_stack([-da[1], da[0],
                               da[1] * a[0, :n] - da[0] * a[1, :n]])
    b_xy1 = np.stack([b[0, :m], b[1, :m], np.ones(m)])
    b_far = np.vstack([-2.0 * b[:, :m], (b[:, :m] ** 2).sum(axis=0),
                       np.ones(m)])
    b_lines = np.stack([-db[1], db[0], db[1] * b[0, :m] - db[0] * b[1, :m]])
    meet = MEET_TOL * max(np.abs(a).max(), np.abs(b).max())
    step = _block_rows(n, m + 1)
    # rows 1..rows of a block: a_lo+1 .. a_hi; row 0 carries a_lo
    side_a, up_a = np.empty((step + 1, m)), np.empty((step + 1, m), bool)
    side_b, up_b = np.empty((step, m + 1)), np.empty((step, m + 1), bool)
    dist, cut, cut_b = (np.empty((step, m), t) for t in (float, bool, bool))
    first = a_xy1[0] @ b_lines
    side_a[0] = first
    np.greater(first, 0.0, out=up_a[0])
    total = 0
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        rows = hi - lo
        near = np.matmul(a_far[lo + 1:hi + 1], b_far, out=dist[:rows]).min()
        if near < 1e-3**2:
            raise CurvesTooClose(
                f"min vertex distance {np.sqrt(max(near, 0.0)):.2e}")
        sa, ua = side_a[:rows + 1], up_a[:rows + 1]
        np.matmul(a_xy1[lo + 1:hi + 1], b_lines, out=sa[1:])
        if hi == n:
            sa[rows] = first
        np.greater(sa[1:], 0.0, out=ua[1:])
        sb, ub = side_b[:rows], up_b[:rows]
        np.matmul(a_lines[lo:hi], b_xy1, out=sb[:, :m])
        sb[:, m] = sb[:, 0]
        np.greater(sb, 0.0, out=ub)
        both = np.not_equal(ua[:-1], ua[1:], out=cut[:rows])
        both &= np.not_equal(ub[:, :-1], ub[:, 1:], out=cut_b[:rows])
        k = both.ravel().nonzero()[0]
        if k.size:
            r, j = np.divmod(k, m)
            i = lo + r
            s0, s1 = sa.ravel()[k], sa.ravel()[k + m]
            u0, u1 = sb.ravel()[k + r], sb.ravel()[k + r + 1]
            gap = (a[2, i] + s0 / (s0 - s1) * da[2, i]
                   - b[2, j] - u0 / (u0 - u1) * db[2, j])
            if np.abs(gap).min() <= meet:
                raise CurvesTooClose("the polygons meet at a crossing")
            turn = da[0, i] * db[1, j] - da[1, i] * db[0, j]
            total += int(np.sign(turn[gap > 0.0]).sum())
        side_a[0], up_a[0] = sa[rows], ua[rows]
    return total


def linking_on_sphere(f1: Polyline, f2: Polyline) -> float:
    """Gauss linking of two S^3 curves after a shared stereographic projection."""
    return gauss_linking(*project_curves([f1, f2]))


def covering_degree(fb: Polyline, core: Polyline) -> int:
    """Degree of the angular projection of ``fb`` onto the circle ``core``.

    Signed count of passes along the core direction: the winding number of
    the fiber's angle about the core's center in the core's plane.  ``fb``
    must lie within distance 0.3 of ``core``.
    """
    dist, angle = _circle_coords(fb.points, core.points)
    if dist.max() >= 0.3:
        raise NotInTube(f"max distance to core {dist.max():.3f}")
    ang = np.unwrap(np.append(angle, angle[0]))
    return round((ang[-1] - ang[0]) / (2.0 * np.pi))


def _circle_coords(points, circle) -> tuple[np.ndarray, np.ndarray]:
    """Each point's distance to the circle fitted to the samples ``circle``,
    and its angle in the circle's plane.

    The fit: the mean sample as center, the two leading principal
    directions as plane, the mean distance to the center as radius.  A
    point at in-plane distance rho from the center lies
    sqrt((rho - radius)^2 + |normal offset|^2) from the circle."""
    center = circle.mean(axis=0)
    vt = np.linalg.svd(circle - center, full_matrices=False)[2]
    radius = np.linalg.norm(circle - center, axis=1).mean()
    rel = points - center
    u, v = rel @ vt[0], rel @ vt[1]
    rho = np.hypot(u, v)
    normal_sq = np.maximum((rel * rel).sum(axis=1) - rho * rho, 0.0)
    return np.sqrt((rho - radius) ** 2 + normal_sq), np.arctan2(v, u)


# --------------------------------------------------------------------------
# the stereographic chart of S^3 and the Laplace-Beltrami oracles


def stereo_embed(y) -> np.ndarray:
    """The S^3 points (..., 4) with stereographic coordinates y (..., 3),
    pole (0, 0, 0, 1)."""
    s = (y * y).sum(axis=-1)[..., None]
    return np.concatenate([2 * y, s - 1.0], axis=-1) / (1.0 + s)


def laplace_beltrami_residual(scalar, point, step: float) -> float:
    """Second-order FD evaluation of (1/sqrt(g)) d_i(sqrt(g) g^{ij} d_j u)
    at points (..., 3) of a function ``scalar`` of the stereographic
    coordinates of S^3.

    The round metric is conformal, g = c^2 delta with c = 2/(1+|y|^2), so
    sqrt(g) g^{ij} = c delta^{ij} and sqrt(g) = c^3: staggered half-step
    fluxes c d_i u, with the gradients at all six faces from one
    ``fd_jacobian`` call, summed and divided by c^3.
    """
    y0 = np.asarray(point, dtype=float)
    # the faces y0 -/+ (step/2) e_i, shape (side, i, ..., 3)
    half = np.multiply.outer([-0.5, 0.5], step * np.eye(3))
    faces = y0 + half.reshape((2, 3) + (1,) * (y0.ndim - 1) + (3,))
    c = 2.0 / (1.0 + (faces * faces).sum(axis=-1))
    flux = c[..., None] * fd_jacobian(scalar, faces, step)
    total = 0.0
    for i in range(3):
        total += (flux[1, i, ..., i] - flux[0, i, ..., i]) / step
    return total / (2.0 / (1.0 + (y0 * y0).sum(axis=-1))) ** 3


def lb_cross_oracle(field_r4, x0) -> tuple[float, float]:
    """Richardson-extrapolated Laplace-Beltrami value on round S^3 by the
    two independent discretizations: ``laplace_beltrami_residual`` in the
    stereographic chart (second order, steps 0.01 and 0.005) and
    ``lb_homogeneous_extension`` (fourth order, steps 0.04 and 0.02)."""
    x0 = np.asarray(x0, dtype=float)
    if abs(x0[3] - 1.0) < 1e-6:
        raise ChartBoundary("point at the stereographic pole of the S^3 chart")
    y0 = x0[:3] / (1.0 - x0[3])

    chart = [laplace_beltrami_residual(lambda y: field_r4(stereo_embed(y)),
                                       y0, s) for s in (0.01, 0.005)]
    ext = [lb_homogeneous_extension(field_r4, x0, s) for s in (0.04, 0.02)]
    return (4.0 * chart[1] - chart[0]) / 3.0, (16.0 * ext[1] - ext[0]) / 15.0


def lb_homogeneous_extension(field_r4, x0, step: float) -> float:
    """Cross-oracle on the round S^3: the fourth-order flat R^4 Laplacian of
    the degree-0 homogeneous extension, evaluated on the sphere."""
    x0 = np.asarray(x0, dtype=float)
    if abs(np.linalg.norm(x0) - 1.0) > SPHERE_TOL:
        raise NotOnSphere(f"|x| = {np.linalg.norm(x0):.12f}")
    return fd_laplacian_order4(
        lambda x: field_r4(x / np.linalg.norm(x, axis=-1, keepdims=True)),
        x0, step)
