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
# each curve as coordinate rows, one contiguous array per coordinate.  A
# block works in scratch arrays allocated once per call and written through
# ``out=``.  Fresh 64 KiB temporaries would cost nearly as much as 1 MiB
# ones under a fixed glibc mmap threshold: freed at the top of the heap,
# they are trimmed back to the system and faulted in again every block.
# The linking sums keep one sum per block and add them with one numpy sum,
# which adds pairwise, where a running total over the many small blocks
# would add round-off with every block.

#: most point pairs of one block in the pairwise kernels (64 KiB of
#: float64; the exact linking sum's vertex-pair grid adds one row and one
#: column): a block's arrays stay in cache, and each lies under glibc's
#: 128 KiB mmap threshold, above which every array is mapped and faulted
#: in afresh
BLOCK_VALUES = 8192


def _block_rows(n: int, cols: int) -> int:
    """Rows of one block of ``range(n)`` against ``cols`` partner points:
    as many (at least one) as fit in ``BLOCK_VALUES`` values."""
    return min(n, max(1, BLOCK_VALUES // cols))


def _row_blocks(n: int, cols: int, count: int):
    """Row blocks of ``range(n)`` against ``cols`` partner points, each of
    ``_block_rows`` rows but the last.

    Yields each block's slice with ``count`` scratch arrays of shape
    (block rows, cols), allocated once and reused by every block.
    """
    step = _block_rows(n, cols)
    scratch = [np.empty((step, cols)) for _ in range(count)]
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        yield slice(lo, hi), [s[:hi - lo] for s in scratch]


def _coords(points: np.ndarray) -> np.ndarray:
    """Points (n, d) as d contiguous coordinate rows, shape (d, n)."""
    return np.ascontiguousarray(points.T)


def _column(coords, rows: slice) -> list[np.ndarray]:
    """Coordinate rows restricted to ``rows``, as columns (rows, 1) that
    broadcast against a partner's coordinate rows."""
    return [x[rows, None] for x in coords]


def _minus(u, v, out) -> list[np.ndarray]:
    """u - v of two vectors given as coordinate arrays, into ``out``."""
    return [np.subtract(x, y, out=o) for x, y, o in zip(u, v, out)]


def _dot(u, v, out, tmp) -> np.ndarray:
    """u . v of two vectors given as coordinate arrays, into ``out``."""
    np.multiply(u[0], v[0], out=out)
    for x, y in zip(u[1:], v[1:]):
        out += np.multiply(x, y, out=tmp)
    return out


def _cross(u, v, out, tmp) -> list[np.ndarray]:
    """u x v of two vectors given as coordinate triples, into ``out``."""
    for o, (i, j) in zip(out, ((1, 2), (2, 0), (0, 1))):
        np.multiply(u[i], v[j], out=o)
        o -= np.multiply(u[j], v[i], out=tmp)
    return out


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
    cols = _coords(cand)
    pts = np.vstack(curves)
    largest = np.full(len(cand), -np.inf)
    for rows, (dots,) in _row_blocks(len(pts), len(cand), 1):
        np.matmul(pts[rows], cols, out=dots)
        np.maximum(largest, dots.max(axis=0), out=largest)
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
    return _coords(c1.vertices()), _coords(c2.vertices())


def gauss_linking(c1: Polyline, c2: Polyline) -> float:
    """Gauss double-sum linking number of two disjoint closed curves in R^3.

    A midpoint-rule float oracle: it tends to the linking number as the
    curves are refined.  Rows of ``c1`` segments are summed one block at a
    time against all of ``c2``'s.
    """
    a, b = _closed_coords(c1, c2)
    ra, dra = 0.5 * (a[:, :-1] + a[:, 1:]), np.diff(a, axis=1)
    rb, drb = 0.5 * (b[:, :-1] + b[:, 1:]), np.diff(b, axis=1)
    sums = []
    for rows, s in _row_blocks(ra.shape[1], rb.shape[1], 10):
        dist, cube, integrand, tmp = s[6:10]
        diff = _minus(_column(ra, rows), rb, s[0:3])
        np.sqrt(_dot(diff, diff, cube, tmp), out=dist)
        if dist.min() < 1e-3:
            raise CurvesTooClose(f"min curve distance {dist.min():.2e}")
        cube *= dist  # |diff|^3
        cross = _cross(_column(dra, rows), drb, s[3:6], tmp)
        _dot(cross, diff, integrand, tmp)
        integrand /= cube
        sums.append(integrand.sum())
    return float(np.sum(sums) / (4.0 * np.pi))


def polygon_linking(c1: Polyline, c2: Polyline) -> float:
    """Exact linking number of two disjoint closed polygons in R^3.

    For segments a -> a' of ``c1`` and b -> b' of ``c2`` the directions
    b(t) - a(s) sweep the parallelogram with corners r00 = b - a,
    r10 = b - a', r11 = b' - a', r01 = b' - a; the signed solid angle it
    subtends is that pair's term of the Gauss integral, in closed form
    (Banchoff, Indiana Univ. Math. J. 25, 1976; Klenin & Langowski,
    Biopolymers 54, 2000).  The sum over all pairs is 4 pi times an
    integer, up to round-off, at any vertex count.

    The parallelogram is split into the triangles (r00, r10, r11) and
    (r00, r11, r01), each of solid angle 2 arg(den + i det) (Van Oosterom
    & Strackee, IEEE Trans. Biomed. Eng. 30, 1983), where
    den = |u||v||w| + (u.v)|w| + (u.w)|v| + (v.w)|u| for corners u, v, w.
    With da = a' - a and db = b' - b, r10 = r00 - da and r11 = r00 - da + db,
    so both triangles have one determinant,
    det(r00, r10, r11) = det(r00, r11, r01) = r00 . (db x da).  The
    parallelogram lies in one plane, which misses the origin (or holds it,
    and then the pair subtends nothing), so its directions lie in an open
    hemisphere and the pair's solid angle is below 2 pi in size.  The sum
    of the two triangles' angles is therefore exactly
    2 arg((den1 + i det)(den2 + i det)): one ``arctan2`` a pair.

    Rows are summed one block of ``c1`` segments at a time.  A block of
    rows lo..hi - 1 builds the vertex-pair grid D[i, j] = b_j - a_i for
    i = lo..hi and all m + 1 vertices of the closed ``c2``, and takes the
    norms and the dot products along the grid's edges once.  Raveled with
    row length w = m + 1, the four corners of pair (i, j) sit at flat
    offsets 0, 1, w and w + 1 from D[i, j], so every operation runs on
    contiguous 1-D arrays; the column j = m is no segment pair and is
    zeroed before the block's sum.
    """
    a, b = _closed_coords(c1, c2)
    n, w = a.shape[1] - 1, b.shape[1]
    m = w - 1
    da = np.diff(a, axis=1)
    db = np.zeros((3, w))  # with a zero column j = m, as the grid has
    np.subtract(b[:, 1:], b[:, :-1], out=db[:, :m])
    # component k of db x da is db[i] da[j] - db[j] da[i], (i, j) cyclic
    axes = ((1, 2), (2, 0), (0, 1))
    da_pairs = [np.column_stack([da[j], -da[i]]) for i, j in axes]
    db_pairs = [db[[i, j]] for i, j in axes]
    step = _block_rows(n, m)
    grid = [np.empty((step + 1) * w) for _ in range(7)]
    pair = [np.empty(step * w) for _ in range(5)]
    sums = []
    for lo in range(0, n, step):
        rows = min(step, n - lo)
        size, count = (rows + 1) * w, rows * w - 1
        d = [np.subtract(y, x[lo:lo + rows + 1, None],
                         out=g[:size].reshape(rows + 1, w))
             .reshape(size) for x, y, g in zip(a, b, grid)]
        norm, edge_j, edge_i, tmp = (g[:size] for g in grid[3:])
        np.sqrt(_dot(d, d, norm, tmp), out=norm)
        near = norm.min()
        if near < 1e-3:
            raise CurvesTooClose(f"min vertex distance {near:.2e}")
        # D[k] . D[k + 1] and D[k] . D[k + w] for the flat index k
        _dot([x[:-1] for x in d], [x[1:] for x in d], edge_j[:-1], tmp[:-1])
        _dot([x[:-w] for x in d], [x[w:] for x in d], edge_i[:-w], tmp[:-w])
        n00, n01, n10, n11 = (norm[k:k + count] for k in (0, 1, w, w + 1))
        r00 = [x[:count] for x in d]
        den1, den2, det, cross, work = (x[:count] for x in pair)
        # den1 = s n10 + (r00.r10) n11 + (r10.r11) n00 and
        # den2 = s n01 + (r00.r01) n11 + (r01.r11) n00, s = n00 n11 + r00.r11
        _dot(r00, [x[w + 1:w + 1 + count] for x in d], den2, work)
        den2 += np.multiply(n00, n11, out=work)
        np.multiply(den2, n10, out=den1)
        den1 += np.multiply(edge_i[:count], n11, out=work)
        den1 += np.multiply(edge_j[w:w + count], n00, out=work)
        den2 *= n01
        den2 += np.multiply(edge_j[:count], n11, out=work)
        den2 += np.multiply(edge_i[1:count + 1], n00, out=work)
        # det = r00 . (db x da); each component of db x da over the
        # (rows, w) grid is one product of a (rows, 2) and a (2, w) matrix
        det[:] = 0.0
        full = pair[3][:rows * w].reshape(rows, w)  # ``cross`` raveled
        for x, left, right in zip(r00, da_pairs, db_pairs):
            np.matmul(left[lo:lo + rows], right, out=full)
            det += np.multiply(x, cross, out=cross)
        # arg((den1 + i det)(den2 + i det))
        np.add(den1, den2, out=work)
        work *= det
        den1 *= den2
        det *= det
        den1 -= det
        angle = np.arctan2(work, den1, out=den2)
        angle[m::w] = 0.0
        sums.append(angle.sum())
    return float(np.sum(sums) / (2.0 * np.pi))


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
