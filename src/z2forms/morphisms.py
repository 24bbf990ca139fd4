"""Harmonic morphisms and fiber topology on the 3-sphere.

The Hopf chart map (z, w) -> z/w and its Seifert generalizations
[z1^p : z2^q], fiber parameterization (torus knots, multiple covers),
pullback of planar forms, Gauss linking numbers, covering degrees, and
chart-based Laplace-Beltrami residuals.

Points of S^3 are real 4-vectors (Re z1, Im z1, Re z2, Im z2).
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from math import gcd
from typing import Callable

import numpy as np

from .defining import to_complex_pair
from .errors import (ChartBoundary, CurvesTooClose, ImageAtInfinity,
                     NotInTube, NotOnSphere, SingularFiber)
from .fd import fd_gradient_order4, fd_jacobian, fd_laplacian_order4
from .paths import Polyline

SPHERE_TOL = 1e-10


@dataclass(frozen=True)
class SmoothMap:
    """A map between charts with closed-form evaluation and Jacobian."""

    func: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]

    def __call__(self, point) -> np.ndarray:
        return np.asarray(self.func(np.asarray(point, dtype=float)), dtype=float)

    def jacobian(self, point) -> np.ndarray:
        return np.asarray(self.jac(np.asarray(point, dtype=float)), dtype=float)


def _complex_jacobian_rows(*coeffs: complex) -> np.ndarray:
    """Real 2 x 2n Jacobian of zeta = sum coeffs_i * u_i for complex u_i."""
    row_re, row_im = [], []
    for a in coeffs:
        row_re += [a.real, -a.imag]
        row_im += [a.imag, a.real]
    return np.array([row_re, row_im])


def hopf_chart_map() -> SmoothMap:
    """S^3 -> C, (z, w) -> z / w: the Hopf map composed with the
    stereographic identification of S^2 minus a pole with the plane.

    The deleted set is the fiber {w = 0} over the pole.
    """
    def func(x):
        z, w = to_complex_pair(x)
        if np.min(np.abs(w)) < 1e-12:
            raise ImageAtInfinity("point lies over the deleted pole (w = 0)")
        zeta = z / w
        return np.stack([np.real(zeta), np.imag(zeta)], axis=-1)

    def jac(x):
        z, w = to_complex_pair(x)
        if abs(w) < 1e-12:
            raise ImageAtInfinity("point lies over the deleted pole (w = 0)")
        return _complex_jacobian_rows(1.0 / w, -z / (w * w))

    return SmoothMap(func, jac)


def pullback(mp: SmoothMap, covector_at_image, point) -> np.ndarray:
    """J^T v: pull a covector field back through a smooth map."""
    point = np.asarray(point, dtype=float)
    v = np.asarray(covector_at_image(mp(point)), dtype=float)
    return mp.jacobian(point).T @ v


def pullback_form(mp: SmoothMap, form, point) -> np.ndarray:
    """Pull back a planar Z2 form on the principal branch at the image point
    (continue a state with the composed germ to reach the other branch)."""
    return pullback(mp, lambda image_pt: form.eval_omega(form.state_at(image_pt)),
                    point)


@dataclass(frozen=True)
class ComposedGerm:
    """p composed with a chart map; feeds the winding/monodromy oracles.
    Like ``DefiningFunction.value_at``, ``value_at`` takes one point or
    many (..., dim), so the chart must map arrays of points."""

    p: object          # univariate defining function
    chart: SmoothMap

    def value_at(self, point) -> complex:
        return self.p.value_at(self.chart(point))


# --------------------------------------------------------------------------
# Seifert fibrations: each fiber is sampled as a closed polyline on S^3


def seifert_value(p: int, q: int, point) -> complex:
    """Chart value z1^p / z2^q of the fibration [z1^p : z2^q]."""
    z1, z2 = to_complex_pair(point)
    if abs(z2) < 1e-12:
        raise ImageAtInfinity("chart value undefined on {z2 = 0}")
    return z1**p / z2**q


def _radii_for(p: int, q: int, modulus: float) -> tuple[float, float]:
    """Solve c1^p = modulus * (1 - c1^2)^(q/2), c1 in (0, 1), by bisection."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
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
    t = 2.0 * np.pi * np.arange(n) / n
    pts = np.zeros((n, 4))
    off = 0 if axis == 0 else 2
    pts[:, off] = np.cos(t)
    pts[:, off + 1] = np.sin(t)
    return Polyline(pts, closed=True)


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

#: rows per block of the pairwise kernels below: against a 1024-vertex
#: partner a block holds 128 x 1024 float64 values (1 MiB) per quantity
BLOCK_ROWS = 128


def _row_blocks(n: int):
    """Slices of at most ``BLOCK_ROWS`` rows covering ``range(n)``."""
    return (slice(lo, lo + BLOCK_ROWS) for lo in range(0, n, BLOCK_ROWS))


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
    allpts = np.vstack(curves)
    largest = np.full(len(cand), -np.inf)
    for rows in _row_blocks(len(allpts)):
        largest = np.maximum(largest, (allpts[rows] @ cand.T).max(axis=0))
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


def _closed_vertices(c1: Polyline, c2: Polyline) -> tuple[np.ndarray, np.ndarray]:
    if not (c1.closed and c2.closed):
        raise ValueError("linking number needs closed curves")
    return c1.vertices(), c2.vertices()


def gauss_linking(c1: Polyline, c2: Polyline) -> float:
    """Gauss double-sum linking number of two disjoint closed curves in R^3.

    A midpoint-rule float oracle: it tends to the linking number as the
    curves are refined.  Rows of ``c1`` are summed one block at a time, so
    no temporary is larger than a block of ``c1`` segments against all of
    ``c2``'s.
    """
    a, b = _closed_vertices(c1, c2)
    ra, dra = 0.5 * (a[:-1] + a[1:]), np.diff(a, axis=0)
    rb, drb = 0.5 * (b[:-1] + b[1:]), np.diff(b, axis=0)
    total = 0.0
    for rows in _row_blocks(len(ra)):
        diff = ra[rows, None, :] - rb[None, :, :]
        dist = np.linalg.norm(diff, axis=2)
        if dist.min() < 1e-3:
            raise CurvesTooClose(f"min curve distance {dist.min():.2e}")
        cross = np.cross(dra[rows, None, :], drb[None, :, :])
        total += (np.einsum("ijk,ijk->ij", cross, diff) / dist**3).sum()
    return float(total / (4.0 * np.pi))


def _triangle_solid_angle(u, v, w) -> np.ndarray:
    """Signed solid angle of the triangles (u, v, w) seen from the origin
    (Van Oosterom & Strackee, IEEE Trans. Biomed. Eng. 30, 1983)."""
    nu, nv, nw = (np.linalg.norm(x, axis=-1) for x in (u, v, w))
    det = np.einsum("...k,...k->...", u, np.cross(v, w))
    den = (nu * nv * nw + np.einsum("...k,...k->...", u, v) * nw
           + np.einsum("...k,...k->...", u, w) * nv
           + np.einsum("...k,...k->...", v, w) * nu)
    return 2.0 * np.arctan2(det, den)


def polygon_linking(c1: Polyline, c2: Polyline) -> float:
    """Exact linking number of two disjoint closed polygons in R^3.

    For segments a -> a' of ``c1`` and b -> b' of ``c2`` the directions
    b(t) - a(s) sweep the parallelogram with corners b - a, b - a',
    b' - a', b' - a; the signed solid angle it subtends is that pair's
    term of the Gauss integral, in closed form (Banchoff, Indiana Univ.
    Math. J. 25, 1976; Klenin & Langowski, Biopolymers 54, 2000).  The sum
    over all pairs is 4 pi times an integer, up to round-off, at any
    vertex count.  Rows are summed one block of ``c1`` segments at a time.
    """
    a, b = _closed_vertices(c1, c2)
    total = 0.0
    for rows in _row_blocks(len(a) - 1):
        a0 = a[:-1][rows, None, :]
        a1 = a[1:][rows, None, :]
        r00, r01 = b[None, :-1, :] - a0, b[None, 1:, :] - a0
        r10, r11 = b[None, :-1, :] - a1, b[None, 1:, :] - a1
        near = np.linalg.norm(r00, axis=2).min()
        if near < 1e-3:
            raise CurvesTooClose(f"min vertex distance {near:.2e}")
        total += (_triangle_solid_angle(r00, r10, r11)
                  + _triangle_solid_angle(r00, r11, r01)).sum()
    return float(total / (4.0 * np.pi))


def linking_on_sphere(f1: Polyline, f2: Polyline, seed: int = 0) -> float:
    """Gauss linking of two S^3 curves after a shared stereographic projection."""
    return gauss_linking(*project_curves([f1, f2], seed=seed))


def covering_degree(fb: Polyline, core: Polyline) -> int:
    """Degree of the angular projection of ``fb`` onto the circle ``core``.

    Signed count of passes along the core direction: the winding number of
    the fiber's angular coordinate in the plane of the core.  ``fb`` must
    lie within distance 0.3 of ``core``.  Each fiber point's distance to
    the core's points is taken from |x|^2 + |y|^2 - 2 x.y, one block of
    fiber points at a time.
    """
    core_pts = core.points
    center = core_pts.mean(axis=0)
    rel = fb.points - center
    core_sq = (core_pts**2).sum(axis=1)
    nearest = np.empty(len(fb.points))
    for rows in _row_blocks(len(fb.points)):
        x = fb.points[rows]
        d2 = (x**2).sum(axis=1)[:, None] + core_sq[None, :] - 2.0 * x @ core_pts.T
        nearest[rows] = np.sqrt(np.maximum(d2.min(axis=1), 0.0))
    if nearest.max() >= 0.3:
        raise NotInTube(f"max distance to core {nearest.max():.3f}")
    # plane of the core circle from its two leading principal directions
    u, s, vt = np.linalg.svd(core_pts - center)
    e1, e2 = vt[0], vt[1]
    ang = np.unwrap(np.arctan2(rel @ e2, rel @ e1))
    closing = np.arctan2(rel[0] @ e2, rel[0] @ e1) - ang[-1]
    closing = (closing + np.pi) % (2.0 * np.pi) - np.pi
    return round((ang[-1] + closing - ang[0]) / (2.0 * np.pi))


# --------------------------------------------------------------------------
# metric charts and the Laplace-Beltrami oracle


@dataclass(frozen=True)
class MetricChart:
    """An open parameter box with a closed-form metric tensor."""

    name: str
    dim: int
    lo: np.ndarray
    hi: np.ndarray
    metric: Callable[[np.ndarray], np.ndarray]
    embed: Callable[[np.ndarray], np.ndarray]

    def contains(self, y, margin: float = 0.0) -> bool:
        y = np.asarray(y, dtype=float)
        return bool(np.all(y >= self.lo + margin) and np.all(y <= self.hi - margin))


def stereo_s3_chart(extent: float = 4.0) -> MetricChart:
    """Stereographic chart of the round S^3; conformal factor 2/(1+|y|^2)."""
    def metric(y):
        c = 2.0 / (1.0 + y @ y)
        return c * c * np.eye(3)

    def embed(y):
        s = y @ y
        return np.array([2 * y[0], 2 * y[1], 2 * y[2], s - 1.0]) / (1.0 + s)

    return MetricChart("stereo-s3", 3, -extent * np.ones(3),
                       extent * np.ones(3), metric, embed)


def laplace_beltrami_residual(chart: MetricChart, scalar, point,
                              step: float = 1e-2) -> float:
    """Second-order FD evaluation of (1/sqrt(g)) d_i(sqrt(g) g^{ij} d_j u).

    ``scalar`` is a function of the chart parameters.  The stencil uses
    staggered half-step fluxes; the metric is evaluated in closed form.
    """
    y0 = np.asarray(point, dtype=float)
    if not chart.contains(y0, margin=2.0 * step):
        raise ChartBoundary(f"stencil leaves chart {chart.name} at {y0}")
    d = chart.dim

    def flux(y, i):
        g = chart.metric(y)
        ginv = np.linalg.inv(g)
        sqrtg = np.sqrt(np.linalg.det(g))
        return sqrtg * (ginv[i] @ fd_jacobian(scalar, y, step))

    total = 0.0
    for i in range(d):
        e = np.zeros(d)
        e[i] = 0.5 * step
        total += (flux(y0 + e, i) - flux(y0 - e, i)) / step
    return total / np.sqrt(np.linalg.det(chart.metric(y0)))


def lb_round_s3_conformal(scalar, y0, step: float) -> float:
    """Chart-formula oracle for the round S^3 in its stereographic chart.

    The metric is conformal, g = c^2 * delta with c = 2/(1+|y|^2), so

    Delta_g u = c^-2 [Delta u + grad(log c) . grad u]

    in three dimensions.  The closed-form metric derivative makes this a
    single-level fourth-order FD scheme, suitable for the high-accuracy
    cross-oracle comparison.
    """
    y0 = np.asarray(y0, dtype=float)
    lap = fd_laplacian_order4(scalar, y0, step)
    grad = fd_gradient_order4(scalar, y0, step)
    c = 2.0 / (1.0 + y0 @ y0)
    log_grad = -2.0 * y0 / (1.0 + y0 @ y0)
    return (lap + log_grad @ grad) / (c * c)


def lb_cross_oracle(field_r4, x0) -> tuple[float, float]:
    """Richardson-extrapolated Laplace-Beltrami value on round S^3 by the
    two independent discretizations (chart formula, homogeneous extension),
    each at steps 0.04 and 0.02."""
    x0 = np.asarray(x0, dtype=float)
    if abs(x0[3] - 1.0) < 1e-6:
        raise ChartBoundary("point at the stereographic pole of the S^3 chart")
    y0 = x0[:3] / (1.0 - x0[3])
    chart = stereo_s3_chart(extent=float(np.max(np.abs(y0))) + 1.0)

    def field_chart(y):
        return field_r4(chart.embed(y))

    def extrap(fn):
        return (16.0 * fn(0.02) - fn(0.04)) / 15.0

    a = extrap(lambda s: lb_round_s3_conformal(field_chart, y0, s))
    b = extrap(lambda s: lb_homogeneous_extension(field_r4, x0, s))
    return a, b


def lb_homogeneous_extension(field_r4, x0, step: float) -> float:
    """Cross-oracle on the round S^3: the fourth-order flat R^4 Laplacian of
    the degree-0 homogeneous extension, evaluated on the sphere."""
    x0 = np.asarray(x0, dtype=float)
    if abs(np.linalg.norm(x0) - 1.0) > SPHERE_TOL:
        raise NotOnSphere(f"|x| = {np.linalg.norm(x0):.12f}")

    def ext(x):
        return field_r4(x / np.linalg.norm(x))

    return fd_laplacian_order4(ext, x0, step)
