"""Symmetric construction of Z2 harmonic functions branching along a circle.

The branching set is the unit circle {x1^2 + x2^2 = 1, x3 = 0} in R^3.
Everything is rotation-invariant about the x3-axis, so the computation
lives in the meridian half-plane (s, x3) with s = sqrt(x1^2 + x2^2).  The
branched double cover is uniformized by the coordinate zeta with

    zeta^2 + 1 = s + i x3,

so zeta and -zeta are the same physical point on opposite sheets, and the
cone angle 4 pi at the circle disappears from the chart.  In this chart
the axisymmetric Laplacian becomes the degenerate divergence-form operator

    div_zeta( s(zeta) grad_zeta u ) = 4 |zeta|^2 s(zeta) * Delta_3d u,

with weight s(zeta) = 1 + xi^2 - eta^2 vanishing on the rotation axis;
the finite-volume discretization then needs no explicit axis condition,
and the regular (finite-value) scheme at zeta = 0 selects exactly the
sqrt(r)-decaying branch of solutions.

Pipeline: a cutoff chi and an axisymmetric harmonic polynomial p define
the two-sheeted function U = +-chi p; its Laplacian H = Delta U is the
compactly supported source; V solves Delta V = H with Dirichlet data at a
truncation radius; u = U - V.  A Z2 harmonic function changes sign between
the sheets, so U, H and V are all odd under the sheet swap zeta -> -zeta,
and the solver works on sheet-odd fields only.  They split again by
parity under eta -> -eta (x3 -> -x3), so the solve factors two blocks,
each on a quarter of the chart.  Near the circle u has the expansion

    u = A1p cos(theta/2) sqrt(r) + A1m sin(theta/2) sqrt(r) + O(r^{3/2}),

and combinations of polynomial degrees annihilating (A1p, A1m) decay at
least like r^{3/2}.  Every evaluation takes arrays: meridian points (s, x3)
of any shape, or points (..., 3) of R^3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as P
# scipy.sparse is imported inside DoubleCoverGrid._matrix_csr, ._quarter
# and ._lu only: importing scipy.sparse.linalg costs about 32 MB of RSS and
# 0.4 s (2-core host), and no suite but sun (and no export but `field`)
# reaches those three methods.  The interpolator is numpy, because
# scipy.interpolate would cost another 20 MB and 0.3 s in every sun job.

from .errors import (DegreeTooLarge, FitIllConditioned, GridTooCoarse,
                     NoNullDirection, SolverDiverged)

MAX_ZONAL_DEGREE = 12

#: largest chart grid a spec may ask for: a full n = 2048 sun job took
#: 5-10 s at a 1.3 GB peak RSS on a 2-core host, and cost grows faster
#: than n^2
MAX_GRID = 2048

#: largest inner radius (3 h)^2 of a ring fit window [r_lo, 0.1]
RING_R_LO_MAX = 0.05

#: half-angle samples per ring on the double cover, theta in [0, 4 pi)
N_THETA = 256

#: rings per fit window near the circle
N_RINGS = 12

#: largest relative residual of an A1 fit that SunPipeline.a1_of accepts
MAX_FIT_REL_RESIDUAL = 0.2


# --------------------------------------------------------------------------
# zonal harmonics


def legendre_values(k: int, x):
    """P_k(x) by the three-term recurrence, elementwise."""
    x = np.asarray(x, dtype=float)
    p_prev, p = np.zeros_like(x), np.ones_like(x)
    for m in range(k):
        p_prev, p = p, ((2 * m + 1) * x * p - m * p_prev) / (m + 1)
    return p[()]


def _meridian(point):
    """Meridian coordinates (s, x3) of points (..., 3) of R^3."""
    x = np.asarray(point, dtype=float)
    return np.hypot(x[..., 0], x[..., 1]), x[..., 2]


def zonal(k: int, point):
    """The degree-k zonal harmonic rho^k P_k(cos phi) at points (..., 3)."""
    return ZonalPoly.single(k).value(*_meridian(point))


@dataclass(frozen=True)
class ZonalPoly:
    """A finite combination sum_k c_k * zonal(k); harmonic by construction."""

    terms: tuple[tuple[int, float], ...]

    def __post_init__(self):
        terms = tuple((int(k), float(c)) for k, c in self.terms)
        if any(not 0 <= k <= MAX_ZONAL_DEGREE for k, _ in terms):
            raise DegreeTooLarge(f"zonal degree outside [0, {MAX_ZONAL_DEGREE}]")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def single(cls, k: int) -> "ZonalPoly":
        return cls(((k, 1.0),))

    def term_values(self, s, x3) -> list:
        """c_k rho^k P_k(cos phi) of each term at meridian points (s, x3)."""
        s, x3 = np.asarray(s, dtype=float), np.asarray(x3, dtype=float)
        rho = np.hypot(s, x3)
        # at rho = 0 any finite cos phi gives rho^k P_k = [k == 0]
        cosphi = x3 / np.where(rho == 0.0, 1.0, rho)
        return [c * rho**k * legendre_values(k, cosphi) for k, c in self.terms]

    def value(self, s, x3):
        return sum(self.term_values(s, x3))

    def value_3d(self, point):
        return self.value(*_meridian(point))


# --------------------------------------------------------------------------
# cutoff


#: cutoff kind -> ascending coefficients in t of its profile, 0 at t = 0
#: and 1 at t = 1, with the derivatives up to its smoothness 0 at both
CUTOFF_PROFILES = {
    "quintic": (0.0, 0.0, 0.0, 10.0, -15.0, 6.0),   # C^2
    "cubic": (0.0, 0.0, 3.0, -2.0),                 # C^1
}


@dataclass(frozen=True)
class Cutoff:
    """Radial cutoff: 0 inside rho <= r1, 1 outside rho >= r2, and its
    profile in t = (rho - r1) / (r2 - r1) between.

    ``quintic`` is the C^2 default; ``cubic`` (C^1) exists to check that
    the null-direction phenomenon does not depend on the cutoff choice.
    """

    r1: float = 3.0
    r2: float = 5.0
    kind: str = "quintic"

    def __post_init__(self):
        if not (self.r2 > self.r1 > 1.0):
            raise ValueError("need r2 > r1 > 1 (the circle has rho = 1)")
        if self.kind not in CUTOFF_PROFILES:
            raise ValueError(f"unknown cutoff kind {self.kind!r}")

    def chi(self, rho, order: int = 0):
        """chi(rho), or its ``order``-th derivative in rho, elementwise;
        derivatives are 0 outside the shell r1 < rho < r2."""
        width = self.r2 - self.r1
        t = (np.asarray(rho, dtype=float) - self.r1) / width
        coef = P.polyder(CUTOFF_PROFILES[self.kind], order)
        out = P.polyval(np.clip(t, 0.0, 1.0), coef) / width**order
        if order:
            out = np.where((t > 0.0) & (t < 1.0), out, 0.0)
        return out[()]


def source_meridian(p: ZonalPoly, chi: Cutoff, s, x3):
    """H = p * Delta(chi) + 2 grad(chi) . grad(p) without the sheet sign.

    For a radial cutoff and homogeneous harmonic terms, Euler's identity
    x . grad(p_k) = k p_k gives the closed form
    H = sum_k c_k p_k (chi'' + (2 + 2k) chi' / rho); Delta p = 0 is exact.
    Supported in the shell r1 < rho < r2; elementwise.
    """
    s, x3 = np.asarray(s, dtype=float), np.asarray(x3, dtype=float)
    rho = np.hypot(s, x3)
    out = np.zeros(rho.shape)
    m = (rho > chi.r1) & (rho < chi.r2)
    if m.any():
        rm = rho[m]
        d1, d2 = chi.chi(rm, 1), chi.chi(rm, 2)
        for (k, _), pk in zip(p.terms, p.term_values(s[m], x3[m])):
            out[m] += pk * (d2 + (2.0 + 2.0 * k) * d1 / rm)
    return out[()]


# --------------------------------------------------------------------------
# the double-cover grid and the sparse solve


@dataclass
class DoubleCoverGrid:
    """Uniform Cartesian grid in the uniformizing coordinate zeta.

    ``n`` nodes per dimension on the square [-L, L]^2 with
    L = sqrt(truncation + 1), which contains the preimage of the physical
    ball rho <= truncation.  Active nodes are those with s > 0 (inside the
    rotation-axis hyperbola) and rho < truncation; all other nodes carry
    Dirichlet zero.  The grid keeps the ``active`` mask, the active-node
    ``index`` and the active nodes' ``xi``, ``eta``, ``s`` and ``x3``, in
    row-major order; no full n x n float array outlives the constructor.

    The grid solves for sheet-odd fields only, V(-zeta) = -V(zeta): every
    source a Z2 harmonic function gives is odd.  The operator commutes with
    the group {1, S, R, SR} of the sheet swap S: (i, j) -> (n-1-i, n-1-j)
    and the reflection R: (i, j) -> (i, n-1-j), which is eta -> -eta, that
    is x3 -> -x3; both are exact on the nodes because the axis is exactly
    odd.  So a sheet-odd field splits into two parity blocks, eps = +1 and
    eps = -1 under R, that solve independently, and a degree-k source lies
    in the block eps = (-1)^k exactly.

    Each orbit {q, Sq, Rq, SRq} has one unknown per parity, at its lowest
    active index in row-major order: the node with xi <= 0 and eta <= 0, a
    quarter of the chart.  The orbit's other nodes carry that value times
    the character of the group element (S: -1, R: eps, SR: -eps).  A node
    fixed by an element of character -1 carries 0.  That happens at odd n
    only: at zeta = 0 always, on the eta = 0 line for eps = -1 and on the
    xi = 0 line for eps = +1.
    """

    n: int = 512
    truncation: float = 20.0

    def __post_init__(self):
        self.half_width = float(np.sqrt(self.truncation + 1.0))
        axis = np.linspace(-self.half_width, self.half_width, self.n)
        self.axis = 0.5 * (axis - axis[::-1])  # axis[::-1] == -axis exactly
        self.h = self.axis[1] - self.axis[0]
        xi, eta = self.axis[:, None], self.axis[None, :]
        s = 1.0 + xi**2 - eta**2
        self.active = (s > 0.0) & (np.hypot(s, 2.0 * xi * eta)
                                   < self.truncation)
        idx = -np.ones((self.n, self.n), dtype=np.int64)
        idx[self.active] = np.arange(int(self.active.sum()))
        self.index = idx
        ii, jj = np.nonzero(self.active)
        self.xi, self.eta = self.axis[ii], self.axis[jj]
        self.s = 1.0 + self.xi**2 - self.eta**2
        self.x3 = 2.0 * self.xi * self.eta
        # active index of each active node's sheet mirror (n-1-i, n-1-j)
        self.swap = idx[::-1, ::-1][self.active]

    @cached_property
    def _quarter(self):
        """(reps, mirrors, parity, fold) of the quarter-chart unknowns.

        ``reps`` and ``mirrors`` are the active indices of each unknown's
        representative node and of that node's R-mirror, ``parity`` is the
        unknown's eps (the eps = +1 block first), and ``fold`` is the sparse
        (active nodes x unknowns) matrix that spreads unknowns to the
        sheet-odd field they stand for.
        """
        import scipy.sparse as sp

        n, idx = self.n, self.index
        ii, jj = np.nonzero(self.active)
        flip_i, flip_j = ii > n - 1 - ii, jj > n - 1 - jj  # xi > 0, eta > 0
        rep = idx[np.minimum(ii, n - 1 - ii), np.minimum(jj, n - 1 - jj)]
        own = np.flatnonzero(rep == np.arange(rep.size))
        # a node carries its representative's value times the character of
        # S^flip_i R^(flip_i != flip_j); the orbits of the fixed nodes that
        # carry 0 lose their column
        spread = (np.arange(rep.size), np.searchsorted(own, rep))
        sheet = np.where(flip_i, -1.0, 1.0)
        folds, reps, parity = [], [], []
        for eps, fixed in ((1.0, ii == n - 1 - ii), (-1.0, jj == n - 1 - jj)):
            keep = ~fixed[own]
            fold = sp.csc_matrix((sheet * np.where(flip_i != flip_j, eps, 1.0),
                                  spread), shape=(rep.size, own.size))
            folds.append(fold[:, keep])
            reps.append(own[keep])
            parity.append(np.full(keep.sum(), eps))
        reps = np.concatenate(reps)
        return (reps, idx[ii[reps], n - 1 - jj[reps]], np.concatenate(parity),
                sp.hstack(folds, format="csc"))

    @cached_property
    def _lu(self):
        # In a parity block, row q of A fold x is the representative's row
        # times the character taking the representative to q, so the rows
        # at the representatives are the whole system: B = diag(B+, B-).
        # B = D^-1 M with M = fold^T A fold on a block and D the orbit sizes
        # (4, or 2 through a fixed node).  -A is symmetric positive definite
        # (each face weight enters both of its nodes' rows alike, the
        # diagonal holds minus the sum of all face weights, Dirichlet faces
        # included, and every connected part of the active region reaches
        # the Dirichlet truncation circle), so -M is too: diagonal pivots in
        # any symmetric order are stable, and minimum degree on B + B^T has
        # far less fill than COLAMD.  The ordering depends on the choice of
        # representatives: at n = 1024 the L + U fill is 10.1M with the
        # lowest index of each orbit and 14.4M with the highest.
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        a = self._matrix_csr
        reps, _, parity, fold = self._quarter
        split = int(np.count_nonzero(parity > 0))
        b = sp.block_diag([a[reps[:split]] @ fold[:, :split],
                           a[reps[split:]] @ fold[:, split:]], format="csc")
        return spla.splu(b, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                         options={"SymmetricMode": True})

    @cached_property
    def _matrix_csr(self):
        """Five-point finite-volume matrix of div(s grad .), face-weighted."""
        import scipy.sparse as sp

        n, h, axis = self.n, self.h, self.axis
        idx, active = self.index, self.active
        rows, cols, vals, faces = [], [], [], []

        ii, jj = np.nonzero(active)
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ni, nj = np.clip(ii + di, 0, n - 1), np.clip(jj + dj, 0, n - 1)
            xm = 0.5 * (axis[ii] + axis[ni])
            ym = 0.5 * (axis[jj] + axis[nj])
            w = np.maximum(1.0 + xm * xm - ym * ym, 0.0) / h**2
            # faces toward the axis region (neighbor with s <= 0) carry no
            # flux: that is the natural boundary condition of the weighted
            # form, and imposing Dirichlet there instead is wrong and
            # grid-alignment dependent
            w[1.0 + axis[ni]**2 - axis[nj]**2 <= 0.0] = 0.0
            faces.append(w)
            rows_here = idx[ii, jj]
            nb_active = active[ni, nj] & ((ni != ii) | (nj != jj))
            rows.append(rows_here[nb_active])
            cols.append(idx[ni[nb_active], nj[nb_active]])
            vals.append(w[nb_active])

        # opposite faces are summed in pairs, so the sheet swap, which
        # exchanges them, leaves every diagonal entry bit-for-bit unchanged
        m = int(active.sum())
        rows.append(np.arange(m))
        cols.append(np.arange(m))
        vals.append(-((faces[0] + faces[1]) + (faces[2] + faces[3])))
        return sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(m, m)).tocsr()

    def rhs_from_source(self, p: ZonalPoly, chi: Cutoff) -> np.ndarray:
        """4 |zeta|^2 s H on the active nodes (flattened)."""
        h = source_meridian(p, chi, self.s, self.x3)
        return np.sign(self.xi) * 4.0 * (self.xi**2 + self.eta**2) * self.s * h

    def solve(self, rhs_active: np.ndarray) -> np.ndarray:
        """Solve div(s grad V) = rhs for a sheet-odd rhs; returns V on the
        full grid (0 outside).

        A rhs that is not exactly odd under the sheet swap raises
        ValueError: this grid has no sheet-even solve.  The rhs is split
        into its two R-parity parts at the representatives, exactly for a
        pure-parity rhs.  The residual check runs on the full five-point
        system, so it certifies the quarter-chart reduction as well as the
        factorization.
        """
        rhs = np.asarray(rhs_active, dtype=float)
        if not np.array_equal(rhs[self.swap], -rhs):
            raise ValueError("rhs is not odd under the sheet swap zeta -> -zeta")
        reps, mirrors, parity, fold = self._quarter
        v = fold @ self._lu.solve(0.5 * (rhs[reps] + parity * rhs[mirrors]))
        res = self._matrix_csr @ v - rhs
        scale = max(np.linalg.norm(rhs), 1e-300)
        if np.linalg.norm(res) > 1e-8 * scale:
            raise SolverDiverged(
                f"relative residual {np.linalg.norm(res) / scale:.2e}")
        full = np.zeros((self.n, self.n))
        full[self.active] = v
        return full

    def interpolator(self, values: np.ndarray):
        """Bilinear interpolant of chart values (n, n).

        The returned callable takes a tuple (xi, eta) of coordinate arrays,
        which broadcast, and gives 0 outside the chart square.
        """
        axis, values = self.axis, np.asarray(values, dtype=float)

        def cell(x):
            i = np.clip(np.searchsorted(axis, x, side="right") - 1,
                        0, self.n - 2)
            return i, (x - axis[i]) / (axis[i + 1] - axis[i])

        def interp(points):
            x, y = np.broadcast_arrays(*(np.asarray(c, dtype=float)
                                         for c in points))
            (i, tx), (j, ty) = cell(x), cell(y)
            out = (values[i, j] * (1.0 - tx) * (1.0 - ty)
                   + values[i, j + 1] * (1.0 - tx) * ty
                   + values[i + 1, j] * tx * (1.0 - ty)
                   + values[i + 1, j + 1] * tx * ty)
            outside = ((x < axis[0]) | (x > axis[-1])
                       | (y < axis[0]) | (y > axis[-1]))
            return np.where(outside, 0.0, out)

        return interp

    def ring_window(self) -> tuple[float, float]:
        """Physical-r fit window [r_lo, 0.1] resolvable on this grid near the
        circle."""
        r_lo = max((3.0 * self.h) ** 2, 1e-3)
        if r_lo >= RING_R_LO_MAX:
            raise GridTooCoarse(f"grid step {self.h:.3f} too coarse for rings")
        return r_lo, 0.1


def min_ring_grid(truncation: float) -> int:
    """Smallest n whose grid has a ring window: the step 2 L / (n - 1),
    L = sqrt(truncation + 1), must be below sqrt(RING_R_LO_MAX) / 3."""
    return math.floor(6.0 * math.sqrt(truncation + 1.0)
                      / math.sqrt(RING_R_LO_MAX)) + 2


# --------------------------------------------------------------------------
# leading-coefficient extraction


def _rings(u_fn, radii: np.ndarray):
    """theta on [0, 4 pi) and u_fn on every ring, from one call with the
    radii as a column against the theta row."""
    theta = 4.0 * np.pi * np.arange(N_THETA) / N_THETA
    return theta, u_fn(radii[:, None], theta)


def extract_a1(u_fn, radii) -> tuple[np.ndarray, float]:
    """(A1+, A1-), the coefficients of cos(theta/2) sqrt(r) and
    sin(theta/2) sqrt(r), and the fit's relative residual.

    ``u_fn(r, theta)`` samples the section near the circle and broadcasts
    over arrays; theta runs over [0, 4 pi) on the double cover.  Per ring,
    a(r) = (1/2pi) integral u cos(theta/2) dtheta (sin likewise); then A1
    comes from least squares of a(r) against sqrt(r).
    """
    radii = np.asarray(radii, dtype=float)
    theta, u = _rings(u_fn, radii)
    proj_c = 2.0 * np.mean(u * np.cos(theta / 2.0), axis=1)
    proj_s = 2.0 * np.mean(u * np.sin(theta / 2.0), axis=1)
    sq = np.sqrt(radii)
    denom = float(sq @ sq)
    a_plus = float(proj_c @ sq) / denom
    a_minus = float(proj_s @ sq) / denom
    resid = np.hypot(np.linalg.norm(proj_c - a_plus * sq),
                     np.linalg.norm(proj_s - a_minus * sq))
    scale = np.hypot(np.linalg.norm(proj_c), np.linalg.norm(proj_s))
    rel = resid / scale if scale > 1e-13 else 0.0
    return np.array([a_plus, a_minus]), float(rel)


def ring_rms_slope(u_fn, radii) -> float:
    """Log-log slope of the ring RMS of u; >= 1.4 certifies r^{3/2} decay.

    ``u_fn(r, theta)`` broadcasts over arrays, as in :func:`extract_a1`.
    """
    radii = np.asarray(radii, dtype=float)
    _, u = _rings(u_fn, radii)
    vals = np.sqrt(np.mean(u ** 2, axis=1))
    slope, _ = np.polyfit(np.log(radii), np.log(np.maximum(vals, 1e-300)), 1)
    return float(slope)


def null_combination(a1_matrix: np.ndarray) -> np.ndarray:
    """Unit vector c minimizing ||A c|| for the 2 x K matrix of (A1+, A1-)."""
    a1_matrix = np.asarray(a1_matrix, dtype=float)
    if a1_matrix.shape[0] != 2:
        raise ValueError("expected a 2 x K matrix")
    if a1_matrix.shape[1] < 3:
        raise NoNullDirection("need at least 3 polynomial degrees")
    _, _, vt = np.linalg.svd(a1_matrix)
    return vt[-1]


# --------------------------------------------------------------------------
# pipeline


@dataclass
class SunPipeline:
    """End-to-end run: sources, shared factorized solve, A1 table, null mode."""

    grid: DoubleCoverGrid = field(default_factory=DoubleCoverGrid)
    cutoff: Cutoff = field(default_factory=Cutoff)

    def solve_for(self, p: ZonalPoly) -> np.ndarray:
        return self.grid.solve(self.grid.rhs_from_source(p, self.cutoff))

    def near_circle_fn(self, v_grid: np.ndarray):
        """u = U - V as a function of (r, theta); U vanishes near the circle.

        The returned ``u_fn(r, theta)`` broadcasts over arrays and makes one
        interpolator call per call.
        """
        interp = self.grid.interpolator(v_grid)

        def u_fn(r, theta):
            zr = np.sqrt(r)
            return -interp((zr * np.cos(theta / 2.0), zr * np.sin(theta / 2.0)))

        return u_fn

    def ring_radii(self) -> np.ndarray:
        lo, hi = self.grid.ring_window()
        return np.geomspace(lo, hi, N_RINGS)

    def a1_of(self, v_grid: np.ndarray) -> tuple[np.ndarray, float]:
        """(A1+, A1-) of u = U - V and the fit's relative residual; a
        residual above MAX_FIT_REL_RESIDUAL raises FitIllConditioned."""
        a1, rel = extract_a1(self.near_circle_fn(v_grid), self.ring_radii())
        if rel > MAX_FIT_REL_RESIDUAL:
            raise FitIllConditioned(f"relative fit residual {rel:.3f}")
        return a1, rel

    def run(self, degrees) -> dict:
        solutions = [self.solve_for(ZonalPoly.single(k)) for k in degrees]
        fits = [self.a1_of(v) for v in solutions]
        matrix = np.column_stack([a1 for a1, _ in fits])
        c = null_combination(matrix)
        # the null combination kills the sqrt(r) term, so its fit residual
        # is dominated by the next order and its fit is not gated
        u_fn = self.near_circle_fn(sum(ck * v for ck, v in zip(c, solutions)))
        combo_a1, _ = extract_a1(u_fn, self.ring_radii())
        lo, _ = self.grid.ring_window()
        slope = ring_rms_slope(u_fn, np.geomspace(lo, 0.05, N_RINGS))
        combo = float(np.linalg.norm(combo_a1))
        return {
            "a1_matrix": matrix,
            "null_vector": c,
            "reduction": float(np.linalg.norm(matrix, axis=0).max()
                               / max(combo, 1e-300)),
            "decay_slope": slope,
            "fit_rel_residual": [rel for _, rel in fits],
            "lu_nnz": self.grid._lu.nnz,
        }

    def evaluate_3d(self, point, v_grid: np.ndarray, p: ZonalPoly,
                    sheet: int = +1):
        """Rebuild u = U - V at points (..., 3) on the requested sheet, with
        one interpolator for all of them."""
        s, x3 = _meridian(point)
        zeta = sheet * np.sqrt((s - 1.0) + 1j * x3)  # principal: Re zeta >= 0
        v = self.grid.interpolator(v_grid)((zeta.real, zeta.imag))
        sign = np.where(zeta.real >= 0.0, 1.0, -1.0)
        u_big = sign * self.cutoff.chi(np.hypot(s, x3)) * p.value(s, x3)
        return (u_big - v)[()]


# --------------------------------------------------------------------------
# manufactured solution


def _bump(xi, eta):
    """E and div(s grad E) at chart points, for the C-infinity compactly
    supported bump E = exp(1 - 1/(1 - t^2)), t = |zeta - 1.2| / 0.8 < 1.

    div(s grad E) = s Delta E + grad s . grad E, with E' and E'' in t.
    """
    radius = 0.8
    dx, dy = xi - 1.2, eta
    d = np.hypot(dx, dy)
    t = d / radius
    inside = t < 1.0 - 1e-9
    one = np.where(inside, 1.0 - t * t, 1.0)
    e = np.where(inside, np.exp(1.0 - 1.0 / one), 0.0)
    g = -2.0 * t / one**2                      # d/dt of (1 - 1/(1-t^2))
    dg = -2.0 / one**2 - 8.0 * t * t / one**3
    de, d2e = e * g, e * (g * g + dg)
    r2 = radius**2
    dsafe = np.where(d < 1e-12, 1.0, d)
    lap = np.where(d < 1e-12, 2.0 * d2e / r2,
                   d2e / r2 + de / (radius * dsafe))
    gx = np.where(d < 1e-12, 0.0, de / (radius * dsafe) * dx)
    gy = np.where(d < 1e-12, 0.0, de / (radius * dsafe) * dy)
    svals = 1.0 + xi * xi - eta * eta
    return e, svals * lap + 2.0 * xi * gx - 2.0 * eta * gy


def manufactured_error(grid: DoubleCoverGrid) -> np.ndarray:
    """|V - V*| at each active node for a closed-form sheet-odd V*.

    V* is the odd pair E(zeta) - E(-zeta) of the bump, the class of fields
    the grid solves for.
    """
    e_pos, lap_pos = _bump(grid.xi, grid.eta)
    e_neg, lap_neg = _bump(-grid.xi, -grid.eta)
    v = grid.solve(lap_pos - lap_neg)
    return np.abs(v[grid.active] - (e_pos - e_neg))
