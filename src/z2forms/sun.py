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
truncation radius; u = U - V.  The cutoff is fixed: chi is the C^2 quintic
from 0 at rho = 3 to 1 at rho = 5.  It does not enter u, which is the
sheet-odd harmonic function with data +-p at the truncation, so a sun spec
takes three keys only: ``degrees`` (of p), ``grid`` (n) and
``truncation``.  A Z2 harmonic function changes sign between
the sheets, so U, H and V are all odd under the sheet swap zeta -> -zeta,
and the solver works on sheet-odd fields only.  They split again by
parity under eta -> -eta (x3 -> -x3) into two blocks, each on a quarter
of the chart with a factor of its own, and a degree-k source reaches only
the block of parity (-1)^k.  Near the circle u has the expansion

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
# scipy.sparse is imported inside DoubleCoverGrid._matrix_csr, ._blocks
# and ._lu only: importing scipy.sparse.linalg costs about 32 MB of RSS and
# 0.4 s (2-core host), and no suite but sun (and no export but `field`)
# reaches those methods.  The interpolator is numpy, because
# scipy.interpolate would cost another 20 MB and 0.3 s in every sun job.

from .errors import (DegreeTooLarge, FitIllConditioned, GridTooCoarse,
                     NoNullDirection, SolverDiverged)

MAX_ZONAL_DEGREE = 12

#: largest chart grid a spec may ask for: a first n = 2048 sun job took
#: 5.9-6.1 s at a 0.97 GB peak RSS on a 2-core host (glibc mmap threshold
#: fixed at 128 KiB), and cost grows faster than n^2.  The sun suite keeps
#: the last job grid with its factors for the next job at that grid: at
#: n = 2048 the process holds 0.73 GB of RSS between jobs
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

    def term_values(self, rho, cosphi) -> list:
        """c_k rho^k P_k(cos phi) of each term."""
        return [c * rho**k * legendre_values(k, cosphi) for k, c in self.terms]

    def value(self, s, x3):
        s, x3 = np.asarray(s, dtype=float), np.asarray(x3, dtype=float)
        rho = np.hypot(s, x3)
        # at rho = 0 any finite cos phi gives rho^k P_k = [k == 0]
        return sum(self.term_values(rho, x3 / np.where(rho == 0.0, 1.0, rho)))

    def value_3d(self, point):
        return self.value(*_meridian(point))


# --------------------------------------------------------------------------
# cutoff


#: radii of the cutoff: chi is 0 inside rho <= CUTOFF_R1 and 1 outside
#: rho >= CUTOFF_R2; u = U - V does not depend on them, only the
#: discretization error does
CUTOFF_R1, CUTOFF_R2 = 3.0, 5.0

#: ascending coefficients in t = (rho - r1) / (r2 - r1) of chi between the
#: radii: the C^2 quintic, 0 at t = 0 and 1 at t = 1 with its first two
#: derivatives 0 at both
_QUINTIC = (0.0, 0.0, 0.0, 10.0, -15.0, 6.0)


def chi(rho, order: int):
    """The cutoff chi(rho), or its ``order``-th derivative in rho,
    elementwise; derivatives are 0 outside the shell r1 < rho < r2."""
    width = CUTOFF_R2 - CUTOFF_R1
    t = (np.asarray(rho, dtype=float) - CUTOFF_R1) / width
    coef = P.polyder(_QUINTIC, order)
    out = P.polyval(np.clip(t, 0.0, 1.0), coef) / width**order
    if order:
        out = np.where((t > 0.0) & (t < 1.0), out, 0.0)
    return out[()]


def _shell(s, x3):
    """The mask of the shell r1 < rho < r2 among meridian points (s, x3),
    and H there as a function of the ZonalPoly; rho, cos phi, chi' and
    chi'' on the shell are computed once, then each degree is one term."""
    rho = np.hypot(s, x3)
    shell = (rho > CUTOFF_R1) & (rho < CUTOFF_R2)
    rho = rho[shell]  # > r1 > 1, so cos phi needs no guard
    cosphi, d1, d2 = x3[shell] / rho, chi(rho, 1), chi(rho, 2)
    return shell, lambda p: sum(
        pk * (d2 + (2.0 + 2.0 * k) * d1 / rho)
        for (k, _), pk in zip(p.terms, p.term_values(rho, cosphi)))


def source_meridian(p: ZonalPoly, s, x3):
    """H = p * Delta(chi) + 2 grad(chi) . grad(p) without the sheet sign.

    For a radial cutoff and homogeneous harmonic terms, Euler's identity
    x . grad(p_k) = k p_k gives the closed form
    H = sum_k c_k p_k (chi'' + (2 + 2k) chi' / rho); Delta p = 0 is exact.
    Supported in the shell r1 < rho < r2; elementwise.
    """
    s, x3 = np.asarray(s, dtype=float), np.asarray(x3, dtype=float)
    shell, source = _shell(s, x3)
    out = np.zeros(shell.shape)
    out[shell] = source(p)
    return out[()]


# --------------------------------------------------------------------------
# the double-cover grid and the sparse solve


class _BlockLU(tuple):
    """The LU factors of the parity blocks; ``nnz`` is their total fill."""
    nnz = property(lambda self: sum(lu.nnz for lu in self))


@dataclass
class DoubleCoverGrid:
    """Uniform Cartesian grid in the uniformizing coordinate zeta.

    ``n`` nodes per dimension on the square [-L, L]^2 with
    L = sqrt(truncation + 1), which contains the preimage of the physical
    ball rho <= truncation.  Active nodes are those with s > 0 (inside the
    rotation-axis hyperbola) and rho < truncation; all other nodes carry
    Dirichlet zero.  The grid keeps its ``axis``, the ``active`` mask and
    the int32 ``index`` of the active nodes in row-major order (-1
    elsewhere); ``nodes()`` derives their (xi, eta) where they are read.
    A field is a vector (m,) or (m, K) on the m active nodes, 0 elsewhere.

    The grid solves for sheet-odd fields only, V(-zeta) = -V(zeta): every
    source a Z2 harmonic function gives is odd.  The operator commutes with
    the group {1, S, R, SR} of the sheet swap S: (i, j) -> (n-1-i, n-1-j)
    and the reflection R: (i, j) -> (i, n-1-j), which is eta -> -eta, that
    is x3 -> -x3; both are exact on the nodes because the axis is exactly
    odd.  S maps the active set onto itself and reverses row-major order,
    so the swap of a field v is v[::-1].  A sheet-odd field splits into two
    parity blocks, eps = +1 and eps = -1 under R, that solve independently,
    and a degree-k source lies in the block eps = (-1)^k exactly.

    Each orbit {q, Sq, Rq, SRq} has one unknown per parity, at its lowest
    active index in row-major order: the node with xi <= 0 and eta <= 0, a
    quarter of the chart.  The orbit's other nodes carry that value times
    the character of the group element (S: -1, R: eps, SR: -eps).  A node
    fixed by an element of character -1 carries 0.  That happens at odd n
    only: at zeta = 0 always, on the eta = 0 line for eps = -1 and on the
    xi = 0 line for eps = +1.  Each block has its own LU factor; ``solve``
    solves a batch of columns, each only in the blocks it reaches.
    """

    n: int = 512
    truncation: float = 20.0

    def __post_init__(self):
        self.half_width = float(np.sqrt(self.truncation + 1.0))
        axis = np.linspace(-self.half_width, self.half_width, self.n)
        self.axis = 0.5 * (axis - axis[::-1])  # axis[::-1] == -axis exactly
        self.h = self.axis[1] - self.axis[0]
        # s and |x3| are even in xi and in eta, exactly on the odd axis, so
        # the quarter xi <= 0, eta <= 0 (rows and columns [0, half)) is
        # computed and mirrored
        half = (self.n + 1) // 2
        xi, eta = self.axis[:half, None], self.axis[None, :half]
        s = 1.0 + xi**2 - eta**2
        x3 = 2.0 * xi * eta
        quarter = s > 0.0
        quarter &= np.hypot(s, x3, out=x3) < self.truncation
        self.active = np.empty((self.n, self.n), dtype=bool)
        self.active[:half, :half] = quarter
        self.active[:half, -half:] = quarter[:, ::-1]
        self.active[-half:] = self.active[half - 1::-1]
        flat = np.flatnonzero(self.active)
        self.index = np.full((self.n, self.n), -1, dtype=np.int32)
        self.index.ravel()[flat] = np.arange(flat.size, dtype=np.int32)

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        """(xi, eta) of the active nodes, in the order of ``index``."""
        shape, active = self.active.shape, self.active
        return (np.broadcast_to(self.axis[:, None], shape)[active],
                np.broadcast_to(self.axis, shape)[active])

    @cached_property
    def _shell_source(self):
        """(shell mask, source on the shell, signed chart factor there) on
        the active nodes; raises GridTooCoarse where no node lies in the
        shell, since every source would then read 0."""
        xi, eta = self.nodes()
        # s = 1 + xi^2 - eta^2 and x3 = 2 xi eta, each written once
        s, x3 = np.square(xi), np.square(eta)
        s += 1.0
        s -= x3
        np.multiply(2.0, xi, out=x3)
        x3 *= eta
        shell, source = _shell(s, x3)
        if not shell.any():
            raise GridTooCoarse(f"no node of the n = {self.n} grid lies in "
                                f"the source shell {CUTOFF_R1:g} < rho < "
                                f"{CUTOFF_R2:g}")
        xi, eta, s = xi[shell], eta[shell], s[shell]
        return shell, source, np.sign(xi) * 4.0 * (xi**2 + eta**2) * s

    @cached_property
    def _blocks(self):
        """(reps, mirrors, eps, F) per parity block, eps = +1 first: the
        active index of each unknown's representative and its R-mirror, and
        the map F (m, unknowns) from the unknowns to the field: row q holds
        q's int8 character at q's unknown, or nothing where q carries 0."""
        import scipy.sparse as sp

        n, idx, active = self.n, self.index, self.active
        # the representatives are the active nodes of rows and columns
        # [0, half), xi <= 0 and eta <= 0; row or column r folds onto
        # min(r, n-1-r), and sign is -1 past the middle line
        half, line = (n + 1) // 2, np.arange(n)
        fold = np.minimum(line, line[::-1])
        sign = np.where(line > fold, -1, 1).astype(np.int8)
        flat = np.flatnonzero(active)
        blocks = []
        # a node carries its representative's value times the character of
        # S^flip_i R^(flip_i != flip_j): for eps = +1 its row's sign, for
        # eps = -1 its column's; the orbits of the middle row (eps = +1) or
        # column (eps = -1) at odd n are fixed, and carry 0
        for eps, chars in ((1, sign[:, None]), (-1, sign[None, :])):
            live = active[:half, :half].copy()
            if n % 2:
                (live[-1] if eps > 0 else live[:, -1])[:] = False
            size = np.count_nonzero(live)
            unknown = np.full((half, half), -1, dtype=np.int32)
            unknown[live] = np.arange(size, dtype=np.int32)
            cols = np.take(unknown[np.ix_(fold, fold)], flat)
            has = cols >= 0
            indptr = np.zeros(flat.size + 1, dtype=np.int32)
            np.cumsum(has, out=indptr[1:])
            spread = sp.csr_matrix(
                (np.take(np.broadcast_to(chars, active.shape), flat)[has],
                 cols[has], indptr), shape=(flat.size, size))
            blocks.append((idx[:half, :half][live].astype(np.intp),
                           idx[:half, ::-1][:, :half][live], eps, spread))
        return blocks

    @cached_property
    def _lu(self):
        """The LU factor of each parity block's B = A[reps] F."""
        # In a parity block, row q of A F x (F spreads the block's unknowns
        # x to the field) is the representative's row times the character
        # taking the representative to q, so the rows at the representatives
        # are the whole system: B = A[reps] F, one factor per block.
        # B = D^-1 M with M = F^T A F and D the orbit sizes (4, or 2 through
        # a fixed node).  -A is symmetric positive definite (each face
        # weight enters both of its nodes' rows alike, the diagonal holds
        # minus the sum of all face weights, Dirichlet faces included, and
        # every connected part of the active region reaches the Dirichlet
        # truncation circle), so -M is too: diagonal pivots in any symmetric
        # order are stable, and minimum degree on B + B^T has far less fill
        # than COLAMD.  The ordering depends on the choice of
        # representatives: at n = 1024 the L + U fill is 10.1M with the
        # lowest index of each orbit and 14.4M with the highest.  Panels of
        # one column leave the ordering and the fill unchanged, move the
        # solutions by round-off only, and factor both blocks in about
        # two-thirds of the default panels' time, at a lower transient peak
        # (BENCH_sun_cold_path.json).
        import scipy.sparse.linalg as spla

        # the product sums entries meeting on one unknown in A's column order
        return _BlockLU(spla.splu((self._matrix_csr[reps] @ spread).tocsc(),
                                  permc_spec="MMD_AT_PLUS_A",
                                  diag_pivot_thresh=0.0, panel_size=1,
                                  options={"SymmetricMode": True})
                        for reps, _, _, spread in self._blocks)

    @cached_property
    def _matrix_csr(self):
        """Five-point finite-volume matrix of div(s grad .), face-weighted, in
        CSR: row (i, j) holds (i-1, j), (i, j-1), (i, j), (i, j+1), (i+1, j)
        in this, ascending, column order, the inactive neighbors left out.
        The entries are staged as (5, m) values and columns, and each array
        is freed once it is used: the build peaks at about 14 float64 per
        active node (n = 192)."""
        import scipy.sparse as sp

        # rho >= truncation on the edge of the chart square, so every
        # active node q = (i, j) has its four neighbors on the grid, and
        # base = n i + j - n >= 0 is q's flat chart position less n
        n = self.n
        base = np.flatnonzero(self.active)
        base -= n
        m = base.size
        vals = _face_weights(self.axis, self.h, base)
        index = self.index.ravel()
        cols = np.empty(vals.shape, dtype=np.int32)
        for slot, step in enumerate((-n, -1, 0, 1, n)):
            np.take(index[n + step:], base, out=cols[slot], mode="clip")
        del base
        # opposite faces are summed in pairs, so the sheet swap, which
        # exchanges them, leaves every diagonal entry bit-for-bit unchanged
        np.add(vals[4], vals[0], out=vals[2])
        vals[2] += vals[3] + vals[1]
        np.negative(vals[2], out=vals[2])
        keep = cols >= 0
        indptr = np.zeros(m + 1, dtype=np.int32)
        np.cumsum(keep.sum(axis=0, dtype=np.int32), out=indptr[1:])
        indices = cols.T[keep.T]
        del cols
        return sp.csr_matrix((vals.T[keep.T], indices, indptr), shape=(m, m))

    def rhs_from_source(self, p) -> np.ndarray:
        """4 |zeta|^2 s H on the active nodes: (m,) for a ZonalPoly, and
        (m, K) for a sequence of K, one column each, all written into one
        array.  The shell and its signed chart factor are computed once per
        grid."""
        shell, source, factor = self._shell_source
        polys = [p] if isinstance(p, ZonalPoly) else list(p)
        out = np.zeros((len(polys), shell.size))
        for row, q in zip(out, polys):
            row[shell] = factor * source(q)
        return out[0] if isinstance(p, ZonalPoly) else out.T

    def solve(self, rhs_active: np.ndarray) -> np.ndarray:
        """Solve div(s grad V) = rhs for sheet-odd columns rhs (m,) or
        (m, K); returns V on the active nodes, shaped like rhs.

        A batch with a column that is not finite, or not exactly odd under
        the sheet swap, raises ValueError before any factor is built: this
        grid has no sheet-even solve.  ``_fields`` solves each column's
        parity parts, one factor call each, and writes the field by the
        group action; a block's map F only builds its B.  The residual
        check runs on the full five-point system, one sparse product for
        the batch, and gates each column on its own relative residual, so
        it certifies the quarter-chart reduction as well; a NaN residual
        fails it."""
        rhs = np.asarray(rhs_active, dtype=float)
        cols = rhs.reshape(len(rhs), -1)
        _check_rhs(cols)
        out = self._fields(cols)
        res = self._matrix_csr @ out
        res -= cols
        res = np.sqrt(np.einsum("ij,ij->j", res, res))
        scale = np.maximum(np.sqrt(np.einsum("ij,ij->j", cols, cols)), 1e-300)
        for r, sc in zip(res, scale):
            if not r <= 1e-8 * sc:
                raise SolverDiverged(f"relative residual {r / sc:.2e}")
        return out.reshape(rhs.shape)

    def _fields(self, cols: np.ndarray) -> np.ndarray:
        """The fields (m, K) of sheet-odd columns cols (m, K).

        A column's R-parity parts (one is exactly 0 at pure parity) are
        solved if nonzero, one per factor call, since a multi-column call
        takes other BLAS kernels and would tie a column's last bits to its
        batch.  The field comes from each part's solution by the group
        action (``_spread``), which writes F x to the bit: a block's map F
        only builds its B.  Every column builds its parts in the same two
        buffers, so the fields are the one full-grid array written here;
        the buffers are freed on return, before the residual product."""
        # the first solve factors here, before it allocates anything else
        blocks = [(reps, mirrors.astype(np.intp), eps, lu) for
                  (reps, mirrors, eps, _), lu in zip(self._blocks, self._lu)]
        size = max(reps.size for reps, *_ in blocks)
        parts, mirrored = np.empty(size), np.empty(size)
        # pages of np.empty and np.zeros fill only where they are written:
        # node only for a mixed column, out column by column
        node, out = np.empty(len(cols)), np.zeros(cols.shape)
        for col, field in zip(cols.T, out.T):
            spread = False
            for reps, mirrors, eps, lu in blocks:
                # part = 0.5 * (col[reps] + eps * col[mirrors]), in place
                part, mirror = parts[:reps.size], mirrored[:reps.size]
                np.take(col, reps, out=part, mode="clip")
                np.take(col, mirrors, out=mirror, mode="clip")
                (np.add if eps > 0 else np.subtract)(part, mirror, out=part)
                part *= 0.5
                if not part.any():
                    continue
                if spread:  # a mixed column's second block adds its field
                    node.fill(0.0)
                    _spread(node, reps, mirrors, eps, lu.solve(part))
                    field += node
                else:
                    _spread(field, reps, mirrors, eps, lu.solve(part))
                    spread = True
        return out

    def interpolator(self, values: np.ndarray):
        """Bilinear interpolant of a field (m,) or (m, K) on the active
        nodes.

        The returned callable takes a tuple (xi, eta) of coordinate arrays,
        which broadcast, and gives their shape, or their shape + (K,): the
        K columns share one stencil.  An inactive node (index -1) reads 0,
        and every point outside the chart square reads 0.  The samples of
        (m, K) are stored column by column, so each column is contiguous.
        """
        axis, idx = self.axis, self.index
        by_column = np.asarray(values).T

        def cell(x):
            i = np.clip(np.searchsorted(axis, x, side="right") - 1,
                        0, self.n - 2)
            return i, (x - axis[i]) / (axis[i + 1] - axis[i])

        def corner(i, j):
            k = idx[i, j]
            return np.where(k >= 0, by_column[..., k], 0.0)

        def interp(points):
            x, y = np.broadcast_arrays(*(np.asarray(c, dtype=float)
                                         for c in points))
            (i, tx), (j, ty) = cell(x), cell(y)
            out = (corner(i, j) * (1.0 - tx) * (1.0 - ty)
                   + corner(i, j + 1) * (1.0 - tx) * ty
                   + corner(i + 1, j) * tx * (1.0 - ty)
                   + corner(i + 1, j + 1) * tx * ty)
            outside = ((x < axis[0]) | (x > axis[-1])
                       | (y < axis[0]) | (y > axis[-1]))
            out = np.where(outside, 0.0, out)
            return out if by_column.ndim == 1 else np.moveaxis(out, 0, -1)

        return interp

    def ring_window(self) -> tuple[float, float]:
        """Physical-r fit window [r_lo, 0.1] resolvable on this grid near the
        circle."""
        r_lo = max((3.0 * self.h) ** 2, 1e-3)
        if r_lo >= RING_R_LO_MAX:
            raise GridTooCoarse(f"grid step {self.h:.3f} too coarse for rings")
        return r_lo, 0.1


def _face_weights(axis: np.ndarray, h: float, base: np.ndarray) -> np.ndarray:
    """(5, m) weights s / h^2 at the face midpoints around the active
    nodes q = (i, j), given base = n i + j - n: row 0 toward (i-1, j), 1
    toward (i, j-1), 3 toward (i, j+1) and 4 toward (i+1, j); row 2 is left
    for the diagonal.

    Faces toward the axis region (an end with s <= 0) carry no flux: that
    is the natural boundary condition of the weighted form, and imposing
    Dirichlet there instead is wrong and grid-alignment dependent.  One
    chart array holds s at the nodes, then the weight of each face between
    rows i-1 and i at (i, j), then that of each face between columns j-1
    and j at (i, j): a slot's face sits ``face`` flat positions after q."""
    n = axis.size
    sq, mid = axis * axis, 0.5 * (axis[:-1] + axis[1:])
    chart = np.subtract.outer(1.0 + sq, sq)
    beyond = chart <= 0.0
    vals = np.empty((5, base.size))
    for faces, xm, ym, ends, slots in (
            (chart[1:], mid[:, None], axis[None, :],
             (beyond[:-1], beyond[1:]), ((0, 0), (4, n))),
            (chart[:, 1:], axis[:, None], mid[None, :],
             (beyond[:, :-1], beyond[:, 1:]), ((1, 0), (3, 1)))):
        np.subtract(1.0 + xm * xm, ym * ym, out=faces)
        np.maximum(faces, 0.0, out=faces)
        faces /= h**2
        for end in ends:
            np.copyto(faces, 0.0, where=end)
        for slot, face in slots:
            np.take(chart.ravel()[n + face:], base, out=vals[slot],
                    mode="clip")
    return vals


def _check_rhs(cols: np.ndarray):
    """Raise ValueError unless every column of cols (m, K) is finite and
    exactly odd under the sheet swap, its reversal; the columns share one
    buffer of each kind, freed on return."""
    negated, same = np.empty(len(cols)), np.empty(len(cols), dtype=bool)
    for col in cols.T:
        if not np.isfinite(col, out=same).all():
            raise ValueError("rhs is not finite")
        if not np.equal(np.negative(col[::-1], out=negated), col,
                        out=same).all():
            raise ValueError("rhs is not odd under zeta -> -zeta")


def _spread(field: np.ndarray, reps, mirrors, eps: int, x: np.ndarray):
    """Write F x, a parity block's solution x on the nodes of its orbits,
    into field, overwriting x: the representatives carry x, their
    R-mirrors eps x, and the sheet swaps of both (the reversal of the
    field) the negatives.  Where an orbit has fewer than four nodes, the
    writes to a node agree.  F x sums from +0.0, so its zeros are +0.0:
    x += 0.0 and 0.0 - x keep them so."""
    swap = field[::-1]
    plus, minus = (field, swap) if eps > 0 else (swap, field)
    x += 0.0
    field[reps] = plus[mirrors] = x
    np.subtract(0.0, x, out=x)
    swap[reps] = minus[mirrors] = x


def min_ring_grid(truncation: float) -> int:
    """Smallest n whose grid has a ring window: the step 2 L / (n - 1),
    L = sqrt(truncation + 1), must be below sqrt(RING_R_LO_MAX) / 3."""
    return math.floor(6.0 * math.sqrt(truncation + 1.0)
                      / math.sqrt(RING_R_LO_MAX)) + 2


# --------------------------------------------------------------------------
# leading-coefficient extraction


def _rings(u_fn, radii: np.ndarray):
    """theta on [0, 4 pi), the samples of u_fn on every ring as one
    (rings, theta) array per column, and whether u_fn gave one column: a
    single call with the radii as a column against the theta row gives
    (rings, theta), or (rings, theta, K) for K columns."""
    theta = 4.0 * np.pi * np.arange(N_THETA) / N_THETA
    u = u_fn(radii[:, None], theta)
    single = u.ndim == 2
    return theta, (u[None] if single else np.moveaxis(u, -1, 0)), single


def extract_a1(u_fn, radii):
    """(A1+, A1-), the coefficients of cos(theta/2) sqrt(r) and
    sin(theta/2) sqrt(r), and the fit's relative residual.

    ``u_fn(r, theta)`` samples the section near the circle and broadcasts
    over arrays; theta runs over [0, 4 pi) on the double cover.  Per ring,
    a(r) = (1/2pi) integral u cos(theta/2) dtheta (sin likewise); then A1
    comes from least squares of a(r) against sqrt(r).  Samples (..., K)
    give a (2, K) table and K residuals, each column fitted as alone.
    """
    radii = np.asarray(radii, dtype=float)
    theta, columns, single = _rings(u_fn, radii)
    cos, sin = np.cos(theta / 2.0), np.sin(theta / 2.0)
    sq = np.sqrt(radii)
    denom = float(sq @ sq)
    a1, rels = np.empty((2, len(columns))), []
    for k, u in enumerate(columns):
        proj_c = 2.0 * np.mean(u * cos, axis=1)
        proj_s = 2.0 * np.mean(u * sin, axis=1)
        a_plus = float(proj_c @ sq) / denom
        a_minus = float(proj_s @ sq) / denom
        a1[:, k] = a_plus, a_minus
        resid = np.hypot(np.linalg.norm(proj_c - a_plus * sq),
                         np.linalg.norm(proj_s - a_minus * sq))
        scale = np.hypot(np.linalg.norm(proj_c), np.linalg.norm(proj_s))
        rels.append(float(resid / scale) if scale > 1e-13 else 0.0)
    return (a1[:, 0], rels[0]) if single else (a1, rels)


def ring_rms_slope(u_fn, radii):
    """Log-log slope of the ring RMS of u; >= 1.4 certifies r^{3/2} decay.

    ``u_fn(r, theta)`` broadcasts over arrays, as in :func:`extract_a1`;
    samples (..., K) give K slopes.
    """
    radii = np.asarray(radii, dtype=float)
    _, columns, single = _rings(u_fn, radii)
    slopes = []
    for u in columns:
        vals = np.sqrt(np.mean(u ** 2, axis=1))
        slope, _ = np.polyfit(np.log(radii),
                              np.log(np.maximum(vals, 1e-300)), 1)
        slopes.append(float(slope))
    return slopes[0] if single else slopes


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
    """End-to-end run: sources, shared factorized solve, A1 table, null mode.

    A sun spec's ``grid`` and ``truncation`` make the grid, and its
    ``degrees`` go to ``run``."""

    grid: DoubleCoverGrid = field(default_factory=DoubleCoverGrid)

    def solve_for(self, p: ZonalPoly) -> np.ndarray:
        return self.grid.solve(self.grid.rhs_from_source(p))

    def near_circle_fn(self, v: np.ndarray):
        """u = U - V as a function of (r, theta), V (m,) or (m, K) on the
        active nodes.

        U vanishes near the circle.  The returned ``u_fn(r, theta)``
        broadcasts over arrays, gives (..., K) for V (m, K), and makes one
        interpolator call per call.
        """
        interp = self.grid.interpolator(v)

        def u_fn(r, theta):
            zr = np.sqrt(r)
            return -interp((zr * np.cos(theta / 2.0), zr * np.sin(theta / 2.0)))

        return u_fn

    def ring_radii(self) -> np.ndarray:
        lo, hi = self.grid.ring_window()
        return np.geomspace(lo, hi, N_RINGS)

    def a1_of(self, v: np.ndarray):
        """(A1+, A1-) of u = U - V and the fit's relative residual, for V
        (m,), or a (2, K) table and K residuals for the columns of V (m, K);
        a residual above MAX_FIT_REL_RESIDUAL raises FitIllConditioned."""
        a1, rel = extract_a1(self.near_circle_fn(v), self.ring_radii())
        for r in np.atleast_1d(rel):
            if r > MAX_FIT_REL_RESIDUAL:
                raise FitIllConditioned(f"relative fit residual {r:.3f}")
        return a1, rel

    def run(self, degrees) -> dict:
        """A1 table, null combination, decay, and the linearity error of the
        mixed source 0.7 p_first - 1.3 p_last, solved as its own column.

        The degrees' columns are fitted on one stencil.  The null
        combination is taken at the nodes and sampled twice: on
        ``ring_radii()`` for its ungated fit, and on rings from the window's
        inner radius to 0.05 for its decay slope."""
        polys = [ZonalPoly.single(k) for k in degrees]
        polys.append(ZonalPoly(((degrees[0], 0.7), (degrees[-1], -1.3))))
        v = self.grid.solve(self.grid.rhs_from_source(polys))
        matrix, fit_rel = self.a1_of(v[:, :-1])
        c = null_combination(matrix)
        # the null combination kills the sqrt(r) term, so its fit residual
        # is dominated by the next order; the mixed column's A1 may nearly
        # cancel, and its linear fit restates the table: neither is gated
        u_fn = self.near_circle_fn(v[:, :-1] @ c)
        radii = self.ring_radii()
        combo = float(np.linalg.norm(extract_a1(u_fn, radii)[0]))
        slope = ring_rms_slope(u_fn, np.geomspace(radii[0], 0.05, N_RINGS))
        mixed, _ = extract_a1(self.near_circle_fn(v[:, -1]), radii)
        want = 0.7 * matrix[:, 0] - 1.3 * matrix[:, -1]
        return {
            "a1_matrix": matrix,
            "null_vector": c,
            "reduction": float(np.linalg.norm(matrix, axis=0).max()
                               / max(combo, 1e-300)),
            "decay_slope": slope,
            "fit_rel_residual": fit_rel,
            "lu_nnz": self.grid._lu.nnz,
            "linearity": float(np.linalg.norm(mixed - want)
                               / max(np.linalg.norm(want), 1e-300)),
        }

    def evaluate_3d(self, point, v: np.ndarray, p: ZonalPoly,
                    sheet: int = +1):
        """Rebuild u = U - V at points (..., 3) on the requested sheet, for
        V (m,) on the active nodes (0 elsewhere), with one interpolator."""
        s, x3 = _meridian(point)
        zeta = sheet * np.sqrt((s - 1.0) + 1j * x3)  # principal: Re zeta >= 0
        sign = np.where(zeta.real >= 0.0, 1.0, -1.0)
        u_big = sign * chi(np.hypot(s, x3), 0) * p.value(s, x3)
        return (u_big - self.grid.interpolator(v)((zeta.real, zeta.imag)))[()]


# --------------------------------------------------------------------------
# manufactured solution


def _bump(xi, eta):
    """E and div(s grad E) at chart points, for the C^3 compactly supported
    bump E = (1 - t^2)^4, t = |zeta - 1.2| / 0.8 < 1, and E = 0 beyond.

    div(s grad E) = s Delta E + grad s . grad E, with E'/t and E'' in t:
    Delta E = (E'' + E'/t) / 0.8^2 and grad E = (E'/t) (zeta - 1.2) / 0.8^2,
    both polynomial in t^2, so the centre needs no case of its own.
    """
    r2 = 0.8**2
    dx, dy = xi - 1.2, eta
    t2 = (dx * dx + dy * dy) / r2
    one = np.maximum(1.0 - t2, 0.0)
    e = one**4
    de_t = -8.0 * one**3                      # E'(t) / t
    d2e = one**2 * (56.0 * t2 - 8.0)          # E''(t)
    lap = (d2e + de_t) / r2
    gx, gy = de_t * dx / r2, de_t * dy / r2
    svals = 1.0 + xi * xi - eta * eta
    return e, svals * lap + 2.0 * xi * gx - 2.0 * eta * gy


def manufactured_error(grid: DoubleCoverGrid) -> np.ndarray:
    """|V - V*| at each active node for a closed-form sheet-odd V*.

    V* is the odd pair E(zeta) - E(-zeta) of the bump, the class of fields
    the grid solves for; E(-zeta) at the nodes is E reversed.
    """
    e, lap = _bump(*grid.nodes())
    return np.abs(grid.solve(lap - lap[::-1]) - (e - e[::-1]))
