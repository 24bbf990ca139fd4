"""The catalogue of explicit Z2 harmonic functions and 1-forms.

Three construction families:

* ``ReHPowerForm`` -- f = Re h^(3/2) (and higher half powers) on R^4 for a
  bivariate holomorphic germ h; omega = df.
* ``PlanarForm`` -- omega = Re(h(z)^(1/2) dz) on R^2 for a univariate
  polynomial h.
* ``AxialForm`` -- the R^3 family f = z * Re(w^(3/2)) with germ w = x + i y,
  whose vanishing order is 3/2 at the origin but 1/2 elsewhere on the axis;
  omega = 2 df.

All three share one branch-aware protocol: a germ ``h`` whose square root
the form is built on; ``state_at(point)``, the principal ``BranchState``;
``eval_omega(state)``, the covector on the state's branch;
``magnitude(point)``, |omega|, which no branch choice changes; and
``f_near(center_state)``, ``eval_f`` continued along straight segments
from the center's branch: the harmonic function the harmonicity suite
checks.  ``eval_f`` is f for the first and third families and the
covector omega, each of whose components is harmonic, for planar forms.

Covector components are real arrays in the coordinates
(Re z, Im z, Re w, Im w), (x, y) and (x, y, z) respectively, on the last
axis.  Every evaluation takes points (..., dim), one point (dim,)
included, through one code path: ``eval_f`` and ``eval_omega`` answer for
all points of a state, and the function that ``f_near`` returns continues
each point from its center in one array walk.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .branch import (BranchState, HalfPower, _check_off_locus,
                     continue_straight, principal_state)
from .defining import (DefiningFunction, ProductOfLines,
                       UnivariatePolynomial, to_complex)
from .errors import EmptyIntersection

#: residual contract for sampled points of the zero locus
SIGMA_RESIDUAL = 1e-9


def _half_powers(state: BranchState, k: HalfPower) -> tuple[complex, complex]:
    """h^((2k+1)/2) and h^((2k-1)/2) on the state's branch."""
    _check_off_locus(state.h_value, "in state")
    high = state.h_value ** k.k * state.sqrt_value
    return high, high / state.h_value


def _re_covector(a) -> np.ndarray:
    """Components of Re(a dz) in the real coordinates of z = x + iy, on the
    last axis."""
    return np.stack([np.real(a), -np.imag(a)], axis=-1)


class _BranchForm:
    """The protocol shared by the three families (see the module docstring)."""

    h: DefiningFunction
    dimension: int

    def state_at(self, point) -> BranchState:
        return principal_state(self.h, point)

    def magnitude(self, point):
        """|omega| at points (..., dim); independent of the branch choice."""
        return np.linalg.norm(self.eval_omega(self.state_at(point)), axis=-1)

    def f_near(self, center: BranchState):
        """f as a plain function near ``center``, branch continued from it."""
        def f(point):
            return self.eval_f(continue_straight(self.h, center, point))
        return f


@dataclass(frozen=True)
class ReHPowerForm(_BranchForm):
    """f = Re h^((2k+1)/2) and omega = df on R^4 (= C^2)."""

    h: DefiningFunction
    k: HalfPower = field(default_factory=HalfPower)

    def __post_init__(self):
        if self.h.arity != 2:
            raise ValueError("ReHPowerForm needs a bivariate defining function")

    dimension = 4

    def eval_f(self, state: BranchState) -> float:
        """Re(h^((2k+1)/2)) on the state's branch."""
        return _half_powers(state, self.k)[0].real

    def eval_omega(self, state: BranchState) -> np.ndarray:
        """The covector (2k+1)/2 * Re(h^((2k-1)/2) (h_z dz + h_w dw))."""
        hz, hw = self.h.partials_at(state.at)
        pref = self.k.exponent * _half_powers(state, self.k)[1]
        return np.concatenate([_re_covector(pref * hz), _re_covector(pref * hw)],
                              axis=-1)


@dataclass(frozen=True)
class PlanarForm(_BranchForm):
    """omega = Re(h(z)^(1/2) dz) on R^2."""

    h: UnivariatePolynomial
    dimension = 2

    def eval_omega(self, state: BranchState) -> np.ndarray:
        _check_off_locus(state.h_value, "in state")
        return _re_covector(state.sqrt_value)

    eval_f = eval_omega  # each component of omega is harmonic


@dataclass(frozen=True)
class AxialForm(_BranchForm):
    """The R^3 family: f = z * Re(w^((2k+1)/2)) and omega = 2 df.

    Coordinates (x, y, z) with germ w = x + i y; the branching set is the
    z-axis and z is a plain coordinate.
    """

    k: HalfPower = field(default_factory=HalfPower)
    h = UnivariatePolynomial((0.0, 1.0))
    dimension = 3

    def eval_f(self, state: BranchState) -> float:
        """z * Re(w^((2k+1)/2)) on the state's branch."""
        return state.at[..., 2] * _half_powers(state, self.k)[0].real

    def eval_omega(self, state: BranchState) -> np.ndarray:
        """2 Re(w^((2k+1)/2)) dz + (2k+1) z Re(w^((2k-1)/2) dw) in (x, y, z).

        The paper case is k = 1: omega = 2 Re(w^(3/2)) dz + 3 z Re(w^(1/2) dw).
        """
        high, low = _half_powers(state, self.k)
        dw_part = (2 * self.k.k + 1) * state.at[..., 2] * low
        return np.stack([dw_part.real, -dw_part.imag, 2.0 * high.real], axis=-1)


# --------------------------------------------------------------------------
# sampling the zero locus


def sample_sigma(h: DefiningFunction, window, count: int,
                 seed: int = 0) -> list[np.ndarray]:
    """Point clouds on Sigma = {h = 0} inside a coordinate window.

    ``window`` is a (2 * arity, 2) array of per-coordinate bounds in
    (Re z, Im z) or (Re z, Im z, Re w, Im w).  For a univariate h, Sigma is
    the finite set of roots of h: one cloud of the roots inside the window,
    whatever ``count`` and ``seed``.  For ``ProductOfLines`` the lines are
    parameterized exactly; otherwise for ``count`` seeded z samples the
    roots in w come from companion-matrix rootfinding, polished by Newton
    to a residual below 1e-9.  All z are handled at once; the points come
    z by z, each z's roots in ``np.roots`` order.
    """
    window = np.asarray(window, dtype=float).reshape(2 * h.arity, 2)
    if h.arity == 1:
        roots = h.roots()
        pts = np.column_stack([roots.real, roots.imag])
        pts = pts[_inside(pts, window)]
        if not len(pts):
            raise EmptyIntersection("no roots of h in window")
        return [pts]
    if isinstance(h, ProductOfLines):
        return _sample_lines(h, window, count)

    # one draw gives the stream of drawing Re z, Im z, Re z, ... one by one
    rng = np.random.default_rng(seed)
    z = to_complex(rng.uniform(window[:2, 0], window[:2, 1], size=(count, 2)))
    coeffs = h.w_poly_coeffs(z)
    solvable = ~np.all(np.isclose(coeffs[1:], 0.0), axis=0)
    roots = _w_roots(coeffs[:, solvable])
    z, w = np.repeat(z[solvable], roots.shape[1]), roots.ravel()
    polished = _newton_polish(h, z, w)
    pts = np.column_stack([z.real, z.imag, w.real, w.imag])[polished]
    pts = pts[_inside(pts, window)]
    if not len(pts):
        raise EmptyIntersection("no locus points found in window")
    return [pts]


def _inside(pts, window) -> np.ndarray:
    """Which of points (..., dim) lie in the window (dim, 2)."""
    return np.all((pts >= window[:, 0]) & (pts <= window[:, 1]), axis=-1)


def _w_roots(coeffs) -> np.ndarray:
    """``np.roots`` of each column of ascending coefficients (degree + 1, n)
    at once, as rows (n, degree) padded with nan."""
    deg = len(coeffs) - 1
    out = np.full((coeffs.shape[1], deg), np.nan, dtype=complex)
    nonzero = coeffs != 0
    top, low = deg - np.argmax(nonzero[::-1], axis=0), np.argmax(nonzero, axis=0)
    top[~nonzero.any(axis=0)] = 0  # an all-zero column has no roots
    for t, lo in set(zip(top, low)):
        # as np.roots: eigenvalues of the companion matrix without the zero
        # leading coefficients, then a root 0 per zero low coefficient
        cols = np.flatnonzero((top == t) & (low == lo))
        p, m = coeffs[lo:t + 1, cols][::-1].T, t - lo
        if m:
            companion = np.zeros((len(cols), m, m), dtype=complex)
            companion[:, 0] = -p[:, 1:] / p[:, :1]
            companion[:, range(1, m), range(m - 1)] = 1.0
            out[cols, :m] = np.linalg.eigvals(companion)
        out[cols, m:t] = 0.0
    return out


def _newton_polish(h, z, w) -> np.ndarray:
    """Newton's method in w on h(z, .) for all roots w (n,) at once, in
    place: each stops below SIGMA_RESIDUAL, where dh/dw = 0 or after 20
    steps.  Returns which roots end below that residual; nan is skipped."""
    ok = np.zeros(w.shape, dtype=bool)
    live = np.flatnonzero(~np.isnan(w))
    for _ in range(20):
        hv = h.value(z[live], w[live])
        ok[live] = np.abs(hv) < SIGMA_RESIDUAL
        # dh/dw is a constant where h is linear in w
        hw = np.broadcast_to(h.partials(z[live], w[live])[1], live.shape)
        step = ~ok[live] & (hw != 0)
        live, hv, hw = live[step], hv[step], hw[step]
        w[live] -= hv / hw
    ok[live] = np.abs(h.value(z[live], w[live])) < SIGMA_RESIDUAL
    return ok


def _circle(n: int) -> np.ndarray:
    """The n-th roots of unity e^{2 pi i j / n}, j = 0 .. n - 1."""
    return np.exp(1j * (2.0 * np.pi * np.arange(n) / n))


def _on_line(v, lam) -> np.ndarray:
    """The points lam * v of the complex line spanned by v, (len(lam), 4)."""
    z, w = lam * v[0], lam * v[1]
    return np.column_stack([z.real, z.imag, w.real, w.imag])


def _sample_lines(h: ProductOfLines, window, count) -> list[np.ndarray]:
    """32 angles on max(2, count // 32) circles of each line, in the window."""
    radius = np.max(np.abs(window))
    n_r = max(2, count // 32)
    lam = (np.linspace(radius / n_r, radius, n_r)[:, None]
           * _circle(32)).ravel()
    clouds = [pts[_inside(pts, window)]
              for pts in (_on_line(v, lam) for v in h.unit_directions())]
    clouds = [c for c in clouds if len(c)]
    if not clouds:
        raise EmptyIntersection("no locus points found in window")
    return clouds


def sample_lines_on_sphere(h: ProductOfLines, radius: float) -> np.ndarray:
    """Exact samples of Sigma intersected with the sphere |x| = radius,
    128 per line."""
    return np.vstack([_on_line(v, radius * _circle(128))
                      for v in h.unit_directions()])


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two finite point sets."""
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    return float(np.sqrt(max(d2.min(axis=1).max(), d2.min(axis=0).max())))


# --------------------------------------------------------------------------
# fitted vanishing orders


def vanishing_order(magnitude_fn, base_point, direction,
                    r_lo: float = 1e-3, r_hi: float = 1e-1) -> float:
    """Log-log slope of |omega| along base_point + r * direction.

    ``magnitude_fn`` is called once, on all 20 points (20, dim).  The
    window [1e-3, 1e-1] keeps the square root well conditioned below and
    higher-order terms small above.
    """
    base = np.asarray(base_point, dtype=float)
    direction = np.asarray(direction, dtype=float)
    direction = direction / np.linalg.norm(direction)
    radii = np.geomspace(r_lo, r_hi, 20)
    mags = magnitude_fn(base + radii[:, None] * direction)
    slope, _ = np.polyfit(np.log(radii), np.log(mags), 1)
    return float(slope)
