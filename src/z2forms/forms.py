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
``f_near(center_state)``, the harmonic function the harmonicity suite
checks, continued along straight segments from the center's branch.  That
function is f for the first and third families and the covector omega,
each of whose components is harmonic, for planar forms.

Covector components are real arrays in the coordinates
(Re z, Im z, Re w, Im w), (x, y) and (x, y, z) respectively, on the last
axis.  A state may hold many points (see ``BranchState``): ``eval_f`` and
``eval_omega`` then answer for all of them, and the function that
``f_near`` returns takes points (..., dim) and continues each from its
center in one array walk.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np

from .branch import (BranchState, EPS_SIGMA, HalfPower, continue_straight,
                     principal_state)
from .defining import (DefiningFunction, ProductOfLines,
                       UnivariatePolynomial)
from .errors import EmptyIntersection, OnBranchLocus

#: residual contract for sampled points of the zero locus
SIGMA_RESIDUAL = 1e-9


def _require_off_locus(hv):
    least = np.min(np.abs(hv))
    if least < EPS_SIGMA:
        raise OnBranchLocus(f"|h| = {least:.3e} below cutoff {EPS_SIGMA}")


def _half_powers(state: BranchState, k: HalfPower) -> tuple[complex, complex]:
    """h^((2k+1)/2) and h^((2k-1)/2) on the state's branch."""
    _require_off_locus(state.h_value)
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
        """|omega| at a point or at each of points (..., dim); independent of
        the branch choice."""
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
        _require_off_locus(state.h_value)
        return _re_covector(state.sqrt_value)

    def f_near(self, center: BranchState):
        """omega near ``center``, branch continued from it; each component
        is harmonic."""
        def f(point):
            return self.eval_omega(continue_straight(self.h, center, point))
        return f


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
    parameterized exactly; otherwise for seeded z samples the roots in w
    come from companion-matrix rootfinding, polished by Newton to a
    residual below 1e-9.
    """
    window = np.asarray(window, dtype=float).reshape(2 * h.arity, 2)
    if h.arity == 1:
        roots = h.roots()
        pts = np.column_stack([roots.real, roots.imag])
        inside = np.all((pts >= window[:, 0]) & (pts <= window[:, 1]), axis=1)
        if not inside.any():
            raise EmptyIntersection("no roots of h in window")
        return [pts[inside]]
    if isinstance(h, ProductOfLines):
        return _sample_lines(h, window, count)

    rng = np.random.default_rng(seed)
    points: list[np.ndarray] = []
    for _ in range(count):
        z = complex(rng.uniform(*window[0]), rng.uniform(*window[1]))
        coeffs = h.w_poly_coeffs(z)
        if np.allclose(coeffs[1:], 0.0):
            continue
        for w in np.roots(list(reversed(coeffs))):
            w = _newton_polish_w(h, z, complex(w))
            if w is None:
                continue
            if window[2, 0] <= w.real <= window[2, 1] and \
               window[3, 0] <= w.imag <= window[3, 1]:
                points.append(np.array([z.real, z.imag, w.real, w.imag]))
    if not points:
        raise EmptyIntersection("no locus points found in window")
    return [np.array(points)]


def _newton_polish_w(h, z, w):
    for _ in range(20):
        hv = h.value(z, w)
        if abs(hv) < SIGMA_RESIDUAL:
            return w
        _, hw = h.partials(z, w)
        if hw == 0:
            return None
        w = w - hv / hw
    return w if abs(h.value(z, w)) < SIGMA_RESIDUAL else None


def _sample_lines(h: ProductOfLines, window, count) -> list[np.ndarray]:
    radius = np.max(np.abs(window))
    clouds = []
    for v in h.unit_directions():
        pts = []
        n_r, n_t = max(2, count // 32), 32
        for r in np.linspace(radius / n_r, radius, n_r):
            for t in 2.0 * np.pi * np.arange(n_t) / n_t:
                lam = r * cmath.exp(1j * t)
                z, w = lam * v[0], lam * v[1]
                p = np.array([z.real, z.imag, w.real, w.imag])
                if np.all(p >= window[:, 0]) and np.all(p <= window[:, 1]):
                    pts.append(p)
        if pts:
            clouds.append(np.array(pts))
    if not clouds:
        raise EmptyIntersection("no locus points found in window")
    return clouds


def sample_lines_on_sphere(h: ProductOfLines, radius: float) -> np.ndarray:
    """Exact samples of Sigma intersected with the sphere |x| = radius,
    128 per line."""
    t = 2.0 * np.pi * np.arange(128) / 128
    pts = []
    for v in h.unit_directions():
        lam = radius * np.exp(1j * t)
        z, w = np.outer(lam, [v[0]]).ravel(), np.outer(lam, [v[1]]).ravel()
        pts.append(np.column_stack([z.real, z.imag, w.real, w.imag]))
    return np.vstack(pts)


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
