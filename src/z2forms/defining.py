"""Holomorphic defining functions h with closed-form partial derivatives.

Each kind evaluates ``h`` and its partials exactly; finite differences are
reserved for the test oracles.  Bivariate functions act on C^2 (points in
R^4 via z = x0 + i*x1, w = x2 + i*x3), univariate ones on C (points in
R^2); every evaluation takes points (..., dim).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import SchemaError
from .report import jsonable

#: largest germ degree a spec may give, and most entries of its table: a
#: bivariate exponent, the number of lines or of bivariate terms, and a
#: planar degree.  At the bound every check suite took at most 0.76 s per
#: CLI call on lines, planar and bivariate specs; the vanishing-order suite
#: took 4.6 s on a bivariate of w-degree 200 and 134 s at 800, asked for
#: 5.8 TiB at 100000, and took 17 s on 4225 terms (2-core host)
MAX_GERM_DEGREE = 64

#: largest coefficient modulus a germ spec may give: node, ramified,
#: planar, lines and bivariate specs with coefficients of this modulus ran
#: every check suite; near the float range (1e300) the monodromy and
#: vanishing-order suites overflowed
MAX_COEFFICIENT = 1e6


def to_complex_pair(point):
    """(z, w) of points (..., 4) of R^4, complex arrays (...)."""
    p = np.asarray(point, dtype=float)
    return p[..., 0] + 1j * p[..., 1], p[..., 2] + 1j * p[..., 3]


def to_complex(point):
    """z of points (..., 2) of R^2, a complex array (...)."""
    p = np.asarray(point, dtype=float)
    return p[..., 0] + 1j * p[..., 1]


def _finite(value, path: str, integer: bool = False, lo=-math.inf,
            hi=math.inf):
    """A finite JSON number in [lo, hi], integral if ``integer``, else a
    SchemaError at ``path``."""
    kind = "integer" if integer else "number"
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        ok = ok and math.isfinite(value) and (not integer or value == int(value))
    except OverflowError:
        ok = False
    if not ok:
        raise SchemaError(path, f"expected a finite {kind}, got {value!r}")
    out = int(value) if integer else float(value)
    if not lo <= out <= hi:
        raise SchemaError(path, f"{kind} {out} outside [{lo}, {hi}]")
    return out


def _entries(value, count: int, path: str) -> list:
    """A JSON list of exactly ``count`` entries, else a SchemaError."""
    if not isinstance(value, (list, tuple)) or len(value) != count:
        raise SchemaError(path, f"expected a list of {count} entries, "
                                f"got {value!r}")
    return value


def _from_cx(v, path: str) -> complex:
    """A finite number or [re, im] pair of modulus at most MAX_COEFFICIENT,
    else a SchemaError."""
    if isinstance(v, (list, tuple)) and len(v) == 2:
        out = complex(_finite(v[0], f"{path}[0]"), _finite(v[1], f"{path}[1]"))
    else:
        out = complex(_finite(v, path))
    # abs() of a complex raises OverflowError past the float range; hypot
    # gives inf
    if math.hypot(out.real, out.imag) > MAX_COEFFICIENT:
        raise SchemaError(path, f"coefficient modulus above {MAX_COEFFICIENT:g}")
    return out


def _table(spec: dict, key: str, path: str, most: int) -> list:
    """``spec[key]``, a JSON list of 1 to ``most`` entries, else a
    SchemaError at ``path``."""
    value = spec.get(key)
    if not isinstance(value, (list, tuple)):
        raise SchemaError(path, f"expected a list, got {value!r}")
    if not 1 <= len(value) <= most:
        raise SchemaError(path, f"expected 1 to {most} entries, "
                                f"got {len(value)}")
    return value


def _build(cls, path: str, table: tuple):
    """``cls(table)``, with a ValueError of its checks as a SchemaError."""
    try:
        return cls(table)
    except ValueError as exc:
        raise SchemaError(path, str(exc)) from exc


class DefiningFunction:
    """Common interface: value, closed-form partials, JSON round trip.

    ``value``, ``partials`` and ``w_poly_coeffs`` take complex arrays, so
    ``value_at``, ``partials_at`` and ``sigma_distance_bound`` take points
    (..., dim) and answer with arrays (...): numpy scalars for one point
    (dim,).
    """

    arity: int  # 1 (univariate) or 2 (bivariate)
    kind: str

    def value(self, *zw) -> complex:
        """h at z for arity 1, at (z, w) for arity 2."""
        raise NotImplementedError

    def partials(self, *zw):
        """(dh/dz,) at z for arity 1, (dh/dz, dh/dw) at (z, w) for arity 2."""
        raise NotImplementedError

    def _zw(self, point) -> tuple:
        """The arguments of ``value`` and ``partials`` at points (..., dim)."""
        return (to_complex(point),) if self.arity == 1 else to_complex_pair(point)

    def value_at(self, point) -> complex:
        return self.value(*self._zw(point))

    def partials_at(self, point):
        zw = self._zw(point)
        # a partial that does not depend on the point comes back from
        # ``partials`` as a Python constant; give it the batch shape
        shape = np.shape(zw[0])
        return tuple(np.broadcast_to(g, shape).astype(complex)[()]
                     for g in self.partials(*zw))

    def sigma_distance_bound(self, point):
        """First-order lower-bound proxy |h| / |grad h| for dist(point, Sigma)."""
        hv = np.abs(self.value_at(point))
        norm = np.sqrt(sum(np.abs(g) ** 2 for g in self.partials_at(point)))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(norm == 0.0, np.where(hv != 0, np.inf, 0.0),
                           hv / norm)
        return out[()]

    def w_poly_coeffs(self, z) -> np.ndarray:
        """Ascending coefficients of w -> h(z, w) on the first axis, shape
        (degree + 1, ...) for z of shape (...); used by locus sampling."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        """The JSON descriptor: the kind and every field under its spec key."""
        return jsonable({"kind": self.kind, **vars(self)})


@dataclass(frozen=True)
class ProductOfLines(DefiningFunction):
    """h = prod_j (a_j z + b_j w): any finite union of complex lines through 0."""

    lines: tuple[tuple[complex, complex], ...]
    arity = 2
    kind = "lines"

    def __post_init__(self):
        lines = tuple((complex(a), complex(b)) for a, b in self.lines)
        if not lines:
            raise ValueError("at least one line required")
        if any(a == 0 and b == 0 for a, b in lines):
            raise ValueError("each line needs (a, b) != (0, 0)")
        object.__setattr__(self, "lines", lines)

    def factors(self, z, w):
        return [a * z + b * w for a, b in self.lines]

    def value(self, z, w):
        out = 1.0 + 0.0j
        for f in self.factors(z, w):
            out *= f
        return out

    def partials(self, z, w):
        facs = self.factors(z, w)
        hz = 0.0 + 0.0j
        hw = 0.0 + 0.0j
        for j, (a, b) in enumerate(self.lines):
            rest = 1.0 + 0.0j
            for i, f in enumerate(facs):
                if i != j:
                    rest *= f
            hz += a * rest
            hw += b * rest
        return hz, hw

    def sigma_distance_bound(self, point):
        z, w = to_complex_pair(point)
        return np.min([np.abs(a * z + b * w) / np.hypot(abs(a), abs(b))
                       for a, b in self.lines], axis=0)

    def w_poly_coeffs(self, z):
        z = np.asarray(z)
        poly = np.ones((1,) + z.shape, dtype=complex)
        for a, b in self.lines:  # times (a z + b w)
            pad = np.zeros_like(poly[:1])
            poly = (np.concatenate([poly * (a * z), pad])
                    + np.concatenate([pad, poly * b]))
        return poly

    def unit_directions(self) -> list[np.ndarray]:
        """Unit vectors in C^2 spanning each line {a z + b w = 0}."""
        dirs = []
        for a, b in self.lines:
            v = np.array([b, -a], dtype=complex)
            # |v| taken on v over the power of two at its largest |component|,
            # so |v|^2 cannot underflow; the scaling is exact, so |v| is
            # unchanged to the bit wherever |v|^2 is a normal float
            scale = np.ldexp(1.0, np.frexp(np.abs(v).max())[1] - 1)
            dirs.append(v / (np.linalg.norm(np.abs(v) / scale) * scale))
        return dirs


@dataclass(frozen=True)
class Node(DefiningFunction):
    """h = (z - b)(w - c) - a: smooth for a != 0, nodal at a = 0."""

    a: complex = 0j
    b: complex = 0j
    c: complex = 0j
    arity = 2
    kind = "node"

    def value(self, z, w):
        return (z - self.b) * (w - self.c) - self.a

    def partials(self, z, w):
        return (w - self.c), (z - self.b)

    def w_poly_coeffs(self, z):
        # (z-b) w - (z-b) c - a
        return np.array([-(z - self.b) * self.c - self.a, z - self.b])


@dataclass(frozen=True)
class RamifiedCover(DefiningFunction):
    """h = w^2 - a (z^3 + 1): elliptic curve for a != 0, doubled plane at a = 0."""

    a: complex = 1 + 0j
    arity = 2
    kind = "ramified"

    def value(self, z, w):
        return w * w - self.a * (z**3 + 1.0)

    def partials(self, z, w):
        return -3.0 * self.a * z * z, 2.0 * w

    def w_poly_coeffs(self, z):
        return np.stack(np.broadcast_arrays(-self.a * (z**3 + 1.0), 0j, 1 + 0j))


@dataclass(frozen=True)
class BivariatePolynomial(DefiningFunction):
    """h = sum c_[i,j] z^i w^j given by a finite coefficient table."""

    terms: tuple[tuple[int, int, complex], ...]
    arity = 2
    kind = "bivariate"

    def __post_init__(self):
        terms = tuple((int(i), int(j), complex(c)) for i, j, c in self.terms)
        if any(i < 0 or j < 0 for i, j, _ in terms):
            raise ValueError("exponents must be nonnegative")
        sums = {}
        for i, j, c in terms:
            sums[i, j] = sums.get((i, j), 0) + c
        if not any(sums.values()):
            raise ValueError("polynomial must be nonzero")
        object.__setattr__(self, "terms", terms)

    def value(self, z, w):
        return sum(c * z**i * w**j for i, j, c in self.terms)

    def partials(self, z, w):
        hz = sum((c * i * z ** (i - 1) * w**j for i, j, c in self.terms
                  if i > 0), 0j)
        hw = sum((c * j * z**i * w ** (j - 1) for i, j, c in self.terms
                  if j > 0), 0j)
        return hz, hw

    def w_poly_coeffs(self, z):
        z = np.asarray(z)
        deg = max(j for _, j, _ in self.terms)
        coeffs = np.zeros((deg + 1,) + z.shape, dtype=complex)
        for i, j, c in self.terms:
            coeffs[j] += c * z**i
        return coeffs


@dataclass(frozen=True)
class UnivariatePolynomial(DefiningFunction):
    """p(z) with ascending coefficients; the germ of the planar forms."""

    p: tuple[complex, ...]
    arity = 1
    kind = "planar"

    def __post_init__(self):
        p = tuple(complex(c) for c in self.p)
        if not p or all(c == 0 for c in p):
            raise ValueError("polynomial must be nonzero")
        object.__setattr__(self, "p", p)

    def value(self, z):
        out = 0.0 + 0.0j
        for c in reversed(self.p):
            out = out * z + c
        return out

    def partials(self, z):
        out = 0.0 + 0.0j
        for k in range(len(self.p) - 1, 0, -1):
            out = out * z + k * self.p[k]
        return (out,)

    def roots(self) -> np.ndarray:
        return np.roots(list(reversed(self.p)))


def from_dict(spec: dict, path: str = "$") -> DefiningFunction:
    """Rebuild a defining function from its JSON descriptor."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SchemaError(path, "expected an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "lines":
        at = f"{path}.lines"
        lines = [_entries(ab, 2, f"{at}[{i}]") for i, ab
                 in enumerate(_table(spec, "lines", at, MAX_GERM_DEGREE))]
        return _build(ProductOfLines, at, tuple(
            (_from_cx(a, f"{at}[{i}][0]"), _from_cx(b, f"{at}[{i}][1]"))
            for i, (a, b) in enumerate(lines)))
    if kind in ("node", "ramified"):
        # a coefficient the spec leaves out keeps its dataclass default
        cls = Node if kind == "node" else RamifiedCover
        return cls(**{f.name: _from_cx(spec[f.name], f"{path}.{f.name}")
                      for f in fields(cls) if f.name in spec})
    if kind == "bivariate":
        at = f"{path}.terms"
        terms = [_entries(t, 3, f"{at}[{i}]") for i, t
                 in enumerate(_table(spec, "terms", at, MAX_GERM_DEGREE))]
        return _build(BivariatePolynomial, at, tuple(
            (_finite(t[0], f"{at}[{i}][0]", integer=True, lo=0,
                     hi=MAX_GERM_DEGREE),
             _finite(t[1], f"{at}[{i}][1]", integer=True, lo=0,
                     hi=MAX_GERM_DEGREE),
             _from_cx(t[2], f"{at}[{i}][2]"))
            for i, t in enumerate(terms)))
    if kind == "planar":
        at = f"{path}.p"
        return _build(UnivariatePolynomial, at, tuple(
            _from_cx(c, f"{at}[{i}]") for i, c
            in enumerate(_table(spec, "p", at, MAX_GERM_DEGREE + 1))))
    raise SchemaError(f"{path}.kind", f"unknown defining-function kind {kind!r}")
