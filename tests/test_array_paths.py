"""One code path per formula: every evaluation of ``branch``, ``defining``,
``forms``, ``fd``, ``sun`` and the stereographic chart of ``morphisms``
takes one point (dim,) or many (..., dim).

One call on N points must match N single-point calls, and a single point
gives a numpy scalar, never a 0-d array.  ``sample_sigma``, which handles
all its z samples at once, is checked against a per-z reference loop,
also where the companion roots need Newton's polish.
"""
import numpy as np
import pytest

from z2forms import (AxialForm, BivariatePolynomial, Node, PlanarForm,
                     ProductOfLines, RamifiedCover, ReHPowerForm,
                     UnivariatePolynomial, principal_state, sample_sigma)
from z2forms.branch import BranchState, continue_straight
from z2forms.fd import (fd_curl_components, fd_divergence, fd_jacobian,
                        fd_laplacian, fd_laplacian_order4)
from z2forms.forms import SIGMA_RESIDUAL, _w_roots
from z2forms.morphisms import (hopf_chart, laplace_beltrami_residual,
                               stereo_embed)
from z2forms.sun import (DoubleCoverGrid, SunPipeline, ZonalPoly, chi,
                         legendre_values, source_meridian, zonal)

RTOL = 1e-14
N = 7

GERMS = {
    "node": Node(0.4 + 0.3j, 0.1, -0.2j),
    "ramified": RamifiedCover(1.3 - 0.4j),
    "bivariate": BivariatePolynomial(((2, 0, 1.0), (0, 3, -1.0),
                                      (1, 1, 0.3 + 0.1j))),
    "lines": ProductOfLines(((1, 0), (1, -1j), (2, 1))),
    "planar": UnivariatePolynomial((-0.7, 0.2j, 1.0)),
}


def points(dim, seed=0, n=N):
    return np.random.default_rng(seed).uniform(-1.5, 1.5, size=(n, dim))


def assert_batch_matches(fn, pts):
    """fn on all of ``pts`` (N, dim) against fn on each row; a row gives
    numpy scalars or arrays of at least one dimension, never 0-d arrays."""
    batch = fn(pts)
    single = [fn(p) for p in pts]
    flat = [batch] if not isinstance(batch, tuple) else list(batch)
    rows = [[s] if not isinstance(s, tuple) else list(s) for s in single]
    for part, b in enumerate(flat):
        want = np.array([np.broadcast_to(r[part], np.shape(b)[1:])
                         for r in rows])
        np.testing.assert_allclose(np.broadcast_to(b, want.shape), want,
                                   rtol=RTOL, atol=0)
        for r in rows:
            assert not (isinstance(r[part], np.ndarray) and r[part].ndim == 0)


def germ_dim(h):
    return 2 * h.arity


# --------------------------------------------------------------------------
# defining and branch


@pytest.mark.parametrize("kind", GERMS)
def test_germ_evaluations(kind):
    h = GERMS[kind]
    pts = points(germ_dim(h))
    assert_batch_matches(h.value_at, pts)
    assert_batch_matches(h.partials_at, pts)
    assert_batch_matches(h.sigma_distance_bound, pts)
    assert isinstance(h.value_at(pts[0]), np.complex128)


@pytest.mark.parametrize("h", [
    ProductOfLines(((1, 2),)),
    BivariatePolynomial(((2, 0, 1.0), (1, 0, 0.5j))),
], ids=["one-line", "bivariate-without-w"])
def test_constant_partials_take_the_batch_shape(h):
    # both partials of one line, and dh/dw of a bivariate without w terms,
    # do not depend on the point
    pts = points(germ_dim(h))
    for g in h.partials_at(pts):
        assert isinstance(g, np.ndarray)
        assert g.shape == (N,) and g.dtype == np.complex128
    for g in h.partials_at(pts[0]):
        assert isinstance(g, np.complex128)
    assert_batch_matches(h.partials_at, pts)


@pytest.mark.parametrize("kind", ["node", "ramified", "bivariate", "lines"])
def test_w_poly_coeffs(kind):
    h = GERMS[kind]
    z = points(2) @ [1, 1j]
    batch = h.w_poly_coeffs(z)
    single = np.stack([h.w_poly_coeffs(v) for v in z], axis=-1)
    np.testing.assert_allclose(batch, single, rtol=RTOL, atol=0)
    # the coefficients are those of w -> h(z, w)
    w = 0.3 - 0.8j
    np.testing.assert_allclose(
        np.polynomial.polynomial.polyval(w, batch, tensor=False),
        h.value(z, w), rtol=1e-12)


@pytest.mark.parametrize("kind", GERMS)
def test_states_and_continuation(kind):
    h = GERMS[kind]
    pts = points(germ_dim(h), seed=1)
    assert_batch_matches(lambda p: principal_state(h, p).sqrt_value, pts)
    center = principal_state(h, pts[0])

    def end(p):
        st = continue_straight(h, center, p)
        return st.h_value, st.sign, st.sqrt_value

    assert_batch_matches(end, pts[0] + 0.05 * points(germ_dim(h), seed=2))

    def flipped(p):
        return BranchState(at=p, h_value=h.value_at(p), sign=-1).sqrt_value

    assert_batch_matches(flipped, pts)
    np.testing.assert_array_equal(flipped(pts),
                                  -principal_state(h, pts).sqrt_value)


def test_single_point_state_holds_numpy_scalars():
    h = GERMS["node"]
    st = continue_straight(h, principal_state(h, [1.0, 0, 1, 0]),
                           [0.2, 0.7, 1.0, 0.3])
    for value in (st.h_value, st.sign, st.sqrt_value):
        assert np.isscalar(value) and isinstance(value, np.generic)


# --------------------------------------------------------------------------
# forms


FORMS = {
    "rehpower": ReHPowerForm(GERMS["ramified"]),
    "planar": PlanarForm(GERMS["planar"]),
    "axial": AxialForm(),
}


@pytest.mark.parametrize("name", FORMS)
def test_form_evaluations(name):
    form = FORMS[name]
    pts = points(form.dimension, seed=3)
    assert_batch_matches(lambda p: form.eval_omega(form.state_at(p)), pts)
    assert_batch_matches(form.magnitude, pts)
    if hasattr(form, "eval_f"):
        assert_batch_matches(lambda p: form.eval_f(form.state_at(p)), pts)
    f = form.f_near(form.state_at(pts))
    near = pts + 1e-3
    np.testing.assert_allclose(
        f(near), [form.f_near(form.state_at(c))(p) for c, p in zip(pts, near)],
        rtol=RTOL, atol=0)


# --------------------------------------------------------------------------
# sample_sigma against the per-z loop


def reference_sigma(h, window, count, seed):
    """Sigma samples one z at a time: two scalar uniform draws per z,
    ``np.roots`` of w -> h(z, w) and a scalar Newton polish per root."""
    window = np.asarray(window, dtype=float).reshape(4, 2)
    rng = np.random.default_rng(seed)
    points = []
    for _ in range(count):
        z = complex(rng.uniform(*window[0]), rng.uniform(*window[1]))
        coeffs = h.w_poly_coeffs(z)
        if np.allclose(coeffs[1:], 0.0):
            continue
        for w in np.roots(list(reversed(coeffs))):
            w = complex(w)
            for _ in range(20):
                hv = complex(h.value(z, w))
                if abs(hv) < SIGMA_RESIDUAL:
                    break
                hw = complex(h.partials(z, w)[1])
                if hw == 0:
                    w = None
                    break
                w = w - hv / hw
            else:
                if abs(h.value(z, w)) >= SIGMA_RESIDUAL:
                    w = None
            p = None if w is None else [z.real, z.imag, w.real, w.imag]
            if p is not None and np.all((p >= window[:, 0])
                                        & (p <= window[:, 1])):
                points.append(p)
    return np.array(points)


def test_w_roots_match_np_roots_per_column():
    """The batched companion roots, with their nan padding dropped, equal
    ``np.roots`` column by column: zero leading and zero low coefficients,
    and no roots for an all-zero column (the monodromy suite's w-meridians
    of (z - 1.1) w at z = 1.1)."""
    coeffs = np.array([[1, 2, 0, 0, 0.5],
                       [0, 1, 0, 0, -1j],
                       [3, 0, 0, 2j, 0],
                       [1, 0, 0, 0, 2]], dtype=complex)
    for col, roots in zip(coeffs.T, _w_roots(coeffs)):
        assert np.array_equal(roots[~np.isnan(roots)], np.roots(col[::-1]))


def sigma_germ(kind, seed):
    """A germ of the given kind with seeded parameters; the bivariate ones
    cycle through a constant, a z-dependent and a vanishing low
    coefficient in w."""
    rng = np.random.default_rng(1000 + seed)
    c = rng.uniform(-1, 1, size=3) + 1j * rng.uniform(-1, 1, size=3)
    if kind == "node":
        return Node(c[0] if seed % 4 else 0.0, 0.3 * c[1], 0.3 * c[2])
    if kind == "ramified":
        return RamifiedCover(c[0])
    return BivariatePolynomial([
        ((2, 0, 1.0), (0, 3, -1.0), (1, 1, c[0])),
        ((1, 2, c[0]), (0, 1, c[1]), (3, 0, 1.0), (1, 3, 1.0)),
        ((2, 1, 1.0), (0, 2, c[2]), (1, 1, c[1])),
    ][seed % 3])


@pytest.mark.parametrize("kind", ["node", "ramified", "bivariate"])
def test_sample_sigma_matches_the_per_z_loop(kind):
    for seed in range(40):
        h = sigma_germ(kind, seed)
        window = [[-2, 2]] * 4
        want = reference_sigma(h, window, 40, seed)
        (got,) = sample_sigma(h, window, 40, seed=seed)
        assert got.shape == want.shape, seed
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["node", "ramified", "bivariate"])
def test_sample_sigma_returns_the_polished_roots(kind, monkeypatch):
    """Companion roots off by 1e-7 need Newton: every returned point must
    carry its polished w, not the raw eigenvalue."""
    window = [[-2, 2]] * 4
    germs = [sigma_germ(kind, seed) for seed in range(40)]
    wants = [reference_sigma(h, window, 40, seed)
             for seed, h in enumerate(germs)]
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda a: eigvals(a) * (1.0 + 1e-7))
    for seed, (h, want) in enumerate(zip(germs, wants)):
        (got,) = sample_sigma(h, window, 40, seed=seed)
        assert np.all(np.abs(h.value_at(got)) < SIGMA_RESIDUAL), seed
        assert got.shape == want.shape, seed
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-8)


# --------------------------------------------------------------------------
# fd


def smooth(p):
    """A smooth scalar with nonzero second and third derivatives."""
    p = np.asarray(p, dtype=float)
    return np.sin(p[..., 0]) * p[..., 1] ** 2 + np.exp(0.3 * p[..., -1])


def rotation(p):
    p = np.asarray(p, dtype=float)
    return np.stack([np.sin(p[..., 1]) * p[..., 2], p[..., 0] ** 3,
                     p[..., 0] * p[..., 1] * p[..., 2]], axis=-1)


@pytest.mark.parametrize("stencil", [fd_laplacian, fd_laplacian_order4,
                                     fd_jacobian])
def test_scalar_stencils(stencil):
    assert_batch_matches(lambda p: stencil(smooth, p, 1e-3), points(3))


@pytest.mark.parametrize("stencil", [fd_jacobian, fd_divergence,
                                     fd_curl_components])
def test_vector_stencils(stencil):
    assert_batch_matches(lambda p: stencil(rotation, p, 1e-4), points(3))


def one_offset_at_a_time(f, point, step):
    """Reference: every stencil, as a function of no arguments, with f
    called once per offset and axis, in the documented order of operations
    (weights left to right, /12 per axis before the axis sum, /step^2
    last)."""
    point = np.asarray(point, dtype=float)
    axes = step * np.eye(point.shape[-1])

    def g(m):
        return [np.asarray(f(point + m * e)) for e in axes]

    c = np.asarray(f(point))
    p2, p1, m1, m2 = g(2), g(1), g(-1), g(-2)
    jac = np.stack([(a - b) / (2.0 * step) for a, b in zip(p1, m1)], axis=-1)
    i, j = np.triu_indices(jac.shape[-1], 1)
    return {
        fd_laplacian: lambda: sum(a - 2.0 * c + b
                                  for a, b in zip(p1, m1)) / step**2,
        fd_laplacian_order4: lambda: sum(
            (-a2 + 16 * a1 - 30 * c + 16 * b1 - b2) / 12.0
            for a2, a1, b1, b2 in zip(p2, p1, m1, m2)) / step**2,
        fd_jacobian: lambda: jac,
        fd_divergence: lambda: np.trace(jac, axis1=-2, axis2=-1),
        fd_curl_components: lambda: (np.swapaxes(jac, -1, -2) - jac)[..., i, j],
    }


@pytest.mark.parametrize("f, stencils", [
    (smooth, [fd_laplacian, fd_laplacian_order4, fd_jacobian]),
    (rotation, [fd_laplacian, fd_laplacian_order4, fd_jacobian,
                fd_divergence, fd_curl_components]),
], ids=["scalar", "vector"])
@pytest.mark.parametrize("pts", [points(3)[0], points(3)], ids=["one", "many"])
def test_stencils_call_f_once(f, stencils, pts):
    reference = one_offset_at_a_time(f, pts, 1e-3)
    for stencil in stencils:
        calls = []

        def counted(p):
            calls.append(p.shape)
            return f(p)

        got = stencil(counted, pts, 1e-3)
        assert len(calls) == 1, stencil.__name__
        assert np.array_equal(got, reference[stencil]()), stencil.__name__


# --------------------------------------------------------------------------
# the stereographic chart of S^3


def hopf_real(y):
    return hopf_chart(stereo_embed(y))[..., 0]


@pytest.mark.parametrize("field", [hopf_real, smooth], ids=["hopf", "smooth"])
def test_stereographic_chart(field):
    pts = 0.4 * points(3, seed=5)
    assert_batch_matches(stereo_embed, pts)
    assert_batch_matches(
        lambda y: laplace_beltrami_residual(field, y, 1e-2), pts)


# --------------------------------------------------------------------------
# sun


def test_zonal_evaluations():
    pts = points(3, seed=4)
    for k in range(5):
        assert_batch_matches(lambda p: zonal(k, p), pts)
    p = ZonalPoly(((0, 2.0), (3, -0.5), (4, 1.1)))
    assert_batch_matches(p.value_3d, pts)
    merid = np.column_stack([np.abs(pts[:, 0]), pts[:, 1]])
    assert_batch_matches(lambda m: p.value(m[..., 0], m[..., 1]), merid)
    assert_batch_matches(lambda m: legendre_values(3, m[..., 1] / 2), merid)
    assert zonal(0, [0.0, 0.0, 0.0]) == 1.0 and zonal(2, [0.0] * 3) == 0.0


def test_cutoff_and_source():
    p = ZonalPoly(((0, 0.7), (4, -1.3)))
    merid = np.column_stack([np.linspace(0.5, 4.5, N), np.linspace(-3, 3, N)])
    rho = np.hypot(merid[:, 0], merid[:, 1])
    for order in (0, 1, 2):
        assert_batch_matches(lambda r: chi(r, order), rho)
    assert_batch_matches(lambda m: source_meridian(p, m[..., 0], m[..., 1]),
                         merid)
    assert isinstance(source_meridian(p, 3.5, 0.5), np.float64)


def test_evaluate_3d():
    pipe = SunPipeline(grid=DoubleCoverGrid(n=96, truncation=10.0))
    p = ZonalPoly.single(2)
    v = pipe.solve_for(p)
    pts = np.column_stack([np.linspace(1.2, 3.0, N), np.linspace(-0.4, 0.6, N),
                           np.linspace(0.3, -0.5, N)])
    for sheet in (+1, -1):
        assert_batch_matches(lambda x: pipe.evaluate_3d(x, v, p, sheet), pts)
    assert isinstance(pipe.evaluate_3d(pts[0], v, p), np.float64)
