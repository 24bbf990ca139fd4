"""Named verification suites used by the command-line surface.

Each suite takes a normalized descriptor plus a seed and tolerance map and
returns a :class:`VerificationReport` whose checks re-measure the library's
claims with independent finite-difference / combinatorial oracles.
"""
from __future__ import annotations

import json
import math
from functools import cache

import numpy as np

from .branch import HalfPower, monodromy, monodromy_and_winding
from .defining import _finite, from_dict
from .errors import (EmptyIntersection, GridTooCoarse, NonFiniteResult,
                     SamplerExhausted, SchemaError)
from .fd import fd_laplacian, rms
from .forms import AxialForm, PlanarForm, ReHPowerForm, sample_sigma, vanishing_order
from .morphisms import (core_fiber, covering_degree, fiber, fiber_windings,
                        gauss_linking, polygon_linking, project_curves)
from .paths import Polyline, circle
from .report import Check, VerificationReport, jsonable
from .sun import (CUTOFF_PROFILES, MAX_GRID, MAX_ZONAL_DEGREE, Cutoff,
                  DoubleCoverGrid, SunPipeline, ZonalPoly, manufactured_error,
                  min_ring_grid)

#: descriptor kinds that carry a defining function (see ``from_dict``)
GERM_KINDS = ("lines", "node", "ramified", "bivariate", "planar")

#: descriptor kinds that build a form (see ``_form_from``)
FORM_KINDS = GERM_KINDS + ("axial",)

#: rejection-sampler budget: draws allowed per requested point
SAMPLER_DRAWS_PER_POINT = 100

#: multiple of eps * rms f / step^2 below which a harmonicity residual is
#: round-off: fine * step^2 / (rms f * eps) measured 0.41-2.2 over seeds
#: 0-39 where f is a harmonic polynomial (h = z^2 bivariate, planar z^2
#: and z^4), and at least 8.1e4 for every catalogue form (axial k = 2 the
#: least; 9.6e5 at seed 0 for the k = 1 forms)
ROUNDOFF_FLOOR = 64.0

#: most harmonicity points a run may ask for: at the cap a harmonicity job
#: took 0.02-0.04 s per form kind, and a spec whose sampler rejects every
#: draw gave up after its 1M draws in 0.14 s (2-core host)
MAX_POINTS = 10_000

#: largest half-power index k of a form spec: every form kind passed the
#: check suites at k <= 24 (seeds 0-2); at k = 40 h^k wrote NaN to reports
MAX_HALF_POWER = 24

#: distance from p * q within which the exact polygon linking number of a
#: fiber pair counts as that integer; its round-off measured below 1e-12
#: for every fiber tried, up to p * q = 132
EXACT_LINKING_TOL = 1e-6


# --------------------------------------------------------------------------
# descriptors


def normalize_descriptor(spec: dict, path: str = "$") -> dict:
    """Validate a JSON construction spec and echo it with defaults filled."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise SchemaError(path, "expected an object with a 'kind' field")
    kind = spec["kind"]
    if kind in FORM_KINDS:
        out = (from_dict(spec, path).to_dict() if kind in GERM_KINDS
               else {"kind": kind})
        out["k"] = _finite(spec.get("k", 1), f"{path}.k", integer=True, lo=1,
                           hi=MAX_HALF_POWER)
        return out
    if kind == "fiber":
        p = _finite(spec.get("p", 1), f"{path}.p", integer=True, lo=1)
        q = _finite(spec.get("q", 1), f"{path}.q", integer=True, lo=1)
        if math.gcd(p, q) != 1:
            raise SchemaError(f"{path}.p",
                              f"need coprime (p, q), got ({p}, {q})")
        base = spec.get("base", [0.7, 0.2])
        if not (isinstance(base, (list, tuple)) and len(base) == 2):
            raise SchemaError(f"{path}.base", "expected [re, im]")
        return {"kind": "fiber", "p": p, "q": q,
                "base": [_finite(v, f"{path}.base[{i}]")
                         for i, v in enumerate(base)]}
    if kind == "sun":
        return _normalize_sun(spec, path)
    raise SchemaError(f"{path}.kind", f"unknown descriptor kind {kind!r}")


def _normalize_sun(spec: dict, path: str) -> dict:
    degrees = spec.get("degrees", [0, 1, 2, 3, 4])
    if not isinstance(degrees, list) or not degrees:
        raise SchemaError(f"{path}.degrees", "expected a non-empty list")
    degrees = [_finite(k, f"{path}.degrees[{i}]", integer=True, lo=0,
                       hi=MAX_ZONAL_DEGREE) for i, k in enumerate(degrees)]
    for i, k in enumerate(degrees):
        if k in degrees[:i]:
            raise SchemaError(f"{path}.degrees[{i}]",
                              f"zonal degree {k} repeated")
    cutoff = spec.get("cutoff", "quintic")
    if cutoff not in CUTOFF_PROFILES:
        raise SchemaError(f"{path}.cutoff", f"unknown cutoff {cutoff!r}")
    out = {"kind": "sun", "degrees": degrees, "cutoff": cutoff,
           "grid": _finite(spec.get("grid", 512), f"{path}.grid", integer=True,
                           lo=64, hi=MAX_GRID)}
    for key, default in (("truncation", 20.0), ("r1", 3.0), ("r2", 5.0)):
        out[key] = _finite(spec.get(key, default), f"{path}.{key}")
    if not out["r1"] > 1.0:
        raise SchemaError(f"{path}.r1", "need r1 > 1 (the circle has rho = 1)")
    if not out["r2"] > out["r1"]:
        raise SchemaError(f"{path}.r2", f"need r2 > r1 = {out['r1']}")
    if not out["truncation"] > out["r2"]:
        raise SchemaError(f"{path}.truncation",
                          f"need truncation > r2 = {out['r2']}")
    return out


def _form_from(descriptor: dict):
    k = HalfPower(descriptor["k"])
    if descriptor["kind"] == "axial":
        return AxialForm(k)
    h = from_dict(descriptor)
    if descriptor["kind"] == "planar":
        return PlanarForm(h)
    return ReHPowerForm(h, k)


def _sun_pipeline(descriptor: dict) -> SunPipeline:
    return SunPipeline(
        grid=DoubleCoverGrid(n=descriptor["grid"],
                             truncation=descriptor["truncation"]),
        cutoff=Cutoff(r1=descriptor["r1"], r2=descriptor["r2"],
                      kind=descriptor["cutoff"]))


# --------------------------------------------------------------------------
# seeded sampling


def _points_off_locus(form, count: int, seed: int) -> np.ndarray:
    """``count`` seeded points (count, dim) of the cube [-2, 2]^dim at least
    about 0.1 from the form's branching locus, by bounded rejection
    sampling.  Draws come in blocks, which give the same stream as one draw
    at a time: the same points, and the same draw count at the budget."""
    rng = np.random.default_rng(seed)
    budget = SAMPLER_DRAWS_PER_POINT * count
    blocks = []
    found = draws = 0
    while found < count:
        if draws == budget:
            raise SamplerExhausted(
                f"{found} of {count} points off the locus after {draws} "
                f"draws ({draws - found} rejected, min_dist 0.1)")
        block = rng.uniform(-2.0, 2.0, size=(
            min(budget - draws, 2 * (count - found) + 16), form.dimension))
        kept = block[form.h.sigma_distance_bound(block) > 0.1][:count - found]
        blocks.append(kept)
        found += len(kept)
        draws += len(block)
    return np.concatenate(blocks)


# --------------------------------------------------------------------------
# harmonicity


def run_harmonicity(descriptor: dict, seed: int, tol: dict) -> list[Check]:
    """Richardson ratio of the FD Laplacian of ``f_near`` over seeded points,
    one check per component of the harmonic function.

    Where f is itself a low-degree polynomial the FD residual is round-off,
    which has no Richardson ratio; a residual below ``ROUNDOFF_FLOOR``
    eps * rms f / step^2 passes, with that floor in the details."""
    lo, hi = tol["ratio_lo"], tol["ratio_hi"]
    count = _finite(tol["points"], "$.tol.points", integer=True, lo=1,
                    hi=MAX_POINTS)
    form = _form_from(descriptor)
    steps = (1e-2, 5e-3)
    pts = _points_off_locus(form, count, seed)
    # one function for all centers: each stencil point is continued from
    # its own center, every stencil offset in one array walk
    f = form.f_near(form.state_at(pts))
    residuals = np.stack([fd_laplacian(f, pts, s) for s in steps]) \
        .reshape(len(steps), count, -1)  # steps x points x components
    n_comp = residuals.shape[2]
    checks = []
    for comp in range(n_comp):
        fine = rms(residuals[1, :, comp])
        if fine == 0.0:
            raise SchemaError("$", "FD Laplacian residual is exactly zero "
                                   "(a constant germ): no ratio to check")
        ratio = rms(residuals[0, :, comp]) / fine
        details = {"points": count, "ratio": ratio, "steps": list(steps)}
        ok = lo < ratio < hi
        if not ok:
            rms_f = rms(f(pts).reshape(count, -1)[:, comp])
            floor = ROUNDOFF_FLOOR * np.finfo(float).eps * rms_f / steps[1]**2
            details.update(residual=fine, roundoff_floor=floor)
            ok = fine < floor
        name = ("harmonicity.richardson_ratio" if n_comp == 1 else
                f"harmonicity.component[{comp}].richardson_ratio")
        checks.append(Check(name, ok, {"ratio_lo": lo, "ratio_hi": hi}, details))
    return checks


# --------------------------------------------------------------------------
# monodromy


def _cluster_roots(roots):
    """Group numerically coincident roots; returns [(center, multiplicity)]."""
    clusters: list[list[complex]] = []
    for r in sorted(roots, key=lambda v: (v.real, v.imag)):
        for c in clusters:
            if abs(r - np.mean(c)) < 1e-6:
                c.append(r)
                break
        else:
            clusters.append([r])
    return [(complex(np.mean(c)), len(c)) for c in clusters]


def _meridian_loops(kind: str, h):
    """Small loops around branching-set meridians with expected signs.

    For bivariate kinds, loops run in the w-plane around the roots of
    h(z0, .) at a generic z0 (plus z-plane loops for components on which w
    is unconstrained); expected sign is (-1)^multiplicity.
    """
    loops = []

    def w_loop(z0, center, radius, label):
        return (circle([z0.real, z0.imag, center.real, center.imag], radius,
                       n=64, plane=(2, 3)), label)

    def z_loop(w0, center, radius, label):
        return (circle([center.real, center.imag, w0.real, w0.imag], radius,
                       n=64, plane=(0, 1)), label)

    if kind == "planar":
        roots = h.roots()
        for center, mult in _cluster_roots(roots):
            radius = _clearance(center, roots)
            loops.append((circle([center.real, center.imag], radius, n=64),
                          f"planar root {center:.3g}", (-1) ** mult))
        return loops

    z0 = 1.1 + 0.0j
    coeffs = h.w_poly_coeffs(z0)
    roots = np.roots(list(reversed(coeffs))) if len(coeffs) > 1 else []
    for center, mult in _cluster_roots(roots):
        loop, label = w_loop(z0, center, _clearance(center, roots),
                             f"w-meridian at z={z0:.3g}, w={center:.3g}")
        loops.append((loop, label, (-1) ** mult))
    if kind == "lines":
        # lines with b = 0 are all {z = 0}, invisible to the w-poly: one
        # meridian, clear of the other lines {z = -b w / a} at w = 1
        mult = sum(b == 0 for _, b in h.lines)
        if mult:
            center = 0.0 + 0.0j
            others = [-b / a for a, b in h.lines if a != 0 and b != 0]
            loop, label = z_loop(1.0 + 0.0j, center, _clearance(center, others),
                                 f"z-meridian at w=1, z={center:.3g}")
            loops.append((loop, label, (-1) ** mult))
    if kind == "node" and h.a == 0:
        # a = 0 factors as (z - b)(w - c); add the {z = b} meridian
        loop, label = z_loop(h.c + 1.0, h.b, 0.3,
                             f"z-meridian around z={h.b:.3g}")
        loops.append((loop, label, -1))
    return loops


def _clearance(center, roots):
    others = [abs(center - r) for r in roots if abs(center - r) > 1e-6]
    return min(0.3, 0.45 * min(others)) if others else 0.3


def run_monodromy(descriptor: dict, seed: int, tol: dict) -> list[Check]:
    h = from_dict(descriptor)
    checks = []
    for loop, label, expected in _meridian_loops(descriptor["kind"], h):
        sign, wind = monodromy_and_winding(h, loop)
        refined = monodromy(h, loop.refined(2))
        ok = (sign == expected and refined == sign
              and (-1) ** wind == sign)
        checks.append(Check(
            f"monodromy[{label}]", ok, {},
            {"sign": sign, "expected": expected, "winding": wind,
             "sign_refined": refined}))
    if not checks:
        raise EmptyIntersection("no meridian loops found for this descriptor")
    return checks


# --------------------------------------------------------------------------
# vanishing order


def run_vanishing_order(descriptor: dict, seed: int, tol: dict) -> list[Check]:
    band = tol["slope_tol"]
    kind = descriptor["kind"]
    form = _form_from(descriptor)
    checks = []
    if kind == "axial":
        for base, want, label in (([0, 0, 0], descriptor["k"] + 0.5, "origin"),
                                  ([0, 0, 1], descriptor["k"] - 0.5, "axis point")):
            slope = vanishing_order(form.magnitude, base, [1, 0, 0])
            checks.append(Check(
                f"vanishing-order[{label}]", abs(slope - want) < band,
                {"slope_tol": band}, {"slope": slope, "expected": want}))
        return checks
    if kind == "planar":
        clusters = _cluster_roots(form.h.roots())
        simple = [c for c, m in clusters if m == 1]
        for root in simple[:3]:
            # the fit window ends a tenth of the way to the nearest other
            # root, where |omega| stops looking like |z - root|^(1/2)
            gap = min((abs(root - c) for c, _ in clusters if c != root),
                      default=math.inf)
            r_hi = min(0.1, gap / 10)
            slope = vanishing_order(form.magnitude, [root.real, root.imag],
                                    [1, 0], r_lo=r_hi / 100, r_hi=r_hi)
            checks.append(Check(
                f"vanishing-order[root {root:.3g}]", abs(slope - 0.5) < band,
                {"slope_tol": band}, {"slope": slope, "expected": 0.5}))
        if not checks:
            raise EmptyIntersection("no simple roots to probe")
        return checks
    h = form.h
    clouds = sample_sigma(h, [[-2, 2]] * 4, 40, seed=seed)
    rng = np.random.default_rng(seed)
    probed = 0
    for cloud in clouds:
        base = cloud[rng.integers(len(cloud))]
        hz, hw = h.partials_at(base)
        grad = np.array([hz.real, -hz.imag, hw.real, -hw.imag])
        norm = np.linalg.norm(grad)
        if norm < 1e-6:
            continue  # non-smooth point of the branching set
        slope = vanishing_order(form.magnitude, base, grad / norm,
                                r_lo=1e-4, r_hi=1e-2)
        want = (2 * descriptor["k"] - 1) / 2.0
        checks.append(Check(
            f"vanishing-order[component {probed}]", abs(slope - want) < band,
            {"slope_tol": band}, {"slope": slope, "expected": want,
                                  "base": list(base)}))
        probed += 1
    if not checks:
        raise EmptyIntersection("no smooth branching-set points sampled")
    return checks


# --------------------------------------------------------------------------
# topology


def run_topology(descriptor: dict, seed: int, tol: dict) -> list[Check]:
    p, q = descriptor["p"], descriptor["q"]
    base = complex(*descriptor["base"])
    other = -2.0 * base  # base 0 is a singular fiber: fiber() raises
    band = tol["linking_tol"]
    if band is None:
        band = 0.05 if p * q == 1 else 0.1
    checks = []

    # one projection serves both oracles: the float Gauss sum on the
    # 1024-vertex polygons and the exact linking of every 4th vertex
    f1 = fiber(p, q, base, n=1024)
    a, b = project_curves([f1, fiber(p, q, other, n=1024)], seed=seed)
    lk = gauss_linking(a, b)
    exact = polygon_linking(Polyline(a.points[::4], closed=True),
                            Polyline(b.points[::4], closed=True))
    ok = (abs(abs(exact) - p * q) < EXACT_LINKING_TOL
          and abs(abs(lk) - p * q) < band)
    # linking_fine repeats the exact value, the limit of the float sum
    # under refinement, under the key perfbench's margin rule reads
    checks.append(Check(
        "topology.fiber_linking", ok, {"linking_tol": band},
        {"expected": p * q, "linking": lk, "linking_exact": exact,
         "linking_fine": exact}))

    wind = fiber_windings(f1)
    checks.append(Check(
        "topology.windings", wind == (q, p), {},
        {"windings": list(wind), "expected": [q, p]}))

    # the fiber on the torus |z1| = c1, |z2| = c2 lies c2 from the core
    # {z2 = 0} whatever (p, q) is
    c2 = 0.1
    c1 = math.sqrt(1.0 - c2**2)
    deg = covering_degree(fiber(p, q, c1**p / c2**q + 0j, n=2048),
                          core_fiber(0, n=1024))
    checks.append(Check(
        "topology.covering_degree", deg == q, {},
        {"degree": deg, "expected": q}))
    return checks


# --------------------------------------------------------------------------
# sun


@cache
def _manufactured_pair() -> tuple[float, float]:
    """RMS manufactured-solution errors at n = 160 and n = 320.

    They read no descriptor, seed or tolerance, so a process that runs
    several sun jobs builds and factors these two grids once.
    """
    return (rms(manufactured_error(DoubleCoverGrid(n=160))),
            rms(manufactured_error(DoubleCoverGrid(n=320))))


def run_sun(descriptor: dict, seed: int, tol: dict) -> list[Check]:
    if len(descriptor["degrees"]) < 3:
        raise SchemaError("$.degrees", "the sun suite needs at least 3 "
                          f"polynomial degrees, got {descriptor['degrees']}")
    pipe = _sun_pipeline(descriptor)
    try:
        pipe.grid.ring_window()
    except GridTooCoarse as exc:
        raise SchemaError("$.grid", f"{exc}: at truncation "
                          f"{descriptor['truncation']} the sun suite needs grid "
                          f">= {min_ring_grid(descriptor['truncation'])}") from exc
    checks = []

    coarse, fine = _manufactured_pair()
    order = float(np.log2(coarse / fine))
    min_order = tol["min_order"]
    checks.append(Check(
        "sun.manufactured_order", order >= min_order,
        {"min_order": min_order},
        {"order": order, "rms_coarse": coarse, "rms_fine": fine}))

    out = pipe.run(descriptor["degrees"])
    min_reduction = tol["min_reduction"]
    checks.append(Check(
        "sun.null_combination_reduction", out["reduction"] >= min_reduction,
        {"min_reduction": min_reduction},
        {"reduction": out["reduction"], "a1_matrix": out["a1_matrix"],
         "null_vector": out["null_vector"],
         "fit_rel_residual": out["fit_rel_residual"],
         "lu_nnz": out["lu_nnz"]}))

    min_slope = tol["min_slope"]
    checks.append(Check(
        "sun.decay_slope", out["decay_slope"] >= min_slope,
        {"min_slope": min_slope}, {"slope": out["decay_slope"]}))

    k0, k1 = descriptor["degrees"][0], descriptor["degrees"][-1]
    mixed, _ = pipe.a1_of(pipe.solve_for(ZonalPoly(((k0, 0.7), (k1, -1.3)))))
    want = 0.7 * out["a1_matrix"][:, 0] - 1.3 * out["a1_matrix"][:, -1]
    lin = float(np.linalg.norm(mixed - want) / max(np.linalg.norm(want), 1e-300))
    lin_tol = tol["linearity_tol"]
    checks.append(Check(
        "sun.superposition_linearity", lin <= lin_tol,
        {"linearity_tol": lin_tol}, {"relative_error": lin}))
    return checks


# --------------------------------------------------------------------------
# dispatch


#: suite -> (runner, descriptor kinds it takes, tolerance defaults); the
#: defaults name every tolerance the suite reads.  Topology's linking_tol
#: defaults by fiber: 0.05 when p * q = 1, else 0.1; it bounds the float
#: Gauss oracle only, the exact linking number must be within
#: EXACT_LINKING_TOL of p * q.
SUITES = {
    "harmonicity": (run_harmonicity, FORM_KINDS,
                    {"ratio_lo": 3.4, "ratio_hi": 4.6, "points": 200}),
    "monodromy": (run_monodromy, GERM_KINDS, {}),
    "vanishing-order": (run_vanishing_order, FORM_KINDS, {"slope_tol": 0.05}),
    "topology": (run_topology, ("fiber",), {"linking_tol": None}),
    "sun": (run_sun, ("sun",), {"min_order": 1.8, "min_reduction": 10.0,
                                "min_slope": 1.4, "linearity_tol": 1e-4}),
}


def run_suite(suite: str, descriptor: dict, seed: int = 0,
              tolerances: dict | None = None) -> VerificationReport:
    if suite not in SUITES:
        raise SchemaError("$.suite", f"unknown suite {suite!r}; "
                                     f"expected one of {', '.join(SUITES)}")
    runner, kinds, defaults = SUITES[suite]
    tolerances = tolerances or {}
    for name, value in tolerances.items():
        if name not in defaults:
            raise SchemaError(f"$.tol.{name}", f"suite {suite!r} reads no "
                              f"tolerance {name!r}; it accepts: "
                              f"{', '.join(defaults) or 'none'}")
        _finite(value, f"$.tol.{name}")
    if descriptor["kind"] not in kinds:
        raise SchemaError("$.kind", f"suite {suite!r} does not apply to "
                          f"{descriptor['kind']!r}; it takes: {', '.join(kinds)}")
    checks = runner(descriptor, seed, {**defaults, **tolerances})
    # a report is strict JSON: a NaN or infinite measurement is an error,
    # not a check result
    for check in checks:
        for key, value in check.details.items():
            try:
                json.dumps(jsonable(value), allow_nan=False)
            except ValueError:
                raise NonFiniteResult(f"check {check.name}: details.{key} "
                                      "is not finite") from None
    return VerificationReport(suite=suite, descriptor=descriptor, seed=seed,
                              checks=checks)
