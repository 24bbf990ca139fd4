"""Acceptance gate: the nine headline checks at their pinned tolerances.

Each test emits exactly one [PASS]/[FAIL] line (written past pytest's
capture so the gate is readable in plain runs) and then asserts.
"""
import time

import numpy as np
import pytest

from z2forms.branch import HalfPower, principal_state
from z2forms.defining import Node, ProductOfLines, RamifiedCover, from_dict
from z2forms.fd import fd_jacobian
from z2forms.forms import (AxialForm, ReHPowerForm, hausdorff_distance,
                           sample_lines_on_sphere)
from z2forms.morphisms import (core_fiber, covering_degree, fiber,
                               fiber_windings, hopf_chart,
                               laplace_beltrami_residual, lb_cross_oracle,
                               linking_on_sphere, stereo_embed)
from z2forms.suites import (_job_grid, _points_off_locus, normalize_descriptor,
                            run_suite)
from z2forms.sun import DoubleCoverGrid, SunPipeline, ZonalPoly

THREE_LINES = {"kind": "lines", "lines": [[1, 0], [0, 1], [1, 1]]}

CATALOGUE = [
    {"kind": "node", "a": 0, "b": 0, "c": 0},
    {"kind": "node", "a": 1, "b": 0, "c": 0},
    THREE_LINES,
    {"kind": "ramified", "a": 1},
]


@pytest.fixture(autouse=True)
def _gate_printer(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield


def gate(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    with _CAPSYS.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_1_harmonicity():
    ratios = {}
    for spec in CATALOGUE + [{"kind": "axial"},
                             {"kind": "planar", "p": [1.0, 0.5, 1.0]}]:
        d = normalize_descriptor(spec)
        for check in run_suite("harmonicity", d, seed=0).checks:
            ratios[f"{spec['kind']}:{check.name}"] = check.details["ratio"]
    ok = all(3.4 < r < 4.6 for r in ratios.values())
    worst = max(ratios.values(), key=lambda r: abs(r - 4.0))
    gate("harmonicity Richardson ratio in [3.4, 4.6]", ok,
         f"{len(ratios)} families, worst ratio {worst:.3f}")


def test_criterion_2_gradient_consistency():
    worst = 0.0
    for spec in CATALOGUE:
        form = ReHPowerForm(from_dict(spec))
        for pt in _points_off_locus(form, 200, seed=23):
            st = principal_state(form.h, pt)
            om = form.eval_omega(st)
            grad = fd_jacobian(form.f_near(st), pt, 1e-3)
            worst = max(worst, np.linalg.norm(om - grad)
                        / max(np.linalg.norm(om), 1e-300))
    gate("gradient consistency <= 1e-4 at step 1e-3", worst <= 1e-4,
         f"4 families x 200 points, max relative error {worst:.2e}")


def test_criterion_3_monodromy():
    checks = []
    for spec in ({"kind": "node", "a": 0, "b": 0, "c": 0},
                 {"kind": "ramified", "a": 1},
                 {"kind": "planar", "p": [-0.7, 1.0]},
                 {"kind": "bivariate", "terms": [[2, 2, 1.0]]}):
        checks += run_suite("monodromy", normalize_descriptor(spec)).checks
    signs = [c.details["sign"] for c in checks]
    ok = all(c.passed for c in checks)
    gate("monodromy signs, refinement stability, winding agreement",
         ok, f"{len(checks)} meridians, signs {signs}")


def test_criterion_4_vanishing_orders():
    checks = []
    for spec in CATALOGUE + [{"kind": "planar", "p": [-0.7, 1.0]},
                             {"kind": "axial"}]:
        checks += run_suite("vanishing-order", normalize_descriptor(spec),
                            seed=5, tolerances={"slope_tol": 0.05}).checks
    ok = all(c.passed for c in checks)
    worst = max(abs(c.details["slope"] - c.details["expected"])
                for c in checks)
    gate("vanishing orders 0.50 / 1.50 within 0.05", ok,
         f"{len(checks)} probes, worst slope deviation {worst:.4f}")


def test_criterion_5_tangent_cones():
    lines = ProductOfLines(((1, 0), (0, 1), (1, 1)))
    base = sample_lines_on_sphere(lines, 1.0)
    dist = max(hausdorff_distance(sample_lines_on_sphere(lines, r) / r, base)
               for r in (1e-2, 1e-1))
    form = ReHPowerForm(lines)
    x = np.array([0.9, 0.1, 0.4, -0.2])
    fx = abs(form.eval_f(principal_state(lines, x)))
    homog = max(
        abs(np.log(abs(form.eval_f(principal_state(lines, lam * x))))
            - np.log(fx) - 4.5 * np.log(lam))
        for lam in (1e-2, 1e-1))
    ok = dist < 1e-9 and homog < 1e-8
    gate("tangent cones: scale invariance and (3J/2) log-homogeneity", ok,
         f"Hausdorff {dist:.1e}, homogeneity defect {homog:.1e}")


def test_criterion_6_topology():
    lk_hopf = abs(linking_on_sphere(fiber(1, 1, 0.5 + 0.2j, n=1024),
                                    fiber(1, 1, -2.0 + 1.0j, n=1024)))
    lk23 = {n: abs(linking_on_sphere(fiber(2, 3, 0.8 + 0.1j, n=n),
                                     fiber(2, 3, -3.0 + 2.0j, n=n)))
            for n in (1024, 2048)}
    degrees, windings = {}, {}
    for p, q in ((2, 3), (3, 2), (1, 1)):
        degrees[(p, q)] = covering_degree(fiber(p, q, 5e3 + 0j, n=2048),
                                          core_fiber(0, n=1024))
        windings[(p, q)] = fiber_windings(fiber(p, q, 0.8 + 0.1j, n=1024))
    # the exact polygon linking numbers, read from the suite's reports
    reports = {pq: run_suite("topology", normalize_descriptor(
                   {"kind": "fiber", "p": pq[0], "q": pq[1], "base": base}))
               for pq, base in (((1, 1), [0.5, 0.2]), ((2, 3), [0.8, 0.1]))}
    exact = {pq: next(c for c in r.checks if c.name == "topology.fiber_linking")
             .details["linking_exact"] for pq, r in reports.items()}
    ok = (abs(lk_hopf - 1) < 0.05
          and all(abs(v - 6) < 0.1 for v in lk23.values())
          and abs(lk23[1024] - lk23[2048]) < 0.05
          and all(degrees[pq] == pq[1] for pq in degrees)
          and all(windings[pq] == (pq[1], pq[0]) for pq in windings)
          and all(r.passed for r in reports.values())
          and all(abs(abs(v) - pq[0] * pq[1]) < 1e-6 for pq, v in exact.items()))
    gate("topology: Hopf +-1, pi_{2,3} +-6, covering = q, winding (q, p)",
         ok, f"hopf {lk_hopf:.4f}, pq {lk23[1024]:.4f}/{lk23[2048]:.4f}, "
             f"exact {exact[(1, 1)]:+.9f}/{exact[(2, 3)]:+.9f}, "
             f"degrees {list(degrees.values())}")


def test_criterion_7_harmonic_morphism():
    harmonics = [lambda v: v.real, lambda v: v.imag,
                 lambda v: (v * v).real, lambda v: (v * v).imag,
                 lambda v: (v ** 3).real]
    y0 = np.array([0.4, -0.3, 0.25])
    ratios = []
    for harm in harmonics:
        def field(y, harm=harm):
            zeta = hopf_chart(stereo_embed(y))
            return harm(zeta[..., 0] + 1j * zeta[..., 1])

        r1 = laplace_beltrami_residual(field, y0, step=2e-2)
        r2 = laplace_beltrami_residual(field, y0, step=1e-2)
        ratios.append(r1 / r2)
    cross = []
    for fld in (lambda x: x[..., 0] ** 2 * x[..., 1] + x[..., 2] * x[..., 3]
                + 0.3 * x[..., 1] ** 3,
                lambda x: x[..., 0] ** 4 - x[..., 3] ** 2 * x[..., 1]
                + x[..., 2],
                lambda x: np.sin(x[..., 0]) * x[..., 1] + x[..., 2] ** 3):
        x0 = np.array([0.5, -0.2, 0.6, 0.1])
        x0 /= np.linalg.norm(x0)
        a, b = lb_cross_oracle(fld, x0)
        cross.append(abs(a - b) / max(abs(a), abs(b)))
    ok = all(3.4 < r < 4.6 for r in ratios) and max(cross) <= 1e-6
    gate("harmonic morphism: order-2 residual decay, cross-oracle <= 1e-6",
         ok, f"ratios {[f'{r:.2f}' for r in ratios]}, "
             f"cross-oracle {max(cross):.1e}")


def test_criterion_8_sun_pipeline():
    # the stage times a job that builds and factors its grid
    _job_grid.cache_clear()
    t0 = time.monotonic()
    report = run_suite("sun", normalize_descriptor({"kind": "sun",
                                                    "grid": 512}))
    details = {c.name: c.details for c in report.checks}
    order = details["sun.manufactured_order"]["order"]
    lin = details["sun.superposition_linearity"]["relative_error"]
    reduction = details["sun.null_combination_reduction"]["reduction"]
    slope = details["sun.decay_slope"]["slope"]
    elapsed = time.monotonic() - t0

    # A1+ of zonal degree 2, the third of the default degrees 0..4
    a512 = details["sun.null_combination_reduction"]["a1_matrix"][0, 2]
    fine_pipe = SunPipeline(grid=DoubleCoverGrid(n=1024))
    a1024 = fine_pipe.a1_of(fine_pipe.solve_for(ZonalPoly.single(2)))[0][0]
    res_shift = abs(a1024 - a512) / abs(a1024)

    # doubling the truncation radius at matched grid step
    trunc_pipe = SunPipeline(grid=DoubleCoverGrid(n=716, truncation=40.0))
    a40 = trunc_pipe.a1_of(trunc_pipe.solve_for(ZonalPoly.single(2)))[0][0]
    trunc_shift = abs(a40 - a512) / abs(a512)

    ok = (1.8 <= order <= 2.2 and lin <= 1e-4 and res_shift <= 0.02
          and trunc_shift <= 0.02 and reduction >= 10.0 and slope >= 1.4
          and elapsed <= 300.0)
    gate("sun pipeline: order/linearity/stability/null-direction/runtime",
         ok, f"order {order:.2f}, linearity {lin:.1e}, resolution shift "
             f"{res_shift:.3%}, truncation shift {trunc_shift:.3%}, "
             f"reduction {reduction:.1e}, slope {slope:.2f}, "
             f"512^2 stage {elapsed:.2f}s")


def test_criterion_9_determinism():
    # the sun pair's first run builds and factors its grid, and the second
    # reuses it from the job-grid cache
    _job_grid.cache_clear()
    reports = []
    for spec, suite in (({"kind": "node", "a": 0, "b": 0, "c": 0},
                         "monodromy"),
                        ({"kind": "node", "a": 1, "b": 0, "c": 0},
                         "vanishing-order"),
                        ({"kind": "sun", "grid": 160}, "sun")):
        d = normalize_descriptor(spec)
        pair = [run_suite(suite, d, seed=42).to_json() for _ in range(2)]
        reports.append(pair[0] == pair[1] and "passed" in pair[0])
    gate("determinism: byte-identical reports under a fixed seed",
         all(reports), f"{len(reports)} suites compared byte-for-byte")
