"""Seeded job plans for the four benchmark workloads.

A plan is a list of rounds; a round is the fixed set of jobs one workload
repeats, so every run measures the same job mix whatever its length.  The
rounds together are the plan's *pass*: its distinct jobs, each with an
``id``.  A run always completes the pass and then repeats its rounds while
time remains, so the jobs attempted, and which of them fail, depend on the
seed alone, not on how fast the run went.  The benchmark seed chooses the
spec parameters and the ``--seed`` each job passes to ``z2forms verify``;
the program sees only the spec files and those seeds.
"""
from __future__ import annotations

import cmath
import math
import random

WORKLOADS = ("checks", "topology", "sun-1024", "sun-sweep")

#: spec variants drawn per descriptor kind; rounds cycle through them
VARIANTS = 8

#: rounds in a plan's pass; one pass takes well under half of run_seconds
#: (about 5, 14, 20 and 14 s), so a traced invocation completes it twice
PASS_ROUNDS = {"checks": 16, "topology": 4, "sun-1024": 2, "sun-sweep": 1}

CHECK_SUITES = ("harmonicity", "monodromy", "vanishing-order")

#: fibers of the topology workload, as (p, q)
FIBERS = ((1, 1), (2, 3), (3, 2), (2, 5))

#: sun-sweep grid strata: one grid per stratum, [lo, hi] inclusive.  Narrow
#: strata keep the per-round cost, and so the medians, steady across seeds;
#: no grid of one stratum is a refinement (2n - 1) of another.
SWEEP_STRATA = ((268, 276), (380, 388), (492, 500), (604, 612))

SUN_DEGREES = [0, 1, 2, 3, 4]


def _cx(z: complex) -> list[float]:
    return [round(z.real, 6), round(z.imag, 6)]


def _disc(rng: random.Random, radius: float) -> complex:
    return cmath.rect(radius * math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi))


def _separated_roots(rng: random.Random, count: int, radius: float,
                     min_gap: float) -> list[complex]:
    while True:
        roots = [_disc(rng, radius) for _ in range(count)]
        if all(abs(a - b) >= min_gap for i, a in enumerate(roots)
               for b in roots[i + 1:]):
            return roots


def _poly_from_roots(roots) -> list[complex]:
    """Ascending coefficients of prod (z - r)."""
    coeffs = [1.0 + 0.0j]
    for r in roots:
        shifted = [0.0j] + coeffs
        coeffs = [s - r * c for s, c in zip(shifted, coeffs + [0.0j])]
    return coeffs


#: line directions (a, b) of {a z + b w = 0}; a lines spec takes three
LINE_POOL = ([1, 0], [0, 1], [1, 1], [1, -1], [1, [0, 1]], [2, 1], [1, 2],
             [[0, 1], 1])


def check_specs(rng: random.Random) -> dict[str, dict]:
    """One spec of each descriptor kind the checks workload covers."""
    roots = _separated_roots(rng, 3, 1.0, 0.5)
    return {
        "node0": {"kind": "node", "a": 0,
                  "b": _cx(_disc(rng, 0.3)), "c": _cx(_disc(rng, 0.3))},
        "node": {"kind": "node",
                 "a": _cx(cmath.rect(rng.uniform(0.3, 1.0),
                                     rng.uniform(0, 2 * math.pi))),
                 "b": _cx(_disc(rng, 0.3)), "c": _cx(_disc(rng, 0.3))},
        "lines": {"kind": "lines", "lines": rng.sample(LINE_POOL, 3)},
        "ramified": {"kind": "ramified",
                     "a": _cx(cmath.rect(rng.uniform(0.5, 2.0),
                                         rng.uniform(0, 2 * math.pi)))},
        "bivariate": {"kind": "bivariate",
                      "terms": [[2, 0, 1], [0, 3, -1],
                                [1, 1, round(rng.uniform(-0.5, 0.5), 6)]]},
        "planar": {"kind": "planar",
                   "p": [_cx(c) for c in _poly_from_roots(roots)]},
        # the axial family keeps its default k = 1: its harmonicity suite
        # fails at some seeds (a known defect) and the failures must show
        "axial": {"kind": "axial"},
    }


def _job(spec: str, suite: str, seed: int, grid: int | None = None) -> dict:
    return {"spec": spec, "suite": suite, "seed": seed, "grid": grid}


def _job_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def plan(workload: str, seed: int) -> dict:
    """Specs (name -> JSON object) and rounds (lists of jobs) for a workload."""
    rng = random.Random(f"perfbench:{workload}:{seed}")
    n_rounds = PASS_ROUNDS[workload]
    specs: dict[str, dict] = {}
    rounds: list[list[dict]] = []
    if workload == "checks":
        for v in range(VARIANTS):
            for kind, spec in check_specs(rng).items():
                specs[f"{kind}-{v}"] = spec
        for r in range(n_rounds):
            v = r % VARIANTS
            rounds.append([
                _job(f"{kind}-{v}", suite, _job_seed(rng))
                for kind in ("node0", "node", "lines", "ramified",
                             "bivariate", "planar", "axial")
                for suite in CHECK_SUITES
                if not (kind == "axial" and suite == "monodromy")])
    elif workload == "topology":
        for v in range(VARIANTS):
            for p, q in FIBERS:
                # |base| log-uniform in [0.1, 3]: the region where both
                # fibers of the linking check stay well inside the chart
                base = cmath.rect(math.exp(rng.uniform(math.log(0.1), math.log(3.0))),
                                  rng.uniform(0, 2 * math.pi))
                specs[f"fiber{p}{q}-{v}"] = {"kind": "fiber", "p": p, "q": q,
                                             "base": _cx(base)}
        for r in range(n_rounds):
            v = r % VARIANTS
            rounds.append([_job(f"fiber{p}{q}-{v}", "topology", _job_seed(rng))
                           for p, q in FIBERS])
    elif workload == "sun-1024":
        specs["sun"] = {"kind": "sun", "degrees": SUN_DEGREES}
        rounds = [[_job("sun", "sun", _job_seed(rng), 1024)]
                  for _ in range(n_rounds)]
    elif workload == "sun-sweep":
        specs["sun"] = {"kind": "sun", "degrees": SUN_DEGREES}
        grids = [rng.randint(lo, hi) for lo, hi in SWEEP_STRATA]
        rounds = [[_job("sun", "sun", _job_seed(rng), g) for g in grids]
                  for _ in range(n_rounds)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for i, job in enumerate(job for rnd in rounds for job in rnd):
        job["id"] = i
    return {"workload": workload, "seed": seed, "specs": specs,
            "rounds": rounds}
