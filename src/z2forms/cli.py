"""Command-line surface: construct descriptors, run suites, export artifacts.

Exit codes: 0 success / all checks passed, 1 at least one check failed,
2 schema or I/O error.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .defining import _finite, from_dict
from .errors import SchemaError, Z2FormsError
from .forms import sample_sigma
from .morphisms import fiber, project_curves
from .report import jsonable
from .suites import (GERM_KINDS, SUITES, _sun_pipeline, normalize_descriptor,
                     run_suite)
from .sun import ZonalPoly

#: most vertices a fiber export may ask for: the OBJ text grows with n; at
#: the cap the export took 0.8 s at an 89 MB peak RSS (2-core host)
MAX_RESOLUTION = 16384


def _load_spec(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError("$", f"cannot read spec {path!r}: {exc}") from exc


def _load_descriptor(args) -> dict:
    """Check ``--seed`` and normalize the spec, with ``--grid`` overriding a
    sun spec's grid."""
    _finite(args.seed, "$.seed", integer=True, lo=0)
    spec = _load_spec(args.spec)
    if args.grid is not None:
        if not isinstance(spec, dict) or spec.get("kind") != "sun":
            raise SchemaError("$.grid", "--grid applies only to a sun spec")
        spec = {**spec, "grid": args.grid}
    return normalize_descriptor(spec)


def _write(out: Path, name: str, text: str) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text)


def _parse_tols(pairs: list[str]) -> dict:
    out = {}
    for item in pairs:
        name, _, value = item.partition("=")
        if not name or not value:
            raise SchemaError("$.tol", f"expected name=value, got {item!r}")
        try:
            out[name] = float(value)
        except ValueError as exc:
            raise SchemaError("$.tol", f"bad tolerance value in {item!r}") from exc
    return out


def cmd_construct(args) -> int:
    descriptor = normalize_descriptor(_load_spec(args.spec))
    text = json.dumps(jsonable(descriptor), sort_keys=True, indent=2) + "\n"
    if args.out:
        _write(Path(args.out), "descriptor.json", text)
    sys.stdout.write(text)
    return 0


def cmd_verify(args) -> int:
    descriptor = _load_descriptor(args)
    report = run_suite(args.suite, descriptor, seed=args.seed,
                       tolerances=_parse_tols(args.tol))
    for check in report.checks:
        print(check.summary_line())
    if args.out:
        _write(Path(args.out), f"report-{args.suite}.json", report.to_json())
    if not report.passed:
        failed = report.first_failure()
        print(f"first failing check: {failed.name}", file=sys.stderr)
        return 1
    return 0


def _export_sigma(descriptor: dict, out: Path, seed: int, resolution) -> None:
    h = from_dict(descriptor)
    clouds = sample_sigma(h, [[-2, 2]] * (2 * h.arity), 200, seed=seed)
    rows = np.vstack(clouds)
    header = ",".join(f"x{i}" for i in range(rows.shape[1]))
    lines = [header] + [",".join(repr(float(v)) for v in row) for row in rows]
    _write(out, "sigma.csv", "\n".join(lines) + "\n")


def _export_fiber(descriptor: dict, out: Path, seed: int, resolution) -> None:
    n = _finite(1024 if resolution is None else resolution, "$.resolution",
                integer=True, lo=3, hi=MAX_RESOLUTION)
    fb = fiber(descriptor["p"], descriptor["q"],
               complex(*descriptor["base"]), n=n)
    # stereographic projection from a pole away from the curve gives a
    # closed polyline in R^3, which is what OBJ viewers expect
    pts = project_curves([fb], seed=seed)[0].points
    lines = [
        "v " + " ".join(repr(float(v)) for v in p) for p in pts
    ]
    loop = " ".join(str(i + 1) for i in range(len(pts)))
    lines.append(f"l {loop} 1")
    _write(out, "fiber.obj", "\n".join(lines) + "\n")


def _export_field(descriptor: dict, out: Path, seed: int, resolution) -> None:
    pipe = _sun_pipeline(descriptor)
    poly = ZonalPoly(tuple((k, 1.0) for k in descriptor["degrees"]))
    grid = pipe.grid
    v = np.zeros((grid.n, grid.n))
    v[grid.active] = pipe.solve_for(poly)
    lines = [",".join(repr(float(x)) for x in row) for row in v]
    _write(out, "field.csv", "\n".join(lines) + "\n")
    sidecar = {
        "descriptor": descriptor,
        "chart": "zeta (branched double cover of the meridian half-plane)",
        "layout": "row-major; row i is xi = axis[i], column j is eta = axis[j]",
        "n": grid.n,
        "half_width": grid.half_width,
        "step": grid.h,
        "truncation": grid.truncation,
    }
    _write(out, "field.json",
           json.dumps(jsonable(sidecar), sort_keys=True, indent=2) + "\n")


#: export -> (descriptor kinds it takes, writer); only fibers take a
#: --resolution (default 1024 vertices)
EXPORTS = {
    "sigma": (GERM_KINDS, _export_sigma),
    "fiber": (("fiber",), _export_fiber),
    "field": (("sun",), _export_field),
}


def cmd_export(args) -> int:
    descriptor = _load_descriptor(args)
    kinds, writer = EXPORTS[args.what]
    if descriptor["kind"] not in kinds:
        raise SchemaError("$.kind", f"{args.what} export does not apply to "
                          f"{descriptor['kind']!r}; it takes: {', '.join(kinds)}")
    if args.resolution is not None and args.what != "fiber":
        raise SchemaError("$.resolution", "--resolution applies only to a "
                                          "fiber export")
    writer(descriptor, Path(args.out), args.seed, args.resolution)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it costs
    about a fifth of a small ``verify`` job, and parsing leaves it as it
    was (``--tol`` appends to a copy of its default list)."""
    parser = argparse.ArgumentParser(
        prog="z2forms",
        description="Construct, verify, and export two-valued harmonic "
                    "function and 1-form families.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_construct = sub.add_parser("construct",
                                 help="validate a JSON spec and echo the "
                                      "descriptor with defaults filled")
    p_construct.add_argument("--spec", required=True)
    p_construct.add_argument("--out", default=None)
    p_construct.set_defaults(func=cmd_construct)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--spec", required=True)
    p_verify.add_argument("--suite", required=True, choices=SUITES)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tol", action="append", default=[],
                          metavar="NAME=VALUE")
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--grid", type=int, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_export = sub.add_parser("export", help="write CSV/OBJ/JSON artifacts")
    p_export.add_argument("--spec", required=True)
    p_export.add_argument("--what", required=True, choices=EXPORTS)
    p_export.add_argument("--out", required=True)
    p_export.add_argument("--seed", type=int, default=0)
    p_export.add_argument("--grid", type=int, default=None)
    p_export.add_argument("--resolution", type=int, default=None)
    p_export.set_defaults(func=cmd_export)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    except (OSError, Z2FormsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
