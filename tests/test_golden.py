"""Golden report corpus: rerun a fixed list of suite jobs and compare every
report with the one recorded in ``golden/reports.jsonl``.

Each line of the corpus is one job, ``{"spec", "suite", "seed", "report"}``:
the spec as a user would write it (a sun spec carries its grid), and the
report as ``VerificationReport.to_json`` wrote it.  The corpus holds the
``checks``, ``topology`` and ``sun-sweep`` job plans of the benchmark at
its seed 0 (sun grids 275, 384, 497 and 610), plus the sun suite at grids
160 and 272.

Strings, booleans, integers and pass/fail compare exactly, floats to the
relative tolerance ``REL_TOL``, and the round-off values named in
``ROUNDOFF`` only by a bound: ``ROUNDOFF_BOUND``, or for the sun linearity
error ``linearity_bound``, which grows where the mixed column's A1 nearly
cancels.  A change that moves a report rewrites the
corpus and names each moved check in CHANGES.md; rewrite it with

    PYTHONPATH=src python tests/test_golden.py --rewrite
"""
import json
import math
import sys
from pathlib import Path

from z2forms.suites import normalize_descriptor, run_suite

CORPUS = Path(__file__).resolve().parent / "golden" / "reports.jsonl"

#: relative tolerance on floats: summation-order changes have moved
#: linking numbers by up to 2.8e-14 and the A1 table by up to 9.1e-14
REL_TOL = 2e-13

#: bound on round-off: the A1 entries that vanish by parity (A1- of even
#: degrees, A1+ of odd ones) read 1e-16 to 6e-14, the linearity error
#: 1.5e-13, and the reduction's inverse below 1e-16
ROUNDOFF_BOUND = 1e-11


def _close(new: float, old: float) -> bool:
    if math.isnan(old):
        return math.isnan(new)
    return abs(new - old) <= REL_TOL * max(abs(new), abs(old))


def linearity_bound(report: dict) -> float:
    """Bound on a sun report's linearity error, from its own A1 table.

    The error is |mixed - want| / |want|, with want = 0.7 A1[:, 0]
    - 1.3 A1[:, -1]; mixed and want are each good to about REL_TOL times
    the table's largest entry (the error over that entry read 2e-15 to
    6e-14 at grids 160-610), so where want nearly cancels the error grows
    like REL_TOL max|A1| / |want|.  ROUNDOFF_BOUND is the floor, and a
    report without an A1 table gets it."""
    for check in report.get("checks", []):
        if check.get("name") == "sun.null_combination_reduction":
            table = check["details"]["a1_matrix"]
            want = math.hypot(*(0.7 * row[0] - 1.3 * row[-1]
                                for row in table))
            largest = max(abs(a) for row in table for a in row)
            return max(ROUNDOFF_BOUND, REL_TOL * largest / max(want, 1e-300))
    return ROUNDOFF_BOUND


#: report keys with round-off among their values, and the test each value
#: passes instead of ``_close``, given the report's ``linearity_bound``:
#: the parity-zero A1 entries only stay tiny, the sun linearity error and
#: reduction are ratios of round-off, and the null vector is one SVD pick
#: from a 3-D null space (ROADMAP item 9), continuous in the table but
#: fixed by it only up to round-off
ROUNDOFF = {
    "a1_matrix": lambda new, old, lin: abs(new) < ROUNDOFF_BOUND
    if abs(old) < ROUNDOFF_BOUND else _close(new, old),
    "relative_error": lambda new, old, lin: abs(new) < lin,
    "reduction": lambda new, old, lin: new > 1.0 / ROUNDOFF_BOUND,
    "null_vector": lambda new, old, lin: abs(new - old) <= 1e-9,
}


def load():
    with CORPUS.open() as fh:
        return [json.loads(line) for line in fh]


def run(job) -> dict:
    report = run_suite(job["suite"], normalize_descriptor(job["spec"]),
                       seed=job["seed"])
    return json.loads(report.to_json())


def differences(new, old, path: str = "", key: str = "", lin=None):
    """(path, new, old) of every leaf where ``new`` differs from ``old``;
    ``key`` is the innermost object key above the leaf, and a list entry
    with a ``name`` (a check) is labelled by it.  ``lin`` is the linearity
    bound, by default ``old``'s own."""
    if lin is None:
        lin = linearity_bound(old) if isinstance(old, dict) \
            else ROUNDOFF_BOUND
    if isinstance(old, dict) and isinstance(new, dict):
        for k in sorted(old.keys() | new.keys()):
            if k not in old or k not in new:
                yield f"{path}.{k}", new.get(k, "<missing>"), \
                    old.get(k, "<missing>")
            else:
                yield from differences(new[k], old[k], f"{path}.{k}", k,
                                       lin)
    elif isinstance(old, list) and isinstance(new, list) \
            and len(old) == len(new):
        for i, (a, b) in enumerate(zip(new, old)):
            label = b["name"] if isinstance(b, dict) and "name" in b else i
            yield from differences(a, b, f"{path}[{label}]", key, lin)
    elif isinstance(old, float) and isinstance(new, float):
        test = ROUNDOFF.get(key)
        if not (test(new, old, lin) if test else _close(new, old)):
            yield path, new, old
    elif type(new) is not type(old) or new != old:
        yield path, new, old


def described(i: int, job, report: dict) -> list[str]:
    """One line per difference of ``report`` from job ``i``'s recorded one."""
    tag = f"job {i} {job['suite']} {json.dumps(job['spec'])} " \
          f"seed {job['seed']}"
    return [f"{tag}: {path}: now {a!r}, golden {b!r}"
            for path, a, b in differences(report, job["report"])]


def test_reports_match_the_corpus():
    jobs = load()
    assert len(jobs) == 342
    diffs = []
    for i, job in enumerate(jobs):
        diffs += described(i, job, run(job))
    assert not diffs, f"{len(diffs)} differences from {CORPUS.name}:\n" \
        + "\n".join(diffs)


#: the two checks that ``linearity_bound`` and the linearity error come
#: from, as the default sun report at grid 255 and seed 0 recorded them:
#: its mixed column's A1 nearly cancels, so the round-off linearity error
#: lies above ROUNDOFF_BOUND.  Recorded values keep the test off the
#: solver's last digits, which any change of the factorization moves
GRID_255 = {"checks": [
    {"name": "sun.null_combination_reduction", "details": {"a1_matrix": [
        [0.9131545622564335, 3.882320007804659e-18, -0.8624319559731932,
         -2.553484211993012e-18, 0.4899679713569094],
        [2.1247344575540444e-18, 0.9140766298846459, -5.31525248010092e-18,
         -0.9141041297858932, 3.301104475621424e-18]]}},
    {"name": "sun.superposition_linearity",
     "details": {"relative_error": 1.160790761295984e-11}},
]}


def test_linearity_bound_scales_with_the_table():
    """The recorded grid 255 checks read a linearity error above
    ROUNDOFF_BOUND and still match themselves; the same checks with the
    error set to 1e-6 do not.  Every corpus line keeps the floor as its
    bound."""
    report = GRID_255
    details = next(c["details"] for c in report["checks"]
                   if c["name"] == "sun.superposition_linearity")
    assert ROUNDOFF_BOUND < details["relative_error"] < \
        linearity_bound(report)
    assert not list(differences(report, report))
    wrong = json.loads(json.dumps(report))
    next(c for c in wrong["checks"] if c["name"] ==
         "sun.superposition_linearity")["details"]["relative_error"] = 1e-6
    assert [path for path, _, _ in differences(wrong, report)] == [
        ".checks[sun.superposition_linearity].details.relative_error"]
    assert all(linearity_bound(job["report"]) == ROUNDOFF_BOUND
               for job in load())


def rewrite(jobs) -> None:
    """Rerun ``jobs``, print each difference from the recorded reports, and
    write the jobs with their new reports as the corpus."""
    lines = []
    for i, job in enumerate(jobs):
        report = run(job)
        for diff in described(i, job, report):
            print(diff)
        line = {key: job[key] for key in ("spec", "suite", "seed")}
        lines.append(json.dumps({**line, "report": report}, sort_keys=True))
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--rewrite"]:
        sys.exit(f"usage: {sys.argv[0]} --rewrite")
    rewrite(load())
