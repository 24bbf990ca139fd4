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
``ROUNDOFF`` only by an absolute bound.  A change that moves a report rewrites the
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


#: report keys with round-off among their values, and the test each value
#: passes instead of ``_close``: the parity-zero A1 entries only stay tiny,
#: the sun linearity error and reduction are ratios of round-off, and the
#: null vector is one SVD pick from a 3-D null space (ROADMAP item 9),
#: continuous in the table but fixed by it only up to round-off
ROUNDOFF = {
    "a1_matrix": lambda new, old: abs(new) < ROUNDOFF_BOUND
    if abs(old) < ROUNDOFF_BOUND else _close(new, old),
    "relative_error": lambda new, old: abs(new) < ROUNDOFF_BOUND,
    "reduction": lambda new, old: new > 1.0 / ROUNDOFF_BOUND,
    "null_vector": lambda new, old: abs(new - old) <= 1e-9,
}


def load():
    with CORPUS.open() as fh:
        return [json.loads(line) for line in fh]


def run(job) -> dict:
    report = run_suite(job["suite"], normalize_descriptor(job["spec"]),
                       seed=job["seed"])
    return json.loads(report.to_json())


def differences(new, old, path: str = "", key: str = ""):
    """(path, new, old) of every leaf where ``new`` differs from ``old``;
    ``key`` is the innermost object key above the leaf, and a list entry
    with a ``name`` (a check) is labelled by it."""
    if isinstance(old, dict) and isinstance(new, dict):
        for k in sorted(old.keys() | new.keys()):
            if k not in old or k not in new:
                yield f"{path}.{k}", new.get(k, "<missing>"), \
                    old.get(k, "<missing>")
            else:
                yield from differences(new[k], old[k], f"{path}.{k}", k)
    elif isinstance(old, list) and isinstance(new, list) \
            and len(old) == len(new):
        for i, (a, b) in enumerate(zip(new, old)):
            label = b["name"] if isinstance(b, dict) and "name" in b else i
            yield from differences(a, b, f"{path}[{label}]", key)
    elif isinstance(old, float) and isinstance(new, float):
        if not ROUNDOFF.get(key, _close)(new, old):
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
