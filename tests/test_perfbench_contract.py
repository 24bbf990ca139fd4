"""The library names and report keys that the benchmark in ``perfbench/``
relies on.

``perfbench/tracing.py`` patches functions and methods of z2forms by name,
and ``perfbench/run.py`` reads check details by key.  Both run in a fresh
interpreter here, because installing the tracer rebinds module globals for
the rest of the process; nothing under ``perfbench/`` is changed.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: one report of each suite, small enough for a unit test
REPORTS = """
from z2forms.suites import SUITES, normalize_descriptor, run_suite

specs = {
    "harmonicity": ({"kind": "node", "a": [0.5, 0.2]}, {"points": 20}),
    "monodromy": ({"kind": "node", "a": 0}, {}),
    "vanishing-order": ({"kind": "ramified", "a": 1.3}, {}),
    "topology": ({"kind": "fiber", "p": 2, "q": 3}, {}),
    "sun": ({"kind": "sun", "grid": 96, "truncation": 10.0}, {}),
}
assert specs.keys() == SUITES.keys()
margins = {}
for suite, (spec, tol) in specs.items():
    report = run_suite(suite, normalize_descriptor(spec), 0, tol)
    margins[suite] = [run.check_margin(check)
                      for check in json.loads(report.to_json())["checks"]]
print(json.dumps(margins))
"""


def fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter that imports perfbench's modules
    and z2forms from this checkout; returns its stdout."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "perfbench"),
                                           str(ROOT / "src")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("installer", ["install", "install_computed"])
def test_tracer_finds_every_name_it_patches(installer):
    fresh_python(f"import tracing; tracing.{installer}(tracing.Tracer())")


def test_margin_rule_reads_every_suite_report():
    """``check_margin`` takes each check of one report per suite, run under
    the full tracer, without a missing key."""
    margins = json.loads(fresh_python(
        "import json, run, tracing\n"
        "tracing.install(tracing.Tracer())\n" + REPORTS))
    assert all(margins.values())
    assert any(m is not None for ms in margins.values() for m in ms)
