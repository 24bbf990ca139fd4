"""Every public module-level function and class of the library has a caller.

A definition counts as used when some module of ``src/z2forms`` other than
``__init__.py`` loads its name (as a name or an attribute) outside the
definition's own body.  Definitions that only tests, the acceptance gate or
planned suites use are listed in ``KEEP`` with the reason; what a kept
definition calls (``pullback``, ``stereo_s3_chart``, ...) counts as used.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "z2forms"

KEEP = {
    # criterion 5 / 7 helpers and inputs of the planned tangent-cone and
    # morphism suites
    "hopf_chart_map": "criterion 7 and the planned morphism suite",
    "pullback_form": "the planned morphism suite",
    "ComposedGerm": "the planned morphism suite",
    "laplace_beltrami_residual": "criterion 7",
    "lb_cross_oracle": "criterion 7",
    "sample_lines_on_sphere": "criterion 5 and the planned tangent-cone suite",
    "hausdorff_distance": "criterion 5 and the planned tangent-cone suite",
    # independent oracles that tests check other code against
    "seifert_value": "oracle for the fiber parameterization",
    "linking_on_sphere": "criterion 6's float Gauss oracle; the topology "
                         "suite projects once for both of its oracles",
    "fd_gradient": "oracle for the closed-form covectors (criterion 2)",
    "fd_divergence": "oracle for the co-closedness of the forms",
    "fd_curl_components": "oracle for the closedness of the forms",
    # public entry points of the one array walk in branch.py, which the
    # suites reach through monodromy_and_winding and continue_straight
    "continue_branch": "continuation along a given path (gauge tests)",
    "winding_number": "the winding number alone (the monodromy suite reads "
                      "it together with the sign)",
    # the library's only evaluation of u in R^3 (SunPipeline.evaluate_3d)
    "zonal": "zonal harmonic in R^3, checked against its closed form",
}


def _definitions():
    """(module, name) of every public module-level function and class."""
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_"):
                yield path.name, node.name


def _loads(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def _references():
    """name -> set of (module, enclosing top-level definition or None)."""
    refs: dict = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            owner = getattr(node, "name", None) \
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            for name in _loads(node):
                refs.setdefault(name, set()).add((path.name, owner))
    return refs


def _unreferenced():
    refs = _references()
    return {name for module, name in _definitions()
            if not refs.get(name, set()) - {(module, name)}}


def test_every_definition_has_a_caller_or_a_reason():
    dead = sorted(_unreferenced() - set(KEEP))
    assert not dead, f"no caller in src/ and not in KEEP: {dead}"


def test_keep_list_names_only_unreferenced_definitions():
    stale = sorted(set(KEEP) - _unreferenced())
    assert not stale, f"KEEP entries that are called, or gone: {stale}"
