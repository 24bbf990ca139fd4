"""Every public module-level function and class of the library, and every
public method of a public class, has a caller.

A definition counts as used when some module of ``src/z2forms`` other than
``__init__.py`` loads its name (as a name or an attribute) outside the
definition's own body; a method is known by its name alone, so any
attribute of that name counts.  Definitions that only tests, the
acceptance gate or planned suites use are listed in ``KEEP`` (methods as
``Class.method``) with the reason; what a kept definition calls
(``pullback``, ``fd_laplacian_order4``, ...) counts as used.

Every defaulted parameter of a library function or method is also passed,
by keyword or by position, by some call in ``src/z2forms``, or listed in
``KEEP_DEFAULTS`` with the reason: a default that no caller overrides is a
constant dressed as an option.

The library's settable values, parameters with a default plus dataclass
fields, may not grow past ``MAX_SETTABLE``: a change that adds one takes
another out, or raises the maximum and says why.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "z2forms"

KEEP = {
    # criterion 5 / 7 helpers and inputs of the planned tangent-cone and
    # morphism suites
    "pullback_form": "the planned morphism suite",
    "ComposedGerm": "the planned morphism suite",
    "lb_cross_oracle": "criterion 7; it calls laplace_beltrami_residual",
    "sample_lines_on_sphere": "criterion 5 and the planned tangent-cone suite",
    "hausdorff_distance": "criterion 5 and the planned tangent-cone suite",
    # independent oracles that tests check other code against
    "seifert_value": "oracle for the fiber parameterization",
    "linking_on_sphere": "criterion 6's float Gauss oracle, beside the "
                         "topology suite's exact polygon linking",
    "fd_divergence": "oracle for the co-closedness of the forms",
    "fd_curl_components": "oracle for the closedness of the forms",
    "source_meridian": "the sun source H at any meridian points, the "
                       "reference for rhs_from_source's cached shell",
    # public entry points of the one array walk in branch.py, which the
    # suites reach through monodromy_and_winding and continue_straight
    "continue_branch": "continuation along a given path (gauge tests)",
    "winding_number": "the winding number alone (the monodromy suite reads "
                      "it together with the sign)",
    # the library's only evaluation of u in R^3; the planned mean-value
    # check of the sun suite calls it (ROADMAP item 10)
    "zonal": "zonal harmonic in R^3, checked against its closed form",
    "SunPipeline.evaluate_3d": "ROADMAP item 10: the sun field in R^3",
    "ZonalPoly.value_3d": "ROADMAP item 10: the sun field in R^3",
}


def _public(node, kinds=(ast.FunctionDef, ast.ClassDef)) -> bool:
    return isinstance(node, kinds) and not node.name.startswith("_")


def _definitions():
    """(module, qualified name, name) of every public module-level function
    and class and every public method of a public class."""
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if _public(node):
                yield path.name, node.name, node.name
            if _public(node, ast.ClassDef):
                for item in node.body:
                    if _public(item, ast.FunctionDef):
                        yield (path.name, f"{node.name}.{item.name}",
                               item.name)


def _loads(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            yield sub.attr


def _owned(node):
    """(owner, subtree) pairs covering a top-level statement: a method's
    body is owned by ``Class.method``, the rest of a class by the class."""
    if isinstance(node, ast.ClassDef):
        for item in node.body:
            if isinstance(item, ast.FunctionDef):
                yield f"{node.name}.{item.name}", item
            else:
                yield node.name, item
        for sub in node.decorator_list + node.bases:
            yield node.name, sub
    else:
        yield getattr(node, "name", None), node


def _references():
    """name -> set of (module, qualified name of the enclosing definition,
    or None)."""
    refs: dict = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            for owner, sub in _owned(node):
                for name in _loads(sub):
                    refs.setdefault(name, set()).add((path.name, owner))
    return refs


def _unreferenced():
    refs = _references()
    return {qualname for module, qualname, name in _definitions()
            if not refs.get(name, set()) - {(module, qualname)}}


def test_every_definition_has_a_caller_or_a_reason():
    dead = sorted(_unreferenced() - set(KEEP))
    assert not dead, f"no caller in src/ and not in KEEP: {dead}"


def test_keep_list_names_only_unreferenced_definitions():
    stale = sorted(set(KEEP) - _unreferenced())
    assert not stale, f"KEEP entries that are called, or gone: {stale}"


#: defaulted parameters (``function.parameter``, methods as
#: ``Class.method.parameter``) that no call in src/ passes
KEEP_DEFAULTS = {
    "main.argv": "the console script passes none; tests pass the arguments",
    "normalize_descriptor.path": "threads the JSON-path prefix into every "
                                 "schema message; every caller today "
                                 "normalizes a top-level spec",
    "SunPipeline.evaluate_3d.sheet": "ROADMAP item 10: the sun field in R^3",
}


def _defaulted_parameters():
    """(qualified name, called name, positional index or None, parameter
    name) of every defaulted parameter of a module-level function or a
    method of a module-level class.  A method's positional index does not
    count ``self``."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                yield from _defaults_of(node, node.name, 0)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        static = any(getattr(d, "id", None) == "staticmethod"
                                     for d in item.decorator_list)
                        yield from _defaults_of(item, f"{node.name}.{item.name}",
                                                0 if static else 1)


def _defaults_of(fn, qualname, skip):
    args = fn.args
    positional = args.posonlyargs + args.args
    for i, arg in enumerate(positional[len(positional) - len(args.defaults):],
                            start=len(positional) - len(args.defaults)):
        yield f"{qualname}.{arg.arg}", fn.name, i - skip, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield f"{qualname}.{arg.arg}", fn.name, None, arg.arg


def _calls():
    """called name -> list of (positional argument count, keyword names,
    whether ``*args`` or ``**kwargs`` may pass every parameter) over every
    call in src/."""
    calls: dict = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            starred = any(isinstance(a, ast.Starred) for a in node.args) \
                or any(k.arg is None for k in node.keywords)
            calls.setdefault(name, []).append(
                (len(node.args), {k.arg for k in node.keywords}, starred))
    return calls


def _unpassed_defaults():
    calls = _calls()
    return {qualname
            for qualname, name, index, param in _defaulted_parameters()
            if not any(starred or param in keywords
                       or (index is not None and count > index)
                       for count, keywords, starred in calls.get(name, []))}


def test_every_default_is_passed_by_a_caller_or_has_a_reason():
    unpassed = sorted(_unpassed_defaults() - set(KEEP_DEFAULTS))
    assert not unpassed, f"defaults no call in src/ passes: {unpassed}"


def test_keep_defaults_names_only_unpassed_parameters():
    stale = sorted(set(KEEP_DEFAULTS) - _unpassed_defaults())
    assert not stale, f"KEEP_DEFAULTS entries that are passed, or gone: {stale}"


#: most settable values the library may have: parameters with a default
#: (nested functions included, lambdas not) plus dataclass fields
MAX_SETTABLE = 50


def _is_dataclass(node) -> bool:
    return any(getattr(getattr(d, "func", d), "id", None) == "dataclass"
               for d in node.decorator_list)


def _settable_values() -> int:
    count = 0
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                count += len(node.args.defaults) + sum(
                    d is not None for d in node.args.kw_defaults)
            elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
                count += sum(isinstance(item, ast.AnnAssign)
                             for item in node.body)
    return count


def test_settable_values_do_not_grow():
    count = _settable_values()
    assert count <= MAX_SETTABLE, (
        f"{count} settable values (defaulted parameters plus dataclass "
        f"fields), above the recorded maximum {MAX_SETTABLE}")
