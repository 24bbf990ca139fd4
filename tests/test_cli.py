"""End-to-end tests of the command-line surface."""
import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import z2forms
from z2forms.cli import MAX_RESOLUTION, build_parser, main
from z2forms.defining import MAX_GERM_DEGREE, from_dict
from z2forms.suites import (MAX_POINTS, SUITES, _form_from, _points_off_locus,
                            normalize_descriptor)
from z2forms.sun import MAX_GRID


def write_spec(tmp_path, name, spec):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


#: (spec, its exact echo) per descriptor kind; a germ's complex
#: coefficients echo as [re, im], and a field the spec leaves out echoes
#: its default
ECHOES = {
    "lines": ({"kind": "lines", "lines": [[1, 0], [1, [0, 2]]]},
              {"kind": "lines", "k": 1,
               "lines": [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 2.0]]]}),
    "node": ({"kind": "node", "a": 0.5, "c": [0, -1]},
             {"kind": "node", "k": 1, "a": [0.5, 0.0], "b": [0.0, 0.0],
              "c": [0.0, -1.0]}),
    "ramified": ({"kind": "ramified", "k": 2},
                 {"kind": "ramified", "k": 2, "a": [1.0, 0.0]}),
    "bivariate": ({"kind": "bivariate", "terms": [[2, 0, 1], [0, 3, [0, -1]]]},
                  {"kind": "bivariate", "k": 1,
                   "terms": [[2, 0, [1.0, 0.0]], [0, 3, [0.0, -1.0]]]}),
    "planar": ({"kind": "planar", "p": [-2, [0, 1], 1.5]},
               {"kind": "planar", "k": 1,
                "p": [[-2.0, 0.0], [0.0, 1.0], [1.5, 0.0]]}),
    "axial": ({"kind": "axial"}, {"kind": "axial", "k": 1}),
    "fiber": ({"kind": "fiber", "p": 2, "q": 3},
              {"kind": "fiber", "p": 2, "q": 3, "base": [0.7, 0.2]}),
    "sun": ({"kind": "sun", "grid": 160},
            {"kind": "sun", "degrees": [0, 1, 2, 3, 4], "cutoff": "quintic",
             "grid": 160, "truncation": 20.0, "r1": 3.0, "r2": 5.0}),
}


class TestConstruct:
    @pytest.mark.parametrize("kind", ECHOES)
    def test_descriptor_echo_round_trips(self, tmp_path, capsys, kind):
        spec, echo = ECHOES[kind]
        assert main(["construct", "--spec",
                     write_spec(tmp_path, "s.json", spec)]) == 0
        echoed = json.loads(capsys.readouterr().out)
        assert echoed == echo
        spec2 = write_spec(tmp_path, "s2.json", echoed)
        assert main(["construct", "--spec", spec2]) == 0
        assert json.loads(capsys.readouterr().out) == echoed

    def test_planar_descriptor(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "p.json", {"kind": "planar",
                                               "p": [-2.0, 1.0]})
        assert main(["construct", "--spec", spec]) == 0
        echoed = json.loads(capsys.readouterr().out)
        assert echoed["kind"] == "planar"
        assert from_dict(echoed).value(2.0) == 0.0

    def test_unknown_kind_is_schema_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "bad.json", {"kind": "mystery"})
        assert main(["construct", "--spec", spec]) == 2

    def test_missing_file_is_schema_error(self, capsys):
        assert main(["construct", "--spec", "/nonexistent.json"]) == 2


class TestVerify:
    def test_monodromy_suite_passes(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "zw.json", {"kind": "node", "a": 0,
                                                "b": 0, "c": 0})
        rc = main(["verify", "--spec", spec, "--suite", "monodromy",
                   "--seed", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("[PASS]") == 2 and "[FAIL]" not in out

    @pytest.mark.parametrize("lines,z_expected", [
        ([[1, 0], [1, 0]], [1]),               # h = z^2: {z = 0} twice
        ([[1, 0], [2, 0], [0, 1]], [1]),       # {z = 0} twice, and {w = 0}
        ([[1, 0], [10, 1]], [-1]),             # {10 z + w = 0} is 0.1 away
    ])
    def test_z_meridian_counts_every_z_line(self, tmp_path, capsys, lines,
                                            z_expected):
        spec = write_spec(tmp_path, "l.json", {"kind": "lines", "lines": lines})
        out = tmp_path / "art"
        rc = main(["verify", "--spec", spec, "--suite", "monodromy",
                   "--out", str(out)])
        report = json.loads((out / "report-monodromy.json").read_text())
        assert rc == 0 and report["passed"]
        z_checks = [c for c in report["checks"] if "z-meridian" in c["name"]]
        assert [c["details"]["expected"] for c in z_checks] == z_expected
        assert [c["details"]["sign"] for c in z_checks] == z_expected

    def test_failing_tolerance_exits_one(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "n.json", {"kind": "node", "a": 1,
                                               "b": 0, "c": 0})
        rc = main(["verify", "--spec", spec, "--suite", "vanishing-order",
                   "--tol", "slope_tol=1e-12"])
        assert rc == 1
        assert "[FAIL]" in capsys.readouterr().out

    def test_tolerance_does_not_carry_into_the_next_call(self, tmp_path,
                                                         capsys):
        # one parser serves every main call in a process
        assert build_parser() is build_parser()
        spec = write_spec(tmp_path, "n.json", {"kind": "node", "a": 1,
                                               "b": 0, "c": 0})
        argv = ["verify", "--spec", spec, "--suite", "vanishing-order"]
        assert main(argv + ["--tol", "slope_tol=1e-12"]) == 1
        assert "[FAIL]" in capsys.readouterr().out
        assert main(argv) == 0
        assert "[FAIL]" not in capsys.readouterr().out

    def test_bad_tolerance_syntax(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "n.json", {"kind": "node", "a": 1,
                                               "b": 0, "c": 0})
        assert main(["verify", "--spec", spec, "--suite", "vanishing-order",
                     "--tol", "slope_tol"]) == 2

    def test_report_written_and_deterministic(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "zw.json", {"kind": "node", "a": 0,
                                                "b": 0, "c": 0})
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert main(["verify", "--spec", spec, "--suite", "monodromy",
                         "--seed", "11", "--out", str(out)]) == 0
        capsys.readouterr()
        b1 = (out1 / "report-monodromy.json").read_bytes()
        b2 = (out2 / "report-monodromy.json").read_bytes()
        assert b1 == b2
        report = json.loads(b1)
        assert report["passed"] is True
        assert report["seed"] == 11
        assert {c["name"] for c in report["checks"]}

    def test_wrong_suite_for_descriptor(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "zw.json", {"kind": "node", "a": 0,
                                                "b": 0, "c": 0})
        assert main(["verify", "--spec", spec, "--suite", "topology"]) == 2

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_kind_error_names_kind_path(self, tmp_path, capsys, suite):
        spec = {"kind": "fiber"} if suite != "topology" else {"kind": "node"}
        spec = write_spec(tmp_path, "s.json", spec)
        assert main(["verify", "--spec", spec, "--suite", suite]) == 2
        assert "schema error: $.kind:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["verify", "--suite", "monodromy"],
        ["export", "--what", "sigma", "--out", "art"]], ids=["verify", "export"])
    def test_grid_on_non_sun_spec_is_schema_error(self, tmp_path, capsys,
                                                  monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        spec = write_spec(tmp_path, "n.json", {"kind": "node"})
        assert main(command + ["--spec", spec, "--grid", "5"]) == 2
        assert "schema error: $.grid:" in capsys.readouterr().err
        assert not (tmp_path / "art").exists()

    @pytest.mark.parametrize("suite", ["harmonicity", "monodromy",
                                       "vanishing-order"])
    def test_constant_germ_exits_two(self, tmp_path, capsys, suite):
        # h = 1 has no branching locus: nothing to check, and no traceback
        spec = write_spec(tmp_path, "c.json", {"kind": "bivariate",
                                               "terms": [[0, 0, 1]]})
        assert main(["verify", "--spec", spec, "--suite", suite]) == 2

    @pytest.mark.parametrize("spec, suite", [
        ({"kind": "lines", "lines": [[1, [0.01 * k, 1]] for k in range(64)]},
         "vanishing-order"),
        ({"kind": "bivariate", "terms": [[1, 0, 1]]}, "monodromy"),
    ], ids=["lines-no-smooth-point", "z-no-meridian"])
    def test_nothing_to_probe_is_not_a_schema_error(self, tmp_path, capsys,
                                                    spec, suite):
        # a valid spec on which the suite finds nothing to measure is a
        # plain error, not a schema error
        spec = write_spec(tmp_path, "s.json", spec)
        assert main(["verify", "--spec", spec, "--suite", suite]) == 2
        assert capsys.readouterr().err.startswith("error:")

    # h^k overflows on these valid specs (coefficients at MAX_COEFFICIENT,
    # k = 24), and numpy warns about it
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("spec", [
        {"kind": "node", "a": 1e6, "b": 1e6, "c": 1e6, "k": 24},
        {"kind": "ramified", "a": 1e6, "k": 24},
        {"kind": "lines", "lines": [[1e6, 1e6]] * 10, "k": 24},
        {"kind": "bivariate", "terms": [[3, 3, 1e6], [1, 0, 1]], "k": 24},
    ], ids=["node", "ramified", "lines", "bivariate"])
    def test_non_finite_measurement_is_an_error(self, tmp_path, capsys, spec):
        # a NaN or infinite detail names its check and key, and no report
        # is written
        spec = write_spec(tmp_path, "s.json", spec)
        out = tmp_path / "art"
        assert main(["verify", "--spec", spec, "--suite", "harmonicity",
                     "--out", str(out)]) == 2
        assert re.match(r"error: check harmonicity\.\S+: details\.\w+ is not "
                        r"finite$", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("p", [[-1] + [0] * 63 + [1], [1] * 65],
                             ids=["z64-minus-1", "all-ones-degree-64"])
    def test_planar_window_follows_root_spacing(self, tmp_path, capsys, p):
        # the roots are about 0.1 apart: a fit window reaching 0.1 from a
        # root measures the neighbours too (slope 0.317)
        spec = write_spec(tmp_path, "p.json", {"kind": "planar", "p": p})
        assert main(["verify", "--spec", spec,
                     "--suite", "vanishing-order"]) == 0
        assert capsys.readouterr().out.count("[PASS]") == 3


class TestVerifyArgs:
    """Bad ``--tol`` and ``--seed`` values exit 2 with a schema error naming
    their path: never a traceback, a hang or a silently ignored input."""

    @pytest.mark.parametrize("value", ["inf", "nan", "2.5", "0",
                                       str(MAX_POINTS + 1), "1e12"])
    def test_bad_points_is_schema_error(self, tmp_path, capsys, value):
        spec = write_spec(tmp_path, "a.json", {"kind": "axial"})
        assert main(["verify", "--spec", spec, "--suite", "harmonicity",
                     "--tol", f"points={value}"]) == 2
        assert "schema error: $.tol.points:" in capsys.readouterr().err

    @pytest.mark.parametrize("suite,name,value", [
        ("harmonicity", "ratio_lo", "nan"),
        ("harmonicity", "ratio_hi", "-inf"),
        ("vanishing-order", "slope_tol", "inf"),
        ("vanishing-order", "slope_tol", "nan"),
    ])
    def test_non_finite_tolerance_is_schema_error(self, tmp_path, capsys,
                                                  suite, name, value):
        # inf once passed every vanishing-order check and wrote Infinity,
        # which is not JSON, into the report
        spec = write_spec(tmp_path, "a.json", {"kind": "axial"})
        assert main(["verify", "--spec", spec, "--suite", suite,
                     "--tol", f"{name}={value}"]) == 2
        assert f"schema error: $.tol.{name}:" in capsys.readouterr().err

    def test_unknown_tolerance_is_schema_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "a.json", {"kind": "axial"})
        assert main(["verify", "--spec", spec, "--suite", "harmonicity",
                     "--tol", "ratio_low=3"]) == 2
        err = capsys.readouterr().err
        assert "schema error: $.tol.ratio_low:" in err
        assert "ratio_lo, ratio_hi, points" in err

    def test_suite_without_tolerances_rejects_any(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "zw.json", {"kind": "node"})
        assert main(["verify", "--spec", spec, "--suite", "monodromy",
                     "--tol", "slope_tol=0.1"]) == 2
        assert "accepts: none" in capsys.readouterr().err

    def test_negative_seed_is_schema_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "a.json", {"kind": "axial"})
        assert main(["verify", "--spec", spec, "--suite", "harmonicity",
                     "--seed", "-1"]) == 2
        assert "schema error: $.seed:" in capsys.readouterr().err


class TestSunSchema:
    """Malformed sun specs exit 2 with a schema error naming the JSON path."""

    @pytest.mark.parametrize("patch, path", [
        ({"grid": "big"}, "$.grid"),
        ({"grid": 96.5}, "$.grid"),
        ({"truncation": float("nan")}, "$.truncation"),
        ({"r1": "3"}, "$.r1"),
        ({"r2": float("inf")}, "$.r2"),
        ({"degrees": [0, "two", 2]}, "$.degrees[1]"),
        ({"degrees": [0, 1, float("nan")]}, "$.degrees[2]"),
        ({"r1": 6}, "$.r2"),
        ({"r1": 0.5}, "$.r1"),
        ({"truncation": 5.0}, "$.truncation"),
        ({"degrees": [0, 1, 13]}, "$.degrees[2]"),
    ], ids=["grid-text", "grid-fraction", "truncation-nan", "r1-text",
            "r2-inf", "degree-text", "degree-nan", "r1-above-r2",
            "r1-inside-circle", "truncation-inside-cutoff", "degree-too-large"])
    def test_bad_sun_spec_is_schema_error(self, tmp_path, capsys, patch, path):
        spec = write_spec(tmp_path, "s.json",
                          {"kind": "sun", "grid": 96, **patch})
        assert main(["verify", "--spec", spec, "--suite", "sun"]) == 2
        assert f"schema error: {path}:" in capsys.readouterr().err

    def test_grid_above_bound_is_schema_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "s.json", {"kind": "sun", "grid": 100000})
        assert main(["construct", "--spec", spec]) == 2
        assert "schema error: $.grid:" in capsys.readouterr().err
        spec = write_spec(tmp_path, "t.json", {"kind": "sun"})
        assert main(["verify", "--spec", spec, "--suite", "sun",
                     "--grid", str(MAX_GRID + 1)]) == 2
        assert "schema error: $.grid:" in capsys.readouterr().err

    @pytest.mark.parametrize("truncation, smallest", [(20.0, 124),
                                                      (200.0, 382)])
    def test_grid_without_ring_window_is_schema_error(self, tmp_path, capsys,
                                                      truncation, smallest):
        spec = write_spec(tmp_path, "s.json", {"kind": "sun",
                                               "truncation": truncation})
        t0 = time.monotonic()
        assert main(["verify", "--spec", spec, "--suite", "sun",
                     "--grid", str(smallest - 1)]) == 2
        err = capsys.readouterr().err
        assert "schema error: $.grid:" in err
        assert f"needs grid >= {smallest}" in err
        assert time.monotonic() - t0 < 1.0  # before any solve

    @pytest.mark.parametrize("degrees", [[0, 1], [2]])
    def test_too_few_degrees_for_the_suite(self, tmp_path, capsys,
                                           monkeypatch, degrees):
        """The suite needs 3 degrees for a null combination; it says so
        before it builds any grid.  Construct (and the field export) take
        fewer."""
        built = []
        monkeypatch.setattr(z2forms.sun.DoubleCoverGrid, "__post_init__",
                            lambda grid: built.append(grid.n))
        spec = write_spec(tmp_path, "s.json", {"kind": "sun", "grid": 160,
                                               "degrees": degrees})
        assert main(["verify", "--spec", spec, "--suite", "sun"]) == 2
        err = capsys.readouterr().err
        assert "schema error: $.degrees:" in err
        assert "at least 3 polynomial degrees" in err
        assert built == []
        assert main(["construct", "--spec", spec]) == 0

    @pytest.mark.parametrize("degrees, path", [([2, 2, 2], "$.degrees[1]"),
                                               ([0, 1, 2, 1], "$.degrees[3]")])
    def test_repeated_degree_is_schema_error(self, tmp_path, capsys, degrees,
                                             path):
        spec = write_spec(tmp_path, "s.json", {"kind": "sun", "grid": 160,
                                               "degrees": degrees})
        for argv in (["construct", "--spec", spec],
                     ["verify", "--spec", spec, "--suite", "sun"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert f"schema error: {path}:" in err and "repeated" in err

    @pytest.mark.parametrize("grid", ["-5", "0", "10"])
    def test_bad_grid_flag_is_schema_error(self, tmp_path, capsys, grid):
        spec = write_spec(tmp_path, "s.json", {"kind": "sun"})
        assert main(["verify", "--spec", spec, "--suite", "sun",
                     "--grid", grid]) == 2
        assert "schema error: $.grid:" in capsys.readouterr().err


class TestFormSchema:
    """Malformed form and fiber specs exit 2 with a schema error naming the
    JSON path, never a traceback or a silent truncation."""

    @pytest.mark.parametrize("spec, path", [
        ({"kind": "axial", "k": "x"}, "$.k"),
        ({"kind": "ramified", "k": "x"}, "$.k"),
        ({"kind": "axial", "k": 1.5}, "$.k"),
        ({"kind": "fiber", "p": 2, "q": 3, "base": ["a", 1]}, "$.base[0]"),
        ({"kind": "fiber", "p": 2, "q": 0}, "$.q"),
        ({"kind": "node", "a": float("nan")}, "$.a"),
        ({"kind": "planar", "p": [float("nan"), 1]}, "$.p[0]"),
        ({"kind": "bivariate", "terms": [[1.5, 1, 1.0]]}, "$.terms[0][0]"),
        ({"kind": "bivariate", "terms": []}, "$.terms"),
        ({"kind": "bivariate", "terms": [[1, 0, 0]]}, "$.terms"),
        ({"kind": "bivariate", "terms": [[1, 0, 1], [1, 0, -1]]}, "$.terms"),
        ({"kind": "lines", "lines": []}, "$.lines"),
        ({"kind": "planar", "p": [0, 0]}, "$.p"),
        ({"kind": "bivariate", "terms": [[MAX_GERM_DEGREE + 1, 0, 1]]},
         "$.terms[0][0]"),
        ({"kind": "bivariate", "terms": [[0, 1, 1], [0, 10**5, 1]]},
         "$.terms[1][1]"),
        ({"kind": "bivariate", "terms": [[1, 1, 1]] * (MAX_GERM_DEGREE + 1)},
         "$.terms"),
        ({"kind": "lines", "lines": [[1, 0]] * (MAX_GERM_DEGREE + 1)},
         "$.lines"),
        ({"kind": "planar", "p": [1] * (MAX_GERM_DEGREE + 2)}, "$.p"),
        ({"kind": "node", "b": [1e300, 1e300]}, "$.b"),
        ({"kind": "planar", "p": [[1e308, 1e308], 1]}, "$.p[0]"),
        ({"kind": "ramified", "a": [1e308, 1e308]}, "$.a"),
        ({"kind": "node", "a": 1e308}, "$.a"),
        ({"kind": "lines", "lines": [[1, 0], [1, [1.7e308, -1.7e308]]]},
         "$.lines[1][1]"),
        ({"kind": "bivariate", "terms": [[1, 0, [0, 2e6]]]}, "$.terms[0][2]"),
        ({"kind": "node", "a": 0.5, "k": 400}, "$.k"),
        ({"kind": "ramified", "k": 10**8}, "$.k"),
    ], ids=["axial-k-text", "ramified-k-text", "axial-k-fraction",
            "fiber-base-text", "fiber-q-zero", "node-a-nan", "planar-coeff-nan",
            "bivariate-exponent-fraction", "bivariate-empty",
            "bivariate-zero", "bivariate-cancelling", "lines-empty",
            "planar-zero", "bivariate-z-degree", "bivariate-w-degree",
            "bivariate-terms", "lines-count", "planar-degree",
            "node-b-huge", "planar-coeff-huge", "ramified-a-huge",
            "node-a-huge", "lines-coeff-huge", "bivariate-coeff-huge",
            "node-k-400", "ramified-k-1e8"])
    def test_bad_spec_is_schema_error(self, tmp_path, capsys, spec, path):
        spec = write_spec(tmp_path, "s.json", spec)
        assert main(["verify", "--spec", spec, "--suite", "monodromy"]) == 2
        assert f"schema error: {path}:" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, path, count", [
        ({"kind": "lines", "lines": [[1]]}, "$.lines[0]", 2),
        ({"kind": "bivariate", "terms": [[1, 2]]}, "$.terms[0]", 3),
    ], ids=["lines-short-entry", "bivariate-short-entry"])
    def test_short_entry_names_path_and_count(self, tmp_path, capsys, spec,
                                              path, count):
        spec = write_spec(tmp_path, "s.json", spec)
        assert main(["construct", "--spec", spec]) == 2
        err = capsys.readouterr().err
        assert f"schema error: {path}:" in err
        assert f"{count} entries" in err


#: JSON values of every shape, non-finite floats and huge integers included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12)

SPEC_KEYS = ("k", "a", "b", "c", "lines", "terms", "p", "q", "base",
             "degrees", "cutoff", "grid", "truncation", "r1", "r2")

SPECS = JSON_VALUES | st.fixed_dictionaries(
    {"kind": st.sampled_from(("lines", "node", "ramified", "bivariate",
                              "planar", "axial", "fiber", "sun"))
     | JSON_VALUES},
    optional={key: JSON_VALUES for key in SPEC_KEYS})


class TestConstructFuzz:
    """Any JSON spec either constructs (exit 0) or is a schema error
    (exit 2): never a traceback, never a hang."""

    @settings(max_examples=300, deadline=timedelta(seconds=2),
              derandomize=True)
    @given(spec=SPECS)
    @example(spec={"kind": "fiber", "p": 2**70, "q": 3})  # p beyond int64
    def test_construct_exits_zero_or_two(self, tmp_path_factory, spec):
        path = tmp_path_factory.getbasetemp() / "fuzz.json"
        path.write_text(json.dumps(spec))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(["construct", "--spec", str(path)]) in (0, 2)


#: mostly small numbers, but up to the float range, past MAX_COEFFICIENT
NUMBERS = st.integers(-3, 3) | st.floats(-3.0, 3.0) \
    | st.floats(-1e308, 1e308)
COMPLEX = NUMBERS | st.lists(NUMBERS, min_size=2, max_size=2)
#: mostly small half-power indices, but some past MAX_HALF_POWER
INDEX = st.integers(1, 3) | st.integers(-2, 10**9)
#: mostly small exponents, but some past MAX_GERM_DEGREE
EXPONENTS = st.integers(0, 3) | st.integers(0, 10**6)

FORM_SPECS = st.one_of(
    st.fixed_dictionaries({"kind": st.just("node")},
                          optional={"a": COMPLEX, "b": COMPLEX, "c": COMPLEX,
                                    "k": INDEX}),
    st.fixed_dictionaries({"kind": st.just("lines"),
                           "lines": st.lists(st.lists(COMPLEX, min_size=2,
                                                      max_size=2),
                                             min_size=1, max_size=3)},
                          optional={"k": INDEX}),
    st.fixed_dictionaries({"kind": st.just("ramified")},
                          optional={"a": COMPLEX, "k": INDEX}),
    st.fixed_dictionaries({"kind": st.just("bivariate"),
                           "terms": st.lists(st.tuples(
                               EXPONENTS, EXPONENTS, COMPLEX)
                               .map(list), min_size=0, max_size=3)},
                          optional={"k": INDEX}),
    st.fixed_dictionaries({"kind": st.just("planar"),
                           "p": st.lists(COMPLEX, min_size=1, max_size=4)}),
    st.fixed_dictionaries({"kind": st.just("axial")}, optional={"k": INDEX}))

TOL_NAMES = st.sampled_from(sorted({n for _, _, defaults in SUITES.values()
                                    for n in defaults} | {"ratio_low"})) \
    | st.text(max_size=4)
TOL_VALUES = st.floats().map(repr) | st.integers(-10, 10**13).map(str) \
    | st.text(max_size=4)


def not_json(constant):
    raise ValueError(f"{constant} is not JSON")


class TestVerifyFuzz:
    """Any form spec, fast suite, ``--tol`` list and ``--seed`` gives exit
    0, 1 or 2: never a traceback, never a hang.

    The topology suite is left out: each of its jobs takes about 1 s
    whatever the spec, so it would dominate the run and find nothing the
    schema tests do not.
    """

    @settings(max_examples=100, deadline=timedelta(seconds=20),
              derandomize=True)
    @given(spec=FORM_SPECS,
           suite=st.sampled_from(("harmonicity", "monodromy",
                                  "vanishing-order")),
           tols=st.lists(st.tuples(TOL_NAMES, TOL_VALUES), max_size=2),
           seed=st.integers(-2**8, 2**70))
    @example(spec={"kind": "axial"}, suite="harmonicity",
             tols=[("points", "inf")], seed=0)
    @example(spec={"kind": "axial"}, suite="harmonicity",
             tols=[("points", "nan")], seed=0)
    @example(spec={"kind": "axial"}, suite="harmonicity",
             tols=[("points", "1e12")], seed=0)
    @example(spec={"kind": "axial"}, suite="harmonicity",
             tols=[("ratio_low", "3")], seed=0)
    @example(spec={"kind": "axial"}, suite="vanishing-order",
             tols=[("slope_tol", "inf")], seed=0)
    @example(spec={"kind": "axial"}, suite="harmonicity", tols=[], seed=-1)
    # an empty or zero germ table
    @example(spec={"kind": "bivariate", "terms": []}, suite="monodromy",
             tols=[], seed=0)
    @example(spec={"kind": "bivariate", "terms": []},
             suite="vanishing-order", tols=[], seed=0)
    @example(spec={"kind": "bivariate", "terms": []}, suite="harmonicity",
             tols=[], seed=0)
    @example(spec={"kind": "bivariate", "terms": [[1, 0, 0]]},
             suite="monodromy", tols=[], seed=0)
    # germ degrees past MAX_GERM_DEGREE must fail fast
    @example(spec={"kind": "bivariate", "terms": [[0, 800, 1], [1, 0, 1]]},
             suite="vanishing-order", tols=[], seed=0)
    @example(spec={"kind": "bivariate",
                   "terms": [[0, 100000, 1], [1, 0, 1]]},
             suite="vanishing-order", tols=[], seed=0)
    @example(spec={"kind": "planar", "p": [1] * 2001}, suite="monodromy",
             tols=[], seed=0)
    @example(spec={"kind": "planar", "p": [1] * 100001}, suite="monodromy",
             tols=[], seed=0)
    # coefficients near the float range
    @example(spec={"kind": "node", "b": [1e300, 1e300]}, suite="monodromy",
             tols=[], seed=0)
    @example(spec={"kind": "planar", "p": [[1e308, 1e308], 1]},
             suite="monodromy", tols=[], seed=0)
    @example(spec={"kind": "ramified", "a": [1e308, 1e308]},
             suite="monodromy", tols=[], seed=0)
    @example(spec={"kind": "ramified", "a": [1e308, 1e308]},
             suite="vanishing-order", tols=[], seed=0)
    @example(spec={"kind": "node", "a": 1e308}, suite="vanishing-order",
             tols=[], seed=0)
    # a half-power index past MAX_HALF_POWER once wrote NaN into the report
    @example(spec={"kind": "node", "a": 0.5, "k": 400}, suite="harmonicity",
             tols=[], seed=0)
    def test_verify_exits_zero_one_or_two(self, tmp_path_factory, spec,
                                          suite, tols, seed):
        path = tmp_path_factory.getbasetemp() / "fuzz-verify.json"
        path.write_text(json.dumps(spec))
        out = tmp_path_factory.getbasetemp() / "fuzz-verify"
        report = out / f"report-{suite}.json"
        report.unlink(missing_ok=True)
        argv = ["verify", "--spec", str(path), "--suite", suite,
                "--seed", str(seed), "--out", str(out)]
        for name, value in tols:
            argv += ["--tol", f"{name}={value}"]
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2)
        if report.exists():
            json.loads(report.read_text(), parse_constant=not_json)


class TestSamplerBound:
    def test_sampler_gives_up_with_counts(self, tmp_path, capsys):
        # sigma_distance_bound stays below min_dist everywhere in the window
        spec = write_spec(tmp_path, "b.json", {"kind": "bivariate",
                                               "terms": [[40, 0, 1], [0, 40, 1]]})
        t0 = time.monotonic()
        rc = main(["verify", "--spec", spec, "--suite", "harmonicity"])
        elapsed = time.monotonic() - t0
        err = capsys.readouterr().err
        assert rc == 2
        assert "0 of 200 points" in err and "20000 draws" in err
        assert "20000 rejected" in err
        assert elapsed < 10.0

    @pytest.mark.parametrize("spec", [
        {"kind": "node", "a": [0.4, 0.3], "b": 0.1, "c": [0, -0.2]},
        {"kind": "lines", "lines": [[1, 0], [0, 1], [1, 1]]},
        {"kind": "ramified", "a": 1},
        {"kind": "bivariate", "terms": [[2, 0, 1], [0, 3, -1], [1, 1, 0.3]]},
        {"kind": "planar", "p": [1.0, 0.5, 1.0]},
        {"kind": "axial"},
    ], ids=lambda spec: spec["kind"])
    def test_block_draws_keep_the_one_draw_stream(self, spec):
        form = _form_from(normalize_descriptor(spec))
        for seed in range(40):
            rng = np.random.default_rng(seed)
            want = []
            while len(want) < 50:
                x = rng.uniform(-2.0, 2.0, size=form.dimension)
                if form.h.sigma_distance_bound(x) > 0.1:
                    want.append(x)
            assert np.array_equal(_points_off_locus(form, 50, seed), want)


class TestExport:
    def test_sigma_csv_residual(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "n.json", {"kind": "node", "a": 1,
                                               "b": 0, "c": 0})
        out = tmp_path / "art"
        assert main(["export", "--spec", spec, "--what", "sigma",
                     "--out", str(out)]) == 0
        rows = (out / "sigma.csv").read_text().strip().splitlines()
        assert rows[0] == "x0,x1,x2,x3"
        h = from_dict({"kind": "node", "a": 1, "b": 0, "c": 0})
        worst = max(abs(h.value_at(np.array([float(v) for v in r.split(",")])))
                    for r in rows[1:])
        assert worst < 1e-9

    def test_planar_sigma_csv_roots(self, tmp_path, capsys):
        # sigma of a planar germ is the finite set of its roots
        spec = write_spec(tmp_path, "p.json", {"kind": "planar",
                                               "p": [-0.7, 0.0, 1.0]})
        out = tmp_path / "art"
        assert main(["export", "--spec", spec, "--what", "sigma",
                     "--out", str(out)]) == 0
        rows = (out / "sigma.csv").read_text().strip().splitlines()
        assert rows[0] == "x0,x1"
        pts = np.array(sorted([float(v) for v in r.split(",")]
                              for r in rows[1:]))
        want = np.array([[-np.sqrt(0.7), 0.0], [np.sqrt(0.7), 0.0]])
        assert pts.shape == want.shape
        assert np.max(np.abs(pts - want)) < 1e-9

    def test_fiber_obj_closed_polyline(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "f.json", {"kind": "fiber", "p": 2,
                                               "q": 3})
        out = tmp_path / "art"
        assert main(["export", "--spec", spec, "--what", "fiber",
                     "--out", str(out)]) == 0
        lines = (out / "fiber.obj").read_text().strip().splitlines()
        verts = [l for l in lines if l.startswith("v ")]
        assert len(verts) == 1024
        assert all(len(v.split()) == 4 for v in verts)
        poly = [l for l in lines if l.startswith("l ")]
        assert len(poly) == 1
        indices = poly[0].split()[1:]
        assert indices[0] == "1" and indices[-1] == "1"  # closed loop

    def test_field_grid_with_sidecar(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "s.json", {"kind": "sun", "grid": 96,
                                               "degrees": [1]})
        out = tmp_path / "art"
        assert main(["export", "--spec", spec, "--what", "field",
                     "--out", str(out)]) == 0
        rows = (out / "field.csv").read_text().strip().splitlines()
        sidecar = json.loads((out / "field.json").read_text())
        assert len(rows) == 96 == sidecar["n"]
        assert len(rows[0].split(",")) == 96
        assert sidecar["descriptor"]["kind"] == "sun"
        assert sidecar["half_width"] == pytest.approx(np.sqrt(21.0))

    @pytest.mark.parametrize("resolution", ["1", "-3", "0",
                                            str(MAX_RESOLUTION + 1)])
    def test_bad_resolution_is_schema_error(self, tmp_path, capsys,
                                            resolution):
        spec = write_spec(tmp_path, "f.json", {"kind": "fiber", "p": 2,
                                               "q": 3})
        assert main(["export", "--spec", spec, "--what", "fiber",
                     "--out", str(tmp_path / "art"),
                     "--resolution", resolution]) == 2
        assert "schema error: $.resolution:" in capsys.readouterr().err

    def test_export_negative_seed_is_schema_error(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "f.json", {"kind": "fiber", "p": 2,
                                               "q": 3})
        assert main(["export", "--spec", spec, "--what", "fiber",
                     "--out", str(tmp_path / "art"), "--seed", "-1"]) == 2
        assert "schema error: $.seed:" in capsys.readouterr().err

    def test_export_kind_mismatch(self, tmp_path, capsys):
        spec = write_spec(tmp_path, "f.json", {"kind": "fiber", "p": 2,
                                               "q": 3})
        assert main(["export", "--spec", spec, "--what", "sigma",
                     "--out", str(tmp_path / "x")]) == 2
        assert "schema error: $.kind:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("spec, what", [
        ({"kind": "node"}, "sigma"), ({"kind": "sun", "grid": 96}, "field")])
    def test_resolution_on_non_fiber_export_is_schema_error(
            self, tmp_path, capsys, spec, what):
        spec = write_spec(tmp_path, "s.json", spec)
        assert main(["export", "--spec", spec, "--what", what, "--out",
                     str(tmp_path / "art"), "--resolution", "64"]) == 2
        assert "schema error: $.resolution:" in capsys.readouterr().err
        assert not (tmp_path / "art").exists()


#: run in a fresh interpreter with a node spec and a sun spec as arguments;
#: prints the verify exit codes and the scipy modules loaded at each stage
SCIPY_PROBE = """\
import json, sys
import z2forms, z2forms.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))

node, sun = sys.argv[1:]
out = {"import": scipy_modules()}
out["node_code"] = z2forms.cli.main(
    ["verify", "--spec", node, "--suite", "harmonicity"])
out["node"] = scipy_modules()
out["sun_code"] = z2forms.cli.main(["verify", "--spec", sun, "--suite", "sun"])
out["sun"] = scipy_modules()
print(json.dumps(out))
"""


class TestLazyScipy:
    def test_only_the_sun_suite_loads_scipy(self, tmp_path):
        """Importing the CLI and running a non-sun job load no scipy; a sun
        job in the same process loads scipy's sparse solver, and not
        scipy.interpolate, and passes."""
        node = write_spec(tmp_path, "node.json", {"kind": "node"})
        sun = write_spec(tmp_path, "sun.json", {"kind": "sun", "grid": 96,
                                                "truncation": 10})
        src = str(Path(z2forms.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH"))))}
        proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, node, sun],
                              capture_output=True, text=True, env=env,
                              timeout=120, check=True)
        out = json.loads(proc.stdout.splitlines()[-1])
        assert out["import"] == [] and out["node"] == []
        assert out["node_code"] == 0 and out["sun_code"] == 0
        assert "scipy.sparse.linalg" in out["sun"]
        assert "scipy.interpolate" not in out["sun"]


class TestReadme:
    def test_suite_table_matches_suites(self):
        """The README suite table lists each suite's descriptor kinds and
        tolerance defaults as ``SUITES`` holds them."""
        readme = (Path(__file__).resolve().parent.parent
                  / "README.md").read_text()
        rows = {}
        for line in readme.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 3 and cells[0].strip("`") in SUITES:
                rows[cells[0].strip("`")] = cells[1:]
        assert set(rows) == set(SUITES)
        for suite, (_, kinds, defaults) in SUITES.items():
            row_kinds, row_tols = rows[suite]
            assert re.findall(r"`(\w+)`", row_kinds) == list(kinds)
            listed = dict(re.findall(r"`(\w+)` = ([^,;]+)", row_tols))
            assert list(listed) == list(defaults)
            for name, default in defaults.items():
                text = listed[name].split()[0]
                assert text == ("auto" if default is None else repr(default))
