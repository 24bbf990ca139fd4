"""In-memory tracing of z2forms layers, installed from outside the package.

``install`` replaces public functions and methods of the z2forms modules
with timing wrappers.  Every wrapped call is a frame on one stack, so each
frame knows its inclusive time and its self time (inclusive minus the
wrapped calls nested in it).  Job, suite and sun-stage calls are recorded
as spans (name, start, end, parent span, job id); hot per-point calls are
only aggregated, per enclosing span and calling frame, to keep the cost of
a call small.  Nothing is written until ``Tracer.dump`` at the end of a run.

``install_computed`` installs only the untimed hooks behind the computed
counts, so that an untraced run yields them too and the two runs of one
invocation can be compared job for job.
"""
from __future__ import annotations

import functools
import sys
import time
from functools import cached_property


class Tracer:
    def __init__(self):
        self.stack: list[list] = []   # open frames: [name, nested_s]
        self.span = -1                # innermost open span
        self.job = -1
        self.spans: list = []         # (name, start, end, parent, job, self_s)
        self.totals: dict = {}        # (job, span, caller, name) -> [calls, incl_s, self_s]
        self.counts: dict = {}        # (job, counter) -> count
        self.computed: dict = {}      # (job, counter) -> deterministic value

    def add(self, table: dict, counter: str, value) -> None:
        key = (self.job, counter)
        table[key] = table.get(key, 0) + value

    def wrap(self, fn, name: str, span: bool = False, job: bool = False,
             before=None, after=None):
        stack, totals, clock = self.stack, self.totals, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if job:
                self.job += 1
            if before is not None:
                before(self, args, kwargs)
            caller = stack[-1][0] if stack else None
            frame = [name, 0.0]
            outer = self.span
            if span:
                sid = len(self.spans)
                self.spans.append(None)
                self.span = sid
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                if span:
                    self.spans[sid] = (name, t0, t1, outer, self.job,
                                       dur - frame[1])
                    self.span = outer
                key = (self.job, self.span, caller, name)
                rec = totals.get(key)
                if rec is None:
                    rec = totals[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def hook(self, fn, before=None, after=None):
        """``fn`` with ``before``/``after`` callbacks and no timing."""

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            result = fn(*args, **kwargs)
            if after is not None:
                after(self, args, result)
            return result

        return hooked

    def dump(self) -> dict:
        """Aggregates per job, ready for JSON."""
        return {
            "frames": [[job, caller, name, *rec] for (job, _, caller, name), rec
                       in self.totals.items()],
            "spans": [list(s) for s in self.spans],
            "counts": [[j, c, v] for (j, c), v in self.counts.items()],
            "computed": [[j, c, v] for (j, c), v in self.computed.items()],
        }


def _patch_everywhere(owner, attr: str, wrapped) -> None:
    """Rebind ``owner.attr`` and every z2forms module global bound to it."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrapped)
    for modname, mod in list(sys.modules.items()):
        if modname == "z2forms" or modname.startswith("z2forms."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)


def _wrap_method(tracer, cls, attr, name, **kw):
    setattr(cls, attr, tracer.wrap(cls.__dict__[attr], name, **kw))


def _replace_cached(cls, attr, wrap):
    prop = cached_property(wrap(cls.__dict__[attr].func))
    prop.__set_name__(cls, attr)
    setattr(cls, attr, prop)


def _wrap_cached(tracer, cls, attr, name, **kw):
    _replace_cached(cls, attr, lambda fn: tracer.wrap(fn, name, **kw))


#: bytes per segment pair of the O(N*M) temporaries in gauss_linking:
#: float64 diff (3), dist (1), cross (3) and integrand (1)
LINKING_BYTES_PER_PAIR = 8 * 8

#: bytes per stored LU nonzero: float64 value plus int32 row index
LU_BYTES_PER_NNZ = 8 + 4


def _next_job(tr, args, kwargs):
    tr.job += 1


def _linking_pairs(tr, args, kwargs):
    pairs = (len(args[0].vertices()) - 1) * (len(args[1].vertices()) - 1)
    tr.add(tr.computed, "morphisms.gauss_linking_pairs", pairs)


def _lu_fill(tr, args, lu):
    tr.add(tr.computed, "sun.lu_fill_nnz", int(lu.nnz))


def install_computed(tracer: Tracer) -> None:
    from z2forms import cli, morphisms, sun

    _patch_everywhere(cli, "main", tracer.hook(cli.main, before=_next_job))
    _patch_everywhere(morphisms, "gauss_linking",
                      tracer.hook(morphisms.gauss_linking, before=_linking_pairs))
    _replace_cached(sun.DoubleCoverGrid, "_lu",
                    lambda fn: tracer.hook(fn, after=_lu_fill))


def install(tracer: Tracer) -> None:
    from z2forms import (branch, cli, defining, fd, forms, morphisms, report,
                         suites, sun)

    w = tracer.wrap

    # cli: one span per job
    _patch_everywhere(cli, "main", w(cli.main, "cli.main", span=True, job=True))

    # suites
    _patch_everywhere(suites, "run_suite",
                      w(suites.run_suite, "suites.run_suite", span=True))
    _patch_everywhere(suites, "normalize_descriptor",
                      w(suites.normalize_descriptor, "suites.normalize"))

    def requested(tr, args, kwargs):
        tr.add(tr.counts, "suites.points_requested", int(args[1]))

    _patch_everywhere(suites, "_points_off_locus",
                      w(suites._points_off_locus, "suites.sampler",
                        before=requested))

    # report
    _wrap_method(tracer, report.VerificationReport, "to_json", "report.to_json")

    # branch: segments walked, the base of the refinement waste ratio
    def one_segment(tr, args, kwargs):
        tr.add(tr.counts, "branch.segments", 1)

    def path_segments(tr, args, kwargs):
        tr.add(tr.counts, "branch.segments", len(args[1].vertices()) - 1)

    _patch_everywhere(branch, "continue_straight",
                      w(branch.continue_straight, "branch.continue",
                        before=one_segment))
    _patch_everywhere(branch, "continue_branch",
                      w(branch.continue_branch, "branch.continue",
                        before=path_segments))
    _patch_everywhere(branch, "principal_state",
                      w(branch.principal_state, "branch.principal_state"))
    _patch_everywhere(branch, "monodromy", w(branch.monodromy, "branch.monodromy"))
    _patch_everywhere(branch, "winding_number",
                      w(branch.winding_number, "branch.winding"))

    # defining: value_at / partials_at live on the base class only;
    # sigma_distance_bound is overridden by some kinds
    base = defining.DefiningFunction
    _wrap_method(tracer, base, "value_at", "defining.value")
    _wrap_method(tracer, base, "partials_at", "defining.partials")
    for cls in (base, *_subclasses(base)):
        if "sigma_distance_bound" in cls.__dict__:
            _wrap_method(tracer, cls, "sigma_distance_bound",
                         "defining.sigma_distance")

    # forms
    for cls in (forms.ReHPowerForm, forms.PlanarForm, forms.AxialForm):
        for attr in ("eval_f", "eval_omega", "potential", "magnitude"):
            if attr in cls.__dict__:
                _wrap_method(tracer, cls, attr, "forms.eval")
    _patch_everywhere(forms, "sample_sigma",
                      w(forms.sample_sigma, "forms.sample_sigma"))
    _patch_everywhere(forms, "vanishing_order",
                      w(forms.vanishing_order, "forms.vanishing_order"))

    # fd: every public stencil
    for fn in [n for n in vars(fd) if n.startswith("fd_")]:
        _patch_everywhere(fd, fn, w(getattr(fd, fn), "fd.stencil"))

    # morphisms
    _patch_everywhere(morphisms, "gauss_linking",
                      w(morphisms.gauss_linking, "morphisms.gauss_linking",
                        before=_linking_pairs))
    for fn, name in (("covering_degree", "morphisms.covering_degree"),
                     ("stereographic_pole", "morphisms.stereographic_pole"),
                     ("stereographic_project", "morphisms.other"),
                     ("linking_on_sphere", "morphisms.other"),
                     ("fiber", "morphisms.other"),
                     ("core_fiber", "morphisms.other"),
                     ("fiber_windings", "morphisms.other")):
        _patch_everywhere(morphisms, fn, w(getattr(morphisms, fn), name))

    # sun: stages as spans
    grid = sun.DoubleCoverGrid
    _wrap_method(tracer, grid, "__post_init__", "sun.grid", span=True)
    _wrap_cached(tracer, grid, "_matrix_csr", "sun.assembly", span=True)
    _wrap_cached(tracer, grid, "_lu", "sun.factor", span=True, after=_lu_fill)
    _wrap_method(tracer, grid, "solve", "sun.solve", span=True)
    _wrap_method(tracer, grid, "rhs_from_source", "sun.rhs", span=True)

    make_interp = grid.interpolator

    def counting_interpolator(self, values):
        interp = make_interp(self, values)

        def call(*args, **kwargs):
            tracer.add(tracer.counts, "sun.interp_calls", 1)
            return interp(*args, **kwargs)

        return call

    grid.interpolator = counting_interpolator
    pipe = sun.SunPipeline
    _wrap_method(tracer, pipe, "a1_of", "sun.extract", span=True)
    _wrap_method(tracer, pipe, "near_circle_fn", "sun.extract", span=True)
    _patch_everywhere(sun, "ring_rms_slope",
                      w(sun.ring_rms_slope, "sun.extract", span=True))
    _wrap_method(tracer, pipe, "run", "sun.pipeline", span=True)
    _patch_everywhere(sun, "manufactured_error",
                      w(sun.manufactured_error, "sun.manufactured", span=True))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)
