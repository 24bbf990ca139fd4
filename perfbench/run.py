"""z2forms benchmark: seeded `verify` workloads, end-to-end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload checks --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` reports the end-to-end metrics of an untraced run.
``--trace 1`` splits the run length between an untraced and a traced run of
the same plan and reports the per-layer metrics, with the tracing overhead
measured against the untraced run.  Every job's report is checked; the last
stdout line is one JSON object {"correct", "attempted", "failed",
"metrics"}, and the exit code is 1 when an output check fails.  See perfbench/README.md for the workloads and
the metric definitions.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"

#: set-up-only children per run, besides the measured children's own set-up
SETUP_PROBES = 4

#: each invocation must end well within the 180 s limit
DEADLINE_S = 170.0

#: a run reports job_s_p90 only with at least this many jobs beyond it
P90_TAIL = 10

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MALLOC_VAR = "MALLOC_MMAP_THRESHOLD_"


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # glibc's mmap threshold, fixed at its initial default, no longer
    # adapts to freed blocks: with it adapting, peak RSS of one plan flips
    # between values ~6% apart from run to run
    env[MALLOC_VAR] = "131072"
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            env[var] = str(min(int(env[var]), nproc))
        except (KeyError, ValueError):
            env[var] = str(nproc)
    return env


def spawn(plan: dict, workdir: Path, deadline: float) -> tuple[float, dict]:
    """Run one child; returns (set-up seconds, result)."""
    workdir.mkdir(parents=True)
    plan = dict(plan, workdir=str(workdir))
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(plan_path)],
                            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(deadline - time.monotonic(), 0.0))
        line = proc.stdout.readline() if ready else b""
        setup_s = time.perf_counter() - t0
        if line.strip() != b"ready":
            raise BenchError(f"child did not get ready (said {line!r})")
        code = proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("child exceeded the run deadline") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"child exited with code {code}")
    if plan["setup_only"]:
        return setup_s, {}
    return setup_s, json.loads((workdir / "result.json").read_text())


# --------------------------------------------------------------------------
# output checks


def check_margin(check: dict) -> float | None:
    """Signed distance of a check's measurement to its gate, relative to it."""
    tol, d = check["tolerances"], check["details"]
    margins = []
    if "ratio_lo" in tol:
        margins.append(min(d["ratio"] / tol["ratio_lo"] - 1.0,
                           1.0 - d["ratio"] / tol["ratio_hi"]))
    if "slope_tol" in tol:
        margins.append(1.0 - abs(d["slope"] - d["expected"]) / tol["slope_tol"])
    if "linking_tol" in tol:
        band = tol["linking_tol"]
        margins.append(min(1.0 - abs(abs(d["linking"]) - d["expected"]) / band,
                           1.0 - abs(d["linking"] - d["linking_fine"]) / (band / 2)))
    for gate, value in (("min_order", "order"), ("min_reduction", "reduction"),
                        ("min_slope", "slope")):
        if gate in tol:
            margins.append(d[value] / tol[gate] - 1.0)
    if "linearity_tol" in tol:
        margins.append(1.0 - d["relative_error"] / tol["linearity_tol"])
    return min(margins) if margins else None


def _finite(values) -> bool:
    if isinstance(values, list):
        return all(_finite(v) for v in values)
    return isinstance(values, (int, float)) and math.isfinite(values)


def check_jobs(result: dict, workdir: Path, plan: dict, audit: dict) -> None:
    """Check every job's report against its exit code; fills ``audit``.

    Each distinct job of the plan counts once: every run of it, in this
    child or an earlier one of the invocation, must give the same exit code
    and a byte-identical report.
    """
    for i, job in enumerate(result["jobs"]):
        jid, code = job["id"], job["code"]
        kind = plan["specs"][job["spec"]]["kind"]
        first = jid not in audit["codes"]
        if first:
            audit["codes"][jid] = code
        elif audit["codes"][jid] != code:
            audit["violations"].append(
                f"job {jid}: exit {code}, but exit {audit['codes'][jid]} "
                f"on an earlier run of it")
        if code not in (0, 1):
            if first:
                audit["errors"][f"{kind} {job['suite']}: exit {code} "
                                f"{job['error'] or ''}".strip()] += 1
            continue
        path = workdir / "out" / str(i) / f"report-{job['suite']}.json"
        try:
            text = path.read_bytes()
            report = json.loads(text)
        except (OSError, json.JSONDecodeError) as exc:
            audit["violations"].append(f"job {jid}: no readable report ({exc})")
            continue
        if audit["reports"].setdefault(jid, text) != text:
            audit["violations"].append(
                f"job {jid}: report differs from an earlier run of it")
            continue
        if not first:
            continue
        checks = report["checks"]
        if report["passed"] != (code == 0) or \
                report["passed"] != all(c["passed"] for c in checks):
            audit["violations"].append(
                f"job {jid}: report passed={report['passed']} but exit {code}")
        if report["suite"] != job["suite"] or report["seed"] != job["seed"]:
            audit["violations"].append(f"job {jid}: report is for another job")
        for c in checks:
            if c["name"] == "sun.null_combination_reduction":
                d = c["details"]
                if not (_finite(d["a1_matrix"]) and _finite(d["null_vector"])):
                    audit["violations"].append(
                        f"job {jid}: A1 table or null vector not finite")
            if not c["passed"]:
                audit["failing"][f"{c['name']} [{kind}]"] += 1
                continue
            margin = check_margin(c)
            if margin is None:
                if c["tolerances"]:
                    audit["unmapped"].add(c["name"])
            elif margin < audit["margin"][0]:
                audit["margin"] = (margin, f"{c['name']} [{kind}]")


def check_pass(result: dict, plan: dict, audit: dict) -> None:
    """A run must have run every job of the plan's pass."""
    missing = len({job["id"] for rnd in plan["rounds"] for job in rnd}
                  - {job["id"] for job in result["jobs"]})
    if missing:
        audit["violations"].append(f"{missing} jobs of the pass never ran")


def new_audit() -> dict:
    return {"codes": {}, "errors": Counter(), "failing": Counter(),
            "violations": [], "unmapped": set(), "margin": (math.inf, ""),
            "reports": {}}


# --------------------------------------------------------------------------
# per-layer metrics from a trace


def layer_metrics(trace: dict, jobs: int) -> dict:
    frames = trace["frames"]

    def total(name, field, caller=None, prefix=False):
        col = {"calls": 3, "incl": 4, "self": 5}[field]
        return sum(r[col] for r in frames
                   if (r[2].startswith(name) if prefix else r[2] == name)
                   and (caller is None or r[1] == caller))

    def counter(table, name):
        return sum(v for _, c, v in trace[table] if c == name)

    def first_job(name):
        return sum(v for j, c, v in trace["computed"] if c == name and j == 0)

    per = 1.0 / jobs
    segments = counter("counts", "branch.segments")
    draws = total("defining.sigma_distance", "calls", caller="suites.sampler")
    pairs = first_job("morphisms.gauss_linking_pairs")
    fill = first_job("sun.lu_fill_nnz")
    job_s = total("cli.main", "incl")
    unattributed = total("cli.", "self", prefix=True) \
        + total("suites.", "self", prefix=True)
    m = {
        "cli.self_s": total("cli.main", "self") * per,
        "suites.run_suite_s": total("suites.run_suite", "incl") * per,
        "suites.sampler_draws": draws * per,
        "suites.sampler_accept_ratio":
            counter("counts", "suites.points_requested") / draws if draws else 0.0,
        "report.to_json_s": total("report.to_json", "incl") * per,
        "branch.continue_calls": total("branch.continue", "calls") * per,
        "branch.continue_s": total("branch.continue", "incl") * per,
        "branch.h_evals_per_continue":
            total("defining.value", "calls", caller="branch.continue") / segments
            if segments else 0.0,
        "branch.monodromy_s": total("branch.monodromy", "incl") * per,
        "branch.winding_s": total("branch.winding", "incl") * per,
        "defining.value_calls": total("defining.value", "calls") * per,
        "defining.value_s": total("defining.value", "incl") * per,
        "defining.partials_calls": total("defining.partials", "calls") * per,
        "forms.eval_calls": total("forms.eval", "calls") * per,
        "forms.eval_s": total("forms.eval", "incl") * per,
        "forms.sample_sigma_s": total("forms.sample_sigma", "incl") * per,
        "forms.vanishing_order_s": total("forms.vanishing_order", "incl") * per,
        "fd.stencil_calls": total("fd.stencil", "calls") * per,
        "fd.self_s": total("fd.stencil", "self") * per,
        "morphisms.gauss_linking_s": total("morphisms.gauss_linking", "incl") * per,
        "morphisms.gauss_linking_pairs": pairs,
        "morphisms.gauss_linking_bytes_computed":
            pairs * tracing.LINKING_BYTES_PER_PAIR,
        "morphisms.covering_degree_s":
            total("morphisms.covering_degree", "incl") * per,
        "morphisms.stereographic_pole_s":
            total("morphisms.stereographic_pole", "incl") * per,
        "sun.grid_s": total("sun.grid", "self") * per,
        "sun.assembly_s": total("sun.assembly", "self") * per,
        "sun.factor_s": total("sun.factor", "self") * per,
        "sun.factorizations": total("sun.factor", "calls") * per,
        "sun.lu_fill_nnz": fill,
        "sun.lu_bytes_computed": fill * tracing.LU_BYTES_PER_NNZ,
        "sun.solves": total("sun.solve", "calls") * per,
        "sun.solve_s": total("sun.solve", "self") * per,
        "sun.rhs_s": total("sun.rhs", "self") * per,
        "sun.extract_s": total("sun.extract", "self") * per,
        "sun.interp_calls": counter("counts", "sun.interp_calls") * per,
        "trace.layer_coverage_frac": 1.0 - unattributed / job_s,
    }
    layers = {}
    for r in frames:
        layer = r[2].split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + r[5]
    m["_layer_self_share"] = {k: v / job_s for k, v in sorted(layers.items())}
    return m


#: metrics reported as deterministic counts and checked across runs
COMPUTED = ("sun.lu_fill_nnz", "sun.lu_bytes_computed",
            "morphisms.gauss_linking_pairs",
            "morphisms.gauss_linking_bytes_computed")


def computed_by_job(trace: dict) -> dict:
    jobs: dict = {}
    for job, name, value in trace["computed"]:
        jobs.setdefault(job, {})[name] = value
    return jobs


def check_computed(timed: dict, traced: dict, audit: dict) -> None:
    """Each job run in both runs must give both the same computed counts."""
    a, b = computed_by_job(timed["trace"]), computed_by_job(traced["trace"])
    for i in range(min(len(timed["jobs"]), len(traced["jobs"]))):
        if a.get(i) != b.get(i):
            audit["violations"].append(
                f"job {i}: computed counts differ between the untraced and "
                f"the traced run: {a.get(i)} vs {b.get(i)}")


# --------------------------------------------------------------------------
# one workload


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 deadline: float) -> dict:
    plan = workloads.plan(workload, seed)
    # a traced invocation takes as long as an untraced one: half of the
    # run length untraced (with the computed-count hooks), half traced
    plan.update(seconds=seconds / 2 if trace else seconds,
                trace="computed" if trace else "off", setup_only=False)
    rundir = STATE / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(rundir, ignore_errors=True)
    try:
        setups = [spawn(dict(plan, setup_only=True), rundir / f"setup{i}",
                        deadline)[0] for i in range(SETUP_PROBES)]
        setup_s, timed = spawn(plan, rundir / "timed", deadline)
        setups.append(setup_s)
        audit = new_audit()
        check_jobs(timed, rundir / "timed", plan, audit)
        check_pass(timed, plan, audit)
        traced = None
        if trace:
            setup_s, traced = spawn(dict(plan, trace="full"),
                                    rundir / "traced", deadline)
            setups.append(setup_s)
            check_jobs(traced, rundir / "traced", plan, audit)
            check_pass(traced, plan, audit)
            check_computed(timed, traced, audit)
            (STATE / f"trace-{workload}.json").write_text(
                json.dumps(traced["trace"]))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    lat = [j["latency_s"] for j in timed["jobs"]]
    n = len(lat)
    # operations are the distinct jobs of the pass, so that the counts
    # depend on the seed only; repeats are re-measurements of them
    attempted = len(audit["codes"])
    failed = sum(code != 0 for code in audit["codes"].values())
    out = {
        "workload": workload, "seed": seed,
        "env": dict(timed["env"], pinned={k: child_env()[k]
                                          for k in THREAD_VARS + (MALLOC_VAR,)}),
        "attempted": attempted,
        "failed": failed,
        "audit": audit, "setups": setups, "jobs": n,
        "loop_s": timed["loop_s"],
        "rounds": timed["rounds"],
        "e2e": {
            "setup_s": statistics.median(setups),
            "jobs_per_s": n / timed["loop_s"],
            "job_s_p50": statistics.median(lat),
            "peak_rss_mb": timed["peak_rss_kb"] / 1024.0,
        },
        "jobs_failed_frac": failed / attempted,
        "job_s_p90": statistics.quantiles(lat, n=10)[-1]
        if n * 0.1 >= P90_TAIL else None,
    }
    if traced:
        layer = layer_metrics(traced["trace"], len(traced["jobs"]))
        traced_rate = len(traced["jobs"]) / traced["loop_s"]
        layer.update({
            "cli.jobs": len(traced["jobs"]),
            "jobs_failed_frac": out["jobs_failed_frac"],
            "suites.check_margin_min": audit["margin"][0]
            if math.isfinite(audit["margin"][0]) else 0.0,
            "trace.jobs_per_s_traced": traced_rate,
            "trace.jobs_per_s_untraced": out["e2e"]["jobs_per_s"],
            "trace.overhead_frac": 1.0 - traced_rate / out["e2e"]["jobs_per_s"],
        })
        out["layer"] = layer
    return out


# --------------------------------------------------------------------------
# reporting


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def print_workload(res: dict, spec: dict) -> None:
    audit = res["audit"]
    print(f"== {res['workload']} seed={res['seed']}: {res['jobs']} jobs in "
          f"{res['rounds']} rounds ({res['loop_s']:.1f} s), closed loop, "
          f"1 client" + (", untraced half of a traced run" if "layer" in res
                         else ""))
    print("env " + json.dumps(res["env"], sort_keys=True))
    for m in spec["end_to_end"]:
        print(f"  {m['name']:<18} {res['e2e'][m['name']]:12.6g} {m['unit']}")
    print(f"  {'setup_s samples':<18} " +
          " ".join(f"{s:.4f}" for s in res["setups"]))
    if res["job_s_p90"] is None:
        print(f"  {'job_s_p90':<18} {'n/a':>12} s  ({res['jobs']} jobs: "
              f"fewer than {P90_TAIL} beyond p90)")
    else:
        print(f"  {'job_s_p90':<18} {res['job_s_p90']:12.6g} s  "
              f"({res['jobs']} jobs)")
    print(f"  {'jobs_failed_frac':<18} {res['jobs_failed_frac']:12.6g} frac "
          f"({res['failed']} of the pass's {res['attempted']} jobs)")
    if math.isfinite(audit["margin"][0]):
        print(f"  {'check_margin_min':<18} {audit['margin'][0]:12.6g} frac "
              f"({audit['margin'][1]})")
    for name, count in sorted(audit["failing"].items()):
        print(f"  failing check: {name} x{count}")
    for name, count in sorted(audit["errors"].items()):
        print(f"  job error: {name} x{count}")
    for name in sorted(audit["unmapped"]):
        print(f"  no margin rule for the tolerances of {name}")
    if "layer" in res:
        layer = res["layer"]
        for m in spec["per_layer"]:
            label = " (computed)" if m["name"] in COMPUTED else ""
            print(f"  {m['name']:<40} {layer[m['name']]:12.6g} "
                  f"{m['unit']}{label}")
        shares = ", ".join(f"{k} {v:.3f}"
                           for k, v in layer["_layer_self_share"].items())
        print(f"  self-time share of job time: {shares}")
    for v in audit["violations"]:
        print(f"  OUTPUT CHECK FAILED: {v}")


def metrics_of(res: dict, spec: dict, trace: bool) -> dict:
    if trace:
        return {m["name"]: {"value": res["layer"][m["name"]], "unit": m["unit"]}
                for m in spec["per_layer"]}
    return {m["name"]: {"value": res["e2e"][m["name"]], "unit": m["unit"]}
            for m in spec["end_to_end"]}


def _terminate(signum, frame):
    # unwinds through spawn(), which kills and reaps the running child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured time per run (default: run_seconds "
                             "from BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "z2forms" / "__init__.py").is_file():
        print(f"error: no z2forms sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    results = []
    for name in names:
        # the 180 s limit holds per invocation; "all" gets it per workload
        deadline = time.monotonic() + DEADLINE_S
        try:
            res = run_workload(name, args.seed, seconds, trace, deadline)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        print_workload(res, spec)
        results.append(res)

    correct = all(not r["audit"]["violations"] for r in results)
    if len(results) == 1:
        metrics = metrics_of(results[0], spec, trace)
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in metrics_of(r, spec, trace).items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
