"""One workload client: set up, then run whole rounds of jobs in a closed loop.

Usage: python child.py PLAN.json

The plan (written by run.py) names a work directory, the specs, the rounds,
the run length and the tracing: ``off``, ``computed`` (only the untimed
hooks behind the computed counts) or ``full``.  The child imports z2forms,
writes the spec files and prints ``ready`` on stdout; that moment ends
set-up.  With
``setup_only`` it exits there.  Otherwise it runs every job in-process
through ``z2forms.cli.main`` with its own ``--out`` directory.  It always
completes the plan's pass (every round once); after that it starts a new
round only while the run is predicted to end within the run length.  It
writes per-job exit codes and latencies (and the trace) to result.json.
Reports are checked afterwards by run.py, outside the timed loop.
"""
import json
import os
import resource
import sys
import time
from pathlib import Path


def run(plan: dict) -> dict:
    from z2forms.cli import main

    work = Path(plan["workdir"])
    spec_dir = work / "specs"
    spec_dir.mkdir(parents=True, exist_ok=True)
    for name, spec in plan["specs"].items():
        (spec_dir / f"{name}.json").write_text(json.dumps(spec))
    print("ready", flush=True)
    if plan["setup_only"]:
        return {}

    tracer = None
    if plan["trace"] != "off":
        import tracing
        tracer = tracing.Tracer()
        if plan["trace"] == "full":
            tracing.install(tracer)
        else:
            tracing.install_computed(tracer)
        main = sys.modules["z2forms.cli"].main

    rounds = plan["rounds"]
    out_dir = work / "out"
    jobs = []
    devnull = open(os.devnull, "w")
    real_stdout, real_stderr = sys.stdout, sys.stderr
    sys.stdout = sys.stderr = devnull
    start = time.perf_counter()
    try:
        done = 0
        while True:
            for job in rounds[done % len(rounds)]:
                argv = ["verify", "--spec", str(spec_dir / f"{job['spec']}.json"),
                        "--suite", job["suite"], "--seed", str(job["seed"]),
                        "--out", str(out_dir / str(len(jobs)))]
                if job["grid"]:
                    argv += ["--grid", str(job["grid"])]
                error = None
                t0 = time.perf_counter()
                try:
                    code = main(argv)
                except (Exception, SystemExit) as exc:
                    code, error = None, f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
                jobs.append({"code": code, "error": error,
                             "latency_s": t1 - t0, **job})
            done += 1
            elapsed = time.perf_counter() - start
            if done >= len(rounds) and \
                    elapsed * (done + 1) / done > plan["seconds"]:
                break
    finally:
        sys.stdout, sys.stderr = real_stdout, real_stderr
        devnull.close()
    loop_s = time.perf_counter() - start
    return {
        "jobs": jobs,
        "rounds": done,
        "loop_s": loop_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": environment(),
        "trace": tracer.dump() if tracer else None,
    }


def environment() -> dict:
    import numpy
    import scipy

    def blas(config):
        info = config.get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "nproc": len(os.sched_getaffinity(0)),
    }


if __name__ == "__main__":
    plan = json.loads(Path(sys.argv[1]).read_text())
    result = run(plan)
    if result:
        (Path(plan["workdir"]) / "result.json").write_text(json.dumps(result))
