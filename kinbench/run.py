"""fcdbn benchmark: one workload per process, timed untraced or traced.

    python3 kinbench/run.py --workload train-fc --seed 1 --seconds 20 --trace 0

Run from the repository root; fcdbn is imported from ``src/`` next to this
directory. With ``--trace 0`` the workload is set up several times (median
set-up time) and its job repeated in whole rounds until ``--seconds`` have
passed (median round time); the last stdout line is a JSON object with the
end-to-end metrics. With ``--trace 1`` every public fcdbn function is
wrapped (see tracer.py), the workload is set up once and its job run once,
and the JSON line holds the per-layer metrics; the full call table goes to
``.kinbench/trace-<workload>-seed<n>.json``.
"""
from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".kinbench")
SETUP_REPEATS = 5


def _import_program():
    """Import fcdbn from this checkout's src/, or exit 2 if it is not there."""
    if not os.path.isfile(os.path.join(SRC, "fcdbn", "__init__.py")):
        print(f"kinbench: no fcdbn sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)
    import fcdbn
    if os.path.dirname(os.path.dirname(os.path.abspath(fcdbn.__file__))) != SRC:
        print(f"kinbench: fcdbn imported from {fcdbn.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(workload, log, repeats):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            workload.setup()
        times.append(time.perf_counter() - start)
    return times


def _round(workload, log, tracer=None):
    start = time.perf_counter()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        out = workload.run()
    elapsed = time.perf_counter() - start
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log), \
            (tracer.paused() if tracer else contextlib.nullcontext()):
        tally = workload.check(out)
    return elapsed, tally


def _summary(tallies):
    problems = [p for t in tallies for p in t.problems]
    for p in sorted(set(problems)):
        print(f"kinbench: check failed: {p}", file=sys.stderr)
    for t in tallies[:1]:
        for key, value in sorted(t.notes.items()):
            print(f"kinbench: {key} = {value}", file=sys.stderr)
    return {"correct": not problems,
            "attempted": sum(t.attempted for t in tallies),
            "failed": sum(t.failed for t in tallies)}


def run_untraced(workload, seconds, log):
    setup_times = _setup(workload, log, SETUP_REPEATS)
    round_times, tallies = [], []
    start = time.perf_counter()
    while not round_times or time.perf_counter() - start < seconds:
        elapsed, tally = _round(workload, log)
        round_times.append(elapsed)
        tallies.append(tally)
        gc.collect()
    model_mb = os.path.getsize(workload.model_path) / 1e6
    print(f"kinbench: {workload.name} setups {setup_times} rounds {round_times}",
          file=sys.stderr)
    result = _summary(tallies)
    result["metrics"] = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "job_s": {"value": statistics.median(round_times), "unit": "s"},
        "peak_rss_mb": {"value": _peak_rss_mb(), "unit": "MB"},
        "model_mb": {"value": model_mb, "unit": "MB"},
    }
    return result


def run_traced(workload, seed, log):
    import tracer as tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        setup_s = _setup(workload, log, 1)[0]
        values, absent = tracing.read_metrics(tracer, "setup")
        setup_table = tracer.table()
        tracer.reset()
        job_s, tally = _round(workload, log, tracer)
        job_values, job_absent = tracing.read_metrics(tracer, "job")
        values.update(job_values)
        absent.update(job_absent)
        job_table = tracer.table()
    finally:
        tracer.uninstall()
    print(f"kinbench: {workload.name} traced setup {setup_s} job {job_s}",
          file=sys.stderr)
    for name, why in sorted(absent.items()):
        print(f"kinbench: per-layer metric {name} absent ({why})",
              file=sys.stderr)
    report = {"workload": workload.name, "seed": seed,
              "traced_setup_s": setup_s, "traced_job_s": job_s,
              "metrics": {k: v for k, (v, _) in values.items()},
              "absent": absent, "setup": setup_table, "job": job_table}
    path = os.path.join(OUT, f"trace-{workload.name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    result = _summary([tally])
    result["metrics"] = {k: {"value": v, "unit": unit}
                         for k, (v, unit) in values.items()}
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        with open(os.path.join(workdir, "program.log"), "w",
                  encoding="utf-8") as log:
            if args.trace:
                result = run_traced(workload, args.seed, log)
            else:
                result = run_untraced(workload, args.seconds, log)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
