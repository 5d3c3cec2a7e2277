"""netreg benchmark: end-to-end metrics per workload, or a per-layer trace.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {desk,large_n,queries} --seed N \
        --seconds S --trace {0,1}

The library is imported from ``src/`` of the checkout and reached only
through its public functions and the CLI.  Jobs run single-process and
closed-loop (each starts when the previous one ends).  Whole passes over
the workload's jobs repeat while another pass fits in ``--seconds``; at
least one pass always runs.  Outputs are checked after each pass, outside
the timed region.  BLAS runs one thread.  End-to-end times are scaled to
the host's full speed by ``calibration.Speedometer``; the provenance line
also gives them unscaled.

``--trace 0`` prints the end-to-end metrics (see ``END_TO_END``).
``--trace 1`` runs one untraced set-up and pass, then the same traced, and
prints per-layer calls, total and self time, computed kernel work and the
tracing overhead (traced wall minus untraced wall).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a provenance line
and a readable table come before it.  See ``bench/README.md``.
"""

import argparse
import ctypes
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

# one BLAS thread, set before numpy loads OpenBLAS: on a host of few shared
# cores a second thread runs on another core at another speed than the main one
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import calibration  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_tmp"

# name -> unit
END_TO_END = {
    "rows_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "fraction",
}


def fresh_library():
    """Import netreg (and its CLI) from the checkout's ``src/`` as if for the
    first time; set-up time includes this import."""
    for name in [m for m in sys.modules if m == "netreg" or m.startswith("netreg.")]:
        del sys.modules[name]
    netreg = importlib.import_module("netreg")
    if Path(netreg.__file__).resolve().parent != (SRC / "netreg").resolve():
        raise ImportError(f"netreg imported from {netreg.__file__}, not from {SRC}")
    importlib.import_module("netreg.cli")
    return netreg


def run_jobs(jobs, tracer=None):
    """One closed-loop pass: [(label, start, seconds, result or exception)]."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    results = []
    for label, call in jobs:
        with span("job"):
            start = time.perf_counter()
            try:
                result = call()
            except Exception as err:  # a failing job is counted, the pass goes on
                result = err
            elapsed = time.perf_counter() - start
        results.append((label, start, elapsed, result))
    return results


def check_pass(workload, state, results):
    tally = workloads.Tally()
    workload.check(state, [(label, result) for label, _, _, result in results], tally)
    return tally


def timed_setup(workload, seed):
    """(start, seconds, state) of one set-up."""
    start = time.perf_counter()
    state = workload.setup(fresh_library(), seed, WORKDIR)
    return start, time.perf_counter() - start, state


def timed_pass(workload, state, tracer=None):
    """Run and check one pass: (wall, [(start, seconds)] per job, tally).
    Only its timings and tally outlive it, so one pass's outputs are not
    held in memory during the next.  A tracer is removed before the check,
    so the check's numpy calls are not traced."""
    gc.collect()
    start = time.perf_counter()
    results = run_jobs(state.jobs, tracer)
    wall = time.perf_counter() - start
    if tracer:
        tracer.uninstall()
    return wall, [(begin, elapsed) for _, begin, elapsed, _ in results], check_pass(workload, state, results)


def _timing_metrics(passes, setups, ok_rows):
    """Rate, latency percentiles and set-up time from each pass's job times
    and the set-up times, in seconds."""
    # a typical pass: each job's mean time across passes; the mean, as for
    # the calibration samples, because a job runs at one of the host's two
    # speeds in each pass and a median would pick one of them
    typical = [statistics.fmean(times) for times in zip(*passes)]
    cuts = statistics.quantiles(typical, n=100, method="inclusive")
    return {
        "rows_per_s": ok_rows / sum(typical),
        "request_p50_ms": 1e3 * cuts[49],
        "request_p95_ms": 1e3 * cuts[94],
        "setup_s": statistics.median(setups),
    }


def end_to_end(workload, seed, seconds):
    meter = calibration.Speedometer()
    setups, walls, passes, tallies = [], [], [], []
    meter.start()
    try:
        for _ in range(workload.setup_repeats):
            state = None  # release the previous set-up before the next one
            *timing, state = timed_setup(workload, seed)
            setups.append(timing)
        while not walls or sum(walls) + statistics.median(walls) <= seconds:
            wall, timings, tally = timed_pass(workload, state)
            walls.append(wall)
            passes.append(timings)
            tallies.append(tally)
    finally:
        meter.stop()

    def scaled(timings):
        return [took * meter.factor(start, start + took) for start, took in timings]

    def unscaled(timings):
        return [took for _, took in timings]

    ok_rows = statistics.median(t.attempted - t.failed for t in tallies)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    metrics = {
        **_timing_metrics([scaled(p) for p in passes], scaled(setups), ok_rows),
        "peak_rss_mb": peak_rss_mb,
        "ok_frac": (attempted - failed) / attempted,
    }
    info = {
        "passes": len(walls),
        "pass_wall_s": walls,
        "jobs_per_pass": len(passes[0]),
        "setups": len(setups),
        "calibration_reference_s": calibration.REFERENCE_S,
        "calibration_samples": len(meter.samples),
        "calibration_factor": meter.factor(),
        "unscaled": _timing_metrics([unscaled(p) for p in passes], unscaled(setups), ok_rows),
        "largest_n": state.largest_n,
    }
    return {name: (value, END_TO_END[name]) for name, value in metrics.items()}, tallies, info


def traced(workload, seed):
    _, setup_s, state = timed_setup(workload, seed)
    pass_s, _, tally = timed_pass(workload, state)
    untraced = setup_s + pass_s
    tallies = [tally]

    state = None
    gc.collect()
    tracer = spans.Tracer()
    start = time.perf_counter()
    try:
        with tracer.span("setup"):
            netreg = fresh_library()
            tracer.install()
            state = workload.setup(netreg, seed, WORKDIR)
        setup_s = time.perf_counter() - start
        pass_s, _, tally = timed_pass(workload, state, tracer)
    finally:
        tracer.uninstall()
    traced_wall = setup_s + pass_s
    tallies.append(tally)

    metrics = {}
    summary = tracer.summary()
    for name in spans.SPAN_NAMES:
        calls, total, own = summary[name]
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.total_s"] = (total, "s")
        metrics[f"{name}.self_s"] = (own, "s")
    for name, unit in spans.WORK_COUNTERS.items():
        metrics[name] = (tracer.work[name], unit)
    metrics["trace.untraced_s"] = (untraced, "s")
    metrics["trace.traced_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced, "s")
    top = max(spans.SPAN_NAMES, key=lambda name: summary[name][2])
    return metrics, tallies, {"largest_self_time": top, "largest_n": state.largest_n}


# -- provenance ---------------------------------------------------------------


def _blas_threads():
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def _cache_bytes():
    """L1d/L2/L3 sizes from the C library's sysconf (cpuid on x86)."""
    libc = ctypes.CDLL(None)
    names = {"l1d": 188, "l2": 191, "l3": 194}  # _SC_LEVEL{1_D,2,3}CACHE_SIZE
    return {name: int(libc.sysconf(code)) for name, code in names.items()}


def provenance(args, workload, largest_n):
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed if workload.seeded else None,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "cache_bytes": _cache_bytes(),
        "largest_matrix": {"n": largest_n, "bytes": 8 * largest_n * largest_n},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "netreg" / "__init__.py").is_file():
        print(f"error: no netreg package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    shutil.rmtree(WORKDIR, ignore_errors=True)
    try:
        if args.trace:
            metrics, tallies, info = traced(workload, args.seed)
        else:
            metrics, tallies, info = end_to_end(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    problems = [p for t in tallies for p in t.problems]
    print(json.dumps({"provenance": provenance(args, workload, info.pop("largest_n")), "run": info}))
    for problem in problems[:20]:
        print(f"problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:44s} {value:>14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": all(t.wrong == 0 for t in tallies),
                "attempted": sum(t.attempted for t in tallies),
                "failed": sum(t.failed for t in tallies),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
