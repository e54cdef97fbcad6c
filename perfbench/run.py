"""The containment engine's benchmark: one run of one workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_stream --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` times the workload untraced and prints the end-to-end
metrics; ``--trace 1`` times a fixed number of rounds untraced and as
many with the per-layer span wrappers of ``layers.py`` recording, and
prints the per-layer metrics (plus the per-layer self-time table, and
writes a Chrome trace under ``perfbench/out/``).  Either way every
answer is then checked by the verdict oracle (``oracle.py``).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (``{name: {value, unit}}``).
The line before it is the run record (interpreter, platform, CPU
count, commit, seed, ``PYTHONHASHSEED``, raw unscaled figures).
"""

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from calibrate import speed_factor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-ups per run.  ``setup_s`` is the median time a fresh interpreter
#: takes to start and import the program, plus the median time of the
#: workload's own set-up (input generation, engine or server start and
#: the warming it declares).
SETUPS = 5


def _commit():
    """The checkout's commit when it is a git work tree, else unknown."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown"


def _record(args, extra):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "commit": _commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
        **extra,
    }


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold_stream", "warm_zipf", "service_http"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _start_seconds():
    """Median wall time, at the reference speed, of a fresh interpreter
    that imports the engine and the service and exits."""
    code = ("import sys; sys.path.insert(0, %r); "
            "import repro.engine, repro.service" % SRC)
    times = []
    for _ in range(SETUPS):
        before = speed_factor()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        elapsed = time.perf_counter() - start
        times.append(elapsed * (before + speed_factor()) / 2)
    return statistics.median(times)


def _make(name, seed):
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    if name == "service_http":
        return cls(seed, ROOT)
    return cls(seed)


def _setup(args, trace_out):
    """Set the workload up :data:`SETUPS` times (keeping the last);
    returns it with each set-up's time at the reference speed."""
    times = []
    workload = None
    for _ in range(SETUPS):
        if workload is not None:
            workload.close()
            workload = None
            gc.collect()
        before = speed_factor()
        start = time.perf_counter()
        workload = _make(args.workload, args.seed)
        if trace_out is not None:
            workload.setup(trace_out=trace_out)
        else:
            workload.setup()
        elapsed = time.perf_counter() - start
        times.append(elapsed * (before + speed_factor()) / 2)
    return workload, times


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no program source at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import metrics
    import workloads

    import_s = _start_seconds()
    out_dir = workloads.OUT
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d" % (args.workload, args.seed))
    service_trace = None
    if args.trace and args.workload == "service_http":
        service_trace = stem + "-server.json"
    workload, setup_times = _setup(args, service_trace)
    setup_s = import_s + statistics.median(setup_times)
    try:
        if args.trace:
            result, extra = metrics.traced_run(workload, stem, service_trace)
        else:
            blocks = workload.run(args.seconds)
            peak = workload.peak_rss_mb()
            result = workloads.end_to_end(setup_s, blocks, peak)
            extra = {"raw": workloads.raw_figures(blocks),
                     "setup_runs_s": [round(t, 4) for t in setup_times],
                     "import_s": round(import_s, 4)}
    finally:
        workload.close()
    oracle_start = time.perf_counter()
    gc.collect()
    gc.disable()  # the oracle builds no cycles; spare it full collections
    try:
        attempted, failed, failures = workload.judge()
    finally:
        gc.enable()
    extra["oracle_s"] = round(time.perf_counter() - oracle_start, 3)
    extra["wrong"] = [
        {"family": check.family, "reason": reason, "sup": check.sup,
         "sub": check.sub}
        for check, reason in failures[:5]]
    print(json.dumps({"run_record": _record(args, extra)}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
