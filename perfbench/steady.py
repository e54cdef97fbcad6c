"""Steadiness check: do repeated runs agree within the bounds?

Usage (from the repository root)::

    python3 perfbench/steady.py [--runs 10] [--first-seed 1]
                                [--workloads cold_stream,warm_zipf]
                                [--save FILE] [--compare FILE]

Runs ``run.py`` *runs* times per workload, one after another, each on
its own seed, and prints for every end-to-end metric of
``BENCHMARK.json`` the median, the spread (the distance between the
first and third quartile over the median, as
``statistics.quantiles(values, n=4)`` gives them) and the metric's
bound.  With ``--compare`` it also prints how far each median moved
from the medians saved by an earlier ``--save``.

Exit status 1 when a spread exceeds its bound, a compared median moved
(either way) by more than its bound, a run reports wrong answers, or
the share of failed checks differs between runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _one(workload, seed, seconds):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit("run failed (%s seed %d):\n%s"
                         % (workload, seed, done.stderr[-2000:]))
    lines = done.stdout.strip().splitlines()
    record = json.loads(lines[-2])["run_record"]
    for wrong in record.get("wrong", []):
        print("  wrong answer (%s): %s\n    sup %s\n    sub %s" % (
            wrong["family"], wrong["reason"], wrong["sup"], wrong["sub"]))
    return json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: all)")
    parser.add_argument("--save", default=None,
                        help="write the per-run values to this JSON file")
    parser.add_argument("--compare", default=None,
                        help="compare medians with a file from --save")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    names = ([w["name"] for w in bench["workloads"]]
             if args.workloads is None else args.workloads.split(","))
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    earlier = {}
    if args.compare:
        with open(args.compare) as handle:
            earlier = json.load(handle)
    saved = {}
    ok = True
    for workload in names:
        results = []
        for i in range(args.runs):
            result = _one(workload, args.first_seed + i,
                          bench["run_seconds"])
            results.append(result)
            print("%s seed %d: %s" % (workload, args.first_seed + i, " ".join(
                "%s=%.4g" % (k, v["value"])
                for k, v in result["metrics"].items())), flush=True)
        shares = {(r["failed"], r["attempted"]) for r in results}
        ratios = {f / a for f, a in shares}
        wrong = [r for r in results if not r["correct"]]
        print("%s: failed/attempted %s%s" % (
            workload, sorted(shares),
            "" if len(ratios) == 1 else "  <- the share differs"))
        if len(ratios) != 1 or wrong:
            ok = False
        if wrong:
            print("%s: %d run(s) gave wrong answers" % (workload, len(wrong)))
        values = {name: [r["metrics"][name]["value"] for r in results]
                  for name in bounds}
        saved[workload] = values
        print("%-18s %12s %8s %8s %9s" % (
            "metric", "median", "spread", "bound", "vs saved"))
        for name, spec in bounds.items():
            median = statistics.median(values[name])
            s = spread(values[name])
            flag = ""
            if s > spec["bound"]:
                flag, ok = "  <- spread above bound", False
            moved = ""
            if workload in earlier:
                before = statistics.median(earlier[workload][name])
                change = (median - before) / before
                moved = "%+8.1f%%" % (change * 100)
                if abs(change) > spec["bound"]:
                    flag, ok = flag + "  <- median moved from saved", False
            print("%-18s %12.4f %7.1f%% %7.1f%% %9s%s" % (
                name, median, s * 100, spec["bound"] * 100, moved, flag))
    if args.save:
        with open(args.save, "w") as handle:
            json.dump(saved, handle, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
