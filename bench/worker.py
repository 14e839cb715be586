"""One measured pass in a fresh interpreter.

Started by ``run.py`` with the library's ``src`` directory on
``PYTHONPATH``.  It imports the library, builds the workload (parsing its
recipes and slopes) and prints ``ready``, which ``run.py`` times as
set-up.  Then, unless ``--setup-only`` is given, it runs every operation
of the workload once, checks every result, and prints one JSON line of
raw results: timings, failures, peak resident set and, with
``--trace 1``, the per-layer spans.
"""

import argparse
import json
import os
import resource
import sys
import time

import numpy as np

import oracle
import tracer as tracing
import workloads

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "digests.json")


def check(op, result, digests):
    """None when the result is right, else the reason.

    ``digests`` maps operation names to the digests frozen at the seed
    commit.
    """
    try:
        problem = op.check(result)
        if problem is None and op.canon is not None:
            if oracle.digest(op.canon(result)) != digests.get(op.name):
                problem = "digest differs from the one frozen at the seed commit"
    except Exception as exc:  # a check that cannot parse the result failed it
        problem = f"check raised {type(exc).__name__}: {exc}"
    return problem


def run_pass(workload, digests, tracer=None):
    """Run every operation once; return the timings and every failure.

    ``times`` holds each operation's time, in the order of the operations;
    ``wall`` is their sum.
    """
    times = []
    latencies = []
    failures = []
    for op in workload.ops:
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # counted as a failed operation, not fatal
            times.append(time.perf_counter() - t0)
            failures.append((op.name, f"raised {type(exc).__name__}: {exc}"))
            continue
        dt = time.perf_counter() - t0
        times.append(dt)
        if op.cert:
            latencies.append(dt)
        if tracer is not None and isinstance(result, workloads.CliResult):
            tracer.add("cli.stdout_bytes", len(result.out.encode("utf-8")))
        problem = check(op, result, digests)
        if problem is not None:
            failures.append((op.name, "wrong result: " + problem))
    return {"wall": sum(times), "times": times, "latencies": latencies,
            "failures": failures, "attempted": len(workload.ops)}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import abelianwords
    import abelianwords.cli
    workload = workloads.Workload(abelianwords, args.workload, args.seed,
                                  args.size)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    with open(DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)[args.size]
    if args.trace:
        tracer = tracing.Tracer(abelianwords)
        with tracer.installed():
            result = run_pass(workload, digests, tracer)
        result["trace"] = tracer.snapshot()
    else:
        result = run_pass(workload, digests)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    result["numpy"] = np.__version__
    result["python"] = sys.version.split()[0]
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
