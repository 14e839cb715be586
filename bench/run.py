"""Benchmark of abelianwords: time to a verified result on four workloads.

Run from the repository root:

    python3 bench/run.py --workload profile-binary --seed 1 --seconds 30 --trace 0

Workloads: profile-binary, profile-multiletter, powers-certify,
generate-long (see workloads.py and README.md).  Each pass over a
workload's operations runs in a fresh interpreter (worker.py), and passes
start while the next one is expected to end within ``--seconds``.  Every
process also times its own set-up: from start until the library is
imported and the workload's recipes and slopes are parsed.

With ``--trace 0`` the last line of stdout reports the end-to-end metrics
(``wall_s`` from each operation's upper quartile over the passes, the
others medians), with ``--trace 1`` the per-layer metrics from spans
recorded around the library's public functions; traced passes alternate
with untraced ones so the tracing overhead is measured too.  The lines
before the last are a readable report.  Exit code 0 means the run
completed; failed or wrong operations are counted in the result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 7   # set-up times per run, from passes plus set-up-only starts
TIME_LIMIT = 170.0  # seconds a whole run may take


def git_sha():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]),
                      encoding="ascii") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def start_process(args, env, *extra, deadline):
    """Run worker.py once; return its set-up time and its last stdout line."""
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, *extra]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, env=env, cwd=ROOT,
                          stdout=subprocess.PIPE) as proc:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        try:
            out, _ = proc.communicate(
                timeout=max(1.0, deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError("worker ran past the time limit") from None
    if proc.returncode != 0 or ready.strip() != b"ready":
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def measure(args, env, limit):
    """Passes while the next one is expected to end within ``--seconds``;
    at least three untraced ones, or one of each kind when tracing."""
    deadline = time.perf_counter() + args.seconds
    passes, setups, lengths = [], [], []
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        setup, res = start_process(args, env, "--trace", str(int(traced)),
                                   deadline=limit)
        lengths.append(time.perf_counter() - t0)
        res["traced"] = traced
        passes.append(res)
        setups.append(setup)
        if (len(passes) >= (2 if args.trace else 3)
                and time.perf_counter() + max(lengths) > deadline):
            return passes, setups


def upper_quartile(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def pass_time(passes):
    """Time of one pass: the sum over operations of each one's upper
    quartile over the run's passes.

    On a shared host the same pass runs up to a third faster in the
    bursts when neighbours leave spare capacity.  How many passes of a
    30 s run such a burst covers is luck, and the median follows it; the
    upper quartile reads the host's usual speed unless bursts cover three
    quarters of the run.  Taken per operation, it also damps a stall that
    hits one operation in one pass.
    """
    return sum(upper_quartile(ts)
               for ts in zip(*(p["times"] for p in passes)))


def summarize(args, passes, setups):
    """End-to-end or per-layer metrics, plus the figures only reported."""
    plain = [p for p in passes if not p["traced"]]
    wall = pass_time(plain)
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    shown = {"error_rate": (len(failures) / attempted, "ratio")}
    latencies = [t * 1e3 for p in plain for t in p["latencies"]]
    if latencies:
        shown["cert_p50_ms"] = (statistics.median(latencies), "ms")
        shown["cert_p99_ms"] = (statistics.quantiles(latencies, n=100)[98],
                                "ms")
    if args.trace:
        traced = [p for p in passes if p["traced"]]
        metrics = {
            name: (statistics.median(p["trace"][1][name] for p in traced),
                   tracer.UNITS[name])
            for name in tracer.METRICS if name != "trace.overhead_ratio"}
        metrics["trace.overhead_ratio"] = (
            pass_time(traced) / wall, "ratio")
        shares = tracer.self_shares(traced[-1]["trace"][0])
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain),
                            "MiB"),
        }
        shares = None
    return metrics, shown, failures, len(latencies), shares


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="abelianwords benchmark (see bench/README.md)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "toy"), default="full",
                    help="toy runs every operation at a tiny size (self-test)")
    args = ap.parse_args(argv)

    limit = time.perf_counter() + TIME_LIMIT
    if not os.path.isfile(os.path.join(SRC, "abelianwords", "__init__.py")):
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        # the first start compiles bytecode, which users pay only once
        start_process(args, env, "--setup-only", deadline=limit)
        passes, setups = measure(args, env, limit)
        if not args.trace:
            while len(setups) < SETUP_SAMPLES:
                setups.append(start_process(args, env, "--setup-only",
                                            deadline=limit)[0])
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics, shown, failures, samples, shares = summarize(args, passes, setups)

    first = passes[0]
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size} git={git_sha()} "
          f"nproc={len(os.sched_getaffinity(0))} python={first['python']} "
          f"numpy={first['numpy']}")
    print(f"# passes={len(passes)} walls="
          + ",".join(f"{p['wall']:.3f}{'t' if p['traced'] else ''}"
                     for p in passes)
          + f" setup samples={len(setups)} cert samples={samples}")
    for name, why in sorted(dict(failures).items()):
        print(f"# failed {name}: {why}")
    if shares is not None:
        layers, spans = shares
        for name, share in sorted(layers.items(), key=lambda kv: -kv[1]):
            print(f"# layer {name:10s} self share {share:7.2%}")
        for name, share in sorted(spans.items(), key=lambda kv: -kv[1])[:8]:
            print(f"# span  {name:40s} self share {share:7.2%}")
    for name, (value, unit) in {**metrics, **shown}.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not any(why.startswith("wrong") for _, why in failures),
        "attempted": sum(p["attempted"] for p in passes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
