"""Benchmark of holocheck's certification run, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify_default --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout.  A run measures set-up
(a fresh interpreter that imports holocheck and builds the inputs, repeated
and reported as the median), then repeats passes over the workload's fixed
operation list for ``--seconds`` seconds (at least two passes) and reports
the median pass.  With ``--trace 1`` it adds one traced pass after the timed
ones and reports per-layer figures instead of the end-to-end ones.  The last
line of standard output is one JSON object; diagnostics go to standard error.
"""

from __future__ import annotations

import os

# One BLAS thread: the matrices are 3x3, and OpenBLAS would otherwise start up
# to nproc threads that only add noise.  Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
MIN_PASSES = 2
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Shrinks every input list; used by the benchmark's own tests.
    p.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    # Child mode that only imports and builds; its wall time is setup_s.
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import holocheck from this checkout's src/, or fail."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import holocheck
        import workloads
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import holocheck from {src}: {exc}")
    origin = Path(holocheck.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: holocheck imported from {origin}, not from {src}")
    return workloads


def time_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0"] + (["--tiny"] if args.tiny else [])
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # No timeout: with one, subprocess polls in sleeps of up to 50 ms,
        # which would quantize the measurement.
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def steal_ticks():
    """Host steal ticks from /proc/stat, or None where it is unreadable."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def traced_pass(wl, args, inputs, memo, untraced_s):
    import tracer

    with tracer.Tracer() as tr:
        t0 = time.perf_counter()
        outcome = wl.run_pass(args.workload, inputs, memo)
        traced_s = time.perf_counter() - t0
    metrics = tracer.per_layer_metrics(tr, traced_s, untraced_s, outcome.stats)
    table = tr.table()
    accounted = sum(row["self_s"] for row in table.values())
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "traced_s": traced_s,
        "untraced_median_s": untraced_s, "span_self_sum_s": accounted,
        "spans": len(tr.span_start), "names": table, "metrics": metrics,
    }, indent=1) + "\n")
    print(f"perfbench: traced pass {traced_s:.3f} s; span self times "
          f"{accounted:.3f} s + outside spans "
          f"{metrics['trace.outside_s']['value']:.3f} s; "
          f"{len(tr.span_start)} spans; written to {path.relative_to(ROOT)}",
          file=sys.stderr)
    return outcome, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = import_program()
    if args.workload not in wl.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(wl.WORKLOADS)}")
    if args.setup_only:
        wl.build(args.workload, args.seed, args.tiny)
        return 0

    setup_s = time_setup(args)
    inputs = wl.build(args.workload, args.seed, args.tiny)
    memo = {}
    attempted = failed = 0
    problems = []
    pass_times = []
    steal0 = steal_ticks()
    t_start = time.perf_counter()
    while (len(pass_times) < MIN_PASSES
           or time.perf_counter() - t_start < args.seconds):
        t0 = time.perf_counter()
        outcome = wl.run_pass(args.workload, inputs, memo)
        pass_times.append(time.perf_counter() - t0)
        attempted += outcome.attempted
        failed += outcome.failed
        problems += outcome.problems
    steal1 = steal_ticks()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pass_s = statistics.median(pass_times)

    if args.trace:
        outcome, metrics = traced_pass(wl, args, inputs, memo, pass_s)
        attempted += outcome.attempted
        failed += outcome.failed
        problems += outcome.problems
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": pass_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }

    for line in problems[:20]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    steal = "n/a" if steal0 is None or steal1 is None else steal1 - steal0
    print(f"perfbench: {args.workload} seed {args.seed}: {len(pass_times)} passes "
          f"[{', '.join(f'{t:.3f}' for t in pass_times)}] s; setup {setup_s:.3f} s; "
          f"steal ticks {steal}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
