"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. With --trace 0 the whole run is untraced and
the result line carries the end-to-end metrics. With --trace 1 the run
alternates untraced and traced blocks, and the result line carries the
per-layer metrics. The last line of standard output is the JSON result.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 5        # this process plus four fresh child processes
SETUP_PROBES = 10        # pow probes right after each set-up; set-up is mostly desk512()
PROBE_EVERY_S = 0.04     # the longest stretch of operations between two probe points
TRACE_BLOCKS = 10        # a traced run alternates untraced and traced blocks, so
                         # that drift in machine speed does not bias the overhead


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sessions_short", "bulk_seal", "audit", "cli_session"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set the workload up, print the set-up time and exit")
    return parser.parse_args(argv)


def measure(workload, seconds: float, tracer=None, run=None):
    """Closed loop: one operation at a time until `seconds` have passed, with a
    probe point (probe.py) at the start, the end and every PROBE_EVERY_S between."""
    from workloads import Run

    run = run or Run()
    run.probe(0.0)
    last = time.perf_counter()
    deadline = time.perf_counter() + seconds
    while True:
        workload.step(run, tracer)
        now = time.perf_counter()
        done = now >= deadline
        if done or now - last >= PROBE_EVERY_S:
            run.probe(now - last)
            last = time.perf_counter()
        if done:
            return run


def setup_in_child(workload: str, seed: int) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    setup = json.loads(proc.stdout.strip().splitlines()[-1])
    return setup["setup_s"], setup["speed_factor"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def print_lines(title: str, values: dict) -> None:
    print(title)
    for name, (value, unit) in values.items():
        print(f"  {name:<52} {value:>16.6g} {unit}")


def untraced(args, workload, setup: tuple[float, float]):
    import metrics

    run = measure(workload, args.seconds)
    rss = peak_rss_mb()
    samples = [setup] + [setup_in_child(args.workload, args.seed)
                         for _ in range(SETUP_SAMPLES - 1)]
    setup_ref_s = statistics.median(s / f for s, f in samples)
    values = metrics.end_to_end(run, workload.PROBE, setup_ref_s, rss)
    units = metrics.END_TO_END
    print_lines(f"{args.workload} seed {args.seed}: end-to-end, {len(run.sessions)} sessions",
                {k: (v, units[k]) for k, v in values.items()})
    print_lines("as measured, and workload-specific (not in the result line):",
                {"setup_s.as_measured": (statistics.median(s for s, _ in samples), "s"),
                 **metrics.end_to_end_report(run, workload.PROBE)})
    return run.attempted, run.failed, run.errors, values, units


def traced(args, workload):
    import metrics
    import workloads
    from tracing import SpanSummary, Tracer
    from workloads import Run

    base, run, tracer = Run(), Run(), Tracer()
    block = args.seconds / TRACE_BLOCKS
    for i in range(TRACE_BLOCKS):
        if i % 2 == 0:
            measure(workload, block, run=base)
            continue
        workloads.instrument(tracer, workload)
        tracer.recording = True
        try:
            measure(workload, block, tracer, run)
        finally:
            tracer.recording = False
            tracer.restore()
    summary = SpanSummary(tracer.spans)
    values = metrics.per_layer(summary, run, base, workload.PROBE)
    units = metrics.PER_LAYER
    report = metrics.per_layer_report(summary, run)
    print_lines(f"{args.workload} seed {args.seed}: per-layer, {len(run.sessions)} traced sessions,"
                f" {len(tracer.spans)} spans", {k: (v, units[k]) for k, v in values.items()})
    print_lines("all traced functions and workload-specific layers:", report)
    print("\n".join(metrics.baseline_lines(summary, args.workload)))
    tracer.write(OUT / f"{args.workload}.spans.jsonl.gz")
    (OUT / f"{args.workload}.trace.json").write_text(json.dumps({
        "seed": args.seed, "per_layer": values,
        "report": {k: v for k, (v, _) in report.items()}}, indent=1) + "\n")
    return (base.attempted + run.attempted, base.failed + run.failed,
            base.errors + run.errors, values, units)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "blindsigncrypt" / "__init__.py").is_file():
        print(f"perfbench: no library at {SRC}/blindsigncrypt; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from probe import run_probe, speed_factor

    OUT.mkdir(exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
    setup_s = time.perf_counter() - _T0
    try:
        factor = statistics.median(speed_factor("pow", run_probe()) for _ in range(SETUP_PROBES))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "speed_factor": factor}))
            return 0
        if args.trace:
            attempted, failed, errors, values, units = traced(args, workload)
        else:
            attempted, failed, errors, values, units = untraced(args, workload, (setup_s, factor))
    finally:
        workload.close()
    for error in errors:
        print(error, file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
