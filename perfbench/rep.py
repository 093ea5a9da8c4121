"""One repetition of one workload, in a fresh process.

Run by ``run.py``; prints one JSON object on its last stdout line.
A fresh process per repetition gives every repetition the cold import
and cold solve caches a command-line run pays.

    python3 perfbench/rep.py --workload fleet-steady --seed 7 \
        [--traced --spans PATH] | [--validate]
"""

import time

import yardstick

# The host's speed at the start of this repetition.  Timed before the
# set-up starts, so it counts in neither setup_s nor the peak memory.
YARDSTICK_BEFORE = yardstick.measure()

# Set-up time counts from here, before any import of the program, so
# a slower import shows in setup_s.
START = time.perf_counter()
START_CPU = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _cpu_s() -> float:
    """CPU seconds of this process and every child it has waited for.

    Unlike wall time, CPU time leaves out the time the process waited
    for a CPU: other processes on the machine, and on a virtual machine
    the time the host ran other guests (steal time).  Children count,
    so work moved into a helper process still shows.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _traced_run(job, spans_path: str | None):
    from harness import Recorder, durations_of, patched, summarize
    from layers import PERCENTILE_CALLS, resolve_targets
    from repro.obs import NULL_TRACER, MetricsRegistry, observing

    recorder = Recorder()
    targets = resolve_targets()
    with patched(targets, recorder.wrap):
        with observing(NULL_TRACER, MetricsRegistry()) as (_, registry):
            started = time.perf_counter()
            result = job.run()
            wall = time.perf_counter() - started
    summary = summarize(recorder.spans, wall)
    summary["counters"] = registry.snapshot()["counters"]
    summary["durations"] = {
        name: durations_of(recorder.spans, name)
        for name in PERCENTILE_CALLS
    }
    if spans_path:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"wall_s": wall, "spans": recorder.spans}, handle)
    return result, wall, summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--validate", action="store_true")
    args = parser.parse_args()

    import workloads

    if args.validate:
        job = workloads.build_validation()
    else:
        job = workloads.WORKLOADS[args.workload].build(args.seed)
    setup = time.perf_counter() - START
    setup_cpu = time.process_time() - START_CPU

    trace = cpu = None
    if args.traced:
        result, wall, trace = _traced_run(job, args.spans)
    else:
        started = time.perf_counter()
        cpu_started = _cpu_s()
        result = job.run()
        wall = time.perf_counter() - started
        cpu = _cpu_s() - cpu_started
    # Read before the second yardstick, which allocates.
    peak_rss = _peak_rss_mb()
    yardsticks = [YARDSTICK_BEFORE, yardstick.measure()]

    outcome = job.check(result)
    if trace is not None:
        trace["inputs"] = outcome.layer_inputs
    print(json.dumps({
        "setup_s": setup,
        "setup_cpu_s": setup_cpu,
        "wall_s": wall,
        "cpu_s": cpu,
        "yardstick_s": yardsticks,
        "peak_rss_mb": peak_rss,
        "operations": outcome.operations,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "fingerprint": outcome.fingerprint,
        "outputs": outcome.outputs,
        "model_abs_error": outcome.model_abs_error,
        "trace": trace,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
