"""Benchmark launcher: one workload, one seed, one run.

    python3 perfbench/run.py --workload fleet-steady --seed 1 \
        --seconds 40 --trace 0

Run from the root of a source checkout.  Each repetition runs in a
fresh ``rep.py`` process (cold imports, cold solve caches, one thread
per BLAS/OpenMP pool), one after another.  Repetition ``i`` of seed
``s`` uses the program seed ``1000 * s + i``, so the inputs follow
from ``--seed`` and ``--seconds`` alone; ``--seconds`` sets how many
repetitions run (see ``Workload.rep_seconds``).  On a host slower than
that estimate a run stops early rather than overrun ``--seconds`` by
more than a tenth.

``--trace 0`` reports the end-to-end metrics of untraced repetitions.
``--trace 1`` runs each repetition twice, untraced and then traced,
and reports the per-layer metrics with the tracing overhead.  The last
stdout line is the JSON result; the lines before it and the detail
file under ``perfbench/out/`` record the environment, the repetition
seeds, the behaviour fingerprints and the key simulated outputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402
from yardstick import REFERENCE_S  # noqa: E402

#: Reserved for later claims: never tune or develop a change on it.
HELD_OUT_SEED = 9001

THREAD_POOLS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)

#: A repetition that takes longer than this is killed and fails.
CHILD_TIMEOUT_S = 150.0
#: No repetition starts unless it is expected to end within this share
#: of ``--seconds``, so a slow or overloaded host cannot stretch a run.
OVERRUN_SHARE = 1.1
#: Host seconds set aside for the fleets' ext-trace validation.
VALIDATION_S = 3.0
#: An untraced plus a traced repetition cost this many untraced ones.
TRACED_PAIR_COST = 2.6


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in THREAD_POOLS:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _environment() -> dict:
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "machine": platform.machine(),
    }


def _run_child(args: list[str], env: dict) -> dict:
    """Run one ``rep.py`` process; a crash or timeout is a failure."""
    command = [sys.executable, str(HERE / "rep.py"), *args]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S:g}s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        tail = done.stderr.strip().splitlines()[-5:]
        return {"error": f"exit {done.returncode}: " + " | ".join(tail)}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": f"unreadable result: {lines[-1][:200]}"}


def _repetitions(workload, budget: float, traced: bool) -> int:
    cost = workload.rep_seconds * (TRACED_PAIR_COST if traced else 1.0)
    return max(1 if traced else 2, int(budget // cost))


def _add(into: dict, values: dict) -> None:
    """Add nested numeric ``values`` into ``into`` key by key."""
    for key, value in values.items():
        if isinstance(value, dict):
            _add(into.setdefault(key, {}), value)
        elif isinstance(value, list):
            into.setdefault(key, []).extend(value)
        elif isinstance(value, (int, float)):
            into[key] = into.get(key, 0) + value


def _tally(results: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    failures: list[str] = []
    for result in results:
        if "error" in result:
            # A repetition that raised fails all of its operations;
            # how many it would have made is unknown, so it counts one.
            attempted += 1
            failed += 1
            failures.append(result["error"])
        else:
            attempted += result["attempted"]
            failed += result["failed"]
            failures += result["failures"]
    return attempted, failed, failures


def _end_to_end(ok: list[dict], model_abs_error: float) -> dict:
    """Medians over the repetitions, with their units.

    Times are CPU seconds rescaled to reference seconds by the median
    of every yardstick timed in the run (see ``yardstick.py``): over a
    whole run the yardstick's own jitter averages out, while a host
    that runs slow for minutes slows the program and the yardstick
    alike.
    """
    def median(key):
        return statistics.median(key(result) for result in ok)

    yardstick_s = statistics.median(
        sample for result in ok for sample in result["yardstick_s"]
    )
    scale = REFERENCE_S / yardstick_s
    return {
        "setup_s": (median(lambda r: r["setup_cpu_s"]) * scale, "s"),
        "run_s": (median(lambda r: r["cpu_s"]) * scale, "s"),
        "requests_per_s": (
            median(lambda r: r["operations"] / r["cpu_s"]) / scale, "1/s"
        ),
        "peak_rss_mb": (median(lambda r: r["peak_rss_mb"]), "MB"),
        "model_abs_error": (model_abs_error, "ratio"),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: no program source at {ROOT / 'src' / 'repro'}; "
            "run from the root of a source checkout",
            file=sys.stderr,
        )
        return 2

    workload = WORKLOADS[args.workload]
    traced = bool(args.trace)
    env = _child_env()
    OUT.mkdir(exist_ok=True)
    started = time.perf_counter()
    validate = workload.needs_validation and not traced
    reserve = VALIDATION_S if validate else 0.0
    reps = _repetitions(workload, args.seconds - reserve, traced)
    rep_seeds = [1000 * args.seed + index for index in range(reps)]
    plain: list[dict] = []
    traces: list[dict] = []
    deadline = OVERRUN_SHARE * args.seconds - reserve
    for done, rep_seed in enumerate(rep_seeds):
        elapsed = time.perf_counter() - started
        if done and elapsed + elapsed / done > deadline:
            break
        common = ["--workload", workload.name, "--seed", str(rep_seed)]
        plain.append(_run_child(common, env))
        if traced:
            spans = OUT / f"spans-{workload.name}-seed{rep_seed}.json"
            traces.append(_run_child(
                [*common, "--traced", "--spans", str(spans)], env
            ))
    validation = None
    if validate:
        validation = _run_child(
            ["--workload", workload.name, "--seed", str(args.seed),
             "--validate"],
            env,
        )

    results = plain + traces + ([validation] if validation else [])
    attempted, failed, failures = _tally(results)
    # Tracing must not change behaviour: same seed, same fingerprint.
    for untraced, with_trace in zip(plain, traces):
        if "error" in untraced or "error" in with_trace:
            continue
        attempted += 1
        if untraced["fingerprint"] != with_trace["fingerprint"]:
            failed += 1
            failures.append("traced run changed the fingerprint")
    ok_plain = [result for result in plain if "error" not in result]
    ok_pairs = [
        (untraced, with_trace)
        for untraced, with_trace in zip(plain, traces)
        if "error" not in untraced and "error" not in with_trace
    ]
    if not ok_plain or (traced and not ok_pairs):
        for failure in failures:
            print(f"failure: {failure}", file=sys.stderr)
        print("error: no repetition completed", file=sys.stderr)
        return 1

    if traced:
        from layers import layer_metrics, unit_of

        totals: dict = {"untraced_wall_s": 0.0}
        for untraced, with_trace in ok_pairs:
            totals["untraced_wall_s"] += untraced["wall_s"]
            _add(totals, with_trace["trace"])
        values = layer_metrics(totals, len(ok_pairs))
        metrics = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in values.items()
        }
    else:
        errors = [
            result["model_abs_error"]
            for result in ([validation] if validation else ok_plain)
            if "error" not in result
            and result["model_abs_error"] is not None
        ]
        if not errors:
            print("error: no ext-trace model error", file=sys.stderr)
            return 1
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in _end_to_end(
                ok_plain, max(errors)
            ).items()
        }

    detail = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "thread_pools": {name: env[name] for name in THREAD_POOLS},
        "rep_seeds": rep_seeds[:len(plain)],
        "fingerprints": [r.get("fingerprint") for r in plain],
        "repetitions": [
            {key: value for key, value in result.items() if key != "trace"}
            for result in results
        ],
        "failures": failures,
        "host_seconds": time.perf_counter() - started,
    }
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail, indent=2, sort_keys=True) + "\n")
    print(f"workload: {workload.name} seed={args.seed} "
          f"repetitions={len(plain)} trace={args.trace}")
    print(f"why: {workload.why}")
    print("environment: " + json.dumps(detail["environment"]))
    for rep_seed, result in zip(rep_seeds, plain):
        if "error" in result:
            print(f"rep seed={rep_seed}: FAILED {result['error']}")
            continue
        print(
            f"rep seed={rep_seed}: setup={result['setup_s']:.3f}s "
            f"wall={result['wall_s']:.3f}s cpu={result['cpu_s']:.3f}s "
            "yardstick="
            + "/".join(f"{t:.3f}" for t in result["yardstick_s"]) + "s "
            f"rss={result['peak_rss_mb']:.1f}MB "
            f"fingerprint={result['fingerprint'][:16]} "
            f"outputs={json.dumps(result['outputs'], sort_keys=True)}"
        )
    for failure in failures:
        print(f"failure: {failure}")
    print(f"detail: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
