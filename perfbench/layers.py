"""Which program calls the traced run wraps, and the per-layer metrics.

Each entry of :data:`TARGETS` names a public entry point of one layer
of ``repro``; the traced run wraps them all (see
:mod:`harness`).  :func:`layer_metrics` turns the summed spans, the
program's own counters (read through ``repro.obs.observing``) and
counts from the workload's output into the per-layer metrics that
``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import importlib

from harness import percentile, tail_count
from workloads import FIGURE_MODULES

#: ``(module, class or None for a module function, attribute, span)``.
TARGETS = (
    ("repro.model.simulator", "WorkloadSimulator", "simulate",
     "model.simulate"),
    ("repro.model.simulator", "WorkloadSimulator", "simulate_many",
     "model.simulate_many"),
    ("repro.serve.service", "RateCache", "get", "serve.rate_cache_get"),
    ("repro.serve.service", "QueryService", "accept", "serve.accept"),
    ("repro.serve.service", "QueryService", "dispatch", "serve.dispatch"),
    ("repro.serve.admission", "AdmissionController", "offer",
     "serve.admission_offer"),
    ("repro.serve.admission", "AdmissionController", "release",
     "serve.admission_release"),
    ("repro.cluster.router", "Router", "dispatch_route",
     "cluster.dispatch_route"),
    ("repro.planner.planner", "FleetPlanner", "tick", "planner.tick"),
    ("repro.planner.blueprint", "BlueprintScorer", "score_many",
     "planner.score_many"),
    ("repro.defense.detector", "ContentionDetector", "tick",
     "defense.tick"),
    ("repro.cluster.fleet", "ClusterReport", "to_json", "obs.to_json"),
    ("repro.parallel.simcache", "SimulationCache", "get",
     "parallel.cache_get"),
    ("repro.hardware.fastcache", "FastSetAssociativeCache",
     "access_many", "hardware.access_many"),
    ("repro.hardware.fastcache", "FastSetAssociativeCache",
     "access_batch", "hardware.access_batch"),
    *(
        (f"repro.experiments.{module}", None, "run",
         f"experiments.{module.split('_', 1)[0]}")
        for module in FIGURE_MODULES
    ),
    ("repro.experiments.ext_trace_validation", None, "run",
     "experiments.ext_trace"),
)

#: Calls whose per-call durations the parent pools for percentiles.
PERCENTILE_CALLS = ("model.simulate", "cluster.dispatch_route")

#: Percentiles are reported only when this many calls lie beyond them.
MIN_TAIL = 10


def resolve_targets() -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` triples for :func:`patched`."""
    resolved = []
    for module_name, class_name, attr, span in TARGETS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        resolved.append((owner, attr, span))
    return resolved


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, read from its name's suffix."""
    suffix = name.rsplit(".", 1)[-1]
    for ending, unit in (("_per_s", "1/s"), ("_s", "s"), ("_ms", "ms"),
                         ("_us", "us"), ("_kb", "KiB")):
        if suffix.endswith(ending):
            return unit
    if suffix in ("calls", "ticks", "lookups", "convictions",
                  "false_positives"):
        return "count"
    return "ratio"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _pooled_percentile(pooled: list[float], share: float, scale: float):
    if tail_count(len(pooled), share) < MIN_TAIL:
        return 0.0
    return percentile(pooled, share) * scale


def layer_metrics(totals: dict, reps: int) -> dict[str, float]:
    """Per-layer metrics from raw traced totals summed over ``reps``.

    Counts and times are per repetition; ratios use the pooled counts;
    percentiles pool every call of every traced repetition and read 0
    when fewer than :data:`MIN_TAIL` calls lie beyond them.
    """
    calls = totals["calls"]
    layers = totals["layers"]
    counters = totals["counters"]
    inputs = totals["inputs"]
    durations = totals["durations"]

    def call(name: str, key: str) -> float:
        return calls.get(name, {}).get(key, 0.0) / reps

    def layer(name: str, key: str) -> float:
        return layers.get(name, {}).get(key, 0.0) / reps

    def counter(name: str) -> float:
        return counters.get(name, 0)

    rate_hits = counter("serve.rate_cache_hits")
    sim_hits = counter("sim.cache.hits")
    hardware_busy = layer("hardware", "busy_s")
    planner_ticks = call("planner.tick", "calls")
    metrics = {
        "model.calls": call("model.simulate", "calls")
        + call("model.simulate_many", "calls"),
        "model.busy_s": layer("model", "busy_s"),
        "model.self_s": layer("model", "self_s"),
        "model.simulate.p50_ms": _pooled_percentile(
            durations.get("model.simulate", []), 0.50, 1e3
        ),
        "model.simulate.p95_ms": _pooled_percentile(
            durations.get("model.simulate", []), 0.95, 1e3
        ),
        "model.rounds_per_solve": _ratio(
            counter("simulator.fixed_point_rounds"),
            counter("simulator.solves"),
        ),
        "model.unconverged_share": _ratio(
            counter("simulator.convergence_failures"),
            counter("simulator.solves"),
        ),
        "model.che_expansions_per_solve": _ratio(
            counter("che.bracket_expansions"), counter("che.solves")
        ),
        "serve.busy_s": layer("serve", "busy_s"),
        "serve.self_s": layer("serve", "self_s"),
        "serve.rate_cache.hit_ratio": _ratio(
            rate_hits, rate_hits + counter("serve.rate_solves")
        ),
        "serve.accept.calls": call("serve.accept", "calls"),
        "serve.accept.self_s": call("serve.accept", "self_s"),
        "serve.dispatch.calls": call("serve.dispatch", "calls"),
        "serve.dispatch.self_s": call("serve.dispatch", "self_s"),
        "serve.admission.self_s": call("serve.admission_offer", "self_s")
        + call("serve.admission_release", "self_s"),
        "serve.completions_per_pop": _ratio(
            inputs.get("node_completed", 0), inputs.get("queue_pops", 0)
        ),
        "serve.shed_share": _ratio(
            inputs.get("shed", 0), inputs.get("generated", 0)
        ),
        "cluster.router.calls": call("cluster.dispatch_route", "calls"),
        "cluster.router.busy_s": call("cluster.dispatch_route", "busy_s"),
        "cluster.router.self_s": layer("cluster", "self_s"),
        "cluster.router.p50_us": _pooled_percentile(
            durations.get("cluster.dispatch_route", []), 0.50, 1e6
        ),
        "cluster.self_s": totals["residual_s"] / reps,
        "planner.ticks": planner_ticks,
        "planner.busy_s": layer("planner", "busy_s"),
        "planner.self_s": layer("planner", "self_s"),
        "planner.candidates_per_tick": _ratio(
            counter("planner.search.candidates") / reps, planner_ticks
        ),
        "defense.ticks": call("defense.tick", "calls"),
        "defense.busy_s": layer("defense", "busy_s"),
        "defense.self_s": layer("defense", "self_s"),
        "defense.convictions": inputs.get("convictions", 0) / reps,
        "defense.false_positives": inputs.get("false_positives", 0)
        / reps,
        "obs.busy_s": layer("obs", "busy_s"),
        "obs.self_s": layer("obs", "self_s"),
        "obs.report_kb": inputs.get("report_bytes", 0) / 1024 / reps,
        "obs.trace_overhead": _ratio(
            totals["wall_s"], totals["untraced_wall_s"]
        ),
        "obs.untraced_wall_s": totals["untraced_wall_s"] / reps,
        "obs.traced_wall_s": totals["wall_s"] / reps,
        "parallel.lookups": call("parallel.cache_get", "calls"),
        "parallel.hit_ratio": _ratio(
            sim_hits, sim_hits + counter("sim.cache.misses")
        ),
        "parallel.self_s": layer("parallel", "self_s"),
        "hardware.busy_s": hardware_busy,
        "hardware.self_s": layer("hardware", "self_s"),
        "hardware.accesses_per_s": _ratio(
            counter("sim.trace.accesses") / reps, hardware_busy
        ),
        "experiments.busy_s": layer("experiments", "busy_s"),
        "experiments.self_s": layer("experiments", "self_s"),
    }
    for module in FIGURE_MODULES:
        figure = module.split("_", 1)[0]
        metrics[f"experiments.{figure}.busy_s"] = call(
            f"experiments.{figure}", "busy_s"
        )
    metrics["experiments.ext_trace.busy_s"] = call(
        "experiments.ext_trace", "busy_s"
    )
    return metrics
