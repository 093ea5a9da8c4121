"""Benchmarks: batched blueprint scoring and the beam-search tick.

Measures the planner's scoring hot path on a 64-candidate population
(the bounded enumerated family at 4 nodes padded with its search
neighborhood — the same shapes a beam round scores):

* scalar baseline — ``BlueprintScorer.score`` once per candidate,
* batched — one ``score_many`` call over the whole population,
* the old planning tick — cold scalar scoring of the enumerated
  family plus the incumbent (what ``FleetPlanner.tick`` did before
  batching), re-solving from an empty memo,
* the beam tick — ``FleetPlanner.tick`` with ``search="beam"``, cold
  (first tick, solves included) and warm (second tick, caches hot).

Assertions:

* batched results are bit-identical to the scalar scorer on every
  candidate (checked before any timing),
* two fresh beam planners produce identical decision payloads
  (the search determinism guarantee, exercised end to end),
* warm batched scoring is >= 10x the warm scalar loop,
* the beam tick scores >= 1000 candidates while its warm wall time
  stays within the old scalar tick's cold budget — the 100x larger
  search space rides inside the tick budget the enumerated family
  used to spend,
* a repeat tick at the same rates builds no new neighborhood: every
  frontier expansion is served by the planner's neighborhood store
  (a count, so the gate is deterministic).

Every run appends one record to ``BENCH_planner.json`` at the repo
root so the speedups form a trajectory across commits.
"""

from __future__ import annotations

import json
import pathlib
import time
from datetime import datetime, timezone

from repro.cluster.workload import cluster_classes
from repro.config import DEFAULT_SYSTEM
from repro.obs import NULL_TRACER, MetricsRegistry, observing
from repro.planner import (
    BlueprintScorer,
    FleetPlanner,
    PlannerConfig,
    enumerate_blueprints,
    neighborhood,
)

MIN_BATCH_SPEEDUP = 10.0
MIN_BEAM_CANDIDATES = 1000
POPULATION_SIZE = 64
NODES = 4
TENANTS_PER_GROUP = 4
REPS = 9

GROUPS = ("batch", "olap", "oltp")

#: Batch-leaning seasonality so the forecast is non-trivial; the tick
#: consumes no live windows, so tick 1 (cold) and tick 2 (warm) score
#: the exact same rates.
TRAINING = tuple(
    (("agg", 2), ("join", 2), ("oltp", 4), ("scan", 4))
    for _ in range(8)
)

TRAJECTORY = pathlib.Path(__file__).resolve().parent.parent / (
    "BENCH_planner.json"
)


def _scorer() -> BlueprintScorer:
    classes = cluster_classes(DEFAULT_SYSTEM.cores)
    return BlueprintScorer(
        DEFAULT_SYSTEM,
        classes=classes,
        targets={"olap": 1.2, "oltp": 0.6},
        max_concurrency=8,
        solve_memo={},
    )


def _rates() -> dict:
    classes = cluster_classes(DEFAULT_SYSTEM.cores)
    by_tenant: dict = {}
    for name, cls in classes.items():
        by_tenant.setdefault(cls.tenant, []).append(name)
    rates = {}
    for tenant, total in (
        ("batch", 12.0), ("olap", 20.0), ("oltp", 30.0)
    ):
        for name in by_tenant[tenant]:
            rates[name] = total / len(by_tenant[tenant])
    return rates


def _population() -> list:
    """The enumerated family padded to 64 via its own neighborhood."""
    family = enumerate_blueprints(NODES, GROUPS)
    pool = {bp.key(): bp for bp in family}
    for origin in family:
        for move in neighborhood(origin):
            pool.setdefault(move.key(), move)
    population = [pool[key] for key in sorted(pool)]
    assert len(population) >= POPULATION_SIZE
    return population[:POPULATION_SIZE]


def _planner() -> FleetPlanner:
    return FleetPlanner(
        PlannerConfig(search="beam", training=TRAINING),
        _scorer(),
        nodes=NODES,
        tenants_per_group=TENANTS_PER_GROUP,
    )


def _best_of(fn, reps: int = REPS) -> float:
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return min(times)


def _append_trajectory(record: dict) -> None:
    history = []
    if TRAJECTORY.exists():
        try:
            history = json.loads(
                TRAJECTORY.read_text(encoding="utf-8")
            )
        except (OSError, json.JSONDecodeError):
            history = []
    history.append(record)
    TRAJECTORY.write_text(
        json.dumps(history, indent=2) + "\n", encoding="utf-8"
    )


def test_batched_scoring_and_beam_tick_speedups():
    rates = _rates()
    population = _population()
    scorer = _scorer()

    # Correctness before speed: the batch must replay the scalar
    # arithmetic bit for bit on every candidate.
    batch = scorer.score_many(population, rates)
    for row, blueprint in enumerate(population):
        scalar = scorer.score(blueprint, rates)
        assert batch.materialize(row).to_dict() == scalar.to_dict()
        assert float(batch.scores[row]) == scalar.score

    # Determinism before speed: two fresh beam planners make the
    # same decisions (same forecast, same seed, same subsampling).
    first, second = _planner(), _planner()
    first.tick(2.0, [])
    second.tick(2.0, [])
    assert [d.to_dict() for d in first.decisions] == [
        d.to_dict() for d in second.decisions
    ]

    # Warm both scoring paths, then time (solves are memoized; the
    # steady-state tick is what the fleet pays every interval).
    for _ in range(3):
        scorer.score_many(population, rates)
        for blueprint in population:
            scorer.score(blueprint, rates)
    scalar_s = _best_of(
        lambda: [scorer.score(bp, rates) for bp in population]
    )
    batch_s = _best_of(lambda: scorer.score_many(population, rates))
    batch_speedup = scalar_s / batch_s

    # The old planning tick: scalar-score the enumerated family plus
    # the incumbent against an empty solve memo, as tick() did before
    # batching.  Fresh scorer per rep keeps every rep cold.
    family = enumerate_blueprints(NODES, GROUPS)

    def _old_tick():
        cold = _scorer()
        incumbent = family[0]
        for blueprint in (*family, incumbent):
            cold.score(blueprint, rates)

    old_tick_s = _best_of(_old_tick, reps=5)

    # The beam tick, cold and warm, through the real planner.
    planner = _planner()
    cold_tick_s = _best_of(lambda: planner.tick(2.0, []), reps=1)
    tick_candidates = planner.search_totals["candidates_scored"]
    warm_tick_s = _best_of(lambda: planner.tick(4.0, []), reps=5)

    # One more repeat tick, counted: the frontier's neighborhoods
    # must all come from the store the earlier ticks filled.
    with observing(NULL_TRACER, MetricsRegistry()) as (_, registry):
        planner.tick(4.0, [])
    counters = registry.snapshot()["counters"]
    repeat_expansions = counters["planner.search.expansions"]
    repeat_built = (
        repeat_expansions - counters["planner.search.expansion_hits"]
    )

    record = {
        "created_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "population": len(population),
        "enum_family": len(family),
        "scalar_ms": round(scalar_s * 1e3, 3),
        "batch_ms": round(batch_s * 1e3, 3),
        "batch_speedup": round(batch_speedup, 2),
        "old_tick_cold_ms": round(old_tick_s * 1e3, 3),
        "beam_tick_cold_ms": round(cold_tick_s * 1e3, 3),
        "beam_tick_warm_ms": round(warm_tick_s * 1e3, 3),
        "beam_candidates_per_tick": tick_candidates,
        "repeat_tick_expansions": repeat_expansions,
        "repeat_tick_neighborhoods_built": repeat_built,
    }
    _append_trajectory(record)
    print(f"bench_planner: {json.dumps(record)}")

    assert batch_speedup >= MIN_BATCH_SPEEDUP, (
        f"batched scoring: {batch_speedup:.2f}x vs the scalar loop "
        f"({batch_s * 1e3:.3f}ms vs {scalar_s * 1e3:.3f}ms on "
        f"{len(population)} candidates), need >= "
        f"{MIN_BATCH_SPEEDUP:.0f}x"
    )
    assert tick_candidates >= MIN_BEAM_CANDIDATES, (
        f"beam tick scored {tick_candidates} candidates, need >= "
        f"{MIN_BEAM_CANDIDATES}"
    )
    assert warm_tick_s <= old_tick_s, (
        f"warm beam tick {warm_tick_s * 1e3:.3f}ms exceeds the old "
        f"scalar tick's cold budget {old_tick_s * 1e3:.3f}ms — the "
        f"larger search space must ride inside the old tick cost"
    )
    assert repeat_expansions > 0 and repeat_built == 0, (
        f"repeat beam tick built {repeat_built} of "
        f"{repeat_expansions} neighborhoods, need 0 — the planner's "
        f"neighborhood store must carry them across ticks"
    )
