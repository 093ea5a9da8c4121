"""Golden report corpus: canonical-report digests pinned across commits.

Every scenario below runs a short (two to four simulated seconds)
service or fleet simulation through the public API and reduces its
canonical report to a SHA-256 digest plus per-tenant p50/p99
summaries.  ``digests.json`` next to this file records the expected
values; ``tests/test_golden.py`` re-runs the matrix and compares.

A pure refactor leaves every digest unchanged.  A change that moves
behaviour on purpose regenerates the moved digests in the same change
and names each moved scenario and the size of its move.  To see what
moved, and to rewrite the file:

    PYTHONPATH=src python -m tests.golden.corpus            # report only
    PYTHONPATH=src python -m tests.golden.corpus --regen    # rewrite

To see *which keys* moved, dump every scenario's canonical report in
two checkouts and compare the directories:

    PYTHONPATH=src python -m tests.golden.corpus --dump /tmp/before
    PYTHONPATH=src python -m tests.golden.corpus --dump /tmp/after
    diff -r /tmp/before /tmp/after
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Callable

DIGESTS_PATH = Path(__file__).with_name("digests.json")

#: Simulated seconds per scenario (the sampled run spans twice this,
#: since it simulates every other window).
DURATION_S = 2.0
SEED = 7
#: Offered load of the single-service scenarios: twice the CLI default,
#: so the bursty and diurnal profiles see more than a handful of
#: arrivals in a short run.
SERVE_RATE_PER_S = 24.0


def _serve(
    profile: str, policy: str, duration_s: float = DURATION_S, **knobs
):
    from repro.serve import QueryService, ServiceConfig

    config = ServiceConfig(
        profile=profile, policy=policy, duration_s=duration_s,
        rate_per_s=SERVE_RATE_PER_S, seed=SEED, **knobs,
    )
    return QueryService(config).run()


def _serve_replay():
    """Record a poisson/adaptive run, replay it under ``static``."""
    from repro.serve import QueryService, ServiceConfig
    from repro.serve.arrivals import catalog_classes
    from repro.serve.replay import ReplayArrivals

    recorded = _serve("poisson", "adaptive")
    classes = catalog_classes()
    arrivals = ReplayArrivals(tuple(
        (time_s, classes[name]) for time_s, name in recorded.arrivals
    ))
    config = ServiceConfig(
        profile="replay", policy="static", duration_s=DURATION_S,
        rate_per_s=SERVE_RATE_PER_S, seed=SEED,
    )
    return QueryService(config, arrivals=arrivals).run()


def _cluster(**knobs):
    from repro.cluster import Cluster, ClusterConfig

    knobs.setdefault("nodes", 3)
    knobs.setdefault("duration_s", DURATION_S)
    return Cluster(ClusterConfig(seed=SEED, **knobs)).run()


def _cluster_faulted(router: str):
    from repro.cluster import seeded_faults

    return _cluster(
        router=router, faults=seeded_faults(3, 1, DURATION_S, SEED)
    )


def _planned(search: str, **knobs):
    knobs.setdefault("plan_interval_s", 0.5)
    return _cluster(
        router="planned", policy="planned", mix="shift",
        profile="diurnal", plan_search=search, **knobs,
    )


def _defended(mode: str):
    from repro.defense import AttackSpec

    return _cluster(
        nodes=4, router="hash",
        attacks=(AttackSpec("thrash", start_s=0.25),),
        defense=mode, defense_interval_s=0.5,
    )


def scenarios() -> dict[str, Callable]:
    """Scenario name -> zero-argument runner returning a report."""
    matrix: dict[str, Callable] = {}
    for policy in ("none", "static", "adaptive"):
        for profile in ("poisson", "bursty", "diurnal"):
            matrix[f"serve-{profile}-{policy}"] = (
                lambda profile=profile, policy=policy:
                _serve(profile, policy)
            )
    for router in ("hash", "least-loaded", "affinity"):
        matrix[f"cluster-{router}"] = (
            lambda router=router: _cluster(router=router)
        )
        matrix[f"cluster-{router}-faults"] = (
            lambda router=router: _cluster_faulted(router)
        )
    for search in ("enum", "beam"):
        matrix[f"planned-{search}"] = (
            lambda search=search: _planned(search)
        )
    # Many beam ticks over drifting rates, with a candidate budget
    # small enough that the seeded subsample fires: locks the search
    # state the planner carries from one tick to the next.
    matrix["planned-beam-long"] = lambda: _planned(
        "beam", duration_s=2 * DURATION_S, plan_interval_s=0.25,
        plan_search_candidates=300,
    )
    for mode in ("jail", "evict"):
        matrix[f"defense-{mode}"] = lambda mode=mode: _defended(mode)
    matrix["serve-sampled"] = lambda: _serve(
        "poisson", "adaptive", duration_s=2 * DURATION_S,
        sample_window_s=0.5, sample_period=2,
    )
    matrix["serve-replay"] = _serve_replay
    return matrix


def summarize(report) -> dict:
    """Digest, per-tenant p50/p99 and the unconverged model solves of
    one canonical report."""
    text = report.to_json()
    verdicts = getattr(report, "fleet_slo", None)
    if verdicts is None:
        verdicts = report.slo
    return {
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "latency_s": {
            verdict.tenant: {
                "p50": verdict.p50_s, "p99": verdict.p99_s,
            }
            for verdict in verdicts
        },
        "unconverged_solves": report.unconverged_solves,
    }


def run_report(name: str):
    """Run one scenario from a clean seeding state; returns its report."""
    from repro import seeding

    seeding.set_seed(None)
    return scenarios()[name]()


def run_scenario(name: str) -> dict:
    return summarize(run_report(name))


def load_digests() -> dict:
    return json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))


def describe_move(name: str, old: dict | None, new: dict) -> str:
    """One line per moved scenario with its p50/p99 deltas."""
    if old is None:
        return f"{name}: new scenario"
    parts = []
    for tenant, stats in sorted(new["latency_s"].items()):
        before = old["latency_s"].get(tenant, {})
        for key in ("p50", "p99"):
            was = before.get(key)
            now = stats[key]
            if was is None:
                parts.append(f"{tenant}.{key} new={now:.6g}")
            elif was != now:
                relative = (now - was) / was if was else float("inf")
                parts.append(
                    f"{tenant}.{key} {was:.6g}->{now:.6g} "
                    f"({relative:+.2%})"
                )
    detail = ", ".join(parts) if parts else "p50/p99 unchanged"
    return f"{name}: digest moved; {detail}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Check (or with --regen rewrite) the golden digests."
    )
    parser.add_argument(
        "--regen", action="store_true",
        help="rewrite digests.json with the current results",
    )
    parser.add_argument(
        "--dump", metavar="DIR", type=Path,
        help="also write each scenario's canonical report to "
        "DIR/<scenario>.json (compare two checkouts with diff -r)",
    )
    args = parser.parse_args(argv)
    expected = load_digests() if DIGESTS_PATH.exists() else {}
    if args.dump is not None:
        args.dump.mkdir(parents=True, exist_ok=True)
    current = {}
    moved = 0
    for name in scenarios():
        report = run_report(name)
        current[name] = summarize(report)
        if args.dump is not None:
            (args.dump / f"{name}.json").write_text(
                report.to_json() + "\n", encoding="utf-8"
            )
        if expected.get(name) != current[name]:
            moved += 1
            print(describe_move(name, expected.get(name), current[name]))
    print(f"{moved} of {len(current)} scenarios moved")
    if args.regen:
        DIGESTS_PATH.write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {DIGESTS_PATH}")
        return 0
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
