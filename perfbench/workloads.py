"""The benchmark's three workloads and the checks on their outputs.

Each workload builds its objects from a seed through the public API
(``build``), runs them once (``Job.run``, the timed part) and checks
the result (``Job.check``, outside the timed part).  Nothing here is
imported from the program at module level: importing ``repro`` is
part of the set-up the benchmark measures.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Callable

from harness import patched

#: ``tests/test_experiments_extensions.py`` asserts every ext-trace row
#: of the analytic model stays within this absolute hit-ratio error of
#: exact LRU replay.
EXT_TRACE_ERROR_BOUND = 0.08

#: The reproduction report checks this many paper claims.
PAPER_CLAIMS = 14

#: The eight paper figures ``experiments.summary.run`` runs.
FIGURE_MODULES = (
    "fig01_teaser",
    "fig04_scan",
    "fig05_aggregation",
    "fig06_join",
    "fig09_scan_agg",
    "fig10_agg_join",
    "fig11_tpch",
    "fig12_oltp",
)


@dataclass
class Outcome:
    """What one repetition produced, checked."""

    #: Canonical output text; its SHA-256 is the behaviour fingerprint.
    canonical: str
    #: Simulated requests (fleets) or figure rows (figures) produced.
    operations: int
    attempted: int
    failed: int
    failures: list[str] = field(default_factory=list)
    #: Key simulated outputs, recorded next to the fingerprint.
    outputs: dict = field(default_factory=dict)
    #: Largest ext-trace model error (figures and validation only).
    model_abs_error: float | None = None
    #: Counts from the program's output that per-layer metrics use.
    layer_inputs: dict = field(default_factory=dict)

    @property
    def fingerprint(self) -> str:
        return hashlib.sha256(self.canonical.encode("utf-8")).hexdigest()


def _canonical_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _round_trips(text: str) -> bool:
    return _canonical_json(json.loads(text)) == text


def _ext_trace_rows(result) -> tuple[list[float], list[str]]:
    column = result.headers.index("abs_error")
    errors = [float(row[column]) for row in result.rows]
    failures = [
        f"ext-trace row {index} error {error} > {EXT_TRACE_ERROR_BOUND}"
        for index, error in enumerate(errors)
        if error > EXT_TRACE_ERROR_BOUND
    ]
    return errors, failures


class FleetJob:
    """One ``Cluster.run`` with its canonical report."""

    def __init__(self, cluster) -> None:
        self.cluster = cluster

    def run(self):
        report = self.cluster.run(fleet_jobs=1)
        return report, report.to_json()

    def check(self, result) -> Outcome:
        report, text = result
        failures = []
        accounted = (
            report.completed + report.shed_admission
            + report.shed_failure + report.shed_no_node
        )
        unaccounted = abs(report.generated - accounted)
        if unaccounted:
            failures.append(
                f"conservation: generated={report.generated} but "
                f"completed+shed={accounted}"
            )
        round_trip = _round_trips(text)
        if not round_trip:
            failures.append("report JSON does not round-trip")
        attempted = report.generated + 1
        failed = min(attempted, unaccounted + (not round_trip))
        nodes = report.node_reports
        defense = report.defense
        convictions = len(defense.get("convictions", ()))
        false_positives = len(defense.get("false_positives", ()))
        return Outcome(
            canonical=text,
            operations=report.generated,
            attempted=attempted,
            failed=failed,
            failures=failures,
            outputs={
                "generated": report.generated,
                "completed": report.completed,
                "shed_admission": report.shed_admission,
                "shed_failure": report.shed_failure,
                "shed_no_node": report.shed_no_node,
                "fleet_p99_s": {
                    verdict.tenant: verdict.p99_s
                    for verdict in report.fleet_slo
                },
                "convictions": convictions,
                "false_positives": false_positives,
            },
            layer_inputs={
                "generated": report.generated,
                "shed": accounted - report.completed,
                "node_completed": sum(node.completed for node in nodes),
                "queue_pops": sum(node.events["popped"] for node in nodes),
                "convictions": convictions,
                "false_positives": false_positives,
                "report_bytes": len(text.encode("utf-8")),
            },
        )


class FiguresJob:
    """The ``run all`` path: eight figures, 14 claims, ext-trace."""

    def __init__(self, summary, validation, figure_modules) -> None:
        self.summary = summary
        self.validation = validation
        self.figure_modules = figure_modules

    def run(self):
        # summary.run keeps its figure results to itself; capture them
        # on the way out so the fingerprint covers every figure row.
        figures = {}

        def capture(_name: str, func: Callable) -> Callable:
            @functools.wraps(func)
            def run(*args, **kwargs):
                result = func(*args, **kwargs)
                figures[result.figure_id] = result
                return result

            return run

        targets = [(module, "run", "") for module in self.figure_modules]
        with patched(targets, capture):
            report = self.summary.run()
        ext = self.validation.run()
        text = _canonical_json({
            "figures": {
                figure_id: result.to_dict()
                for figure_id, result in figures.items()
            },
            "report": report.to_dict(),
            "ext_trace": ext.to_dict(),
        })
        return figures, report, ext, text

    def check(self, result) -> Outcome:
        figures, report, ext, text = result
        failures = []
        verdicts = [row[2] for row in report.rows]
        failures += [
            f"claim FAIL: {row[0]}: {row[1]}"
            for row in report.rows if row[2] != "PASS"
        ]
        attempted = len(verdicts)
        failed = len(failures)
        if len(verdicts) != PAPER_CLAIMS:
            failures.append(
                f"expected {PAPER_CLAIMS} claims, got {len(verdicts)}"
            )
            attempted += 1
            failed += 1
        errors, ext_failures = _ext_trace_rows(ext)
        failures += ext_failures
        attempted += len(errors)
        failed += len(ext_failures)
        # Round trip: the canonical text, and every figure rebuilt from
        # it with FigureResult.from_dict serialises back to itself.
        attempted += 1
        payload = json.loads(text)
        entries = [
            *payload["figures"].values(),
            payload["report"],
            payload["ext_trace"],
        ]
        from_dict = type(ext).from_dict
        rebuilt = [
            json.loads(_canonical_json(from_dict(entry).to_dict()))
            for entry in entries
        ]
        if not _round_trips(text) or rebuilt != entries:
            failures.append("figure JSON does not round-trip")
            failed += 1
        if len(figures) != len(self.figure_modules):
            failures.append(
                f"expected {len(self.figure_modules)} figures, got "
                f"{len(figures)}"
            )
            attempted += 1
            failed += 1
        rows = sum(len(result.rows) for result in figures.values())
        return Outcome(
            canonical=text,
            operations=rows + len(ext.rows),
            attempted=attempted,
            failed=failed,
            failures=failures,
            outputs={
                "claims_passed": verdicts.count("PASS"),
                "claims": len(verdicts),
                "figure_rows": rows,
                "ext_trace_abs_error": errors,
            },
            model_abs_error=max(errors) if errors else None,
        )


class ValidationJob:
    """The ext-trace model check alone (for the fleet workloads)."""

    def __init__(self, validation) -> None:
        self.validation = validation

    def run(self):
        result = self.validation.run()
        return result, _canonical_json(result.to_dict())

    def check(self, result) -> Outcome:
        ext, text = result
        errors, failures = _ext_trace_rows(ext)
        return Outcome(
            canonical=text,
            operations=len(errors),
            attempted=len(errors),
            failed=len(failures),
            failures=failures,
            outputs={"ext_trace_abs_error": errors},
            model_abs_error=max(errors) if errors else None,
        )


def _build_fleet(knobs: Callable[[int], dict]) -> Callable:
    """Build a fleet the way ``python -m repro cluster`` does."""

    def build(seed: int) -> FleetJob:
        from repro import seeding
        from repro.cluster import Cluster, ClusterConfig
        from repro.serve.arrivals import DEFAULT_ARRIVAL_SEED

        seeding.set_seed(seed)
        fleet_seed = seeding.derive("cluster", DEFAULT_ARRIVAL_SEED)
        config = ClusterConfig(seed=fleet_seed, **knobs(fleet_seed))
        return FleetJob(Cluster(config))

    return build


def _steady(_fleet_seed: int) -> dict:
    return dict(
        nodes=4, router="least-loaded", policy="none",
        profile="poisson", mix="olap", rate_per_s=18.0,
        duration_s=120.0,
    )


def _control(fleet_seed: int) -> dict:
    from repro.cluster import seeded_faults
    from repro.defense.attacks import AttackSpec

    # Most of a short run's host time goes to the first solve of each
    # new composition, and how many appear depends on the seed (2x
    # apart at 8-12 simulated seconds).  By 24 s the set of
    # compositions has mostly filled up and seeds cost within ~15% of
    # each other.
    duration = 24.0
    return dict(
        nodes=4, router="planned", policy="planned",
        profile="diurnal", mix="shift", rate_per_s=16.0,
        duration_s=duration, plan_interval_s=0.5, plan_search="beam",
        attacks=(AttackSpec("thrash", start_s=4.0),), defense="jail",
        faults=seeded_faults(4, 1, duration, fleet_seed),
    )


def _build_figures(seed: int) -> FiguresJob:
    import importlib

    from repro import seeding
    from repro.experiments import ext_trace_validation, summary

    seeding.set_seed(seed)
    modules = tuple(
        importlib.import_module(f"repro.experiments.{name}")
        for name in FIGURE_MODULES
    )
    return FiguresJob(summary, ext_trace_validation, modules)


def build_validation() -> ValidationJob:
    from repro.experiments import ext_trace_validation

    return ValidationJob(ext_trace_validation)


@dataclass(frozen=True)
class Workload:
    name: str
    #: Why the benchmark runs this workload (one sentence).
    why: str
    #: Host seconds one repetition takes on a 2-CPU x86 container,
    #: process start included; sets how many repetitions fit in a run
    #: of a given length.
    rep_seconds: float
    build: Callable[[int], object]
    #: Fleets take their model error from a separate validation job.
    needs_validation: bool = True


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "fleet-steady",
            "The 4-node least-loaded fleet at policy none over a long "
            "horizon, where the event core, router, admission, report "
            "assembly and memory growth do the work.",
            4.5,
            _build_fleet(_steady),
        ),
        Workload(
            "fleet-control",
            "Planned beam-search policy with diurnal shifting load, a "
            "thrash attack under jail defense and a fault, so every "
            "fleet event lane fires.",
            7.0,
            _build_fleet(_control),
        ),
        Workload(
            "figures",
            "The run-all path: eight paper figures, the 14 claims and "
            "ext-trace, where the model runs as one-off solves behind "
            "the simulation cache and the trace engine runs.",
            3.8,
            _build_figures,
            needs_validation=False,
        ),
    )
}
