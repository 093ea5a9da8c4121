"""Integration tests: the discrete-event query service."""

import json

import pytest

from repro.errors import ServeError
from repro.serve import QueryService, ServiceConfig
from repro.serve.controller import AdaptiveController
from repro.serve.events import EventKind


def _config(**overrides):
    base = dict(
        profile="poisson",
        policy="none",
        mix="olap",
        duration_s=4.0,
        rate_per_s=8.0,
        seed=7,
    )
    base.update(overrides)
    return ServiceConfig(**base)


@pytest.fixture(scope="module")
def solve_memo():
    """Shared solve memo: identical compositions across the module's
    runs are solved once."""
    return {}


@pytest.fixture(scope="module")
def baseline_run(solve_memo):
    service = QueryService(_config(), solve_memo=solve_memo)
    return service, service.run()


@pytest.fixture(scope="module")
def baseline_report(baseline_run):
    return baseline_run[1]


class TestConservation:
    def test_every_arrival_accounted_for(self, baseline_report):
        report = baseline_report
        assert report.arrived > 0
        # The run drains after the horizon: everything not shed
        # eventually completes.
        assert report.completed + report.shed == report.arrived

    def test_events_balanced(self, baseline_run):
        """Every scheduled event is dispatched or superseded, and every
        dispatched event is real: one per arrival, per completion and
        per controller tick — no stale completion is ever popped."""
        service, report = baseline_run
        queue = service.queue
        assert not queue
        assert queue.pushed == queue.popped + queue.superseded
        assert report.events == {
            "pushed": queue.pushed, "popped": queue.popped,
        }
        ticks = report.controller.get("ticks", 0)
        assert report.events["popped"] == (
            report.arrived + report.completed + ticks
        )

    def test_clock_never_precedes_horizon_work(self, baseline_report):
        assert baseline_report.end_time_s > 0.0


def check_event_core(service, frontier=None) -> list:
    """Assert the event core's invariants around every dispatch.

    Wraps ``service.dispatch`` and returns the (growing) list of
    dispatched event times.  After each event:

    * the heap holds no COMPLETION — the one pending completion is the
      staged one, present exactly while requests are running;
    * a dispatched COMPLETION completed its request at that instant;
    * the incrementally kept composition equals a recount of the
      running set under the current masks.

    With ``frontier`` (a fleet's popped candidate times), each event
    must dispatch at the fleet time its node lane was popped at.
    """
    times: list[float] = []
    dispatch = service.dispatch

    def checked(event) -> None:
        if frontier is not None:
            assert event.time_s == frontier[-1]
        dispatch(event)
        times.append(event.time_s)
        if event.kind is EventKind.COMPLETION:
            request = service._requests[event.payload["request_id"]]
            assert request.completed_s == event.time_s
        queue = service.queue
        assert not any(
            entry[2].kind is EventKind.COMPLETION for entry in queue._heap
        )
        assert (queue.staged is None) == (not service.admission.running)
        recount: dict = {}
        for request in service.admission.running.values():
            key = (request.cls.name, service._mask_for(request.cls))
            recount[key] = recount.get(key, 0) + 1
        assert service._state.composition == recount

    service.dispatch = checked
    return times


class TestEventCore:
    @pytest.mark.parametrize("policy", ["none", "static", "adaptive"])
    def test_invariants_hold_every_event(self, policy, solve_memo):
        service = QueryService(_config(policy=policy), solve_memo=solve_memo)
        times = check_event_core(service)
        report = service.run()
        ticks = report.controller.get("ticks", 0)
        assert len(times) == report.arrived + report.completed + ticks
        # The clock stops at the last real event: no phantom
        # completion runs it past the drain.
        assert report.end_time_s == times[-1]
        assert service.queue.staged is None


class TestDeterminism:
    def test_same_config_byte_identical_report(self, solve_memo):
        first = QueryService(_config(), solve_memo=solve_memo).run()
        second = QueryService(_config(), solve_memo=solve_memo).run()
        assert first.to_json() == second.to_json()

    def test_cold_cache_equals_warm_cache(self, solve_memo):
        # The memo only elides model solves: each service still counts
        # its own rate-cache misses, so even the counters match.
        warm = QueryService(_config(), solve_memo=solve_memo).run()
        cold = QueryService(_config(), solve_memo={}).run()
        assert warm.to_json() == cold.to_json()

    def test_different_seed_different_run(self, solve_memo):
        a = QueryService(
            _config(seed=1), solve_memo=solve_memo
        ).run()
        b = QueryService(
            _config(seed=2), solve_memo=solve_memo
        ).run()
        assert a.to_json() != b.to_json()


class TestQueueingAndShedding:
    def test_overload_sheds(self, solve_memo):
        report = QueryService(
            _config(rate_per_s=60.0, max_concurrency=2,
                    queue_depth=2, duration_s=2.0),
            solve_memo=solve_memo,
        ).run()
        assert report.shed > 0
        assert report.completed + report.shed == report.arrived

    def test_latency_includes_queue_wait(self, solve_memo):
        light = QueryService(
            _config(rate_per_s=2.0), solve_memo=solve_memo
        ).run()
        heavy = QueryService(
            _config(rate_per_s=40.0, queue_depth=32,
                    duration_s=3.0),
            solve_memo=solve_memo,
        ).run()
        assert (
            heavy.verdict_for("olap").p99_s
            > light.verdict_for("olap").p99_s
        )


class TestPolicies:
    def test_static_enables_partitioning(self, solve_memo):
        service = QueryService(
            _config(policy="static"), solve_memo=solve_memo
        )
        assert service.cache_controller.enabled
        report = service.run()
        assert report.completed > 0
        assert not report.controller["enabled"]

    def test_none_runs_unpartitioned(self, solve_memo):
        service = QueryService(_config(), solve_memo=solve_memo)
        assert not service.cache_controller.enabled
        for cls in service._build_mix_schedule()[0][1].classes:
            assert service._mask_for(cls) == service.spec.full_mask

    def test_adaptive_reconfigures_and_converges(self, solve_memo):
        report = QueryService(
            _config(policy="adaptive", duration_s=6.0),
            solve_memo=solve_memo,
        ).run()
        controller = report.controller
        assert controller["enabled"]
        assert controller["reconfigurations"] >= 1
        assert controller["ticks"] >= controller["reconfigurations"]
        # Converged: the tail of the decision log is all unchanged.
        decisions = controller["decisions"]
        assert decisions, "expected at least one control decision"
        assert not decisions[-1]["changed"]

    def test_adaptive_starts_unpartitioned(self):
        service = QueryService(_config(policy="adaptive"))
        classes = service._build_mix_schedule()[0][1].classes
        for cls in classes:
            assert service._mask_for(cls) == service.spec.full_mask

    def test_controller_reset_forgets_installed_masks(
        self, solve_memo
    ):
        service = QueryService(
            _config(policy="adaptive", duration_s=6.0),
            solve_memo=solve_memo,
        )
        service.run()
        controller = service.controller
        classes = service._build_mix_schedule()[0][1].classes
        full = service.spec.full_mask
        assert any(controller.mask_for(cls) != full for cls in classes)
        reconfigurations = controller.reconfigurations
        controller.reset()
        for cls in classes:
            assert controller.mask_for(cls) == full
        # The run's history is kept; only the installed state goes.
        assert controller.reconfigurations == reconfigurations


class TestReports:
    def test_report_roundtrips_as_json(self, baseline_report,
                                       tmp_path):
        path = baseline_report.write(tmp_path / "report.json")
        payload = json.loads(path.read_text())
        assert payload["report_version"] == 4
        assert payload["config"]["seed"] == 7
        assert payload["completed"] == baseline_report.completed
        # v2+: the offered arrival log rides along for trace replay.
        assert len(payload["arrivals"]) == payload["arrived"]
        times = [entry[0] for entry in payload["arrivals"]]
        assert times == sorted(times)

    def test_verdict_lookup(self, baseline_report):
        assert baseline_report.verdict_for("olap").tenant == "olap"
        with pytest.raises(ServeError):
            baseline_report.verdict_for("nobody")

    def test_cache_control_stats_reported(self, solve_memo):
        report = QueryService(
            _config(policy="static"), solve_memo=solve_memo
        ).run()
        stats = report.cache_control
        assert stats["associations_requested"] > 0
        assert (
            stats["kernel_calls"] + stats["elided_calls"]
            == stats["associations_requested"]
        )


class TestControllerUnit:
    def test_interval_validation(self, spec):
        from repro.engine.cache_control import CacheController
        from repro.hardware.cat import CatController
        from repro.resctrl.filesystem import ResctrlFilesystem
        from repro.resctrl.interface import ResctrlInterface

        cache_controller = CacheController(
            spec,
            ResctrlInterface(ResctrlFilesystem(CatController(spec))),
        )
        with pytest.raises(ServeError):
            AdaptiveController(
                spec, cache_controller, interval_s=0.0
            )
        with pytest.raises(ServeError):
            AdaptiveController(
                spec, cache_controller, sweep_ways=()
            )

    def test_idle_tick_changes_nothing(self, spec):
        from repro.engine.cache_control import CacheController
        from repro.hardware.cat import CatController
        from repro.resctrl.filesystem import ResctrlFilesystem
        from repro.resctrl.interface import ResctrlInterface

        cache_controller = CacheController(
            spec,
            ResctrlInterface(ResctrlFilesystem(CatController(spec))),
        )
        controller = AdaptiveController(spec, cache_controller)
        decision = controller.tick(1.0, [])
        assert not decision.changed
        assert controller.reconfigurations == 0
        assert not cache_controller.enabled


class TestConfigValidation:
    def test_rejects_bad_enumerations(self):
        with pytest.raises(ServeError):
            _config(profile="uniform")
        with pytest.raises(ServeError):
            _config(policy="magic")
        with pytest.raises(ServeError):
            _config(mix="hybrid")

    def test_rejects_bad_numbers(self):
        with pytest.raises(ServeError):
            _config(duration_s=0.0)
        with pytest.raises(ServeError):
            _config(rate_per_s=-1.0)
        with pytest.raises(ServeError):
            _config(seed=-1)
        with pytest.raises(ServeError):
            _config(mix="shift", shift_at_s=10.0)  # past horizon


class TestConvergenceReporting:
    def test_unconverged_solves_counted(self):
        service = QueryService(_config(policy="static", duration_s=2.0))
        service.simulator.max_iterations = 2
        report = service.run()
        assert 0 < report.unconverged_solves <= report.rate_solves
        assert (
            report.to_dict()["unconverged_solves"]
            == report.unconverged_solves
        )

    def test_converged_run_reports_zero(self, baseline_report):
        assert baseline_report.rate_solves > 0
        assert baseline_report.unconverged_solves == 0

    def test_memo_hits_count_like_solves(self):
        # A node that takes an unconverged composition from a shared
        # memo counts it exactly as the node that solved it did.
        memo: dict = {}
        first = QueryService(
            _config(policy="static", duration_s=2.0), solve_memo=memo
        )
        first.simulator.max_iterations = 2
        solved = first.run()
        second = QueryService(
            _config(policy="static", duration_s=2.0), solve_memo=memo
        )
        reused = second.run()
        assert reused.rate_solves == solved.rate_solves
        assert reused.unconverged_solves == solved.unconverged_solves


class TestSolveSharing:
    def test_warm_memo_across_concurrency_equals_cold(self):
        # The same (class, mask, count) composition solves to different
        # rates behind a different core count per slot, so a memo
        # shared across max_concurrency values must not alias them.
        memo: dict = {}
        QueryService(_config(), solve_memo=memo).run()
        overload = _config(rate_per_s=60.0, max_concurrency=2,
                           queue_depth=2, duration_s=2.0)
        warm = QueryService(overload, solve_memo=memo).run()
        cold = QueryService(overload).run()
        assert warm.rate_solves == cold.rate_solves
        assert warm.to_json() == cold.to_json()

    def test_reprogram_reassociates_and_reflows(self):
        service = QueryService(_config(policy="static"))
        cls = service._mix_schedule[0][1].classes[0]
        service.accept(0.0, cls)
        service.accept(0.1, cls)
        stats = service.cache_controller.stats
        requested = stats.associations_requested
        staged = service.queue.staged
        service.reprogram(0.2)
        running = len(service.admission.running)
        assert running == 2
        # One compare-before-set association per running request (the
        # masks did not move, so no kernel call), then one reflow,
        # which re-stages the one pending completion.
        assert stats.associations_requested == requested + running
        restaged = service.queue.staged
        assert restaged.seq > staged.seq
        assert restaged.payload == staged.payload
        assert len(service.queue) == 1
