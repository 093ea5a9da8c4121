"""Tests for the content-addressed simulation cache."""

import json

import pytest

from repro.config import SystemSpec
from repro.model.calibration import DEFAULT_CALIBRATION
from repro.model.simulator import QuerySpec
from repro.obs import MetricsRegistry, install, reset
from repro.parallel import (
    KEY_SCHEMA,
    SimulationCache,
    SimulationRequest,
    decode_results,
    encode_results,
    evaluate,
)
from repro.workloads.microbench import query1, query2


def _request(spec=None, profile=None, cores=None, mask=None):
    spec = spec if spec is not None else SystemSpec()
    if profile is None:
        profile = query1().profile(DEFAULT_CALIBRATION)
    return SimulationRequest(
        spec=spec,
        calibration=DEFAULT_CALIBRATION,
        queries=(
            QuerySpec(
                name=profile.name,
                profile=profile,
                cores=cores if cores is not None else spec.cores,
                mask=mask if mask is not None else spec.full_mask,
            ),
        ),
    )


class TestKey:
    def test_equal_content_equal_key(self):
        assert _request().key() == _request().key()

    def test_mask_changes_key(self):
        assert _request(mask=0x3).key() != _request(mask=0xF).key()

    def test_cores_change_key(self):
        assert _request(cores=2).key() != _request(cores=4).key()

    def test_profile_changes_key(self):
        other = query2(10**7, 10**4).profile(8, DEFAULT_CALIBRATION)
        assert _request().key() != _request(profile=other).key()

    def test_query_order_changes_key(self):
        # Deliberate: the fixed point's float-summation order follows
        # the query list, so different orderings must not alias.
        spec = SystemSpec()
        scan = query1().profile(DEFAULT_CALIBRATION)
        agg = query2(10**7, 10**4).profile(
            spec.cores, DEFAULT_CALIBRATION
        )
        specs = [
            QuerySpec(p.name, p, spec.cores, spec.full_mask)
            for p in (scan, agg)
        ]
        forward = SimulationRequest(
            spec=spec, calibration=DEFAULT_CALIBRATION,
            queries=tuple(specs),
        )
        backward = SimulationRequest(
            spec=spec, calibration=DEFAULT_CALIBRATION,
            queries=tuple(reversed(specs)),
        )
        assert forward.key() != backward.key()

    def test_solver_params_change_key(self):
        loose = SimulationRequest(
            spec=_request().spec,
            calibration=DEFAULT_CALIBRATION,
            queries=_request().queries,
            tolerance=1e-3,
        )
        assert loose.key() != _request().key()

    def test_key_payload_is_json_canonical(self):
        payload = _request().key_payload()
        assert payload["key_schema"] == KEY_SCHEMA
        # The content address is computed on the canonical dump; two
        # payloads of the same request produce identical bytes.
        canonical = json.dumps(payload, sort_keys=True)
        assert canonical == json.dumps(
            _request().key_payload(), sort_keys=True
        )


class TestCodec:
    def test_results_round_trip_exactly(self):
        results = _request().solve()
        decoded = decode_results(
            json.loads(json.dumps(encode_results(results)))
        )
        assert decoded.keys() == results.keys()
        for name in results:
            assert decoded[name] == results[name]

    def test_decoded_objects_are_fresh(self):
        results = _request().solve()
        decoded = decode_results(encode_results(results))
        for name in results:
            assert decoded[name] is not results[name]


class TestLru:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SimulationCache(capacity=0)

    def test_put_get(self):
        cache = SimulationCache(capacity=4)
        cache.put("k1", {"a": 1})
        assert cache.get("k1") == {"a": 1}
        assert cache.get("missing") is None

    def test_eviction_order_is_least_recently_used(self):
        cache = SimulationCache(capacity=2)
        cache.put("k1", {"n": 1})
        cache.put("k2", {"n": 2})
        cache.get("k1")  # refresh k1: k2 becomes the LRU entry
        cache.put("k3", {"n": 3})
        assert cache.get("k2") is None
        assert cache.get("k1") == {"n": 1}
        assert cache.get("k3") == {"n": 3}

    def test_eviction_metric(self):
        registry = MetricsRegistry()
        install(new_metrics=registry)
        try:
            cache = SimulationCache(capacity=1)
            cache.put("k1", {})
            cache.put("k2", {})
            assert registry.counter("sim.cache.evictions").value == 1
        finally:
            reset()


class TestDiskLayer:
    def test_round_trip(self, tmp_path):
        cache = SimulationCache(capacity=4, disk_dir=tmp_path)
        cache.put("deadbeef", {"x": 1.5})
        # A second cache instance sharing the directory sees the entry.
        other = SimulationCache(capacity=4, disk_dir=tmp_path)
        assert other.get("deadbeef") == {"x": 1.5}

    def test_entries_namespaced_by_key_schema(self, tmp_path):
        cache = SimulationCache(capacity=4, disk_dir=tmp_path)
        cache.put("deadbeef", {})
        assert (tmp_path / f"v{KEY_SCHEMA}" / "deadbeef.json").exists()

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = SimulationCache(capacity=4, disk_dir=tmp_path)
        path = tmp_path / f"v{KEY_SCHEMA}" / "deadbeef.json"
        path.parent.mkdir(parents=True)
        path.write_text("{ torn write", encoding="utf-8")
        assert cache.get("deadbeef") is None

    def test_v2_entries_are_never_read(self, tmp_path, monkeypatch):
        # v3 changed the fixed point's convergence loop: a result
        # stored by a v2 build must not be served, whether it sits in
        # its own v2 directory under its v2 key or is copied into the
        # v3 directory under the current key.
        from repro.parallel import simcache

        assert KEY_SCHEMA == 3
        request = _request(mask=0x3)
        monkeypatch.setattr(simcache, "KEY_SCHEMA", 2)
        stale_key = request.key()
        SimulationCache(capacity=4, disk_dir=tmp_path).put(
            stale_key, {"stale": 1}
        )
        monkeypatch.undo()
        stale_path = tmp_path / "v2" / f"{stale_key}.json"
        assert stale_path.exists()
        assert request.key() != stale_key

        cache = SimulationCache(capacity=4, disk_dir=tmp_path)
        assert cache.get(stale_key) is None
        assert cache.get(request.key()) is None
        moved = tmp_path / "v3" / f"{request.key()}.json"
        moved.parent.mkdir()
        moved.write_text(
            stale_path.read_text(encoding="utf-8"), encoding="utf-8"
        )
        assert cache.get(request.key()) is None
        [results] = evaluate([request], cache=cache)
        assert "stale" not in results

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        registry = MetricsRegistry()
        install(new_metrics=registry)
        try:
            writer = SimulationCache(capacity=4, disk_dir=tmp_path)
            writer.put("deadbeef", {"x": 1})
            reader = SimulationCache(capacity=4, disk_dir=tmp_path)
            reader.get("deadbeef")
            reader.get("deadbeef")
            assert registry.counter("sim.cache.disk_hits").value == 1
            assert registry.counter("sim.cache.hits").value == 1
        finally:
            reset()


class TestEvaluate:
    def test_matches_direct_solve(self):
        request = _request()
        direct = request.solve()
        [cached] = evaluate([request], cache=SimulationCache())
        assert cached == direct

    def test_duplicate_requests_solved_once(self):
        registry = MetricsRegistry()
        install(new_metrics=registry)
        try:
            request = _request()
            first, second = evaluate(
                [request, request], cache=SimulationCache()
            )
            assert first == second
            assert registry.counter("sim.cache.misses").value == 1
            # The duplicate counts as the hit it would sequentially be.
            assert registry.counter("sim.cache.hits").value == 1
            assert registry.counter("sim.cache.stores").value == 1
        finally:
            reset()

    def test_no_cache_disables_dedup(self):
        registry = MetricsRegistry()
        install(new_metrics=registry)
        try:
            request = _request()
            first, second = evaluate([request, request], cache=None)
            assert first == second
            # The pre-cache code path: two solves, no cache traffic.
            assert registry.counter("simulator.solves").value == 2
            assert "sim.cache.misses" not in registry.snapshot()[
                "counters"
            ]
        finally:
            reset()

    def test_warm_cache_skips_solves(self):
        registry = MetricsRegistry()
        install(new_metrics=registry)
        try:
            request = _request()
            cache = SimulationCache()
            evaluate([request], cache=cache)
            solves = registry.counter("simulator.solves").value
            [warm] = evaluate([request], cache=cache)
            assert registry.counter("simulator.solves").value == solves
            assert warm == request.solve()
        finally:
            reset()

    def test_results_preserve_request_order(self):
        few_cores = _request(cores=2)
        all_cores = _request(cores=8)
        outcomes = evaluate(
            [few_cores, all_cores, few_cores], cache=SimulationCache()
        )
        name = query1().profile(DEFAULT_CALIBRATION).name
        assert outcomes[0] == outcomes[2]
        assert (
            outcomes[0][name].throughput_tuples_per_s
            < outcomes[1][name].throughput_tuples_per_s
        )
