"""The model's outer fixed point: Anderson mixing, the undamped
residual stop, and placement limit-cycle freezing."""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SystemSpec
from repro.model import simulator
from repro.model.simulator import (
    QuerySpec,
    SimulationResults,
    WorkloadSimulator,
)
from repro.obs import MetricsRegistry, NULL_TRACER, observing
from repro.serve.arrivals import catalog_classes

SPEC = SystemSpec()
CLASSES = catalog_classes()

#: Compositions (class, cores, CAT mask) whose solves never converged
#: under the old damped loop: every one ran into the 300-round limit
#: while its greedy placement hopped between orderings.  Captured from
#: the 10 s default adaptive fleet (seed 7, 4 nodes, least-loaded,
#: olap mix, 20 requests/s per node).
LIMIT_CYCLE_COMPOSITIONS = (
    (("agg", 9, 0xFFFFF), ("join", 3, 0xFFFFF), ("oltp", 3, 0xFF),
     ("scan", 3, 0x3)),
    (("agg", 9, 0xFFFFF), ("join", 3, 0xFFFFF), ("oltp", 3, 0xFF),
     ("scan", 6, 0x3)),
    (("agg", 9, 0xFFFFF), ("join", 3, 0xFFFFF), ("oltp", 6, 0xFF),
     ("scan", 6, 0x3)),
    (("agg", 6, 0xFFFFF), ("join", 9, 0xFF), ("oltp", 6, 0xFF),
     ("scan", 3, 0x3)),
    (("agg", 6, 0xFFFFF), ("join", 9, 0xFF), ("oltp", 3, 0xFF),
     ("scan", 3, 0x3)),
    (("agg", 9, 0xFFFFF), ("join", 9, 0xFF), ("oltp", 3, 0xFF),
     ("scan", 3, 0x3)),
    (("agg", 12, 0xFFFFF), ("join", 9, 0xFF), ("scan", 3, 0x3)),
    (("agg", 9, 0xFFFFF), ("join", 9, 0xFF), ("scan", 3, 0x3)),
    (("agg", 6, 0xFFFFF), ("join", 9, 0xFF), ("scan", 3, 0x3)),
    (("agg", 9, 0xFFFFF), ("oltp", 6, 0xFF), ("scan", 9, 0x3)),
)


def _specs(composition) -> list[QuerySpec]:
    return [
        QuerySpec(f"{name}{index}", CLASSES[name].profile, cores, mask)
        for index, (name, cores, mask) in enumerate(composition)
    ]


def _simulate(specs, **knobs):
    with observing(NULL_TRACER, MetricsRegistry()) as (_, registry):
        results = WorkloadSimulator(SPEC, **knobs).simulate(specs)
    return results, registry


def _payload(results) -> str:
    return json.dumps(
        {name: result.to_dict() for name, result in results.items()}
    )


masks = st.one_of(
    st.sampled_from((0x3, 0xFF, 0xFFFFF)),
    st.integers(min_value=1, max_value=SPEC.full_mask),
)
compositions = st.lists(
    st.tuples(
        st.sampled_from(sorted(CLASSES)),
        st.integers(min_value=1, max_value=16),
        masks,
    ),
    min_size=2,
    max_size=4,
)


class TestConvergence:
    @given(composition=compositions)
    @settings(max_examples=60, deadline=None)
    def test_random_compositions_converge(self, composition):
        specs = _specs(composition)
        results, registry = _simulate(specs)
        assert isinstance(results, SimulationResults)
        assert results.converged
        assert results.residual <= WorkloadSimulator(SPEC).tolerance
        assert (
            registry.counter("simulator.convergence_failures").value == 0
        )
        [batched] = WorkloadSimulator(SPEC).simulate_many([specs])
        assert _payload(batched) == _payload(results)
        assert batched.rounds == results.rounds

    def test_residual_is_undamped(self):
        # Every query's throughput reproduces itself through one more
        # model evaluation to within the tolerance.
        specs = _specs(LIMIT_CYCLE_COMPOSITIONS[0][:2])
        results, _ = _simulate(specs)
        assert results.converged
        assert 0.0 <= results.residual <= 1e-6

    def test_round_limit_reports_failure(self):
        specs = _specs(LIMIT_CYCLE_COMPOSITIONS[0])
        results, registry = _simulate(specs, max_iterations=2)
        assert not results.converged
        assert results.rounds == 2
        assert results.residual > 1e-6
        assert (
            registry.counter("simulator.convergence_failures").value == 1
        )

    def test_results_pickle_with_their_status(self):
        specs = _specs(LIMIT_CYCLE_COMPOSITIONS[0])
        results, _ = _simulate(specs, max_iterations=2)
        clone = pickle.loads(pickle.dumps(results))
        assert not clone.converged
        assert clone.rounds == 2
        assert _payload(clone) == _payload(results)


class TestLimitCycles:
    @pytest.mark.parametrize(
        "composition", LIMIT_CYCLE_COMPOSITIONS,
        ids=[
            "-".join(f"{name}{cores}" for name, cores, _ in composition)
            for composition in LIMIT_CYCLE_COMPOSITIONS
        ],
    )
    def test_converges_whenever_the_cycle_is_caught(
        self, composition, monkeypatch
    ):
        specs = _specs(composition)
        rates = []
        for stall_rounds in (4, 5, 7, 10):
            monkeypatch.setattr(
                simulator, "_STALL_ROUNDS", stall_rounds
            )
            results, registry = _simulate(specs)
            assert results.converged
            assert results.limit_cycle
            assert results.rounds < 150
            assert (
                registry.counter("simulator.limit_cycles").value == 1
            )
            rates.append([
                result.throughput_tuples_per_s
                for result in results.values()
            ])
        for other in rates[1:]:
            assert other == pytest.approx(rates[0], rel=1e-5)


class TestLeastSquares:
    def test_solves_a_small_system(self):
        columns = [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
        target = [2.0, 3.0, 5.0]
        assert simulator._least_squares(columns, target) == (
            pytest.approx([2.0, 3.0])
        )

    def test_drops_dependent_columns_oldest_first(self):
        columns = [[1.0, 2.0], [2.0, 4.0]]
        gamma = simulator._least_squares(columns, [1.0, 2.0])
        assert gamma == pytest.approx([0.5])

    def test_no_usable_columns(self):
        assert simulator._least_squares([[0.0, 0.0]], [1.0, 1.0]) == []
        assert simulator._least_squares([], [1.0]) == []
