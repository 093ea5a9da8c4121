"""Tests for blueprint enumeration, scoring, and transition planning
(repro.planner.blueprint / transition)."""

import pytest

from repro.cluster.workload import cluster_classes, tenant_id
from repro.config import DEFAULT_SYSTEM
from repro.errors import PlannerError
from repro.planner import (
    BLUEPRINT_SCHEMES,
    Blueprint,
    BlueprintScorer,
    enumerate_blueprints,
    plan_transition,
    preferred_node,
    spread_blueprint,
    tenant_key,
)

GROUPS = ("batch", "olap", "oltp")


def _scorer(solve_memo=None, max_concurrency=8):
    classes = cluster_classes(DEFAULT_SYSTEM.cores)
    return BlueprintScorer(
        DEFAULT_SYSTEM,
        classes=classes,
        targets={"olap": 1.2, "oltp": 0.6},
        max_concurrency=max_concurrency,
        solve_memo=solve_memo,
    )


def _rates(batch=8.0, olap=8.0, oltp=8.0):
    classes = cluster_classes(DEFAULT_SYSTEM.cores)
    by_tenant: dict = {}
    for name, cls in classes.items():
        by_tenant.setdefault(cls.tenant, []).append(name)
    rates = {}
    for tenant, total in (
        ("batch", batch), ("olap", olap), ("oltp", oltp)
    ):
        for name in by_tenant[tenant]:
            rates[name] = total / len(by_tenant[tenant])
    return rates


class TestBlueprintValueObject:
    def test_build_normalizes_and_keys_deterministically(self):
        first = Blueprint.build(
            2, {"olap": [1, 0, 1], "batch": (0,)}, ("paper", "full")
        )
        second = Blueprint.build(
            2, {"batch": [0], "olap": [0, 1]}, ("paper", "full")
        )
        assert first.key() == second.key()
        assert first.placement_map() == {
            "batch": (0,), "olap": (0, 1)
        }

    def test_rejects_malformed_blueprints(self):
        with pytest.raises(PlannerError, match="schemes"):
            Blueprint.build(2, {"olap": [0]}, ("paper",))
        with pytest.raises(PlannerError, match="scheme"):
            Blueprint.build(1, {"olap": [0]}, ("exotic",))
        with pytest.raises(PlannerError, match="outside"):
            Blueprint.build(2, {"olap": [5]}, ("paper", "paper"))
        with pytest.raises(PlannerError, match="no nodes"):
            Blueprint.build(2, {"olap": []}, ("paper", "paper"))

    def test_preferred_node_cycles_the_home_set(self):
        home = (1, 3, 4)
        assert [preferred_node(home, i) for i in range(5)] == [
            1, 3, 4, 1, 3,
        ]


class TestEnumeration:
    def test_candidates_are_valid_unique_and_bounded(self):
        for nodes in (1, 2, 4):
            candidates = enumerate_blueprints(nodes, GROUPS)
            assert 0 < len(candidates) <= 64
            keys = [c.key() for c in candidates]
            assert len(set(keys)) == len(keys)
            assert keys == sorted(keys)
            for candidate in candidates:
                assert candidate.nodes == nodes

    def test_spread_and_isolation_families_present(self):
        candidates = enumerate_blueprints(4, GROUPS)
        placements = {c.key()[0] for c in candidates}
        spread = spread_blueprint(4, GROUPS, "paper")
        assert spread.key()[0] in placements
        isolating = [
            c for c in candidates
            if c.placement_map()["batch"] != (0, 1, 2, 3)
        ]
        assert isolating

    def test_max_candidates_truncates(self):
        full = enumerate_blueprints(4, GROUPS)
        capped = enumerate_blueprints(4, GROUPS, max_candidates=3)
        assert len(capped) == 3
        assert capped == full[:3]

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(PlannerError):
            enumerate_blueprints(2, ())
        with pytest.raises(PlannerError):
            enumerate_blueprints(2, GROUPS, max_candidates=0)


class TestScoring:
    def test_scoring_is_deterministic(self):
        rates = _rates()
        candidates = enumerate_blueprints(4, GROUPS)
        first = [
            _scorer().score(c, rates).to_dict() for c in candidates
        ]
        second = [
            _scorer().score(c, rates).to_dict() for c in candidates
        ]
        assert first == second

    def test_batch_heavy_forecast_prefers_isolation(self):
        scorer = _scorer()
        rates = _rates(batch=60.0, olap=2.0, oltp=2.0)
        spread = scorer.score(
            spread_blueprint(4, GROUPS, "paper"), rates
        )
        best = min(
            (
                scorer.score(c, rates)
                for c in enumerate_blueprints(4, GROUPS)
            ),
            key=lambda s: (round(s.score, 9), s.blueprint.key()),
        )
        assert best.score < spread.score
        assert best.blueprint.placement_map()["batch"] != (
            0, 1, 2, 3,
        )

    def test_overload_penalized(self):
        scorer = _scorer()
        calm = scorer.score(
            spread_blueprint(2, GROUPS, "paper"), _rates(4, 4, 4)
        )
        slammed = scorer.score(
            spread_blueprint(2, GROUPS, "paper"),
            _rates(400, 400, 400),
        )
        assert slammed.overload > 0.0
        assert slammed.score > calm.score

    def test_solve_memo_is_shared(self):
        memo: dict = {}
        rates = _rates()
        spread = spread_blueprint(2, GROUPS, "paper")
        first = _scorer(memo)
        first.score(spread, rates)
        assert first.solves > 0
        second = _scorer(memo)
        second.score(spread, rates)
        assert second.solves == 0

    def test_solve_memo_keyed_by_slot_size(self):
        # A scorer at another max_concurrency sizes its slots
        # differently; its entries must not be served as this one's.
        memo: dict = {}
        rates = _rates()
        candidates = enumerate_blueprints(2, GROUPS)
        other = _scorer(memo, max_concurrency=2)
        other.score_many(candidates, rates)
        warm = _scorer(memo)
        warm_scores = [warm.score(c, rates) for c in candidates]
        warm_batch = _scorer(memo).score_many(candidates, rates)
        cold = _scorer({})
        cold_scores = [cold.score(c, rates) for c in candidates]
        # Nothing aliased: the warm scorer solved every composition a
        # cold one does.
        assert warm.solves == cold.solves > 0
        for index, expected in enumerate(cold_scores):
            assert warm_scores[index].to_dict() == expected.to_dict()
            assert warm_batch.materialize(index).to_dict() == (
                expected.to_dict()
            )


class TestBatchScoring:
    # score_many is the batched twin of score(): same arithmetic,
    # same floats, bit for bit — satellite guarantee for the search.

    def test_batch_matches_scalar_exactly_on_the_family(self):
        memo: dict = {}
        scorer = _scorer(memo)
        rates = _rates(batch=12.0, olap=20.0, oltp=30.0)
        candidates = enumerate_blueprints(4, GROUPS)
        batch = scorer.score_many(candidates, rates)
        assert len(batch) == len(candidates)
        for index, candidate in enumerate(candidates):
            scalar = scorer.score(candidate, rates)
            materialized = batch.materialize(index)
            assert materialized.score == scalar.score
            assert materialized.objective == scalar.objective
            assert materialized.overload == scalar.overload
            assert materialized.utilization == scalar.utilization
            assert materialized.predicted_s == scalar.predicted_s
            assert materialized.to_dict() == scalar.to_dict()

    def test_batch_handles_mixed_node_counts(self):
        scorer = _scorer({})
        rates = _rates()
        population = (
            enumerate_blueprints(2, GROUPS)
            + enumerate_blueprints(3, GROUPS)
            + enumerate_blueprints(4, GROUPS)
        )
        batch = scorer.score_many(population, rates)
        for index, candidate in enumerate(population):
            scalar = scorer.score(candidate, rates)
            assert batch.materialize(index).to_dict() == (
                scalar.to_dict()
            )

    def test_zero_rates_score_zero_everywhere(self):
        scorer = _scorer({})
        candidates = enumerate_blueprints(3, GROUPS)
        zero = {name: 0.0 for name in _rates()}
        batch = scorer.score_many(candidates, zero)
        for index, candidate in enumerate(candidates):
            materialized = batch.materialize(index)
            scalar = scorer.score(candidate, zero)
            assert materialized.to_dict() == scalar.to_dict()
            assert materialized.score == 0.0
        assert scorer.solves == 0

    def test_batch_feeds_the_shared_memo(self):
        memo: dict = {}
        rates = _rates()
        candidates = enumerate_blueprints(4, GROUPS)
        first = _scorer(memo)
        first.score_many(candidates, rates)
        assert first.solves > 0
        assert len(memo) == first.solves
        # A scalar scorer (and a second batch) hit the memo cold.
        second = _scorer(memo)
        for candidate in candidates:
            second.score(candidate, rates)
        assert second.solves == 0
        third = _scorer(memo)
        third.score_many(candidates, rates)
        assert third.solves == 0

    def test_unknown_forecast_class_is_rejected(self):
        scorer = _scorer({})
        rates = dict(_rates())
        rates["mystery"] = 5.0
        with pytest.raises(PlannerError, match="catalog"):
            scorer.score_many(
                enumerate_blueprints(2, GROUPS), rates
            )

    def test_empty_population_is_fine(self):
        batch = _scorer({}).score_many((), _rates())
        assert len(batch) == 0
        assert batch.materialize_all() == []


class TestBatchScalarEquivalenceProperties:
    # Satellite: hypothesis sweep over random placements, schemes and
    # rate mixes — batch and scalar must agree bit for bit, so the
    # family ranking (score, then canonical key) is identical too.

    hypothesis = pytest.importorskip("hypothesis")

    def test_random_populations_rank_identically(self):
        from hypothesis import given, settings, strategies as st

        schemes = st.sampled_from(sorted(BLUEPRINT_SCHEMES))
        nodes_st = st.integers(min_value=1, max_value=5)

        @st.composite
        def blueprints(draw):
            nodes = draw(nodes_st)
            placement = {}
            for group in GROUPS:
                home = draw(st.sets(
                    st.integers(0, nodes - 1),
                    min_size=1, max_size=nodes,
                ))
                placement[group] = tuple(sorted(home))
            return Blueprint.build(
                nodes,
                placement,
                tuple(
                    draw(schemes) for _ in range(nodes)
                ),
            )

        rate_st = st.floats(
            min_value=0.0, max_value=200.0,
            allow_nan=False, allow_infinity=False,
        )

        memo: dict = {}
        scorer = _scorer(memo)

        @settings(max_examples=25, deadline=None)
        @given(
            population=st.lists(
                blueprints(), min_size=1, max_size=6
            ),
            batch=rate_st, olap=rate_st, oltp=rate_st,
        )
        def check(population, batch, olap, oltp):
            rates = _rates(batch=batch, olap=olap, oltp=oltp)
            scored = scorer.score_many(population, rates)
            scalar = [
                scorer.score(candidate, rates)
                for candidate in population
            ]
            for index in range(len(population)):
                assert scored.materialize(index).to_dict() == (
                    scalar[index].to_dict()
                )
                assert float(scored.scores[index]) == (
                    scalar[index].score
                )
            rank = sorted(
                range(len(population)),
                key=lambda i: (
                    round(float(scored.scores[i]), 9),
                    population[i].key(),
                ),
            )
            scalar_rank = sorted(
                range(len(population)),
                key=lambda i: (
                    round(scalar[i].score, 9),
                    population[i].key(),
                ),
            )
            assert rank == scalar_rank

        check()


class TestTransition:
    def test_tenant_key_matches_cluster_tenant_id(self):
        for group in GROUPS:
            for index in range(12):
                assert tenant_key(group, index) == tenant_id(
                    group, index
                )

    def test_scheme_only_change_moves_nobody(self):
        plan = plan_transition(
            spread_blueprint(3, GROUPS, "paper"),
            spread_blueprint(3, GROUPS, "full"),
            tenants_per_group=10,
            time_s=2.0,
            downtime_s=0.25,
        )
        assert plan.moves == ()
        assert plan.blackout_until_s == pytest.approx(2.25)

    def test_placement_change_moves_exactly_rehomed_tenants(self):
        current = spread_blueprint(4, GROUPS, "paper")
        target = Blueprint.build(
            4,
            {
                "batch": (3,),
                "olap": (0, 1, 2),
                "oltp": (0, 1, 2),
            },
            ("paper", "paper", "paper", "full"),
        )
        tenants = 8
        plan = plan_transition(current, target, tenants, 4.0, 0.5)
        moved = {move.tenant for move in plan.moves}
        for group in GROUPS:
            old_home = current.placement_map()[group]
            new_home = target.placement_map()[group]
            for index in range(tenants):
                expect = (
                    preferred_node(old_home, index)
                    != preferred_node(new_home, index)
                )
                key = tenant_key(group, index)
                assert (key in moved) == expect
        for move in plan.moves:
            assert move.source != move.target

    def test_rejects_mismatched_fleets_and_bad_knobs(self):
        with pytest.raises(PlannerError, match="different fleets"):
            plan_transition(
                spread_blueprint(2, GROUPS),
                spread_blueprint(3, GROUPS),
                1, 0.0, 0.0,
            )
        with pytest.raises(PlannerError):
            plan_transition(
                spread_blueprint(2, GROUPS),
                spread_blueprint(2, GROUPS),
                0, 0.0, 0.0,
            )
        with pytest.raises(PlannerError):
            plan_transition(
                spread_blueprint(2, GROUPS),
                spread_blueprint(2, GROUPS),
                1, 0.0, -1.0,
            )

    def test_schemes_registry_has_full_and_paper(self):
        assert set(BLUEPRINT_SCHEMES) == {"full", "paper"}
