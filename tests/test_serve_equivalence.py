"""Solve-sharing equivalence: a shared solve memo never changes a report.

Services share composition solves through ``solve_memo``; each still
owns its rate cache and counts its own misses.  The contract is
*byte-identical reports*: a run whose memo was warmed by other runs —
including runs at a different ``max_concurrency``, whose slots hold a
different number of cores — must print exactly the report of a cold
run, counters included.  Only the redundant model solves go away.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import QueryService, ServiceConfig


def _report(solve_memo=None, **overrides) -> str:
    defaults = dict(
        profile="poisson", policy="none", mix="olap",
        duration_s=4.0, rate_per_s=8.0, seed=7,
    )
    defaults.update(overrides)
    config = ServiceConfig(**defaults)
    return QueryService(config, solve_memo=solve_memo).run().to_json()


def _assert_sharing_invisible(**overrides) -> None:
    cold = _report(**overrides)
    memo: dict = {}
    # Warm the memo at another slot size first: none of its entries
    # may be served to the runs below.
    _report(memo, max_concurrency=2, **overrides)
    assert _report(memo, **overrides) == cold
    # Now every composition is a memo hit.
    assert _report(memo, **overrides) == cold


class TestPolicies:
    def test_none(self):
        _assert_sharing_invisible(policy="none")

    def test_static(self):
        _assert_sharing_invisible(policy="static")

    def test_adaptive(self):
        _assert_sharing_invisible(policy="adaptive", duration_s=6.0)


class TestProfiles:
    def test_bursty(self):
        _assert_sharing_invisible(profile="bursty")

    def test_diurnal(self):
        _assert_sharing_invisible(profile="diurnal")

    def test_mix_shift(self):
        _assert_sharing_invisible(mix="shift", duration_s=6.0)


class TestSampling:
    def test_sampled_run_identical(self):
        _assert_sharing_invisible(
            duration_s=9.0, sample_window_s=1.0, sample_period=3,
            sample_warmup=0.5,
        )

    def test_warmup_disabled(self):
        _assert_sharing_invisible(
            duration_s=9.0, sample_window_s=1.5, sample_period=2,
            sample_warmup=0.0,
        )


class TestPropertyBased:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        profile=st.sampled_from(("poisson", "bursty", "diurnal")),
        policy=st.sampled_from(("none", "static", "adaptive")),
    )
    def test_reports_byte_identical(self, seed, profile, policy):
        _assert_sharing_invisible(
            seed=seed, profile=profile, policy=policy,
            duration_s=3.0, rate_per_s=6.0,
        )
