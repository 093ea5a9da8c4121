"""Behaviour lock: canonical reports match the checked-in digests.

See ``tests/golden/corpus.py`` for the scenario matrix and the
``--regen`` helper that reports (and rewrites) moved scenarios.
"""

from __future__ import annotations

import pytest

from tests.golden import corpus

EXPECTED = corpus.load_digests()


def test_digest_file_covers_the_matrix():
    assert sorted(EXPECTED) == sorted(corpus.scenarios())


@pytest.mark.parametrize("name", sorted(corpus.scenarios()))
def test_report_matches_golden_digest(name):
    current = corpus.run_scenario(name)
    expected = EXPECTED[name]
    assert current == expected, corpus.describe_move(
        name, expected, current
    )


def test_every_golden_solve_converged():
    assert {
        name: summary["unconverged_solves"]
        for name, summary in EXPECTED.items()
        if summary["unconverged_solves"]
    } == {}
