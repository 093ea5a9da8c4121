"""Self-tests of the benchmark harness (no program needed).

    python3 -m pytest perfbench/test_harness.py
    python3 perfbench/test_harness.py
"""

import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    Recorder,
    patched,
    percentile,
    summarize,
    tail_count,
)
from run import _end_to_end  # noqa: E402
from yardstick import REFERENCE_S  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class Layered:
    """Synthetic nested calls: outer -> (inner, inner) -> leaf."""

    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock

    def outer(self):
        self.clock.now += 1.0
        self.inner()
        self.clock.now += 0.5
        self.inner()
        return "done"

    def inner(self):
        self.clock.now += 2.0
        self.leaf()

    def leaf(self):
        self.clock.now += 0.25

    @staticmethod
    def helper(value):
        return value * 2

    @classmethod
    def build(cls):
        return cls


class Child(Layered):
    """Inherits every method, so patching adds and removes attributes."""


class SelfTimeTest(unittest.TestCase):
    def test_self_time_of_nested_calls(self):
        clock = FakeClock()
        recorder = Recorder(clock=clock)
        targets = [
            (Layered, "outer", "alpha.outer"),
            (Layered, "inner", "beta.inner"),
            (Layered, "leaf", "beta.leaf"),
        ]
        with patched(targets, recorder.wrap):
            self.assertEqual(Layered(clock).outer(), "done")
        clock.now += 0.75  # unwrapped work after the call
        summary = summarize(recorder.spans, wall_s=clock.now)
        calls = summary["calls"]
        self.assertEqual(calls["alpha.outer"]["calls"], 1)
        self.assertAlmostEqual(calls["alpha.outer"]["busy_s"], 6.0)
        self.assertAlmostEqual(calls["alpha.outer"]["self_s"], 1.5)
        self.assertEqual(calls["beta.inner"]["calls"], 2)
        self.assertAlmostEqual(calls["beta.inner"]["busy_s"], 4.5)
        self.assertAlmostEqual(calls["beta.inner"]["self_s"], 4.0)
        self.assertAlmostEqual(calls["beta.leaf"]["self_s"], 0.5)
        # A layer's busy time counts its outermost spans only.
        layers = summary["layers"]
        self.assertAlmostEqual(layers["beta"]["busy_s"], 4.5)
        self.assertAlmostEqual(layers["beta"]["self_s"], 4.5)
        self.assertAlmostEqual(layers["alpha"]["self_s"], 1.5)
        self.assertAlmostEqual(summary["residual_s"], 0.75)
        accounted = sum(row["self_s"] for row in layers.values())
        self.assertAlmostEqual(
            accounted + summary["residual_s"], summary["wall_s"]
        )

    def test_recursive_call_is_not_counted_twice(self):
        clock = FakeClock()
        recorder = Recorder(clock=clock)

        def countdown(n):
            clock.now += 1.0
            if n:
                countdown_traced(n - 1)

        countdown_traced = recorder.wrap("gamma.countdown", countdown)
        countdown_traced(2)
        summary = summarize(recorder.spans, wall_s=clock.now)
        row = summary["calls"]["gamma.countdown"]
        self.assertEqual(row["calls"], 3)
        self.assertAlmostEqual(row["busy_s"], 3.0)
        self.assertAlmostEqual(row["self_s"], 3.0)
        self.assertAlmostEqual(summary["residual_s"], 0.0)


class RestoreTest(unittest.TestCase):
    def test_wrappers_are_removed_on_exit(self):
        before = dict(vars(Layered))
        child_before = dict(vars(Child))
        recorder = Recorder()
        targets = [
            (Layered, "outer", "a.outer"),
            (Layered, "helper", "a.helper"),
            (Layered, "build", "a.build"),
            (Child, "inner", "a.inner"),
        ]
        with patched(targets, recorder.wrap):
            self.assertIsNot(vars(Layered)["outer"], before["outer"])
            self.assertIn("inner", vars(Child))
            self.assertEqual(Layered.helper(3), 6)
            self.assertIs(Child.build(), Child)
        self.assertEqual(dict(vars(Layered)), before)
        self.assertEqual(dict(vars(Child)), child_before)
        self.assertEqual(
            [span[0] for span in recorder.spans], ["a.helper", "a.build"]
        )

    def test_wrappers_are_removed_when_the_block_raises(self):
        before = dict(vars(Layered))
        with self.assertRaises(RuntimeError):
            with patched([(Layered, "leaf", "a.leaf")], Recorder().wrap):
                raise RuntimeError("boom")
        self.assertEqual(dict(vars(Layered)), before)

    def test_span_closes_when_the_call_raises(self):
        clock = FakeClock()
        recorder = Recorder(clock=clock)

        def fails():
            clock.now += 1.0
            raise ValueError("bad")

        with self.assertRaises(ValueError):
            recorder.wrap("a.fails", fails)()
        self.assertEqual(recorder.spans, [["a.fails", -1, 0.0, 1.0]])


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = [float(v) for v in range(1, 201)]
        self.assertEqual(percentile(values, 0.5), 100.0)
        self.assertEqual(percentile(values, 0.95), 190.0)
        self.assertEqual(tail_count(200, 0.95), 10)
        self.assertEqual(tail_count(199, 0.95), 9)
        self.assertEqual(percentile([], 0.5), 0.0)


class ReferenceSecondsTest(unittest.TestCase):
    def rep(self, cpu_s, yardstick_s):
        return {"setup_cpu_s": cpu_s / 10, "cpu_s": cpu_s,
                "yardstick_s": [yardstick_s, yardstick_s],
                "operations": 100,
                "peak_rss_mb": 50.0}

    def test_host_speed_cancels(self):
        # The same work on a host running at half speed: the run and
        # the yardstick both take twice as long.
        fast = _end_to_end([self.rep(2.0, REFERENCE_S)], 0.01)
        slow = _end_to_end([self.rep(4.0, 2 * REFERENCE_S)], 0.01)
        self.assertAlmostEqual(fast["run_s"][0], 2.0)
        self.assertAlmostEqual(fast["requests_per_s"][0], 50.0)
        for name in ("setup_s", "run_s", "requests_per_s"):
            self.assertAlmostEqual(fast[name][0], slow[name][0])

    def test_yardstick_never_imports_the_program(self):
        code = (
            "import sys, yardstick; yardstick.measure(); "
            "print(any(m.split('.')[0] == 'repro' for m in sys.modules))"
        )
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=HERE, capture_output=True,
            text=True, check=True,
        )
        self.assertEqual(done.stdout.strip(), "False")


if __name__ == "__main__":
    unittest.main()
