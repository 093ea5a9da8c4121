"""A fixed reference workload that tells how fast the host runs now.

On a shared virtual machine the speed of the same code drifts by
20-50% over a few minutes: the host moves load between guests, and
CPU time slows with it, not only wall time.  Two runs of the same
commit minutes apart then differ by more than any useful bound.  The
benchmark therefore times this yardstick in each repetition's process,
once before the program is imported and once after the timed run, and
reports the program's times in *reference seconds*::

    reference seconds = CPU seconds * REFERENCE_S / yardstick CPU seconds

The yardstick mixes the kinds of work the simulator does (an event
heap of small tuples, dict and list churn over a working set larger
than the L2 cache, a small fixed-point iteration over floats, and a
tight integer loop), so it slows and speeds up with the host as the
program does.  The shares were chosen from 132 repetitions of the
three workloads taken while the host slowed and recovered: with them
the program's CPU time moves in proportion to the yardstick's (log-log
slope 0.97 to 1.05), where the first three parts alone, without the
integer loop, over-react (slope 0.85 to 0.92).  It is plain
Python and imports nothing from ``repro`` or NumPy: a change to the
program cannot move it, a program that gets faster or slower shows up
in full, and timing it before the program is imported leaves the
set-up time and the peak memory of the program alone.  A change that
claims a gain may not edit this file: that would rescale every time
the benchmark reports.
"""

from __future__ import annotations

import heapq
import random
import time

#: CPU seconds :func:`measure` takes on the 2-CPU x86 virtual machine
#: the benchmark was set up on, in one of its fast spells.  It only
#: sets the scale: on a host running at that speed a reference second
#: is a CPU second.
REFERENCE_S = 0.18


def _event_heap(requests: int) -> None:
    rng = random.Random(7)
    events = []
    now = 0.0
    for rid in range(requests):
        now += rng.expovariate(20.0)
        heapq.heappush(events, (now, 0, rid, rng.expovariate(25.0)))
    busy = [0.0] * 4
    done_at = {}
    while events:
        now, kind, rid, work = heapq.heappop(events)
        if kind == 0:
            node = min(range(4), key=busy.__getitem__)
            finish = max(now, busy[node]) + work
            busy[node] = finish
            heapq.heappush(events, (finish, 1, rid, work))
        else:
            done_at[rid] = now


def _churn(touches: int) -> None:
    rng = random.Random(1)
    slots = 1_000_000
    picks = [rng.randrange(slots) for _ in range(touches)]
    table = [None] * slots
    index = {}
    for pick in picks:
        table[pick] = (pick, pick + 1)
        index[pick] = table[pick]
    total = 0
    for pick in picks:
        total += index[pick][1]


def _fixed_point(rounds: int) -> None:
    rng = random.Random(3)
    size = 12
    matrix = [[rng.random() / size for _ in range(size)] for _ in range(size)]
    vector = [1.0] * size
    for _ in range(rounds):
        scale = 1.0 + 0.01 * sum(vector)
        vector = [
            max(1e-9, 0.5 * (value + sum(map(float.__mul__, row, vector))
                             / scale))
            for value, row in zip(vector, matrix)
        ]


def _integer_loop(steps: int) -> None:
    value = 0
    for step in range(steps):
        value += step ^ (value & 7)


def measure() -> float:
    """CPU seconds one pass of the yardstick takes in this process."""
    started = time.process_time()
    _event_heap(15_000)
    _churn(50_000)
    _fixed_point(750)
    _integer_loop(900_000)
    return time.process_time() - started
