"""Tests for the deterministic event queue and the service's event core."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.serve import QueryService, ServiceConfig
from repro.serve.arrivals import catalog_classes
from repro.serve.events import EventKind, EventQueue
from repro.serve.replay import ReplayArrivals


class TestOrdering:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        queue.push(3.0, EventKind.COMPLETION)
        queue.push(1.0, EventKind.ARRIVAL)
        queue.push(2.0, EventKind.CONTROL)
        times = [queue.pop().time_s for _ in range(3)]
        assert times == [1.0, 2.0, 3.0]

    def test_ties_break_by_insertion_order(self):
        """Two events at the same instant dispatch in creation order —
        no dependence on payload comparison or hash order."""
        queue = EventQueue()
        first = queue.push(5.0, EventKind.ARRIVAL, tag="a")
        second = queue.push(5.0, EventKind.COMPLETION, tag="b")
        assert first.seq < second.seq
        assert queue.pop().payload["tag"] == "a"
        assert queue.pop().payload["tag"] == "b"

    def test_payload_carried(self):
        queue = EventQueue()
        queue.push(1.0, EventKind.COMPLETION, request_id=7)
        event = queue.pop()
        assert event.kind is EventKind.COMPLETION
        assert event.payload == {"request_id": 7}


class TestStagedSlot:
    def test_restaging_replaces_the_pending_event(self):
        queue = EventQueue()
        queue.stage(1.0, EventKind.COMPLETION, request_id=1)
        queue.stage(3.0, EventKind.COMPLETION, request_id=2)
        assert len(queue) == 1
        assert queue.peek_time() == 3.0  # the pending time moved later
        event = queue.pop()
        assert event.payload == {"request_id": 2}
        assert not queue
        assert (queue.pushed, queue.popped, queue.superseded) == (2, 1, 1)

    def test_staged_orders_against_heap_by_time_then_seq(self):
        queue = EventQueue()
        before = queue.push(2.0, EventKind.CONTROL)
        staged = queue.stage(2.0, EventKind.COMPLETION, request_id=0)
        after = queue.push(2.0, EventKind.ARRIVAL)
        queue.push(1.0, EventKind.ARRIVAL)
        assert queue.peek_time() == 1.0
        assert [queue.pop().seq for _ in range(4)] == [
            3, before.seq, staged.seq, after.seq,
        ]

    def test_unstage_withdraws(self):
        queue = EventQueue()
        queue.push(5.0, EventKind.CONTROL)
        queue.stage(1.0, EventKind.COMPLETION, request_id=0)
        queue.unstage()
        queue.unstage()  # idempotent on an empty slot
        assert queue.staged is None
        assert queue.peek_time() == 5.0
        assert len(queue) == 1
        assert queue.superseded == 1
        assert queue.pop().kind is EventKind.CONTROL

    def test_negative_staged_time_rejected(self):
        with pytest.raises(ServeError):
            EventQueue().stage(-1.0, EventKind.COMPLETION)


class TestBookkeeping:
    def test_counters_and_len(self):
        queue = EventQueue()
        assert not queue
        queue.push(1.0, EventKind.ARRIVAL)
        queue.push(2.0, EventKind.ARRIVAL)
        assert len(queue) == 2
        assert queue.pushed == 2
        queue.pop()
        assert queue.popped == 1
        assert len(queue) == 1
        assert bool(queue)

    def test_peek_time(self):
        queue = EventQueue()
        queue.push(4.0, EventKind.CONTROL)
        queue.push(2.0, EventKind.ARRIVAL)
        assert queue.peek_time() == 2.0
        assert len(queue) == 2  # peek does not consume


class TestValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ServeError):
            EventQueue().push(-0.1, EventKind.ARRIVAL)

    def test_empty_pop_and_peek(self):
        queue = EventQueue()
        with pytest.raises(ServeError):
            queue.pop()
        with pytest.raises(ServeError):
            queue.peek_time()


class EpochReference(QueryService):
    """The event core this one replaced, kept as a test oracle.

    Every reflow pushes a COMPLETION for *every* running request and
    bumps an epoch; completions from an older epoch are popped and
    dropped.  The composition is re-walked from the running set.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.epoch = 0
        self.completions: list[tuple[float, int]] = []

    def _composition_signature(self) -> tuple:
        counts: dict = {}
        for request in self.admission.running.values():
            key = (request.cls.name, self._mask_for(request.cls))
            counts[key] = counts.get(key, 0) + 1
        return tuple(
            (name, mask, count)
            for (name, mask), count in sorted(counts.items())
        )

    def _reflow(self, now: float) -> None:
        self._advance(now)
        self._state.rates = self._solve_rates()
        self.epoch += 1
        for request_id, rate in self._state.rates.items():
            eta = now + self._requests[request_id].remaining_tuples / rate
            self.queue.push(
                eta, EventKind.COMPLETION,
                request_id=request_id, epoch=self.epoch,
            )

    def _on_completion(self, now: float, payload: dict) -> None:
        if payload["epoch"] != self.epoch:
            return  # stale: superseded by a later reflow
        self.completions.append((now, payload["request_id"]))
        super()._on_completion(now, payload)


def _completion_sequence(service: QueryService) -> list:
    """Run ``service`` recording each dispatched completion."""
    seen: list[tuple[float, int]] = []
    dispatch = service.dispatch

    def recording(event) -> None:
        if event.kind is EventKind.COMPLETION:
            seen.append((event.time_s, event.payload["request_id"]))
        dispatch(event)

    service.dispatch = recording
    service.run()
    return seen


_CLASSES = sorted(catalog_classes().items())
_SOLVES: dict = {}

#: (gap to the previous arrival, class index).  Zero gaps put several
#: same-class arrivals at one instant, which ties their ETAs.
_STREAMS = st.lists(
    st.tuples(
        st.sampled_from((0.0, 0.0, 0.01, 0.05, 0.2, 0.7)),
        st.integers(0, len(_CLASSES) - 1),
    ),
    min_size=1,
    max_size=24,
)


@settings(max_examples=40, deadline=None)
@given(
    stream=_STREAMS,
    policy=st.sampled_from(("none", "static")),
    max_concurrency=st.integers(1, 4),
)
def test_one_pending_completion_matches_epoch_reference(
    stream, policy, max_concurrency
):
    """The one-slot core completes the same requests at the same
    instants, in the same order, as the push-every-ETA oracle."""
    arrivals, now = [], 0.0
    for gap, index in stream:
        now += gap
        arrivals.append((now, _CLASSES[index][1]))
    config = ServiceConfig(
        profile="replay", policy=policy, duration_s=now + 1.0,
        max_concurrency=max_concurrency, queue_depth=4,
    )
    runs = [
        cls(config, arrivals=ReplayArrivals(tuple(arrivals)),
            solve_memo=_SOLVES)
        for cls in (QueryService, EpochReference)
    ]
    current = _completion_sequence(runs[0])
    reference = runs[1]
    reference.run()
    assert current == reference.completions
    assert [v.to_dict() for v in runs[0]._report().slo] == [
        v.to_dict() for v in reference._report().slo
    ]
    # The oracle pops stale completions; the slot never does.
    assert runs[0].queue.popped == len(arrivals) + len(current)
