"""Discrete-event queue with deterministic tie-breaking.

Events are ordered by ``(time, seq)``: ``seq`` is the global insertion
number, so two events scheduled for the same instant always dispatch in
the order they were created.  This is what makes the whole service a
pure function of (configuration, seed) — ``heapq`` never has to compare
payloads, and no ordering decision depends on hash order or object
identity.

Besides the heap the queue holds one replaceable **staged** event: a
service's single pending completion.  Staging takes its ``seq`` from
the same counter as :meth:`EventQueue.push`, so the staged event
orders against heap events exactly as a pushed one would; re-staging
replaces it, and :meth:`EventQueue.unstage` withdraws it.  A replaced
or withdrawn event never dispatches, so nothing in the queue is ever
stale.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field

from ..errors import ServeError


class EventKind(enum.Enum):
    """The service's event vocabulary."""

    ARRIVAL = "arrival"          # a new request enters the system
    COMPLETION = "completion"    # a running request finishes its work
    CONTROL = "control"          # the adaptive controller's tick


@dataclass(frozen=True)
class Event:
    """One scheduled occurrence."""

    time_s: float
    seq: int
    kind: EventKind
    payload: dict = field(default_factory=dict)

    @property
    def sort_key(self) -> tuple[float, int]:
        return (self.time_s, self.seq)


class EventQueue:
    """Min-heap of events keyed by ``(time, seq)``, plus one staged slot.

    Counters: ``pushed`` counts every event scheduled (heap pushes and
    stagings), ``popped`` every event dispatched, and ``superseded``
    every staged event replaced or withdrawn before it dispatched, so
    ``pushed == popped + superseded + len(queue)`` always holds.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._staged: tuple[float, int, Event] | None = None
        self._seq = 0
        self.pushed = 0
        self.popped = 0
        self.superseded = 0

    def _event(self, time_s: float, kind: EventKind, payload) -> Event:
        if time_s < 0.0:
            raise ServeError(f"event time must be >= 0: {time_s}")
        event = Event(float(time_s), self._seq, kind, payload)
        self._seq += 1
        self.pushed += 1
        return event

    def push(
        self, time_s: float, kind: EventKind, **payload
    ) -> Event:
        """Schedule an event; returns it (its ``seq`` is the handle)."""
        event = self._event(time_s, kind, payload)
        heapq.heappush(self._heap, (event.time_s, event.seq, event))
        return event

    def stage(
        self, time_s: float, kind: EventKind, **payload
    ) -> Event:
        """Schedule an event into the slot, replacing any staged one."""
        event = self._event(time_s, kind, payload)
        if self._staged is not None:
            self.superseded += 1
        self._staged = (event.time_s, event.seq, event)
        return event

    def unstage(self) -> None:
        """Withdraw the staged event, if any."""
        if self._staged is not None:
            self.superseded += 1
            self._staged = None

    @property
    def staged(self) -> Event | None:
        """The staged event (None when the slot is empty)."""
        return self._staged[2] if self._staged is not None else None

    def pop(self) -> Event:
        staged = self._staged
        heap = self._heap
        if staged is not None and (not heap or staged < heap[0]):
            self._staged = None
            event = staged[2]
        elif heap:
            event = heapq.heappop(heap)[2]
        else:
            raise ServeError("pop from an empty event queue")
        self.popped += 1
        return event

    def peek_time(self) -> float:
        staged = self._staged
        heap = self._heap
        if staged is None:
            if not heap:
                raise ServeError("peek into an empty event queue")
            return heap[0][0]
        if heap and heap[0] < staged:
            return heap[0][0]
        return staged[0]

    def __len__(self) -> int:
        return len(self._heap) + (self._staged is not None)

    def __bool__(self) -> bool:
        return bool(self._heap) or self._staged is not None
