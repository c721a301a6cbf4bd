"""Event and event-queue primitives for the discrete-event simulator.

The kernel is deliberately small: an :class:`Event` couples a firing time
with a callback, and :class:`EventQueue` is a binary heap keyed on
``(time, sequence)``. The monotonically increasing sequence number makes
event ordering fully deterministic even when many events share a
timestamp, which is essential for reproducible experiments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable

from ..errors import SimulationError


@dataclass(eq=False, slots=True)
class Event:
    """A scheduled callback.

    Events fire in ``(time, sequence)`` order. ``cancelled`` events stay
    in the heap but are skipped when popped (lazy deletion), which keeps
    cancellation O(1).
    """

    time: float
    sequence: int
    callback: Callable[[], None]
    name: str = ""
    cancelled: bool = False

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when its time comes."""
        self.cancelled = True


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects.

    The heap stores ``(time, sequence, event)`` tuples so ordering uses
    C-speed tuple comparison — the queue is the hottest structure in
    every closed-loop experiment.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Event]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return sum(1 for _, _, event in self._heap if not event.cancelled)

    def push(self, time: float, callback: Callable[[], None], name: str = "") -> Event:
        """Schedule ``callback`` at ``time`` and return the event handle."""
        if time != time:  # NaN guard
            raise SimulationError("cannot schedule an event at NaN time")
        sequence = next(self._counter)
        event = Event(time, sequence, callback, name)
        heappush(self._heap, (time, sequence, event))
        return event

    def pop(self) -> Event | None:
        """Remove and return the earliest live event, or None if empty."""
        heap = self._heap
        while heap:
            _, _, event = heappop(heap)
            if not event.cancelled:
                return event
        return None

    def peek_time(self) -> float | None:
        """Return the firing time of the earliest live event, if any."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def clear(self) -> None:
        """Drop every scheduled event."""
        self._heap.clear()


__all__ = ["Event", "EventQueue"]
