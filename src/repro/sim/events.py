"""Event-queue primitives for the discrete-event simulator.

The kernel is deliberately small: :class:`EventQueue` is a binary heap
of plain ``[time, sequence, callback, name]`` lists, keyed on
``(time, sequence)``. The monotonically increasing sequence number makes
event ordering fully deterministic even when many events share a
timestamp, which is essential for reproducible experiments; because it
is unique, list comparison never reaches the callback.

The entry :meth:`EventQueue.push` returns is also the event's handle.
Cancelling it clears its callback slot and leaves it in the heap, to be
skipped when popped: the "mark the entry as removed" recipe from the
:mod:`heapq` documentation, which keeps cancellation O(1). Handles are
opaque outside this package: cancel one with :meth:`EventQueue.cancel`
or :meth:`~repro.sim.kernel.Simulator.cancel`.

A queue pickles as its heap plus the next sequence number, so a
restored queue numbers its next push exactly where the original would.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Callable

from ..errors import SimulationError

#: A scheduled event: the heap entry ``[time, sequence, callback, name]``,
#: whose callback slot is ``None`` once cancelled.
Event = list

#: Index of the callback slot in an :data:`Event`.
_CALLBACK = 2


class EventQueue:
    """A deterministic priority queue of :data:`Event` entries.

    Entries are plain lists so ordering uses C-speed list comparison and
    building one costs a fraction of an object — the queue is the hottest
    structure in every closed-loop experiment.
    """

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return sum(1 for entry in self._heap if entry[_CALLBACK] is not None)

    def __getstate__(self) -> dict:
        # A count's position can only be read by consuming it, so this
        # queue carries on from a fresh count at the same number.
        sequence = next(self._counter)
        self._counter = itertools.count(sequence)
        return {"heap": self._heap, "next_sequence": sequence}

    def __setstate__(self, state: dict) -> None:
        self._heap = state["heap"]
        self._counter = itertools.count(state["next_sequence"])

    def push(self, time: float, callback: Callable[[], None], name: str = "") -> Event:
        """Schedule ``callback`` at ``time`` and return the event handle."""
        if time != time:  # NaN guard
            raise SimulationError("cannot schedule an event at NaN time")
        entry = [time, next(self._counter), callback, name]
        heappush(self._heap, entry)
        return entry

    @staticmethod
    def cancel(event: Event) -> None:
        """Skip ``event`` when its time comes; a no-op once it has fired."""
        event[_CALLBACK] = None

    def pop(self) -> Event | None:
        """Remove and return the earliest live event, or None if empty."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            if entry[_CALLBACK] is not None:
                return entry
        return None

    def peek_time(self) -> float | None:
        """Return the firing time of the earliest live event, if any."""
        heap = self._heap
        while heap and heap[0][_CALLBACK] is None:
            heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def clear(self) -> None:
        """Drop every scheduled event."""
        self._heap.clear()


__all__ = ["Event", "EventQueue"]
