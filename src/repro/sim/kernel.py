"""The discrete-event simulation kernel.

:class:`Simulator` owns the virtual clock and the event queue. Model code
schedules callbacks with :meth:`Simulator.at` / :meth:`Simulator.after`
and periodic work with :meth:`Simulator.every`. The kernel guarantees:

* the clock never moves backwards;
* events at equal timestamps fire in scheduling order (deterministic);
* every run with the same seed and model is bit-for-bit reproducible.

The kernel is intentionally synchronous and single-threaded — cloud
control-plane experiments in this library simulate minutes-to-hours of
wall time and complete in milliseconds of real time.
"""

from __future__ import annotations

import math
from heapq import heappop
from typing import Callable

from ..errors import SimulationError
from .events import Event, EventQueue
from .random import RandomStreams


class Simulator:
    """A deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Master seed for the simulation's named random streams. Two runs
        with the same seed and model produce identical traces.
    """

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        self._running = False
        self.streams = RandomStreams(seed)
        self._event_count = 0

    # ------------------------------------------------------------------
    # Clock and introspection
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events in the queue."""
        return len(self._queue)

    @property
    def processed_events(self) -> int:
        """Total number of events executed so far."""
        return self._event_count

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(self, time: float, callback: Callable[[], None], name: str = "") -> Event:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event {name!r} at {time} before now={self._now}"
            )
        return self._queue.push(time, callback, name)

    def after(self, delay: float, callback: Callable[[], None], name: str = "") -> Event:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for event {name!r}")
        return self._queue.push(self._now + delay, callback, name)

    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        name: str = "",
        start_after: float | None = None,
    ) -> Event:
        """Schedule ``callback`` to run every ``interval`` seconds.

        Returns the handle of the *next* occurrence; cancelling it stops
        the whole periodic chain.
        """
        if interval <= 0:
            raise SimulationError(f"periodic event {name!r} needs interval > 0")
        first_delay = interval if start_after is None else start_after

        # The returned proxy's ``cancelled`` flag gates every future tick,
        # so cancelling it stops the whole periodic chain.
        proxy = Event(
            time=self._now + first_delay, sequence=-1, callback=callback, name=name
        )

        def guarded_tick() -> None:
            if proxy.cancelled:
                return
            callback()
            if not proxy.cancelled:
                self.after(interval, guarded_tick, name)

        self.after(first_delay, guarded_tick, name)
        return proxy

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events until the queue empties, ``until`` passes, or
        ``max_events`` fire.

        When ``until`` is given the clock is advanced to exactly ``until``
        at the end of the run even if the last event fired earlier, so
        time-based metrics integrate over the full horizon.

        The loop reads the queue's heap directly: cancelled heads are
        discarded in place and the next live event is popped only once
        it is known to fire, so each event costs one heap pop and no
        further calls besides its callback.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        heap = self._queue._heap
        horizon = math.inf if until is None else until
        stop_at = math.inf if max_events is None else self._event_count + max_events
        try:
            while heap and self._event_count < stop_at:
                time, _, event = heap[0]
                if event.cancelled:
                    heappop(heap)
                    continue
                if time > horizon:
                    break
                heappop(heap)
                if time < self._now:
                    raise SimulationError(
                        f"event {event.name!r} at {time} is in the past (now={self._now})"
                    )
                self._now = time
                self._event_count += 1
                event.callback()
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def reset(self) -> None:
        """Clear all state: clock, queue, and event counters."""
        self._now = 0.0
        self._queue.clear()
        self._event_count = 0


__all__ = ["Simulator"]
