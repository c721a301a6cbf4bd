"""The discrete-event simulation kernel.

:class:`Simulator` owns the virtual clock and the event queue. Model code
schedules callbacks with :meth:`Simulator.at` / :meth:`Simulator.after`
and periodic work with :meth:`Simulator.every`, and cancels any of them
with :meth:`Simulator.cancel`. The clock is the plain attribute
:attr:`Simulator.now`, which only :meth:`Simulator.run` and
:meth:`Simulator.reset` write. The kernel guarantees:

* the clock never moves backwards;
* events at equal timestamps fire in scheduling order (deterministic);
* every run with the same seed and model is bit-for-bit reproducible.

The kernel is intentionally synchronous and single-threaded — cloud
control-plane experiments in this library simulate minutes-to-hours of
wall time and complete in milliseconds of real time.
"""

from __future__ import annotations

import math
from functools import partial
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
        #: Current virtual time in seconds (written only by run and reset).
        self.now = 0.0
        self._queue = EventQueue()
        self._running = False
        self.streams = RandomStreams(seed)
        self._event_count = 0

    # ------------------------------------------------------------------
    # Clock and introspection
    # ------------------------------------------------------------------
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
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event {name!r} at {time} before now={self.now}"
            )
        return self._queue.push(time, callback, name)

    def after(self, delay: float, callback: Callable[[], None], name: str = "") -> Event:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay} for event {name!r}")
        return self._queue.push(self.now + delay, callback, name)

    def every(
        self,
        interval: float,
        callback: Callable[[], None],
        name: str = "",
        start_after: float | None = None,
    ) -> Event:
        """Schedule ``callback`` to run every ``interval`` seconds.

        Returns a handle for the whole periodic chain; cancelling it
        stops every future occurrence.
        """
        if interval <= 0:
            raise SimulationError(f"periodic event {name!r} needs interval > 0")
        first_delay = interval if start_after is None else start_after

        # A proxy entry that is never pushed: its callback slot gates
        # every future tick, so cancelling it stops the whole chain.
        proxy = [self.now + first_delay, -1, callback, name]
        self.after(first_delay, partial(self._periodic_tick, proxy, interval), name)
        return proxy

    def _periodic_tick(self, proxy: Event, interval: float) -> None:
        """One occurrence of an :meth:`every` chain, which re-arms itself
        while the chain's proxy entry is not cancelled."""
        callback = proxy[2]
        if callback is None:
            return
        callback()
        if proxy[2] is not None:
            self.after(interval, partial(self._periodic_tick, proxy, interval), proxy[3])

    #: Cancel an event handle from :meth:`at`, :meth:`after` or
    #: :meth:`every`; cancelling one that already fired is a no-op.
    cancel = staticmethod(EventQueue.cancel)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int | None = None) -> None:
        """Run events until the queue empties, ``until`` passes, or
        ``max_events`` fire.

        When ``until`` is given the clock is advanced to exactly ``until``
        at the end of the run even if the last event fired earlier, so
        time-based metrics integrate over the full horizon. A NaN
        ``until`` (which would act as no horizon) and a negative
        ``max_events`` are rejected before anything runs.

        The loop reads the queue's heap directly: cancelled heads are
        discarded in place and the next live event is popped only once
        it is known to fire, so each event costs one heap pop and no
        further calls besides its callback.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        if until is not None and until != until:
            raise SimulationError("cannot run until a NaN time")
        if max_events is not None and max_events < 0:
            raise SimulationError(f"max_events must be non-negative, got {max_events}")
        self._running = True
        heap = self._queue._heap
        horizon = math.inf if until is None else until
        stop_at = math.inf if max_events is None else self._event_count + max_events
        try:
            while heap and self._event_count < stop_at:
                time, _, callback, name = heap[0]
                if callback is None:
                    heappop(heap)
                    continue
                if time > horizon:
                    break
                heappop(heap)
                if time < self.now:
                    raise SimulationError(
                        f"event {name!r} at {time} is in the past (now={self.now})"
                    )
                self.now = time
                self._event_count += 1
                callback()
            if until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False

    def reset(self) -> None:
        """Clear all state: clock, queue, and event counters."""
        self.now = 0.0
        self._queue.clear()
        self._event_count = 0


__all__ = ["Simulator"]
