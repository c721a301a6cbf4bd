"""Bounded request queues with deadline propagation and delay control.

The second ring of the overload stack. Admitted work waits here until
the fleet has capacity; three mechanisms keep the wait honest:

* **bounds** — each queue holds at most ``capacity`` requests; overflow
  is shed at the tail (the newest request is refused, not an old one
  silently starved);
* **deadline propagation** — every request carries the absolute
  deadline its priority class promised. Expired work is *dropped*, not
  served late: serving a request after its deadline burns server time
  that on-time requests needed, which is precisely how goodput
  collapses under overload;
* **delay control** — :class:`QueueDelayController` watches queueing
  delay the way CoDel watches sojourn time: overload is declared only
  when the *minimum* delay over a sliding window stays above target, so
  a transient burst that drains within a tick never escalates the
  brownout ladder, while a standing queue always does.
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple

from ..errors import ConfigurationError
from .admission import PriorityClass


class Request(NamedTuple):
    """One admitted unit of work flowing through the service.

    ``deadline_s`` is absolute simulated time; ``demand_scale``
    multiplies the service demand drawn at dispatch (brownout's
    "degraded responses" rung serves a cheaper variant by lowering it).
    An immutable tuple: every admitted request builds one, positionally.
    """

    request_id: int
    klass: PriorityClass
    arrival_s: float
    deadline_s: float
    demand_scale: float = 1.0


class BoundedDeadlineQueue:
    """Per-class FIFO queues behind one bounded, priority-ordered facade.

    ``pop`` serves strictly by priority class (critical before standard
    before batch) and FIFO within a class; ``expire`` drops everything
    whose deadline has passed; ``pass_through`` accounts a request that
    finds the queue empty and is dispatched at once. All shed work is
    counted by cause so the telemetry endpoint can account for every
    refused request.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError("queue capacity must be at least 1")
        self.capacity = capacity
        self._queues: dict[PriorityClass, deque[Request]] = {
            klass: deque() for klass in PriorityClass
        }
        #: The same deques, most important class first. Every mutation
        #: below works in place, so this tuple never goes stale.
        self._ordered = tuple(self._queues[klass] for klass in sorted(self._queues))
        #: Requests queued across every class, kept by each mutation below
        #: so reading it (or ``len``, or truth) costs no walk over the deques.
        self.depth = 0
        self.shed_overflow = 0
        self.shed_expired = 0
        self.shed_brownout = 0
        self.max_depth = 0

    def __len__(self) -> int:
        return self.depth

    def push(self, request: Request) -> bool:
        """Enqueue ``request``; False (and a shed count) when full."""
        depth = self.depth
        if depth >= self.capacity:
            self.shed_overflow += 1
            return False
        self._queues[request.klass].append(request)
        self.depth = depth = depth + 1
        if depth > self.max_depth:
            self.max_depth = depth
        return True

    def pass_through(self, deadline_s: float, now_s: float, slack_s: float) -> bool:
        """Account a request that arrives at an empty backlog and leaves at once.

        Records exactly what ``push`` followed by ``pop(now_s, slack_s)``
        records for it, without touching the deques: the backlog was one
        deep, and the request is shed as expired when its deadline is
        inside the dispatch slack. True when it may be dispatched. Only
        an empty backlog may pass a request through; a queued request
        would be popped ahead of it.
        """
        if not self.max_depth:
            self.max_depth = 1
        if deadline_s <= now_s + slack_s:
            self.shed_expired += 1
            return False
        return True

    def expire(self, now_s: float) -> int:
        """Drop every queued request whose deadline has passed."""
        if not self.depth:
            return 0
        dropped = 0
        for queue in self._queues.values():
            kept = deque(r for r in queue if r.deadline_s > now_s)
            dropped += len(queue) - len(kept)
            queue.clear()
            queue.extend(kept)
        self.depth -= dropped
        self.shed_expired += dropped
        return dropped

    def shed_class(self, klass: PriorityClass) -> int:
        """Drop every queued request of ``klass`` (brownout shedding)."""
        queue = self._queues[klass]
        dropped = len(queue)
        queue.clear()
        self.depth -= dropped
        self.shed_brownout += dropped
        return dropped

    def pop(self, now_s: float, slack_s: float = 0.0) -> Request | None:
        """Dequeue the highest-priority live request (expiring en route).

        ``slack_s`` is the dispatch guard: a request whose deadline is
        closer than the slack cannot possibly be served in time, so
        dispatching it would burn server capacity on work that is
        already lost. Such requests are shed as expired instead.
        """
        horizon = now_s + slack_s
        for queue in self._ordered:
            while queue:
                request = queue.popleft()
                self.depth -= 1
                if request.deadline_s <= horizon:
                    self.shed_expired += 1
                    continue
                return request
        return None

    def head_age_s(self, now_s: float) -> float:
        """Age of the oldest queued request (0 when empty).

        This is the delay signal when nothing dispatched during a tick:
        a stalled queue must still read as delay, or a fully wedged
        service would look healthy to the delay controller.
        """
        oldest = None
        for queue in self._queues.values():
            if queue:
                candidate = queue[0].arrival_s
                oldest = candidate if oldest is None else min(oldest, candidate)
        return 0.0 if oldest is None else max(0.0, now_s - oldest)


class QueueDelayController:
    """CoDel-style standing-queue detector over per-tick delay samples.

    Fold one tick's dispatch delays (arrival → dispatch) plus the
    residual head age into :meth:`observe`. Each tick contributes the
    *worse* of two signals — the best (minimum) dispatch delay and the
    age of whatever is still queued — so a standing backlog reads as
    delay even while fresh high-priority work keeps dispatching
    instantly past it. The controller's exported *delay signal* is then
    the minimum of those per-tick samples over the last
    ``window_ticks`` ticks: the CoDel insight that a burst which fully
    drains produces at least one near-zero sample and resets the
    signal, while a standing queue keeps every sample (and therefore
    the minimum) elevated.
    """

    def __init__(self, target_s: float = 0.05, window_ticks: int = 3) -> None:
        if not 0.0 < target_s < math.inf:  # NaN fails it too
            raise ConfigurationError("delay target must be positive and finite")
        if window_ticks < 1:
            raise ConfigurationError("window must be at least one tick")
        self.target_s = target_s
        self.window_ticks = window_ticks
        self._window: deque[float] = deque(maxlen=window_ticks)
        #: Consecutive ticks with the signal above target.
        self.above_target_ticks = 0

    @property
    def delay_signal_s(self) -> float:
        return min(self._window) if self._window else 0.0

    def observe(self, delays_s: list[float], head_age_s: float) -> float:
        """Fold one tick's delay evidence; return the updated signal."""
        best_dispatch = min(delays_s) if delays_s else 0.0
        self._window.append(max(0.0, best_dispatch, head_age_s))
        signal = self.delay_signal_s
        if signal > self.target_s:
            self.above_target_ticks += 1
        else:
            self.above_target_ticks = 0
        return signal

    @property
    def overloaded(self) -> bool:
        """True once the signal has stayed above target a full window."""
        return self.above_target_ticks >= self.window_ticks


__all__ = [
    "Request",
    "BoundedDeadlineQueue",
    "QueueDelayController",
]
