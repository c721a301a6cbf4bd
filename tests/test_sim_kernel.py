"""Tests for the discrete-event simulation kernel."""

import math
from bisect import insort

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import EventQueue, RandomStreams, Simulator, split_seed
from repro.sim.random import _BATCH_SIZE


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.push(3.0, lambda: fired.append(3))
        queue.push(1.0, lambda: fired.append(1))
        queue.push(2.0, lambda: fired.append(2))
        while (event := queue.pop()) is not None:
            event[2]()
        assert fired == [1, 2, 3]

    def test_ties_break_by_insertion_order(self):
        queue = EventQueue()
        fired = []
        for index in range(10):
            queue.push(5.0, lambda i=index: fired.append(i))
        while (event := queue.pop()) is not None:
            event[2]()
        assert fired == list(range(10))

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        fired = []
        keep = queue.push(1.0, lambda: fired.append("keep"))
        drop = queue.push(0.5, lambda: fired.append("drop"))
        queue.cancel(drop)
        assert len(queue) == 1
        while (event := queue.pop()) is not None:
            event[2]()
        assert fired == ["keep"]
        del keep

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        queue.cancel(first)
        assert queue.peek_time() == 2.0

    def test_nan_time_rejected(self):
        queue = EventQueue()
        with pytest.raises(SimulationError):
            queue.push(float("nan"), lambda: None)

    def test_len_counts_only_live_entries(self):
        queue = EventQueue()
        handles = [queue.push(float(index), lambda: None) for index in range(5)]
        queue.cancel(handles[0])
        queue.cancel(handles[3])
        assert len(queue) == 3
        queue.cancel(handles[3])  # a second cancel changes nothing
        assert len(queue) == 3
        assert queue.pop() is handles[1]
        assert len(queue) == 2


class TestSimulator:
    def test_clock_advances_to_event_times(self):
        sim = Simulator()
        times = []
        sim.at(5.0, lambda: times.append(sim.now))
        sim.at(10.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [5.0, 10.0]
        assert sim.now == 10.0

    def test_run_until_advances_clock_to_horizon(self):
        sim = Simulator()
        sim.at(1.0, lambda: None)
        sim.run(until=100.0)
        assert sim.now == 100.0

    def test_run_until_does_not_fire_later_events(self):
        sim = Simulator()
        fired = []
        sim.at(50.0, lambda: fired.append("early"))
        sim.at(150.0, lambda: fired.append("late"))
        sim.run(until=100.0)
        assert fired == ["early"]
        sim.run(until=200.0)
        assert fired == ["early", "late"]

    def test_after_schedules_relative(self):
        sim = Simulator()
        result = []
        sim.at(10.0, lambda: sim.after(5.0, lambda: result.append(sim.now)))
        sim.run()
        assert result == [15.0]

    def test_scheduling_in_past_rejected(self):
        sim = Simulator()
        sim.at(10.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.after(-1.0, lambda: None)

    def test_nan_time_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.at(math.nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.after(math.nan, lambda: None)

    def test_past_dated_heap_event_rejected(self):
        sim = Simulator()
        sim.run(until=10.0)
        sim._queue.push(5.0, lambda: None, "stale")
        with pytest.raises(SimulationError, match="in the past"):
            sim.run()

    def test_reentrant_run_rejected_and_released(self):
        sim = Simulator()
        sim.at(1.0, sim.run)
        with pytest.raises(SimulationError, match="reentrant"):
            sim.run()
        fired = []
        sim.at(2.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.0]

    def test_periodic_events_fire_until_cancelled(self):
        sim = Simulator()
        ticks = []
        handle = sim.every(10.0, lambda: ticks.append(sim.now))
        sim.at(35.0, lambda: sim.cancel(handle))
        sim.run(until=100.0)
        assert ticks == [10.0, 20.0, 30.0]

    def test_cancelling_a_fired_handle_is_a_no_op(self):
        sim = Simulator()
        fired = []
        first = sim.at(1.0, lambda: fired.append("first"))
        sim.at(1.0, lambda: fired.append("tie"))
        sim.at(2.0, lambda: fired.append("later"))
        sim.run(until=1.0)
        sim.cancel(first)
        sim.cancel(first)
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["first", "tie", "later"]

    def test_cancelling_twice_is_harmless(self):
        sim = Simulator()
        fired = []
        drop = sim.at(1.0, lambda: fired.append("drop"))
        sim.at(1.0, lambda: fired.append("keep"))
        sim.cancel(drop)
        sim.cancel(drop)
        assert sim.pending_events == 1
        sim.run()
        assert fired == ["keep"]
        assert sim.processed_events == 1

    def test_pending_events_counts_only_live_entries(self):
        sim = Simulator()
        handles = [sim.after(float(index), lambda: None) for index in range(4)]
        sim.cancel(handles[1])
        assert sim.pending_events == 3
        ticker = sim.every(1.0, lambda: None)
        assert sim.pending_events == 4  # the chain's first tick, not its proxy
        sim.cancel(ticker)
        assert sim.pending_events == 4  # that tick still runs, as a no-op

    def test_every_cancelled_inside_its_own_callback_stops(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 3:
                sim.cancel(handle)

        handle = sim.every(10.0, tick)
        sim.run(until=100.0)
        assert ticks == [10.0, 20.0, 30.0]
        assert sim.pending_events == 0

    def test_nan_until_rejected(self):
        sim = Simulator()
        fired = []
        sim.at(5.0, lambda: fired.append(5.0))
        sim.at(50.0, lambda: fired.append(50.0))
        with pytest.raises(SimulationError, match="NaN"):
            sim.run(until=math.nan)
        assert fired == [] and sim.now == 0.0
        sim.run(until=10.0)  # the rejected call left the simulator usable
        assert fired == [5.0]

    def test_negative_max_events_rejected(self):
        sim = Simulator()
        sim.at(5.0, lambda: None)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(until=10.0, max_events=-1)
        assert sim.now == 0.0
        sim.run()
        assert sim.processed_events == 1

    def test_periodic_start_after_override(self):
        sim = Simulator()
        ticks = []
        sim.every(10.0, lambda: ticks.append(sim.now), start_after=0.0)
        sim.run(until=25.0)
        assert ticks == [0.0, 10.0, 20.0]

    def test_every_requires_positive_interval(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.every(0.0, lambda: None)

    def test_max_events_bound(self):
        sim = Simulator()
        for index in range(10):
            sim.at(float(index), lambda: None)
        sim.run(max_events=4)
        assert sim.processed_events == 4

    def test_reset_clears_state(self):
        sim = Simulator()
        sim.at(5.0, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0.0
        assert sim.pending_events == 0
        assert sim.processed_events == 0

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=50))
    def test_events_always_fire_in_nondecreasing_time(self, times):
        sim = Simulator()
        observed = []
        for time in times:
            sim.at(time, lambda: observed.append(sim.now))
        sim.run()
        assert observed == sorted(observed)
        assert len(observed) == len(times)


class TestRandomStreams:
    def test_streams_are_deterministic(self):
        sim1, sim2 = Simulator(seed=42), Simulator(seed=42)
        draws1 = [sim1.streams.exponential("a", 1.0) for _ in range(10)]
        draws2 = [sim2.streams.exponential("a", 1.0) for _ in range(10)]
        assert draws1 == draws2

    def test_streams_are_independent_by_name(self):
        sim = Simulator(seed=0)
        a_first = sim.streams.exponential("a", 1.0)
        sim2 = Simulator(seed=0)
        # Interleave a draw from stream b; stream a must be unaffected.
        sim2.streams.exponential("b", 1.0)
        a_second = sim2.streams.exponential("a", 1.0)
        assert a_first == a_second

    def test_different_seeds_differ(self):
        assert (
            Simulator(seed=1).streams.exponential("a", 1.0)
            != Simulator(seed=2).streams.exponential("a", 1.0)
        )

    @given(st.floats(min_value=0.01, max_value=100), st.floats(min_value=0.0, max_value=3.0))
    def test_lognormal_mean_and_cv(self, mean, cv):
        sim = Simulator(seed=7)
        draws = np.array([sim.streams.lognormal("s", mean, cv) for _ in range(4000)])
        assert np.mean(draws) == pytest.approx(mean, rel=0.35 + 0.35 * cv)

    def test_lognormal_zero_cv_is_deterministic(self):
        sim = Simulator()
        assert sim.streams.lognormal("s", 5.0, 0.0) == 5.0

    def test_lognormal_rejects_bad_inputs(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.streams.lognormal("s", -1.0, 0.5)
        with pytest.raises(ValueError):
            sim.streams.lognormal("s", 1.0, -0.5)


class _SortedListModel:
    """Reference semantics for ``Simulator.run``: a plain list kept sorted
    on ``(time, scheduling order)``, where cancelling removes the entry."""

    def __init__(self, program):
        self.program = program
        self.pending = sorted((time, ident, ident) for ident, (time, _, _) in enumerate(program))
        self.next_sequence = len(program)
        self.now = 0.0
        self.fired = []

    def cancel(self, ident):
        self.pending = [entry for entry in self.pending if entry[2] != ident]

    def run(self, until=None, max_events=None):
        count = 0
        while self.pending and (max_events is None or count < max_events):
            time, _, ident = self.pending[0]
            if until is not None and time > until:
                break
            if time < self.now:  # a max_events stop let the clock jump to until
                raise SimulationError("event in the past")
            del self.pending[0]
            self.now = time
            count += 1
            self.fired.append((ident, time))
            if ident >= 0:  # spawned events (-1) do nothing
                _, target, spawn_delay = self.program[ident]
                if target is not None:
                    self.cancel(target)
                if spawn_delay is not None:
                    insort(self.pending, (time + spawn_delay, self.next_sequence, -1))
                    self.next_sequence += 1
        if until is not None and until > self.now:
            self.now = until


def _run_kernel(program, cancelled, segments):
    """Run ``program`` on a Simulator; return the firing log and clocks."""
    sim = Simulator()
    fired = []
    handles = []

    def fire(ident):
        fired.append((ident, sim.now))
        if ident < 0:
            return
        _, target, spawn_delay = program[ident]
        if target is not None:
            sim.cancel(handles[target])
        if spawn_delay is not None:
            sim.after(spawn_delay, lambda: fire(-1))

    for ident, (time, _, _) in enumerate(program):
        handles.append(sim.at(time, lambda ident=ident: fire(ident)))
    for ident in cancelled:
        sim.cancel(handles[ident])
    clocks = []
    for until, max_events in segments:
        try:
            sim.run(until=until, max_events=max_events)
        except SimulationError:
            clocks.append("past")
            break
        clocks.append(sim.now)
    return fired, clocks


#: Few distinct times, so ties are common; ``until`` also lands between them.
_times = st.integers(0, 8).map(lambda k: k * 0.5)
_untils = st.none() | st.integers(0, 20).map(lambda k: k * 0.25)


@st.composite
def _programs(draw):
    size = draw(st.integers(0, 25))
    program = [
        (
            draw(_times),
            draw(st.none() | st.integers(0, size - 1)) if size else None,
            draw(st.none() | st.integers(0, 4).map(lambda k: k * 0.5)),
        )
        for _ in range(size)
    ]
    cancelled = draw(st.sets(st.integers(0, size - 1))) if size else set()
    segments = draw(
        st.lists(st.tuples(_untils, st.none() | st.integers(0, 12)), min_size=1, max_size=3)
    )
    return program, cancelled, segments


class TestKernelAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(_programs())
    def test_run_matches_sorted_list_model(self, case):
        """Random schedules, up-front and in-run cancellations (including
        the head), equal-time ties, events scheduled while running, and
        ``until``/``max_events`` segments fire exactly like the model.

        A run stopped by ``max_events`` still advances the clock to
        ``until``, so a later run can meet an event in the past; both
        sides must then raise at the same point."""
        program, cancelled, segments = case
        fired, clocks = _run_kernel(program, cancelled, segments + [(None, None)])
        model = _SortedListModel(program)
        for ident in cancelled:
            model.cancel(ident)
        expected_clocks = []
        for until, max_events in segments + [(None, None)]:
            try:
                model.run(until, max_events)
            except SimulationError:
                expected_clocks.append("past")
                break
            expected_clocks.append(model.now)
        assert fired == model.fired
        assert clocks == expected_clocks


class TestBufferedDraws:
    """Batched draws equal the stream's own ``Generator`` called per draw."""

    COUNT = _BATCH_SIZE + 1000  # crosses a batch refill

    @staticmethod
    def generator(seed, name):
        return np.random.default_rng(split_seed(seed, name))

    def test_exponential_matches_generator(self):
        streams = RandomStreams(11)
        drawn = [streams.exponential("arrivals", 0.25) for _ in range(self.COUNT)]
        direct = self.generator(11, "arrivals")
        assert drawn == [direct.exponential(0.25) for _ in range(self.COUNT)]

    def test_lognormal_matches_generator(self):
        mean, cv = 0.0042, 0.8
        sigma2 = math.log(1.0 + cv * cv)
        mu, sigma = math.log(mean) - sigma2 / 2.0, math.sqrt(sigma2)
        streams = RandomStreams(11)
        drawn = [streams.lognormal("service:vm-1", mean, cv) for _ in range(self.COUNT)]
        direct = self.generator(11, "service:vm-1")
        assert drawn == [direct.lognormal(mu, sigma) for _ in range(self.COUNT)]

    def test_uniform_matches_generator_on_a_non_unit_range(self):
        streams = RandomStreams(11)
        low, high = 0.05, 0.3  # a control channel's delay:<target> draw
        drawn = [streams.uniform("delay:h1", low, high) for _ in range(self.COUNT)]
        direct = self.generator(11, "delay:h1")
        assert drawn == [direct.uniform(low, high) for _ in range(self.COUNT)]

    def test_interleaved_streams_keep_their_own_sequences(self):
        streams = RandomStreams(3)
        drawn = {"a": [], "b": []}
        for index in range(self.COUNT):
            name = "a" if index % 3 else "b"
            drawn[name].append(streams.uniform(name, 0.0, 1.0))
        for name, values in drawn.items():
            direct = self.generator(3, name)
            assert values == [direct.uniform(0.0, 1.0) for _ in values]

    def test_uniform_rejects_an_inverted_range(self):
        with pytest.raises(ValueError):
            RandomStreams(1).uniform("u", 1.0, 0.5)
