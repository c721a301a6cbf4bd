"""Tests for the control plane: retry policy, breaker, channel, bus,
dead-man lease, and the reconciliation loop."""

import dataclasses
import inspect
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control import (
    Ack,
    ActuationLink,
    BreakerState,
    ChannelConfig,
    CircuitBreaker,
    Command,
    CommandBus,
    CommandKind,
    HostAgent,
    LossyChannel,
    Reconciler,
    RetryPolicy,
)
from repro.control import link as link_module
from repro.control.bus import CMD_FAILED
from repro.control.channel import CMD_LOST
from repro.control.retry import COMMAND_RETRIES, ENGINE_POOL_RETRIES
from repro.engine import SweepEngine
from repro.errors import ConfigurationError, ControlError
from repro.faults.timeline import FaultTimeline
from repro.service import ServiceCore
from repro.sim import Simulator
from repro.sim.random import split_seed
from repro.telemetry.counters import ControlPlaneCounters


# ----------------------------------------------------------------------
# RetryPolicy (shared by the bus and the sweep engine)
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_schedule_is_exponential_and_capped(self):
        policy = RetryPolicy(max_attempts=6, base_delay_s=0.1, backoff_factor=2.0, max_delay_s=0.5)
        assert policy.backoff_s(1) == pytest.approx(0.1)
        assert policy.backoff_s(2) == pytest.approx(0.2)
        assert policy.backoff_s(3) == pytest.approx(0.4)
        assert policy.backoff_s(4) == pytest.approx(0.5)  # capped
        assert policy.backoff_s(5) == pytest.approx(0.5)
        assert policy.max_retries == 5

    def test_attempts_are_one_based(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy().backoff_s(0)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay_s=-1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_delay_s=2.0, max_delay_s=1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter_fraction=1.0)

    def test_jitter_is_deterministic_in_seed_key_attempt(self):
        policy = RetryPolicy(max_attempts=4, base_delay_s=1.0, jitter_fraction=0.25)
        first = policy.jittered_backoff_s(2, seed=7, key="cmd:a")
        again = policy.jittered_backoff_s(2, seed=7, key="cmd:a")
        assert first == again  # bit-identical, not merely close
        assert policy.schedule(seed=7, key="cmd:a") == policy.schedule(seed=7, key="cmd:a")

    def test_jitter_varies_with_key_and_stays_bounded(self):
        policy = RetryPolicy(max_attempts=4, base_delay_s=1.0, jitter_fraction=0.25)
        delays = {policy.jittered_backoff_s(1, seed=7, key=f"cmd:{i}") for i in range(16)}
        assert len(delays) > 1  # different keys decorrelate
        for delay in delays:
            assert 0.75 <= delay <= 1.25

    def test_jitter_varies_with_seed(self):
        policy = RetryPolicy(max_attempts=4, base_delay_s=1.0, jitter_fraction=0.25)
        schedules = {policy.schedule(seed=seed, key="cmd:a") for seed in range(16)}
        assert len(schedules) > 1  # different seeds decorrelate

    def test_jitter_is_pinned_to_the_split_seed_derivation(self):
        """The jittered delay is a pure function of split_seed.

        This pins the exact derivation — ``split_seed(seed,
        f"retry:{key}:{attempt}")`` scaled to a unit uniform — so a
        refactor cannot silently re-roll every journaled backoff
        schedule in replayed campaigns.
        """
        policy = RetryPolicy(max_attempts=4, base_delay_s=1.0, jitter_fraction=0.25)
        seed, key, attempt = 11, "cmd:pin", 2
        unit = split_seed(seed, f"retry:{key}:{attempt}") / float(2**64)
        expected = policy.backoff_s(attempt) * (1.0 + 0.25 * (2.0 * unit - 1.0))
        assert policy.jittered_backoff_s(attempt, seed=seed, key=key) == expected

    def test_schedule_order_is_call_order_independent(self):
        # Computing attempt 3's delay first must not perturb attempt 1's.
        policy = RetryPolicy(max_attempts=4, base_delay_s=1.0, jitter_fraction=0.25)
        backwards = [
            policy.jittered_backoff_s(attempt, seed=5, key="cmd:b")
            for attempt in (3, 2, 1)
        ]
        assert tuple(reversed(backwards)) == policy.schedule(seed=5, key="cmd:b")

    def test_zero_jitter_returns_nominal(self):
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.5)
        assert policy.jittered_backoff_s(2, seed=99, key="x") == policy.backoff_s(2)

    def test_schedule_length_matches_retry_budget(self):
        policy = RetryPolicy(max_attempts=4, base_delay_s=0.1)
        assert len(policy.schedule()) == 3

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field", ["max_attempts", "base_delay_s", "backoff_factor", "max_delay_s"]
    )
    def test_non_finite_settings_rejected(self, field, bad):
        # Construction only: a NaN base delay reads as a 30 s backoff, and
        # a NaN cap makes every backoff NaN.
        with pytest.raises(ConfigurationError):
            RetryPolicy(**{field: bad})

    def test_backoff_past_the_float_range_stays_capped(self):
        # 2.0 ** 1099 overflows; every retry that far out waits the cap.
        policy = RetryPolicy(max_attempts=1200, base_delay_s=1.0, max_delay_s=30.0)
        assert policy.backoff_s(1100) == 30.0
        assert RetryPolicy(max_attempts=1200, base_delay_s=0.0).backoff_s(1100) == 0.0
        assert policy.resend_span_s(1.0) == pytest.approx(
            1199 * 1.0 + sum(policy.backoff_s(n) for n in range(1, 1200))
        )

    def test_resend_span_sums_each_retrys_worst_case(self):
        policy = RetryPolicy(max_attempts=4, base_delay_s=1.0, jitter_fraction=0.5)
        # Retries wait 1, 2 and 4 s nominal, up to 1.5x with jitter, each
        # after a 0.5 s ack timeout.
        assert policy.resend_span_s(0.5) == 3 * 0.5 + (1.0 + 2.0 + 4.0) * 1.5
        assert RetryPolicy(max_attempts=1).resend_span_s(0.5) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        max_attempts=st.integers(1, 8),
        base_delay_s=st.floats(0.0, 10.0),
        backoff_factor=st.floats(1.0, 4.0),
        jitter_fraction=st.floats(0.0, 0.999),
        ack_timeout_s=st.floats(0.001, 5.0),
        seed=st.integers(0, 2**63),
        key=st.text(max_size=12),
    )
    def test_resend_span_bounds_every_jittered_schedule(
        self, max_attempts, base_delay_s, backoff_factor, jitter_fraction, ack_timeout_s, seed, key
    ):
        policy = RetryPolicy(
            max_attempts=max_attempts,
            base_delay_s=base_delay_s,
            backoff_factor=backoff_factor,
            jitter_fraction=jitter_fraction,
        )
        stretch = 1.0 + jitter_fraction
        for attempt, delay in enumerate(policy.schedule(seed=seed, key=key), start=1):
            assert delay <= policy.backoff_s(attempt) * stretch
        # The bus's latest possible resend, added the way the simulator
        # adds event times: an ack timeout, then the jittered backoff.
        last_send = 0.0
        for delay in policy.schedule(seed=seed, key=key):
            last_send = last_send + ack_timeout_s + delay
        assert last_send <= policy.resend_span_s(ack_timeout_s) * (1.0 + 1e-12)


class TestEnginePolicyBridge:
    """The sweep engine speaks the shared RetryPolicy."""

    def test_explicit_policy_is_the_engines_policy(self):
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.01)
        assert SweepEngine(retry_policy=policy).retry_policy is policy

    def test_defaults_match_the_published_constant(self):
        assert SweepEngine().retry_policy is ENGINE_POOL_RETRIES

    def test_command_retries_jitter_on(self):
        assert COMMAND_RETRIES.jitter_fraction > 0.0


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3, open_duration_s=10.0)
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(2.0)
        assert breaker.is_open
        assert breaker.opens == 1
        assert not breaker.allow(5.0)  # still cooling down

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2, open_duration_s=10.0)
        breaker.record_failure(0.0)
        breaker.record_success()
        breaker.record_failure(1.0)
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_admits_exactly_one_probe(self):
        breaker = CircuitBreaker(failure_threshold=1, open_duration_s=10.0)
        breaker.record_failure(0.0)
        assert breaker.allow(10.0)  # cool-down over: the probe
        assert breaker.state is BreakerState.HALF_OPEN
        assert not breaker.allow(10.0)  # second caller waits on the probe
        assert breaker.probes == 1

    def test_probe_success_recloses(self):
        breaker = CircuitBreaker(failure_threshold=1, open_duration_s=10.0)
        breaker.record_failure(0.0)
        breaker.allow(10.0)
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.closes == 1

    def test_probe_failure_reopens_for_a_full_cooldown(self):
        breaker = CircuitBreaker(failure_threshold=1, open_duration_s=10.0)
        breaker.record_failure(0.0)
        breaker.allow(10.0)
        breaker.record_failure(10.5)
        assert breaker.is_open
        assert breaker.opens == 2
        assert not breaker.allow(20.0)  # new cool-down runs from t=10.5
        assert breaker.allow(20.5)

    def test_full_transition_matrix(self):
        """Walk every legal edge of the breaker state machine in one
        run: CLOSED -> OPEN -> HALF_OPEN -> OPEN (probe fails) ->
        HALF_OPEN -> CLOSED (probe succeeds)."""
        breaker = CircuitBreaker(failure_threshold=2, open_duration_s=10.0)
        assert breaker.state is BreakerState.CLOSED

        # CLOSED -> OPEN after threshold consecutive failures.
        breaker.record_failure(0.0)
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure(1.0)
        assert breaker.state is BreakerState.OPEN

        # OPEN stays OPEN while cooling down; allow() does not mutate.
        assert not breaker.allow(5.0)
        assert breaker.state is BreakerState.OPEN

        # OPEN -> HALF_OPEN when the cool-down expires and a caller asks.
        assert breaker.allow(11.0)
        assert breaker.state is BreakerState.HALF_OPEN

        # HALF_OPEN -> OPEN on probe failure (one strike, not threshold).
        breaker.record_failure(11.5)
        assert breaker.state is BreakerState.OPEN
        assert breaker.opens == 2

        # OPEN -> HALF_OPEN -> CLOSED on a successful probe.
        assert breaker.allow(21.5)
        assert breaker.state is BreakerState.HALF_OPEN
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.closes == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(open_duration_s=0.0)


# ----------------------------------------------------------------------
# LossyChannel
# ----------------------------------------------------------------------
def _count_deliveries(channel, target, sends):
    landed = []
    for index in range(sends):
        channel.deliver(target, lambda i=index: landed.append(i))
    return landed


class TestLossyChannel:
    def test_perfect_by_default(self):
        sim = Simulator(seed=1)
        channel = LossyChannel(sim, seed=1)
        landed = _count_deliveries(channel, "h0", 10)
        sim.run(until=1.0)
        assert landed == list(range(10))
        assert channel.dropped == 0

    def test_drop_schedule_is_seed_deterministic(self):
        def drops_for(seed):
            sim = Simulator(seed=seed)
            channel = LossyChannel(sim, seed=seed)
            channel.set_drop("h0", 0.5)
            landed = _count_deliveries(channel, "h0", 40)
            sim.run(until=1.0)
            return tuple(landed)

        assert drops_for(7) == drops_for(7)  # same seed, same schedule
        assert drops_for(7) != drops_for(8)  # reseeding re-rolls it
        assert 0 < len(drops_for(7)) < 40  # p=0.5 actually bites

    def test_total_drop_override_eats_everything(self):
        sim = Simulator(seed=1)
        channel = LossyChannel(sim, seed=1)
        channel.set_drop("h0", 1.0)  # injector-only severity
        landed = _count_deliveries(channel, "h0", 5)
        sim.run(until=1.0)
        assert landed == []
        assert channel.dropped == 5
        channel.clear_drop("h0")
        assert channel.deliver("h0", lambda: None)

    def test_partition_eats_at_send_and_in_flight(self):
        sim = Simulator(seed=1)
        channel = LossyChannel(
            sim, seed=1, config=ChannelConfig(min_delay_s=1.0, max_delay_s=1.0)
        )
        landed = []
        # In flight when the partition opens at t=0.5: dies mid-air.
        channel.deliver("h0", lambda: landed.append("first"))
        sim.after(0.5, lambda: channel.partition("h0", duration_s=10.0))
        # Sent during the partition: refused at the send side.
        sim.after(1.0, lambda: channel.deliver("h0", lambda: landed.append("second")))
        sim.run(until=5.0)
        assert landed == []
        assert channel.dropped == 2

    def test_partition_expires_lazily_and_heals_early(self):
        sim = Simulator(seed=1)
        channel = LossyChannel(sim, seed=1)
        channel.partition("h0", duration_s=5.0)
        assert channel.is_partitioned("h0")
        channel.heal("h0")
        assert not channel.is_partitioned("h0")
        channel.partition("h1")  # no duration: severed until healed
        sim.run(until=100.0)
        assert channel.is_partitioned("h1")

    def test_duplicate_delivers_twice(self):
        sim = Simulator(seed=3)
        channel = LossyChannel(sim, seed=3)
        channel.set_duplicate("h0", 0.99)
        landed = _count_deliveries(channel, "h0", 10)
        sim.run(until=1.0)
        assert len(landed) > 10
        assert channel.duplicated == len(landed) - 10

    def test_extra_delay_defers_delivery(self):
        sim = Simulator(seed=1)
        channel = LossyChannel(sim, seed=1)
        channel.set_extra_delay("h0", 2.5)
        arrived = []
        channel.deliver("h0", lambda: arrived.append(sim.now))
        sim.run(until=10.0)
        assert arrived == [pytest.approx(2.5)]

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ChannelConfig(drop_probability=1.0)
        with pytest.raises(ConfigurationError):
            ChannelConfig(min_delay_s=2.0, max_delay_s=1.0)
        channel = LossyChannel(Simulator(seed=1), seed=1)
        with pytest.raises(ConfigurationError):
            channel.set_drop("h0", 1.5)
        with pytest.raises(ConfigurationError):
            channel.set_duplicate("h0", 1.0)
        with pytest.raises(ConfigurationError):
            channel.set_extra_delay("h0", -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_delays_rejected_where_set(self, bad):
        with pytest.raises(ConfigurationError):
            ChannelConfig(min_delay_s=bad, max_delay_s=bad)
        with pytest.raises(ConfigurationError):
            ChannelConfig(min_delay_s=0.0, max_delay_s=bad)
        with pytest.raises(ConfigurationError):
            ChannelConfig(min_delay_s=bad, max_delay_s=1.0)
        sim = Simulator(seed=1)
        channel = LossyChannel(sim, seed=1)
        with pytest.raises(ConfigurationError):
            channel.set_extra_delay("h0", bad)
        # The rejected override never took: messages still flow on time.
        arrived = []
        channel.deliver("h0", lambda: arrived.append(sim.now))
        sim.run(until=1.0)
        assert arrived == [0.0]


# ----------------------------------------------------------------------
# CommandBus + HostAgent
# ----------------------------------------------------------------------
def make_bus(seed=1, **kwargs):
    sim = Simulator(seed=seed)
    channel = LossyChannel(sim, seed=seed)
    bus = CommandBus(sim, channel, seed=seed, **kwargs)
    applied = []
    agent = HostAgent(
        sim,
        "h0",
        channel,
        base_frequency_ghz=3.4,
        apply_frequency=lambda freq: applied.append((sim.now, freq)),
        counters=bus.counters,
    )
    bus.attach(agent)
    return sim, channel, bus, agent, applied


class TestCommandBus:
    def test_clean_delivery_applies_and_acks(self):
        sim, _, bus, agent, applied = make_bus()
        acks = []
        bus.send(CommandKind.SET_FREQUENCY, "h0", 4.1, on_applied=acks.append)
        sim.run(until=1.0)
        assert applied == [(0.0, 4.1)]
        assert agent.frequency_ghz == pytest.approx(4.1)
        assert len(acks) == 1
        assert acks[0].frequency_ghz == pytest.approx(4.1)  # piggybacked state
        assert bus.counters.acks == 1
        assert bus.in_flight == 0

    def test_unknown_target_fails_fast(self):
        _, _, bus, _, _ = make_bus()
        with pytest.raises(ControlError):
            bus.send(CommandKind.HEARTBEAT, "nope")

    def test_duplicate_attach_rejected(self):
        sim, channel, bus, agent, _ = make_bus()
        with pytest.raises(ConfigurationError):
            bus.attach(agent)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_ack_timeout_must_be_positive_and_finite(self, bad):
        # Construction only: a NaN timeout used to fail at the first send.
        sim = Simulator(seed=1)
        with pytest.raises(ConfigurationError):
            CommandBus(sim, LossyChannel(sim, seed=1), ack_timeout_s=bad)

    def test_dedup_applies_once_but_reacks(self):
        sim, _, bus, agent, applied = make_bus()
        command = bus.send(CommandKind.SET_FREQUENCY, "h0", 4.1)
        sim.run(until=1.0)
        agent.receive(command)  # a duplicated/retried delivery
        sim.run(until=2.0)
        assert applied == [(0.0, 4.1)]  # applied exactly once
        assert bus.counters.dedup_hits == 1

    def test_stale_set_frequency_rejected(self):
        sim, _, bus, agent, applied = make_bus()
        from repro.control.bus import Command

        agent.receive(
            Command(CommandKind.SET_FREQUENCY, "h0", "k5", sequence=5, payload=4.1)
        )
        agent.receive(
            Command(CommandKind.SET_FREQUENCY, "h0", "k3", sequence=3, payload=3.9)
        )
        assert agent.frequency_ghz == pytest.approx(4.1)  # old command ignored
        assert bus.counters.stale_rejects == 1
        assert [freq for _, freq in applied] == [4.1]

    def test_retries_survive_a_transient_drop_window(self):
        sim, channel, bus, agent, applied = make_bus(
            retry_policy=RetryPolicy(max_attempts=5, base_delay_s=2.0)
        )
        channel.set_drop("h0", 1.0)
        sim.after(3.0, lambda: channel.clear_drop("h0"))
        bus.send(CommandKind.SET_FREQUENCY, "h0", 4.1)
        sim.run(until=30.0)
        # The first send fell into the drop window; a retry landed it.
        # (With no heartbeats in this test, the dead-man lease later
        # reverts the host to base — by design, not a delivery failure.)
        assert applied[0] == (pytest.approx(3.0), 4.1)
        assert bus.counters.retries >= 1
        assert bus.counters.timeouts >= 1
        assert bus.counters.failures == 0

    def test_exhausted_retry_budget_reports_failure(self):
        sim, channel, bus, _, _ = make_bus(
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=1.0),
            breaker_threshold=10**6,
        )
        channel.partition("h0")  # never heals
        failures = []
        bus.send(
            CommandKind.SET_FREQUENCY,
            "h0",
            4.1,
            on_failed=lambda command, reason: failures.append(reason),
        )
        sim.run(until=60.0)
        assert failures == ["ack-timeout"]
        assert bus.counters.failures == 1
        assert bus.in_flight == 0

    def test_heartbeats_are_fire_and_forget(self):
        sim, channel, bus, _, _ = make_bus(breaker_threshold=10**6)
        channel.partition("h0")
        bus.send(CommandKind.HEARTBEAT, "h0")
        sim.run(until=60.0)
        assert bus.counters.retries == 0  # one send, no retry budget spent
        assert bus.counters.failures == 1

    def test_dark_host_opens_the_breaker_and_fast_fails(self):
        sim, channel, bus, _, _ = make_bus(
            retry_policy=RetryPolicy(max_attempts=1),
            breaker_threshold=3,
            breaker_open_s=30.0,
        )
        channel.partition("h0")
        for _ in range(4):
            bus.send(CommandKind.SET_FREQUENCY, "h0", 4.1)
            sim.run(until=sim.now + 5.0)
        assert bus.open_breakers == ("h0",)
        assert bus.counters.breaker_opens >= 1
        assert bus.counters.breaker_fast_fails >= 1

    def test_breaker_open_lands_on_the_timeline(self):
        from repro.control.bus import BREAKER_OPEN
        from repro.faults.timeline import FaultTimeline

        timeline = FaultTimeline()
        sim, channel, bus, _, _ = make_bus(
            retry_policy=RetryPolicy(max_attempts=1),
            breaker_threshold=2,
            breaker_open_s=30.0,
            timeline=timeline,
        )
        channel.partition("h0")
        for _ in range(3):
            bus.send(CommandKind.SET_FREQUENCY, "h0", 4.1)
            sim.run(until=sim.now + 5.0)
        opened = [e for e in timeline.events if e.kind == BREAKER_OPEN]
        assert len(opened) == 1  # one event per open, not per fast-fail
        assert opened[0].target == "h0"
        assert opened[0].detail == "cooling down 30s"
        # Subsequent fast-fails are visible as failed commands with the
        # breaker named as the reason, not as more breaker-open events.
        failures = [e for e in timeline.events if e.kind == "cmd-failed"]
        assert any("breaker-open" in e.detail for e in failures)

    def test_emergency_command_bypasses_the_open_breaker(self):
        sim, channel, bus, agent, _ = make_bus(
            retry_policy=RetryPolicy(max_attempts=1),
            breaker_threshold=2,
            breaker_open_s=1000.0,
        )
        channel.partition("h0", duration_s=20.0)
        for _ in range(3):
            bus.send(CommandKind.SET_FREQUENCY, "h0", 4.1)
            sim.run(until=sim.now + 5.0)
        assert bus.open_breakers == ("h0",)

        # The partition healed at t=20 but the breaker stays open for
        # 1000s. A normal command fast-fails; the emergency one punches
        # through and lands.
        failures = []
        bus.send(
            CommandKind.SET_FREQUENCY,
            "h0",
            4.1,
            on_failed=lambda cmd, reason: failures.append(reason),
        )
        sim.run(until=sim.now + 5.0)
        assert failures == ["breaker-open"]
        assert agent.frequency_ghz != pytest.approx(3.2)

        bus.send(CommandKind.SET_FREQUENCY, "h0", 3.2, emergency=True)
        sim.run(until=sim.now + 5.0)
        assert agent.frequency_ghz == pytest.approx(3.2)
        assert bus.counters.emergency_bypasses >= 1
        assert bus.open_breakers == ()  # the ack re-closed the breaker

    def test_breaker_recloses_after_heal(self):
        sim, channel, bus, agent, _ = make_bus(
            retry_policy=RetryPolicy(max_attempts=1),
            breaker_threshold=2,
            breaker_open_s=10.0,
        )
        channel.partition("h0", duration_s=15.0)
        for _ in range(3):
            bus.send(CommandKind.SET_FREQUENCY, "h0", 4.1)
            sim.run(until=sim.now + 5.0)
        assert bus.open_breakers == ("h0",)
        # Past the heal + cool-down, the next command is the probe that
        # re-closes the breaker.
        sim.run(until=40.0)
        bus.send(CommandKind.SET_FREQUENCY, "h0", 4.1)
        sim.run(until=45.0)
        assert bus.open_breakers == ()
        assert agent.frequency_ghz == pytest.approx(4.1)


# ----------------------------------------------------------------------
# The wire: loss details on the timeline, and the message shapes
# ----------------------------------------------------------------------
def make_traced_bus(config=None):
    """A one-host bus whose channel records its losses on a timeline."""
    sim = Simulator(seed=1)
    timeline = FaultTimeline()
    channel = LossyChannel(sim, seed=1, config=config, timeline=timeline)
    bus = CommandBus(
        sim, channel, retry_policy=RetryPolicy(max_attempts=1), seed=1, timeline=timeline
    )
    bus.attach(HostAgent(sim, "h0", channel, base_frequency_ghz=3.4, counters=bus.counters))
    return sim, channel, bus, timeline


def _losses(timeline):
    return [(event.time_s, event.detail) for event in timeline.of_kind(CMD_LOST)]


#: Every message takes exactly one second to cross the link.
ONE_SECOND = ChannelConfig(min_delay_s=1.0, max_delay_s=1.0)


class TestLossDetails:
    def test_partitioned_at_send(self):
        sim, channel, bus, timeline = make_traced_bus()
        channel.partition("h0", duration_s=10.0)
        bus.send(CommandKind.SET_FREQUENCY, "h0", 4.1)
        sim.run(until=5.0)
        assert _losses(timeline) == [(0.0, "partitioned set-frequency=4.1#1")]

    def test_dropped_at_send(self):
        sim, channel, bus, timeline = make_traced_bus()
        channel.set_drop("h0", 1.0)
        bus.send(CommandKind.HEARTBEAT, "h0")
        bus.send(CommandKind.DEPLOY_VM, "h0", "vm-7")
        sim.run(until=5.0)
        assert _losses(timeline) == [
            (0.0, "dropped heartbeat#1"),
            (0.0, "dropped deploy-vm=vm-7#2"),
        ]

    def test_lost_in_flight(self):
        sim, channel, bus, timeline = make_traced_bus(ONE_SECOND)
        bus.send(CommandKind.SET_FREQUENCY, "h0", 4.1)
        sim.after(0.5, lambda: channel.partition("h0", duration_s=10.0))
        sim.run(until=5.0)
        assert _losses(timeline) == [(1.0, "in-flight set-frequency=4.1#1")]

    def test_lost_duplicate(self):
        sim, channel, bus, timeline = make_traced_bus(ONE_SECOND)
        channel.set_duplicate("h0", 0.99)
        bus.send(CommandKind.SET_FREQUENCY, "h0", 4.1)
        sim.after(0.5, lambda: channel.partition("h0", duration_s=10.0))
        sim.run(until=5.0)
        assert _losses(timeline) == [
            (1.0, "in-flight set-frequency=4.1#1"),
            (1.0, "in-flight dup set-frequency=4.1#1"),
        ]

    def test_lost_acks(self):
        # The command lands at t=1; its ack is dropped at the host's send.
        sim, channel, bus, timeline = make_traced_bus(ONE_SECOND)
        bus.send(CommandKind.SET_FREQUENCY, "h0", 4.1)
        sim.after(0.5, lambda: channel.set_drop("h0", 1.0))
        sim.run(until=5.0)
        assert _losses(timeline) == [(1.0, "dropped ack bus:h0:set-frequency:1")]
        # The next ack leaves at t=6 and dies mid-air at t=7.
        channel.clear_drop("h0")
        bus.send(CommandKind.HEARTBEAT, "h0")
        sim.after(1.5, lambda: channel.partition("h0", duration_s=10.0))
        sim.run(until=10.0)
        assert _losses(timeline)[1:] == [(7.0, "in-flight ack bus:h0:heartbeat:2")]

    def test_failed_command_detail(self):
        sim, channel, bus, timeline = make_traced_bus()
        channel.partition("h0", duration_s=10.0)
        bus.send(CommandKind.SET_FREQUENCY, "h0", 4.1)
        sim.run(until=5.0)
        assert [(e.time_s, e.detail) for e in timeline.of_kind(CMD_FAILED)] == [
            (1.0, "set-frequency=4.1#1 ack-timeout after 1 attempt(s)")
        ]


class TestMessageShape:
    def test_command_fields_order_and_defaults(self):
        parameters = inspect.signature(Command).parameters
        assert [(name, p.default) for name, p in parameters.items()] == [
            ("kind", inspect.Parameter.empty),
            ("target", inspect.Parameter.empty),
            ("idempotency_key", inspect.Parameter.empty),
            ("sequence", inspect.Parameter.empty),
            ("payload", None),
            ("issued_at_s", 0.0),
        ]
        command = Command(CommandKind.SET_FREQUENCY, "h0", "k1", 3)
        assert (command.payload, command.issued_at_s) == (None, 0.0)
        assert command == Command(
            kind=CommandKind.SET_FREQUENCY, target="h0", idempotency_key="k1", sequence=3
        )
        assert hash(command) == hash(Command(CommandKind.SET_FREQUENCY, "h0", "k1", 3))

    def test_ack_fields_order_and_defaults(self):
        parameters = inspect.signature(Ack).parameters
        assert [(name, p.default) for name, p in parameters.items()] == [
            ("idempotency_key", inspect.Parameter.empty),
            ("target", inspect.Parameter.empty),
            ("applied_at_s", inspect.Parameter.empty),
            ("frequency_ghz", 0.0),
            ("detail", ""),
        ]
        ack = Ack("k1", "h0", 2.5)
        assert (ack.frequency_ghz, ack.detail) == (0.0, "")
        assert ack == Ack(idempotency_key="k1", target="h0", applied_at_s=2.5)

    def test_messages_are_immutable(self):
        command = Command(CommandKind.HEARTBEAT, "h0", "k1", 1)
        ack = Ack("k1", "h0", 0.0)
        for message, field_name, value in (
            (command, "sequence", 2),
            (command, "payload", 4.1),
            (ack, "frequency_ghz", 4.1),
            (ack, "detail", "x"),
        ):
            with pytest.raises(AttributeError):
                setattr(message, field_name, value)

    def test_describe(self):
        assert Command(CommandKind.HEARTBEAT, "h0", "k", 3).describe() == "heartbeat#3"
        assert (
            Command(CommandKind.SET_FREQUENCY, "h0", "k", 4, 4.1).describe()
            == "set-frequency=4.1#4"
        )
        assert (
            Command(CommandKind.DEPLOY_VM, "h0", "k", 5, "vm-1").describe()
            == "deploy-vm=vm-1#5"
        )
        assert (
            Command(CommandKind.RETIRE_VM, "h0", "k", 6, payload="vm-1").describe()
            == "retire-vm=vm-1#6"
        )

    def test_send_builds_the_keyed_command(self):
        sim, _, bus, _ = make_traced_bus()
        sim.run(until=2.5)
        command = bus.send(CommandKind.SET_FREQUENCY, "h0", 4.1)
        assert command == Command(
            CommandKind.SET_FREQUENCY, "h0", "bus:h0:set-frequency:1", 1, 4.1, 2.5
        )
        acks = []
        bus.send(CommandKind.HEARTBEAT, "h0", on_applied=acks.append)
        sim.run(until=3.0)
        assert acks == [Ack("bus:h0:heartbeat:2", "h0", 2.5, 4.1, "alive")]


class TestDeadManLease:
    def test_partitioned_overclocked_host_reverts_within_the_bound(self):
        sim, channel, bus, agent, applied = make_bus()
        expired = []
        agent.on_lease_expired = expired.append
        sim.every(3.0, lambda: bus.send(CommandKind.HEARTBEAT, "h0"))
        sim.after(10.0, lambda: bus.send(CommandKind.SET_FREQUENCY, "h0", 4.1))
        sim.after(50.0, lambda: channel.partition("h0"))
        sim.run(until=100.0)
        assert agent.frequency_ghz == pytest.approx(3.4)  # reverted to base
        assert agent.lease_expiries == 1
        assert expired == ["h0"]
        revert_time = next(t for t, freq in applied if freq == pytest.approx(3.4))
        # Bound: lease_misses missed heartbeats plus one check tick.
        assert revert_time <= 50.0 + (agent.lease_misses + 1) * agent.heartbeat_interval_s

    def test_lease_never_fires_at_base_frequency(self):
        sim, channel, _, agent, _ = make_bus()
        channel.partition("h0")  # silence from t=0, but never overclocked
        sim.run(until=100.0)
        assert agent.lease_expiries == 0

    def test_any_command_renews_the_lease(self):
        sim, _, bus, agent, _ = make_bus()
        sim.after(1.0, lambda: bus.send(CommandKind.SET_FREQUENCY, "h0", 4.1))
        # No heartbeats at all — but a steady drip of other commands.
        sim.every(5.0, lambda: bus.send(CommandKind.SET_FREQUENCY, "h0", 4.1), start_after=5.0)
        sim.run(until=60.0)
        assert agent.lease_expiries == 0
        assert agent.is_overclocked

    def test_agent_validation(self):
        sim = Simulator(seed=1)
        channel = LossyChannel(sim, seed=1)
        with pytest.raises(ConfigurationError):
            HostAgent(sim, "h0", channel, base_frequency_ghz=0.0)
        with pytest.raises(ConfigurationError):
            HostAgent(sim, "h0", channel, base_frequency_ghz=3.4, lease_misses=0)
        with pytest.raises(ConfigurationError):
            HostAgent(sim, "h0", channel, base_frequency_ghz=3.4, heartbeat_interval_s=0.0)

    def test_agent_without_vm_hooks_rejects_deploys(self):
        sim, _, bus, agent, _ = make_bus()
        from repro.control.bus import Command

        with pytest.raises(ControlError):
            agent.receive(
                Command(CommandKind.DEPLOY_VM, "h0", "k1", sequence=1, payload="vm-1")
            )


# ----------------------------------------------------------------------
# Reconciler
# ----------------------------------------------------------------------
def make_link(seed=1, **kwargs):
    sim = Simulator(seed=seed)
    defaults = dict(
        retry_policy=RetryPolicy(max_attempts=1),  # reconciler does the work
        heartbeat_interval_s=3.0,
        lease_misses=10**6,  # isolate reconciliation from the lease
        reconcile_interval_s=10.0,
        breaker_threshold=3,
        breaker_open_s=20.0,
    )
    defaults.update(kwargs)
    link = ActuationLink(sim, seed=seed, **defaults)
    applied = {}
    deployed = []
    for host_id in ("h0", "h1"):
        link.add_host(
            host_id,
            base_frequency_ghz=3.4,
            apply_frequency=lambda freq, h=host_id: applied.setdefault(h, []).append(
                (sim.now, freq)
            ),
            deploy_vm=lambda token: deployed.append((sim.now, token)),
        )
    return sim, link, applied, deployed


class TestReconciler:
    def test_healthy_link_needs_no_repairs(self):
        sim, link, applied, _ = make_link()
        sim.every(3.0, link.heartbeat)
        sim.after(5.0, lambda: link.set_frequency(4.1))
        sim.run(until=60.0)
        assert link.counters.reconcile_repairs == 0
        assert [freq for _, freq in applied["h0"]] == [4.1]

    def test_lost_frequency_command_is_reasserted_after_heal(self):
        sim, link, applied, _ = make_link()
        sim.every(3.0, link.heartbeat)
        link.channel.partition("h0", duration_s=40.0)
        sim.after(5.0, lambda: link.set_frequency(4.1, hosts=("h0",)))
        sim.run(until=120.0)
        # The single fire-and-forget send died in the partition; only the
        # reconciliation loop can have landed the frequency.
        assert link.agent("h0").frequency_ghz == pytest.approx(4.1)
        assert link.counters.reconcile_repairs >= 1

    def test_lost_deploy_is_reissued_until_confirmed(self):
        sim, link, _, deployed = make_link()
        sim.every(3.0, link.heartbeat)
        link.channel.partition("h1", duration_s=30.0)
        sim.after(5.0, lambda: link.deploy_vm("vm-a", "h1"))
        sim.run(until=120.0)
        assert [token for _, token in deployed] == ["vm-a"]  # exactly once
        assert link.reconciler.pending_deploys == ()

    def test_retired_deploys_are_not_repaired(self):
        sim, link, _, deployed = make_link()
        sim.every(3.0, link.heartbeat)
        link.channel.partition("h1", duration_s=30.0)
        sim.after(5.0, lambda: link.deploy_vm("vm-a", "h1"))
        sim.after(10.0, lambda: link.retire_vm("vm-a", "h1"))
        sim.run(until=120.0)
        assert deployed == []  # wanted-set emptied before the link healed
        assert link.reconciler.pending_deploys == ()

    def test_open_breaker_defers_repairs(self):
        sim, link, _, _ = make_link()
        sim.every(3.0, link.heartbeat)
        link.channel.partition("h0")  # never heals
        sim.after(5.0, lambda: link.set_frequency(4.1, hosts=("h0",)))
        sim.run(until=25.0)
        assert link.bus.breaker_for("h0").is_open
        repairs_while_open = link.counters.reconcile_repairs
        sim.run(until=28.0)  # one more tick inside the cool-down window
        assert link.counters.reconcile_repairs == repairs_while_open

    def test_validation(self):
        sim = Simulator(seed=1)
        channel = LossyChannel(sim, seed=1)
        bus = CommandBus(sim, channel)
        with pytest.raises(ConfigurationError):
            Reconciler(sim, bus, interval_s=0.0)


class TestActuationLink:
    def test_set_frequency_fans_out_to_all_hosts(self):
        sim, link, applied, _ = make_link()
        link.set_frequency(4.1)
        sim.run(until=5.0)
        assert [freq for _, freq in applied["h0"]] == [4.1]
        assert [freq for _, freq in applied["h1"]] == [4.1]
        assert link.hosts == ("h0", "h1")

    def test_unknown_host_rejected(self):
        _, link, _, _ = make_link()
        with pytest.raises(ConfigurationError):
            link.agent("h9")
        with pytest.raises(ConfigurationError):
            link.set_frequency(4.1, hosts=("h9",))

    def test_shared_counters_and_lease_rollup(self):
        sim, link, _, _ = make_link(lease_misses=3)
        sim.every(3.0, link.heartbeat)
        link.set_frequency(4.1)
        sim.after(5.0, lambda: link.channel.partition("h0"))
        sim.run(until=60.0)
        assert link.lease_expiries == link.agent("h0").lease_expiries == 1
        assert isinstance(link.counters, ControlPlaneCounters)
        assert link.counters.lease_expiries == 1

    def test_counters_describe_merges(self):
        first = ControlPlaneCounters(commands_sent=2, acks=1)
        second = ControlPlaneCounters(commands_sent=3, retries=4)
        first.merge(second)
        assert first.commands_sent == 5
        assert first.retries == 4
        assert "commands-sent=5" in first.describe()
        assert ControlPlaneCounters().describe() == "(no control-plane activity)"


# ----------------------------------------------------------------------
# Dedup horizon: an agent forgets a key once no copy can still arrive
# ----------------------------------------------------------------------
class TestDedupHorizon:
    def test_channel_remembers_its_longest_delay(self):
        sim = Simulator(seed=1)
        channel = LossyChannel(sim, seed=1, config=ChannelConfig(max_delay_s=0.5))
        channel.set_extra_delay("h0", 2.0)
        channel.deliver("h0", lambda: None)
        longest = channel.longest_delay_s
        assert 2.0 <= longest <= 2.5
        channel.clear_extra_delay("h0")
        channel.deliver("h0", lambda: None)
        assert channel.longest_delay_s == longest  # clearing never shortens it

    def test_agent_forgets_a_key_just_past_the_horizon(self):
        sim, channel, bus, agent, applied = make_bus(
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=1.0, jitter_fraction=0.5),
            ack_timeout_s=0.5,
        )
        # One retry: a 0.5 s ack timeout, then at most 1.5 s of backoff.
        assert bus.resend_span_s == agent.resend_span_s == 2.0
        channel.set_extra_delay("h0", 0.25)
        bus.send(CommandKind.SET_FREQUENCY, "h0", 4.1)  # applied at 0.25
        channel.clear_extra_delay("h0")
        sim.run(until=1.0)
        assert agent.cached_acks == 1
        # Still inside 0.25 + 2.0 + 0.25: the set-frequency key is kept.
        sim.at(2.5, lambda: bus.send(CommandKind.HEARTBEAT, "h0"))
        sim.run(until=2.55)
        assert agent.cached_acks == 2
        # Past it: the next delivery forgets the key.
        sim.at(2.6, lambda: bus.send(CommandKind.HEARTBEAT, "h0"))
        sim.run(until=2.65)
        assert agent.cached_acks == 2
        assert applied == [(0.25, 4.1)]

    def test_agent_on_no_bus_keeps_every_ack(self):
        sim = Simulator(seed=1)
        agent = HostAgent(sim, "h0", LossyChannel(sim, seed=1), base_frequency_ghz=3.4)
        assert agent.resend_span_s == math.inf
        for sequence, time_s in enumerate((0.0, 100.0, 10_000.0)):
            sim.run(until=time_s)
            agent.receive(Command(CommandKind.HEARTBEAT, "h0", f"k{sequence}", sequence))
        assert agent.cached_acks == 3

    def test_service_core_cache_is_flat_over_a_long_run(self):
        """A robust core holds one horizon of acks per agent, not its uptime.

        Each agent gets one heartbeat per 0.25 s tick plus the rare
        set-frequency; with the default 20.5 s resend span and a perfect
        channel, one horizon holds 83 ticks. Before expiry each agent
        held one ack per tick (4,000 here).
        """
        core = ServiceCore(seed=3)
        link = core._link
        agents = [link.agent(host) for host in link.hosts]
        horizon_s = link.bus.resend_span_s + link.channel.longest_delay_s
        bound = 2 * (math.floor(horizon_s / core.config.tick_s) + 1)
        core.run_ticks(2_000)
        at_2000 = [agent.cached_acks for agent in agents]
        core.run_ticks(2_000)
        at_4000 = [agent.cached_acks for agent in agents]
        assert at_2000 == at_4000
        assert all(size <= bound for size in at_4000), (at_4000, bound)


class _RememberEveryAck(HostAgent):
    """The agent before its dedup cache expired: it keeps every ack."""

    def receive(self, command):
        now = self._sim.now
        self._last_heartbeat_s = now
        key = command.idempotency_key
        cached = self._acked.get(key)
        if cached is not None:
            self.counters.dedup_hits += 1
            self._send_ack(cached)
            return
        detail = self._apply(command)
        ack = self._acked[key] = Ack(key, self.host_id, now, self.frequency_ghz, detail)
        self._send_ack(ack)


_ORACLE_HOSTS = ("h0", "h1", "h2")
_ORACLE_RUN_S = 150.0
_ORACLE_SENDS = ("set-frequency", "heartbeat", "deploy", "retire")
_ORACLE_FAULTS = (
    "drop",
    "clear-drop",
    "duplicate",
    "clear-duplicate",
    "extra-delay",
    "clear-extra-delay",
    "partition",
    "heal",
)


def _oracle_act(link, verb, host, value):
    """One scheduled action; ``value`` in [0, 1] is scaled per verb."""
    channel = link.channel
    if verb == "set-frequency":
        link.set_frequency(3.4 + 0.8 * value, hosts=(host,))
    elif verb == "heartbeat":
        link.heartbeat()
    elif verb == "deploy":
        link.deploy_vm(f"vm-{int(value * 4)}", host)
    elif verb == "retire":
        link.retire_vm(f"vm-{int(value * 4)}", host)
    elif verb == "drop":
        channel.set_drop(host, value)
    elif verb == "clear-drop":
        channel.clear_drop(host)
    elif verb == "duplicate":
        channel.set_duplicate(host, 0.95 * value)
    elif verb == "clear-duplicate":
        channel.clear_duplicate(host)
    elif verb == "extra-delay":
        channel.set_extra_delay(host, 20.0 * value)
    elif verb == "clear-extra-delay":
        channel.clear_extra_delay(host)
    elif verb == "partition":
        channel.partition(host, None if value > 0.9 else 60.0 * value)
    else:
        channel.heal(host)


def _oracle_run(agent_class, params, schedule):
    """Drive one link through ``schedule``; return everything observable."""
    sim = Simulator(seed=params["seed"])
    timeline = FaultTimeline()
    link = ActuationLink(
        sim,
        seed=params["seed"],
        channel_config=params["channel"],
        retry_policy=params["policy"],
        ack_timeout_s=params["ack_timeout_s"],
        lease_misses=params["lease_misses"],
        reconcile_interval_s=params["reconcile_interval_s"],
        breaker_threshold=params["breaker_threshold"],
        breaker_open_s=params["breaker_open_s"],
        timeline=timeline,
    )
    log = []
    with mock.patch.object(link_module, "HostAgent", agent_class):
        for host in _ORACLE_HOSTS:
            link.add_host(
                host,
                3.4,
                apply_frequency=lambda ghz, h=host: log.append((sim.now, h, ghz)),
                deploy_vm=lambda token, h=host: log.append((sim.now, h, "deploy", token)),
                retire_vm=lambda token, h=host: log.append((sim.now, h, "retire", token)),
            )
    acks = []
    observe = link.bus.on_ack

    def on_ack(ack):
        acks.append(ack)
        if observe is not None:
            observe(ack)

    link.bus.on_ack = on_ack
    sim.every(params["heartbeat_period_s"], link.heartbeat, name="oracle:heartbeat")
    # A steady stream of retried commands: the boost toggled fleet-wide.
    boost = iter([4.1, 3.4] * int(_ORACLE_RUN_S))
    sim.every(
        params["command_period_s"],
        lambda: link.set_frequency(next(boost)),
        name="oracle:set-frequency",
    )
    for time_s, verb, index, value in schedule:
        host = _ORACLE_HOSTS[index]
        sim.at(time_s, lambda v=verb, h=host, x=value: _oracle_act(link, v, h, x))
    sim.run(until=_ORACLE_RUN_S)
    agents = [link.agent(host) for host in _ORACLE_HOSTS]
    observed = (
        dataclasses.asdict(link.counters),
        [agent.frequency_ghz for agent in agents],
        acks,
        log,
        timeline.signature(),
        len(timeline),
    )
    return observed, [agent.cached_acks for agent in agents]


_oracle_params = st.fixed_dictionaries(
    {
        "seed": st.integers(0, 2**32),
        # Zero delays often, so a copy can land right at the horizon,
        # which is where a too-short horizon shows.
        "channel": st.builds(
            lambda drop, dup, low, spread: ChannelConfig(drop, dup, low, low + spread),
            st.floats(0.0, 0.5),
            st.floats(0.0, 0.8),
            st.just(0.0) | st.floats(0.0, 2.0),
            st.floats(0.0, 6.0),
        ),
        "policy": st.builds(
            RetryPolicy,
            max_attempts=st.integers(1, 4),
            base_delay_s=st.just(0.0) | st.floats(0.0, 1.5),
            backoff_factor=st.floats(1.0, 2.5),
            jitter_fraction=st.just(0.0) | st.floats(0.0, 0.9),
        ),
        "ack_timeout_s": st.floats(0.05, 2.0),
        "lease_misses": st.integers(1, 5),
        "reconcile_interval_s": st.sampled_from([None, 5.0, 15.0]),
        # A breaker that rarely opens lets lost acks turn into retries.
        "breaker_threshold": st.just(10**6) | st.integers(1, 5),
        "breaker_open_s": st.floats(1.0, 30.0),
        "heartbeat_period_s": st.floats(0.5, 3.0),
        "command_period_s": st.floats(1.0, 10.0),
    }
)

_oracle_schedule = st.lists(
    st.tuples(
        st.floats(0.0, _ORACLE_RUN_S - 1.0),
        st.sampled_from(_ORACLE_SENDS) | st.sampled_from(_ORACLE_FAULTS),
        st.integers(0, len(_ORACLE_HOSTS) - 1),
        st.floats(0.0, 1.0),
    ),
    max_size=60,
)


@settings(max_examples=80, deadline=None)
@given(params=_oracle_params, schedule=_oracle_schedule)
def test_dedup_expiry_matches_an_agent_that_never_forgets(params, schedule):
    """Forgetting acks past the horizon changes nothing observable.

    Two links share a seed, a configuration and a schedule of sends,
    channel faults, partitions and heals; one link's agents never
    forget an ack. Counters (dedup hits included), frequencies, the
    acks the bus accepts, every actuator call and the timeline must
    match exactly, while the expiring agents hold no more acks.
    """
    expiring, expiring_sizes = _oracle_run(HostAgent, params, schedule)
    reference, reference_sizes = _oracle_run(_RememberEveryAck, params, schedule)
    assert expiring == reference
    assert all(mine <= theirs for mine, theirs in zip(expiring_sizes, reference_sizes))
