"""Unit tests for the live-service overload stack and tick core."""

from __future__ import annotations

import math
import os
import pickle
import subprocess
import sys
from functools import partial
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.control import ActuationLink, ChannelConfig
from repro.engine.journal import RunJournal
from repro.errors import ConfigurationError, JournalError
from repro.service import (
    AdmissionController,
    BoundedDeadlineQueue,
    PriorityClass,
    QueueDelayController,
    Request,
    ServiceConfig,
    ServiceCore,
    ServiceSession,
    TokenBucket,
)
from repro.service.admission import ClassPolicy
from repro.service.brownout import BrownoutConfig, BrownoutLadder, BrownoutStage
from repro.service import checkpoint
from repro.service.checkpoint import SNAPSHOTS_KEPT, service_wal_path
from repro.service.core import MAX_SURGE_FACTOR, MODES
from repro.faults.timeline import FaultTimeline
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams
from repro.telemetry.percentiles import LatencyRecorder
from repro.workloads.diurnal import ArrivalProcess, DiurnalTrace


#: Operator ops carrying a NaN or infinite number (and one negative cap,
#: which used to be stored before it was rejected). Each must be
#: rejected before it changes any state.
HOSTILE_OPS = {
    "cap-nan": {"op": "power-cap", "watts": math.nan},
    "cap-inf": {"op": "power-cap", "watts": math.inf},
    "cap-negative": {"op": "power-cap", "watts": -5.0},
    "surge-factor-nan": {"op": "demand-surge", "factor": math.nan, "duration_s": 10.0},
    "surge-factor-inf": {"op": "demand-surge", "factor": math.inf, "duration_s": 10.0},
    "surge-duration-nan": {"op": "demand-surge", "factor": 2.0, "duration_s": math.nan},
    "surge-duration-inf": {"op": "demand-surge", "factor": 2.0, "duration_s": math.inf},
    "excursion-derate-nan": {"op": "thermal-excursion", "derate": math.nan, "duration_s": 10.0},
    "excursion-duration-nan": {"op": "thermal-excursion", "derate": 0.5, "duration_s": math.nan},
    "excursion-duration-inf": {"op": "thermal-excursion", "derate": 0.5, "duration_s": math.inf},
    # Finite but past MAX_SURGE_FACTOR: 1e300 never finished its next tick.
    "surge-factor-huge": {"op": "demand-surge", "factor": 1e300, "duration_s": 10.0},
    "surge-factor-10.5": {"op": "demand-surge", "factor": 10.5, "duration_s": 10.0},
    # Flags must be JSON booleans: bool("false") is True.
    **{
        f"{op}-{key}-{value!r}": {"op": op, key: value}
        for op, key in (("overclock", "enable"), ("rollout", "hold"))
        for value in ("false", "true", 0, 1, None)
    },
    # Numbers must be JSON numbers: float(True) is 1.0, float("10") 10.0.
    "cap-true": {"op": "power-cap", "watts": True},
    "cap-string": {"op": "power-cap", "watts": "90"},
    "surge-factor-true": {"op": "demand-surge", "factor": True, "duration_s": 10.0},
    "surge-duration-string": {"op": "demand-surge", "factor": 2.0, "duration_s": "10"},
    "excursion-derate-string": {"op": "thermal-excursion", "derate": "0.5", "duration_s": 10.0},
    "cap-huge-integer": {"op": "power-cap", "watts": 10**400},
    # Below a host's draw at the capping floor (87.6 W at the defaults):
    # a 1 W cap made every later tick raise PowerBudgetExceeded.
    "cap-1W": {"op": "power-cap", "watts": 1},
    "cap-87W": {"op": "power-cap", "watts": 87.0},
}


#: Hypothesis phases for the model tests below. The explain phase runs
#: for minutes on a failing op list; without it a failure still shrinks
#: to a minimal example in seconds.
_SHRINK_NO_EXPLAIN = tuple(phase for phase in Phase if phase is not Phase.explain)


def _policies(rate=10.0, burst=5, deadline=1.0):
    return {
        klass: ClassPolicy(rate_per_s=rate, burst=burst, deadline_s=deadline)
        for klass in PriorityClass
    }


class TestAdmission:
    def test_token_bucket_throttles_beyond_burst(self):
        bucket = TokenBucket(rate_per_s=1.0, burst=3)
        taken = sum(1 for _ in range(10) if bucket.take(0.0))
        assert taken == 3
        # Refill is continuous: after 2 s, two more tokens exist.
        assert bucket.take(2.0)
        assert bucket.take(2.0)
        assert not bucket.take(2.0)

    def test_priority_floor_gates_lower_classes(self):
        controller = AdmissionController(_policies())
        assert controller.admit(0.0, PriorityClass.BATCH) == "admitted"
        controller.set_priority_floor(PriorityClass.STANDARD)
        assert controller.admit(0.0, PriorityClass.BATCH) == "gated"
        assert controller.admit(0.0, PriorityClass.STANDARD) == "admitted"
        assert controller.admit(0.0, PriorityClass.CRITICAL) == "admitted"
        controller.set_priority_floor(None)
        assert controller.admit(0.0, PriorityClass.BATCH) == "admitted"

    def test_admission_counters_account_every_verdict(self):
        controller = AdmissionController(_policies(rate=1.0, burst=1))
        verdicts = [controller.admit(0.0, PriorityClass.CRITICAL) for _ in range(4)]
        assert verdicts.count("admitted") == 1
        assert verdicts.count("throttled") == 3
        assert controller.admitted == 1
        assert controller.throttled == 3

    def test_non_positive_takes_and_unknown_classes_rejected(self):
        bucket = TokenBucket(rate_per_s=1.0, burst=3)
        for tokens in (0.0, -1.0):
            with pytest.raises(ConfigurationError):
                bucket.take(0.0, tokens)
        controller = AdmissionController({PriorityClass.CRITICAL: ClassPolicy(1.0, 1.0, 1.0)})
        with pytest.raises(ConfigurationError):
            controller.admit(0.0, PriorityClass.BATCH)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_bucket_and_policy_rejected(self, bad):
        # A NaN rate would admit every take: NaN passes a `<= 0` check.
        for kwargs in (
            {"rate_per_s": bad, "burst": 5.0},
            {"rate_per_s": 10.0, "burst": bad},
            {"rate_per_s": 10.0, "burst": 5.0, "level": bad},
        ):
            with pytest.raises(ConfigurationError):
                TokenBucket(**kwargs)
        for args in ((bad, 5.0, 1.0), (10.0, bad, 1.0), (10.0, 5.0, bad)):
            with pytest.raises(ConfigurationError):
                ClassPolicy(*args)


class _SeparateRefillBucket:
    """Reference token bucket: refill to ``now``, then take, as two steps."""

    def __init__(self, rate_per_s: float, burst: float) -> None:
        self.rate_per_s = rate_per_s
        self.burst = burst
        self.level = burst
        self._last_s = 0.0

    def _refill(self, now_s: float) -> None:
        elapsed = now_s - self._last_s
        if elapsed > 0:
            self.level = min(self.burst, self.level + elapsed * self.rate_per_s)
        self._last_s = max(self._last_s, now_s)

    def take(self, now_s: float, tokens: float = 1.0) -> bool:
        self._refill(now_s)
        if self.level + 1e-12 >= tokens:
            self.level -= tokens
            return True
        return False


@settings(max_examples=200, deadline=None, phases=_SHRINK_NO_EXPLAIN)
@given(
    rate=st.floats(min_value=0.01, max_value=500.0),
    burst=st.floats(min_value=0.5, max_value=80.0),
    takes=st.lists(
        st.tuples(
            # Times jump back as well as forward.
            st.floats(min_value=-5.0, max_value=60.0),
            st.one_of(st.just(1.0), st.floats(min_value=1e-9, max_value=10.0)),
        ),
        max_size=60,
    ),
)
def test_token_bucket_matches_separate_refill_reference(rate, burst, takes):
    bucket = TokenBucket(rate_per_s=rate, burst=burst)
    reference = _SeparateRefillBucket(rate, burst)
    for now_s, tokens in takes:
        assert bucket.take(now_s, tokens) == reference.take(now_s, tokens)
        assert bucket.level == reference.level


class TestBacklog:
    def _request(self, seq, klass, arrival, deadline):
        return Request(
            request_id=seq, klass=klass, arrival_s=arrival, deadline_s=deadline
        )

    def test_overflow_sheds_at_tail(self):
        queue = BoundedDeadlineQueue(capacity=2)
        assert queue.push(self._request(1, PriorityClass.BATCH, 0.0, 9.0))
        assert queue.push(self._request(2, PriorityClass.BATCH, 0.0, 9.0))
        assert not queue.push(self._request(3, PriorityClass.CRITICAL, 0.0, 9.0))
        assert queue.shed_overflow == 1
        assert len(queue) == 2

    def test_pop_serves_priority_order_and_expires_en_route(self):
        queue = BoundedDeadlineQueue(capacity=10)
        queue.push(self._request(1, PriorityClass.BATCH, 0.0, 9.0))
        queue.push(self._request(2, PriorityClass.CRITICAL, 0.0, 0.5))
        queue.push(self._request(3, PriorityClass.STANDARD, 0.0, 9.0))
        # The critical request's deadline has passed: dropped, not served.
        popped = queue.pop(now_s=1.0)
        assert popped is not None and popped.klass is PriorityClass.STANDARD
        assert queue.shed_expired == 1

    def test_dispatch_slack_sheds_unwinnable_work(self):
        queue = BoundedDeadlineQueue(capacity=10)
        queue.push(self._request(1, PriorityClass.STANDARD, 0.0, 1.0))
        # Deadline is 0.05 s away but the slack guard needs 0.1 s.
        assert queue.pop(now_s=0.95, slack_s=0.1) is None
        assert queue.shed_expired == 1

    def test_expire_drops_past_deadline_only(self):
        queue = BoundedDeadlineQueue(capacity=10)
        queue.push(self._request(1, PriorityClass.BATCH, 0.0, 0.5))
        queue.push(self._request(2, PriorityClass.BATCH, 0.0, 2.0))
        assert queue.expire(1.0) == 1
        assert len(queue) == 1

    def test_head_age_tracks_oldest_request(self):
        queue = BoundedDeadlineQueue(capacity=10)
        assert queue.head_age_s(5.0) == 0.0
        queue.push(self._request(1, PriorityClass.BATCH, 1.0, 99.0))
        queue.push(self._request(2, PriorityClass.CRITICAL, 3.0, 99.0))
        assert queue.head_age_s(5.0) == pytest.approx(4.0)

    def test_request_is_an_immutable_record(self):
        request = Request(7, PriorityClass.BATCH, 1.0, 2.5)
        assert request == Request(
            request_id=7, klass=PriorityClass.BATCH, arrival_s=1.0, deadline_s=2.5
        )
        assert request.demand_scale == 1.0
        assert Request._fields == (
            "request_id",
            "klass",
            "arrival_s",
            "deadline_s",
            "demand_scale",
        )
        with pytest.raises(AttributeError):
            request.deadline_s = 9.0  # type: ignore[misc]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            BoundedDeadlineQueue(capacity=0)


class _ListQueueModel:
    """Reference backlog: one plain list per class, scanned in class order."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.queues: dict[PriorityClass, list[Request]] = {k: [] for k in PriorityClass}
        self.shed_overflow = 0
        self.shed_expired = 0
        self.shed_brownout = 0
        self.max_depth = 0

    def depth(self) -> int:
        return sum(len(queue) for queue in self.queues.values())

    def push(self, request: Request) -> bool:
        if self.depth() >= self.capacity:
            self.shed_overflow += 1
            return False
        self.queues[request.klass].append(request)
        self.max_depth = max(self.max_depth, self.depth())
        return True

    def pop(self, now_s: float, slack_s: float) -> Request | None:
        for klass in sorted(PriorityClass):
            queue = self.queues[klass]
            while queue:
                request = queue.pop(0)
                if request.deadline_s <= now_s + slack_s:
                    self.shed_expired += 1
                    continue
                return request
        return None

    def expire(self, now_s: float) -> int:
        dropped = 0
        for klass, queue in self.queues.items():
            kept = [r for r in queue if r.deadline_s > now_s]
            dropped += len(queue) - len(kept)
            self.queues[klass] = kept
        self.shed_expired += dropped
        return dropped

    def shed_class(self, klass: PriorityClass) -> int:
        dropped = len(self.queues[klass])
        self.queues[klass] = []
        self.shed_brownout += dropped
        return dropped

    def head_age_s(self, now_s: float) -> float:
        heads = [queue[0].arrival_s for queue in self.queues.values() if queue]
        return max(0.0, now_s - min(heads)) if heads else 0.0


_CLASSES = st.sampled_from(list(PriorityClass))
_STEP = st.floats(min_value=0.0, max_value=0.5)
_SLACK = st.one_of(st.just(0.0), st.floats(0.0, 0.5))
_QUEUE_OPS = st.one_of(
    # (kind, clock advance, class, arrival lag, deadline offset)
    st.tuples(
        st.just("push"),
        _STEP,
        _CLASSES,
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=-0.2, max_value=2.0),
    ),
    # (kind, clock advance, slack)
    st.tuples(st.just("pop"), _STEP, _SLACK),
    # (kind, clock advance, class, arrival lag, deadline offset, slack)
    st.tuples(
        st.just("pass_through"),
        _STEP,
        _CLASSES,
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=-0.2, max_value=2.0),
        _SLACK,
    ),
    st.tuples(st.just("expire"), _STEP),
    st.tuples(st.just("shed"), _STEP, _CLASSES),
)


@settings(max_examples=200, deadline=None, phases=_SHRINK_NO_EXPLAIN)
@given(capacity=st.integers(min_value=1, max_value=8), ops=st.lists(_QUEUE_OPS, max_size=80))
def test_backlog_matches_list_per_class_model(capacity, ops):
    queue = BoundedDeadlineQueue(capacity=capacity)
    model = _ListQueueModel(capacity)
    now_s = 0.0
    for seq, (kind, step, *args) in enumerate(ops):
        now_s += step
        if kind == "push":
            klass, lag, offset = args
            arrival_s = now_s - lag
            request = Request(seq, klass, arrival_s, arrival_s + offset)
            assert queue.push(request) == model.push(request)
        elif kind == "pop":
            (slack_s,) = args
            assert queue.pop(now_s, slack_s) is model.pop(now_s, slack_s)
        elif kind == "pass_through":
            # Only an empty backlog passes a request through; there it
            # must record what a push followed by a pop records.
            klass, lag, offset, slack_s = args
            if not model.depth():
                arrival_s = now_s - lag
                request = Request(seq, klass, arrival_s, arrival_s + offset)
                dispatched = model.push(request) and model.pop(now_s, slack_s) is request
                assert queue.pass_through(request.deadline_s, now_s, slack_s) == dispatched
        elif kind == "expire":
            assert queue.expire(now_s) == model.expire(now_s)
        else:
            (klass,) = args
            assert queue.shed_class(klass) == model.shed_class(klass)
        assert (queue.shed_overflow, queue.shed_expired, queue.shed_brownout) == (
            model.shed_overflow,
            model.shed_expired,
            model.shed_brownout,
        )
        assert len(queue) == queue.depth == model.depth()
        assert bool(queue) == (model.depth() > 0)
        assert queue.max_depth == model.max_depth
        assert queue.head_age_s(now_s) == model.head_age_s(now_s)


class TestDelayController:
    def test_drained_burst_resets_signal(self):
        controller = QueueDelayController(target_s=0.05, window_ticks=3)
        controller.observe([0.5, 0.6], head_age_s=0.0)
        controller.observe([0.4], head_age_s=0.0)
        # The burst drains: best dispatch delay near zero, queue empty.
        controller.observe([0.001], head_age_s=0.0)
        assert controller.delay_signal_s < 0.05
        assert not controller.overloaded

    def test_standing_queue_keeps_signal_elevated(self):
        controller = QueueDelayController(target_s=0.05, window_ticks=3)
        for _ in range(3):
            controller.observe([0.2, 0.3], head_age_s=0.25)
        assert controller.delay_signal_s >= 0.2
        assert controller.overloaded

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
    def test_non_finite_target_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            QueueDelayController(target_s=bad)

    def test_head_age_unmasks_starved_class(self):
        controller = QueueDelayController(target_s=0.05, window_ticks=2)
        # Fresh critical work dispatches instantly, but a batch request
        # has been stuck for 0.4 s — the tick must still read as delay.
        for _ in range(2):
            controller.observe([0.0001], head_age_s=0.4)
        assert controller.delay_signal_s >= 0.4


class TestBrownoutLadder:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field",
        [
            "slo_s",
            "shed_headroom_s",
            "revoke_headroom_s",
            "degraded_headroom_s",
            "reject_headroom_s",
            "hysteresis_s",
            "relax_clean_ticks",
        ],
    )
    def test_config_rejects_non_finite_settings(self, field, bad):
        # Construction only: a NaN threshold passes every ordering check
        # and hands the ladder a rung that never engages.
        with pytest.raises(ConfigurationError):
            BrownoutConfig(**{field: bad})
        with pytest.raises(ConfigurationError):
            ServiceConfig(brownout=BrownoutConfig(**{field: bad}))

    def test_walks_rungs_in_order_under_shrinking_headroom(self):
        ladder = BrownoutLadder(config=BrownoutConfig())
        stages = []
        ladder.register(
            BrownoutStage.SHED_LOW_PRIORITY,
            lambda: stages.append("shed") or "shed",
        )
        ladder.register(
            BrownoutStage.REVOKE_BOOST,
            lambda: stages.append("revoke") or "revoke",
        )
        ladder.observe(0.0, ladder.config.shed_headroom_s + 1.0)
        assert ladder.stage is BrownoutStage.NORMAL
        ladder.observe(1.0, ladder.config.revoke_headroom_s - 0.01)
        assert ladder.stage is BrownoutStage.REVOKE_BOOST
        assert stages == ["shed", "revoke"]


class TestDiurnal:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_trace_rejected(self, bad):
        for kwargs in (
            {"trough_rps": bad, "peak_rps": 50.0},
            {"trough_rps": 10.0, "peak_rps": bad},
            {"trough_rps": 10.0, "peak_rps": 50.0, "period_s": bad},
        ):
            with pytest.raises(ConfigurationError):
                DiurnalTrace(**kwargs)

    def test_trace_endpoints(self):
        trace = DiurnalTrace(trough_rps=10.0, peak_rps=50.0, period_s=100.0)
        assert trace.rate_rps(0.0) == pytest.approx(10.0)
        assert trace.rate_rps(50.0) == pytest.approx(50.0)
        assert trace.rate_rps(100.0) == pytest.approx(10.0)

    def test_arrivals_deterministic_per_seed(self):
        first = ArrivalProcess(RandomStreams(master_seed=9), "arrivals:test")
        second = ArrivalProcess(RandomStreams(master_seed=9), "arrivals:test")
        assert first.arrivals(0.0, 1.0, 100.0) == second.arrivals(0.0, 1.0, 100.0)

    def test_arrivals_independent_of_tick_split(self):
        whole = ArrivalProcess(RandomStreams(master_seed=4), "arrivals:test")
        split = ArrivalProcess(RandomStreams(master_seed=4), "arrivals:test")
        one_window = whole.arrivals(0.0, 1.0, 80.0)
        two_windows = split.arrivals(0.0, 0.5, 80.0) + split.arrivals(0.5, 0.5, 80.0)
        assert one_window == pytest.approx(two_windows)

    def test_zero_rate_yields_no_arrivals(self):
        process = ArrivalProcess(RandomStreams(master_seed=1), "arrivals:test")
        assert process.arrivals(0.0, 1.0, 0.0) == []


class TestServiceCore:
    def test_same_seed_same_chain_signature(self):
        first = ServiceCore(seed=11)
        second = ServiceCore(seed=11)
        op = {"op": "demand-surge", "factor": 1.5, "duration_s": 3.0}
        for core in (first, second):
            core.run_ticks(10)
            core.apply_op(dict(op))
            core.run_ticks(10)
        assert first.signature == second.signature
        assert first.timeline.signature() == second.timeline.signature()

    def test_distinct_seeds_diverge(self):
        first = ServiceCore(seed=11)
        second = ServiceCore(seed=12)
        first.run_ticks(10)
        second.run_ticks(10)
        assert first.signature != second.signature

    def test_naive_mode_boosts_at_boot_robust_waits_for_gate(self):
        naive = ServiceCore(seed=1, mode="naive")
        assert naive.boost_active
        robust = ServiceCore(seed=1, mode="robust")
        robust.tick()
        # The boost gate opens on the first healthy tick.
        assert robust.boost_active

    def test_operator_cap_disables_boost(self):
        core = ServiceCore(seed=1)
        core.run_ticks(2)
        assert core.boost_active
        core.apply_op({"op": "power-cap", "watts": 90.0})
        core.tick()
        assert not core.boost_active
        core.apply_op({"op": "power-cap", "watts": None})
        core.tick()
        assert core.boost_active

    def test_largest_surge_factor_is_accepted_and_ticks(self):
        core = ServiceCore(seed=3)
        core.run_ticks(5)
        assert core.apply_op(
            {"op": "demand-surge", "factor": MAX_SURGE_FACTOR, "duration_s": 10.0}
        ) == "factor=10.00 duration=10.0s"
        offered = core.counters.offered
        core.tick()
        assert core.counters.offered > offered

    def test_lowest_accepted_cap_is_met_on_every_tick(self):
        core = ServiceCore(seed=3)
        core.run_ticks(5)
        floor = core.min_power_cap_watts
        assert 87.0 < floor < 90.0
        with pytest.raises(ConfigurationError):
            core.apply_op({"op": "power-cap", "watts": math.nextafter(floor, 0.0)})
        assert core.apply_op({"op": "power-cap", "watts": floor}) == f"cap={floor:.0f}W"
        core.apply_op({"op": "demand-surge", "factor": 3.0, "duration_s": 10.0})
        core.run_ticks(60)
        assert not core.boost_active

    def test_overclock_op_toggles_boost(self):
        core = ServiceCore(seed=1)
        core.run_ticks(2)
        core.apply_op({"op": "overclock", "enable": False})
        core.tick()
        assert not core.boost_active

    def test_vm_crash_op_accounts_lost_work(self):
        core = ServiceCore(seed=1)
        core.run_ticks(4)
        detail = core.apply_op({"op": "vm-crash", "host": "h0"})
        assert detail.startswith("dropped=")
        assert core.apply_op({"op": "vm-crash", "host": "h0"}) is not None
        with pytest.raises(ConfigurationError):
            core.apply_op({"op": "vm-crash", "host": "h9"})

    def test_robust_mode_trips_a_host_at_tjmax(self):
        # A condenser derated below what the emergency ladder's last
        # rung can survive: the hardware trip, which both modes have,
        # must keep every live host below Tjmax.
        core = ServiceCore(seed=3)
        core.run_ticks(100)
        core.apply_op({"op": "thermal-excursion", "derate": 0.05, "duration_s": 200.0})
        tjmax = core.config.tjmax_c
        hot_ticks = 0
        for _ in range(1000):
            core.tick()
            hot_ticks += any(
                not host.failed and core._tj_by_host.get(host.host_id, -math.inf) >= tjmax
                for host in core._hosts
            )
        assert hot_ticks == 0
        assert any(
            event.kind == "host-failure" and event.detail.startswith("tj-trip")
            for event in core.timeline
        )

    def test_ladder_holds_while_no_host_is_live(self):
        # The same excursion trips the last live host: with no junction
        # to read, the emergency ladder must hold its stage rather than
        # relax, power hosts back up into the derated tank and re-grant
        # boost to an empty fleet.
        core = ServiceCore(seed=3)
        core.run_ticks(100)
        core.apply_op({"op": "thermal-excursion", "derate": 0.05, "duration_s": 200.0})
        previous = core.emergency_stage
        dark_ticks = relaxed = boosted = 0
        for _ in range(1000):
            core.tick()
            if all(host.failed for host in core._hosts):
                dark_ticks += 1
                relaxed += core.emergency_stage < previous
                boosted += core.boost_active
            previous = core.emergency_stage
        assert dark_ticks > 0
        assert (relaxed, boosted) == (0, 0)

    def test_unknown_op_rejected(self):
        core = ServiceCore(seed=1)
        with pytest.raises(ConfigurationError):
            core.apply_op({"op": "reboot-the-universe"})

    @pytest.mark.parametrize("name", sorted(HOSTILE_OPS))
    def test_hostile_op_rejected_without_effect(self, name):
        core = ServiceCore(seed=3)
        untouched = ServiceCore(seed=3)
        core.run_ticks(5)
        untouched.run_ticks(5)
        with pytest.raises(ConfigurationError):
            core.apply_op(dict(HOSTILE_OPS[name]))
        core.run_ticks(20)
        untouched.run_ticks(20)
        assert core.signature == untouched.signature
        assert core.timeline.signature() == untouched.timeline.signature()

    def test_snapshot_is_json_safe_and_complete(self):
        import json

        core = ServiceCore(seed=2)
        core.run_ticks(5)
        snapshot = core.snapshot()
        json.dumps(snapshot)
        for key in (
            "counters",
            "brownout_stage",
            "emergency_stage",
            "queue_depth",
            "fluid_temp_c",
            "signature",
        ):
            assert key in snapshot
        assert snapshot["counters"]["offered"] > 0

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            ServiceCore(seed=1, mode="heroic")

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(tick_s=0.0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(class_mix=(0.5, 0.5, 0.5))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field",
        [
            "tick_s",
            "peak_rps",
            "period_s",
            "degraded_demand_scale",
            "tank_capacity_watts",
            "theta_c_per_w",
            "trip_recovery_s",
            "dispatch_slack_s",
            "service_cv",
            "warmup_s",
            "class_mix",
        ],
    )
    def test_config_rejects_non_finite_settings(self, field, bad):
        # Construction only: an infinite tick would never finish its
        # first tick's arrivals, and an infinite peak rate serves nothing.
        value = (bad, 0.5, 0.5) if field == "class_mix" else bad
        with pytest.raises(ConfigurationError):
            ServiceConfig(**{field: value})


def test_only_the_http_shell_loads_asyncio():
    """The core, the WAL and the batch experiments leave asyncio
    unloaded; ``repro.service`` imports the server on first use."""
    code = "\n".join(
        [
            "import sys",
            "import repro.service.checkpoint, repro.experiments.overload_storm",
            "assert 'asyncio' not in sys.modules, 'asyncio loaded without the server'",
            "from repro.service import ServiceServer",
            "assert 'asyncio' in sys.modules, 'the server did not load'",
        ]
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(__file__).resolve().parent.parent / "src"), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert completed.returncode == 0, completed.stderr


class TestServiceSession:
    def test_resume_replays_to_identical_signature(self, tmp_path):
        with ServiceSession(tmp_path, "run", seed=21) as session:
            for _ in range(12):
                session.tick()
            session.apply_op({"op": "demand-surge", "factor": 2.0, "duration_s": 2.0})
            for _ in range(12):
                session.tick()
            final = session.core.signature

        resumed = ServiceSession(tmp_path, "run", seed=21)
        resumed.open()
        assert resumed.resumed
        assert resumed.replayed_ticks == 24
        assert resumed.core.signature == final
        resumed.close()

    def test_resumed_continuation_matches_uninterrupted_run(self, tmp_path):
        with ServiceSession(tmp_path, "run", seed=8) as session:
            for _ in range(10):
                session.tick()

        resumed = ServiceSession(tmp_path, "run", seed=8)
        resumed.open()
        for _ in range(10):
            resumed.tick()
        continued = resumed.core.signature
        resumed.close()

        reference = ServiceCore(seed=8)
        reference.run_ticks(20)
        assert continued == reference.signature

    def test_mismatched_seed_refused(self, tmp_path):
        with ServiceSession(tmp_path, "run", seed=1) as session:
            session.tick()
        with pytest.raises(JournalError):
            ServiceSession(tmp_path, "run", seed=2).open()

    def test_mismatched_mode_refused(self, tmp_path):
        with ServiceSession(tmp_path, "run", seed=1, mode="robust") as session:
            session.tick()
        with pytest.raises(JournalError):
            ServiceSession(tmp_path, "run", seed=1, mode="naive").open()

    def test_refused_resume_closes_the_wal(self, tmp_path):
        with ServiceSession(tmp_path, "run", seed=1) as session:
            session.tick()
        refused = ServiceSession(tmp_path, "run", seed=2)
        with pytest.raises(JournalError):
            refused.open()
        assert refused._journal._handle is None
        with ServiceSession(tmp_path, "run", seed=1) as fresh:
            assert fresh.resumed
            assert fresh.replayed_ticks == 1

    @pytest.mark.parametrize(
        "name",
        [
            "cap-nan",
            "surge-duration-inf",
            "surge-factor-huge",
            "surge-factor-10.5",
            "overclock-enable-'false'",
            "rollout-hold-0",
            "cap-1W",
            "cap-true",
            "surge-duration-string",
        ],
    )
    def test_rejected_op_is_never_journaled(self, tmp_path, name):
        with ServiceSession(tmp_path, "run", seed=3) as session:
            for _ in range(5):
                session.tick()
            with pytest.raises(ConfigurationError):
                session.apply_op(dict(HOSTILE_OPS[name]))
            session.tick()
        journal = RunJournal(service_wal_path(tmp_path, "run"), "run")
        try:
            records = journal.open()
        finally:
            journal.close()
        assert "meta" in records
        assert not any(key.startswith("op:") for key in records)

    def test_op_journaled_before_ack_is_replayed(self, tmp_path):
        with ServiceSession(tmp_path, "run", seed=5) as session:
            for _ in range(5):
                session.tick()
            # Op accepted at the tick-5 boundary but never ticked past:
            # it must still survive the restart.
            session.apply_op({"op": "overclock", "enable": False})

        resumed = ServiceSession(tmp_path, "run", seed=5)
        resumed.open()
        resumed.tick()
        assert not resumed.core.boost_active
        resumed.close()


# ----------------------------------------------------------------------
# Snapshots: a picklable core, written every SNAPSHOT_INTERVAL_TICKS
# ----------------------------------------------------------------------
#: The storm's ops, plus the ops that reach the power-cap, overclock and
#: vm-crash paths.
_SNAPSHOT_OPS = st.sampled_from(
    [
        {"op": "demand-surge", "factor": 2.5, "duration_s": 60.0},
        {"op": "thermal-excursion", "derate": 0.5, "duration_s": 60.0},
        {"op": "demand-surge", "factor": 3.0, "duration_s": 90.0},
        {"op": "power-cap", "watts": 90.0},
        {"op": "power-cap", "watts": None},
        {"op": "overclock", "enable": False},
        {"op": "overclock", "enable": True},
        *({"op": "vm-crash", "host": f"h{index}"} for index in range(4)),
    ]
)


def _run_core(seed: int, mode: str, ticks: int, ops: dict[int, dict]) -> ServiceCore:
    """An uninterrupted core: ``ops`` at their boundaries, ``ticks`` ticks,
    then any op at boundary ``ticks``."""
    core = ServiceCore(seed, mode=mode)
    for boundary in range(ticks + 1):
        if boundary in ops:
            core.apply_op(dict(ops[boundary]))
        if boundary < ticks:
            core.tick()
    return core


def _journal(directory, seed: int, ticks: int, ops=None, mode: str = "robust") -> ServiceSession:
    """Journal ``ticks`` ticks (and ``ops``) to the WAL of run ``run``."""
    ops = ops or {}
    with ServiceSession(directory, "run", seed, mode=mode) as session:
        for boundary in range(ticks + 1):
            if boundary in ops:
                session.apply_op(dict(ops[boundary]))
            if boundary < ticks:
                session.tick()
    return session


def _resume(directory, seed: int, mode: str = "robust") -> ServiceSession:
    session = ServiceSession(directory, "run", seed, mode=mode)
    session.open()
    session.close()
    return session


def _snapshot_paths(directory) -> list[Path]:
    return sorted((Path(directory) / "service").glob("run.*.snap*"))


def _records(directory) -> dict:
    journal = RunJournal(service_wal_path(directory, "run"), "run")
    try:
        return journal.open()
    finally:
        journal.close()


def _same_state(core: ServiceCore, reference: ServiceCore) -> None:
    """Signature, every counter, the timeline, the latency summary (all
    in ``snapshot()``), then the next 20 ticks' signatures."""
    assert core.snapshot() == reference.snapshot()
    assert [core.tick().signature for _ in range(20)] == [
        reference.tick().signature for _ in range(20)
    ]


@settings(max_examples=30, deadline=None, phases=_SHRINK_NO_EXPLAIN)
@given(
    seed=st.integers(min_value=0, max_value=50),
    mode=st.sampled_from(MODES),
    interval=st.integers(min_value=3, max_value=9),
    ticks=st.integers(min_value=1, max_value=40),
    ops=st.dictionaries(st.integers(min_value=0, max_value=40), _SNAPSHOT_OPS, max_size=4),
)
def test_snapshot_resume_matches_full_replay_and_an_uninterrupted_core(
    seed, mode, interval, ticks, ops
):
    ops = {boundary: op for boundary, op in ops.items() if boundary <= ticks}
    with tempfile.TemporaryDirectory() as directory, mock.patch.object(
        checkpoint, "SNAPSHOT_INTERVAL_TICKS", interval
    ):
        journaled = _journal(directory, seed, ticks, ops, mode)
        assert journaled.snapshots_written == ticks // interval
        assert len(_snapshot_paths(directory)) == min(ticks // interval, 2)
        restored = _resume(directory, seed, mode)
        for path in _snapshot_paths(directory):
            path.unlink()
        replayed = _resume(directory, seed, mode)
    assert restored.restored_tick == ticks - ticks % interval
    assert replayed.restored_tick == 0
    assert restored.replayed_ticks == replayed.replayed_ticks == ticks
    uninterrupted = _run_core(seed, mode, ticks, ops)
    _same_state(restored.core, uninterrupted)
    _same_state(replayed.core, _run_core(seed, mode, ticks, ops))


@settings(max_examples=15, deadline=None, phases=_SHRINK_NO_EXPLAIN)
@given(
    seed=st.integers(min_value=0, max_value=50),
    mode=st.sampled_from(MODES),
    ticks=st.integers(min_value=0, max_value=150),
    ops=st.dictionaries(st.integers(min_value=0, max_value=150), _SNAPSHOT_OPS, max_size=4),
)
def test_core_pickles_at_any_boundary_and_continues_bit_identically(seed, mode, ticks, ops):
    core = _run_core(seed, mode, ticks, ops)
    with warnings.catch_warnings():
        # Pickling an itertools object warns on 3.12 and fails on 3.14.
        warnings.simplefilter("error", DeprecationWarning)
        clone = pickle.loads(pickle.dumps(core, protocol=pickle.HIGHEST_PROTOCOL))
    twin = _run_core(seed, mode, ticks, ops)
    expected = [twin.tick().signature for _ in range(20)]
    # Pickling reads the live core's stream and queue positions without
    # moving them, so the pickled core continues as its clone does.
    assert [clone.tick().signature for _ in range(20)] == expected
    assert [core.tick().signature for _ in range(20)] == expected


@settings(max_examples=25, deadline=None, phases=_SHRINK_NO_EXPLAIN)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    mode=st.sampled_from(MODES),
    history=st.integers(min_value=4, max_value=16),
    ticks=st.integers(min_value=1, max_value=60),
    surge_at=st.integers(min_value=0, max_value=60),
    factor=st.floats(min_value=1.0, max_value=MAX_SURGE_FACTOR),
)
def test_latency_summary_is_exact_over_the_last_history_ticks(
    seed, mode, history, ticks, surge_at, factor
):
    """The live summary equals numpy over exactly the samples an
    untrimmed twin recorded in the last ``history_ticks`` ticks, and the
    window's buffer never holds more than twice those samples."""
    core = ServiceCore(seed, ServiceConfig(history_ticks=history), mode=mode)
    twin = ServiceCore(seed, ServiceConfig(history_ticks=60), mode=mode)
    surge = {"op": "demand-surge", "factor": factor, "duration_s": 5.0}
    ends = [0]  # the twin's sample count at the end of each tick
    for boundary in range(ticks):
        if boundary == surge_at:
            core.apply_op(dict(surge))
            twin.apply_op(dict(surge))
        core.tick()
        twin.tick()
        ends.append(len(twin.latency))
        window = ends[-1] - ends[max(0, len(ends) - 1 - history)]
        assert len(core.latency) == window
        assert len(core.latency._latencies) <= 2 * window
    assert core.signature == twin.signature
    expected = np.asarray(twin.latency.samples[ends[max(0, ticks - history)] :])
    summary = core.snapshot()["latency"]
    if not expected.size:
        assert summary is None
        return
    p50, p95, p99 = np.percentile(expected, (50.0, 95.0, 99.0))
    want = {"count": expected.size, "mean": np.mean(expected), "p50": p50, "p95": p95, "p99": p99}
    assert {key: repr(value) for key, value in summary.items()} == {
        key: repr(float(value)) for key, value in want.items()
    }


def _lossy_control_plane(seed: int):
    """A simulator and a two-host actuation link over a lossy, slow,
    duplicating channel, so commands, acks, timeouts and retries are in
    flight at most instants; a frequency command every 0.7 s and a
    heartbeat every 0.25 s."""
    sim = Simulator(seed)
    timeline = FaultTimeline()
    link = ActuationLink(
        sim,
        seed=seed,
        channel_config=ChannelConfig(
            drop_probability=0.3,
            duplicate_probability=0.2,
            min_delay_s=0.05,
            max_delay_s=0.9,
        ),
        reconcile_interval_s=None,
        timeline=timeline,
    )
    for host in ("h0", "h1"):
        link.add_host(host, base_frequency_ghz=3.4)
    sim.every(0.25, link.heartbeat)
    sim.every(0.7, partial(link.set_frequency, 4.1))
    return sim, link, timeline


@settings(max_examples=15, deadline=None, phases=_SHRINK_NO_EXPLAIN)
@given(seed=st.integers(min_value=0, max_value=50), at_s=st.floats(min_value=0.0, max_value=30.0))
def test_control_plane_pickles_with_messages_and_retries_in_flight(seed, at_s):
    sim, link, timeline = _lossy_control_plane(seed)
    sim.run(until=at_s)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        clone = pickle.loads(pickle.dumps((sim, link, timeline), protocol=pickle.HIGHEST_PROTOCOL))
    twin = _lossy_control_plane(seed)
    twin[0].run(until=at_s)
    for run_sim, run_link, run_timeline in ((sim, link, timeline), clone, twin):
        run_sim.run(until=at_s + 20.0)
    assert link.counters.retries > 0 and link.counters.failures > 0
    for other_sim, other_link, other_timeline in (clone, twin):
        assert other_link.counters == link.counters
        assert other_timeline.signature() == timeline.signature()
        assert other_sim.processed_events == sim.processed_events


class TestServiceSnapshots:
    @pytest.fixture(autouse=True)
    def _small_interval(self, monkeypatch):
        monkeypatch.setattr(checkpoint, "SNAPSHOT_INTERVAL_TICKS", 5)

    def test_newest_two_snapshots_are_kept_and_journaled(self, tmp_path):
        session = _journal(tmp_path, seed=3, ticks=17)
        assert session.snapshots_written == 3
        assert [path.name for path in _snapshot_paths(tmp_path)] == [
            "run.00000010.snap",
            "run.00000015.snap",
        ]
        records = _records(tmp_path)
        snaps = sorted(key for key in records if key.startswith("snap:"))
        # Compaction at tick 15 dropped snap:00000005 and sig:00000015.
        assert snaps == ["snap:00000010", "snap:00000015"]
        assert records["snap:00000015"]["signature"] == _run_core(3, "robust", 15, {}).signature
        resumed = _resume(tmp_path, seed=3)
        assert (resumed.restored_tick, resumed.replayed_ticks) == (15, 17)
        assert resumed.core.signature == session.core.signature

    def test_wal_holds_one_interval_however_long_the_run(self, tmp_path):
        ops = {
            3: {"op": "demand-surge", "factor": 2.0, "duration_s": 5.0},
            12: {"op": "overclock", "enable": False},
            26: {"op": "power-cap", "watts": 90.0},
            33: {"op": "power-cap", "watts": None},
        }
        session = _journal(tmp_path, seed=3, ticks=33, ops=ops)
        assert session.snapshots_written == 6
        assert sorted(path.name for path in (tmp_path / "service").iterdir()) == [
            "run.00000025.snap",
            "run.00000030.snap",
            "run.wal",
        ]
        records = _records(tmp_path)
        assert sorted(records) == [
            "meta",
            *(f"op:{seq:08d}" for seq in range(1, 5)),
            *(f"sig:{tick:08d}" for tick in range(31, 34)),
            "snap:00000025",
            "snap:00000030",
        ]
        assert [records[f"op:{seq:08d}"]["op"] for seq in range(1, 5)] == list(ops.values())
        resumed = _resume(tmp_path, seed=3)
        assert (resumed.restored_tick, resumed.replayed_ticks) == (30, 33)
        # Every record plus the journal header, within the bound: one
        # interval of sig records, every op, the kept snaps, meta, header.
        assert resumed.records_read == len(records) + 1
        assert resumed.records_read <= 5 + len(ops) + SNAPSHOTS_KEPT + 2
        _same_state(resumed.core, _run_core(3, "robust", 33, ops))

    def test_close_takes_no_snapshot(self, tmp_path):
        session = _journal(tmp_path, seed=3, ticks=4)
        assert session.snapshots_written == 0
        assert _snapshot_paths(tmp_path) == []

    def test_tampered_snapshot_falls_back_to_the_next_older(self, tmp_path):
        session = _journal(tmp_path, seed=3, ticks=12)
        newest = _snapshot_paths(tmp_path)[-1]
        data = bytearray(newest.read_bytes())
        data[len(data) // 2] ^= 0xFF
        newest.write_bytes(bytes(data))
        resumed = _resume(tmp_path, seed=3)
        assert (resumed.restored_tick, resumed.replayed_ticks) == (5, 12)
        assert resumed.core.signature == session.core.signature

    def test_missing_snapshots_fall_back_to_a_full_replay(self, tmp_path):
        session = _journal(tmp_path, seed=3, ticks=12)
        newest, oldest = reversed(_snapshot_paths(tmp_path))
        newest.unlink()
        assert _resume(tmp_path, seed=3).restored_tick == 5
        oldest.unlink()
        resumed = _resume(tmp_path, seed=3)
        assert (resumed.restored_tick, resumed.replayed_ticks) == (0, 12)
        assert resumed.core.signature == session.core.signature

    def test_torn_temp_file_is_ignored_then_pruned(self, tmp_path):
        session = _journal(tmp_path, seed=3, ticks=7)
        torn = tmp_path / "service" / "run.00000010.snap.4242.tmp"
        torn.write_bytes(b"\x80\x05torn")
        with ServiceSession(tmp_path, "run", 3) as resumed:
            assert resumed.restored_tick == 5
            assert resumed.core.signature == session.core.signature
            for _ in range(3):
                resumed.tick()
        assert not torn.exists()
        assert resumed.snapshots_written == 1

    def test_restored_signature_that_differs_raises(self, tmp_path, monkeypatch):
        def write_a_fresh_core(core, temp, final):
            return checkpoint.write_snapshot(ServiceCore(seed=core.seed), temp, final)

        monkeypatch.setattr(checkpoint, "_write_snapshot_in_child", write_a_fresh_core)
        _journal(tmp_path, seed=3, ticks=6)
        resumed = ServiceSession(tmp_path, "run", 3)
        with pytest.raises(JournalError, match="snapshot"):
            resumed.open()
        assert resumed._journal._handle is None

    @pytest.mark.parametrize("code", [None, "0" * 64], ids=["no-fingerprint", "other-code"])
    def test_snapshot_written_by_other_code_falls_back_to_a_full_replay(self, tmp_path, code):
        """A snapshot pickled by another version of the package (here its
        core keeps a plain ``LatencyRecorder``, as before ``LatencyWindow``)
        is skipped without being unpickled, and the resume replays from
        tick 0."""
        session = _journal(tmp_path, seed=3, ticks=7)
        records = _records(tmp_path)
        snap = dict(records["snap:00000005"])
        path = tmp_path / "service" / snap["file"]
        core = checkpoint.read_snapshot(path)
        core.latency = LatencyRecorder()
        temp = path.with_name(f"{path.name}.1.tmp")
        snap["sha256"] = checkpoint.write_snapshot(core, temp, path)
        snap.pop("code", None)
        if code is not None:
            snap["code"] = code
        records["snap:00000005"] = snap
        wal = service_wal_path(tmp_path, "run")
        temp = wal.with_name(f"{wal.name}.1.tmp")
        checkpoint.write_compacted_wal(temp, "run", [(key, key, value) for key, value in records.items()])
        os.replace(temp, wal)
        resumed = _resume(tmp_path, seed=3)
        assert (resumed.restored_tick, resumed.replayed_ticks) == (0, 7)
        assert resumed.core.signature == session.core.signature
        _same_state(resumed.core, _run_core(3, "robust", 7, {}))

    def test_core_holding_a_foreign_closure_skips_its_snapshot(self, tmp_path):
        with ServiceSession(tmp_path, "run", 3) as session:
            session.core._sim.after(1e9, lambda: None, "foreign")
            for _ in range(11):
                session.tick()
        assert (session.snapshots_written, session.snapshots_skipped) == (0, 2)
        assert _snapshot_paths(tmp_path) == []
        assert not any(key.startswith("snap:") for key in _records(tmp_path))
        resumed = _resume(tmp_path, seed=3)
        assert (resumed.restored_tick, resumed.replayed_ticks) == (0, 11)
        assert resumed.core.signature == session.core.signature


# ----------------------------------------------------------------------
# A journaled session under ticks, ops and restarts, beside a twin
# ----------------------------------------------------------------------
def _unaccounted(core: ServiceCore) -> str | None:
    """Request conservation as the benchmark checks it: describe the
    first broken identity, or None."""
    c = core.counters
    decided = c.admitted + c.rejected_throttled + c.rejected_brownout
    if c.offered != decided:
        return f"offered {c.offered} != admitted + rejected {decided}"
    settled = (
        c.completed_ok
        + c.completed_late
        + c.shed_low_priority
        + c.shed_expired
        + c.shed_overflow
        + c.lost_to_trips
        + core.queue_depth
        + core.in_flight
    )
    if c.admitted != settled:
        return f"admitted {c.admitted} != settled + queued + in flight {settled}"
    return None


class ServiceSessionMachine(RuleBasedStateMachine):
    """Ticks, valid and hostile ops, and close-and-resume on a journaled
    session with a small snapshot interval, against an uninterrupted
    twin core that sees the same ticks and accepted ops."""

    @initialize(
        seed=st.integers(min_value=0, max_value=50),
        mode=st.sampled_from(MODES),
        interval=st.integers(min_value=3, max_value=9),
    )
    def start(self, seed, mode, interval):
        self.directory = tempfile.TemporaryDirectory()
        self.interval_patch = mock.patch.object(checkpoint, "SNAPSHOT_INTERVAL_TICKS", interval)
        self.interval_patch.start()
        self.seed, self.mode, self.interval = seed, mode, interval
        self.twin = ServiceCore(seed, mode=mode)
        self.accepted: list[dict] = []
        self.session = self._open()

    def _open(self) -> ServiceSession:
        session = ServiceSession(self.directory.name, "run", self.seed, mode=self.mode)
        session.open()
        return session

    @rule(ticks=st.integers(min_value=1, max_value=9))
    def tick(self, ticks):
        for _ in range(ticks):
            self.session.tick()
            self.twin.tick()

    @rule(op=_SNAPSHOT_OPS)
    def apply_valid_op(self, op):
        self.session.apply_op(dict(op))
        self.twin.apply_op(dict(op))
        self.accepted.append(op)

    @rule(name=st.sampled_from(sorted(HOSTILE_OPS)))
    def apply_hostile_op(self, name):
        with pytest.raises(ConfigurationError):
            self.session.apply_op(dict(HOSTILE_OPS[name]))

    @rule()
    def close_and_resume(self):
        self.session.close()
        self.session = self._open()
        assert self.session.resumed
        assert self.session.replayed_ticks == self.twin.tick_index
        bound = self.interval + len(self.accepted) + SNAPSHOTS_KEPT + 2
        assert self.session.records_read <= bound

    @invariant()
    def requests_are_conserved(self):
        assert _unaccounted(self.session.core) is None

    @invariant()
    def backlog_and_fleet_stay_within_their_bounds(self):
        core = self.session.core
        assert core.queue_depth <= core.config.queue_capacity
        if self.mode == "robust":  # naive mode dispatches every arrival
            assert core.in_flight <= core.config.max_in_flight

    @invariant()
    def core_matches_the_uninterrupted_twin(self):
        assert self.session.core.snapshot() == self.twin.snapshot()

    @invariant()
    def wal_holds_every_op_and_one_interval(self):
        records = _records(self.directory.name)
        ops = [records[key]["op"] for key in sorted(records) if key.startswith("op:")]
        assert ops == self.accepted  # and so no rejected op
        snaps = sorted(records[key]["tick"] for key in records if key.startswith("snap:"))
        sigs = [records[key]["tick"] for key in records if key.startswith("sig:")]
        assert len(snaps) <= SNAPSHOTS_KEPT
        assert len(sigs) <= self.interval
        assert all(tick > max(snaps, default=0) for tick in sigs)

    def teardown(self):
        # Undo as much of ``start`` as ran.
        if hasattr(self, "session"):
            self.session.close()
        if hasattr(self, "interval_patch"):
            self.interval_patch.stop()
        if hasattr(self, "directory"):
            self.directory.cleanup()


ServiceSessionMachine.TestCase.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None, phases=_SHRINK_NO_EXPLAIN
)
TestServiceSessionMachine = ServiceSessionMachine.TestCase
