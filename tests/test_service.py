"""Unit tests for the live-service overload stack and tick core."""

from __future__ import annotations

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

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
from repro.sim.random import RandomStreams
from repro.workloads.diurnal import ArrivalProcess, DiurnalTrace


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

    def test_head_age_unmasks_starved_class(self):
        controller = QueueDelayController(target_s=0.05, window_ticks=2)
        # Fresh critical work dispatches instantly, but a batch request
        # has been stuck for 0.4 s — the tick must still read as delay.
        for _ in range(2):
            controller.observe([0.0001], head_age_s=0.4)
        assert controller.delay_signal_s >= 0.4


class TestBrownoutLadder:
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

    def test_unknown_op_rejected(self):
        core = ServiceCore(seed=1)
        with pytest.raises(ConfigurationError):
            core.apply_op({"op": "reboot-the-universe"})

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
