"""Unit tests for the silicon-health substrate.

Covers the latent part physics (:mod:`repro.health.part`), the sampled
machine-check stream, the changepoint detectors, the screening
scheduler's bisection bound, the duplicate-execution SDC auditor, the
guard's health envelope, the silicon-health fault injectors, and the
service-core audit wiring (which must be provably inert at defaults).
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, InjectionError
from repro.faults import (
    FaultCampaign,
    FaultKind,
    FaultPlan,
    FaultSpec,
    SiliconHealthInjector,
    register_health_injectors,
)
from repro.health import (
    DriftDetector,
    EwmaRateDetector,
    FleetHeterogeneity,
    MachineCheckEvent,
    MachineCheckStream,
    ScreeningScheduler,
    SdcAuditor,
    SiliconPart,
    result_signature,
    sample_fleet,
)
from repro.reliability.governor import OverclockGuard
from repro.reliability.stability import StabilityModel
from repro.service import ServiceConfig, ServiceCore
from repro.sim import Simulator
from repro.sim.random import RandomStreams, split_seed

#: A loud, steep model so unit tests see events in few windows.
MODEL = StabilityModel(
    stable_margin=1.23,
    crash_margin=1.35,
    base_error_rate_per_hour=0.5,
    ramp_width=0.02,
    background_error_rate_per_hour=0.0127,
)


class TestSiliconPart:
    def test_drift_starts_at_onset_and_accumulates(self):
        part = SiliconPart(
            "h0", nominal=MODEL, drift_rate_per_khour=0.1, drift_onset_hours=100.0
        )
        assert part.drift_at(0.0) == 0.0
        assert part.drift_at(100.0) == 0.0
        assert part.drift_at(600.0) == pytest.approx(0.05)
        part.inject_drift(0.02)
        assert part.drift_at(0.0) == pytest.approx(0.02)
        assert part.drift_at(600.0) == pytest.approx(0.07)

    def test_injected_drift_must_be_positive(self):
        part = SiliconPart("h0", nominal=MODEL)
        with pytest.raises(ConfigurationError):
            part.inject_drift(0.0)
        with pytest.raises(ConfigurationError):
            part.inject_drift(-0.01)

    def test_effective_margins_walk_down_with_drift(self):
        part = SiliconPart(
            "h0",
            nominal=MODEL,
            margin_offset=0.01,
            drift_rate_per_khour=0.1,
            drift_onset_hours=0.0,
        )
        assert part.effective_stable_margin(0.0) == pytest.approx(1.24)
        assert part.effective_crash_margin(0.0) == pytest.approx(1.36)
        assert part.effective_stable_margin(1000.0) == pytest.approx(1.14)
        assert part.shifted_ratio(1.23, 1000.0) == pytest.approx(1.32)

    def test_sdc_band_opens_past_onset_only(self):
        part = SiliconPart("h0", nominal=MODEL, sdc_onset=0.05, sdc_per_error=0.05)
        # Inside the stable margin and inside the pre-SDC ramp: silent
        # corruption rate is exactly zero even though CEs already flow.
        assert part.sdc_rate_per_hour(1.23, 0.0) == 0.0
        assert part.sdc_rate_per_hour(1.27, 0.0) == 0.0
        inside_band = part.sdc_rate_per_hour(1.30, 0.0)
        assert inside_band > 0.0
        ramp = part.correctable_error_rate_per_hour(1.30, 0.0) - (
            MODEL.background_error_rate_per_hour
        )
        assert inside_band == pytest.approx(ramp * 0.05)

    def test_crashes_beyond_effective_crash_margin(self):
        part = SiliconPart("h0", nominal=MODEL, margin_offset=-0.01)
        assert not part.crashes(1.33, 0.0)
        assert part.crashes(1.34, 0.0)
        part.inject_drift(0.10)
        assert part.crashes(1.24, 0.0)

    def test_background_floor_inside_margin(self):
        part = SiliconPart("h0", nominal=MODEL)
        assert part.correctable_error_rate_per_hour(1.0, 0.0) == pytest.approx(
            MODEL.background_error_rate_per_hour
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SiliconPart("h0", drift_rate_per_khour=-0.1)
        with pytest.raises(ConfigurationError):
            SiliconPart("h0", sdc_onset=0.0)
        with pytest.raises(ConfigurationError):
            SiliconPart("h0", sdc_per_error=-1.0)


class TestSampleFleet:
    HOSTS = tuple(f"p{i:02d}" for i in range(8))

    def test_same_seed_same_silicon(self):
        first = sample_fleet(7, self.HOSTS, nominal=MODEL)
        second = sample_fleet(7, self.HOSTS, nominal=MODEL)
        assert first == second

    def test_adding_hosts_never_perturbs_existing_silicon(self):
        small = sample_fleet(7, self.HOSTS[:4], nominal=MODEL)
        large = sample_fleet(7, self.HOSTS, nominal=MODEL)
        for host in self.HOSTS[:4]:
            assert small[host] == large[host]

    def test_offsets_spread_and_clip(self):
        het = FleetHeterogeneity(offset_sigma=0.008)
        parts = sample_fleet(3, self.HOSTS, heterogeneity=het, nominal=MODEL)
        offsets = [part.margin_offset for part in parts.values()]
        assert len(set(offsets)) > 1
        assert all(abs(offset) <= 3 * het.offset_sigma for offset in offsets)

    def test_drift_prone_fraction_edges(self):
        none = sample_fleet(
            3,
            self.HOSTS,
            heterogeneity=FleetHeterogeneity(drift_prone_fraction=0.0),
        )
        assert all(part.drift_rate_per_khour == 0.0 for part in none.values())
        everyone = sample_fleet(
            3,
            self.HOSTS,
            heterogeneity=FleetHeterogeneity(drift_prone_fraction=1.0),
        )
        assert all(part.drift_rate_per_khour > 0.0 for part in everyone.values())

    def test_heterogeneity_validation(self):
        with pytest.raises(ConfigurationError):
            FleetHeterogeneity(offset_sigma=-0.1)
        with pytest.raises(ConfigurationError):
            FleetHeterogeneity(drift_prone_fraction=1.5)
        with pytest.raises(ConfigurationError):
            FleetHeterogeneity(drift_rate_lo=0.2, drift_rate_hi=0.1)


def _hot_fleet():
    """Two hosts run deep in the ramp so every window sees CEs."""
    parts = {
        "a": SiliconPart("a", nominal=MODEL),
        "b": SiliconPart("b", nominal=MODEL),
    }
    return parts


class TestMachineCheckStream:
    def test_stream_is_deterministic_per_seed(self):
        events_a = MachineCheckStream(5, _hot_fleet()).sample_fleet_window(
            0.0, 8.0, {"a": 1.30, "b": 1.30}
        )
        events_b = MachineCheckStream(5, _hot_fleet()).sample_fleet_window(
            0.0, 8.0, {"a": 1.30, "b": 1.30}
        )
        assert events_a == events_b
        assert MachineCheckStream(6, _hot_fleet()).sample_fleet_window(
            0.0, 8.0, {"a": 1.30, "b": 1.30}
        ) != events_a

    def test_events_stamped_at_window_end(self):
        events = MachineCheckStream(5, _hot_fleet()).sample_window("a", 10.0, 8.0, 1.30)
        assert events
        assert all(event.time_hours == 18.0 for event in events)

    def test_injected_burst_lands_once_with_detail(self):
        stream = MachineCheckStream(5, _hot_fleet())
        stream.inject_burst("a", 24)
        first = stream.sample_window("a", 0.0, 1.0, 1.0)
        ce = [event for event in first if event.kind == "ce"]
        assert len(ce) == 1
        assert ce[0].count >= 24
        assert ce[0].detail == "burst=24"
        # The burst is consumed: the next window is back to background.
        again = stream.sample_window("a", 1.0, 1.0, 1.0)
        assert all(event.detail != "burst=24" for event in again)

    def test_bursts_accumulate_until_sampled(self):
        stream = MachineCheckStream(5, _hot_fleet())
        stream.inject_burst("a", 10)
        stream.inject_burst("a", 5)
        events = stream.sample_window("a", 0.0, 1.0, 1.0)
        ce = [event for event in events if event.kind == "ce"]
        assert ce[0].detail == "burst=15"

    def test_certain_crash_beyond_crash_margin(self):
        stream = MachineCheckStream(5, _hot_fleet())
        events = stream.sample_window("a", 0.0, 8.0, 1.40)
        crashes = [event for event in events if event.kind == "crash"]
        assert len(crashes) == 1
        assert crashes[0].detail == "beyond crash margin"

    def test_hosts_absent_from_ratios_are_skipped(self):
        stream = MachineCheckStream(5, _hot_fleet())
        events = stream.sample_fleet_window(0.0, 8.0, {"a": 1.30})
        assert {event.host_id for event in events} == {"a"}

    def test_cumulative_counter_tracks_ce_mass(self):
        stream = MachineCheckStream(5, _hot_fleet())
        total = 0
        for window in range(4):
            events = stream.sample_window("a", float(window), 1.0, 1.30)
            total += sum(event.count for event in events if event.kind == "ce")
        assert stream.cumulative_errors("a") == total
        assert stream.cumulative_errors("b") == 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MachineCheckStream(-1, _hot_fleet())
        with pytest.raises(ConfigurationError):
            MachineCheckStream(5, _hot_fleet(), errors_per_crash=0.0)
        stream = MachineCheckStream(5, _hot_fleet())
        with pytest.raises(ConfigurationError):
            stream.sample_window("a", 0.0, 0.0, 1.0)
        with pytest.raises(ConfigurationError):
            stream.inject_burst("zz", 3)
        with pytest.raises(ConfigurationError):
            stream.inject_burst("a", 0)


def _reference_window(part, streams, bursts, cumulative, host_id, time_hours,
                      window_hours, ratio, errors_per_crash):
    """One window sampled from the part's public rate methods, one call each."""
    events = []
    end = time_hours + window_hours
    ce_rate = part.correctable_error_rate_per_hour(ratio, time_hours)
    ce_gen = streams.get(f"ce:{host_id}")
    ce_count = int(ce_gen.poisson(ce_rate * window_hours)) if ce_rate > 0 else 0
    burst = bursts.pop(host_id, 0)
    ce_count += burst
    if ce_count > 0:
        cumulative[host_id] += ce_count
        detail = f"burst={burst}" if burst else ""
        events.append(MachineCheckEvent(end, host_id, "ce", count=ce_count, detail=detail))
    sdc_rate = part.sdc_rate_per_hour(ratio, time_hours)
    sdc_gen = streams.get(f"sdc:{host_id}")
    sdc_count = int(sdc_gen.poisson(sdc_rate * window_hours)) if sdc_rate > 0 else 0
    if sdc_count > 0:
        events.append(MachineCheckEvent(end, host_id, "sdc", count=sdc_count))
    crash_gen = streams.get(f"crash:{host_id}")
    if part.crashes(ratio, time_hours):
        events.append(MachineCheckEvent(end, host_id, "crash", detail="beyond crash margin"))
    else:
        crash_rate = part.crash_rate_per_hour(ratio, time_hours, errors_per_crash)
        if crash_rate > 0:
            p_crash = -math.expm1(-crash_rate * window_hours)
            if float(crash_gen.uniform(0.0, 1.0)) < p_crash:
                events.append(MachineCheckEvent(end, host_id, "crash"))
    return events


_PART = st.fixed_dictionaries(
    {
        "margin_offset": st.floats(-0.04, 0.04),
        "drift_rate_per_khour": st.floats(0.0, 0.3),
        "drift_onset_hours": st.floats(0.0, 40.0),
        "injected_drift": st.sampled_from([0.0, 0.01, 0.05]),
        "sdc_onset": st.floats(0.005, 0.06),
        "sdc_per_error": st.floats(0.0, 0.2),
    }
)

#: Ratios whose shifted value lands at or below zero, inside the SDC
#: band (and the ramp around it), and at or past the crash margin.
_RATIO = st.one_of(
    st.floats(-0.3, 0.05),
    st.floats(1.2, 1.34),
    st.floats(1.34, 1.6),
)

_STEP = st.one_of(
    st.tuples(st.just("burst"), st.sampled_from("ab"), st.integers(1, 40)),
    st.tuples(st.just("window"), st.sampled_from("ab"), st.floats(0.05, 12.0), _RATIO),
)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    parts=st.tuples(_PART, _PART),
    background=st.sampled_from([0.0, 0.0127]),
    errors_per_crash=st.sampled_from([5.0, 500.0]),
    steps=st.lists(_STEP, min_size=1, max_size=25),
)
def test_sample_window_matches_the_public_rate_methods(
    seed, parts, background, errors_per_crash, steps
):
    """Events, MCA counters and every stream's next draw equal the
    reference built from ``SiliconPart``'s rate methods."""
    model = StabilityModel(
        stable_margin=MODEL.stable_margin,
        crash_margin=MODEL.crash_margin,
        base_error_rate_per_hour=MODEL.base_error_rate_per_hour,
        ramp_width=MODEL.ramp_width,
        background_error_rate_per_hour=background,
    )
    fleet = {
        host: SiliconPart(host, nominal=model, **spec)
        for host, spec in zip("ab", parts)
    }
    stream = MachineCheckStream(seed, fleet, errors_per_crash=errors_per_crash)
    streams = RandomStreams(split_seed(seed, "mce-stream"))
    bursts: dict[str, int] = {}
    cumulative = {host: 0 for host in fleet}
    clock = {host: 0.0 for host in fleet}
    for step in steps:
        if step[0] == "burst":
            _, host, count = step
            stream.inject_burst(host, count)
            bursts[host] = bursts.get(host, 0) + count
            continue
        _, host, window, ratio = step
        expected = _reference_window(
            fleet[host], streams, bursts, cumulative, host, clock[host], window,
            ratio, errors_per_crash,
        )
        assert stream.sample_window(host, clock[host], window, ratio) == expected
        clock[host] += window
    for host in fleet:
        assert stream.cumulative_errors(host) == cumulative[host]
        for kind in ("ce", "sdc", "crash"):
            name = f"{kind}:{host}"
            assert stream._streams.get(name).random() == streams.get(name).random()


class TestDetectors:
    def test_cusum_accumulates_only_excess(self):
        detector = DriftDetector(
            reference_rate_per_hour=0.0, slack_per_hour=0.25, threshold_errors=4.0
        )
        assert not detector.observe(1.0, 0.0)
        assert detector.statistic == 0.0  # never goes negative
        assert not detector.observe(1.0, 2.0)
        assert detector.statistic == pytest.approx(1.75)
        assert detector.observe(1.0, 3.0)  # 1.75 + 2.75 = 4.5 > 4
        assert detector.fired == 1
        assert detector.observe(1.0, 0.0)  # decays by slack, still over
        detector.reset()
        assert detector.statistic == 0.0

    def test_cusum_quiet_stretch_banks_no_credit(self):
        detector = DriftDetector(slack_per_hour=1.0, threshold_errors=4.0)
        for _ in range(100):
            detector.observe(1.0, 0.0)
        # A century of silence, then a spike: fires exactly as if fresh.
        assert not detector.observe(1.0, 4.9)
        assert detector.observe(1.0, 2.2)

    def test_ewma_smooths_toward_the_rate(self):
        detector = EwmaRateDetector(trip_rate_per_hour=1.0, half_life_hours=1.0)
        assert detector.observe(1.0, 4.0)  # alpha = 0.5 -> 2.0 > 1.0
        assert detector.statistic == pytest.approx(2.0)
        assert not detector.observe(1.0, 0.0)  # decays to 1.0, not over
        detector.reset()
        assert detector.statistic == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DriftDetector(reference_rate_per_hour=-1.0)
        with pytest.raises(ConfigurationError):
            DriftDetector(threshold_errors=0.0)
        with pytest.raises(ConfigurationError):
            DriftDetector().observe(0.0, 1.0)
        with pytest.raises(ConfigurationError):
            DriftDetector().observe(1.0, -1.0)
        with pytest.raises(ConfigurationError):
            EwmaRateDetector(trip_rate_per_hour=0.0)
        with pytest.raises(ConfigurationError):
            EwmaRateDetector(half_life_hours=0.0)


class TestScreening:
    def test_bisection_pins_the_margin_within_the_overshoot_bound(self):
        part = SiliconPart("a", nominal=MODEL, margin_offset=-0.02)
        scheduler = ScreeningScheduler({"a": part})
        scheduler.enqueue("a", 0.0)
        scheduler.poll(0.0)
        reports = scheduler.poll(scheduler.duration_hours)
        assert len(reports) == 1
        report = reports[0]
        true_margin = part.effective_stable_margin(report.completed_hours)
        assert report.estimated_stable_margin >= true_margin - scheduler.resolution
        assert report.estimated_stable_margin <= true_margin + scheduler.max_overshoot(part)
        assert report.envelope_ratio == pytest.approx(
            max(1.0, report.estimated_stable_margin - scheduler.guard_band)
        )
        assert report.probes >= 1

    def test_guard_band_dominates_the_overshoot(self):
        part = SiliconPart("a", nominal=MODEL)
        scheduler = ScreeningScheduler({"a": part})
        assert scheduler.guard_band > scheduler.max_overshoot(part)

    def test_dead_part_has_no_headroom(self):
        part = SiliconPart("a", nominal=MODEL)
        part.inject_drift(0.5)  # crashes even at stock
        scheduler = ScreeningScheduler({"a": part})
        scheduler.enqueue("a", 0.0)
        scheduler.poll(0.0)
        report = scheduler.poll(scheduler.duration_hours)[0]
        assert report.estimated_stable_margin == scheduler.lo_ratio
        assert report.envelope_ratio == 1.0
        assert report.probes == 0

    def test_fifo_with_bounded_rigs(self):
        parts = _hot_fleet()
        scheduler = ScreeningScheduler(parts, max_concurrent=1)
        scheduler.enqueue("a", 0.0)
        scheduler.enqueue("b", 0.0)
        scheduler.enqueue("a", 0.0)  # idempotent re-enqueue
        assert scheduler.poll(0.0) == []  # starts a only
        assert scheduler.pending("a") and scheduler.pending("b")
        first = scheduler.poll(4.0)  # a completes, b starts
        assert [report.host_id for report in first] == ["a"]
        assert not scheduler.pending("a")
        second = scheduler.poll(8.0)
        assert [report.host_id for report in second] == ["b"]
        assert second[0].started_hours == 4.0
        assert scheduler.screens_completed == 2

    def test_validation(self):
        parts = _hot_fleet()
        with pytest.raises(ConfigurationError):
            ScreeningScheduler(parts, duration_hours=0.0)
        with pytest.raises(ConfigurationError):
            ScreeningScheduler(parts, max_concurrent=0)
        with pytest.raises(ConfigurationError):
            ScreeningScheduler(parts, lo_ratio=1.5, hi_ratio=1.5)
        with pytest.raises(ConfigurationError):
            ScreeningScheduler(parts).enqueue("zz", 0.0)


class TestSdcAuditor:
    def test_sampling_is_order_independent(self):
        ids = [f"r{i}" for i in range(200)]
        auditor = SdcAuditor(9, 0.3)
        forward = [rid for rid in ids if auditor.should_audit(rid)]
        backward = [rid for rid in reversed(ids) if auditor.should_audit(rid)]
        assert forward == list(reversed(backward))
        assert 0 < len(forward) < len(ids)

    def test_fraction_edges(self):
        never = SdcAuditor(9, 0.0)
        always = SdcAuditor(9, 1.0)
        for rid in ("r1", "r2", "r3"):
            assert not never.should_audit(rid)
            assert always.should_audit(rid)

    def test_corrupts_is_a_pure_function_of_inputs(self):
        auditor = SdcAuditor(9, 1.0)
        draws = [auditor.corrupts("h0", f"r{i}", 0.5) for i in range(100)]
        assert draws == [auditor.corrupts("h0", f"r{i}", 0.5) for i in range(100)]
        assert any(draws) and not all(draws)
        assert not auditor.corrupts("h0", "r1", 0.0)

    def test_clean_pair_matches(self):
        auditor = SdcAuditor(9, 1.0)
        assert auditor.audit("r1", "h0", "h1", False, False) is None
        assert auditor.audits == 1
        assert auditor.mismatches == 0
        assert auditor.records["h0"].audits == 1
        assert auditor.records["h1"].audits == 1

    def test_corrupted_side_is_charged(self):
        auditor = SdcAuditor(9, 1.0)
        assert auditor.audit("r1", "h0", "h1", True, False) == "h0"
        assert auditor.audit("r2", "h0", "h1", False, True) == "h1"
        assert auditor.mismatches == 2
        assert auditor.records["h0"].mismatches == 1
        assert auditor.records["h1"].mismatches == 1

    def test_both_corrupted_charges_both_returns_primary(self):
        charged: list[str] = []
        auditor = SdcAuditor(9, 1.0, on_mismatch=charged.append)
        assert auditor.audit("r1", "h0", "h1", True, True) == "h0"
        assert sorted(charged) == ["h0", "h1"]

    def test_duplicate_execution_needs_a_distinct_host(self):
        with pytest.raises(ConfigurationError):
            SdcAuditor(9, 1.0).audit("r1", "h0", "h0", False, False)

    def test_result_signatures(self):
        assert result_signature("r1", "h0", False) == result_signature("r1", "h9", False)
        assert result_signature("r1", "h0", True) != result_signature("r1", "h1", True)
        assert result_signature("r1", "h0", True) != result_signature("r1", "h0", False)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SdcAuditor(-1, 0.5)
        with pytest.raises(ConfigurationError):
            SdcAuditor(9, 1.5)


class TestGuardHealthEnvelope:
    def test_health_limit_caps_the_grant(self):
        guard = OverclockGuard(stability=StabilityModel())
        assert guard.decide(1.23).granted_ratio == pytest.approx(1.23)
        guard.set_health_limit(1.10)
        decision = guard.decide(1.23)
        assert decision.granted_ratio == pytest.approx(1.10)
        assert decision.limited_by == "health"
        assert guard.health_limit_ratio == pytest.approx(1.10)

    def test_tighter_of_stability_and_health_wins(self):
        guard = OverclockGuard(stability=StabilityModel())
        guard.set_health_limit(1.30)  # looser than the stable margin
        assert guard.decide(1.33).limited_by == "stability"

    def test_clear_restores_the_nominal_envelope(self):
        guard = OverclockGuard(stability=StabilityModel())
        guard.set_health_limit(1.0)
        assert guard.decide(1.23).granted_ratio == pytest.approx(1.0)
        guard.clear_health_limit()
        assert guard.decide(1.23).granted_ratio == pytest.approx(1.23)
        assert guard.health_limit_ratio is None

    def test_limit_below_stock_is_rejected(self):
        guard = OverclockGuard(stability=StabilityModel())
        with pytest.raises(ConfigurationError):
            guard.set_health_limit(0.9)


class TestHealthInjectors:
    def _spec(self, kind, target, magnitude=0.0):
        return FaultSpec(kind=kind, target=target, at_s=10.0, magnitude=magnitude)

    def test_all_three_kinds_fire_through_their_callbacks(self):
        simulator = Simulator(seed=1)
        plan = FaultPlan(
            seed=1,
            scenario="unit",
            specs=(
                self._spec(FaultKind.SILICON_MARGIN_DRIFT, "a", 0.03),
                self._spec(FaultKind.MCE_BURST, "b", 24.0),
                self._spec(FaultKind.SDC, "a"),
            ),
        )
        campaign = FaultCampaign(simulator, plan)
        fired: list[tuple] = []
        register_health_injectors(
            campaign,
            on_drift=lambda host, magnitude: fired.append(("drift", host, magnitude)),
            on_burst=lambda host, count: fired.append(("burst", host, count)),
            on_sdc=lambda host: fired.append(("sdc", host)),
        )
        campaign.arm()
        simulator.run(until=20.0)
        assert ("drift", "a", 0.03) in fired
        assert ("burst", "b", 24) in fired
        assert ("sdc", "a") in fired
        kinds = {event.kind for event in campaign.timeline.events}
        assert {"silicon-margin-drift", "mce-burst", "sdc"} <= kinds

    def test_injector_validation(self):
        with pytest.raises(InjectionError):
            SiliconHealthInjector(FaultKind.HOST_FAILURE)
        simulator = Simulator(seed=1)
        bad_drift = FaultPlan(
            seed=1,
            scenario="unit",
            specs=(self._spec(FaultKind.SILICON_MARGIN_DRIFT, "a", 0.0),),
        )
        campaign = FaultCampaign(simulator, bad_drift)
        campaign.register(
            SiliconHealthInjector(
                FaultKind.SILICON_MARGIN_DRIFT,
                on_drift=lambda host, magnitude: None,
            )
        )
        with pytest.raises(InjectionError):
            campaign.arm()
        # A spec whose kind has no callback wired is rejected at arm time.
        no_callback = FaultPlan(
            seed=1,
            scenario="unit",
            specs=(self._spec(FaultKind.MCE_BURST, "a", 5.0),),
        )
        campaign = FaultCampaign(Simulator(seed=1), no_callback)
        campaign.register(SiliconHealthInjector(FaultKind.MCE_BURST))
        with pytest.raises(InjectionError):
            campaign.arm()


class TestServiceAudit:
    def test_audit_is_inert_at_defaults(self):
        core = ServiceCore(seed=11)
        for _ in range(20):
            core.tick()
        assert core.health.audits == 0
        assert core.health.sdc_escapes == 0
        snapshot = core.snapshot()
        assert set(snapshot["health"]) >= {"audits", "sdc_caught", "sdc_escapes"}
        assert all(value == 0 for value in snapshot["health"].values())

    def test_sampling_alone_never_changes_the_tick_signature(self):
        # Auditing draws from its own split-seed stream and books into
        # HealthCounters, so turning sampling on (with no corrupting
        # host) must leave the chained tick signature bit-identical.
        plain = ServiceCore(seed=11)
        audited = ServiceCore(
            seed=11, config=ServiceConfig(sdc_audit_fraction=0.5)
        )
        for _ in range(20):
            plain.tick()
            audited.tick()
        assert plain.signature == audited.signature
        assert audited.health.audits > 0
        assert audited.health.audit_mismatches == 0

    def test_robust_audit_catches_what_naive_leaks(self):
        config = ServiceConfig(
            sdc_audit_fraction=0.5,
            sdc_faulty_hosts=("h0", "h1"),
            sdc_corruption_per_request=0.4,
        )
        robust = ServiceCore(seed=3, mode="robust", config=config)
        naive = ServiceCore(
            seed=3,
            mode="naive",
            config=ServiceConfig(
                sdc_faulty_hosts=("h0", "h1"), sdc_corruption_per_request=0.4
            ),
        )
        for _ in range(30):
            robust.tick()
            naive.tick()
        assert robust.health.sdc_caught > 0
        assert robust.health.audit_mismatches == robust.health.sdc_caught
        assert naive.health.audits == 0
        assert naive.health.sdc_caught == 0
        assert naive.health.sdc_escapes > 0

    def test_audit_needs_a_second_host(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(hosts=1, sdc_audit_fraction=0.5)
        with pytest.raises(ConfigurationError):
            ServiceConfig(sdc_audit_fraction=1.5)
        with pytest.raises(ConfigurationError):
            ServiceConfig(sdc_corruption_per_request=-0.1)
