"""Fault-injection subsystem: plans, campaigns, injectors, recovery.

The determinism contract under test: a :class:`FaultPlan` plus a seed
fully determines the injected fault timeline — its SHA-256 signature is
bit-identical across runs, and changing the seed re-rolls every sampled
fault time. ``REPRO_CHAOS_SEEDS`` (space-separated ints) widens the
seed matrix for ``make test-chaos``.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster.host import Host
from repro.cluster.lifecycle import VMLifecycleManager
from repro.cluster.vm import VMInstance, VMSpec, VMState
from repro.control.channel import LossyChannel
from repro.errors import (
    ConfigurationError,
    FaultError,
    HostFailure,
    InjectionError,
)
from repro.experiments.failure_recovery import run_failure_recovery
from repro.faults import (
    FaultCampaign,
    FaultKind,
    FaultPlan,
    FaultSpec,
    FaultTimeline,
    HostFailureInjector,
    PowerTripInjector,
    ThermalExcursionInjector,
    VMCrashInjector,
    register_channel_injectors,
)
from repro.faults.scenarios import SCENARIOS, list_fault_catalog, run_scenarios
from repro.power.tree import DeliveryLevel, DeliveryNode
from repro.sim.kernel import Simulator
from repro.thermal.junction import JunctionModel

SEEDS = [int(token) for token in os.environ.get("REPRO_CHAOS_SEEDS", "1 2").split()]

#: Shrunk failure-recovery experiment parameters, small enough for CI.
SHRUNK = dict(qps=900.0, initial_vms=3, failure_at_s=40.0, horizon_s=150.0, warmup_s=10.0)


class TestFaultPlan:
    def test_negative_time_rejected(self):
        with pytest.raises(FaultError):
            FaultSpec(kind=FaultKind.VM_CRASH, at_s=-1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(FaultError):
            FaultSpec(kind=FaultKind.POWER_TRIP, duration_s=-5.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(FaultError):
            FaultSpec(kind=FaultKind.VM_CRASH, rate_per_hour=-0.1)

    def test_specs_list_becomes_tuple(self):
        plan = FaultPlan(seed=1, specs=[FaultSpec(kind=FaultKind.VM_CRASH, at_s=1.0)])
        assert isinstance(plan.specs, tuple)

    def test_stream_seed_is_deterministic_and_per_spec(self):
        specs = (
            FaultSpec(kind=FaultKind.VM_CRASH, target="a"),
            FaultSpec(kind=FaultKind.VM_CRASH, target="b"),
        )
        plan = FaultPlan(seed=9, scenario="s", specs=specs)
        again = FaultPlan(seed=9, scenario="s", specs=specs)
        assert plan.stream_seed(0) == again.stream_seed(0)
        assert plan.stream_seed(0) != plan.stream_seed(1)
        assert plan.with_seed(10).stream_seed(0) != plan.stream_seed(0)

    def test_describe_mentions_every_spec(self):
        plan = FaultPlan(
            seed=1,
            scenario="x",
            specs=(
                FaultSpec(kind=FaultKind.HOST_FAILURE, target="h0", at_s=3.0),
                FaultSpec(kind=FaultKind.VM_CRASH, rate_per_hour=2.0),
            ),
        )
        text = plan.describe()
        assert "host-failure" in text and "vm-crash" in text and "sampled" in text


class TestTimeline:
    def test_signature_covers_order_and_content(self):
        a = FaultTimeline()
        a.record(1.0, "vm-crash", "x")
        a.record(2.0, "recovered", "x")
        b = FaultTimeline()
        b.record(1.0, "vm-crash", "x")
        b.record(2.0, "recovered", "x")
        assert a.signature() == b.signature()
        c = FaultTimeline()
        c.record(2.0, "recovered", "x")
        c.record(1.0, "vm-crash", "x")
        assert a.signature() != c.signature()

    def test_of_kind_filters(self):
        timeline = FaultTimeline()
        timeline.record(1.0, "vm-crash", "x")
        timeline.record(2.0, "tj-alarm", "y")
        assert len(timeline.of_kind("vm-crash")) == 1
        assert len(timeline) == 2


class TestCampaign:
    def _plan(self, **spec_kwargs):
        return FaultPlan(
            seed=3, specs=(FaultSpec(kind=FaultKind.HOST_FAILURE, **spec_kwargs),)
        )

    def test_duplicate_injector_rejected(self):
        campaign = FaultCampaign(Simulator(), self._plan(at_s=1.0))
        campaign.register(HostFailureInjector(on_failure=lambda t: None))
        with pytest.raises(FaultError):
            campaign.register(HostFailureInjector(on_failure=lambda t: None))

    def test_missing_injector_detected_at_arm(self):
        campaign = FaultCampaign(Simulator(), self._plan(at_s=1.0))
        with pytest.raises(InjectionError):
            campaign.arm()

    def test_double_arm_rejected(self):
        campaign = FaultCampaign(Simulator(), self._plan(at_s=1.0))
        campaign.register(HostFailureInjector(on_failure=lambda t: None))
        campaign.arm()
        with pytest.raises(FaultError):
            campaign.arm()

    def test_pinned_time_in_the_past_rejected(self):
        simulator = Simulator()
        simulator.after(10.0, lambda: None)
        simulator.run()
        campaign = FaultCampaign(simulator, self._plan(at_s=5.0))
        campaign.register(HostFailureInjector(on_failure=lambda t: None))
        with pytest.raises(InjectionError):
            campaign.arm()

    def test_sampled_time_without_rate_rejected(self):
        plan = FaultPlan(seed=1, specs=(FaultSpec(kind=FaultKind.HOST_FAILURE),))
        campaign = FaultCampaign(Simulator(), plan)
        campaign.register(HostFailureInjector(on_failure=lambda t: None))
        with pytest.raises(InjectionError):
            campaign.arm()

    def test_zero_rate_suppresses_and_infinite_rate_fires_now(self):
        fired: list[str] = []
        plan = FaultPlan(
            seed=1,
            specs=(
                FaultSpec(kind=FaultKind.HOST_FAILURE, target="never", rate_per_hour=0.0),
                FaultSpec(
                    kind=FaultKind.HOST_FAILURE,
                    target="now",
                    rate_per_hour=float("inf"),
                ),
            ),
        )
        simulator = Simulator()
        campaign = FaultCampaign(simulator, plan)
        campaign.register(HostFailureInjector(on_failure=fired.append))
        campaign.arm()
        simulator.run(until=100.0)
        assert fired == ["now"]
        (event,) = campaign.timeline.events
        assert event.time_s == 0.0

    def test_sampled_times_reproduce_per_seed(self):
        def build(seed: int) -> str:
            plan = FaultPlan(
                seed=seed,
                scenario="t",
                specs=(
                    FaultSpec(
                        kind=FaultKind.HOST_FAILURE, target="h", rate_per_hour=1.0
                    ),
                ),
            )
            simulator = Simulator()
            campaign = FaultCampaign(simulator, plan)
            campaign.register(HostFailureInjector(on_failure=lambda t: None))
            campaign.arm()
            simulator.run(until=1e9)
            return campaign.timeline.signature()

        for seed in SEEDS:
            assert build(seed) == build(seed)
        assert build(SEEDS[0]) != build(SEEDS[0] + 1000)


class TestInjectors:
    def test_vm_crash_takes_down_lifecycle_vm(self):
        simulator = Simulator()
        lifecycle = VMLifecycleManager(simulator)
        vm = lifecycle.request_vm(VMSpec(vcores=2, memory_gb=8.0), latency_override_s=0.0)
        plan = FaultPlan(
            seed=1,
            specs=(FaultSpec(kind=FaultKind.VM_CRASH, target=vm.vm_id, at_s=30.0),),
        )
        campaign = FaultCampaign(simulator, plan)
        campaign.register(VMCrashInjector(on_crash=lifecycle.fail_vm))
        campaign.arm()
        simulator.run(until=60.0)
        assert vm.state is VMState.FAILED
        assert vm.failed_at == 30.0

    def test_thermal_excursion_records_alarm_and_recovery(self):
        junction = JunctionModel(
            reference_temp_c=34.0, thermal_resistance_c_per_w=0.08, tj_max_c=110.0
        )
        plan = FaultPlan(
            seed=1,
            specs=(
                FaultSpec(
                    kind=FaultKind.THERMAL_EXCURSION,
                    target="cpu",
                    at_s=10.0,
                    magnitude=30.0,
                    duration_s=20.0,
                ),
            ),
        )
        simulator = Simulator()
        campaign = FaultCampaign(simulator, plan)
        campaign.register(
            ThermalExcursionInjector(
                junctions={"cpu": junction}, load_watts=lambda target: 600.0
            )
        )
        campaign.arm()
        simulator.run(until=60.0)
        kinds = [event.kind for event in campaign.timeline]
        assert kinds == ["thermal-excursion", "tj-alarm", "recovered"]

    def test_thermal_excursion_below_tjmax_raises_no_alarm(self):
        junction = JunctionModel(
            reference_temp_c=34.0, thermal_resistance_c_per_w=0.08, tj_max_c=110.0
        )
        plan = FaultPlan(
            seed=1,
            specs=(
                FaultSpec(
                    kind=FaultKind.THERMAL_EXCURSION,
                    target="cpu",
                    at_s=10.0,
                    magnitude=10.0,
                ),
            ),
        )
        simulator = Simulator()
        campaign = FaultCampaign(simulator, plan)
        campaign.register(
            ThermalExcursionInjector(
                junctions={"cpu": junction}, load_watts=lambda target: 600.0
            )
        )
        campaign.arm()
        simulator.run(until=60.0)
        assert not campaign.timeline.of_kind("tj-alarm")

    def test_power_trip_derates_then_restores(self):
        host = Host("h0")
        host.place(VMInstance(vm_id="vm", spec=VMSpec(vcores=8, memory_gb=32.0)))
        node = DeliveryNode("rack", DeliveryLevel.RACK_PDU, 1000.0)
        plan = FaultPlan(
            seed=1,
            specs=(
                FaultSpec(
                    kind=FaultKind.POWER_TRIP,
                    target="rack",
                    at_s=5.0,
                    magnitude=0.4,
                    duration_s=10.0,
                ),
            ),
        )
        simulator = Simulator()
        campaign = FaultCampaign(simulator, plan)
        campaign.register(
            PowerTripInjector(nodes={"rack": node}, draw_watts=lambda target: host.power_watts())
        )
        campaign.arm()
        simulator.run(until=30.0)
        assert node.rated_watts == pytest.approx(1000.0)
        kinds = [event.kind for event in campaign.timeline]
        assert kinds[0] == "power-trip" and kinds[-1] == "recovered"

    def test_power_trip_magnitude_validated(self):
        plan = FaultPlan(
            seed=1,
            specs=(
                FaultSpec(kind=FaultKind.POWER_TRIP, target="rack", at_s=1.0),
            ),
        )
        campaign = FaultCampaign(Simulator(), plan)
        campaign.register(
            PowerTripInjector(
                nodes={"rack": DeliveryNode("rack", DeliveryLevel.RACK_PDU, 100.0)},
                draw_watts=lambda target: 0.0,
            )
        )
        with pytest.raises(InjectionError):
            campaign.arm()

    def test_unknown_target_rejected_at_arm(self):
        plan = FaultPlan(
            seed=1,
            specs=(
                FaultSpec(
                    kind=FaultKind.THERMAL_EXCURSION,
                    target="nope",
                    at_s=1.0,
                    magnitude=5.0,
                ),
            ),
        )
        campaign = FaultCampaign(Simulator(), plan)
        campaign.register(
            ThermalExcursionInjector(junctions={}, load_watts=lambda target: 0.0)
        )
        with pytest.raises(InjectionError):
            campaign.arm()

    @pytest.mark.parametrize("magnitude", [math.nan, math.inf, 0.0, -1.0])
    def test_cmd_delay_needs_a_finite_positive_magnitude(self, magnitude):
        simulator = Simulator()
        spec = FaultSpec(kind=FaultKind.CMD_DELAY, target="h0", at_s=1.0, magnitude=magnitude)
        campaign = FaultCampaign(simulator, FaultPlan(seed=1, specs=(spec,)))
        register_channel_injectors(campaign, {"h0": LossyChannel(simulator)})
        with pytest.raises(InjectionError, match="cmd-delay magnitude"):
            campaign.arm()


class TestClusterFailurePaths:
    def test_host_fail_marks_vms_and_blocks_placement(self):
        host = Host("h0")
        vm = VMInstance(vm_id="vm", spec=VMSpec(vcores=2, memory_gb=8.0))
        host.place(vm)
        lost = host.fail(time=12.0)
        assert lost == (vm,)
        assert vm.state is VMState.FAILED and vm.failed_at == 12.0
        assert host.power_watts(0.5) == 0.0
        assert host.peak_power_watts() == 0.0
        with pytest.raises(HostFailure):
            host.place(VMInstance(vm_id="vm2", spec=VMSpec(vcores=1, memory_gb=4.0)))
        with pytest.raises(ConfigurationError):
            host.fail()
        host.restore()
        assert not host.failed

    def test_crash_restart_redeploys_with_latency(self):
        simulator = Simulator()
        lifecycle = VMLifecycleManager(simulator)
        vm = lifecycle.request_vm(VMSpec(vcores=2, memory_gb=8.0), latency_override_s=0.0)
        simulator.run()
        assert vm.state is VMState.RUNNING
        failed, replacement = lifecycle.crash_restart(vm.vm_id)
        assert failed.state is VMState.FAILED
        assert replacement.state is VMState.CREATING
        simulator.run()
        assert replacement.state is VMState.RUNNING
        assert replacement.running_since == pytest.approx(
            lifecycle.creation_latency_s
        )

    def test_fail_vm_unknown_id_rejected(self):
        lifecycle = VMLifecycleManager(Simulator())
        with pytest.raises(ConfigurationError):
            lifecycle.fail_vm("ghost")


class TestScenarios:
    def test_registry_names(self):
        assert set(SCENARIOS) == {
            "host-failure",
            "crash-storm",
            "thermal-excursion",
            "power-trip",
            "degraded-telemetry",
            "partition",
            "heatwave",
            "oversubscribe",
            "silicon-drift",
            "envelope-rollout",
        }

    def test_unknown_scenario_exits_2(self, capsys):
        assert run_scenarios(["bogus"], seed=1) == 2

    def test_fault_catalog_is_sorted(self):
        text = list_fault_catalog()
        kinds_block, scenarios_block = text.split("\n\nFault scenarios:\n")
        kinds = [line.strip() for line in kinds_block.splitlines()[1:]]
        names = [line.split()[0] for line in scenarios_block.splitlines()]
        assert kinds == sorted(kinds)
        assert names == sorted(names)
        assert len(names) == len(SCENARIOS)

    def test_fault_catalog_is_hash_seed_independent(self):
        """``faults --list`` must not depend on dict/hash ordering.

        The CLI contract is a diffable listing; running the command
        under different ``PYTHONHASHSEED`` values is the regression
        net for anyone reintroducing set/dict iteration into it.
        """
        repo_root = Path(__file__).resolve().parent.parent
        outputs = []
        for hash_seed in ("0", "42"):
            env = dict(os.environ)
            env["PYTHONPATH"] = str(repo_root / "src")
            env["PYTHONHASHSEED"] = hash_seed
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "faults", "--list"],
                env=env,
                cwd=repo_root,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        assert outputs[0].strip() == list_fault_catalog().strip()

    @pytest.mark.parametrize("name", ["crash-storm", "thermal-excursion", "power-trip"])
    def test_fast_scenarios_are_deterministic(self, name):
        build = SCENARIOS[name].build
        for seed in SEEDS:
            assert build(seed) == build(seed)


class TestFailureRecoveryExperiment:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_oc_recovery_beats_baseline_and_reproduces(self, seed):
        first = run_failure_recovery(seed=seed, **SHRUNK)
        second = run_failure_recovery(seed=seed, **SHRUNK)
        # Strictly lower tail latency with overclocked survivors.
        assert first.oc.p95_latency_s < first.baseline.p95_latency_s
        # Both configs saw the same injected failure...
        assert first.baseline.timeline_signature == first.oc.timeline_signature
        assert first.baseline.vm_failures == first.oc.vm_failures == 1
        # ...and the whole comparison reproduces bit-for-bit from the seed.
        assert first == second

    def test_recovery_boost_only_in_oc_mode(self):
        comparison = run_failure_recovery(seed=SEEDS[0], **SHRUNK)
        assert comparison.baseline.recovery_boosts == 0
        assert comparison.oc.recovery_boosts >= 1
        assert comparison.oc.peak_frequency_ghz > comparison.baseline.peak_frequency_ghz
