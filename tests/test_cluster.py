"""Tests for the cluster substrate: VMs, hosts, placement, capping, fleet."""

import math

import pytest

from repro.cluster import (
    CapacityGapPlan,
    Fleet,
    Host,
    PlacementEngine,
    PlacementPolicy,
    PowerCapGovernor,
    VMInstance,
    VMSpec,
    VMState,
    bridge_capacity_gap,
    packing_density_gain,
)
from repro.errors import (
    CapacityError,
    ConfigurationError,
    FrequencyError,
    PlacementError,
    PowerBudgetExceeded,
)
from repro.silicon import OC1, OCP_BLADE_8168
from repro.thermal import DIRECT_EVAPORATIVE, TWO_PHASE_IMMERSION


def make_host(host_id="h0", ratio=1.0, cooling=TWO_PHASE_IMMERSION):
    return Host(host_id, cooling=cooling, oversubscription_ratio=ratio)


class TestVM:
    def test_lifecycle_transitions(self):
        vm = VMInstance("vm-1", VMSpec(4, 8.0), created_at=10.0)
        assert vm.state is VMState.CREATING
        assert vm.is_active
        vm.mark_running(70.0)
        assert vm.state is VMState.RUNNING
        vm.mark_deleted(100.0)
        assert not vm.is_active
        assert vm.running_seconds(200.0) == pytest.approx(30.0)

    def test_running_seconds_ongoing(self):
        vm = VMInstance("vm-1", VMSpec(4, 8.0))
        vm.mark_running(50.0)
        assert vm.running_seconds(80.0) == pytest.approx(30.0)

    def test_invalid_transitions(self):
        vm = VMInstance("vm-1", VMSpec(4, 8.0))
        vm.mark_running(0.0)
        with pytest.raises(ConfigurationError):
            vm.mark_running(1.0)
        vm.mark_deleted(2.0)
        with pytest.raises(ConfigurationError):
            vm.mark_deleted(3.0)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            VMSpec(0, 8.0)
        with pytest.raises(ConfigurationError):
            VMSpec(4, 0.0)


class TestHost:
    def test_capacity_accounting(self):
        host = make_host()
        assert host.vcore_capacity == 28
        host.place(VMInstance("a", VMSpec(4, 8.0)))
        assert host.committed_vcores == 4
        assert host.free_vcores == 24
        host.evict("a")
        assert host.committed_vcores == 0

    def test_oversubscription_expands_capacity(self):
        host = make_host(ratio=1.2)
        assert host.vcore_capacity == int(28 * 1.2)

    def test_memory_dimension_enforced(self):
        host = make_host()
        host.place(VMInstance("big", VMSpec(4, 120.0)))
        assert not host.fits(VMSpec(4, 16.0))
        with pytest.raises(CapacityError):
            host.place(VMInstance("more", VMSpec(4, 16.0)))

    def test_overclock_requires_liquid_cooling(self):
        air_host = make_host(cooling=DIRECT_EVAPORATIVE)
        with pytest.raises(FrequencyError):
            air_host.set_config(OC1)
        liquid_host = make_host()
        liquid_host.set_config(OC1)
        assert liquid_host.is_overclocked

    def test_locked_cpu_cannot_overclock(self):
        host = Host("locked", spec=OCP_BLADE_8168, cooling=TWO_PHASE_IMMERSION)
        with pytest.raises(FrequencyError):
            host.set_config(OC1)

    def test_power_rises_with_commitment_and_overclock(self):
        host = make_host()
        idle = host.power_watts(0.0)
        host.place(VMInstance("a", VMSpec(8, 16.0)))
        busy = host.power_watts(1.0)
        host.set_config(OC1)
        overclocked = host.power_watts(1.0)
        assert idle < busy < overclocked

    def test_busy_cores_capped_at_pcores(self):
        host = make_host(ratio=1.2)
        for index in range(8):
            host.place(VMInstance(f"vm{index}", VMSpec(4, 8.0)))
        assert host.committed_vcores == 32  # oversubscribed past 28 pcores
        assert host.power_watts(1.0) == host.power_model.watts(host.config, 28.0)

    def test_duplicate_vm_rejected(self):
        host = make_host()
        host.place(VMInstance("a", VMSpec(4, 8.0)))
        with pytest.raises(ConfigurationError):
            host.place(VMInstance("a", VMSpec(4, 8.0)))


class TestPlacement:
    def test_best_fit_packs_tight(self):
        hosts = [make_host("h0"), make_host("h1")]
        hosts[0].place(VMInstance("pre", VMSpec(24, 24.0)))
        engine = PlacementEngine(hosts, PlacementPolicy.BEST_FIT)
        target = engine.place(VMInstance("new", VMSpec(4, 8.0)))
        assert target.host_id == "h0"  # fills the nearly-full host

    def test_worst_fit_spreads(self):
        hosts = [make_host("h0"), make_host("h1")]
        hosts[0].place(VMInstance("pre", VMSpec(24, 24.0)))
        engine = PlacementEngine(hosts, PlacementPolicy.WORST_FIT)
        target = engine.place(VMInstance("new", VMSpec(4, 8.0)))
        assert target.host_id == "h1"

    def test_placement_error_when_full(self):
        engine = PlacementEngine([make_host()])
        engine.place(VMInstance("a", VMSpec(28, 28.0)))
        with pytest.raises(PlacementError):
            engine.place(VMInstance("b", VMSpec(1, 1.0)))

    def test_evict_frees_capacity(self):
        engine = PlacementEngine([make_host()])
        engine.place(VMInstance("a", VMSpec(28, 28.0)))
        engine.evict("a")
        engine.place(VMInstance("b", VMSpec(28, 28.0)))

    def test_stats(self):
        engine = PlacementEngine([make_host("h0"), make_host("h1")])
        engine.place(VMInstance("a", VMSpec(4, 8.0)))
        stats = engine.stats()
        assert stats.hosts == 2
        assert stats.hosts_used == 1
        assert stats.vms == 1
        assert stats.total_vcores_placed == 4
        assert stats.total_pcores == 56

    def test_packing_density_gain_about_20_percent(self):
        """The paper's '+20% VM packing density' claim."""

        def factory(host_id, ratio):
            return make_host(host_id, ratio)

        gain = packing_density_gain(
            factory, VMSpec(4, 8.0), host_count=5, oversubscription_ratio=1.2
        )
        assert gain == pytest.approx(0.19, abs=0.05)


class TestFleet:
    def test_buffer_hosts_not_sellable(self):
        with_buffer = Fleet([make_host(f"h{i}") for i in range(10)], buffer_hosts=2)
        without = Fleet([make_host(f"g{i}") for i in range(10)], buffer_hosts=0)
        assert without.sellable_vcores > with_buffer.sellable_vcores

    def test_virtual_buffer_sells_more_vms(self):
        static = Fleet([make_host(f"s{i}") for i in range(6)], buffer_hosts=1)
        virtual = Fleet([make_host(f"v{i}") for i in range(6)], buffer_hosts=0)
        spec = VMSpec(4, 8.0)
        assert virtual.fill_with(spec) > static.fill_with(spec)

    def test_failover_recreates_and_overclocks(self):
        """Sell 1:1 capacity, keep the 1.2:1 ceiling as failover headroom."""
        hosts = [make_host(f"h{i}", ratio=1.2) for i in range(4)]
        fleet = Fleet(hosts, buffer_hosts=0, policy=PlacementPolicy.WORST_FIT)
        for index in range(6 * 4):  # 6 VMs per host = 24 of 28 pcores
            fleet.place(VMInstance(f"vm{index}", VMSpec(4, 8.0)))
        outcome = fleet.fail_host("h0")
        assert outcome.recreated_vms == 6
        assert outcome.lost_vms == 0
        # Survivors absorbed VMs beyond their pcores and overclocked.
        assert len(outcome.overclocked_hosts) == 3
        for host_id in outcome.overclocked_hosts:
            assert fleet.host_by_id(host_id).is_overclocked

    def test_failover_never_recreates_on_the_dead_host(self):
        fleet = Fleet([make_host(f"h{i}", ratio=1.2) for i in range(3)], buffer_hosts=0)
        fleet.place(VMInstance("vm0", VMSpec(4, 8.0)))  # best-fit lands on h0
        outcome = fleet.fail_host("h0")
        assert outcome.recreated_vms == 1
        dead = fleet.host_by_id("h0")
        assert dead.committed_vcores == 0
        survivors = [h for h in fleet.hosts if h.host_id != "h0"]
        assert sum(h.committed_vcores for h in survivors) == 4

    def test_failover_with_static_buffer_absorbs_without_overclock(self):
        fleet = Fleet([make_host(f"h{i}") for i in range(5)], buffer_hosts=2)
        fleet.fill_with(VMSpec(4, 8.0))
        outcome = fleet.fail_host("h0")
        assert outcome.lost_vms == 0

    def test_double_failure_rejected(self):
        fleet = Fleet([make_host(f"h{i}") for i in range(3)], buffer_hosts=0)
        fleet.fail_host("h0")
        with pytest.raises(ConfigurationError):
            fleet.fail_host("h0")

    def test_failover_recreates_in_flight_deploys(self):
        """VMs still CREATING when their host dies are displaced too.

        A deploy that has not reached RUNNING is still customer state —
        the failover path must re-create it on a survivor exactly like a
        running VM, not silently drop it because it never booted.
        """
        fleet = Fleet([make_host(f"h{i}", ratio=1.2) for i in range(3)], buffer_hosts=0)
        running = VMInstance("vm-running", VMSpec(4, 8.0))
        running.mark_running(5.0)
        in_flight = VMInstance("vm-creating", VMSpec(4, 8.0))
        assert in_flight.state is VMState.CREATING and in_flight.is_active
        fleet.host_by_id("h0").place(running)
        fleet.host_by_id("h0").place(in_flight)

        outcome = fleet.fail_host("h0")
        assert outcome.recreated_vms == 2
        assert outcome.lost_vms == 0
        survivors = [h for h in fleet.hosts if h.host_id != "h0"]
        recreated_ids = {vm.vm_id for host in survivors for vm in host.vms}
        assert recreated_ids == {"vm-running", "vm-creating"}

    def test_failover_ignores_deleted_vms(self):
        """Only active VMs are displaced; deleted ones stay dead."""
        fleet = Fleet([make_host(f"h{i}") for i in range(2)], buffer_hosts=0)
        dead = VMInstance("vm-dead", VMSpec(4, 8.0))
        dead.mark_running(1.0)
        fleet.host_by_id("h0").place(dead)
        dead.mark_deleted(2.0)
        outcome = fleet.fail_host("h0")
        assert outcome.recreated_vms == 0
        assert outcome.lost_vms == 0

    def test_failover_counts_lost_vms_when_survivors_full(self):
        """With survivors packed solid, displaced VMs are lost, not hung."""
        fleet = Fleet([make_host(f"h{i}") for i in range(2)], buffer_hosts=0)
        fleet.host_by_id("h1").place(VMInstance("full", VMSpec(28, 28.0)))
        doomed = VMInstance("vm-doomed", VMSpec(4, 8.0))
        fleet.host_by_id("h0").place(doomed)
        outcome = fleet.fail_host("h0")
        assert outcome.recreated_vms == 0
        assert outcome.lost_vms == 1
        assert outcome.overclocked_hosts == ()


class TestCapacityCrisis:
    def test_gap_bridged_by_overclocking(self):
        hosts = [make_host(f"h{i}") for i in range(10)]
        supply = sum(h.vcore_capacity for h in hosts)
        plan = bridge_capacity_gap(hosts, demand_vcores=int(supply * 1.1))
        assert plan.fully_bridged
        assert plan.hosts_overclocked > 0

    def test_no_gap_no_action(self):
        hosts = [make_host(f"h{i}") for i in range(2)]
        plan = bridge_capacity_gap(hosts, demand_vcores=10)
        assert plan.gap_vcores == 0
        assert plan.hosts_overclocked == 0

    def test_air_fleet_cannot_bridge(self):
        hosts = [make_host(f"h{i}", cooling=DIRECT_EVAPORATIVE) for i in range(3)]
        supply = sum(h.vcore_capacity for h in hosts)
        plan = bridge_capacity_gap(hosts, demand_vcores=supply + 50)
        assert not plan.fully_bridged
        assert plan.hosts_overclocked == 0

    def test_partial_bridge_reports_not_fully_bridged(self):
        """A gap larger than the whole fleet's overclock headroom: every
        host overclocks, yet the plan must still say fully_bridged=False
        and report exactly how much capacity it did reclaim."""
        hosts = [make_host(f"h{i}") for i in range(3)]
        supply = sum(h.vcore_capacity for h in hosts)
        headroom = sum(int(h.spec.pcores * 0.2) for h in hosts)
        plan = bridge_capacity_gap(hosts, demand_vcores=supply + headroom + 10)
        assert not plan.fully_bridged
        assert plan.hosts_overclocked == len(hosts)
        assert plan.bridged_vcores == headroom
        assert plan.gap_vcores == headroom + 10
        for host in hosts:
            assert host.is_overclocked

    def test_unit_extra_ratio_bridges_nothing(self):
        """extra_ratio 1.0 reclaims zero vcores, so nothing overclocks."""
        hosts = [make_host(f"h{i}") for i in range(2)]
        supply = sum(h.vcore_capacity for h in hosts)
        plan = bridge_capacity_gap(
            hosts, demand_vcores=supply + 5, extra_ratio_when_overclocked=1.0
        )
        assert not plan.fully_bridged
        assert plan.hosts_overclocked == 0
        assert plan.bridged_vcores == 0
        assert isinstance(plan, CapacityGapPlan)


class TestPowerCap:
    def _loaded_host(self):
        host = make_host()
        host.set_config(OC1)
        for index in range(7):
            host.place(VMInstance(f"vm{index}", VMSpec(4, 8.0)))
        return host

    def test_no_cap_needed_leaves_frequency(self):
        host = self._loaded_host()
        governor = PowerCapGovernor()
        result = governor.enforce(host, cap_watts=10_000.0)
        assert not result.capped
        assert host.config.core_ghz == OC1.core_ghz

    def test_cap_steps_frequency_down(self):
        host = self._loaded_host()
        before = host.power_watts(1.0)
        governor = PowerCapGovernor()
        result = governor.enforce(host, cap_watts=before - 20.0)
        assert result.capped
        assert result.final_core_ghz < OC1.core_ghz
        assert host.power_watts(1.0) <= before - 20.0

    @pytest.mark.parametrize(
        "bin_ghz, min_core_ghz",
        [
            (math.nan, 1.2),
            (math.inf, 1.2),
            (0.1, math.nan),
            (0.1, math.inf),
            (0.1, 0.0),
            (0.1, -1.0),
        ],
    )
    def test_rejects_bad_settings_at_construction(self, bin_ghz, min_core_ghz):
        # Only the constructor: enforce with a NaN bin would never return.
        with pytest.raises(ConfigurationError):
            PowerCapGovernor(bin_ghz=bin_ghz, min_core_ghz=min_core_ghz)

    def test_impossible_cap_raises(self):
        host = self._loaded_host()
        governor = PowerCapGovernor()
        with pytest.raises(PowerBudgetExceeded):
            governor.enforce(host, cap_watts=10.0)

    def test_priority_aware_sheds_low_priority_first(self):
        low, high = self._loaded_host(), self._loaded_host()
        governor = PowerCapGovernor()
        total = low.power_watts(1.0) + high.power_watts(1.0)
        results = governor.enforce_priority_aware(
            [(low, 0), (high, 10)], total_cap_watts=total - 30.0
        )
        by_id = {r.host_id: r for r in results}
        del by_id
        assert results[0].capped          # low priority shed first
        assert not results[1].capped      # high priority untouched
