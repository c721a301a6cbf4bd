"""Tests for the extension modules: Monte Carlo reliability, TCO
sensitivity, and the Figure 5–8 use-case experiments."""

import pytest

from repro.errors import ConfigurationError, TCOError
from repro.experiments.usecases import run_fig5, run_fig6, run_fig7, run_fig8
from repro.reliability import (
    air_condition,
    compare_conditions,
    immersion_condition,
    simulate_fleet,
)
from repro.tco import sweep_energy_share, sweep_immersion_pue, sweep_oversubscription
from repro.thermal import HFE_7000


class TestMonteCarlo:
    def test_overclocked_air_fails_much_faster(self):
        air_nominal = simulate_fleet(air_condition(205.0, 0.90), servers=4000, seed=1)
        air_overclocked = simulate_fleet(air_condition(305.0, 0.98), servers=4000, seed=1)
        assert air_overclocked.mean_lifetime_years < air_nominal.mean_lifetime_years / 3
        assert air_overclocked.failed_within_5y > 0.9

    def test_immersion_restores_fleet_reliability(self):
        results = compare_conditions(
            {
                "air-oc": air_condition(305.0, 0.98),
                "hfe-oc": immersion_condition(HFE_7000, 305.0, 0.98),
            },
            servers=4000,
            seed=2,
        )
        assert (
            results["hfe-oc"].failed_within_5y < results["air-oc"].failed_within_5y / 1.5
        )

    def test_percentiles_ordered(self):
        result = simulate_fleet(air_condition(205.0, 0.90), servers=2000, seed=3)
        assert result.p10_lifetime_years < result.median_lifetime_years
        assert result.median_lifetime_years <= result.mean_lifetime_years * 1.5

    def test_afr(self):
        result = simulate_fleet(air_condition(205.0, 0.90), servers=2000, seed=4)
        assert result.annualized_failure_rate(5.0) == pytest.approx(
            result.failed_within_5y / 5.0
        )

    def test_reproducible(self):
        a = simulate_fleet(air_condition(205.0, 0.90), servers=500, seed=9)
        b = simulate_fleet(air_condition(205.0, 0.90), servers=500, seed=9)
        assert a.mean_lifetime_years == b.mean_lifetime_years

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            simulate_fleet(air_condition(205.0, 0.90), servers=0)


class TestTCOSensitivity:
    def test_energy_share_sweep_direction(self):
        """More expensive energy makes non-OC 2PIC *more* attractive and
        widens the gap to the overclockable variant."""
        points = sweep_energy_share()
        non_oc = [p.non_oc_cost_per_pcore for p in points]
        assert non_oc == sorted(non_oc, reverse=True)
        gaps = [p.oc_cost_per_pcore - p.non_oc_cost_per_pcore for p in points]
        assert gaps == sorted(gaps)

    def test_pue_sweep_direction(self):
        """Worse achieved PUE erodes the 2PIC saving."""
        points = sweep_immersion_pue()
        costs = [p.non_oc_cost_per_pcore for p in points]
        assert costs == sorted(costs)
        assert costs[0] == pytest.approx(0.93, abs=0.02)  # near the Table VI point

    def test_oversubscription_sweep_hits_paper_point(self):
        points = {p.oversubscription: p.oc_cost_per_vcore_vs_air for p in sweep_oversubscription()}
        assert points[0.10] == pytest.approx(-0.127, abs=0.01)  # the -13%
        ordered = [points[level] for level in sorted(points)]
        assert ordered == sorted(ordered, reverse=True)

    def test_energy_share_validation(self):
        with pytest.raises(TCOError):
            sweep_energy_share(shares=(1.5,))


class TestUseCases:
    def test_fig5_packing_dividend(self):
        result = run_fig5()
        assert result["vms_plain"] == 2
        assert result["vms_overclocked"] == 3
        bands = [band for _, band, _, _ in result["skus"]]
        assert bands == ["turbo", "green", "red"]

    def test_fig6_virtual_buffer(self):
        result = run_fig6()
        assert result["virtual_vms"] > result["static_vms"]
        assert result["failover_lost"] == 0
        assert result["failover_recreated"] == 7
        assert result["overclocked_hosts"] >= 1

    def test_fig7_gap_bridged(self):
        plan = run_fig7()
        assert plan.gap_vcores > 0
        assert plan.fully_bridged

    def test_fig8_maneuvers(self):
        timelines = run_fig8()
        for mode, samples in timelines.items():
            assert any(freq > 3.4 for _, freq in samples), mode
        # OC-A (acting at 40%) spends at least as long overclocked as
        # OC-E (acting at 50%).
        def overclocked_samples(samples):
            return sum(1 for _, freq in samples if freq > 3.4)

        assert overclocked_samples(timelines["oc-a"]) >= overclocked_samples(
            timelines["oc-e"]
        )
