"""Experimental frequency configurations (paper Table VII).

Seven configurations of small tank #1's Xeon W-3175X, overclocking the
core, the uncore (last-level cache), and system memory independently:

* **B1** — base frequency, turbo disabled;
* **B2** — turbo enabled (the paper expects this to be "the
  configuration of most datacenters today");
* **B3/B4** — uncore then memory overclocked on top of B2;
* **OC1–OC3** — 4.1 GHz core overclock (+50 mV) with progressively
  overclocked uncore and memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass(frozen=True)
class FrequencyConfig:
    """One row of Table VII."""

    name: str
    core_ghz: float
    voltage_offset_mv: float
    #: None means "not applicable" (explicit overclock pins the clock);
    #: True/False is whether opportunistic turbo is enabled.
    turbo_enabled: bool | None
    llc_ghz: float
    memory_ghz: float

    def __post_init__(self) -> None:
        if min(self.core_ghz, self.llc_ghz, self.memory_ghz) <= 0:
            raise ConfigurationError(f"{self.name}: frequencies must be positive")

    @property
    def is_overclocked(self) -> bool:
        """True for the OC rows (explicitly pinned beyond turbo)."""
        return self.turbo_enabled is None

    def speedups_over(self, baseline: "FrequencyConfig") -> dict[str, float]:
        """Per-component clock ratios relative to ``baseline``."""
        return {
            "core": self.core_ghz / baseline.core_ghz,
            "llc": self.llc_ghz / baseline.llc_ghz,
            "memory": self.memory_ghz / baseline.memory_ghz,
        }


B1 = FrequencyConfig("B1", core_ghz=3.1, voltage_offset_mv=0.0, turbo_enabled=False,
                     llc_ghz=2.4, memory_ghz=2.4)
B2 = FrequencyConfig("B2", core_ghz=3.4, voltage_offset_mv=0.0, turbo_enabled=True,
                     llc_ghz=2.4, memory_ghz=2.4)
B3 = FrequencyConfig("B3", core_ghz=3.4, voltage_offset_mv=0.0, turbo_enabled=True,
                     llc_ghz=2.8, memory_ghz=2.4)
B4 = FrequencyConfig("B4", core_ghz=3.4, voltage_offset_mv=0.0, turbo_enabled=True,
                     llc_ghz=2.8, memory_ghz=3.0)
OC1 = FrequencyConfig("OC1", core_ghz=4.1, voltage_offset_mv=50.0, turbo_enabled=None,
                      llc_ghz=2.4, memory_ghz=2.4)
OC2 = FrequencyConfig("OC2", core_ghz=4.1, voltage_offset_mv=50.0, turbo_enabled=None,
                      llc_ghz=2.8, memory_ghz=2.4)
OC3 = FrequencyConfig("OC3", core_ghz=4.1, voltage_offset_mv=50.0, turbo_enabled=None,
                      llc_ghz=2.8, memory_ghz=3.0)

FREQUENCY_CONFIGS: dict[str, FrequencyConfig] = {
    cfg.name: cfg for cfg in (B1, B2, B3, B4, OC1, OC2, OC3)
}

#: The order the paper plots them in (Figures 9–10).
CONFIG_ORDER: tuple[str, ...] = ("B1", "B2", "B3", "B4", "OC1", "OC2", "OC3")


def config_by_name(name: str) -> FrequencyConfig:
    """Look up a Table VII configuration by name."""
    try:
        return FREQUENCY_CONFIGS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown frequency configuration {name!r}; available: {CONFIG_ORDER}"
        ) from None


__all__ = [
    "FrequencyConfig",
    "B1",
    "B2",
    "B3",
    "B4",
    "OC1",
    "OC2",
    "OC3",
    "FREQUENCY_CONFIGS",
    "CONFIG_ORDER",
    "config_by_name",
]
