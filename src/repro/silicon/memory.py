"""DRAM DIMM model.

The paper's Open Compute server carries 24 DDR4 DIMMs at 5 W each
(Section III); small-tank servers carry 128 GB. Memory overclocking
(Table VII raises the memory clock from 2.4 to 3.0 GHz) "substantially
increases the power draw" (Section VI-B), which we model with a
super-linear frequency exponent.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError, FrequencyError


@dataclass(frozen=True)
class DIMMSpec:
    """One DDR4 module."""

    capacity_gb: float = 16.0
    nominal_power_watts: float = 5.0
    nominal_frequency_ghz: float = 2.4
    max_frequency_ghz: float = 3.2
    #: Power ∝ (f/f_nom)^exponent; DRAM I/O power grows super-linearly
    #: with data rate because termination and I/O voltage stress rise.
    power_exponent: float = 2.0

    def __post_init__(self) -> None:
        if self.capacity_gb <= 0 or self.nominal_power_watts <= 0:
            raise ConfigurationError("DIMM capacity and power must be positive")

    def power_watts(self, frequency_ghz: float | None = None) -> float:
        """Per-DIMM power at the given clock."""
        frequency = self.nominal_frequency_ghz if frequency_ghz is None else frequency_ghz
        if frequency <= 0:
            raise FrequencyError("memory frequency must be positive")
        if frequency > self.max_frequency_ghz:
            raise FrequencyError(
                f"memory frequency {frequency} GHz exceeds the DIMM maximum "
                f"{self.max_frequency_ghz} GHz"
            )
        return self.nominal_power_watts * (frequency / self.nominal_frequency_ghz) ** self.power_exponent


@dataclass(frozen=True)
class MemorySystem:
    """A bank of identical DIMMs."""

    dimm: DIMMSpec
    count: int

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigurationError("a memory system needs at least one DIMM")

    @property
    def capacity_gb(self) -> float:
        return self.dimm.capacity_gb * self.count

    def power_watts(self, frequency_ghz: float | None = None) -> float:
        """Total memory power at the given clock."""
        return self.dimm.power_watts(frequency_ghz) * self.count


#: The 24-DIMM bank in the Open Compute blade (120 W total).
OCP_MEMORY = MemorySystem(dimm=DIMMSpec(capacity_gb=16.0), count=24)

#: The 128 GB bank in the small-tank servers (8 × 16 GB).
SMALL_TANK_MEMORY = MemorySystem(dimm=DIMMSpec(capacity_gb=16.0), count=8)


__all__ = ["DIMMSpec", "MemorySystem", "OCP_MEMORY", "SMALL_TANK_MEMORY"]
