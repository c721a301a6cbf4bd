"""GPU catalog, overclocking configurations (Table VIII), and power model.

Small tank #2 hosts an Nvidia RTX 2080 Ti (250 W TDP). The paper's
Table VIII defines a baseline and three progressively more aggressive
overclocks (OCG1–OCG3) that raise the core clocks, then the memory
clock, then the memory clock again with a higher power limit.

The GPU power model splits the draw into idle + core-dynamic +
memory-dynamic terms calibrated to the paper's VGG measurements
(baseline P99 ≈ 193 W, OCG3 P99 ≈ 231 W), and clamps at the
configuration's power limit (the board's power governor).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError, FrequencyError


@dataclass(frozen=True)
class GPUSpec:
    """Static description of a GPU model."""

    name: str
    tdp_watts: float
    base_ghz: float
    turbo_ghz: float
    memory_ghz: float
    memory_gb: float
    nominal_voltage_v: float = 1.0
    idle_watts: float = 30.0
    #: Dynamic core power at (turbo_ghz, nominal voltage), full activity.
    core_dyn_ref_watts: float = 135.0
    #: Dynamic memory power at memory_ghz.
    memory_dyn_ref_watts: float = 28.0
    #: Fraction of a configured voltage offset that materializes as an
    #: average supply-voltage rise. The offset shifts the whole V/F
    #: curve, but the boost governor spends most time mid-curve, so the
    #: time-averaged rise is roughly half the configured offset.
    voltage_sensitivity: float = 0.5

    def __post_init__(self) -> None:
        if self.tdp_watts <= 0:
            raise ConfigurationError(f"{self.name}: TDP must be positive")
        if not 0 < self.base_ghz <= self.turbo_ghz:
            raise ConfigurationError(f"{self.name}: clock range is inconsistent")


RTX_2080TI = GPUSpec(
    name="Nvidia RTX 2080 Ti",
    tdp_watts=250.0,
    base_ghz=1.35,
    turbo_ghz=1.950,
    memory_ghz=6.8,
    memory_gb=11.0,
)


@dataclass(frozen=True)
class GPUConfig:
    """One row of Table VIII."""

    name: str
    power_limit_watts: float
    base_ghz: float
    turbo_ghz: float
    memory_ghz: float
    voltage_offset_mv: float

    def __post_init__(self) -> None:
        if self.power_limit_watts <= 0:
            raise ConfigurationError(f"{self.name}: power limit must be positive")
        if self.turbo_ghz < self.base_ghz:
            raise ConfigurationError(f"{self.name}: turbo below base")

    @property
    def is_overclocked(self) -> bool:
        return self.name != "Base"


GPU_BASE = GPUConfig(
    name="Base", power_limit_watts=250.0, base_ghz=1.35, turbo_ghz=1.950,
    memory_ghz=6.8, voltage_offset_mv=0.0,
)
OCG1 = GPUConfig(
    name="OCG1", power_limit_watts=250.0, base_ghz=1.55, turbo_ghz=2.085,
    memory_ghz=6.8, voltage_offset_mv=0.0,
)
OCG2 = GPUConfig(
    name="OCG2", power_limit_watts=300.0, base_ghz=1.55, turbo_ghz=2.085,
    memory_ghz=8.1, voltage_offset_mv=100.0,
)
OCG3 = GPUConfig(
    name="OCG3", power_limit_watts=300.0, base_ghz=1.55, turbo_ghz=2.085,
    memory_ghz=8.3, voltage_offset_mv=100.0,
)

GPU_CONFIGS: dict[str, GPUConfig] = {
    cfg.name: cfg for cfg in (GPU_BASE, OCG1, OCG2, OCG3)
}


class GPU:
    """An RTX-class GPU operating under a Table VIII configuration."""

    def __init__(self, spec: GPUSpec = RTX_2080TI, config: GPUConfig = GPU_BASE) -> None:
        self.spec = spec
        self.config = config
        self._validate()

    def _validate(self) -> None:
        if self.config.turbo_ghz > self.spec.turbo_ghz * 1.2:
            raise FrequencyError(
                f"{self.config.name}: {self.config.turbo_ghz} GHz is beyond "
                f"{self.spec.name}'s overclocking ceiling"
            )

    def voltage_v(self) -> float:
        """Effective (time-averaged) core voltage under the configured offset."""
        effective_offset = self.config.voltage_offset_mv * self.spec.voltage_sensitivity
        return self.spec.nominal_voltage_v + effective_offset / 1000.0

    def power_watts(self, core_activity: float = 1.0, memory_activity: float = 1.0) -> float:
        """Board power at the given activity factors, clamped at the limit."""
        if not 0.0 <= core_activity <= 1.0 or not 0.0 <= memory_activity <= 1.0:
            raise ConfigurationError("activity factors must be within [0, 1]")
        voltage_factor = (self.voltage_v() / self.spec.nominal_voltage_v) ** 2
        core = (
            self.spec.core_dyn_ref_watts
            * (self.config.turbo_ghz / self.spec.turbo_ghz)
            * voltage_factor
            * core_activity
        )
        memory = (
            self.spec.memory_dyn_ref_watts
            * (self.config.memory_ghz / self.spec.memory_ghz)
            * memory_activity
        )
        return min(self.spec.idle_watts + core + memory, self.config.power_limit_watts)


__all__ = [
    "GPUSpec",
    "GPU",
    "GPUConfig",
    "RTX_2080TI",
    "GPU_BASE",
    "OCG1",
    "OCG2",
    "OCG3",
    "GPU_CONFIGS",
]
