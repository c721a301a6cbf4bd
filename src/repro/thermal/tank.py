"""Two-phase immersion tank model (paper Section III).

An :class:`ImmersionTank` holds a dielectric fluid pool and a set of
immersed heat loads. The tank tracks:

* total dissipated heat against the condenser's capacity;
* the internal boil/condense circulation rate (latent-heat balance);
* vapor losses — sealed tanks only lose vapor during servicing events
  and large load swings (Section IV, "Environmental impact").

The paper built three prototypes; :func:`small_tank_1`,
:func:`small_tank_2` and :func:`large_tank` construct matching
configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CapacityError, ConfigurationError, CoolingCapacityExceeded
from .fluids import FC_3284, HFE_7000, DielectricFluid
from .junction import BECPlacement, JunctionModel, immersion_junction_model


@dataclass
class ImmersedLoad:
    """One heat-dissipating item in the tank (a server or blade)."""

    name: str
    power_watts: float
    bec: BECPlacement = BECPlacement.CPU_IHS

    def __post_init__(self) -> None:
        if self.power_watts < 0:
            raise ConfigurationError(f"{self.name}: power must be non-negative")


@dataclass
class VaporAccounting:
    """Cumulative vapor-loss bookkeeping for a sealed tank."""

    servicing_events: int = 0
    lost_grams: float = 0.0


class ImmersionTank:
    """A sealed two-phase immersion cooling tank."""

    def __init__(
        self,
        name: str,
        fluid: DielectricFluid,
        slots: int,
        condenser_capacity_watts: float,
        fluid_mass_grams: float = 500_000.0,
        vapor_loss_per_service_grams: float = 200.0,
    ) -> None:
        if slots < 1:
            raise ConfigurationError("a tank needs at least one slot")
        if condenser_capacity_watts <= 0:
            raise ConfigurationError("condenser capacity must be positive")
        self.name = name
        self.fluid = fluid
        self.slots = slots
        self.condenser_capacity_watts = condenser_capacity_watts
        self.fluid_mass_grams = fluid_mass_grams
        self.vapor_loss_per_service_grams = vapor_loss_per_service_grams
        self._loads: dict[str, ImmersedLoad] = {}
        self.vapor = VaporAccounting()

    # ------------------------------------------------------------------
    # Load management
    # ------------------------------------------------------------------
    @property
    def loads(self) -> tuple[ImmersedLoad, ...]:
        return tuple(self._loads.values())

    @property
    def occupied_slots(self) -> int:
        return len(self._loads)

    @property
    def free_slots(self) -> int:
        return self.slots - len(self._loads)

    def immerse(self, load: ImmersedLoad) -> None:
        """Place a load in the tank, validating slot and condenser room."""
        if load.name in self._loads:
            raise ConfigurationError(f"load {load.name!r} is already in tank {self.name!r}")
        if self.free_slots <= 0:
            raise CapacityError(f"tank {self.name!r} has no free slots")
        projected = self.total_heat_watts + load.power_watts
        if projected > self.condenser_capacity_watts:
            raise CoolingCapacityExceeded(
                f"tank {self.name!r}: condenser handles "
                f"{self.condenser_capacity_watts:.0f} W but load would reach "
                f"{projected:.0f} W"
            )
        self._loads[load.name] = load

    def remove(self, name: str) -> ImmersedLoad:
        """Remove a load (a servicing event — incurs a vapor loss)."""
        try:
            load = self._loads.pop(name)
        except KeyError:
            raise ConfigurationError(f"no load {name!r} in tank {self.name!r}") from None
        self.vapor.servicing_events += 1
        self.vapor.lost_grams += self.vapor_loss_per_service_grams
        return load

    def set_load_power(self, name: str, power_watts: float) -> None:
        """Update a load's dissipation (e.g. when a server overclocks)."""
        if name not in self._loads:
            raise ConfigurationError(f"no load {name!r} in tank {self.name!r}")
        if power_watts < 0:
            raise ConfigurationError("power must be non-negative")
        current = self._loads[name]
        projected = self.total_heat_watts - current.power_watts + power_watts
        if projected > self.condenser_capacity_watts:
            raise CoolingCapacityExceeded(
                f"tank {self.name!r}: raising {name!r} to {power_watts:.0f} W would "
                f"exceed condenser capacity ({projected:.0f} W > "
                f"{self.condenser_capacity_watts:.0f} W)"
            )
        current.power_watts = power_watts

    # ------------------------------------------------------------------
    # Thermal queries
    # ------------------------------------------------------------------
    @property
    def total_heat_watts(self) -> float:
        return sum(load.power_watts for load in self._loads.values())

    @property
    def headroom_watts(self) -> float:
        """Condenser capacity still available."""
        return self.condenser_capacity_watts - self.total_heat_watts

    def circulation_rate_g_per_s(self) -> float:
        """Steady-state boil/condense mass flow inside the tank."""
        return self.fluid.vaporization_rate_g_per_s(self.total_heat_watts)

    def junction_model_for(self, load_name: str) -> JunctionModel:
        """Junction model for a load, using its BEC placement."""
        load = self._loads.get(load_name)
        if load is None:
            raise ConfigurationError(f"no load {load_name!r} in tank {self.name!r}")
        return immersion_junction_model(self.fluid, bec=load.bec)

    def remaining_fluid_grams(self) -> float:
        """Fluid remaining after accumulated vapor losses."""
        return max(0.0, self.fluid_mass_grams - self.vapor.lost_grams)


# ----------------------------------------------------------------------
# The paper's three prototypes (Section III)
# ----------------------------------------------------------------------
def small_tank_1() -> ImmersionTank:
    """Small tank #1: overclockable Xeon W-3175X in HFE-7000."""
    return ImmersionTank(
        name="small-tank-1",
        fluid=HFE_7000,
        slots=2,
        condenser_capacity_watts=2_000.0,
        fluid_mass_grams=40_000.0,
    )


def small_tank_2() -> ImmersionTank:
    """Small tank #2: i9900k + RTX 2080 Ti in FC-3284."""
    return ImmersionTank(
        name="small-tank-2",
        fluid=FC_3284,
        slots=2,
        condenser_capacity_watts=2_000.0,
        fluid_mass_grams=40_000.0,
    )


def large_tank() -> ImmersionTank:
    """Large tank: 36 Open Compute 2-socket blades in FC-3284.

    Each blade draws up to 700 W (658 W with fans removed); the condenser
    is sized for the full complement plus overclocking headroom
    (+200 W per blade, Section IV).
    """
    return ImmersionTank(
        name="large-tank",
        fluid=FC_3284,
        slots=36,
        condenser_capacity_watts=36 * (700.0 + 200.0),
        fluid_mass_grams=1_500_000.0,
    )


__all__ = [
    "ImmersedLoad",
    "ImmersionTank",
    "VaporAccounting",
    "small_tank_1",
    "small_tank_2",
    "large_tank",
]
