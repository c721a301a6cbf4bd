"""Exception hierarchy for the :mod:`repro` library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class. More specific subclasses exist for
each subsystem so tests and applications can assert on precise failure
modes (configuration mistakes, thermal violations, capacity exhaustion,
and so on).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class SimulationError(ReproError):
    """The discrete-event simulation kernel detected an inconsistency."""


class ThermalError(ReproError):
    """A thermal model was asked to operate outside its valid envelope."""


class CoolingCapacityExceeded(ThermalError):
    """Component power exceeds the maximum heat a cooling solution removes."""


class FrequencyError(ReproError):
    """A frequency outside a component's supported range was requested."""


class VoltageError(ReproError):
    """A voltage outside a component's supported range was requested."""


class ReliabilityError(ReproError):
    """A reliability/lifetime model was used outside its calibrated range."""


class StabilityError(ReproError):
    """A component crashed or became unstable under excessive overclocking."""


class CapacityError(ReproError):
    """A host, tank, or fleet has no room for the requested resources."""


class PlacementError(CapacityError):
    """The VM placement engine could not place a VM."""


class PowerBudgetExceeded(ReproError):
    """A power cap or delivery limit was breached."""


class WorkloadError(ReproError):
    """A workload model was driven with invalid inputs."""


class TCOError(ReproError):
    """The TCO model received inconsistent cost inputs."""


class EngineError(ReproError):
    """The sweep engine was given an invalid or unexecutable task set."""


class JournalError(EngineError):
    """A campaign write-ahead journal is unreadable, tampered, or stale.

    Raised on replay when a record's sha256 chain does not validate, or
    when the journal header belongs to a different package version.
    """


class SensorError(ReproError):
    """A telemetry sensor or fusion layer was driven with invalid inputs."""


class TelemetryDegraded(ReproError):
    """Telemetry for a control loop is lost or persistently implausible.

    The safety supervisor raises (or records) this condition when it
    trips to the fail-safe state; controllers must hold base frequency
    until the supervisor re-arms on clean samples.
    """


class ControlError(ReproError):
    """The actuation control plane was misused or misconfigured.

    Raised for wiring mistakes (sending to a host with no attached
    agent, attaching the same agent twice) — never for transport loss:
    a command that exhausts its retries is reported to its sender's
    ``on_failed(command, reason)`` callback.
    """


class RolloutError(ReproError):
    """A progressive rollout was misused or driven into an invalid state.

    Raised for wiring mistakes (ticking a controller that was never
    given a plan wave to run, restoring a snapshot from a different
    plan) — never for unhealthy canaries, which are reported through
    analysis verdicts and the rollback path.
    """


class FaultError(ReproError):
    """A fault-injection campaign was misconfigured or could not run."""


class InjectionError(FaultError):
    """An injector could not apply its fault to the target model.

    Raised when a :class:`~repro.faults.plan.FaultSpec` names a target
    that does not exist, or when no handler is registered for its kind.
    """


class HostFailure(FaultError):
    """A simulated host failed ungracefully (injected or crash-induced).

    Raised by models that cannot tolerate the failure; recovery-aware
    layers (the auto-scaler, the fleet) catch it and redeploy instead.
    """
