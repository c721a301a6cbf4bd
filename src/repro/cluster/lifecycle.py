"""VM lifecycle management for discrete-event experiments.

Deploying a VM is slow — "it may take tens of seconds to even minutes"
(Section V); the paper's auto-scaling experiments emulate a 60-second
scale-out. :class:`VMLifecycleManager` owns that delay: `request_vm`
returns immediately with a CREATING instance, and the ready callback
fires after ``creation_latency_s`` of simulated time.

Failure recovery rides the same delay: :meth:`fail_vm` moves a VM to
FAILED immediately (crashes are instantaneous) and
:meth:`crash_restart` additionally redeploys a replacement, which — like
any deploy — takes the full creation latency. That asymmetry (instant
loss, slow recovery) is what makes failures expensive and the degraded
auto-scaler mode worthwhile.
"""

from __future__ import annotations

from typing import Callable

from ..errors import ConfigurationError
from ..sim.kernel import Simulator
from .vm import VMInstance, VMSpec, VMState

#: The paper's emulated scale-out latency (Section VI-D).
PAPER_SCALE_OUT_LATENCY_S = 60.0


class VMLifecycleManager:
    """Creates and deletes VM instances with realistic deploy latency."""

    def __init__(
        self,
        simulator: Simulator,
        creation_latency_s: float = PAPER_SCALE_OUT_LATENCY_S,
        id_prefix: str = "vm",
    ) -> None:
        if creation_latency_s < 0:
            raise ConfigurationError("creation latency cannot be negative")
        self._sim = simulator
        self.creation_latency_s = creation_latency_s
        self._id_prefix = id_prefix
        self._counter = 0
        self._instances: dict[str, VMInstance] = {}

    @property
    def instances(self) -> tuple[VMInstance, ...]:
        return tuple(self._instances.values())

    @property
    def active_instances(self) -> tuple[VMInstance, ...]:
        return tuple(vm for vm in self._instances.values() if vm.is_active)

    @property
    def running_instances(self) -> tuple[VMInstance, ...]:
        return tuple(
            vm for vm in self._instances.values() if vm.state is VMState.RUNNING
        )

    @property
    def creating_instances(self) -> tuple[VMInstance, ...]:
        return tuple(
            vm for vm in self._instances.values() if vm.state is VMState.CREATING
        )

    def request_vm(
        self,
        spec: VMSpec,
        on_ready: Callable[[VMInstance], None] | None = None,
        latency_override_s: float | None = None,
    ) -> VMInstance:
        """Start deploying a VM; ``on_ready`` fires when it is RUNNING.

        ``latency_override_s`` replaces the default creation latency for
        this one deployment (0 bootstraps a pre-existing VM instantly).
        """
        latency = self.creation_latency_s if latency_override_s is None else latency_override_s
        if latency < 0:
            raise ConfigurationError("creation latency cannot be negative")
        self._counter += 1
        vm = VMInstance(
            vm_id=f"{self._id_prefix}-{self._counter}",
            spec=spec,
            created_at=self._sim.now,
        )
        self._instances[vm.vm_id] = vm

        def become_ready() -> None:
            if vm.state is not VMState.CREATING:
                return  # deleted while deploying
            vm.mark_running(self._sim.now)
            if on_ready is not None:
                on_ready(vm)

        if latency == 0:
            become_ready()
        else:
            self._sim.after(latency, become_ready, name=f"deploy:{vm.vm_id}")
        return vm

    def delete_vm(self, vm_id: str) -> VMInstance:
        """Delete a VM immediately (scale-in is fast)."""
        vm = self._instances.get(vm_id)
        if vm is None:
            raise ConfigurationError(f"no VM {vm_id}")
        if vm.state is VMState.DELETED:
            raise ConfigurationError(f"VM {vm_id} is already deleted")
        vm.mark_deleted(self._sim.now)
        return vm

    def fail_vm(self, vm_id: str) -> VMInstance:
        """Crash a VM immediately (failures, unlike deploys, are fast)."""
        vm = self._instances.get(vm_id)
        if vm is None:
            raise ConfigurationError(f"no VM {vm_id}")
        vm.mark_failed(self._sim.now)
        return vm

    def crash_restart(
        self,
        vm_id: str,
        on_ready: Callable[[VMInstance], None] | None = None,
        latency_override_s: float | None = None,
    ) -> tuple[VMInstance, VMInstance]:
        """Fail ``vm_id`` and start deploying a same-spec replacement.

        Returns ``(failed, replacement)``. The replacement pays the full
        creation latency — the 60 s redeploy window during which the
        degraded auto-scaler overclocks survivors to absorb the lost
        capacity.
        """
        failed = self.fail_vm(vm_id)
        replacement = self.request_vm(
            failed.spec, on_ready=on_ready, latency_override_s=latency_override_s
        )
        return failed, replacement

    def vm_hours(self, now: float | None = None) -> float:
        """Total RUNNING VM×hours accumulated (the Table XI cost metric)."""
        current = self._sim.now if now is None else now
        total_seconds = sum(vm.running_seconds(current) for vm in self._instances.values())
        return total_seconds / 3600.0


__all__ = ["VMLifecycleManager", "PAPER_SCALE_OUT_LATENCY_S"]

