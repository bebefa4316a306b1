"""Machines and racks.

The paper's evaluation uses slot-based assignment (to compare fairly with
Quincy), so the primary capacity unit here is the *slot*; machines also
carry multi-dimensional resources (CPU, RAM, network bandwidth) used by the
network-aware policy and the testbed experiments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Set


class MachineState(enum.Enum):
    """Availability of a machine."""

    HEALTHY = "healthy"
    FAILED = "failed"
    DRAINED = "drained"


@dataclass(slots=True)
class Machine:
    """A cluster machine.

    Attributes:
        machine_id: Unique integer identifier.
        rack_id: Identifier of the rack holding the machine.
        num_slots: Number of task slots (the paper's comparison unit).
        cpu_cores: CPU core count (informational; used by baselines' scoring).
        ram_gb: RAM in gigabytes.
        network_bandwidth_mbps: NIC capacity in Mb/s (10 Gbps links on the
            paper's testbed).
        state: Health state.
        name: Human-readable name.
    """

    machine_id: int
    rack_id: int
    num_slots: int = 4
    cpu_cores: int = 12
    ram_gb: int = 64
    network_bandwidth_mbps: int = 10_000
    state: MachineState = MachineState.HEALTHY
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"machine-{self.machine_id}"
        if self.num_slots <= 0:
            raise ValueError("a machine must have at least one slot")

    @property
    def is_available(self) -> bool:
        """Return whether the machine can accept tasks."""
        return self.state is MachineState.HEALTHY

    def fail(self) -> None:
        """Mark the machine as failed."""
        self.state = MachineState.FAILED

    def recover(self) -> None:
        """Mark the machine as healthy again."""
        self.state = MachineState.HEALTHY


@dataclass(slots=True)
class Rack:
    """A rack grouping machines that share a top-of-rack switch.

    Attributes:
        rack_id: Unique integer identifier.
        machine_ids: Machines in the rack.
        name: Human-readable name.
    """

    rack_id: int
    machine_ids: List[int] = field(default_factory=list)
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"rack-{self.rack_id}"

    @property
    def size(self) -> int:
        """Number of machines in the rack."""
        return len(self.machine_ids)

    def add_machine(self, machine_id: int) -> None:
        """Register a machine as belonging to this rack."""
        if machine_id not in self.machine_ids:
            self.machine_ids.append(machine_id)

    def remove_machine(self, machine_id: int) -> None:
        """Remove a machine from the rack (e.g., decommissioning)."""
        if machine_id in self.machine_ids:
            self.machine_ids.remove(machine_id)
