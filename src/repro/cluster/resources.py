"""Multi-dimensional resource vectors and fit checking.

The paper's evaluation uses slot-based assignment to compare fairly with
Quincy (Section 7.1), but Firmament itself supports multi-dimensional
feasibility checking in the style of Borg: a task fits on a machine only if
its CPU, RAM, and network-bandwidth requests fit into the machine's spare
capacity in *every* dimension.  This module provides the resource algebra
that the multi-dimensional scheduling policy
(:class:`~repro.core.policies.cpu_memory.CpuMemoryPolicy`) and the resource
monitor build on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable, Mapping, Tuple

from repro.cluster.machine import Machine
from repro.cluster.task import Task


@dataclass(frozen=True, slots=True)
class ResourceVector:
    """An amount of resources in every scheduling dimension.

    Attributes:
        cpu_cores: CPU cores (fractional values allowed).
        ram_gb: Memory in gigabytes.
        network_mbps: Network bandwidth in Mb/s.
        disk_gb: Local disk space in gigabytes.
    """

    cpu_cores: float = 0.0
    ram_gb: float = 0.0
    network_mbps: float = 0.0
    disk_gb: float = 0.0

    #: Names of the dimensions, in a fixed order used by :meth:`as_tuple`.
    DIMENSIONS: ClassVar[Tuple[str, ...]] = ("cpu_cores", "ram_gb", "network_mbps", "disk_gb")

    def __post_init__(self) -> None:
        for dimension in self.DIMENSIONS:
            if getattr(self, dimension) < 0:
                raise ValueError(f"resource dimension {dimension} must be non-negative")

    # ------------------------------------------------------------------ #
    # Algebra
    # ------------------------------------------------------------------ #
    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            cpu_cores=self.cpu_cores + other.cpu_cores,
            ram_gb=self.ram_gb + other.ram_gb,
            network_mbps=self.network_mbps + other.network_mbps,
            disk_gb=self.disk_gb + other.disk_gb,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        """Subtract, clamping every dimension at zero.

        Spare capacity can never be negative: observed usage occasionally
        overshoots the nominal machine capacity (e.g. bursty network use),
        and the policies must treat that as "no spare capacity" rather than
        propagate negative numbers into costs.
        """
        return ResourceVector(
            cpu_cores=max(0.0, self.cpu_cores - other.cpu_cores),
            ram_gb=max(0.0, self.ram_gb - other.ram_gb),
            network_mbps=max(0.0, self.network_mbps - other.network_mbps),
            disk_gb=max(0.0, self.disk_gb - other.disk_gb),
        )

    def scaled(self, factor: float) -> "ResourceVector":
        """Return the vector with every dimension multiplied by ``factor``."""
        if factor < 0:
            raise ValueError("scaling factor must be non-negative")
        return ResourceVector(
            cpu_cores=self.cpu_cores * factor,
            ram_gb=self.ram_gb * factor,
            network_mbps=self.network_mbps * factor,
            disk_gb=self.disk_gb * factor,
        )

    # ------------------------------------------------------------------ #
    # Comparisons
    # ------------------------------------------------------------------ #
    def fits_into(self, capacity: "ResourceVector") -> bool:
        """Return whether this request fits into ``capacity`` in every dimension."""
        return (
            self.cpu_cores <= capacity.cpu_cores
            and self.ram_gb <= capacity.ram_gb
            and self.network_mbps <= capacity.network_mbps
            and self.disk_gb <= capacity.disk_gb
        )

    def dominant_share(self, capacity: "ResourceVector") -> float:
        """Return the largest fraction of ``capacity`` any dimension uses.

        This is the dominant resource share of DRF; the multi-dimensional
        policy uses it as a single scalar "how big is this task relative to
        a machine" measure when pricing arcs.
        Dimensions with zero capacity are skipped (they cannot be shared).
        """
        shares = []
        for dimension in self.DIMENSIONS:
            cap = getattr(capacity, dimension)
            if cap > 0:
                shares.append(getattr(self, dimension) / cap)
        return max(shares) if shares else 0.0

    def is_zero(self) -> bool:
        """Return whether every dimension is zero."""
        return all(getattr(self, d) == 0 for d in self.DIMENSIONS)

    def as_tuple(self) -> Tuple[float, float, float, float]:
        """Return the dimensions as a tuple in :data:`DIMENSIONS` order."""
        return (self.cpu_cores, self.ram_gb, self.network_mbps, self.disk_gb)

    def as_dict(self) -> Mapping[str, float]:
        """Return the dimensions as a dictionary."""
        return {d: getattr(self, d) for d in self.DIMENSIONS}

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def zero(cls) -> "ResourceVector":
        """Return the all-zero resource vector."""
        return cls()

    @classmethod
    def for_task(cls, task: Task) -> "ResourceVector":
        """Return the resource request of a task."""
        return cls(
            cpu_cores=task.cpu_request,
            ram_gb=task.ram_request_gb,
            network_mbps=float(task.network_request_mbps),
        )

    @classmethod
    def for_machine(cls, machine: Machine) -> "ResourceVector":
        """Return the nominal capacity of a machine."""
        return cls(
            cpu_cores=float(machine.cpu_cores),
            ram_gb=float(machine.ram_gb),
            network_mbps=float(machine.network_bandwidth_mbps),
        )

    @classmethod
    def sum(cls, vectors: Iterable["ResourceVector"]) -> "ResourceVector":
        """Return the element-wise sum of the given vectors."""
        total = cls.zero()
        for vector in vectors:
            total = total + vector
        return total


def task_fits_on_machine(
    task: Task, machine: Machine, in_use: ResourceVector
) -> bool:
    """Return whether a task's multi-dimensional request fits on a machine.

    Args:
        task: The task whose request is checked.
        machine: The candidate machine.
        in_use: Resources already committed to tasks running on the machine.

    Returns:
        True when the remaining capacity covers the request in every
        dimension; this is the Borg-style feasibility check the
        multi-dimensional policy applies before adding an arc.
    """
    spare = ResourceVector.for_machine(machine) - in_use
    return ResourceVector.for_task(task).fits_into(spare)


def equivalence_class(task: Task, cpu_granularity: float = 1.0, ram_granularity_gb: float = 1.0) -> Tuple[int, int]:
    """Return a coarse resource-request equivalence class for a task.

    Firmament groups tasks with similar resource needs behind shared request
    aggregators so that the flow network needs one aggregator (and one set of
    aggregator-to-machine arcs) per class rather than per task (Section 3.2).
    Rounding the request up to a granularity keeps the number of classes
    small and ensures that everything admitted through the class's arcs
    actually fits.

    Args:
        task: The task to classify.
        cpu_granularity: Width of the CPU buckets, in cores.
        ram_granularity_gb: Width of the RAM buckets, in GB.

    Returns:
        A hashable ``(cpu_bucket, ram_bucket)`` pair.
    """
    if cpu_granularity <= 0 or ram_granularity_gb <= 0:
        raise ValueError("equivalence-class granularities must be positive")
    cpu_bucket = int(-(-task.cpu_request // cpu_granularity))
    ram_bucket = int(-(-task.ram_request_gb // ram_granularity_gb))
    return (cpu_bucket, ram_bucket)
