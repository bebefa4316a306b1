"""Cluster-manager substrate: machines, racks, jobs, tasks, events, monitoring.

This package models the part of a cluster manager (Borg, Kubernetes, Mesos,
YARN) that the scheduler interacts with: the physical topology (racks and
machines with slots and resources), the workload (jobs made of tasks with
resource requests, durations, and data locality), the mutable cluster state
(which task runs where), and the monitoring data (per-machine load and
network bandwidth use) that scheduling policies consume.
"""

from repro.cluster.machine import Machine, MachineState, Rack
from repro.cluster.task import Job, JobType, Task, TaskState
from repro.cluster.topology import ClusterTopology, build_topology
from repro.cluster.state import ClusterState, Placement
from repro.cluster.resources import (
    ResourceVector,
    equivalence_class,
    task_fits_on_machine,
)
from repro.cluster.knowledge_base import (
    KnowledgeBase,
    RuntimeStatistics,
    UsageStatistics,
)
from repro.cluster.events import DirtySnapshot, DirtyTracker
from repro.cluster.monitor import MachineStatistics, ResourceMonitor

__all__ = [
    "Machine",
    "MachineState",
    "Rack",
    "Job",
    "JobType",
    "Task",
    "TaskState",
    "ClusterTopology",
    "build_topology",
    "ClusterState",
    "Placement",
    "DirtySnapshot",
    "DirtyTracker",
    "MachineStatistics",
    "ResourceMonitor",
    "ResourceVector",
    "equivalence_class",
    "task_fits_on_machine",
    "KnowledgeBase",
    "RuntimeStatistics",
    "UsageStatistics",
]
