"""Cluster-manager substrate: machines, racks, jobs, tasks, events, monitoring.

This package models the part of a cluster manager (Borg, Kubernetes, Mesos,
YARN) that the scheduler interacts with: the physical topology (racks and
machines with slots and resources), the workload (jobs made of tasks with
resource requests, durations, and data locality), the mutable cluster state
(which task runs where), and the monitoring data (per-machine load and
network bandwidth use) that scheduling policies consume.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "machine": ("Machine", "MachineState", "Rack"),
    "task": ("Job", "JobType", "Task", "TaskState"),
    "topology": ("ClusterTopology", "build_topology"),
    "state": ("ClusterState", "Placement"),
    "events": ("DirtySnapshot", "DirtyTracker"),
    "monitor": ("MachineStatistics", "ResourceMonitor"),
    "resources": (
        "ResourceVector", "equivalence_class", "task_fits_on_machine",
    ),
    "knowledge_base": (
        "KnowledgeBase", "RuntimeStatistics", "UsageStatistics",
    ),
})
