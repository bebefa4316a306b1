"""Mutable cluster state: jobs, tasks, and the current task-to-machine map.

:class:`ClusterState` is the single source of truth the scheduler consumes
(Figure 4 of the paper: "jobs and tasks", "cluster topology", "monitoring
data") and the object the simulator mutates as events occur.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, KeysView, List, Optional, Tuple

from repro.cluster.events import DirtyTracker
from repro.cluster.machine import Machine
from repro.cluster.monitor import ResourceMonitor
from repro.cluster.resources import ResourceVector
from repro.cluster.task import Job, Task, TaskState
from repro.cluster.topology import ClusterTopology


@dataclass
class Placement:
    """A task-to-machine assignment decided by a scheduler."""

    task_id: int
    machine_id: int


class ClusterState:
    """Jobs, tasks, topology, and the current placement of running tasks."""

    def __init__(self, topology: ClusterTopology) -> None:
        self.topology = topology
        self.jobs: Dict[int, Job] = {}
        self.tasks: Dict[int, Task] = {}
        #: Live (non-terminated) tasks only.  ``tasks`` keeps the full
        #: history -- metrics and post-hoc analysis need completed tasks --
        #: but every per-round scan (pending / running / schedulable)
        #: iterates this index instead, so scan cost is bounded by the
        #: number of live tasks rather than growing with completed-task
        #: history over a long-running cluster's lifetime.
        self._live_tasks: Dict[int, Task] = {}
        #: Tasks currently awaiting placement (submitted or evicted).  The
        #: event-driven simulator consults "is anything pending?" after
        #: *every* event, so the answer must be O(1) rather than a scan of
        #: the live set; every mutator below keeps this index exact.
        self._pending_tasks: Dict[int, Task] = {}
        #: Compact JSON of each finished job, by job id, which the snapshot
        #: writer (:mod:`repro.service.durability`) encodes once: a job
        #: whose tasks have all terminated never changes again.  A mutator
        #: that changes a job's task list drops its entry.
        self.encoded_jobs: Dict[int, bytes] = {}
        #: Typed dirty sets accumulated between scheduling rounds; every
        #: mutator below marks the entities it touches so the graph manager
        #: can update the flow network incrementally.
        self.dirty = DirtyTracker()
        self.monitor = ResourceMonitor(topology)
        # Load-statistics refreshes are graph-relevant for load-sensitive
        # policies, so they feed the dirty tracker too.
        self.monitor.on_update = self.dirty.mark_machine_load
        self._machine_tasks: Dict[int, set] = {
            machine_id: set() for machine_id in topology.machines
        }
        #: Machines that are available *and* have at least one free slot.
        #: Every mutator below that changes a machine's occupancy or
        #: availability refreshes its entry, so queue-based schedulers can
        #: enumerate feasible machines in O(|free machines|) instead of
        #: scanning the whole topology (the ROADMAP's 10k-machine headroom
        #: for the baselines).  A dict (insertion-ordered) used as a set.
        self._free_slot_index: Dict[int, None] = {
            machine_id: None
            for machine_id, machine in topology.machines.items()
            if machine.is_available and machine.num_slots > 0
        }

    def __eq__(self, other: object) -> bool:
        """Deep equality over everything the scheduler can observe.

        Compares the topology (machines with health state, racks, the
        membership version), the full job/task ledger, and every derived
        index (live/terminated split, pending index, per-machine task
        sets, free-slot index).  The dirty tracker and the monitor are
        deliberately excluded: both are process-local bookkeeping (drain
        epochs, observed load samples) that legitimately differs between
        an original and a crash-recovered state without the states being
        schedulably different.  Used by the snapshot round-trip tests and
        the recovery-equivalence harness.
        """
        if not isinstance(other, ClusterState):
            return NotImplemented
        return (
            self.topology.version == other.topology.version
            and self.topology.machines == other.topology.machines
            and self.topology.racks == other.topology.racks
            and self.jobs == other.jobs
            and self.tasks == other.tasks
            and self._machine_tasks == other._machine_tasks
            and set(self._pending_tasks) == set(other._pending_tasks)
            and set(self._live_tasks) == set(other._live_tasks)
            and set(self._free_slot_index) == set(other._free_slot_index)
        )

    __hash__ = object.__hash__

    def _refresh_free_slot_entry(self, machine_id: int) -> None:
        """Re-derive one machine's membership in the free-slot index."""
        machine = self.topology.machines.get(machine_id)
        if (
            machine is not None
            and machine.is_available
            and len(self._machine_tasks.get(machine_id, ())) < machine.num_slots
        ):
            self._free_slot_index[machine_id] = None
        else:
            self._free_slot_index.pop(machine_id, None)

    # ------------------------------------------------------------------ #
    # Workload management
    # ------------------------------------------------------------------ #
    def submit_job(self, job: Job) -> None:
        """Register a job and all of its tasks."""
        if job.job_id in self.jobs:
            raise ValueError(f"job {job.job_id} already submitted")
        self.jobs[job.job_id] = job
        for task in job.tasks:
            if task.task_id in self.tasks:
                raise ValueError(f"task {task.task_id} already submitted")
            self.tasks[task.task_id] = task
            if not task.is_finished:
                self._live_tasks[task.task_id] = task
            if task.is_pending:
                self._pending_tasks[task.task_id] = task
            self.dirty.mark_task(task.task_id)
        self.dirty.mark_job(job.job_id)

    def submit_task(self, task: Task) -> None:
        """Register a single task into an existing job."""
        job = self.jobs.get(task.job_id)
        if job is None:
            raise KeyError(f"job {task.job_id} does not exist")
        if task.task_id in self.tasks:
            raise ValueError(f"task {task.task_id} already submitted")
        job.add_task(task)
        self.encoded_jobs.pop(task.job_id, None)
        self.tasks[task.task_id] = task
        if not task.is_finished:
            self._live_tasks[task.task_id] = task
        if task.is_pending:
            self._pending_tasks[task.task_id] = task
        self.dirty.mark_task(task.task_id)
        self.dirty.mark_job(task.job_id)

    def remove_job(self, job_id: int) -> None:
        """Remove a job and its tasks (all tasks must have terminated)."""
        job = self.jobs.pop(job_id)
        self.encoded_jobs.pop(job_id, None)
        for task in job.tasks:
            if task.is_running:
                raise ValueError(f"cannot remove job {job_id}: task {task.task_id} running")
            self.tasks.pop(task.task_id, None)
            if self._live_tasks.pop(task.task_id, None) is not None:
                # A task leaving the schedulable set is always marked, so a
                # consumer never has to scan for departures.
                self.dirty.mark_task(task.task_id)
            self._pending_tasks.pop(task.task_id, None)
        self.dirty.mark_job(job_id)

    # ------------------------------------------------------------------ #
    # Placement management
    # ------------------------------------------------------------------ #
    def place_task(self, task_id: int, machine_id: int, now: float) -> None:
        """Place a pending task onto a machine and start it."""
        task = self.tasks[task_id]
        machine = self.topology.machine(machine_id)
        if not machine.is_available:
            raise ValueError(f"machine {machine_id} is not available")
        if len(self._machine_tasks[machine_id]) >= machine.num_slots:
            raise ValueError(f"machine {machine_id} has no free slots")
        if task.is_running:
            raise ValueError(f"task {task_id} is already running")
        task.state = TaskState.RUNNING
        task.machine_id = machine_id
        task.last_machine_id = machine_id
        if task.placement_time is None:
            task.placement_time = now
        task.start_time = now
        self._machine_tasks[machine_id].add(task_id)
        self._refresh_free_slot_entry(machine_id)
        self._pending_tasks.pop(task_id, None)
        self.dirty.mark_task(task_id)
        self.dirty.mark_machine_load(machine_id)

    def migrate_task(self, task_id: int, machine_id: int, now: float) -> None:
        """Move a running task to another machine (preempt + restart)."""
        task = self.tasks[task_id]
        if not task.is_running:
            raise ValueError(f"task {task_id} is not running")
        self._machine_tasks[task.machine_id].discard(task_id)
        self._refresh_free_slot_entry(task.machine_id)
        self.dirty.mark_machine_load(task.machine_id)
        task.state = TaskState.SUBMITTED
        task.machine_id = None
        self.place_task(task_id, machine_id, now)

    def preempt_task(self, task_id: int, now: float) -> None:
        """Preempt a running task; it becomes pending again."""
        task = self.tasks[task_id]
        if not task.is_running:
            raise ValueError(f"task {task_id} is not running")
        self._machine_tasks[task.machine_id].discard(task_id)
        self._refresh_free_slot_entry(task.machine_id)
        self.dirty.mark_task(task_id)
        self.dirty.mark_machine_load(task.machine_id)
        task.state = TaskState.PREEMPTED
        task.machine_id = None
        task.start_time = None
        self._pending_tasks[task_id] = task

    def complete_task(self, task_id: int, now: float) -> None:
        """Mark a running task as completed and free its slot.

        The task keeps its ``machine_id`` so post-hoc metrics (e.g. the data
        locality of the placement it ran with) remain computable.
        """
        task = self.tasks[task_id]
        if not task.is_running:
            raise ValueError(f"task {task_id} is not running")
        self._machine_tasks[task.machine_id].discard(task_id)
        self._refresh_free_slot_entry(task.machine_id)
        self.dirty.mark_task(task_id)
        self.dirty.mark_machine_load(task.machine_id)
        task.state = TaskState.COMPLETED
        task.finish_time = now
        # The task is terminal: retire it from the live index so future
        # per-round scans never revisit it (it stays in ``tasks`` for
        # metrics and post-hoc locality analysis).
        self._live_tasks.pop(task_id, None)

    def fail_machine(self, machine_id: int, now: float) -> List[int]:
        """Fail a machine; its tasks become pending again.

        Returns the identifiers of the evicted tasks.
        """
        machine = self.topology.machine(machine_id)
        machine.fail()
        self.dirty.mark_machine_availability(machine_id)
        evicted = list(self._machine_tasks[machine_id])
        for task_id in evicted:
            task = self.tasks[task_id]
            task.state = TaskState.PREEMPTED
            task.machine_id = None
            task.start_time = None
            self._pending_tasks[task_id] = task
            self.dirty.mark_task(task_id)
        self._machine_tasks[machine_id].clear()
        self._refresh_free_slot_entry(machine_id)
        return evicted

    def recover_machine(self, machine_id: int, now: float = 0.0) -> None:
        """Bring a failed machine back into the schedulable set."""
        machine = self.topology.machine(machine_id)
        machine.recover()
        self._refresh_free_slot_entry(machine_id)
        self.dirty.mark_machine_availability(machine_id)

    def add_machine(self, machine: Machine) -> None:
        """Add a machine to the topology (a machine joined the cluster)."""
        self.topology.add_machine(machine)
        self._machine_tasks.setdefault(machine.machine_id, set())
        self._refresh_free_slot_entry(machine.machine_id)
        self.dirty.mark_machine_availability(machine.machine_id)

    # ------------------------------------------------------------------ #
    # Queries used by scheduling policies
    # ------------------------------------------------------------------ #
    def pending_tasks(self) -> List[Task]:
        """Return tasks waiting to be placed, oldest submission first."""
        pending = list(self._pending_tasks.values())
        pending.sort(key=lambda t: (t.submit_time, t.task_id))
        return pending

    @property
    def num_pending_tasks(self) -> int:
        """Number of tasks awaiting placement, in O(1).

        The event-driven simulator checks this after every event to decide
        whether a scheduling round could do anything, so it must not scan.
        """
        return len(self._pending_tasks)

    def running_tasks(self) -> List[Task]:
        """Return currently running tasks."""
        return [t for t in self._live_tasks.values() if t.is_running]

    def schedulable_tasks(self) -> List[Task]:
        """Return tasks eligible for (re)scheduling: pending plus running.

        Flow-based scheduling continuously reconsiders the entire workload,
        so running tasks also appear in the flow network.  The scan covers
        the live-task index only, so its cost is bounded by the number of
        live tasks regardless of how much completed history ``tasks``
        retains.
        """
        return [
            t for t in self._live_tasks.values() if t.is_pending or t.is_running
        ]

    def schedulable_task(self, task_id: int) -> Optional[Task]:
        """The task if it is schedulable right now, else ``None``; O(1).

        Every non-terminated task is pending or running, so the live index
        answers this without looking at the task.
        """
        return self._live_tasks.get(task_id)

    @property
    def num_schedulable_tasks(self) -> int:
        """``len(schedulable_tasks())`` in O(1)."""
        return len(self._live_tasks)

    def pending_task_ids(self) -> KeysView[int]:
        """Ids of the tasks awaiting placement: a live view, not a copy."""
        return self._pending_tasks.keys()

    @property
    def num_live_tasks(self) -> int:
        """Number of non-terminated tasks (the per-round scan bound)."""
        return len(self._live_tasks)

    def live_tasks(self) -> List[Task]:
        """Return every non-terminated task (pending, running, preempted)."""
        return list(self._live_tasks.values())

    def terminated_task_count(self) -> int:
        """Number of tasks retained only as history (completed / failed)."""
        return len(self.tasks) - len(self._live_tasks)

    def tasks_on_machine(self, machine_id: int) -> List[Task]:
        """Return the tasks currently running on a machine."""
        return [self.tasks[t] for t in self._machine_tasks.get(machine_id, ())]

    def task_count_on_machine(self, machine_id: int) -> int:
        """Return how many tasks run on a machine."""
        return len(self._machine_tasks.get(machine_id, ()))

    def free_slots(self, machine_id: int) -> int:
        """Return the number of free slots on a machine."""
        machine = self.topology.machine(machine_id)
        if not machine.is_available:
            return 0
        return machine.num_slots - len(self._machine_tasks[machine_id])

    def machines_with_free_slots(self) -> List[Machine]:
        """Return available machines holding at least one free slot.

        Served from the incrementally maintained free-slot index, so the
        cost is O(|result| log |result|) -- the sort keeps candidate order
        identical to a topology scan -- rather than O(|machines|).  This is
        what lets the queue-based baselines dispatch against 10k-machine
        clusters without a per-task full scan.
        """
        machines = self.topology.machines
        return [machines[mid] for mid in sorted(self._free_slot_index)]

    def total_free_slots(self) -> int:
        """Return the number of free slots across the cluster."""
        return sum(self.free_slots(m) for m in self._free_slot_index)

    def slot_utilization(self) -> float:
        """Return the fraction of slots currently occupied."""
        total = self.topology.total_slots
        if total == 0:
            return 0.0
        used = sum(len(tasks) for tasks in self._machine_tasks.values())
        return used / total

    def resources_in_use(self, machine_id: int) -> ResourceVector:
        """Return the multi-dimensional resources reserved on a machine.

        Sums the requests of the tasks currently running there; used by the
        multi-dimensional policy's Borg-style feasibility check.
        """
        return ResourceVector.sum(
            ResourceVector.for_task(task) for task in self.tasks_on_machine(machine_id)
        )

    def spare_resources(self, machine_id: int) -> ResourceVector:
        """Return the unreserved multi-dimensional capacity of a machine.

        A failed or drained machine has no spare capacity.
        """
        machine = self.topology.machine(machine_id)
        if not machine.is_available:
            return ResourceVector.zero()
        return ResourceVector.for_machine(machine) - self.resources_in_use(machine_id)

    def task_fits(self, task: Task, machine_id: int) -> bool:
        """Return whether a task's resource request fits on a machine.

        The check ignores the task's own reservation when it already runs on
        the machine, so a running task always "fits" where it is.
        """
        spare = self.spare_resources(machine_id)
        if task.is_running and task.machine_id == machine_id:
            spare = spare + ResourceVector.for_task(task)
        return ResourceVector.for_task(task).fits_into(spare)

    def network_bandwidth_in_use(self, machine_id: int) -> int:
        """Return the bandwidth (Mb/s) reserved by tasks on a machine."""
        return sum(t.network_request_mbps for t in self.tasks_on_machine(machine_id))

    def spare_network_bandwidth(self, machine_id: int) -> int:
        """Return unreserved NIC bandwidth (Mb/s) on a machine.

        Combines static reservations with the monitor's observed background
        use, mirroring the network-aware policy's inputs (Figure 6c).
        """
        machine = self.topology.machine(machine_id)
        reserved = self.network_bandwidth_in_use(machine_id)
        observed = self.monitor.statistics(machine_id).network_used_mbps
        return max(0, machine.network_bandwidth_mbps - reserved - observed)

    def placements(self) -> List[Placement]:
        """Return the current task-to-machine assignments."""
        return [
            Placement(task_id=t.task_id, machine_id=t.machine_id)
            for t in self.running_tasks()
        ]
