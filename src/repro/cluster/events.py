"""The dirty-set tracker: cluster changes as the scheduler consumes them.

The simulator's timed events live in :mod:`repro.simulation.events`; this
module makes graph construction event-driven: every :class:`~repro.cluster.state.ClusterState`
mutation (task submitted/placed/completed/evicted, machine
added/removed/failed/recovered, load-statistics refresh) marks the touched
entities dirty, and :meth:`repro.core.graph_manager.GraphManager.update`
consumes the accumulated :class:`DirtySnapshot` to re-derive arcs for the
dirty entities only instead of rebuilding the whole flow network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Set


@dataclass
class DirtySnapshot:
    """The typed dirty sets accumulated between two scheduling rounds.

    Attributes:
        epoch: Tracker epoch this snapshot closed (monotonic; consecutive
            drains return consecutive epochs, which is how a consumer
            detects that another consumer drained events it never saw).
        tasks: Tasks whose scheduling-relevant state changed (submitted,
            placed, migrated, preempted, completed, evicted).
        jobs: Jobs whose task membership changed (affects the capacity of
            the job's unscheduled-aggregator arc).
        machines_availability: Machines whose membership in the schedulable
            set changed (added, removed, failed, recovered) -- these can
            invalidate arcs of *other* entities (preference arcs, rack
            aggregation capacities).
        machines_load: Machines whose load changed (task placed/finished
            there, monitoring refresh) without an availability change.
        full: True when something happened that cannot be attributed to
            individual entities; the consumer must treat every entity as
            dirty.
    """

    epoch: int = 0
    tasks: Set[int] = field(default_factory=set)
    jobs: Set[int] = field(default_factory=set)
    machines_availability: Set[int] = field(default_factory=set)
    machines_load: Set[int] = field(default_factory=set)
    full: bool = False

    @property
    def machines(self) -> Set[int]:
        """All dirty machines, regardless of why they are dirty."""
        return self.machines_availability | self.machines_load

    def __bool__(self) -> bool:
        return bool(
            self.full
            or self.tasks
            or self.jobs
            or self.machines_availability
            or self.machines_load
        )


class DirtyTracker:
    """Accumulates typed dirty events between scheduling rounds.

    :class:`~repro.cluster.state.ClusterState` owns one tracker and feeds it
    from every mutator.  A consumer calls :meth:`drain` once per round; the
    returned snapshot's epoch chain lets it verify no other consumer drained
    events in between (in which case its derived state is stale and it must
    treat every entity as dirty).
    """

    #: Once this many entities are pending, the tracker collapses to a
    #: ``full`` snapshot: a consumer would re-derive everything rather than
    #: replay that much churn anyway, and -- crucially -- a state whose tracker is never
    #: drained (queue-based baseline schedulers) stays bounded instead of
    #: accumulating every entity id ever touched.
    MAX_PENDING = 65_536

    def __init__(self) -> None:
        self.epoch = 0
        self._pending = DirtySnapshot()

    # ------------------------------------------------------------------ #
    # Marking (called by ClusterState mutators and the resource monitor)
    # ------------------------------------------------------------------ #
    def _overflowed(self) -> bool:
        pending = self._pending
        if pending.full:
            return True
        if (
            len(pending.tasks) + len(pending.jobs) + len(pending.machines_load)
            >= self.MAX_PENDING
        ):
            self.mark_all()
            return True
        return False

    def mark_task(self, task_id: int) -> None:
        """Mark a task's scheduling state as changed."""
        if not self._overflowed():
            self._pending.tasks.add(task_id)

    def mark_job(self, job_id: int) -> None:
        """Mark a job's task membership as changed."""
        if not self._overflowed():
            self._pending.jobs.add(job_id)

    def mark_machine_availability(self, machine_id: int) -> None:
        """Mark a machine's schedulability as changed (fail/recover/add)."""
        if not self._overflowed():
            self._pending.machines_availability.add(machine_id)
            self._pending.machines_load.add(machine_id)

    def mark_machine_load(self, machine_id: int) -> None:
        """Mark a machine's load as changed (placement, completion, stats)."""
        if not self._overflowed():
            self._pending.machines_load.add(machine_id)

    def mark_all(self) -> None:
        """Mark everything dirty (untracked or wholesale mutation).

        Also clears the per-entity sets: a full snapshot supersedes them,
        so an undrained tracker stays O(1) once it has overflowed.
        """
        pending = self._pending
        pending.full = True
        pending.tasks.clear()
        pending.jobs.clear()
        pending.machines_availability.clear()
        pending.machines_load.clear()

    # ------------------------------------------------------------------ #
    # Consumption
    # ------------------------------------------------------------------ #
    def drain(self) -> DirtySnapshot:
        """Return and clear the accumulated dirty sets.

        Each drain advances the epoch by one; a consumer that remembers the
        epoch of its previous drain can detect missed events by checking the
        next snapshot's epoch is exactly one greater.
        """
        self.epoch += 1
        snapshot = self._pending
        snapshot.epoch = self.epoch
        self._pending = DirtySnapshot()
        return snapshot
