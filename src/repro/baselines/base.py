"""Queue-based scheduler base class (Section 2.1 of the paper).

Queue-based schedulers -- whether centralized or distributed -- process one
task at a time: dequeue, feasibility-check the machines, score them, place
the task on the best-scoring machine.  Subclasses only implement the
machine-selection step; the queueing, feasibility checking, per-task
decision overhead accounting, and decision assembly are shared.

Queue-based schedulers never reconsider running tasks (no rescheduling, no
preemption), which is precisely the structural difference to flow-based
scheduling the paper highlights.
"""

from __future__ import annotations

import abc
import random
from typing import Dict, List, Optional

from repro.cluster.machine import Machine
from repro.cluster.state import ClusterState
from repro.cluster.task import Task
from repro.core.scheduler import SchedulingDecision, apply_decision


class QueueBasedScheduler(abc.ABC):
    """Task-by-task scheduler processing a FIFO queue of pending tasks."""

    #: Human-readable scheduler name.
    name: str = "queue_based"

    def __init__(
        self,
        per_task_decision_seconds: float = 0.002,
        seed: int = 42,
    ) -> None:
        """Create the scheduler.

        Args:
            per_task_decision_seconds: Modeled decision time per task; the
                k-th task dequeued in a run is placed after ``k`` times this
                amount (queue-based schedulers pipeline, but each decision
                still takes time).
            seed: Seed for any randomized selection the subclass performs.
        """
        self.per_task_decision_seconds = per_task_decision_seconds
        self.rng = random.Random(seed)
        self.tasks_scheduled = 0
        self.runs = 0
        # Placements made earlier in the current run, so selection logic can
        # account for tasks it just placed (a real scheduler's in-memory
        # state updates between consecutive dequeues).
        self._round_placements: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Subclass interface
    # ------------------------------------------------------------------ #
    @abc.abstractmethod
    def select_machine(
        self, task: Task, candidates: List[Machine], state: ClusterState
    ) -> Optional[int]:
        """Pick a machine for the task from the feasible candidates.

        Returns the chosen machine id, or ``None`` to leave the task queued.
        """

    # ------------------------------------------------------------------ #
    # Shared queue processing
    # ------------------------------------------------------------------ #
    def effective_task_count(self, state: ClusterState, machine_id: int) -> int:
        """Tasks on a machine, including ones placed earlier in this run."""
        return state.task_count_on_machine(machine_id) + self._round_placements.get(
            machine_id, 0
        )

    def effective_free_slots(self, state: ClusterState, machine_id: int) -> int:
        """Free slots on a machine, net of placements made earlier in this run."""
        return state.free_slots(machine_id) - self._round_placements.get(machine_id, 0)

    def feasible_machines(self, task: Task, state: ClusterState) -> List[Machine]:
        """Return the machines with a free slot left for the task, net of
        the placements made earlier in this run.

        Candidates come from the cluster state's incrementally maintained
        free-slot index, so the per-task cost is bounded by the number of
        machines with free capacity -- on a busy large cluster a small
        fraction of the fleet -- instead of a full O(|machines|) topology
        scan per dequeue.
        """
        return [
            machine
            for machine in state.machines_with_free_slots()
            if self.effective_free_slots(state, machine.machine_id) > 0
        ]

    def schedule(self, state: ClusterState, now: float = 0.0) -> SchedulingDecision:
        """Process the queue of pending tasks once, oldest first.

        Placements are reflected into a scratch view of free slots as the
        queue drains, so one run never overcommits a machine; tasks that
        cannot be placed remain queued for the next run.
        """
        decision = SchedulingDecision()
        self._round_placements = {}
        elapsed = 0.0
        for task in state.pending_tasks():
            elapsed += self.per_task_decision_seconds
            candidates = self.feasible_machines(task, state)
            if not candidates:
                decision.unscheduled.append(task.task_id)
                continue
            machine_id = self.select_machine(task, candidates, state)
            if machine_id is None:
                decision.unscheduled.append(task.task_id)
                continue
            decision.placements[task.task_id] = machine_id
            decision.per_task_latency[task.task_id] = elapsed
            self._round_placements[machine_id] = self._round_placements.get(machine_id, 0) + 1
            self.tasks_scheduled += 1
        decision.algorithm_runtime = elapsed
        self.runs += 1
        return decision

    def apply(self, state: ClusterState, decision: SchedulingDecision, now: float) -> None:
        """Apply the decision (placements only) to the cluster state."""
        apply_decision(state, decision, now)

    def schedule_and_apply(self, state: ClusterState, now: float = 0.0) -> SchedulingDecision:
        """Convenience wrapper: schedule and immediately apply the decision."""
        decision = self.schedule(state, now)
        self.apply(state, decision, now)
        return decision
