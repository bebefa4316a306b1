"""Event-driven cluster simulator (the paper's "Fauxmaster"-style setup).

The simulator replays a workload against a *real* scheduler instance: the
scheduler's actual placement code runs on every invocation, and the measured
algorithm runtime is charged as virtual time before the resulting placements
take effect.  This mirrors how the paper's simulator runs Firmament's real
code and scheduling logic against simulated machines, stubbing out only RPCs
and task execution.

The architecture follows Firmament's own simulator (``simulator.cc``): an
:class:`~repro.simulation.events.EventManager` holds one typed event queue
(``TASK_SUBMIT``, ``TASK_END_RUNTIME``, ``ADD_MACHINE``, ``REMOVE_MACHINE``,
``SCHEDULER_WAKE``), and :class:`ClusterSimulator` interprets the events
against cluster state and drives batch scheduling off the event clock.

A round is atomic, as a ``serve`` round is: ``schedule`` and its apply
happen at one point on the virtual clock, the charged finish ``start +
algorithm_runtime * runtime_scale``.  Every event whose time falls inside
the charged solve is admitted after the apply, and all of them before the
next round starts, so they coalesce into that round (``serve``'s inbox
rule).  The state therefore cannot move under a decision, and the decision
is put on the state by :func:`~repro.core.scheduler.apply_decision`, the
applier every scheduler and the service share; an infeasible action raises.

Every recorded round is either **applied** or **voided**.  A round whose
finish falls outside the simulation window (past ``max_time`` without
draining, or past the hard stop) is voided when it is decided and is the
run's last round.  The conservation law checked by
:func:`verify_placement_conservation` (and fuzzed by the event-order suite)
is::

    sum(record.num_placements) == placements applied to state
                                  + voided round's placements

Two scheduler shapes are supported transparently:

* flow-based schedulers (:class:`~repro.core.scheduler.FirmamentScheduler`),
  whose whole decision becomes visible when the solver finishes, and
* queue-based baselines (:class:`~repro.baselines.base.QueueBasedScheduler`),
  whose task ``k`` of a run starts once ``k`` decisions have elapsed
  (``decision.per_task_latency``), at the latest at the finish.

Workloads can be submitted up front (``submit_jobs``) or *streamed*
(``submit_job_stream``): a job iterator is pulled one job at a time as the
event clock reaches each submission, so trace-scale replays (10^5--10^6
tasks) never materialize the whole workload in the queue.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional

from repro.cluster.machine import Machine
from repro.cluster.state import ClusterState
from repro.cluster.task import Job, Task
from repro.core.scheduler import SchedulingDecision, apply_decision
from repro.simulation.events import EventManager, EventType, SimulationEvent
from repro.simulation.metrics import MetricsSummary, collect_metrics
from repro.solvers.base import SolverStatistics


@dataclass
class SimulationConfig:
    """Simulator parameters.

    Attributes:
        max_time: Stop the simulation at this virtual time (seconds).
        runtime_scale: Multiply the measured algorithm runtime by this factor
            before charging it as virtual time.  1.0 charges the Python
            solver's real runtime; values below 1.0 model the faster C++
            solver of the paper, values above 1.0 model larger clusters.
        min_scheduler_interval: Do not start a new scheduling run within this
            many virtual seconds of the previous run starting (batch mode;
            Firmament's batch step).  A run deferred by the interval is
            retried at the batch boundary via a ``SCHEDULER_WAKE`` event, so
            batching delays work by at most one interval rather than until
            the next workload event.
        reschedule_running: Invoke the scheduler even when no task is
            pending, letting flow-based schedulers rebalance running work.
        drain: Keep simulating past ``max_time`` (but submit nothing new)
            until all batch tasks have completed.  Without draining, a round
            finishing past ``max_time`` is voided, never applied.
        tie_break_seed: When set, same-timestamp events are processed in an
            order randomized by this seed instead of insertion order.  Used
            by the event-order fuzz suite to explore interleavings; leave
            ``None`` for deterministic FIFO behaviour.
    """

    max_time: float = 3_600.0
    runtime_scale: float = 1.0
    min_scheduler_interval: float = 0.0
    reschedule_running: bool = False
    drain: bool = True
    tie_break_seed: Optional[int] = None


@dataclass
class ScheduleRecord:
    """One scheduler invocation, for timeline-style experiments (Figure 16)."""

    start_time: float
    algorithm_runtime: float
    num_placements: int
    num_pending_before: int
    winning_algorithm: str = ""
    #: True when the round's decision never took effect: its charged finish
    #: fell outside the simulation window (past ``max_time`` without
    #: draining, or past the hard stop).  Only a run's last round can be
    #: voided; it is counted in ``SimulationResult.rounds_voided``.
    voided: bool = False
    #: Graph-maintenance wall time of the round, attributed separately from
    #: the solver runtime (flow-based schedulers only; zero for baselines).
    graph_update_seconds: float = 0.0
    #: The decision's ``degraded_reason``: ``"round_deadline"`` when no
    #: solver finished in budget and the previous placements were reused.
    degraded_reason: str = ""
    #: The round's counters: a copy of the decision's
    #: ``solver_result.statistics`` (defaults for baselines and rounds
    #: without a result), ``degraded_round`` raised to 1 when the decision
    #: degraded.
    statistics: SolverStatistics = field(default_factory=SolverStatistics)


@dataclass
class SimulationResult:
    """Everything a benchmark needs from one simulation run."""

    state: ClusterState
    metrics: MetricsSummary
    schedule_records: List[ScheduleRecord] = field(default_factory=list)
    virtual_time: float = 0.0
    #: Scheduler rounds whose decision fell outside the simulation window
    #: and was voided instead of applied (0 or 1: a voided round ends the
    #: run), so ``schedule_records`` never claims placements the state
    #: never saw.
    rounds_voided: int = 0
    #: Placement actions (starts + migrations) the apply put on the state,
    #: counted off the tasks it started or moved.
    placements_applied: int = 0
    #: Events the simulation processed (event-engine throughput metric).
    events_processed: int = 0

    @property
    def algorithm_runtimes(self) -> List[float]:
        """Per-run algorithm runtimes in invocation order."""
        return [record.algorithm_runtime for record in self.schedule_records]


def verify_placement_conservation(result: SimulationResult) -> Dict[str, int]:
    """Check the records-vs-applied placement conservation law.

    Every placement a :class:`ScheduleRecord` claims must be accounted for:
    applied to cluster state, or part of the voided round, which can only
    be the run's last.  Raises :class:`AssertionError` on any violation;
    returns the tallied counts otherwise.  The event-order fuzz suite
    asserts this on every run, under every interleaving.
    """
    records = result.schedule_records
    recorded = sum(record.num_placements for record in records)
    voided = sum(record.num_placements for record in records if record.voided)
    if any(record.voided for record in records[:-1]):
        raise AssertionError("a voided round is not the run's last round")
    applied = result.placements_applied
    if recorded != applied + voided:
        raise AssertionError(
            f"conservation violated: {recorded} recorded != {applied} applied "
            f"+ {voided} voided"
        )
    return {
        "recorded": recorded,
        "applied": applied,
        "voided": voided,
        "rounds_voided": result.rounds_voided,
    }


class ClusterSimulator:
    """Discrete-event simulator driving a scheduler against a cluster state.

    The simulator (Firmament's ``simulator.cc`` and ``simulator_bridge.cc``
    in one) owns all event interpretation: it mutates cluster state for
    workload and machine events, decides when to invoke the scheduler,
    charges the measured algorithm runtime as virtual time, and applies
    each round's decision at its charged finish or voids the round when
    that finish falls outside the simulation window.
    """

    def __init__(
        self,
        state: ClusterState,
        scheduler,
        config: Optional[SimulationConfig] = None,
    ) -> None:
        """Create a simulator.

        Args:
            state: Initial cluster state (may already contain running tasks).
            scheduler: A Firmament scheduler or a queue-based baseline; it
                must expose ``schedule(state, now)`` returning a
                :class:`~repro.core.scheduler.SchedulingDecision`.
            config: Simulation parameters.
        """
        self.state = state
        self.scheduler = scheduler
        self.config = config or SimulationConfig()
        tie_rng = (
            random.Random(self.config.tie_break_seed)
            if self.config.tie_break_seed is not None
            else None
        )
        self.events = EventManager(tie_break_rng=tie_rng)
        #: Current virtual time.
        self.now = 0.0
        #: Per-round records in invocation order.
        self.schedule_records: List[ScheduleRecord] = []
        self.placements_applied = 0
        # Hard stop protecting against workloads that can never drain (e.g.
        # pending tasks behind never-completing service jobs).
        self._hard_stop = self.config.max_time * 2.0 + 600.0
        self._last_schedule_start = -float("inf")
        self._next_wake = -float("inf")
        # Change detection (Figure 2b): the scheduler is only invoked when
        # cluster state changed since the previous invocation started.
        self._state_version = 0
        self._scheduled_version = -1
        # Completion events already scheduled for running tasks.
        for task in state.running_tasks():
            self.schedule_completion(task, task.start_time or 0.0)

    # ------------------------------------------------------------------ #
    # Event producers
    # ------------------------------------------------------------------ #
    def submit_job(self, job: Job, time: Optional[float] = None) -> None:
        """Enqueue a job submission event at ``time`` (defaults to the job's
        own submit time)."""
        when = job.submit_time if time is None else time
        self.events.add_event(when, EventType.TASK_SUBMIT, job)

    def submit_jobs(self, jobs: List[Job]) -> None:
        """Enqueue submission events for a list of jobs."""
        for job in jobs:
            self.submit_job(job)

    def submit_job_stream(self, jobs: Iterable[Job]) -> None:
        """Attach a streaming job source.

        Only the source's *next* job sits in the event queue at any time;
        when its submission fires, the following job is pulled and queued.
        Sources must yield jobs in non-decreasing ``submit_time`` order
        (trace readers and the synthetic generator both do); a job arriving
        out of order is clamped to the stream's current front so the event
        clock never runs backwards.
        """
        self._advance_stream(iter(jobs), after=-float("inf"))

    def _advance_stream(self, stream: Iterator[Job], after: float) -> None:
        job = next(stream, None)
        if job is None:
            return
        when = max(job.submit_time, after)
        self.events.add_event(when, EventType.TASK_SUBMIT, (job, stream))

    def fail_machine_at(self, machine_id: int, time: float) -> None:
        """Enqueue a machine removal (failure) event.

        When the event fires, the machine's tasks are evicted back to the
        pending state (Section 5.2: machine failures reduce to capacity
        changes plus supply changes in the flow network) and the scheduler
        is re-invoked on the next opportunity.
        """
        self.events.add_event(time, EventType.REMOVE_MACHINE, machine_id)

    def recover_machine_at(self, machine_id: int, time: float) -> None:
        """Enqueue a machine re-addition event (the machine rejoins)."""
        self.events.add_event(time, EventType.ADD_MACHINE, machine_id)

    def add_machine_at(self, machine: Machine, time: float) -> None:
        """Enqueue the addition of a brand-new machine to the cluster."""
        self.events.add_event(time, EventType.ADD_MACHINE, machine)

    def schedule_completion(self, task: Task, start_time: float) -> None:
        """Queue the task's runtime-expiry event for a placement."""
        if task.duration is None:
            return
        # The payload carries the start time the event was scheduled for, so
        # a stale completion (the task was preempted, migrated or evicted
        # and later restarted) can be recognized and ignored.
        self.events.add_event(
            start_time + task.duration,
            EventType.TASK_END_RUNTIME,
            (task.task_id, start_time),
        )

    # ------------------------------------------------------------------ #
    # Event interpretation
    # ------------------------------------------------------------------ #
    def _admit(self, event: SimulationEvent) -> None:
        """Process one event against cluster state, if it is in the window.

        Past ``max_time`` only a draining run processes events, and never a
        submission.
        """
        kind = event.event_type
        if event.time > self.config.max_time and not (
            self.config.drain and kind is not EventType.TASK_SUBMIT
        ):
            return
        self.now = max(self.now, event.time)
        if kind is EventType.TASK_SUBMIT:
            self._handle_submission(event.payload)
        elif kind is EventType.TASK_END_RUNTIME:
            self._handle_completion(*event.payload)
        elif kind is EventType.REMOVE_MACHINE:
            self._handle_machine_removal(event.payload)
        elif kind is EventType.ADD_MACHINE:
            self._handle_machine_addition(event.payload)
        # SCHEDULER_WAKE advances the clock only; the retry happens in
        # _round_due, which the run loop consults after every event.

    def _handle_submission(self, payload) -> None:
        if isinstance(payload, tuple):
            job, stream = payload
            self.state.submit_job(job)
            self._advance_stream(stream, after=job.submit_time)
        else:
            self.state.submit_job(payload)
        self._state_version += 1

    def _handle_completion(self, task_id: int, scheduled_start: float) -> None:
        task = self.state.tasks.get(task_id)
        if task is None or not task.is_running or task.start_time != scheduled_start:
            # Stale event: the task was preempted, migrated or evicted since;
            # its completion is rescheduled when it restarts.
            return
        self.state.complete_task(task_id, self.now)
        self._state_version += 1

    def _handle_machine_removal(self, machine_id: int) -> None:
        machine = self.state.topology.machines.get(machine_id)
        if machine is None or not machine.is_available:
            return
        evicted = self.state.fail_machine(machine_id, self.now)
        # Evicted tasks restart from scratch once re-placed; their stale
        # completion events are ignored because the tasks are no longer
        # running when those events fire.
        self._state_version += 1 + len(evicted)

    def _handle_machine_addition(self, payload) -> None:
        if isinstance(payload, Machine):
            if payload.machine_id not in self.state.topology.machines:
                self.state.add_machine(payload)
                self._state_version += 1
            return
        machine = self.state.topology.machines.get(payload)
        if machine is None or machine.is_available:
            return
        self.state.recover_machine(payload, self.now)
        self._state_version += 1

    # ------------------------------------------------------------------ #
    # Scheduler invocation
    # ------------------------------------------------------------------ #
    def _round_due(self) -> bool:
        """Whether the event state calls for a scheduling round now."""
        if self._state_version == self._scheduled_version:
            # Nothing changed since the last run started; rerunning the
            # solver could not produce a different answer (change detection,
            # Figure 2b of the paper).
            return False
        config = self.config
        if self.now - self._last_schedule_start < config.min_scheduler_interval:
            # Batch mode: retry at the batch boundary instead of waiting
            # for the next workload event.
            wake_at = self._last_schedule_start + config.min_scheduler_interval
            if self._next_wake < wake_at:
                self._next_wake = wake_at
                self.events.add_event(wake_at, EventType.SCHEDULER_WAKE)
            return False
        has_pending = self.state.num_pending_tasks > 0
        if not has_pending and not config.reschedule_running:
            return False
        if not has_pending and not self.state.running_tasks():
            return False
        # Draining with no free slot: nothing can be placed until a slot
        # frees up, so wait for the next completion instead of spinning the
        # solver.
        return self.now <= config.max_time or self.state.total_free_slots() > 0

    def _run_round(self) -> bool:
        """Decide and apply one round at the current time.

        Returns False when the round's finish fell outside the window: the
        round is voided and the run ends.
        """
        config = self.config
        start = self.now
        pending_before = self.state.num_pending_tasks
        decision = self.scheduler.schedule(self.state, start)
        runtime = decision.algorithm_runtime * config.runtime_scale
        result = decision.solver_result
        if result is None:
            winning, statistics = "", SolverStatistics()
        else:
            winning, statistics = result.algorithm, replace(result.statistics)
        statistics.degraded_round = max(
            statistics.degraded_round, int(decision.degraded)
        )
        record = ScheduleRecord(
            start_time=start,
            algorithm_runtime=runtime,
            num_placements=decision.num_assignments,
            num_pending_before=pending_before,
            winning_algorithm=winning,
            graph_update_seconds=decision.graph_update_seconds,
            degraded_reason=decision.degraded_reason,
            statistics=statistics,
        )
        self.schedule_records.append(record)
        self._last_schedule_start = start
        self._scheduled_version = self._state_version
        finish = start + runtime
        if finish > self._hard_stop or (finish > config.max_time and not config.drain):
            record.voided = True
            return False
        self.now = finish
        self._apply(decision, start)
        # serve's inbox rule: what arrived while the round ran is admitted
        # after its apply, all of it before the next round starts.
        events = self.events
        while events and events.peek_time() <= finish:
            self._admit(events.pop())
        return True

    def _apply(self, decision: SchedulingDecision, start: float) -> None:
        """Put the decision on the state at the current time (the finish).

        A queue-based baseline's task starts once its own decision elapsed,
        at the latest at the finish.
        """
        finish = self.now
        starts = {
            task_id: min(finish, start + latency)
            for task_id, latency in decision.per_task_latency.items()
        }
        apply_decision(self.state, decision, finish, starts)
        for task_id, machine_id in (
            *decision.migrations.items(), *decision.placements.items()
        ):
            task = self.state.tasks[task_id]
            if task.is_running and task.machine_id == machine_id:
                self.placements_applied += 1
                self.schedule_completion(task, task.start_time)
        if decision.preemptions or decision.num_assignments:
            self._state_version += 1

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self) -> SimulationResult:
        """Run the simulation until the event queue drains, time runs out,
        or a round is voided."""
        events = self.events
        running = True
        while running and events and events.peek_time() <= self._hard_stop:
            self._admit(events.pop())
            while running and self._round_due():
                running = self._run_round()

        records = self.schedule_records
        metrics = collect_metrics(
            self.state,
            algorithm_runtimes=[r.algorithm_runtime for r in records],
            rounds=[r.statistics for r in records],
        )
        return SimulationResult(
            state=self.state,
            metrics=metrics,
            schedule_records=records,
            virtual_time=self.now,
            rounds_voided=sum(r.voided for r in records),
            placements_applied=self.placements_applied,
            events_processed=events.num_events_processed,
        )

    def close(self) -> None:
        """Release scheduler resources (worker subprocesses and the like).

        Call after the last :meth:`run` when the scheduler runs cell worker
        subprocesses; a simulator driving an in-process solver has nothing
        to release and the call is a no-op.
        """
        close = getattr(self.scheduler, "close", None)
        if callable(close):
            close()
