"""Event-driven cluster simulator (the paper's "Fauxmaster"-style setup).

The simulator replays a workload against a *real* scheduler instance: the
scheduler's actual placement code runs on every invocation, and the measured
algorithm runtime is charged as virtual time before the resulting placements
take effect.  This mirrors how the paper's simulator runs Firmament's real
code and scheduling logic against simulated machines, stubbing out only RPCs
and task execution.

The architecture follows Firmament's own simulator (``simulator.cc``):

* an :class:`~repro.simulation.events.EventManager` holds one typed event
  queue (``TASK_SUBMIT``, ``TASK_END_RUNTIME``, ``ADD_MACHINE``,
  ``REMOVE_MACHINE``, ``SCHEDULER_DONE``, ``SCHEDULER_WAKE``), and
* a :class:`SimulatorBridge` interprets events against cluster state and
  drives batch scheduling off the event clock.

Every recorded scheduler round is either **applied** or explicitly
**voided** -- never silently lost.  When a round's ``SCHEDULER_DONE`` event
falls outside the simulation window (past ``max_time`` without draining, or
past the hard stop), its record is marked ``voided`` and counted in
``SimulationResult.rounds_voided``; placements skipped during apply because
cluster state drifted under the solver are counted per record as
``num_dropped``.  The conservation law checked by
:func:`verify_placement_conservation` (and fuzzed by the event-order suite)
is::

    sum(record.num_placements) ==
        placements applied to state + drift-dropped + voided rounds' placements

Two scheduler shapes are supported transparently:

* flow-based schedulers (:class:`~repro.core.scheduler.FirmamentScheduler`),
  whose whole decision becomes visible when the solver finishes, and
* queue-based baselines (:class:`~repro.baselines.base.QueueBasedScheduler`),
  whose per-task decisions become visible one after another.

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
from repro.core.scheduler import SchedulingDecision
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
            until all batch tasks have completed.  Without draining, rounds
            still in flight at ``max_time`` are voided, never applied.
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
    #: Apply-or-void accounting: placements + migrations of this round that
    #: were actually applied to cluster state when its ``SCHEDULER_DONE``
    #: event fired, resp. skipped at apply time because state drifted under
    #: the solver (task completed/evicted, slot taken).  For every round
    #: ``num_applied + num_dropped == num_placements`` unless the round was
    #: voided, in which case both stay zero.
    num_applied: int = 0
    num_dropped: int = 0
    #: True when the round's decision never took effect: its
    #: ``SCHEDULER_DONE`` fell outside the simulation window (past
    #: ``max_time`` without draining, or past the hard stop).  Voided
    #: rounds are counted in ``SimulationResult.rounds_voided`` -- a round
    #: is never silently lost.
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
    #: and was explicitly voided instead of applied (end-of-run truth:
    #: ``schedule_records`` never claims placements the state never saw).
    rounds_voided: int = 0
    #: Placement actions (starts + migrations) actually applied to state.
    placements_applied: int = 0
    #: Placement actions skipped at apply time because cluster state
    #: drifted while the solver ran (accounted per record, never silent).
    placements_dropped: int = 0
    #: Events the simulation processed (event-engine throughput metric).
    events_processed: int = 0

    @property
    def algorithm_runtimes(self) -> List[float]:
        """Per-run algorithm runtimes in invocation order."""
        return [record.algorithm_runtime for record in self.schedule_records]


def verify_placement_conservation(result: SimulationResult) -> Dict[str, int]:
    """Check the records-vs-applied placement conservation law.

    Every placement a :class:`ScheduleRecord` claims must be accounted for:
    applied to cluster state, dropped at apply time due to state drift, or
    part of an explicitly voided round.  Raises :class:`AssertionError` on
    any violation; returns the tallied counts otherwise.  The event-order
    fuzz suite asserts this on every run, under every interleaving.
    """
    recorded = applied = dropped = voided = 0
    for index, record in enumerate(result.schedule_records):
        recorded += record.num_placements
        if record.voided:
            if record.num_applied or record.num_dropped:
                raise AssertionError(
                    f"round {index}: voided but has applied/dropped counts "
                    f"({record.num_applied}/{record.num_dropped})"
                )
            voided += record.num_placements
        else:
            if record.num_applied + record.num_dropped != record.num_placements:
                raise AssertionError(
                    f"round {index}: {record.num_placements} recorded placements "
                    f"but {record.num_applied} applied + {record.num_dropped} "
                    "dropped (silent loss)"
                )
            applied += record.num_applied
            dropped += record.num_dropped
    if applied != result.placements_applied:
        raise AssertionError(
            f"per-record applied sum {applied} != placements applied to state "
            f"{result.placements_applied}"
        )
    if dropped != result.placements_dropped:
        raise AssertionError(
            f"per-record dropped sum {dropped} != simulator dropped count "
            f"{result.placements_dropped}"
        )
    if recorded != applied + dropped + voided:
        raise AssertionError(
            f"conservation violated: {recorded} recorded != {applied} applied "
            f"+ {dropped} dropped + {voided} voided"
        )
    return {
        "recorded": recorded,
        "applied": applied,
        "dropped": dropped,
        "voided": voided,
        "rounds_voided": result.rounds_voided,
    }


class SimulatorBridge:
    """Connects the event queue to cluster state and the scheduler.

    The bridge (Firmament's ``simulator_bridge.cc``) owns all event
    interpretation: it mutates cluster state for workload and machine
    events, decides when to invoke the scheduler, charges the measured
    algorithm runtime as virtual time by queueing ``SCHEDULER_DONE``, and
    guarantees each round's decision is applied exactly once or explicitly
    voided.
    """

    def __init__(
        self,
        state: ClusterState,
        scheduler,
        config: SimulationConfig,
        events: EventManager,
    ) -> None:
        self.state = state
        self.scheduler = scheduler
        self.config = config
        self.events = events
        self.now = 0.0
        self.schedule_records: List[ScheduleRecord] = []
        self.rounds_voided = 0
        self.placements_applied = 0
        self.placements_dropped = 0
        self._scheduler_busy = False
        self._last_schedule_start = -float("inf")
        self._next_wake = -float("inf")
        # Change detection (Figure 2b): the scheduler is only invoked when
        # cluster state changed since the previous invocation started.
        self._state_version = 0
        self._scheduled_version = -1

    # ------------------------------------------------------------------ #
    # Event producers
    # ------------------------------------------------------------------ #
    def submit_job(self, job: Job, time: Optional[float] = None) -> None:
        """Enqueue a job submission event at ``time`` (defaults to the job's
        own submit time)."""
        when = job.submit_time if time is None else time
        self.events.add_event(when, EventType.TASK_SUBMIT, job)

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
        # a stale completion (the task was preempted or evicted and later
        # restarted) can be recognized and ignored.
        self.events.add_event(
            start_time + task.duration,
            EventType.TASK_END_RUNTIME,
            (task.task_id, start_time),
        )

    # ------------------------------------------------------------------ #
    # Event interpretation
    # ------------------------------------------------------------------ #
    def handle(self, event: SimulationEvent) -> None:
        """Process one in-window event against cluster state."""
        self.now = max(self.now, event.time)
        kind = event.event_type
        if kind is EventType.TASK_SUBMIT:
            self._handle_submission(event.payload)
        elif kind is EventType.TASK_END_RUNTIME:
            self._handle_completion(event.payload)
        elif kind is EventType.SCHEDULER_DONE:
            self._handle_scheduler_done(event.payload)
        elif kind is EventType.REMOVE_MACHINE:
            self._handle_machine_removal(event.payload)
        elif kind is EventType.ADD_MACHINE:
            self._handle_machine_addition(event.payload)
        # SCHEDULER_WAKE advances the clock only; the retry happens in
        # maybe_run_scheduler, which the driver calls after every event.

    def void_round(self, event: SimulationEvent) -> None:
        """Explicitly void an in-flight round whose decision never lands.

        The round's record is marked ``voided`` and tallied in
        ``rounds_voided``, and the scheduler is released.  Called for ``SCHEDULER_DONE`` events that fall outside
        the simulation window -- the decision is *not* applied.
        """
        _, record_index = event.payload
        self.schedule_records[record_index].voided = True
        self.rounds_voided += 1
        self._scheduler_busy = False

    def finalize(self) -> None:
        """Drain the queue on exit, voiding any still-queued rounds.

        Everything left in the queue is outside the simulation window; the
        only events that need accounting are in-flight ``SCHEDULER_DONE``
        rounds, which are voided so their records never claim placements
        the state never saw.
        """
        for event in self.events.drain():
            if event.event_type is EventType.SCHEDULER_DONE:
                self.void_round(event)

    # ------------------------------------------------------------------ #
    # Event handlers
    # ------------------------------------------------------------------ #
    def _handle_submission(self, payload) -> None:
        if isinstance(payload, tuple):
            job, stream = payload
            self.state.submit_job(job)
            self._advance_stream(stream, after=job.submit_time)
        else:
            self.state.submit_job(payload)
        self._state_version += 1

    def _handle_completion(self, payload) -> None:
        if isinstance(payload, tuple):
            task_id, scheduled_start = payload
        else:  # pragma: no cover - compatibility with externally pushed events
            task_id, scheduled_start = payload, None
        task = self.state.tasks.get(task_id)
        if task is None or not task.is_running:
            # The task was preempted, migrated, or evicted; its completion is
            # rescheduled when it restarts.
            return
        if scheduled_start is not None and task.start_time != scheduled_start:
            # Stale event from before a preemption/eviction: the task has
            # restarted since and its new completion event is already queued.
            return
        self.state.complete_task(task_id, self.now)
        self._state_version += 1

    def _handle_scheduler_done(self, payload) -> None:
        decision, record_index = payload
        self._scheduler_busy = False
        self._apply_decision(decision, record_index, self.now)

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
    def maybe_run_scheduler(self) -> None:
        """Start a scheduling round if the event state calls for one."""
        if self._scheduler_busy:
            return
        if self._state_version == self._scheduled_version:
            # Nothing changed since the last run started; rerunning the
            # solver could not produce a different answer (change detection,
            # Figure 2b of the paper).
            return
        config = self.config
        if self.now - self._last_schedule_start < config.min_scheduler_interval:
            # Batch mode: retry at the batch boundary instead of waiting
            # for the next workload event.
            wake_at = self._last_schedule_start + config.min_scheduler_interval
            if self._next_wake < wake_at:
                self._next_wake = wake_at
                self.events.add_event(wake_at, EventType.SCHEDULER_WAKE)
            return
        has_pending = self.state.num_pending_tasks > 0
        if not has_pending and not config.reschedule_running:
            return
        if not has_pending and not self.state.running_tasks():
            return
        if self.now > config.max_time and self.state.total_free_slots() == 0:
            # Draining: nothing can be placed until a slot frees up, so wait
            # for the next completion instead of spinning the solver.
            return
        pending_before = self.state.num_pending_tasks
        decision = self.scheduler.schedule(self.state, self.now)
        runtime = decision.algorithm_runtime * config.runtime_scale
        result = decision.solver_result
        if result is None:
            winning, statistics = "", SolverStatistics()
        else:
            winning, statistics = result.algorithm, replace(result.statistics)
        statistics.degraded_round = max(
            statistics.degraded_round, int(decision.degraded)
        )
        record_index = len(self.schedule_records)
        self.schedule_records.append(
            ScheduleRecord(
                start_time=self.now,
                algorithm_runtime=runtime,
                num_placements=decision.num_assignments,
                num_pending_before=pending_before,
                winning_algorithm=winning,
                graph_update_seconds=decision.graph_update_seconds,
                degraded_reason=decision.degraded_reason,
                statistics=statistics,
            )
        )
        self._last_schedule_start = self.now
        self._scheduled_version = self._state_version
        self._scheduler_busy = True
        self.events.add_event(
            self.now + runtime, EventType.SCHEDULER_DONE, (decision, record_index)
        )

    def _apply_decision(
        self, decision: SchedulingDecision, record_index: int, finish_time: float
    ) -> None:
        """Apply a decision, tolerating state drift during the solver run.

        Placements and migrations skipped because the state moved under the
        solver (task finished or was evicted, slot taken) are counted on
        the round's record as ``num_dropped`` -- drift is tolerated but
        never silent.
        """
        record = self.schedule_records[record_index]
        start_time = record.start_time
        applied = 0
        dropped = 0

        for task_id in decision.preemptions:
            task = self.state.tasks.get(task_id)
            if task is not None and task.is_running:
                self.state.preempt_task(task_id, finish_time)
                self._state_version += 1

        for task_id, machine_id in decision.migrations.items():
            task = self.state.tasks.get(task_id)
            if task is None or not task.is_running:
                dropped += 1
                continue
            if task.machine_id == machine_id:
                dropped += 1
                continue
            if self.state.free_slots(machine_id) <= 0:
                dropped += 1
                continue
            self.state.migrate_task(task_id, machine_id, finish_time)
            self.schedule_completion(task, finish_time)
            self._state_version += 1
            applied += 1

        for task_id, machine_id in decision.placements.items():
            task = self.state.tasks.get(task_id)
            if task is None or not task.is_pending:
                dropped += 1
                continue
            if self.state.free_slots(machine_id) <= 0:
                dropped += 1
                continue
            effective = finish_time
            if task_id in decision.per_task_latency:
                effective = min(
                    finish_time, start_time + decision.per_task_latency[task_id]
                )
            self.state.place_task(task_id, machine_id, effective)
            self.schedule_completion(task, effective)
            self._state_version += 1
            applied += 1

        record.num_applied = applied
        record.num_dropped = dropped
        self.placements_applied += applied
        self.placements_dropped += dropped


class ClusterSimulator:
    """Discrete-event simulator driving a scheduler against a cluster state.

    Thin driver over :class:`~repro.simulation.events.EventManager` and
    :class:`SimulatorBridge`: the run loop pops typed events, delegates
    interpretation to the bridge, and enforces the simulation window
    (``max_time``, drain, hard stop), voiding -- never dropping -- rounds
    whose decisions cannot land inside it.
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
        self.bridge = SimulatorBridge(state, scheduler, self.config, self.events)
        # Completion events already scheduled for running tasks.
        for task in state.running_tasks():
            self.bridge.schedule_completion(task, task.start_time or 0.0)

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self.bridge.now

    @property
    def schedule_records(self) -> List[ScheduleRecord]:
        """Per-round records in invocation order."""
        return self.bridge.schedule_records

    # ------------------------------------------------------------------ #
    # Workload submission
    # ------------------------------------------------------------------ #
    def submit_job(self, job: Job, time: Optional[float] = None) -> None:
        """Enqueue a job submission event at ``time`` (defaults to the job's
        own submit time)."""
        self.bridge.submit_job(job, time)

    def submit_jobs(self, jobs: List[Job]) -> None:
        """Enqueue submission events for a list of jobs."""
        for job in jobs:
            self.bridge.submit_job(job)

    def submit_job_stream(self, jobs: Iterable[Job]) -> None:
        """Attach a streaming job source (see :meth:`SimulatorBridge.submit_job_stream`)."""
        self.bridge.submit_job_stream(jobs)

    def fail_machine_at(self, machine_id: int, time: float) -> None:
        """Enqueue a machine failure (``REMOVE_MACHINE``) event."""
        self.bridge.fail_machine_at(machine_id, time)

    def recover_machine_at(self, machine_id: int, time: float) -> None:
        """Enqueue a machine recovery (``ADD_MACHINE``) event."""
        self.bridge.recover_machine_at(machine_id, time)

    def add_machine_at(self, machine: Machine, time: float) -> None:
        """Enqueue the addition of a new machine (``ADD_MACHINE``) event."""
        self.bridge.add_machine_at(machine, time)

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def run(self) -> SimulationResult:
        """Run the simulation until the event queue drains or time runs out."""
        config = self.config
        events = self.events
        bridge = self.bridge
        # Hard stop protecting against workloads that can never drain (e.g.
        # pending tasks behind never-completing service jobs).
        hard_stop = config.max_time * 2.0 + 600.0
        while events:
            if events.peek_time() > hard_stop:
                break
            event = events.pop()
            if event.time > config.max_time and not (
                config.drain and event.event_type is not EventType.TASK_SUBMIT
            ):
                # Outside the simulation window and not draining: the event
                # is never processed.  An in-flight round finishing out here
                # must be voided explicitly, never silently skipped -- the
                # old loop left `_scheduler_busy` stuck and the round's
                # recorded placements unaccounted.
                if event.event_type is EventType.SCHEDULER_DONE:
                    bridge.void_round(event)
                continue
            bridge.handle(event)
            bridge.maybe_run_scheduler()
        # Hard stop (or any other exit with queued events): apply-or-void.
        bridge.finalize()

        records = bridge.schedule_records
        metrics = collect_metrics(
            self.state,
            algorithm_runtimes=[r.algorithm_runtime for r in records],
            rounds=[r.statistics for r in records],
        )
        return SimulationResult(
            state=self.state,
            metrics=metrics,
            schedule_records=records,
            virtual_time=bridge.now,
            rounds_voided=bridge.rounds_voided,
            placements_applied=bridge.placements_applied,
            placements_dropped=bridge.placements_dropped,
            events_processed=events.num_events_processed,
        )

    def close(self) -> None:
        """Release scheduler resources (worker subprocesses and the like).

        Call after the last :meth:`run` when the scheduler uses the parallel
        dual executor; a simulator driving a plain solver has nothing to
        release and the call is a no-op.
        """
        close = getattr(self.scheduler, "close", None)
        if callable(close):
            close()
