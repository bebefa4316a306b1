"""Metrics collected from simulation runs.

The experiments report three families of metrics (Figure 1 in the paper):
per-task placement latency (submission to placement), per-task and per-job
response time (submission to completion), and the scheduler's algorithm
runtime per run.  Data locality -- the fraction of input data local to the
machine a task ran on -- is additionally reported for the Quincy-policy
experiments (Table 15b).

Everything the scheduler counted per round is read off one list,
:attr:`MetricsSummary.rounds`: the round records'
:class:`~repro.solvers.base.SolverStatistics`, carried as they are, so a
counter added there needs no field, parameter or copy here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.stats import percentile
from repro.cluster.state import ClusterState
from repro.cluster.task import JobType
from repro.solvers.base import SolverStatistics


@dataclass
class MetricsSummary:
    """Summary of one simulation run."""

    placement_latencies: List[float] = field(default_factory=list)
    response_times: List[float] = field(default_factory=list)
    job_response_times: List[float] = field(default_factory=list)
    algorithm_runtimes: List[float] = field(default_factory=list)
    #: Every round's counters, one :class:`SolverStatistics` per run in
    #: invocation order (the records' ``statistics``); the helpers below
    #: read their series off it.
    rounds: List[SolverStatistics] = field(default_factory=list)
    tasks_completed: int = 0
    tasks_placed: int = 0
    tasks_unplaced: int = 0
    data_locality: float = 0.0

    def placement_latency_percentile(self, q: float) -> float:
        """Return the q-th percentile of task placement latency."""
        return percentile(self.placement_latencies, q)

    def response_time_percentile(self, q: float) -> float:
        """Return the q-th percentile of task response time."""
        return percentile(self.response_times, q)

    def algorithm_runtime_percentile(self, q: float) -> float:
        """Return the q-th percentile of per-run algorithm runtime."""
        return percentile(self.algorithm_runtimes, q)

    def mean_algorithm_runtime(self) -> float:
        """Return the mean per-run algorithm runtime."""
        if not self.algorithm_runtimes:
            return 0.0
        return sum(self.algorithm_runtimes) / len(self.algorithm_runtimes)

    def delta_ship_ratio(self) -> float:
        """Fraction of worker payloads shipped incrementally (delta/resync).

        1.0 means every consulted round crossed the process boundary as an
        O(|changes|) payload; full DIMACS snapshots then happened only on
        rounds where the worker was not consulted at all (cold start
        excepted).  Returns 0.0 when the worker was never consulted.
        """
        deltas = sum(r.delta_ships for r in self.rounds)
        snapshots = sum(r.snapshot_ships for r in self.rounds)
        total = deltas + snapshots
        if total == 0:
            return 0.0
        return deltas / total

    def degraded_round_count(self) -> int:
        """Number of rounds that finished degraded (never stalled)."""
        return sum(1 for r in self.rounds if r.degraded_round)

    def total_worker_respawns(self) -> int:
        """Total relaxation-worker respawns across the run."""
        return sum(r.worker_respawns for r in self.rounds)

    def breaker_open_round_count(self) -> int:
        """Number of rounds served while the worker breaker was open."""
        return sum(1 for r in self.rounds if r.breaker_open)

    def total_cross_cell_migrations(self) -> int:
        """Tasks the balancer re-homed to another cell across the run."""
        return sum(r.cross_cell_migrations for r in self.rounds)

    def straggler_attribution(self) -> Dict[int, int]:
        """How often each cell bounded a round's wall clock.

        Maps cell index to the number of rounds it was the straggler; a
        healthy partition spreads the counts, while one hot cell
        monopolizing them is the signal to look at that cell's load (or
        the balancer's ceiling).  Rounds where no cell solved (-1) are
        excluded.
        """
        counts: Dict[int, int] = {}
        for r in self.rounds:
            cell = r.straggler_cell
            if cell >= 0:
                counts[cell] = counts.get(cell, 0) + 1
        return counts


def collect_metrics(
    state: ClusterState,
    algorithm_runtimes: Optional[Sequence[float]] = None,
    batch_only: bool = True,
    rounds: Optional[Sequence[SolverStatistics]] = None,
) -> MetricsSummary:
    """Build a :class:`MetricsSummary` from the final cluster state.

    Args:
        state: Cluster state after the simulation finished.
        algorithm_runtimes: Per-run solver runtimes recorded by the driver.
        batch_only: Restrict per-task metrics to batch tasks.  The filter
            applies to *all* task-level counters -- placement latency and
            response time share one denominator population, so the
            placement percentiles describe the same tasks the completion
            counts do (service tasks never complete; mixing them into the
            placement side only would skew the comparison).
        rounds: Per-run counters recorded by the driver.
    """
    summary = MetricsSummary()
    if algorithm_runtimes:
        summary.algorithm_runtimes = list(algorithm_runtimes)
    if rounds:
        summary.rounds = list(rounds)

    for task in state.tasks.values():
        job = state.jobs.get(task.job_id)
        is_service = job is not None and job.job_type is JobType.SERVICE
        if batch_only and is_service:
            # One consistent population: service tasks are excluded from
            # the placement-side counters too, not just completions.
            continue
        latency = task.placement_latency()
        if latency is not None:
            summary.placement_latencies.append(latency)
            summary.tasks_placed += 1
        if task.is_pending:
            # Awaiting placement at the end of the run: never placed
            # (SUBMITTED) *or* evicted/preempted and not re-placed
            # (PREEMPTED).  An evicted task that ran earlier also counts
            # in ``tasks_placed`` -- it was placed at least once.
            summary.tasks_unplaced += 1
        response = task.response_time()
        if response is not None:
            summary.response_times.append(response)
            summary.tasks_completed += 1

    for job in state.jobs.values():
        if batch_only and job.job_type is JobType.SERVICE:
            continue
        response = job.response_time()
        if response is not None:
            summary.job_response_times.append(response)

    summary.data_locality = input_data_locality(state, batch_only=batch_only)
    return summary


def input_data_locality(state: ClusterState, batch_only: bool = False) -> float:
    """Return the fraction of input data that was local to tasks' machines.

    Only tasks that have been placed at least once and declare an input size
    contribute.  The metric matches Table 15b in the paper: the preference
    threshold of the Quincy policy directly controls it.

    ``batch_only`` restricts the metric to batch tasks, the same filter
    every other task-level counter of :func:`collect_metrics` applies --
    the locality percentage must describe the same task population as the
    placement and completion counts it is reported next to (service tasks
    used to leak into this one metric only, skewing it whenever service
    jobs declared inputs).

    A task evicted after running (``machine_id`` is ``None`` but it was
    placed) is credited with the locality of the *last* machine it ran on:
    that is the placement whose input reads actually happened.  Charging
    its full ``input_size_gb`` with zero possible local credit -- as the
    old ``machine_id``-only accounting did -- deflated the metric for
    every run with evictions.
    """
    local_gb = 0.0
    total_gb = 0.0
    for task in state.tasks.values():
        if task.input_size_gb <= 0:
            continue
        if batch_only:
            job = state.jobs.get(task.job_id)
            if job is not None and job.job_type is JobType.SERVICE:
                continue
        machine_id = task.machine_id
        if machine_id is None:
            machine_id = task.last_machine_id
        if machine_id is None:
            # Never ran anywhere: no input was read, nothing to charge.
            continue
        total_gb += task.input_size_gb
        local_gb += task.input_size_gb * task.locality_fraction(machine_id)
    if total_gb == 0:
        return 0.0
    return local_gb / total_gb
