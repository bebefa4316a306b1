"""Metrics collected from simulation runs.

The experiments report three families of metrics (Figure 1 in the paper):
per-task placement latency (submission to placement), per-task and per-job
response time (submission to completion), and the scheduler's algorithm
runtime per run.  Data locality -- the fraction of input data local to the
machine a task ran on -- is additionally reported for the Quincy-policy
experiments (Table 15b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from repro.analysis.stats import percentile
from repro.cluster.state import ClusterState
from repro.cluster.task import JobType


@dataclass
class MetricsSummary:
    """Summary of one simulation run."""

    placement_latencies: List[float] = field(default_factory=list)
    response_times: List[float] = field(default_factory=list)
    job_response_times: List[float] = field(default_factory=list)
    algorithm_runtimes: List[float] = field(default_factory=list)
    #: Per-run relaxation-leg counters (zero for baselines), attributed at
    #: round level: tree nodes grown and dual ascents performed by the
    #: round's relaxation run whether or not it won the race (the dual
    #: executors fold the losing leg's counters into the round's
    #: statistics).  The ascent series is the contention signal behind
    #: Figures 8/9 -- it explodes exactly where relaxation degrades.
    relaxation_tree_nodes: List[int] = field(default_factory=list)
    relaxation_dual_ascents: List[int] = field(default_factory=list)
    #: Per-run worker-transport counters of the parallel executor: whether
    #: the round fed the relaxation worker a full DIMACS snapshot or an
    #: incremental delta/resync payload.  On a steady-state replay the
    #: snapshot count should stay at the cold-start 1; see
    #: :meth:`delta_ship_ratio`.
    snapshot_ships: List[int] = field(default_factory=list)
    delta_ships: List[int] = field(default_factory=list)
    #: Per-run robustness counters (zero everywhere on a fault-free run
    #: with no deadline configured): whether each round degraded (epsilon
    #: truncation or previous-placement reuse), how many solver legs hit
    #: the round deadline, worker respawns performed, and whether the
    #: worker circuit breaker was open during the round.
    degraded_rounds: List[int] = field(default_factory=list)
    deadline_hits: List[int] = field(default_factory=list)
    worker_respawns: List[int] = field(default_factory=list)
    breaker_open_rounds: List[int] = field(default_factory=list)
    #: Per-run sharded-scheduler counters (empty/zero for monolithic
    #: schedulers and baselines): how many cells each round solved, which
    #: cell bounded each round's wall clock (-1 when no cell solved), and
    #: how many tasks the cross-cell balancer re-homed per round, and how
    #: many cells each round left out with dirty marks waiting.
    cells_solved: List[int] = field(default_factory=list)
    cells_deferred: List[int] = field(default_factory=list)
    straggler_cells: List[int] = field(default_factory=list)
    cross_cell_migrations: List[int] = field(default_factory=list)
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
        deltas = sum(self.delta_ships)
        snapshots = sum(self.snapshot_ships)
        total = deltas + snapshots
        if total == 0:
            return 0.0
        return deltas / total

    def degraded_round_count(self) -> int:
        """Number of rounds that finished degraded (never stalled)."""
        return sum(1 for flag in self.degraded_rounds if flag)

    def total_worker_respawns(self) -> int:
        """Total relaxation-worker respawns across the run."""
        return sum(self.worker_respawns)

    def breaker_open_round_count(self) -> int:
        """Number of rounds served while the worker breaker was open."""
        return sum(1 for flag in self.breaker_open_rounds if flag)

    def total_cross_cell_migrations(self) -> int:
        """Tasks the balancer re-homed to another cell across the run."""
        return sum(self.cross_cell_migrations)

    def straggler_attribution(self) -> Dict[int, int]:
        """How often each cell bounded a round's wall clock.

        Maps cell index to the number of rounds it was the straggler; a
        healthy partition spreads the counts, while one hot cell
        monopolizing them is the signal to look at that cell's load (or
        the balancer's ceiling).  Rounds where no cell solved (-1) are
        excluded.
        """
        counts: Dict[int, int] = {}
        for cell in self.straggler_cells:
            if cell >= 0:
                counts[cell] = counts.get(cell, 0) + 1
        return counts


def collect_metrics(
    state: ClusterState,
    algorithm_runtimes: Optional[Sequence[float]] = None,
    batch_only: bool = True,
    relaxation_tree_nodes: Optional[Sequence[int]] = None,
    relaxation_dual_ascents: Optional[Sequence[int]] = None,
    snapshot_ships: Optional[Sequence[int]] = None,
    delta_ships: Optional[Sequence[int]] = None,
    degraded_rounds: Optional[Sequence[int]] = None,
    deadline_hits: Optional[Sequence[int]] = None,
    worker_respawns: Optional[Sequence[int]] = None,
    breaker_open_rounds: Optional[Sequence[int]] = None,
    cells_solved: Optional[Sequence[int]] = None,
    cells_deferred: Optional[Sequence[int]] = None,
    straggler_cells: Optional[Sequence[int]] = None,
    cross_cell_migrations: Optional[Sequence[int]] = None,
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
        relaxation_tree_nodes: Per-run relaxation tree sizes (round-level).
        relaxation_dual_ascents: Per-run relaxation dual-ascent counts.
        snapshot_ships: Per-run full-snapshot worker payload counts.
        delta_ships: Per-run incremental worker payload counts.
        degraded_rounds: Per-run degraded-round flags.
        deadline_hits: Per-run solver-leg deadline-hit counts.
        worker_respawns: Per-run relaxation-worker respawn counts.
        breaker_open_rounds: Per-run breaker-open flags.
        cells_solved: Per-run cell counts of the sharded scheduler.
        cells_deferred: Per-run counts of cells left out with marks waiting.
        straggler_cells: Per-run straggler-cell indices (-1 when none).
        cross_cell_migrations: Per-run balancer re-homing counts.
    """
    summary = MetricsSummary()
    if algorithm_runtimes:
        summary.algorithm_runtimes = list(algorithm_runtimes)
    if relaxation_tree_nodes:
        summary.relaxation_tree_nodes = list(relaxation_tree_nodes)
    if relaxation_dual_ascents:
        summary.relaxation_dual_ascents = list(relaxation_dual_ascents)
    if snapshot_ships:
        summary.snapshot_ships = list(snapshot_ships)
    if delta_ships:
        summary.delta_ships = list(delta_ships)
    if degraded_rounds:
        summary.degraded_rounds = list(degraded_rounds)
    if deadline_hits:
        summary.deadline_hits = list(deadline_hits)
    if worker_respawns:
        summary.worker_respawns = list(worker_respawns)
    if breaker_open_rounds:
        summary.breaker_open_rounds = list(breaker_open_rounds)
    if cells_solved:
        summary.cells_solved = list(cells_solved)
    if cells_deferred:
        summary.cells_deferred = list(cells_deferred)
    if straggler_cells:
        summary.straggler_cells = list(straggler_cells)
    if cross_cell_migrations:
        summary.cross_cell_migrations = list(cross_cell_migrations)

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
