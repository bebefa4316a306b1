"""The Firmament scheduler: policy-driven flow scheduling with fast solvers.

One call to :meth:`FlowScheduler.schedule` corresponds to one iteration of
the loop in Figure 2b of the paper: update the flow network from cluster
state, run the MCMF solver (by default the speculative dual-algorithm
executor), extract task placements from the optimal flow, and compute the
difference against the current assignment (placements, migrations,
preemptions).  The caller -- the simulator, the testbed harness, or an
example program -- applies the resulting decision to the cluster state.

That loop is written once, over *cells* (:class:`RoundCell`: a state view,
its :class:`~repro.core.graph_manager.GraphManager`, its solver):

1. ``manager.update(view, now)`` for every cell taking part (a sharded
   round leaves out the cells with nothing to place while another has:
   such a cell is not updated, solved, extracted or diffed);
2. solve every cell that has tasks -- an in-place solver repairs the
   manager's graph, which carries its own chain; any other is handed the
   change batch since its last solve -- and a cell whose solver raises
   :class:`~repro.solvers.base.RoundDeadlineExceeded` is *dead* for the
   round;
3. merge per cell: bring the cell's maintained assignments up to the new
   flow (:meth:`GraphManager.extract_assignments`, proportional to the
   arcs whose flow changed) + diff for a solved cell (marked
   ``epsilon_truncated`` when the result is not optimal), hold-pending for
   a dead one (``round_deadline``; nothing is extracted, so the round's
   changes wait for the next result);
4. charge ``algorithm_runtime`` by one rule -- a cell costs the runtime
   its result reports (falling back to wall clock); the round costs the
   gather wall clock when the cells really ran concurrently, otherwise its
   slowest cell, i.e. the latency of the concurrent deployment being
   modeled.

Step 1 may also run ahead of a round: :meth:`FlowScheduler.prepare` updates
the cells the last round took part in with what changed since (``serve``
calls it after each release, while nobody waits), and the round's own
update then derives only what came after.  The graph a round solves, and
so its decision, is the same either way.

The scheduler keeps no per-round history: a round's counters travel on
its decision (``decision.solver_result.statistics``), and a caller that
wants a history keeps the decisions or records it is handed (the
simulator's :class:`~repro.simulation.simulator.ScheduleRecord`).

:class:`FirmamentScheduler` is the one-cell case: the view is the
:class:`~repro.cluster.state.ClusterState` itself, the solver is whatever
the caller chose (the modeled dual executor by default; ``serve`` passes
the incremental cost-scaling solver every cell runs), and the round's
``solver_result`` is that solver's own result.
:class:`~repro.core.sharding.ShardedScheduler` supplies many cells.  Both
do so through three hooks -- ``_round_cells`` (who takes part),
``_solve_cells`` (inline in order, or shipped to workers and gathered) and
``_round_result`` (what ``decision.solver_result`` carries) -- so
deadlines, degradation, chaos and runtime charging have one implementation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.cluster.state import ClusterState
from repro.core.graph_manager import GraphManager
from repro.core.placement import in_network_order
from repro.core.policies.base import SchedulingPolicy
from repro.flow.graph import FlowNetwork
from repro.solvers.base import RoundDeadlineExceeded, Solver, SolverResult


@dataclass
class SchedulingDecision:
    """Result of one scheduling iteration.

    Attributes:
        placements: Pending tasks to start, as ``{task_id: machine_id}``.
        migrations: Running tasks to move, as ``{task_id: new_machine_id}``.
        preemptions: Running tasks to stop and return to the pending state.
        unscheduled: Pending tasks left waiting this round.
        algorithm_runtime: Wall-clock seconds the winning solver needed.
        solver_result: The winning solver's full result.
        total_cost: Cost of the optimal flow (placement quality proxy),
            always the whole cluster's: a sharded round adds the retained
            cost of the cells it left out, whose flow did not move.
        per_task_latency: Optional per-task scheduling delay relative to the
            start of the run; queue-based baselines fill this in because they
            place tasks one at a time, while flow-based scheduling places the
            whole batch when the solver finishes.
        degraded: True when the round could not run to full optimality:
            either the solver's epsilon ladder was truncated at the round
            deadline (``degraded_reason="epsilon_truncated"``; the flow is
            still feasible and epsilon-optimal at the coarser epsilon) or
            no solver finished in budget and the previous feasible
            placements were reused (``degraded_reason="round_deadline"``;
            running tasks stay put, pending tasks wait a round).
    """

    placements: Dict[int, int] = field(default_factory=dict)
    migrations: Dict[int, int] = field(default_factory=dict)
    preemptions: List[int] = field(default_factory=list)
    unscheduled: List[int] = field(default_factory=list)
    degraded: bool = False
    degraded_reason: str = ""
    algorithm_runtime: float = 0.0
    #: Wall-clock seconds the graph manager needed to bring the flow
    #: network up to date for this round (graph maintenance, attributed
    #: separately from the solver runtime above).
    graph_update_seconds: float = 0.0
    solver_result: Optional[SolverResult] = None
    total_cost: int = 0
    per_task_latency: Dict[int, float] = field(default_factory=dict)

    @property
    def num_assignments(self) -> int:
        """Total number of placement actions (starts plus migrations)."""
        return len(self.placements) + len(self.migrations)


def apply_decision(
    state: ClusterState,
    decision,
    now: float,
    start_times: Optional[Dict[int, float]] = None,
) -> None:
    """Put a round's decision on the cluster state: vacate, then place.

    Every preempted and every migrating task leaves its machine before any
    task lands, so the slots they free are there for the rest -- a round
    may swap two tasks between full machines.  Every scheduler's ``apply``,
    the service's round replay (which passes its logged record) and the
    simulator change the state through this one order.  A task named in
    ``start_times`` starts at that time instead of ``now`` (the simulator's
    queue-based baselines start a task once its own decision elapsed).
    An infeasible action raises.
    """
    starts = start_times or {}
    for task_id in (*decision.preemptions, *decision.migrations):
        state.preempt_task(task_id, now)
    for task_id, machine_id in (
        *decision.migrations.items(), *decision.placements.items()
    ):
        state.place_task(task_id, machine_id, starts.get(task_id, now))


class RoundCell(NamedTuple):
    """One cell's part in a round: what its graph manager reads, the
    manager holding the cell's flow network, and the solver that runs on
    it.  The monolithic scheduler is the single cell whose view is the
    whole :class:`ClusterState`."""

    index: int
    view: Any
    manager: GraphManager
    solver: Solver


#: ``(cell, result, runtime)`` per solved cell; ``result`` is ``None`` for a
#: cell whose round died at its deadline.
CellOutcome = Tuple[RoundCell, Optional[SolverResult], float]


class FlowScheduler:
    """The round pipeline both flow schedulers run.

    :meth:`schedule` is the only implementation of the round; a subclass
    describes *what* is scheduled through three hooks: :meth:`_round_cells`
    (the cells taking part, with their views prepared), :meth:`_solve_cells`
    (how the prepared cells are solved; in-process and in order by default)
    and :meth:`_round_result` (the decision's ``solver_result``).
    """

    #: Whether :meth:`_solve_cells` runs the cells concurrently, in worker
    #: subprocesses (the round is then charged its measured wall clock).
    workers = False

    def schedule(self, state: ClusterState, now: float = 0.0) -> SchedulingDecision:
        """Run one scheduling iteration against the given cluster state."""
        decision = SchedulingDecision()
        active: List[RoundCell] = []
        for cell in self._round_cells(state):
            cell.manager.update(cell.view, now)
            decision.graph_update_seconds += cell.manager.last_update_stats.seconds
            if cell.manager.task_nodes:
                active.append(cell)

        outcomes: List[CellOutcome] = []
        if active:
            wall_start = time.perf_counter()
            outcomes = self._solve_cells(active)
            round_wall = time.perf_counter() - wall_start
            for cell, result, _ in outcomes:
                self._merge_cell(cell, result, decision)
            if self.workers:
                # The cells really ran concurrently: the measured
                # ship+gather wall clock is the round's placement latency.
                decision.algorithm_runtime = round_wall
            else:
                # Inline cells ran back to back; charge the slowest cell,
                # the effective latency of the concurrent deployment (same
                # modeling convention as the dual executor's raced
                # rounds).  For one cell that is simply its runtime.
                decision.algorithm_runtime = max(
                    runtime for _, _, runtime in outcomes
                )
        decision.solver_result = self._round_result(state, decision, outcomes)
        return decision

    def prepare(self, state: ClusterState, now: float = 0.0) -> None:
        """Bring the graphs the last round solved up to date ahead of the
        next round: the ordinary :meth:`GraphManager.update` on each of
        :meth:`_prepared_cells`, so the next round's update derives only
        what changed after this call.  The graph a round solves is the
        same either way, and so is its decision; the work moves off the
        next arrival's path (``serve`` calls this after each release).  An
        update that raises leaves its graph to the next round, which then
        starts from an empty one.
        """
        for cell in self._prepared_cells(state):
            cell.manager.update(cell.view, now)

    # ------------------------------------------------------------------ #
    # Hooks
    # ------------------------------------------------------------------ #
    def _round_cells(self, state: ClusterState) -> Iterable[RoundCell]:
        """The cells taking part in this round, views ready for update."""
        raise NotImplementedError

    def _prepared_cells(self, state: ClusterState) -> Iterable[RoundCell]:
        """The cells :meth:`prepare` updates, views ready for update."""
        raise NotImplementedError

    def _solve_cells(self, cells: List[RoundCell]) -> List[CellOutcome]:
        """Solve every cell in-process, in cell order (deterministic)."""
        return [(cell, *self._solve_cell(cell)) for cell in cells]

    def _round_result(
        self,
        state: ClusterState,
        decision: SchedulingDecision,
        outcomes: List[CellOutcome],
    ) -> Optional[SolverResult]:
        """The round's ``solver_result``, built once the decision is merged
        (``outcomes`` is empty when no cell had tasks)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Per-cell steps
    # ------------------------------------------------------------------ #
    def _solve_cell(self, cell: RoundCell) -> Tuple[Optional[SolverResult], float]:
        """Solve one cell in this process: ``(result, runtime)``.

        A solver that :attr:`~repro.solvers.base.Solver.solves_in_place`
        (the dual executor, incremental cost scaling) gets the manager's
        graph and leaves its flow in the graph's residual, where the
        placements are read.  Any other solver gets the manager's
        :class:`FlowNetwork` view (:meth:`GraphManager.network_view`), and
        the flow it returns is loaded into the graph, and the round's
        change batch is handed over when the solver can consume one.
        ``result`` is ``None`` when the cell's round died at its deadline.
        """
        manager, solver = cell.manager, cell.solver
        graph = manager.network
        if getattr(solver, "solves_in_place", False):
            # The graph carries its own chain (the residual the solver
            # repaired last, and whether anything took its patch since):
            # no batch is built.
            network, changes = graph, None
        else:
            network = manager.network_view()
            changes = manager.last_changes
        start = time.perf_counter()
        try:
            if changes is not None and solver.accepts_change_batches:
                result = solver.solve(network, changes=changes)
            else:
                result = solver.solve(network)
        except RoundDeadlineExceeded:
            return None, time.perf_counter() - start
        wall_runtime = time.perf_counter() - start
        if network is not graph:
            graph.set_flows(result.flows)
        # Use the solver-reported runtime when available: for the dual
        # executor that is the *winner's* runtime -- on a raced round the
        # effective placement latency of the paper's concurrent deployment
        # (the two algorithms run on separate cores; the executor runs them
        # back to back, so wall clock would double-charge the loser).
        return result, result.runtime_seconds or wall_runtime

    def _merge_cell(
        self,
        cell: RoundCell,
        result: Optional[SolverResult],
        decision: SchedulingDecision,
    ) -> None:
        """Fold one cell's outcome into the round's decision."""
        manager = cell.manager
        if result is None:
            # No solver produced a feasible flow for this cell within the
            # round budget.  Degrade gracefully instead of stalling: reuse
            # the previous feasible placements (running tasks stay where
            # they are, no preemptions or migrations) and let the cell's
            # pending tasks wait one round.  The incremental solvers notice
            # the revision gap next round and rebuild warm, so nothing
            # stale survives.
            decision.degraded = True
            decision.degraded_reason = "round_deadline"
            decision.unscheduled.extend(
                in_network_order(cell.view.pending_task_ids(), manager.task_nodes)
            )
            return
        manager.extract_assignments()
        result.statistics.tasks_reextracted = (
            manager.flow_assignments.last_reextracted
        )
        manager.diff_assignments(cell.view, self.allow_migrations, decision)
        decision.total_cost += result.total_cost
        if not result.optimal:
            # The round deadline truncated the epsilon ladder: the flow is
            # feasible and epsilon-optimal at the coarser epsilon, but not
            # the fully-scaled optimum.
            decision.degraded = True
            decision.degraded_reason = decision.degraded_reason or "epsilon_truncated"

    # ------------------------------------------------------------------ #
    # Applying a decision
    # ------------------------------------------------------------------ #
    def apply(self, state: ClusterState, decision: SchedulingDecision, now: float) -> None:
        """Apply a scheduling decision to the cluster state (:func:`apply_decision`)."""
        apply_decision(state, decision, now)

    def schedule_and_apply(self, state: ClusterState, now: float = 0.0) -> SchedulingDecision:
        """Convenience wrapper: schedule and immediately apply the decision."""
        decision = self.schedule(state, now)
        self.apply(state, decision, now)
        return decision

    @staticmethod
    def _arm_deadline(solver: Solver, round_deadline_seconds: Optional[float]) -> None:
        """Hand a per-round budget to a solver that can honour one."""
        if round_deadline_seconds is None:
            return
        if not hasattr(solver, "round_deadline_seconds"):
            raise ValueError(
                "round_deadline_seconds requires a solver with deadline "
                f"support; {type(solver).__name__} has none"
            )
        solver.round_deadline_seconds = round_deadline_seconds


class FirmamentScheduler(FlowScheduler):
    """Flow-based scheduler generalizing Quincy (the paper's core system)."""

    def __init__(
        self,
        policy: SchedulingPolicy,
        solver: Optional[Solver] = None,
        allow_migrations: bool = True,
        round_deadline_seconds: Optional[float] = None,
        chaos=None,
    ) -> None:
        """Create a scheduler.

        Args:
            policy: Scheduling policy that shapes the flow network.
            solver: MCMF solver; defaults to a
                :class:`~repro.solvers.dual_executor.DualAlgorithmExecutor`
                (incremental cost scaling alone, repairing the graph's
                residual, on a round whose batch chains onto it; raced back
                to back against relaxation, modeled, on every other round).
                Pass an
                :class:`~repro.solvers.incremental.IncrementalCostScalingSolver`
                to solve each round with one leg (what ``serve`` runs), or a
                plain cost-scaling solver to reproduce Quincy's behaviour.
            allow_migrations: When False, running tasks are pinned to their
                machines and the scheduler only places pending tasks (useful
                for comparing against queue-based schedulers that never
                migrate).
            round_deadline_seconds: Per-round wall-clock budget.  The
                solver degrades at the budget (epsilon-ladder truncation,
                relaxation abort) and a round where no solver produced a
                feasible flow reuses the previous placements instead of
                stalling; both outcomes are recorded as degraded rounds.
                Requires a solver that supports round deadlines (the dual
                executor and the incremental cost-scaling solver do).
            chaos: Optional :class:`repro.chaos.ChaosPolicy` injecting
                deterministic faults into the round pipeline (tests and
                chaos benchmarks only).
        """
        self.policy = policy
        if solver is None:
            from repro.solvers.dual_executor import DualAlgorithmExecutor

            solver = DualAlgorithmExecutor()
        self.solver = solver
        self.round_deadline_seconds = round_deadline_seconds
        self._arm_deadline(self.solver, round_deadline_seconds)
        if chaos is not None and hasattr(self.solver, "chaos"):
            self.solver.chaos = chaos
        # The manager emits each round's change batch from the mutations it
        # applies; a solver that cannot consume one just rebuilds.
        self.graph_manager = GraphManager(policy, chaos=chaos)
        self.allow_migrations = allow_migrations

    @property
    def last_network(self) -> Optional[FlowNetwork]:
        """The flow network of the most recent round, flows included, built
        from the manager's graph (``None`` before the first round)."""
        graph = self.graph_manager.network
        return None if graph is None else graph.copy()

    def _round_cells(self, state: ClusterState) -> Iterable[RoundCell]:
        """One cell: the whole cluster, solved by the (dual) executor."""
        return (RoundCell(0, state, self.graph_manager, self.solver),)

    _prepared_cells = _round_cells

    def _round_result(
        self,
        state: ClusterState,
        decision: SchedulingDecision,
        outcomes: List[CellOutcome],
    ) -> Optional[SolverResult]:
        """The winning solver's own result (``None`` on an empty round and
        on a round that died at its deadline)."""
        return outcomes[0][1] if outcomes else None

    def close(self) -> None:
        """Release solver resources, if the solver holds any."""
        close = getattr(self.solver, "close", None)
        if callable(close):
            close()
