"""Speculative dual-algorithm execution (Section 6.1 of the paper).

Firmament's MCMF solver runs two algorithms on a scheduling iteration --
from-scratch relaxation and incremental cost scaling -- and picks the
solution of whichever finishes first, because neither dominates:
relaxation usually wins a cold solve by a wide margin, and incremental
cost scaling bounds the placement latency under oversubscription and heavy
contention.

:class:`DualAlgorithmExecutor` keeps that insurance where it is contested
and drops it where it is not.  One rule picks a round's legs: incremental
cost scaling runs **alone** iff the round's change batch chains onto the
residual its previous run kept
(:meth:`~repro.solvers.incremental.IncrementalCostScalingSolver.can_solve_delta`),
whatever the batch's size -- that round is a delta repair, costing the
batch plus the repair, which a from-scratch relaxation run rarely beats
(``benchmarks/bench_race_table.py`` times both legs on every round of the
figure replays).  Every round that does not chain -- the first, a broken
revision chain, the round after the residual was released, a call with no
batch -- runs both legs back to back
and models the concurrent deployment: the *effective* runtime is the
winner's own, as if the legs had run on two cores, while the wall clock
paid is the sum.  Both numbers are exposed.  ``simulate`` and the figure
benchmarks run this executor.

``serve`` does not: a service pays the wall clock of every leg it runs on
its one event-loop thread, so its monolithic scheduler solves each round
with :class:`~repro.solvers.incremental.IncrementalCostScalingSolver`
alone, the solver every ``--cells`` cell runs.

The executor owns a round's single flow write-back: the legs solve on
their own persistent residuals and never touch ``network``'s arcs; the
winner's flows are written once, after the legs ran (``set_flows``).  The
incremental cost scaling instance is seeded from a relaxation win (price
refine makes the potentials usable, Section 6.2) **iff it holds no residual
of its own at this round's revision** -- its leg was aborted or truncated
at the deadline.  A leg that ran to completion keeps its own 0-optimal
residual, so the next round repairs it with ``solve_delta`` instead of
paying an O(graph) warm rebuild plus a full price refine for a re-sync
nothing invalidated.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.chaos import corrupt_residual_potentials
from repro.flow.changes import ChangeBatch
from repro.flow.graph import FlowNetwork
from repro.solvers.base import (
    RoundDeadline,
    RoundDeadlineExceeded,
    SolveAborted,
    Solver,
    SolverResult,
)
from repro.solvers.incremental import IncrementalCostScalingSolver
from repro.solvers.relaxation import RelaxationSolver


@dataclass
class DualExecutionResult:
    """Outcome of one speculative dual-algorithm scheduling iteration.

    Attributes:
        winner: The result whose algorithm finished first; its flow is the
            one the executor writes to the network.
        relaxation: The relaxation run's result; ``None`` on a chained
            round (the leg did not run) and when the leg was aborted at
            the deadline or its ascent cap.
        cost_scaling: The (incremental) cost scaling run's result; ``None``
            when the hard deadline aborted it -- the leg itself runs every
            round.
        effective_runtime_seconds: The placement latency of the round: the
            winner's own runtime (the modeled concurrent deployment on a
            raced round, the one leg's runtime on a chained one).
        total_work_seconds: CPU seconds paid for the round (the sum of the
            runtimes of the legs that ran).
        wall_clock_seconds: Real elapsed time of the round in the calling
            process: the legs that ran plus the flow write-back.
    """

    winner: SolverResult
    relaxation: Optional[SolverResult]
    cost_scaling: Optional[SolverResult]
    effective_runtime_seconds: float
    total_work_seconds: float
    wall_clock_seconds: float = 0.0

    @property
    def winning_algorithm(self) -> str:
        """Name of the faster algorithm in this iteration."""
        return self.winner.algorithm


class DualAlgorithmExecutor(Solver):
    """Run incremental cost scaling alone on a round that chains onto its
    residual; race relaxation against it, back to back, on every other
    round and keep the faster answer."""

    name = "firmament_dual"

    #: The scheduler may pass ``changes=ChangeBatch`` to :meth:`solve`; the
    #: batch is forwarded to the incremental cost scaling instance so it can
    #: patch its persistent residual network instead of rebuilding it.
    accepts_change_batches = True

    def __init__(
        self,
        relaxation: Optional[RelaxationSolver] = None,
        incremental: Optional[IncrementalCostScalingSolver] = None,
        round_deadline_seconds: Optional[float] = None,
        chaos=None,
    ) -> None:
        """Create the executor.

        Args:
            relaxation: Relaxation solver instance (a default one with arc
                prioritization enabled is created when omitted); its
                ``ascent_cap`` attribute caps dual ascents per run (exceeded
                -> the round falls back to the cost-scaling leg).
            incremental: Incremental cost scaling instance (a default one
                with price refine is created when omitted).
            round_deadline_seconds: Optional per-round latency budget.  When
                set, relaxation is aborted at the hard deadline of its
                :class:`RoundDeadline`, cost scaling runs under the
                incremental solver's own ``round_deadline_seconds`` rule
                (coarser epsilon at the soft deadline, a delta repair
                aborted at the hard one), and a round in which *no* leg
                produced a feasible flow raises
                :class:`RoundDeadlineExceeded` so the scheduler can reuse
                the previous placements instead of stalling.
            chaos: Optional :class:`repro.chaos.ChaosPolicy` injecting
                deterministic faults; ``None`` (default) is a no-op.
        """
        self.relaxation = relaxation or RelaxationSolver(arc_prioritization=True)
        self.incremental = incremental or IncrementalCostScalingSolver()
        self.round_deadline_seconds = round_deadline_seconds
        self.chaos = chaos
        #: Rounds that blew their hard deadline with no usable result
        #: (each raised :class:`RoundDeadlineExceeded`).
        self.deadline_exceeded_rounds: int = 0
        self._chaos_round: int = 0
        self.last_result: Optional[DualExecutionResult] = None
        #: Race observability counters, accumulated across rounds.
        self.rounds: int = 0
        self.relaxation_wins: int = 0
        self.cost_scaling_wins: int = 0
        #: Rounds that chained, so ran the cost-scaling leg alone.
        self.solo_delta_rounds: int = 0
        self.total_wall_clock_seconds: float = 0.0
        self.total_winner_runtime_seconds: float = 0.0
        self.total_work_seconds: float = 0.0

    def solve(
        self, network: FlowNetwork, changes: Optional[ChangeBatch] = None
    ) -> SolverResult:
        """Solve the network and return the winning algorithm's result."""
        return self.solve_detailed(network, changes).winner

    def reset_counters(self) -> None:
        """Zero the race counters (e.g. after a warm-up round).

        Benchmarks measuring steady-state rounds call this after priming
        the executor, so one-time costs (interpreter warm-up, the cold
        solve) do not pollute the per-round accounting.  Solver warm state
        is left untouched.
        """
        self.rounds = 0
        self.relaxation_wins = 0
        self.cost_scaling_wins = 0
        self.solo_delta_rounds = 0
        self.total_wall_clock_seconds = 0.0
        self.total_winner_runtime_seconds = 0.0
        self.total_work_seconds = 0.0

    def _inject_chaos(self) -> None:
        """Advance the chaos round clock and inject solver-state faults.

        ``residual_corruption`` is the one fault injected here because it
        lives in solver state (the incremental solver's persistent
        residual).  Corrupting also arms ``validate_residual`` so the
        poisoned state must be *detected*, not merely survived.
        """
        chaos = self.chaos
        round_index = self._chaos_round
        self._chaos_round += 1
        if chaos is not None:
            residual = self.incremental.last_residual
            if residual is not None and chaos.fires("residual_corruption", round_index):
                corrupt_residual_potentials(residual, seed=chaos.seed + round_index)
                self.incremental.validate_residual = True

    def solve_detailed(
        self, network: FlowNetwork, changes: Optional[ChangeBatch] = None
    ) -> DualExecutionResult:
        """Solve the network and return both legs' results.

        The cost-scaling leg runs every round; the relaxation leg runs
        first, and only when the batch does not chain onto the cost-scaling
        residual (see the module docstring).  With
        ``round_deadline_seconds`` set, each leg gets the full budget (the
        legs model *concurrent* algorithms): relaxation is aborted at the
        hard deadline or its ascent cap, and cost scaling follows the
        incremental solver's own rule (its ``round_deadline_seconds``: the
        epsilon ladder stops at the soft deadline, a delta repair is
        aborted at the hard one).  A leg that died degrades the round to
        the surviving leg; if every leg that ran died,
        :class:`RoundDeadlineExceeded` is raised so the caller reuses the
        previous placements.
        """
        self._inject_chaos()
        started = time.perf_counter()
        budget = self.round_deadline_seconds
        deadline_hit = False
        races = not self.incremental.can_solve_delta(changes)

        relaxation_result: Optional[SolverResult] = None
        if races:
            if budget is not None:
                self.relaxation.abort_check = RoundDeadline(budget).hard_expired
            try:
                relaxation_result = self.relaxation.solve(
                    network, changes=changes, write_back=False
                )
            except SolveAborted:
                # Hard deadline or ascent cap: degrade to the other leg.
                deadline_hit = True
            finally:
                self.relaxation.abort_check = None

        cost_scaling_result: Optional[SolverResult] = None
        # The leg's budget is the solver's own deadline rule.
        self.incremental.round_deadline_seconds = budget
        try:
            cost_scaling_result = self.incremental.solve(
                network, changes=changes, write_back=False
            )
        except (RoundDeadlineExceeded, SolveAborted):
            deadline_hit = True

        if relaxation_result is None and cost_scaling_result is None:
            self.deadline_exceeded_rounds += 1
            raise RoundDeadlineExceeded(
                "no solver produced a feasible flow within the round budget"
                + (f" ({budget:.3f}s)" if budget is not None else "")
            )
        if cost_scaling_result is None or (
            relaxation_result is not None
            and relaxation_result.runtime_seconds
            <= cost_scaling_result.runtime_seconds
        ):
            winner = relaxation_result
            # Seed only a leg left without a residual at this revision (it
            # was aborted, or did not finish optimal); a finished leg keeps
            # its own and the next round takes ``solve_delta``.
            if (
                cost_scaling_result is None
                or self.incremental.last_residual is None
            ):
                self.incremental.seed(winner.flows, winner.potentials)
        else:
            winner = cost_scaling_result
        network.set_flows(winner.flows)
        if deadline_hit:
            winner.statistics.deadline_hits += 1
        if not winner.optimal:
            # A deadline-truncated epsilon ladder degraded this round.
            winner.statistics.degraded_round = 1
        self.solo_delta_rounds += not races
        return self._record_round(
            DualExecutionResult(
                winner=winner,
                relaxation=relaxation_result,
                cost_scaling=cost_scaling_result,
                effective_runtime_seconds=winner.runtime_seconds,
                total_work_seconds=sum(
                    leg.runtime_seconds
                    for leg in (relaxation_result, cost_scaling_result)
                    if leg is not None
                ),
                wall_clock_seconds=time.perf_counter() - started,
            )
        )

    def _record_round(self, result: DualExecutionResult) -> DualExecutionResult:
        """Account a finished round in the executor's counters.

        Leg-cost attribution is *round-level*: the cost-scaling leg's
        ``price_refine_seconds`` / ``price_refine_passes`` / ``delta_solve``
        and the
        relaxation leg's ``relaxation_tree_nodes`` / ``dual_ascents`` are
        folded into the winning result's statistics whenever the other leg
        won.  Timelines then show what every round
        paid for each leg instead of only the rounds that leg happened to
        win.
        """
        loser = result.cost_scaling
        if (
            loser is not None
            and result.winner is not loser
            and loser.statistics is not result.winner.statistics
        ):
            result.winner.statistics.price_refine_seconds += (
                loser.statistics.price_refine_seconds
            )
            result.winner.statistics.price_refine_passes += (
                loser.statistics.price_refine_passes
            )
            result.winner.statistics.delta_solve += loser.statistics.delta_solve
        relaxation_loser = result.relaxation
        if (
            relaxation_loser is not None
            and result.winner is not relaxation_loser
            and relaxation_loser.statistics is not result.winner.statistics
        ):
            result.winner.statistics.relaxation_tree_nodes += (
                relaxation_loser.statistics.relaxation_tree_nodes
            )
            result.winner.statistics.dual_ascents += (
                relaxation_loser.statistics.dual_ascents
            )
        self.rounds += 1
        if result.winner.algorithm == self.relaxation.name:
            self.relaxation_wins += 1
        else:
            self.cost_scaling_wins += 1
        self.total_wall_clock_seconds += result.wall_clock_seconds
        self.total_winner_runtime_seconds += result.winner.runtime_seconds
        self.total_work_seconds += result.total_work_seconds
        self.last_result = result
        return result
