"""Speculative dual-algorithm execution (Section 6.1 of the paper).

Firmament's MCMF solver always runs two algorithms on every scheduling
iteration -- from-scratch relaxation and incremental cost scaling -- and
picks the solution of whichever finishes first.  In the common case
relaxation wins by a wide margin; under oversubscription or heavy contention
relaxation degrades badly and incremental cost scaling bounds the placement
latency.  Running both is cheap because each algorithm is single-threaded.

The reproduction provides two executors:

* :class:`DualAlgorithmExecutor` (this module) runs both legs every round,
  *sequentially*, and models the concurrent deployment: the *effective*
  runtime reported for an iteration is the minimum of the two runtimes,
  exactly as if they had run on two cores, while the real wall-clock cost
  paid is the sum.  Both numbers are exposed so experiments can reason
  about either.  ``simulate`` and the figure benchmarks run it.
* :class:`~repro.solvers.parallel_executor.ParallelDualExecutor`, its
  subclass, races the algorithms *for real*: relaxation runs in a
  persistent worker subprocess while incremental cost scaling runs in the
  parent, the first finisher wins, and the loser is cancelled (parent side)
  or abandoned (worker side).  Its measured wall clock per round
  approximates the winner's solo runtime instead of the sum.  It alone
  skips the relaxation leg on small revision-chained batches (its
  solo-delta rule), because it alone pays a second core for that leg.

``serve`` runs neither: a service pays the wall clock of every leg it runs
on its one event-loop thread, so its monolithic scheduler solves each
round with :class:`~repro.solvers.incremental.IncrementalCostScalingSolver`
alone, the solver every ``--cells`` cell runs.

The executor owns a raced round's single flow write-back: the legs solve
on their own persistent residuals and never touch ``network``'s arcs; the
winner's flows are written once, after the race (``set_flows``, a compare
pass over every arc).  A round the parallel executor solves solo has one
leg, and that leg is the winner: it writes its own flow journal
(:meth:`~repro.solvers.residual.ResidualNetwork.write_flow_back`, the arcs
it moved and nothing else).  The incremental cost
scaling instance is seeded from a relaxation win (price refine makes the
potentials usable, Section 6.2) **iff it holds no residual of its own at
this round's revision** -- its leg was cancelled by the parallel race,
aborted, or truncated at the deadline.  A leg that ran to completion keeps
its own 0-optimal residual, so the next round repairs it with
``solve_delta`` instead of paying an O(graph) warm rebuild plus a full
price refine for a re-sync nothing invalidated.
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
        relaxation: The relaxation run's result; ``None`` on the parallel
            executor's solo delta rounds (the leg did not run), when it
            abandoned the worker's round before it finished, and when the
            leg was aborted at the deadline or its ascent cap.
        cost_scaling: The (incremental) cost scaling run's result; ``None``
            when the parallel executor cancelled the run mid-flight or the
            hard deadline aborted it -- the leg itself runs every round.
        effective_runtime_seconds: The placement latency of the round: the
            modeled min of the two runtimes for the sequential executor,
            the *measured* wall clock for the parallel one.
        total_work_seconds: CPU seconds paid for the speculation (sum of
            the known runtimes; a cancelled run is accounted at the wall
            clock it consumed before cancellation).
        wall_clock_seconds: Real elapsed time of the round in the calling
            process.  For the sequential executor this is the sum of the
            runtimes; for the parallel executor it approximates the
            winner's solo runtime plus IPC overhead.
        executor: Which execution strategy produced this round
            (``"sequential"``, ``"parallel"``, or ``"sequential_fallback"``
            when the parallel executor could not use multiprocessing).
    """

    winner: SolverResult
    relaxation: Optional[SolverResult]
    cost_scaling: Optional[SolverResult]
    effective_runtime_seconds: float
    total_work_seconds: float
    wall_clock_seconds: float = 0.0
    executor: str = "sequential"

    @property
    def winning_algorithm(self) -> str:
        """Name of the faster algorithm in this iteration."""
        return self.winner.algorithm


class DualAlgorithmExecutor(Solver):
    """Run relaxation and incremental cost scaling back to back every round,
    keep the faster answer (the modeled concurrent deployment).

    Owns the component solvers, the inline race (:meth:`_race_inline`,
    which :class:`~repro.solvers.parallel_executor.ParallelDualExecutor`
    also runs on its no-worker rounds) and the one round assembly
    (:meth:`_finish_round`: the flow write-back, the
    seed-iff-no-current-residual rule, work accounting, race counters).
    """

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
        self.total_wall_clock_seconds: float = 0.0
        self.total_winner_runtime_seconds: float = 0.0
        self.total_work_seconds: float = 0.0

    #: Rounds that ran the cost-scaling leg alone.  A constant here, where
    #: both legs run every round; the parallel executor counts its own.
    solo_delta_rounds: int = 0

    def solve(
        self, network: FlowNetwork, changes: Optional[ChangeBatch] = None
    ) -> SolverResult:
        """Solve the network and return the winning algorithm's result."""
        return self.solve_detailed(network, changes).winner

    def solve_detailed(
        self, network: FlowNetwork, changes: Optional[ChangeBatch] = None
    ) -> DualExecutionResult:
        """Solve the network and return both algorithms' results; see
        :meth:`_race_inline`."""
        self._begin_chaos_round()
        return self._race_inline(network, changes)

    def close(self) -> None:
        """Release executor resources (worker processes); idempotent."""

    def reset_counters(self) -> None:
        """Zero the race counters (e.g. after a warm-up round).

        Benchmarks measuring steady-state racing call this after priming
        the executor, so one-time costs (worker spawn, interpreter warm-up,
        the first full-snapshot serialization) do not pollute the per-round
        accounting.  Solver warm state is left untouched.
        """
        self.rounds = 0
        self.relaxation_wins = 0
        self.cost_scaling_wins = 0
        self.total_wall_clock_seconds = 0.0
        self.total_winner_runtime_seconds = 0.0
        self.total_work_seconds = 0.0

    # ------------------------------------------------------------------ #
    # Race plumbing (the parallel executor's too)
    # ------------------------------------------------------------------ #
    def _begin_chaos_round(self):
        """Advance the chaos round clock and inject solver-state faults.

        Returns ``(chaos, round_index)``; both executors call this once at
        the top of :meth:`solve_detailed`.  ``residual_corruption`` is the
        one fault injected here because it lives in shared solver state
        (the incremental solver's persistent residual); the worker-process
        faults only exist in the parallel subclass.  Corrupting also arms
        ``validate_residual`` so the poisoned state must be *detected*, not
        merely survived.
        """
        chaos = self.chaos
        round_index = self._chaos_round
        self._chaos_round += 1
        if chaos is not None:
            residual = self.incremental.last_residual
            if residual is not None and chaos.fires("residual_corruption", round_index):
                corrupt_residual_potentials(residual, seed=chaos.seed + round_index)
                self.incremental.validate_residual = True
        return chaos, round_index

    def _race_inline(
        self,
        network: FlowNetwork,
        changes: Optional[ChangeBatch],
        speculates: bool = True,
        executor: str = "sequential",
    ) -> DualExecutionResult:
        """Run the legs back to back in this process and model the race.

        A round that does not ``speculate`` (the parallel executor's
        solo-delta rule said so) runs the cost-scaling leg alone; the
        relaxation slot of its result is ``None``.

        With ``round_deadline_seconds`` set, each leg gets the full budget
        (the legs model *concurrent* algorithms): relaxation is aborted at
        the hard deadline or its ascent cap, and cost scaling follows the
        incremental solver's own rule (its ``round_deadline_seconds``: the
        epsilon ladder stops at the soft deadline, a delta repair is
        aborted at the hard one).  A leg that died degrades the round to
        the surviving leg; if both died, :class:`RoundDeadlineExceeded` is
        raised so the caller reuses the previous placements.
        """
        started = time.perf_counter()
        budget = self.round_deadline_seconds
        deadline_hit = False

        relaxation_result: Optional[SolverResult] = None
        if speculates:
            # The round's change batch is forwarded so the solver can patch
            # its persistent residual instead of rebuilding it.
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
            # Alone, the leg is the winner and writes its own flow.
            cost_scaling_result = self.incremental.solve(
                network, changes=changes, write_back=not speculates
            )
        except (RoundDeadlineExceeded, SolveAborted):
            deadline_hit = True

        if relaxation_result is None and cost_scaling_result is None:
            self.deadline_exceeded_rounds += 1
            raise RoundDeadlineExceeded(
                "no solver produced a feasible flow within the round budget"
                + (f" ({budget:.3f}s)" if budget is not None else "")
            )
        return self._finish_round(
            network, started, relaxation_result, cost_scaling_result,
            winner_is_relaxation=cost_scaling_result is None
            or (
                relaxation_result is not None
                and relaxation_result.runtime_seconds
                <= cost_scaling_result.runtime_seconds
            ),
            executor=executor,
            deadline_hit=deadline_hit,
            written=not speculates,
        )

    def _finish_round(
        self,
        network: FlowNetwork,
        started: float,
        relaxation_result: Optional[SolverResult],
        cost_scaling_result: Optional[SolverResult],
        winner_is_relaxation: bool,
        executor: str,
        deadline_hit: bool = False,
        written: bool = False,
    ) -> DualExecutionResult:
        """Install the winner, assemble the round's result and account it.

        The winner's flows are written onto ``network`` here, once, with
        ``set_flows``' compare pass over every arc -- unless the round ran
        the cost-scaling leg alone and that leg has ``written`` its own
        journal already.  A relaxation win seeds the incremental
        instance only when the cost-scaling leg left no residual at this
        round's revision (it was cancelled or aborted, or did not finish
        optimal); otherwise the leg's own residual stays and the next round
        takes ``solve_delta``.
        """
        if winner_is_relaxation:
            winner = relaxation_result
            if (
                cost_scaling_result is None
                or self.incremental.last_residual is None
            ):
                self.incremental.seed(winner.flows, winner.potentials)
        else:
            winner = cost_scaling_result
        if not written:
            network.set_flows(winner.flows)
        wall_clock = time.perf_counter() - started
        # A physically raced round without a parent result: that run was
        # cancelled mid-flight, having consumed roughly the whole round's
        # wall clock; an abandoned worker round is accounted only when its
        # runtime is known (the stale result may never drain).
        parent_cancelled = executor == "parallel" and cost_scaling_result is None
        work = wall_clock if parent_cancelled else 0.0
        for leg in (relaxation_result, cost_scaling_result):
            if leg is not None:
                work += leg.runtime_seconds
        if deadline_hit:
            winner.statistics.deadline_hits += 1
        if not winner.optimal:
            # A deadline-truncated epsilon ladder degraded this round.
            winner.statistics.degraded_round = 1
        return self._record_round(
            DualExecutionResult(
                winner=winner,
                relaxation=relaxation_result,
                cost_scaling=cost_scaling_result,
                # A physical race is charged what it measurably took; legs
                # run back to back model the concurrent deployment, whose
                # latency is the winner's own runtime.
                effective_runtime_seconds=(
                    wall_clock if executor == "parallel" else winner.runtime_seconds
                ),
                total_work_seconds=work,
                wall_clock_seconds=wall_clock,
                executor=executor,
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
