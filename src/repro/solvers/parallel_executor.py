"""True parallel speculative dual-algorithm execution (Section 6.1).

:class:`ParallelDualExecutor` is a drop-in
:class:`~repro.solvers.base.Solver` that races the paper's two algorithms
for real instead of modeling the race:

* **Relaxation** runs in a *persistent worker subprocess* behind a
  :class:`~repro.solvers.worker.WorkerClient`.  :mod:`repro.solvers.worker`
  documents the transport (DIMACS full/delta/resync payloads, the
  answered-up send guard, the circuit breaker); this module only decides
  *whether* a round consults the worker and who won.
* **Incremental cost scaling** runs in the parent process, patching its
  persistent residual network from the round's
  :class:`~repro.flow.changes.ChangeBatch` exactly as in the sequential
  executor.

First finisher wins:

* If the parent's cost scaling run completes while the worker is still
  solving, cost scaling wins and the worker's round is **abandoned** -- the
  parent returns immediately and the client discards the worker's stale
  response whenever it eventually drains from the pipe.
* While cost scaling runs, it polls the client through the cooperative
  :attr:`~repro.solvers.cost_scaling.CostScalingSolver.abort_check` hook;
  when the worker's solution arrives first, the parent-side run is
  **cancelled** mid-flight (:class:`~repro.solvers.base.SolveAborted`) and
  relaxation wins.  The winning relaxation solution then seeds the
  incremental solver's warm state, as in the sequential executor.

The parent-side leg runs every round; :meth:`ParallelDualExecutor._speculates`
decides whether the worker is consulted.  When the incremental solver holds
a revision-chained persistent residual and the round's change batch is
small (``delta_solo_threshold``, by default :data:`DELTA_SOLO_THRESHOLD`),
the parent solves solo -- a bounded O(|changes|) repair cannot lose to a
from-scratch relaxation run, so racing would only waste a core (and on
oversubscribed hosts would actively slow the guaranteed winner); the
worker stays idle and the client's revision-chain cache covers the gap.
The full race runs on exactly the rounds where Section 6.1's insurance
matters: cold starts, post-seed rebuilds and oversized batches.  The rule
and its threshold exist only here: the inline
:class:`~repro.solvers.dual_executor.DualAlgorithmExecutor` models the
second core and races every round.

When no worker can be had (spawn failure, open breaker, platforms without
multiprocessing) the round runs the inline back-to-back race inherited from
:class:`~repro.solvers.dual_executor.DualAlgorithmExecutor` on the same
component solver instances and under the same rule, so warm state carries
over.
"""

from __future__ import annotations

import functools
import time
from typing import Optional

from repro.flow.changes import ChangeBatch
from repro.flow.graph import FlowNetwork
from repro.solvers.base import (
    RoundDeadline,
    RoundDeadlineExceeded,
    SolveAborted,
    SolverResult,
)
from repro.solvers.dual_executor import DualAlgorithmExecutor, DualExecutionResult
from repro.solvers.incremental import IncrementalCostScalingSolver
from repro.solvers.relaxation import RelaxationSolver
from repro.solvers.worker import WorkerClient
from repro.solvers.worker_health import WorkerCircuitBreaker

#: How long the parent waits for the worker after the parent-side solver
#: *failed* (e.g. infeasibility; the race is then an error against an
#: error) before re-raising the parent's error.
LOSER_GRACE_SECONDS = 30.0

#: Change-batch size up to which a *delta-armed* round skips speculation.
#: When the incremental solver holds a revision-chained persistent residual,
#: its round costs O(|changes| + repair), and the repair stops each search
#: at the nearest deficit instead of settling the zero-reduced-cost plateau
#: behind it (``_augment_along_reduced_costs``): ~0.4 ms at 128 machines
#: and ~1 ms at 512 for a dozen changed tasks -- for batches this small far
#: below any from-scratch relaxation run, so racing cannot change the
#: winner; it only burns a second core.  Rebuild rounds -- first round,
#: post-seed rounds, oversized batches -- always race, which is where
#: Section 6.1's tail-latency insurance actually pays.
DELTA_SOLO_THRESHOLD = 1024


def _make_relaxation(ascent_cap: Optional[int] = None, **kwargs) -> RelaxationSolver:
    """Worker-side solver factory (``ascent_cap`` is an attribute, not a
    constructor argument, of :class:`RelaxationSolver`)."""
    solver = RelaxationSolver(**kwargs)
    solver.ascent_cap = ascent_cap
    return solver


class ParallelDualExecutor(DualAlgorithmExecutor):
    """Race relaxation (worker subprocess) against incremental cost scaling
    (parent process); the first finisher's solution is installed."""

    name = "firmament_dual_parallel"

    @property
    def charges_wall_clock(self) -> bool:
        """Tell the scheduler to charge real measured wall clock per round.

        True while racing for real: the race is physical, so the modeled
        ``min()`` of the sequential executor would under-report.  On a
        round served by the sequential fallback the legs run back to back
        again, and charging wall clock would double-charge the loser --
        such rounds revert to the winner's modeled runtime.  The flag is
        per-round because the circuit breaker makes fallback temporary:
        a probe round that re-closes the breaker resumes real racing.
        """
        return not self._last_round_fallback

    @property
    def breaker(self) -> WorkerCircuitBreaker:
        """The worker's circuit breaker."""
        return self.worker.breaker

    def __init__(
        self,
        relaxation: Optional[RelaxationSolver] = None,
        incremental: Optional[IncrementalCostScalingSolver] = None,
        delta_solo_threshold: Optional[int] = DELTA_SOLO_THRESHOLD,
        breaker: Optional[WorkerCircuitBreaker] = None,
        round_deadline_seconds: Optional[float] = None,
        chaos=None,
    ) -> None:
        """Create the executor.

        Args:
            relaxation: Relaxation configuration template; its settings (not
                the instance) are shipped to the worker subprocess.  The
                instance itself only solves when the executor has fallen
                back to sequential mode.  Its ``ascent_cap`` attribute (the
                cap on dual ascents per run, past which the leg aborts) is
                shipped too.
            incremental: Incremental cost scaling instance run in the parent.
            delta_solo_threshold: Skip speculation on delta-armed rounds
                whose change batch is at most this large (0 races every
                non-empty batch, ``None`` every round); the default is
                :data:`DELTA_SOLO_THRESHOLD` because this executor pays a
                core for the second leg.
            breaker: Worker health state machine handed to the
                :class:`~repro.solvers.worker.WorkerClient` (a default
                :class:`~repro.solvers.worker_health.WorkerCircuitBreaker`
                when omitted).
            round_deadline_seconds: Per-round wall-clock budget.  When set,
                the parent-side cost scaling leg truncates its epsilon
                ladder at the budget (still feasible and epsilon-optimal
                at the coarser epsilon) and both legs are hard-aborted one
                watchdog period later (a fallback round follows the inline
                executor's rule instead); a round where *no* leg produced a
                feasible flow raises :class:`RoundDeadlineExceeded` so the
                scheduler can degrade to the previous placements.
            chaos: Optional :class:`repro.chaos.ChaosPolicy` injecting
                deterministic faults into the round pipeline (tests only;
                None keeps every hook a no-op).
        """
        super().__init__(
            relaxation=relaxation, incremental=incremental,
            round_deadline_seconds=round_deadline_seconds, chaos=chaos,
        )
        self.delta_solo_threshold = delta_solo_threshold
        #: The relaxation worker; its transport counters (``snapshot_ships``,
        #: ``delta_ships``, ``resync_ships``, ``skipped_rounds``,
        #: ``respawns``) are the executor's.
        self.worker = WorkerClient(
            _make_relaxation,
            {
                "arc_prioritization": self.relaxation.arc_prioritization,
                "ascent_cap": self.relaxation.ascent_cap,
            },
            breaker=breaker,
        )
        self._closed = False
        self._last_round_fallback = False
        #: Rounds served by the sequential fallback (observability).
        self.fallback_rounds: int = 0
        #: Rounds the solo-delta rule ran the cost-scaling leg alone, on
        #: the worker path and the fallback alike.
        self.solo_delta_rounds: int = 0

    def reset_counters(self) -> None:
        """Zero race and transport counters; worker and warm state persist."""
        super().reset_counters()
        self.fallback_rounds = 0
        self.solo_delta_rounds = 0
        self.worker.reset_counters()

    def close(self) -> None:
        """Shut the worker down gracefully; idempotent and terminal.

        After close the executor refuses further rounds instead of
        silently respawning a worker nobody will shut down -- see
        :meth:`solve_detailed`.
        """
        self._closed = True
        self.worker.close()

    # ------------------------------------------------------------------ #
    # The race
    # ------------------------------------------------------------------ #
    def solve_detailed(
        self, network: FlowNetwork, changes: Optional[ChangeBatch] = None
    ) -> DualExecutionResult:
        """Race the two algorithms; return the first finisher's result.

        The winning flow is the one left assigned on the network's arcs.
        """
        if self._closed:
            raise RuntimeError(
                "ParallelDualExecutor is closed; create a new executor"
            )
        chaos, chaos_round = self._begin_chaos_round()
        worker = self.worker
        # Every revision-chained batch is remembered -- including the rounds
        # solved solo below, which is exactly when the worker's chain would
        # otherwise break and force a full snapshot.
        worker.begin_round(changes)
        speculates = self._speculates(changes)
        self.solo_delta_rounds += not speculates
        if not worker.ensure():
            return self._solve_fallback(network, changes, speculates)

        started = time.perf_counter()
        deadline: Optional[RoundDeadline] = None
        if self.round_deadline_seconds is not None:
            deadline = RoundDeadline(self.round_deadline_seconds)

        # None whenever the worker takes no part in the round (a solo delta
        # round, a busy or lost worker, a chaos kill): cost scaling then
        # runs unopposed, with no retry -- the breaker's backoff decides
        # when the next respawn attempt happens.
        round_id: Optional[int] = None
        if speculates:
            round_id = worker.ship(network, changes, chaos, chaos_round)

        cost_scaling_result: Optional[SolverResult] = None
        parent_error: Optional[BaseException] = None
        abort_check = None
        if round_id is not None:
            abort_check = functools.partial(worker.poll, round_id)
            if deadline is not None:
                worker_answered, hard_expired = abort_check, deadline.hard_expired
                abort_check = lambda: worker_answered() or hard_expired()  # noqa: E731
        elif deadline is not None:
            abort_check = deadline.hard_expired
        self.incremental.abort_check = abort_check
        self.incremental.deadline_check = deadline
        try:
            # Unopposed, the leg is the winner and writes its own flow.
            cost_scaling_result = self.incremental.solve(
                network, changes=changes, write_back=round_id is None
            )
        except SolveAborted:
            pass
        except Exception as error:
            parent_error = error
        finally:
            self.incremental.abort_check = None
            self.incremental.deadline_check = None
        parent_finished_at = time.monotonic()

        answered = deadline_hit = False
        if round_id is not None:
            # One last drain settles the photo finish (the worker may have
            # crossed the line between the last abort check and now).
            answered = worker.poll(round_id)
            if not answered and parent_error is not None:
                # The parent-side solver failed (e.g. infeasibility).  Give
                # the worker a bounded grace period to disagree.
                answered = worker.wait(round_id, LOSER_GRACE_SECONDS)
            elif not answered and cost_scaling_result is None and deadline is not None:
                # Deadline abort with the worker still in flight: grant one
                # watchdog period of grace (the worker may be mid-send).
                answered = deadline_hit = worker.wait(
                    round_id, deadline.watchdog_period
                )
            worker.settle()
        relaxation_result = worker.result if answered else None

        if cost_scaling_result is None and not answered:
            if parent_error is not None:
                raise parent_error
            if deadline is None:
                raise RuntimeError(
                    "cost scaling aborted without a worker result or deadline"
                )  # pragma: no cover - abort sources are exactly those two
            # The deadline hard-aborted the parent leg before it produced a
            # feasible flow, and no worker result arrived either.
            self.deadline_exceeded_rounds += 1
            raise RoundDeadlineExceeded(
                "no solver produced a feasible flow within the round "
                f"budget ({self.round_deadline_seconds:.3f}s)"
            )
        result = self._finish_round(
            network, started, relaxation_result, cost_scaling_result,
            # Without a parent result, cost scaling was cancelled by the
            # worker's finish (or failed, or died at the deadline, and the
            # worker delivered in grace).
            winner_is_relaxation=answered
            and (
                cost_scaling_result is None
                or worker.finished_at <= parent_finished_at
            ),
            executor="parallel",
            deadline_hit=deadline_hit,
            written=round_id is None,
        )
        worker.stamp_round(result.winner.statistics)
        self._last_round_fallback = False
        return result

    def _speculates(self, changes: Optional[ChangeBatch]) -> bool:
        """Whether this round runs the relaxation leg beside cost scaling.

        The whole decision: the cost-scaling leg runs every round, and
        alone iff ``delta_solo_threshold`` is set, the batch chains onto
        the leg's persistent residual and is at most that large
        (:data:`DELTA_SOLO_THRESHOLD` says why).
        """
        threshold = self.delta_solo_threshold
        return not (
            threshold is not None
            and self.incremental.can_solve_delta(changes)
            and len(changes) <= threshold
        )

    def _solve_fallback(
        self, network: FlowNetwork, changes: Optional[ChangeBatch], speculates: bool
    ) -> DualExecutionResult:
        """No worker can be had: run the inherited inline race on the same
        component solvers and under the same rule, so warm state carries
        over in both directions."""
        result = self._race_inline(
            network, changes, speculates, executor="sequential_fallback"
        )
        self.fallback_rounds += 1
        self._last_round_fallback = True
        self.worker.stamp_round(result.winner.statistics)
        return result
