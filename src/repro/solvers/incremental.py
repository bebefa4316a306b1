"""Incremental cost scaling: delta solving with a warm-rebuild fallback.

Section 5.2 of the paper observes that cluster state changes little between
consecutive scheduling runs, so the MCMF solver should reuse its previous
solution.  Cost scaling is the best candidate for incremental operation even
though graph changes break its feasibility/epsilon-optimality preconditions:
it recovers by repairing only what the changes broke, rather than
restarting from the maximum arc cost.

:class:`IncrementalCostScalingSolver` is stateful and supports two levels
of reuse:

* **Delta solving** (the fast path): when the caller supplies the typed
  :class:`~repro.flow.changes.ChangeBatch` that transforms the previously
  solved network into the current one (the graph manager emits one per
  rebuild), the solver patches its *persistent residual network* in place
  and repairs optimality around the patched arcs only
  (:meth:`~repro.solvers.cost_scaling.CostScalingSolver.solve_delta`).  No
  ``ResidualNetwork`` is constructed and no O(graph) object traversal
  happens; per-round work is O(|changes| + repair).  The batch's revision
  identifiers guard the patch: if the residual does not mirror the batch's
  base revision (a round was skipped, or external state was seeded), the
  solver falls back to the rebuild path below.
* **Warm rebuild** (the fallback): the flow of the previous run, keyed by
  arc endpoints, and its potentials -- read off the retained residual at
  that moment, or handed over by :meth:`IncrementalCostScalingSolver.seed`
  -- are loaded into a freshly built residual network
  (:meth:`~repro.solvers.cost_scaling.CostScalingSolver.solve_warm`).  This
  tolerates arbitrary divergence between rounds -- the way Firmament's
  graph manager rebuilds networks from scratch -- at O(nodes + arcs)
  reconstruction cost.

Warm state is invalidated by :meth:`IncrementalCostScalingSolver.reset`;
the persistent residual alone is dropped (falling back to warm rebuild)
whenever :meth:`IncrementalCostScalingSolver.seed` installs an external
solution (a dual executor does so only when this instance has no residual
at the round's revision), a change batch fails to apply, or a delta solve
raises infeasibility mid-repair.

Section 5.3.2's **efficient task removal** needs no code of its own here:
removing a running task deletes a source node whose flow is still draped
over the graph downstream, and the paper drains that flow to the sink so
the imbalance lands next to the supply decrease.  Both paths get the same
effect from the repair itself: removing the task's arcs returns their flow
to the adjacent nodes, and the sink's surplus reaches the vacated machine
across one zero-reduced-cost reverse arc, where
:meth:`~repro.solvers.cost_scaling.CostScalingSolver._augment_along_reduced_costs`
stops.  (An O(arcs) pre-pass that walked the stale flow forward before a
warm rebuild measured slower than that repair; it survives as a local
ablation in ``benchmarks/bench_fig12_heuristics.py``.)
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.flow.changes import ChangeBatch
from repro.flow.graph import FlowNetwork
from repro.flow.validation import check_residual_epsilon_optimality
from repro.solvers.base import RoundDeadline, Solver, SolverResult
from repro.solvers.cost_scaling import CostScalingSolver, DEFAULT_ALPHA


class IncrementalCostScalingSolver(Solver):
    """Stateful cost-scaling solver that warm-starts from its previous run."""

    name = "incremental_cost_scaling"

    #: The scheduler may pass ``changes=ChangeBatch`` to :meth:`solve`.
    accepts_change_batches = True

    def __init__(
        self,
        alpha: int = DEFAULT_ALPHA,
        apply_price_refine: bool = True,
        price_refine: str = "auto",
        round_deadline_seconds: Optional[float] = None,
    ) -> None:
        """Create the solver.

        Args:
            alpha: Epsilon division factor for the underlying cost scaling.
            apply_price_refine: Apply the price-refine heuristic before each
                warm-started run (Section 6.2).
            price_refine: Price-refine variant forwarded to the underlying
                cost scaling (``"spfa"``, ``"dijkstra"``, or ``"auto"``;
                see :data:`repro.solvers.cost_scaling.PRICE_REFINE_MODES`).
                The Dijkstra variant seeds warm rebuilds from the previous
                round's potentials so refine work tracks inter-round drift
                instead of network size.
            round_deadline_seconds: Optional per-solve wall-clock budget.
                Each :meth:`solve` call runs under its own soft
                :class:`~repro.solvers.base.RoundDeadline`: the epsilon
                ladder stops at the current coarser epsilon when the budget
                expires, so the result is still a feasible epsilon-optimal
                flow, marked ``optimal=False`` (fig10-style approximate
                solving).  An externally installed :attr:`deadline_check`
                (e.g. a dual executor's) takes precedence.
        """
        # polish_potentials keeps the retained residual 0-optimal, which is
        # what makes it legal to hand back to solve_delta next round.
        self._cost_scaling = CostScalingSolver(
            alpha=alpha, polish_potentials=True, price_refine=price_refine
        )
        self.apply_price_refine = apply_price_refine
        #: Per-solve soft budget; see ``round_deadline_seconds`` above.
        self.round_deadline_seconds = round_deadline_seconds
        # Warm-rebuild state: the last solution's flow, plus the unscaled
        # potentials a seed() handed over.  After a solve of its own the
        # potentials live, scaled, on the inner solver (its retained
        # residual, or last_scaled_potentials once that was released).
        self._last_flows: Optional[Dict[Tuple[int, int], int]] = None
        self._last_potentials: Optional[Dict[int, int]] = None
        #: Count of solves served by the pure delta path (observability).
        self.delta_solves: int = 0
        #: Count of delta attempts that had to fall back to a rebuild.
        self.delta_fallbacks: int = 0
        #: When True, the retained residual's 0-optimality invariant is
        #: re-checked (``check_residual_epsilon_optimality(residual, 0)``)
        #: before every delta solve; a corrupted residual is dropped and the
        #: round falls back to a warm rebuild instead of repairing on top
        #: of garbage potentials.  Off by default — the check is O(arcs)
        #: per round; the chaos harness (and paranoid deployments) turn it
        #: on.
        self.validate_residual: bool = False
        #: Count of retained residuals the validation check rejected.
        self.residual_validation_failures: int = 0

    def reset(self) -> None:
        """Discard the remembered solution; the next solve runs from scratch."""
        self._last_flows = None
        self._last_potentials = None
        self._cost_scaling.discard_warm_state()

    def seed(self, flows: Dict[Tuple[int, int], int], potentials: Dict[int, int]) -> None:
        """Install an externally produced solution as the warm-start state.

        This is the Section 6.2 hand-off: a dual executor calls it with
        the winning relaxation solution **iff this instance holds no
        residual of its own at the round's revision** -- its leg was
        cancelled by the parallel race, aborted, or truncated at the
        deadline -- so the next run starts
        from the winner's flow instead of from a stale or missing one.  A
        leg that ran to completion is *not* seeded: its retained residual
        is 0-optimal at the current revision, and dropping it would trade
        the next round's ``solve_delta`` for an O(graph) rebuild plus a
        full price refine.

        Relaxation potentials are exact in unscaled units, so the scaled
        state of any previous cost-scaling run -- including the persistent
        residual -- is discarded and the next solve rebuilds warm (price
        refine makes the handed-over potentials usable).
        """
        self._last_flows = dict(flows)
        self._last_potentials = dict(potentials)
        self._cost_scaling.discard_warm_state()

    @property
    def has_state(self) -> bool:
        """Return whether a previous solution is available for warm starting."""
        return self._last_flows is not None

    @property
    def price_refine(self) -> str:
        """Price-refine variant of the underlying cost scaling solver."""
        return self._cost_scaling.price_refine

    @property
    def abort_check(self):
        """Cooperative cancellation hook, forwarded to the inner solver.

        Set by the speculative parallel executor for the duration of a race
        so the losing cost-scaling run can be cancelled mid-flight; see
        :attr:`repro.solvers.cost_scaling.CostScalingSolver.abort_check`.
        """
        return self._cost_scaling.abort_check

    @abort_check.setter
    def abort_check(self, check) -> None:
        self._cost_scaling.abort_check = check

    @property
    def deadline_check(self):
        """Soft-deadline hook, forwarded to the inner solver.

        Polled at epsilon-phase boundaries; firing stops the scaling
        ladder at the current coarser epsilon (fig10-style approximate
        solving) instead of cancelling the run; see
        :attr:`repro.solvers.cost_scaling.CostScalingSolver.deadline_check`.
        """
        return self._cost_scaling.deadline_check

    @deadline_check.setter
    def deadline_check(self, check) -> None:
        self._cost_scaling.deadline_check = check

    @property
    def persistent_residual(self):
        """The retained residual of the inner solver (None when absent)."""
        return self._cost_scaling.last_residual

    @property
    def last_degradation(self):
        """Deadline-degradation record of the most recent inner run."""
        return self._cost_scaling.last_degradation

    def can_solve_delta(self, changes: Optional[ChangeBatch]) -> bool:
        """Whether the next solve with this batch takes the pure delta path.

        True when a persistent residual exists and the batch's revision
        chain connects to it, so the round's cost is O(|changes| + repair)
        rather than O(graph).  The parallel executor consults this to skip
        pointless speculation: from-scratch relaxation cannot beat a small
        bounded delta repair.
        """
        return self._deltable_residual(changes) is not None

    def _deltable_residual(self, changes: Optional[ChangeBatch]):
        """Return the persistent residual if the change batch applies to it."""
        if changes is None or not self.has_state:
            return None
        residual = self._cost_scaling.last_residual
        if residual is None:
            return None
        # Revision guard: the batch must connect the snapshot the residual
        # mirrors to the network being solved.  (Both None -- hand-built
        # networks -- is accepted; the caller vouches for consistency.)
        if residual.revision != changes.base_revision:
            return None
        return residual

    def solve(
        self,
        network: FlowNetwork,
        changes: Optional[ChangeBatch] = None,
        write_back: bool = True,
    ) -> SolverResult:
        """Solve the network, reusing the previous solution when available.

        Args:
            network: The flow network to solve.
            changes: Optional typed batch transforming the previously solved
                network into ``network`` (as emitted by
                :meth:`repro.core.graph_manager.GraphManager.update`).  When
                supplied and applicable, the solve runs on the persistent
                residual without reconstructing it.
            write_back: Write the flow onto ``network``'s arcs.  A dual
                executor passes False and writes the round's winning flows
                itself, once.
        """
        # Per-solve soft deadline: truncate the epsilon ladder at the
        # budget.  An externally installed check (a dual executor running
        # its own RoundDeadline) is never clobbered.
        installed_deadline = False
        if (
            self.round_deadline_seconds is not None
            and self._cost_scaling.deadline_check is None
        ):
            self._cost_scaling.deadline_check = RoundDeadline(
                self.round_deadline_seconds
            ).expired
            installed_deadline = True
        self._cost_scaling._write_back = write_back
        try:
            return self._solve_inner(network, changes)
        finally:
            self._cost_scaling._write_back = True
            if installed_deadline:
                self._cost_scaling.deadline_check = None

    def _solve_inner(
        self, network: FlowNetwork, changes: Optional[ChangeBatch] = None
    ) -> SolverResult:
        residual = self._deltable_residual(changes)
        if residual is not None and self.validate_residual:
            problems = check_residual_epsilon_optimality(residual, 0)
            if problems:
                # The retained residual no longer proves 0-optimality
                # (state corruption, a bug, a cosmic ray).  Repairing on
                # top of bad potentials would silently produce a wrong
                # flow, so drop the residual *and* its potentials and
                # rebuild warm from the flow alone.
                self._cost_scaling.discard_warm_state()
                self.residual_validation_failures += 1
                residual = None
        if residual is not None:
            try:
                result = self._cost_scaling.solve_delta(residual, network, changes)
                self.delta_solves += 1
                result.statistics.delta_solve = 1
            except (KeyError, ValueError):
                # The batch does not match the residual's structure; the
                # half-patched residual is unusable, so release it (its
                # potentials still warm-start the rebuild) and rebuild.
                self.delta_fallbacks += 1
                result = self._solve_rebuild(network)
            except Exception:
                self._cost_scaling.release_residual()
                raise
        else:
            result = self._solve_rebuild(network)
        # Read only by a later warm rebuild, which copies it first: the
        # result's dict, fresh per solve, is kept by reference.
        self._last_flows = result.flows
        self._last_potentials = None
        return result

    def _solve_rebuild(self, network: FlowNetwork) -> SolverResult:
        """Solve by (re)building a residual network (cold or warm)."""
        if not self.has_state:
            result = self._cost_scaling.solve(network)
            result = SolverResult(
                algorithm=self.name,
                total_cost=result.total_cost,
                flows=result.flows,
                potentials=result.potentials,
                runtime_seconds=result.runtime_seconds,
                statistics=result.statistics,
                optimal=result.optimal,
            )
        else:
            # Whatever residual is still retained does not connect to this
            # round (no batch, a revision gap, a failed patch): solve_warm
            # builds a fresh one, and the old one's potentials seed it.
            self._cost_scaling.release_residual()
            result = self._cost_scaling.solve_warm(
                network,
                dict(self._last_flows),
                warm_potentials=dict(self._last_potentials or {}),
                apply_price_refine=self.apply_price_refine,
                warm_scaled_potentials=self._cost_scaling.last_scaled_potentials,
                warm_scale=self._cost_scaling.last_scale,
            )
            result.algorithm = self.name
        return result
