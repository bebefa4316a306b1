"""Incremental cost scaling: delta solving with a warm-rebuild fallback.

Section 5.2 of the paper observes that cluster state changes little between
consecutive scheduling runs, so the MCMF solver should reuse its previous
solution.  Cost scaling is the best candidate for incremental operation even
though graph changes break its feasibility/epsilon-optimality preconditions:
it recovers by repairing only what the changes broke, rather than
restarting from the maximum arc cost.

:class:`IncrementalCostScalingSolver` is a
:class:`~repro.solvers.cost_scaling.CostScalingSolver` that owns its warm
state -- the retained residual and scaled potentials it inherits, plus the
last solution's flow -- and supports two levels of reuse:

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
  reconstruction cost.  The stale flow goes to the residual, never onto
  the network being solved: the network's arcs are written only by the
  write-back.

Handed a graph manager's :class:`~repro.solvers.residual.FlowGraph` (by
``serve`` or the dual executor), the solver keeps the graph's own residual:
the manager's mutations already patched it, so a chained round repairs what
they touched -- no batch replayed, no residual built, no flow written -- and
an unchained round's "rebuild" loads the stale flow into that residual.

Warm state is invalidated by :meth:`IncrementalCostScalingSolver.reset`;
the persistent residual alone is dropped (falling back to warm rebuild)
whenever :meth:`IncrementalCostScalingSolver.seed` installs an external
solution (the dual executor does so only when this instance has no residual
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

from typing import Dict, Mapping, Optional, Tuple

from repro.flow.changes import ChangeBatch
from repro.flow.graph import FlowNetwork
from repro.flow.validation import check_residual_epsilon_optimality
from repro.solvers.base import (
    RoundDeadline,
    RoundDeadlineExceeded,
    SolveAborted,
    SolverResult,
)
from repro.solvers.cost_scaling import CostScalingSolver, DEFAULT_ALPHA


class IncrementalCostScalingSolver(CostScalingSolver):
    """Stateful cost-scaling solver that warm-starts from its previous run."""

    name = "incremental_cost_scaling"

    #: The scheduler may pass ``changes=ChangeBatch`` to :meth:`solve`, and
    #: hands it the graph manager's :class:`FlowGraph` itself.
    accepts_change_batches = True
    solves_in_place = True

    def __init__(
        self,
        alpha: int = DEFAULT_ALPHA,
        apply_price_refine: bool = True,
        price_refine: str = "auto",
        round_deadline_seconds: Optional[float] = None,
    ) -> None:
        """Create the solver.

        Args:
            alpha: Epsilon division factor of the cost scaling.
            apply_price_refine: Apply the price-refine heuristic before each
                warm-started run (Section 6.2).
            price_refine: Price-refine variant (``"spfa"``, ``"dijkstra"``,
                or ``"auto"``; see
                :data:`repro.solvers.cost_scaling.PRICE_REFINE_MODES`).
                The Dijkstra variant seeds warm rebuilds from the previous
                round's potentials so refine work tracks inter-round drift
                instead of network size.
            round_deadline_seconds: Optional per-solve wall-clock budget.
                Each :meth:`solve` call runs under its own
                :class:`~repro.solvers.base.RoundDeadline`: at the soft
                deadline the epsilon ladder stops at the current coarser
                epsilon, so the result is still a feasible epsilon-optimal
                flow, marked ``optimal=False`` (fig10-style approximate
                solving); a *delta repair* still running at the hard
                deadline is aborted, the retained residual released, and
                :class:`~repro.solvers.base.RoundDeadlineExceeded` raised,
                so the scheduler reuses the previous placements.  The
                released residual makes the next round a rebuild, and a
                rebuild or cold solve is never aborted -- it stops only at
                the soft truncation -- so a degraded round is always
                followed by one that places.  This is the budget of
                ``serve``'s monolith, of every inline sharded cell and of
                the dual executor's cost-scaling leg.  Externally
                installed :attr:`deadline_check` / :attr:`abort_check`
                hooks take precedence.
        """
        # polish_potentials keeps the retained residual 0-optimal, which is
        # what makes it legal to hand back to solve_delta next round.
        super().__init__(alpha=alpha, polish_potentials=True, price_refine=price_refine)
        self.apply_price_refine = apply_price_refine
        #: Per-solve budget; see ``round_deadline_seconds`` above.
        self.round_deadline_seconds = round_deadline_seconds
        # Warm-rebuild state: the last solution's flow, plus the unscaled
        # potentials a seed() handed over.  After a solve of its own the
        # potentials live, scaled, on the retained residual (or in
        # last_scaled_potentials once that was released).
        self._last_flows: Optional[Mapping[Tuple[int, int], int]] = None
        self._last_potentials: Optional[Dict[int, int]] = None
        #: Count of solves served by the pure delta path (observability).
        self.delta_solves: int = 0
        #: Count of delta attempts that had to fall back to a rebuild.
        self.delta_fallbacks: int = 0
        #: When True, the retained residual's 0-optimality invariant is
        #: re-checked (``check_residual_epsilon_optimality(residual, 0)``)
        #: before every delta solve, on every arc but those a graph's
        #: pending patch touched; a corrupted residual is dropped and the
        #: round falls back to a warm rebuild instead of repairing on top
        #: of garbage potentials.  Off by default — the check is O(arcs)
        #: per round; the chaos harness (and paranoid deployments) turn it
        #: on.
        self.validate_residual: bool = False
        #: Count of retained residuals the validation check rejected.
        self.residual_validation_failures: int = 0
        # The retained residual's revision and patch count when it was
        # solved, and whether it is a graph's: a batch chains onto it iff it
        # starts at that revision, nothing patched it or loaded another
        # solver's flow since, and it is solved the same way.
        self._solved_revision: Optional[int] = None
        self._solved_patches = 0
        self._solved_in_place = False

    def reset(self) -> None:
        """Discard the remembered solution; the next solve runs from scratch."""
        self._last_flows = None
        self._last_potentials = None
        self.discard_warm_state()

    def seed(self, flows: Dict[Tuple[int, int], int], potentials: Dict[int, int]) -> None:
        """Install an externally produced solution as the warm-start state.

        This is the Section 6.2 hand-off: a dual executor calls it with
        the winning relaxation solution **iff this instance holds no
        residual of its own at the round's revision** -- its leg was
        aborted or truncated at the deadline -- so the next run starts
        from the winner's flow instead of from a stale or missing one.  A
        leg that ran to completion :meth:`adopt`s the winner instead: its
        retained residual is at the current revision, and dropping it would
        trade the next round's ``solve_delta`` for an O(graph) rebuild plus
        a full price refine.

        Relaxation potentials are exact in unscaled units, so the scaled
        state of any previous cost-scaling run -- including the persistent
        residual -- is discarded and the next solve rebuilds warm (price
        refine makes the handed-over potentials usable).
        """
        self._last_flows = dict(flows)
        self._last_potentials = dict(potentials)
        self.discard_warm_state()

    @property
    def has_state(self) -> bool:
        """Return whether a previous solution is available for warm starting."""
        return self._last_flows is not None

    def adopt(self, flows: Mapping[Tuple[int, int], int], potentials: Mapping[int, int]) -> None:
        """Load another solver's optimal flow and exact potentials into the
        retained residual (scaled to its units): the Section 6.2 hand-off
        that keeps it 0-optimal, so the next round still chains onto it."""
        residual = self.last_residual
        residual.load_flows(flows)
        residual.load_potentials({n: p * residual.cost_scale for n, p in potentials.items()})
        self._solved_patches = residual.patches_applied

    def can_solve_delta(self, changes: Optional[ChangeBatch], network=None) -> bool:
        """Whether the next solve of ``network`` with this batch is a delta.

        True when a persistent residual exists and the batch's revision
        chain connects to it, so the round's cost is O(|changes| + repair)
        rather than O(graph).  The dual executor runs this solver alone
        exactly when it holds: a from-scratch relaxation run rarely beats
        the delta repair, whatever the batch's size.
        """
        return self._deltable_residual(network, changes) is not None

    def _deltable_residual(self, network, changes: Optional[ChangeBatch]):
        """Return the persistent residual if the change batch applies to it."""
        if changes is None or not self.has_state:
            return None
        residual = self.last_residual
        if residual is None:
            return None
        graph = self._in_place(network)
        if self._solved_in_place != (graph is not None) or graph not in (None, residual):
            return None
        # Revision guard: the batch must connect the snapshot the residual
        # mirrors to the network being solved.  (Both None -- hand-built
        # networks -- is accepted; the caller vouches for consistency.)
        if (
            self._solved_revision != changes.base_revision
            or residual.patches_applied != self._solved_patches
        ):
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
            network: The flow network to solve, or a graph manager's
                :class:`FlowGraph`, whose residual is solved in place.
            changes: Optional typed batch transforming the previously solved
                network into ``network`` (as emitted by
                :meth:`repro.core.graph_manager.GraphManager.update`).  When
                supplied and applicable, the solve runs on the persistent
                residual without reconstructing it.
            write_back: Write the flow onto ``network``'s arcs.  A dual
                executor passes False and writes the round's winning flows
                itself, once; no path writes the network otherwise.
        """
        # Per-solve deadline (see ``round_deadline_seconds``).  An externally
        # installed check is never clobbered.
        deadline: Optional[RoundDeadline] = None
        if self.round_deadline_seconds is not None and self.deadline_check is None:
            deadline = RoundDeadline(self.round_deadline_seconds)
            self.deadline_check = deadline
        try:
            result = self._solve_once(network, changes, write_back, deadline)
        finally:
            if deadline is not None:
                self.deadline_check = None
        # Read only by a later warm rebuild: the result's mapping, fresh per
        # solve, is kept by reference.
        self._last_flows = result.flows
        self._last_potentials = None
        if self.last_residual is not None:
            self._solved_revision = self.last_residual.revision
            self._solved_patches = self.last_residual.patches_applied
            self._solved_in_place = self._in_place(network) is not None
        return result

    def _solve_once(
        self,
        network: FlowNetwork,
        changes: Optional[ChangeBatch],
        write_back: bool,
        deadline: Optional[RoundDeadline],
    ) -> SolverResult:
        """The delta / warm / cold choice."""
        residual = self._deltable_residual(network, changes)
        # A graph's residual is patched already: the arcs its patch touched
        # are the repair's to check.
        if residual is not None and self.validate_residual:
            if check_residual_epsilon_optimality(residual, 0, skip=residual.pending_dirty):
                # The retained residual no longer proves 0-optimality
                # (state corruption, a bug, a cosmic ray).  Repairing on
                # top of bad potentials would silently produce a wrong
                # flow, so drop the residual *and* its potentials and
                # rebuild warm from the flow alone.
                self.discard_warm_state()
                self.residual_validation_failures += 1
                residual = None
        if residual is None:
            return self._solve_rebuild(network, write_back)
        # Only a delta repair is aborted at the hard deadline: the abort
        # releases the residual, so the next round rebuilds, and a rebuild
        # stops only at the soft truncation -- it always finishes.
        armed = deadline is not None and self.abort_check is None
        if armed:
            self.abort_check = deadline.hard_expired
        try:
            result = self.solve_delta(residual, network, changes, write_back)
        except (KeyError, ValueError):
            # The batch does not match the residual's structure; the
            # half-patched residual is unusable, and the rebuild below
            # releases it (its potentials still warm-start the rebuild).
            result = None
        except SolveAborted:
            self.release_residual()
            if not armed:
                raise
            raise RoundDeadlineExceeded(
                "incremental cost scaling's delta repair did not finish "
                f"within the round budget ({deadline.budget_seconds:.3f}s)"
            ) from None
        except Exception:
            self.release_residual()
            raise
        finally:
            if armed:
                self.abort_check = None
        if result is None:
            self.delta_fallbacks += 1
            return self._solve_rebuild(network, write_back)
        self.delta_solves += 1
        result.statistics.delta_solve = 1
        return result

    def _solve_rebuild(self, network: FlowNetwork, write_back: bool) -> SolverResult:
        """Solve by (re)building a residual network (cold or warm)."""
        if not self.has_state:
            return super().solve(network, write_back=write_back)
        # Whatever residual is still retained does not connect to this
        # round (no batch, a revision gap, a failed patch): solve_warm
        # builds a fresh one, and the old one's potentials seed it.
        self.release_residual()
        return self.solve_warm(
            network,
            self._last_flows,
            warm_potentials=self._last_potentials or {},
            apply_price_refine=self.apply_price_refine,
            warm_scaled_potentials=self.last_scaled_potentials,
            warm_scale=self.last_scale,
            write_back=write_back,
        )
