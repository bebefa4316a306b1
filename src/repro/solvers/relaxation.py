"""Relaxation MCMF algorithm (Bertsekas-Tseng), Section 4 of the paper.

The relaxation algorithm maintains reduced-cost optimality at every step and
works towards feasibility, like successive shortest path, but it optimizes
the dual problem directly: for each node with remaining supply it grows a
tree of zero-reduced-cost residual arcs; when the tree reaches a node with
demand, flow is augmented along the tree path, and when the tree cannot grow
any further, a dual-ascent step raises the potentials of the whole tree by
the smallest reduced cost leaving it, which both decreases the dual cost and
creates new zero-reduced-cost arcs to continue with.

The paper's key empirical finding (Figure 7) is that relaxation vastly
outperforms the other algorithms on scheduling graphs in the common case --
when tasks' preferred destinations are uncontested, most supply is routed in
a single pass -- but degrades badly under contention and oversubscription
(Figures 8 and 9): the zero-reduced-cost trees become large and are
re-traversed after every ascent.

This implementation includes the **arc prioritization** heuristic of
Section 5.3.1: when growing the tree, arcs that lead towards nodes with
demand are explored first (depth-first bias), which the paper reports cuts
runtime by ~45 % on contended graphs.

Performance architecture
========================

Relaxation is the leg that wins the dual race in the common case, so the
end-to-end placement latency of most rounds is *its* runtime plus the cost
of handing it the problem.  The solver therefore mirrors the cost-scaling
core's data layout and avoids every avoidable indirection:

* All hot loops run over the shared typed ``array('q')`` residual columns
  (:class:`~repro.solvers.residual.ResidualNetwork`) with **inlined
  reduced-cost arithmetic** from local aliases -- no method call or
  attribute lookup per scanned arc.
* Tree growth scans each tree node's adjacency **exactly once per tree**
  (the current-arc discipline): zero-reduced-cost arcs extend the tree
  immediately, while every other residual arc leaving the tree is filed
  into a **candidate heap** keyed by its reduced cost plus the cumulative
  ascent at insertion time.  Because a dual ascent raises every tree
  potential uniformly, the key stays comparable forever: the arc's live
  reduced cost is ``key - cum``.  A dual-ascent step is then a heap peek
  (the minimum valid key yields the ascent delta) followed by popping
  exactly the arcs whose reduced cost just reached zero -- the re-traversal
  of the whole tree after every ascent, the old implementation's dominant
  cost on contended graphs, is gone entirely.
* Per-tree node marks are **stamp-versioned** (``tree_mark[v] == stamp``),
  so routing a new batch of supply costs no O(n) clearing.
* The solver keeps a **persistent residual network** across solves
  (:attr:`RelaxationSolver.last_residual`): when the caller supplies the
  revision-chained :class:`~repro.flow.changes.ChangeBatch` that transforms
  the previously solved network into the current one (the same contract as
  :class:`~repro.solvers.incremental.IncrementalCostScalingSolver`), the
  residual is reset to the zero-flow start state
  (:meth:`~repro.solvers.residual.ResidualNetwork.load_flows` of no flow)
  and patched in place
  (:meth:`~repro.solvers.residual.ResidualNetwork.apply_changes`) -- no
  index rebuild and no O(graph) object traversal.  Relaxation still runs
  *from scratch* on the patched residual (Section 5.2: warm-starting
  relaxation does not pay), only the problem hand-off is incremental.
  A solver driven directly with chained batches (fig18's relaxation-only
  replay, the ablations) reuses it; the dual executor releases it after
  each race, whose successor by definition does not chain.

The dual executor calls ``solve(..., write_back=False)`` (on a raced
round's copy of the graph) and hands the round's winning ``flows`` over
itself; the result's ``flows`` are always the authoritative solution.
"""

from __future__ import annotations

import time
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Mapping, Optional, Tuple

from repro.flow.changes import ChangeBatch
from repro.flow.graph import FlowNetwork
from repro.solvers.base import (
    InfeasibleProblemError,
    SolveAborted,
    Solver,
    SolverResult,
    SolverStatistics,
)
from repro.solvers.residual import ResidualNetwork

#: Maximum number of a discovered node's arcs the arc-prioritization
#: heuristic probes when deciding whether it leads to a demand node; keeps
#: the heuristic's bookkeeping cheap on high-degree aggregators.
PRIORITY_PROBE_LIMIT = 32


class RelaxationSolver(Solver):
    """Bertsekas-Tseng relaxation (dual ascent with tree augmentation)."""

    name = "relaxation"

    #: The dual executor may pass ``changes=ChangeBatch`` to :meth:`solve`;
    #: a revision-chained batch lets the solver patch its persistent
    #: residual instead of rebuilding it from the flow network.
    accepts_change_batches = True

    def __init__(self, arc_prioritization: bool = True) -> None:
        """Create the solver.

        Args:
            arc_prioritization: Enable the Section 5.3.1 heuristic that
                biases tree growth towards nodes with demand.
        """
        self.arc_prioritization = arc_prioritization
        #: The residual network of the most recent run, retained for the
        #: delta hand-off path (None until the first solve).
        self.last_residual: Optional[ResidualNetwork] = None
        #: Optional instrumentation hook called as ``hook(residual, event)``
        #: after every dual ascent (``"ascent"``) and augmentation
        #: (``"augment"``).  The fuzzed invariant suite installs one to
        #: assert reduced-cost optimality after every step; ``None`` (the
        #: default) costs one predicate check per ascent/augmentation.
        self.invariant_hook = None
        #: Solves served by patching the persistent residual vs rebuilding
        #: it from the flow network (observability).
        self.residual_reuses: int = 0
        self.residual_rebuilds: int = 0
        #: Optional cooperative cancellation hook (same contract as cost
        #: scaling's ``abort_check``): a zero-argument callable polled once
        #: per routed source batch and every 32 dual ascents.  Returning
        #: True raises :class:`~repro.solvers.base.SolveAborted`.  ``None``
        #: (the default) adds no per-operation work.
        self.abort_check = None
        #: Optional cap on dual ascents per run (the deadline-degradation
        #: knob for relaxation, mirroring cost scaling's coarser-epsilon
        #: termination): exceeding the cap raises ``SolveAborted`` so the
        #: round falls back to the other leg.  ``None`` disables the cap.
        self.ascent_cap: Optional[int] = None

    def invalidate_residual(self) -> None:
        """Drop the persistent residual; the next solve rebuilds it."""
        self.last_residual = None

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def solve(
        self,
        network: FlowNetwork,
        changes: Optional[ChangeBatch] = None,
        write_back: bool = True,
    ) -> SolverResult:
        """Compute a min-cost max-flow on the network.

        Args:
            network: The flow network to solve.
            changes: Optional revision-chained batch transforming the
                previously solved network into ``network``.  When it chains
                onto the retained residual's revision, the residual is
                patched in place (O(|changes|)) instead of being rebuilt
                (O(graph)); otherwise the batch is ignored.
            write_back: Write the flow onto ``network``'s arcs.  A dual
                executor passes False and writes the round's winning flows
                itself, once.
        """
        start = time.perf_counter()
        stats = SolverStatistics()
        residual = self._reusable_residual(changes)
        if residual is not None:
            self.residual_reuses += 1
            stats.arcs_patched = residual.last_arcs_patched
            stats.nodes_touched = residual.last_nodes_touched
        else:
            residual = ResidualNetwork(network)
            self.residual_rebuilds += 1
        # Both paths leave all-zero potentials: a fresh build starts there,
        # and the reuse path was reset to zero flow and potentials.
        self._run(residual, stats, potentials_are_zero=True)
        return self._finish(network, residual, stats, start, write_back)

    def solve_warm(
        self,
        network: FlowNetwork,
        warm_flows: Mapping[Tuple[int, int], int],
        warm_potentials: Mapping[int, int],
    ) -> SolverResult:
        """Re-optimize starting from a previous solution.

        The paper found incremental relaxation to be of limited value
        (Section 5.2): the warm solution already contains large
        zero-reduced-cost trees that must be re-traversed for every new
        source.  The capability is provided for completeness and for the
        experiments that demonstrate exactly that behaviour.  The warm flow
        goes straight into a fresh residual (clamped to today's
        capacities); ``network`` is written only by the write-back.
        """
        start = time.perf_counter()
        residual = ResidualNetwork(network, flows=warm_flows)
        residual.load_potentials(warm_potentials)
        self.residual_rebuilds += 1
        stats = SolverStatistics(warm_start=True)
        self._run(residual, stats)
        return self._finish(network, residual, stats, start, write_back=True)

    def _finish(
        self,
        network: FlowNetwork,
        residual: ResidualNetwork,
        stats: SolverStatistics,
        start: float,
        write_back: bool,
    ) -> SolverResult:
        """Write the flow back (unless an executor owns that), retain the
        residual and build the result."""
        if write_back:
            network.set_flows(residual.flows())
        self.last_residual = residual
        runtime = time.perf_counter() - start
        return SolverResult(
            algorithm=self.name,
            total_cost=residual.total_cost(),
            flows=residual.flows(),
            potentials=residual.export_potentials(),
            runtime_seconds=runtime,
            statistics=stats,
        )

    # ------------------------------------------------------------------ #
    # Persistent-residual hand-off
    # ------------------------------------------------------------------ #
    def _reusable_residual(
        self, changes: Optional[ChangeBatch]
    ) -> Optional[ResidualNetwork]:
        """Return the retained residual patched by ``changes``, if legal.

        A patch is only legal when the batch provably transforms the exact
        revision the residual mirrors (the same guard
        :class:`~repro.solvers.incremental.IncrementalCostScalingSolver`
        applies).  The carried solution is reset *before* patching so
        removals and capacity changes never have flow to return; a batch
        that fails to apply leaves the structure unusable and drops it.
        """
        residual = self.last_residual
        if residual is None or changes is None:
            return None
        if changes.base_revision is None or changes.target_revision is None:
            return None
        if residual.revision != changes.base_revision:
            return None
        try:
            # Back to the zero-flow, zero-potential start state (the dropped
            # flow is journaled, so extraction stays O(changed)).
            residual.load_flows({})
            residual.potential = [0] * residual.num_nodes
            residual.reset_current_arcs()
            residual.apply_changes(changes)
        except (KeyError, ValueError):
            self.last_residual = None
            return None
        residual.revision = changes.target_revision
        return residual

    # ------------------------------------------------------------------ #
    # Core algorithm
    # ------------------------------------------------------------------ #
    def _run(
        self,
        residual: ResidualNetwork,
        stats: SolverStatistics,
        potentials_are_zero: bool = False,
    ) -> None:
        # With all-zero potentials and no negative arc cost, every reduced
        # cost is already non-negative; skip the O(arcs) restoration scan
        # (the common case for scheduling graphs on both the fresh-build
        # and the reset-and-patch paths).
        if not (potentials_are_zero and not residual.has_negative_costs):
            self._restore_reduced_cost_optimality(residual, stats)
        # The ascent-count guard depends on the largest arc cost; compute it
        # once per run rather than per source.
        max_cost = max(1, residual.max_cost())
        n = residual.num_nodes
        # Stamp-versioned tree membership: routing a new batch of supply
        # bumps the stamp instead of clearing an O(n) boolean array.
        tree_mark = [0] * n
        pred_arc = [0] * n
        excess = residual.excess
        stamp = 0
        check = self.abort_check
        for source in range(n):
            while excess[source] > 0:
                if check is not None and check():
                    raise SolveAborted("relaxation run cancelled by abort check")
                stamp += 1
                self._route_from_source(
                    residual, source, stats, max_cost, tree_mark, pred_arc, stamp
                )

    def _restore_reduced_cost_optimality(
        self, residual: ResidualNetwork, stats: SolverStatistics
    ) -> None:
        """Saturate residual arcs with negative reduced cost.

        With non-negative costs and zero potentials (the from-scratch case)
        this is a no-op; it matters for warm starts and for test graphs with
        negative costs, where reduced-cost optimality must be restored before
        the main loop may run.
        """
        arc_residual = residual.arc_residual
        arc_cost = residual.arc_cost
        arc_from = residual.arc_from
        arc_to = residual.arc_to
        potential = residual.potential
        for arc_index in range(len(arc_residual)):
            r = arc_residual[arc_index]
            if r <= 0:
                continue
            if (
                arc_cost[arc_index]
                - potential[arc_from[arc_index]]
                + potential[arc_to[arc_index]]
                < 0
            ):
                residual.push(arc_index, r)
                stats.pushes += 1

    def _route_from_source(
        self,
        residual: ResidualNetwork,
        source: int,
        stats: SolverStatistics,
        max_cost: int,
        tree_mark: list,
        pred_arc: list,
        stamp: int,
    ) -> None:
        """Route one batch of supply from ``source`` to a demand node.

        Grows the zero-reduced-cost tree, performing dual-ascent steps
        whenever the tree can no longer be extended, until a node with
        negative excess is reached; then augments along the tree path.

        Every tree node's adjacency is scanned exactly once: arcs leaving
        the tree with positive reduced cost enter the candidate heap keyed
        by ``reduced_cost + cum`` (``cum`` = cumulative ascent applied so
        far), so an ascent needs no rescan -- the heap minimum *is* the
        ascent delta, and the entries matching it are exactly the arcs
        whose reduced cost drops to zero.
        """
        adjacency = residual.adjacency
        arc_residual = residual.arc_residual
        arc_cost = residual.arc_cost
        arc_from = residual.arc_from
        arc_to = residual.arc_to
        potential = residual.potential
        excess = residual.excess
        prioritize = self.arc_prioritization
        probe_limit = PRIORITY_PROBE_LIMIT
        hook = self.invariant_hook
        check = self.abort_check
        cap = self.ascent_cap

        n = residual.num_nodes
        tree_mark[source] = stamp
        tree_nodes = [source]
        frontier: deque = deque((source,))
        # Candidates: residual arcs leaving the tree, keyed by reduced cost
        # at insertion plus the cumulative ascent at insertion (live
        # reduced cost of an entry = key - cum; uniform ascents keep the
        # ordering valid forever).  Entries whose head has joined the tree
        # since insertion are discarded lazily on pop.  In the common
        # uncontested case a tree reaches a demand node without a single
        # ascent, so the candidates stay a plain append-only list and are
        # heapified only when the first ascent actually needs an ordering.
        heap: list = []
        heap_ordered = False
        cum = 0
        target = -1
        ascents = 0
        max_ascents = 2 * n * max_cost + n + 16
        arcs_scanned = 0

        while target < 0:
            # Grow the tree along zero-reduced-cost residual arcs.
            while frontier:
                u = frontier.popleft()
                pot_u = potential[u]
                for a in adjacency[u]:
                    if arc_residual[a] <= 0:
                        continue
                    v = arc_to[a]
                    if tree_mark[v] == stamp:
                        continue
                    arcs_scanned += 1
                    rc = arc_cost[a] - pot_u + potential[v]
                    if rc != 0:
                        if heap_ordered:
                            heappush(heap, (rc + cum, a))
                        else:
                            heap.append((rc + cum, a))
                        continue
                    tree_mark[v] = stamp
                    pred_arc[v] = a
                    tree_nodes.append(v)
                    if excess[v] < 0:
                        target = v
                        break
                    if prioritize:
                        # Section 5.3.1 probe: explore nodes with a usable
                        # residual arc to a demand node first (depth bias).
                        leads = False
                        probes = probe_limit
                        for b in adjacency[v]:
                            probes -= 1
                            if probes < 0:
                                break
                            if arc_residual[b] > 0 and excess[arc_to[b]] < 0:
                                leads = True
                                break
                        if leads:
                            frontier.appendleft(v)
                        else:
                            frontier.append(v)
                    else:
                        frontier.append(v)
                if target >= 0:
                    break
            if target >= 0:
                break

            # The tree is maximal but contains no demand node: dual ascent.
            if not heap_ordered:
                heapify(heap)
                heap_ordered = True
            while heap and tree_mark[arc_to[heap[0][1]]] == stamp:
                heappop(heap)  # head joined the tree since insertion
            if not heap:
                raise InfeasibleProblemError(
                    "supply cannot reach any demand node; the scheduling graph "
                    "must provide unscheduled aggregator capacity for every task"
                )
            delta = heap[0][0] - cum
            if delta > 0:
                for u in tree_nodes:
                    potential[u] += delta
                cum += delta
            ascents += 1
            stats.potential_updates += 1
            stats.iterations += 1
            if hook is not None:
                hook(residual, "ascent")
            if cap is not None and stats.dual_ascents + ascents > cap:
                raise SolveAborted(
                    f"relaxation ascent cap ({cap}) exceeded; degrading to the "
                    "other leg"
                )
            if check is not None and (ascents & 31) == 0 and check():
                raise SolveAborted("relaxation run cancelled by abort check")
            if ascents > max_ascents:
                raise InfeasibleProblemError(
                    "dual ascent failed to converge; the problem is infeasible "
                    "or costs are not integral"
                )
            # The arcs whose reduced cost just reached zero (key == cum)
            # extend the tree directly; growth then resumes from the new
            # nodes only -- no re-traversal of the existing tree.  (The
            # <= guard also drains any key below cum, so a reduced cost
            # that somehow went negative can never wedge the loop.)
            while heap and heap[0][0] <= cum:
                a = heappop(heap)[1]
                v = arc_to[a]
                if tree_mark[v] == stamp:
                    continue
                tree_mark[v] = stamp
                pred_arc[v] = a
                tree_nodes.append(v)
                if excess[v] < 0:
                    target = v
                    break
                frontier.append(v)

        # Augment along the tree predecessor path.
        amount = excess[source]
        deficit = -excess[target]
        if deficit < amount:
            amount = deficit
        node = target
        while node != source:
            a = pred_arc[node]
            r = arc_residual[a]
            if r < amount:
                amount = r
            node = arc_from[a]
        journal = residual._flow_journal
        residual.invalidate_open_arcs()  # the path pushes below are inlined
        node = target
        while node != source:
            a = pred_arc[node]
            arc_residual[a] -= amount
            arc_residual[a ^ 1] += amount
            if journal is not None:
                journal.add(a >> 1)
            node = arc_from[a]
        excess[source] -= amount
        excess[target] += amount
        stats.augmentations += 1
        stats.dual_ascents += ascents
        stats.relaxation_tree_nodes += len(tree_nodes)
        stats.arcs_scanned += arcs_scanned
        if hook is not None:
            hook(residual, "augment")
