"""Cycle canceling MCMF algorithm (Klein's primal method, Section 4).

The algorithm first establishes a feasible flow (ignoring costs) by
breadth-first augmentation from nodes with excess to nodes with deficit, and
then repeatedly cancels negative-cost directed cycles in the residual
network until none remain, at which point the negative-cycle optimality
condition holds and the flow is optimal.

It is the simplest of the four algorithms and, as the paper's Figure 7
shows, by far the slowest on scheduling graphs; it is included for
completeness and as a correctness cross-check.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.flow.graph import FlowNetwork
from repro.solvers.base import Solver, SolverResult, SolverStatistics
from repro.solvers.cost_scaling import CostScalingSolver
from repro.solvers.residual import ResidualNetwork


class CycleCancelingSolver(Solver):
    """Klein's cycle canceling algorithm with Bellman-Ford cycle detection."""

    name = "cycle_canceling"

    def __init__(self, max_iterations: Optional[int] = None) -> None:
        """Create the solver.

        Args:
            max_iterations: Optional safety limit on the number of canceled
                cycles; mainly useful for the approximate-solution experiment
                (Figure 10).  ``None`` means run to optimality.
        """
        self.max_iterations = max_iterations

    def solve(self, network: FlowNetwork) -> SolverResult:
        """Compute a min-cost max-flow on the network."""
        start = time.perf_counter()
        residual = ResidualNetwork(network)
        stats = SolverStatistics()

        # Phase 1, feasibility (costs ignored): cost scaling's BFS pass.
        CostScalingSolver().establish_feasible_flow(residual, stats)

        canceled = 0
        while True:
            if self.max_iterations is not None and canceled >= self.max_iterations:
                break
            cycle = self._find_negative_cycle(residual, stats)
            if cycle is None:
                break
            bottleneck = min(residual.arc_residual[arc_index] for arc_index in cycle)
            for arc_index in cycle:
                residual.push(arc_index, bottleneck)
            canceled += 1
            stats.negative_cycles_canceled += 1

        network.set_flows(residual.flows())
        runtime = time.perf_counter() - start
        return SolverResult(
            algorithm=self.name,
            total_cost=residual.total_cost(),
            flows=residual.flows(),
            potentials=residual.export_potentials(),
            runtime_seconds=runtime,
            statistics=stats,
            optimal=self.max_iterations is None,
        )

    # ------------------------------------------------------------------ #
    # Phase 2: optimality (negative cycle cancellation)
    # ------------------------------------------------------------------ #
    def _find_negative_cycle(
        self, residual: ResidualNetwork, stats: SolverStatistics
    ) -> Optional[List[int]]:
        """Find a negative-cost cycle in the residual network.

        Runs Bellman-Ford from a virtual source connected to every node; if
        the n-th relaxation pass still improves a label, a negative cycle is
        reachable from the improved node and is recovered by walking
        predecessor arcs.
        """
        n = residual.num_nodes
        dist = [0] * n
        pred_arc: List[Optional[int]] = [None] * n
        improved_node = -1
        for iteration in range(n):
            improved_node = -1
            for arc_index in range(residual.num_arcs):
                if residual.arc_residual[arc_index] <= 0:
                    continue
                u = residual.arc_from[arc_index]
                v = residual.arc_to[arc_index]
                cost = residual.arc_cost[arc_index]
                if dist[u] + cost < dist[v]:
                    dist[v] = dist[u] + cost
                    pred_arc[v] = arc_index
                    improved_node = v
            stats.arcs_scanned += residual.num_arcs
            stats.iterations += 1
            if improved_node < 0:
                return None
        # Walk back n steps to guarantee we are on the cycle, then collect it.
        node = improved_node
        for _ in range(n):
            node = residual.arc_from[pred_arc[node]]
        cycle: List[int] = []
        current = node
        while True:
            arc_index = pred_arc[current]
            cycle.append(arc_index)
            current = residual.arc_from[arc_index]
            if current == node:
                break
        cycle.reverse()
        return cycle
