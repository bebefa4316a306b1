"""Successive shortest path MCMF algorithm (Section 4 of the paper).

The algorithm maintains reduced-cost optimality at every step and works
towards feasibility: it repeatedly selects a node with positive excess and
augments flow along a shortest path (by reduced cost) to a node with
deficit.  Shortest paths are computed with Dijkstra over reduced costs,
which stay non-negative because the potentials are updated with the
computed distances after every augmentation.

Despite having the best worst-case complexity for scheduling graphs
(Table 1), the paper finds it performs poorly in practice (Figure 7)
because it re-runs a full shortest-path search per unit of unrouted supply.
"""

from __future__ import annotations

import heapq
import time
from typing import List, Optional

from repro.flow.graph import FlowNetwork
from repro.solvers.base import (
    InfeasibleProblemError,
    Solver,
    SolverResult,
    SolverStatistics,
)
from repro.solvers.residual import ResidualNetwork

_INF = float("inf")


class SuccessiveShortestPathSolver(Solver):
    """Successive shortest path algorithm with Dijkstra and potentials."""

    name = "successive_shortest_path"

    def solve(self, network: FlowNetwork) -> SolverResult:
        """Compute a min-cost max-flow on the network."""
        start = time.perf_counter()
        residual = ResidualNetwork(network)
        stats = SolverStatistics()

        self._initialize_potentials(residual, stats)

        sources = [i for i in residual.source_indices()]
        while sources:
            source = sources[-1]
            if residual.excess[source] <= 0:
                sources.pop()
                continue
            routed = self._augment_from(residual, source, stats)
            if routed == 0:
                raise InfeasibleProblemError(
                    "no augmenting path from a node with remaining supply; "
                    "the scheduling graph must route every task (check "
                    "unscheduled aggregator arcs)"
                )

        network.set_flows(residual.flows())
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
    # Internals
    # ------------------------------------------------------------------ #
    def _initialize_potentials(
        self, residual: ResidualNetwork, stats: SolverStatistics
    ) -> None:
        """Make all residual reduced costs non-negative.

        Scheduling graphs only use non-negative costs, in which case zero
        potentials already satisfy the invariant.  For generality (tests use
        arbitrary graphs) a Bellman-Ford pass from a virtual source computes
        valid initial potentials when negative costs are present.
        """
        if all(c >= 0 for c in residual.arc_cost):
            return
        n = residual.num_nodes
        dist = [0] * n
        for _ in range(n - 1):
            changed = False
            for arc_index in range(residual.num_arcs):
                if residual.arc_residual[arc_index] <= 0:
                    continue
                u = residual.arc_from[arc_index]
                v = residual.arc_to[arc_index]
                cost = residual.arc_cost[arc_index]
                if dist[u] + cost < dist[v]:
                    dist[v] = dist[u] + cost
                    changed = True
            stats.arcs_scanned += residual.num_arcs
            if not changed:
                break
        for i in range(n):
            residual.potential[i] = -dist[i]
        stats.potential_updates += 1

    def _augment_from(
        self, residual: ResidualNetwork, source: int, stats: SolverStatistics
    ) -> int:
        """Send flow from ``source`` to the nearest deficit node.

        Returns the amount of flow routed (zero when no deficit node is
        reachable, which means the problem is infeasible).
        """
        n = residual.num_nodes
        dist: List[float] = [_INF] * n
        pred_arc: List[Optional[int]] = [None] * n
        visited = [False] * n
        dist[source] = 0
        heap: List = [(0, source)]
        target = -1

        while heap:
            d, u = heapq.heappop(heap)
            if visited[u]:
                continue
            visited[u] = True
            stats.iterations += 1
            if residual.excess[u] < 0:
                target = u
                break
            for arc_index in residual.adjacency[u]:
                if residual.arc_residual[arc_index] <= 0:
                    continue
                v = residual.arc_to[arc_index]
                if visited[v]:
                    continue
                stats.arcs_scanned += 1
                rc = residual.reduced_cost(arc_index)
                new_dist = d + rc
                if new_dist < dist[v]:
                    dist[v] = new_dist
                    pred_arc[v] = arc_index
                    heapq.heappush(heap, (new_dist, v))

        if target < 0:
            return 0

        # Update potentials with the computed distances so reduced costs on
        # the augmenting path become zero and stay non-negative elsewhere.
        # Distances are capped at the target's distance so that nodes whose
        # labels were not finalized cannot introduce negative reduced costs.
        target_dist = dist[target]
        for i in range(n):
            residual.potential[i] -= int(min(dist[i], target_dist))
        stats.potential_updates += 1

        # Bottleneck along the path.
        amount = min(residual.excess[source], -residual.excess[target])
        node = target
        while node != source:
            arc_index = pred_arc[node]
            amount = min(amount, residual.arc_residual[arc_index])
            node = residual.arc_from[arc_index]

        node = target
        path_arcs: List[int] = []
        while node != source:
            arc_index = pred_arc[node]
            path_arcs.append(arc_index)
            node = residual.arc_from[arc_index]
        for arc_index in reversed(path_arcs):
            residual.push(arc_index, amount)
        stats.augmentations += 1
        return amount
