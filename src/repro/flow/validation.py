"""Feasibility and optimality checkers for flows on a :class:`FlowNetwork`.

The solvers in :mod:`repro.solvers` maintain different invariants during
their iterations (Table 2 of the paper): cycle canceling and cost scaling
keep the flow feasible while improving optimality, whereas successive
shortest path and relaxation keep reduced-cost optimality while improving
feasibility.  These checkers express the three optimality conditions from
Section 4 of the paper and are used throughout the test suite and by the
incremental solvers to validate warm-start state.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro.flow.graph import Arc, FlowNetwork


def flow_cost(network: FlowNetwork) -> int:
    """Return the total cost of the flow currently assigned to the network."""
    return sum(arc.cost * arc.flow for arc in network.arcs())


def check_feasibility(network: FlowNetwork) -> List[str]:
    """Check mass balance and capacity constraints of the assigned flow.

    Returns a list of human-readable violations; an empty list means the
    flow is feasible (Eq. 2 and Eq. 3 in the paper).
    """
    problems: List[str] = []
    balance: Dict[int, int] = {node.node_id: node.supply for node in network.nodes()}
    for arc in network.arcs():
        if arc.flow < 0:
            problems.append(f"arc {arc.src}->{arc.dst} carries negative flow {arc.flow}")
        if arc.flow > arc.capacity:
            problems.append(
                f"arc {arc.src}->{arc.dst} exceeds capacity: {arc.flow} > {arc.capacity}"
            )
        balance[arc.src] -= arc.flow
        balance[arc.dst] += arc.flow
    for node_id, residual in balance.items():
        if residual != 0:
            problems.append(f"node {node_id} violates mass balance by {residual}")
    return problems


def is_feasible(network: FlowNetwork) -> bool:
    """Return True when the assigned flow satisfies all feasibility constraints."""
    return not check_feasibility(network)


def reduced_cost(arc: Arc, potentials: Mapping[int, int]) -> int:
    """Return the reduced cost ``c_ij - pi(i) + pi(j)`` of an arc."""
    return arc.cost - potentials.get(arc.src, 0) + potentials.get(arc.dst, 0)


def _residual_arcs(network: FlowNetwork) -> Iterable[Tuple[int, int, int, int]]:
    """Yield residual arcs as ``(src, dst, residual_capacity, cost)`` tuples."""
    for arc in network.arcs():
        forward_residual = arc.capacity - arc.flow
        if forward_residual > 0:
            yield (arc.src, arc.dst, forward_residual, arc.cost)
        if arc.flow > 0:
            yield (arc.dst, arc.src, arc.flow, -arc.cost)


def check_reduced_cost_optimality(
    network: FlowNetwork, potentials: Mapping[int, int]
) -> List[str]:
    """Check the reduced-cost optimality condition.

    A feasible flow is optimal iff there exist node potentials such that no
    residual arc has negative reduced cost (condition 2 in Section 4 of the
    paper).  Returns the list of violating residual arcs.
    """
    problems: List[str] = []
    for src, dst, _, cost in _residual_arcs(network):
        rc = cost - potentials.get(src, 0) + potentials.get(dst, 0)
        if rc < 0:
            problems.append(
                f"residual arc {src}->{dst} has negative reduced cost {rc}"
            )
    return problems


def check_epsilon_optimality(
    network: FlowNetwork, potentials: Mapping[int, int], epsilon: float
) -> List[str]:
    """Check the relaxed complementary-slackness (epsilon-optimality) condition.

    A flow is epsilon-optimal when no residual arc has reduced cost below
    ``-epsilon``.  Cost scaling maintains this invariant, tightening epsilon
    until it reaches ``1/n``, which implies full optimality for integer costs.
    """
    problems: List[str] = []
    for src, dst, _, cost in _residual_arcs(network):
        rc = cost - potentials.get(src, 0) + potentials.get(dst, 0)
        if rc < -epsilon:
            problems.append(
                f"residual arc {src}->{dst} has reduced cost {rc} < -epsilon ({-epsilon})"
            )
    return problems


def check_residual_epsilon_optimality(residual, epsilon: float, skip=()) -> List[str]:
    """Check epsilon-optimality directly on a solver residual network.

    The solvers operate on the array-based
    :class:`~repro.solvers.residual.ResidualNetwork` rather than on a
    :class:`FlowNetwork`, and their invariant lives in the residual's own
    (possibly scaled) cost units: a state is epsilon-optimal when no
    residual arc with remaining capacity has reduced cost below
    ``-epsilon`` under the stored potentials.  This checker reads the
    residual's public parallel arrays (duck-typed, so no import cycle with
    the solvers package) and returns every violating arc; the invariant
    harness asserts it after every refine / price-refine / repair step.

    Args:
        residual: A :class:`~repro.solvers.residual.ResidualNetwork` (or
            anything exposing ``arc_residual`` / ``arc_cost`` / ``arc_from``
            / ``arc_to`` / ``potential`` / ``node_ids``).
        epsilon: The bound, in the residual's *stored* cost units (scaled
            units for a persistent cost-scaling residual).
        skip: Forward pair positions (``arc_index >> 1``) left unchecked.
    """
    problems: List[str] = []
    arc_residual = residual.arc_residual
    arc_cost = residual.arc_cost
    arc_from = residual.arc_from
    arc_to = residual.arc_to
    potential = residual.potential
    node_ids = residual.node_ids
    for arc_index in range(len(arc_residual)):
        if arc_residual[arc_index] <= 0:
            continue
        u = arc_from[arc_index]
        v = arc_to[arc_index]
        rc = arc_cost[arc_index] - potential[u] + potential[v]
        if rc < -epsilon and arc_index >> 1 not in skip:
            problems.append(
                f"residual arc {node_ids[u]}->{node_ids[v]} (index {arc_index}) "
                f"has reduced cost {rc} < -epsilon ({-epsilon})"
            )
    return problems


def assert_epsilon_optimal(residual, epsilon: float) -> None:
    """Raise ``AssertionError`` unless a residual network is epsilon-optimal.

    The convenience form of :func:`check_residual_epsilon_optimality` used
    by the fuzzed invariant suite: ``assert_epsilon_optimal(residual, 0)``
    pins the 0-optimality contract a persistent residual must satisfy
    before it may be handed back to delta solving.
    """
    problems = check_residual_epsilon_optimality(residual, epsilon)
    if problems:
        raise AssertionError(
            f"residual network is not {epsilon}-optimal: "
            + "; ".join(problems[:10])
            + (f" (+{len(problems) - 10} more)" if len(problems) > 10 else "")
        )


def check_complementary_slackness(
    network: FlowNetwork, potentials: Mapping[int, int]
) -> List[str]:
    """Check the complementary slackness optimality condition.

    Flow on arcs with positive reduced cost must be zero, and arcs with
    negative reduced cost must be saturated (condition 3 in Section 4).
    """
    problems: List[str] = []
    for arc in network.arcs():
        rc = reduced_cost(arc, potentials)
        if rc > 0 and arc.flow != 0:
            problems.append(
                f"arc {arc.src}->{arc.dst} has positive reduced cost {rc} but flow {arc.flow}"
            )
        if rc < 0 and arc.flow != arc.capacity:
            problems.append(
                f"arc {arc.src}->{arc.dst} has negative reduced cost {rc} "
                f"but is not saturated ({arc.flow}/{arc.capacity})"
            )
    return problems


def has_negative_cycle(network: FlowNetwork) -> bool:
    """Detect a negative-cost directed cycle in the residual network.

    Implements the negative-cycle optimality condition check (condition 1 in
    Section 4) with a Bellman-Ford sweep over the residual graph.  Used in
    tests to confirm solver output optimality independently of potentials.
    """
    node_ids = list(network.node_ids())
    index = {node_id: i for i, node_id in enumerate(node_ids)}
    n = len(node_ids)
    if n == 0:
        return False
    dist = [0] * n
    residual = list(_residual_arcs(network))
    for _ in range(n):
        changed = False
        for src, dst, _, cost in residual:
            u, v = index[src], index[dst]
            if dist[u] + cost < dist[v]:
                dist[v] = dist[u] + cost
                changed = True
        if not changed:
            return False
    # A relaxation succeeded on the n-th pass: a negative cycle exists.
    return True


def assert_optimal(
    network: FlowNetwork, potentials: Optional[Mapping[int, int]] = None
) -> None:
    """Raise ``AssertionError`` unless the assigned flow is feasible and optimal.

    Optimality is verified via the negative-cycle condition, which does not
    require potentials; when potentials are supplied the reduced-cost
    condition is additionally checked.
    """
    feasibility_problems = check_feasibility(network)
    if feasibility_problems:
        raise AssertionError("infeasible flow: " + "; ".join(feasibility_problems))
    if has_negative_cycle(network):
        raise AssertionError("flow is not optimal: residual negative cycle exists")
    if potentials is not None:
        rc_problems = check_reduced_cost_optimality(network, potentials)
        if rc_problems:
            raise AssertionError(
                "flow violates reduced cost optimality: " + "; ".join(rc_problems)
            )
