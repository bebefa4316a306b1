"""The from-scratch feasibility pass: exact, and linear in the tasks routed.

``CostScalingSolver.establish_feasible_flow`` (cycle canceling runs the
same pass) routes every unit of supply along a breadth-first path.  Its
search expands a level only when no node of it has an arc into a deficit,
instead of walking everything queued before the deficit is popped, so the
flows it routes must be the ones a plain FIFO search that checks each node
as it pops it routes -- arc for arc, in the same number of augmentations --
while the arcs it scans per task stay flat as the cluster grows.
"""

from __future__ import annotations

import random
from collections import deque
from typing import List, Optional

import pytest

from repro.cluster import ClusterState, Job, Task, build_topology
from repro.core.graph_manager import GraphManager
from repro.core.policies import QuincyPolicy
from repro.flow.graph import FlowNetwork, NodeType
from repro.solvers import CostScalingSolver, CycleCancelingSolver, SolverStatistics
from repro.solvers.base import InfeasibleProblemError
from repro.solvers.residual import ResidualNetwork

from tests.conftest import reference_min_cost


def _pop_time_path(residual: ResidualNetwork, source: int) -> Optional[List[int]]:
    """A FIFO search that checks for a deficit when it pops a node."""
    pred_arc: List[Optional[int]] = [None] * residual.num_nodes
    visited = [False] * residual.num_nodes
    visited[source] = True
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if residual.excess[u] < 0:
            path: List[int] = []
            while u != source:
                path.append(pred_arc[u])
                u = residual.arc_from[pred_arc[u]]
            return path[::-1]
        for arc_index in residual.adjacency[u]:
            v = residual.arc_to[arc_index]
            if residual.arc_residual[arc_index] > 0 and not visited[v]:
                visited[v] = True
                pred_arc[v] = arc_index
                queue.append(v)
    return None


def reference_feasible_flow(residual: ResidualNetwork) -> int:
    """Route all supply along pop-time search paths; return augmentations."""
    augmentations = 0
    for source in range(residual.num_nodes):
        while residual.excess[source] > 0:
            path = _pop_time_path(residual, source)
            if path is None:
                raise InfeasibleProblemError("no deficit reachable")
            target = residual.arc_to[path[-1]]
            amount = min(
                residual.excess[source],
                -residual.excess[target],
                min(residual.arc_residual[arc_index] for arc_index in path),
            )
            for arc_index in path:
                residual.push(arc_index, amount)
            augmentations += 1
    return augmentations


def assert_same_pass(network: FlowNetwork) -> SolverStatistics:
    """The shipped pass routes the reference's flow, arc for arc."""
    expected = ResidualNetwork(network)
    augmentations = reference_feasible_flow(expected)
    shipped = ResidualNetwork(network)
    stats = SolverStatistics()
    CostScalingSolver().establish_feasible_flow(shipped, stats)
    assert shipped.arc_residual == expected.arc_residual
    assert shipped.excess == expected.excess
    assert stats.augmentations == augmentations
    return stats


def quincy_state(
    num_tasks: int,
    seed: int = 1,
    running_share: float = 0.0,
    machines_per_rack: int = 40,
) -> ClusterState:
    """Jobs of 16 tasks with data-locality preferences on a cluster with
    two slots per task pair (``num_tasks / 2`` machines, two slots each);
    ``running_share`` of the tasks already run somewhere."""
    machines = num_tasks // 2
    state = ClusterState(
        build_topology(
            num_machines=machines,
            machines_per_rack=machines_per_rack,
            slots_per_machine=2,
        )
    )
    rng = random.Random(seed)
    for job_id in range(num_tasks // 16):
        job = Job(job_id=job_id, submit_time=0.0)
        for index in range(16):
            locality = {
                machine: rng.uniform(0.1, 0.6)
                for machine in rng.sample(range(machines), min(3, machines))
            }
            job.add_task(
                Task(
                    task_id=job_id * 100 + index,
                    job_id=job_id,
                    duration=60.0,
                    input_size_gb=rng.uniform(1.0, 8.0),
                    input_locality=locality,
                )
            )
        state.submit_job(job)
    for task in rng.sample(state.pending_tasks(), int(num_tasks * running_share)):
        free = [m.machine_id for m in state.machines_with_free_slots()]
        state.place_task(task.task_id, rng.choice(free), 0.0)
    return state


def quincy_network(num_tasks: int, **kwargs) -> FlowNetwork:
    return GraphManager(QuincyPolicy()).update(quincy_state(num_tasks, **kwargs), 10.0)


def random_network(rng: random.Random) -> FlowNetwork:
    """A random graph with several sources and several deficits, feasible
    through a two-hop escape (source -> hub -> deficit) under random arcs
    whose order in each adjacency list is random too."""
    network = FlowNetwork()
    sources = [network.add_node(NodeType.TASK) for _ in range(rng.randint(2, 8))]
    middle = [network.add_node(NodeType.MACHINE) for _ in range(rng.randint(2, 10))]
    deficits = [network.add_node(NodeType.SINK) for _ in range(rng.randint(2, 4))]
    hub = network.add_node(NodeType.UNSCHEDULED_AGGREGATOR)
    supplies = [rng.randint(1, 4) for _ in sources]
    shares = [0] * len(deficits)
    for _ in range(sum(supplies)):
        shares[rng.randrange(len(deficits))] += 1
    for node, supply in zip(sources + deficits, supplies + [-s for s in shares]):
        network.set_supply(node.node_id, supply)
    nodes = sources + middle + deficits
    arcs = {(s.node_id, hub.node_id): n for s, n in zip(sources, supplies)}
    arcs.update({(hub.node_id, d.node_id): n for d, n in zip(deficits, shares)})
    for _ in range(rng.randint(len(nodes), 4 * len(nodes))):
        tail, head = rng.sample(nodes, 2)
        arcs[tail.node_id, head.node_id] = rng.randint(1, 3)
    for (tail, head), capacity in rng.sample(sorted(arcs.items()), len(arcs)):
        network.add_arc(tail, head, capacity, rng.randint(0, 9))
    return network


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("running_share", [0.0, 0.4])
def test_quincy_networks_route_the_pop_time_flow(seed, running_share):
    assert_same_pass(quincy_network(64, seed=seed, running_share=running_share,
                                    machines_per_rack=8))


@pytest.mark.parametrize("seed", range(60))
def test_random_networks_with_several_deficits_route_the_pop_time_flow(seed):
    assert_same_pass(random_network(random.Random(seed)))


def test_an_infeasible_network_raises_like_the_reference():
    network = FlowNetwork()
    source = network.add_node(NodeType.TASK, supply=2)
    sink = network.add_node(NodeType.SINK, supply=-2)
    network.add_arc(source.node_id, sink.node_id, 1, 0)
    with pytest.raises(InfeasibleProblemError):
        reference_feasible_flow(ResidualNetwork(network))
    for solver in (CostScalingSolver(), CycleCancelingSolver()):
        with pytest.raises(InfeasibleProblemError):
            solver.solve(network.copy())


@pytest.mark.parametrize("seed", range(4))
def test_cycle_canceling_and_cost_scaling_share_the_pass(seed):
    """Both solvers start from the one pass and still reach the optimum."""
    network = random_network(random.Random(100 + seed))
    optimum = reference_min_cost(network)
    assert CycleCancelingSolver().solve(network.copy()).total_cost == optimum
    assert CostScalingSolver().solve(network.copy()).total_cost == optimum


def test_arcs_scanned_per_task_stay_flat_as_the_cluster_grows():
    """8x the tasks (and machines, and racks) may at most double the arcs
    the pass scans per task; a pop-time search walks every task routed
    before it and grows ~7x here."""
    scanned = {}
    for tasks in (256, 2048):
        stats = assert_same_pass(quincy_network(tasks))
        assert stats.augmentations == tasks
        scanned[tasks] = stats.arcs_scanned / tasks
    assert scanned[2048] <= 2 * scanned[256], scanned
