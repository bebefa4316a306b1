"""The FlowNetwork a graph manager's residual is viewed as, arc for arc.

Where a :class:`~repro.flow.graph.FlowNetwork` is still the interface --
the oracles, DIMACS snapshots, solvers that take one -- it is built from
the residual the round's mutations went into
(:meth:`~repro.solvers.residual.FlowGraph.copy`).  Over the incremental
graph suite's fuzzed churn, for every policy, that view must equal a
from-scratch build of the same state arc for arc (capacity and cost), and
carry, arc for arc, the flow the in-place solver left in the residual --
a feasible flow of the from-scratch network at the networkx optimum.
"""

from __future__ import annotations

import random

import pytest

from repro.core import GraphManager
from repro.flow.validation import check_feasibility, flow_cost
from repro.solvers import IncrementalCostScalingSolver
from tests.conftest import make_cluster_state, reference_min_cost
from tests.core.test_incremental_graph_equivalence import (
    POLICIES,
    ROUNDS,
    _mutate_cluster,
    _random_job,
)

SEEDS = range(6)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_network_view_equals_a_from_scratch_build(name, seed):
    rng = random.Random(seed)
    state = make_cluster_state(
        num_machines=rng.choice((4, 6, 8)), machines_per_rack=rng.choice((2, 3, 4))
    )
    state.submit_job(_random_job(rng, 1, state.topology.num_machines, 0.0))
    manager = GraphManager(POLICIES[name]())
    solver = IncrementalCostScalingSolver()
    next_job_id = 2
    for round_index in range(ROUNDS):
        now = round_index * 10.0
        where = f"{name} seed {seed} round {round_index}"
        if round_index:
            next_job_id = _mutate_cluster(rng, state, now, next_job_id)
        graph = manager.update(state, now)
        if not manager.task_nodes:
            solver.reset()
            continue
        result = solver.solve(graph, changes=manager.last_changes)
        view = graph.copy()
        rebuilt = manager._build_full_network(state, now, state.schedulable_tasks())
        assert {a.key(): (a.capacity, a.cost) for a in view.arcs()} == {
            a.key(): (a.capacity, a.cost) for a in rebuilt.arcs()
        }, where
        assert {n.node_id: n.supply for n in view.nodes()} == {
            n.node_id: n.supply for n in rebuilt.nodes()
        }, where
        assert {a.key(): a.flow for a in view.arcs() if a.flow} == dict(result.flows)
        assert view.flows() == graph.residual.full_flows(), where
        rebuilt.set_flows(view.flows())
        assert check_feasibility(rebuilt) == [], where
        assert flow_cost(rebuilt) == result.total_cost == reference_min_cost(rebuilt)


def test_a_graph_answers_no_network_read_but_by_copy():
    """A :class:`FlowNetwork` read on the graph raises: the O(graph) build
    behind it is asked for by name (``copy()``), never by attribute."""
    state = make_cluster_state(num_machines=4, machines_per_rack=2)
    state.submit_job(_random_job(random.Random(1), 1, 4, 0.0))
    graph = GraphManager(POLICIES["quincy"]()).update(state, 0.0)
    for name in ("nodes", "arcs", "outgoing", "structurally_equal"):
        with pytest.raises(AttributeError):
            getattr(graph, name)
    assert graph.copy().num_nodes == graph.num_nodes
