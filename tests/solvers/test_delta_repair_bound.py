"""Directed tests of the delta repair's search bound.

``CostScalingSolver._augment_along_reduced_costs`` ends a search the moment
a relaxed arc labels a deficit at the key being processed, so a repair
settles the region a change touched and not the zero-reduced-cost plateau
behind it.  A 0-optimal residual is mostly such a plateau (every arc that
carries flow below its capacity is tight in both directions), but a fuzz
seed only meets an expensive ordering of the ties by luck, so, in the spirit
of directed fuzzing (G-Fuzz, PAPERS.md), the plateau is built here on
purpose with the deficit last among the tied nodes, by node index and by
adjacency order alike:

* the bound: ``stats.iterations`` (settled nodes) of the repair is the same
  small number whether 64 or 1 024 nodes tie the deficit's distance, at
  distance 0 and at a distance > 0;
* exactness: 0-optimality holds after *every* augmentation of a repair with
  several sources (``invariant_hook``), and the repaired cost equals a
  from-scratch cost scaling run and the successive-shortest-path oracle;
* termination without a plateau exit: on a full cluster no deficit sits at
  distance 0 and the new task leaves through its unscheduled arc;
* 24 churn seeds the cross-solver suite does not use, with the retained
  residual re-validated before every delta solve.

Deleting the exit from the relax loop (``if new_dist == d: found = True``)
fails exactly the two ``test_settled_nodes_do_not_grow_with_the_plateau``
cases (EXPERIMENTS.md, "PR 21"); everything else here is about what the
exit must not break.  (The check at the pop, ``dist[target] <= d``, is not
only a bound: it is also what keeps a settled node from passing the
target's distance, so deleting it fails the suites at large.)
"""

from __future__ import annotations

import random

import pytest

from repro.flow.changes import ChangeBatch
from repro.flow.graph import FlowNetwork, NodeType
from repro.flow.validation import (
    check_feasibility,
    check_residual_epsilon_optimality,
)
from repro.solvers import (
    CostScalingSolver,
    IncrementalCostScalingSolver,
    SuccessiveShortestPathSolver,
)
from tests.conftest import reference_min_cost
from tests.solvers.equivalence_harness import generate_network, perturb_network

PLATEAU_SIZES = (64, 1024)

#: Churn seeds disjoint from the cross-solver suite's ``range(24)``.
CHURN_SEEDS = range(24, 48)
CHURN_ROUNDS = 4


def plateau_network(width: int, slots: int = 2):
    """``width`` + 1 machines with one running task each, one free slot each.

    Every machine->sink arc then carries flow below its capacity, so after
    the first solve it is tight in both directions: seen from the sink, all
    machines tie at reduced-cost distance 0.  The last machine and its task
    are created after everything else, so they hold the highest node
    indices and the last slot of the sink's adjacency: a search that settles
    the ties before looking at the deficit reaches them last.  Returns ``(network, sink, unscheduled, machines, tasks)``.
    """
    network = FlowNetwork()
    sink = network.add_node(NodeType.SINK, supply=-(width + 1), name="S")
    unscheduled = network.add_node(NodeType.UNSCHEDULED_AGGREGATOR, name="U")
    network.add_arc(unscheduled.node_id, sink.node_id, width + 1, 0)
    machines, tasks = [], []

    def add_machine(index: int) -> None:
        machine = network.add_node(NodeType.MACHINE, name=f"M{index}", ref=index)
        network.add_arc(machine.node_id, sink.node_id, slots, 0)
        machines.append(machine)

    def add_task(index: int) -> None:
        task = network.add_node(NodeType.TASK, supply=1, name=f"T{index}", ref=index)
        network.add_arc(task.node_id, machines[index].node_id, 1, 0)
        network.add_arc(task.node_id, unscheduled.node_id, 1, 50)
        tasks.append(task)

    for index in range(width):
        add_machine(index)
    for index in range(width):
        add_task(index)
    add_machine(width)
    add_task(width)
    network.revision = 1
    return network, sink, unscheduled, machines, tasks


def next_round(previous: FlowNetwork, mutate):
    """Copy ``previous``, apply ``mutate`` to the copy, return it + its batch."""
    network = previous.copy()
    mutate(network)
    network.revision = previous.revision + 1
    return network, ChangeBatch.diff(previous, network)


def add_task_to(network, sink, unscheduled, machine, cost=0):
    task = network.add_node(NodeType.TASK, supply=1)
    network.add_arc(task.node_id, machine.node_id, 1, cost)
    network.add_arc(task.node_id, unscheduled.node_id, 1, 50)
    escape = network.arc(unscheduled.node_id, sink.node_id)
    network.set_arc_capacity(unscheduled.node_id, sink.node_id, escape.capacity + 1)
    network.set_supply(sink.node_id, network.node(sink.node_id).supply - 1)
    return task


def complete_task(network, sink, task):
    network.remove_node(task.node_id)
    network.set_supply(sink.node_id, network.node(sink.node_id).supply + 1)


def assert_matches_scratch_solvers(network: FlowNetwork, cost: int) -> None:
    assert cost == CostScalingSolver().solve(network.copy()).total_cost
    assert cost == SuccessiveShortestPathSolver().solve(network.copy()).total_cost
    assert cost == reference_min_cost(network)


@pytest.mark.parametrize("width", PLATEAU_SIZES)
def test_settled_nodes_do_not_grow_with_the_plateau(width):
    """One completion: the sink's surplus is one tight reverse arc from the
    vacated machine, and the search settles the sink and stops there -- not
    after the ``width`` machines (and their tasks) that tie at distance 0."""
    network, sink, _unscheduled, _machines, tasks = plateau_network(width)
    solver = IncrementalCostScalingSolver()
    solver.solve(network.copy())

    after, batch = next_round(
        network, lambda net: complete_task(net, sink, tasks[-1])
    )
    solved = after.copy()
    result = solver.solve(solved, changes=batch)

    stats = result.statistics
    assert stats.delta_solve == 1
    assert stats.augmentations == 1
    # The sink, then the deficit: nothing else, whatever the plateau's size.
    assert stats.iterations == 2
    assert check_feasibility(solved) == []
    assert_matches_scratch_solvers(after, result.total_cost)


@pytest.mark.parametrize("width", PLATEAU_SIZES)
def test_a_labelled_deficit_wins_the_tie_at_its_distance(width):
    """A plateau at distance > 0: the arrival's two equally priced arcs lead
    to the vacated machine and to a machine with the whole plateau behind
    it.  The deficit was labelled first, so the search ends when the key
    reaches its distance instead of walking the ties."""
    network, sink, unscheduled, machines, tasks = plateau_network(width)
    solver = IncrementalCostScalingSolver()
    solver.solve(network.copy())

    def churn(net):
        complete_task(net, sink, tasks[-1])
        arrival = add_task_to(net, sink, unscheduled, machines[0], cost=3)
        net.add_arc(arrival.node_id, machines[-1].node_id, 1, 3)

    after, batch = next_round(network, churn)
    solved = after.copy()
    result = solver.solve(solved, changes=batch)

    stats = result.statistics
    assert stats.delta_solve == 1
    assert stats.augmentations == 1
    # The new task, then the deficit it labelled: the tie is never opened.
    assert stats.iterations == 2
    assert check_feasibility(solved) == []
    assert_matches_scratch_solvers(after, result.total_cost)


@pytest.mark.parametrize("width", PLATEAU_SIZES)
def test_zero_optimal_after_every_augmentation_of_a_multi_source_repair(width):
    """Four completions and three arrivals in one batch: the sink and each
    new task are sources, every augmentation ends at a first nearest
    deficit, and the potentials stay a 0-optimality proof in between."""
    network, sink, unscheduled, machines, tasks = plateau_network(width)
    solver = IncrementalCostScalingSolver()
    solver.solve(network.copy())
    checked = []

    def hook(residual, event):
        assert check_residual_epsilon_optimality(residual, 0) == []
        checked.append(event)

    solver.invariant_hook = hook

    def churn(net):
        for task in (tasks[0], tasks[1], tasks[width // 2], tasks[-1]):
            complete_task(net, sink, task)
        # One arrival per kind of destination: a vacated machine, a machine
        # that keeps its task (so the unit crosses the sink to a vacated
        # one), and an arc that costs something.
        add_task_to(net, sink, unscheduled, machines[0])
        add_task_to(net, sink, unscheduled, machines[2])
        add_task_to(net, sink, unscheduled, machines[-1], cost=7)

    after, batch = next_round(network, churn)
    solved = after.copy()
    result = solver.solve(solved, changes=batch)

    assert result.statistics.delta_solve == 1
    assert result.statistics.augmentations == 4
    assert checked == ["augment"] * result.statistics.augmentations
    assert check_residual_epsilon_optimality(solver.last_residual, 0) == []
    assert check_feasibility(solved) == []
    assert_matches_scratch_solvers(after, result.total_cost)

    # The chain is still good for another round on the same residual.
    later, batch = next_round(
        after, lambda net: add_task_to(net, sink, unscheduled, machines[3])
    )
    again = solver.solve(later.copy(), changes=batch)
    assert again.statistics.delta_solve == 1
    assert_matches_scratch_solvers(later, again.total_cost)


@pytest.mark.parametrize("width", PLATEAU_SIZES)
def test_full_cluster_routes_the_arrival_through_its_unscheduled_arc(width):
    """No free slot anywhere: no deficit ties the source's distance, the
    exit never fires early, and the search still ends at the sink -- across
    the unscheduled aggregator, at the price of the escape arc."""
    network, sink, unscheduled, machines, _tasks = plateau_network(width, slots=1)
    solver = IncrementalCostScalingSolver()
    first = solver.solve(network.copy())

    after, batch = next_round(
        network, lambda net: add_task_to(net, sink, unscheduled, machines[0])
    )
    solved = after.copy()
    result = solver.solve(solved, changes=batch)

    assert result.statistics.delta_solve == 1
    assert result.optimal
    assert result.total_cost == first.total_cost + 50
    assert check_residual_epsilon_optimality(solver.last_residual, 0) == []
    assert check_feasibility(solved) == []
    assert_matches_scratch_solvers(after, result.total_cost)


@pytest.mark.parametrize("seed", CHURN_SEEDS)
def test_churn_rounds_stay_optimal_with_the_residual_validated(seed):
    """Fuzzed multi-round churn on the delta path: the retained residual
    passes the 0-optimality check before every delta solve and after every
    augmentation, and every round's cost is the oracle's."""
    rng = random.Random(seed)
    network = generate_network(rng)
    solver = IncrementalCostScalingSolver()
    solver.validate_residual = True

    def hook(residual, event):
        assert check_residual_epsilon_optimality(residual, 0) == []

    solver.invariant_hook = hook
    changes = None
    for round_index in range(CHURN_ROUNDS + 1):
        solved = network.copy()
        result = solver.solve(solved, changes=changes)
        assert result.total_cost == reference_min_cost(network), (
            f"seed {seed} round {round_index}"
        )
        assert check_feasibility(solved) == []
        network, changes = perturb_network(rng, network)
    assert solver.residual_validation_failures == 0
    assert solver.delta_solves + solver.delta_fallbacks == CHURN_ROUNDS
