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

A batch whose first search crossed a hub (walked ``WAVE_MIN_WALK``
adjacency entries) is routed in multi-source waves (one search, then a
blocking flow along tight arcs) while ``WAVE_MIN_SOURCES`` sources hold
excess.  The last part of this file pins them: an arrival through a hub
goes in waves and one straight onto the plateau does not; with the walk
threshold at 0, a 12-task arrival on the plateau is one search and one
wave that settle the same nodes at every plateau width, 0-optimal after
every augmentation; a batch no wave can route still ends in
``InfeasibleProblemError``; and a fuzz over random, multi-deficit, Quincy
and load-spreading rounds finds the wave and the per-source repair at the
same optimum every round.

Deleting the exit from the relax loop (``if new_dist == d: found = True``)
fails exactly the two ``test_settled_nodes_do_not_grow_with_the_plateau``
cases (EXPERIMENTS.md, "PR 21"); everything else here is about what the
exit must not break.  (The check at the pop, ``dist[target] <= d``, is not
only a bound: it is also what keeps a settled node from passing the
target's distance, so deleting it fails the suites at large.)
"""

from __future__ import annotations

import random
import sys

import pytest

from repro.cluster import Job, Task
from repro.core.graph_manager import GraphManager
from repro.core.policies import LoadSpreadingPolicy, QuincyPolicy
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
from repro.solvers import cost_scaling
from repro.solvers.base import InfeasibleProblemError
from tests.conftest import reference_min_cost
from tests.solvers.equivalence_harness import generate_network, perturb_network
from tests.solvers.test_feasibility_pass import quincy_state, random_network

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


# --------------------------------------------------------------------- #
# The multi-source wave
# --------------------------------------------------------------------- #

#: Arrivals of the directed wave cases: past ``WAVE_MIN_SOURCES``.
ARRIVALS = 12
WAVE_SEEDS = range(12)


def arrival_round(width: int):
    """The plateau, and a round in which ``ARRIVALS`` tasks arrive, each
    with an arc of cost 3 to one of the last machines (highest node
    indices, last in the sink's adjacency)."""
    network, sink, unscheduled, machines, _tasks = plateau_network(width)

    def arrive(net):
        for machine in machines[-ARRIVALS:]:
            add_task_to(net, sink, unscheduled, machine, cost=3)

    return network, next_round(network, arrive)


def hub_arrival_round(width: int):
    """The plateau behind a cluster aggregator with an arc to every
    machine, and a round in which ``ARRIVALS`` tasks arrive with an arc of
    cost 3 to the aggregator: every search for them walks its adjacency."""
    network, sink, unscheduled, machines, _tasks = plateau_network(width)
    hub = network.add_node(NodeType.CLUSTER_AGGREGATOR, name="X")
    for machine in machines:
        network.add_arc(hub.node_id, machine.node_id, len(machines), 0)

    def arrive(net):
        for _ in range(ARRIVALS):
            add_task_to(net, sink, unscheduled, hub, cost=3)

    return network, next_round(network, arrive)


@pytest.mark.parametrize(
    "arrival, waves", [(arrival_round, False), (hub_arrival_round, True)],
    ids=["onto the plateau", "through a hub"],
)
def test_the_first_search_chooses_the_waves(arrival, waves):
    """The batch's first search decides: one that walked a hub's adjacency
    (1 025 machines) leaves the rest to waves, one that walked a handful of
    entries leaves a search per source."""
    network, (after, batch) = arrival(1024)
    solver = IncrementalCostScalingSolver()
    solver.solve(network.copy())
    result = solver.solve(after.copy(), changes=batch)
    stats = result.statistics
    assert stats.delta_solve == 1
    assert stats.augmentations == ARRIVALS
    assert (stats.searches < ARRIVALS) == waves
    assert_matches_scratch_solvers(after, result.total_cost)


def test_a_wave_settles_what_the_arrival_needs_not_the_plateau(monkeypatch):
    """Twelve sources, one deficit (the sink), waves whatever the first
    search walked: it routes one source, then one wave labels the other
    arrivals' machines, stops once their free slots cover the eleven
    units, and the blocking flow routes all eleven -- settling the same
    nodes whether 64 or 1 024 machines tie behind them."""
    monkeypatch.setattr(cost_scaling, "WAVE_MIN_WALK", 0)
    settled = {}
    for width in PLATEAU_SIZES:
        network, (after, batch) = arrival_round(width)
        solver = IncrementalCostScalingSolver()
        solver.solve(network.copy())
        checked = []

        def hook(residual, event):
            assert check_residual_epsilon_optimality(residual, 0) == []
            checked.append(event)

        solver.invariant_hook = hook
        solved = after.copy()
        result = solver.solve(solved, changes=batch)

        stats = result.statistics
        assert stats.delta_solve == 1
        assert stats.augmentations == ARRIVALS
        assert stats.searches == 2
        assert checked == ["augment"] * ARRIVALS
        assert check_feasibility(solved) == []
        assert_matches_scratch_solvers(after, result.total_cost)
        settled[width] = stats.iterations
    assert settled[PLATEAU_SIZES[0]] == settled[PLATEAU_SIZES[-1]] < 4 * ARRIVALS


def test_a_batch_no_wave_can_route_is_infeasible(monkeypatch):
    """Stranded arrivals (no arc out) behind one that can leave: the first
    search routes that one, the wave routes nothing, the single-source
    search that follows finds no deficit either, and the repair raises
    instead of searching again."""
    monkeypatch.setattr(cost_scaling, "WAVE_MIN_WALK", 0)
    network, sink, unscheduled, machines, _tasks = plateau_network(64)
    solver = IncrementalCostScalingSolver()
    solver.solve(network.copy())

    def strand(net):
        for _ in range(ARRIVALS):
            net.add_node(NodeType.TASK, supply=1)
        net.set_supply(sink.node_id, net.node(sink.node_id).supply - ARRIVALS)
        add_task_to(net, sink, unscheduled, machines[0])

    after, batch = next_round(network, strand)
    waves = []
    route_wave = cost_scaling.CostScalingSolver._route_wave

    def counted(self, *args):
        waves.append(args)
        assert len(waves) <= ARRIVALS, "a wave that routed nothing ran again"
        return route_wave(self, *args)

    monkeypatch.setattr(cost_scaling.CostScalingSolver, "_route_wave", counted)
    with pytest.raises(InfeasibleProblemError):
        solver.solve(after.copy(), changes=batch)
    assert len(waves) == 1


def policy_rounds(policy, seed: int, rounds: int = 4):
    """``(network, batch)`` per round of a 64-task Quincy-shaped cluster
    (40 % running) under ``policy``: the first round's batch is ``None``,
    each later round completes four tasks and admits a 12-task job."""
    rng = random.Random(seed)
    state = quincy_state(64, seed=seed, running_share=0.4, machines_per_rack=8)
    manager = GraphManager(policy)
    network = manager.update(state, 10.0).copy()
    yield network, None
    for index in range(rounds):
        now = 11.0 + index
        for task in rng.sample(state.running_tasks(), 4):
            state.complete_task(task.task_id, now)
        job = Job(job_id=9_000 + index, submit_time=now)
        for offset in range(ARRIVALS):
            job.add_task(
                Task(task_id=900_000 + 100 * index + offset, job_id=job.job_id,
                     duration=60.0)
            )
        state.submit_job(job)
        later = manager.update(state, now).copy()
        yield later, ChangeBatch.diff(network, later)
        network = later


def churn_rounds(seed: int):
    rng = random.Random(seed)
    network, changes = generate_network(rng), None
    for _ in range(CHURN_ROUNDS + 1):
        yield network, changes
        network, changes = perturb_network(rng, network)


def all_at_once_rounds(seed: int):
    """A random multi-deficit network, first with no supply, then with all
    of it: one batch whose every source and deficit is new."""
    network = random_network(random.Random(seed))
    empty = network.copy()
    for node in empty.nodes():
        empty.set_supply(node.node_id, 0)
    empty.revision, network.revision = 1, 2
    yield empty, None
    yield network, ChangeBatch.diff(empty, network)


FAMILIES = {
    "random churn": churn_rounds,
    "random multi-deficit": all_at_once_rounds,
    "quincy": lambda seed: policy_rounds(QuincyPolicy(), seed),
    "load spreading": lambda seed: policy_rounds(LoadSpreadingPolicy(), seed),
}


@pytest.mark.parametrize("seed", WAVE_SEEDS)
@pytest.mark.parametrize("family", list(FAMILIES))
def test_waves_and_single_source_searches_reach_the_same_optimum(
    family, seed, monkeypatch
):
    """Twin solvers repair every round, one in waves (after the first
    search of any batch of two or more sources), one with a search per
    source; both are 0-optimal after every augmentation and cost what the
    oracle says, every round."""
    monkeypatch.setattr(cost_scaling, "WAVE_MIN_WALK", 0)
    wave, single = IncrementalCostScalingSolver(), IncrementalCostScalingSolver()

    def hook(residual, event):
        assert check_residual_epsilon_optimality(residual, 0) == []

    wave.invariant_hook = single.invariant_hook = hook
    routed_in_waves = []
    route_wave = cost_scaling.CostScalingSolver._route_wave

    def counted(self, *args):
        routed_in_waves.append(route_wave(self, *args))
        return routed_in_waves[-1]

    monkeypatch.setattr(cost_scaling.CostScalingSolver, "_route_wave", counted)
    waves = 0  # delta rounds in which a wave routed
    for network, changes in FAMILIES[family](seed):
        expected = reference_min_cost(network)
        costs = {}
        for solver, wave_min in ((wave, 2), (single, sys.maxsize)):
            monkeypatch.setattr(cost_scaling, "WAVE_MIN_SOURCES", wave_min)
            solved = network.copy()
            del routed_in_waves[:]
            result = solver.solve(solved, changes=changes)
            assert check_feasibility(solved) == []
            costs[wave_min] = result.total_cost
            if wave_min == 2 and result.statistics.delta_solve:
                waves += sum(routed_in_waves) > 0
        assert costs == {2: expected, sys.maxsize: expected}, f"{family} seed {seed}"
    assert wave.delta_solves == single.delta_solves
    if family in ("quincy", "load spreading"):
        # A wave routed part of every arrival.
        assert waves == wave.delta_solves == 4
