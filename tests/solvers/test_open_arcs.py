"""Open-arc lists: each node's adjacency entries with residual capacity.

The delta repair's searches walk :attr:`ResidualNetwork.open_arcs` instead
of the adjacency, so a hub costs the arcs that can carry flow out of it.
The lists must be exact -- the entries of the node's adjacency whose
``arc_residual`` is positive, in adjacency order, no duplicates -- whenever
they are not marked stale, and :meth:`ResidualNetwork.consistency_errors`
reports any node where they are not.

A seeded fuzz drives mixed steps through a graph's residual (the one an
in-place solver repairs, as on ``serve``'s path) and runs that check after
every step: task and arc additions, capacity and cost patches, arc and node
removals, compaction, another solver's flow loaded in, delta repairs, warm
rebuilds, cold solves, and dual-executor rounds that adopt a relaxation
win.  Every solve is checked against a from-scratch solve's cost, and the
residual it retains against 0-optimality.
"""

from __future__ import annotations

import random

import pytest

from repro.flow.graph import NodeType
from repro.flow.validation import check_residual_epsilon_optimality
from repro.solvers import CostScalingSolver
from repro.solvers.dual_executor import DualAlgorithmExecutor
from repro.solvers.residual import FlowGraph, ResidualNetwork
from tests.solvers.test_flow_journal import build_small_network

SEEDS = range(10)
STEPS = 150
SINK, UNSCHEDULED, AGGREGATOR = 0, 1, 2


class Rig:
    """A scheduling-shaped graph grown and patched through its residual's
    mutators, and a dual executor solving it in place."""

    def __init__(self, seed: int) -> None:
        self.rng = rng = random.Random(seed)
        self.graph = FlowGraph()
        self.residual = residual = self.graph.residual
        self.executor = DualAlgorithmExecutor()
        self.relaxation_wins = False
        self._rig_race()
        residual.add_node(SINK, 0, NodeType.SINK)
        residual.add_node(UNSCHEDULED, 0, NodeType.UNSCHEDULED_AGGREGATOR)
        residual.add_node(AGGREGATOR, 0, NodeType.CLUSTER_AGGREGATOR)
        self.machines = list(range(3, 3 + rng.randint(3, 6)))
        for machine in self.machines:
            residual.add_node(machine, 0, NodeType.MACHINE, machine)
            residual.put_arc(machine, SINK, rng.randint(1, 3), 0)
            residual.put_arc(AGGREGATOR, machine, rng.randint(1, 4), rng.randint(0, 6))
        self.next_node = 3 + len(self.machines)
        self.tasks = {}  # node id -> supply
        for _ in range(rng.randint(3, 8)):
            self.add_task()

    def _rig_race(self) -> None:
        """A raced round's winner is ``relaxation_wins`` (the legs really
        solve; only the runtimes the race compares are set)."""
        relaxation, incremental = self.executor.relaxation, self.executor.incremental
        relaxation_solve, incremental_solve = relaxation.solve, incremental.solve

        def relaxation_timed(*args, **kwargs):
            result = relaxation_solve(*args, **kwargs)
            result.runtime_seconds = 1.0 if self.relaxation_wins else 3.0
            return result

        def incremental_timed(*args, **kwargs):
            result = incremental_solve(*args, **kwargs)
            result.runtime_seconds = 2.0
            return result

        relaxation.solve = relaxation_timed
        incremental.solve = incremental_timed

    # -- graph mutations ------------------------------------------------ #
    def total_supply(self) -> int:
        return sum(self.tasks.values())

    def balance(self) -> None:
        """The sink takes every task's supply; the escape path carries it."""
        total = self.total_supply()
        self.residual.set_supply(SINK, -total)
        self.residual.put_arc(UNSCHEDULED, SINK, total, 0)

    def add_task(self) -> None:
        rng, residual = self.rng, self.residual
        task, supply = self.next_node, rng.randint(1, 2)
        self.next_node += 1
        self.tasks[task] = supply
        residual.add_node(task, supply, NodeType.TASK, task)
        residual.put_arc(task, UNSCHEDULED, supply, rng.randint(20, 60))
        for machine in rng.sample(self.machines, rng.randint(0, 2)):
            residual.put_arc(task, machine, rng.randint(1, 2), rng.randint(0, 15))
        if rng.random() < 0.7:
            residual.put_arc(task, AGGREGATOR, supply, rng.randint(2, 12))
        self.balance()

    def remove_task(self) -> None:
        if len(self.tasks) > 1:
            task = self.rng.choice(sorted(self.tasks))
            del self.tasks[task]
            self.balance()
            self.residual.remove_node(task)

    def patchable_arcs(self):
        """Arcs whose capacity may change without risking feasibility."""
        return [key for key in self.residual.arc_position if UNSCHEDULED not in key]

    def add_arc(self) -> None:
        task = self.rng.choice(sorted(self.tasks))
        machine = self.rng.choice(self.machines)
        if (task, machine) not in self.residual.arc_position:
            self.residual.add_arc(task, machine, self.rng.randint(1, 2), self.rng.randint(0, 15))

    def patch_capacity(self) -> None:
        src, dst = self.rng.choice(self.patchable_arcs())
        self.residual.set_arc_capacity(src, dst, self.rng.randint(0, 4))

    def patch_cost(self) -> None:
        key = self.rng.choice(sorted(self.residual.arc_position))
        self.residual.patch_cost(self.residual.arc_position[key], self.rng.randint(0, 15))

    def remove_arc(self) -> None:
        arcs = [key for key in self.patchable_arcs() if key[0] in self.tasks]
        if arcs:
            self.residual.remove_arc(*self.rng.choice(arcs))

    def compact(self) -> None:
        self.residual.compact()

    def load_flows(self) -> None:
        """Another solver's flow: an optimum of the graph as it is, or none."""
        flows = {}
        if self.rng.random() < 0.5:
            flows = CostScalingSolver().solve(self.graph.copy(), write_back=False).flows
        self.graph.set_flows(flows)

    # -- solves ----------------------------------------------------------- #
    def executor_round(self) -> None:
        """A delta repair when the graph chains, a race otherwise."""
        self.relaxation_wins = self.rng.random() < 0.5
        self.check_solved(self.executor.solve(self.graph))

    def adopt_relaxation_win(self) -> None:
        """A round that races (its record lost) and relaxation wins."""
        self.residual.drop_patch()
        self.relaxation_wins = True
        detailed = self.executor.solve_detailed(self.graph)
        assert detailed.relaxation is not None
        assert detailed.winner is detailed.relaxation
        self.check_solved(detailed.winner)

    def warm_rebuild(self) -> None:
        incremental = self.executor.incremental
        incremental.release_residual()
        self.check_solved(incremental.solve(self.graph))

    def cold_solve(self) -> None:
        incremental = self.executor.incremental
        incremental.reset()
        self.check_solved(incremental.solve(self.graph))

    def check_solved(self, result) -> None:
        expected = CostScalingSolver().solve(self.graph.copy(), write_back=False)
        assert result.total_cost == expected.total_cost
        assert self.residual.total_cost() == expected.total_cost
        assert check_residual_epsilon_optimality(self.residual, 0) == []


STEP_WEIGHTS = {
    Rig.add_task: 3,
    Rig.remove_task: 2,
    Rig.add_arc: 2,
    Rig.patch_capacity: 3,
    Rig.patch_cost: 3,
    Rig.remove_arc: 1,
    Rig.compact: 1,
    Rig.load_flows: 1,
    Rig.executor_round: 6,
    Rig.adopt_relaxation_win: 1,
    Rig.warm_rebuild: 1,
    Rig.cold_solve: 1,
}


@pytest.mark.parametrize("seed", SEEDS)
def test_open_arcs_stay_exact_through_mixed_steps(seed):
    rig = Rig(seed)
    rng = random.Random(1000 + seed)
    steps, weights = zip(*STEP_WEIGHTS.items())
    fresh = {step: 0 for step in steps}  # steps that began on fresh lists
    rig.executor_round()
    for index in range(STEPS):
        step = rng.choices(steps, weights)[0]
        fresh[step] += not rig.residual.open_arcs_stale
        step(rig)
        assert rig.residual.consistency_errors() == [], f"step {index}: {step.__name__}"
    # Every kind of step found lists to keep exact (a cold solve's ladder
    # then marks them stale, and the next repair rebuilds them).
    assert all(fresh.values()), fresh


def test_open_arcs_are_the_entries_with_residual_capacity():
    residual = ResidualNetwork(build_small_network())
    # source -> middle (0), middle -> sink (2), source -> sink (4).
    assert residual.open_arcs == [[0, 4], [2], []]
    residual.push(0, 3)  # saturates source -> middle, opens its reverse
    assert residual.open_arcs == [[4], [1, 2], []]
    residual.push(2, 1)
    assert residual.open_arcs == [[4], [1, 2], [3]]
    residual.set_arc_capacity(0, 1, 5)  # reopens source -> middle
    assert residual.open_arcs == [[0, 4], [1, 2], [3]]
    residual.remove_arc(1, 2)  # its flow goes back to the endpoints
    assert residual.open_arcs == [[0, 4], [1], []]
    assert residual.consistency_errors() == []


def test_a_stale_list_is_reported_until_marked_and_rebuilt():
    residual = ResidualNetwork(build_small_network())
    residual.arc_residual[4] = 0  # behind the mutators' back
    assert residual.consistency_errors() != []
    residual.invalidate_open_arcs()
    assert residual.consistency_errors() == []  # stale lists are not checked
    residual.push(0, 1)  # mutators leave stale lists alone
    residual.refresh_open_arcs()
    assert not residual.open_arcs_stale
    assert residual.open_arcs == [[0], [1, 2], []]
    assert residual.consistency_errors() == []
