"""Delta-patching tests: the persistent residual network must stay
arc-for-arc equivalent to one freshly built from the updated flow network,
and the incremental solver's delta path must never reconstruct a residual.
"""

from __future__ import annotations

import random

import pytest

from repro.flow.changes import (
    ArcAddition,
    ArcCapacityChange,
    ArcCostChange,
    ArcRemoval,
    ChangeBatch,
    NodeAddition,
    NodeRemoval,
    SupplyChange,
)
from repro.flow.graph import FlowNetwork, NodeType
from repro.solvers import cost_scaling as cost_scaling_module
from repro.solvers.base import SolverStatistics
from repro.solvers.cost_scaling import CostScalingSolver
from repro.solvers.incremental import IncrementalCostScalingSolver
from repro.solvers.residual import ResidualNetwork
from tests.conftest import build_scheduling_network, reference_min_cost


def random_change_batch(network: FlowNetwork, rng: random.Random) -> ChangeBatch:
    """Generate a random but consistent batch covering every change kind.

    The batch is applied to ``network`` in place as it is generated, so the
    returned batch transforms the caller's pre-mutation copy into
    ``network``'s final state.
    """
    batch = ChangeBatch()
    sink = network.nodes_of_type(NodeType.SINK)[0]
    unsched = network.nodes_of_type(NodeType.UNSCHEDULED_AGGREGATOR)[0]
    machines = network.nodes_of_type(NodeType.MACHINE)

    def emit(change):
        change.apply(network)
        batch.append(change)

    # Remove up to two tasks (with their arcs, then the supply rebalance).
    tasks = network.nodes_of_type(NodeType.TASK)
    for task in rng.sample(tasks, k=min(len(tasks), rng.randint(0, 2))):
        for arc in list(network.outgoing(task.node_id)):
            emit(ArcRemoval(src=arc.src, dst=arc.dst))
        emit(NodeRemoval(node_id=task.node_id))
        emit(SupplyChange(node_id=sink.node_id, delta=task.supply))

    # Add up to two tasks with preference arcs.
    for _ in range(rng.randint(0, 2)):
        emit(
            NodeAddition(
                node_type=NodeType.TASK,
                supply=1,
                node_id=max(network.node_ids()) + 1,
            )
        )
        new_id = max(network.node_ids())
        for machine in rng.sample(machines, k=min(2, len(machines))):
            emit(
                ArcAddition(
                    src=new_id,
                    dst=machine.node_id,
                    capacity=1,
                    cost=rng.randint(0, 5),
                )
            )
        emit(ArcAddition(src=new_id, dst=unsched.node_id, capacity=1, cost=10))
        emit(SupplyChange(node_id=sink.node_id, delta=-1))

    # Keep the fallback drain wide enough for every task (feasibility).
    num_tasks = len(network.nodes_of_type(NodeType.TASK))
    if network.arc(unsched.node_id, sink.node_id).capacity < num_tasks:
        emit(
            ArcCapacityChange(
                src=unsched.node_id, dst=sink.node_id, new_capacity=num_tasks
            )
        )

    # Cost drift and capacity changes on surviving arcs.
    for arc in list(network.arcs()):
        if rng.random() < 0.25:
            emit(
                ArcCostChange(
                    src=arc.src,
                    dst=arc.dst,
                    new_cost=max(0, arc.cost + rng.randint(-3, 3)),
                )
            )
    for machine in machines:
        if rng.random() < 0.25 and network.has_arc(machine.node_id, sink.node_id):
            emit(
                ArcCapacityChange(
                    src=machine.node_id,
                    dst=sink.node_id,
                    new_capacity=rng.randint(1, 4),
                )
            )
    return batch


class TestDeltaEquivalence:
    """A patched residual equals one freshly built from the updated network."""

    @pytest.mark.parametrize("seed", range(12))
    def test_patched_residual_matches_fresh_build(self, seed):
        rng = random.Random(seed)
        network = build_scheduling_network(
            seed=seed, num_tasks=rng.randint(3, 8), num_machines=rng.randint(2, 5)
        )
        residual = ResidualNetwork(network)
        batch = random_change_batch(network, rng)

        residual.apply_changes(batch)
        assert residual.consistency_errors(network) == []

        fresh = ResidualNetwork(network)
        live_arcs = {
            key: (
                residual.arc_residual[2 * p] + residual.arc_residual[2 * p + 1],
                residual.arc_cost[2 * p] // residual.cost_scale,
            )
            for key, p in residual.arc_position.items()
        }
        fresh_arcs = {
            key: (
                fresh.arc_residual[2 * p] + fresh.arc_residual[2 * p + 1],
                fresh.arc_cost[2 * p],
            )
            for key, p in fresh.arc_position.items()
        }
        assert live_arcs == fresh_arcs
        live_supplies = {
            nid: residual.supply[i]
            for nid, i in residual.index.items()
            if residual.node_alive[i]
        }
        assert live_supplies == {
            nid: fresh.supply[fresh.index[nid]] for nid in fresh.index
        }

    @pytest.mark.parametrize("seed", range(8))
    def test_patched_residual_matches_across_sequential_batches(self, seed):
        rng = random.Random(1000 + seed)
        network = build_scheduling_network(seed=seed, num_tasks=6, num_machines=3)
        residual = ResidualNetwork(network)
        for _ in range(4):
            batch = random_change_batch(network, rng)
            residual.apply_changes(batch)
            assert residual.consistency_errors(network) == []

    def test_scaled_residual_patches_in_scaled_units(self):
        network = build_scheduling_network(seed=3)
        residual = ResidualNetwork(network)
        residual.scale_costs(7)
        arc = next(iter(network.arcs()))
        batch = ChangeBatch([ArcCostChange(src=arc.src, dst=arc.dst, new_cost=13)])
        batch.apply_to(network)
        residual.apply_changes(batch)
        position = residual.arc_position[(arc.src, arc.dst)]
        assert residual.arc_cost[2 * position] == 13 * 7
        assert residual.consistency_errors(network) == []


class TestApplyChangesBookkeeping:
    def build(self):
        net = FlowNetwork()
        task = net.add_node(NodeType.TASK, supply=1)
        machine = net.add_node(NodeType.MACHINE)
        sink = net.add_node(NodeType.SINK, supply=-1)
        net.add_arc(task.node_id, machine.node_id, 2, 5)
        net.add_arc(machine.node_id, sink.node_id, 2, 0)
        return net, task, machine, sink

    def test_capacity_clamp_returns_flow_to_endpoints(self):
        net, task, machine, sink = self.build()
        net.arc(task.node_id, machine.node_id).flow = 2
        net.arc(machine.node_id, sink.node_id).flow = 2
        net.set_supply(task.node_id, 2)
        net.set_supply(sink.node_id, -2)
        residual = ResidualNetwork(net, flows=net.flows())
        t = residual.index[task.node_id]
        m = residual.index[machine.node_id]
        residual.apply_changes(
            ChangeBatch(
                [ArcCapacityChange(src=task.node_id, dst=machine.node_id, new_capacity=1)]
            )
        )
        # One clamped-off unit returns: excess at the task, deficit at the
        # machine (whose outflow to the sink still carries two units).
        assert residual.excess[t] == 1
        assert residual.excess[m] == -1

    def test_arc_removal_returns_flow_and_kills_slot(self):
        net, task, machine, sink = self.build()
        net.arc(task.node_id, machine.node_id).flow = 1
        net.arc(machine.node_id, sink.node_id).flow = 1
        residual = ResidualNetwork(net, flows=net.flows())
        residual.apply_changes(
            ChangeBatch([ArcRemoval(src=task.node_id, dst=machine.node_id)])
        )
        assert (task.node_id, machine.node_id) not in residual.arc_position
        assert residual.dead_arc_pairs == 1
        t = residual.index[task.node_id]
        assert residual.excess[t] == 1  # supply unit back at the task
        assert residual.flows() == {(machine.node_id, sink.node_id): 1}

    def test_every_excess_the_patch_moves_is_reported(self):
        """The repair collects its sources from ``last_excess_moved``, never
        by enumerating the nodes: after any patch of a feasible residual,
        every node with a non-zero excess must be in that set."""
        rng = random.Random(11)
        network = build_scheduling_network(seed=11, num_tasks=8, num_machines=4)
        solver = IncrementalCostScalingSolver()
        solver.solve(network.copy())
        residual = solver.last_residual
        for _ in range(6):
            assert not any(residual.excess)
            batch = random_change_batch(network, rng)
            residual.apply_changes(batch)
            imbalanced = {i for i, e in enumerate(residual.excess) if e}
            assert imbalanced <= residual.last_excess_moved
            # Put the flow back in balance for the next patch.
            residual.invalidate_flow_journal()
            solver._repair_warm_solution(residual, SolverStatistics())

    def test_node_removal_rejects_unbalanced_state(self):
        net, task, machine, sink = self.build()
        net.arc(task.node_id, machine.node_id).flow = 1
        net.arc(machine.node_id, sink.node_id).flow = 1
        residual = ResidualNetwork(net, flows=net.flows())
        # Simulate unresolved excess parked at the task (as after a failed
        # repair): removing the node would silently drop supply, so the
        # patch must refuse and force the caller back to a rebuild.
        residual.excess[residual.index[task.node_id]] += 1
        with pytest.raises(ValueError):
            residual.apply_changes(ChangeBatch([NodeRemoval(node_id=task.node_id)]))

    def test_max_cost_cache_tracks_mutations(self):
        net, task, machine, sink = self.build()
        residual = ResidualNetwork(net)
        assert residual.max_cost() == 5
        residual.apply_changes(
            ChangeBatch([ArcCostChange(src=task.node_id, dst=machine.node_id, new_cost=9)])
        )
        assert residual.max_cost() == 9
        residual.apply_changes(
            ChangeBatch(
                [ArcAddition(src=task.node_id, dst=sink.node_id, capacity=1, cost=50)]
            )
        )
        assert residual.max_cost() == 50
        residual.scale_costs(3)
        assert residual.max_cost() == 150

    def test_compaction_preserves_structure(self):
        rng = random.Random(7)
        network = build_scheduling_network(seed=7, num_tasks=8, num_machines=4)
        residual = ResidualNetwork(network)
        batch = random_change_batch(network, rng)
        residual.apply_changes(batch)
        residual.compact()
        assert residual.dead_arc_pairs == 0
        assert residual.dead_nodes == 0
        assert residual.consistency_errors(network) == []


class TestDeltaSolvePath:
    def evolve(self, network, rng, revision):
        updated = network.copy()
        updated.revision = revision
        batch = random_change_batch(updated, rng)
        batch.base_revision = network.revision
        batch.target_revision = revision
        return updated, batch

    def test_delta_solve_constructs_no_residual_network(self, monkeypatch):
        """Acceptance: a solve fed a change batch must not rebuild."""
        network = build_scheduling_network(seed=41)
        network.revision = 1
        solver = IncrementalCostScalingSolver()
        solver.solve(network.copy())

        updated, batch = self.evolve(network, random.Random(41), revision=2)

        def forbidden(*args, **kwargs):
            raise AssertionError(
                "delta solve must not construct a ResidualNetwork"
            )

        monkeypatch.setattr(cost_scaling_module, "ResidualNetwork", forbidden)
        result = solver.solve(updated.copy(), changes=batch)
        assert solver.delta_solves == 1
        assert solver.delta_fallbacks == 0
        assert result.total_cost == reference_min_cost(updated)

    @pytest.mark.parametrize("seed", range(8))
    def test_delta_solves_match_oracle_over_rounds(self, seed):
        rng = random.Random(seed)
        network = build_scheduling_network(
            seed=seed, num_tasks=rng.randint(4, 9), num_machines=rng.randint(2, 5)
        )
        network.revision = 1
        solver = IncrementalCostScalingSolver()
        solver.solve(network.copy())
        for revision in range(2, 6):
            updated, batch = self.evolve(network, rng, revision)
            result = solver.solve(updated.copy(), changes=batch)
            assert result.total_cost == reference_min_cost(updated)
            retained = solver.last_residual
            assert retained is not None
            assert retained.consistency_errors(updated) == []
            network = updated
        assert solver.delta_solves == 4
        assert solver.delta_fallbacks == 0

    def test_revision_mismatch_falls_back_to_rebuild(self):
        network = build_scheduling_network(seed=43)
        network.revision = 1
        solver = IncrementalCostScalingSolver()
        solver.solve(network.copy())

        rng = random.Random(43)
        skipped, _ = self.evolve(network, rng, revision=2)
        updated, batch = self.evolve(skipped, rng, revision=3)
        # The solver never saw revision 2, so the 2->3 batch must not be
        # patched onto its revision-1 residual.
        result = solver.solve(updated.copy(), changes=batch)
        assert solver.delta_solves == 0
        assert result.total_cost == reference_min_cost(updated)

    def test_result_potentials_are_read_off_the_residual_on_demand(self):
        """A persistent solver's result carries a view, not a dict per
        solve: same values as the eager conversion, and a first read after
        the residual moved on raises instead of answering for a later
        round."""
        network = build_scheduling_network(seed=45)
        network.revision = 1
        solver = IncrementalCostScalingSolver()
        first = solver.solve(network.copy())
        residual = solver.last_residual
        scale = residual.cost_scale
        expected = {
            node_id: value // scale
            for node_id, value in residual.export_potentials().items()
        }
        assert not isinstance(first.potentials, dict)
        assert dict(first.potentials) == expected
        assert first.potentials == expected and len(first.potentials) == len(expected)

        updated, batch = self.evolve(network, random.Random(45), revision=2)
        second = solver.solve(updated.copy(), changes=batch)
        assert solver.delta_solves == 1
        # Read within its round: fine, and stable afterwards.
        kept = dict(second.potentials)
        later, batch = self.evolve(updated, random.Random(46), revision=3)
        third = solver.solve(later.copy(), changes=batch)
        assert dict(second.potentials) == kept
        # The first round's view was materialised above; one never read
        # before the residual was patched again must refuse.
        stale, batch = self.evolve(later, random.Random(47), revision=4)
        solver.solve(stale.copy(), changes=batch)
        with pytest.raises(RuntimeError):
            dict(third.potentials)

    def test_released_residual_still_warm_starts_the_rebuild(self):
        """No batch next round: the retained residual is released, its
        scaled potentials become the warm start, and the rebuild needs no
        price refine to prove the unchanged optimum."""
        network = build_scheduling_network(seed=46)
        solver = IncrementalCostScalingSolver()
        first = solver.solve(network.copy())
        assert solver.last_residual is not None
        assert solver.last_scaled_potentials is None  # they live on the residual
        second = solver.solve(network.copy())
        assert second.statistics.warm_start
        assert second.statistics.price_refine_passes == 0
        assert second.total_cost == first.total_cost == reference_min_cost(network)

    def test_seed_drops_persistent_residual(self):
        from repro.solvers.relaxation import RelaxationSolver

        network = build_scheduling_network(seed=44)
        network.revision = 1
        solver = IncrementalCostScalingSolver()
        solver.solve(network.copy())
        assert solver.last_residual is not None
        relaxed = RelaxationSolver().solve(network.copy())
        solver.seed(relaxed.flows, relaxed.potentials)
        assert solver.last_residual is None

    def test_scheduler_drives_delta_path_end_to_end(self):
        from repro.core import FirmamentScheduler, QuincyPolicy
        from tests.conftest import make_cluster_state, make_job

        state = make_cluster_state()
        state.submit_job(make_job(job_id=1, num_tasks=4))
        incremental = IncrementalCostScalingSolver()
        scheduler = FirmamentScheduler(QuincyPolicy(), solver=incremental)
        scheduler.schedule_and_apply(state, now=0.0)
        state.submit_job(make_job(job_id=2, num_tasks=2))
        scheduler.schedule_and_apply(state, now=10.0)
        scheduler.schedule_and_apply(state, now=20.0)
        assert incremental.delta_solves >= 1
        assert incremental.delta_fallbacks == 0
