"""Unit tests for the graph manager (node identity and network construction)."""

import pytest

from repro.core.graph_manager import GraphManager
from repro.core.policies import LoadSpreadingPolicy, QuincyPolicy
from repro.flow.graph import NodeType
from tests.conftest import make_cluster_state, make_job


class TestNetworkConstruction:
    def test_basic_structure(self, small_state):
        small_state.submit_job(make_job(job_id=1, num_tasks=3))
        manager = GraphManager(LoadSpreadingPolicy())
        network = manager.update(small_state, now=0.0)

        tasks = network.nodes_of_type(NodeType.TASK)
        machines = network.nodes_of_type(NodeType.MACHINE)
        sinks = network.nodes_of_type(NodeType.SINK)
        assert len(tasks) == 3
        assert len(machines) == small_state.topology.num_machines
        assert len(sinks) == 1
        assert sinks[0].supply == -3
        assert all(t.supply == 1 for t in tasks)
        assert network.validate_structure() == []

    def test_every_task_can_reach_the_sink(self, small_state):
        small_state.submit_job(make_job(job_id=1, num_tasks=4))
        manager = GraphManager(QuincyPolicy())
        network = manager.update(small_state, now=0.0)
        for task_id, node_id in manager.task_nodes.items():
            assert network.outgoing(node_id), f"task {task_id} has no outgoing arcs"

    def test_empty_workload_produces_trivial_network(self, small_state):
        manager = GraphManager(LoadSpreadingPolicy())
        network = manager.update(small_state, now=0.0)
        assert manager.task_nodes == {}
        assert network.nodes_of_type(NodeType.TASK) == []

    def test_isolated_nodes_are_pruned(self, small_state):
        # With the load-spreading policy racks are never used, so no rack
        # aggregator nodes should survive pruning.
        small_state.submit_job(make_job(job_id=1, num_tasks=2))
        manager = GraphManager(LoadSpreadingPolicy())
        network = manager.update(small_state, now=0.0)
        assert network.nodes_of_type(NodeType.RACK_AGGREGATOR) == []


class TestNodeIdentityStability:
    def test_node_ids_stable_across_runs(self, small_state):
        job = make_job(job_id=1, num_tasks=3)
        small_state.submit_job(job)
        manager = GraphManager(QuincyPolicy())
        manager.update(small_state, now=0.0)
        first_tasks = manager.task_nodes
        first_machines = manager.machine_nodes
        first_sink = manager.sink_node

        manager.update(small_state, now=1.0)
        assert manager.task_nodes == first_tasks
        assert manager.machine_nodes == first_machines
        assert manager.sink_node == first_sink

    def test_completed_task_node_retired_and_not_reused(self, small_state):
        job = make_job(job_id=1, num_tasks=2)
        small_state.submit_job(job)
        manager = GraphManager(QuincyPolicy())
        manager.update(small_state, now=0.0)
        retired_node = manager.task_nodes[job.tasks[0].task_id]

        small_state.place_task(job.tasks[0].task_id, 0, 0.0)
        small_state.complete_task(job.tasks[0].task_id, 1.0)
        manager.update(small_state, now=2.0)
        assert job.tasks[0].task_id not in manager.task_nodes

        # A newly submitted task must not recycle the retired identifier.
        new_job = make_job(job_id=2, num_tasks=1)
        small_state.submit_job(new_job)
        manager.update(small_state, now=3.0)
        assert manager.task_nodes[new_job.tasks[0].task_id] != retired_node

    def test_failed_machine_dropped_from_network(self, small_state):
        small_state.submit_job(make_job(job_id=1, num_tasks=2))
        manager = GraphManager(LoadSpreadingPolicy())
        manager.update(small_state, now=0.0)
        assert 0 in manager.machine_nodes
        small_state.fail_machine(0, 1.0)
        manager.update(small_state, now=1.0)
        assert 0 not in manager.machine_nodes

    def test_aggregator_identity_stable(self, small_state):
        small_state.submit_job(make_job(job_id=1, num_tasks=2))
        manager = GraphManager(LoadSpreadingPolicy())
        first = manager.update(small_state, now=0.0)
        agg_first = first.nodes_of_type(NodeType.CLUSTER_AGGREGATOR)[0].node_id
        second = manager.update(small_state, now=1.0)
        agg_second = second.nodes_of_type(NodeType.CLUSTER_AGGREGATOR)[0].node_id
        assert agg_first == agg_second


class TestWarmStartCompatibility:
    def test_incremental_solver_can_reuse_flows_across_rebuilds(self, small_state):
        """The point of stable node ids: warm flows keyed by node pairs stay
        valid when the graph manager rebuilds the network."""
        from repro.solvers import IncrementalCostScalingSolver

        small_state.submit_job(make_job(job_id=1, num_tasks=4))
        manager = GraphManager(QuincyPolicy())
        solver = IncrementalCostScalingSolver()
        first_network = manager.update(small_state, now=0.0)
        first = solver.solve(first_network)

        second_network = manager.update(small_state, now=10.0)
        second = solver.solve(second_network)
        assert second.statistics.warm_start
        assert second.total_cost <= first.total_cost + 100  # wait costs grew


class TestChangeBatchEmission:
    def test_first_update_emits_no_batch(self, small_state):
        small_state.submit_job(make_job(job_id=1, num_tasks=2))
        manager = GraphManager(QuincyPolicy())
        manager.update(small_state, now=0.0)
        assert manager.last_changes is None

    def test_update_emits_batch_linking_revisions(self, small_state):
        small_state.submit_job(make_job(job_id=1, num_tasks=2))
        manager = GraphManager(QuincyPolicy())
        # The manager mutates one persistent network in place, so the
        # previous round's revision must be snapshotted before updating.
        first_revision = manager.update(small_state, now=0.0).revision
        second = manager.update(small_state, now=10.0)
        batch = manager.last_changes
        assert batch is not None
        assert batch.base_revision == first_revision
        assert batch.target_revision == second.revision

    @pytest.mark.parametrize("incremental", [True, False])
    def test_emitted_batch_replays_previous_network_into_new(
        self, small_state, incremental
    ):
        job = make_job(job_id=1, num_tasks=3)
        small_state.submit_job(job)
        manager = GraphManager(QuincyPolicy(), incremental=incremental)
        # Snapshot: the persistent network is mutated in place by the
        # incremental path, so a plain reference would alias the new round.
        first = manager.update(small_state, now=0.0).copy()

        # Apply real churn: place and finish a task, submit another job.
        small_state.place_task(job.tasks[0].task_id, 0, now=0.0)
        small_state.complete_task(job.tasks[0].task_id, now=1.0)
        small_state.submit_job(make_job(job_id=2, num_tasks=2))
        second = manager.update(small_state, now=10.0)
        expected_mode = "incremental" if incremental else "full"
        assert manager.last_update_stats.mode == expected_mode

        replayed = first.copy()
        manager.last_changes.apply_to(replayed)
        assert {n.node_id for n in replayed.nodes()} == {
            n.node_id for n in second.nodes()
        }
        assert {a.key(): (a.capacity, a.cost) for a in replayed.arcs()} == {
            a.key(): (a.capacity, a.cost) for a in second.arcs()
        }
        assert {n.node_id: n.supply for n in replayed.nodes()} == {
            n.node_id: n.supply for n in second.nodes()
        }

    def test_change_tracking_can_be_disabled(self, small_state):
        small_state.submit_job(make_job(job_id=1, num_tasks=2))
        manager = GraphManager(QuincyPolicy(), track_changes=False)
        manager.update(small_state, now=0.0)
        manager.update(small_state, now=10.0)
        assert manager.last_changes is None


class TestIncrementalUpdatePath:
    """Contract tests for the dirty-set-driven incremental update."""

    def _churned(self, small_state):
        job = make_job(job_id=1, num_tasks=4)
        small_state.submit_job(job)
        return job

    def test_first_round_is_full_then_incremental(self, small_state):
        self._churned(small_state)
        manager = GraphManager(QuincyPolicy())
        manager.update(small_state, now=0.0)
        assert manager.last_update_stats.mode == "full"
        manager.update(small_state, now=1.0)
        assert manager.last_update_stats.mode == "incremental"

    def test_incremental_can_be_disabled(self, small_state):
        self._churned(small_state)
        manager = GraphManager(QuincyPolicy(), incremental=False)
        manager.update(small_state, now=0.0)
        manager.update(small_state, now=1.0)
        assert manager.full_updates == 2 and manager.incremental_updates == 0

    def test_every_policy_updates_incrementally(self, small_state):
        self._churned(small_state)
        manager = GraphManager(LoadSpreadingPolicy())
        manager.update(small_state, now=0.0)
        manager.update(small_state, now=1.0)
        assert manager.last_update_stats.mode == "incremental"

    def test_second_consumer_draining_makes_every_scope_dirty(self, small_state):
        self._churned(small_state)
        manager = GraphManager(QuincyPolicy(), verify_changes=True)
        manager.update(small_state, now=0.0)
        # Another consumer drains the tracker: the epoch chain breaks and
        # the manager must not trust its stale dirty view -- it re-derives
        # every scope, on the same persistent network.
        small_state.dirty.drain()
        manager.update(small_state, now=1.0)
        stats = manager.last_update_stats
        assert stats.mode == "incremental"
        assert (stats.dirty_tasks, stats.dirty_machines) == (4, 8)
        # The chain re-forms afterwards.
        manager.update(small_state, now=2.0)
        stats = manager.last_update_stats
        assert (stats.mode, stats.dirty_tasks) == ("incremental", 0)

    def test_emptied_workload_prunes_everything_incrementally(self, small_state):
        job = self._churned(small_state)
        manager = GraphManager(QuincyPolicy(), verify_changes=True)
        first = manager.update(small_state, now=0.0)
        for index, task in enumerate(job.tasks):
            small_state.place_task(task.task_id, index % 4, now=0.0)
            small_state.complete_task(task.task_id, now=1.0)
        network = manager.update(small_state, now=2.0)
        assert network is first and network.num_nodes == 0
        # The workload coming back refills the same network.
        small_state.submit_job(make_job(job_id=2, num_tasks=2))
        assert manager.update(small_state, now=3.0) is first
        assert manager.last_update_stats.dirty_machines == 8
        manager.update(small_state, now=4.0)
        assert manager.last_update_stats.dirty_machines == 0
        assert (manager.full_updates, manager.incremental_updates) == (1, 3)

    def test_job_removal_of_pending_tasks_makes_every_scope_dirty(self, small_state):
        self._churned(small_state)
        small_state.submit_job(make_job(job_id=2, num_tasks=2))
        manager = GraphManager(QuincyPolicy(), verify_changes=True)
        manager.update(small_state, now=0.0)
        # Remove a job whose (pending) tasks vanish from state.tasks: the
        # dirty tasks become unresolvable, so nothing short of every scope
        # can be trusted.
        small_state.remove_job(1)
        manager.update(small_state, now=1.0)
        stats = manager.last_update_stats
        assert (stats.mode, stats.dirty_tasks) == ("incremental", 2)

    def test_update_stats_report_touched_counts(self, small_state):
        job = self._churned(small_state)
        manager = GraphManager(QuincyPolicy())
        manager.update(small_state, now=0.0)
        small_state.place_task(job.tasks[0].task_id, 0, now=0.0)
        manager.update(small_state, now=0.0)
        stats = manager.last_update_stats
        assert stats.mode == "incremental"
        assert stats.dirty_tasks == 1
        assert stats.arcs_patched >= 1
        assert stats.seconds >= 0.0

    def test_verify_mode_catches_an_inconsistent_network(self, small_state):
        from repro.core import GraphConsistencyError

        self._churned(small_state)
        manager = GraphManager(QuincyPolicy(), verify_changes=True)
        network = manager.update(small_state, now=0.0)
        # Corrupt the persistent network behind the manager's back; the
        # cross-check must refuse the next incremental round.
        arc = next(iter(network.arcs()))
        arc.cost += 1000
        with pytest.raises(GraphConsistencyError):
            manager.update(small_state, now=1.0)

    def test_exception_mid_incremental_poisons_the_round_state(self, small_state):
        """A hook blowing up mid-mutation must not leave a half-patched
        network behind: the next round rebuilds from scratch."""
        self._churned(small_state)
        policy = QuincyPolicy()
        manager = GraphManager(policy)
        manager.update(small_state, now=0.0)

        original = policy.arcs_for_task
        calls = {"n": 0}

        def exploding(state, builder, task, now):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("boom")
            original(state, builder, task, now)

        policy.arcs_for_task = exploding
        small_state.place_task(
            small_state.pending_tasks()[0].task_id, 0, now=0.0
        )
        for task in small_state.pending_tasks():
            small_state.dirty.mark_task(task.task_id)
        with pytest.raises(RuntimeError):
            manager.update(small_state, now=1.0)

        # The wreckage is discarded: the next update is a from-scratch full
        # build with no change batch derived from the half-mutated state.
        policy.arcs_for_task = original
        network = manager.update(small_state, now=2.0)
        assert manager.last_update_stats.mode == "full"
        assert manager.last_changes is None
        assert network.validate_structure() == []
