"""Unit tests for the graph manager (node identity and network construction)."""

import inspect

import pytest

from repro.core.graph_manager import GraphManager
from repro.core.policies import LoadSpreadingPolicy, QuincyPolicy
from repro.flow.graph import NodeType
from tests.conftest import make_cluster_state, make_job


class TestNetworkConstruction:
    def test_basic_structure(self, small_state):
        small_state.submit_job(make_job(job_id=1, num_tasks=3))
        manager = GraphManager(LoadSpreadingPolicy())
        network = manager.update(small_state, now=0.0).copy()

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
        network = manager.update(small_state, now=0.0).copy()
        for task_id, node_id in manager.task_nodes.items():
            assert network.outgoing(node_id), f"task {task_id} has no outgoing arcs"

    def test_empty_workload_produces_trivial_network(self, small_state):
        manager = GraphManager(LoadSpreadingPolicy())
        network = manager.update(small_state, now=0.0).copy()
        assert manager.task_nodes == {}
        assert network.nodes_of_type(NodeType.TASK) == []

    def test_isolated_nodes_are_pruned(self, small_state):
        # With the load-spreading policy racks are never used, so no rack
        # aggregator nodes should survive pruning.
        small_state.submit_job(make_job(job_id=1, num_tasks=2))
        manager = GraphManager(LoadSpreadingPolicy())
        network = manager.update(small_state, now=0.0).copy()
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
        agg_first = first.copy().nodes_of_type(NodeType.CLUSTER_AGGREGATOR)[0].node_id
        second = manager.update(small_state, now=1.0)
        agg_second = second.copy().nodes_of_type(NodeType.CLUSTER_AGGREGATOR)[0].node_id
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

    def test_emitted_batch_replays_previous_network_into_new(self, small_state):
        job = make_job(job_id=1, num_tasks=3)
        small_state.submit_job(job)
        manager = GraphManager(QuincyPolicy())
        # Snapshot: the persistent network is mutated in place by the
        # incremental path, so a plain reference would alias the new round.
        first = manager.update(small_state, now=0.0).copy()

        # Apply real churn: place and finish a task, submit another job.
        small_state.place_task(job.tasks[0].task_id, 0, now=0.0)
        small_state.complete_task(job.tasks[0].task_id, now=1.0)
        small_state.submit_job(make_job(job_id=2, num_tasks=2))
        second = manager.update(small_state, now=10.0).copy()
        assert manager.last_update_stats.mode == "incremental"

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
        arc = next(iter(network.copy().arcs()))
        residual = network.residual
        residual.patch_cost(residual.arc_position[arc.key()], arc.cost + 1000)
        with pytest.raises(GraphConsistencyError):
            manager.update(small_state, now=1.0)

    def test_exception_mid_incremental_poisons_the_round_state(self, small_state):
        """A hook blowing up mid-mutation must not leave a half-patched
        network behind: the next round starts from an empty one."""
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

        # The wreckage is discarded: the next update starts from an empty
        # network, with no change batch derived from the half-mutated state.
        policy.arcs_for_task = original
        network = manager.update(small_state, now=2.0)
        assert manager.last_update_stats.mode == "full"
        assert manager.last_changes is None
        assert network.copy().validate_structure() == []


def _fail_one_update(manager, policy, state, now):
    """Make ``manager.update`` raise mid-mutation once, on its second task
    scope, then restore the policy hook."""
    original = policy.arcs_for_task
    calls = {"n": 0}

    def exploding(state, builder, task, now):
        calls["n"] += 1
        if calls["n"] >= 2:
            raise RuntimeError("boom")
        original(state, builder, task, now)

    policy.arcs_for_task = exploding
    state.dirty.mark_all()
    try:
        with pytest.raises(RuntimeError):
            manager.update(state, now=now)
    finally:
        policy.arcs_for_task = original


class TestOneUpdatePath:
    """Round 1 and the round after a failed update grow an empty network
    with the same derivation every later round runs."""

    def test_constructor_takes_only_policy_verify_changes_and_chaos(self):
        parameters = inspect.signature(GraphManager.__init__).parameters
        assert list(parameters) == ["self", "policy", "verify_changes", "chaos"]

    def test_round_one_grows_an_empty_network_by_derivation(
        self, small_state, monkeypatch
    ):
        small_state.submit_job(make_job(job_id=1, num_tasks=3))
        manager = GraphManager(QuincyPolicy())

        def no_rebuild(*args, **kwargs):
            raise AssertionError("round 1 built a network from scratch")

        monkeypatch.setattr(GraphManager, "_build_full_network", no_rebuild)
        network = manager.update(small_state, now=0.0)
        stats = manager.last_update_stats
        assert (stats.mode, stats.dirty_tasks, stats.dirty_machines) == ("full", 3, 8)
        # Every node and arc of the network was added by this round.
        assert stats.nodes_touched == network.num_nodes
        assert stats.arcs_patched == network.num_arcs
        assert (manager.full_updates, manager.incremental_updates) == (1, 0)
        assert manager.last_changes is None
        assert network.revision == 1

    @pytest.mark.parametrize(
        "mutation", ["complete_task", "fail_machine", "remove_job", "submit_job"]
    )
    def test_round_after_a_failed_update_reads_the_state_afresh(
        self, small_state, mutation
    ):
        """The entity sets the failed round left behind are forgotten: the
        retry matches a scan and a from-scratch build, however the state
        moved while the manager held no network."""
        first = make_job(job_id=1, num_tasks=4)
        small_state.submit_job(first)
        small_state.submit_job(make_job(job_id=2, num_tasks=2))
        small_state.place_task(first.tasks[0].task_id, 0, now=0.0)
        policy = QuincyPolicy()
        manager = GraphManager(policy)
        manager.update(small_state, now=0.0)
        _fail_one_update(manager, policy, small_state, now=1.0)
        assert manager.network is None

        if mutation == "complete_task":
            small_state.complete_task(first.tasks[0].task_id, now=1.5)
        elif mutation == "fail_machine":
            small_state.fail_machine(0, now=1.5)
        elif mutation == "remove_job":
            small_state.remove_job(2)
        else:
            small_state.submit_job(make_job(job_id=3, num_tasks=2, submit_time=1.5))
        manager.verify_changes = True
        network = manager.update(small_state, now=2.0)
        assert manager.last_update_stats.mode == "full"
        assert manager.last_changes is None
        assert (manager.full_updates, manager.incremental_updates) == (2, 0)
        assert set(manager.task_nodes) == {
            t.task_id for t in small_state.schedulable_tasks()
        }
        assert network.copy().validate_structure() == []
        # The chain re-forms: the next round patches the new network.
        manager.update(small_state, now=3.0)
        assert manager.last_update_stats.mode == "incremental"
        assert manager.last_changes is not None
