"""A steady round runs none of the passes whose cost the cluster sets.

In the style of the ``FlowNetwork.copy`` pin of the dual-executor suite:
once the scheduler ``serve`` builds is warm, the full passes are patched to
raise and the rounds must still go through -- the monolith (one
incremental cost-scaling solver, delta-solving every round) and four
inline cells alike.  The
passes: ``ClusterState.schedulable_tasks`` (and the cells' version), the
full ``ShardedScheduler._bucket_tasks``, ``FlowNetwork.set_flows``' compare
pass over every arc and ``ResidualNetwork.full_flows``.  The graph manager
never builds from scratch at all: round 1 and the round after a failed
update run with ``GraphManager._build_full_network`` and
``ChangeBatch.diff`` patched to raise.

Around it, what the persistent cell tables make possible: a new task is
homed where there is room, one round before the balancer could move it, so
a job hashed to a full cell does not waste a round; the home and job
tables hold live tasks only, however long the scheduler runs; and a
residual compaction no longer blinds the round after it.
"""

from __future__ import annotations

import pytest

from repro.cli import build_parser, serve_command
from repro.cluster.state import ClusterState
from repro.cluster.topology import build_topology
from repro.core import ShardedScheduler
from repro.core.graph_manager import GraphManager
from repro.core.policies import QuincyPolicy
from repro.core.sharding import CellStateView
from repro.flow.changes import ChangeBatch
from repro.flow.graph import FlowNetwork
from repro.solvers.residual import ResidualNetwork
from tests.conftest import make_job

FULL_PASSES = (
    (ClusterState, "schedulable_tasks"),
    (CellStateView, "schedulable_tasks"),
    (ShardedScheduler, "_bucket_tasks"),
    (FlowNetwork, "set_flows"),
    (ResidualNetwork, "full_flows"),
)


def serve_scheduler(cells: int):
    """The scheduler ``serve --cells <cells>`` builds, from its own factory."""
    flags = ["--cells", str(cells)] if cells else []
    return serve_command._build_scheduler(
        build_parser().parse_args(["serve", *flags])
    )


class Workload:
    """Four-task jobs arriving one per round and living ``LIFE`` rounds."""

    LIFE = 6

    def __init__(self, state: ClusterState) -> None:
        self.state = state
        self.now = 0.0
        self.next_job = 1
        self.jobs = []

    def submit(self, num_tasks: int):
        job = make_job(
            job_id=self.next_job, num_tasks=num_tasks, submit_time=self.now,
            task_id_offset=self.next_job * 1000,
        )
        self.next_job += 1
        self.state.submit_job(job)
        return job

    def churn(self) -> None:
        self.now += 0.7
        self.jobs.append(self.submit(4))
        if len(self.jobs) > self.LIFE:
            for task in self.jobs.pop(0).tasks:
                if task.is_running:
                    self.state.complete_task(task.task_id, self.now)


@pytest.mark.parametrize("cells", (0, 4))
def test_ten_steady_rounds_with_the_full_passes_patched_to_raise(cells, monkeypatch):
    state = ClusterState(build_topology(64, machines_per_rack=8, slots_per_machine=2))
    scheduler = serve_scheduler(cells)
    workload = Workload(state)
    try:
        workload.submit(24)
        for _ in range(Workload.LIFE + 3):  # warm: past round 1 and the first full write
            workload.churn()
            scheduler.schedule_and_apply(state, workload.now)

        def refuse(owner, name):
            def full_pass(*args, **kwargs):
                raise AssertionError(f"{owner.__name__}.{name} ran on a steady round")
            return full_pass

        for owner, name in FULL_PASSES:
            monkeypatch.setattr(owner, name, refuse(owner, name))

        updated = []
        update = GraphManager.update

        def recording_update(manager, view, now):
            updated.append(manager)
            return update(manager, view, now)

        monkeypatch.setattr(GraphManager, "update", recording_update)

        placed = 0
        for round_index in range(10):
            workload.churn()
            if round_index == 5:
                # Ordinary machine churn is steady too.
                victim = max(state.topology.machines, key=state.task_count_on_machine)
                state.fail_machine(victim, workload.now)
            del updated[:]
            decision = scheduler.schedule(state, workload.now)
            stats = decision.solver_result.statistics
            if cells:
                # The cells that took part are the ones with a task to
                # place; the others' ``manager.update`` did not run.
                placing = [
                    cell.manager for cell in scheduler._cells
                    if cell.view.pending_task_ids()
                ]
                assert 1 <= len(placing) < cells
                assert updated == placing
                assert stats.delta_solve == stats.cells_solved == len(placing)
            else:
                assert stats.delta_solve == 1
            scheduler.apply(state, decision, workload.now)
            assert not decision.unscheduled
            placed += len(decision.placements)
            assert stats.tasks_reextracted < 16
        assert placed >= 40
        # ... and so is a round nothing changed in.
        decision = scheduler.schedule(state, workload.now)
        assert not (decision.placements or decision.migrations or decision.preemptions)
    finally:
        monkeypatch.undo()
        scheduler.close()


@pytest.mark.parametrize("cells", (0, 4))
def test_every_round_grows_one_network_without_a_from_scratch_build(
    cells, monkeypatch
):
    """The graph manager builds its network one way.  Ten rounds -- round
    1, steady rounds, a round after another consumer broke the dirty
    chain, a round whose policy hook raises and the round after it -- run
    with the from-scratch build and ``ChangeBatch.diff`` patched to raise:
    round 1 and the round after the failure start from an empty network
    and add everything through the same scope derivation."""
    for owner, name in ((GraphManager, "_build_full_network"), (ChangeBatch, "diff")):
        def refuse(*args, _name=f"{owner.__name__}.{name}", **kwargs):
            raise AssertionError(f"{_name} ran")
        monkeypatch.setattr(owner, name, refuse)

    def explode(self, state, builder, task, now):
        raise RuntimeError("policy hook failed")

    state = ClusterState(build_topology(64, machines_per_rack=8, slots_per_machine=2))
    scheduler = serve_scheduler(cells)
    managers = (
        (lambda: [cell.manager for cell in scheduler._cells])
        if cells
        else (lambda: [scheduler.graph_manager])
    )
    workload = Workload(state)
    try:
        workload.submit(24)
        for round_index in range(10):
            workload.churn()
            if round_index == 4:
                state.dirty.drain()  # another consumer: the chain breaks
            if round_index == 6:
                with monkeypatch.context() as patch:
                    patch.setattr(QuincyPolicy, "arcs_for_task", explode)
                    with pytest.raises(RuntimeError, match="policy hook failed"):
                        scheduler.schedule(state, workload.now)
                failed = [m for m in managers() if m.network is None]
                assert len(failed) == 1 and failed[0].last_changes is None
                continue
            decision = scheduler.schedule_and_apply(state, workload.now)
            assert not decision.unscheduled, f"round {round_index}"
            if round_index == 0:
                # (A cell with nothing to place has not started yet.)
                started = [m for m in managers() if m.network is not None]
                assert started and all(m.full_updates == 1 for m in started)
                assert all(m.last_changes is None for m in started)
            if round_index == 7:
                stats = failed[0].last_update_stats
                assert (stats.mode, failed[0].full_updates) == ("full", 2)
                assert failed[0].last_changes is None
        # One start from empty per manager, plus the failed one's restart.
        assert [m.full_updates for m in managers() if m.full_updates > 1] == [2]
    finally:
        monkeypatch.undo()
        scheduler.close()


class TestFirstHome:
    def test_a_job_hashed_to_a_full_cell_is_homed_where_there_is_room(self):
        """``sharded_churn``'s shape: the prefill job fills its hash cell,
        after which a quarter of all arrivals hash to a cell without a
        slot.  None of them waits a round for the balancer."""
        state = ClusterState(build_topology(512, slots_per_machine=4))
        scheduler = ShardedScheduler(QuincyPolicy, num_cells=4)
        try:
            state.submit_job(make_job(job_id=1, num_tasks=512, task_id_offset=0))
            decision = scheduler.schedule_and_apply(state, 0.0)
            assert len(decision.placements) == 512 and not decision.unscheduled
            for index in range(100):
                job_id = 2 + index
                state.submit_job(
                    make_job(job_id=job_id, num_tasks=8, task_id_offset=job_id * 1000)
                )
                decision = scheduler.schedule_and_apply(state, 0.1 * (index + 1))
                assert state.total_free_slots() > 0
                assert len(decision.placements) == 8, f"job {job_id}"
                assert not decision.unscheduled
            assert scheduler.balancer.total_migrations == 0
            assert state.num_pending_tasks == 0
            # The prefill did fill its hash cell, and a quarter of the jobs
            # hashed there.
            assert scheduler._cell_free[scheduler.partition.cell_of_job(1)] == 0
        finally:
            scheduler.close()

    def test_without_a_balancer_homing_is_pure_hashing(self):
        # Two cells of two machines x two slots: job 0's six tasks hash to
        # cell 0 and two of them stay queued there.
        state = ClusterState(
            build_topology(4, machines_per_rack=2, slots_per_machine=2)
        )
        scheduler = ShardedScheduler(QuincyPolicy, num_cells=2, balance=False)
        try:
            state.submit_job(make_job(job_id=0, num_tasks=6))
            decision = scheduler.schedule_and_apply(state, 0.0)
            assert len(decision.unscheduled) == 2
            assert set(scheduler._task_home.values()) == {0}
        finally:
            scheduler.close()

    def test_overflow_goes_to_the_cell_with_the_largest_surplus(self):
        # Three cells of two one-slot machines; cell 1 is full, cell 2 has
        # one slot taken: the next job hashed to cell 1 goes to cell 0 (the
        # largest surplus, ties to the lowest id), one task at a time.
        state = ClusterState(
            build_topology(6, machines_per_rack=2, slots_per_machine=1)
        )
        scheduler = ShardedScheduler(QuincyPolicy, num_cells=3)
        try:
            state.submit_job(make_job(job_id=1, num_tasks=2))
            state.submit_job(make_job(job_id=2, num_tasks=1))
            scheduler.schedule_and_apply(state, 0.0)
            job = make_job(job_id=4, num_tasks=3)
            state.submit_job(job)
            decision = scheduler.schedule_and_apply(state, 1.0)
            # What routing counted before it homed the job's tasks.
            assert scheduler._cell_free == [2, 0, 1]
            assert len(decision.placements) == 3
            homes = [scheduler._task_home[t.task_id] for t in job.tasks]
            assert homes == [0, 0, 2]
            assert scheduler.balancer.total_migrations == 0
        finally:
            scheduler.close()


def test_home_tables_are_bounded_by_the_live_set():
    """``serve`` never removes a finished job from ``state.tasks``; the
    scheduler's tables must not follow the history."""
    state = ClusterState(build_topology(16, machines_per_rack=4, slots_per_machine=2))
    scheduler = ShardedScheduler(QuincyPolicy, num_cells=4)
    workload = Workload(state)
    try:
        for _ in range(300):
            workload.churn()
            scheduler.schedule_and_apply(state, workload.now)
        assert len(state.tasks) == 1200
        live = {task.task_id for task in state.live_tasks()}
        assert len(live) <= 4 * (Workload.LIFE + 1)
        assert scheduler._task_home.keys() == live
        assert scheduler._job_cells.keys() == {
            state.tasks[task_id].job_id for task_id in live
        }
        bucketed = [set(cell.view._bucket) for cell in scheduler._cells]
        assert set().union(*bucketed) == live
        assert sum(map(len, bucketed)) == len(live)
    finally:
        scheduler.close()


def test_a_compaction_does_not_blind_the_next_round():
    """Two identical runs, one of which compacts its residual before a
    round: that round re-extracts what it changed, no more, and decides the
    same."""
    readings = []
    for compact_at in (None, 12):
        state = ClusterState(
            build_topology(32, machines_per_rack=8, slots_per_machine=2)
        )
        scheduler = serve_scheduler(0)
        workload = Workload(state)
        workload.submit(16)
        rounds = []
        for round_index in range(16):
            workload.churn()
            if round_index == compact_at:
                residual = scheduler.solver.last_residual
                assert residual.dead_arc_pairs > 0
                residual.compact()
                assert residual.dead_arc_pairs == 0
            decision = scheduler.schedule_and_apply(state, workload.now)
            rounds.append((
                decision.solver_result.statistics.tasks_reextracted,
                sorted(decision.placements.items()),
                decision.total_cost,
            ))
        readings.append(rounds)
        scheduler.close()
    assert readings[0] == readings[1]
    live = 16 + 4 * Workload.LIFE
    assert readings[1][12][0] < live // 3


@pytest.mark.parametrize("cells", (0, 4))
def test_serve_rounds_build_no_flow_network(cells, monkeypatch):
    """``serve``'s graph is the residual its solver repairs: with the
    :class:`FlowNetwork` constructor and ``FlowNetwork.add_arc`` patched to
    raise from before round 1, round 1 (built by the scope derivation,
    solved cold in place) and ten steady rounds -- a machine failure among
    them -- go through, monolithic and four-cell."""

    def refuse(name):
        def build(*args, **kwargs):
            raise AssertionError(f"FlowNetwork.{name} ran on a serve round")
        return build

    state = ClusterState(build_topology(64, machines_per_rack=8, slots_per_machine=2))
    scheduler = serve_scheduler(cells)
    monkeypatch.setattr(FlowNetwork, "__init__", refuse("__init__"))
    monkeypatch.setattr(FlowNetwork, "add_arc", refuse("add_arc"))
    workload = Workload(state)
    try:
        workload.submit(24)
        decision = scheduler.schedule_and_apply(state, workload.now)
        assert len(decision.placements) == 24
        placed = 0
        for round_index in range(10):
            workload.churn()
            if round_index == 5:
                victim = max(state.topology.machines, key=state.task_count_on_machine)
                state.fail_machine(victim, workload.now)
            decision = scheduler.schedule_and_apply(state, workload.now)
            assert decision.solver_result is not None
            assert not decision.unscheduled
            placed += len(decision.placements)
        assert placed >= 40
    finally:
        monkeypatch.undo()
        scheduler.close()
