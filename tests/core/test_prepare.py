"""``FlowScheduler.prepare``: a round's effects reach the graph at its release.

``serve`` calls ``scheduler.prepare(state, now)`` after each release: the
graphs the round solved run the ordinary update on what the round applied
(and on completions since), so the next arrival's round updates only what
arrived.  The graph that round solves is the one it solves without the
call, and so is its decision:

* a twin test -- seeded streams of 4- and 16-task Quincy jobs through the
  scheduler ``serve`` builds, monolithic and four inline cells, one twin
  prepared after every round and every completion-only step, the other
  never -- must read the same placements, migrations, preemptions and
  total cost in every round, every prepared monolith round after the first
  a delta solve;
* after a prepare, an arrival round re-derives exactly the marked tasks
  that are still schedulable (its arrivals), where the unprepared round
  also re-derives what the previous round placed;
* a steady in-place round builds no ``ChangeBatch`` and no ``GraphChange``:
  the solver chains on the graph, and the record nobody read is dropped.
"""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.cli import build_parser, serve_command
from repro.cluster.state import ClusterState
from repro.cluster.task import Job, JobType, Task
from repro.cluster.topology import build_topology
from repro.flow import changes as changes_module
from repro.flow.changes import ChangeBatch, GraphChange

MACHINES = 32
MACHINES_PER_RACK = 4
PREFILL = 64
TASKS_PER_SECOND = 120.0
JOB_SECONDS = 0.5


def serve_scheduler(cells: int):
    """The scheduler ``serve`` builds (Quincy, incremental cost scaling)."""
    argv = ["serve"] + (["--cells", str(cells)] if cells else [])
    return serve_command._build_scheduler(build_parser(["serve"]).parse_args(argv))


def cell_managers(scheduler) -> List:
    if hasattr(scheduler, "graph_manager"):
        return [scheduler.graph_manager]
    return [cell.manager for cell in scheduler._cells]


class Stream:
    """A seeded ``serve``-shaped stream on one cluster state: a never-ending
    prefill, then jobs of ``job_tasks`` 0.5 s tasks whose arrivals and
    completions are the steps."""

    def __init__(self, job_tasks: int, seed: int) -> None:
        self.state = ClusterState(
            build_topology(
                MACHINES, slots_per_machine=4, machines_per_rack=MACHINES_PER_RACK
            )
        )
        self.job_tasks = job_tasks
        self.rng = random.Random(seed)
        self.next_task = 0
        self.next_job = 0
        self.next_arrival = 0.0
        self.submit(PREFILL, 0.0, None, JobType.SERVICE)

    def submit(self, tasks: int, now: float, duration, job_type) -> None:
        job = Job(job_id=self.next_job, job_type=job_type, submit_time=now)
        for task_id in range(self.next_task, self.next_task + tasks):
            job.add_task(
                Task(task_id=task_id, job_id=job.job_id, duration=duration, submit_time=now)
            )
        self.next_task += tasks
        self.next_job += 1
        self.state.submit_job(job)

    def step(self) -> float:
        """Advance to the next arrival or completion and apply it; returns
        the time."""
        ends = [
            task.start_time + task.duration
            for task in self.state.running_tasks()
            if task.duration is not None
        ]
        next_end = min(ends, default=float("inf"))
        if next_end < self.next_arrival:
            now = next_end
            for task in self.state.running_tasks():
                if task.duration is not None and task.start_time + task.duration <= now:
                    self.state.complete_task(task.task_id, now)
        else:
            now = self.next_arrival
            self.submit(self.job_tasks, now, JOB_SECONDS, JobType.BATCH)
            self.next_arrival += self.rng.expovariate(TASKS_PER_SECOND / self.job_tasks)
        return now


def decision_record(decision):
    return (
        list(decision.placements.items()),
        list(decision.migrations.items()),
        list(decision.preemptions),
        decision.total_cost,
    )


@pytest.mark.parametrize("cells", [0, 4], ids=["monolith", "4-cells"])
@pytest.mark.parametrize("job_tasks", [4, 16])
def test_prepared_rounds_decide_what_unprepared_rounds_decide(job_tasks, cells):
    twins = [serve_scheduler(cells), serve_scheduler(cells)]
    streams = [Stream(job_tasks, seed=job_tasks), Stream(job_tasks, seed=job_tasks)]
    prepared = twins[0]
    rounds = prepares = 0
    try:
        for scheduler, stream in zip(twins, streams):
            scheduler.schedule_and_apply(stream.state, 0.0)
        prepared.prepare(streams[0].state, 1e-4)
        for step in range(600):
            times = {stream.step() for stream in streams}
            assert len(times) == 1
            now = times.pop()
            records = []
            for scheduler, stream in zip(twins, streams):
                if stream.state.num_pending_tasks:
                    decision = scheduler.schedule_and_apply(stream.state, now)
                    records.append(decision_record(decision))
                    if scheduler is prepared and not cells:
                        stats = decision.solver_result.statistics
                        assert stats.delta_solve == 1, f"step {step}"
            assert len(records) in (0, 2)
            if records:
                rounds += 1
                assert records[0] == records[1], f"step {step}"
            # As ``serve`` does after a release: a moment later.
            prepared.prepare(streams[0].state, now + 1e-4)
            prepares += 1
        assert streams[0].state == streams[1].state
    finally:
        for scheduler in twins:
            scheduler.close()
    assert rounds >= 400 and prepares == 600


@pytest.mark.parametrize("cells", [0, 4], ids=["monolith", "4-cells"])
def test_prepared_twin_passes_the_graph_oracles(cells):
    """The graph a prepared round solves is a from-scratch build's, and the
    maintained assignments and restricted diffs are the full passes'."""
    scheduler = serve_scheduler(cells)
    stream = Stream(16, seed=3)
    try:
        scheduler.schedule_and_apply(stream.state, 0.0)
        for manager in cell_managers(scheduler):
            manager.verify_changes = True
        for _ in range(120):
            now = stream.step()
            if stream.state.num_pending_tasks:
                scheduler.schedule_and_apply(stream.state, now)
            scheduler.prepare(stream.state, now + 1e-4)
    finally:
        scheduler.close()


def test_after_prepare_an_arrival_round_rederives_only_what_was_marked():
    """A round's update re-derives the marked tasks still schedulable.  After
    a prepare those are the pending ones -- what arrived (the placements of
    the round before were derived by the prepare); without one, the tasks
    that round placed are re-derived too."""
    counts = {}
    for prepared in (True, False):
        scheduler = serve_scheduler(0)
        stream = Stream(16, seed=5)
        manager = scheduler.graph_manager
        rederived, marked, pending = [], [], []
        try:
            scheduler.schedule_and_apply(stream.state, 0.0)
            if prepared:
                scheduler.prepare(stream.state, 1e-4)
            for _ in range(200):
                now = stream.step()
                state = stream.state
                if state.num_pending_tasks:
                    live = [
                        task_id for task_id in state.dirty._pending.tasks
                        if state.schedulable_task(task_id) is not None
                    ]
                    marked.append(len(live))
                    pending.append(
                        sum(1 for task_id in live if not state.tasks[task_id].is_running)
                    )
                    scheduler.schedule_and_apply(state, now)
                    assert manager.last_update_stats.mode == "incremental"
                    rederived.append(manager.last_update_stats.dirty_tasks)
                if prepared:
                    scheduler.prepare(state, now + 1e-4)
        finally:
            scheduler.close()
        counts[prepared] = (rederived, marked, pending)
    rederived, marked, pending = counts[True]
    assert len(rederived) >= 50
    assert rederived == marked == pending
    rederived, marked, pending = counts[False]
    assert rederived == marked
    assert sum(rederived) > sum(pending) + 16 * len(rederived) // 2


def test_a_sharded_prepare_updates_the_cells_that_took_part():
    """The cells the round solved consume every mark made since (the round's
    apply, completions); a cell the round left out is not updated, its
    marks wait for the round it takes part in (the deferral rule)."""
    scheduler = serve_scheduler(4)
    stream = Stream(4, seed=13)
    deferred_with_marks = 0
    try:
        scheduler.schedule_and_apply(stream.state, 0.0)
        for _ in range(200):
            now = stream.step()
            if stream.state.num_pending_tasks:
                scheduler.schedule_and_apply(stream.state, now)
            took_part = {cell.index for cell in scheduler._took_part}
            revisions = [
                cell.manager.network and cell.manager.network.revision
                for cell in scheduler._cells
            ]
            scheduler.prepare(stream.state, now + 1e-4)
            assert not stream.state.dirty._pending.tasks
            for cell, revision in zip(scheduler._cells, revisions):
                marks = cell.view.dirty._pending
                if cell.index in took_part:
                    assert not (marks.tasks or marks.jobs or marks.machines_load)
                else:
                    network = cell.manager.network
                    assert (network and network.revision) == revision
                    deferred_with_marks += bool(marks.tasks)
    finally:
        scheduler.close()
    assert deferred_with_marks >= 10


@pytest.mark.parametrize("cells", [0, 4], ids=["monolith", "4-cells"])
def test_steady_in_place_rounds_build_no_change_batch(monkeypatch, cells):
    scheduler = serve_scheduler(cells)
    stream = Stream(16, seed=7)
    built = []
    try:
        scheduler.schedule_and_apply(stream.state, 0.0)
        for _ in range(10):
            now = stream.step()
            if stream.state.num_pending_tasks:
                scheduler.schedule_and_apply(stream.state, now)
            scheduler.prepare(stream.state, now + 1e-4)

        def record(self, *args, **kwargs):
            built.append(type(self).__name__)
            raise AssertionError("a steady in-place round built a change record")

        monkeypatch.setattr(ChangeBatch, "__init__", record)
        for name in dir(changes_module):
            kind = getattr(changes_module, name)
            if isinstance(kind, type) and issubclass(kind, GraphChange):
                monkeypatch.setattr(kind, "__init__", record)
        rounds = 0
        for _ in range(60):
            now = stream.step()
            if stream.state.num_pending_tasks:
                decision = scheduler.schedule_and_apply(stream.state, now)
                assert decision.solver_result.statistics.delta_solve >= 1
                rounds += 1
            scheduler.prepare(stream.state, now + 1e-4)
        assert rounds >= 20
        monkeypatch.undo()
        assert built == []
        for manager in cell_managers(scheduler):
            # What nobody read was dropped at the first update after a
            # solve: at most the prepare's record waits beside the round's.
            assert len(manager._earlier_journals) <= 1
        # The record is still there for a reader: the last update's batch.
        for manager in cell_managers(scheduler):
            if manager.network is not None:
                assert manager.last_changes is not None
    finally:
        monkeypatch.undo()
        scheduler.close()


@pytest.mark.parametrize("policy", ["quincy", "load_spreading"])
def test_a_batch_read_after_several_updates_replays_them_all(policy):
    """Several updates whose record nobody read (a prepare, then the
    round's own) make one batch: from the graph at the last read to the
    latest, replayed onto a copy of the former it gives the latter.  A
    solve in between drops what nobody read, and the next batch starts
    where that update began."""
    from repro.core.graph_manager import GraphManager
    from repro.core.policies import LoadSpreadingPolicy, QuincyPolicy
    from repro.solvers.incremental import IncrementalCostScalingSolver
    from tests.conftest import make_cluster_state, make_job

    rng = random.Random(41)
    state = make_cluster_state(num_machines=8, machines_per_rack=4)
    manager = GraphManager({"quincy": QuincyPolicy, "load_spreading": LoadSpreadingPolicy}[policy]())
    solver = IncrementalCostScalingSolver()
    copies = {}
    reads = merged = 0
    for update in range(60):
        now = update * 3.0
        running = state.running_tasks()
        for task in rng.sample(running, min(len(running), rng.randint(0, 2))):
            state.complete_task(task.task_id, now)
        if rng.random() < 0.6:
            state.submit_job(make_job(job_id=update + 1, num_tasks=rng.randint(1, 4), submit_time=now))
        for task in state.pending_tasks()[: rng.randint(0, 3)]:
            free = state.machines_with_free_slots()
            if free:
                state.place_task(task.task_id, free[0].machine_id, now)
        graph = manager.update(state, now)
        copies[graph.revision] = graph.copy()
        roll = rng.random()
        if roll < 0.3 and manager.task_nodes:
            solver.solve(graph)
        elif roll < 0.6:
            batch = manager.last_changes
            if batch is None:
                continue
            reads += 1
            merged += batch.target_revision - batch.base_revision > 1
            replayed = copies[batch.base_revision].copy()
            batch.apply_to(replayed)
            assert replayed.structurally_equal(graph.copy()) == [], f"update {update}"
            assert manager.last_changes is batch
    assert reads >= 10 and merged >= 5


def test_worker_cells_follow_prepared_graphs_by_delta_ships():
    """A worker cell's shadow follows its graph by the batches shipped each
    round; after a prepare the ship carries the prepare's updates with the
    round's, so every ship after the first is a delta and no round falls
    back to the parent, and the cells place what inline cells place."""
    from repro.core import ShardedScheduler
    from repro.core.policies import QuincyPolicy

    running = []
    for workers in (True, False):
        scheduler = ShardedScheduler(QuincyPolicy, num_cells=2, workers=workers)
        stream = Stream(4, seed=11)
        try:
            scheduler.schedule_and_apply(stream.state, 0.0)
            for _ in range(40):
                now = stream.step()
                if stream.state.num_pending_tasks:
                    scheduler.schedule_and_apply(stream.state, now)
                if workers:
                    scheduler.prepare(stream.state, now + 1e-4)
            transport = scheduler.cell_transport()
        finally:
            scheduler.close()
        if workers:
            assert [cell["snapshot_ships"] for cell in transport] == [1, 1]
            assert sum(cell["delta_ships"] for cell in transport) >= 20
            assert [cell["fallback_rounds"] for cell in transport] == [0, 0]
        running.append(len(stream.state.running_tasks()))
    assert running[0] == running[1]
