"""What a steady graph update costs per change, in Python calls.

A round's graph update does little work per change (a residual arc add is
a few microseconds), so its cost is the number of layers each change
passes through.  This gate replays a ``burst_large``-shaped stream through
the scheduler ``serve`` builds -- 128 machines x 4 slots, a 256-task
never-ending prefill, then 16-task jobs of 0.5 s arriving at 9 jobs/s --
and counts the Python calls (``sys.setprofile`` ``call`` events) inside
:meth:`GraphManager.update` per arc or node the round changed
(``arcs_patched + nodes_touched``).  An update that routes each change
through a recorder beside the residual, or re-prices a bunched task group
one task at a time, reads about 15.6.
"""

from __future__ import annotations

import random
import sys
from typing import Tuple

from repro.cli import build_parser, serve_command
from repro.cluster.state import ClusterState
from repro.cluster.task import Job, JobType, Task
from repro.cluster.topology import build_topology

MACHINES = 128
PREFILL = 256
JOB_TASKS = 16
JOB_SECONDS = 0.5
JOBS_PER_SECOND = 9.0
ROUNDS = 150
#: Python calls per changed arc or node the update may make.
MAX_CALLS_PER_CHANGE = 10.0


def graph_calls_per_change(rounds: int = ROUNDS, seed: int = 1) -> Tuple[float, int]:
    """``(calls per changed arc or node, changes)`` of ``rounds`` steady
    rounds after the prefill's round, one job arriving per round."""
    state = ClusterState(build_topology(MACHINES, slots_per_machine=4))
    scheduler = serve_command._build_scheduler(
        build_parser(["serve"]).parse_args(["serve"])
    )
    manager = scheduler.graph_manager
    next_task = 0

    def submit(job_id: int, tasks: int, now: float, duration, job_type) -> None:
        nonlocal next_task
        job = Job(job_id=job_id, job_type=job_type, submit_time=now)
        for task_id in range(next_task, next_task + tasks):
            job.add_task(
                Task(task_id=task_id, job_id=job_id, duration=duration, submit_time=now)
            )
        next_task += tasks
        state.submit_job(job)

    submit(0, PREFILL, 0.0, None, JobType.SERVICE)
    scheduler.schedule_and_apply(state, 0.0)

    calls = 0

    def count(frame, event, arg) -> None:
        nonlocal calls
        if event == "call":
            calls += 1

    update = manager.update

    def counted_update(*args):
        sys.setprofile(count)
        try:
            return update(*args)
        finally:
            sys.setprofile(None)

    manager.update = counted_update
    rng = random.Random(seed)
    now = 0.0
    changes = 0
    try:
        for job_id in range(1, rounds + 1):
            now += rng.expovariate(JOBS_PER_SECOND)
            submit(job_id, JOB_TASKS, now, JOB_SECONDS, JobType.BATCH)
            for task in state.running_tasks():
                if task.duration is not None and task.start_time + task.duration <= now:
                    state.complete_task(task.task_id, now)
            scheduler.schedule_and_apply(state, now)
            stats = manager.last_update_stats
            assert stats.mode == "incremental"
            changes += stats.arcs_patched + stats.nodes_touched
    finally:
        del manager.update
        scheduler.close()
    return calls / changes, changes


def test_a_graph_update_costs_its_changes_not_its_layers():
    per_change, changes = graph_calls_per_change()
    assert changes > 100 * ROUNDS
    assert per_change <= MAX_CALLS_PER_CHANGE, (
        f"{per_change:.2f} Python calls per changed arc or node "
        f"(allowed {MAX_CALLS_PER_CHANGE})"
    )


class TestNullUpdate:
    """An update with nothing marked, no waiting-cost tick due and the
    pricing unchanged drains the tracker and returns: it derives nothing,
    so it builds no round builder, no dirty view and no stats record, and
    sorts nothing."""

    def steady(self):
        """The ``burst_large``-shaped scheduler after a few rounds, its
        graph brought up to date with what the last round applied."""
        state = ClusterState(build_topology(MACHINES, slots_per_machine=4))
        scheduler = serve_command._build_scheduler(
            build_parser(["serve"]).parse_args(["serve"])
        )
        next_task = 0
        for job_id in range(4):
            job = Job(job_id=job_id, job_type=JobType.BATCH, submit_time=0.1 * job_id)
            for task_id in range(next_task, next_task + JOB_TASKS):
                job.add_task(
                    Task(task_id=task_id, job_id=job_id, duration=JOB_SECONDS,
                         submit_time=0.1 * job_id)
                )
            next_task += JOB_TASKS
            state.submit_job(job)
            scheduler.schedule_and_apply(state, 0.1 * job_id)
        scheduler.prepare(state, 0.3)
        return state, scheduler

    def count_builders(self, monkeypatch):
        from repro.core import graph_manager

        built = []

        class Counted(graph_manager._IncrementalBuilder):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(graph_manager, "_IncrementalBuilder", Counted)
        return built

    def test_a_null_update_builds_no_builder_view_or_record(self, monkeypatch):
        from repro.core import graph_manager

        state, scheduler = self.steady()
        manager = scheduler.graph_manager
        revision = manager.network.revision

        def forbidden(*args, **kwargs):
            raise AssertionError("a null update derived something")

        for name in ("_IncrementalBuilder", "DirtyView", "GraphUpdateStats", "sorted"):
            monkeypatch.setattr(graph_manager, name, forbidden, raising=False)
        try:
            for _ in range(3):
                manager.update(state, 0.3)
        finally:
            monkeypatch.undo()
            scheduler.close()
        stats = manager.last_update_stats
        assert (stats.mode, stats.tasks_examined, stats.arcs_patched) == (
            "incremental", 0, 0
        )
        assert (stats.nodes_touched, stats.dirty_tasks, stats.dirty_machines) == (0, 0, 0)
        assert manager.network.revision == revision + 3
        assert manager.incremental_updates >= 3 and manager.full_updates == 1

    def test_a_mark_a_due_tick_or_time_running_back_is_an_update(self, monkeypatch):
        state, scheduler = self.steady()
        manager = scheduler.graph_manager
        built = self.count_builders(monkeypatch)
        try:
            due = manager._tick_calendar[0][0]
            later = (0.3 + due) / 2
            manager.update(state, later)  # null: the calendar's clock moves
            assert built == []
            # Back before that clock: every task is re-priced.
            manager.update(state, 0.3)
            assert built == [1] and manager.last_update_stats.tasks_examined > 0
            task = state.running_tasks()[0]
            state.complete_task(task.task_id, 0.3)
            manager.update(state, 0.3)
            assert built == [1, 1] and manager.last_update_stats.nodes_touched >= 1
            due = manager._tick_calendar[0][0]
            manager.update(state, due)
            assert built == [1, 1, 1]
            assert manager.last_update_stats.tasks_examined > 0
        finally:
            scheduler.close()
