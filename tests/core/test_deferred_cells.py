"""A sharded round solves only the cells that have something to place.

While any cell has a pending task, the round's cells are exactly the cells
with pending tasks; a cell holding nothing but completions and placed-task
marks is not updated, solved, shipped, extracted or diffed -- its marks
wait in its own tracker and its next round is one chained delta solve over
the union of what it missed.  A round that finds nothing pending anywhere
(a re-optimisation round) runs every cell that has work left.

Directed: the service-shaped sequence (complete here, submit elsewhere a
few times, submit here), the nothing-pending catch-up, tracker overflow
while left out, worker mode, and a voided decision.  Fuzzed: all six
policies over two and four cells against a twin scheduler *without* the
rule, both fed the same mutations and the same applied decisions, every
``verify_changes`` oracle on.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.machine import Machine
from repro.core import ShardedScheduler
from repro.core.graph_manager import GraphManager
from repro.core.policies import QuincyPolicy
from tests.conftest import make_cluster_state, make_job, reference_min_cost
from tests.core.test_incremental_graph_equivalence import POLICIES, _random_job


def two_cells(workers: bool = False, verify: bool = True, **cluster):
    """Two cells (by default of two racks x two machines x two slots each);
    even job ids hash to cell 0, odd ones to cell 1."""
    cluster = {"num_machines": 8, "machines_per_rack": 2, **cluster}
    state = make_cluster_state(**cluster)
    scheduler = ShardedScheduler(QuincyPolicy, num_cells=2, workers=workers)
    scheduler._bind(state)
    for cell in scheduler._cells:
        cell.manager.verify_changes = verify
    return state, scheduler


def submit(state, job_id: int, num_tasks: int, now: float):
    job = make_job(job_id=job_id, num_tasks=num_tasks, submit_time=now)
    state.submit_job(job)
    return job


def stats_of(decision):
    return decision.solver_result.statistics


def cluster_cost(scheduler) -> int:
    """networkx on every cell's network, the ones left out included."""
    return sum(
        reference_min_cost(cell.manager.network.copy())
        for cell in scheduler._cells
        if cell.manager.network is not None and cell.manager.task_nodes
    )


def refuse_cell(monkeypatch, cell):
    """Any part taken by ``cell`` in a round raises."""

    def refuse(name):
        def taking_part(*args, **kwargs):
            raise AssertionError(f"cell {cell.index}: {name} ran while left out")
        return taking_part

    update = GraphManager.update

    def guarded_update(manager, view, now):
        if manager is cell.manager:
            refuse("GraphManager.update")()
        return update(manager, view, now)

    monkeypatch.setattr(GraphManager, "update", guarded_update)
    monkeypatch.setattr(cell.solver, "solve", refuse("solver.solve"))
    monkeypatch.setattr(
        cell.manager, "extract_assignments", refuse("extract_assignments")
    )
    monkeypatch.setattr(cell.manager, "diff_assignments", refuse("diff_assignments"))


def test_a_cell_with_nothing_to_place_sits_out_and_returns_in_one_delta(monkeypatch):
    state, scheduler = two_cells()
    here = scheduler._cells[0]
    try:
        ours = submit(state, 0, 5, 0.0)
        submit(state, 1, 2, 0.0)
        decision = scheduler.schedule_and_apply(state, 0.0)
        assert len(decision.placements) == 7 and stats_of(decision).cells_solved == 2

        # Cell 0 now holds the marks of its five placements and one
        # completion; three jobs arrive for cell 1.
        state.complete_task(ours.tasks[0].task_id, 1.0)
        network, revision = here.manager.network, here.manager.network.revision
        with monkeypatch.context() as patch:
            refuse_cell(patch, here)
            for index in range(3):
                now = 1.0 + index
                arrived = submit(state, 3 + 2 * index, 1, now)
                decision = scheduler.schedule_and_apply(state, now)
                assert decision.placements.keys() == {arrived.tasks[0].task_id}
                stats = stats_of(decision)
                assert (stats.cells_solved, stats.cells_deferred) == (1, 1)
                assert decision.total_cost == cluster_cost(scheduler)
        # Left out whole: same network object, same revision, marks waiting,
        # and the room the completion made is already counted.
        assert here.manager.network is network and network.revision == revision
        assert here.manager.incremental_updates == 0
        assert ours.tasks[0].task_id in here.manager.task_nodes
        assert len(here.view.dirty._pending.tasks) == 5
        assert scheduler._cell_free[0] == 8 - 4

        # A job for cell 0: one chained update, one delta solve, no rebuild.
        arrived = submit(state, 2, 2, 5.0)
        decision = scheduler.schedule_and_apply(state, 5.0)
        assert decision.placements.keys() == {t.task_id for t in arrived.tasks}
        stats = stats_of(decision)
        assert (stats.cells_solved, stats.cells_deferred) == (1, 1)  # cell 1 waits now
        assert stats.delta_solve == 1 and here.solver.delta_solves == 1
        assert (here.manager.full_updates, here.manager.incremental_updates) == (1, 1)
        update = here.manager.last_update_stats
        # The four placed tasks and the two arrivals, not the cell.
        assert (update.mode, update.dirty_tasks) == ("incremental", 6)
        assert ours.tasks[0].task_id not in here.manager.task_nodes
        assert decision.total_cost == cluster_cost(scheduler)
    finally:
        scheduler.close()


def test_every_cell_with_a_pending_task_takes_part():
    state, scheduler = two_cells()
    try:
        submit(state, 0, 2, 0.0)
        submit(state, 1, 2, 0.0)
        scheduler.schedule_and_apply(state, 0.0)
        first, second = submit(state, 2, 1, 1.0), submit(state, 3, 1, 1.0)
        decision = scheduler.schedule_and_apply(state, 1.0)
        assert decision.placements.keys() == {
            first.tasks[0].task_id, second.tasks[0].task_id
        }
        stats = stats_of(decision)
        assert (stats.cells_solved, stats.cells_deferred) == (2, 0)
    finally:
        scheduler.close()


def test_a_nothing_pending_round_runs_every_dirty_cell():
    state, scheduler = two_cells()
    try:
        jobs = [submit(state, 0, 3, 0.0), submit(state, 1, 3, 0.0)]
        scheduler.schedule_and_apply(state, 0.0)
        state.complete_task(jobs[0].tasks[0].task_id, 1.0)
        submit(state, 3, 1, 1.0)
        decision = scheduler.schedule_and_apply(state, 1.0)
        assert stats_of(decision).cells_deferred == 1
        state.complete_task(jobs[1].tasks[0].task_id, 2.0)

        # Nothing is pending: the caller asked for a re-optimisation round.
        assert state.num_pending_tasks == 0
        decision = scheduler.schedule(state, 2.0)
        stats = stats_of(decision)
        assert (stats.cells_solved, stats.cells_deferred) == (2, 0)
        for cell, job in zip(scheduler._cells, jobs):
            assert not cell.view.dirty._pending
            assert cell.manager.incremental_updates == cell.index + 1
            assert job.tasks[0].task_id not in cell.manager.task_nodes
        assert decision.total_cost == cluster_cost(scheduler)
        # ... and the round after it finds nothing to do anywhere.
        scheduler.schedule(state, 2.0)
        for cell in scheduler._cells:
            update = cell.manager.last_update_stats
            assert (update.tasks_examined, update.arcs_patched) == (0, 0)
    finally:
        scheduler.close()


def test_a_cell_whose_tracker_overflowed_returns_through_an_all_dirty_round():
    state, scheduler = two_cells()
    here = scheduler._cells[0]
    here.view.dirty.MAX_PENDING = 4  # this cell's tracker only
    try:
        ours = submit(state, 0, 6, 0.0)
        submit(state, 1, 1, 0.0)
        scheduler.schedule_and_apply(state, 0.0)
        state.complete_task(ours.tasks[0].task_id, 1.0)
        submit(state, 3, 1, 1.0)
        decision = scheduler.schedule_and_apply(state, 1.0)
        assert stats_of(decision).cells_deferred == 1
        assert here.view.dirty._pending.full  # six task marks: overflowed

        submit(state, 2, 1, 2.0)
        decision = scheduler.schedule_and_apply(state, 2.0)
        assert len(decision.placements) == 1
        update = here.manager.last_update_stats
        # The same path, every scope dirty; still one network.
        assert (update.mode, update.dirty_tasks) == ("incremental", 6)
        assert here.manager.full_updates == 1
        assert decision.total_cost == cluster_cost(scheduler)
    finally:
        scheduler.close()


def test_a_cell_left_out_ships_nothing_and_returns_on_a_delta_ship():
    state, scheduler = two_cells(workers=True, verify=False)
    try:
        ours = submit(state, 0, 3, 0.0)
        submit(state, 1, 1, 0.0)
        decision = scheduler.schedule_and_apply(state, 0.0)
        assert stats_of(decision).snapshot_ships == 2
        state.complete_task(ours.tasks[0].task_id, 1.0)
        for index in range(2):
            submit(state, 3 + 2 * index, 1, 1.0 + index)
            decision = scheduler.schedule_and_apply(state, 1.0 + index)
            stats = stats_of(decision)
            assert (stats.cells_solved, stats.cells_deferred) == (1, 1)
            assert (stats.snapshot_ships, stats.delta_ships) == (0, 1)
        here, there = scheduler.cell_transport()
        assert (here["snapshot_ships"], here["delta_ships"]) == (1, 0)
        assert (there["snapshot_ships"], there["delta_ships"]) == (1, 2)

        submit(state, 2, 1, 3.0)
        decision = scheduler.schedule_and_apply(state, 3.0)
        assert len(decision.placements) == 1
        here, there = scheduler.cell_transport()
        assert (here["snapshot_ships"], here["delta_ships"]) == (1, 1)
        assert (there["snapshot_ships"], there["delta_ships"]) == (1, 2)
        assert here["fallback_rounds"] == there["fallback_rounds"] == 0
    finally:
        scheduler.close()


def actions(decision):
    return (
        sorted(decision.placements.items()),
        sorted(decision.migrations.items()),
        sorted(decision.preemptions),
        sorted(decision.unscheduled),
    )


def test_a_voided_decision_is_emitted_again_when_its_cell_next_takes_part():
    """Cell 0 = two one-slot machines.  A batch task runs on machine 0 with
    its input on machine 1; a service task arrives whose input is all on
    machine 0, so the optimum moves the batch task over a direct arc and
    only the diff's own memory names it once that decision is dropped."""
    state, scheduler = two_cells(num_machines=4, slots_per_machine=1)
    try:
        batch = make_job(job_id=2, num_tasks=1, input_size_gb=8.0, input_locality={1: 0.9})
        state.submit_job(batch)
        batch_id = batch.tasks[0].task_id
        state.place_task(batch_id, 0, 0.0)
        scheduler.schedule(state, 0.0)
        service = make_job(
            job_id=4, num_tasks=1, submit_time=1.0, input_size_gb=8.0,
            input_locality={0: 1.0},
        )
        service.tasks[0].priority = 10
        state.submit_job(service)
        service_id = service.tasks[0].task_id
        voided = scheduler.schedule(state, 1.0)
        assert voided.migrations == {batch_id: 1}
        assert voided.placements == {service_id: 0}

        # Its cell still has a task to place, so it takes part in the next
        # round whoever else does, and decides the same again.
        neighbour = submit(state, 1, 1, 1.5).tasks[0].task_id
        decision = scheduler.schedule(state, 1.5)
        assert stats_of(decision).cells_solved == 2
        assert decision.migrations == voided.migrations
        assert decision.placements == {service_id: 0, neighbour: decision.placements[neighbour]}
        state.place_task(neighbour, decision.placements[neighbour], 1.5)

        # The driver drops that one as well and starts the service task
        # where there is room: cell 0 has nothing to place any more, so a
        # neighbour's round no longer decides for it ...
        state.place_task(service_id, 1, 1.5)
        neighbour = submit(state, 3, 1, 2.0).tasks[0].task_id
        decision = scheduler.schedule_and_apply(state, 2.0)
        assert actions(decision) == ([(neighbour, decision.placements[neighbour])], [], [], [])
        assert stats_of(decision).cells_deferred == 1
        # ... and when it comes back (restricted diff ≡ full diff inside)
        # nothing of the dropped decision is left to emit.
        decision = scheduler.schedule(state, 2.5)
        assert stats_of(decision).cells_solved == 2
        assert actions(decision) == ([], [], [], [])
        assert decision.total_cost == cluster_cost(scheduler)
    finally:
        scheduler.close()


class EveryCellScheduler(ShardedScheduler):
    """The rule removed: every cell that has, or had, tasks takes part."""

    def _round_cells(self, state):
        super()._round_cells(state)
        return [
            cell for cell in self._cells
            if cell.view.num_schedulable_tasks or cell.manager.task_nodes
        ]


class Churn:
    """Submit / complete / fail or recover / add a machine, applied to two
    cluster states in lockstep."""

    def __init__(self, rng: random.Random, states) -> None:
        self.rng = rng
        self.states = states
        self.next_job = 1
        self.next_machine = 100
        self.submitted = 0

    def submit(self, now: float) -> None:
        seed = self.rng.random()
        for state in self.states:
            job = _random_job(random.Random(seed), self.next_job, 8, now)
            state.submit_job(job)
        self.submitted += len(job.tasks)
        self.next_job += 1

    def step(self, now: float) -> None:
        rng, first = self.rng, self.states[0]
        operation = rng.random()
        if operation < 0.30:
            self.submit(now)
        elif operation < 0.80:
            running = sorted(task.task_id for task in first.running_tasks())
            for task_id in rng.sample(running, min(len(running), rng.randint(1, 3))):
                for state in self.states:
                    state.complete_task(task_id, now)
        elif operation < 0.92:
            machine_id = rng.choice(sorted(first.topology.machines))
            available = first.topology.machine(machine_id).is_available
            healthy = len(first.topology.healthy_machines())
            for state in self.states:
                if not available:
                    state.recover_machine(machine_id, now)
                elif healthy > 2:
                    state.fail_machine(machine_id, now)
        else:
            rack_id = rng.randrange(6)
            for state in self.states:
                state.add_machine(
                    Machine(machine_id=self.next_machine, rack_id=rack_id, num_slots=2)
                )
            self.next_machine += 1


def record_round_cells(scheduler) -> list:
    """Per round: the cells that took part and the cells that had a pending
    task when they were chosen (the balancer re-homes tasks afterwards)."""
    rounds = []
    round_cells = scheduler._round_cells

    def recorded(state):
        cells = round_cells(state)
        rounds.append((
            [cell.index for cell in cells],
            [c.index for c in scheduler._cells if c.view.pending_task_ids()],
        ))
        return cells

    scheduler._round_cells = recorded
    return rounds


def apply_to(state, decision, now: float) -> None:
    # Vacate first, then place: fuzzed costs produce cycles of migrations.
    for task_id in (*decision.preemptions, *decision.migrations):
        state.preempt_task(task_id, now)
    for task_id, machine_id in (
        *decision.migrations.items(), *decision.placements.items()
    ):
        state.place_task(task_id, machine_id, now)


def check_conservation(state, scheduler, submitted: int) -> None:
    tasks = state.tasks.values()
    pending = sum(task.is_pending for task in tasks)
    running = sum(task.is_running for task in tasks)
    finished = sum(task.is_finished for task in tasks)
    assert pending + running + finished == len(state.tasks) == submitted
    assert pending == state.num_pending_tasks
    for machine_id, machine in state.topology.machines.items():
        assert state.task_count_on_machine(machine_id) <= machine.num_slots
    # Every live task sits in exactly one cell, pending or not as it is.
    buckets = [cell.view._bucket for cell in scheduler._cells]
    assert sum(map(len, buckets)) == pending + running
    for cell in scheduler._cells:
        assert cell.view.pending_task_ids() <= cell.view._bucket.keys()


@pytest.mark.parametrize("cells", (2, 4))
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_fuzzed_rounds_place_what_the_full_fan_out_would(name, cells):
    rng = random.Random(f"{name}/{cells}")
    states = [make_cluster_state(num_machines=8, machines_per_rack=2) for _ in range(2)]
    schedulers = []
    for kind, state in zip((ShardedScheduler, EveryCellScheduler), states):
        scheduler = kind(POLICIES[name], num_cells=cells)
        scheduler._bind(state)
        for cell in scheduler._cells:
            cell.manager.verify_changes = True
        schedulers.append(scheduler)
    ours, twin = schedulers
    churn = Churn(rng, states)
    rounds = record_round_cells(ours)
    deferred = 0
    try:
        for round_index in range(40):
            now = 1.5 * round_index
            for _ in range(rng.randint(1, 3)):
                churn.step(now)
            decision = ours.schedule(states[0], now)
            reference = twin.schedule(states[1], now)
            stats = stats_of(decision)
            took_part, placing = rounds[-1]
            if placing:
                assert took_part == placing
                assert stats.cells_solved == len(placing)
            deferred += stats.cells_deferred
            # Every cell solved this round is optimal on its own network
            # (which the oracle inside just compared with a rebuild), and
            # the round reports the whole cluster's cost.
            for index in took_part:
                manager = ours._cells[index].manager
                assert ours._cell_cost[index] == (
                    reference_min_cost(manager.network.copy())
                    if manager.task_nodes else 0
                )
            assert decision.total_cost == cluster_cost(ours)
            # As many pending tasks are placed, and as many left waiting,
            # as the full fan-out places in this round (which of two equally
            # priced tasks gets the last slot is the solver's tie to break).
            assert len(decision.placements) == len(reference.placements)
            assert len(decision.unscheduled) == len(reference.unscheduled)
            for state in states:  # the twin's own decision is dropped
                apply_to(state, decision, now)
            check_conservation(states[0], ours, churn.submitted)
        assert deferred > 0

        # Whatever is still queued is withdrawn, then a nothing-pending
        # round: every cell catches up and equals a from-scratch build.
        now += 1.5
        state = states[0]
        for job in [j for j in state.jobs.values() if any(t.is_pending for t in j.tasks)]:
            for task in job.tasks:
                if task.is_running:
                    state.complete_task(task.task_id, now)
            state.remove_job(job.job_id)
        assert state.num_pending_tasks == 0
        decision = ours.schedule(state, now)
        assert stats_of(decision).cells_deferred == 0
        for cell in ours._cells:
            manager, view = cell.manager, cell.view
            assert not view.dirty._pending or not manager.task_nodes
            if manager.network is not None:
                rebuilt = manager._build_full_network(
                    view, now, view.schedulable_tasks()
                )
                assert manager.network.copy().structurally_equal(rebuilt) == []
            assert manager.full_updates <= 1
        assert decision.total_cost == cluster_cost(ours)
    finally:
        for scheduler in schedulers:
            scheduler.close()
