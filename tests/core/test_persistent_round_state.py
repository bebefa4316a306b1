"""The state a steady round keeps instead of recomputing, against its oracles.

A steady round no longer scans the live tasks, the machines or the arcs:
the graph manager's entity sets and waiting-cost tick calendar, the cells'
task buckets and home tables, the restricted action diff and the residual's
running total cost are persistent state moved by what changed.  Each of
the passes they replaced survives as an oracle that ``verify_changes=True``
runs beside it every round:

* entity sets ≡ a scan of the state, network ≡ a from-scratch build (so
  every arc cost the calendar left alone is the cost a refresh of every
  task would have written), emitted batch ≡ diff;
* cell buckets, home / job tables and free-slot counters ≡ the full
  ``_bucket_tasks`` pass;
* restricted diff ≡ the diff over every task;
* the round's cost ≡ networkx on the same networks.

The fuzz drives both schedulers (the monolith ``serve`` builds, and four
inline cells) with all six policies through seeded churn.  Seed luck does
not reach the edges this state can get wrong, so one scripted scenario per
policy and scheduler *directs* a run at them (G-Fuzz): ``now`` standing
still, moving backwards, jumping several ticks, a task crossing a tick
exactly at ``now``, a pricing-version flip, tracker overflow and a foreign
``drain()`` mid-run, preempt then re-place, a machine leaving and another
joining, a balancer re-home, a decision that is never applied, and a job
that completes before its cell is used again.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.cluster.machine import Machine
from repro.core import FirmamentScheduler, ShardedScheduler
from repro.core.graph_manager import GraphConsistencyError, _next_tick
from repro.core.policies import QuincyPolicy
from repro.flow.changes import ChangeBatchBuilder
from repro.solvers import IncrementalCostScalingSolver
from tests.conftest import make_cluster_state, make_job, reference_min_cost
from tests.core.test_incremental_graph_equivalence import (
    POLICIES,
    _mutate_cluster,
    _random_job,
)

CELLS = (0, 4)  #: 0: the monolithic scheduler


def verified_scheduler(policy_factory, state, cells: int):
    """The scheduler ``serve`` would build, every oracle switched on."""
    if cells:
        scheduler = ShardedScheduler(policy_factory, num_cells=cells)
        scheduler._bind(state)
        managers = [cell.manager for cell in scheduler._cells]
    else:
        scheduler = FirmamentScheduler(
            policy_factory(), solver=IncrementalCostScalingSolver()
        )
        managers = [scheduler.graph_manager]
    for manager in managers:
        manager.verify_changes = True
    return scheduler, managers


def checked_round(scheduler, managers, state, now, apply=True):
    """One round; the oracles run inside it, the cost one here."""
    decision = scheduler.schedule(state, now)
    solved = [m for m in managers if m.network is not None and m.task_nodes]
    if decision.solver_result is not None and not decision.degraded:
        expected = sum(reference_min_cost(m.network.copy()) for m in solved)
        assert decision.total_cost == expected, f"t={now}"
    if apply:
        # ``scheduler.apply`` moves one task at a time and so cannot apply
        # a cycle of migrations, which fuzzed costs do produce: vacate
        # first, then place.
        for task_id in (*decision.preemptions, *decision.migrations):
            state.preempt_task(task_id, now)
        for task_id, machine_id in (
            *decision.migrations.items(), *decision.placements.items()
        ):
            state.place_task(task_id, machine_id, now)
    return decision


def actions(decision):
    return (
        list(decision.placements.items()),
        list(decision.migrations.items()),
        decision.preemptions,
        decision.unscheduled,
    )


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("cells", CELLS)
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_fuzzed_rounds_keep_every_oracle_green(name, cells, seed):
    rng = random.Random(1000 * seed + cells)
    state = make_cluster_state(num_machines=8, machines_per_rack=2)
    state.submit_job(_random_job(rng, 1, 8, 0.0))
    scheduler, managers = verified_scheduler(POLICIES[name], state, cells)
    next_job_id = 2
    try:
        for round_index in range(7):
            now = round_index * 3.0
            if round_index:
                next_job_id = _mutate_cluster(rng, state, now, next_job_id)
            # Every third decision is voided: the next round re-emits it.
            checked_round(scheduler, managers, state, now, apply=round_index % 3 != 2)
    finally:
        scheduler.close()


@pytest.mark.parametrize("cells", CELLS)
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_directed_edges_of_the_persistent_state(name, cells):
    rng = random.Random(22)
    # Four racks of two machines: with four cells, one rack each.
    state = make_cluster_state(num_machines=8, machines_per_rack=2)
    scheduler, managers = verified_scheduler(POLICIES[name], state, cells)
    policy = managers[0].policy
    next_job = iter(range(1, 1000))

    def submit(now):
        job = _random_job(rng, next(next_job), 8, now)
        state.submit_job(job)
        return job

    def round_(now, apply=True):
        return checked_round(scheduler, managers, state, now, apply)

    try:
        for _ in range(3):
            submit(0.0)
        round_(0.0)

        # ``now`` stands still and nothing changed: a null round looks at
        # no task and patches no arc.
        round_(0.0)
        round_(0.0)
        for manager in managers:
            stats = manager.last_update_stats
            assert (stats.tasks_examined, stats.arcs_patched) == (0, 0)

        # Time jumps several ticks at once, then runs backwards (costs
        # fall: the calendar cannot schedule that), then forwards again.
        submit(1.0)
        round_(37.0)
        round_(12.5)
        round_(13.0)

        # A task crosses a tick exactly at ``now``: the waiting cost moves
        # at wait == k / rate, to the float.
        job = submit(40.0)
        rate = policy.wait_time_cost_per_second
        for k in (1, 2, 3):
            round_(job.submit_time + k / rate)

        # Pricing inputs that raise no dirty event move.
        knowledge_base = getattr(policy, "knowledge_base", None)
        if knowledge_base is not None:
            knowledge_base.record_completion(job.tasks[0], 123.0)
        round_(47.0)

        # Tracker overflow, then another consumer draining it, mid-run.
        submit(48.0)
        state.dirty.mark_all()
        round_(48.0)
        state.complete_task(state.running_tasks()[0].task_id, 50.0)
        submit(50.0)
        state.dirty.drain()
        round_(50.0)
        round_(52.5)

        # Preempt, then let the scheduler place the task again.
        victim = state.running_tasks()[0]
        state.preempt_task(victim.task_id, 54.0)
        round_(54.0)
        round_(56.5)

        # A machine leaves the topology, a new one joins a new rack.
        leaving = max(state.topology.machines, key=state.task_count_on_machine)
        state.fail_machine(leaving, 58.0)
        state.topology.remove_machine(leaving)
        state.add_machine(Machine(machine_id=40, rack_id=9, num_slots=2))
        round_(58.0)
        round_(60.5)

        # A whole rack (with four cells: a whole cell) fails under running
        # tasks: they queue where nothing can run them, for the balancer to
        # re-home wherever there is room.
        busiest = max(
            state.topology.racks.values(),
            key=lambda rack: sum(map(state.task_count_on_machine, rack.machine_ids)),
        )
        for machine_id in list(busiest.machine_ids):
            state.fail_machine(machine_id, 62.0)
        round_(62.0)
        round_(64.5)
        for machine_id in list(busiest.machine_ids):
            state.recover_machine(machine_id, 66.0)
        round_(66.0)

        # A decision that is never applied is emitted again, whole.
        submit(68.0)
        if state.running_tasks():
            state.complete_task(state.running_tasks()[-1].task_id, 68.0)
        voided = round_(68.0, apply=False)
        assert actions(round_(68.0, apply=False)) == actions(voided)
        round_(70.5)

        # A job completes entirely; its id's cell is used again afterwards.
        done = next(
            job for job in state.jobs.values()
            if any(t.is_running for t in job.tasks)
            and not any(t.is_pending for t in job.tasks)
        )
        for task in done.tasks:
            if task.is_running:
                state.complete_task(task.task_id, 72.0)
        round_(72.0)
        state.submit_job(_random_job(rng, done.job_id + 4 * 50, 8, 74.0))
        round_(74.0)
        round_(76.5)

        # Every one of those was an incremental update of one network.
        for manager in managers:
            assert manager.full_updates <= 1
    finally:
        scheduler.close()


@pytest.mark.parametrize("cells", CELLS)
def test_round_one_is_cross_checked_too(cells, monkeypatch):
    """Round 1 grows the network from empty through the same scope
    derivation as every later round, so the oracle covers it: a mutant
    that drops the first arc the round adds is caught on round 1."""
    state = make_cluster_state(num_machines=8, machines_per_rack=2)
    state.submit_job(make_job(job_id=1, num_tasks=4))
    scheduler, _ = verified_scheduler(QuincyPolicy, state, cells)
    add_arc = ChangeBatchBuilder.add_arc
    dropped = []

    def drop_the_first(builder, src, dst, capacity, cost):
        if dropped:
            add_arc(builder, src, dst, capacity, cost)
        else:
            dropped.append((src, dst))

    monkeypatch.setattr(ChangeBatchBuilder, "add_arc", drop_the_first)
    try:
        with pytest.raises(GraphConsistencyError, match="from-scratch build"):
            scheduler.schedule(state, 0.0)
        assert dropped
    finally:
        scheduler.close()


def test_a_rehomed_task_leaves_its_old_cell():
    """The balancer's re-home marks the task in both cells: the old one
    must drop its node, the new one derive it."""
    # Two cells of two machines x two slots; job 0 fills cell 0.
    state = make_cluster_state(num_machines=4, machines_per_rack=2)
    scheduler, managers = verified_scheduler(QuincyPolicy, state, 2)
    try:
        state.submit_job(make_job(job_id=0, num_tasks=4))
        checked_round(scheduler, managers, state, 0.0)
        assert len(managers[0].task_nodes) == 4
        # Machine 0 fails: two tasks queue in cell 0, whose other two keep
        # running, so the cell stays on the marks (no emptiness scan).
        moved = set(state.fail_machine(0, 1.0))
        assert len(moved) == 2
        decision = checked_round(scheduler, managers, state, 1.0)
        assert decision.solver_result.statistics.cross_cell_migrations == 2
        decision = checked_round(scheduler, managers, state, 2.0)
        assert decision.placements.keys() == moved
        # Cell 0 had nothing to place in that round, so it sat it out with
        # the re-home marks waiting; the next nothing-pending round is its.
        assert decision.solver_result.statistics.cells_deferred == 1
        assert moved <= managers[0].task_nodes.keys()
        checked_round(scheduler, managers, state, 3.0)
        assert managers[0].last_update_stats.dirty_tasks == 0
        assert not moved & managers[0].task_nodes.keys()
        assert moved == managers[1].task_nodes.keys()
    finally:
        scheduler.close()


def voided_migration():
    """Two one-slot machines; a batch task runs on machine 0 with most of
    its input on machine 1, then a service task arrives whose input is all
    on machine 0: the optimum moves the batch task over a *direct* arc, so
    once that decision is dropped nothing but the diff's own memory names
    the batch task -- it is neither dirty, nor pending, nor re-extracted."""
    state = make_cluster_state(num_machines=2, machines_per_rack=2, slots_per_machine=1)
    batch_job = make_job(
        job_id=1, num_tasks=1, input_size_gb=8.0, input_locality={1: 0.9}
    )
    state.submit_job(batch_job)
    state.place_task(batch_job.tasks[0].task_id, 0, 0.0)
    scheduler, managers = verified_scheduler(QuincyPolicy, state, 0)
    checked_round(scheduler, managers, state, 0.0)
    service_job = make_job(
        job_id=2, num_tasks=1, submit_time=1.0, input_size_gb=8.0,
        input_locality={0: 1.0},
    )
    service_job.tasks[0].priority = 10
    state.submit_job(service_job)
    # (The first solo round writes every arc; the one after it is steady.)
    checked_round(scheduler, managers, state, 1.0, apply=False)
    first = checked_round(scheduler, managers, state, 1.0, apply=False)
    assert first.migrations == {batch_job.tasks[0].task_id: 1}
    assert first.placements == {service_job.tasks[0].task_id: 0}
    return state, scheduler, managers, first


def test_voided_migration_is_emitted_again():
    """The running tasks a diff moved are candidates of the next one: if
    the decision was dropped they still sit where they were."""
    state, scheduler, managers, first = voided_migration()
    second = checked_round(scheduler, managers, state, 1.0, apply=False)
    assert managers[0].flow_assignments.last_reextracted == 0
    assert actions(second) == actions(first)


def test_the_restricted_diff_oracle_notices_a_forgotten_candidate():
    """The oracle itself: drop the carried tasks and it raises."""
    state, scheduler, managers, _ = voided_migration()
    managers[0]._diff_carry.clear()
    with pytest.raises(GraphConsistencyError, match="restricted diff"):
        scheduler.schedule(state, 1.0)


def test_a_tick_falls_due_exactly_when_the_waiting_term_moves():
    """Not later (a cost change would be skipped) and not earlier (a task
    would be examined for nothing, e.g. on a null round): to the float."""
    rng = random.Random(4)
    for _ in range(20_000):
        rate = rng.choice((0.5, 0.1, 1.0, 3.0, rng.uniform(0.01, 10.0)))
        submit_time = rng.choice((0.0, rng.uniform(-1e3, 1e6)))
        now = submit_time + rng.choice((0.0, rng.uniform(-10.0, 1e4)))

        def waiting_term(time):  # the graph manager's, verbatim
            wait = time - submit_time
            return int(rate * wait) if wait > 0.0 else 0

        due = _next_tick(rate, submit_time, now)
        assert due > now
        assert waiting_term(due) > waiting_term(now)
        assert waiting_term(math.nextafter(due, -math.inf)) == waiting_term(now)
    assert _next_tick(0.0, 5.0, 7.0) == math.inf


def test_job_entries_leave_the_cell_tables_with_the_last_task():
    state = make_cluster_state(num_machines=8, machines_per_rack=2)
    scheduler, managers = verified_scheduler(QuincyPolicy, state, 4)
    try:
        state.submit_job(make_job(job_id=1, num_tasks=3))
        checked_round(scheduler, managers, state, 0.0)
        assert set(scheduler._job_cells) == {1}
        assert len(scheduler._task_home) == 3
        for task in state.running_tasks():
            state.complete_task(task.task_id, 1.0)
        state.submit_job(make_job(job_id=5, num_tasks=2))  # the same cell
        checked_round(scheduler, managers, state, 1.0)
        assert set(scheduler._job_cells) == {5}
        assert set(scheduler._task_home) == {t.task_id for t in state.jobs[5].tasks}
    finally:
        scheduler.close()
