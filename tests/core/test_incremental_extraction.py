"""Journal-driven placement extraction ≡ the full Listing-1 walk.

The scheduler keeps each cell's assignment map beside the persistent
network and re-derives, per round, only the tasks an arc whose flow changed
touches (plus those routed through aggregators); the rest keep their
machine.  Whatever produced the round's flow and whichever writer put it on
the network, the maintained map must agree with walking the whole flow:

* the same tasks are assigned, every machine receives the same number, and
  every directly routed task is on exactly the same machine (which of the
  tasks sharing an aggregator gets which of its machines is a free choice);
* it equals re-deriving *every* task with the same forward decomposition,
  exactly.

``tests/core/test_incremental_graph_equivalence.py`` fuzzes this over all
six policies with a standalone incremental solver (the journal-only flow
writer).  This file directs the scheduler at the edges: the executor's
``set_flows`` writer under alternating race winners, round 1, an all-dirty
round, machine removal under running tasks (monolithic and across cells,
where evicted tasks leave their cell's network), an aggregator-routed task
turning direct, unscheduled-then-placed, preemption, a round that is never
applied, a round without a solver result, and worker-mode cells -- and pins
that no round after a manager's first re-derives every task: not a
chain-broken one, not the one after a race.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.chaos import ChaosPolicy
from repro.core import FirmamentScheduler, ShardedScheduler
from repro.core.placement import FlowAssignments, extract_placements
from repro.core.policies import QuincyPolicy
from repro.solvers import (
    CostScalingSolver,
    DualAlgorithmExecutor,
    IncrementalCostScalingSolver,
)
from repro.solvers.base import RoundDeadlineExceeded
from tests.conftest import make_cluster_state, make_job
from tests.core.test_incremental_graph_equivalence import POLICIES, _random_job
from tests.core.test_priority_preemption import submit_task


def assert_maintained(manager, where=""):
    """The manager's maintained map against both references."""
    if not manager.task_nodes:
        return
    network, tracker = manager.network, manager.flow_assignments
    oracle = extract_placements(
        network.copy(), manager.task_nodes, manager.machine_nodes, manager.sink_node
    )
    assert tracker.differences(oracle) == [], where
    every_task = FlowAssignments().update(network, manager.task_nodes, None)
    assert tracker.assignments == every_task, where
    assert tracker.indirect <= manager.task_nodes.keys(), where


def managers(scheduler):
    if isinstance(scheduler, ShardedScheduler):
        return [cell.manager for cell in scheduler._cells]
    return [scheduler.graph_manager]


def checked_round(scheduler, state, now, apply=True, where=""):
    decision = scheduler.schedule(state, now)
    for manager in managers(scheduler):
        assert_maintained(manager, f"{where} t={now}")
    if apply:
        scheduler.apply(state, decision, now)
    return decision


def reextracted(scheduler):
    return sum(m.flow_assignments.last_reextracted for m in managers(scheduler))


def churn(rng, state, now, next_job_id):
    """Complete a few running tasks, submit a fuzzed job."""
    running = state.running_tasks()
    for task in rng.sample(running, min(len(running), rng.randint(0, 3))):
        state.complete_task(task.task_id, now)
    state.submit_job(_random_job(rng, next_job_id, state.topology.num_machines, now))


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_every_policy_through_the_scheduler(name):
    """Round 1, steady churn, a machine failing under running tasks and
    coming back, an all-dirty round -- per policy, through the executor's
    ``set_flows`` writer."""
    rng = random.Random(23)
    state = make_cluster_state(num_machines=8, machines_per_rack=4)
    scheduler = FirmamentScheduler(POLICIES[name]())
    partial = 0
    for round_index in range(14):
        now = round_index * 10.0
        churn(rng, state, now, round_index + 1)
        if round_index == 5:
            victim = max(state.topology.machines, key=state.task_count_on_machine)
            assert state.fail_machine(victim, now), "no running task was evicted"
        if round_index == 9:
            state.recover_machine(victim, now)
        if round_index == 11:
            state.dirty.mark_all()
        checked_round(scheduler, state, now, where=name)
        live = len(scheduler.graph_manager.task_nodes)
        if round_index in (0, 11):
            assert reextracted(scheduler) == live  # nothing to carry over
        else:
            partial += reextracted(scheduler) < live
    assert partial >= 6, "placements were hardly ever carried over"


#: The three schedulers a round can go through: the modeled race every
#: round, one incremental cost-scaling solver (``serve``'s monolith), cells.
SCHEDULERS = {
    "dual": lambda policy, chaos: FirmamentScheduler(
        policy(), solver=DualAlgorithmExecutor(), chaos=chaos
    ),
    "serve": lambda policy, chaos: FirmamentScheduler(
        policy(), solver=IncrementalCostScalingSolver(), chaos=chaos
    ),
    "sharded": lambda policy, chaos: ShardedScheduler(policy, num_cells=4, chaos=chaos),
}


@pytest.mark.parametrize("kind", sorted(SCHEDULERS))
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_no_round_after_the_first_rederives_every_task(name, kind):
    """Every flow write reports the arcs it moved, so every round after a
    manager's first carries its map over -- the chain-broken rounds (a
    warm rebuild from a stale flow) and the round after a raced one (the
    full write) included -- and the carried map is the full walk's."""
    rng = random.Random(31)
    state = make_cluster_state(num_machines=8, machines_per_rack=2)
    chaos = ChaosPolicy(schedule={"chain_break": [2, 4, 6]})
    scheduler = SCHEDULERS[kind](POLICIES[name], chaos)
    if isinstance(scheduler, ShardedScheduler):
        scheduler._bind(state)
    for manager in managers(scheduler):
        manager.verify_changes = True
    for round_index in range(10):
        now = round_index * 10.0
        churn(rng, state, now, round_index + 1)
        before = [manager.incremental_updates for manager in managers(scheduler)]
        checked_round(scheduler, state, now, where=f"{name}/{kind}")
        for manager, updates in zip(managers(scheduler), before):
            if manager.incremental_updates > updates:
                assert manager.flow_assignments.last_rederived is not None, (
                    f"{name}/{kind} t={now}: every task re-derived"
                )
    assert chaos.injected.get("chain_break", 0) >= 1


def test_alternating_race_winners(monkeypatch):
    """A relaxation win rewrites most of the flow (a large changed set); a
    cost-scaling win then lands on arcs carrying relaxation's flows."""
    from tests.solvers.test_dual_executor import rig_race

    rng = random.Random(5)
    state = make_cluster_state(num_machines=12, machines_per_rack=4)
    scheduler = FirmamentScheduler(QuincyPolicy())
    rig_race(monkeypatch, scheduler.solver, lambda index: index % 3 != 2)
    winners = set()
    for round_index in range(18):
        now = round_index * 10.0
        churn(rng, state, now, round_index + 1)
        checked_round(scheduler, state, now)
        winners.add(scheduler.solver.last_result.winning_algorithm)
    assert winners == {"relaxation", "incremental_cost_scaling"}


def test_routed_task_turns_direct_and_is_then_carried_over():
    state = make_cluster_state(num_machines=4, slots_per_machine=2)
    state.submit_job(make_job(job_id=1, num_tasks=3, duration=None))
    scheduler = FirmamentScheduler(
        QuincyPolicy(), solver=IncrementalCostScalingSolver()
    )
    tracker = scheduler.graph_manager.flow_assignments
    # Pending tasks reach their machines through the cluster and rack
    # aggregators ...
    checked_round(scheduler, state, 0.0)
    assert tracker.indirect == {1000, 1001, 1002}
    # ... running ones hold a direct arc to theirs: re-derived once more
    # (their unit moved onto it), then never again while nothing moves.
    checked_round(scheduler, state, 10.0)
    assert tracker.indirect == set() and tracker.last_reextracted == 3
    checked_round(scheduler, state, 20.0)
    assert tracker.last_reextracted == 0
    # A newcomer costs its own re-derivation, not the others'.
    state.submit_job(make_job(job_id=2, num_tasks=1, submit_time=30.0))
    decision = checked_round(scheduler, state, 30.0)
    assert list(decision.placements) == [2000]
    assert tracker.last_reextracted == 1


def test_unscheduled_then_placed():
    state = make_cluster_state(num_machines=1, slots_per_machine=2)
    state.submit_job(make_job(job_id=1, num_tasks=3))
    scheduler = FirmamentScheduler(QuincyPolicy())
    decision = checked_round(scheduler, state, 0.0)
    assert len(decision.placements) == 2 and len(decision.unscheduled) == 1
    (waiting,) = decision.unscheduled
    decision = checked_round(scheduler, state, 5.0)
    assert decision.unscheduled == [waiting]
    state.complete_task(next(iter(state.running_tasks())).task_id, 10.0)
    decision = checked_round(scheduler, state, 10.0)
    assert list(decision.placements) == [waiting]
    checked_round(scheduler, state, 15.0)


def test_preemption():
    state = make_cluster_state(num_machines=1, slots_per_machine=1)
    batch = submit_task(state, job_id=1, task_id=1, priority=1)
    scheduler = FirmamentScheduler(QuincyPolicy())
    checked_round(scheduler, state, 0.0)
    checked_round(scheduler, state, 0.5)
    service = submit_task(state, job_id=2, task_id=2, priority=10, submit_time=1.0)
    decision = checked_round(scheduler, state, 1.0)
    assert decision.preemptions == [batch.task_id]
    assert service.task_id in decision.placements
    checked_round(scheduler, state, 2.0)
    assert service.is_running and batch.is_pending


def test_a_round_that_is_never_applied():
    """The simulator voids a round whose decision falls outside its window:
    the map follows the flow on the network, not what was applied, so the
    same tasks are simply placed again."""
    rng = random.Random(3)
    state = make_cluster_state(num_machines=6)
    scheduler = FirmamentScheduler(QuincyPolicy())
    for round_index in range(3):
        churn(rng, state, round_index * 10.0, round_index + 1)
        checked_round(scheduler, state, round_index * 10.0)
    churn(rng, state, 30.0, 4)
    voided = checked_round(scheduler, state, 30.0, apply=False)
    assert voided.placements
    again = checked_round(scheduler, state, 31.0)
    assert again.placements.keys() == voided.placements.keys()
    checked_round(scheduler, state, 40.0)


def test_a_round_without_a_result_consumes_nothing(monkeypatch):
    """No flow is written, so nothing is extracted and the map stays as it
    was; the next round that has a flow is right again."""
    rng = random.Random(11)
    state = make_cluster_state(num_machines=6)
    scheduler = FirmamentScheduler(QuincyPolicy())
    for round_index in range(4):
        churn(rng, state, round_index * 10.0, round_index + 1)
        checked_round(scheduler, state, round_index * 10.0)
    manager = scheduler.graph_manager
    before = dict(manager.flow_assignments.assignments)
    finished = [task.task_id for task in state.running_tasks()[:2]]
    for task_id in finished:
        state.complete_task(task_id, 40.0)

    def dead(*args, **kwargs):
        raise RoundDeadlineExceeded("no leg finished")

    with monkeypatch.context() as patch:
        patch.setattr(scheduler.solver, "solve", dead)
        decision = scheduler.schedule(state, 40.0)
    assert decision.degraded_reason == "round_deadline"
    assert manager.flow_assignments.assignments == before
    scheduler.apply(state, decision, 40.0)

    churn(rng, state, 50.0, 5)
    checked_round(scheduler, state, 50.0)
    assert not set(finished) & manager.flow_assignments.assignments.keys()
    checked_round(scheduler, state, 60.0)


def test_departures_wait_for_the_next_extraction():
    """Two updates, one extraction: the tasks the first update removed are
    still dropped, although only the second one's batch is current."""
    state = make_cluster_state(num_machines=4)
    state.submit_job(make_job(job_id=1, num_tasks=4))
    scheduler = FirmamentScheduler(QuincyPolicy())
    checked_round(scheduler, state, 0.0)
    checked_round(scheduler, state, 1.0)
    manager = scheduler.graph_manager
    state.complete_task(1000, 2.0)
    manager.update(state, 2.0)  # a round that ends here, without a flow
    state.complete_task(1001, 3.0)
    network = manager.update(state, 3.0)
    network.set_flows(CostScalingSolver().solve(network.copy()).flows)
    assert manager.extract_assignments().keys() == {1002, 1003}
    assert manager.flow_assignments.last_reextracted == 0
    assert_maintained(manager)


def sharded_state():
    """Two cells of two machines with two slots each."""
    return make_cluster_state(num_machines=4, machines_per_rack=2)


def test_machine_removal_moves_tasks_out_of_their_cell():
    """The evicted tasks do not fit their cell any more; the balancer
    re-homes them, so they *leave* the cell's network -- and its map."""
    state = sharded_state()
    scheduler = ShardedScheduler(QuincyPolicy, num_cells=2)
    # Job 2 homes to (and fills) cell 0: machines 0 and 1, four slots.
    state.submit_job(make_job(job_id=2, num_tasks=4, duration=None))
    checked_round(scheduler, state, 0.0)
    checked_round(scheduler, state, 1.0)
    cell_map = scheduler._cells[0].manager.flow_assignments.assignments
    assert len(cell_map) == 4
    evicted = state.fail_machine(0, 2.0)
    assert len(evicted) == 2
    checked_round(scheduler, state, 2.0)  # unscheduled in cell 0, re-homed
    assert scheduler.balancer.total_migrations == 2
    decision = checked_round(scheduler, state, 3.0)  # placed by cell 1
    assert sorted(decision.placements) == sorted(evicted)
    assert not set(evicted) & cell_map.keys()
    checked_round(scheduler, state, 4.0)


def test_worker_mode_cells():
    """Worker results arrive as whole flow maps written by ``set_flows``."""
    rng = random.Random(2)
    state = sharded_state()
    scheduler = ShardedScheduler(QuincyPolicy, num_cells=2, workers=True)
    try:
        job_ids = itertools.count(1)
        for round_index in range(5):
            now = round_index * 10.0
            churn(rng, state, now, next(job_ids))
            checked_round(scheduler, state, now)
        assert sum(client.snapshot_ships for client in scheduler.clients) >= 1
    finally:
        scheduler.close()
