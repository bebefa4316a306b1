"""Bunched waiting-cost ticks re-price per group, exactly as per task.

The graph manager keys its tick calendar by ``(rate, submit_time)`` -- the
only inputs of a task's waiting term -- so a group's next tick is computed
and popped once and its members are re-priced in one loop.  These tests
drive a manager round by round and compare, after every round, each
task's unscheduled-arc cost with a refresh of every task (the policy's own
``unscheduled_cost``) and the round's ``tasks_examined`` with a per-task
model: a clean task is examined iff its waiting term moved since it was
last priced, or every task -- re-derived ones included -- when ``now``
ran backwards.  ``verify_changes``
is on, so every round is also checked against a from-scratch build.
"""

from __future__ import annotations

import math

from repro.core.graph_manager import GraphManager, _IncrementalBuilder, _next_tick
from repro.core.policies import QuincyPolicy
from repro.core.policies.base import waiting_term
from tests.conftest import make_cluster_state, make_job

RATE = QuincyPolicy.wait_time_cost_per_second


class _RecordingPolicy(QuincyPolicy):
    """Quincy, noting which task scopes each round re-derives (not those
    of the cross-check's from-scratch build)."""

    def __init__(self) -> None:
        super().__init__()
        self.derived = set()

    def arcs_for_task(self, state, builder, task, now):
        if isinstance(builder, _IncrementalBuilder):
            self.derived.add(task.task_id)
        super().arcs_for_task(state, builder, task, now)


class _Driver:
    """One manager over one state, checked after every round."""

    def __init__(self) -> None:
        self.state = make_cluster_state(num_machines=8, machines_per_rack=2)
        self.policy = _RecordingPolicy()
        self.manager = GraphManager(self.policy, verify_changes=True)
        #: task id -> the time its unscheduled arc was last priced.
        self.priced_at = {}
        self.last_now = -math.inf
        self.examined = []

    def round(self, now: float) -> None:
        self.policy.derived = set()
        self.manager.update(self.state, now)
        stats = self.manager.last_update_stats
        live = {t.task_id: t for t in self.state.schedulable_tasks()}
        for task_id in list(self.priced_at):
            if task_id not in live:
                del self.priced_at[task_id]
        backwards = now < self.last_now
        expected = 0
        for task_id, task in live.items():
            if backwards:
                # Every task is re-priced, a re-derived one too.
                expected += 1
            elif task_id not in self.policy.derived:
                before = self.priced_at[task_id]
                if waiting_term(RATE, task.submit_time, now) == waiting_term(
                    RATE, task.submit_time, before
                ):
                    continue
                expected += 1
            self.priced_at[task_id] = now
        assert stats.tasks_examined == len(self.policy.derived & live.keys()) + expected
        self.examined.append(expected)
        self.last_now = now
        self._check_costs(now, live)

    def _check_costs(self, now, live) -> None:
        manager = self.manager
        residual = manager.network.residual
        for task_id, task in live.items():
            arc = (manager.task_nodes[task_id], manager._unscheduled_nodes[task.job_id])
            stored = residual.arc_cost[2 * residual.arc_position[arc]]
            assert stored // residual.cost_scale == self.policy.unscheduled_cost(
                task, now
            ), (task_id, now)


def test_a_group_with_pending_and_running_members_reprices_together():
    """One job's tasks share a group whatever their static terms: the
    running members carry the preemption penalty, the pending ones not."""
    driver = _Driver()
    state = driver.state
    state.submit_job(make_job(job_id=1, num_tasks=6, submit_time=0.25, duration=None))
    driver.round(0.25)
    for task_id, machine_id in ((1000, 0), (1001, 1), (1002, 2)):
        state.place_task(task_id, machine_id, 0.5)
    driver.round(0.5)
    assert len(driver.manager._tick_groups) == 1
    (group,) = driver.manager._tick_groups.values()
    statics = {static for static, _ in group[1].values()}
    assert len(statics) == 2
    for now in (1.0, 2.0, 2.25, 2.5, 4.25, 6.0, 6.25, 9.0):
        driver.round(now)
    # The group re-priced all six members on each tick round and only then.
    assert driver.examined == [0, 0, 0, 0, 6, 0, 6, 0, 6, 6]


def test_a_member_removed_between_ticks_leaves_its_group():
    driver = _Driver()
    state = driver.state
    state.submit_job(make_job(job_id=1, num_tasks=4, submit_time=0.0, duration=None))
    driver.round(0.0)
    state.place_task(1000, 0, 0.5)
    state.place_task(1001, 1, 0.5)
    driver.round(0.5)
    driver.round(2.0)
    state.complete_task(1000, 3.0)
    driver.round(3.0)
    driver.round(4.0)
    (group,) = driver.manager._tick_groups.values()
    assert 1000 not in group[1] and len(group[1]) == 3
    # Every member gone: the group goes, and its calendar entry is dropped.
    for task_id in (1001,):
        state.complete_task(task_id, 5.0)
    state.remove_job(1)
    driver.round(5.0)
    driver.round(6.0)
    assert driver.manager._tick_groups == {}


def test_a_member_rederived_in_its_ticks_round_is_priced_once():
    """A member whose scope is re-derived in the round its group ticks is
    priced by the derivation; the group re-prices only the others."""
    driver = _Driver()
    state = driver.state
    state.submit_job(make_job(job_id=1, num_tasks=5, submit_time=0.0, duration=None))
    driver.round(0.0)
    driver.round(1.0)
    state.place_task(1003, 0, 2.0)  # marked: re-derived at the tick
    driver.round(2.0)
    assert driver.examined[-1] == 4
    assert driver.manager.last_update_stats.tasks_examined == 5
    driver.round(4.0)
    assert driver.examined[-1] == 5


def test_time_running_backwards_reprices_every_member():
    driver = _Driver()
    state = driver.state
    state.submit_job(make_job(job_id=1, num_tasks=3, submit_time=0.0, duration=None))
    state.submit_job(make_job(job_id=2, num_tasks=2, submit_time=1.0, duration=None))
    driver.round(1.0)
    driver.round(7.0)
    state.place_task(2000, 0, 3.0)  # re-derived in the backwards round
    driver.round(3.0)
    assert driver.examined[-1] == 5
    assert driver.manager.last_update_stats.tasks_examined == 6
    driver.round(5.0)
    driver.round(5.5)


def test_a_tick_lands_on_its_float_boundary():
    """A submit time whose ticks are not representable: the cost moves on
    the first float at which the term does, not an ulp before or after."""
    submit_time = 0.1
    driver = _Driver()
    driver.state.submit_job(
        make_job(job_id=1, num_tasks=3, submit_time=submit_time, duration=None)
    )
    driver.round(submit_time)
    due = _next_tick(RATE, submit_time, submit_time)
    before = math.nextafter(due, -math.inf)
    assert waiting_term(RATE, submit_time, before) == 0
    driver.round(before)
    assert driver.examined[-1] == 0
    driver.round(due)
    assert driver.examined[-1] == 3
    following = _next_tick(RATE, submit_time, due)
    driver.round(math.nextafter(following, -math.inf))
    assert driver.examined[-1] == 0
    driver.round(following)
    assert driver.examined[-1] == 3
