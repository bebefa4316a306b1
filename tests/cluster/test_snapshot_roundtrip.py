"""Snapshot/restore round-trip coverage for every ``ClusterState`` index.

ISSUE 10's durability layer serializes the full cluster state; these tests
pin the contract recovery depends on: a restored state is ``==``-equivalent
to the original (topology incl. health + membership version, job/task
ledger incl. terminated history, live/terminated split, pending index,
per-machine task sets, free-slot index), a payload still carrying the
dirty-tracker section older snapshots wrote restores too, and -- the
strongest check -- an original and a
restored state driven through the *same* further mutations emit identical
next-round :class:`ChangeBatch`es from two independent graph managers.
"""

from __future__ import annotations

import pytest

from repro.cluster.task import TaskState
from repro.core.graph_manager import GraphManager
from repro.core.policies import QuincyPolicy
from repro.service.durability import (
    restore_cluster_state,
    snapshot_cluster_state,
)
from tests.conftest import make_cluster_state, make_job


def make_busy_state():
    """A state exercising every index: pending, running, completed,
    preempted, a failed machine, and a later-added machine."""
    state = make_cluster_state(num_machines=8, slots_per_machine=2)
    state.submit_job(make_job(job_id=1, num_tasks=4))
    state.submit_job(
        make_job(job_id=2, num_tasks=3, submit_time=1.0, duration=None)
    )
    # Run some tasks, complete one, preempt one, fail a machine with one.
    state.place_task(1000, 0, now=2.0)
    state.place_task(1001, 1, now=2.0)
    state.place_task(2000, 2, now=2.0)
    state.place_task(2001, 3, now=2.5)
    state.complete_task(1000, now=5.0)
    state.preempt_task(1001, now=6.0)
    state.fail_machine(2, now=7.0)  # evicts 2000
    from repro.cluster.machine import Machine

    state.add_machine(
        Machine(machine_id=100, rack_id=25, num_slots=2, cpu_cores=12,
                ram_gb=64, network_bandwidth_mbps=10_000)
    )
    return state


def roundtrip(state):
    return restore_cluster_state(snapshot_cluster_state(state))


class TestRoundTripEquivalence:
    def test_empty_state(self):
        state = make_cluster_state()
        assert roundtrip(state) == state

    def test_busy_state_is_eq_equivalent(self):
        state = make_busy_state()
        restored = roundtrip(state)
        assert restored == state

    def test_topology_round_trips(self):
        state = make_busy_state()
        restored = roundtrip(state)
        assert restored.topology.version == state.topology.version
        assert restored.topology.machines == state.topology.machines
        assert restored.topology.racks == state.topology.racks
        assert not restored.topology.machine(2).is_available

    def test_task_ledger_round_trips_including_history(self):
        state = make_busy_state()
        restored = roundtrip(state)
        assert restored.tasks == state.tasks
        assert restored.jobs == state.jobs
        # The completed task is history, not live.
        assert restored.tasks[1000].state is TaskState.COMPLETED
        assert restored.terminated_task_count() == state.terminated_task_count()

    def test_live_and_pending_indexes(self):
        state = make_busy_state()
        restored = roundtrip(state)
        assert set(restored._live_tasks) == set(state._live_tasks)
        assert set(restored._pending_tasks) == set(state._pending_tasks)
        assert restored.num_pending_tasks == state.num_pending_tasks
        assert (
            sorted(t.task_id for t in restored.pending_tasks())
            == sorted(t.task_id for t in state.pending_tasks())
        )

    def test_machine_and_free_slot_indexes(self):
        state = make_busy_state()
        restored = roundtrip(state)
        assert restored._machine_tasks == state._machine_tasks
        assert set(restored._free_slot_index) == set(state._free_slot_index)
        for machine_id in state.topology.machines:
            assert restored.free_slots(machine_id) == state.free_slots(machine_id)
        assert (
            [m.machine_id for m in restored.machines_with_free_slots()]
            == [m.machine_id for m in state.machines_with_free_slots()]
        )
        assert restored.slot_utilization() == state.slot_utilization()

    def test_input_locality_keys_stay_ints(self):
        state = make_cluster_state()
        state.submit_job(
            make_job(job_id=1, num_tasks=2, input_size_gb=5.0,
                     input_locality={0: 0.75, 3: 0.25})
        )
        restored = roundtrip(state)
        task = restored.tasks[1000]
        assert task.input_locality == {0: 0.75, 3: 0.25}
        assert all(isinstance(k, int) for k in task.input_locality)

    def test_payload_with_a_dirty_section_still_restores(self):
        # Snapshots written by older versions carried the dirty tracker; a
        # restore ignores it (a fresh scheduler's first round derives every
        # scope whatever the tracker holds).
        state = make_busy_state()
        payload = snapshot_cluster_state(state)
        assert "dirty" not in payload
        payload["dirty"] = {
            "epoch": 3, "full": False, "tasks": [2001], "jobs": [2],
            "machines_availability": [2], "machines_load": [3],
        }
        assert restore_cluster_state(payload) == state

    def test_eq_ignores_monitor_and_dirty_drift(self):
        state = make_busy_state()
        restored = roundtrip(state)
        # Draining one side's tracker must not make the states unequal:
        # dirty bookkeeping is process-local, not schedulable state.
        restored.dirty.drain()
        assert restored == state

    def test_eq_detects_real_divergence(self):
        state = make_busy_state()
        restored = roundtrip(state)
        restored.preempt_task(2001, now=9.0)
        assert restored != state


class TestChangeBatchEquivalence:
    def test_identical_mutations_emit_identical_change_batches(self):
        """The recovery promise, end to end: a restored state driven
        through the same mutations as the original produces the same
        incremental graph patches."""
        original = make_busy_state()
        restored = roundtrip(original)

        managers = {}
        for name, state in (("original", original), ("restored", restored)):
            manager = GraphManager(QuincyPolicy())
            manager.update(state, now=10.0)  # cold build, no batch
            managers[name] = manager

        def mutate(state):
            state.submit_job(make_job(job_id=3, num_tasks=2, submit_time=11.0))
            state.place_task(3000, 4, now=11.5)
            state.preempt_task(2001, now=11.5)
            state.recover_machine(2, now=11.5)

        mutate(original)
        mutate(restored)
        managers["original"].update(original, now=12.0)
        managers["restored"].update(restored, now=12.0)
        batch_a = managers["original"].last_changes
        batch_b = managers["restored"].last_changes
        assert batch_a is not None and batch_b is not None
        assert len(batch_a) > 0
        assert batch_a.changes == batch_b.changes

    def test_fresh_managers_build_identical_networks(self):
        original = make_busy_state()
        restored = roundtrip(original)
        net_a = GraphManager(QuincyPolicy()).update(original, now=10.0).copy()
        net_b = GraphManager(QuincyPolicy()).update(restored, now=10.0).copy()
        assert (
            sorted((n.node_type.value, n.supply) for n in net_a.nodes())
            == sorted((n.node_type.value, n.supply) for n in net_b.nodes())
        )
        assert len(list(net_a.arcs())) == len(list(net_b.arcs()))
