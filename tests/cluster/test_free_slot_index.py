"""Incrementally maintained free-slot index of :class:`ClusterState`.

The baselines' feasibility check used to scan every machine in the
topology per dequeued task -- O(machines) per task, the dominant cost of
queue-based replays at cluster scale.  The index turns that into a lookup
over only the machines that currently have capacity, and these tests pin
both sides of the bargain:

* exactness: after any fuzzed mutation sequence, the index equals the
  ground truth recomputed from scratch;
* the scan-count pin: ``feasible_machines`` never
  touches ``topology.healthy_machines()`` (the full scan), and the
  candidate pool it does build is bounded by the number of machines with
  free capacity, not the fleet size.
"""

from __future__ import annotations

import random

from repro.baselines import SparrowScheduler
from repro.cluster.machine import Machine
from tests.conftest import make_cluster_state, make_job


def ground_truth_free(state) -> set:
    """Recompute 'machines with a free slot' from first principles."""
    return {
        machine.machine_id
        for machine in state.topology.machines.values()
        if machine.is_available and state.free_slots(machine.machine_id) > 0
    }


def indexed_free(state) -> set:
    return {m.machine_id for m in state.machines_with_free_slots()}


def test_index_matches_truth_on_fresh_cluster():
    state = make_cluster_state(num_machines=8)
    assert indexed_free(state) == ground_truth_free(state)
    assert state.total_free_slots() == 16  # 8 machines x 2 slots


def test_index_tracks_every_mutator():
    state = make_cluster_state(num_machines=4, slots_per_machine=1)
    state.submit_job(make_job(job_id=1, num_tasks=3))
    tasks = [t.task_id for t in state.jobs[1].tasks]

    state.place_task(tasks[0], 0, now=0.0)
    assert 0 not in indexed_free(state)  # single slot now taken

    state.migrate_task(tasks[0], 1, now=1.0)
    assert 0 in indexed_free(state) and 1 not in indexed_free(state)

    state.preempt_task(tasks[0], now=2.0)
    assert 1 in indexed_free(state)

    state.place_task(tasks[1], 2, now=3.0)
    state.complete_task(tasks[1], now=4.0)
    assert 2 in indexed_free(state)

    state.place_task(tasks[2], 3, now=5.0)
    state.fail_machine(3, now=6.0)
    assert 3 not in indexed_free(state)  # failed machines have no free slots
    state.recover_machine(3, now=7.0)
    assert 3 in indexed_free(state)  # eviction freed the slot

    state.add_machine(Machine(machine_id=99, rack_id=0, num_slots=2))
    assert 99 in indexed_free(state)

    assert indexed_free(state) == ground_truth_free(state)


def test_index_exact_under_fuzzed_churn():
    """Randomized mutation storms: the index never drifts from the truth."""
    for seed in range(8):
        rng = random.Random(seed)
        state = make_cluster_state(
            num_machines=6, machines_per_rack=3, slots_per_machine=2
        )
        state.submit_job(make_job(job_id=1, num_tasks=10))
        next_job = 2
        for step in range(60):
            now = float(step)
            roll = rng.random()
            if roll < 0.25:
                pending = state.pending_tasks()
                free = state.machines_with_free_slots()
                if pending and free:
                    state.place_task(
                        rng.choice(pending).task_id,
                        rng.choice(free).machine_id,
                        now,
                    )
            elif roll < 0.40:
                running = state.running_tasks()
                if running:
                    task = rng.choice(running)
                    if rng.random() < 0.5:
                        state.complete_task(task.task_id, now)
                    else:
                        state.preempt_task(task.task_id, now)
            elif roll < 0.55:
                running = state.running_tasks()
                free = state.machines_with_free_slots()
                if running and free:
                    state.migrate_task(
                        rng.choice(running).task_id,
                        rng.choice(free).machine_id,
                        now,
                    )
            elif roll < 0.70:
                machine = state.topology.machine(
                    rng.choice(list(state.topology.machines))
                )
                if machine.is_available:
                    state.fail_machine(machine.machine_id, now)
                else:
                    state.recover_machine(machine.machine_id, now)
            elif roll < 0.85:
                state.submit_job(make_job(job_id=next_job, num_tasks=2, submit_time=now))
                next_job += 1
            else:
                state.add_machine(
                    Machine(machine_id=1000 + step, rack_id=step % 3, num_slots=1)
                )
            assert indexed_free(state) == ground_truth_free(state), (
                f"seed {seed} step {step}: index drifted"
            )
            assert state.total_free_slots() == sum(
                state.free_slots(m) for m in ground_truth_free(state)
            )


def test_index_order_is_deterministic():
    state = make_cluster_state(num_machines=8)
    ids = [m.machine_id for m in state.machines_with_free_slots()]
    assert ids == sorted(ids)


class TestFeasibilityScanPin:
    def test_feasible_machines_never_full_scans(self, monkeypatch):
        """The O(machines) scan must be gone."""
        state = make_cluster_state(num_machines=16, slots_per_machine=1)
        calls = {"healthy": 0}
        original = state.topology.healthy_machines

        def counting_healthy():
            calls["healthy"] += 1
            return original()

        monkeypatch.setattr(state.topology, "healthy_machines", counting_healthy)
        state.submit_job(make_job(job_id=1, num_tasks=8))
        scheduler = SparrowScheduler()
        scheduler.schedule_and_apply(state, now=0.0)
        assert calls["healthy"] == 0, (
            "feasible_machines fell back to the full topology scan"
        )

    def test_candidate_pool_bounded_by_free_machines(self):
        """On a nearly full cluster the pool shrinks with the free set."""
        state = make_cluster_state(num_machines=16, slots_per_machine=1)
        state.submit_job(make_job(job_id=1, num_tasks=15))
        for index, task in enumerate(state.jobs[1].tasks):
            state.place_task(task.task_id, index, now=0.0)
        state.submit_job(make_job(job_id=2, num_tasks=1, submit_time=1.0))
        task = state.jobs[2].tasks[0]
        scheduler = SparrowScheduler()
        candidates = scheduler.feasible_machines(task, state)
        assert len(candidates) == 1  # only machine 15 has a free slot
        assert candidates[0].machine_id == 15

    def test_one_run_never_overcommits_a_machine(self):
        """Candidates are net of the placements made earlier in the run."""
        state = make_cluster_state(num_machines=2, slots_per_machine=1)
        state.submit_job(make_job(job_id=1, num_tasks=3))
        scheduler = SparrowScheduler()
        decision = scheduler.schedule(state, now=0.0)
        assert sorted(decision.placements.values()) == [0, 1]
        assert len(decision.unscheduled) == 1

    def test_scheduling_behavior_unchanged(self):
        """The index is an optimization: placements stay exactly as before."""
        state = make_cluster_state(num_machines=8, slots_per_machine=2)
        state.submit_job(make_job(job_id=1, num_tasks=6))
        scheduler = SparrowScheduler(seed=5)
        decision = scheduler.schedule_and_apply(state, now=0.0)
        assert len(decision.placements) == 6
        assert not decision.unscheduled
        for machine_id in decision.placements.values():
            assert state.topology.machine(machine_id).is_available
