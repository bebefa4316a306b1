"""Sharded multi-cell scheduling: partition, views, balancer, chaos.

Covers the sharding layer's structural guarantees:

* the rack-granular cell partition is deterministic and stable under
  machine additions, removals, and correlated rack storms;
* the per-cell topology views slice the cluster exactly and stay coherent
  across membership churn (version-keyed cache);
* the cross-cell balancer re-homes queued tasks from overloaded or
  infeasible home cells to cells with spare capacity, as ordinary
  dirty-set mutations bounded per round;
* in worker mode, a chaos ``worker_kill`` degrades only the targeted
  cell: its round is served by the parent-side fallback solver while the
  other cells' workers keep answering.
"""

from __future__ import annotations

import pytest

from repro.chaos import ChaosPolicy
from repro.cluster.machine import Machine
from repro.core import CellPartition, ShardedScheduler
from repro.core.policies import QuincyPolicy
from repro.core import sharding
from repro.core.sharding import CellTopologyView
from repro.simulation.failures import FailureInjector
from repro.solvers.worker_health import BREAKER_OPEN, WorkerCircuitBreaker
from tests.conftest import make_cluster_state, make_job


def build_sharded(num_cells=4, **kwargs):
    return ShardedScheduler(QuincyPolicy, num_cells=num_cells, **kwargs)


# --------------------------------------------------------------------- #
# Partition determinism and stability
# --------------------------------------------------------------------- #
class TestCellPartition:
    def test_partition_is_rack_granular(self):
        state = make_cluster_state(num_machines=16, machines_per_rack=4)
        partition = CellPartition(4)
        for rack_id, rack in state.topology.racks.items():
            cells = {
                partition.cell_of_machine(state.topology.machine(m))
                for m in rack.machine_ids
            }
            assert cells == {partition.cell_of_rack(rack_id)}

    def test_partition_deterministic_across_instances(self):
        state = make_cluster_state(num_machines=24, machines_per_rack=3)
        a = CellPartition(4).assignment(state.topology)
        b = CellPartition(4).assignment(state.topology)
        assert a == b

    def test_partition_stable_under_add_and_remove(self):
        state = make_cluster_state(num_machines=16, machines_per_rack=4)
        partition = CellPartition(4)
        before = partition.assignment(state.topology)
        # A new machine in an existing rack and one opening a new rack.
        state.add_machine(Machine(machine_id=100, rack_id=1, num_slots=2))
        state.add_machine(Machine(machine_id=101, rack_id=9, num_slots=2))
        state.topology.remove_machine(0)
        after = partition.assignment(state.topology)
        for machine_id, cell in after.items():
            if machine_id in before:
                assert cell == before[machine_id], "surviving machine changed cells"
        assert after[100] == partition.cell_of_rack(1)
        assert after[101] == partition.cell_of_rack(9)
        assert 0 not in after

    def test_partition_stable_under_rack_storms(self):
        state = make_cluster_state(num_machines=16, machines_per_rack=4)
        partition = CellPartition(4)
        before = partition.assignment(state.topology)
        injector = FailureInjector(
            mean_time_between_failures=10.0, mean_time_to_repair=5.0, seed=7
        )
        schedule = injector.generate_rack_storms(
            state.topology, horizon=200.0, mean_time_between_storms=20.0
        )
        assert schedule.num_failures > 0, "storm schedule must exercise failures"
        for event in schedule.events:
            state.fail_machine(event.machine_id, event.fail_time)
            # Availability flips never move machines between cells.
            assert partition.assignment(state.topology) == before
            if event.recover_time is not None:
                state.recover_machine(event.machine_id, event.recover_time)
                assert partition.assignment(state.topology) == before

    def test_single_cell_partition_is_identity(self):
        state = make_cluster_state(num_machines=8, machines_per_rack=2)
        partition = CellPartition(1)
        assert set(partition.assignment(state.topology).values()) == {0}

    def test_zero_cells_rejected(self):
        with pytest.raises(ValueError):
            CellPartition(0)


class TestCellTopologyView:
    def test_views_partition_the_cluster_exactly(self):
        state = make_cluster_state(num_machines=20, machines_per_rack=4)
        partition = CellPartition(3)
        views = [CellTopologyView(state.topology, partition, c) for c in range(3)]
        seen_machines: set = set()
        seen_racks: set = set()
        for view in views:
            assert not (seen_machines & set(view.machines)), "machine in two cells"
            assert not (seen_racks & set(view.racks)), "rack in two cells"
            seen_machines |= set(view.machines)
            seen_racks |= set(view.racks)
        assert seen_machines == set(state.topology.machines)
        assert seen_racks == set(state.topology.racks)

    def test_view_tracks_membership_churn(self):
        state = make_cluster_state(num_machines=8, machines_per_rack=4)
        partition = CellPartition(2)
        view = CellTopologyView(state.topology, partition, 1)
        assert 4 in view.machines  # rack 1 -> cell 1
        state.topology.remove_machine(4)
        assert 4 not in view.machines
        state.topology.add_machine(Machine(machine_id=50, rack_id=3, num_slots=2))
        assert 50 in view.machines  # rack 3 -> cell 1

    def test_view_sees_availability_through_shared_references(self):
        state = make_cluster_state(num_machines=8, machines_per_rack=4)
        partition = CellPartition(2)
        view = CellTopologyView(state.topology, partition, 0)
        healthy_before = {m.machine_id for m in view.healthy_machines()}
        state.fail_machine(0, now=0.0)
        healthy_after = {m.machine_id for m in view.healthy_machines()}
        assert healthy_after == healthy_before - {0}


# --------------------------------------------------------------------- #
# Scheduling behavior
# --------------------------------------------------------------------- #
class TestShardedScheduling:
    def test_places_tasks_and_attributes_straggler(self):
        state = make_cluster_state(num_machines=16, machines_per_rack=4)
        state.submit_job(make_job(job_id=1, num_tasks=6))
        scheduler = build_sharded(num_cells=4)
        try:
            decision = scheduler.schedule_and_apply(state, now=0.0)
            assert len(decision.placements) == 6
            stats = decision.solver_result.statistics
            assert stats.cells_solved >= 1
            assert stats.straggler_cell >= 0
            assert stats.straggler_seconds >= 0.0
        finally:
            scheduler.close()

    def test_running_task_homed_to_cell_of_its_machine(self):
        state = make_cluster_state(num_machines=8, machines_per_rack=2)
        # Job 1 hashes to cell 1, but its running task sits on machine 0
        # (rack 0 -> cell 0); homing must follow the machine, because the
        # cell network's continuation arc resolves only there.
        state.submit_job(make_job(job_id=1, num_tasks=1))
        task = state.jobs[1].tasks[0]
        state.place_task(task.task_id, 0, now=0.0)
        scheduler = build_sharded(num_cells=4)
        try:
            scheduler.schedule(state, now=1.0)
            assert scheduler._home_cell(task) == 0
        finally:
            scheduler.close()

    def test_rebind_on_new_state(self):
        scheduler = build_sharded(num_cells=2)
        try:
            state1 = make_cluster_state(num_machines=8, machines_per_rack=4)
            state1.submit_job(make_job(job_id=1, num_tasks=2))
            d1 = scheduler.schedule_and_apply(state1, now=0.0)
            assert len(d1.placements) == 2
            state2 = make_cluster_state(num_machines=8, machines_per_rack=4)
            state2.submit_job(make_job(job_id=7, num_tasks=3))
            d2 = scheduler.schedule_and_apply(state2, now=0.0)
            assert len(d2.placements) == 3
        finally:
            scheduler.close()

    def test_idle_cells_are_skipped(self):
        state = make_cluster_state(num_machines=16, machines_per_rack=4)
        state.submit_job(make_job(job_id=0, num_tasks=2))  # cell 0 only
        scheduler = build_sharded(num_cells=4, balance=False)
        try:
            decision = scheduler.schedule(state, now=0.0)
            assert decision.solver_result.statistics.cells_solved == 1
        finally:
            scheduler.close()


class TestCrossCellBalancer:
    def test_overload_migrates_to_spare_cell(self):
        # 2 racks -> 2 cells of 2 machines x 2 slots = 4 slots each.  Job 0
        # homes to cell 0 and fills it; then machine 0 fails, so two of its
        # tasks queue in a cell with no slot left for them, and the
        # balancer must re-home them to cell 1 so the next round places
        # them.  (Overload that exists *before* a task is homed never
        # reaches the balancer: see TestFirstHome.)
        state = make_cluster_state(num_machines=4, machines_per_rack=2)
        state.submit_job(make_job(job_id=0, num_tasks=4))
        scheduler = build_sharded(num_cells=2)
        try:
            d1 = scheduler.schedule_and_apply(state, now=0.0)
            assert sorted(d1.placements.values()) == [0, 0, 1, 1]
            assert len(state.fail_machine(0, now=1.0)) == 2
            d2 = scheduler.schedule_and_apply(state, now=2.0)
            assert not d2.placements
            assert len(d2.unscheduled) == 2
            assert d2.solver_result.statistics.cross_cell_migrations == 2
            d3 = scheduler.schedule_and_apply(state, now=5.0)
            assert len(d3.placements) == 2
            assert set(d3.placements.values()) <= {2, 3}
            assert not d3.unscheduled
        finally:
            scheduler.close()

    def test_infeasible_home_cell_rehomes_instead_of_starving(self):
        # Job 1 homes to cell 1 (rack 1) and runs there; then the whole
        # cell fails.  Its tasks have no feasible machine at all in their
        # home cell and must be re-homed, not starved.
        state = make_cluster_state(num_machines=4, machines_per_rack=2)
        state.submit_job(make_job(job_id=1, num_tasks=2))
        scheduler = build_sharded(num_cells=2)
        try:
            d0 = scheduler.schedule_and_apply(state, now=0.0)
            assert set(d0.placements.values()) <= {2, 3}
            state.fail_machine(2, now=1.0)
            state.fail_machine(3, now=1.0)
            d1 = scheduler.schedule_and_apply(state, now=2.0)
            assert len(d1.unscheduled) == 2
            assert d1.solver_result.statistics.cross_cell_migrations == 2
            d2 = scheduler.schedule_and_apply(state, now=5.0)
            assert len(d2.placements) == 2
            assert set(d2.placements.values()) <= {0, 1}
        finally:
            scheduler.close()

    def test_migration_volume_bounded_per_round(self, monkeypatch):
        state = make_cluster_state(
            num_machines=8, machines_per_rack=4, slots_per_machine=4
        )
        # Job 0 fills cell 0 (16 slots); three of its four machines then
        # fail: far more overflow than the per-round migration ceiling,
        # with cell 1 empty.
        state.submit_job(make_job(job_id=0, num_tasks=16))
        scheduler = build_sharded(num_cells=2)
        monkeypatch.setattr(sharding, "MAX_MIGRATIONS_PER_ROUND", 4)
        try:
            scheduler.schedule_and_apply(state, now=0.0)
            evicted = sum(len(state.fail_machine(m, now=1.0)) for m in (0, 1, 2))
            assert evicted == 12
            decision = scheduler.schedule_and_apply(state, now=2.0)
            assert decision.solver_result.statistics.cross_cell_migrations == 4
        finally:
            scheduler.close()

    def test_balancer_disabled_leaves_tasks_queued(self):
        state = make_cluster_state(num_machines=4, machines_per_rack=2)
        state.submit_job(make_job(job_id=0, num_tasks=6))
        scheduler = build_sharded(num_cells=2, balance=False)
        try:
            d1 = scheduler.schedule_and_apply(state, now=0.0)
            assert len(d1.unscheduled) == 2
            d2 = scheduler.schedule_and_apply(state, now=5.0)
            assert len(d2.placements) == 0
            assert len(d2.unscheduled) == 2
        finally:
            scheduler.close()


# --------------------------------------------------------------------- #
# Worker mode and chaos
# --------------------------------------------------------------------- #
class TestWorkerMode:
    def test_worker_rounds_match_inline_placement_count(self):
        def run(workers):
            state = make_cluster_state(num_machines=16, machines_per_rack=4)
            state.submit_job(make_job(job_id=1, num_tasks=5))
            state.submit_job(make_job(job_id=2, num_tasks=4))
            scheduler = build_sharded(num_cells=4, workers=workers)
            placed = 0
            try:
                for round_index in range(3):
                    if round_index == 1:
                        state.submit_job(
                            make_job(job_id=3, num_tasks=3, submit_time=5.0)
                        )
                    decision = scheduler.schedule_and_apply(
                        state, now=round_index * 5.0
                    )
                    placed += len(decision.placements)
            finally:
                scheduler.close()
            return placed

        assert run(workers=True) == run(workers=False)

    def test_steady_state_ships_deltas(self):
        state = make_cluster_state(num_machines=8, machines_per_rack=2)
        state.submit_job(make_job(job_id=0, num_tasks=2))
        state.submit_job(make_job(job_id=1, num_tasks=2))
        scheduler = build_sharded(num_cells=2, workers=True)
        try:
            for round_index in range(4):
                if round_index == 2:
                    state.submit_job(
                        make_job(job_id=2, num_tasks=1, submit_time=10.0)
                    )
                scheduler.schedule_and_apply(state, now=round_index * 5.0)
            for transport in scheduler.cell_transport():
                consulted = transport["snapshot_ships"] + transport["delta_ships"]
                if consulted > 1:
                    assert transport["snapshot_ships"] == 1, (
                        "steady-state rounds must ship deltas, "
                        f"got {transport}"
                    )
                assert transport["fallback_rounds"] == 0
        finally:
            scheduler.close()

    def test_worker_rounds_carry_their_transport_stamps(self):
        # Each worker round's ships are stamped on the merged result (and
        # from there reach ScheduleRecord), not only on cell_transport().
        state = make_cluster_state(num_machines=8, machines_per_rack=2)
        state.submit_job(make_job(job_id=0, num_tasks=2))
        state.submit_job(make_job(job_id=1, num_tasks=2))
        scheduler = build_sharded(num_cells=2, workers=True)
        try:
            rounds = []
            for round_index in range(3):
                state.submit_job(
                    make_job(job_id=2 + round_index, num_tasks=1,
                             submit_time=round_index * 5.0)
                )
                decision = scheduler.schedule_and_apply(state, now=round_index * 5.0)
                rounds.append(decision.solver_result.statistics)
            first = rounds[0]
            assert first.snapshot_ships == first.cells_solved == 2
            assert first.delta_ships == 0
            transport = scheduler.cell_transport()
            for counter in ("snapshot_ships", "delta_ships"):
                assert sum(getattr(stats, counter) for stats in rounds) == sum(
                    cell[counter] for cell in transport
                )
            assert sum(stats.delta_ships for stats in rounds) >= 1
            assert all(stats.breaker_open == 0 for stats in rounds)
        finally:
            scheduler.close()

    def test_worker_kill_degrades_only_the_targeted_cell(self):
        # worker_kill always fires; the target is round_index % num_cells,
        # so round 1 (index 0) kills cell 0's worker only.  The round must
        # still place everything (the parent-side fallback serves cell 0)
        # and the other cells' workers must stay alive.
        state = make_cluster_state(num_machines=16, machines_per_rack=4)
        for job_id in range(4):  # one job per cell
            state.submit_job(make_job(job_id=job_id, num_tasks=2))
        chaos = ChaosPolicy(rates={"worker_kill": 1.0}, seed=3)
        scheduler = build_sharded(num_cells=4, workers=True, chaos=chaos)
        try:
            decision = scheduler.schedule_and_apply(state, now=0.0)
            assert len(decision.placements) == 8, "no cell may lose its round"
            transport = scheduler.cell_transport()
            assert transport[0]["fallback_rounds"] == 1
            for cell in (1, 2, 3):
                assert transport[cell]["fallback_rounds"] == 0, (
                    f"cell {cell} was degraded by cell 0's fault"
                )
        finally:
            scheduler.close()

    def test_killed_worker_respawns_next_round(self):
        state = make_cluster_state(num_machines=8, machines_per_rack=4)
        state.submit_job(make_job(job_id=0, num_tasks=2))
        state.submit_job(make_job(job_id=1, num_tasks=2))
        scheduler = build_sharded(num_cells=2, workers=True)
        try:
            scheduler.schedule_and_apply(state, now=0.0)
            scheduler.clients[0].kill()
            state.submit_job(make_job(job_id=2, num_tasks=1, submit_time=5.0))
            decision = scheduler.schedule_and_apply(state, now=5.0)
            assert decision.placements or not decision.unscheduled
            transport = scheduler.cell_transport()
            assert transport[0]["respawns"] >= 1 or transport[0]["fallback_rounds"] >= 1
        finally:
            scheduler.close()

    def test_worker_loss_opens_only_that_cells_breaker_and_a_probe_recloses_it(self):
        # Chaos round r aims at cell r % 4: round 4 kills cell 0's worker.
        # With a trip-on-first-failure breaker on that cell, the kill opens
        # it, the next round is served inline without a spawn attempt, and
        # the probe round after that respawns and re-closes it.
        state = make_cluster_state(num_machines=16, machines_per_rack=4)
        chaos = ChaosPolicy(schedule={"worker_kill": [4]})
        scheduler = build_sharded(num_cells=4, workers=True, chaos=chaos)

        def run_round(index):
            for cell in range(4):  # one task per cell per round
                state.submit_job(
                    make_job(
                        job_id=index * 4 + cell, num_tasks=1, submit_time=index * 5.0
                    )
                )
            decision = scheduler.schedule_and_apply(state, now=index * 5.0)
            assert len(decision.placements) == 4, "no cell may lose its round"
            return scheduler.cell_transport()

        try:
            for index in range(4):
                transport = run_round(index)
            assert [t["fallback_rounds"] for t in transport] == [0, 0, 0, 0]
            breaker = WorkerCircuitBreaker(failure_threshold=1, probe_interval_rounds=2)
            scheduler.clients[0].breaker = breaker

            transport = run_round(4)  # killed: breaker trips open
            assert chaos.injected.get("worker_kill") == 1
            assert breaker.state == BREAKER_OPEN
            assert transport[0]["breaker_open"] == 1
            assert transport[0]["fallback_rounds"] == 1

            transport = run_round(5)  # still open: no spawn attempt burned
            assert breaker.probes == 0
            assert transport[0]["fallback_rounds"] == 2
            assert transport[0]["respawns"] == 0

            transport = run_round(6)  # probe window: respawn, re-close
            assert breaker.is_closed
            assert (breaker.trips, breaker.probes, breaker.reclosures) == (1, 1, 1)
            assert transport[0]["breaker_open"] == 0
            assert transport[0]["fallback_rounds"] == 2
            assert transport[0]["respawns"] == 1
            for cell in (1, 2, 3):
                assert transport[cell]["fallback_rounds"] == 0
                assert transport[cell]["breaker_open"] == 0
                assert transport[cell]["respawns"] == 0
        finally:
            scheduler.close()
