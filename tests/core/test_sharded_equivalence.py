"""Sharded-vs-monolithic scheduling equivalence under fuzzed churn.

The sharded scheduler trades the monolithic solver's single global
optimum for per-cell optima plus cross-cell balancing; the contract is
that it never trades away *placement quality*: over a multi-round fuzzed
churn sequence, the sharded scheduler (with its balancer) must keep as
many tasks running as the monolithic Firmament scheduler, never
oversubscribe a machine, and never place a task on a failed one.  Within
each cell the placements are exact solver output, so per-cell optimality
rides on the solver equivalence suite; this harness pins the end-to-end
cluster behavior on top.

The simulator-level tests additionally pin the apply-or-void conservation
law (``recorded == applied + voided``) for sharded runs, so the
multi-cell merge cannot silently lose or double-count a placement.
"""

from __future__ import annotations

import random

import pytest

from repro.core import FirmamentScheduler, ShardedScheduler
from repro.core.policies import CpuMemoryPolicy, LoadSpreadingPolicy, QuincyPolicy
from repro.simulation.simulator import (
    ClusterSimulator,
    SimulationConfig,
    verify_placement_conservation,
)
from repro.simulation.trace import GoogleTraceGenerator, TraceConfig
from repro.solvers.incremental import IncrementalCostScalingSolver
from tests.conftest import make_cluster_state, make_job
from tests.core.test_incremental_graph_equivalence import _random_job

SEEDS = range(6)
ROUNDS = 8


def make_churn_script(seed: int):
    """Pre-draw a deterministic churn script, independent of any scheduler.

    The incremental-equivalence fuzzer (`_mutate_cluster`) draws from its
    rng *conditionally on cluster state*, so two schedulers placing
    differently would diverge into different workloads -- useless for a
    quality comparison.  This script fixes the comparison: per round, a
    set of fuzzed job submissions (specs drawn up front via `_random_job`)
    and machine availability toggles (fail if up, recover if down), whose
    evolution depends only on the script itself.  Replaying it against two
    schedulers is like-for-like by construction.

    Returns ``(num_machines, machines_per_rack, rounds)`` where each round
    is ``(job_factories, machine_toggles)``.
    """
    rng = random.Random(seed)
    num_machines = rng.choice((8, 12, 16))
    machines_per_rack = rng.choice((2, 4))
    rounds = []
    next_job_id = 1
    for round_index in range(ROUNDS):
        job_factories = []
        for _ in range(rng.randint(0, 2) if round_index else 1):
            job_id = next_job_id
            next_job_id += 1
            job_seed = seed * 10_000 + round_index * 100 + job_id
            job_factories.append(
                lambda now, job_id=job_id, job_seed=job_seed: _random_job(
                    random.Random(job_seed), job_id, num_machines, now
                )
            )
        toggles = rng.sample(range(num_machines), rng.randint(0, 2))
        rounds.append((job_factories, toggles))
    return num_machines, machines_per_rack, rounds


def apply_script_round(state, job_factories, toggles, now) -> None:
    """Apply one scripted churn round to a cluster state."""
    for factory in job_factories:
        state.submit_job(factory(now))
    for machine_id in toggles:
        machine = state.topology.machine(machine_id)
        if machine.is_available:
            healthy = state.topology.healthy_machines()
            if len(healthy) > 1:
                state.fail_machine(machine_id, now)
        else:
            state.recover_machine(machine_id, now)


def _assert_decision_sound(state, decision) -> None:
    """Placements target healthy machines and never oversubscribe.

    Slot accounting follows the apply order (preemptions, then migrations,
    then placements): a slot freed by a same-round preemption or migration
    source is legitimately reusable within the round.
    """
    net_load = {}
    for task_id in decision.preemptions:
        task = state.tasks[task_id]
        net_load[task.machine_id] = net_load.get(task.machine_id, 0) - 1
    for task_id, machine_id in decision.migrations.items():
        task = state.tasks[task_id]
        net_load[task.machine_id] = net_load.get(task.machine_id, 0) - 1
        net_load[machine_id] = net_load.get(machine_id, 0) + 1
    for task_id, machine_id in decision.placements.items():
        machine = state.topology.machines.get(machine_id)
        assert machine is not None, f"task {task_id} placed on absent machine"
        assert machine.is_available, f"task {task_id} placed on failed machine"
        net_load[machine_id] = net_load.get(machine_id, 0) + 1
    for machine_id, delta in net_load.items():
        assert delta <= state.free_slots(machine_id), (
            f"machine {machine_id} oversubscribed by the merged decision"
        )


def run_churn(seed: int, make_scheduler):
    """Replay the seed's churn script; returns (running_tasks, state).

    The scripted rounds are followed by two quiet settling rounds (no
    mutations): a cross-cell migration planned in round N lands in round
    N+1, so without settling the comparison would penalize the balancer's
    one-round latency rather than its steady-state quality.
    """
    num_machines, machines_per_rack, rounds = make_churn_script(seed)
    state = make_cluster_state(
        num_machines=num_machines, machines_per_rack=machines_per_rack
    )
    scheduler = make_scheduler()
    try:
        for round_index in range(ROUNDS + 2):
            now = round_index * 10.0
            if round_index < ROUNDS:
                job_factories, toggles = rounds[round_index]
                apply_script_round(state, job_factories, toggles, now)
            decision = scheduler.schedule(state, now)
            _assert_decision_sound(state, decision)
            scheduler.apply(state, decision, now)
    finally:
        scheduler.close()
    return len(state.running_tasks()), state


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "policy_factory", (QuincyPolicy, CpuMemoryPolicy), ids=("quincy", "cpu_memory")
)
def test_sharded_matches_monolithic_placement_quality(seed, policy_factory):
    """Same scripted churn, same number of tasks kept running at the end.

    The script is scheduler-independent, so both runs see the identical
    workload and availability timeline.  The balancer is what closes the
    gap: overflow and infeasible-home tasks re-home instead of starving,
    so sharding may not strand work a global solver would have placed.
    """
    mono_running, _ = run_churn(seed, lambda: FirmamentScheduler(policy_factory()))
    for num_cells in (2, 4):
        sharded_running, _ = run_churn(
            seed, lambda: ShardedScheduler(policy_factory, num_cells=num_cells)
        )
        assert sharded_running >= mono_running, (
            f"seed {seed}, {num_cells} cells: sharded kept {sharded_running} "
            f"tasks running, monolithic kept {mono_running}"
        )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "policy_factory",
    (QuincyPolicy, CpuMemoryPolicy, LoadSpreadingPolicy),
    ids=("quincy", "cpu_memory", "load_spreading"),
)
def test_one_cell_sharded_is_the_monolithic_scheduler(seed, policy_factory):
    """One cell, no balancer, same solver: the same decision every round.

    Both schedulers run the one round pipeline; with a single cell holding
    the whole cluster nothing sharded is left to differ, so the decisions
    must be *equal*, not merely equally good.
    """
    num_machines, machines_per_rack, rounds = make_churn_script(seed)
    schedulers = (
        ShardedScheduler(policy_factory, num_cells=1, balance=False),
        FirmamentScheduler(policy_factory(), solver=IncrementalCostScalingSolver()),
    )
    states = [
        make_cluster_state(
            num_machines=num_machines, machines_per_rack=machines_per_rack
        )
        for _ in schedulers
    ]
    for round_index, (job_factories, toggles) in enumerate(rounds):
        now = round_index * 10.0
        decisions = []
        for scheduler, state in zip(schedulers, states):
            apply_script_round(state, job_factories, toggles, now)
            decision = scheduler.schedule(state, now)
            scheduler.apply(state, decision, now)
            decisions.append(decision)
        sharded, mono = decisions
        assert sharded.placements == mono.placements, f"round {round_index}"
        assert sharded.migrations == mono.migrations, f"round {round_index}"
        assert sorted(sharded.preemptions) == sorted(mono.preemptions)
        assert sorted(sharded.unscheduled) == sorted(mono.unscheduled)
        assert sharded.total_cost == mono.total_cost, f"round {round_index}"
        assert sharded.degraded == mono.degraded


@pytest.mark.parametrize("seed", (0, 1))
def test_sharded_worker_mode_matches_inline(seed):
    """Worker subprocesses are an execution strategy, not a policy change.

    Equally-optimal flows may break ties differently across the DIMACS
    round trip, so individual task ids can differ; what must match is
    placement *quality*: the same churn ends with the same number of
    tasks running, and every round's decision is sound.
    """

    def run(workers):
        num_machines, machines_per_rack, rounds = make_churn_script(seed)
        state = make_cluster_state(
            num_machines=num_machines, machines_per_rack=machines_per_rack
        )
        scheduler = ShardedScheduler(QuincyPolicy, num_cells=4, workers=workers)
        try:
            for round_index in range(ROUNDS):
                now = round_index * 10.0
                job_factories, toggles = rounds[round_index]
                apply_script_round(state, job_factories, toggles, now)
                decision = scheduler.schedule(state, now)
                _assert_decision_sound(state, decision)
                scheduler.apply(state, decision, now)
        finally:
            scheduler.close()
        return len(state.running_tasks())

    assert run(workers=True) == run(workers=False)


def test_sharded_simulation_conserves_placements():
    """Full simulator run: apply-or-void conservation holds per round."""
    state = make_cluster_state(
        num_machines=32, machines_per_rack=4, slots_per_machine=4
    )
    config = TraceConfig(
        num_machines=32,
        slots_per_machine=4,
        target_utilization=0.7,
        duration=120.0,
        seed=11,
    )
    generator = GoogleTraceGenerator(config, state.topology)
    scheduler = ShardedScheduler(QuincyPolicy, num_cells=4)
    simulator = ClusterSimulator(
        state, scheduler, SimulationConfig(max_time=120.0)
    )
    simulator.submit_job_stream(generator.iter_jobs())
    try:
        result = simulator.run()
    finally:
        simulator.close()
    counts = verify_placement_conservation(result)
    assert counts["recorded"] == counts["applied"] + counts["voided"]
    assert result.metrics.tasks_placed > 0
    # The sharded observability chain must be threaded end to end.
    solved = [r.statistics.cells_solved for r in result.schedule_records]
    assert any(n >= 1 for n in solved)
    assert len(result.metrics.rounds) == len(result.schedule_records)


def test_sharded_simulation_places_like_monolithic():
    """Same trace replayed: sharded placement count stays within a few
    percent of monolithic (cells constrain candidates; the balancer must
    keep the loss negligible)."""

    def replay(make_scheduler):
        state = make_cluster_state(
            num_machines=32, machines_per_rack=4, slots_per_machine=4
        )
        config = TraceConfig(
            num_machines=32,
            slots_per_machine=4,
            target_utilization=0.6,
            duration=90.0,
            seed=23,
        )
        generator = GoogleTraceGenerator(config, state.topology)
        scheduler = make_scheduler()
        simulator = ClusterSimulator(
            state, scheduler, SimulationConfig(max_time=90.0)
        )
        simulator.submit_job_stream(generator.iter_jobs())
        try:
            result = simulator.run()
        finally:
            simulator.close()
        return result.metrics.tasks_placed

    mono = replay(lambda: FirmamentScheduler(QuincyPolicy()))
    sharded = replay(lambda: ShardedScheduler(QuincyPolicy, num_cells=4))
    assert sharded >= int(mono * 0.95), (
        f"sharded placed {sharded} tasks, monolithic {mono}"
    )


def test_job_spanning_cells_after_rehoming():
    """A job whose tasks end up split across cells keeps every task
    accounted: all placed, none double-placed."""
    state = make_cluster_state(num_machines=4, machines_per_rack=2)
    state.submit_job(make_job(job_id=0, num_tasks=6))  # overflows cell 0
    scheduler = ShardedScheduler(QuincyPolicy, num_cells=2)
    placed = set()
    try:
        for round_index in range(3):
            decision = scheduler.schedule_and_apply(state, now=round_index * 5.0)
            overlap = placed & set(decision.placements)
            assert not overlap, f"tasks placed twice: {overlap}"
            placed |= set(decision.placements)
    finally:
        scheduler.close()
    assert len(placed) == 6
    assert len(state.running_tasks()) == 6
