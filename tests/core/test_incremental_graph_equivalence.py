"""Equivalence suite for per-entity graph derivation: fuzzed and directed.

Patching the persistent network scope by scope must be indistinguishable
from building it from scratch, for *any* sequence of cluster mutations and
for every policy.  A seeded fuzzer drives multi-round cluster churn -- task
submissions, placements, migrations, preemptions, completions, machine
failures and recoveries, monitoring refreshes, job removals -- against a
manager in cross-check mode (``verify_changes=True``), which asserts after
every round that

* the persistent, mutated-in-place network is structurally identical to a
  from-scratch build, the oracle (nodes, supplies, arcs, capacities,
  costs), and
* the directly-emitted :class:`ChangeBatch` replays the previous round's
  network into the oracle's (batch ≡ diff).

Seed luck does not reach every state the single derivation path has to
absorb, so a scripted scenario *directs* each policy at them: another
consumer draining the tracker, tracker overflow, a swapped state object,
whole-job removal with dirty tasks, a machine leaving the topology and one
joining, drain-to-empty and refill.  Every round after the first, fuzzed or
directed, must run as an incremental update; only round 1 builds from
scratch.

On top of the structural check, each round is wired into the cross-solver
equivalence harness: the incremental cost-scaling solver consumes the
directly-emitted batches (delta path) and its optimal cost must match the
networkx oracle, so solver results agree end to end.  The placements read
off that flow close the loop: the assignment map the manager maintains
across rounds must match the full Listing-1 walk (assigned set, per-machine
counts, exactly on directly routed tasks) and equal re-deriving every task.

Tier-1 runs 12 seeds for each of the six policies; the CI job runs this
file in a dedicated fail-fast step.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.cluster.machine import Machine
from repro.core import GraphManager
from repro.core.placement import FlowAssignments
from repro.core.policies import (
    CpuMemoryPolicy,
    LoadSpreadingPolicy,
    NetworkAwarePolicy,
    QuincyPolicy,
    RandomPlacementPolicy,
    ShortestJobFirstPolicy,
)
from repro.solvers import IncrementalCostScalingSolver
from tests.conftest import make_cluster_state, make_job, reference_min_cost

#: Tier-1 seed set, run for every policy.
TIER1_SEEDS = range(12)
ROUNDS = 6

POLICIES = {
    "quincy": QuincyPolicy,
    "cpu_memory": CpuMemoryPolicy,
    "load_spreading": LoadSpreadingPolicy,
    "network_aware": NetworkAwarePolicy,
    "random_placement": lambda: RandomPlacementPolicy(seed=3),
    "shortest_job_first": ShortestJobFirstPolicy,
}


def _random_job(rng: random.Random, job_id: int, num_machines: int, now: float):
    """A job with fuzzed size, locality, priority, and input volume."""
    num_tasks = rng.randint(1, 5)
    locality = {}
    for machine_id in rng.sample(range(num_machines), rng.randint(0, min(4, num_machines))):
        locality[machine_id] = round(rng.uniform(0.05, 0.7), 2)
    job = make_job(
        job_id=job_id,
        num_tasks=num_tasks,
        submit_time=now,
        input_size_gb=round(rng.uniform(0.0, 8.0), 2),
        input_locality=locality,
    )
    for task in job.tasks:
        task.priority = rng.choice((0, 0, 1, 10))
        task.cpu_request = rng.choice((0.5, 1.0, 2.0))
        task.ram_request_gb = rng.choice((1.0, 2.0, 4.0))
        task.network_request_mbps = rng.choice((0, 0, 200, 600, 4000))
    return job


def _mutate_cluster(rng: random.Random, state, now: float, next_job_id: int) -> int:
    """Apply a random batch of cluster mutations; returns the next job id."""
    for _ in range(rng.randint(1, 5)):
        operation = rng.random()
        if operation < 0.30:
            state.submit_job(
                _random_job(rng, next_job_id, state.topology.num_machines, now)
            )
            next_job_id += 1
        elif operation < 0.55:
            pending = state.pending_tasks()
            if pending:
                task = rng.choice(pending)
                candidates = [
                    m
                    for m in state.topology.machines
                    if state.free_slots(m) > 0
                ]
                if candidates:
                    state.place_task(task.task_id, rng.choice(candidates), now)
        elif operation < 0.70:
            running = state.running_tasks()
            if running:
                task = rng.choice(running)
                if rng.random() < 0.5:
                    state.complete_task(task.task_id, now)
                else:
                    state.preempt_task(task.task_id, now)
        elif operation < 0.80:
            running = state.running_tasks()
            if running:
                task = rng.choice(running)
                candidates = [
                    m
                    for m in state.topology.machines
                    if state.free_slots(m) > 0 and m != task.machine_id
                ]
                if candidates:
                    state.migrate_task(task.task_id, rng.choice(candidates), now)
        elif operation < 0.90:
            machine_ids = list(state.topology.machines)
            machine = state.topology.machine(rng.choice(machine_ids))
            available = [
                m
                for m in state.topology.machines.values()
                if m.is_available
            ]
            if machine.is_available and len(available) > 1:
                state.fail_machine(machine.machine_id, now)
            elif not machine.is_available:
                state.recover_machine(machine.machine_id, now)
        elif operation < 0.97:
            machine_id = rng.choice(list(state.topology.machines))
            state.monitor.record_network_use(
                machine_id, rng.randint(0, 2000), now
            )
        else:
            # Remove a fully terminated job, if any exists.
            for job_id, job in list(state.jobs.items()):
                if all(
                    not (t.is_pending or t.is_running) for t in job.tasks
                ) and job.tasks:
                    state.remove_job(job_id)
                    break
    return next_job_id


class _CheckedRounds:
    """A cross-checking manager plus the per-round assertions."""

    def __init__(self, policy, label: str) -> None:
        self.policy = policy
        self.manager = GraphManager(policy, verify_changes=True)
        self.solver = IncrementalCostScalingSolver()
        self.label = label
        self.rounds = 0
        #: Rounds whose extraction carried some task's placement over.
        self.partial_extractions = 0

    def feed_pricing_inputs(self, rng: random.Random, state) -> None:
        """Move the policy's pricing state that raises no dirty event: a
        clean task must not keep the arc cost it was derived with."""
        knowledge_base = getattr(self.policy, "knowledge_base", None)
        if knowledge_base is not None and state.tasks:
            task = state.tasks[rng.choice(sorted(state.tasks))]
            knowledge_base.record_completion(task, rng.uniform(1.0, 300.0))

    def update(self, state, now: float):
        """One round: update (cross-checked against the oracle inside the
        manager), then solve from the emitted batch against networkx."""
        manager = self.manager
        network = manager.update(state, now)
        where = f"{self.label} round {self.rounds}"
        stats = manager.last_update_stats
        assert stats.mode == ("incremental" if self.rounds else "full"), where
        assert manager.full_updates == 1, where
        assert network.copy().validate_structure() == [], f"{where}: invalid network"
        self.rounds += 1
        if not manager.task_nodes:
            assert network.num_nodes == 0, where
            self.solver.reset()
            return stats
        # Wire into the solver equivalence harness: the incremental solver
        # consumes the directly-emitted batch; its cost must match the
        # oracle.
        result = self.solver.solve(network, changes=manager.last_changes)
        expected = reference_min_cost(network.copy())
        assert result.total_cost == expected, (
            f"{where}: incremental solver found {result.total_cost}, "
            f"oracle says {expected}"
        )
        # The maintained assignments: cross-checked against the full walk
        # inside the manager, and equal to re-deriving every task.
        maintained = dict(manager.extract_assignments())
        self.partial_extractions += (
            manager.flow_assignments.last_reextracted < len(manager.task_nodes)
        )
        every_task = FlowAssignments().update(network, manager.task_nodes, None)
        assert maintained == every_task, where
        return stats


def run_fuzzed_rounds(seed: int, policy_factory) -> None:
    """Drive fuzzed churn through a cross-checking incremental manager."""
    rng = random.Random(seed)
    state = make_cluster_state(
        num_machines=rng.choice((4, 6, 8)), machines_per_rack=rng.choice((2, 3, 4))
    )
    state.submit_job(_random_job(rng, 1, state.topology.num_machines, 0.0))
    next_job_id = 2

    rounds = _CheckedRounds(policy_factory(), f"seed {seed}")
    for round_index in range(ROUNDS):
        now = round_index * 10.0
        if round_index:
            next_job_id = _mutate_cluster(rng, state, now, next_job_id)
            rounds.feed_pricing_inputs(rng, state)
        rounds.update(state, now)


@pytest.mark.parametrize("seed", TIER1_SEEDS)
@pytest.mark.parametrize("name", sorted(POLICIES))
def test_fuzzed_incremental_equivalence(name, seed):
    run_fuzzed_rounds(seed, POLICIES[name])


def test_aggressive_quincy_threshold_incremental_equivalence():
    """The Figure-15 aggressive threshold (2%) builds many more preference
    arcs; the incremental path must keep up with the denser graphs."""
    run_fuzzed_rounds(
        101,
        lambda: QuincyPolicy(machine_preference_threshold=0.02),
    )


def _place_some(rng: random.Random, state, now: float, count: int) -> None:
    for task in state.pending_tasks()[:count]:
        candidates = [m for m in state.topology.machines if state.free_slots(m) > 0]
        if candidates:
            state.place_task(task.task_id, rng.choice(candidates), now)


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_directed_rounds_absorbed_by_the_incremental_path(name):
    """Each state that used to force a rebuild is one all-dirty round."""
    rng = random.Random(16)
    state = make_cluster_state(num_machines=6, machines_per_rack=3)
    for job_id in (1, 2, 3):
        state.submit_job(_random_job(rng, job_id, 6, 0.0))
    _place_some(rng, state, 0.0, 4)
    rounds = _CheckedRounds(POLICIES[name](), name)

    def advance(expect_all_dirty: bool):
        rounds.feed_pricing_inputs(rng, state)
        stats = rounds.update(state, now=rounds.rounds * 10.0)
        if expect_all_dirty:
            live = len(state.schedulable_tasks())
            healthy = len(state.topology.healthy_machines()) if live else 0
            assert (stats.dirty_tasks, stats.dirty_machines) == (live, healthy)

    advance(False)  # round 1: the only from-scratch build

    # Ordinary low-churn round.
    _place_some(rng, state, 10.0, 2)
    advance(False)

    # Another consumer drains the tracker: the events are gone.
    state.complete_task(state.running_tasks()[0].task_id, 20.0)
    state.submit_job(_random_job(rng, 4, 6, 20.0))
    state.dirty.drain()
    advance(True)

    # Tracker overflow collapses the sets into ``full``.
    state.preempt_task(state.running_tasks()[0].task_id, 30.0)
    state.monitor.record_network_use(2, 9000, 30.0)
    state.dirty.mark_all()
    advance(True)

    # The manager is pointed at another state object (a faithful clone).
    state = copy.deepcopy(state)
    _place_some(rng, state, 40.0, 2)
    advance(True)

    # Whole-job removal while its tasks are dirty: they vanish from
    # ``state.tasks`` and cannot be resolved any more.
    doomed = next(job for job in state.jobs.values() if any(t.is_running for t in job.tasks))
    for task in doomed.tasks:
        if task.is_running:
            state.complete_task(task.task_id, 50.0)
    state.remove_job(doomed.job_id)
    advance(True)

    # A machine leaves the topology entirely, another one joins a new rack.
    leaving = max(state.topology.machines, key=state.task_count_on_machine)
    state.fail_machine(leaving, 60.0)
    state.topology.remove_machine(leaving)
    state.add_machine(Machine(machine_id=40, rack_id=9, num_slots=3))
    advance(False)

    # Drain to empty, stay empty, refill.
    for task in state.running_tasks():
        state.complete_task(task.task_id, 70.0)
    for job_id in list(state.jobs):
        state.remove_job(job_id)
    advance(True)
    assert rounds.manager.network.num_nodes == 0
    advance(True)
    state.submit_job(_random_job(rng, 5, 6, 90.0))
    state.submit_job(_random_job(rng, 6, 6, 90.0))
    _place_some(rng, state, 90.0, 3)
    advance(True)

    # And the chain is whole again: a quiet round re-derives nothing.
    stats = rounds.update(state, now=rounds.rounds * 10.0)
    assert (stats.dirty_tasks, stats.dirty_machines) == (0, 0)
    # The ordinary rounds carried placements over; all-dirty ones cannot.
    assert rounds.partial_extractions >= 2


def test_incremental_rounds_dominate_on_low_churn():
    """Steady-state rounds must take the incremental path, not fall back."""
    state = make_cluster_state(num_machines=8)
    state.submit_job(make_job(job_id=1, num_tasks=8))
    manager = GraphManager(QuincyPolicy(), verify_changes=True)
    for round_index in range(5):
        manager.update(state, now=round_index * 5.0)
    assert manager.full_updates == 1  # only the initial build
    assert manager.incremental_updates == 4


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_a_machine_that_joins_alone_reaches_every_dependent_task(name):
    """A task whose arcs depend on the healthy set as a whole (the random
    policy samples it) is re-derived when a machine *joins* -- a machine no
    task could have named as a dependency before it existed."""
    rng = random.Random(3)
    state = make_cluster_state(num_machines=4, machines_per_rack=2)
    state.submit_job(_random_job(rng, 1, 4, 0.0))
    rounds = _CheckedRounds(POLICIES[name](), name)
    rounds.update(state, 0.0)
    state.add_machine(Machine(machine_id=40, rack_id=9, num_slots=2))
    rounds.update(state, 1.0)
    state.fail_machine(40, 2.0)
    rounds.update(state, 2.0)
