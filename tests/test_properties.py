"""Property-based tests on cross-cutting invariants.

These complement the per-module tests with hypothesis-driven checks of the
core data-structure and scheduler invariants: flow conservation, slot
capacity, placement-extraction consistency, and metric sanity.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import FirmamentScheduler, GraphManager, QuincyPolicy, extract_placements
from repro.core.policies import LoadSpreadingPolicy, NetworkAwarePolicy
from repro.flow.validation import check_feasibility
from repro.solvers import CostScalingSolver, RelaxationSolver
from tests.conftest import make_cluster_state, make_job


@st.composite
def cluster_and_workload(draw):
    """A random small cluster plus a random batch workload."""
    num_machines = draw(st.integers(min_value=2, max_value=10))
    slots = draw(st.integers(min_value=1, max_value=3))
    num_jobs = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    state = make_cluster_state(
        num_machines=num_machines,
        machines_per_rack=max(1, num_machines // 2),
        slots_per_machine=slots,
    )
    task_id = 0
    for job_index in range(num_jobs):
        num_tasks = rng.randint(1, 8)
        job = make_job(
            job_id=job_index + 1,
            num_tasks=num_tasks,
            task_id_offset=task_id,
            input_size_gb=rng.choice([0.0, 2.0, 8.0]),
            input_locality={
                rng.randrange(num_machines): rng.uniform(0.1, 0.9)
            } if rng.random() < 0.7 else {},
            network_request_mbps=rng.choice([0, 200, 1_000]),
        )
        task_id += num_tasks
        state.submit_job(job)
    return state


POLICIES = [QuincyPolicy, LoadSpreadingPolicy, NetworkAwarePolicy]


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(state=cluster_and_workload(), policy_index=st.integers(min_value=0, max_value=2))
def test_property_policy_networks_are_well_formed_and_feasible(state, policy_index):
    """Every policy produces a balanced network every solver can route."""
    policy = POLICIES[policy_index]()
    manager = GraphManager(policy)
    network = manager.update(state, now=1.0).copy()
    assert network.validate_structure() == []
    RelaxationSolver().solve(network)
    assert check_feasibility(network) == []


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(state=cluster_and_workload(), policy_index=st.integers(min_value=0, max_value=2))
def test_property_placements_respect_slot_capacity(state, policy_index):
    """Extracted placements never exceed any machine's slot count and every
    placed task appears exactly once."""
    policy = POLICIES[policy_index]()
    manager = GraphManager(policy)
    network = manager.update(state, now=0.0).copy()
    CostScalingSolver().solve(network)
    placements = extract_placements(
        network, manager.task_nodes, manager.machine_nodes, manager.sink_node
    )
    per_machine = {}
    for task_id, machine_id in placements.items():
        per_machine[machine_id] = per_machine.get(machine_id, 0) + 1
    for machine_id, count in per_machine.items():
        machine = state.topology.machine(machine_id)
        already_running = state.task_count_on_machine(machine_id)
        assert count <= machine.num_slots
    assert len(placements) <= len(state.schedulable_tasks())


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(state=cluster_and_workload())
def test_property_scheduler_apply_keeps_state_consistent(state):
    """After applying a decision, machine occupancy matches task records."""
    scheduler = FirmamentScheduler(QuincyPolicy(), solver=CostScalingSolver())
    scheduler.schedule_and_apply(state, now=0.0)
    for machine_id in state.topology.machines:
        on_machine = state.tasks_on_machine(machine_id)
        assert len(on_machine) <= state.topology.machine(machine_id).num_slots
        for task in on_machine:
            assert task.is_running
            assert task.machine_id == machine_id
    for task in state.tasks.values():
        if task.is_running:
            assert task in state.tasks_on_machine(task.machine_id)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(state=cluster_and_workload(), utilization_percent=st.integers(min_value=0, max_value=100))
def test_property_fill_cluster_never_exceeds_target(state, utilization_percent):
    from repro.simulation import fill_cluster_to_utilization

    target = utilization_percent / 100.0
    fill_cluster_to_utilization(state, utilization=target)
    assert state.slot_utilization() <= target + 1.0 / state.topology.total_slots + 1e-9
