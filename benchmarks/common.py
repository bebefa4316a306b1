"""Shared builders for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures on a
scaled-down cluster (pure-Python MCMF cannot hit 12,500 machines in CI
time).  The scale factor can be raised with the ``REPRO_BENCH_SCALE``
environment variable (1 = CI default, 2/4/8 = larger clusters and longer
traces for closer-to-paper runs); the *shape* of every result -- who wins,
by roughly what factor, where crossovers fall -- is what the benchmarks
reproduce and what ``EXPERIMENTS.md`` records.

Benchmarks print their table or series to stdout (visible with
``pytest --benchmark-only -s``) in addition to pytest-benchmark's timing
statistics for the measured kernel.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Optional, Tuple

from repro.cluster import ClusterState, Job, Task, build_topology
from repro.core import GraphManager, QuincyPolicy
from repro.core.policies.base import SchedulingPolicy
from repro.flow.changes import ChangeBatch
from repro.flow.graph import FlowNetwork
from repro.simulation import fill_cluster_to_utilization


def bench_scale() -> int:
    """Return the benchmark scale factor (>= 1) from the environment."""
    try:
        return max(1, int(os.environ.get("REPRO_BENCH_SCALE", "1")))
    except ValueError:
        return 1


def make_job(
    job_id: int,
    num_tasks: int,
    task_id_offset: int,
    submit_time: float = 0.0,
    duration: Optional[float] = 60.0,
    input_size_gb: float = 0.0,
    locality: Optional[Dict[int, float]] = None,
) -> Job:
    """Build a benchmark job of identical tasks."""
    job = Job(job_id=job_id, submit_time=submit_time)
    for index in range(num_tasks):
        job.add_task(
            Task(
                task_id=task_id_offset + index,
                job_id=job_id,
                duration=duration,
                submit_time=submit_time,
                input_size_gb=input_size_gb,
                input_locality=dict(locality or {}),
            )
        )
    return job


def build_cluster_state(
    num_machines: int,
    slots_per_machine: int = 4,
    machines_per_rack: int = 20,
    utilization: float = 0.0,
    seed: int = 1,
) -> ClusterState:
    """Build a cluster state, optionally pre-filled to a target utilization."""
    topology = build_topology(
        num_machines=num_machines,
        machines_per_rack=machines_per_rack,
        slots_per_machine=slots_per_machine,
    )
    state = ClusterState(topology)
    if utilization > 0:
        fill_cluster_to_utilization(state, utilization, rng=random.Random(seed))
    return state


def add_pending_batch_job(
    state: ClusterState,
    num_tasks: int,
    seed: int = 2,
    with_locality: bool = True,
    job_id: int = 999_000,
    submit_time: float = 0.0,
) -> Job:
    """Submit one pending batch job with randomized data locality."""
    rng = random.Random(seed)
    num_machines = state.topology.num_machines
    job = Job(job_id=job_id, submit_time=submit_time)
    # Space jobs far apart so task ids of consecutive job ids cannot collide
    # (task_id = offset + index).
    offset = 900_000_000 + job_id * 100_000
    for index in range(num_tasks):
        locality: Dict[int, float] = {}
        if with_locality:
            for machine_id in rng.sample(range(num_machines), min(3, num_machines)):
                locality[machine_id] = rng.uniform(0.1, 0.6)
        job.add_task(
            Task(
                task_id=offset + index,
                job_id=job_id,
                duration=60.0,
                submit_time=submit_time,
                input_size_gb=rng.uniform(1.0, 8.0) if with_locality else 0.0,
                input_locality=locality,
            )
        )
    state.submit_job(job)
    return job


def build_policy_network(
    state: ClusterState,
    policy: Optional[SchedulingPolicy] = None,
    now: float = 10.0,
) -> Tuple[GraphManager, FlowNetwork]:
    """Build the scheduling flow network for the state under a policy."""
    manager = GraphManager(policy or QuincyPolicy())
    network = manager.update(state, now=now).copy()
    return manager, network


def rebuild_graph_round(
    manager: GraphManager,
    state: ClusterState,
    now: float,
    previous: Optional[FlowNetwork],
) -> FlowNetwork:
    """The rebuild baseline of one graph round: build the network from
    scratch and diff it against the previous round's (``None`` on the
    first round).  ``manager`` must not be one that also runs
    :meth:`GraphManager.update` -- the build re-syncs its node maps."""
    network = manager._build_full_network(state, now, state.schedulable_tasks())
    if previous is not None:
        ChangeBatch.diff(previous, network)
    return network


def scheduling_network(
    num_machines: int,
    utilization: float = 0.5,
    pending_tasks: Optional[int] = None,
    policy: Optional[SchedulingPolicy] = None,
    seed: int = 3,
) -> FlowNetwork:
    """One-call builder: cluster at a utilization plus a pending batch job."""
    state = build_cluster_state(num_machines, utilization=utilization, seed=seed)
    if pending_tasks is None:
        pending_tasks = num_machines
    add_pending_batch_job(state, pending_tasks, seed=seed + 1)
    _, network = build_policy_network(state, policy)
    return network


#: Header matching :func:`executor_race_row` (for ``format_table``).
EXECUTOR_RACE_HEADER = [
    "executor", "rounds", "wall/round [ms]", "winner-solo/round [ms]",
    "work/round [ms]", "wins (relax/cs)",
]


def executor_race_row(name: str, executor) -> List:
    """One ``format_table`` row of a dual executor's race counters.

    Shared by the fig14 and fig18 executor wall-clock benchmarks so the
    two figures' tables cannot drift apart.
    """
    rounds = max(executor.rounds, 1)
    return [
        name,
        executor.rounds,
        f"{1e3 * executor.total_wall_clock_seconds / rounds:.2f}",
        f"{1e3 * executor.total_winner_runtime_seconds / rounds:.2f}",
        f"{1e3 * executor.total_work_seconds / rounds:.2f}",
        f"{executor.relaxation_wins}/{executor.cost_scaling_wins}",
    ]
