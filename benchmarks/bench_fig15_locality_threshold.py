"""Figure 15 / Table 15b: lower locality thresholds pay off only for Firmament.

The Quincy policy's preference threshold controls how much of a task's input
must be local before a preference arc is added.  Lowering it from 14 % to
2 % adds many arcs: Quincy's cost-scaling runtime blows up (40 s+ in the
paper) while Firmament stays sub-second, and data locality improves from
56 % to 71 % of input bytes.  The benchmark measures solver runtime and the
achieved locality for both thresholds.
"""

from __future__ import annotations

import random
import time

import pytest

from benchmarks.common import bench_scale, build_cluster_state
from repro.analysis.reporting import format_table
from repro.cluster import Job, Task
from repro.core import FirmamentScheduler, GraphManager, QuincyPolicy, extract_placements
from repro.simulation.metrics import input_data_locality
from repro.solvers import CostScalingSolver, RelaxationSolver

MACHINES = 64 * bench_scale()
TASKS = MACHINES
THRESHOLDS = [0.14, 0.02]


def build_state(seed: int = 51):
    """Cluster plus a pending batch job with widely spread block locality."""
    rng = random.Random(seed)
    state = build_cluster_state(MACHINES, utilization=0.3, seed=seed)
    job = Job(job_id=600_000, submit_time=0.0)
    for index in range(TASKS):
        # Many machines hold a small fraction of each input, so the
        # preference threshold decides how many arcs appear.
        locality = {
            machine: rng.uniform(0.02, 0.2)
            for machine in rng.sample(range(MACHINES), min(12, MACHINES))
        }
        job.add_task(
            Task(
                task_id=600_000_000 + index,
                job_id=600_000,
                duration=120.0,
                input_size_gb=rng.uniform(2.0, 8.0),
                input_locality=locality,
            )
        )
    state.submit_job(job)
    return state


def measure(threshold: float):
    policy = QuincyPolicy(machine_preference_threshold=threshold,
                          max_preference_arcs=20)
    state = build_state()
    manager = GraphManager(policy)
    network = manager.update(state, now=5.0).copy()

    start = time.perf_counter()
    RelaxationSolver().solve(network)
    firmament_time = time.perf_counter() - start
    start = time.perf_counter()
    CostScalingSolver().solve(network.copy())
    quincy_time = time.perf_counter() - start

    placements = extract_placements(
        network, manager.task_nodes, manager.machine_nodes, manager.sink_node
    )
    for task_id, machine_id in placements.items():
        # The extracted assignment also covers tasks that were already
        # running (their flow keeps traversing the continuation arc); only
        # pending tasks are newly placed here.
        if state.tasks[task_id].is_running:
            continue
        if state.free_slots(machine_id) > 0:
            state.place_task(task_id, machine_id, now=5.0)
    locality = input_data_locality(state)
    return network.num_arcs, firmament_time, quincy_time, locality


def test_fig15_low_threshold_needs_firmament(benchmark):
    """Regenerates Figure 15a and Table 15b (scaled down)."""
    rows = []
    measurements = {}
    for threshold in THRESHOLDS:
        arcs, firmament_time, quincy_time, locality = measure(threshold)
        measurements[threshold] = (arcs, firmament_time, quincy_time, locality)
        rows.append([
            f"{threshold:.0%}", arcs, f"{firmament_time:.3f}", f"{quincy_time:.3f}",
            f"{locality:.0%}",
        ])
    print()
    print(f"Figure 15 / Table 15b: preference threshold sweep ({MACHINES} machines)")
    print(format_table(
        ["threshold", "graph arcs", "firmament [s]", "quincy (cost scaling) [s]",
         "input locality"],
        rows,
    ))

    arcs_14, firmament_14, quincy_14, locality_14 = measurements[0.14]
    arcs_02, firmament_02, quincy_02, locality_02 = measurements[0.02]
    # The lower threshold adds many arcs and improves locality ...
    assert arcs_02 > arcs_14
    assert locality_02 > locality_14
    # ... and Firmament absorbs the larger graph far better than Quincy.
    assert firmament_02 < quincy_02
    assert firmament_02 <= firmament_14 * 20

    state = build_state()
    policy = QuincyPolicy(machine_preference_threshold=0.02, max_preference_arcs=20)
    manager = GraphManager(policy)
    network = manager.update(state, now=5.0)
    benchmark(lambda: RelaxationSolver().solve(network.copy()))
