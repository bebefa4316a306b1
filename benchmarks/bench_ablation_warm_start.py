"""Ablation: how the warm-start advantage shrinks with the change-batch size.

Incremental cost scaling reuses the previous run's flow and potentials and
repairs only what the graph changes broke (Section 5.2).  The repair work is
proportional to the size of the change batch, so the warm start should win
clearly when few tasks churn between runs and lose its edge as the batch
approaches the whole workload -- which is exactly why Firmament still keeps
a from-scratch path.  This ablation sweeps the churn fraction and reports
the speedup of the incremental solver over solving from scratch.
"""

from __future__ import annotations

import random
import time

import pytest

from benchmarks.common import (
    add_pending_batch_job,
    bench_scale,
    build_cluster_state,
    build_policy_network,
)
from repro.analysis.reporting import format_table
from repro.core import GraphManager, QuincyPolicy
from repro.solvers import CostScalingSolver, IncrementalCostScalingSolver

MACHINES = 48 * bench_scale()
CHURN_FRACTIONS = (0.02, 0.10, 0.30, 0.60)


def churn_state(state, fraction: float, seed: int) -> None:
    """Complete a fraction of running tasks and submit an equal-sized job."""
    rng = random.Random(seed)
    running = state.running_tasks()
    to_complete = max(1, int(len(running) * fraction))
    for task in rng.sample(running, min(to_complete, len(running))):
        state.complete_task(task.task_id, now=20.0)
    add_pending_batch_job(
        state,
        to_complete,
        seed=seed + 1,
        job_id=700_000 + int(fraction * 1000),
        submit_time=20.0,
    )


def measure_speedup(fraction: float):
    state = build_cluster_state(MACHINES, utilization=0.6, seed=5)
    manager = GraphManager(QuincyPolicy())
    incremental = IncrementalCostScalingSolver()

    incremental.solve(manager.update(state, now=10.0).copy())

    churn_state(state, fraction, seed=int(fraction * 100) + 3)
    network = manager.update(state, now=20.0)

    start = time.perf_counter()
    CostScalingSolver().solve(network.copy())
    scratch = time.perf_counter() - start

    start = time.perf_counter()
    incremental.solve(network.copy())
    warm = time.perf_counter() - start
    return scratch, warm


def test_ablation_warm_start_vs_churn(benchmark):
    """The warm start wins for small change batches and degrades gracefully."""
    rows = []
    speedups = {}
    for fraction in CHURN_FRACTIONS:
        scratch, warm = measure_speedup(fraction)
        speedup = scratch / max(warm, 1e-9)
        speedups[fraction] = speedup
        rows.append(
            [f"{100 * fraction:.0f}%", f"{scratch:.3f}", f"{warm:.3f}", f"{speedup:.2f}x"]
        )

    print()
    print(f"Ablation: incremental warm start vs churn fraction ({MACHINES} machines)")
    print(format_table(
        ["tasks churned", "from scratch [s]", "incremental [s]", "speedup"], rows
    ))

    # Small change batches must benefit clearly from the warm start...
    assert speedups[CHURN_FRACTIONS[0]] > 1.1
    # ...and even the largest batch must not make the incremental path
    # pathologically slower than starting over.
    assert speedups[CHURN_FRACTIONS[-1]] > 0.4

    state = build_cluster_state(MACHINES, utilization=0.6, seed=7)
    add_pending_batch_job(state, MACHINES // 4, seed=8)
    _, network = build_policy_network(state, QuincyPolicy())
    solver = IncrementalCostScalingSolver()
    solver.solve(network.copy())
    benchmark(lambda: solver.solve(network.copy()))
