"""Figure 12: problem-specific heuristics.

(a) Arc prioritization biases relaxation's tree growth towards nodes with
    demand; the paper reports ~45 % lower runtime on contended graphs.
(b) Efficient task removal drains the stale flow of removed tasks down to
    the sink before incremental cost scaling runs; the paper reports ~10 %.

The benchmark measures both heuristics on/off on the workloads they target
and requires the heuristic never to hurt and to help on the contended case.
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
from repro.cluster import Job, Task
from repro.core import GraphManager, QuincyPolicy
from repro.core.policies import LoadSpreadingPolicy
from repro.solvers import IncrementalCostScalingSolver, RelaxationSolver

MACHINES = 48 * bench_scale()


def contended_network():
    """Load-spreading policy with a big job: the Figure 12a workload."""
    state = build_cluster_state(MACHINES, utilization=0.2, seed=3)
    job = Job(job_id=9_000, submit_time=0.0)
    for index in range(MACHINES * 6):
        job.add_task(Task(task_id=9_000_000 + index, job_id=9_000, duration=120.0))
    state.submit_job(job)
    _, network = build_policy_network(state, LoadSpreadingPolicy())
    return network


def best_of(callable_, repeats=2):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def test_fig12a_arc_prioritization(benchmark):
    """Arc prioritization reduces relaxation work on contended graphs."""
    network = contended_network()
    with_heuristic = RelaxationSolver(arc_prioritization=True)
    without_heuristic = RelaxationSolver(arc_prioritization=False)

    time_with = best_of(lambda: with_heuristic.solve(network.copy()))
    time_without = best_of(lambda: without_heuristic.solve(network.copy()))
    scans_with = with_heuristic.solve(network.copy()).statistics.arcs_scanned
    scans_without = without_heuristic.solve(network.copy()).statistics.arcs_scanned

    print()
    print("Figure 12a: relaxation with/without arc prioritization (AP)")
    print(format_table(
        ["variant", "runtime [s]", "arcs scanned"],
        [["no AP", f"{time_without:.3f}", scans_without],
         ["AP", f"{time_with:.3f}", scans_with]],
    ))
    print(f"runtime reduction: {100 * (1 - time_with / time_without):.0f}%")
    # The heuristic must not scan more arcs; runtime is reported for context
    # but only loosely bounded because the kernels run for milliseconds.
    assert scans_with <= scans_without
    assert time_with <= time_without * 1.5

    benchmark(lambda: RelaxationSolver(arc_prioritization=True).solve(network.copy()))


def test_fig12b_efficient_task_removal(benchmark):
    """Task-removal draining speeds up incremental cost scaling."""
    rng = random.Random(17)

    def run(enabled: bool) -> float:
        state = build_cluster_state(MACHINES, utilization=0.7, seed=21)
        add_pending_batch_job(state, MACHINES // 2, seed=22)
        manager = GraphManager(QuincyPolicy())
        solver = IncrementalCostScalingSolver(efficient_task_removal=enabled)
        solver.solve(manager.update(state, now=10.0))
        # A wave of running tasks completes (the Figure 12b change type).
        running = state.running_tasks()
        for task in rng.sample(running, len(running) // 3):
            state.complete_task(task.task_id, now=20.0)
        network = manager.update(state, now=20.0)
        start = time.perf_counter()
        result = solver.solve(network)
        elapsed = time.perf_counter() - start
        assert result.statistics.warm_start
        return elapsed

    time_without = run(enabled=False)
    time_with = run(enabled=True)
    print()
    print("Figure 12b: incremental cost scaling with/without task removal (TR)")
    print(format_table(
        ["variant", "runtime [s]"],
        [["no TR", f"{time_without:.3f}"], ["TR", f"{time_with:.3f}"]],
    ))
    print(f"runtime reduction: {100 * (1 - time_with / time_without):.0f}%")
    # The heuristic is a modest but real improvement (paper: ~10 %); allow
    # generous noise but it must not make things clearly worse.
    assert time_with <= time_without * 1.5

    benchmark(lambda: run(enabled=True))
