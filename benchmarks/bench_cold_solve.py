"""A cold round from 128 to 2 048 machines: what a from-scratch solve costs.

``serve``'s round 1, a chain-broken round, a batch above the delta path's
limit and the first round after ``--recover`` are solved from scratch.  The
round here is the cold one: Quincy's policy over an empty cluster with two
pending tasks per machine, in jobs of 16 with data-locality preferences.
Per size it prints

* the arcs the feasibility pass (``establish_feasible_flow``, the
  breadth-first routing of all supply that precedes cost scaling's
  epsilon ladder) scans per task -- the law asserted: 8x the cluster at
  most doubles it;
* the whole cost-scaling solve, and relaxation's from-scratch solve of the
  same network beside it (the two legs the paper races, ROADMAP item 5).
"""

from __future__ import annotations

import time

from benchmarks.common import add_pending_batch_job, bench_scale, build_cluster_state
from repro.analysis.reporting import format_table
from repro.core import GraphManager, QuincyPolicy
from repro.flow.graph import FlowNetwork
from repro.solvers import CostScalingSolver, RelaxationSolver, SolverStatistics
from repro.solvers.residual import ResidualNetwork

SIZES = [128 * bench_scale(), 512 * bench_scale(), 1024 * bench_scale(),
         2048 * bench_scale()]
TASKS_PER_MACHINE = 2
TASKS_PER_JOB = 16


def cold_network(machines: int) -> FlowNetwork:
    state = build_cluster_state(machines)
    for job in range(machines * TASKS_PER_MACHINE // TASKS_PER_JOB):
        add_pending_batch_job(state, TASKS_PER_JOB, seed=job, job_id=job)
    return GraphManager(QuincyPolicy()).update(state, now=10.0)


def test_cold_solve_scales_with_the_tasks_it_routes():
    rows = []
    scans = {}
    for machines in SIZES:
        network = cold_network(machines)
        tasks = machines * TASKS_PER_MACHINE
        stats = SolverStatistics()
        start = time.perf_counter()
        CostScalingSolver().establish_feasible_flow(ResidualNetwork(network), stats)
        feasibility_s = time.perf_counter() - start
        assert stats.augmentations == tasks
        scans[machines] = stats.arcs_scanned / tasks
        start = time.perf_counter()
        CostScalingSolver().solve(network.copy())
        cost_scaling_s = time.perf_counter() - start
        start = time.perf_counter()
        RelaxationSolver().solve(network.copy())
        relaxation_s = time.perf_counter() - start
        rows.append([
            machines, tasks, f"{scans[machines]:.1f}",
            f"{feasibility_s * 1e3:.1f}", f"{cost_scaling_s * 1e3:.0f}",
            f"{relaxation_s * 1e3:.0f}",
        ])
    print()
    print("Cold round, Quincy policy, 2 pending tasks per machine, jobs of 16")
    print(format_table(
        ["machines", "tasks", "feasibility arcs/task", "feasibility [ms]",
         "cost scaling [ms]", "relaxation [ms]"],
        rows,
    ))
    assert scans[SIZES[-1]] <= 2 * scans[SIZES[0]], scans
