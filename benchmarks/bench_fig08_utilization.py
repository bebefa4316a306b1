"""Figure 8: relaxation degrades near full cluster utilization.

The paper pushes a 90 %-utilized cluster towards oversubscription by
submitting increasingly large jobs: relaxation's runtime rises rapidly and
crosses cost scaling at roughly 93 % slot utilization, while cost scaling is
insensitive to load.  The benchmark reproduces the sweep at reduced scale
and checks (i) relaxation's runtime grows much faster than cost scaling's
and (ii) relaxation wins the uncontended regime.  Each timing is the median
of ``SAMPLES`` from-scratch solves, so one scheduling hiccup cannot decide
a growth ratio.
"""

from __future__ import annotations

import statistics
import time

import pytest

from benchmarks.common import (
    add_pending_batch_job,
    bench_scale,
    build_cluster_state,
    build_policy_network,
)
from repro.analysis.reporting import format_table
from repro.core import QuincyPolicy
from repro.solvers import CostScalingSolver, RelaxationSolver

MACHINES = 64 * bench_scale()
BASE_UTILIZATION = 0.90
#: Pending-job sizes expressed as a fraction of the cluster's free slots;
#: above 1.0 the cluster is oversubscribed.
PRESSURE_LEVELS = [0.25, 0.75, 1.5, 3.0, 6.0]
#: Solves timed per solver and pressure level; the median is reported.
SAMPLES = 5


def build_network(pressure: float, seed: int = 0):
    state = build_cluster_state(MACHINES, utilization=BASE_UTILIZATION, seed=seed)
    free_slots = state.total_free_slots()
    pending = max(1, int(free_slots * pressure))
    add_pending_batch_job(state, pending, seed=seed + 1, with_locality=False)
    _, network = build_policy_network(state, QuincyPolicy())
    total_slots = state.topology.total_slots
    utilization_after = min(
        1.0 * (total_slots * BASE_UTILIZATION + pending) / total_slots, 2.0
    )
    return network, utilization_after


def median_solve_seconds(solver_class, network) -> float:
    """Median wall clock of ``SAMPLES`` from-scratch solves of ``network``."""
    samples = []
    for _ in range(SAMPLES):
        copy = network.copy()
        start = time.perf_counter()
        solver_class().solve(copy)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_fig08_relaxation_degrades_under_oversubscription(benchmark):
    """Regenerates Figure 8 (scaled down)."""
    # Warm both solvers once so the first pressure level's sample is not a
    # cold-start outlier (it anchors the growth-ratio assertion below).
    warmup_network, _ = build_network(PRESSURE_LEVELS[0])
    RelaxationSolver().solve(warmup_network.copy())
    CostScalingSolver().solve(warmup_network.copy())

    rows = []
    relaxation_times = []
    cost_scaling_times = []
    for pressure in PRESSURE_LEVELS:
        network, utilization = build_network(pressure)
        relaxation_time = median_solve_seconds(RelaxationSolver, network)
        cost_scaling_time = median_solve_seconds(CostScalingSolver, network)
        relaxation_times.append(relaxation_time)
        cost_scaling_times.append(cost_scaling_time)
        rows.append([
            f"{min(utilization, 1.0) * 100:.0f}%" + ("+" if utilization > 1.0 else ""),
            f"{relaxation_time:.3f}",
            f"{cost_scaling_time:.3f}",
        ])
    print()
    print(f"Figure 8: runtime vs slot utilization ({MACHINES} machines, 90% base "
          f"load, median of {SAMPLES} solves)")
    print(format_table(["target utilization", "relaxation [s]", "cost scaling [s]"], rows))

    # Relaxation degrades much faster than cost scaling as pressure rises.
    relaxation_growth = relaxation_times[-1] / max(relaxation_times[0], 1e-9)
    cost_scaling_growth = cost_scaling_times[-1] / max(cost_scaling_times[0], 1e-9)
    print(f"relaxation grew {relaxation_growth:.1f}x, cost scaling {cost_scaling_growth:.1f}x")
    assert relaxation_growth > 2 * cost_scaling_growth
    # In the uncontended regime relaxation wins comfortably.
    assert relaxation_times[0] < cost_scaling_times[0]

    network, _ = build_network(PRESSURE_LEVELS[-1])
    benchmark(lambda: RelaxationSolver().solve(network.copy()))
