"""Figure 14: Firmament's task placement latency vs Quincy's.

The paper replays the Google trace on a 12,500-machine cluster at 90 % slot
utilization: Quincy (from-scratch cost scaling) takes 25-60 s to place
tasks, Firmament typically places them in hundreds of milliseconds -- a more
than 20x improvement at identical placement quality.  The benchmark replays
a scaled-down synthetic trace against both configurations and reports the
placement-latency CDF, the speedup, and the alpha-factor ablation the paper
mentions in Section 7.2 (alpha = 9 is ~30 % faster than cs2's default of 2).
"""

from __future__ import annotations

import time

import pytest

from benchmarks.common import (
    EXECUTOR_RACE_HEADER,
    bench_scale,
    build_cluster_state,
    executor_race_row,
)
from repro.analysis.reporting import format_table
from repro.analysis.stats import percentile
from repro.baselines import make_quincy_scheduler
from repro.core import FirmamentScheduler, QuincyPolicy
from repro.simulation import (
    ClusterSimulator,
    GoogleTraceGenerator,
    SimulationConfig,
    TraceConfig,
)
from repro.solvers import CostScalingSolver, DualAlgorithmExecutor, ParallelDualExecutor

MACHINES = 48 * bench_scale()
UTILIZATION = 0.9
TRACE_SECONDS = 60.0

#: Cluster size for the executor-race comparison.  Larger than the latency
#: CDF runs so each solver round is tens of milliseconds: the race's fixed
#: costs (IPC, pipe polling granularity, OS scheduling quanta on shared
#: cores) must be small relative to the winner's runtime for the
#: within-25 % acceptance bound to measure the executor, not the machine.
RACE_MACHINES = 96 * bench_scale()


def replay(scheduler, machines: int = None):
    """Replay the same synthetic trace snippet against a scheduler."""
    machines = machines or MACHINES
    state = build_cluster_state(machines, utilization=UTILIZATION, seed=41)
    config = TraceConfig(
        num_machines=machines,
        slots_per_machine=4,
        target_utilization=0.3,  # arrivals on top of the 90% pre-fill
        duration=TRACE_SECONDS,
        seed=42,
        service_job_fraction=0.1,
    )
    simulator = ClusterSimulator(state, scheduler, SimulationConfig(max_time=TRACE_SECONDS))
    simulator.submit_job_stream(GoogleTraceGenerator(config).iter_jobs())
    return simulator.run()


def arrival_latencies(run):
    """Placement latencies of the *trace arrivals* only.

    The cluster is pre-filled to 90 % utilization at t=0; those tasks are
    placed instantly and would dilute the latency distribution with zeros
    (the seed version of this benchmark measured exactly that, making every
    median 0.0).  The figure is about the tasks that arrive while the
    scheduler is running.
    """
    return [
        task.placement_latency()
        for task in run.state.tasks.values()
        if task.submit_time > 0 and task.placement_latency() is not None
    ]


def test_fig14_firmament_places_tasks_much_faster_than_quincy(benchmark):
    """Regenerates Figure 14 (scaled down) plus the alpha ablation."""
    firmament_run = replay(FirmamentScheduler(QuincyPolicy()))
    quincy_run = replay(make_quincy_scheduler())
    quincy_tuned_run = replay(make_quincy_scheduler(alpha=9))

    def latency_row(name, run):
        latencies = arrival_latencies(run)
        return [
            name,
            f"{percentile(latencies, 50):.3f}",
            f"{percentile(latencies, 90):.3f}",
            f"{percentile(latencies, 99):.3f}",
            len(latencies),
        ]

    rows = [
        latency_row("firmament (dual)", firmament_run),
        latency_row("quincy (cost scaling, alpha=2)", quincy_run),
        latency_row("quincy (cost scaling, alpha=9)", quincy_tuned_run),
    ]
    print()
    print(f"Figure 14: task placement latency [s], {MACHINES} machines at "
          f"{UTILIZATION:.0%} utilization")
    print(format_table(["scheduler", "p50", "p90", "p99", "tasks"], rows))

    firmament_p50 = percentile(arrival_latencies(firmament_run), 50)
    quincy_p50 = percentile(arrival_latencies(quincy_run), 50)
    speedup = quincy_p50 / max(firmament_p50, 1e-9)
    print(f"median placement latency speedup: {speedup:.1f}x")
    # Firmament is substantially faster (the paper reports >20x at full
    # scale; the gap shrinks on small clusters but must stay clear).
    assert speedup > 1.5

    # Placement quality is unchanged: both place essentially every task.
    assert firmament_run.metrics.tasks_placed >= quincy_run.metrics.tasks_placed * 0.95

    # Alpha ablation: the tuned alpha must not be slower overall.
    alpha2_runtime = sum(quincy_run.metrics.algorithm_runtimes)
    alpha9_runtime = sum(quincy_tuned_run.metrics.algorithm_runtimes)
    print(f"total solver runtime: alpha=2 {alpha2_runtime:.2f}s, alpha=9 {alpha9_runtime:.2f}s")
    assert alpha9_runtime <= alpha2_runtime * 1.3

    benchmark(lambda: replay(FirmamentScheduler(QuincyPolicy())))


def test_fig14_parallel_executor_wall_clock_tracks_winner(benchmark):
    """The real race costs ~the winner's runtime per round, not the sum.

    The sequential executor *models* the paper's concurrent deployment (it
    reports min() but pays the sum in wall clock); the parallel executor
    races the algorithms across processes for real.  On the fig14 workload
    its measured steady-state wall clock per round must track the winning
    algorithm's solo runtime -- the speculation is (measurably) cheap,
    even when parent and worker share cores.  The tolerated ratio is 60 %:
    since the PR 5 relaxation overhaul the worker side wins a substantial
    share of the raced rounds in a few milliseconds each, so the fixed
    IPC round trip (ship + response pickling + parent abort latency) is a
    visibly larger *fraction* of the shrunken winner runtime even though
    the absolute wall clock per round went down -- what must stay
    impossible is the sum-shaped cost, pinned against the sequential
    executor's measured work below.
    """
    sequential = DualAlgorithmExecutor()
    replay(FirmamentScheduler(QuincyPolicy(), solver=sequential), machines=RACE_MACHINES)

    parallel = ParallelDualExecutor()
    scheduler = FirmamentScheduler(QuincyPolicy(), solver=parallel)
    try:
        # One warm-up race pays the one-time costs (worker spawn, module
        # imports in the subprocess, cold allocator) before measurement.
        warmup = build_cluster_state(RACE_MACHINES, utilization=UTILIZATION, seed=40)
        scheduler.schedule(warmup, now=0.0)
        parallel.reset_counters()
        parallel_run = replay(scheduler, machines=RACE_MACHINES)
    finally:
        parallel.close()

    print()
    print(f"Figure 14 executor race: real wall clock per round, {RACE_MACHINES} "
          f"machines at {UTILIZATION:.0%} utilization")
    print(format_table(
        EXECUTOR_RACE_HEADER,
        [
            executor_race_row("sequential (modeled race)", sequential),
            executor_race_row("parallel (subprocess race)", parallel),
        ],
    ))

    assert parallel.rounds > 0
    assert parallel.fallback_rounds == 0, "the race must not have fallen back"
    overhead = parallel.total_wall_clock_seconds / max(
        parallel.total_winner_runtime_seconds, 1e-9
    )
    print(f"parallel wall clock / winner solo runtime: {overhead:.3f}x")
    # Acceptance criterion: measured wall clock within 60 % of the winning
    # algorithm's solo runtime (not the sum of both algorithms) ...
    assert overhead <= 1.6
    # ... and strictly below the sum the sequential executor pays for the
    # same rounds (racing must never cost sum-shaped wall clock).
    assert (
        parallel.total_wall_clock_seconds / max(parallel.rounds, 1)
        < sequential.total_work_seconds / max(sequential.rounds, 1)
    )
    # The sequential executor, by construction, pays (at least) the sum.
    assert sequential.total_wall_clock_seconds >= sequential.total_work_seconds * 0.95
    # Placement behaviour is unchanged by the executor strategy.
    assert parallel_run.metrics.tasks_placed > 0

    # Benchmark kernel: one parallel race round on the final network.
    network = scheduler.last_network
    racer = ParallelDualExecutor()
    try:
        racer.solve(network.copy())
        benchmark(lambda: racer.solve(network.copy()))
    finally:
        racer.close()
