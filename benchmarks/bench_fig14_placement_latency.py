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
from repro.solvers import CostScalingSolver, DualAlgorithmExecutor

MACHINES = 48 * bench_scale()
UTILIZATION = 0.9
TRACE_SECONDS = 60.0

#: Cluster size for the executor's wall-clock check.  Larger than the
#: latency CDF runs so each solver round is milliseconds, not
#: microseconds: the round's fixed costs (the flow write-back, the
#: executor's bookkeeping) must be small relative to the winner's runtime
#: for the acceptance bound to measure the executor, not the machine.
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


def test_fig14_executor_wall_clock_tracks_winner(benchmark):
    """The executor's real wall clock per round tracks the winner's runtime.

    The executor runs incremental cost scaling alone on every round whose
    batch chains onto its residual, and races both legs back to back only
    on the rounds that do not chain, where the winner's runtime is the
    modeled latency but the wall clock pays both.  On the fig14 workload
    its measured steady-state wall clock per round must stay within 60 %
    of the winning algorithm's solo runtime -- the insurance is
    (measurably) cheap because it is only bought where it is contested
    (``benchmarks/bench_race_table.py`` times both legs on every round).
    """
    executor = DualAlgorithmExecutor()
    scheduler = FirmamentScheduler(QuincyPolicy(), solver=executor)
    # One warm-up round pays the one-time costs (module imports, cold
    # allocator) before measurement.
    warmup = build_cluster_state(RACE_MACHINES, utilization=UTILIZATION, seed=40)
    scheduler.schedule(warmup, now=0.0)
    executor.reset_counters()
    run = replay(scheduler, machines=RACE_MACHINES)

    print()
    print(f"Figure 14 executor: real wall clock per round, {RACE_MACHINES} "
          f"machines at {UTILIZATION:.0%} utilization")
    print(format_table(
        EXECUTOR_RACE_HEADER,
        [executor_race_row("dual executor", executor)],
    ))
    print(f"rounds run solo (chained): {executor.solo_delta_rounds} of "
          f"{executor.rounds}")

    assert executor.rounds > 0
    overhead = executor.total_wall_clock_seconds / max(
        executor.total_winner_runtime_seconds, 1e-9
    )
    print(f"wall clock / winner solo runtime: {overhead:.3f}x")
    # Acceptance criterion: measured wall clock within 60 % of the winning
    # algorithm's solo runtime (not the sum of both algorithms) ...
    assert overhead <= 1.6
    # ... while the wall clock still pays (at least) every leg it ran.
    assert executor.total_wall_clock_seconds >= executor.total_work_seconds * 0.95
    assert run.metrics.tasks_placed > 0

    # Benchmark kernel: one round on the final network, handed no batch, so
    # it races both legs.
    network = scheduler.last_network
    benchmark(lambda: DualAlgorithmExecutor().solve(network.copy()))
