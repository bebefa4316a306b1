"""Figure 18: keeping up with an accelerated Google trace.

The paper divides all task runtimes and interarrival times in the Google
trace by a speedup factor, simulating a future workload of ever shorter
tasks, and measures task placement latency.  Relaxation alone develops tail
latencies above ten seconds beyond a 150x speedup, while Firmament (running
both algorithms) keeps up to 250-300x.  The benchmark accelerates the
synthetic trace on a scaled-down cluster and compares Firmament against the
relaxation-only configuration.

The replays use the trace generator's **constant-service-load** mode: the
long-running service jobs are pinned to a fixed t=0 allotment instead of
scaling their arrivals with the speedup.  Without it, accelerated replays
multiply service-job arrivals whose never-completing tasks hold their slots
forever, so beyond roughly 8x service work swallowed every slot and the
experiment stopped exercising batch placement at all (see EXPERIMENTS.md,
PR 1).  With it the sweep pushes to 16x and beyond.

The Firmament replays run the
:class:`~repro.solvers.dual_executor.DualAlgorithmExecutor`: a round whose
batch chains onto the cost-scaling leg's residual (every round after the
first here, hundreds of task arrivals and completions per batch at 16x)
runs incremental cost scaling alone, and only a round that does not chain
races relaxation against it.  A second test pins that only the first
round races at every speedup, and the executor's real wall clock per round
to within 60 % of the winner's solo runtime from 4x on.
"""

from __future__ import annotations

import pytest

from benchmarks.common import (
    EXECUTOR_RACE_HEADER,
    bench_scale,
    build_cluster_state,
    executor_race_row,
)
from repro.analysis.reporting import format_table
from repro.analysis.stats import percentile
from repro.core import FirmamentScheduler, QuincyPolicy
from repro.simulation import (
    ClusterSimulator,
    GoogleTraceGenerator,
    SimulationConfig,
    TraceConfig,
)
from repro.solvers import DualAlgorithmExecutor, RelaxationSolver

MACHINES = 32 * bench_scale()
SPEEDUPS = [1.0, 4.0, 16.0]
TRACE_SECONDS = 25.0


def replay(speedup: float, solver):
    state = build_cluster_state(MACHINES, utilization=0.6, seed=71)
    config = TraceConfig(
        num_machines=MACHINES,
        slots_per_machine=4,
        target_utilization=0.35,
        duration=TRACE_SECONDS,
        speedup=speedup,
        seed=72,
        service_job_fraction=0.1,
        mean_batch_task_duration=30.0,
        constant_service_load=True,
    )
    scheduler = FirmamentScheduler(QuincyPolicy(), solver=solver) if solver else \
        FirmamentScheduler(QuincyPolicy())
    # Batch scheduling rounds at 2 Hz and skip the drain phase: the
    # scheduler gets charged the *effective* (winner's) runtime, so
    # without an interval the simulator would re-run the solver after
    # every single completion event -- hundreds of rounds per simulated
    # minute measuring the same latencies at many times the benchmark's
    # wall cost.  All configurations share the settings, so the comparison is
    # unchanged.
    simulator = ClusterSimulator(
        state,
        scheduler,
        SimulationConfig(
            max_time=TRACE_SECONDS, min_scheduler_interval=0.5, drain=False
        ),
    )
    simulator.submit_job_stream(GoogleTraceGenerator(config).iter_jobs())
    try:
        result = simulator.run()
    finally:
        simulator.close()
    return result, scheduler


def test_fig18_firmament_keeps_up_with_accelerated_traces(benchmark):
    """Regenerates Figure 18 (scaled down, constant service load, to 16x)."""
    rows = []
    stats = {}
    for speedup in SPEEDUPS:
        firmament_run, _ = replay(speedup, solver=DualAlgorithmExecutor())
        relaxation_run, _ = replay(speedup, solver=RelaxationSolver())
        firmament_p99 = percentile(firmament_run.metrics.placement_latencies, 99)
        relaxation_p99 = percentile(relaxation_run.metrics.placement_latencies, 99)
        stats[speedup] = (firmament_p99, relaxation_p99,
                          firmament_run.metrics.tasks_placed,
                          relaxation_run.metrics.tasks_placed)
        rows.append([
            f"{speedup:.0f}x",
            firmament_run.metrics.tasks_placed,
            f"{percentile(firmament_run.metrics.placement_latencies, 50):.3f}",
            f"{firmament_p99:.3f}",
            f"{relaxation_p99:.3f}",
        ])
    print()
    print(f"Figure 18: placement latency vs trace speedup ({MACHINES} machines, "
          "constant service load)")
    print(format_table(
        ["speedup", "tasks placed (firmament)", "firmament p50 [s]",
         "firmament p99 [s]", "relaxation-only p99 [s]"],
        rows,
    ))

    # Firmament keeps placing the accelerated workload (more tasks arrive at
    # higher speedups, and they all get placed) ...
    assert stats[SPEEDUPS[-1]][2] > stats[SPEEDUPS[0]][2]
    # ... and its tail latency never exceeds the relaxation-only
    # configuration's by more than measurement noise.  The additive guard
    # covers the near-zero-latency regime (low speedups place in
    # milliseconds, where the real race's IPC and scheduling overhead on
    # shared cores is the whole number); the figure's signal is the
    # multi-second divergence at high speedups, which the multiplicative
    # bound pins.
    for speedup in SPEEDUPS:
        firmament_p99, relaxation_p99, *_ = stats[speedup]
        assert firmament_p99 <= relaxation_p99 * 1.25 + 0.1

    # One timed replay: constant-service-load rounds do real scheduling
    # work at every speedup, so calibrated multi-round timing would cost
    # minutes for no extra signal.
    def timed_replay():
        replay(SPEEDUPS[1], solver=DualAlgorithmExecutor())

    benchmark.pedantic(timed_replay, rounds=1, iterations=1)


def test_fig18_executor_wall_clock_tracks_winner(benchmark):
    """The executor's real wall clock per round tracks the winner's runtime.

    On a round that does not chain the executor runs both legs back to
    back: the winner's runtime is the modeled latency, and the wall clock
    pays the sum.  Every other round runs cost scaling alone, so the wall
    clock is that one leg.  At every speedup only the replay's first round
    races.  From 4x on, where the replay has tens of rounds, the measured
    wall clock must stay within 60 % of the winner's solo runtime -- the
    race's second leg is paid only on the round where it is contested.
    The 1x replay has four rounds, so its ratio (~3.8x) is mostly round
    1's cold race, whose loser -- a cold cost-scaling solve -- is paid by
    design; it is printed, not bounded.
    """
    rows = []
    overheads = {}
    for speedup in sorted({*SPEEDUPS, 8.0}):
        executor = DualAlgorithmExecutor()
        run, _ = replay(speedup, solver=executor)
        assert executor.rounds > 0
        assert run.metrics.tasks_placed > 0
        assert executor.rounds - executor.solo_delta_rounds == 1, speedup
        overheads[speedup] = executor.total_wall_clock_seconds / max(
            executor.total_winner_runtime_seconds, 1e-9
        )
        rows.append(executor_race_row(f"{speedup:.0f}x", executor))
    print()
    print(f"Figure 18 executor wall clock ({MACHINES} machines)")
    print(format_table(EXECUTOR_RACE_HEADER, rows))
    print("wall clock / winner solo runtime: " + ", ".join(
        f"{speedup:.0f}x {overhead:.3f}" for speedup, overhead in overheads.items()
    ))
    for speedup, overhead in overheads.items():
        if speedup >= 4.0:
            assert overhead <= 1.6, f"{speedup:.0f}x: {overhead:.3f}"

    def timed_replay():
        replay(8.0, solver=DualAlgorithmExecutor())

    benchmark.pedantic(timed_replay, rounds=1, iterations=1)
