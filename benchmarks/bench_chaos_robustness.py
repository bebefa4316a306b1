"""Chaos robustness: placement quality and round latency under injected faults.

The paper's production claim (Section 5.2, fig10/fig14) is sub-second task
placement *sustained* -- which a single bad worker process, broken pipe, or
corrupted solver state must not be able to break.  This benchmark replays
the fig14-style synthetic trace once fault-free and once per chaos fault
class (at an aggressive 50 % per-round rate), and reports per class:

* the placement-quality delta vs the fault-free run (tasks placed, and the
  p50 placement latency ratio),
* the p50/p99 scheduler round wall clock, and
* the degraded-round / respawn / breaker counters surfaced through
  ``ScheduleRecord`` -> ``MetricsSummary``.

The acceptance criteria encode the self-healing contract: every run
completes, places the same tasks as the fault-free oracle run, and keeps
its p99 round wall clock within a small multiple of fault-free -- faults
cost a recovery (respawn, full resnapshot, warm rebuild), never a stall.
"""

from __future__ import annotations

import pytest

from benchmarks.common import bench_scale, build_cluster_state
from repro.analysis.reporting import format_table
from repro.analysis.stats import percentile
from repro.chaos import FAULT_KINDS, ChaosPolicy
from repro.core import FirmamentScheduler, QuincyPolicy
from repro.simulation import (
    ClusterSimulator,
    GoogleTraceGenerator,
    SimulationConfig,
    TraceConfig,
)
from repro.solvers import ParallelDualExecutor

MACHINES = 32 * bench_scale()
UTILIZATION = 0.8
TRACE_SECONDS = 45.0
FAULT_RATE = 0.5


def replay_with_chaos(chaos=None):
    """Replay the synthetic trace snippet under an optional chaos policy."""
    state = build_cluster_state(MACHINES, utilization=UTILIZATION, seed=61)
    # delta_solo_threshold=0 consults the worker every round so the
    # transport fault classes are actually exercised each round.
    solver = ParallelDualExecutor(delta_solo_threshold=0)
    scheduler = FirmamentScheduler(QuincyPolicy(), solver=solver, chaos=chaos)
    config = TraceConfig(
        num_machines=MACHINES,
        slots_per_machine=4,
        target_utilization=0.3,
        duration=TRACE_SECONDS,
        # Compress interarrivals so the 45 s snippet yields a couple of
        # hundred scheduler rounds -- enough rounds for a meaningful p99
        # and for the per-round fault rate to deliver dozens of faults.
        speedup=2.0,
        constant_service_load=True,
        seed=62,
        service_job_fraction=0.1,
    )
    simulator = ClusterSimulator(
        state, scheduler, SimulationConfig(max_time=TRACE_SECONDS)
    )
    simulator.submit_job_stream(GoogleTraceGenerator(config).iter_jobs())
    try:
        result = simulator.run()
    finally:
        simulator.close()
    return result, solver


def test_chaos_robustness_placement_quality_and_round_latency(benchmark):
    """Every fault class completes the trace at fault-free placement quality."""
    baseline, _ = replay_with_chaos(None)
    base_runtimes = baseline.metrics.algorithm_runtimes
    base_p50_latency = percentile(baseline.metrics.placement_latencies, 50)
    base_p99_round = percentile(base_runtimes, 99)

    rows = [
        [
            "fault-free",
            "-",
            baseline.metrics.tasks_placed,
            "+0",
            f"{1e3 * percentile(base_runtimes, 50):.1f}",
            f"{1e3 * base_p99_round:.1f}",
            0,
            0,
            0,
        ]
    ]
    for fault in FAULT_KINDS:
        chaos = ChaosPolicy(seed=63, rates={fault: FAULT_RATE}, delay_seconds=0.002)
        run, solver = replay_with_chaos(chaos)
        metrics = run.metrics
        runtimes = metrics.algorithm_runtimes
        placed_delta = metrics.tasks_placed - baseline.metrics.tasks_placed
        rows.append(
            [
                fault,
                chaos.total_injected,
                metrics.tasks_placed,
                f"{placed_delta:+d}",
                f"{1e3 * percentile(runtimes, 50):.1f}",
                f"{1e3 * percentile(runtimes, 99):.1f}",
                metrics.degraded_round_count(),
                metrics.total_worker_respawns(),
                metrics.breaker_open_round_count(),
            ]
        )

        # Robustness contract, per fault class: the run completes with the
        # fault-free run's placement quality ...
        assert metrics.tasks_unplaced == 0
        assert metrics.tasks_placed == baseline.metrics.tasks_placed
        # ... no round was abandoned (no deadline is configured, so every
        # round must be served, degraded never) ...
        assert metrics.degraded_round_count() == 0
        # ... and recovery cost is bounded: p99 round wall clock stays
        # within a small multiple of fault-free (full-resnapshot rounds
        # and respawns are the expected recovery price; a stall or a
        # sum-shaped round would blow far past this).
        assert percentile(runtimes, 99) <= max(4.0 * base_p99_round, 0.25)
        if fault in ("worker_kill", "pipe_break"):
            assert metrics.total_worker_respawns() >= 1

    print()
    print(
        f"Chaos robustness: fig14-style trace, {MACHINES} machines at "
        f"{UTILIZATION:.0%} utilization, per-round fault rate {FAULT_RATE:.0%}"
    )
    print(
        format_table(
            [
                "fault class",
                "injected",
                "placed",
                "delta",
                "p50 round [ms]",
                "p99 round [ms]",
                "degraded",
                "respawns",
                "breaker-open",
            ],
            rows,
        )
    )
    print(
        "fault-free p50 placement latency: "
        f"{base_p50_latency:.3f}s (virtual)"
    )

    # Benchmark kernel: the mixed-fault replay (every class armed at once).
    mixed = {fault: FAULT_RATE for fault in FAULT_KINDS}

    def kernel():
        run, _ = replay_with_chaos(
            ChaosPolicy(seed=64, rates=mixed, delay_seconds=0.002)
        )
        assert run.metrics.tasks_unplaced == 0
        return run

    benchmark(kernel)


def test_chaos_deadline_degradation_bounds_round_tail(benchmark):
    """With a round deadline, every round is in budget or recorded degraded."""
    budget = 0.5
    state = build_cluster_state(MACHINES, utilization=UTILIZATION, seed=61)
    solver = ParallelDualExecutor(
        delta_solo_threshold=0, round_deadline_seconds=budget
    )
    scheduler = FirmamentScheduler(QuincyPolicy(), solver=solver)
    config = TraceConfig(
        num_machines=MACHINES,
        slots_per_machine=4,
        target_utilization=0.3,
        duration=TRACE_SECONDS,
        # Compress interarrivals so the 45 s snippet yields a couple of
        # hundred scheduler rounds -- enough rounds for a meaningful p99
        # and for the per-round fault rate to deliver dozens of faults.
        speedup=2.0,
        constant_service_load=True,
        seed=62,
        service_job_fraction=0.1,
    )
    simulator = ClusterSimulator(
        state, scheduler, SimulationConfig(max_time=TRACE_SECONDS)
    )
    simulator.submit_job_stream(GoogleTraceGenerator(config).iter_jobs())
    try:
        result = simulator.run()
    finally:
        simulator.close()

    watchdog = max(0.05, 0.25 * budget)
    over_budget = [
        record
        for record in result.schedule_records
        if record.algorithm_runtime > budget + watchdog
        and not record.statistics.degraded_round
    ]
    print()
    print(
        f"Deadline run: budget {budget:.2f}s, rounds "
        f"{len(result.schedule_records)}, degraded "
        f"{result.metrics.degraded_round_count()}, deadline hits "
        f"{sum(r.deadline_hits for r in result.metrics.rounds)}"
    )
    assert result.metrics.tasks_unplaced == 0
    # No silently-late rounds: past budget + watchdog means degraded.
    assert over_budget == []

    benchmark(lambda: percentile(result.metrics.algorithm_runtimes, 99))
