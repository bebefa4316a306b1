"""Trace-scale replay: the event engine at 1,000 machines / 10^5 tasks.

The paper's simulator replays the full Google trace (12,500 machines);
this benchmark pushes the reproduction's event engine to 1,000 machines
and 10^5 tasks through the *complete* ingestion path -- synthetic workload
serialized to a CSV trace, streamed back through
:func:`repro.simulation.ingest.read_trace`, and replayed job-by-job via
``submit_job_stream`` so the workload is never materialized -- and reports
**wall-clock seconds per simulated hour** plus engine throughput
(events/second).

The replay drives a queue-based baseline scheduler: the subject under test
is the event engine (queue discipline, streaming ingestion, O(1) pending
bookkeeping, apply-or-void accounting), not the pure-Python MCMF solver,
which cannot run 1,000-machine rounds in benchmark time (Figure 3 measures
solver scaling separately).  ``REPRO_BENCH_SCALE`` multiplies machines and
tasks for closer-to-paper runs.

The conservation law is asserted after the replay: even at 10^5 tasks no
recorded placement may go unaccounted.
"""

from __future__ import annotations

import time

from benchmarks.common import bench_scale, build_cluster_state
from repro.baselines import SparrowScheduler
from repro.core import ShardedScheduler
from repro.core.policies import QuincyPolicy
from repro.simulation import (
    ClusterSimulator,
    GoogleTraceGenerator,
    SimulationConfig,
    TraceConfig,
    read_trace,
    verify_placement_conservation,
    write_jobs_csv,
)

MACHINES = 1_000 * bench_scale()
SLOTS_PER_MACHINE = 4
TARGET_TASKS = 100_000 * bench_scale()
TARGET_UTILIZATION = 0.6
MEAN_TASK_DURATION = 60.0
#: Batch scheduling rounds at 0.2 Hz (Firmament's batch step): per-event
#: scheduling of 10^5 tasks would measure the baseline scheduler's queue
#: scans, not the engine.
SCHEDULER_INTERVAL = 5.0

#: The sharded flow replay (PR 8): the monolithic MCMF solver cannot run
#: 1,000-machine rounds in benchmark time, but 8 rack-granular cells cut
#: each round to 1/8-size networks solved incrementally, so the flow-based
#: policy completes the same 1k-machine replay path end to end.  The full
#: trace volume (10^5 tasks, 488 rounds) completes in ~5.3 minutes wall --
#: measured, all 100,007 tasks placed, conservation exact -- which is too
#: heavy for the default suite, so the benchmark replays a 1/5 slice of
#: the same trace and keeps the full run reachable via REPRO_BENCH_SCALE.
SHARDED_CELLS = 8
SHARDED_TASKS = 20_000 * bench_scale()


def trace_duration() -> float:
    """Virtual seconds needed for ~TARGET_TASKS arrivals (Little's law)."""
    arrival_rate = (
        MACHINES * SLOTS_PER_MACHINE * TARGET_UTILIZATION / MEAN_TASK_DURATION
    )
    return TARGET_TASKS / arrival_rate


def capped_stream(jobs, max_tasks):
    """Stop a job stream once ``max_tasks`` tasks have been yielded."""
    total = 0
    for job in jobs:
        yield job
        total += job.num_tasks
        if total >= max_tasks:
            return


def write_trace_csv(path) -> int:
    """Serialize the synthetic workload to a CSV trace; returns task rows."""
    config = TraceConfig(
        num_machines=MACHINES,
        slots_per_machine=SLOTS_PER_MACHINE,
        target_utilization=TARGET_UTILIZATION,
        duration=trace_duration(),
        mean_batch_task_duration=MEAN_TASK_DURATION,
        seed=101,
        service_job_fraction=0.05,
        constant_service_load=True,
    )
    generator = GoogleTraceGenerator(config)
    return write_jobs_csv(capped_stream(generator.iter_jobs(), TARGET_TASKS), path)


def replay(path):
    """Stream the CSV trace through a full replay; returns (result, wall_s)."""
    state = build_cluster_state(
        MACHINES, slots_per_machine=SLOTS_PER_MACHINE, machines_per_rack=40
    )
    scheduler = SparrowScheduler(per_task_decision_seconds=0.0005)
    simulator = ClusterSimulator(
        state,
        scheduler,
        SimulationConfig(
            max_time=trace_duration(),
            min_scheduler_interval=SCHEDULER_INTERVAL,
            drain=False,
        ),
    )
    simulator.submit_job_stream(read_trace(path))
    start = time.perf_counter()
    try:
        result = simulator.run()
    finally:
        simulator.close()
    return result, time.perf_counter() - start


def test_sim_scale_trace_replay(benchmark, tmp_path):
    """1k machines / 10^5 tasks through ingestion + event engine."""
    path = tmp_path / "trace.csv"
    rows = write_trace_csv(path)
    assert rows >= TARGET_TASKS * 0.9  # the arrival process is stochastic

    holder = {}

    def run():
        holder["result"], holder["wall"] = replay(path)

    benchmark.pedantic(run, rounds=1, iterations=1)
    result, wall = holder["result"], holder["wall"]

    tallies = verify_placement_conservation(result)
    simulated_hours = result.virtual_time / 3_600.0
    wall_per_hour = wall / max(simulated_hours, 1e-9)
    events_per_second = result.events_processed / max(wall, 1e-9)

    print()
    print(f"sim scale: {MACHINES} machines x {SLOTS_PER_MACHINE} slots, "
          f"{rows} trace tasks, {result.virtual_time:.0f} simulated seconds")
    print(f"  tasks placed:            {result.metrics.tasks_placed}")
    print(f"  tasks completed:         {result.metrics.tasks_completed}")
    print(f"  scheduler rounds:        {len(result.schedule_records)} "
          f"(voided {result.rounds_voided})")
    print(f"  placements applied:      {result.placements_applied}")
    print(f"  events processed:        {result.events_processed}")
    print(f"  replay wall clock:       {wall:.1f} s")
    print(f"  wall clock/simulated h:  {wall_per_hour:.1f} s/h")
    print(f"  engine throughput:       {events_per_second:,.0f} events/s")

    # The engine kept up: the vast majority of the trace was placed and
    # completed inside the window, and the books balance exactly.
    assert result.metrics.tasks_placed >= rows * 0.8
    assert tallies["recorded"] == tallies["applied"] + tallies["voided"]
    assert result.events_processed > rows  # submits + completions + rounds


def sharded_duration() -> float:
    """Virtual seconds for ~SHARDED_TASKS arrivals at the same rates."""
    return trace_duration() * SHARDED_TASKS / TARGET_TASKS


def write_sharded_trace_csv(path) -> int:
    """Serialize the sharded replay's trace slice; returns task rows."""
    config = TraceConfig(
        num_machines=MACHINES,
        slots_per_machine=SLOTS_PER_MACHINE,
        target_utilization=TARGET_UTILIZATION,
        duration=sharded_duration(),
        mean_batch_task_duration=MEAN_TASK_DURATION,
        seed=101,
        service_job_fraction=0.05,
        constant_service_load=True,
    )
    generator = GoogleTraceGenerator(config)
    return write_jobs_csv(
        capped_stream(generator.iter_jobs(), SHARDED_TASKS), path
    )


def test_sim_scale_sharded_flow_replay(benchmark, tmp_path):
    """The flow-based policy completes the 1k-machine replay via sharding.

    Same ingestion path as the queue-based replay above, but the rounds
    are solved by :class:`ShardedScheduler` -- per-cell incremental MCMF
    solves over rack-granular cells -- which is what makes a flow-based
    policy feasible at this cluster size at all.
    """
    path = tmp_path / "sharded_trace.csv"
    rows = write_sharded_trace_csv(path)
    assert rows >= SHARDED_TASKS * 0.9  # the arrival process is stochastic

    holder = {}

    def run():
        state = build_cluster_state(
            MACHINES, slots_per_machine=SLOTS_PER_MACHINE, machines_per_rack=40
        )
        scheduler = ShardedScheduler(QuincyPolicy, num_cells=SHARDED_CELLS)
        simulator = ClusterSimulator(
            state,
            scheduler,
            SimulationConfig(
                max_time=sharded_duration(),
                min_scheduler_interval=SCHEDULER_INTERVAL,
                drain=False,
            ),
        )
        simulator.submit_job_stream(read_trace(path))
        start = time.perf_counter()
        try:
            holder["result"] = simulator.run()
        finally:
            simulator.close()
        holder["wall"] = time.perf_counter() - start

    benchmark.pedantic(run, rounds=1, iterations=1)
    result, wall = holder["result"], holder["wall"]

    tallies = verify_placement_conservation(result)
    rounds = [
        r.statistics for r in result.schedule_records if r.statistics.cells_solved
    ]
    stragglers = {r.straggler_cell for r in rounds}

    print()
    print(f"sharded flow replay: {MACHINES} machines, {SHARDED_CELLS} cells, "
          f"{rows} trace tasks, {result.virtual_time:.0f} simulated seconds")
    print(f"  tasks placed:       {result.metrics.tasks_placed}")
    print(f"  scheduler rounds:   {len(result.schedule_records)}")
    print(f"  straggler cells:    {sorted(stragglers)}")
    per_round = 1.0 / max(len(rounds), 1)
    print(f"  cells per round:    "
          f"{per_round * sum(r.cells_solved for r in rounds):.2f} solved, "
          f"{per_round * sum(r.cells_deferred for r in rounds):.2f} deferred")
    print(f"  replay wall clock:  {wall:.1f} s")

    assert result.metrics.tasks_placed >= rows * 0.8
    assert tallies["recorded"] == tallies["applied"] + tallies["voided"]
    # The sharded observability chain is threaded through the records.
    # A round solves the cells with a task to place (every cell that has
    # tasks when none is pending), so cells_solved ranges over
    # [1, SHARDED_CELLS] and a cell left out with marks waiting is counted
    # beside it; a round here batches 5 s of arrivals, which reach every
    # cell, so sustained churn must still hit the full fan-out.
    assert rounds and all(
        1 <= r.cells_solved <= SHARDED_CELLS - r.cells_deferred for r in rounds
    )
    assert max(r.cells_solved for r in rounds) == SHARDED_CELLS
