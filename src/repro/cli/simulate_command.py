"""``firmament-repro simulate``: trace-driven scheduling simulation."""

from __future__ import annotations

import argparse

from repro.cli.scheduler_options import _make_scheduler, add_scheduler_arguments
from repro.cluster.state import ClusterState
from repro.cluster.topology import build_topology

#: ``--trace-schema`` choices: the keys of
#: :data:`repro.simulation.ingest.SCHEMAS`, which loads only with a run.
TRACE_SCHEMAS = ("alibaba", "generic", "google")


def register(subparsers) -> None:
    """Register the ``simulate`` subcommand."""
    parser = subparsers.add_parser(
        "simulate",
        help="replay a synthetic Google-like trace against a scheduler",
        description=(
            "Generate a synthetic Google-like workload, replay it against the "
            "chosen scheduler, and print placement latency, response time, and "
            "algorithm runtime summaries."
        ),
    )
    parser.add_argument("--machines", type=int, default=32, help="cluster size (default: 32)")
    parser.add_argument(
        "--slots-per-machine", type=int, default=4, help="task slots per machine (default: 4)"
    )
    parser.add_argument(
        "--duration", type=float, default=300.0, help="trace duration in virtual seconds"
    )
    parser.add_argument(
        "--utilization", type=float, default=0.6, help="target slot utilization (default: 0.6)"
    )
    parser.add_argument(
        "--speedup", type=float, default=1.0, help="trace speedup factor (Figure 18)"
    )
    add_scheduler_arguments(parser)
    parser.add_argument(
        "--constant-service-load",
        action="store_true",
        help=(
            "pin long-running service jobs to a fixed t=0 allotment instead "
            "of scaling their arrivals with --speedup (keeps slots available "
            "for batch work in accelerated replays, Figure 18)"
        ),
    )
    parser.add_argument(
        "--trace-csv",
        default=None,
        help=(
            "replay a CSV cluster trace instead of generating a synthetic "
            "workload (streamed; jobs must be row-contiguous and sorted by "
            "arrival time)"
        ),
    )
    parser.add_argument(
        "--trace-schema",
        choices=TRACE_SCHEMAS,
        default="generic",
        help="column schema of --trace-csv (default: generic)",
    )
    parser.add_argument("--seed", type=int, default=42, help="workload seed")
    parser.add_argument(
        "--failure-mtbf",
        type=float,
        default=0.0,
        help="inject machine failures with this cluster-wide MTBF in seconds (0 disables)",
    )
    parser.add_argument(
        "--failure-mttr",
        type=float,
        default=120.0,
        help="mean machine repair time in seconds when failures are injected",
    )
    parser.set_defaults(handler=run)


def run(args: argparse.Namespace) -> int:
    """Execute the ``simulate`` subcommand."""
    from repro.analysis.reporting import format_table
    from repro.simulation.failures import FailureInjector
    from repro.simulation.ingest import SCHEMAS, read_trace
    from repro.simulation.simulator import ClusterSimulator, SimulationConfig
    from repro.simulation.trace import GoogleTraceGenerator, TraceConfig

    if args.machines <= 0:
        raise ValueError("--machines must be positive")
    if not 0.0 < args.utilization <= 1.0:
        raise ValueError("--utilization must be in (0, 1]")

    topology = build_topology(args.machines, slots_per_machine=args.slots_per_machine)
    state = ClusterState(topology)
    scheduler = _make_scheduler(
        args.scheduler, args.policy,
        cells=args.cells,
        cell_workers=args.cell_workers,
        round_deadline_seconds=args.round_deadline,
    )

    simulator = ClusterSimulator(
        state, scheduler, SimulationConfig(max_time=args.duration)
    )
    if args.trace_csv is not None:
        simulator.submit_job_stream(
            read_trace(args.trace_csv, SCHEMAS[args.trace_schema])
        )
    else:
        trace_config = TraceConfig(
            num_machines=args.machines,
            slots_per_machine=args.slots_per_machine,
            target_utilization=args.utilization,
            duration=args.duration,
            speedup=args.speedup,
            seed=args.seed,
            constant_service_load=args.constant_service_load,
        )
        generator = GoogleTraceGenerator(trace_config, topology)
        simulator.submit_job_stream(generator.iter_jobs())

    schedule = None
    if args.failure_mtbf > 0:
        injector = FailureInjector(
            mean_time_between_failures=args.failure_mtbf,
            mean_time_to_repair=args.failure_mttr,
            seed=args.seed,
        )
        schedule = injector.inject(simulator, horizon=args.duration)

    try:
        result = simulator.run()
    finally:
        simulator.close()
    metrics = result.metrics

    cells_note = ""
    if args.scheduler == "firmament" and args.cells > 0:
        cells_note = f", cells: {args.cells}" + (
            " (worker subprocesses)" if args.cell_workers else " (inline)"
        )
    print(f"scheduler: {args.scheduler} (policy: {args.policy}{cells_note})")
    print(f"jobs submitted: {len(state.jobs)}, tasks placed: {metrics.tasks_placed}, "
          f"tasks completed: {metrics.tasks_completed}")
    print(f"scheduler rounds: {len(result.schedule_records)} "
          f"(voided: {result.rounds_voided}, placements applied: "
          f"{result.placements_applied})")
    if schedule is not None:
        print(f"machine failures injected: {schedule.num_failures}")
    if args.round_deadline is not None:
        # Degraded rounds are the price of the budget: epsilon-truncated
        # rounds plus rounds that reused the previous feasible placements.
        abandoned = sum(
            record.degraded_reason == "round_deadline"
            for record in result.schedule_records
        )
        print(
            f"round deadline: {args.round_deadline:.3f}s, degraded rounds: "
            f"{metrics.degraded_round_count()} "
            f"(previous placements reused: {abandoned})"
        )
    rows = [
        ["placement latency [s]",
         f"{metrics.placement_latency_percentile(50):.3f}",
         f"{metrics.placement_latency_percentile(90):.3f}",
         f"{metrics.placement_latency_percentile(99):.3f}"],
        ["task response time [s]",
         f"{metrics.response_time_percentile(50):.3f}",
         f"{metrics.response_time_percentile(90):.3f}",
         f"{metrics.response_time_percentile(99):.3f}"],
        ["algorithm runtime [s]",
         f"{metrics.algorithm_runtime_percentile(50):.3f}",
         f"{metrics.algorithm_runtime_percentile(90):.3f}",
         f"{metrics.algorithm_runtime_percentile(99):.3f}"],
    ]
    print(format_table(["metric", "p50", "p90", "p99"], rows))
    print(f"input data locality: {100 * metrics.data_locality:.1f}%")
    if any(r.cells_solved for r in metrics.rounds):
        stragglers = metrics.straggler_attribution()
        attribution = ", ".join(
            f"cell {cell}: {count}" for cell, count in sorted(stragglers.items())
        )
        print(
            f"cross-cell migrations: {metrics.total_cross_cell_migrations()}, "
            f"deferred cell-rounds: {sum(r.cells_deferred for r in metrics.rounds)}, "
            f"straggler rounds by cell: {attribution or 'none'}"
        )
    return 0
