"""``firmament-repro trace``: generate and inspect synthetic workload traces."""

from __future__ import annotations

import argparse
import csv
from typing import List, Optional

from repro.cluster.task import JobType


def register(subparsers) -> None:
    """Register the ``trace`` subcommand."""
    parser = subparsers.add_parser(
        "trace",
        help="generate a synthetic Google-like trace and print its statistics",
        description=(
            "Generate the synthetic Google-like workload used by the "
            "simulations, print summary statistics (job sizes, durations, "
            "batch/service split), and optionally export the tasks as CSV."
        ),
    )
    parser.add_argument("--machines", type=int, default=100, help="cluster size the trace targets")
    parser.add_argument("--duration", type=float, default=600.0, help="trace duration in seconds")
    parser.add_argument("--utilization", type=float, default=0.5, help="target slot utilization")
    parser.add_argument("--speedup", type=float, default=1.0, help="trace speedup factor")
    parser.add_argument("--seed", type=int, default=42, help="trace seed")
    parser.add_argument("--csv", default=None, help="write one row per task to this CSV file")
    parser.set_defaults(handler=run)


def run(args: argparse.Namespace) -> int:
    """Execute the ``trace`` subcommand."""
    from repro.analysis.reporting import format_table
    from repro.analysis.stats import percentile
    from repro.simulation.trace import GoogleTraceGenerator, TraceConfig

    config = TraceConfig(
        num_machines=args.machines,
        target_utilization=args.utilization,
        duration=args.duration,
        speedup=args.speedup,
        seed=args.seed,
    )
    generator = GoogleTraceGenerator(config)
    jobs = generator.generate()

    job_sizes = [job.num_tasks for job in jobs]
    batch_jobs = [job for job in jobs if job.job_type is JobType.BATCH]
    service_jobs = [job for job in jobs if job.job_type is JobType.SERVICE]
    batch_durations = [
        task.duration
        for job in batch_jobs
        for task in job.tasks
        if task.duration is not None
    ]
    input_sizes = [
        task.input_size_gb for job in batch_jobs for task in job.tasks if task.input_size_gb > 0
    ]

    total_tasks = sum(job_sizes)
    print(f"jobs: {len(jobs)} ({len(batch_jobs)} batch, {len(service_jobs)} service)")
    print(f"tasks: {total_tasks}")
    rows = [
        ["job size [tasks]", _fmt(percentile(job_sizes, 50)), _fmt(percentile(job_sizes, 90)),
         _fmt(percentile(job_sizes, 99)), _fmt(max(job_sizes) if job_sizes else 0)],
        ["batch task duration [s]", _fmt(percentile(batch_durations, 50)),
         _fmt(percentile(batch_durations, 90)), _fmt(percentile(batch_durations, 99)),
         _fmt(max(batch_durations) if batch_durations else 0)],
        ["batch input size [GB]", _fmt(percentile(input_sizes, 50)),
         _fmt(percentile(input_sizes, 90)), _fmt(percentile(input_sizes, 99)),
         _fmt(max(input_sizes) if input_sizes else 0)],
    ]
    print(format_table(["metric", "p50", "p90", "p99", "max"], rows))

    if args.csv:
        _write_csv(args.csv, jobs)
        print(f"wrote per-task CSV to {args.csv}")
    return 0


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _write_csv(path: str, jobs: List) -> None:
    with open(path, "w", encoding="utf-8", newline="") as stream:
        writer = csv.writer(stream)
        writer.writerow(
            ["job_id", "job_type", "task_id", "submit_time", "duration_s",
             "cpu_request", "ram_request_gb", "network_request_mbps", "input_size_gb"]
        )
        for job in jobs:
            for task in job.tasks:
                writer.writerow(
                    [job.job_id, job.job_type.value, task.task_id,
                     f"{task.submit_time:.3f}",
                     "" if task.duration is None else f"{task.duration:.3f}",
                     task.cpu_request, task.ram_request_gb,
                     task.network_request_mbps, f"{task.input_size_gb:.3f}"]
                )
