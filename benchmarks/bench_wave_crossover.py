"""Where a delta repair's multi-source wave starts to pay: the crossovers.

:meth:`CostScalingSolver._route_excesses` routes a batch's last source by
one single-source search.  If that first search walked at least
``WAVE_MIN_WALK`` adjacency entries (it crossed a hub, which every later
search would walk again), the rest of the batch goes in multi-source waves
while at least ``WAVE_MIN_SOURCES`` sources hold excess.  This harness
measures both thresholds, each on the traffic that decides it:

* ``serve``: a ``serve``-shaped stream through the scheduler ``serve``
  builds -- 128 machines x 4 slots, a 256-task never-ending prefill, then
  one job of ``J`` tasks of 0.5 s per round at 144 tasks/s, for every job
  size ``J`` in ``JOB_SIZES`` (batches of 1-21 sources, every search
  through the cluster aggregator);
* ``fig18``: ``bench_fig18_trace_speedup``'s Quincy trace replay at the
  speedups in ``FIG18_SPEEDUPS`` (batches of 100-560 tasks with preference
  arcs, at many distances, whose searches mostly cross no hub);
* ``fig09``: ``bench_fig09_large_job``'s arrivals of 12 to 384 tasks under
  load spreading (one batch each, every search through the aggregator);
* ``quincy``: ``perf_smoke``'s sharded shape -- 256 machines at 50 %, eight
  4-task Quincy jobs a round for ``QUINCY_ROUNDS`` rounds -- once on one
  scheduler (32-source batches through a 256-machine aggregator) and once
  on ``SHARD_CELLS`` cells (8-12 sources through a 64-machine one).

Each stream runs once with waves and once with none, the two alternating
``REPEATS`` times, and each call of ``_route_excesses`` is timed (CPU) and
filed under a class; a class's time is the sum of its calls (a mode's
calls may differ in number and size: the flows a wave picks change the
rounds that follow, and that is part of its cost).  Pass 1 takes
``serve``, waves after the first search of every batch of two or more
sources, and files a call under its source count: the source crossover.
Pass 2 takes the whole mix, waves from the source crossover on, and files
a call from it on under the adjacency entries its first search walked,
rounded down to a power of two: the walk crossover.  A crossover is the
threshold that minimises its pass's repair time, each class past it
charged its time with waves and every other its time without (the classes
are taken as independent, though a wave in one changes the rounds of all).
``WAVE_MIN_SOURCES`` and ``WAVE_MIN_WALK`` are set from them
(EXPERIMENTS.md records the tables).  Last, why the two searches are not
one: the repair time of ``serve``'s 4-task stream and of fig18 at 8x with
every single-source search replaced by a one-source wave.  CPU time
(``time.process_time``) rather than the wall clock, so that what the host
takes from the process while it runs is not charged to either mode.

Run: ``PYTHONPATH=src python benchmarks/bench_wave_crossover.py`` (~4 min
on a 2-core host).
"""

from __future__ import annotations

import random
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks import bench_fig09_large_job, bench_fig18_trace_speedup
from benchmarks.common import build_cluster_state, make_job
from repro.analysis.reporting import format_table
from repro.cli import build_parser, serve_command
from repro.cluster.state import ClusterState
from repro.cluster.task import Job, JobType, Task
from repro.cluster.topology import build_topology
from repro.core import FirmamentScheduler, ShardedScheduler
from repro.core.policies import LoadSpreadingPolicy, QuincyPolicy
from repro.solvers import IncrementalCostScalingSolver, cost_scaling

JOB_SIZES = (1, 2, 3, 4, 6, 8, 12, 16)
ROUNDS = 600
FIG18_SPEEDUPS = (4.0, 8.0)
QUINCY_ROUNDS = 12
SHARD_CELLS = 4
REPEATS = 3
TASKS_PER_SECOND = 144.0
#: Classes with fewer samples than this are not reported (a fig09 arrival
#: is one call a repeat).
MIN_SAMPLES = REPEATS

Samples = Dict[int, Dict[str, List[float]]]  # {class: {mode: [seconds]}}


def power_of_two_floor(value: int) -> int:
    return 1 << (value.bit_length() - 1) if value > 0 else 0


def serve_stream(job_tasks: int, seed: int) -> None:
    state = ClusterState(build_topology(128, slots_per_machine=4))
    scheduler = serve_command._build_scheduler(
        build_parser(["serve"]).parse_args(["serve"])
    )
    next_task = 0

    def submit(job_id: int, tasks: int, now: float, duration, job_type) -> None:
        nonlocal next_task
        job = Job(job_id=job_id, job_type=job_type, submit_time=now)
        for task_id in range(next_task, next_task + tasks):
            job.add_task(
                Task(task_id=task_id, job_id=job_id, duration=duration, submit_time=now)
            )
        next_task += tasks
        state.submit_job(job)

    try:
        submit(0, 256, 0.0, None, JobType.SERVICE)
        scheduler.schedule_and_apply(state, 0.0)
        rng = random.Random(seed)
        now = 0.0
        for job_id in range(1, ROUNDS + 1):
            now += rng.expovariate(TASKS_PER_SECOND / job_tasks)
            submit(job_id, job_tasks, now, 0.5, JobType.BATCH)
            for task in state.running_tasks():
                if task.duration is not None and task.start_time + task.duration <= now:
                    state.complete_task(task.task_id, now)
            scheduler.schedule_and_apply(state, now)
    finally:
        scheduler.close()


def fig18_replay(speedup: float) -> None:
    bench_fig18_trace_speedup.replay(speedup, solver=IncrementalCostScalingSolver())


def fig09_arrivals() -> None:
    for size in bench_fig09_large_job.JOB_SIZES:
        state = build_cluster_state(
            bench_fig09_large_job.MACHINES, utilization=0.10, seed=1
        )
        scheduler = FirmamentScheduler(
            LoadSpreadingPolicy(), solver=IncrementalCostScalingSolver()
        )
        scheduler.schedule_and_apply(state, now=0.0)
        job = Job(job_id=7_000, submit_time=1.0)
        for index in range(size):
            job.add_task(Task(task_id=7_000_000 + index, job_id=7_000, duration=300.0))
        state.submit_job(job)
        scheduler.schedule(state, now=1.0)


def quincy_rounds(cells: int) -> None:
    state = build_cluster_state(
        256, slots_per_machine=4, machines_per_rack=16, utilization=0.5, seed=31
    )
    scheduler = (
        ShardedScheduler(QuincyPolicy, num_cells=cells) if cells
        else FirmamentScheduler(QuincyPolicy(), solver=IncrementalCostScalingSolver())
    )
    job_id, task_id = 910_000, 91_000_000
    try:
        scheduler.schedule_and_apply(state, now=0.0)
        for round_index in range(1, QUINCY_ROUNDS + 1):
            now = 5.0 * round_index
            for _ in range(8):
                state.submit_job(make_job(job_id, 4, task_id, submit_time=now))
                job_id, task_id = job_id + 1, task_id + 4
            scheduler.schedule_and_apply(state, now=now)
    finally:
        scheduler.close()


def serve_traffic(seed: int) -> List[Callable[[], None]]:
    return [lambda j=j: serve_stream(j, seed) for j in JOB_SIZES]


def mixed_traffic(seed: int) -> List[Callable[[], None]]:
    """Every stream of the mix, one call each."""
    return [
        *serve_traffic(seed),
        *(lambda s=s: fig18_replay(s) for s in FIG18_SPEEDUPS),
        fig09_arrivals,
        lambda: quincy_rounds(0),
        lambda: quincy_rounds(SHARD_CELLS),
    ]


def timed_run(run: Callable[[], None], min_sources: int, min_walk: int,
              key: Callable[[int, int], Optional[int]], one_source_waves=False):
    """Run one stream under the thresholds; returns ``{class: [seconds]}``
    with ``key(sources, first walk)`` the class of a call (``None``: not
    filed)."""
    samples: Dict[int, List[float]] = defaultdict(list)
    solver_class = cost_scaling.CostScalingSolver
    route = solver_class._route_excesses
    augment = solver_class._augment_along_reduced_costs
    walks: List[int] = []  # the running call's first walk, -1 until known

    def timed(self, residual, stats, sources):
        count = len(sources)
        walks.append(-1)
        start = time.process_time()
        try:
            return route(self, residual, stats, sources)
        finally:
            elapsed = time.process_time() - start
            filed = key(count, max(walks.pop(), 0))
            if filed is not None:
                samples[filed].append(elapsed)

    def first_walk(self, residual, source, stats):
        if one_source_waves:
            return self._route_wave(residual, [source], stats), 0
        routed, walked = augment(self, residual, source, stats)
        if walks and walks[-1] < 0:
            walks[-1] = walked
        return routed, walked

    saved = cost_scaling.WAVE_MIN_SOURCES, cost_scaling.WAVE_MIN_WALK
    cost_scaling.WAVE_MIN_SOURCES, cost_scaling.WAVE_MIN_WALK = min_sources, min_walk
    solver_class._route_excesses = timed
    solver_class._augment_along_reduced_costs = first_walk
    try:
        run()
    finally:
        solver_class._route_excesses = route
        solver_class._augment_along_reduced_costs = augment
        cost_scaling.WAVE_MIN_SOURCES, cost_scaling.WAVE_MIN_WALK = saved
    return samples


def measure(traffic, wave_min_sources: int, key) -> Samples:
    """Pooled samples per class, waves (from ``wave_min_sources`` sources,
    whatever the walk) against none."""
    pooled: Samples = defaultdict(lambda: {"wave": [], "single": []})
    modes = {"wave": (wave_min_sources, 0), "single": (sys.maxsize, sys.maxsize)}
    for repeat in range(REPEATS):
        for run in traffic(seed=repeat):
            for mode, (min_sources, min_walk) in modes.items():
                for filed, values in timed_run(run, min_sources, min_walk, key).items():
                    pooled[filed][mode].extend(values)
    return pooled


def reported(pooled: Samples) -> List[int]:
    return sorted(
        filed for filed, modes in pooled.items()
        if min(len(modes["wave"]), len(modes["single"])) >= MIN_SAMPLES
    )


def crossover(pooled: Samples) -> int:
    """The class from which waves minimise the pass's repair time."""
    classes = reported(pooled)

    def total(threshold: int) -> float:
        return sum(
            sum(pooled[c]["single" if c < threshold else "wave"]) for c in classes
        )

    return min([*classes, classes[-1] + 1], key=total)


def table(pooled: Samples, name: str) -> str:
    rows = []
    for filed in reported(pooled):
        wave, single = sum(pooled[filed]["wave"]), sum(pooled[filed]["single"])
        rows.append([
            filed, len(pooled[filed]["single"]) // REPEATS,
            f"{1e3 * single / REPEATS:.1f}", f"{1e3 * wave / REPEATS:.1f}",
            f"{wave / single:.2f}",
        ])
    return format_table(
        [name, "calls", "single [ms]", "wave [ms]", "wave/single"], rows
    )


def one_source_wave_rows() -> List[List[str]]:
    """Total repair CPU of single-source searches and one-source waves."""
    rows = []
    for name, run in (("serve J=4", lambda: serve_stream(4, seed=0)),
                      ("fig18 8x", lambda: fig18_replay(8.0))):
        totals = {True: 0.0, False: 0.0}
        for _ in range(REPEATS):
            for waves in (False, True):
                samples = timed_run(run, sys.maxsize, sys.maxsize,
                                    lambda k, walk: 0, one_source_waves=waves)
                totals[waves] += sum(map(sum, samples.values()))
        rows.append([name, f"{1e3 * totals[False] / REPEATS:.0f}",
                     f"{1e3 * totals[True] / REPEATS:.0f}",
                     f"{totals[True] / totals[False]:.2f}"])
    return rows


def main() -> None:
    by_sources = measure(serve_traffic, 2, lambda k, walk: k)
    print(table(by_sources, "sources"))
    min_sources = crossover(by_sources)
    print(f"source crossover: waves from {min_sources} sources on "
          f"(WAVE_MIN_SOURCES = {cost_scaling.WAVE_MIN_SOURCES})")
    by_walk = measure(
        mixed_traffic, min_sources,
        lambda k, walk: power_of_two_floor(walk) if k >= min_sources else None,
    )
    print(table(by_walk, "first walk"))
    print(f"walk crossover: waves after a first search of {crossover(by_walk)} "
          f"entries on (WAVE_MIN_WALK = {cost_scaling.WAVE_MIN_WALK})")
    print(format_table(
        ["stream", "searches [ms]", "one-source waves [ms]", "ratio"],
        one_source_wave_rows(),
    ))


if __name__ == "__main__":
    main()
