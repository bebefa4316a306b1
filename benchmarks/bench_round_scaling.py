"""A steady round costs what changed: cluster size as the variable.

The paper's central claim (Sections 5-6, Figure 11, Table 3) is that an
incremental round costs the change, not the cluster.  Every other kernel in
this directory holds the cluster at 64-512 machines, where an O(cluster) pass
costs a fraction of a millisecond and hides.  This one holds the *change*
fixed -- 6 completions and 6 arrivals (a 4-task and a 2-task job) per round on
a half-full Quincy cluster, the scheduler ``serve`` builds (one delta-armed
cost-scaling leg per round) -- and grows the cluster 128 -> 512 -> 2 048
machines x 4 slots.

Printed per size: median milliseconds per stage (graph update / solve /
extract + diff / apply) with the exponent fitted over the three sizes, and
the law the roadmap wants, "8x the machines costs at most 2x the round", per
stage.  The law is *printed, not asserted*: milliseconds do not repeat, and
the stages still known to carry an O(cluster) pass (the graph update's
per-round refreshes, ``set_flows``' compare pass, ``diff_assignments``, the
hub-adjacency scans inside the repair) are the next items' target list.

Asserted are counts that repeat exactly on every host:

* every timed round is a delta solve, and a solo one (the executor's
  ``solo_delta_rounds`` advances) unless its batch is over
  ``DELTA_SOLO_THRESHOLD`` -- which only the rounds do on which Quincy's
  time-varying waiting cost ticks and every task's unscheduled arc is
  re-priced at once (2 of 40 rounds at 2 048 machines, ~4 000 changes; the
  graph update's O(tasks) refresh is the next item's target), and
* the repair's settled nodes per augmentation grow at most 4x from 128 to
  2 048 machines (16x the cluster).  A search that walks the
  zero-reduced-cost plateau grows ~20x here; the breadth-first search grows
  with the fan-out of the cluster aggregator it crosses (X -> racks), which
  is what is left of the ideal 1x.

Run directly (``python benchmarks/bench_round_scaling.py``) or through
pytest; ``REPRO_BENCH_SCALE`` scales the cluster sizes.
"""

from __future__ import annotations

import math
import random
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import bench_scale, build_cluster_state, make_job  # noqa: E402
from repro.analysis.reporting import format_table  # noqa: E402
from repro.cli.scheduler_options import _make_scheduler  # noqa: E402
from repro.solvers.dual_executor import DELTA_SOLO_THRESHOLD  # noqa: E402

MACHINE_GRID = tuple(m * bench_scale() for m in (128, 512, 2048))
SLOTS_PER_MACHINE = 4
#: Tasks arriving per round (two jobs); the same number completes.
ARRIVALS = (4, 2)
WARMUP_ROUNDS = 5
TIMED_ROUNDS = 40
STAGES = ("graph update", "solve", "extract + diff", "apply")

#: Settled nodes per augmentation may grow this much from the smallest to
#: the largest cluster (16x the machines).
SETTLED_GROWTH_GATE = 4.0
#: The printed law: 8x the machines, at most 2x the milliseconds, i.e. a
#: fitted exponent of at most log(2) / log(8) = 1/3.
LAW_EXPONENT = math.log(2) / math.log(8)


def steady_rounds(num_machines: int, timed_rounds: int = TIMED_ROUNDS) -> Dict:
    """Run the steady shape at one cluster size; per-stage medians + counts."""
    state = build_cluster_state(num_machines, slots_per_machine=SLOTS_PER_MACHINE)
    scheduler = _make_scheduler(
        "firmament", "quincy", delta_solo_threshold=DELTA_SOLO_THRESHOLD
    )
    executor = scheduler.solver
    solve_seconds = [0.0]
    inner_solve = executor.solve

    def timed_solve(*args, **kwargs):
        start = time.perf_counter()
        try:
            return inner_solve(*args, **kwargs)
        finally:
            solve_seconds[0] = time.perf_counter() - start

    executor.solve = timed_solve
    rng = random.Random(7)
    next_job, next_task, now = 1, 1, 0.0

    def submit(num_tasks: int) -> None:
        nonlocal next_job, next_task
        state.submit_job(make_job(next_job, num_tasks, next_task, submit_time=now))
        next_job += 1
        next_task += num_tasks

    # Half full, placed by the scheduler itself (what a service's cluster
    # looks like: Quincy packs a job's tasks onto as few machines as fit).
    for _ in range(num_machines * SLOTS_PER_MACHINE // 2 // 4):
        submit(4)
    scheduler.schedule_and_apply(state, now)

    samples: Dict[str, List[float]] = {stage: [] for stage in STAGES}
    rounds_ms: List[float] = []
    settled = augmentations = oversized = 0
    try:
        for round_index in range(WARMUP_ROUNDS + timed_rounds):
            now += 0.1
            for task in rng.sample(state.running_tasks(), sum(ARRIVALS)):
                state.complete_task(task.task_id, now)
            for num_tasks in ARRIVALS:
                submit(num_tasks)
            solo_before = executor.solo_delta_rounds
            start = time.perf_counter()
            decision = scheduler.schedule(state, now)
            scheduled = time.perf_counter()
            scheduler.apply(state, decision, now)
            applied = time.perf_counter()
            if round_index < WARMUP_ROUNDS:
                continue
            stats = decision.solver_result.statistics
            batch = len(scheduler.graph_manager.last_changes)
            solo = executor.solo_delta_rounds - solo_before
            if stats.delta_solve != 1 or solo != (batch <= DELTA_SOLO_THRESHOLD):
                raise AssertionError(
                    f"round {round_index} at {num_machines} machines: "
                    f"delta_solve={stats.delta_solve}, solo={solo}, a batch "
                    f"of {batch} changes"
                )
            oversized += not solo
            graph = decision.graph_update_seconds
            samples["graph update"].append(1e3 * graph)
            samples["solve"].append(1e3 * solve_seconds[0])
            samples["extract + diff"].append(
                1e3 * (scheduled - start - graph - solve_seconds[0])
            )
            samples["apply"].append(1e3 * (applied - scheduled))
            rounds_ms.append(1e3 * (applied - start))
            settled += stats.iterations
            augmentations += stats.augmentations
    finally:
        scheduler.close()
    return {
        "stages_ms": {stage: statistics.median(samples[stage]) for stage in STAGES},
        "round_ms": statistics.median(rounds_ms),
        "oversized_rounds": oversized,
        "settled": settled,
        "augmentations": augmentations,
        "settled_per_augmentation": settled / max(augmentations, 1),
    }


def fitted_exponent(sizes: Sequence[int], values: Sequence[float]) -> float:
    """Least-squares slope of log(value) over log(size)."""
    xs = [math.log(size) for size in sizes]
    ys = [math.log(max(value, 1e-9)) for value in values]
    mean_x, mean_y = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )


def run_grid() -> Dict[int, Dict]:
    """Measure every size, print the table and the law; returns the readings."""
    results = {machines: steady_rounds(machines) for machines in MACHINE_GRID}
    print()
    print(
        f"round scaling: Quincy, half full, {sum(ARRIVALS)} completions + "
        f"{sum(ARRIVALS)} arrivals per round, median of {TIMED_ROUNDS} delta "
        "rounds [ms]"
    )
    rows = []
    for name in (*STAGES, "round"):
        values = [
            results[m]["round_ms"] if name == "round" else results[m]["stages_ms"][name]
            for m in MACHINE_GRID
        ]
        exponent = fitted_exponent(MACHINE_GRID, values)
        verdict = "holds" if exponent <= LAW_EXPONENT else "red"
        rows.append(
            [name, *(f"{value:.2f}" for value in values), f"{exponent:.2f}", verdict]
        )
    print(format_table(
        ["stage", *(f"{m} machines" for m in MACHINE_GRID), "exponent",
         f"8x machines <= 2x (exp <= {LAW_EXPONENT:.2f})"],
        rows,
    ))
    print()
    print(format_table(
        ["machines", "settled nodes", "augmentations", "settled / augmentation",
         f"rounds over {DELTA_SOLO_THRESHOLD} changes (raced)"],
        [
            [m, results[m]["settled"], results[m]["augmentations"],
             f"{results[m]['settled_per_augmentation']:.1f}",
             results[m]["oversized_rounds"]]
            for m in MACHINE_GRID
        ],
    ))
    return results


def settled_growth(results: Dict[int, Dict]) -> float:
    small, large = MACHINE_GRID[0], MACHINE_GRID[-1]
    return (
        results[large]["settled_per_augmentation"]
        / results[small]["settled_per_augmentation"]
    )


def test_round_scaling_counts(benchmark):
    """The grid, the printed law, and the gate on counts that repeat."""
    holder = {}

    def run():
        holder["results"] = run_grid()

    benchmark.pedantic(run, rounds=1, iterations=1)
    growth = settled_growth(holder["results"])
    print(
        f"gate: settled nodes per augmentation grow {growth:.1f}x from "
        f"{MACHINE_GRID[0]} to {MACHINE_GRID[-1]} machines "
        f"(required <= {SETTLED_GROWTH_GATE:.0f}x)"
    )
    assert growth <= SETTLED_GROWTH_GATE


if __name__ == "__main__":
    print(f"settled-per-augmentation growth: {settled_growth(run_grid()):.1f}x")
