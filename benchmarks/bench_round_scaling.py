"""A steady round costs what changed: cluster size as the variable.

The paper's central claim (Sections 5-6, Figure 11, Table 3) is that an
incremental round costs the change, not the cluster.  Every other kernel in
this directory holds the cluster at 64-512 machines, where an O(cluster) pass
costs a fraction of a millisecond and hides.  This one holds the *change*
fixed -- 6 completions and 6 arrivals (a 4-task and a 2-task job) per round on
a half-full Quincy cluster, the scheduler ``serve`` builds (one incremental
cost-scaling solver, no race) -- and grows the cluster 128 -> 512 -> 2 048 ->
4 096 machines x 4 slots.

Printed per size: median milliseconds per stage (graph update / solve /
extract + diff / apply, plus what a 4-cell scheduler spends outside its
cells' graph updates and solves: routing, extraction, diff, merge) with the
exponent fitted over the sizes, and the law the roadmap wants, "8x the
machines costs at most 2x the round", per stage.  The grid is run
``GRID_REPEATS`` times, the sizes interleaved within each repeat, and a
stage reads the median of its per-repeat medians: one run of the grid let
a sub-millisecond stage's exponent swing from 0.28 to 0.51 between runs of
the same code, as the host's load moved while one size ran.  The law is **asserted** for
the stages above the solver -- graph update, extract + diff, apply, and the
4-cell routing + merge -- which keep what they used to recompute as
persistent state fed by the dirty sets.  The solve stays printed: a search
walks only the open arcs (those with residual capacity) of the nodes it
settles, so crossing the cluster aggregator or the sink costs their open
arcs, not every task with an arc into them; what the solve still owes the
law is the growth of the nodes a search settles.  The count table prints
the searches per round beside the augmentations (a round's sources may be
routed in multi-source waves), and the open-arc entries a search iterates
beside the nodes it settles.

Asserted as well are counts that repeat exactly on every host:

* a **null round** -- scheduled again with nothing mutated in between --
  examines 0 tasks and patches 0 arcs at every size;
* on the rounds no waiting-cost tick falls on, the graph update examines
  the same number of tasks at every size (the 6 that arrived and the 6 the
  previous round placed; one fewer when a just-placed task is among the
  round's completions, which are removed, not examined), and on the others
  at most the ticks of a few
  earlier jobs more -- except on the *bunched* tick of the prefill, whose
  tasks share a submit time and are all re-priced in one round every
  ``1 / rate`` seconds (policy, not plumbing);
* every timed round is a delta solve, the bunched rounds' large batches
  included; and
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
from repro.cli import build_parser, serve_command  # noqa: E402

MACHINE_GRID = tuple(m * bench_scale() for m in (128, 512, 2048, 4096))
SLOTS_PER_MACHINE = 4
#: Tasks arriving per round (two jobs); the same number completes.
ARRIVALS = (4, 2)
WARMUP_ROUNDS = 5
TIMED_ROUNDS = 40
#: Runs of the whole grid whose per-stage medians are taken.
GRID_REPEATS = 3
STAGES = ("graph update", "solve", "extract + diff", "apply")
#: The sharded scheduler's time outside its cells' graph updates and solves.
CELLS = 4
CELL_STAGE = f"{CELLS} cells: route + merge"
#: Stages the law is asserted for (the solve is printed).
LAW_STAGES = ("graph update", "extract + diff", "apply", CELL_STAGE)

#: Settled nodes per augmentation may grow this much from the smallest
#: cluster to 16x the machines.
SETTLED_GROWTH_GATE = 4.0
SETTLED_GROWTH_SPAN = 16
#: The law: 8x the machines, at most 2x the milliseconds, i.e. a fitted
#: exponent of at most log(2) / log(8) = 1/3.
LAW_EXPONENT = math.log(2) / math.log(8)
#: A round that re-prices more clean tasks than this many rounds' arrivals
#: is a bunched tick (the prefill's: thousands of tasks at once).
BUNCHED_TICK = 4 * sum(ARRIVALS)


def steady_rounds(
    num_machines: int, timed_rounds: int = TIMED_ROUNDS, cells: int = 0
) -> Dict:
    """Run the steady shape at one cluster size; per-stage medians + counts."""
    state = build_cluster_state(num_machines, slots_per_machine=SLOTS_PER_MACHINE)
    scheduler = serve_command._build_scheduler(
        build_parser().parse_args(["serve", "--cells", str(cells)])
    )
    solve_seconds = [0.0]

    def timed(inner_solve):
        def timed_solve(*args, **kwargs):
            start = time.perf_counter()
            try:
                return inner_solve(*args, **kwargs)
            finally:
                solve_seconds[0] += time.perf_counter() - start

        return timed_solve

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
    if cells:
        managers = [cell.manager for cell in scheduler._cells]
        for cell in scheduler._cells:
            cell.solver.solve = timed(cell.solver.solve)
    else:
        managers = [scheduler.graph_manager]
        scheduler.solver.solve = timed(scheduler.solver.solve)

    samples: Dict[str, List[float]] = {stage: [] for stage in STAGES}
    rounds_ms: List[float] = []
    examined = 0  # the most on a round with no tick due
    settled = augmentations = searches = entries = bunched = allowance = 0
    try:
        for round_index in range(WARMUP_ROUNDS + timed_rounds):
            now += 0.1
            for task in rng.sample(state.running_tasks(), sum(ARRIVALS)):
                state.complete_task(task.task_id, now)
            for num_tasks in ARRIVALS:
                submit(num_tasks)
            solve_seconds[0] = 0.0
            start = time.perf_counter()
            decision = scheduler.schedule(state, now)
            scheduled = time.perf_counter()
            scheduler.apply(state, decision, now)
            applied = time.perf_counter()
            if round_index < WARMUP_ROUNDS:
                continue
            stats = decision.solver_result.statistics
            took_part = managers
            if cells:
                # Exactly the cells with a task to place (the views' pending
                # sets are as the round's routing left them: ``apply`` only
                # marks); the others' update stats are an earlier round's.
                took_part = [
                    cell.manager for cell in scheduler._cells
                    if cell.view.pending_task_ids()
                ]
                if not 1 <= stats.cells_solved == len(took_part):
                    raise AssertionError(
                        f"round {round_index} at {num_machines} machines: "
                        f"{stats.cells_solved} cells took part, "
                        f"{len(took_part)} had a task to place"
                    )
            updates = [manager.last_update_stats for manager in took_part]
            ticks = sum(u.tasks_examined - u.dirty_tasks for u in updates)
            if not cells and stats.delta_solve != 1:
                raise AssertionError(
                    f"round {round_index} at {num_machines} machines rebuilt: "
                    f"a batch of {len(scheduler.graph_manager.last_changes)} "
                    "changes"
                )
            if ticks > BUNCHED_TICK:
                bunched += 1
            else:
                total = sum(u.tasks_examined for u in updates)
                # A cell left out of rounds examines what it missed when it
                # next takes part: the cells are held to the bound on
                # average, the monolith on every round.
                if not cells:
                    allowance = 0
                allowance += 3 * sum(ARRIVALS) + BUNCHED_TICK - total
                if allowance < 0:
                    raise AssertionError(
                        f"round {round_index} at {num_machines} machines "
                        f"examined {total} tasks for {sum(ARRIVALS)} arrivals"
                    )
                if not ticks:
                    examined = max(examined, total)
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
            searches += stats.searches
            entries += stats.entries_iterated

        # A null round: scheduled again with nothing mutated in between.
        scheduler.schedule(state, now)
        start = time.perf_counter()
        scheduler.schedule(state, now)
        null_ms = 1e3 * (time.perf_counter() - start)
        for manager in managers:
            update = manager.last_update_stats
            if update.tasks_examined or update.arcs_patched:
                raise AssertionError(
                    f"a null round at {num_machines} machines examined "
                    f"{update.tasks_examined} tasks and patched "
                    f"{update.arcs_patched} arcs"
                )
    finally:
        scheduler.close()
    return {
        "stages_ms": {stage: statistics.median(samples[stage]) for stage in STAGES},
        "round_ms": statistics.median(rounds_ms),
        "null_ms": null_ms,
        "examined": examined,
        "bunched_rounds": bunched,
        "settled": settled,
        "augmentations": augmentations,
        "searches_per_round": searches / timed_rounds,
        "entries_per_search": entries / max(searches, 1),
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


def measure_grid() -> Dict[int, Dict]:
    """One run of the grid: the monolith and the 4-cell scheduler per size."""
    results: Dict = {}
    for machines in MACHINE_GRID:
        results[machines] = steady_rounds(machines)
        sharded = steady_rounds(machines, cells=CELLS)
        # Everything the sharded round does outside its cells' graph
        # updates and solves: routing, extraction, diff, balancer, merge.
        results[machines]["stages_ms"][CELL_STAGE] = sharded["stages_ms"][
            "extract + diff"
        ]
        results[machines]["cells_null_ms"] = sharded["null_ms"]
    return results


def run_grid() -> Dict[int, Dict]:
    """Measure every size ``GRID_REPEATS`` times, print the tables; returns
    the readings (each a median over the repeats; the counts are the first
    repeat's, and must repeat), with the fitted exponent per stage under
    ``"exponents"``."""
    runs = [measure_grid() for _ in range(GRID_REPEATS)]
    results = runs[0]
    for machines in MACHINE_GRID:
        reading = results[machines]
        examined = {run[machines]["examined"] for run in runs}
        assert len(examined) == 1, (
            f"tasks examined on tick-free rounds at {machines} machines "
            f"differ between repeats: {sorted(examined)}"
        )
        for stage in reading["stages_ms"]:
            reading["stages_ms"][stage] = statistics.median(
                run[machines]["stages_ms"][stage] for run in runs
            )
        for key in ("round_ms", "null_ms", "cells_null_ms"):
            reading[key] = statistics.median(run[machines][key] for run in runs)
    print()
    print(
        f"round scaling: Quincy, half full, {sum(ARRIVALS)} completions + "
        f"{sum(ARRIVALS)} arrivals per round, median of {TIMED_ROUNDS} delta "
        f"rounds, median of {GRID_REPEATS} interleaved runs of the grid [ms]"
    )
    rows = []
    exponents = {}
    for name in (*STAGES, "round", CELL_STAGE, "null round", f"null round, {CELLS} cells"):
        if name == "round":
            values = [results[m]["round_ms"] for m in MACHINE_GRID]
        elif name == "null round":
            values = [results[m]["null_ms"] for m in MACHINE_GRID]
        elif name.startswith("null round,"):
            values = [results[m]["cells_null_ms"] for m in MACHINE_GRID]
        else:
            values = [results[m]["stages_ms"][name] for m in MACHINE_GRID]
        exponent = exponents[name] = fitted_exponent(MACHINE_GRID, values)
        verdict = "holds" if exponent <= LAW_EXPONENT else "red"
        if name in LAW_STAGES:
            verdict += " (asserted)"
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
        ["machines", "tasks examined, tick-free rounds", "bunched-tick rounds",
         "settled nodes", "augmentations", "settled / augmentation",
         "searches / round", "entries / search"],
        [
            [m, results[m]["examined"], results[m]["bunched_rounds"],
             results[m]["settled"], results[m]["augmentations"],
             f"{results[m]['settled_per_augmentation']:.1f}",
             f"{results[m]['searches_per_round']:.1f}",
             f"{results[m]['entries_per_search']:.1f}"]
            for m in MACHINE_GRID
        ],
    ))
    results["exponents"] = exponents
    return results


def settled_growth(results: Dict) -> float:
    small = MACHINE_GRID[0]
    large = max(m for m in MACHINE_GRID if m <= SETTLED_GROWTH_SPAN * small)
    return (
        results[large]["settled_per_augmentation"]
        / results[small]["settled_per_augmentation"]
    )


def check_gates(results: Dict) -> None:
    """The asserted half: the law above the solver, and the counts."""
    for stage in LAW_STAGES:
        exponent = results["exponents"][stage]
        assert exponent <= LAW_EXPONENT, (
            f"{stage}: fitted exponent {exponent:.2f} over {MACHINE_GRID} "
            f"machines breaks '8x machines <= 2x ms' ({LAW_EXPONENT:.2f})"
        )
    examined = [results[m]["examined"] for m in MACHINE_GRID]
    assert len(set(examined)) == 1, (
        f"tasks examined on tick-free rounds differ by size: {examined}"
    )
    growth = settled_growth(results)
    print(
        f"gates: law asserted for {', '.join(LAW_STAGES)}; {examined[0]} "
        "tasks examined per tick-free round and 0 per null round at every "
        f"size; settled nodes per augmentation grow {growth:.1f}x over "
        f"{SETTLED_GROWTH_SPAN}x the machines (required <= "
        f"{SETTLED_GROWTH_GATE:.0f}x)"
    )
    assert growth <= SETTLED_GROWTH_GATE


def test_round_scaling_counts(benchmark):
    """The grid, the law for the stages above the solver, and the counts."""
    holder = {}

    def run():
        holder["results"] = run_grid()

    benchmark.pedantic(run, rounds=1, iterations=1)
    check_gates(holder["results"])


if __name__ == "__main__":
    check_gates(run_grid())
