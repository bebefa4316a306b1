"""Residual construction vs delta patch across cluster sizes.

The tentpole of the delta-driven solver core: instead of reconstructing the
array-based :class:`~repro.solvers.residual.ResidualNetwork` from the
``FlowNetwork`` object graph every scheduling round (O(nodes + arcs) of
Python object traversal), the incremental solver patches its persistent
residual from the typed change batch the graph manager emits
(O(|changes|)).  This benchmark measures both operations on the same
realistic round-over-round change batches and reports the ratio; the gap
widens with cluster size because the batch size tracks cluster *churn*,
not cluster size.
"""

from __future__ import annotations

import random
import time

import pytest

from benchmarks.common import (
    add_pending_batch_job,
    bench_scale,
    build_cluster_state,
)
from repro.analysis.reporting import format_table
from repro.core import GraphManager, QuincyPolicy
from repro.solvers.residual import ResidualNetwork

SIZES = [16 * bench_scale(), 32 * bench_scale(), 64 * bench_scale()]
REPS = 5


def round_pair(machines: int):
    """Build two consecutive scheduling rounds and the batch between them."""
    state = build_cluster_state(machines, utilization=0.6, seed=51)
    add_pending_batch_job(state, machines // 2, seed=52)
    manager = GraphManager(QuincyPolicy())
    # Snapshot: the manager mutates one persistent network in place, so the
    # "before" side of the pair must be copied out of it.
    before = manager.update(state, now=10.0).copy()

    rng = random.Random(53)
    for task in state.pending_tasks():
        for machine_id in state.topology.machines:
            if state.free_slots(machine_id) > 0:
                state.place_task(task.task_id, machine_id, now=10.0)
                break
    running = state.running_tasks()
    for task in rng.sample(running, min(len(running) // 10 + 1, len(running))):
        state.complete_task(task.task_id, now=20.0)
    add_pending_batch_job(state, machines // 4, seed=54, job_id=810_000,
                          submit_time=20.0)
    after = manager.update(state, now=20.0).copy()
    return before, after, manager.last_changes


def measure(machines: int):
    before, after, batch = round_pair(machines)
    build_times = []
    patch_times = []
    for _ in range(REPS):
        start = time.perf_counter()
        ResidualNetwork(after)
        build_times.append(time.perf_counter() - start)

        residual = ResidualNetwork(before)  # untimed: the persistent state
        start = time.perf_counter()
        residual.apply_changes(batch)
        patch_times.append(time.perf_counter() - start)
    return (
        after.num_arcs,
        len(batch),
        min(build_times),
        min(patch_times),
    )


def test_residual_delta_patch_beats_rebuild(benchmark):
    """Delta-patching the residual must beat rebuilding it from the graph."""
    rows = []
    ratios = {}
    for machines in SIZES:
        arcs, batch_size, build_s, patch_s = measure(machines)
        ratios[machines] = build_s / max(patch_s, 1e-9)
        rows.append([
            str(machines), str(arcs), str(batch_size),
            f"{build_s * 1e3:.2f}", f"{patch_s * 1e3:.2f}",
            f"{ratios[machines]:.1f}x",
        ])
    print()
    print("Residual construction vs delta patch (min over "
          f"{REPS} reps, scale={bench_scale()})")
    print(format_table(
        ["machines", "arcs", "|changes|", "rebuild [ms]", "patch [ms]", "ratio"],
        rows,
    ))

    # The patch is O(|changes|); the rebuild is O(nodes + arcs).  At the
    # largest size the patch must win clearly.
    assert ratios[SIZES[-1]] > 2.0

    # pytest-benchmark kernel: patch at the largest size (fresh residual per
    # round via setup, because a batch only applies once).
    before, _, batch = round_pair(SIZES[-1])

    def setup():
        return (ResidualNetwork(before), batch), {}

    benchmark.pedantic(
        lambda residual, changes: residual.apply_changes(changes),
        setup=setup,
        rounds=20,
    )
