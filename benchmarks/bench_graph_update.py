"""Per-round graph-update latency: incremental vs rebuild-and-diff.

PR 1/PR 2 made the *solver* O(|changes|) per round, which left graph
construction -- rebuild the whole flow network, then diff it against the
previous round -- as the dominant per-round cost on large, low-churn
clusters.  This benchmark measures :meth:`GraphManager.update` wall time
across machine counts and churn rates for the two paths:

* ``incremental``: the dirty-set-driven persistent network (default), and
* ``rebuild``: the from-scratch build + :meth:`ChangeBatch.diff` baseline
  (``GraphManager(..., incremental=False)``).

Both managers consume identical cluster mutations in lockstep, so the
reported ratio is the per-round construction speedup the incremental layer
delivers.  The acceptance bar of the incremental-construction PR is a >= 5x
speedup on a low-churn round (<= 5 % of tasks changing, >= 48 machines),
measured on Quincy.  A second table has one low-churn row per policy --
every policy derives per entity, so every one of them patches a handful of
arcs instead of rebuilding -- reported, not gated.

Usage::

    PYTHONPATH=src python benchmarks/bench_graph_update.py
    PYTHONPATH=src python -m pytest benchmarks/bench_graph_update.py -s
"""

from __future__ import annotations

import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks.common import (  # noqa: E402
    add_pending_batch_job,
    bench_scale,
    build_cluster_state,
)
from repro.analysis.reporting import format_table  # noqa: E402
from repro.core import GraphManager, QuincyPolicy  # noqa: E402
from repro.core.policies import (  # noqa: E402
    CpuMemoryPolicy,
    LoadSpreadingPolicy,
    NetworkAwarePolicy,
    RandomPlacementPolicy,
    ShortestJobFirstPolicy,
)

MACHINE_COUNTS = [16, 48, 128]
CHURN_FRACTIONS = [0.02, 0.05, 0.20]
ROUNDS = 12
#: The per-policy table's configuration: one low-churn point.
POLICY_MACHINES = 48
POLICY_CHURN = 0.02
POLICIES = {
    "quincy": QuincyPolicy,
    "cpu_memory": CpuMemoryPolicy,
    "load_spreading": LoadSpreadingPolicy,
    "network_aware": NetworkAwarePolicy,
    "random_placement": RandomPlacementPolicy,
    "shortest_job_first": ShortestJobFirstPolicy,
}


def _churn(state, rng: random.Random, fraction: float, now: float, job_id: int) -> None:
    """Touch roughly ``fraction`` of the schedulable tasks this round."""
    tasks = state.schedulable_tasks()
    budget = max(1, int(len(tasks) * fraction))
    completions = budget // 2
    running = state.running_tasks()
    for task in rng.sample(running, min(completions, len(running))):
        state.complete_task(task.task_id, now)
    arrivals = max(1, budget - completions)
    add_pending_batch_job(
        state, arrivals, seed=int(now) + job_id, job_id=job_id, submit_time=now
    )
    # Place a few pending tasks (scheduler effects between rounds).
    placed = 0
    for task in state.pending_tasks():
        if placed >= budget // 2:
            break
        for machine_id in state.topology.machines:
            if state.free_slots(machine_id) > 0:
                state.place_task(task.task_id, machine_id, now)
                placed += 1
                break


def measure(machines: int, churn: float, policy_factory=QuincyPolicy):
    """Return (incremental median, rebuild median, arcs, median arcs
    patched per incremental round) for one config."""
    incremental_times = []
    rebuild_times = []
    patched = []
    arcs = 0
    state = build_cluster_state(machines, utilization=0.6, seed=7)
    add_pending_batch_job(state, machines // 2, seed=8)
    inc_manager = GraphManager(policy_factory())
    reb_manager = GraphManager(policy_factory(), incremental=False)
    inc_manager.update(state, now=0.0)
    reb_manager.update(state, now=0.0)

    rng = random.Random(9)
    for round_index in range(1, ROUNDS + 1):
        now = round_index * 10.0
        _churn(state, rng, churn, now, job_id=700_000 + round_index)

        start = time.perf_counter()
        network = inc_manager.update(state, now)
        incremental_times.append(time.perf_counter() - start)
        if inc_manager.last_update_stats.mode != "incremental":
            raise AssertionError("expected the incremental path")
        patched.append(inc_manager.last_update_stats.arcs_patched)

        start = time.perf_counter()
        reb_manager.update(state, now)
        rebuild_times.append(time.perf_counter() - start)
        arcs = network.num_arcs

    return (
        statistics.median(incremental_times),
        statistics.median(rebuild_times),
        arcs,
        statistics.median(patched),
    )


def run() -> list:
    scale = bench_scale()
    rows = []
    results = []
    for machines in [m * scale for m in MACHINE_COUNTS]:
        for churn in CHURN_FRACTIONS:
            incremental, rebuild, arcs, _ = measure(machines, churn)
            speedup = rebuild / max(incremental, 1e-9)
            results.append((machines, churn, incremental, rebuild, speedup))
            rows.append(
                [
                    str(machines),
                    f"{100 * churn:.0f}%",
                    str(arcs),
                    f"{1000 * rebuild:.2f}",
                    f"{1000 * incremental:.2f}",
                    f"{speedup:.1f}x",
                ]
            )
    print()
    print("Graph-update latency per round: rebuild+diff vs incremental (Quincy)")
    print(
        format_table(
            [
                "machines",
                "churn",
                "arcs",
                "rebuild [ms]",
                "incremental [ms]",
                "speedup",
            ],
            rows,
        )
    )
    return results


def run_policies() -> None:
    """Print one low-churn row per policy (reported, not gated)."""
    machines = POLICY_MACHINES * bench_scale()
    rows = []
    for name, factory in POLICIES.items():
        incremental, rebuild, arcs, patched = measure(machines, POLICY_CHURN, factory)
        rows.append(
            [
                name,
                str(arcs),
                f"{patched:.0f}",
                f"{1000 * rebuild:.2f}",
                f"{1000 * incremental:.2f}",
                f"{rebuild / max(incremental, 1e-9):.1f}x",
            ]
        )
    print()
    print(
        f"Graph-update latency per round by policy "
        f"({machines} machines, {100 * POLICY_CHURN:.0f}% churn)"
    )
    print(
        format_table(
            [
                "policy",
                "arcs",
                "arcs patched",
                "rebuild [ms]",
                "incremental [ms]",
                "speedup",
            ],
            rows,
        )
    )


def test_graph_update_incremental_beats_rebuild(benchmark):
    """Low-churn rounds must be >= 5x faster than rebuild+diff."""
    results = run()
    run_policies()
    low_churn = [
        speedup
        for machines, churn, _, _, speedup in results
        if machines >= 48 and churn <= 0.05
    ]
    assert low_churn, "no low-churn configuration measured"
    assert max(low_churn) >= 5.0, (
        f"low-churn graph-update speedups {low_churn} never reached 5x"
    )

    # Timed kernel: one incremental round at 48 machines, 5% churn.
    state = build_cluster_state(48, utilization=0.6, seed=17)
    add_pending_batch_job(state, 24, seed=18)
    manager = GraphManager(QuincyPolicy())
    manager.update(state, now=0.0)
    rng = random.Random(19)
    counter = [0]

    def one_round():
        counter[0] += 1
        now = counter[0] * 10.0
        _churn(state, rng, 0.05, now, job_id=720_000 + counter[0])
        manager.update(state, now)

    benchmark(one_round)


if __name__ == "__main__":
    results = run()
    run_policies()
    worst_low_churn = max(
        speedup
        for machines, churn, _, _, speedup in results
        if machines >= 48 and churn <= 0.05
    )
    print(f"\nbest low-churn speedup at >=48 machines: {worst_low_churn:.1f}x")
    sys.exit(0 if worst_low_churn >= 5.0 else 1)
