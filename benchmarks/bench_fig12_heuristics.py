"""Figure 12: problem-specific heuristics.

(a) Arc prioritization biases relaxation's tree growth towards nodes with
    demand; the paper reports ~45 % lower runtime on contended graphs.
(b) Efficient task removal drains the stale flow of removed tasks down to
    the sink before incremental cost scaling runs; the paper reports ~10 %.

(a) is measured on/off on the workload it targets and must never hurt.
(b) is an ablation kept local to this file: the library's warm rebuild
takes the plain repair, whose nearest-deficit search already reaches the
vacated machine across one zero-reduced-cost reverse arc (Section 5.3.2's
drain done on the residual), and the O(arcs) pre-pass below measures
*slower* than that repair, not ~10 % faster.  The test prints the ratio
beside the paper's figure and asserts only that both variants reach the
same optimum.
"""

from __future__ import annotations

import random
import time
from typing import Dict, Tuple

import pytest

from benchmarks.common import (
    add_pending_batch_job,
    bench_scale,
    build_cluster_state,
    build_policy_network,
)
from repro.analysis.reporting import format_table
from repro.cluster import Job, Task
from repro.core import GraphManager, QuincyPolicy
from repro.core.policies import LoadSpreadingPolicy
from repro.flow.graph import FlowNetwork, NodeType
from repro.solvers import CostScalingSolver, RelaxationSolver

MACHINES = 48 * bench_scale()


def contended_network():
    """Load-spreading policy with a big job: the Figure 12a workload."""
    state = build_cluster_state(MACHINES, utilization=0.2, seed=3)
    job = Job(job_id=9_000, submit_time=0.0)
    for index in range(MACHINES * 6):
        job.add_task(Task(task_id=9_000_000 + index, job_id=9_000, duration=120.0))
    state.submit_job(job)
    _, network = build_policy_network(state, LoadSpreadingPolicy())
    return network


def best_of(callable_, repeats=2):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        best = min(best, time.perf_counter() - start)
    return best


def test_fig12a_arc_prioritization(benchmark):
    """Arc prioritization reduces relaxation work on contended graphs."""
    network = contended_network()
    with_heuristic = RelaxationSolver(arc_prioritization=True)
    without_heuristic = RelaxationSolver(arc_prioritization=False)

    time_with = best_of(lambda: with_heuristic.solve(network.copy()))
    time_without = best_of(lambda: without_heuristic.solve(network.copy()))
    scans_with = with_heuristic.solve(network.copy()).statistics.arcs_scanned
    scans_without = without_heuristic.solve(network.copy()).statistics.arcs_scanned

    print()
    print("Figure 12a: relaxation with/without arc prioritization (AP)")
    print(format_table(
        ["variant", "runtime [s]", "arcs scanned"],
        [["no AP", f"{time_without:.3f}", scans_without],
         ["AP", f"{time_with:.3f}", scans_with]],
    ))
    print(f"runtime reduction: {100 * (1 - time_with / time_without):.0f}%")
    # The heuristic must not scan more arcs; runtime is reported for context
    # but only loosely bounded because the kernels run for milliseconds.
    assert scans_with <= scans_without
    assert time_with <= time_without * 1.5

    benchmark(lambda: RelaxationSolver(arc_prioritization=True).solve(network.copy()))


def drain_removed_task_flow(
    network: FlowNetwork, warm_flows: Dict[Tuple[int, int], int]
) -> int:
    """Drain stale flow that used to originate at removed task nodes.

    For every node whose warm-start inflow no longer matches its outflow
    because an upstream task node (and its arcs) disappeared, walk the
    surplus outflow forward to the sink and subtract it.  The imbalance then
    cancels against the sink's reduced demand instead of leaving a deficit in
    the middle of the graph.  ``warm_flows`` is edited in place (entries of
    arcs that no longer exist are purged); returns the units drained.
    """
    live_keys = {arc.key() for arc in network.arcs()}
    for key in [k for k in warm_flows if k not in live_keys]:
        del warm_flows[key]

    inflow: Dict[int, int] = {}
    outflow: Dict[int, int] = {}
    for arc in network.arcs():
        flow = min(warm_flows.get(arc.key(), 0), arc.capacity)
        if flow:
            outflow[arc.src] = outflow.get(arc.src, 0) + flow
            inflow[arc.dst] = inflow.get(arc.dst, 0) + flow

    drained_total = 0
    for node in network.nodes():
        if node.node_type in (NodeType.TASK, NodeType.SINK):
            continue
        surplus = (
            outflow.get(node.node_id, 0)
            - inflow.get(node.node_id, 0)
            - max(node.supply, 0)
        )
        while surplus > 0:
            drained = _drain_one_unit_path(network, warm_flows, node.node_id)
            if drained == 0:
                break
            surplus -= drained
            drained_total += drained
    return drained_total


def _drain_one_unit_path(
    network: FlowNetwork, warm_flows: Dict[Tuple[int, int], int], start: int
) -> int:
    """Remove one unit of warm flow along a path from ``start`` to the sink."""
    path = []
    node_id = start
    guard = network.num_nodes + 1
    while guard > 0:
        guard -= 1
        if network.node(node_id).node_type is NodeType.SINK:
            break
        next_arc = None
        for arc in network.outgoing(node_id):
            if warm_flows.get(arc.key(), 0) > 0:
                next_arc = arc
                break
        if next_arc is None:
            return 0
        path.append(next_arc.key())
        node_id = next_arc.dst
    else:
        return 0
    if not path:
        return 0
    for key in path:
        warm_flows[key] = warm_flows.get(key, 0) - 1
        if warm_flows[key] <= 0:
            warm_flows.pop(key, None)
    return 1


def test_drain_walks_only_stale_flow():
    """The pre-pass removes a departed task's path and nothing else."""
    net = FlowNetwork()
    sink = net.add_node(NodeType.SINK, supply=-2, name="S")
    aggregator = net.add_node(NodeType.CLUSTER_AGGREGATOR, name="X")
    machine = net.add_node(NodeType.MACHINE, name="M0", ref=0)
    net.add_arc(machine.node_id, sink.node_id, 2, 0)
    net.add_arc(aggregator.node_id, machine.node_id, 2, 1)
    tasks = []
    for index in range(2):
        task = net.add_node(NodeType.TASK, supply=1, name=f"T{index}", ref=index)
        net.add_arc(task.node_id, aggregator.node_id, 1, 0)
        tasks.append(task)
    live = {
        (tasks[0].node_id, aggregator.node_id): 1,
        (tasks[1].node_id, aggregator.node_id): 1,
        (aggregator.node_id, machine.node_id): 2,
        (machine.node_id, sink.node_id): 2,
    }
    untouched = dict(live)
    assert drain_removed_task_flow(net, untouched) == 0
    assert untouched == live

    net.remove_node(tasks[0].node_id)  # the task completed
    net.set_supply(sink.node_id, -1)
    assert drain_removed_task_flow(net, live) == 1
    assert live == {
        (tasks[1].node_id, aggregator.node_id): 1,
        (aggregator.node_id, machine.node_id): 1,
        (machine.node_id, sink.node_id): 1,
    }


def test_fig12b_efficient_task_removal(benchmark):
    """Task-removal draining vs the plain repair on a warm rebuild."""
    rng = random.Random(17)

    def run(drain: bool):
        state = build_cluster_state(MACHINES, utilization=0.7, seed=21)
        add_pending_batch_job(state, MACHINES // 2, seed=22)
        manager = GraphManager(QuincyPolicy())
        # What IncrementalCostScalingSolver's warm rebuild does, spelled out
        # so the pre-pass can sit between the two solves.
        solver = CostScalingSolver(polish_potentials=True)
        first = solver.solve(manager.update(state, now=10.0).copy())
        solver.release_residual()
        # A wave of running tasks completes (the Figure 12b change type).
        running = state.running_tasks()
        for task in rng.sample(running, len(running) // 3):
            state.complete_task(task.task_id, now=20.0)
        network = manager.update(state, now=20.0).copy()
        start = time.perf_counter()
        warm_flows = dict(first.flows)
        if drain:
            drain_removed_task_flow(network, warm_flows)
        result = solver.solve_warm(
            network,
            warm_flows,
            warm_scaled_potentials=solver.last_scaled_potentials,
            warm_scale=solver.last_scale,
        )
        elapsed = time.perf_counter() - start
        assert result.statistics.warm_start
        return elapsed, result.total_cost

    time_without, cost_without = run(drain=False)
    time_with, cost_with = run(drain=True)
    print()
    print("Figure 12b: warm rebuild with/without the task-removal pre-pass (TR)")
    print(format_table(
        ["variant", "runtime [s]"],
        [["no TR", f"{time_without:.4f}"], ["TR", f"{time_with:.4f}"]],
    ))
    print(f"TR / no TR: {time_with / time_without:.2f}x "
          "(paper: ~0.90x, i.e. ~10 % faster)")
    # Both routes must land on the same optimum; the timing is reported,
    # not asserted (see the module docstring).
    assert cost_with == cost_without

    benchmark(lambda: run(drain=False))
