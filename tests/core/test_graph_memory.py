"""What ``serve``'s graph costs in memory, per live arc.

A ``serve`` round keeps its flow network in one place: the residual the
incremental solver repairs (:class:`~repro.solvers.residual.FlowGraph`).
This gate reads, with ``tracemalloc``, how many bytes the graph retains
once the scheduler ``serve`` builds has placed a prefill on 512 machines
and run 40 steady rounds: everything that is freed when the graph and the
solver state on it are dropped, divided by the graph's live arcs.  A
second copy of the arcs -- a :class:`~repro.flow.graph.FlowNetwork` kept
beside the residual -- more than doubled it.
"""

from __future__ import annotations

import gc
import tracemalloc
from typing import Tuple

from repro.cli import build_parser, serve_command
from repro.cluster.state import ClusterState
from repro.cluster.topology import build_topology
from tests.conftest import make_job

MACHINES = 512
#: Tasks placed by round 1 (a cold solve, the slow part under tracemalloc).
PREFILL = 128
ROUNDS = 40
#: Rounds a steady job lives before its tasks complete.
LIFE = 6
#: Bytes per live arc the graph may retain.  It reads 495 on CPython 3.11
#: (x86-64); with a FlowNetwork kept beside the residual it read 1 087.
MAX_BYTES_PER_ARC = 700


def serve_graph_bytes_per_arc(
    machines: int = MACHINES, rounds: int = ROUNDS
) -> Tuple[float, int]:
    """``(bytes retained per live arc, live arcs)`` of the monolithic
    ``serve`` scheduler's graph after a ``PREFILL``-task round 1 and
    ``rounds`` steady rounds (an 8-task job in, the job from ``LIFE``
    rounds ago out, per round)."""
    state = ClusterState(
        build_topology(machines, machines_per_rack=16, slots_per_machine=4)
    )
    scheduler = serve_command._build_scheduler(
        build_parser(["serve"]).parse_args(["serve"])
    )
    manager = scheduler.graph_manager
    gc.collect()
    tracemalloc.start()
    try:
        state.submit_job(make_job(job_id=1, num_tasks=PREFILL, task_id_offset=0))
        scheduler.schedule_and_apply(state, 0.0)
        jobs = []
        for round_index in range(1, rounds + 1):
            now = 0.5 * round_index
            job = make_job(
                job_id=round_index + 1,
                num_tasks=8,
                submit_time=now,
                task_id_offset=(round_index + 1) * 1000,
            )
            state.submit_job(job)
            jobs.append(job)
            if len(jobs) > LIFE:
                for task in jobs.pop(0).tasks:
                    if task.is_running:
                        state.complete_task(task.task_id, now)
            scheduler.schedule_and_apply(state, now)
        arcs = manager.network.num_arcs
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        # Drop the graph and every solver reference onto it.
        manager.network = None
        scheduler.solver.reset()
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        scheduler.close()
    # A residual pair alone holds four int64 columns twice: 64 bytes.  Less
    # freed means something else still holds the graph.
    if freed < 64 * arcs:
        raise AssertionError(
            f"dropping serve's graph freed {freed} bytes for {arcs} arcs: "
            "a reference to it outlives the manager's"
        )
    return freed / arcs, arcs


def test_serve_graph_bytes_per_live_arc():
    per_arc, arcs = serve_graph_bytes_per_arc()
    assert arcs > 3 * MACHINES  # the graph is there and of the expected size
    assert per_arc <= MAX_BYTES_PER_ARC, (
        f"serve's graph retains {per_arc:.0f} bytes per live arc "
        f"(allowed {MAX_BYTES_PER_ARC}): a second copy of the arcs is back"
    )
