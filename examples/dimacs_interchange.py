#!/usr/bin/env python3
"""Exporting a scheduling problem as DIMACS and solving it with every algorithm.

The real Firmament talks to its MCMF solver through the DIMACS min-cost-flow
text format.  This example builds a scheduling flow network with the Quincy
policy, serializes it to DIMACS, reads it back, and solves it with all four
MCMF algorithms from the paper -- verifying that they agree on the optimal
cost while differing (sometimes wildly) in runtime, which is the observation
that motivates Firmament's algorithm choice (Sections 4 and 6.1).

Run with::

    python examples/dimacs_interchange.py
"""

from __future__ import annotations

import random
import tempfile
from pathlib import Path

from repro.cluster import ClusterState, Job, JobType, Task, build_topology
from repro.core import GraphManager, QuincyPolicy
from repro.flow.dimacs import read_dimacs, write_dimacs
from repro.solvers import (
    CostScalingSolver,
    CycleCancelingSolver,
    RelaxationSolver,
    SuccessiveShortestPathSolver,
)


def build_problem() -> ClusterState:
    """A 16-machine cluster with three batch jobs and locality preferences."""
    topology = build_topology(num_machines=16, machines_per_rack=4, slots_per_machine=2)
    state = ClusterState(topology)
    rng = random.Random(23)
    task_id = 0
    for job_id in range(3):
        job = Job(job_id=job_id, job_type=JobType.BATCH)
        for _ in range(8):
            locality = {
                machine: round(rng.uniform(0.2, 0.7), 2)
                for machine in rng.sample(range(16), 3)
            }
            job.add_task(
                Task(
                    task_id=task_id,
                    job_id=job_id,
                    duration=60.0,
                    input_size_gb=rng.uniform(1.0, 10.0),
                    input_locality=locality,
                )
            )
            task_id += 1
        state.submit_job(job)
    return state


def main() -> None:
    state = build_problem()
    network = GraphManager(QuincyPolicy()).update(state, now=0.0).copy()

    # Round-trip the problem through the DIMACS text format, as the real
    # Firmament does across its scheduler/solver process boundary.
    text = write_dimacs(network)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scheduling.dimacs"
        path.write_text(text, encoding="utf-8")
        restored = read_dimacs(path.read_text(encoding="utf-8"))

    print("=== DIMACS interchange ===")
    print(f"flow network: {network.num_nodes} nodes, {network.num_arcs} arcs")
    print(f"DIMACS document: {len(text.splitlines())} lines")
    print()
    print(f"{'algorithm':<28}{'total cost':>12}{'runtime [ms]':>15}")
    print("-" * 55)
    solvers = [
        RelaxationSolver(),
        CostScalingSolver(),
        SuccessiveShortestPathSolver(),
        CycleCancelingSolver(),
    ]
    costs = set()
    for solver in solvers:
        result = solver.solve(restored.copy())
        costs.add(result.total_cost)
        print(f"{solver.name:<28}{result.total_cost:>12}"
              f"{result.runtime_seconds * 1000:>15.2f}")
    print()
    assert len(costs) == 1, "all MCMF algorithms must agree on the optimal cost"
    print("all four algorithms found the same optimal cost "
          f"({costs.pop()}), at very different runtimes.")


if __name__ == "__main__":
    main()
