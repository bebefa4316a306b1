"""Who wins the dual race, round by round, on the figure replays.

:class:`~repro.solvers.dual_executor.DualAlgorithmExecutor` runs
incremental cost scaling alone on a round whose change batch chains onto
the residual its previous run kept, and races relaxation against it only on
the rounds that do not chain.  This harness checks that rule against the
figures' own workloads by timing **both legs on every round, on purpose**:
the executor solves each round as usual, and a second
:class:`~repro.solvers.relaxation.RelaxationSolver` fed the same networks
and batches (so it keeps its own persistent residual, as the relaxation leg
did when every round raced) solves it beside it.

Shapes: fig14's 96-machine race replay, fig18 at 4x / 8x / 16x, fig16's
four oversubscribed rounds (no batches: every round races) and fig09's
arrival (a cluster solved once, then a large load-spreading job arrives as
one chained batch, at each of fig09's job sizes).  Per shape it prints the
chained and unchained round counts, each leg's median runtime, how often
each leg was faster, and the smallest relaxation / cost-scaling ratio.

Asserted, one test per shape: on the shape's chained rounds cost
scaling's median is no slower than relaxation's (the rule's premise), and
every round's flow costs what a from-scratch
:class:`~repro.solvers.cost_scaling.CostScalingSolver` solve of that
round's network costs.

Run: ``PYTHONPATH=src python benchmarks/bench_race_table.py`` prints the
whole table (~3 min on a 2-core host); ``pytest -s`` by explicit path runs
the assertions.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import pytest

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from benchmarks import bench_fig09_large_job as fig09
from benchmarks import bench_fig14_placement_latency as fig14
from benchmarks import bench_fig16_oversubscription as fig16
from benchmarks import bench_fig18_trace_speedup as fig18
from benchmarks.common import build_cluster_state
from repro.analysis.reporting import format_table
from repro.cluster import Job, Task
from repro.core import FirmamentScheduler, QuincyPolicy
from repro.core.policies import LoadSpreadingPolicy
from repro.solvers import CostScalingSolver, DualAlgorithmExecutor, RelaxationSolver

#: One round: ``(chained, relaxation seconds, cost-scaling seconds)``.
Sample = Tuple[bool, float, float]


class BothLegs(DualAlgorithmExecutor):
    """The executor, plus a relaxation run beside every round it solves."""

    def __init__(self) -> None:
        super().__init__()
        self.probe = RelaxationSolver(arc_prioritization=True)
        self.samples: List[Sample] = []

    def solve_detailed(self, network, changes=None):
        chained = self.incremental.can_solve_delta(changes)
        relaxation = self.probe.solve(network, changes=changes, write_back=False)
        detailed = super().solve_detailed(network, changes)
        scratch = CostScalingSolver().solve(network.copy())
        assert detailed.winner.total_cost == scratch.total_cost, (
            f"round {len(self.samples)}: executor {detailed.winner.total_cost}, "
            f"from scratch {scratch.total_cost}"
        )
        self.samples.append(
            (
                chained,
                relaxation.runtime_seconds,
                detailed.cost_scaling.runtime_seconds,
            )
        )
        return detailed


def fig14_race_replay() -> List[Sample]:
    executor = BothLegs()
    fig14.replay(
        FirmamentScheduler(QuincyPolicy(), solver=executor),
        machines=fig14.RACE_MACHINES,
    )
    return executor.samples


def fig18_replay(speedup: float) -> Callable[[], List[Sample]]:
    def run() -> List[Sample]:
        executor = BothLegs()
        fig18.replay(speedup, solver=executor)
        return executor.samples

    return run


def fig16_rounds() -> List[Sample]:
    executor = BothLegs()
    for network in fig16.build_round_networks():
        executor.solve_detailed(network.copy())
    return executor.samples


def fig09_arrival() -> List[Sample]:
    samples: List[Sample] = []
    for size in fig09.JOB_SIZES:
        state = build_cluster_state(fig09.MACHINES, utilization=0.10, seed=1)
        executor = BothLegs()
        scheduler = FirmamentScheduler(LoadSpreadingPolicy(), solver=executor)
        scheduler.schedule_and_apply(state, now=0.0)
        job = Job(job_id=7_000, submit_time=1.0)
        for index in range(size):
            job.add_task(
                Task(task_id=7_000_000 + index, job_id=7_000, duration=300.0)
            )
        state.submit_job(job)
        scheduler.schedule(state, now=1.0)
        samples.extend(executor.samples)
    return samples


SHAPES: Dict[str, Callable[[], List[Sample]]] = {
    f"fig14 race replay ({fig14.RACE_MACHINES} machines)": fig14_race_replay,
    "fig18 at 4x": fig18_replay(4.0),
    "fig18 at 8x": fig18_replay(8.0),
    "fig18 at 16x": fig18_replay(16.0),
    "fig16 (4 rounds, no batches)": fig16_rounds,
    "fig09 arrival": fig09_arrival,
}


def _ms(values: List[float]) -> str:
    return f"{1e3 * statistics.median(values):.2f}" if values else "-"


def summarize(samples: List[Sample], chained: bool) -> List:
    """Count, medians, wins and the smallest ratio of one round class."""
    rows = [s for s in samples if s[0] == chained]
    relaxation = [s[1] for s in rows]
    cost_scaling = [s[2] for s in rows]
    ratios = [r / max(c, 1e-9) for _, r, c in rows]
    return [
        len(rows),
        _ms(relaxation),
        _ms(cost_scaling),
        sum(r < c for _, r, c in rows),
        sum(c <= r for _, r, c in rows),
        f"{min(ratios):.2f}" if ratios else "-",
    ]


HEADER = [
    "shape", "class", "rounds", "relax med [ms]", "cs med [ms]",
    "relax faster", "cs faster", "min relax/cs",
]


def table_rows(name: str, samples: List[Sample]) -> List[List]:
    return [
        [name, "chained" if chained else "unchained", *summarize(samples, chained)]
        for chained in (True, False)
    ]


@pytest.mark.parametrize("name", list(SHAPES))
def test_cost_scaling_wins_the_rounds_that_chain(name):
    samples = SHAPES[name]()
    print()
    print(format_table(HEADER, table_rows(name, samples)))
    chained = [s for s in samples if s[0]]
    if chained:
        relaxation = statistics.median(s[1] for s in chained)
        cost_scaling = statistics.median(s[2] for s in chained)
        assert cost_scaling <= relaxation, (
            f"{name}: on chained rounds cost scaling's median "
            f"{1e3 * cost_scaling:.2f} ms > relaxation's {1e3 * relaxation:.2f} ms"
        )


if __name__ == "__main__":
    rows = []
    for name, shape in SHAPES.items():
        rows.extend(table_rows(name, shape()))
    print("Dual race, both legs timed on every round")
    print(format_table(HEADER, rows))
