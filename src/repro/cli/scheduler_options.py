"""The scheduler flags ``serve`` and ``simulate`` share, declared once.

:func:`add_scheduler_arguments` declares ``--scheduler --policy
--cells --cell-workers --round-deadline``;
:func:`_make_scheduler` turns the parsed values into a scheduler and rejects
flag combinations that cannot take effect.
"""

from __future__ import annotations

from typing import Optional

from repro import solvers
from repro.core import policies
from repro.core.scheduler import FirmamentScheduler

# The factories below name their classes, and a class's module is imported
# when a scheduler is built with it, so ``serve`` loads only what it runs.

#: ``--policy`` name -> policy class in :mod:`repro.core.policies`
#: (Firmament and Quincy only).
_POLICY_CLASSES = {
    "quincy": "QuincyPolicy",
    "load_spreading": "LoadSpreadingPolicy",
    "network_aware": "NetworkAwarePolicy",
    "cpu_memory": "CpuMemoryPolicy",
    "shortest_job_first": "ShortestJobFirstPolicy",
    "random": "RandomPlacementPolicy",
}

#: ``--scheduler`` name -> factory in :mod:`repro.baselines`, for
#: everything but ``firmament``.
_BASELINES = {
    "quincy": "make_quincy_scheduler",
    "sparrow": "SparrowScheduler",
    "swarmkit": "SwarmKitScheduler",
    "kubernetes": "KubernetesScheduler",
    "mesos": "MesosScheduler",
}

#: Names accepted by ``--scheduler`` and ``--policy``.
SCHEDULERS = ("firmament", *_BASELINES)
POLICIES = tuple(_POLICY_CLASSES)


def add_scheduler_arguments(parser) -> None:
    """Declare the scheduler-selection flags on a subcommand's parser."""
    parser.add_argument(
        "--scheduler",
        choices=SCHEDULERS,
        default="firmament",
        help="scheduler to drive (default: firmament)",
    )
    parser.add_argument(
        "--policy",
        choices=POLICIES,
        default="quincy",
        help="scheduling policy for the flow-based schedulers (default: quincy)",
    )
    parser.add_argument(
        "--cells",
        type=int,
        default=0,
        metavar="N",
        help=(
            "shard the cluster into this many scheduling cells (racks map "
            "to cells round-robin) and run one incremental solver per cell "
            "with cross-cell balancing.  A round solves only the cells "
            "with a task waiting to be placed (every cell when none waits); "
            "it costs those cells -- their sum inline, the slowest with "
            "--cell-workers -- and the others keep their changes for their "
            "next round.  Use when rounds "
            "carry large change batches (tens of tasks or machine events "
            "per round: 4 cells ~10x the monolithic round at 512 machines); "
            "on low-churn rounds the monolithic delta solve already costs "
            "only what changed and 4 cells gain ~2x on the solve, before "
            "routing and merge overhead; firmament only, 0 keeps the "
            "monolithic scheduler (default: 0)"
        ),
    )
    parser.add_argument(
        "--cell-workers",
        action="store_true",
        help=(
            "with --cells, solve each cell in a persistent worker "
            "subprocess instead of inline (real process parallelism)"
        ),
    )
    parser.add_argument(
        "--round-deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-round wall-clock budget for the flow-based schedulers: "
            "at the budget cost scaling stops its epsilon ladder; a delta "
            "repair still running one watchdog period later is aborted, "
            "and a round (with --cells: a cell) where no solver finished "
            "reuses the previous feasible placements and rebuilds next "
            "round instead of stalling.  Only simulate's monolithic rounds "
            "that do not chain onto the previous solve (the first, a "
            "broken chain, the round after an abort) also race a "
            "relaxation leg, aborted at the same deadline; every other "
            "round, and every serve round, is the one cost-scaling solve.  "
            "Degraded-round counts are reported in the summary (firmament "
            "only, default: no deadline)"
        ),
    )


def _policy_class(name: str):
    if name not in _POLICY_CLASSES:
        raise ValueError(f"unknown policy {name!r}")
    return getattr(policies, _POLICY_CLASSES[name])


def _make_scheduler(
    scheduler_name: str,
    policy_name: str,
    executor: bool = True,
    cells: int = 0,
    cell_workers: bool = False,
    round_deadline_seconds: Optional[float] = None,
):
    """Build the scheduler a CLI invocation asked for.

    ``executor`` picks the monolithic firmament scheduler's solver: the
    :class:`~repro.solvers.dual_executor.DualAlgorithmExecutor`
    (``simulate``), or with ``False`` no race at all -- one
    :class:`~repro.solvers.incremental.IncrementalCostScalingSolver`, the
    solver every sharded cell runs, which is what ``serve`` asks for.

    Flag combinations that cannot take effect are rejected loudly instead
    of silently ignored: ``cells`` only applies to the firmament scheduler,
    and ``round_deadline_seconds`` needs a flow-based scheduler with
    deadline support.
    """
    if cells > 0 and scheduler_name != "firmament":
        raise ValueError(
            f"--cells only applies to the firmament scheduler, not "
            f"{scheduler_name!r}"
        )
    if round_deadline_seconds is not None and scheduler_name != "firmament":
        raise ValueError(
            f"--round-deadline only applies to the firmament scheduler, not "
            f"{scheduler_name!r} (the queue-based baselines have no round "
            "budget to enforce)"
        )
    if scheduler_name == "firmament":
        if cells > 0:
            from repro.core.sharding import ShardedScheduler

            return ShardedScheduler(
                _policy_class(policy_name),
                num_cells=cells,
                workers=cell_workers,
                round_deadline_seconds=round_deadline_seconds,
            )
        if cell_workers:
            raise ValueError("--cell-workers requires --cells")
        solver = getattr(
            solvers,
            "DualAlgorithmExecutor" if executor
            else "IncrementalCostScalingSolver",
        )()
        return FirmamentScheduler(
            _policy_class(policy_name)(), solver=solver,
            round_deadline_seconds=round_deadline_seconds,
        )
    if cell_workers:
        raise ValueError("--cell-workers requires --cells")
    if scheduler_name not in _BASELINES:
        raise ValueError(f"unknown scheduler {scheduler_name!r}")
    from repro import baselines

    return getattr(baselines, _BASELINES[scheduler_name])()
