"""The scheduler flags ``serve`` and ``simulate`` share, declared once.

:func:`add_scheduler_arguments` declares ``--scheduler --policy
--cells --cell-workers --round-deadline``;
:func:`_make_scheduler` turns the parsed values into a scheduler and rejects
flag combinations that cannot take effect.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines import (
    KubernetesScheduler,
    MesosScheduler,
    SparrowScheduler,
    SwarmKitScheduler,
    make_quincy_scheduler,
)
from repro.core import FirmamentScheduler, ShardedScheduler
from repro.core.policies import (
    CpuMemoryPolicy,
    LoadSpreadingPolicy,
    NetworkAwarePolicy,
    QuincyPolicy,
    RandomPlacementPolicy,
    ShortestJobFirstPolicy,
)

#: ``--policy`` name -> policy class (Firmament and Quincy only).
_POLICY_CLASSES = {
    "quincy": QuincyPolicy,
    "load_spreading": LoadSpreadingPolicy,
    "network_aware": NetworkAwarePolicy,
    "cpu_memory": CpuMemoryPolicy,
    "shortest_job_first": ShortestJobFirstPolicy,
    "random": RandomPlacementPolicy,
}

#: ``--scheduler`` name -> factory, for everything but ``firmament``.
_BASELINES = {
    "quincy": make_quincy_scheduler,
    "sparrow": SparrowScheduler,
    "swarmkit": SwarmKitScheduler,
    "kubernetes": KubernetesScheduler,
    "mesos": MesosScheduler,
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
            "with cross-cell balancing, so round wall clock tracks the "
            "slowest cell instead of the whole cluster; firmament only, "
            "0 keeps the monolithic scheduler (default: 0)"
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
            "the solver degrades at the budget (epsilon-ladder truncation, "
            "relaxation abort) and a round where no solver finished reuses "
            "the previous feasible placements instead of stalling; "
            "degraded-round counts are reported in the summary (firmament "
            "only, default: no deadline)"
        ),
    )


def _make_policy(name: str):
    if name not in _POLICY_CLASSES:
        raise ValueError(f"unknown policy {name!r}")
    return _POLICY_CLASSES[name]()


def _make_scheduler(
    scheduler_name: str,
    policy_name: str,
    executor: str = "sequential",
    executor_policy: str = "race",
    cells: int = 0,
    cell_workers: bool = False,
    round_deadline_seconds: Optional[float] = None,
):
    """Build the scheduler a CLI invocation asked for.

    Knob combinations that cannot take effect are rejected loudly instead
    of silently ignored: ``cells`` only applies to the firmament scheduler,
    the dual-executor knobs (``executor``, ``executor_policy``) do not
    exist in the sharded scheduler (each cell runs one incremental solver,
    there is no race to configure), and ``round_deadline_seconds`` needs a
    flow-based scheduler with deadline support.
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
            if executor != "sequential":
                raise ValueError(
                    f"--executor {executor!r} cannot combine with --cells: "
                    "the sharded scheduler runs one incremental solver per "
                    "cell (use --cell-workers for real process parallelism)"
                )
            if executor_policy != "race":
                raise ValueError(
                    f"--executor-policy {executor_policy!r} cannot combine "
                    "with --cells: the sharded scheduler has no dual-"
                    "algorithm race to steer"
                )
            return ShardedScheduler(
                lambda: _make_policy(policy_name),
                num_cells=cells,
                workers=cell_workers,
                round_deadline_seconds=round_deadline_seconds,
            )
        if cell_workers:
            raise ValueError("--cell-workers requires --cells")
        return FirmamentScheduler(
            _make_policy(policy_name), executor=executor,
            executor_policy=executor_policy,
            round_deadline_seconds=round_deadline_seconds,
        )
    if cell_workers:
        raise ValueError("--cell-workers requires --cells")
    if scheduler_name not in _BASELINES:
        raise ValueError(f"unknown scheduler {scheduler_name!r}")
    return _BASELINES[scheduler_name]()
