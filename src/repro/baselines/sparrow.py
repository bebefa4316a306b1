"""Sparrow-style distributed scheduler (batch sampling / power of two choices).

Sparrow schedules each task by probing a small random sample of machines and
placing the task on the least-loaded probe.  The decisions are fast and
parallelizable but ignore data locality and network interference, which is
why the paper's testbed experiment (Figure 19) shows Sparrow with the worst
tail response times once the network is contended.
"""

from __future__ import annotations

from typing import List, Optional

from repro.baselines.base import QueueBasedScheduler
from repro.cluster.machine import Machine
from repro.cluster.state import ClusterState
from repro.cluster.task import Task


class SparrowScheduler(QueueBasedScheduler):
    """Probe ``sample_size`` random machines, pick the least loaded."""

    name = "sparrow"

    def __init__(self, sample_size: int = 2, **kwargs) -> None:
        """Create the scheduler.

        Args:
            sample_size: Number of machines probed per task (Sparrow's batch
                sampling uses two probes per task by default).
            **kwargs: Forwarded to :class:`QueueBasedScheduler`.
        """
        super().__init__(**kwargs)
        if sample_size < 1:
            raise ValueError("sample size must be at least 1")
        self.sample_size = sample_size

    def select_machine(
        self, task: Task, candidates: List[Machine], state: ClusterState
    ) -> Optional[int]:
        """Sample machines and choose the one with the fewest queued/running tasks."""
        if not candidates:
            return None
        sample_size = min(self.sample_size, len(candidates))
        probes = self.rng.sample(candidates, sample_size)
        best = min(
            probes,
            key=lambda m: (self.effective_task_count(state, m.machine_id), self.rng.random()),
        )
        return best.machine_id
