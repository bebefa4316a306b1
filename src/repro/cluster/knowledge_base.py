"""Knowledge base: historical task profiling statistics.

Firmament's coordinator keeps a knowledge base of past task behaviour --
runtimes, resource usage -- keyed by *task equivalence class*, so scheduling
policies can price arcs using expected runtimes (e.g. a shortest-job-first
cost model) or expected usage instead of raw requests.  The paper relies on
this machinery implicitly: the Google trace replay estimates batch input
sizes from known runtimes (Section 7.1), and the network-aware policy uses
observed bandwidth rather than requested bandwidth (Section 3.3).

The implementation keeps bounded per-class sample reservoirs plus running
aggregates, so memory stays constant regardless of how many tasks complete.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Hashable, Iterable, List, Optional, Tuple

from repro.cluster.resources import ResourceVector, equivalence_class
from repro.cluster.task import Task


@dataclass
class RuntimeStatistics:
    """Aggregated runtime observations for one task equivalence class.

    Attributes:
        count: Number of completed tasks observed.
        total_runtime: Sum of observed runtimes in seconds.
        min_runtime: Shortest observed runtime.
        max_runtime: Longest observed runtime.
        samples: Bounded reservoir of recent runtimes used for percentiles.
    """

    count: int = 0
    total_runtime: float = 0.0
    min_runtime: float = float("inf")
    max_runtime: float = 0.0
    samples: Deque[float] = field(default_factory=lambda: deque(maxlen=256))

    def record(self, runtime: float) -> None:
        """Account one completed task's runtime."""
        if runtime < 0:
            raise ValueError("task runtime must be non-negative")
        self.count += 1
        self.total_runtime += runtime
        self.min_runtime = min(self.min_runtime, runtime)
        self.max_runtime = max(self.max_runtime, runtime)
        self.samples.append(runtime)

    @property
    def mean(self) -> float:
        """Mean observed runtime (zero when nothing has been observed)."""
        if self.count == 0:
            return 0.0
        return self.total_runtime / self.count

    def percentile(self, fraction: float) -> float:
        """Return an empirical percentile over the recent sample reservoir.

        Args:
            fraction: Percentile as a fraction in ``[0, 1]``.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("percentile fraction must be within [0, 1]")
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
        return ordered[index]


@dataclass
class UsageStatistics:
    """Exponentially weighted resource-usage observations for one class."""

    #: Smoothing factor of the exponential moving average.
    alpha: float = 0.2
    count: int = 0
    average: ResourceVector = field(default_factory=ResourceVector.zero)

    def record(self, usage: ResourceVector) -> None:
        """Fold one usage observation into the moving average."""
        self.count += 1
        if self.count == 1:
            self.average = usage
            return
        self.average = ResourceVector(
            cpu_cores=self._blend(self.average.cpu_cores, usage.cpu_cores),
            ram_gb=self._blend(self.average.ram_gb, usage.ram_gb),
            network_mbps=self._blend(self.average.network_mbps, usage.network_mbps),
            disk_gb=self._blend(self.average.disk_gb, usage.disk_gb),
        )

    def _blend(self, old: float, new: float) -> float:
        return (1.0 - self.alpha) * old + self.alpha * new


class KnowledgeBase:
    """Historical statistics about task behaviour, keyed by equivalence class.

    The knowledge base answers the two questions cost models ask:

    * "how long will this task probably run?"
      (:meth:`estimate_runtime`) and
    * "how much of its request will it actually use?"
      (:meth:`estimate_usage`).

    Estimates fall back to the job-level class, then to a global default,
    when a class has not been observed yet, so policies can always obtain a
    number.
    """

    def __init__(
        self,
        default_runtime: float = 60.0,
        cpu_granularity: float = 1.0,
        ram_granularity_gb: float = 1.0,
    ) -> None:
        """Create an empty knowledge base.

        Args:
            default_runtime: Runtime estimate (seconds) returned before any
                observation exists for a class.
            cpu_granularity: CPU bucket width used to form equivalence classes.
            ram_granularity_gb: RAM bucket width used to form equivalence classes.
        """
        if default_runtime <= 0:
            raise ValueError("default runtime estimate must be positive")
        self.default_runtime = default_runtime
        self.cpu_granularity = cpu_granularity
        self.ram_granularity_gb = ram_granularity_gb
        self._runtimes: Dict[Hashable, RuntimeStatistics] = {}
        self._job_runtimes: Dict[int, RuntimeStatistics] = {}
        self._usage: Dict[Hashable, UsageStatistics] = {}
        #: Monotonically increasing; moves with every recorded observation,
        #: so a consumer that priced from the estimates can tell they moved
        #: (recording raises no cluster dirty event).
        self.version = 0

    # ------------------------------------------------------------------ #
    # Classification
    # ------------------------------------------------------------------ #
    def class_of(self, task: Task) -> Hashable:
        """Return the resource-request equivalence class of a task."""
        return equivalence_class(
            task,
            cpu_granularity=self.cpu_granularity,
            ram_granularity_gb=self.ram_granularity_gb,
        )

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record_completion(self, task: Task, runtime: Optional[float] = None) -> None:
        """Record a completed task's observed runtime.

        Args:
            task: The completed task.
            runtime: Observed runtime in seconds; derived from the task's
                start and finish times when omitted.
        """
        if runtime is None:
            if task.start_time is None or task.finish_time is None:
                raise ValueError(
                    "task has no start/finish times; pass the runtime explicitly"
                )
            runtime = task.finish_time - task.start_time
        key = self.class_of(task)
        self._runtimes.setdefault(key, RuntimeStatistics()).record(runtime)
        self._job_runtimes.setdefault(task.job_id, RuntimeStatistics()).record(runtime)
        self.version += 1

    def record_usage(self, task: Task, usage: ResourceVector) -> None:
        """Record one observation of a task's actual resource usage."""
        key = self.class_of(task)
        self._usage.setdefault(key, UsageStatistics()).record(usage)
        self.version += 1

    def observe_completed_tasks(self, tasks: Iterable[Task]) -> int:
        """Record every finished task in ``tasks`` that has timing data.

        Returns the number of tasks recorded.  Convenience for simulators
        that hand the knowledge base a batch of completions per round.
        """
        recorded = 0
        for task in tasks:
            if task.is_finished and task.start_time is not None and task.finish_time is not None:
                self.record_completion(task)
                recorded += 1
        return recorded

    # ------------------------------------------------------------------ #
    # Estimation
    # ------------------------------------------------------------------ #
    def estimate_runtime(self, task: Task, percentile: Optional[float] = None) -> float:
        """Estimate how long a task will run.

        Preference order: statistics of the task's resource equivalence
        class, then statistics of its job, then the global default.

        Args:
            task: The task to estimate.
            percentile: When given, return that percentile of the class's
                recent samples instead of the mean (e.g. 0.9 for a
                conservative estimate).
        """
        stats = self._runtimes.get(self.class_of(task))
        if stats is None or stats.count == 0:
            stats = self._job_runtimes.get(task.job_id)
        if stats is None or stats.count == 0:
            return self.default_runtime
        if percentile is not None:
            return stats.percentile(percentile)
        return stats.mean

    def estimate_usage(self, task: Task) -> ResourceVector:
        """Estimate a task's actual resource usage.

        Falls back to the task's request when its class has no observations,
        which is the conservative choice (requests over-estimate usage).
        """
        stats = self._usage.get(self.class_of(task))
        if stats is None or stats.count == 0:
            return ResourceVector.for_task(task)
        return stats.average

    @property
    def num_classes(self) -> int:
        """Number of equivalence classes with at least one runtime sample."""
        return len(self._runtimes)

    @property
    def num_observations(self) -> int:
        """Total number of recorded task completions."""
        return sum(stats.count for stats in self._runtimes.values())
