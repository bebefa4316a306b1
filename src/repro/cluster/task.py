"""Jobs, tasks, and their lifecycle.

The task lifecycle follows Figure 1 of the paper: a task is *submitted*,
waits until the scheduler *places* it, *starts* running on a machine, and
eventually *completes*.  The two derived quantities every experiment uses
are the task placement latency (submission to placement) and the task
response time (submission to completion).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional


class TaskState(enum.Enum):
    """Lifecycle state of a task (Figure 1)."""

    SUBMITTED = "submitted"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    PREEMPTED = "preempted"


class JobType(enum.Enum):
    """Coarse job classification used throughout the evaluation.

    The Google trace lacks explicit job types; following Omega, jobs are
    classified by priority into long-running *service* jobs and finite
    *batch* jobs.
    """

    BATCH = "batch"
    SERVICE = "service"


@dataclass(slots=True)
class Task:
    """A schedulable unit of work.

    Attributes:
        task_id: Unique integer identifier.
        job_id: Identifier of the owning job.
        duration: Runtime of the task in seconds once started (``None`` for
            long-running service tasks, whose response time is conceptually
            infinite).
        submit_time: Time the task entered the cluster manager.
        cpu_request: Requested CPU cores.
        ram_request_gb: Requested RAM in GB.
        network_request_mbps: Requested network bandwidth (network-aware policy).
        input_size_gb: Total input data size, used by the Quincy policy.
        input_locality: Fraction of the input stored per machine id; the
            Quincy policy turns fractions above its preference threshold into
            preference arcs.
        priority: Larger values are more important (service > batch).
        state: Current lifecycle state.
        placement_time: Time the scheduler first placed the task.
        start_time: Time the task started running.
        finish_time: Time the task completed (or failed / was preempted).
        machine_id: Machine currently running the task, if any.
        last_machine_id: Most recent machine the task ran on.  Unlike
            ``machine_id`` it survives preemption and eviction, so post-hoc
            metrics (e.g. the data locality of the placement an evicted
            task actually ran with) remain computable.
    """

    task_id: int
    job_id: int
    duration: Optional[float] = None
    submit_time: float = 0.0
    cpu_request: float = 1.0
    ram_request_gb: float = 1.0
    network_request_mbps: int = 0
    input_size_gb: float = 0.0
    input_locality: Dict[int, float] = field(default_factory=dict)
    priority: int = 0
    state: TaskState = TaskState.SUBMITTED
    placement_time: Optional[float] = None
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    machine_id: Optional[int] = None
    last_machine_id: Optional[int] = None

    @property
    def is_running(self) -> bool:
        """Return whether the task currently occupies a machine slot."""
        return self.state is TaskState.RUNNING

    @property
    def is_pending(self) -> bool:
        """Return whether the task is waiting to be placed."""
        return self.state in (TaskState.SUBMITTED, TaskState.PREEMPTED)

    @property
    def is_finished(self) -> bool:
        """Return whether the task reached a terminal state."""
        return self.state in (TaskState.COMPLETED, TaskState.FAILED)

    def placement_latency(self) -> Optional[float]:
        """Return submission-to-placement latency, if the task was placed."""
        if self.placement_time is None:
            return None
        return self.placement_time - self.submit_time

    def response_time(self) -> Optional[float]:
        """Return submission-to-completion time, if the task completed."""
        if self.finish_time is None:
            return None
        return self.finish_time - self.submit_time

    def locality_fraction(self, machine_id: int) -> float:
        """Return the fraction of this task's input stored on a machine."""
        return self.input_locality.get(machine_id, 0.0)

    def rack_locality_fraction(self, machine_ids: List[int]) -> float:
        """Return the fraction of this task's input stored within a rack."""
        return sum(self.input_locality.get(m, 0.0) for m in machine_ids)


@dataclass(slots=True)
class Job:
    """A job: a collection of parallel tasks submitted together.

    Attributes:
        job_id: Unique integer identifier.
        job_type: Batch or service.
        tasks: The job's tasks.
        submit_time: Submission time of the job.
        priority: Job priority (propagated to tasks).
        name: Human-readable name.
    """

    job_id: int
    job_type: JobType = JobType.BATCH
    tasks: List[Task] = field(default_factory=list)
    submit_time: float = 0.0
    priority: int = 0
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = f"job-{self.job_id}"

    @property
    def num_tasks(self) -> int:
        """Number of tasks in the job."""
        return len(self.tasks)

    def add_task(self, task: Task) -> None:
        """Attach a task to the job, inheriting job-level attributes."""
        task.job_id = self.job_id
        if task.priority == 0:
            task.priority = self.priority
        self.tasks.append(task)

    def pending_tasks(self) -> List[Task]:
        """Return tasks that still wait for placement."""
        return [t for t in self.tasks if t.is_pending]

    def running_tasks(self) -> List[Task]:
        """Return tasks currently running."""
        return [t for t in self.tasks if t.is_running]

    def is_complete(self) -> bool:
        """Return whether every task of the job reached a terminal state."""
        return all(t.is_finished for t in self.tasks)

    def response_time(self) -> Optional[float]:
        """Return the job response time: the maximum task response time.

        The paper uses this definition in the breaking-point experiment
        (Figure 17): a job responds only once its slowest task completes.
        """
        times = [t.response_time() for t in self.tasks]
        if any(t is None for t in times) or not times:
            return None
        return max(times)
