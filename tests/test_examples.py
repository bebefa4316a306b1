"""Every script under ``examples/`` runs to completion, and the custom
policy example's steady rounds never copy the graph.

The examples are the repository's front door: each is run as a user runs
it, in its own interpreter, and must exit 0.  ``custom_policy.py``'s
``RackAntiAffinityPolicy`` is also driven in process: a scope's owned arcs
are read off the graph through the builder's peek accessors, so a steady
round (a job arriving, tasks completing) builds no ``FlowNetwork`` copy of
the whole graph.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cluster import ClusterState, Job, JobType, Task, build_topology
from repro.core import FirmamentScheduler
from repro.solvers.residual import FlowGraph

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs_to_completion(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), str(ROOT), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]


def load_custom_policy():
    spec = importlib.util.spec_from_file_location(
        "custom_policy_example", ROOT / "examples" / "custom_policy.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.RackAntiAffinityPolicy


def test_steady_custom_policy_rounds_copy_no_graph(monkeypatch):
    policy = load_custom_policy()()
    state = ClusterState(
        build_topology(num_machines=12, machines_per_rack=3, slots_per_machine=4)
    )
    service = Job(job_id=1, job_type=JobType.SERVICE, submit_time=0.0)
    for index in range(8):
        service.add_task(Task(task_id=index, job_id=1, duration=None))
    state.submit_job(service)
    scheduler = FirmamentScheduler(policy)
    scheduler.schedule_and_apply(state, now=0.0)

    copies = []
    copy = FlowGraph.copy

    def counted(graph):
        copies.append(graph)
        return copy(graph)

    monkeypatch.setattr(FlowGraph, "copy", counted)
    next_task = 100
    for round_index in range(1, 6):
        now = float(round_index)
        job = Job(job_id=10 + round_index, submit_time=now)
        for _ in range(3):
            job.add_task(
                Task(task_id=next_task, job_id=job.job_id, duration=1.5, submit_time=now)
            )
            next_task += 1
        state.submit_job(job)
        for task in state.running_tasks():
            if task.duration is not None and task.start_time + task.duration <= now:
                state.complete_task(task.task_id, now)
        decision = scheduler.schedule_and_apply(state, now=now)
        assert decision.placements
        assert scheduler.graph_manager.last_update_stats.mode == "incremental"
    assert copies == []
