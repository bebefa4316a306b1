"""``serve`` loads only the modules its rounds reach, before round 1.

Each case runs in a fresh interpreter, since the test process has long
imported everything.  Building the scheduler ``serve`` builds must leave
the simulator, the baselines, the testbed, the analysis helpers, the
DIMACS codec, the knowledge base, the non-default policies and every
solver but incremental cost scaling unimported (and the monolith the
sharded scheduler too); and once round 1 has run, no round imports a
``repro`` module -- every module a round can reach is imported up front.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")

#: Prints the ``repro`` modules after main() has parsed a ``serve`` command
#: line, after the scheduler ``serve`` builds from it, after round 1 of an
#: in-process service around it, and after ~50 rounds of churn.
PROBE = r"""
import asyncio, json, random, sys
from types import SimpleNamespace

def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "repro")

from repro.cli.main import build_parser, main
flags = sys.argv[1:]
assert main(["serve", "--machines", "0", *flags]) == 1  # parsed, then refused
parsed = loaded()
from repro.cli.serve_command import _build_scheduler
from repro.cluster.state import ClusterState
from repro.cluster.topology import build_topology
from repro.service import SchedulerService, ServiceConfig

scheduler = _build_scheduler(build_parser(["serve"]).parse_args(["serve", *flags]))
built = loaded()
NOBODY = SimpleNamespace(client_id=0)

async def scenario():
    state = ClusterState(build_topology(32, machines_per_rack=4, slots_per_machine=2))
    service = SchedulerService(state, scheduler, ServiceConfig(time_scale=1e6))
    rng = random.Random(7)
    service._handle_submit(NOBODY, {"tasks": 24, "duration": 1.0}, None)
    await service._run_round()
    first = loaded()
    for round_index in range(50):
        service._handle_submit(
            NOBODY, {"tasks": rng.randint(1, 6), "duration": 1.0}, None
        )
        running = sorted(state.running_tasks(), key=lambda task: task.task_id)
        for task in rng.sample(running, min(len(running), rng.randint(0, 4))):
            service._enqueue_completion(task.task_id, task.start_time)
        if round_index % 5 == 0:
            healthy = sorted(m.machine_id for m in state.topology.healthy_machines())
            service._handle_remove_machine(
                NOBODY, {"machine_id": rng.choice(healthy)}, None
            )
            service._handle_add_machine(NOBODY, {"count": 1}, None)
        await service._run_round()
    placed = service.ledger.placed
    await service.stop()
    return first, placed

first, placed = asyncio.run(scenario())
print(json.dumps({"parsed": parsed, "built": built, "round1": first,
                  "rounds": loaded(), "placed": placed}))
"""

#: Modules no ``serve`` scheduler may load.
NEVER = (
    "repro.simulation",
    "repro.baselines",
    "repro.testbed",
    "repro.analysis",
    "repro.flow.dimacs",
    "repro.cluster.knowledge_base",
    "repro.core.policies.load_spreading",
    "repro.core.policies.network_aware",
    "repro.core.policies.cpu_memory",
    "repro.core.policies.shortest_job_first",
    "repro.core.policies.random_placement",
    "repro.solvers.relaxation",
    "repro.solvers.dual_executor",
    "repro.solvers.parallel_executor",
    "repro.solvers.cycle_canceling",
    "repro.solvers.successive_shortest_path",
    "repro.solvers.incremental_relaxation",
    "repro.solvers.worker",
    "repro.solvers.worker_health",
)


def probe(*flags: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", PROBE, *flags],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def forbidden(modules, never=NEVER):
    return [
        name for name in modules
        if any(name == bad or name.startswith(bad + ".") for bad in never)
    ]


@pytest.fixture(scope="module", params=[(), ("--cells", "4")], ids=["monolith", "4-cells"])
def loaded(request):
    return request.param, probe(*request.param)


def test_the_scheduler_serve_builds_loads_only_what_a_round_runs(loaded):
    flags, modules = loaded
    never = NEVER if flags else NEVER + ("repro.core.sharding",)
    assert forbidden(modules["built"], never) == []
    # main() parsed a serve command line with serve's own module alone.
    assert not {"repro.cli.simulate_command", "repro.cli.solve_command",
                "repro.cli.trace_command"} & set(modules["parsed"])
    assert len(modules["rounds"]) <= (34 if flags else 33), modules["rounds"]


def test_no_round_after_the_first_imports_a_module(loaded):
    flags, modules = loaded
    assert modules["placed"] > 24
    assert modules["rounds"] == modules["round1"]
    assert modules["round1"] == modules["built"]
    assert forbidden(modules["rounds"]) == []
