"""Live ≡ replay: ``recover()`` rebuilds exactly the state and ledger the
live service held, because both run the same two appliers in the same
order.

* a directed case -- a completion and the removal of the task's machine
  in one batch, in that order -- which a replay that groups a batch by
  kind turns into a preemption;
* a seeded oracle: a churny in-process run (keyed submissions with
  duplicate resubmits, completions -- stale ones too --, machine adds and
  removals, a solve that raises once, snapshots under the run) where
  every release is followed by ``recover()`` of a copy of the state
  directory, which must equal the live state and the live ledger, and by
  a snapshot of the live state into a side directory, whose file must be
  the framed ``json.dumps`` of the whole state and ledger byte for byte
  (the writer reuses finished jobs' encodings, so a stale one shows);
* the grouped ``admit`` format older state directories hold, which must
  still recover in the order its replay has always applied it.

The service is driven in process without its round loop or sockets:
front-door handlers with a client that has no connection, then
``_run_round``; nothing here waits on wall clock.
"""

from __future__ import annotations

import asyncio
import dataclasses
import random
import shutil
from types import SimpleNamespace

import pytest

from repro.cluster.machine import Machine
from repro.cluster.state import ClusterState
from repro.cluster.topology import build_topology
from repro.core import FirmamentScheduler
from repro.core.policies import QuincyPolicy
from repro.service import (
    DurabilityLayer,
    SchedulerService,
    ServiceConfig,
    recover,
    snapshot_cluster_state,
)
from repro.service.durability import Ledger
from tests.conftest import make_cluster_state, make_job
from tests.service.test_durability import oracle_bytes

#: A client with no connection: the handlers' replies go nowhere.
NOBODY = SimpleNamespace(client_id=0)


def make_service(tmp_path, scheduler=None, machines=4, slots=2, **layer_kwargs):
    """A durable service that has written its first snapshot, loop not started.

    Tasks run for a million seconds of wall clock: no completion timer
    fires during a test, so completions arrive only when a test enqueues
    them.
    """
    layer_kwargs.setdefault("fsync", False)
    layer = DurabilityLayer(tmp_path / "state", **layer_kwargs)
    service = SchedulerService(
        ClusterState(build_topology(machines, slots_per_machine=slots)),
        scheduler or FirmamentScheduler(QuincyPolicy()),
        ServiceConfig(time_scale=1e6),
        durability=layer,
    )
    service._write_snapshot()
    return service, layer


def recover_copy(layer, target):
    shutil.copytree(layer.directory, target)
    return recover(target)


def test_a_completion_then_its_machines_removal_replays_as_it_ran(tmp_path):
    """One batch holding [completion of t, remove_machine(t's machine)]:
    live, t completes and the removal evicts nothing; replay must agree."""

    async def scenario():
        service, layer = make_service(tmp_path)
        service._enqueue("submit", (None, make_job(job_id=1, num_tasks=1)))
        await service._run_round()
        (task,) = service.state.running_tasks()
        service._enqueue("complete", (task.task_id, task.start_time))
        service._enqueue("remove_machine", task.machine_id)
        await service._run_round()
        assert service.state.tasks[task.task_id].is_finished
        recovered = recover_copy(layer, tmp_path / "copy")
        layer.close()
        assert recovered.state == service.state
        assert (recovered.ledger.completions, recovered.ledger.preemptions) == (1, 0)
        assert recovered.ledger == service.ledger

    asyncio.run(scenario())


class RaisesOnce:
    """A scheduler whose ``schedule`` raises on its ``nth`` call."""

    def __init__(self, inner, nth: int) -> None:
        self.inner = inner
        self.calls = 0
        self.nth = nth

    def schedule(self, state, now):
        self.calls += 1
        if self.calls == self.nth:
            raise RuntimeError("injected solver failure")
        return self.inner.schedule(state, now)

    def apply(self, state, decision, now):
        self.inner.apply(state, decision, now)


def churn(service, rng: random.Random, keys) -> None:
    """Queue one batch of random front-door requests and completions."""
    state = service.state
    for _ in range(rng.randint(1, 5)):
        roll = rng.random()
        if roll < 0.3:
            key = f"job-{len(keys)}"
            keys.append(key)
            service._handle_submit(NOBODY, {
                "tasks": rng.randint(1, 3), "key": key, "duration": 1.0,
                "job_type": rng.choice(["batch", "service"]),
            }, None)
        elif roll < 0.4 and keys:
            # A blind resubmission: answered from the ledger or the inbox.
            service._handle_submit(NOBODY, {"tasks": 1, "key": rng.choice(keys)}, None)
        elif roll < 0.45:
            service._handle_submit(NOBODY, {"tasks": 1, "duration": 1.0}, None)
        elif roll < 0.75:
            running = sorted(state.running_tasks(), key=lambda task: task.task_id)
            if running:
                task = rng.choice(running)
                # One in five is a stale timer of an earlier execution.
                stale = 1.0 if rng.random() < 0.2 else 0.0
                service._enqueue_completion(task.task_id, task.start_time - stale)
        elif roll < 0.85:
            service._handle_add_machine(NOBODY, {"count": 1}, None)
        else:
            healthy = sorted(m.machine_id for m in state.topology.healthy_machines())
            if len(healthy) > 1:
                service._handle_remove_machine(
                    NOBODY, {"machine_id": rng.choice(healthy)}, None
                )


def durable_part(ledger: Ledger) -> Ledger:
    """What the log holds of a live ledger: a drain's voids never reach it."""
    return dataclasses.replace(
        ledger, accepted=ledger.accepted - ledger.rejected, rejected=0
    )


@pytest.mark.parametrize("seed", range(10))
def test_recovery_equals_the_live_service_after_every_release(tmp_path, seed):
    rng = random.Random(seed)
    scheduler = RaisesOnce(FirmamentScheduler(QuincyPolicy()), nth=rng.randint(2, 8))
    checked = []

    async def scenario():
        service, layer = make_service(
            tmp_path, scheduler=scheduler, snapshot_interval_rounds=5
        )
        release = service._release
        side = DurabilityLayer(tmp_path / "side", fsync=False)

        def release_then_recover():
            release()
            recovered = recover_copy(layer, tmp_path / f"copy-{len(checked)}")
            assert recovered.state == service.state
            assert recovered.ledger == durable_part(service.ledger)
            assert service._stats_snapshot()["conserved"]
            clock = service.now()
            written = side.write_snapshot(service.state, service.ledger, clock)
            assert written.read_bytes() == oracle_bytes(
                side, service.state, service.ledger, clock
            )
            checked.append(recovered.replayed_records)

        service._release = release_then_recover
        keys = []
        for _ in range(30):
            churn(service, rng, keys)
            await service._run_round()
        # The drain: what is still queued is voided, the rest applies.
        churn(service, rng, keys)
        service._handle_submit(NOBODY, {"tasks": 2, "key": "late"}, None)
        service._draining = True
        await service._round_loop()
        final = await service.stop()
        assert final["conserved"] and final["rejected"] >= 2
        recovered = recover(layer.directory)
        assert recovered.state == service.state
        assert recovered.ledger == service.ledger
        side.close()
        return service, layer

    service, layer = asyncio.run(scenario())
    ledger = service.ledger
    # The run exercised what it is meant to.
    assert ledger.degraded_rounds == 1 and scheduler.calls > scheduler.nth
    assert ledger.completions and ledger.preemptions and service.stats.duplicates
    assert service.state.encoded_jobs  # finished jobs' encodings were reused
    assert layer.snapshots_written > 3 and len(checked) == 31 and any(checked)


def grouped_admit(now, job_id, task_id, machine, removed, completion):
    """An ``admit`` record in the grouped format, written out by hand."""
    return {
        "now": now,
        "submissions": [{"key": "k", "job": {
            "job_id": job_id, "job_type": "batch", "submit_time": now,
            "priority": 0, "name": f"job-{job_id}",
            "tasks": [{
                "task_id": task_id, "job_id": job_id, "duration": 3.0,
                "submit_time": now, "cpu_request": 1.0, "ram_request_gb": 1.0,
                "network_request_mbps": 0, "input_size_gb": 0.0,
                "input_locality": {}, "priority": 0, "state": "submitted",
                "placement_time": None, "start_time": None,
                "finish_time": None, "machine_id": None,
                "last_machine_id": None,
            }],
        }}],
        "machines_added": [{
            "machine_id": machine, "rack_id": 1, "num_slots": 2,
            "cpu_cores": 12, "ram_gb": 64, "network_bandwidth_mbps": 10000,
            "state": "healthy", "name": f"machine-{machine}",
        }],
        "machines_removed": [removed],
        "completions": [completion],
    }


def test_a_grouped_admit_record_recovers_in_its_replay_order(tmp_path):
    """Submissions, added machines, removed machines, completions -- so a
    completion grouped behind its machine's removal finds the task
    already preempted, exactly as that format has always replayed."""
    state = make_cluster_state(num_machines=2)
    running = make_job(job_id=1, num_tasks=1)
    state.submit_job(running)
    (task,) = running.tasks
    state.place_task(task.task_id, 0, now=1.0)
    layer = DurabilityLayer(tmp_path / "state", fsync=False)
    layer.write_snapshot(
        state,
        Ledger(accepted=1, placed=1, rounds=1, placed_ids={task.task_id}),
        clock=1.0,
    )
    layer.log_admission(grouped_admit(
        2.0, job_id=2, task_id=2000, machine=2,
        removed=0, completion=[task.task_id, 1.0],
    ))
    layer.close()

    recovered = recover(layer.directory)

    expected = make_cluster_state(num_machines=2)
    expected.submit_job(make_job(job_id=1, num_tasks=1))
    expected.place_task(task.task_id, 0, now=1.0)
    expected.submit_job(make_job(job_id=2, num_tasks=1, submit_time=2.0, duration=3.0))
    expected.add_machine(Machine(machine_id=2, rack_id=1, num_slots=2))
    assert expected.fail_machine(0, now=2.0) == [task.task_id]
    assert recovered.state == expected
    assert recovered.state.tasks[task.task_id].is_pending
    assert recovered.ledger == Ledger(
        accepted=2, placed=1, preemptions=1, rounds=1,
        placed_ids={task.task_id}, idempotency={"k": 2},
    )
