"""Pacing of the service's round loop: rounds start when work arrives.

A round starts as soon as the previous one has applied and something that
can change a decision is queued; ``round_interval`` only bounds how long
*deferred* work (completions nobody waits on, tasks a round just failed to
place) can wait for the loop to look at it.  The round is solved on the
event loop, so a case that needs an interleaving cannot await while a
round is in flight: it chooses what arrives during one with the hook of
:class:`GatedScheduler` (the coalescing, drain and per-client-order cases
in ``test_service.py``).  The ones below that sleep do so because what
they measure *is* wall time: that nothing happens while idle, a retry
rate, a deferral bound.
"""

from __future__ import annotations

import asyncio
import time

from repro.cluster.state import ClusterState
from repro.cluster.topology import build_topology
from repro.core import ShardedScheduler
from repro.core.policies import QuincyPolicy
from repro.service import SchedulerService, ServiceConfig
from tests.service.test_service import make_service, recv_until, send


async def connect(service):
    return await asyncio.open_connection("127.0.0.1", service.port)


async def submit(reader, writer, request_id, tasks, **fields):
    await send(writer, {"op": "submit", "tasks": tasks, "id": request_id, **fields})
    return await recv_until(reader, "ack")


def run(scenario, timeout=30):
    asyncio.run(asyncio.wait_for(scenario(), timeout))


def test_an_idle_service_runs_no_rounds():
    async def scenario():
        service = make_service(round_interval=0.01)
        await service.start()
        try:
            await asyncio.sleep(0.2)  # twenty intervals of the old floor
            stats = service.stats
            assert (service.ledger.rounds, stats.solver_rounds, stats.drains) == (0, 0, 0)
            assert stats.round_busy_seconds == 0.0
        finally:
            await service.stop()

    run(scenario)


def test_back_to_back_submissions_do_not_wait_for_the_interval():
    async def scenario():
        service = make_service(round_interval=5.0)
        await service.start()
        try:
            reader, writer = await connect(service)
            started = time.monotonic()
            for request_id in range(2):
                await submit(reader, writer, request_id, 2, job_type="service")
                for _ in range(2):
                    await asyncio.wait_for(recv_until(reader, "placement"), 1.0)
            assert time.monotonic() - started < 1.0
            assert service.ledger.rounds == 2
            writer.close()
        finally:
            await service.stop()

    run(scenario)


def test_completion_with_nothing_pending_is_deferred_not_solved():
    """It frees a slot nobody is waiting for: no solver round, but applied
    and notified with the next look, ``round_interval`` later at most."""
    interval = 0.2

    async def scenario():
        service = make_service(round_interval=interval, time_scale=0.01)
        await service.start()
        try:
            reader, writer = await connect(service)
            await submit(reader, writer, 0, 1, duration=1.0)  # runs 10 ms
            await recv_until(reader, "placement")
            placed = time.monotonic()
            await recv_until(reader, "completion")
            waited = time.monotonic() - placed
            # Deferred for the interval (not solved at once), and no longer.
            assert 0.01 + interval * 0.5 < waited < 0.01 + interval + 0.5
            stats = service.stats
            assert (service.ledger.rounds, stats.solver_rounds) == (1, 1)
            assert (stats.drains, service.ledger.completions) == (2, 1)
            assert service.state.num_live_tasks == 0
            writer.close()
        finally:
            await service.stop()

    run(scenario)


def test_completion_while_tasks_are_pending_starts_a_round_at_once():
    async def scenario():
        # One machine, four slots: the fifth task waits for a completion.
        service = make_service(machines=1, round_interval=5.0, time_scale=0.01)
        await service.start()
        try:
            reader, writer = await connect(service)
            await submit(reader, writer, 0, 4, duration=10.0)  # run 100 ms
            for _ in range(4):
                await recv_until(reader, "placement")
            ack = await submit(reader, writer, 1, 1, job_type="service")
            while True:
                message = await asyncio.wait_for(recv_until(reader, "placement"), 2.0)
                if message["task_id"] in ack["task_ids"]:
                    break
            writer.close()
        finally:
            await service.stop()

    run(scenario)


def test_unplaceable_pending_tasks_retry_once_per_interval_at_most():
    interval = 0.05

    async def scenario():
        service = make_service(machines=1, round_interval=interval)
        await service.start()
        try:
            reader, writer = await connect(service)
            await submit(reader, writer, 0, 6, job_type="service")
            for _ in range(4):
                await recv_until(reader, "placement")
            await asyncio.sleep(2 * interval)  # the follow-up round is over
            before, window = service.ledger.rounds, 0.5
            await asyncio.sleep(window)
            retries = service.ledger.rounds - before
            # It keeps looking (a slot may free up outside its view) ...
            assert retries >= 2
            # ... but a full cluster cannot make the loop spin.
            assert retries <= window / interval + 1
            assert service.state.num_pending_tasks == 2
            writer.close()
        finally:
            await service.stop()

    run(scenario)


def test_sharded_service_places_a_rehomed_task_without_waiting():
    """A round whose only effect is the balancer re-homing tasks is
    followed at once by the round that places them."""

    async def scenario():
        # Two racks of one machine: cell 0 = machine 0, cell 1 = machine 1.
        state = ClusterState(build_topology(2, machines_per_rack=1))
        scheduler = ShardedScheduler(QuincyPolicy, num_cells=2)
        service = SchedulerService(
            state, scheduler, ServiceConfig(round_interval=5.0)
        )
        await service.start()
        try:
            reader, writer = await connect(service)
            # Job 1 homes to (and fills) cell 1; job 2 homes to cell 0.
            for request_id, tasks in ((0, 4), (1, 1)):
                await send(writer, {"op": "submit", "tasks": tasks,
                                    "id": request_id, "job_type": "service"})
            for _ in range(5):
                await recv_until(reader, "placement")
            # Machine 1 leaves: job 1's four tasks queue in a cell without
            # a machine.  The round the event starts places nothing and
            # re-homes three of them (cell 0 has three slots free); the
            # next one places them.  (A *new* job hashed to a full cell is
            # homed where there is room and never needs the balancer.)
            started = time.monotonic()
            await send(writer, {"op": "remove_machine", "machine_id": 1,
                                "id": 2})
            while state.num_pending_tasks != 1:
                assert time.monotonic() - started < 2.0
                await asyncio.sleep(0.005)
            assert {task.machine_id for task in state.running_tasks()} == {0}
            assert scheduler.balancer.total_migrations == 3
            writer.close()
        finally:
            await service.stop()

    run(scenario)
