"""Tests for the scheduler-as-a-service front end (`repro.service`).

Covers the ISSUE 9 service contract: concurrent submission with placement
streaming, drain-on-shutdown conservation, slow-client backpressure
(eviction, not stalling), machine events, and a chaos case with a worker
kill mid-round behind the service.  The round runs on the event loop:
no executor thread, and no reply while a round is in flight.

The suite is stdlib-only: each test drives a real asyncio TCP service on
an ephemeral port inside ``asyncio.run`` (no pytest-asyncio dependency).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.chaos import ChaosPolicy
from repro.cluster.state import ClusterState
from repro.cluster.topology import build_topology
from repro.core import FirmamentScheduler, ShardedScheduler
from repro.core.policies import QuincyPolicy
from repro.service import DurabilityLayer, SchedulerService, ServiceConfig
from repro.service.loadgen import run_loadgen
from repro.service.server import _encode
from repro.solvers.incremental import IncrementalCostScalingSolver
from repro.solvers.residual import ResidualNetwork
from tests.conftest import make_job
from tests.service.gated_scheduler import GatedScheduler


def make_service(
    machines: int = 16,
    scheduler=None,
    **config_kwargs,
) -> SchedulerService:
    state = ClusterState(build_topology(machines))
    scheduler = scheduler or FirmamentScheduler(QuincyPolicy())
    defaults = {"round_interval": 0.01, "time_scale": 0.01}
    defaults.update(config_kwargs)
    return SchedulerService(state, scheduler, ServiceConfig(**defaults))


def request_line(payload: dict) -> bytes:
    return json.dumps(payload).encode() + b"\n"


async def send(writer: asyncio.StreamWriter, payload: dict) -> None:
    writer.write(request_line(payload))
    await writer.drain()


async def recv(reader: asyncio.StreamReader) -> dict:
    line = await reader.readline()
    assert line, "connection closed unexpectedly"
    return json.loads(line)


async def recv_until(reader: asyncio.StreamReader, event: str) -> dict:
    while True:
        message = await recv(reader)
        if message.get("event") == event:
            return message


async def recv_events(reader: asyncio.StreamReader, **wanted: int) -> list:
    """Read until ``wanted[event]`` events of each kind have arrived;
    return every event name read, in order."""
    events = []
    while any(events.count(event) < count for event, count in wanted.items()):
        events.append((await recv(reader)).get("event"))
    return events


class TestSubmissionStreaming:
    def test_concurrent_clients_stream_placements(self):
        async def scenario():
            service = make_service(machines=16)
            await service.start()
            try:
                result = await run_loadgen(
                    "127.0.0.1", service.port, clients=4, jobs_per_client=3,
                    tasks_per_job=4, duration=1.0,
                )
                assert result.tasks_accepted == 4 * 3 * 4
                assert result.tasks_placed == result.tasks_accepted
                assert result.errors == 0
                assert len(result.latencies) == result.tasks_placed
                assert all(lat >= 0.0 for lat in result.latencies)
                stats = result.service_stats
                assert stats["conserved"] is True
                assert stats["accepted"] == 48
                assert stats["placed"] == 48
                assert stats["rejected"] == 0
            finally:
                await service.stop()

        asyncio.run(asyncio.wait_for(scenario(), 30))

    def test_submissions_coalesce_into_shared_rounds(self):
        """Everything that arrives while a round is in flight is admitted
        by exactly one next round."""

        async def scenario():
            gated = GatedScheduler(FirmamentScheduler(QuincyPolicy()))
            service = make_service(machines=16, scheduler=gated)
            await service.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )

                def five_more(call):
                    # The first job's round is in flight: the other five
                    # arrive while it solves, and are acked after it.
                    if call == 1:
                        writer.write(b"".join(request_line({
                            "op": "submit", "tasks": 2, "id": sequence,
                            "job_type": "service",
                        }) for sequence in range(1, 6)))

                gated.hook = five_more
                await send(writer, {
                    "op": "submit", "tasks": 2, "id": 0, "job_type": "service",
                })
                events = await recv_events(reader, placement=12)
                assert events.count("ack") == 6
                writer.close()
                # 6 jobs, two rounds: the first job's, and one for the rest.
                assert service.ledger.rounds == 2
                assert service.stats.drains == 2
                assert service.stats.events_admitted == 6
            finally:
                await service.stop()

        asyncio.run(asyncio.wait_for(scenario(), 30))

    def test_stats_and_errors(self):
        async def scenario():
            service = make_service()
            await service.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )
                await send(writer, {"op": "nonsense", "id": 7})
                message = await recv(reader)
                assert message["event"] == "error"
                assert message["id"] == 7

                await send(writer, {"op": "submit", "tasks": 0})
                message = await recv(reader)
                assert message["event"] == "error"

                await send(writer, {"op": "stats"})
                message = await recv_until(reader, "stats")
                assert message["accepted"] == 0
                assert message["conserved"] is True
                writer.close()
            finally:
                await service.stop()

        asyncio.run(asyncio.wait_for(scenario(), 30))

    def test_machine_add_and_remove_events(self):
        async def scenario():
            # 2 machines x 4 slots: 8 slots, fully occupied by one job.
            service = make_service(machines=2)
            await service.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )
                await send(writer, {
                    "op": "submit", "tasks": 8, "id": 0, "job_type": "service",
                })
                ack = await recv_until(reader, "ack")
                assert ack["accepted"] == 8
                for _ in range(8):
                    await recv_until(reader, "placement")

                # A ninth (service) task cannot be placed: cluster is full.
                await send(writer, {
                    "op": "submit", "tasks": 1, "id": 1, "job_type": "service",
                })
                await recv_until(reader, "ack")
                await send(writer, {"op": "stats"})
                stats = await recv_until(reader, "stats")
                assert stats["pending"] == 1
                assert stats["conserved"] is True

                # Adding a machine unblocks it.
                await send(writer, {"op": "add_machine", "count": 1})
                ack = await recv_until(reader, "ack")
                (new_machine,) = ack["machine_ids"]
                placement = await recv_until(reader, "placement")
                assert placement["machine_id"] == new_machine

                # Removing that machine preempts its task; the task returns
                # to pending (no free slot anywhere else).
                await send(writer, {
                    "op": "remove_machine", "machine_id": new_machine,
                })
                await recv_until(reader, "ack")
                preemption = await recv_until(reader, "preemption")
                assert preemption["task_id"] == placement["task_id"]
                await send(writer, {"op": "stats"})
                stats = await recv_until(reader, "stats")
                assert stats["conserved"] is True
                writer.close()
            finally:
                await service.stop()

        asyncio.run(asyncio.wait_for(scenario(), 30))


class TestDrainConservation:
    def test_drain_rejects_queued_and_conserves_exactly(self):
        """accepted == placed + pending + rejected holds at drain.

        The cluster is sized so some accepted tasks cannot be placed
        (pending at drain) and a submission queued behind the drain is
        voided (rejected); the final snapshot must balance exactly.
        """

        async def scenario():
            # 1 machine x 4 slots; 6 never-completing tasks: 4 place, 2 pend.
            service = make_service(machines=1)
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            await send(writer, {
                "op": "submit", "tasks": 6, "id": 0, "job_type": "service",
            })
            await recv_until(reader, "ack")
            for _ in range(4):
                await recv_until(reader, "placement")

            # Start the drain, then race a submission in behind it: it must
            # be refused at the front door (not silently dropped).
            snapshot_task = asyncio.create_task(service.stop())
            await asyncio.sleep(0)
            await send(writer, {"op": "submit", "tasks": 3, "id": 1})
            ack = await recv_until(reader, "ack")
            assert ack.get("error") == "draining"
            assert ack["accepted"] == 0

            snapshot = await snapshot_task
            assert snapshot["accepted"] == 6
            assert snapshot["placed"] == 4
            assert snapshot["pending"] == 2
            assert snapshot["rejected"] == 0
            assert snapshot["conserved"] is True
            writer.close()

        asyncio.run(asyncio.wait_for(scenario(), 30))

    def test_queued_unadmitted_submissions_are_rejected_on_drain(self):
        """Tasks accepted but still in the inbox at drain become rejected."""

        async def scenario():
            gated = GatedScheduler(FirmamentScheduler(QuincyPolicy()))
            service = make_service(machines=4, scheduler=gated)
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            # While the first submission's round is in flight, a second
            # submission and then a shutdown arrive.  Both are read after
            # that round, in one go: the second is acked and queued, the
            # drain starts, and the loop runs no round after it.
            def submit_then_shut_down(call):
                if call == 1:
                    writer.write(
                        request_line({"op": "submit", "tasks": 3, "id": 1,
                                      "job_type": "service"})
                        + request_line({"op": "shutdown", "id": 2})
                    )

            gated.hook = submit_then_shut_down
            await send(writer, {"op": "submit", "tasks": 2, "id": 0,
                                "job_type": "service"})
            await recv_until(reader, "ack")
            for _ in range(2):
                await recv_until(reader, "placement")
            ack = await recv_until(reader, "ack")
            assert (ack["id"], ack["accepted"]) == (1, 3)
            rejected = await recv_until(reader, "rejected")
            assert rejected["task_ids"] == ack["task_ids"]
            snapshot = await service.stop()
            assert gated.calls == 1
            assert snapshot["accepted"] == 5
            assert snapshot["placed"] == 2
            assert snapshot["rejected"] == 3
            assert snapshot["pending"] == 0
            assert snapshot["conserved"] is True
            writer.close()

        asyncio.run(asyncio.wait_for(scenario(), 30))


class TestBoundedBookkeeping:
    def test_the_service_forgets_completed_tasks(self):
        """Owner entries live from acceptance to completion, and a stats
        poll counts live tasks, not history."""

        async def scenario():
            service = make_service(machines=16)
            await service.start()
            try:
                result = await run_loadgen(
                    "127.0.0.1", service.port, clients=4, jobs_per_client=10,
                    tasks_per_job=5, duration=1.0,
                )
                assert result.tasks_placed == 200
                for _ in range(500):
                    assert len(service._task_owner) == service.state.num_live_tasks
                    if service.ledger.completions == 200:
                        break
                    await asyncio.sleep(0.01)
                assert service.ledger.completions == 200
                assert service._task_owner == {}
                assert len(service.state.tasks) == 200  # history stays there
                stats = service._stats_snapshot()
                assert stats["conserved"] is True
                assert (stats["placed"], stats["pending"]) == (200, 0)
            finally:
                await service.stop()

        asyncio.run(asyncio.wait_for(scenario(), 60))


class TestBackpressure:
    def test_slow_client_is_evicted_not_stalled(self):
        """A client that never reads fills its queue and is evicted; the
        round loop and other clients keep making progress."""

        async def scenario():
            service = make_service(
                machines=16, client_queue_limit=4, round_interval=0.01,
            )
            await service.start()
            try:
                # The slow client submits enough tasks to overflow its own
                # notification queue (ack + placements > 4) and never reads.
                slow_reader, slow_writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )
                await send(slow_writer, {
                    "op": "submit", "tasks": 16, "id": 0, "duration": 1.0,
                })

                # A healthy client keeps working while the slow one chokes.
                result = await run_loadgen(
                    "127.0.0.1", service.port, clients=1, jobs_per_client=2,
                    tasks_per_job=4, duration=1.0,
                )
                assert result.tasks_placed == 8
                assert result.errors == 0

                # Eviction happened; the slow client's tasks were still
                # admitted and placed (jobs outlive their submitter), so
                # conservation holds and nothing stalled.
                for _ in range(100):
                    if service.stats.evicted_clients >= 1:
                        break
                    await asyncio.sleep(0.02)
                assert service.stats.evicted_clients >= 1
                stats = service._stats_snapshot()
                assert stats["conserved"] is True
                assert stats["accepted"] == 16 + 8
                slow_writer.close()
            finally:
                await service.stop()

        asyncio.run(asyncio.wait_for(scenario(), 30))


def spy_on_socket_writes(service):
    """Record what each connected client's server-side writer hands its
    socket: ``{client_id: [bytes per write call]}``."""
    writes = {}
    for client in service._clients.values():
        calls = writes.setdefault(client.client_id, [])
        socket_write = client.writer.write

        def recording(data, calls=calls, socket_write=socket_write):
            calls.append(data)
            socket_write(data)

        client.writer.write = recording
    return writes


async def connect(service):
    """Open a connection the service has registered (one round trip)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
    await send(writer, {"op": "stats"})
    await recv_until(reader, "stats")
    return reader, writer


class TestCoalescedWriter:
    def test_a_jobs_placements_are_one_socket_write_in_task_order(self):
        async def scenario():
            service = make_service(machines=16)
            await service.start()
            try:
                reader, writer = await connect(service)
                (writes,) = spy_on_socket_writes(service).values()
                await send(writer, {
                    "op": "submit", "tasks": 16, "id": 0, "job_type": "service",
                })
                ack = await recv_until(reader, "ack")
                placements = [
                    await recv_until(reader, "placement") for _ in range(16)
                ]
                assert [p["task_id"] for p in placements] == ack["task_ids"]
                carrying = [data for data in writes if b'"placement"' in data]
                assert len(carrying) == 1
                assert carrying[0].count(b"\n") == 16
                writer.close()
            finally:
                await service.stop()

        asyncio.run(asyncio.wait_for(scenario(), 30))

    def test_interleaved_events_keep_per_client_order(self):
        """One round places four jobs of two clients, alternating: each
        client reads its events in the order the round produced them, out
        of one write."""

        async def scenario():
            gated = GatedScheduler(FirmamentScheduler(QuincyPolicy()))
            service = make_service(machines=16, scheduler=gated)
            await service.start()
            try:
                first = await connect(service)
                second = await connect(service)
                produced = []
                notify = service._notify

                def recording(client_id, payload):
                    if payload.get("event") == "placement":
                        produced.append((client_id, payload))
                    notify(client_id, payload)

                service._notify = recording

                # Four jobs arrive while a warm-up job's round is in flight,
                # alternating between the clients, and one round places them
                # all.  A reader takes its connection's whole buffer at once,
                # so requests written to two sockets would reach the inbox
                # grouped by client: the front door is called directly.
                def four_jobs_behind(call):
                    if call == 1:
                        for sequence in range(1, 5):
                            service._dispatch(
                                service._clients[(1, 2)[sequence % 2]],
                                {"op": "submit", "tasks": 3, "id": sequence,
                                 "job_type": "service"},
                            )

                gated.hook = four_jobs_behind
                writes = spy_on_socket_writes(service)
                await send(first[1], {"op": "submit", "tasks": 1, "id": 0,
                                      "job_type": "service"})
                got = {1: [], 2: []}
                for client_id, (reader, _writer), expected in (
                    (1, first, 1 + 6), (2, second, 6),
                ):
                    for _ in range(expected):
                        got[client_id].append(await recv_until(reader, "placement"))
                owners = [client_id for client_id, _ in produced[1:]]
                assert owners == [2] * 3 + [1] * 3 + [2] * 3 + [1] * 3
                for client_id in (1, 2):
                    assert got[client_id] == [
                        payload for owner, payload in produced if owner == client_id
                    ]
                # Each round's events for a client left in one write: the
                # warm-up placement (behind the acks of the jobs that came
                # in during its round), then the shared round's six apiece.
                placements_per_write = {
                    client_id: [
                        data.count(b'"placement"') for data in writes[client_id]
                        if b'"placement"' in data
                    ]
                    for client_id in (1, 2)
                }
                assert placements_per_write == {1: [1, 6], 2: [6]}
                first[1].close()
                second[1].close()
            finally:
                await service.stop()

        asyncio.run(asyncio.wait_for(scenario(), 30))


class TestEventLines:
    """An event is encoded once, into the line ``json.dumps`` writes; a
    round's effects are formatted without it."""

    FAST = [
        {"event": "placement", "task_id": task_id, "job_id": job_id,
         "machine_id": machine_id, "latency": latency}
        for task_id, job_id, machine_id in ((0, 0, 0), (2**40, 7, 2**40))
        for latency in (0.0, 1e-06, 123456.789012)
    ] + [
        {"event": event, "task_id": task_id, "job_id": job_id}
        for event in ("completion", "preemption")
        for task_id, job_id in ((0, 0), (2**40, 2**40 + 1))
    ]
    OTHER = [
        {"event": "ack", "id": 1, "job_id": 2, "accepted": 1, "task_ids": [3]},
        {"event": "error", "id": None, "error": "bad json: \u00e9\n"},
        {"event": "placement", "job_id": 1, "task_id": 2, "machine_id": 3,
         "latency": 0.5},
        {"event": "placement", "task_id": 1, "job_id": 2, "machine_id": None,
         "latency": 0.5},
        {"event": "placement", "task_id": True, "job_id": 2, "machine_id": 3,
         "latency": 0.5},
        {"event": "placement", "task_id": 1, "job_id": 2, "machine_id": 3,
         "latency": float("nan")},
        {"event": "placement", "task_id": 1, "job_id": 2, "machine_id": 3,
         "latency": 1},
        {"event": "restart", "task_id": 1, "job_id": 2},
        {"event": "completion", "task_id": 1.0, "job_id": 2},
    ]

    def test_each_line_is_the_json_dumps_line(self, monkeypatch):
        dumped = []
        dumps = json.dumps

        def counting(obj, *args, **kwargs):
            dumped.append(obj)
            return dumps(obj, *args, **kwargs)

        monkeypatch.setattr(json, "dumps", counting)
        for payload in self.FAST:
            assert _encode(payload) == dumps(payload) + "\n", payload
        assert dumped == []
        for payload in self.OTHER:
            assert _encode(payload) == dumps(payload) + "\n", payload
        assert dumped == self.OTHER

    def test_a_jobs_placements_cost_no_dumps_one_write_one_timer(self, monkeypatch):
        """The count twin of the coalesced writer: a 16-task job's
        placements are formatted (no ``json.dumps``), leave in one
        ``write``, and arm one completion timer between them."""

        async def scenario():
            service = make_service(machines=16)
            await service.start()
            try:
                reader, writer = await connect(service)
                (writes,) = spy_on_socket_writes(service).values()
                dumped, timers = [], []
                dumps = json.dumps

                def counting_dumps(obj, *args, **kwargs):
                    dumped.append(obj.get("event") if isinstance(obj, dict) else obj)
                    return dumps(obj, *args, **kwargs)

                loop = asyncio.get_running_loop()
                call_later = loop.call_later

                def counting_call_later(delay, callback, *args):
                    timers.append(delay)
                    return call_later(delay, callback, *args)

                monkeypatch.setattr(json, "dumps", counting_dumps)
                monkeypatch.setattr(loop, "call_later", counting_call_later)
                await send(writer, {
                    "op": "submit", "tasks": 16, "id": 0, "duration": 100.0,
                    "job_type": "service",
                })
                ack = await recv_until(reader, "ack")
                placements = [
                    await recv_until(reader, "placement") for _ in range(16)
                ]
                assert [p["task_id"] for p in placements] == ack["task_ids"]
                assert "placement" not in dumped and "ack" in dumped
                assert [data.count(b'"placement"') for data in writes
                        if b'"placement"' in data] == [16]
                assert timers == [pytest.approx(100.0 * service.config.time_scale)]
                writer.close()
            finally:
                monkeypatch.undo()
                await service.stop()

        asyncio.run(asyncio.wait_for(scenario(), 30))


def service_around(gated, **kwargs) -> SchedulerService:
    """16 machines in four racks of four, so ``--cells 4`` has a rack each."""
    state = ClusterState(build_topology(16, machines_per_rack=4))
    config = ServiceConfig(round_interval=0.01, time_scale=0.01)
    return SchedulerService(state, gated, config, **kwargs)


class TestRoundRunsOnTheLoop:
    """The service solves on its event loop, so no round is handed to a
    thread and nothing answers a client while a round is in flight."""

    @pytest.mark.parametrize("cells", [None, 4])
    def test_schedule_runs_on_the_loop_thread(self, cells, monkeypatch):
        handed_off = []

        def refuse(loop, *args):
            handed_off.append(args)
            raise AssertionError("work was handed to an executor thread")

        monkeypatch.setattr(asyncio.BaseEventLoop, "run_in_executor", refuse)
        threads = []
        gated = GatedScheduler(
            FirmamentScheduler(QuincyPolicy()) if cells is None
            else ShardedScheduler(QuincyPolicy, num_cells=cells),
            hook=lambda call: threads.append(threading.get_ident()),
        )

        async def scenario():
            service = service_around(gated)
            await service.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )
                for sequence in range(20):
                    await send(writer, {"op": "submit", "tasks": 1,
                                        "id": sequence, "job_type": "service"})
                    await asyncio.wait_for(recv_until(reader, "placement"), 5.0)
                writer.close()
            finally:
                await service.stop()
            ledger = service.ledger
            assert (ledger.rounds, ledger.degraded_rounds, ledger.placed) == (20, 0, 20)
            return threading.get_ident()

        loop_thread = asyncio.run(asyncio.wait_for(scenario(), 30))
        assert threads == [loop_thread] * 20
        assert handed_off == []

    def test_no_request_is_answered_mid_round(self, tmp_path):
        """A ``stats`` request written from inside ``schedule`` is answered
        after the round's release, from a synced log.  The hook sleeps so
        that a loop running beside the solve would have time to answer it
        early; an inline round just waits the sleep out."""
        layer = DurabilityLayer(tmp_path / "state", fsync=False)
        gated = GatedScheduler(FirmamentScheduler(QuincyPolicy()))

        async def scenario():
            service = service_around(gated, durability=layer)
            readings = []
            stats_snapshot = service._stats_snapshot

            def reading_the_log():
                readings.append((layer.synced_seq, layer.seq))
                return stats_snapshot()

            service._stats_snapshot = reading_the_log
            await service.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )

                def ask_for_stats(call):
                    writer.write(request_line({"op": "stats", "id": call}))
                    time.sleep(0.05)

                gated.hook = ask_for_stats
                for sequence in range(3):
                    await send(writer, {"op": "submit", "tasks": 1,
                                        "id": sequence, "job_type": "service"})
                    events = await recv_events(reader, placement=1, stats=1)
                    assert events.index("placement") < events.index("stats")
                writer.close()
            finally:
                await service.stop()
            return readings

        readings = asyncio.run(asyncio.wait_for(scenario(), 30))
        assert gated.calls == 3 and len(readings) >= 3
        assert all(synced == appended for synced, appended in readings)


    @pytest.mark.parametrize(
        "during", ["schedule", "schedule-no-prepare", "prepare"]
    )
    def test_a_request_read_before_a_drain_joins_it(self, during):
        """Inside round 1's ``schedule`` (or its ``prepare``) one submit is
        written to the socket (the kernel holds it until the loop is free)
        and another is dispatched directly, so round 2 is due as soon as
        round 1 ends.  The socket's is read before round 2's drain: that
        drain holds both, and ``schedule`` runs twice, not three times.
        With or without the scheduler's ``prepare``."""
        prepare = during != "schedule-no-prepare"
        gated = GatedScheduler(FirmamentScheduler(QuincyPolicy()), prepare=prepare)

        async def scenario():
            service = service_around(gated)
            drained = []
            drain_inbox = service._drain_inbox

            def counting_drain(now):
                drained.append(len(service._inbox))
                drain_inbox(now)

            service._drain_inbox = counting_drain
            await service.start()
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )

                def two_more(call):
                    if call != 1:
                        return
                    writer.write(request_line(
                        {"op": "submit", "tasks": 1, "id": "socket",
                         "job_type": "service"}
                    ))
                    (client,) = service._clients.values()
                    service._dispatch(client, {
                        "op": "submit", "tasks": 1, "id": "direct",
                        "job_type": "service",
                    })

                if during == "prepare":
                    inner_prepare, prepares = gated.prepare, []

                    def hooked_prepare(state, now):
                        # The writers had their turn: the round's released
                        # lines were handed to the transport first.
                        prepares.append(
                            sum(len(c.lines) for c in service._clients.values())
                        )
                        two_more(len(prepares))
                        inner_prepare(state, now)

                    gated.prepare = hooked_prepare
                else:
                    gated.hook = two_more
                await send(writer, {"op": "submit", "tasks": 1, "id": 0,
                                    "job_type": "service"})
                await asyncio.wait_for(recv_events(reader, placement=3), 5.0)
                writer.close()
            finally:
                await service.stop()
            assert (service.stats.prepares > 0) == prepare
            if during == "prepare":
                assert prepares and not any(prepares)
            return drained

        drained = asyncio.run(asyncio.wait_for(scenario(), 30))
        assert drained[:2] == [1, 2]
        assert gated.calls == 2


class TestPrepare:
    """``serve`` hands the scheduler's ``prepare`` the state after every
    release; what it costs shows in ``stats``, and one that raises costs
    the next round an all-dirty update, nothing else."""

    @staticmethod
    def in_process(scheduler):
        state = ClusterState(build_topology(8, machines_per_rack=4))
        return SchedulerService(state, scheduler, ServiceConfig(time_scale=1e6))

    def test_stats_report_the_prepares(self):
        async def scenario():
            service = self.in_process(
                FirmamentScheduler(QuincyPolicy(), solver=IncrementalCostScalingSolver())
            )
            for job_id in range(1, 4):
                service._enqueue("submit", (None, make_job(job_id=job_id, num_tasks=2)))
                await service._run_round()
            return service._stats_snapshot()

        stats = asyncio.run(scenario())
        assert (stats["prepares"], stats["prepare_failures"]) == (3, 0)
        assert 0 < stats["prepare_seconds"] <= stats["round_busy_seconds"]
        assert stats["conserved"]

    def test_a_prepare_that_raises_leaves_the_next_round_correct(self, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("injected mid-update fault")

        def run(fail_on):
            scheduler = FirmamentScheduler(
                QuincyPolicy(), solver=IncrementalCostScalingSolver()
            )
            manager = scheduler.graph_manager
            prepare = scheduler.prepare
            costs, modes = [], []

            def faulty_prepare(state, now):
                with monkeypatch.context() as patch:
                    if service.stats.prepares == fail_on:
                        patch.setattr(ResidualNetwork, "put_arc", boom)
                    prepare(state, now)

            scheduler.prepare = faulty_prepare
            schedule = scheduler.schedule

            def recording_schedule(state, now):
                decision = schedule(state, now)
                costs.append(decision.total_cost)
                modes.append(
                    (manager.last_update_stats.mode, manager.last_update_stats.dirty_tasks)
                )
                return decision

            scheduler.schedule = recording_schedule
            service = self.in_process(scheduler)

            async def scenario():
                for job_id in range(1, 6):
                    service._enqueue(
                        "submit", (None, make_job(job_id=job_id, num_tasks=3))
                    )
                    await service._run_round()

            asyncio.run(scenario())
            return service, costs, modes

        service, costs, modes = run(fail_on=2)
        twin, twin_costs, twin_modes = run(fail_on=None)
        # The third prepare raised: the graph was dropped, so round 4's
        # update starts from an empty one, every live task dirty.
        assert (service.stats.prepares, service.stats.prepare_failures) == (5, 1)
        assert [mode for mode, _ in modes] == [
            "full", "incremental", "incremental", "full", "incremental"
        ]
        assert modes[3][1] == len(service.state.schedulable_tasks()) - 3
        assert [mode for mode, _ in twin_modes] == ["full"] + ["incremental"] * 4
        assert costs == twin_costs
        stats = service._stats_snapshot()
        assert stats["conserved"] and stats["placed"] == 15
        assert service.ledger.degraded_rounds == 0


class TestServiceChaos:
    def test_worker_kill_mid_round_behind_service(self):
        """A sharded scheduler with worker kills keeps serving placements.

        The chaos policy kills a cell worker every round; the parent-side
        fallback serves the affected cell, so clients still see all their
        placements and the conservation law survives the faults.
        """

        async def scenario():
            chaos = ChaosPolicy(rates={"worker_kill": 1.0}, seed=3)
            scheduler = ShardedScheduler(
                QuincyPolicy, num_cells=2, workers=True, chaos=chaos,
            )
            service = make_service(machines=16, scheduler=scheduler)
            await service.start()
            try:
                result = await run_loadgen(
                    "127.0.0.1", service.port, clients=2, jobs_per_client=2,
                    tasks_per_job=4, duration=1.0,
                )
                assert result.tasks_placed == result.tasks_accepted == 16
                assert result.errors == 0
                stats = result.service_stats
                assert stats["conserved"] is True
                # The faults really fired behind the service.
                assert chaos.injected.get("worker_kill", 0) >= 1
            finally:
                await service.stop()

        asyncio.run(asyncio.wait_for(scenario(), 60))


class TestServeCommand:
    def test_serve_registered_with_help(self, capsys):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["serve", "--machines", "8", "--port", "0"])
        assert args.command == "serve"
        assert args.machines == 8

    def test_serve_rejects_invalid_machines(self, capsys):
        from repro.cli import main

        assert main(["serve", "--machines", "0"]) == 1
        assert "error" in capsys.readouterr().err.lower()

    def test_serve_drains_after_serve_seconds(self, capsys):
        from repro.cli import main

        code = main([
            "serve", "--machines", "4", "--serve-seconds", "0.2",
            "--round-interval", "0.01",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "serving on 127.0.0.1:" in output
        assert "service drained" in output
        assert "conservation: accepted == placed + pending + rejected" in output
