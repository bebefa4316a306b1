"""Fuzz/abuse tests for the JSON-lines protocol reader (ISSUE 10).

The service must never buffer unboundedly, never die silently on garbage,
and always either answer with an ``error`` event or disconnect -- while
well-behaved clients on other connections keep working throughout.
"""

from __future__ import annotations

import asyncio
import json
import os
import random

import pytest

from repro.cluster.state import ClusterState
from repro.cluster.topology import build_topology
from repro.core import FirmamentScheduler
from repro.core.policies import QuincyPolicy
from repro.service import SchedulerService, ServiceConfig
from repro.service import server as server_module


def make_service(max_request_bytes: int = 4096) -> SchedulerService:
    state = ClusterState(build_topology(8, slots_per_machine=4))
    scheduler = FirmamentScheduler(QuincyPolicy())
    config = ServiceConfig(
        round_interval=0.01, time_scale=0.01,
        max_request_bytes=max_request_bytes,
    )
    return SchedulerService(state, scheduler, config)


def run(coro, timeout=30):
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def send_raw(writer, data: bytes):
    writer.write(data)
    await writer.drain()


async def recv(reader):
    line = await reader.readline()
    assert line, "connection closed while awaiting a reply"
    return json.loads(line)


async def service_still_works(service) -> None:
    """A fresh well-behaved client gets normal service."""
    reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
    writer.write(json.dumps({"op": "stats", "id": 99}).encode() + b"\n")
    await writer.drain()
    reply = await recv(reader)
    assert reply["event"] == "stats" and reply["conserved"]
    writer.close()


class TestProtocolHardening:
    def test_oversized_line_gets_error_and_disconnect(self):
        async def scenario():
            service = make_service(max_request_bytes=1024)
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            await send_raw(writer, b"x" * 8192 + b"\n")
            reply = await recv(reader)
            assert reply["event"] == "error"
            assert "too long" in reply["error"]
            assert await reader.read() == b""  # server hung up
            await service_still_works(service)
            await service.stop()

        run(scenario())

    def test_non_utf8_line_gets_error_and_disconnect(self):
        async def scenario():
            service = make_service()
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            await send_raw(writer, b"\xff\xfe\x80garbage\x80\n")
            reply = await recv(reader)
            assert reply["event"] == "error"
            assert "UTF-8" in reply["error"]
            assert await reader.read() == b""
            await service_still_works(service)
            await service.stop()

        run(scenario())

    def test_truncated_json_gets_error_but_keeps_connection(self):
        async def scenario():
            service = make_service()
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            await send_raw(writer, b'{"op": "submit", "tasks":\n')
            reply = await recv(reader)
            assert reply["event"] == "error" and "bad json" in reply["error"]
            # Same connection still serves valid requests.
            await send_raw(
                writer, json.dumps({"op": "stats", "id": 1}).encode() + b"\n"
            )
            reply = await recv(reader)
            assert reply["event"] == "stats"
            writer.close()
            await service.stop()

        run(scenario())

    def test_non_object_json_gets_error(self):
        async def scenario():
            service = make_service()
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            for payload in (b"[1, 2, 3]\n", b'"hello"\n', b"42\n", b"null\n"):
                await send_raw(writer, payload)
                reply = await recv(reader)
                assert reply["event"] == "error"
                assert "JSON object" in reply["error"]
            writer.close()
            await service.stop()

        run(scenario())

    def test_unknown_op_gets_reasoned_error(self):
        async def scenario():
            service = make_service()
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            await send_raw(
                writer,
                json.dumps({"op": "frobnicate", "id": 7}).encode() + b"\n",
            )
            reply = await recv(reader)
            assert reply["event"] == "error"
            assert reply["id"] == 7
            assert "frobnicate" in reply["error"]
            writer.close()
            await service.stop()

        run(scenario())

    def test_bad_submit_key_type_is_rejected(self):
        async def scenario():
            service = make_service()
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            await send_raw(
                writer,
                json.dumps({"op": "submit", "tasks": 1, "key": 5, "id": 1})
                .encode() + b"\n",
            )
            reply = await recv(reader)
            assert reply["event"] == "error" and "key" in reply["error"]
            writer.close()
            await service.stop()

        run(scenario())

    @pytest.mark.parametrize(
        "fields",
        [
            {"tasks": True},
            {"duration": float("nan")},
            {"duration": float("inf")},
            {"duration": -1.0},
            {"duration": "2"},
            {"cpu": "lots"},
            {"ram": [1]},
            {"ram": None},
            {"priority": "high"},
            {"priority": 1.5},
        ],
        ids=repr,
    )
    def test_bad_submit_field_is_rejected(self, fields):
        """A bool is not a task count, NaN / Infinity / a negative value is
        not a duration, and a value that is not a number is not a size or
        a priority: each gets a reasoned error naming its field, and the
        service accepts nothing."""
        (name,) = fields

        async def scenario():
            service = make_service()
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            request = {"op": "submit", "tasks": 1, "id": 1, **fields}
            await send_raw(writer, json.dumps(request).encode() + b"\n")
            reply = await recv(reader)
            assert reply["event"] == "error" and reply["id"] == 1
            assert reply["error"].startswith(f"{name} must be"), reply
            await send_raw(writer, b'{"op": "stats", "id": 2}\n')
            assert (await recv(reader))["accepted"] == 0
            writer.close()
            await service.stop()

        run(scenario())

    def test_seeded_garbage_fuzz_never_kills_the_service(self):
        """Random garbage -- binary, truncated JSON, huge-ish lines, valid
        requests interleaved -- never takes the service down and never
        breaks conservation for the well-behaved client."""

        async def scenario():
            service = make_service(max_request_bytes=2048)
            await service.start()
            rng = random.Random(1234)
            for _ in range(8):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", service.port
                )
                try:
                    for _ in range(6):
                        choice = rng.randrange(5)
                        if choice == 0:
                            data = bytes(
                                rng.randrange(256) for _ in range(rng.randrange(1, 64))
                            ) + b"\n"
                        elif choice == 1:
                            data = b"{" * rng.randrange(1, 32) + b"\n"
                        elif choice == 2:
                            data = b"a" * 4096 + b"\n"  # over the limit
                        elif choice == 3:
                            valid = json.dumps({"op": "stats"}).encode() + b"\n"
                            data = valid[: rng.randrange(1, len(valid))] + b"\n"
                        else:
                            data = json.dumps(
                                {"op": "submit", "tasks": 1, "duration": 0.1}
                            ).encode() + b"\n"
                        try:
                            await send_raw(writer, data)
                        except (ConnectionResetError, BrokenPipeError):
                            break  # server hung up on us, as designed
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionResetError, BrokenPipeError, OSError):
                        pass
            # Let any accepted garbage-adjacent submissions get scheduled,
            # then verify the service is alive and conserving.
            await asyncio.sleep(0.1)
            await service_still_works(service)
            snapshot = await service.stop()
            assert snapshot["conserved"], snapshot

        run(scenario())


def server_side(service):
    """The one connection the service has registered."""
    (client,) = service._clients.values()
    return client


async def a_turn():
    """Long enough for the loop to deliver what a peer just wrote."""
    await asyncio.sleep(0.01)


class TestFrontDoor:
    """Requests are split into lines however the bytes arrive, a line is
    refused at the limit ``StreamReader.readline`` drew, and a client's
    events leave in one write per loop turn, held while its transport has
    paused writing."""

    def test_one_request_in_three_segments_and_three_in_one(self):
        async def scenario():
            service = make_service()
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            line = json.dumps({"op": "stats", "id": 1}).encode() + b"\n"
            for part in (line[:5], line[5:12], line[12:]):
                await send_raw(writer, part)
                await a_turn()
            reply = await recv(reader)
            assert (reply["event"], reply["id"]) == ("stats", 1)
            await send_raw(writer, b"".join(
                json.dumps({"op": "stats", "id": i}).encode() + b"\n"
                for i in (2, 3, 4)
            ))
            assert [(await recv(reader))["id"] for _ in range(3)] == [2, 3, 4]
            writer.close()
            await service.stop()

        run(scenario())

    def test_unterminated_last_line_before_eof_is_admitted(self):
        async def scenario():
            service = make_service()
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            request = {"op": "submit", "tasks": 3, "duration": 1.0, "id": 5}
            await send_raw(writer, json.dumps(request).encode())
            writer.write_eof()
            ack = await recv(reader)
            assert (ack["event"], ack["id"], ack["accepted"]) == ("ack", 5, 3)
            assert await reader.read() == b""  # and the server closed
            writer.close()
            snapshot = await service.stop()
            assert (snapshot["accepted"], snapshot["conserved"]) == (3, True)
            assert service.ledger.accepted == 3

        run(scenario())

    def test_a_line_of_exactly_the_limit_is_served_one_byte_more_is_not(self):
        limit = 1024

        def padded(size: int) -> bytes:
            body = json.dumps({"op": "stats", "id": size}).encode()
            return body + b" " * (size - len(body)) + b"\n"

        async def scenario():
            service = make_service(max_request_bytes=limit)
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            await send_raw(writer, padded(limit))
            reply = await recv(reader)
            assert (reply["event"], reply["id"]) == ("stats", limit)
            await send_raw(writer, padded(limit + 1))
            reply = await recv(reader)
            assert reply["event"] == "error" and "too long" in reply["error"]
            assert await reader.read() == b""
            writer.close()
            await service.stop()

        run(scenario())

    def test_an_unterminated_stream_is_cut_at_the_limit(self, monkeypatch):
        """1 KiB chunks of one endless line: the service hangs up on the
        chunk that crosses the limit, having buffered at most the limit
        plus that chunk."""
        limit, chunk = 4096, 1024
        buffered = []
        data_received = server_module._Client.data_received

        def measured(client, data):
            data_received(client, data)
            buffered.append(len(client.buffer))

        monkeypatch.setattr(server_module._Client, "data_received", measured)

        async def scenario():
            service = make_service(max_request_bytes=limit)
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            for sent in range(1, 65):
                await send_raw(writer, b"x" * chunk)
                await a_turn()
                if not service._clients:
                    break
            assert sent == limit // chunk + 1
            reply = await recv(reader)
            assert reply["event"] == "error" and "too long" in reply["error"]
            assert await reader.read() == b""
            writer.close()
            await service_still_works(service)
            await service.stop()

        run(scenario())
        assert max(buffered) <= limit + chunk

    def test_a_paused_client_is_evicted_at_the_queue_limit(self):
        async def scenario():
            service = make_service()
            service.config.client_queue_limit = 4
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            # Unpaused, every turn's reply is written: no eviction however
            # many requests go by one at a time.
            for request_id in range(8):
                await send_raw(writer, b'{"op": "stats", "id": %d}\n' % request_id)
                assert (await recv(reader))["id"] == request_id
            client = server_side(service)
            client.pause_writing()
            for request_id in range(4):
                await send_raw(writer, b'{"op": "stats", "id": %d}\n' % request_id)
                await a_turn()
            assert len(client.lines) == 4 and service.stats.evicted_clients == 0
            await send_raw(writer, b'{"op": "stats", "id": 4}\n')
            await a_turn()
            assert service.stats.evicted_clients == 1 and not service._clients
            assert await reader.read() == b""  # the held lines went with it
            writer.close()
            await service.stop()

        run(scenario())

    def test_resume_writes_the_held_lines_at_once_in_order(self):
        async def scenario():
            service = make_service()
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            await send_raw(writer, b'{"op": "stats", "id": 0}\n')
            await recv(reader)
            client = server_side(service)
            writes = []
            socket_write = client.writer.write

            def recording(data):
                writes.append(data)
                socket_write(data)

            client.writer.write = recording
            client.pause_writing()
            for request_id in (1, 2, 3):
                await send_raw(writer, b'{"op": "stats", "id": %d}\n' % request_id)
                await a_turn()
            assert writes == []
            client.resume_writing()
            assert len(writes) == 1 and writes[0].count(b"\n") == 3
            assert [(await recv(reader))["id"] for _ in range(3)] == [1, 2, 3]
            writer.close()
            await service.stop()

        run(scenario())
