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
