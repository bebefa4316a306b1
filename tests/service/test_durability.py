"""Unit tests for the durability layer: framing, torn tails, snapshots,
retention, recovery, and the in-process crash-equivalence contract.

The snapshot writer encodes only what changed; its files are pinned to
the framed ``json.dumps`` of :func:`snapshot_cluster_state` and the
ledger (:func:`oracle_bytes`), and what it encodes and holds is counted.

The subprocess ``kill -9`` matrix lives in ``test_recovery.py``; this file
exercises the same machinery deterministically in process, simulating a
crash by abandoning the service without a drain (so no final snapshot is
written and recovery must work from the WAL tail alone).
"""

from __future__ import annotations

import asyncio
import json
import struct
import tracemalloc
import zlib
from pathlib import Path

import pytest

from repro.cluster.state import ClusterState
from repro.cluster.topology import build_topology
from repro.core import FirmamentScheduler
from repro.core.policies import QuincyPolicy
from repro.service import (
    DurabilityLayer,
    RecoveryError,
    SchedulerService,
    ServiceConfig,
    recover,
    restore_cluster_state,
    snapshot_cluster_state,
)
from repro.service import durability
from repro.service.durability import Ledger, read_segment
from tests.conftest import make_cluster_state, make_job

_HEADER = struct.Struct("<II")


def make_layer(tmp_path, **kwargs) -> DurabilityLayer:
    kwargs.setdefault("fsync", False)  # unit tests don't need real disk sync
    return DurabilityLayer(tmp_path / "state", **kwargs)


def oracle_bytes(layer: DurabilityLayer, state, ledger: Ledger, clock: float) -> bytes:
    """The file ``layer``'s last snapshot must be: the whole state and
    ledger through ``json.dumps``, behind its CRC header."""
    body = json.dumps(
        {
            "epoch": layer.epoch,
            "barrier_seq": layer.seq,
            "clock": clock,
            "state": snapshot_cluster_state(state),
            "ledger": ledger.to_payload(),
        },
        separators=(",", ":"),
    ).encode("utf-8")
    return f"{zlib.crc32(body):08x}\n".encode("ascii") + body


def run_jobs(state, ledger: Ledger, job_ids, tasks_per_job: int, finish=True) -> None:
    """Submit and place each job in turn, and with ``finish`` complete it."""
    machines = len(state.topology.machines)
    for job_id in job_ids:
        job = make_job(job_id=job_id, num_tasks=tasks_per_job, submit_time=float(job_id))
        state.submit_job(job)
        ledger.accepted += tasks_per_job
        ledger.idempotency[f"key-{job_id}"] = job_id
        for task in job.tasks:
            state.place_task(task.task_id, job_id % machines, now=job_id + 0.5)
            ledger.placed_ids.add(task.task_id)
            ledger.placed += 1
        if finish:
            for task in job.tasks:
                state.complete_task(task.task_id, now=job_id + 1.0)


def bootstrap(layer: DurabilityLayer, state=None) -> None:
    """Write the initial snapshot so the log accepts appends."""
    state = state or make_cluster_state(num_machines=2)
    layer.write_snapshot(state, Ledger(), clock=0.0)


class TestFraming:
    def test_records_round_trip(self, tmp_path):
        layer = make_layer(tmp_path)
        bootstrap(layer)
        layer.log_admission({"now": 1.0, "submissions": [], "machines_added": [],
                             "machines_removed": [], "completions": []})
        layer.log_round({"now": 2.0, "placements": {}, "migrations": {},
                         "preemptions": [], "degraded": False})
        layer.close()
        records, torn = read_segment(layer.directory / "wal-00000001.log")
        assert not torn
        assert [r["kind"] for r in records] == ["admit", "round"]
        assert [r["seq"] for r in records] == [1, 2]

    @pytest.mark.parametrize("cut", [1, 4, 7, 8, 12])
    def test_torn_tail_detected_and_dropped(self, tmp_path, cut):
        """Any truncation of the final record -- inside the header, inside
        the payload, even leaving a valid-length prefix -- is torn."""
        layer = make_layer(tmp_path)
        bootstrap(layer)
        layer.log_admission({"now": 1.0, "submissions": [], "machines_added": [],
                             "machines_removed": [], "completions": []})
        layer.log_round({"now": 2.0, "placements": {}, "migrations": {},
                         "preemptions": [], "degraded": False})
        layer.close()
        path = layer.directory / "wal-00000001.log"
        data = path.read_bytes()
        records, _ = read_segment(path)
        first_len = _HEADER.size + len(
            json.dumps(records[0], separators=(",", ":")).encode()
        )
        path.write_bytes(data[: first_len + cut])
        survivors, torn = read_segment(path)
        assert torn
        assert [r["seq"] for r in survivors] == [1]

    def test_corrupted_crc_is_torn(self, tmp_path):
        layer = make_layer(tmp_path)
        bootstrap(layer)
        layer.log_round({"now": 2.0, "placements": {}, "migrations": {},
                         "preemptions": [], "degraded": False})
        layer.close()
        path = layer.directory / "wal-00000001.log"
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # flip a payload byte: CRC must catch it
        path.write_bytes(bytes(data))
        records, torn = read_segment(path)
        assert torn and records == []

    def test_append_requires_a_snapshot(self, tmp_path):
        layer = make_layer(tmp_path)
        with pytest.raises(RecoveryError):
            layer.log_round({"now": 0.0, "placements": {}, "migrations": {},
                             "preemptions": [], "degraded": False})


class TestSnapshotsAndRetention:
    def round_record(self, now):
        return {"now": now, "placements": {}, "migrations": {},
                "preemptions": [], "degraded": False}

    def test_round_count_trigger(self, tmp_path):
        layer = make_layer(tmp_path, snapshot_interval_rounds=2)
        try:
            bootstrap(layer)
            layer.log_round(self.round_record(1.0))
            assert not layer.should_snapshot()
            layer.log_round(self.round_record(2.0))
            assert layer.should_snapshot()
        finally:
            layer.close()

    def test_log_size_trigger(self, tmp_path):
        layer = make_layer(tmp_path, snapshot_interval_rounds=10_000,
                           snapshot_max_log_bytes=64)
        try:
            bootstrap(layer)
            layer.log_round(self.round_record(1.0))
            assert layer.should_snapshot()
        finally:
            layer.close()

    def test_retention_keeps_two_snapshots_and_their_segments(self, tmp_path):
        layer = make_layer(tmp_path, snapshot_interval_rounds=1)
        state = make_cluster_state(num_machines=2)
        for epoch in range(4):
            bootstrap(layer, state)
            layer.log_round(self.round_record(float(epoch)))
        layer.close()
        snapshots = sorted(p.name for p in layer.directory.glob("snapshot-*.json"))
        segments = sorted(p.name for p in layer.directory.glob("wal-*.log"))
        assert snapshots == ["snapshot-00000003.json", "snapshot-00000004.json"]
        assert segments == ["wal-00000003.log", "wal-00000004.log"]

    def test_recovery_falls_back_past_corrupt_newest_snapshot(self, tmp_path):
        layer = make_layer(tmp_path, snapshot_interval_rounds=1)
        state = make_cluster_state(num_machines=2)
        state.submit_job(make_job(job_id=1, num_tasks=2, duration=None))
        bootstrap(layer, state)
        bootstrap(layer, state)
        layer.close()
        newest = layer.directory / "snapshot-00000002.json"
        newest.write_bytes(newest.read_bytes()[: 40])  # tear it
        recovered = recover(layer.directory)
        assert recovered.snapshot_epoch == 1
        assert recovered.snapshots_skipped == 1
        assert recovered.state == state

    def test_recovery_without_any_snapshot_raises(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(RecoveryError):
            recover(tmp_path / "empty")

    def test_unrenamed_temp_snapshot_is_ignored(self, tmp_path):
        layer = make_layer(tmp_path)
        state = make_cluster_state(num_machines=2)
        bootstrap(layer, state)
        layer.close()
        # A crash mid-snapshot leaves a partial .tmp; recovery must not
        # even look at it.
        (layer.directory / "snapshot-00000099.json.tmp").write_bytes(b"par")
        recovered = recover(layer.directory)
        assert recovered.snapshot_epoch == 1


class TestIncrementalSnapshot:
    """A finished job is encoded once; the file stays the oracle's."""

    def test_a_second_snapshot_encodes_only_what_changed(self, tmp_path, monkeypatch):
        state = ClusterState(build_topology(8, slots_per_machine=4))
        ledger = Ledger()
        run_jobs(state, ledger, range(1, 1001), tasks_per_job=2)
        run_jobs(state, ledger, range(1001, 1011), tasks_per_job=2, finish=False)
        encoded = []
        job_to_payload = durability._job_to_payload
        monkeypatch.setattr(
            durability, "_job_to_payload",
            lambda job: encoded.append(job.job_id) or job_to_payload(job),
        )
        layer = make_layer(tmp_path)
        layer.write_snapshot(state, ledger, clock=1.0)
        assert len(encoded) == 1010

        finished = (1001, 1004, 1010)
        for job_id in finished:
            for task in state.jobs[job_id].tasks:
                state.complete_task(task.task_id, now=2000.0)
        encoded.clear()
        path = layer.write_snapshot(state, ledger, clock=2.0)
        # The ten that were live at the first snapshot, three of them
        # finished since: nothing of the thousand before.
        assert sorted(encoded) == list(range(1001, 1011))
        assert path.read_bytes() == oracle_bytes(layer, state, ledger, 2.0)

        state.remove_job(1)
        assert 1 not in state.encoded_jobs
        encoded.clear()
        path = layer.write_snapshot(state, ledger, clock=3.0)
        assert sorted(encoded) == sorted(set(range(1001, 1011)) - set(finished))
        assert path.read_bytes() == oracle_bytes(layer, state, ledger, 3.0)
        layer.close()

    def test_a_new_state_object_starts_with_nothing_encoded(self, tmp_path):
        """Job 1 finishes at a different time in each of two states: the
        second state's snapshot is its own job, not the first's encoding."""
        layer = make_layer(tmp_path)
        for finish_time in (5.0, 7.0):
            state = make_cluster_state(num_machines=2)
            state.submit_job(make_job(job_id=1, num_tasks=1))
            (task,) = state.jobs[1].tasks
            state.place_task(task.task_id, 0, now=1.0)
            state.complete_task(task.task_id, now=finish_time)
            path = layer.write_snapshot(state, Ledger(), clock=finish_time)
            assert path.read_bytes() == oracle_bytes(layer, state, Ledger(), finish_time)
        layer.close()
        assert recover(layer.directory).state.encoded_jobs == {}

    def test_a_snapshot_holds_less_than_half_its_size_in_temporaries(self, tmp_path):
        """At 5 000 finished 4-task jobs, once they are encoded, a snapshot
        allocates less than half its file's size above what it found."""
        state = ClusterState(build_topology(8, slots_per_machine=4))
        ledger = Ledger()
        run_jobs(state, ledger, range(1, 5001), tasks_per_job=4)
        run_jobs(state, ledger, range(5001, 5005), tasks_per_job=4, finish=False)
        layer = make_layer(tmp_path)
        layer.write_snapshot(state, ledger, clock=1.0)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            path = layer.write_snapshot(state, ledger, clock=2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        layer.close()
        size = path.stat().st_size
        assert size == layer.last_snapshot_bytes
        assert peak - held < size / 2, (peak - held, size)
        assert path.read_bytes() == oracle_bytes(layer, state, ledger, 2.0)

    @pytest.mark.parametrize("entries", [0, 1, 1023, 1024, 1025, 2049])
    def test_a_ledger_of_any_length_is_the_oracles(self, tmp_path, entries):
        """The ledger's ids and keys go out in parts; their seams vanish."""
        ledger = Ledger(
            placed_ids=set(range(0, 3 * entries, 3)),
            idempotency={f"key-{n}\u00e9": n for n in range(entries)},
        )
        layer = make_layer(tmp_path)
        state = make_cluster_state(num_machines=2)
        path = layer.write_snapshot(state, ledger, clock=0.5)
        assert path.read_bytes() == oracle_bytes(layer, state, ledger, 0.5)
        layer.close()


def run(coro, timeout=30):
    return asyncio.run(asyncio.wait_for(coro, timeout))


async def send(writer, payload):
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()


async def recv(reader):
    return json.loads(await reader.readline())


def make_durable_service(tmp_path, recovered=None, **layer_kwargs):
    layer_kwargs.setdefault("fsync", False)
    layer_kwargs.setdefault("snapshot_interval_rounds", 1000)
    durability = DurabilityLayer(tmp_path / "state", **layer_kwargs)
    if recovered is not None:
        state = recovered.state
    else:
        state = ClusterState(build_topology(8, slots_per_machine=4))
    scheduler = FirmamentScheduler(QuincyPolicy())
    config = ServiceConfig(round_interval=0.01, time_scale=0.01)
    return SchedulerService(
        state, scheduler, config, durability=durability, recovered=recovered
    )


def abandon(service):
    """Simulate a crash: kill the round loop, close nothing gracefully."""
    service._round_task.cancel()
    service._stopped.set()
    service._durability.close()
    if service._server is not None:
        service._server.close()


class TestInProcessCrashEquivalence:
    def test_recovered_state_equals_precrash_state(self, tmp_path):
        async def scenario():
            service = make_durable_service(tmp_path)
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            await send(writer, {"op": "submit", "tasks": 6, "key": "a",
                                "job_type": "service", "id": 1})
            ack = await recv(reader)
            task_ids = set(ack["task_ids"])
            placed = set()
            while placed != task_ids:
                event = await recv(reader)
                if event.get("event") == "placement":
                    placed.add(event["task_id"])
            captured = snapshot_cluster_state(service.state)
            stats = service.ledger
            abandon(service)
            writer.close()

            recovered = recover(tmp_path / "state")
            assert recovered.state == restore_cluster_state(captured)
            assert recovered.ledger.accepted == stats.accepted == 6
            assert recovered.ledger.placed == stats.placed == 6
            assert recovered.ledger.idempotency == {"a": ack["job_id"]}

        run(scenario())

    def test_resume_dedupes_and_conserves_across_crash(self, tmp_path):
        async def scenario():
            service = make_durable_service(tmp_path)
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            await send(writer, {"op": "submit", "tasks": 4, "key": "k",
                                "job_type": "service", "id": 1})
            ack = await recv(reader)
            task_ids = set(ack["task_ids"])
            placed = set()
            while placed != task_ids:
                event = await recv(reader)
                if event.get("event") == "placement":
                    placed.add(event["task_id"])
            abandon(service)
            writer.close()

            recovered = recover(tmp_path / "state")
            service2 = make_durable_service(tmp_path, recovered=recovered)
            await service2.start()
            reader2, writer2 = await asyncio.open_connection(
                "127.0.0.1", service2.port
            )
            # Blind resubmission under the same key: deduplicated, with
            # the original placements reported.
            await send(writer2, {"op": "submit", "tasks": 4, "key": "k",
                                 "job_type": "service", "id": 2})
            dup = await recv(reader2)
            assert dup["duplicate"] is True
            assert dup["accepted"] == 0
            assert set(dup["placed_task_ids"]) == task_ids
            # A fresh key is new work on the recovered service.
            await send(writer2, {"op": "submit", "tasks": 2, "key": "k2",
                                 "job_type": "service", "id": 3})
            ack2 = await recv(reader2)
            assert ack2.get("duplicate") is None and ack2["accepted"] == 2
            new_ids = set(ack2["task_ids"])
            assert not (new_ids & task_ids), "task ids reused after recovery"
            placed2 = set()
            while placed2 != new_ids:
                event = await recv(reader2)
                if event.get("event") == "placement":
                    placed2.add(event["task_id"])
            await send(writer2, {"op": "stats", "id": 4})
            stats = await recv(reader2)
            assert stats["conserved"], stats
            assert stats["accepted"] == 6 and stats["placed"] == 6
            snapshot = await service2.stop()
            assert snapshot["conserved"], snapshot
            writer2.close()

        run(scenario())

    def test_graceful_stop_then_recover_replays_nothing(self, tmp_path):
        async def scenario():
            service = make_durable_service(tmp_path)
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            await send(writer, {"op": "submit", "tasks": 3, "key": "g",
                                "job_type": "service", "id": 1})
            ack = await recv(reader)
            task_ids = set(ack["task_ids"])
            placed = set()
            while placed != task_ids:
                event = await recv(reader)
                if event.get("event") == "placement":
                    placed.add(event["task_id"])
            final = snapshot_cluster_state(service.state)
            await service.stop()
            writer.close()

            recovered = recover(tmp_path / "state")
            # The stop() snapshot sits at the log tip: nothing to replay.
            assert recovered.replayed_records == 0
            assert recovered.state == restore_cluster_state(final)

        run(scenario())

    def test_stats_report_what_the_snapshots_cost(self, tmp_path):
        async def scenario():
            service = make_durable_service(tmp_path)
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            await send(writer, {"op": "stats", "id": 1})
            stats = await recv(reader)
            first = tmp_path / "state" / "snapshot-00000001.json"
            assert stats["wal_snapshots"] == 1
            assert stats["wal_snapshot_bytes"] == first.stat().st_size
            assert stats["wal_snapshot_seconds"] > 0
            await service.stop()
            writer.close()
            # The stop's snapshot: the last one's size, the total's time.
            layer = service._durability
            second = tmp_path / "state" / "snapshot-00000002.json"
            assert layer.last_snapshot_bytes == second.stat().st_size
            assert layer.snapshot_seconds > stats["wal_snapshot_seconds"]

        run(scenario())

    def test_clock_resumes_monotonically(self, tmp_path):
        async def scenario():
            service = make_durable_service(tmp_path)
            await service.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", service.port
            )
            await send(writer, {"op": "submit", "tasks": 1, "key": "t",
                                "job_type": "service", "id": 1})
            await recv(reader)
            await asyncio.sleep(0.05)
            abandon(service)
            writer.close()
            recovered = recover(tmp_path / "state")
            service2 = make_durable_service(tmp_path, recovered=recovered)
            assert service2.now() >= recovered.clock

        run(scenario())
