"""The release barrier: nothing a WAL record caused leaves the process
before the sync that covers the record (ISSUE 23 tentpole).

``kill -9`` keeps the page cache, so the subprocess harness in
``test_recovery.py`` cannot fail on a *missing* fsync.  These tests can:
``os.fsync`` is wrapped to remember, per file, the length the last sync
covered -- what a power loss would leave -- and the service's one exit
towards the client queues (``_notify``) is watched from outside:

* **ordering oracle** -- every ``placement`` / ``preemption`` /
  ``completion`` handed to a client queue finds the active segment synced
  to its full appended length;
* **power-loss model** -- at that same instant the state directory is
  copied with every file cut to its last-synced length and recovered; the
  event's effect must be in the recovered state / ledger;
* one ``os.fsync`` of the active segment per round that appended, and the
  ``wal_*`` counters of the ``stats`` reply say so;
* a sync that fails releases nothing and ends the round loop.

Moving the release before the sync fails the first three (recorded in
EXPERIMENTS.md, PR 23).
"""

from __future__ import annotations

import asyncio
import errno
import json
import os
import shutil
from pathlib import Path

import pytest

from repro.cluster.state import ClusterState
from repro.cluster.topology import build_topology
from repro.core import FirmamentScheduler
from repro.core.policies import QuincyPolicy
from repro.service import (
    DurabilityLayer,
    SchedulerService,
    ServiceConfig,
    recover,
)
from repro.service.durability import Ledger
from tests.conftest import make_cluster_state

ROUND_EFFECTS = ("placement", "preemption", "completion")


class Disk:
    """Wraps ``os.fsync``: per inode, the file length the last sync covered."""

    def __init__(self, monkeypatch) -> None:
        self.synced = {}
        self.segment_syncs = 0
        self.fail_segment_syncs = False
        real_fsync = os.fsync

        def fsync(fd):
            is_segment = os.path.basename(
                os.readlink(f"/proc/self/fd/{fd}")
            ).startswith("wal-")
            if is_segment and self.fail_segment_syncs:
                raise OSError(errno.EIO, "injected: segment sync failed")
            real_fsync(fd)
            self.segment_syncs += is_segment
            status = os.fstat(fd)
            self.synced[status.st_ino] = status.st_size

        monkeypatch.setattr(os, "fsync", fsync)

    def synced_length(self, path: Path) -> int:
        return self.synced.get(path.stat().st_ino, 0)

    def power_loss_copy(self, directory: Path, target: Path) -> Path:
        """``directory`` as a power loss now would leave it."""
        target.mkdir()
        for path in directory.iterdir():
            copy = target / path.name
            shutil.copyfile(path, copy)
            os.truncate(copy, self.synced_length(path))
        return target


def active_segment(directory: Path) -> Path:
    return max(directory.glob("wal-*.log"))


class Watch:
    """Records, for each round effect passing ``service._notify``, the
    active segment's appended and synced length -- and optionally checks
    the effect against a power-loss recovery taken at that instant."""

    def __init__(self, service, layer, disk, scratch=None) -> None:
        self.released = []
        #: Effects a power loss at their release would have taken back.
        self.lost = []
        self.rounds_logged = 0
        self._layer = layer
        self._disk = disk
        self._scratch = scratch
        self._recovered = {}
        self._preemptions = 0
        notify = service._notify
        run_round = service._run_round
        self._records_seen = 0

        def watched_notify(client_id, payload):
            if payload.get("event") in ROUND_EFFECTS:
                segment = active_segment(layer.directory)
                appended = segment.stat().st_size
                synced = disk.synced_length(segment)
                self.released.append((payload, appended, synced))
                if scratch is not None:
                    # Collected, not raised: an exception here would kill
                    # the round loop and leave the client waiting.
                    reason = self._lost_with_the_power(
                        payload, (segment.name, appended, synced)
                    )
                    if reason:
                        self.lost.append((payload, reason))
            notify(client_id, payload)

        async def counted_round():
            await run_round()
            self.count_logged()

        service._notify = watched_notify
        service._run_round = counted_round

    def count_logged(self) -> None:
        """Call after a round (and after the drain tail): did it append?"""
        self.rounds_logged += self._layer.records_appended > self._records_seen
        self._records_seen = self._layer.records_appended

    def _lost_with_the_power(self, payload, disk_state):
        """Why ``payload``'s effect is missing from the state a power loss
        now recovers to (``None``: it is there)."""
        if disk_state not in self._recovered:
            copy = self._disk.power_loss_copy(
                self._layer.directory, self._scratch / f"loss-{len(self._recovered)}"
            )
            self._recovered[disk_state] = recover(copy)
        recovered = self._recovered[disk_state]
        task = recovered.state.tasks.get(payload["task_id"])
        if task is None:
            return "task unknown"
        if payload["event"] == "placement":
            if payload["task_id"] not in recovered.ledger.placed_ids:
                return "not in the placed ledger"
            if not task.is_running or task.machine_id != payload["machine_id"]:
                return f"recovered as {task.state} on {task.machine_id}"
        elif payload["event"] == "completion":
            if not task.is_finished:
                return f"recovered as {task.state}"
        else:
            self._preemptions += 1
            if recovered.ledger.preemptions < self._preemptions:
                return "preemption not in the ledger"
        return None


def make_service(tmp_path, **layer_kwargs):
    layer_kwargs.setdefault("snapshot_interval_rounds", 1000)
    layer = DurabilityLayer(tmp_path / "state", fsync=True, **layer_kwargs)
    service = SchedulerService(
        ClusterState(build_topology(4, slots_per_machine=4)),
        FirmamentScheduler(QuincyPolicy()),
        ServiceConfig(round_interval=0.01, time_scale=0.01),
        durability=layer,
    )
    return service, layer


async def send(writer, payload) -> None:
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()


async def drive(service):
    """Placements, completions and preemptions through a real socket.

    Returns every event the client received, in order.
    """
    reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
    received = []

    async def until(done) -> None:
        while not done():
            line = await reader.readline()
            assert line, "server hung up"
            received.append(json.loads(line))

    def count(kind):
        return sum(1 for event in received if event.get("event") == kind)

    # Job A: six tasks that never finish.
    await send(writer, {"op": "submit", "tasks": 6, "job_type": "service", "id": 1})
    await until(lambda: count("placement") == 6)
    # Job B: two tasks that complete 10 ms after they start.
    await send(writer, {"op": "submit", "tasks": 2, "duration": 1.0, "id": 2})
    await until(lambda: count("completion") == 2)
    # Take away a machine that runs part of job A.
    running = [task.machine_id for task in service.state.running_tasks()]
    machine_id = running[0]
    evicted = running.count(machine_id)
    await send(writer, {"op": "remove_machine", "machine_id": machine_id, "id": 3})
    await until(lambda: count("preemption") == evicted)
    await send(writer, {"op": "stats", "id": 4})
    await until(lambda: count("stats") == 1)
    writer.close()
    return received


def effects(events):
    return [
        (event["event"], event["task_id"]) for event in events
        if event.get("event") in ROUND_EFFECTS
    ]


def run(coro, timeout=60):
    return asyncio.run(asyncio.wait_for(coro, timeout))


@pytest.mark.parametrize("snapshot_interval_rounds", [1000, 2])
def test_effects_are_released_only_at_synced_equals_appended(
    tmp_path, monkeypatch, snapshot_interval_rounds
):
    """(a) Ordering oracle, with and without rotations under the run."""

    async def scenario():
        disk = Disk(monkeypatch)
        service, layer = make_service(
            tmp_path, snapshot_interval_rounds=snapshot_interval_rounds
        )
        watch = Watch(service, layer, disk)
        await service.start()
        try:
            received = await drive(service)
        finally:
            await service.stop()
        assert {kind for kind, _ in effects(received)} == set(ROUND_EFFECTS)
        # Everything the client got passed the watched exit ...
        assert effects(received) == effects(e for e, _, _ in watch.released)
        # ... and passed it behind the sync that covers it.
        for payload, appended, synced in watch.released:
            assert appended > 0 and synced == appended, (payload, appended, synced)

    run(scenario())


@pytest.mark.parametrize("snapshot_interval_rounds", [1000, 2])
def test_released_effects_survive_a_power_loss(
    tmp_path, monkeypatch, snapshot_interval_rounds
):
    """(b) Whatever a client may have been told is in the state a power
    loss at that instant recovers to."""

    async def scenario():
        disk = Disk(monkeypatch)
        service, layer = make_service(
            tmp_path, snapshot_interval_rounds=snapshot_interval_rounds
        )
        scratch = tmp_path / "losses"
        scratch.mkdir()
        watch = Watch(service, layer, disk, scratch=scratch)
        await service.start()
        try:
            received = await drive(service)
        finally:
            await service.stop()
        assert watch.lost == []
        # The checks ran inside the service; make sure they ran at all.
        assert len(watch.released) == len(effects(received)) >= 9
        assert len(list(scratch.iterdir())) >= 3

    run(scenario())


def test_one_segment_fsync_per_round_that_appended(tmp_path, monkeypatch):
    """Group commit, counted from outside: the admit and the round record
    of one round share a sync; ``stats`` reports the same numbers."""

    async def scenario():
        disk = Disk(monkeypatch)
        service, layer = make_service(tmp_path)
        watch = Watch(service, layer, disk)
        await service.start()
        try:
            received = await drive(service)
        finally:
            final = await service.stop()
        watch.count_logged()  # the drain tail
        assert watch.rounds_logged >= 3
        assert disk.segment_syncs == watch.rounds_logged
        assert layer.syncs == disk.segment_syncs
        assert layer.synced_seq == layer.seq
        # At least one round carried both records behind its one sync.
        assert layer.records_appended > watch.rounds_logged
        stats = next(e for e in received if e.get("event") == "stats")
        assert stats["wal_records"] >= stats["wal_syncs"] >= 3
        assert stats["wal_bytes"] > 0 and stats["wal_snapshots"] == 1
        assert final["wal_syncs"] == layer.syncs
        assert final["wal_records"] == layer.records_appended

    run(scenario())


def test_stats_carry_no_wal_counters_without_a_state_dir():
    service = SchedulerService(
        ClusterState(build_topology(2)), FirmamentScheduler(QuincyPolicy())
    )
    assert not any(key.startswith("wal_") for key in service._stats_snapshot())


@pytest.mark.parametrize("failing_round", ["solver", "admit-only"])
def test_a_failed_sync_releases_nothing_and_ends_the_round_loop(
    tmp_path, monkeypatch, failing_round
):
    """(d) Whether the sync fails under ``log_round`` or at the end of a
    round that only admitted (two completions), no effect of that round
    reaches the client and the round loop ends with the error."""

    async def scenario():
        disk = Disk(monkeypatch)
        service, layer = make_service(tmp_path)
        await service.start()
        reader, writer = await asyncio.open_connection("127.0.0.1", service.port)
        try:
            if failing_round == "solver":
                disk.fail_segment_syncs = True
            # Two tasks that complete 100 ms after they start.
            await send(writer, {"op": "submit", "tasks": 2, "duration": 10.0, "id": 1})
            ack = json.loads(await reader.readline())
            assert ack["event"] == "ack" and ack["accepted"] == 2
            if failing_round == "admit-only":
                for _ in range(2):
                    assert json.loads(await reader.readline())["event"] == "placement"
                disk.fail_segment_syncs = True
            with pytest.raises(OSError, match="segment sync failed"):
                await asyncio.wait_for(asyncio.shield(service._round_task), 10)
            # Applied in memory and appended, never synced: nothing sent.
            assert layer.synced_seq < layer.seq
            if failing_round == "solver":
                assert len(service.state.running_tasks()) == 2
            else:
                held = [payload["event"] for _, payload in service._outbox]
                assert held and set(held) == {"completion"}
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(reader.readline(), 0.1)
        finally:
            writer.close()
            for client in list(service._clients.values()):
                service._close_client(client)
            service._server.close()
            await service._server.wait_closed()
            service._stopped.set()
            layer.close()

    run(scenario())


def test_appends_do_not_sync_and_one_sync_covers_them(tmp_path, monkeypatch):
    """The layer's half of the rule, without a service in the way."""
    disk = Disk(monkeypatch)
    layer = DurabilityLayer(tmp_path / "state", fsync=True)
    state = make_cluster_state(num_machines=2)
    layer.write_snapshot(state, Ledger(), clock=0.0)
    admit = {"now": 1.0, "submissions": [], "machines_added": [],
             "machines_removed": [], "completions": []}
    layer.log_admission(admit)
    segment = active_segment(layer.directory)
    assert (layer.seq, layer.synced_seq, layer.syncs) == (1, 0, 0)
    assert segment.stat().st_size > 0 == disk.synced_length(segment)
    layer.log_round({"now": 2.0, "placements": {}, "migrations": {},
                     "preemptions": [], "degraded": False})
    assert (layer.seq, layer.synced_seq, layer.syncs) == (2, 2, 1)
    assert disk.synced_length(segment) == segment.stat().st_size
    layer.sync()  # nothing new: no second fsync
    layer.log_admission(admit)
    layer.sync()  # an admit-only round syncs at its end
    assert (layer.synced_seq, layer.syncs, disk.segment_syncs) == (3, 2, 2)
    layer.log_admission(admit)
    # Rotation never leaves an unsynced tail behind.
    layer.write_snapshot(state, Ledger(), clock=3.0)
    assert disk.synced_length(segment) == segment.stat().st_size
    assert (layer.records_appended, layer.syncs, layer.snapshots_written) == (4, 3, 2)
    assert layer.bytes_appended == segment.stat().st_size
    layer.close()
