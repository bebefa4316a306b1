"""Crash-safe scheduler state: write-ahead admission log + snapshot/restore.

The scheduler service (:mod:`repro.service.server`) keeps its entire
cluster state, pending queue, and accepted-work ledger in memory; without
this module a crash voids the ``accepted == placed + pending + rejected``
conservation law the moment the process dies.  The durability discipline
here is the classic one -- periodic snapshot plus replayable event log --
with recovery *verified* against a fault-free oracle by the
recovery-equivalence harness (``tests/service/test_recovery.py``):

* **The log is how the service changes state.**  Each of the two record
  kinds has one applier, which the live service calls and :func:`recover`
  calls on replay, so both change
  :class:`~repro.cluster.state.ClusterState` and the :class:`Ledger` in
  one order and return the same effects.  An ``admit`` record
  (:class:`AdmitRecord`, :func:`apply_admission`) is one inbox drain in
  arrival order: keyed submissions, machine add/remove events, completion
  timer firings.  A ``round`` record (:class:`RoundRecord`,
  :func:`apply_round`) is one applied decision, put on the state by
  :func:`~repro.core.scheduler.apply_decision` like the schedulers' own.
* **Write-ahead log.**  The rule is *appended before effects, synced
  before release*.  An ``admit`` record is appended *before* its batch
  mutates the state, a ``round`` record right after the apply (so only a
  decision the state accepted is logged).  An append writes and flushes
  but does not ``fsync``: the round's one :meth:`DurabilityLayer.sync` --
  issued by :meth:`DurabilityLayer.log_round`, or by the service at the
  end of a round that logged an ``admit`` only -- covers every record the
  round appended (group commit), and the service releases nothing a record
  caused (completions, preemptions, placements) to a client before the
  sync that covers it has returned.  A record the process never synced
  may or may not survive a power loss; either way no client was told.
  Records are length-prefixed and CRC32-checksummed, so a crash mid-append
  (or a lost unsynced suffix) leaves a *torn* tail that replay detects and
  drops -- a record is either fully applied or void, never half-applied.
* **Snapshots.**  Periodically (round-count- and log-size-triggered) the
  full :class:`ClusterState` plus the service ledger is serialized to a
  temp file, fsync'd, and atomically renamed; the log rotates to a fresh
  segment and segments wholly behind the retained snapshots are deleted.
  A crash mid-snapshot leaves only an ignored ``.tmp`` file.  The file
  holds the bytes of ``json.dumps`` over :func:`snapshot_cluster_state`,
  but the writer encodes only what changed: a finished job's encoding is
  kept in :attr:`ClusterState.encoded_jobs` and reused, and the file is
  streamed from byte parts, so no copy of the history is built.
* **Recovery.**  :func:`recover` loads the newest *valid* snapshot
  (falling back past corrupt ones), replays the log tail through the two
  appliers, and returns the state and ledger the live service held at
  its last durable record, so serving resumes with conservation intact.
  An ``admit`` record in the older grouped format is read in the order
  its replay always applied it (:meth:`AdmitRecord.from_payload`).

Record framing (one record)::

    <u32 payload length> <u32 CRC32(payload)> <payload: compact JSON>

File layout inside the state directory::

    snapshot-00000001.json     CRC-guarded snapshot, epoch 1
    wal-00000001.log           records appended after snapshot 1
    snapshot-00000002.json     ...
    wal-00000002.log           the active segment

The monitor's load statistics are deliberately *not* durable: monitoring
data is ephemeral observability that repopulates from live observations,
and no service-path mutation feeds it.
"""

from __future__ import annotations

import itertools
import json
import os
import struct
import time
import zlib
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.chaos import CrashInjector
from repro.cluster.machine import Machine, MachineState, Rack
from repro.cluster.state import ClusterState
from repro.cluster.task import Job, JobType, Task, TaskState
from repro.cluster.topology import ClusterTopology
from repro.core.scheduler import apply_decision

__all__ = [
    "AdmitRecord",
    "DurabilityLayer",
    "Ledger",
    "RecoveredState",
    "RecoveryError",
    "RoundRecord",
    "apply_admission",
    "apply_round",
    "read_segment",
    "recover",
    "restore_cluster_state",
    "snapshot_cluster_state",
]

_HEADER = struct.Struct("<II")

#: ``json.dumps(..., separators=(",", ":"))``, built once.
_COMPACT = json.JSONEncoder(separators=(",", ":"))
#: Items per part when a snapshot encodes a ledger's list or dict.
_CHUNK = 1024

_SNAPSHOT_PREFIX = "snapshot-"
_SEGMENT_PREFIX = "wal-"


class RecoveryError(Exception):
    """The on-disk state is inconsistent beyond what recovery tolerates."""


# --------------------------------------------------------------------- #
# ClusterState serialization
# --------------------------------------------------------------------- #
def _fields(obj) -> Dict[str, Any]:
    """A dataclass instance's fields by name, in declaration order."""
    return {name: getattr(obj, name) for name in obj.__dataclass_fields__}


def _task_to_payload(task: Task) -> Dict[str, Any]:
    return {
        **_fields(task),
        "input_locality": {str(k): v for k, v in task.input_locality.items()},
        "state": task.state.value,
    }


def _task_from_payload(payload: Dict[str, Any]) -> Task:
    return Task(**{
        **payload,
        "input_locality": {int(k): v for k, v in payload["input_locality"].items()},
        "state": TaskState(payload["state"]),
    })


def _job_to_payload(job: Job) -> Dict[str, Any]:
    return {
        **_fields(job),
        "job_type": job.job_type.value,
        "tasks": [_task_to_payload(task) for task in job.tasks],
    }


def _job_from_payload(payload: Dict[str, Any]) -> Job:
    # Not Job.add_task: it rewrites job_id/priority on the task, and a
    # restore must reproduce the serialized fields bit for bit.
    return Job(**{
        **payload,
        "job_type": JobType(payload["job_type"]),
        "tasks": [_task_from_payload(task) for task in payload["tasks"]],
    })


def _machine_to_payload(machine: Machine) -> Dict[str, Any]:
    return {**_fields(machine), "state": machine.state.value}


def _machine_from_payload(payload: Dict[str, Any]) -> Machine:
    return Machine(**{**payload, "state": MachineState(payload["state"])})


def _topology_to_payload(topology: ClusterTopology) -> Dict[str, Any]:
    return {
        "version": topology.version,
        "machines": [_machine_to_payload(m) for m in topology.machines.values()],
        "racks": [
            {**_fields(rack), "machine_ids": list(rack.machine_ids)}
            for rack in topology.racks.values()
        ],
    }


def snapshot_cluster_state(state: ClusterState) -> Dict[str, Any]:
    """Serialize a :class:`ClusterState` to a JSON-safe payload.

    Covers every index :func:`restore_cluster_state` must reproduce: the
    topology (machines with their health state, racks with their member
    order, the membership version) and the full job/task ledger including
    terminated history.  The derived indexes (live/terminated split,
    pending index, free-slot index, per-machine task sets) are *not*
    serialized -- they are recomputed from task states on restore, which is
    what the round-trip test pins as ``==``-equivalent.  Neither is the
    dirty tracker: it is process-local bookkeeping, and whoever reads a
    restored state is a fresh scheduler whose first round derives every
    scope anyway.
    """
    return {
        "topology": _topology_to_payload(state.topology),
        "jobs": [_job_to_payload(job) for job in state.jobs.values()],
    }


def restore_cluster_state(payload: Dict[str, Any]) -> ClusterState:
    """Rebuild a :class:`ClusterState` from :func:`snapshot_cluster_state`.

    A ``dirty`` section (snapshots written by older versions carry one) is
    ignored.
    """
    topology = ClusterTopology()
    for machine_payload in payload["topology"]["machines"]:
        machine = _machine_from_payload(machine_payload)
        topology.machines[machine.machine_id] = machine
    for rack_payload in payload["topology"]["racks"]:
        topology.racks[rack_payload["rack_id"]] = Rack(**rack_payload)
    topology.version = payload["topology"]["version"]

    state = ClusterState(topology)
    for job_payload in payload["jobs"]:
        job = _job_from_payload(job_payload)
        state.jobs[job.job_id] = job
        for task in job.tasks:
            state.tasks[task.task_id] = task
            if not task.is_finished:
                state._live_tasks[task.task_id] = task
            if task.is_pending:
                state._pending_tasks[task.task_id] = task
            if task.is_running:
                state._machine_tasks[task.machine_id].add(task.task_id)
    for machine_id in topology.machines:
        state._refresh_free_slot_entry(machine_id)
    return state


# --------------------------------------------------------------------- #
# The ledger, the two record kinds and their appliers
# --------------------------------------------------------------------- #
#: Admission events: ``(SUBMIT, (key, job))``, ``(ADD_MACHINE, machine)``,
#: ``(REMOVE_MACHINE, machine_id)``, ``(COMPLETE, (task_id, start_time))``.
SUBMIT, ADD_MACHINE, REMOVE_MACHINE, COMPLETE = (
    "submit", "add_machine", "remove_machine", "complete",
)
#: Effects an applier returns, in the order the state took them: ``(kind,
#: task_id)``.  A ``preemption``, ``completion`` or first ``placement`` is
#: one client notification; a ``restart`` (a migration, or a re-placement
#: after a preemption) only re-arms the task's completion timer.
PREEMPTION, COMPLETION, PLACEMENT, RESTART = (
    "preemption", "completion", "placement", "restart",
)
Effect = Tuple[str, int]


@dataclass
class Ledger:
    """The service's conservation ledger, as of the last applied record.

    Only the two appliers below write it, plus a drain that voids queued
    submissions: those never reached the log, so they are ``accepted`` and
    ``rejected`` at once and become durable with the drain's snapshot.
    Replaying the log therefore rebuilds the ledger the live service
    held.  It is snapshotted and restored whole.
    """

    accepted: int = 0
    placed: int = 0
    rejected: int = 0
    preemptions: int = 0
    completions: int = 0
    rounds: int = 0
    degraded_rounds: int = 0
    #: Tasks that have had their first placement (a re-placement after a
    #: preemption is not counted twice).
    placed_ids: Set[int] = field(default_factory=set)
    #: Idempotency key -> job id, for every admitted keyed submission.
    idempotency: Dict[str, int] = field(default_factory=dict)

    def to_payload(self) -> Dict[str, Any]:
        payload = dict(vars(self))
        payload["placed_ids"] = sorted(self.placed_ids)
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "Ledger":
        """Read a snapshot's ledger; a key that is no field is ignored."""
        known = {f.name for f in fields(cls)}
        ledger = cls(**{k: v for k, v in payload.items() if k in known})
        ledger.placed_ids = set(ledger.placed_ids)
        return ledger


#: Per admission event kind: (to payload, from payload).
_EVENT_CODECS = {
    SUBMIT: (
        lambda sub: {"key": sub[0], "job": _job_to_payload(sub[1])},
        lambda sub: (sub["key"], _job_from_payload(sub["job"])),
    ),
    ADD_MACHINE: (_machine_to_payload, _machine_from_payload),
    REMOVE_MACHINE: (int, int),
    COMPLETE: (list, tuple),
}

#: The grouped ``admit`` format: one list per event kind, which replay
#: applied in this order.
_GROUPED_ADMIT = (
    ("submissions", SUBMIT), ("machines_added", ADD_MACHINE),
    ("machines_removed", REMOVE_MACHINE), ("completions", COMPLETE),
)


@dataclass
class AdmitRecord:
    """One inbox drain: its events in arrival order, admitted at ``now``."""

    now: float
    events: List[Tuple[str, Any]]

    def to_payload(self) -> Dict[str, Any]:
        return {
            "now": self.now,
            "events": [
                [kind, _EVENT_CODECS[kind][0](payload)]
                for kind, payload in self.events
            ],
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "AdmitRecord":
        """Read an ``admit`` record, in either format.

        A record without ``events`` is grouped by kind; its events are
        read submissions first, then added machines, removed machines and
        completions -- the order its replay has always applied them in.
        """
        if "events" in payload:
            listed = payload["events"]
        else:
            listed = [
                (kind, item) for group, kind in _GROUPED_ADMIT
                for item in payload[group]
            ]
        return cls(payload["now"], [
            (kind, _EVENT_CODECS[kind][1](item)) for kind, item in listed
        ])


@dataclass
class RoundRecord:
    """One applied round: the decision it put on the state, at ``now``."""

    now: float
    placements: Dict[int, int] = field(default_factory=dict)
    migrations: Dict[int, int] = field(default_factory=dict)
    preemptions: List[int] = field(default_factory=list)
    degraded: bool = False

    @classmethod
    def of(cls, decision, now: float) -> "RoundRecord":
        return cls(
            now, decision.placements, decision.migrations,
            decision.preemptions, bool(decision.degraded),
        )

    def to_payload(self) -> Dict[str, Any]:
        return {
            "now": self.now,
            "placements": {str(t): m for t, m in self.placements.items()},
            "migrations": {str(t): m for t, m in self.migrations.items()},
            "preemptions": list(self.preemptions),
            "degraded": self.degraded,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "RoundRecord":
        return cls(
            payload["now"],
            {int(t): m for t, m in payload["placements"].items()},
            {int(t): m for t, m in payload["migrations"].items()},
            list(payload["preemptions"]),
            payload["degraded"],
        )


def apply_admission(
    state: ClusterState,
    ledger: Ledger,
    record: AdmitRecord,
    crash: Optional[CrashInjector] = None,
) -> List[Effect]:
    """The admission applier: one drained batch onto the state and ledger.

    Events apply in arrival order.  Keys were deduplicated at the front
    door before anything was logged, so every submission here is new.
    ``crash`` (live only) is hit at ``mid_drain`` before each event.
    """
    now = record.now
    effects: List[Effect] = []
    for kind, payload in record.events:
        if crash is not None:
            crash.hit("mid_drain")
        if kind == SUBMIT:
            key, job = payload
            state.submit_job(job)
            ledger.accepted += len(job.tasks)
            if key is not None:
                ledger.idempotency[key] = job.job_id
        elif kind == ADD_MACHINE:
            state.add_machine(payload)
        elif kind == REMOVE_MACHINE:
            evicted = state.fail_machine(payload, now)
            ledger.preemptions += len(evicted)
            effects.extend((PREEMPTION, task_id) for task_id in evicted)
        else:
            task_id, start_time = payload
            task = state.tasks.get(task_id)
            # Stale-completion guard: the timer that fired belongs to this
            # execution only if the task still runs from the same start.
            # Preempted/migrated tasks re-arm on re-placement.
            if task is not None and task.is_running and task.start_time == start_time:
                state.complete_task(task_id, now)
                ledger.completions += 1
                effects.append((COMPLETION, task_id))
    return effects


def apply_round(
    state: ClusterState,
    ledger: Ledger,
    decision,
    now: float,
    apply: Callable = apply_decision,
) -> List[Effect]:
    """The round applier: one round's decision onto the state and ledger.

    ``decision`` is the round's :class:`SchedulingDecision` live and its
    :class:`RoundRecord` on replay.  ``apply`` is the decision applier
    (:func:`~repro.core.scheduler.apply_decision`), which the live service
    reaches through its scheduler's ``apply``.
    """
    apply(state, decision, now)
    ledger.rounds += 1
    ledger.degraded_rounds += bool(decision.degraded)
    ledger.preemptions += len(decision.preemptions)
    effects: List[Effect] = [(PREEMPTION, task_id) for task_id in decision.preemptions]
    for task_id in itertools.chain(decision.migrations, decision.placements):
        if task_id in ledger.placed_ids:
            effects.append((RESTART, task_id))
        else:
            ledger.placed_ids.add(task_id)
            ledger.placed += 1
            effects.append((PLACEMENT, task_id))
    return effects


# --------------------------------------------------------------------- #
# Log framing
# --------------------------------------------------------------------- #
def _frame(payload: bytes) -> bytes:
    return _HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def read_segment(path: Path) -> Tuple[List[Dict[str, Any]], bool]:
    """Read every intact record of one segment.

    Returns ``(records, torn)``: ``torn`` is True when trailing bytes did
    not form a complete checksummed record (short header, short payload,
    CRC mismatch, or undecodable JSON) -- those bytes are dropped, never
    half-applied.
    """
    data = Path(path).read_bytes()
    records: List[Dict[str, Any]] = []
    offset = 0
    while True:
        if offset == len(data):
            return records, False
        if len(data) - offset < _HEADER.size:
            return records, True
        length, crc = _HEADER.unpack_from(data, offset)
        start = offset + _HEADER.size
        end = start + length
        if end > len(data):
            return records, True
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            return records, True
        try:
            record = json.loads(payload)
        except ValueError:
            return records, True
        records.append(record)
        offset = end


def _snapshot_path(directory: Path, epoch: int) -> Path:
    return directory / f"{_SNAPSHOT_PREFIX}{epoch:08d}.json"


def _segment_path(directory: Path, epoch: int) -> Path:
    return directory / f"{_SEGMENT_PREFIX}{epoch:08d}.log"


def _indexed_files(directory: Path, prefix: str, suffix: str) -> List[Tuple[int, Path]]:
    found = []
    for path in directory.iterdir():
        name = path.name
        if name.startswith(prefix) and name.endswith(suffix):
            try:
                found.append((int(name[len(prefix): -len(suffix)]), path))
            except ValueError:
                continue
    return sorted(found)


def _compact(value: Any) -> bytes:
    return _COMPACT.encode(value).encode("utf-8")


def _encoded_job(state: ClusterState, job: Job) -> bytes:
    """One job's compact JSON; a finished job's is encoded once and kept
    in ``state.encoded_jobs``, a live job's afresh every time."""
    encoded = state.encoded_jobs.get(job.job_id)
    if encoded is None:
        encoded = _compact(_job_to_payload(job))
        if all(task.is_finished for task in job.tasks):
            state.encoded_jobs[job.job_id] = encoded
    return encoded


def _chunked(items, brackets: bytes, encode: Callable[[list], bytes]) -> Iterator[bytes]:
    """A JSON list or object from ``items``, ``_CHUNK`` of them per part."""
    yield brackets[:1]
    separator = b""
    while chunk := list(itertools.islice(items, _CHUNK)):
        yield separator + encode(chunk)[1:-1]
        separator = b","
    yield brackets[1:]


def _ledger_parts(ledger: Ledger) -> Iterator[bytes]:
    """``_compact(ledger.to_payload())`` in parts: its ids and keys grow
    with history, so no one string holds them whole."""
    yield b"{"
    separator = b""
    for key, value in ledger.to_payload().items():
        yield separator + _compact(key) + b":"
        separator = b","
        if isinstance(value, dict):
            yield from _chunked(iter(value.items()), b"{}", lambda chunk: _compact(dict(chunk)))
        elif isinstance(value, list):
            yield from _chunked(iter(value), b"[]", _compact)
        else:
            yield _compact(value)
    yield b"}"


def _snapshot_parts(
    epoch: int, barrier_seq: int, clock: float, state: ClusterState, ledger: Ledger
) -> List[bytes]:
    """A snapshot's body as byte parts, none the size of the history.

    Joined, they are ``json.dumps`` (compact separators) of ``{"epoch",
    "barrier_seq", "clock", "state": snapshot_cluster_state(state),
    "ledger": ledger.to_payload()}``, byte for byte.
    """
    parts = [
        b'{"epoch":', _compact(epoch),
        b',"barrier_seq":', _compact(barrier_seq),
        b',"clock":', _compact(clock),
        b',"state":{"topology":', _compact(_topology_to_payload(state.topology)),
        b',"jobs":[',
    ]
    for job in state.jobs.values():
        parts += (_encoded_job(state, job), b",")
    if state.jobs:
        parts.pop()
    parts.append(b']},"ledger":')
    parts.extend(_ledger_parts(ledger))
    parts.append(b"}")
    return parts


def _load_snapshot(path: Path) -> Optional[Dict[str, Any]]:
    """Load a CRC-guarded snapshot; ``None`` on any corruption."""
    try:
        raw = path.read_bytes()
        header, _, body = raw.partition(b"\n")
        if not body or int(header, 16) != zlib.crc32(body):
            return None
        return json.loads(body)
    except (OSError, ValueError):
        return None


# --------------------------------------------------------------------- #
# The durability layer (writer side)
# --------------------------------------------------------------------- #
class DurabilityLayer:
    """Owns a state directory: the active WAL segment and snapshot rotation.

    Snapshots are written from the :class:`ClusterState` itself
    (:meth:`write_snapshot`), which keeps its finished jobs' encodings, so
    a snapshot encodes the live jobs, the topology and the ledger; the
    counters below say what the snapshots cost.

    Args:
        state_dir: Directory for snapshots and log segments (created if
            missing).
        fsync: fsync the log at every :meth:`sync` and every snapshot (turn
            off only in benchmarks isolating serialization cost from disk
            latency).
        snapshot_interval_rounds: Snapshot after this many logged rounds.
        snapshot_max_log_bytes: ... or when the active segment exceeds
            this size, whichever comes first.
        crash: Optional :class:`~repro.chaos.CrashInjector` for the
            kill -9 harness; ``None`` costs nothing.
    """

    #: Retained snapshot generations: two, so a crash that corrupts the
    #: newest snapshot (or tears it mid-write) still recovers from the
    #: previous one plus its log.
    KEEP_SNAPSHOTS = 2

    def __init__(
        self,
        state_dir,
        fsync: bool = True,
        snapshot_interval_rounds: int = 64,
        snapshot_max_log_bytes: int = 4 * 1024 * 1024,
        crash: Optional[CrashInjector] = None,
    ) -> None:
        if snapshot_interval_rounds < 1:
            raise ValueError("snapshot_interval_rounds must be >= 1")
        self.directory = Path(state_dir)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.snapshot_interval_rounds = snapshot_interval_rounds
        self.snapshot_max_log_bytes = snapshot_max_log_bytes
        self.crash = crash
        #: Last assigned record sequence number (monotonic across segments).
        self.seq = 0
        #: Sequence number of the last record a :meth:`sync` covers; the
        #: service releases a round's events only at ``synced_seq == seq``.
        self.synced_seq = 0
        #: Snapshot/segment epoch; 0 until the first snapshot is written.
        self.epoch = 0
        self.records_appended = 0
        self.bytes_appended = 0
        #: ``os.fsync`` calls on the active segment (one per round that
        #: appended; 0 with ``fsync=False``).
        self.syncs = 0
        self.snapshots_written = 0
        #: Size of the last snapshot file, and wall seconds spent in
        #: :meth:`write_snapshot` in total.
        self.last_snapshot_bytes = 0
        self.snapshot_seconds = 0.0
        self._rounds_since_snapshot = 0
        self._file = None
        self._segment_bytes = 0

    @property
    def active(self) -> bool:
        """Whether a segment is open for appends (a snapshot exists)."""
        return self._file is not None

    def has_prior_state(self) -> bool:
        """Whether the directory already holds snapshots or segments."""
        return bool(
            _indexed_files(self.directory, _SNAPSHOT_PREFIX, ".json")
            or _indexed_files(self.directory, _SEGMENT_PREFIX, ".log")
        )

    def resume_from(self, recovered: "RecoveredState") -> None:
        """Continue sequence/epoch numbering after :func:`recover`."""
        self.seq = self.synced_seq = recovered.seq
        self.epoch = recovered.epoch

    # ------------------------------------------------------------------ #
    # Appends
    # ------------------------------------------------------------------ #
    def _append(self, kind: str, payload: Dict[str, Any], crash_point: str) -> None:
        if self._file is None:
            raise RecoveryError("no active segment: write a snapshot first")
        self.seq += 1
        record = dict(payload)
        record["kind"] = kind
        record["seq"] = self.seq
        framed = _frame(json.dumps(record, separators=(",", ":")).encode("utf-8"))
        if self.crash is not None:
            self.crash.hit(crash_point, fileobj=self._file, pending_bytes=framed)
        self._file.write(framed)
        self._file.flush()
        self._segment_bytes += len(framed)
        self.bytes_appended += len(framed)
        self.records_appended += 1

    def sync(self) -> None:
        """Make every appended record durable: the round's one ``fsync``.

        A no-op when nothing was appended since the last sync, so the
        service can call it at every release point.  An ``OSError`` leaves
        ``synced_seq`` behind ``seq`` -- the caller must not release.
        """
        if self.synced_seq == self.seq:
            return
        if self.fsync:
            os.fsync(self._file.fileno())
            self.syncs += 1
        self.synced_seq = self.seq

    def log_admission(self, payload: Dict[str, Any]) -> None:
        """Append one ``admit`` record (before the batch applies).

        Not synced here: the round's :meth:`sync` covers it, and nothing
        the batch causes is released before that.
        """
        self._append("admit", payload, "admit_append")

    def log_round(self, payload: Dict[str, Any]) -> None:
        """Append one ``round`` record and sync the round's records."""
        record_start = self._segment_bytes
        self._append("round", payload, "round_append")
        self._rounds_since_snapshot += 1
        if self.crash is not None:
            self.crash.hit(
                "round_sync", fileobj=self._file, written_from=record_start
            )
        self.sync()

    # ------------------------------------------------------------------ #
    # Snapshots
    # ------------------------------------------------------------------ #
    def should_snapshot(self) -> bool:
        """Whether either snapshot trigger (rounds, log size) has tripped."""
        return (
            self._rounds_since_snapshot >= self.snapshot_interval_rounds
            or self._segment_bytes >= self.snapshot_max_log_bytes
        )

    def write_snapshot(
        self,
        state: ClusterState,
        ledger: Ledger,
        clock: float,
    ) -> Path:
        """Write a snapshot of ``state`` atomically and rotate to a fresh segment.

        The file is ``<CRC32 of the body, 8 hex digits>\\n<body>``, the body
        the compact ``json.dumps`` of the epoch, the barrier, ``clock``,
        :func:`snapshot_cluster_state` of ``state`` and the ledger.  It is
        streamed from byte parts (:func:`_snapshot_parts`) with the CRC
        taken part by part; finished jobs come from ``state.encoded_jobs``,
        so only live jobs are encoded.

        The snapshot's barrier is the current log sequence number: records
        up to and including it are superseded by the snapshot, and
        segments wholly behind the retained snapshots are deleted.  The
        outgoing segment is synced first: recovery falls back to it when
        this snapshot turns out corrupt.
        """
        start = time.perf_counter()
        self.sync()
        self.epoch += 1
        # Part 0 is the header, filled in once the body's CRC is known.
        parts = [b""] + _snapshot_parts(self.epoch, self.seq, clock, state, ledger)
        crc = 0
        for part in itertools.islice(parts, 1, None):
            crc = zlib.crc32(part, crc)
        parts[0] = f"{crc:08x}\n".encode("ascii")
        size = sum(map(len, parts))
        final = _snapshot_path(self.directory, self.epoch)
        tmp = final.with_suffix(".json.tmp")
        with open(tmp, "wb") as handle:
            if self.crash is not None:
                # Crash mid-write: leave a torn temp file on disk so the
                # harness proves recovery never trusts an unrenamed temp.
                self.crash.hit(
                    "mid_snapshot",
                    fileobj=handle,
                    pending_bytes=b"".join(parts)[: max(1, size // 2)],
                )
            handle.writelines(parts)
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, final)
        self._fsync_directory()

        # Rotate: further records land in the new epoch's segment.
        if self._file is not None:
            self._file.close()
        self._file = open(_segment_path(self.directory, self.epoch), "ab")
        self._segment_bytes = 0
        self._rounds_since_snapshot = 0
        self.snapshots_written += 1
        self._prune()
        self.last_snapshot_bytes = size
        self.snapshot_seconds += time.perf_counter() - start
        return final

    def _fsync_directory(self) -> None:
        if not self.fsync:
            return
        fd = os.open(self.directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _prune(self) -> None:
        """Drop snapshots beyond the retention count and superseded segments."""
        snapshots = _indexed_files(self.directory, _SNAPSHOT_PREFIX, ".json")
        keep = snapshots[-self.KEEP_SNAPSHOTS:]
        oldest_kept = keep[0][0] if keep else self.epoch
        for epoch, path in snapshots[: -self.KEEP_SNAPSHOTS]:
            path.unlink(missing_ok=True)
        for epoch, path in _indexed_files(self.directory, _SEGMENT_PREFIX, ".log"):
            # Segment N holds records appended *after* snapshot N; it is
            # needed by any retained snapshot <= N, so only segments
            # strictly behind the oldest retained snapshot can go.
            if epoch < oldest_kept:
                path.unlink(missing_ok=True)
        for path in self.directory.glob("*.tmp"):
            path.unlink(missing_ok=True)

    def close(self) -> None:
        """Close the active segment (recovery reads files, not handles)."""
        if self._file is not None:
            self._file.close()
            self._file = None


# --------------------------------------------------------------------- #
# Recovery (reader side)
# --------------------------------------------------------------------- #
@dataclass
class RecoveredState:
    """Everything :func:`recover` reconstructs from the state directory."""

    state: ClusterState
    ledger: Ledger
    #: Service clock at the last durable record, so a restarted service
    #: resumes its monotonic time instead of rewinding to zero.
    clock: float = 0.0
    seq: int = 0
    epoch: int = 0
    snapshot_epoch: int = 0
    replayed_records: int = 0
    torn_tail_dropped: bool = False
    snapshots_skipped: int = 0


def recover(state_dir) -> RecoveredState:
    """Rebuild the service state from the newest valid snapshot + log tail.

    Corrupt or torn snapshots are skipped (retention keeps the previous
    generation and its segments); a torn final log record is dropped.
    Raises :class:`RecoveryError` when no valid snapshot exists or a log
    record contradicts the state it replays onto.
    """
    directory = Path(state_dir)
    snapshots = _indexed_files(directory, _SNAPSHOT_PREFIX, ".json")
    if not snapshots:
        raise RecoveryError(f"no snapshot found in {directory}")

    chosen: Optional[Dict[str, Any]] = None
    skipped = 0
    for epoch, path in reversed(snapshots):
        chosen = _load_snapshot(path)
        if chosen is not None:
            break
        skipped += 1
    if chosen is None:
        raise RecoveryError(f"every snapshot in {directory} is corrupt")

    state = restore_cluster_state(chosen["state"])
    ledger = Ledger.from_payload(chosen["ledger"])
    recovered = RecoveredState(
        state=state,
        ledger=ledger,
        clock=chosen["clock"],
        seq=chosen["barrier_seq"],
        epoch=chosen["epoch"],
        snapshot_epoch=chosen["epoch"],
        snapshots_skipped=skipped,
    )

    barrier = chosen["barrier_seq"]
    for epoch, path in _indexed_files(directory, _SEGMENT_PREFIX, ".log"):
        if epoch < chosen["epoch"]:
            continue
        records, torn = read_segment(path)
        recovered.torn_tail_dropped = recovered.torn_tail_dropped or torn
        for record in records:
            if record["seq"] <= barrier:
                continue
            try:
                if record["kind"] == "admit":
                    apply_admission(state, ledger, AdmitRecord.from_payload(record))
                elif record["kind"] == "round":
                    decided = RoundRecord.from_payload(record)
                    apply_round(state, ledger, decided, decided.now)
                else:
                    raise RecoveryError(f"unknown record kind {record['kind']!r}")
            except (KeyError, ValueError) as error:
                raise RecoveryError(
                    f"replaying record seq={record.get('seq')} of {path.name} "
                    f"failed: {error}"
                ) from error
            recovered.seq = record["seq"]
            recovered.clock = max(recovered.clock, record.get("now", 0.0))
            recovered.replayed_records += 1
        recovered.epoch = max(recovered.epoch, epoch)

    # Whatever graph state a scheduler had is gone with the old process;
    # make the first post-recovery round an all-dirty one instead of
    # trusting a stale-looking epoch chain.
    state.dirty.mark_all()
    return recovered
