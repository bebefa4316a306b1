"""Async scheduler service: coalesced admission, round loop, notifications.

Architecture
------------

Everything runs on one asyncio event loop, the solver included:

* **Connections** are :class:`asyncio.Protocol` objects.  They never
  mutate the cluster state directly -- each complete request line is
  decoded, parsed and dispatched as it arrives; a submission is validated,
  acked, and appended to the service *inbox* (a plain deque of admission
  records).  This is what makes concurrent clients safe without locks: the
  protocol callbacks and the round loop interleave only at await points,
  and the state is touched by exactly one of them (the round loop).
* **The round loop** is triggered by work, not by a clock (Figure 2b of
  the paper: the solver re-runs as soon as the previous run has been
  applied, folding in whatever arrived meanwhile).  A round starts as soon
  as the previous one has applied and something that can change a decision
  is queued -- a submission or machine event; a completion *while tasks are
  pending*; or pending tasks left by a round that placed, moved, preempted
  or re-homed at least one task.  Whatever arrives during a solve coalesces
  into the next round; there is no timed window.  Work that cannot change a
  decision now -- completions nobody is waiting on, pending tasks the last
  round just failed to place -- is *deferred*: it rides along with the next
  triggered round, or is looked at after ``round_interval`` at the latest,
  which is also what keeps a full cluster from spinning.  An idle service
  runs no rounds.  The round drains the inbox into one admission record,
  which :func:`~repro.service.durability.apply_admission` turns into
  ordinary :class:`ClusterState` mutations (``submit_job``,
  ``add_machine``, ``fail_machine``, ``complete_task``) in arrival order;
  a decision reaches the state through
  :func:`~repro.service.durability.apply_round`.  Recovery replays the log
  with the same two appliers.  The state's
  :class:`~repro.cluster.state.DirtyTracker` picks the mutations up exactly
  as it does under the simulator, so the scheduler's incremental path keeps
  its O(|changes|) admission cost.  If tasks are pending the scheduler
  then runs inline, solve and apply back to back as in the paper's loop
  (a pure-Python solve holds the GIL: a thread would free nothing).  A
  round yields once, at its top -- the connections write what is queued
  -- and nothing else runs from its drain to its release: a request
  arriving mid-round is read after it (with worker processes, after their
  pipe too, bounded by the deadline), in the next round's yield but after
  its drain when that round was due anyway.
* **Notifications** are encoded once, into a per-client list of lines
  that one ``call_soon`` per loop turn hands the transport in one
  ``write``; while the transport has paused writing (TCP backpressure)
  they are held.  A client that stops reading eventually holds
  ``client_queue_limit`` lines and is evicted -- one slow consumer cannot
  stall the round loop or other clients.  The events a round *causes*
  (completions, preemptions, placements) are held in a per-round outbox
  and are queued only at the round's release point, in the order the
  round produced them; acks, ``stats``, ``ledger`` and error replies are
  queued at once.  Completions come from one timer per distinct duration
  among the tasks a batch of effects started.

Conservation law
----------------

Every task a client submits is *accepted* (acked and queued) or refused at
the front door.  From then on the service guarantees, at every stats
snapshot and at final drain::

    accepted == placed + pending + rejected

where *placed* counts tasks that received their first placement, *pending*
counts accepted tasks still waiting (queued in the inbox or unplaced in
the state), and *rejected* counts accepted tasks voided by a drain before
admission.  The counters live in one
:class:`~repro.service.durability.Ledger` that only the appliers write
(and a drain's voids); ``stats`` recomputes *pending* from the actual
cluster state and reports ``conserved`` so clients (and the SLO
benchmark) can verify the law end to end, mirroring the simulator's
``verify_placement_conservation``.

Durability (optional)
---------------------

With a :class:`~repro.service.durability.DurabilityLayer` attached, the
conservation law survives ``kill -9`` and power loss under one rule:
*appended before effects, synced before release*.  The log is how the
service changes state: every inbox drain appends one ``admit`` record
before the admission applier runs it, and every round -- a round whose
solve raised included, as an empty ``degraded`` one -- appends one
``round`` record right after the round applier put it on the state;
neither append waits for the disk.  Replaying the log runs the same
appliers in the same order, so ``recover()`` rebuilds the state and
ledger the service held at its last durable record.  The round's single
``fsync`` covers both (group commit), and **release** -- the one point
per round where the outbox is queued for the clients -- comes only
after it has returned, so no client ever hears of an effect a crash
could take back.  A sync that fails releases nothing and ends the round
loop with the error.  A service without a state directory takes the same
outbox → release route with nothing to sync.  Snapshots rotate the log and are
taken after the release, once the client writes have had a loop turn.
Submissions carry optional client-supplied idempotency ``key``s; a
duplicate key gets the original ack back (``duplicate: true``) instead of
a second job, which is what lets clients blindly resubmit across a crash.
A duplicate changes no state and is logged nowhere: the ``ledger`` op's
``duplicates`` counts this process's, like ``evicted_clients``.
Neither ``stats`` nor ``ledger`` can observe a round half-done, so both
answer from a synced log.  With a state directory ``stats`` also carries
what the log did: ``wal_records``, ``wal_syncs``, ``wal_bytes``,
``wal_snapshots``, and what the snapshots cost: ``wal_snapshot_bytes``
(the last one's size) and ``wal_snapshot_seconds`` (all of them).

Protocol (JSON lines, UTF-8, one object per line)
-------------------------------------------------

Requests::

    {"op": "submit", "tasks": N, "duration": 5.0, "job_type": "batch",
     "cpu": 1.0, "ram": 1.0, "priority": 0, "id": <echoed>}
    {"op": "add_machine", "count": 1}
    {"op": "remove_machine", "machine_id": M}
    {"op": "stats"}
    {"op": "shutdown"}

Responses/events::

    {"event": "ack", "id": ..., "job_id": J, "accepted": N, "task_ids": [...]}
    {"event": "placement", "task_id": T, "job_id": J, "machine_id": M,
     "latency": seconds}
    {"event": "preemption", "task_id": T, "job_id": J}
    {"event": "completion", "task_id": T, "job_id": J}
    {"event": "rejected", "task_ids": [...], "reason": "drain"}
    {"event": "stats", ...counters...}
    {"event": "error", "id": ..., "error": "..."}
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Iterable, List, Optional, Tuple

from repro.cluster.machine import Machine
from repro.cluster.state import ClusterState
from repro.cluster.task import Job, JobType, Task
from repro.core.scheduler import apply_decision
from repro.service.durability import (
    ADD_MACHINE,
    COMPLETE,
    COMPLETION,
    PLACEMENT,
    PREEMPTION,
    REMOVE_MACHINE,
    RESTART,
    SUBMIT,
    AdmitRecord,
    DurabilityLayer,
    Effect,
    Ledger,
    RecoveredState,
    RoundRecord,
    apply_admission,
    apply_round,
)

__all__ = ["SchedulerService", "ServiceConfig", "ServiceStats"]

#: Seconds :meth:`SchedulerService.stop` waits, in all, for every client's
#: queued event lines to be handed to its transport.
DRAIN_TIMEOUT_SECONDS = 10.0

_PLACEMENT_KEYS = ("event", "task_id", "job_id", "machine_id", "latency")
_PLACEMENT_LINE = (
    '{"event": "placement", "task_id": %d, "job_id": %d, "machine_id": %d, '
    '"latency": %r}\n'
)
_TASK_EVENT_KEYS = ("event", "task_id", "job_id")
_TASK_EVENT_LINE = '{"event": "%s", "task_id": %d, "job_id": %d}\n'


def _encode(payload: Dict[str, Any]) -> str:
    """``json.dumps(payload) + "\\n"``; a round effect's line is formatted.

    The payloads :meth:`SchedulerService._hold` builds (its keys in its
    order, int ids, a finite float latency) format into the same bytes:
    ``", "`` / ``": "`` separators and a float's ``repr``.
    """
    keys = tuple(payload)
    if keys == _PLACEMENT_KEYS:
        event, task_id, job_id, machine_id, latency = payload.values()
        if (
            event == PLACEMENT
            and type(task_id) is type(job_id) is type(machine_id) is int
            and type(latency) is float and latency - latency == 0.0
        ):
            return _PLACEMENT_LINE % (task_id, job_id, machine_id, latency)
    elif keys == _TASK_EVENT_KEYS:
        event, task_id, job_id = payload.values()
        if event in (COMPLETION, PREEMPTION) and type(task_id) is type(job_id) is int:
            return _TASK_EVENT_LINE % (event, task_id, job_id)
    return json.dumps(payload) + "\n"


def _is_integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_amount(value: Any) -> bool:
    return (
        isinstance(value, (int, float)) and not isinstance(value, bool)
        and 0 <= value < math.inf
    )


def _submit_error(request: Dict[str, Any]) -> Optional[str]:
    """Why a ``submit`` request cannot be admitted, or None if it can.

    Counts and priorities are JSON integers (``true`` is not 1); duration,
    cpu and ram are finite non-negative numbers (``NaN`` and ``Infinity``
    parse, and are refused here); only duration may be null (no end).
    """
    tasks = request.get("tasks", 1)
    if not _is_integer(tasks) or tasks <= 0:
        return "tasks must be a positive integer"
    key = request.get("key")
    if key is not None and not isinstance(key, str):
        return "key must be a string"
    duration = request.get("duration")
    if duration is not None and not _is_amount(duration):
        return "duration must be a finite non-negative number"
    for name in ("cpu", "ram"):
        if not _is_amount(request.get(name, 1.0)):
            return f"{name} must be a finite non-negative number"
    if not _is_integer(request.get("priority", 0)):
        return "priority must be an integer"
    return None


@dataclass
class ServiceConfig:
    """Tunables for :class:`SchedulerService`.

    Attributes:
        host: Bind address.
        port: Bind port; 0 asks the kernel for an ephemeral port (read the
            actual one from :attr:`SchedulerService.port` after start).
        round_interval: Longest the round loop leaves *deferred* work
            unlooked at: completions nobody is waiting on, and pending
            tasks the last round failed to place.  Everything else --
            submissions, machine events, a completion while tasks are
            pending -- starts a round as soon as the previous one has
            applied, so this is a ceiling on deferral (and the retry rate
            of a full cluster: at most ``1 / round_interval`` rounds per
            second), not a floor under rounds.
        client_queue_limit: Notification events buffered per client before
            the client is declared too slow and evicted (backpressure
            boundary between the round loop and a stalled TCP peer).
        time_scale: Wall-clock seconds per submitted duration second.
            Task durations are multiplied by this before the completion
            timer is armed; tests and benchmarks use small values so
            finite tasks free their slots quickly.
        max_request_bytes: Upper bound on one JSON-lines request.  A
            client sending a longer line (or undecodable bytes) gets an
            ``error`` reply and is disconnected -- the service never
            buffers unboundedly on behalf of a hostile or broken peer.
    """

    host: str = "127.0.0.1"
    port: int = 0
    round_interval: float = 0.05
    client_queue_limit: int = 1024
    time_scale: float = 1.0
    max_request_bytes: int = 1 << 20


@dataclass
class ServiceStats:
    """What this process saw at its front door and in its round loop.

    None of it is durable: the conservation counters are the
    :class:`~repro.service.durability.Ledger`, which the log rebuilds.
    """

    #: Keyed resubmissions answered with their original ack (a refused
    #: duplicate changes no state, so it leaves no record).
    duplicates: int = 0
    evicted_clients: int = 0
    #: Pacing: rounds that ran the solver, inbox drains that had records to
    #: apply and how many, and loop seconds inside rounds (drain through
    #: release and snapshot) -- rounds/s, events/round and busy ratio follow.
    solver_rounds: int = 0
    drains: int = 0
    events_admitted: int = 0
    round_busy_seconds: float = 0.0


class _Client(asyncio.Protocol):
    """One connection: request lines in, encoded event lines out.

    The first line queued in a loop turn arms one :meth:`flush` of every
    line to ``writer`` (the transport); while it has paused writing the
    lines are held, and count against ``client_queue_limit``.
    """

    def __init__(self, service: "SchedulerService") -> None:
        self.service = service
        self.client_id = 0
        self.writer: Optional[asyncio.Transport] = None
        #: Received bytes after the last complete request line.
        self.buffer = bytearray()
        #: Encoded event lines not yet handed to the transport.
        self.lines: List[str] = []
        self.paused = False
        self.evicted = False

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        service = self.service
        self.writer, self.client_id = transport, service._next_client_id
        service._next_client_id += 1
        service._clients[self.client_id] = self

    def data_received(self, data: bytes) -> None:
        """Handle every complete line; hang up on one that is too long.

        As ``StreamReader.readline`` did, a line's bytes before its newline
        (or an unterminated tail's) may number up to ``max_request_bytes``.
        """
        buffer, service = self.buffer, self.service
        limit = service.config.max_request_bytes
        scanned = len(buffer)
        buffer += data
        start, end = 0, buffer.find(b"\n", scanned)
        while end >= 0 and end - start <= limit and not self.evicted:
            service._handle_line(self, buffer[start:end + 1])
            start, end = end + 1, buffer.find(b"\n", end + 1)
        del buffer[:start]
        if not self.evicted and (end >= 0 or len(buffer) > limit):
            # Resynchronising inside an oversized line is guesswork, and
            # buffering it is the attack.
            service._hangup(self, "request line too long")

    def eof_received(self) -> bool:
        """An unterminated last line is still a request (``readline``
        returned it); what is queued is written before the transport
        closes."""
        if self.buffer and not self.evicted:
            self.service._handle_line(self, self.buffer)
        self.send()
        return False

    def connection_lost(self, exc: Optional[Exception]) -> None:
        # Stop writing to the client, but keep its submitted tasks -- jobs
        # outlive their submitter's connection.
        if not self.evicted:
            self.service._close_client(self)

    def pause_writing(self) -> None:
        self.paused = True

    def resume_writing(self) -> None:
        self.paused = False
        self.flush()

    def flush(self) -> None:
        """The loop turn's write, unless the transport has paused writing."""
        if not self.paused:
            self.send()

    def send(self) -> None:
        """Hand the transport every queued line in one ``write``."""
        if self.lines and not self.evicted:
            self.writer.write("".join(self.lines).encode("utf-8"))
            self.lines.clear()


class SchedulerService:
    """Serve a flow-based scheduler to concurrent TCP clients.

    Args:
        state: The cluster state to schedule (the service owns it; nothing
            else may mutate it while the service runs).
        scheduler: Any object with the round contract
            ``schedule(state, now) -> SchedulingDecision`` and
            ``apply(state, decision, now)`` (:class:`FirmamentScheduler`,
            :class:`ShardedScheduler`, or the baseline wrappers).
        config: Service tunables.
        durability: Optional write-ahead log + snapshot layer; ``None``
            (the default) keeps the PR 9 in-memory-only behaviour.
        recovered: Output of :func:`repro.service.durability.recover` to
            resume from.  ``state`` must be ``recovered.state``; the
            service continues ``recovered.ledger`` (conservation counters,
            first placements, idempotency keys) and its clock, so
            ``accepted == placed + pending + rejected`` holds across the
            crash boundary.
    """

    def __init__(
        self,
        state: ClusterState,
        scheduler,
        config: Optional[ServiceConfig] = None,
        durability: Optional[DurabilityLayer] = None,
        recovered: Optional[RecoveredState] = None,
    ) -> None:
        self.state = state
        self.scheduler = scheduler
        self.config = config or ServiceConfig()
        self.stats = ServiceStats()
        #: Written only by the appliers (and by a drain's voids).
        self.ledger = recovered.ledger if recovered is not None else Ledger()
        self._durability = durability
        self._recovered = recovered
        self._server: Optional[asyncio.AbstractServer] = None
        self._round_task: Optional[asyncio.Task] = None
        #: The idle round loop's wake-up, while it waits for one.
        self._waiter: Optional[asyncio.Future] = None
        self._inbox: Deque[Tuple[str, Any]] = deque()
        self._clients: Dict[int, _Client] = {}
        #: (client id, event) for everything the round in flight has caused
        #: so far; queued for the clients by :meth:`_release`.
        self._outbox: List[Tuple[int, Dict[str, Any]]] = []
        self._next_client_id = 1
        self._next_job_id = 1 + max(state.jobs, default=0)
        self._next_task_id = 1 + max(state.tasks, default=-1)
        self._next_machine_id = 1 + max(state.topology.machines, default=-1)
        self._machines_per_rack = self._infer_machines_per_rack()
        #: task_id -> owning client_id, for notification routing, from
        #: acceptance until the task completes (or is voided by a drain).
        #: Entries survive their client's eviction: the client is gone from
        #: ``_clients``, so its notifications are simply dropped.
        self._task_owner: Dict[int, int] = {}
        #: Idempotency key -> job for the keyed submissions still in the
        #: inbox; with the ledger's admitted keys, what the front door
        #: consults so a resubmission (same client retrying, or a
        #: reconnect after a crash) gets the original ack, not a second job.
        self._queued_keys: Dict[str, Job] = {}
        #: Whether the inbox holds a record that can change a decision by
        #: itself (anything but a completion); cleared by the drain.
        self._decision_queued = False
        #: Whether the last round changed the cluster (placed, moved,
        #: preempted or re-homed a task), so what it left pending deserves
        #: another round at once.  True at start: tasks a recovered state
        #: brings along have not been looked at yet.
        self._progressed = True
        self._draining = False
        self._stopped = asyncio.Event()
        self._t0 = time.monotonic()
        if recovered is not None:
            # Resume the service clock where the log ended, so recorded
            # times stay monotonic across the restart.
            self._t0 = time.monotonic() - recovered.clock
            if durability is not None:
                durability.resume_from(recovered)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def port(self) -> int:
        """The bound TCP port (valid after :meth:`start`)."""
        assert self._server is not None and self._server.sockets
        return self._server.sockets[0].getsockname()[1]

    def now(self) -> float:
        """Service time: seconds since start (the round clock)."""
        return time.monotonic() - self._t0

    async def start(self) -> None:
        """Bind the listener and start the round loop.

        With durability attached, a snapshot is written up front: a fresh
        start gets epoch 1 (so recovery always finds a snapshot), and a
        recovered start folds the replayed log tail into a new snapshot
        immediately instead of re-replaying it on the next crash.
        """
        if self._durability is not None:
            self._write_snapshot()
        if self._recovered is not None:
            # Completion timers died with the old process; re-arm them for
            # every recovered running task.  The full duration is used --
            # progress before the crash is not tracked, so a recovered
            # task runs its duration again from the restart (documented
            # conservative choice: slots stay conserved, finish is late).
            self._arm_completions(self.state.running_tasks())
        self._server = await asyncio.get_running_loop().create_server(
            lambda: _Client(self), self.config.host, self.config.port
        )
        self._round_task = asyncio.create_task(self._round_loop())

    async def stop(self) -> Dict[str, Any]:
        """Drain gracefully and return the final stats snapshot.

        New submissions are refused from the moment drain starts; queued
        submissions that were accepted but not yet admitted are voided as
        *rejected* (with a notification to their still-connected owners),
        so the conservation law holds exactly at shutdown.
        """
        self.request_drain()
        if self._round_task is not None:
            # Parked at an await, never mid-round: it runs no further
            # round, voids what is queued and drains.
            await self._round_task
        # Let every transport take the lines still queued for it; a paused
        # one has until its peer reads them, DRAIN_TIMEOUT_SECONDS at most.
        deadline = time.monotonic() + DRAIN_TIMEOUT_SECONDS
        while time.monotonic() < deadline and any(
            client.lines for client in self._clients.values()
        ):
            await asyncio.sleep(0.005)
        snapshot = self._stats_snapshot()
        for client in list(self._clients.values()):
            self._close_client(client)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        self._stopped.set()
        if self._durability is not None:
            # A graceful stop leaves a snapshot at the very tip of the
            # log, so the next start replays nothing.
            self._write_snapshot()
            self._durability.close()
        close = getattr(self.scheduler, "close", None)
        if callable(close):
            close()
        return snapshot

    def request_drain(self) -> None:
        """Begin the graceful drain :meth:`stop` completes: refuse new
        submissions; the round loop voids the queued ones and ends."""
        self._draining = True
        self._wake_loop()

    def _infer_machines_per_rack(self) -> int:
        racks = self.state.topology.racks
        if not racks:
            return 40
        return max(len(rack.machine_ids) for rack in racks.values())

    # ------------------------------------------------------------------ #
    # Client handling
    # ------------------------------------------------------------------ #
    def _handle_line(self, client: _Client, line: bytes) -> None:
        """One request line: decode, parse and dispatch it, or say why not."""
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError:
            self._hangup(client, "request is not valid UTF-8")
            return
        try:
            request = json.loads(text)
        except json.JSONDecodeError as error:
            # Malformed (or truncated) JSON on an intact line: recoverable,
            # the next line may be fine.
            self._notify(client.client_id, {
                "event": "error", "error": f"bad json: {error}",
            })
            return
        if not isinstance(request, dict):
            self._notify(client.client_id, {
                "event": "error", "error": "request must be a JSON object",
            })
            return
        try:
            self._dispatch(client, request)
        except Exception as error:
            # A handler bug must not silently kill the connection: the
            # client keeps it and learns why the request failed.
            self._notify(client.client_id, {
                "event": "error", "id": request.get("id"),
                "error": f"internal error: {error}",
            })

    def _dispatch(self, client: _Client, request: Dict[str, Any]) -> None:
        op = request.get("op")
        req_id = request.get("id")
        if op == "submit":
            self._handle_submit(client, request, req_id)
        elif op == "add_machine":
            self._handle_add_machine(client, request, req_id)
        elif op == "remove_machine":
            self._handle_remove_machine(client, request, req_id)
        elif op == "stats":
            payload = self._stats_snapshot()
            payload["event"] = "stats"
            payload["id"] = req_id
            self._notify(client.client_id, payload)
        elif op == "ledger":
            # Per-idempotency-key placement ledger, for the recovery
            # harness to compare a recovered service against its oracle.
            keys = {}
            for key in itertools.chain(self.ledger.idempotency, self._queued_keys):
                job = self._keyed_job(key)
                task_ids = [task.task_id for task in job.tasks]
                keys[key] = {
                    "job_id": job.job_id,
                    "task_ids": task_ids,
                    "placed": [t for t in task_ids if t in self.ledger.placed_ids],
                }
            self._notify(client.client_id, {
                "event": "ledger", "id": req_id, "keys": keys,
                "duplicates": self.stats.duplicates,
            })
        elif op == "shutdown":
            payload = self._stats_snapshot()
            payload["event"] = "ack"
            payload["id"] = req_id
            self._notify(client.client_id, payload)
            self.request_drain()
        else:
            self._notify(client.client_id, {
                "event": "error", "id": req_id, "error": f"unknown op: {op!r}",
            })

    def _handle_submit(
        self, client: _Client, request: Dict[str, Any], req_id: Any
    ) -> None:
        error = _submit_error(request)
        if error is not None:
            self._notify(client.client_id, {
                "event": "error", "id": req_id, "error": error,
            })
            return
        num_tasks = request.get("tasks", 1)
        key = request.get("key")
        known = None if key is None else self._keyed_job(key)
        if known is not None:
            # Duplicate submission (a retry, or a resubmit across a
            # crash): return the *original* ack so the client can resume
            # waiting on the surviving tasks; nothing is accepted twice.
            job_id, task_ids = known.job_id, [task.task_id for task in known.tasks]
            self.stats.duplicates += 1
            for task_id in task_ids:
                # Notifications for the job now route to the resubmitting
                # connection (the original owner is usually gone) -- for
                # the tasks that can still send one.
                task = self.state.tasks.get(task_id)
                if task is None or not task.is_finished:
                    self._task_owner[task_id] = client.client_id
            self._notify(client.client_id, {
                "event": "ack", "id": req_id, "job_id": job_id,
                "accepted": 0, "duplicate": True, "task_ids": task_ids,
                "placed_task_ids": [
                    t for t in task_ids if t in self.ledger.placed_ids
                ],
            })
            return
        if self._draining:
            self._notify(client.client_id, {
                "event": "ack", "id": req_id, "accepted": 0,
                "error": "draining",
            })
            return
        job_type = (
            JobType.SERVICE
            if request.get("job_type") == "service"
            else JobType.BATCH
        )
        duration = request.get("duration")
        if duration is not None:
            duration = float(duration)
        submit_time = self.now()
        job = Job(
            job_id=self._next_job_id,
            job_type=job_type,
            submit_time=submit_time,
            priority=request.get("priority", 0),
        )
        self._next_job_id += 1
        task_ids: List[int] = []
        for _ in range(num_tasks):
            task = Task(
                task_id=self._next_task_id,
                job_id=job.job_id,
                duration=duration,
                submit_time=submit_time,
                cpu_request=float(request.get("cpu", 1.0)),
                ram_request_gb=float(request.get("ram", 1.0)),
            )
            self._next_task_id += 1
            job.add_task(task)
            task_ids.append(task.task_id)
            self._task_owner[task.task_id] = client.client_id
        if key is not None:
            self._queued_keys[key] = job
        self._enqueue(SUBMIT, (key, job))
        self._notify(client.client_id, {
            "event": "ack", "id": req_id, "job_id": job.job_id,
            "accepted": num_tasks, "task_ids": task_ids,
        })

    def _handle_add_machine(
        self, client: _Client, request: Dict[str, Any], req_id: Any
    ) -> None:
        count = request.get("count", 1)
        if not isinstance(count, int) or count <= 0:
            self._notify(client.client_id, {
                "event": "error", "id": req_id,
                "error": "count must be a positive integer",
            })
            return
        template = next(iter(self.state.topology.machines.values()), None)
        machine_ids: List[int] = []
        for _ in range(count):
            machine_id = self._next_machine_id
            self._next_machine_id += 1
            machine = Machine(
                machine_id=machine_id,
                rack_id=machine_id // self._machines_per_rack,
                num_slots=template.num_slots if template else 4,
                cpu_cores=template.cpu_cores if template else 12,
                ram_gb=template.ram_gb if template else 64,
                network_bandwidth_mbps=(
                    template.network_bandwidth_mbps if template else 10_000
                ),
            )
            self._enqueue(ADD_MACHINE, machine)
            machine_ids.append(machine_id)
        self._notify(client.client_id, {
            "event": "ack", "id": req_id, "machine_ids": machine_ids,
        })

    def _handle_remove_machine(
        self, client: _Client, request: Dict[str, Any], req_id: Any
    ) -> None:
        machine_id = request.get("machine_id")
        if machine_id not in self.state.topology.machines:
            self._notify(client.client_id, {
                "event": "error", "id": req_id,
                "error": f"unknown machine: {machine_id!r}",
            })
            return
        self._enqueue(REMOVE_MACHINE, machine_id)
        self._notify(client.client_id, {
            "event": "ack", "id": req_id, "machine_id": machine_id,
        })

    # ------------------------------------------------------------------ #
    # Notification fan-out
    # ------------------------------------------------------------------ #
    def _notify(self, client_id: int, payload: Dict[str, Any]) -> None:
        """Queue an event's line for one client; evict the client if full.

        Dropping the whole client (instead of silently dropping events) is
        deliberate: a notification stream with holes is worse than a
        closed connection, because the client cannot tell a lost placement
        from a pending one.
        """
        client = self._clients.get(client_id)
        if client is None or client.evicted:
            return
        lines = client.lines
        if len(lines) >= self.config.client_queue_limit:
            self.stats.evicted_clients += 1
            self._close_client(client)
            return
        if not lines:
            asyncio.get_running_loop().call_soon(client.flush)
        lines.append(_encode(payload))

    def _emit(self, client_id: int, payload: Dict[str, Any]) -> None:
        """Hold an event the round in flight caused until its release."""
        self._outbox.append((client_id, payload))

    def _release(self) -> None:
        """The round's durability point: sync the log, then let go.

        Everything the round appended becomes durable with one sync (a
        no-op when ``log_round`` already issued it, or nothing was
        logged); only then are the held events queued for the clients.  A
        sync that raises leaves the outbox held and propagates.
        """
        if self._durability is not None:
            self._durability.sync()
        outbox, self._outbox = self._outbox, []
        for client_id, payload in outbox:
            self._notify(client_id, payload)

    def _hangup(self, client: _Client, reason: str) -> None:
        """Write what is queued and a reasoned error, then disconnect.

        Used when the *stream* is no longer trustworthy (oversized line,
        undecodable bytes); the reply goes out even if the transport has
        paused writing.
        """
        client.lines.append(_encode({"event": "error", "error": reason}))
        client.send()
        self._close_client(client)

    def _close_client(self, client: _Client) -> None:
        client.evicted = True
        self._clients.pop(client.client_id, None)
        try:
            client.writer.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # Round loop
    # ------------------------------------------------------------------ #
    def _enqueue(self, kind: str, payload: Any) -> None:
        """Queue an admission event and wake the round loop."""
        self._inbox.append((kind, payload))
        if kind != COMPLETE:
            self._decision_queued = True
        self._wake_loop()

    def _wake_loop(self) -> None:
        """End the idle round loop's wait, if it is waiting."""
        waiter = self._waiter
        if waiter is not None and not waiter.done():
            waiter.set_result(None)

    def _round_due(self) -> bool:
        """Whether something that can change a decision is waiting.

        A submission or machine event always can.  A completion can while
        tasks are pending (it frees a slot), and so can the pending tasks
        themselves right after a round that changed the cluster (a
        preemption or a cross-cell re-home set up the round that places
        them).  Anything else -- completions nobody waits on, tasks the
        last round just failed to place -- is deferred work.
        """
        if self._decision_queued:
            return True
        return bool(
            self.state.num_pending_tasks and (self._inbox or self._progressed)
        )

    async def _round_loop(self) -> None:
        # When deferred work must be looked at: ``round_interval`` after
        # the loop first found it waiting.
        look_by: Optional[float] = None
        while not self._draining:
            if not self._round_due():
                if not self._inbox and not self.state.num_pending_tasks:
                    # Idle: sleep until a request enqueues work (or drain).
                    look_by, delay = None, None
                else:
                    if look_by is None:
                        look_by = self.now() + self.config.round_interval
                    delay = look_by - self.now()
                if delay is None or delay > 0:
                    # Nothing runs between the checks above and this wait,
                    # so no wake-up can come before it.
                    loop = asyncio.get_running_loop()
                    self._waiter = loop.create_future()
                    timer = None if delay is None else loop.call_later(
                        delay, self._wake_loop
                    )
                    try:
                        await self._waiter
                    finally:
                        self._waiter = None
                        if timer is not None:
                            timer.cancel()
                    continue
            # The round's one yield, before its drain: queued lines are
            # written (what connections read in this turn is dispatched
            # after the drain).  Nothing awaits from here to the release,
            # and a drain begun during the yield voids the queue instead of
            # racing it into a round.
            look_by = None
            await asyncio.sleep(0)
            if self._draining:
                break
            await self._run_round()
        # Drain: accepted-but-unadmitted submissions are voided as
        # rejected; remaining machine/completion events still apply so the
        # final state is honest.  No further scheduling rounds run -- what
        # could not be placed before the drain stays pending, and the
        # conservation law accounts for it exactly.
        self._void_queued_submissions()
        self._drain_inbox(self.now())
        self._release()

    async def _run_round(self) -> None:
        """Admit the inbox; schedule and apply, inline, if tasks are pending."""
        busy_from = time.monotonic()
        self._drain_inbox(self.now())
        if self.state.num_pending_tasks:
            now = self.now()
            self.stats.solver_rounds += 1
            try:
                decision = self.scheduler.schedule(self.state, now)
            except Exception as error:  # solver died: degrade, carry on
                # An empty degraded round, logged like any other, so the
                # recovered ledger counts it too.
                self._apply_round(RoundRecord(now, degraded=True), now, apply_decision)
                self._progressed = False
                self._broadcast({
                    "event": "error",
                    "error": f"scheduling round failed: {error}",
                })
            else:
                self._apply_round(decision, now, self.scheduler.apply)
                solved = decision.solver_result
                self._progressed = bool(
                    decision.placements or decision.migrations or decision.preemptions
                    or (solved is not None and solved.statistics.cross_cell_migrations)
                )
        self._release()
        if self._durability is not None and self._durability.should_snapshot():
            # The snapshot blocks the loop for milliseconds: give the
            # writers one turn to send what was just released first.  Only
            # this loop starts rounds, so none runs in between, and the
            # ledger excludes what handlers queue meanwhile.
            await asyncio.sleep(0)
            self._write_snapshot()
        self.stats.round_busy_seconds += time.monotonic() - busy_from

    def _drain_inbox(self, now: float) -> None:
        """Admit every queued event: one ``admit`` record, then its applier.

        With durability attached, the whole batch is appended to the
        write-ahead log as one ``admit`` record *before* any of it mutates
        the state: a crash mid-drain replays the full batch from the log,
        a crash mid-append tears the record (detected by checksum and
        dropped) and the batch never happened -- either way no
        half-applied admission survives.  The record is synced with the
        rest of the round; the events the batch causes wait in the outbox
        until then.
        """
        if not self._inbox:
            return
        record = AdmitRecord(now, list(self._inbox))
        self._inbox.clear()
        self._queued_keys.clear()
        self._decision_queued = False
        self.stats.drains += 1
        self.stats.events_admitted += len(record.events)
        log = self._durability
        if log is not None and log.active:
            log.log_admission(record.to_payload())
        crash = None if log is None else log.crash
        self._hold(apply_admission(self.state, self.ledger, record, crash), now)

    def _void_queued_submissions(self) -> None:
        """Reject accepted-but-unadmitted submissions during drain.

        They never reached the log, so the ledger takes them as accepted
        and rejected at once; the drain's final snapshot makes that
        durable, and a crash before it loses both legs together.
        """
        kept: Deque[Tuple[str, Any]] = deque()
        while self._inbox:
            kind, payload = self._inbox.popleft()
            if kind != SUBMIT:
                kept.append((kind, payload))
                continue
            key, job = payload
            # The job never became durable: forget its key so a
            # resubmission after restart is accepted, not deduped into a
            # job that does not exist.
            self._queued_keys.pop(key, None)
            task_ids = [task.task_id for task in job.tasks]
            self.ledger.accepted += len(task_ids)
            self.ledger.rejected += len(task_ids)
            owner = self._task_owner.get(task_ids[0], -1) if task_ids else -1
            for task_id in task_ids:
                self._task_owner.pop(task_id, None)
            self._notify(owner, {
                "event": "rejected", "task_ids": task_ids, "reason": "drain",
            })
        self._inbox = kept

    def _apply_round(self, decision, now: float, apply) -> None:
        """Apply a round with the round applier, log it, hold its effects.

        The round's WAL record is appended -- and the round's records
        synced -- *after* the in-memory apply, so only a decision the state
        accepted is logged; the notifications go to the outbox, which the
        caller releases next.  A crash anywhere before the release loses
        at most effects no client was told about.
        """
        effects = apply_round(self.state, self.ledger, decision, now, apply)
        if self._durability is not None and self._durability.active:
            self._durability.log_round(RoundRecord.of(decision, now).to_payload())
        self._hold(effects, now)

    def _hold(self, effects: List[Effect], now: float) -> None:
        """An applier's effects as held notifications and completion timers."""
        started: List[Task] = []
        for kind, task_id in effects:
            task = self.state.tasks[task_id]
            if kind == COMPLETION:
                # The task's last notification: its owner entry goes.
                owner = self._task_owner.pop(task_id, -1)
            else:
                owner = self._task_owner.get(task_id, -1)
            if kind == PLACEMENT:
                self._emit(owner, {
                    "event": kind, "task_id": task_id, "job_id": task.job_id,
                    "machine_id": task.machine_id,
                    "latency": round(now - task.submit_time, 6),
                })
            elif kind != RESTART:
                self._emit(owner, {
                    "event": kind, "task_id": task_id, "job_id": task.job_id,
                })
            if kind in (PLACEMENT, RESTART):
                started.append(task)
        if started:
            self._arm_completions(started)

    def _arm_completions(self, tasks: Iterable[Task]) -> None:
        """Completion timers for ``tasks``: one per distinct duration, with
        its tasks' ``(task_id, start_time)`` in order (the applier's
        ``start_time`` guard drops a stale execution's)."""
        batches: Dict[float, List[Tuple[int, float]]] = {}
        for task in tasks:
            if task.duration is not None:
                batches.setdefault(task.duration, []).append(
                    (task.task_id, task.start_time)
                )
        loop = asyncio.get_running_loop()
        for duration, started in batches.items():
            loop.call_later(
                max(duration * self.config.time_scale, 0.0),
                self._enqueue_completions,
                started,
            )

    def _enqueue_completions(self, started: List[Tuple[int, float]]) -> None:
        """A timer fired: one ``complete`` record per task, one wake-up."""
        if self._stopped.is_set():
            return
        self._inbox.extend((COMPLETE, pair) for pair in started)
        self._wake_loop()

    def _enqueue_completion(self, task_id: int, start_time: float) -> None:
        self._enqueue_completions([(task_id, start_time)])

    def _broadcast(self, payload: Dict[str, Any]) -> None:
        for client_id in list(self._clients):
            self._notify(client_id, payload)

    # ------------------------------------------------------------------ #
    # Conservation
    # ------------------------------------------------------------------ #
    def _stats_snapshot(self) -> Dict[str, Any]:
        """The ``stats`` payload: the ledger, pacing and (durable) the log.

        ``accepted`` adds the queued submissions to the ledger's.
        ``pending`` is recomputed from reality (queued tasks plus live
        tasks with no first placement), before and after recovery alike.
        """
        ledger, stats = self.ledger, self.stats
        queued = sum(
            len(payload[1].tasks) for kind, payload in self._inbox if kind == SUBMIT
        )
        accepted = ledger.accepted + queued
        # Live tasks only: a completed task was placed first, so it could
        # never count here, and ``state.tasks`` keeps all of history.
        pending = queued + sum(
            1 for task in self.state.live_tasks()
            if task.task_id not in ledger.placed_ids
        )
        payload = {
            "accepted": accepted,
            "placed": ledger.placed,
            "pending": pending,
            "rejected": ledger.rejected,
            "conserved": accepted == ledger.placed + pending + ledger.rejected,
            "rounds": ledger.rounds,
            "degraded_rounds": ledger.degraded_rounds,
            "preemptions": ledger.preemptions,
            "completions": ledger.completions,
            "evicted_clients": stats.evicted_clients,
            "solver_rounds": stats.solver_rounds,
            "drains": stats.drains,
            "events_admitted": stats.events_admitted,
            "round_busy_seconds": round(stats.round_busy_seconds, 6),
        }
        log = self._durability
        if log is not None:
            payload["wal_records"] = log.records_appended
            payload["wal_syncs"] = log.syncs
            payload["wal_bytes"] = log.bytes_appended
            payload["wal_snapshots"] = log.snapshots_written
            payload["wal_snapshot_bytes"] = log.last_snapshot_bytes
            payload["wal_snapshot_seconds"] = round(log.snapshot_seconds, 6)
        return payload

    def _keyed_job(self, key: str) -> Optional[Job]:
        """The job an idempotency key names: admitted, or still queued."""
        job_id = self.ledger.idempotency.get(key)
        return self._queued_keys.get(key) if job_id is None else self.state.jobs[job_id]

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #
    def _write_snapshot(self) -> None:
        # The ledger holds what the log admitted, never the inbox: after a
        # crash, queued submissions are exactly what clients resubmit.
        self._durability.write_snapshot(self.state, self.ledger, clock=self.now())
