"""Async scheduler service: coalesced admission, round loop, notifications.

Architecture
------------

Everything runs on one asyncio event loop except the solver:

* **Client handlers** parse JSON-lines requests.  They never mutate the
  cluster state directly -- a submission is validated, acked, and appended
  to the service *inbox* (a plain deque of admission records).  This is
  what makes concurrent clients safe without locks: the handlers and the
  round loop interleave only at await points, and the state is touched by
  exactly one of them (the round loop, between solver runs).
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
  runs no rounds.  The round drains the inbox, turning every queued record
  into ordinary :class:`ClusterState` mutations (``submit_job``,
  ``add_machine``, ``fail_machine``, ``complete_task``).  The state's
  :class:`~repro.cluster.state.DirtyTracker` picks the mutations up exactly
  as it does under the simulator, so the scheduler's incremental path keeps
  its O(|changes|) admission cost.  If tasks are pending the solver then
  runs in a worker thread (``run_in_executor``) so the loop stays
  responsive; because all mutation goes through the inbox, nothing touches
  the state while the solver reads it.
* **Notifications** fan out through per-client bounded queues drained by a
  writer task that hands the socket everything queued for its client in
  one ``write`` per wake-up and honours TCP backpressure (``await
  writer.drain()``).  A client that stops reading eventually fills its
  queue and is evicted -- one slow consumer cannot stall the round loop or
  other clients.  The events a round *causes* (completions, preemptions,
  placements) are held in a per-round outbox and enter those queues only
  at the round's release point, in the order the round produced them;
  acks, ``stats``, ``ledger`` and error replies are queued at once.

Conservation law
----------------

Every task a client submits is *accepted* (acked and queued) or refused at
the front door.  From then on the service guarantees, at every stats
snapshot and at final drain::

    accepted == placed + pending + rejected

where *placed* counts tasks that received their first placement, *pending*
counts accepted tasks still waiting (queued in the inbox or unplaced in
the state), and *rejected* counts accepted tasks voided by a drain before
admission.  ``stats`` recomputes the right-hand side from the actual
cluster state and reports ``conserved`` so clients (and the SLO benchmark)
can verify the law end to end, mirroring the simulator's
``verify_placement_conservation``.

Durability (optional)
---------------------

With a :class:`~repro.service.durability.DurabilityLayer` attached, the
conservation law survives ``kill -9`` and power loss under one rule:
*appended before effects, synced before release*.  Every inbox drain
appends one ``admit`` record before the batch mutates the state and every
applied round appends one ``round`` record right after the in-memory
apply; neither append waits for the disk.  The round's single ``fsync``
covers both (group commit), and **release** -- the one point per round
where the outbox is handed to the client queues -- comes only after it
has returned, so no client ever hears of an effect a crash could take
back.  A sync that fails releases nothing and ends the round loop with
the error.  A service without a state directory takes the same outbox →
release route with nothing to sync.  Snapshots rotate the log and are
taken after the release, once the writers have had a loop turn.
Submissions carry optional client-supplied idempotency ``key``s; a
duplicate key gets the original ack back (``duplicate: true``) instead of
a second job, which is what lets clients blindly resubmit across a crash.
The ``stats`` counters are in-memory readings and may run one in-flight
round ahead of the disk (a completion is counted when its batch is
applied, before the solve the round then awaits); the ``ledger`` op never
does, because apply → append → sync has no await point.  With a state
directory ``stats`` also carries what the log did: ``wal_records``,
``wal_syncs``, ``wal_bytes``, ``wal_snapshots``.

Protocol (JSON lines, UTF-8, one object per line)
-------------------------------------------------

Requests::

    {"op": "submit", "tasks": N, "duration": 5.0, "job_type": "batch",
     "cpu": 1.0, "ram": 1.0, "id": <echoed>}
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
import json
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.cluster.machine import Machine
from repro.cluster.state import ClusterState
from repro.cluster.task import Job, JobType, Task
from repro.service.durability import (
    DurabilityLayer,
    RecoveredState,
    admit_payload,
    new_ledger,
    round_payload,
    snapshot_cluster_state,
)

__all__ = ["SchedulerService", "ServiceConfig", "ServiceStats"]


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
        drain_timeout: Seconds :meth:`SchedulerService.stop` waits for the
            in-flight round and the notification queues to flush.
        max_request_bytes: Upper bound on one JSON-lines request.  A
            client sending a longer line (or undecodable bytes) gets an
            ``error`` reply and is disconnected -- the reader never
            buffers unboundedly on behalf of a hostile or broken peer.
    """

    host: str = "127.0.0.1"
    port: int = 0
    round_interval: float = 0.05
    client_queue_limit: int = 1024
    time_scale: float = 1.0
    drain_timeout: float = 10.0
    max_request_bytes: int = 1 << 20


@dataclass
class ServiceStats:
    """Conservation counters plus round observability."""

    accepted: int = 0
    placed: int = 0
    rejected: int = 0
    rounds: int = 0
    degraded_rounds: int = 0
    preemptions: int = 0
    completions: int = 0
    evicted_clients: int = 0
    #: Pacing: rounds that ran the solver, inbox drains that had records to
    #: apply and how many, and wall seconds spent inside rounds (drain to
    #: apply) -- rounds/s, events/round and the busy ratio follow.
    solver_rounds: int = 0
    drains: int = 0
    events_admitted: int = 0
    round_busy_seconds: float = 0.0

    def pending(self) -> int:
        """Accepted tasks not yet placed nor voided (the derived leg)."""
        return self.accepted - self.placed - self.rejected

    def snapshot(self, pending_actual: int) -> Dict[str, Any]:
        """Stats payload with the conservation law checked against reality.

        Args:
            pending_actual: Pending count recomputed from the inbox and the
                cluster state, independently of the incremental counters.
        """
        return {
            "accepted": self.accepted,
            "placed": self.placed,
            "pending": pending_actual,
            "rejected": self.rejected,
            "conserved": self.accepted
            == self.placed + pending_actual + self.rejected,
            "rounds": self.rounds,
            "degraded_rounds": self.degraded_rounds,
            "preemptions": self.preemptions,
            "completions": self.completions,
            "evicted_clients": self.evicted_clients,
            "solver_rounds": self.solver_rounds,
            "drains": self.drains,
            "events_admitted": self.events_admitted,
            "round_busy_seconds": round(self.round_busy_seconds, 6),
        }


@dataclass
class _Client:
    """Connection-scoped notification plumbing."""

    client_id: int
    writer: asyncio.StreamWriter
    queue: asyncio.Queue = field(default_factory=asyncio.Queue)
    writer_task: Optional[asyncio.Task] = None
    evicted: bool = False


#: Inbox record kinds, applied in arrival order at the round boundary.
_SUBMIT, _ADD_MACHINE, _REMOVE_MACHINE, _COMPLETE = (
    "submit", "add_machine", "remove_machine", "complete",
)


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
            ledger reseeds the conservation counters, the idempotency
            map, and the service clock, so ``accepted == placed +
            pending + rejected`` holds across the crash boundary.
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
        self._durability = durability
        self._recovered = recovered
        self._server: Optional[asyncio.AbstractServer] = None
        self._round_task: Optional[asyncio.Task] = None
        self._wake = asyncio.Event()
        self._inbox: Deque[Tuple[str, Any]] = deque()
        self._clients: Dict[int, _Client] = {}
        #: (client id, event) for everything the round in flight has caused
        #: so far; handed to the client queues by :meth:`_release`.
        self._outbox: List[Tuple[int, Dict[str, Any]]] = []
        self._handler_tasks: Set[asyncio.Task] = set()
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
        #: Tasks that have received their first placement (so re-placements
        #: after preemption are not double counted).
        self._placed_ids: Set[int] = set()
        #: Idempotency key -> (job_id, task_ids) for every accepted
        #: submission that carried a key; consulted at the front door so a
        #: resubmission (same client retrying, or a reconnect after a
        #: crash) gets the original ack instead of a second job.
        self._idempotency: Dict[str, Tuple[int, List[int]]] = {}
        self._duplicates = 0
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
            ledger = recovered.ledger
            self.stats.accepted = ledger["accepted"]
            self.stats.placed = ledger["placed"]
            self.stats.rejected = ledger["rejected"]
            self.stats.rounds = ledger["rounds"]
            self.stats.degraded_rounds = ledger["degraded_rounds"]
            self.stats.preemptions = ledger["preemptions"]
            self.stats.completions = ledger["completions"]
            self._duplicates = ledger["duplicates"]
            self._placed_ids = set(ledger["placed_ids"])
            for key, job_id in ledger["idempotency"].items():
                job = state.jobs.get(job_id)
                if job is not None:
                    self._idempotency[key] = (
                        job_id, [task.task_id for task in job.tasks]
                    )
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
            loop = asyncio.get_running_loop()
            for task in self.state.running_tasks():
                if task.duration is not None:
                    loop.call_later(
                        max(task.duration * self.config.time_scale, 0.0),
                        self._enqueue_completion,
                        task.task_id,
                        task.start_time,
                    )
        self._server = await asyncio.start_server(
            self._handle_client,
            self.config.host,
            self.config.port,
            limit=self.config.max_request_bytes,
        )
        self._round_task = asyncio.create_task(self._round_loop())

    async def stop(self) -> Dict[str, Any]:
        """Drain gracefully and return the final stats snapshot.

        New submissions are refused from the moment drain starts; queued
        submissions that were accepted but not yet admitted are voided as
        *rejected* (with a notification to their still-connected owners),
        so the conservation law holds exactly at shutdown.
        """
        self._draining = True
        self._wake.set()
        if self._round_task is not None:
            try:
                await asyncio.wait_for(
                    self._round_task, timeout=self.config.drain_timeout
                )
            except asyncio.TimeoutError:
                self._round_task.cancel()
        # Flush what the notification queues still hold.
        for client in list(self._clients.values()):
            try:
                await asyncio.wait_for(
                    client.queue.join(), timeout=self.config.drain_timeout
                )
            except asyncio.TimeoutError:
                pass
        snapshot = self._stats_snapshot()
        for client in list(self._clients.values()):
            self._close_client(client)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Reap the per-connection reader tasks so no cancelled coroutine
        # outlives the service into the event loop's teardown.
        for task in list(self._handler_tasks):
            task.cancel()
        if self._handler_tasks:
            await asyncio.gather(*self._handler_tasks, return_exceptions=True)
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

    def _infer_machines_per_rack(self) -> int:
        racks = self.state.topology.racks
        if not racks:
            return 40
        return max(len(rack.machine_ids) for rack in racks.values())

    # ------------------------------------------------------------------ #
    # Client handling
    # ------------------------------------------------------------------ #
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        client = _Client(self._next_client_id, writer)
        self._next_client_id += 1
        self._clients[client.client_id] = client
        self._handler_tasks.add(asyncio.current_task())
        client.writer_task = asyncio.create_task(self._client_writer(client))
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # The stream limit tripped: the peer sent a line
                    # longer than max_request_bytes.  Reply and hang up --
                    # resynchronising inside an oversized line is
                    # guesswork, and buffering it is the attack.
                    self._hangup(client, "request line too long")
                    break
                if not line:
                    break
                try:
                    text = line.decode("utf-8")
                except UnicodeDecodeError:
                    self._hangup(client, "request is not valid UTF-8")
                    break
                try:
                    request = json.loads(text)
                except json.JSONDecodeError as error:
                    # Malformed (or truncated) JSON on an intact line:
                    # recoverable, the next line may be fine.
                    self._notify(client.client_id, {
                        "event": "error", "error": f"bad json: {error}",
                    })
                    continue
                if not isinstance(request, dict):
                    self._notify(client.client_id, {
                        "event": "error",
                        "error": "request must be a JSON object",
                    })
                    continue
                try:
                    self._dispatch(client, request)
                except Exception as error:
                    # A handler bug must not silently kill the reader
                    # task: the client keeps its connection and learns why
                    # the request failed.
                    self._notify(client.client_id, {
                        "event": "error", "id": request.get("id"),
                        "error": f"internal error: {error}",
                    })
        except (ConnectionResetError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Service teardown cancels reader tasks mid-readline.  Absorb
            # the cancellation so the streams protocol's done-callback
            # (which calls task.exception()) does not re-raise it into the
            # event loop's exception handler.
            pass
        finally:
            # The client hung up: stop writing to it, but keep its
            # submitted tasks -- jobs outlive their submitter's connection.
            self._handler_tasks.discard(asyncio.current_task())
            if not client.evicted:
                self._close_client(client)

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
            keys = {
                key: {
                    "job_id": job_id,
                    "task_ids": task_ids,
                    "placed": [t for t in task_ids if t in self._placed_ids],
                }
                for key, (job_id, task_ids) in self._idempotency.items()
            }
            self._notify(client.client_id, {
                "event": "ledger", "id": req_id, "keys": keys,
                "duplicates": self._duplicates,
            })
        elif op == "shutdown":
            payload = self._stats_snapshot()
            payload["event"] = "ack"
            payload["id"] = req_id
            self._notify(client.client_id, payload)
            self._draining = True
            self._wake.set()
        else:
            self._notify(client.client_id, {
                "event": "error", "id": req_id, "error": f"unknown op: {op!r}",
            })

    def _handle_submit(
        self, client: _Client, request: Dict[str, Any], req_id: Any
    ) -> None:
        num_tasks = request.get("tasks", 1)
        if not isinstance(num_tasks, int) or num_tasks <= 0:
            self._notify(client.client_id, {
                "event": "error", "id": req_id,
                "error": "tasks must be a positive integer",
            })
            return
        key = request.get("key")
        if key is not None and not isinstance(key, str):
            self._notify(client.client_id, {
                "event": "error", "id": req_id,
                "error": "key must be a string",
            })
            return
        if key is not None and key in self._idempotency:
            # Duplicate submission (a retry, or a resubmit across a
            # crash): return the *original* ack so the client can resume
            # waiting on the surviving tasks; nothing is accepted twice.
            job_id, task_ids = self._idempotency[key]
            self._duplicates += 1
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
                    t for t in task_ids if t in self._placed_ids
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
            priority=int(request.get("priority", 0)),
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
        self.stats.accepted += num_tasks
        if key is not None:
            self._idempotency[key] = (job.job_id, list(task_ids))
        self._enqueue(_SUBMIT, (key, job))
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
            self._enqueue(_ADD_MACHINE, machine)
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
        self._enqueue(_REMOVE_MACHINE, machine_id)
        self._notify(client.client_id, {
            "event": "ack", "id": req_id, "machine_id": machine_id,
        })

    # ------------------------------------------------------------------ #
    # Notification fan-out
    # ------------------------------------------------------------------ #
    def _notify(self, client_id: int, payload: Dict[str, Any]) -> None:
        """Queue an event for one client; evict the client if it is full.

        Dropping the whole client (instead of silently dropping events) is
        deliberate: a notification stream with holes is worse than a
        closed connection, because the client cannot tell a lost placement
        from a pending one.
        """
        client = self._clients.get(client_id)
        if client is None or client.evicted:
            return
        if client.queue.qsize() >= self.config.client_queue_limit:
            self.stats.evicted_clients += 1
            self._close_client(client)
            return
        client.queue.put_nowait(payload)

    def _emit(self, client_id: int, payload: Dict[str, Any]) -> None:
        """Hold an event the round in flight caused until its release."""
        self._outbox.append((client_id, payload))

    def _release(self) -> None:
        """The round's durability point: sync the log, then let go.

        Everything the round appended becomes durable with one sync (a
        no-op when ``log_round`` already issued it, or nothing was
        logged); only then do the held events enter the client queues.  A
        sync that raises leaves the outbox held and propagates.
        """
        if self._durability is not None:
            self._durability.sync()
        outbox, self._outbox = self._outbox, []
        for client_id, payload in outbox:
            self._notify(client_id, payload)

    async def _client_writer(self, client: _Client) -> None:
        """Drain one client's queue into its socket with backpressure.

        Everything queued at a wake-up goes out in one ``write`` (a round's
        placements for one client are one socket send, not one each);
        ``client_queue_limit`` still counts the events waiting here.
        """
        queue = client.queue
        try:
            while True:
                payloads = [await queue.get()]
                while not queue.empty():
                    payloads.append(queue.get_nowait())
                try:
                    client.writer.write("".join(
                        json.dumps(payload) + "\n" for payload in payloads
                    ).encode("utf-8"))
                    await client.writer.drain()
                finally:
                    for _ in payloads:
                        queue.task_done()
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass

    def _hangup(self, client: _Client, reason: str) -> None:
        """Best-effort error reply written directly before disconnecting.

        Used when the *stream* is no longer trustworthy (oversized line,
        undecodable bytes) -- the notification queue may never flush once
        the reader breaks out, so the reply bypasses it.
        """
        try:
            client.writer.write(
                json.dumps({"event": "error", "error": reason}).encode("utf-8")
                + b"\n"
            )
        except Exception:
            pass

    def _close_client(self, client: _Client) -> None:
        client.evicted = True
        self._clients.pop(client.client_id, None)
        if client.writer_task is not None:
            client.writer_task.cancel()
        try:
            client.writer.close()
        except Exception:
            pass

    # ------------------------------------------------------------------ #
    # Round loop
    # ------------------------------------------------------------------ #
    def _enqueue(self, kind: str, payload: Any) -> None:
        """Queue an admission record and wake the round loop."""
        self._inbox.append((kind, payload))
        if kind != _COMPLETE:
            self._decision_queued = True
        self._wake.set()

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
                    # Idle: sleep until a handler enqueues work (or drain).
                    look_by, delay = None, None
                else:
                    if look_by is None:
                        look_by = self.now() + self.config.round_interval
                    delay = look_by - self.now()
                if delay is None or delay > 0:
                    # Nothing runs between the checks above and this wait,
                    # so clearing here cannot lose a wake-up.
                    self._wake.clear()
                    try:
                        await asyncio.wait_for(self._wake.wait(), delay)
                    except asyncio.TimeoutError:
                        pass
                    continue
            # No await between the drain check at the top of the loop and
            # the round's inbox drain, so a concurrently starting drain
            # cannot race submissions past the front door: they are either
            # admitted by this round or voided below.
            look_by = None
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
        """Admit the inbox; schedule and apply if tasks are pending."""
        busy_from = time.monotonic()
        self._drain_inbox(self.now())
        if self.state.num_pending_tasks:
            now = self.now()
            self.stats.solver_rounds += 1
            try:
                decision = await asyncio.get_running_loop().run_in_executor(
                    None, self.scheduler.schedule, self.state, now
                )
            except Exception as error:  # solver died: degrade, carry on
                self.stats.rounds += 1
                self.stats.degraded_rounds += 1
                self._progressed = False
                self._broadcast({
                    "event": "error",
                    "error": f"scheduling round failed: {error}",
                })
            else:
                self._apply_round(decision, now)
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
        """Apply every queued admission record as state mutations.

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
        batch = list(self._inbox)
        self._inbox.clear()
        self._decision_queued = False
        self.stats.drains += 1
        self.stats.events_admitted += len(batch)
        if self._durability is not None and self._durability.active:
            self._durability.log_admission(admit_payload(
                submissions=[p for k, p in batch if k == _SUBMIT],
                machines_added=[p for k, p in batch if k == _ADD_MACHINE],
                machines_removed=[p for k, p in batch if k == _REMOVE_MACHINE],
                completions=[p for k, p in batch if k == _COMPLETE],
                now=now,
            ))
        for kind, payload in batch:
            if self._durability is not None:
                self._durability.crash_point("mid_drain")
            if kind == _SUBMIT:
                _key, job = payload
                self.state.submit_job(job)
            elif kind == _ADD_MACHINE:
                self.state.add_machine(payload)
            elif kind == _REMOVE_MACHINE:
                evicted = self.state.fail_machine(payload, now)
                for task_id in evicted:
                    self.stats.preemptions += 1
                    task = self.state.tasks[task_id]
                    self._emit(self._task_owner.get(task_id, -1), {
                        "event": "preemption", "task_id": task_id,
                        "job_id": task.job_id,
                    })
            elif kind == _COMPLETE:
                task_id, start_time = payload
                task = self.state.tasks.get(task_id)
                # Stale-completion guard: the timer that fired belongs to
                # this execution only if the task still runs from the same
                # start.  Preempted/migrated tasks re-arm on re-placement.
                if (
                    task is not None
                    and task.is_running
                    and task.start_time == start_time
                ):
                    self.state.complete_task(task_id, now)
                    self.stats.completions += 1
                    # The task's last notification: its owner entry goes.
                    self._emit(self._task_owner.pop(task_id, -1), {
                        "event": "completion", "task_id": task_id,
                        "job_id": task.job_id,
                    })

    def _void_queued_submissions(self) -> None:
        """Reject accepted-but-unadmitted submissions during drain."""
        kept: Deque[Tuple[str, Any]] = deque()
        while self._inbox:
            kind, payload = self._inbox.popleft()
            if kind != _SUBMIT:
                kept.append((kind, payload))
                continue
            key, job = payload
            if key is not None:
                # The job never became durable: forget its key so a
                # resubmission after restart is accepted, not deduped
                # into a job that does not exist.
                self._idempotency.pop(key, None)
            task_ids = [task.task_id for task in job.tasks]
            self.stats.rejected += len(task_ids)
            owner = self._task_owner.get(task_ids[0], -1) if task_ids else -1
            for task_id in task_ids:
                self._task_owner.pop(task_id, None)
            self._notify(owner, {
                "event": "rejected", "task_ids": task_ids, "reason": "drain",
            })
        self._inbox = kept

    def _apply_round(self, decision, now: float) -> None:
        """Apply a decision, arm completion timers, hold its notifications.

        The round's WAL record is appended -- and the round's records
        synced -- *after* the in-memory apply; the notifications go to the
        outbox, which the caller releases next.  A crash anywhere before
        the release loses at most effects no client was told about.
        """
        loop = asyncio.get_running_loop()
        self.scheduler.apply(self.state, decision, now)
        if self._durability is not None and self._durability.active:
            self._durability.log_round(round_payload(decision, now))
        self.stats.rounds += 1
        if decision.degraded:
            self.stats.degraded_rounds += 1
        solved = decision.solver_result
        self._progressed = bool(
            decision.placements or decision.migrations or decision.preemptions
            or (solved is not None and solved.statistics.cross_cell_migrations)
        )
        for task_id in decision.preemptions:
            self.stats.preemptions += 1
            task = self.state.tasks[task_id]
            self._emit(self._task_owner.get(task_id, -1), {
                "event": "preemption", "task_id": task_id,
                "job_id": task.job_id,
            })
        started = list(decision.placements.items()) + list(
            decision.migrations.items()
        )
        for task_id, machine_id in started:
            task = self.state.tasks[task_id]
            if task_id not in self._placed_ids:
                self._placed_ids.add(task_id)
                self.stats.placed += 1
                self._emit(self._task_owner.get(task_id, -1), {
                    "event": "placement", "task_id": task_id,
                    "job_id": task.job_id, "machine_id": machine_id,
                    "latency": round(now - task.submit_time, 6),
                })
            if task.duration is not None:
                # Completion timer for this execution; a stale timer from a
                # previous execution is neutralised by the start_time guard.
                loop.call_later(
                    max(task.duration * self.config.time_scale, 0.0),
                    self._enqueue_completion,
                    task_id,
                    task.start_time,
                )

    def _enqueue_completion(self, task_id: int, start_time: float) -> None:
        if self._stopped.is_set():
            return
        self._enqueue(_COMPLETE, (task_id, start_time))

    def _broadcast(self, payload: Dict[str, Any]) -> None:
        for client_id in list(self._clients):
            self._notify(client_id, payload)

    # ------------------------------------------------------------------ #
    # Conservation
    # ------------------------------------------------------------------ #
    def _stats_snapshot(self) -> Dict[str, Any]:
        """The ``stats`` payload: the ledger, pacing and (durable) the log."""
        payload = self.stats.snapshot(self._pending_actual())
        log = self._durability
        if log is not None:
            payload["wal_records"] = log.records_appended
            payload["wal_syncs"] = log.syncs
            payload["wal_bytes"] = log.bytes_appended
            payload["wal_snapshots"] = log.snapshots_written
        return payload

    def _pending_actual(self) -> int:
        """Recompute pending from reality (inbox + unplaced state tasks).

        Derived from the cluster state rather than the per-connection
        owner map: owners do not survive a crash, but every accepted task
        that reached the state and never got its first placement is by
        definition still pending, before and after recovery alike.
        """
        queued = sum(
            len(payload[1].tasks)
            for kind, payload in self._inbox
            if kind == _SUBMIT
        )
        # Live tasks only: a completed task was placed first, so it could
        # never count here, and ``state.tasks`` keeps all of history.
        unplaced = sum(
            1
            for task in self.state.live_tasks()
            if task.task_id not in self._placed_ids
        )
        return queued + unplaced

    # ------------------------------------------------------------------ #
    # Durability
    # ------------------------------------------------------------------ #
    def _build_ledger(self) -> Dict[str, Any]:
        """The durable half of the counters, as of the last WAL record.

        Submissions still queued in the inbox were acked but not yet
        logged, so they are excluded from the durable ``accepted`` leg
        (and their idempotency keys from the durable map): after a crash
        they are exactly the work clients must resubmit.
        """
        queued = sum(
            len(payload[1].tasks)
            for kind, payload in self._inbox
            if kind == _SUBMIT
        )
        ledger = new_ledger()
        ledger["accepted"] = self.stats.accepted - queued
        ledger["placed"] = self.stats.placed
        ledger["rejected"] = self.stats.rejected
        ledger["preemptions"] = self.stats.preemptions
        ledger["completions"] = self.stats.completions
        ledger["rounds"] = self.stats.rounds
        ledger["degraded_rounds"] = self.stats.degraded_rounds
        ledger["duplicates"] = self._duplicates
        ledger["placed_ids"] = set(self._placed_ids)
        ledger["idempotency"] = {
            key: job_id
            for key, (job_id, _task_ids) in self._idempotency.items()
            if job_id in self.state.jobs
        }
        return ledger

    def _write_snapshot(self) -> None:
        self._durability.write_snapshot(
            snapshot_cluster_state(self.state),
            self._build_ledger(),
            clock=self.now(),
        )
