"""Open-loop load generator for the ``serve`` JSON-lines protocol.

``repro.service.loadgen`` is a closed loop (a client submits its next job
only after the previous one is placed) that reports the latency the
*server* stamps at the round boundary.  This one models independent
submitters: the whole request schedule is computed from the seed before
the run, every request goes out at its due time whatever the server is
doing, and a placement is timed by the client, from the moment the
request was *due* to the moment the task's ``placement`` event was read
off the socket -- so a generator stall, the WAL append, the JSON fan-out
and the socket are all inside the number.

Latencies are then read on the *unstolen* clock: the time the hypervisor
withheld from this VM while the task waited (``steal`` in ``/proc/stat``,
sampled by :class:`HostSteal` every 10 ms) is subtracted, so a noisy
neighbour does not read as a slow scheduler.  README.md has the A/A runs
that made this necessary.

One process, one thread: a ``selectors`` loop over ``min(2, nproc)``
pipelined connections.  Requests carry ids, acks map ids to task ids, and
every task is accounted for exactly (accepted / placed once / missing /
duplicate).
"""

from __future__ import annotations

import bisect
import json
import os
import random
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: The measured window is cut into slices of (at least) this length, see
#: ``estimators``: long enough to hold a job of every connection and one
#: machine-churn pair, short enough that a neighbour's burst of a second or
#: two spoils few of them.
SLICE_SECONDS = 1.0
#: Seconds between ``stats`` polls during the stream.
STATS_EVERY = 5.0
#: cpu / ram requests a seed picks from, per job.
_SIZES = (0.5, 1.0, 2.0)


@dataclass(frozen=True)
class Workload:
    """One frozen traffic mix (see the README for why each exists)."""

    name: str
    machines: int
    slots: int
    cells: int
    durable: bool
    prefill: int
    jobs_per_s: float
    tasks_per_job: int
    task_seconds: float
    #: One ``remove_machine`` + ``add_machine`` pair per second.
    churn: bool = False


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("steady_small", 128, 4, 0, False, 128, 16.0, 4, 2.0),
        Workload("burst_large", 128, 4, 0, False, 256, 9.0, 16, 0.5),
        Workload("durable_steady", 128, 4, 0, True, 128, 16.0, 4, 2.0),
        Workload("sharded_churn", 512, 4, 4, False, 512, 24.0, 8, 2.0, True),
    )
}


@dataclass
class Request:
    """One scheduled protocol request."""

    request_id: int
    due: float  #: Seconds after the stream origin.
    conn: int
    kind: str  #: ``submit``, ``remove_machine``, ``add_machine``, ``stats``.
    line: bytes
    tasks: int = 0


def make_request(request_id: int, due: float, conn: int, kind: str,
             **fields: Any) -> Request:
    """Build one protocol request; ``fields`` go into the JSON body."""
    body = {"op": kind, "id": request_id, **fields}
    return Request(request_id, due, conn, kind,
                   json.dumps(body).encode("utf-8") + b"\n",
                   fields.get("tasks", 0))


def prefill_request(workload: Workload) -> Request:
    """The set-up job: never-ending service tasks, request id 0."""
    return make_request(0, 0.0, 0, "submit", tasks=workload.prefill,
                    job_type="service")


def slice_count(seconds: float) -> int:
    """Number of equal slices a window of ``seconds`` is cut into."""
    return max(1, int(seconds / SLICE_SECONDS))


def build_schedule(
    workload: Workload, seed: int, warmup: float, seconds: float,
    connections: int,
) -> List[Request]:
    """The seeded request stream: warm-up, then the measured window.

    Job arrivals are a Poisson process conditioned on its count: the
    warm-up and every slice of the window get a fixed number of jobs
    (``rate * length``, rounded) at independent uniform times.  Fixing the
    count keeps the offered rate -- and the samples per slice -- the same
    for every seed, so a seed changes *when* work arrives, never how much.
    The server sees only these requests, never the seed.
    """
    rng = random.Random(seed)
    arrivals: List[float] = []
    slices = slice_count(seconds)
    spans = [(0.0, warmup)] + [
        (warmup + index * seconds / slices, seconds / slices)
        for index in range(slices)
    ]
    for start, length in spans:
        count = round(workload.jobs_per_s * length)
        arrivals.extend(start + rng.random() * length for _ in range(count))
    arrivals.sort()

    events: List[tuple] = [
        (due, "submit", {
            "tasks": workload.tasks_per_job,
            "duration": workload.task_seconds,
            "cpu": rng.choice(_SIZES),
            "ram": rng.choice(_SIZES),
        })
        for due in arrivals
    ]
    total = warmup + seconds
    if workload.churn:
        whole = int(total)
        victims = rng.sample(range(workload.machines), whole)
        for second, machine_id in enumerate(victims):
            leave = second + 0.5 * rng.random()
            events.append((leave, "remove_machine", {"machine_id": machine_id}))
            events.append((leave + 0.5, "add_machine", {"count": 1}))
    poll = STATS_EVERY
    while poll < total:
        events.append((poll, "stats", {}))
        poll += STATS_EVERY
    events.sort(key=lambda event: event[0])

    schedule: List[Request] = []
    submits = 0
    for index, (due, kind, fields) in enumerate(events, start=1):
        conn = 0
        if kind == "submit":
            conn = submits % connections
            submits += 1
        schedule.append(make_request(index, due, conn, kind, **fields))
    return schedule


class HostSteal:
    """Running total of the time the hypervisor withheld from this VM.

    ``/proc/stat`` counts, per virtual CPU, the ticks during which the CPU
    had work to run but the host ran something else.  On the shared
    two-core hosts this benchmark runs on that share drifts between 0 and
    25 % of a core over minutes and moves every wall-clock latency with
    it (README.md).  The generator samples the counters every
    :attr:`PERIOD`; :meth:`between` then gives the stolen seconds inside
    any interval.  On a host that reports no steal every interval reads 0.

    A task's path -- generator, server loop, solver thread -- is in one
    place at a time, and a CPU only accrues steal while it has work.  So
    between two samples the path lost what the *most-robbed* CPU lost (a
    pause of the whole VM must not count once per CPU, which would push
    latencies below zero), and over a longer interval these per-sample
    maxima add up (the server's CPU robbed during the solve and the
    generator's during the receipt are two losses, not one).
    """

    #: The counters tick every 10 ms; the generator's loop wakes this often
    #: to sample them, so robberies of different CPUs fall into different
    #: samples.
    PERIOD = 0.01

    def __init__(self) -> None:
        self._tick = 1.0 / os.sysconf("SC_CLK_TCK")
        self._times: List[float] = []
        #: Stolen seconds up to each sample (sum of per-sample maxima).
        self._totals: List[float] = []
        self._per_cpu: Tuple[float, ...] = ()
        try:
            self._fd: Optional[int] = os.open("/proc/stat", os.O_RDONLY)
        except OSError:
            self._fd = None

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def sample(self, now: float) -> None:
        """Read the steal counters at ``now`` (``time.monotonic()``)."""
        if self._fd is None or (
            self._times and now - self._times[-1] < self.PERIOD / 2
        ):
            return
        per_cpu = []
        # "cpuN user nice system idle iowait irq softirq steal ..."; the
        # per-CPU lines follow the aggregate "cpu" line.
        for line in os.pread(self._fd, 8192, 0).split(b"\n")[1:]:
            if not line.startswith(b"cpu"):
                break
            fields = line.split()
            per_cpu.append(int(fields[8]) * self._tick if len(fields) > 8 else 0.0)
        lost = max(
            (after - before for before, after in zip(self._per_cpu, per_cpu)),
            default=0.0,
        )
        self._times.append(now)
        self._totals.append((self._totals[-1] if self._totals else 0.0) + lost)
        self._per_cpu = tuple(per_cpu)

    def _total_at(self, when: float) -> float:
        times, totals = self._times, self._totals
        right = bisect.bisect_right(times, when)
        if right == 0:
            return totals[0]
        if right == len(times):
            return totals[-1]
        left = right - 1
        share = (when - times[left]) / (times[right] - times[left])
        return totals[left] + (totals[right] - totals[left]) * share

    def between(self, start: float, end: float) -> float:
        """Seconds stolen from a path that ran through ``[start, end]``."""
        if not self._times:
            return 0.0
        return self._total_at(end) - self._total_at(start)


@dataclass
class RunLog:
    """Client-side stamps (``time.monotonic()``) and exact bookkeeping."""

    sent: Dict[int, float] = field(default_factory=dict)
    acked: Dict[int, float] = field(default_factory=dict)
    #: task id -> id of the request that submitted it.
    task_request: Dict[int, int] = field(default_factory=dict)
    #: task id -> receipt of its first ``placement`` event.
    placed: Dict[int, float] = field(default_factory=dict)
    stats: List[Dict[str, Any]] = field(default_factory=list)
    attempted_tasks: int = 0
    refused_tasks: int = 0
    rejected_tasks: int = 0
    duplicate_placements: int = 0
    error_events: int = 0
    preemptions: int = 0

    def missing_tasks(self) -> int:
        """Accepted tasks that never received a placement."""
        return len(self.task_request) - len(self.placed)

    def failed(self) -> int:
        """Operations that did not do what was asked."""
        return (
            self.refused_tasks + self.rejected_tasks + self.missing_tasks()
            + self.duplicate_placements + self.error_events
        )


class OpenLoopClient:
    """Pipelined connections to one server, driven from a single loop."""

    def __init__(self, host: str, port: int, connections: int,
                 steal: HostSteal) -> None:
        self.log = RunLog()
        self.steal = steal
        self._requests: Dict[int, Request] = {}
        self._pending_replies = 0
        # select(2), not epoll: its timeout is not rounded up to a whole
        # millisecond, and that rounding would be generator lag.
        self._selector = selectors.SelectSelector()
        self._socks: List[socket.socket] = []
        self._buffers: List[bytearray] = []
        try:
            for index in range(connections):
                sock = socket.create_connection((host, port), timeout=10.0)
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._socks.append(sock)
                self._buffers.append(bytearray())
                self._selector.register(sock, selectors.EVENT_READ, index)
        except OSError:
            self.close()
            raise

    def close(self) -> None:
        """Close every connection (idempotent)."""
        for sock in self._socks:
            sock.close()
        self._socks = []
        self._selector.close()

    def run(
        self,
        schedule: List[Request],
        origin: float,
        deadline: float,
        on_due: Optional[Dict[float, Callable[[], None]]] = None,
    ) -> bool:
        """Send every request at ``origin + due`` and read events.

        Returns once the schedule is exhausted, every request has its
        reply and every accepted task its placement -- ``True`` -- or at
        ``deadline`` (monotonic), whichever comes first -- ``False``.

        Args:
            on_due: Callbacks fired from the loop at ``origin + key`` (the
                run uses them to sample server CPU at the window edges
                without a second thread).
        """
        log = self.log
        hooks = sorted((on_due or {}).items())
        position = 0
        while True:
            now = time.monotonic()
            self.steal.sample(now)
            while hooks and origin + hooks[0][0] <= now:
                hooks.pop(0)[1]()
            while position < len(schedule):
                request = schedule[position]
                if origin + request.due > now:
                    break
                self._requests[request.request_id] = request
                self._pending_replies += 1
                log.attempted_tasks += request.tasks
                self._socks[request.conn].sendall(request.line)
                now = time.monotonic()
                log.sent[request.request_id] = now
                position += 1
            if (
                position == len(schedule)
                and not hooks
                and not self._pending_replies
                and not log.missing_tasks()
            ):
                return True
            if now >= deadline:
                return False
            wake = min(deadline, now + self.steal.PERIOD)
            if position < len(schedule):
                wake = min(wake, origin + schedule[position].due)
            if hooks:
                wake = min(wake, origin + hooks[0][0])
            for key, _mask in self._selector.select(max(wake - now, 0.0)):
                self._read(key.fileobj, key.data)

    def _read(self, sock: socket.socket, index: int) -> None:
        stamp = time.monotonic()
        data = sock.recv(1 << 16)
        if not data:
            # A draining server closes idle connections before the one
            # that asked; only losing all of them is an error.
            self._selector.unregister(sock)
            if not self._selector.get_map():
                raise ConnectionError("server closed every connection")
            return
        buffer = self._buffers[index]
        buffer += data
        end = buffer.rfind(b"\n") + 1
        if not end:
            return
        lines = bytes(buffer[:end]).splitlines()
        del buffer[:end]
        for line in lines:
            self._on_event(json.loads(line), stamp)

    def _on_event(self, event: Dict[str, Any], stamp: float) -> None:
        log = self.log
        kind = event.get("event")
        if kind == "placement":
            task_id = event["task_id"]
            if task_id in log.placed:
                log.duplicate_placements += 1
            else:
                log.placed[task_id] = stamp
        elif kind == "preemption":
            log.preemptions += 1
        elif kind == "rejected":
            log.rejected_tasks += len(event.get("task_ids", ()))
        elif kind in ("ack", "stats", "error"):
            request = self._requests.get(event.get("id"))
            if request is not None and request.request_id not in log.acked:
                log.acked[request.request_id] = stamp
                self._pending_replies -= 1
            if kind == "error":
                log.error_events += 1
            elif kind == "stats":
                log.stats.append(event)
            elif request is not None and request.kind == "submit":
                task_ids = event.get("task_ids", ())
                log.refused_tasks += request.tasks - len(task_ids)
                for task_id in task_ids:
                    log.task_request[task_id] = request.request_id
