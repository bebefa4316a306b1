"""Service-level placement SLO: p50/p99 submission-to-placement latency.

Drives a real ``firmament-repro serve`` process end to end: the service
listens on an ephemeral TCP port, the closed-loop load generator
(:mod:`repro.service.loadgen`) offers sustained load at two or more
levels (offered load is the number of concurrent closed-loop clients),
and the benchmark reports the p50/p99 submission-to-placement latency the
service achieved at each level, plus the service's conservation counters.

The assertions pin the service contract rather than absolute speed:

* every accepted task is placed (the cluster is sized so the offered load
  fits), and the conservation law ``accepted == placed + pending +
  rejected`` holds exactly at every load level and at drain;
* latency percentiles are finite and ordered (p50 <= p99);
* the drained server process exits 0 (it self-checks conservation).

Both experiments run the server at its *default* ``--round-interval``.
:func:`test_round_interval_frontier` then publishes what the interval still
buys: p50/p95, rounds per second, tasks per round, the loop's busy ratio
and server CPU per task at 0.01 / 0.05 / 0.2 s.  Rounds start when work
arrives, so the interval only bounds how long deferred work waits; latency
must be flat across it.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys

import time

from benchmarks.common import bench_scale
from repro.analysis.reporting import format_table
from repro.service.loadgen import run_loadgen_sync

MACHINES = 128 * bench_scale()

#: Offered-load levels: concurrent closed-loop clients.
LOAD_LEVELS = (4, 16)
JOBS_PER_CLIENT = 4
TASKS_PER_JOB = 8
#: ``--round-interval`` values of the frontier table (the default is 0.05).
ROUND_INTERVALS = (0.01, 0.05, 0.2)
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def test_service_slo_p99_under_load(benchmark):
    """p50/p99 placement latency at >= 2 offered loads, exact conservation."""
    proc, port = _spawn_serve()
    try:
        rows = []
        results = {}
        for clients in LOAD_LEVELS:
            result = run_loadgen_sync(
                "127.0.0.1", port,
                clients=clients,
                jobs_per_client=JOBS_PER_CLIENT,
                tasks_per_job=TASKS_PER_JOB,
                duration=1.0,
            )
            results[clients] = result
            stats = result.service_stats
            assert stats is not None
            # The conservation law holds exactly while under load.
            assert stats["conserved"] is True
            # The cluster fits the offered load: everything gets placed.
            assert result.tasks_placed == result.tasks_accepted
            assert result.errors == 0
            rows.append([
                str(clients),
                str(result.tasks_accepted),
                f"{result.latency_percentile(50) * 1000:.1f}",
                f"{result.latency_percentile(99) * 1000:.1f}",
                str(stats["rounds"]),
                str(stats["degraded_rounds"]),
            ])

        print()
        print(
            f"Service placement SLO ({MACHINES} machines, closed-loop "
            f"clients x {JOBS_PER_CLIENT} jobs x {TASKS_PER_JOB} tasks)"
        )
        print(format_table(
            ["clients", "tasks", "p50 [ms]", "p99 [ms]", "rounds",
             "degraded"],
            rows,
        ))

        for result in results.values():
            assert result.latencies, "no placement latencies measured"
            assert (
                result.latency_percentile(50) <= result.latency_percentile(99)
            )

        # The server self-checks conservation at drain.
        _shutdown(proc, port)

        # pytest-benchmark kernel: one full closed-loop burst at the low
        # load level against a fresh in-process service (subprocess startup
        # excluded so the number is the service round trip, not fork+import).
        benchmark(_inprocess_burst)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def _spawn_serve(extra=()):
    """Start a ``serve`` subprocess, return ``(proc, port)`` after handshake."""
    env = dict(os.environ)
    repo_src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli.main", "serve",
            "--machines", str(MACHINES),
            "--time-scale", "0.01",
            "--serve-seconds", "300",
            *extra,
        ],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    handshake = proc.stdout.readline().strip()
    assert handshake.startswith("serving on "), handshake
    return proc, int(handshake.rsplit(":", 1)[1])


def _shutdown(proc, port) -> dict:
    """Drain via the protocol; the server must exit 0.  Returns its final
    stats (the shutdown ack)."""
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(b'{"op": "shutdown"}\n')
        final = json.loads(sock.recv(65536).split(b"\n")[0])
    assert final["conserved"] is True
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0, out
    assert "conservation: accepted == placed + pending + rejected" in out
    return final


def _cpu_seconds(pid: int) -> float:
    """User + system CPU the process has used so far (proc(5))."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def test_round_interval_frontier():
    """What ``--round-interval`` still buys, at three values.

    Read straight from the ``stats`` op (``solver_rounds``,
    ``round_busy_seconds``): no tracing needed.  The latency columns must
    be flat -- before rounds were event-triggered the interval was a floor
    under every round, and p50 sat at about half of it.
    """
    rows = []
    p50 = {}  # (clients, interval) -> seconds
    for clients in LOAD_LEVELS:
        for interval in ROUND_INTERVALS:
            proc, port = _spawn_serve(("--round-interval", str(interval)))
            try:
                cpu_before, started = _cpu_seconds(proc.pid), time.monotonic()
                result = run_loadgen_sync(
                    "127.0.0.1", port, clients=clients,
                    jobs_per_client=JOBS_PER_CLIENT,
                    tasks_per_job=TASKS_PER_JOB, duration=1.0,
                )
                elapsed = time.monotonic() - started
                cpu = _cpu_seconds(proc.pid) - cpu_before
                assert result.tasks_placed == result.tasks_accepted
                assert result.errors == 0
                stats = _shutdown(proc, port)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.communicate()
            p50[(clients, interval)] = result.latency_percentile(50)
            rows.append([
                str(clients),
                f"{interval:g}",
                f"{result.latency_percentile(50) * 1000:.1f}",
                f"{result.latency_percentile(95) * 1000:.1f}",
                f"{stats['solver_rounds'] / elapsed:.1f}",
                f"{stats['placed'] / max(stats['solver_rounds'], 1):.1f}",
                f"{stats['events_admitted'] / max(stats['drains'], 1):.1f}",
                f"{stats['round_busy_seconds'] / elapsed:.2f}",
                f"{cpu * 1000 / result.tasks_placed:.2f}",
            ])

    print()
    print(
        f"Round-interval frontier ({MACHINES} machines, closed-loop clients "
        f"x {JOBS_PER_CLIENT} jobs x {TASKS_PER_JOB} tasks)"
    )
    print(format_table(
        ["clients", "interval [s]", "p50 [ms]", "p95 [ms]", "rounds/s",
         "tasks/round", "events/drain", "busy ratio", "cpu [ms/task]"],
        rows,
    ))
    for clients in LOAD_LEVELS:
        fastest = min(p50[(clients, interval)] for interval in ROUND_INTERVALS)
        for interval in ROUND_INTERVALS:
            value = p50[(clients, interval)]
            assert value <= max(3.0 * fastest, fastest + 0.025), (
                f"p50 {value * 1000:.1f} ms at {clients} clients, "
                f"--round-interval {interval}: latency is not flat across "
                "the interval"
            )


def test_wal_overhead_p99_durability_on_vs_off(tmp_path, benchmark):
    """WAL-overhead experiment (ISSUE 10): p99 submission-to-placement
    latency at 4/16 clients with the durability layer off vs on (fsync'd
    write-ahead log + snapshots on a real state directory).

    The guard is relative, not absolute: with durability on, p99 at each
    load level must stay within ``max(2 x p99_off, p99_off + 50ms)`` --
    the WAL is one fsync'd append per admission batch, so it must never
    dominate the round interval.
    """
    p99 = {}  # (durable, clients) -> seconds
    rows = []
    for durable in (False, True):
        extra = ()
        if durable:
            extra = ("--state-dir", str(tmp_path / "slo-state"))
        proc, port = _spawn_serve(extra)
        try:
            for clients in LOAD_LEVELS:
                result = run_loadgen_sync(
                    "127.0.0.1", port,
                    clients=clients,
                    jobs_per_client=JOBS_PER_CLIENT,
                    tasks_per_job=TASKS_PER_JOB,
                    duration=1.0,
                )
                stats = result.service_stats
                assert stats is not None and stats["conserved"] is True
                assert result.tasks_placed == result.tasks_accepted
                assert result.errors == 0
                p99[(durable, clients)] = result.latency_percentile(99)
                rows.append([
                    "on" if durable else "off",
                    str(clients),
                    str(result.tasks_accepted),
                    f"{result.latency_percentile(50) * 1000:.1f}",
                    f"{result.latency_percentile(99) * 1000:.1f}",
                ])
            _shutdown(proc, port)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

    print()
    print(
        f"WAL overhead ({MACHINES} machines, fsync on): p99 with durability "
        "on vs off"
    )
    print(format_table(
        ["durability", "clients", "tasks", "p50 [ms]", "p99 [ms]"], rows
    ))

    for clients in LOAD_LEVELS:
        off = p99[(False, clients)]
        on = p99[(True, clients)]
        assert on <= max(2.0 * off, off + 0.05), (
            f"durability-on p99 {on * 1000:.1f}ms at {clients} clients "
            f"blew past the guard (off: {off * 1000:.1f}ms)"
        )

    benchmark(_inprocess_burst)


def _inprocess_burst() -> None:
    import asyncio

    from repro.cli import build_parser, serve_command
    from repro.cluster.state import ClusterState
    from repro.cluster.topology import build_topology
    from repro.service import SchedulerService, ServiceConfig

    async def burst():
        state = ClusterState(build_topology(32))
        service = SchedulerService(
            state,
            # The scheduler ``serve`` builds with its default flags.
            serve_command._build_scheduler(build_parser().parse_args(["serve"])),
            ServiceConfig(round_interval=0.005, time_scale=0.01),
        )
        await service.start()
        try:
            from repro.service.loadgen import run_loadgen

            result = await run_loadgen(
                "127.0.0.1", service.port, clients=2, jobs_per_client=2,
                tasks_per_job=4, duration=1.0, poll_stats=False,
            )
            assert result.tasks_placed == result.tasks_accepted
        finally:
            await service.stop()

    asyncio.run(burst())
