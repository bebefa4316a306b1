"""``firmament-repro serve``: run the scheduler as a network service.

Starts a :class:`~repro.service.server.SchedulerService` over an initially
empty cluster of ``--machines`` machines and serves the JSON-lines
protocol until ``--serve-seconds`` elapses (or forever without it, until
interrupted or a client sends ``{"op": "shutdown"}``).  On exit the
service drains gracefully and the final conservation counters are
printed; a violated conservation law (accepted != placed + pending +
rejected) fails the command, so scripted callers -- the SLO benchmark,
the CI service step -- get a hard signal.

SIGTERM and SIGINT take the same graceful path: the signal requests a
drain (void unadmitted submissions, flush notifications, print the
conservation verdict) instead of killing the process mid-round.

A round is one solve by one solver: the monolithic scheduler runs
:class:`~repro.solvers.incremental.IncrementalCostScalingSolver` alone (no
relaxation race -- the service has one event-loop thread to pay for every
leg), the same solver each ``--cells`` cell runs.  ``--round-deadline`` is
that solver's budget: the epsilon ladder stops at it, and a delta repair
still running one watchdog period later is aborted -- the round (or the
cell) reuses the previous placements, and the next one rebuilds, which is
never aborted.

With ``--state-dir`` the service is crash-safe (write-ahead admission log
plus periodic snapshots; see :mod:`repro.service.durability`), and
``--recover`` restores from an existing state directory after a crash --
the only kind of death the durability layer cannot drain through, which
is exactly what ``--chaos-crash`` injects for the recovery harness.
"""

from __future__ import annotations

import argparse
import asyncio
import signal

from repro.chaos import CRASH_POINTS, CrashInjector
from repro.cli.scheduler_options import _make_scheduler, add_scheduler_arguments
from repro.cluster.state import ClusterState
from repro.cluster.topology import build_topology
from repro.service import DurabilityLayer, SchedulerService, ServiceConfig, recover


def register(subparsers) -> None:
    """Register the ``serve`` subcommand."""
    parser = subparsers.add_parser(
        "serve",
        help="serve the scheduler over a JSON-lines TCP API",
        description=(
            "Run the scheduler as a service: concurrent clients submit jobs "
            "and machine events over a JSON-lines TCP protocol, a round "
            "starts when work arrives and whatever arrives while it solves "
            "is coalesced into the next one's admission batch, "
            "and placement/preemption notifications stream back per client. "
            "With --state-dir the service write-ahead-logs every admission "
            "and snapshots periodically, and --recover restores after a "
            "crash. Exits non-zero if the service conservation law "
            "(accepted == placed + pending + rejected) is violated at drain."
        ),
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    parser.add_argument(
        "--port", type=int, default=0,
        help="bind port; 0 picks an ephemeral port (default: 0)",
    )
    parser.add_argument(
        "--machines", type=int, default=128, help="cluster size (default: 128)"
    )
    parser.add_argument(
        "--slots-per-machine", type=int, default=4,
        help="task slots per machine (default: 4)",
    )
    add_scheduler_arguments(parser)
    parser.add_argument(
        "--round-interval", type=float, default=0.05, metavar="SECONDS",
        help=(
            "longest that deferred work (a completion nobody is waiting "
            "on, pending tasks the last round could not place) waits for "
            "the round loop; everything else starts a round as soon as "
            "the previous one has applied (default: 0.05)"
        ),
    )
    parser.add_argument(
        "--time-scale", type=float, default=1.0, metavar="FACTOR",
        help=(
            "wall seconds per submitted duration second; small values make "
            "finite tasks free their slots faster (default: 1.0)"
        ),
    )
    parser.add_argument(
        "--client-queue-limit", type=int, default=1024, metavar="EVENTS",
        help=(
            "notification events buffered per client before a non-reading "
            "client is evicted (default: 1024)"
        ),
    )
    parser.add_argument(
        "--serve-seconds", type=float, default=None, metavar="SECONDS",
        help="drain and exit after this long (default: serve until shutdown)",
    )
    parser.add_argument(
        "--state-dir", default=None, metavar="DIR",
        help=(
            "durable state directory (write-ahead log + snapshots); the "
            "service refuses a non-empty directory without --recover "
            "(default: no durability)"
        ),
    )
    parser.add_argument(
        "--recover", action="store_true",
        help=(
            "restore from the newest valid snapshot in --state-dir and "
            "replay the log tail before serving (an empty directory is a "
            "cold start)"
        ),
    )
    parser.add_argument(
        "--snapshot-interval-rounds", type=int, default=64, metavar="N",
        help="snapshot after N logged rounds (default: 64)",
    )
    parser.add_argument(
        "--snapshot-max-log-bytes", type=int, default=4 * 1024 * 1024,
        metavar="BYTES",
        help="snapshot when the active log segment exceeds this (default: 4MiB)",
    )
    parser.add_argument(
        "--no-fsync", action="store_true",
        help="skip fsync on log appends and snapshots (benchmarks only)",
    )
    parser.add_argument(
        "--chaos-crash", default=None, metavar="POINT:HIT[:TEAR_BYTES]",
        help=(
            "SIGKILL this process at the HITth pass of a durability crash "
            f"point ({', '.join(CRASH_POINTS)}), optionally tearing the "
            "in-flight record to TEAR_BYTES; requires --state-dir "
            "(recovery-harness fault injection)"
        ),
    )
    parser.set_defaults(handler=run)


def run(args: argparse.Namespace) -> int:
    """Run the service until shutdown; return the process exit code."""
    if args.machines <= 0:
        raise ValueError("cluster must have at least one machine")
    if args.chaos_crash and not args.state_dir:
        raise ValueError("--chaos-crash requires --state-dir")
    if args.recover and not args.state_dir:
        raise ValueError("--recover requires --state-dir")
    return asyncio.run(_serve(args))


def _build_scheduler(args: argparse.Namespace):
    """The scheduler ``serve`` runs for the parsed flags."""
    return _make_scheduler(
        args.scheduler, args.policy,
        # No race: a service pays the wall clock of every solver leg it
        # runs on its one event-loop thread (the simulator's dual executor
        # only *models* the second core on the rounds it races), so the
        # monolith solves with incremental cost scaling alone, like every
        # cell.
        executor=False,
        cells=args.cells,
        cell_workers=args.cell_workers,
        round_deadline_seconds=args.round_deadline,
    )


async def _serve(args) -> int:
    durability = None
    recovered = None
    if args.state_dir:
        crash = (
            CrashInjector.parse(args.chaos_crash) if args.chaos_crash else None
        )
        durability = DurabilityLayer(
            args.state_dir,
            fsync=not args.no_fsync,
            snapshot_interval_rounds=args.snapshot_interval_rounds,
            snapshot_max_log_bytes=args.snapshot_max_log_bytes,
            crash=crash,
        )
        if durability.has_prior_state():
            if not args.recover:
                print(
                    f"error: state dir {args.state_dir} holds prior state; "
                    "pass --recover to restore it",
                    flush=True,
                )
                return 2
            recovered = recover(args.state_dir)
            torn = "dropped" if recovered.torn_tail_dropped else "absent"
            print(
                f"recovered from snapshot epoch {recovered.snapshot_epoch}: "
                f"{recovered.replayed_records} records replayed, "
                f"torn tail {torn}",
                flush=True,
            )

    if recovered is not None:
        # The cluster (machines included) comes from the durable state,
        # not from --machines.
        state = recovered.state
    else:
        topology = build_topology(
            args.machines, slots_per_machine=args.slots_per_machine
        )
        state = ClusterState(topology)
    scheduler = _build_scheduler(args)
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        round_interval=args.round_interval,
        time_scale=args.time_scale,
        client_queue_limit=args.client_queue_limit,
    )
    service = SchedulerService(
        state, scheduler, config, durability=durability, recovered=recovered
    )
    # SIGTERM/SIGINT request the same graceful drain a client shutdown op
    # does: void unadmitted submissions, flush notifications, report the
    # conservation verdict -- never die mid-round.  Installed before the
    # handshake prints, so a driver that signals immediately after reading
    # it cannot race the default (killing) handlers.
    loop = asyncio.get_running_loop()
    signalled = []

    def _request_drain(signame: str) -> None:
        signalled.append(signame)
        service.request_drain()

    installed = []
    for signame in ("SIGTERM", "SIGINT"):
        try:
            loop.add_signal_handler(
                getattr(signal, signame), _request_drain, signame
            )
            installed.append(signame)
        except (NotImplementedError, RuntimeError):
            # Platforms without loop signal support keep the default
            # handlers; the drain path is still reachable via shutdown.
            pass

    await service.start()
    # The parseable handshake line scripted drivers wait for.
    print(f"serving on {args.host}:{service.port}", flush=True)

    # The round loop only completes when a drain was requested (a client's
    # shutdown op, a signal); otherwise serve until --serve-seconds.
    try:
        if args.serve_seconds is not None:
            await asyncio.wait_for(
                asyncio.shield(service._round_task),
                timeout=args.serve_seconds,
            )
        else:
            await asyncio.shield(service._round_task)
    except asyncio.TimeoutError:
        pass
    finally:
        for signame in installed:
            loop.remove_signal_handler(getattr(signal, signame))
    snapshot = await service.stop()

    if signalled:
        print(f"draining on {signalled[0]}")
    print("service drained")
    for key in ("accepted", "placed", "pending", "rejected", "rounds",
                "degraded_rounds", "preemptions", "completions",
                "evicted_clients"):
        print(f"  {key}: {snapshot[key]}")
    for key in ("wal_records", "wal_syncs", "wal_bytes", "wal_snapshots",
                "wal_snapshot_bytes", "wal_snapshot_seconds"):
        if key in snapshot:
            print(f"  {key}: {snapshot[key]}")
    if not snapshot["conserved"]:
        print("  CONSERVATION VIOLATED: accepted != placed+pending+rejected")
        return 1
    print("  conservation: accepted == placed + pending + rejected")
    return 0
