"""Seeded, deterministic fault injection for the scheduling round pipeline.

The paper's production claim (Section 5.2, fig10) is that Firmament keeps
sub-second placement latency *even when the environment misbehaves*.  The
recovery machinery that backs that claim here — worker respawn with a
circuit breaker, parent-side fallback, rebuild-on-broken-revision-chain,
residual revalidation — is only trustworthy if faults are injected
deliberately and the degraded output is validated against invariants.

:class:`ChaosPolicy` is that injector.  Consumers (the dual executor, the
worker client, and :class:`~repro.core.graph_manager.GraphManager`)
hold a ``chaos`` attribute that defaults to ``None``; every hook site is a
single ``if chaos is not None`` guard, so the production path pays nothing.
A policy decides per ``(fault, round_index)`` whether the fault fires,
either from an explicit per-round schedule (exact, for counter-matching
assertions) or from a seeded Bernoulli draw keyed on
``(seed, fault, round_index)`` — the draw is independent of call order, so
two runs with the same seed inject the identical fault sequence.

Fault classes (``FAULT_KINDS``):

``worker_kill``
    Terminate the solver worker subprocess right after the round's
    payload ships and drop its pipe (``WorkerClient.kill``) — the round is
    never answered, so the parent-side solver always serves it unopposed
    and the worker's breaker always counts one failure.
``pipe_break``
    Close the parent's end of the worker pipe before the send, so the
    ship raises ``OSError`` exactly like a broken pipe during a delta
    ship.
``corrupt_message``
    Append garbage to the serialized DIMACS/delta payload; the worker's
    parser raises, the worker replies with an error, and the parent
    ships a full snapshot next round.
``worker_delay``
    Prepend a ``("chaos_delay", seconds)`` message the worker sleeps on
    before serving the round — a slow-worker stand-in for the gather's
    deadline path.
``chain_break``
    Drop the round's emitted :class:`ChangeBatch` in the graph manager,
    forcing the downstream revision-chain guards (warm rebuild, worker
    resync/full ship) to recover.
``residual_corruption``
    Perturb one potential in the incremental solver's persistent
    residual so a residual arc violates 0-optimality; the solver's
    ``validate_residual`` pre-delta check must catch it and rebuild.

Process-level faults (ISSUE 10)
-------------------------------

The faults above all stay *inside* a surviving scheduler process.  The
durability layer (:mod:`repro.service.durability`) needs the opposite: the
whole service process dying without warning -- ``kill -9`` -- at the worst
possible instants of the write-ahead-log protocol.  :class:`CrashInjector`
delivers exactly that: it counts hits of named crash points
(:data:`CRASH_POINTS`) threaded through the durability layer and, on the
configured hit, SIGKILLs its own process (optionally after writing only a
prefix of the in-flight record, producing a *torn* log tail the recovery
path must detect by checksum and drop, never half-apply).
"""

from __future__ import annotations

import os
import random
import signal
from typing import Dict, Iterable, List, Mapping, Optional

__all__ = [
    "FAULT_KINDS",
    "CRASH_POINTS",
    "ChaosPolicy",
    "CrashInjector",
    "corrupt_residual_potentials",
]

#: Every fault class the policy knows how to fire, in pipeline order.
FAULT_KINDS = (
    "worker_kill",
    "pipe_break",
    "corrupt_message",
    "worker_delay",
    "chain_break",
    "residual_corruption",
)


class ChaosPolicy:
    """Deterministic per-round fault firing decisions plus injection counters.

    Args:
        seed: Seed for the per-``(fault, round)`` Bernoulli draws.
        rates: Optional ``{fault: probability}`` of firing per round.
        schedule: Optional ``{fault: iterable of round indexes}`` that fire
            exactly at those rounds (on top of any rate for the fault).
        delay_seconds: Sleep injected by ``worker_delay`` faults.
    """

    def __init__(
        self,
        seed: int = 0,
        rates: Optional[Mapping[str, float]] = None,
        schedule: Optional[Mapping[str, Iterable[int]]] = None,
        delay_seconds: float = 0.05,
    ) -> None:
        self.seed = seed
        self.rates: Dict[str, float] = dict(rates or {})
        self.schedule: Dict[str, frozenset] = {
            fault: frozenset(rounds) for fault, rounds in (schedule or {}).items()
        }
        for fault in list(self.rates) + list(self.schedule):
            if fault not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind: {fault!r}")
        for fault, rate in self.rates.items():
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"rate for {fault!r} must be in [0, 1], got {rate}")
        if delay_seconds < 0:
            raise ValueError("delay_seconds must be >= 0")
        self.delay_seconds = float(delay_seconds)
        #: Count of injections actually performed, per fault kind.
        self.injected: Dict[str, int] = {}
        #: Round indexes at which each fault fired, in firing order.
        self.injected_rounds: Dict[str, List[int]] = {}

    def arms(self, fault: str) -> bool:
        """Return True when the policy can ever fire ``fault``."""
        return fault in self.schedule or self.rates.get(fault, 0.0) > 0.0

    def fires(self, fault: str, round_index: int) -> bool:
        """Decide (and record) whether ``fault`` fires at ``round_index``.

        Call exactly once per (fault, round) at the injection site: a
        ``True`` return is counted in :attr:`injected`, so the counters
        reflect faults actually delivered, not merely drawn.
        """
        if fault not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind: {fault!r}")
        hit = round_index in self.schedule.get(fault, ())
        if not hit:
            rate = self.rates.get(fault, 0.0)
            if rate > 0.0:
                draw = random.Random(f"{self.seed}:{fault}:{round_index}").random()
                hit = draw < rate
        if hit:
            self.injected[fault] = self.injected.get(fault, 0) + 1
            self.injected_rounds.setdefault(fault, []).append(round_index)
        return hit

    @property
    def total_injected(self) -> int:
        """Total number of faults delivered so far."""
        return sum(self.injected.values())

    def reset_counters(self) -> None:
        """Clear the injection log (e.g. between simulation runs)."""
        self.injected = {}
        self.injected_rounds = {}


#: Named instants of the durability protocol at which a process crash is
#: interesting, in the order the round pipeline reaches them:
#:
#: ``admit_append``
#:     While appending the round's admission record to the write-ahead log
#:     (supports tearing: only a prefix of the record reaches the disk).
#: ``mid_drain``
#:     Before applying each admitted inbox record to ``ClusterState`` --
#:     the batch's admission record is durable but its effects are at most
#:     partially in memory, so recovery must re-apply the whole batch.
#: ``round_append``
#:     While appending the round's applied placements/preemptions record
#:     (tearing supported); the round's effects were applied in memory but
#:     never became durable nor were acknowledged to clients.
#: ``round_sync``
#:     After the round record was appended, before the sync that covers the
#:     round's records returns: nothing was released to a client yet.  The
#:     plain case leaves the whole record in the file (a killed process
#:     keeps its page cache), so recovery applies a round nobody heard of;
#:     tearing cuts the unsynced record back to a prefix, as a power loss
#:     may.
#: ``mid_snapshot``
#:     Midway through writing the snapshot temp file, before the atomic
#:     rename -- recovery must ignore the partial temp file and fall back
#:     to the previous snapshot plus a longer log replay.
CRASH_POINTS = (
    "admit_append", "mid_drain", "round_append", "round_sync", "mid_snapshot",
)


class CrashInjector:
    """SIGKILL the current process at the Nth hit of a named crash point.

    The injector is armed for exactly one ``point`` (a member of
    :data:`CRASH_POINTS`); every call to :meth:`hit` with that name
    increments a counter, and on the configured occurrence the process
    kills itself with ``SIGKILL`` -- no handlers, no atexit, no flushing:
    the same abrupt death ``kill -9`` from outside produces.

    For the two log-append points the caller passes the framed record
    bytes and the open file; when ``tear_bytes`` is configured the
    injector first writes (and fsyncs) only that prefix, manufacturing a
    torn final record for the recovery path to detect and drop.  At
    ``round_sync`` the record is already in the file, so the caller passes
    the offset it starts at and the tear truncates it back to that prefix.

    Args:
        point: The armed crash point (one of :data:`CRASH_POINTS`).
        hit: Crash on this occurrence of the point (1-based).
        tear_bytes: For append points, write this many bytes of the framed
            record before dying (``None`` = crash before writing anything);
            for ``round_sync``, keep this many bytes of the written record
            (``None`` = keep all of it).
    """

    def __init__(self, point: str, hit: int = 1, tear_bytes: Optional[int] = None) -> None:
        if point not in CRASH_POINTS:
            raise ValueError(f"unknown crash point: {point!r}")
        if hit < 1:
            raise ValueError("hit must be >= 1")
        if tear_bytes is not None and tear_bytes < 1:
            raise ValueError("tear_bytes must be >= 1")
        self.point = point
        self.hit_at = hit
        self.tear_bytes = tear_bytes
        self.hits = 0

    @classmethod
    def parse(cls, spec: str) -> "CrashInjector":
        """Parse a ``point:hit[:tear_bytes]`` CLI spec (e.g. ``admit_append:2:12``)."""
        parts = spec.split(":")
        if not 1 <= len(parts) <= 3:
            raise ValueError(f"bad crash spec: {spec!r} (want point:hit[:tear_bytes])")
        point = parts[0]
        hit = int(parts[1]) if len(parts) > 1 else 1
        tear = int(parts[2]) if len(parts) > 2 else None
        return cls(point, hit=hit, tear_bytes=tear)

    def _die(self) -> None:
        os.kill(os.getpid(), signal.SIGKILL)

    def hit(
        self,
        point: str,
        fileobj=None,
        pending_bytes: Optional[bytes] = None,
        written_from: Optional[int] = None,
    ) -> None:
        """Record one pass through ``point``; crash if this is the armed hit.

        Args:
            point: The crash point being passed.
            fileobj: Open binary file the caller was about to write to
                (append points and the snapshot temp file) or has just
                written, unsynced (``round_sync``).
            pending_bytes: The bytes the caller was about to write; with
                ``tear_bytes`` configured, a prefix is written and fsynced
                before the process dies so the tear is really on disk.
            written_from: File offset at which the caller's flushed but
                unsynced bytes start; with ``tear_bytes`` configured, the
                file is cut to that many bytes past it.
        """
        if point != self.point:
            return
        self.hits += 1
        if self.hits != self.hit_at:
            return
        if self.tear_bytes is not None and fileobj is not None:
            if pending_bytes is not None:
                fileobj.write(pending_bytes[: self.tear_bytes])
            elif written_from is not None:
                fileobj.truncate(written_from + self.tear_bytes)
            fileobj.flush()
            os.fsync(fileobj.fileno())
        self._die()


def corrupt_residual_potentials(residual, seed: int = 0) -> bool:
    """Make one residual arc violate 0-optimality by bumping a potential.

    Picks a seeded arc with remaining residual capacity, outside the
    pending patch (its arcs the next repair re-examines anyway), and raises
    its tail's potential just past the arc's reduced cost, guaranteeing the
    arc's reduced cost goes negative — exactly the corruption
    ``check_residual_epsilon_optimality(residual, 0)`` exists to catch.
    Returns False when no such arc is left (nothing to violate, so the
    corruption would be unobservable and is skipped).
    """
    patched = residual.pending_dirty
    candidates = [
        index for index in range(len(residual.arc_residual))
        if residual.arc_residual[index] > 0 and index >> 1 not in patched
    ]
    if not candidates:
        return False
    arc = random.Random(f"{seed}:residual_corruption").choice(candidates)
    u = residual.arc_from[arc]
    v = residual.arc_to[arc]
    rc = residual.arc_cost[arc] - residual.potential[u] + residual.potential[v]
    residual.potential[u] += rc + 1 + 7
    return True
