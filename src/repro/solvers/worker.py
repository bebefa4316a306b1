"""The out-of-process solver transport: one worker loop, one client.

Firmament runs its MCMF solver out of process and feeds it incremental
DIMACS deltas (Section 6).  Every subprocess in this package goes through
this module: :func:`serve_solver` is the worker's request loop around
whatever solver a factory builds, and :class:`WorkerClient` is the parent's
handle on one such worker.  The per-cell solvers of
:class:`~repro.core.sharding.ShardedScheduler` with ``workers=True``
(``--cell-workers``: incremental cost scaling workers) are its user.

Wire protocol (tuples over a duplex :mod:`multiprocessing` pipe; networks
cross as the DIMACS text forms of :mod:`repro.flow.dimacs`, never as a
pickled object graph):

* ``("full", round_id, dimacs_text, revision)`` replaces the worker's
  shadow network: O(graph) to write, parse and solve cold.  Sent on cold
  starts, after a respawn or an error reply, and when the revision chain
  has a gap older than the :class:`RevisionChainCache`.
* ``("delta", round_id, incremental_text, base_revision, target_revision)``
  patches the shadow in place and hands the same batch to the solver, whose
  persistent residual is patched rather than rebuilt: O(|changes|).  When
  the worker missed rounds, the parent composes the recorded batches from
  the worker's last known revision into one such payload (a *resync*).
* ``("chaos_delay", seconds)`` makes the worker sleep before its next
  round (chaos harness only); ``("shutdown",)`` ends the loop.
* The worker answers every round with ``("result", round_id, body)`` --
  see :func:`encode_result` -- or ``("error", round_id, text)``; after an
  error it has dropped its shadow and rebuilt its solver, so the parent
  ships a full snapshot next.

The parent only ships to a worker that has answered every previous request.
Besides keeping a slow worker from falling ever further behind on abandoned
rounds, this is a deadlock guard: an answered-up worker is provably parked
in ``recv``, so the parent's blocking ``send`` always finds a reader.
Shipping while an abandoned round is still in flight could wedge both
processes on large graphs -- parent blocked writing a request bigger than
the pipe buffer, worker blocked writing the abandoned round's result,
neither reading.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.flow.changes import ChangeBatch, GraphChange, apply_changes
from repro.flow.dimacs import (
    read_dimacs,
    read_incremental,
    write_dimacs,
    write_incremental,
)
from repro.flow.graph import FlowNetwork
from repro.solvers.base import SolverResult, SolverStatistics
from repro.solvers.residual import FlowGraph
from repro.solvers.worker_health import WorkerCircuitBreaker

__all__ = [
    "RevisionChainCache",
    "WorkerClient",
    "decode_result",
    "encode_result",
    "serve_solver",
]

#: How many revision-chained change batches the parent remembers for
#: worker resync.  At one batch per scheduling round this covers every
#: realistic streak of rounds the worker sat out; a worker further behind
#: than this gets a full snapshot.
BATCH_HISTORY_LIMIT = 256

#: A resync payload is worth shipping while it stays within this multiple
#: of the full snapshot's line count (one line per change vs one line per
#: node/arc): even at equal line counts the delta wins, because the worker
#: patches its shadow and persistent residual in place instead of reparsing
#: the whole document and rebuilding the residual from scratch -- roughly
#: half of a cold round's cost.  Beyond ~2x, a churn-heavy history (adds
#: later removed again) makes the composed payload pure overhead and the
#: full document takes over.
RESYNC_MAX_SNAPSHOT_MULTIPLE = 2


class RevisionChainCache:
    """Recent revision-chained change batches, for worker-side resync.

    The parent records every revision-chained batch it sees (including the
    rounds its own solver served, which is precisely when the worker's
    chain breaks) keyed by base revision.  :meth:`compose` then
    rebuilds the change sequence from the worker's last known revision to
    the current one by walking the recorded chain, so a broken chain
    resyncs with an O(|missed changes|) incremental payload instead of a
    full DIMACS snapshot and reparse.
    """

    def __init__(self) -> None:
        #: base_revision -> (target_revision, changes)
        self._by_base: "OrderedDict[int, Tuple[int, List[GraphChange]]]" = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._by_base)

    def record(self, batch: ChangeBatch) -> None:
        """Remember one revision-chained batch (unrevisioned ones are not
        resyncable and are ignored)."""
        base = batch.base_revision
        target = batch.target_revision
        if base is None or target is None or base == target:
            return
        self._by_base[base] = (target, list(batch))
        self._by_base.move_to_end(base)
        while len(self._by_base) > BATCH_HISTORY_LIMIT:
            self._by_base.popitem(last=False)

    def compose(
        self, from_revision: int, to_revision: int, max_changes: Optional[int] = None
    ) -> Optional[List[GraphChange]]:
        """Return the concatenated changes leading ``from_revision`` to
        ``to_revision``, or ``None`` when the recorded chain has a gap (or
        the composition exceeds ``max_changes``)."""
        if from_revision == to_revision:
            return []
        changes: List[GraphChange] = []
        revision = from_revision
        for _ in range(len(self._by_base)):
            entry = self._by_base.get(revision)
            if entry is None:
                return None
            target, recorded = entry
            changes.extend(recorded)
            if max_changes is not None and len(changes) > max_changes:
                return None
            if target == to_revision:
                return changes
            revision = target
        return None


def encode_result(result: SolverResult) -> Dict[str, Any]:
    """Flatten a result for the pipe: every :class:`SolverResult` field,
    ``statistics`` as ``dataclasses.asdict`` (so a counter added to
    :class:`SolverStatistics` crosses without being listed anywhere)."""
    body = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    # A persistent solver hands out views onto its residual; the pipe
    # carries the values, and this is where they are materialised.
    body["flows"] = dict(result.flows)
    body["potentials"] = dict(result.potentials)
    body["statistics"] = dataclasses.asdict(result.statistics)
    return body


def decode_result(body: Dict[str, Any]) -> SolverResult:
    """Inverse of :func:`encode_result`."""
    fields = dict(body)
    fields["statistics"] = SolverStatistics(**fields["statistics"])
    return SolverResult(**fields)


def serve_solver(conn, solver_factory: Callable, solver_kwargs: Dict[str, Any]) -> None:
    """Entry point of a persistent solver subprocess.

    Serves the module's wire protocol until ``("shutdown",)`` or pipe
    closure, holding one ``solver_factory(**solver_kwargs)`` instance whose
    persistent residual survives across rounds, so a steady-state round
    pays neither a full-document parse nor an O(graph) residual build.
    Replies carry the round id so the parent can discard answers to rounds
    it has already abandoned.
    """
    solver = solver_factory(**solver_kwargs)
    shadow: Optional[FlowNetwork] = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message[0] == "shutdown":
            break
        if message[0] == "chaos_delay":
            time.sleep(message[1])
            continue
        kind, round_id, text = message[0], message[1], message[2]
        try:
            if kind == "full":
                shadow = read_dimacs(text)
                shadow.revision = message[3]
                result = solver.solve(shadow)
            elif shadow is None:
                raise RuntimeError("delta request but no shadow network")
            else:
                base_revision, target_revision = message[3], message[4]
                parsed = read_incremental(text)
                apply_changes(shadow, parsed)
                shadow.revision = target_revision
                batch = ChangeBatch(
                    changes=parsed,
                    base_revision=base_revision,
                    target_revision=target_revision,
                )
                result = solver.solve(shadow, changes=batch)
            response = ("result", round_id, encode_result(result))
        except Exception as error:
            # The shadow and the solver's residual may be half-patched;
            # start clean and let the parent ship a full snapshot next.
            shadow = None
            solver = solver_factory(**solver_kwargs)
            response = ("error", round_id, f"{type(error).__name__}: {error}")
        try:
            conn.send(response)
        except (BrokenPipeError, OSError):  # pragma: no cover - parent died
            break


class WorkerClient:
    """Parent-side handle of one persistent solver subprocess.

    Owns the process and pipe, the :class:`RevisionChainCache` behind
    full/delta/resync encoding, the answered-up send guard, stale-reply
    draining, the send-path chaos hooks and a
    :class:`~repro.solvers.worker_health.WorkerCircuitBreaker` gating
    respawns.  A round is ``begin_round`` -> ``ship`` -> ``wait`` ->
    ``settle`` -> ``stamp_round``; whenever ``ship`` declines (returns
    ``None``) or ``wait`` comes back empty, the caller serves the round
    with its own parent-side solver.

    Args:
        solver_factory: Picklable callable building the worker's solver
            (a solver class works directly); called again after any
            worker-side error.
        solver_kwargs: Keyword arguments for the factory.
        breaker: Worker health state machine (a default one is created
            when omitted).
    """

    def __init__(
        self,
        solver_factory: Callable,
        solver_kwargs: Optional[Dict[str, Any]] = None,
        breaker: Optional[WorkerCircuitBreaker] = None,
    ) -> None:
        self._solver_factory = solver_factory
        self._solver_kwargs = dict(solver_kwargs or {})
        self.breaker = breaker or WorkerCircuitBreaker()
        #: The worker process (None while detached, or for a bare
        #: :meth:`attach`-ed connection).
        self.process = None
        self._conn = None
        self._round_id = 0
        self._unanswered: Set[int] = set()
        self._cache = RevisionChainCache()
        #: Revision of the network content the worker's shadow mirrors
        #: (None forces the next request to be a full snapshot).
        self._worker_revision: Optional[int] = None
        self._spawned_once = False
        self._result_round: Optional[int] = None
        #: The reply most recently reported by :meth:`poll` / :meth:`wait`.
        self.result: Optional[SolverResult] = None
        #: Requests shipped as full DIMACS snapshots vs incremental deltas
        #: (``delta_ships`` includes history-composed resyncs, which are
        #: additionally counted in ``resync_ships``).
        self.snapshot_ships = 0
        self.delta_ships = 0
        self.resync_ships = 0
        #: Rounds not shipped because the worker still owed an answer.
        self.skipped_rounds = 0
        #: Worker subprocesses spawned after the first.
        self.respawns = 0
        #: ``(respawns, snapshot_ships, delta_ships)`` at :meth:`begin_round`,
        #: so :meth:`stamp_round` can tell the round's own share.
        self._round_start = (0, 0, 0)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def alive(self) -> bool:
        """Whether a worker is attached and its process (if any) runs."""
        return self._conn is not None and (
            self.process is None or self.process.is_alive()
        )

    def attach(self, conn, process=None) -> None:
        """Install a transport: the pipe end and the process behind it.

        :meth:`ensure` attaches what it spawns; tests attach an in-process
        stand-in connection (``process=None`` counts as alive).
        """
        self._conn = conn
        self.process = process
        self._unanswered.clear()
        self._worker_revision = None

    def ensure(self) -> bool:
        """Return True when a live, drained worker is attached.

        A worker found dead between rounds is a process-level failure.
        (Re)spawns are gated by the circuit breaker: after the first
        failure the retry is immediate, repeated failures back off
        exponentially, and past ``failure_threshold`` consecutive failures
        the breaker opens until a periodic probe round re-closes it.
        """
        if self._conn is not None:
            if self.alive:
                self.poll(None)
            else:
                self._fail()
        if self._conn is not None:
            return True
        if not self.breaker.allow_attempt():
            return False
        try:
            import multiprocessing

            context = multiprocessing.get_context()
            parent_conn, child_conn = context.Pipe(duplex=True)
            process = context.Process(
                target=serve_solver,
                args=(child_conn, self._solver_factory, self._solver_kwargs),
                daemon=True,
                name="repro-solver-worker",
            )
            process.start()
            child_conn.close()
        except Exception:
            self.breaker.record_failure()
            return False
        self.attach(parent_conn, process)
        if self._spawned_once:
            self.respawns += 1
        self._spawned_once = True
        return True

    def kill(self) -> None:
        """Terminate the worker now (the chaos ``worker_kill`` hook).

        Terminates, joins and drops the pipe before returning, so the
        round in flight is never answered -- the caller's parent-side
        solver serves it -- and exactly one breaker failure is recorded,
        independent of how far the worker had got.
        """
        if self._conn is not None:
            self._fail()

    def _fail(self) -> None:
        """Record a process-level failure (death, broken pipe) and detach."""
        self.breaker.record_failure()
        self._teardown()

    def _teardown(self) -> None:
        conn, process = self._conn, self.process
        self.attach(None, None)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        if process is not None:
            if process.is_alive():
                process.terminate()
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.kill()
                process.join(timeout=1.0)

    def close(self) -> None:
        """Shut the worker down gracefully; idempotent.

        Safe when the worker already died: the shutdown send is
        best-effort and joining a dead process is a no-op.
        """
        if self._conn is not None:
            try:
                self._conn.send(("shutdown",))
            except (BrokenPipeError, OSError):
                pass
        if self.process is not None:
            self.process.join(timeout=2.0)
        self._teardown()

    # ------------------------------------------------------------------ #
    # Per-round transport
    # ------------------------------------------------------------------ #
    def begin_round(self, changes: Optional[ChangeBatch]) -> None:
        """Advance the breaker's round clock, remember the round's batch
        and take the counter baseline for :meth:`stamp_round`.

        Call once per round whether or not the round ships: the rounds
        solved without the worker are exactly the ones whose batches a
        later resync has to compose.
        """
        self.breaker.note_round()
        if changes is not None:
            self._cache.record(changes)
        self._round_start = (self.respawns, self.snapshot_ships, self.delta_ships)

    def stamp_round(self, stats: SolverStatistics) -> None:
        """Surface the round's breaker state, respawns and ships on its
        result's statistics (at most one of the two ship counters is 1)."""
        respawns, snapshot_ships, delta_ships = self._round_start
        stats.breaker_open = 0 if self.breaker.is_closed else 1
        stats.worker_respawns += self.respawns - respawns
        stats.snapshot_ships = self.snapshot_ships - snapshot_ships
        stats.delta_ships = self.delta_ships - delta_ships

    def ship(
        self,
        network: FlowNetwork,
        changes: Optional[ChangeBatch],
        chaos=None,
        chaos_round: int = 0,
    ) -> Optional[int]:
        """Send the round to the worker; return its round id.

        ``None`` means the worker takes no part in this round: none could
        be spawned, it still owes an answer to an abandoned round (see the
        deadlock note in the module docstring; the revision-chain cache
        lets the *next* shipped round resync it with a delta), the send
        failed, or chaos killed it.
        """
        if not self.ensure():
            return None
        if self._unanswered:
            self.skipped_rounds += 1
            return None
        self._round_id += 1
        round_id = self._round_id
        message, shipped_revision, resync = self._encode(round_id, network, changes)
        try:
            if chaos is not None:
                message = self._apply_send_chaos(chaos, chaos_round, message)
            self._conn.send(message)
        except (BrokenPipeError, OSError):
            self._fail()
            return None
        # Yield the timeslice so the worker starts at once: free on a
        # multi-core box, and on a shared core it stops the parent from
        # sitting on the CPU for a full scheduling quantum first.
        if hasattr(os, "sched_yield"):
            os.sched_yield()
        self._unanswered.add(round_id)
        self._worker_revision = shipped_revision
        if message[0] == "full":
            self.snapshot_ships += 1
        else:
            self.delta_ships += 1
            self.resync_ships += resync
        if chaos is not None and chaos.fires("worker_kill", chaos_round):
            self.kill()
            return None
        return round_id

    def _apply_send_chaos(self, chaos, chaos_round: int, message: tuple) -> tuple:
        """Deliver this round's send-path faults just before the ship.

        ``pipe_break`` closes the transport out from under the send (the
        caller's ``conn.send`` raises exactly like a real broken pipe);
        ``corrupt_message`` appends garbage to the DIMACS text so the
        worker's parser rejects it (exercising the error-reply + full
        resnapshot path); ``worker_delay`` slips a sleep request in front
        of the round so the worker answers late.
        """
        if chaos.fires("pipe_break", chaos_round):
            self._conn.close()
            return message
        if chaos.fires("corrupt_message", chaos_round):
            message = message[:2] + (message[2] + "\nthis is not DIMACS\n",) + message[3:]
        if chaos.fires("worker_delay", chaos_round):
            self._conn.send(("chaos_delay", chaos.delay_seconds))
        return message

    def _encode(
        self, round_id: int, network: FlowNetwork, changes: Optional[ChangeBatch]
    ) -> Tuple[tuple, Optional[int], int]:
        """Serialize the round: a delta whenever the revision chain connects.

        Returns ``(message, shipped_revision, resync)``.  An incremental
        payload is legal when the cache can compose the recorded batches
        from the exact revision the worker's shadow mirrors to the round's
        target revision -- directly chained is a one-batch composition,
        anything longer a resync (``resync == 1``).  Everything else ships
        a full snapshot.
        """
        # Only a revision-*tracked* round may ship incrementally: without a
        # batch whose revisions vouch for the graph's lineage, two
        # different networks could share a revision number (hand-built
        # networks default to 0) and an "empty delta" would make the
        # worker solve its stale shadow as if it were the new problem.
        worker_revision = self._worker_revision
        if (
            worker_revision is not None
            and changes is not None
            and changes.base_revision is not None
            and changes.target_revision is not None
        ):
            target = changes.target_revision
            composed = self._cache.compose(
                worker_revision,
                target,
                max_changes=RESYNC_MAX_SNAPSHOT_MULTIPLE
                * (network.num_arcs + network.num_nodes),
            )
            if composed is not None:
                try:
                    text = write_incremental(
                        composed, base_revision=worker_revision, target_revision=target
                    )
                except (ValueError, TypeError):
                    pass  # e.g. a NodeAddition without an explicit node id
                else:
                    message = ("delta", round_id, text, worker_revision, target)
                    return message, target, int(worker_revision != changes.base_revision)
        # A snapshot (of a graph: of its copy) still stamps the network's
        # own revision, so the next *tracked* round can chain onto it.
        if isinstance(network, FlowGraph):
            network = network.copy()
        text = write_dimacs(network, include_node_types=False)
        revision = getattr(network, "revision", None)
        return ("full", round_id, text, revision), revision, 0

    def poll(self, round_id: Optional[int]) -> bool:
        """Drain the pipe without blocking; True once ``round_id`` answered.

        Replies to other (abandoned) rounds are discarded; any error reply
        means the worker dropped its shadow, so the next ship is a full
        snapshot.  A truthy return leaves the round's reply in
        :attr:`result`; ``poll(None)`` just drains.
        """
        if round_id is not None and self._result_round == round_id:
            return True
        conn = self._conn
        if conn is None:
            return False
        try:
            while conn.poll(0):
                kind, answered, body = conn.recv()
                self._unanswered.discard(answered)
                if kind == "error":
                    self._worker_revision = None
                elif answered == round_id:
                    self.result = decode_result(body)
                    self._result_round = round_id
                    return True
        except (EOFError, OSError):
            self._fail()
        return False

    def wait(self, round_id: int, timeout: float) -> bool:
        """Block up to ``timeout`` seconds for ``round_id``'s result.

        False on timeout (the round stays unanswered, keeping the next
        ship away until the worker drains it), on an error reply, and on
        a broken pipe.
        """
        deadline = time.monotonic() + timeout
        while not self.poll(round_id):
            # An error reply answered the round; a broken pipe cleared it.
            if round_id not in self._unanswered or not self._pause(deadline):
                return False
        return True

    def _pause(self, deadline: float) -> bool:
        """Sleep on the pipe until data or ``deadline``; False once past it."""
        remaining = deadline - time.monotonic()
        if remaining <= 0 or self._conn is None:
            return False
        try:
            self._conn.poll(min(remaining, 0.05))
        except (EOFError, OSError):
            self._fail()
            return False
        return True

    def settle(self) -> None:
        """End-of-round health bookkeeping for a round that shipped.

        A shipped round that ended with the pipe intact re-closes the
        breaker and resets its failure count (the worker need not have
        answered yet -- abandoned rounds count).  Failures are recorded
        where they are found and detach the worker, so one bad round can
        never count twice against the breaker's threshold.
        """
        if self._conn is not None:
            self.breaker.record_success()
