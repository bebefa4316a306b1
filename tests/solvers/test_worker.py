"""The worker transport (`repro.solvers.worker`): against real subprocesses,
and on an in-process stand-in connection for the reply bookkeeping."""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.chaos import ChaosPolicy
from repro.flow.changes import ChangeBatch
from repro.solvers.base import SolverResult, SolverStatistics
from repro.solvers.incremental import IncrementalCostScalingSolver
from repro.solvers.relaxation import RelaxationSolver
from repro.solvers.worker import WorkerClient
from repro.solvers.worker_health import BREAKER_OPEN, WorkerCircuitBreaker
from tests.conftest import build_scheduling_network, reference_min_cost
from tests.solvers.round_helpers import _InstantWorkerConn, perturbed_rounds


def every_counter_set() -> SolverStatistics:
    """Statistics with every field moved off its default."""
    stats = SolverStatistics()
    for index, field in enumerate(dataclasses.fields(stats), start=1):
        default = getattr(stats, field.name)
        if isinstance(default, bool):
            value = True
        elif isinstance(default, float):
            value = default + index + 0.5
        else:
            value = default + index
        setattr(stats, field.name, value)
    return stats


class StubSolver:
    """Returns a fixed result carrying :func:`every_counter_set`."""

    def solve(self, network, changes=None) -> SolverResult:
        return SolverResult(
            algorithm="stub",
            total_cost=7,
            flows={(1, 2): 3},
            potentials={1: -4},
            runtime_seconds=0.25,
            statistics=every_counter_set(),
            optimal=False,
        )


def test_every_statistics_field_crosses_the_pipe():
    expected = StubSolver().solve(None)
    defaults = SolverStatistics()
    for field in dataclasses.fields(defaults):
        assert getattr(expected.statistics, field.name) != getattr(
            defaults, field.name
        ), f"{field.name} left at its default: the round trip would not test it"
    client = WorkerClient(StubSolver)
    try:
        round_id = client.ship(build_scheduling_network(seed=70, num_tasks=4), None)
        assert round_id is not None and client.wait(round_id, 10.0)
        assert client.result == expected
    finally:
        client.close()


@pytest.mark.parametrize(
    "solver_factory", [RelaxationSolver, IncrementalCostScalingSolver]
)
def test_transport_full_delta_resync_error_and_stale(solver_factory):
    rounds = list(perturbed_rounds(seed=71, rounds=6))
    chaos = ChaosPolicy(schedule={"corrupt_message": [4]})
    client = WorkerClient(solver_factory)

    def solve(index, **chaos_kwargs):
        network, changes, _ = rounds[index]
        client.begin_round(changes)
        round_id = client.ship(network, changes, **chaos_kwargs)
        assert round_id is not None
        return round_id

    def ships():
        return client.snapshot_ships, client.delta_ships, client.resync_ships

    try:
        # Cold start: a full snapshot.
        assert client.wait(solve(0), 10.0)
        assert client.result.total_cost == rounds[0][2]
        assert ships() == (1, 0, 0)
        # The pipe carries values: a persistent solver's lazy potentials
        # view is materialised by the worker, not pickled with its residual.
        assert type(client.result.potentials) is dict
        assert set(client.result.potentials) == set(rounds[0][0].node_ids())

        # Directly chained round: a delta.
        assert client.wait(solve(1), 10.0)
        assert client.result.total_cost == rounds[1][2]
        assert ships() == (1, 1, 0)

        # Round 2 is solved without the worker; round 3 bridges the gap
        # with one composed delta instead of a snapshot.
        client.begin_round(rounds[2][1])
        assert client.wait(solve(3), 10.0)
        assert client.result.total_cost == rounds[3][2]
        assert ships() == (1, 2, 1)

        # A corrupted payload is answered with an error (the worker dropped
        # its shadow), so the next ship is a snapshot again.
        corrupted = solve(4, chaos=chaos, chaos_round=4)
        assert client.wait(corrupted, 10.0) is False
        assert chaos.injected.get("corrupt_message") == 1
        assert client.alive and client.breaker.failures == 0
        abandoned = solve(5)
        assert ships() == (2, 3, 1)

        # The reply to an abandoned round is discarded, never mistaken for
        # a later round's: the answered-up guard skips ships until the
        # worker has answered it, and the ship that goes drains it first.
        deadline = time.monotonic() + 10.0
        while (next_round := client.ship(rounds[0][0], None)) is None:
            assert time.monotonic() < deadline, "the worker never answered"
            time.sleep(0.01)
        assert client.wait(next_round, 10.0)
        assert client.result.total_cost == rounds[0][2]
        assert client.poll(abandoned) is False
    finally:
        client.close()
    assert not client.alive


def test_kill_is_synchronous_and_counts_one_failure():
    client = WorkerClient(RelaxationSolver)
    try:
        round_id = client.ship(build_scheduling_network(seed=72, num_tasks=4), None)
        process = client.process
        client.kill()
        assert not process.is_alive()
        assert not client.alive
        assert client.breaker.failures == 1
        # The killed round is never answered, and nothing is left owed.
        assert client.wait(round_id, 5.0) is False
        # The next round respawns behind the breaker's zero-round backoff.
        client.begin_round(None)
        assert client.ship(build_scheduling_network(seed=72, num_tasks=4), None)
        assert client.respawns == 1
        assert client.skipped_rounds == 0
    finally:
        client.close()


def test_pipe_break_during_a_delta_ship_respawns_with_a_snapshot():
    rounds = list(perturbed_rounds(seed=61, rounds=3))
    chaos = ChaosPolicy(schedule={"pipe_break": [2]})
    client = WorkerClient(IncrementalCostScalingSolver)
    try:
        for index, (network, changes, expected) in enumerate(rounds):
            client.begin_round(changes)
            round_id = client.ship(network, changes, chaos, index)
            if index == 2:
                # Round 2 chains, so its payload is a delta; the break hits
                # that send, the worker is detached, and the caller's own
                # solver serves the round.
                assert round_id is None
                assert not client.alive and client.breaker.failures == 1
                continue
            assert client.wait(round_id, 10.0)
            client.settle()
            assert client.result.total_cost == expected
        assert chaos.injected.get("pipe_break") == 1
        # The respawned worker has no shadow: round 3 ships a snapshot.
        assert (client.snapshot_ships, client.delta_ships) == (2, 1)
        assert client.respawns == 1
        assert client.breaker.is_closed and client.breaker.consecutive_failures == 0
    finally:
        client.close()


def shipped_client():
    """A client on a stand-in connection with round 1 shipped and answered."""
    conn = _InstantWorkerConn()
    client = WorkerClient(RelaxationSolver)
    client.attach(conn)
    assert client.ship(build_scheduling_network(seed=58, num_tasks=4), None) == 1
    return client, conn


class TestRoundReplies:
    def test_stale_responses_are_discarded(self):
        client, conn = shipped_client()
        # A stale response to an abandoned round sits in front of the
        # current round's.
        conn.responses.appendleft(("result", 0, {}))
        body = conn.responses[-1][2]
        assert client.poll(1) is True
        assert client.result.total_cost == body["total_cost"]
        assert not conn.responses
        # Nothing is owed any more: the next round ships.
        assert client.ship(build_scheduling_network(seed=59, num_tasks=4), None) == 2

    def test_worker_error_reply_answers_the_round(self):
        client, conn = shipped_client()
        conn.responses.clear()
        conn.responses.append(("error", 1, "InfeasibleProblemError: nope"))
        assert client.poll(1) is False
        # The error answered the round: waiting for it must not block, and
        # the next round ships -- a full snapshot, as the worker dropped
        # its shadow.
        assert client.wait(1, 5.0) is False
        assert client.ship(build_scheduling_network(seed=59, num_tasks=4), None) == 2
        assert client.snapshot_ships == 2

    def test_wait_times_out_and_the_round_stays_owed(self):
        client, conn = shipped_client()
        conn.responses.clear()
        start = time.perf_counter()
        assert client.wait(1, 0.05) is False
        assert time.perf_counter() - start < 2.0
        # The worker still owes round 1, so the next ship is skipped.
        assert client.ship(build_scheduling_network(seed=59, num_tasks=4), None) is None
        assert client.skipped_rounds == 1


class TestLifecycle:
    """Spawn, death, respawn and shutdown of the one worker a client owns."""

    def test_close_terminates_worker_and_is_idempotent(self):
        client = WorkerClient(RelaxationSolver)
        round_id = client.ship(build_scheduling_network(seed=47), None)
        assert client.wait(round_id, 10.0)
        process = client.process
        assert process is not None and process.is_alive()
        client.close()
        assert not process.is_alive()
        assert not client.alive
        client.close()  # idempotent

    def test_close_with_an_already_dead_worker(self):
        client = WorkerClient(RelaxationSolver)
        client.ship(build_scheduling_network(seed=63), None)
        client.process.terminate()
        client.process.join(timeout=5.0)
        client.close()  # must not raise on the dead pipe
        client.close()  # and stays idempotent
        assert not client.alive

    def test_worker_death_between_rounds_respawns_transparently(self):
        network = build_scheduling_network(seed=48, num_tasks=8)
        expected = reference_min_cost(network)
        client = WorkerClient(RelaxationSolver)
        try:
            for deaths in range(3):
                client.begin_round(None)
                round_id = client.ship(network, None)
                assert round_id is not None, f"death {deaths} was not respawned"
                assert client.wait(round_id, 10.0)
                client.settle()
                assert client.result.total_cost == expected
                assert client.respawns == deaths
                # An isolated death: the breaker backs it off zero rounds,
                # and the served round in between reset the count.
                assert client.breaker.is_closed
                assert client.breaker.consecutive_failures == 0
                client.process.terminate()
                client.process.join(timeout=5.0)
            # A respawned worker has no shadow: every ship was a snapshot.
            assert client.snapshot_ships == 3
        finally:
            client.close()

    def test_breaker_trips_open_then_a_probe_respawns(self, monkeypatch):
        import multiprocessing

        real_get_context = multiprocessing.get_context
        broken = {"on": True}

        def flaky_get_context(*args, **kwargs):
            if broken["on"]:
                raise OSError("spawn refused")
            return real_get_context(*args, **kwargs)

        monkeypatch.setattr(multiprocessing, "get_context", flaky_get_context)
        breaker = WorkerCircuitBreaker(failure_threshold=1, probe_interval_rounds=2)
        client = WorkerClient(RelaxationSolver, breaker=breaker)
        network = build_scheduling_network(seed=62, num_tasks=8)
        try:
            # Round 1: the spawn fails and the breaker (threshold 1) opens;
            # the caller serves the round itself.
            client.begin_round(None)
            assert client.ship(network, None) is None
            assert breaker.state == BREAKER_OPEN
            stats = SolverStatistics()
            client.stamp_round(stats)
            assert stats.breaker_open == 1

            # Round 2: still open and not yet the probe window -- no spawn
            # attempt is burned.
            client.begin_round(None)
            assert client.ship(network, None) is None
            assert breaker.probes == 0

            # Round 3: the probe window.  The environment recovered, the
            # probe spawns, and the served round re-closes the breaker.
            broken["on"] = False
            client.begin_round(None)
            round_id = client.ship(network, None)
            assert round_id is not None
            assert client.wait(round_id, 10.0)
            client.settle()
            assert client.result.total_cost == reference_min_cost(network)
            assert breaker.is_closed
            assert (breaker.trips, breaker.probes, breaker.reclosures) == (1, 1, 1)
            # The first worker that ever ran is not a respawn.
            assert client.respawns == 0
        finally:
            client.close()

    def test_no_process_support_declines_every_ship(self, monkeypatch):
        import multiprocessing

        def broken_get_context(*args, **kwargs):
            raise OSError("no process support in this environment")

        monkeypatch.setattr(multiprocessing, "get_context", broken_get_context)
        client = WorkerClient(RelaxationSolver)
        network = build_scheduling_network(seed=49, num_tasks=8)
        for _ in range(4):
            client.begin_round(None)
            assert client.ship(network, None) is None
            assert not client.alive
        assert client.breaker.failures >= 1
        assert (client.snapshot_ships, client.delta_ships) == (0, 0)
        client.close()  # nothing to shut down


class TestPayloads:
    def test_equal_revision_hand_built_networks_both_ship_full(self):
        """Two unrelated networks sharing the default revision must not be
        bridged by an empty delta: without a revision-chained batch the
        worker's shadow lineage is unproven and the round ships full."""
        net_a = build_scheduling_network(seed=101, num_tasks=8)
        net_b = build_scheduling_network(seed=202, num_tasks=12)
        assert net_a.revision == net_b.revision
        client = WorkerClient(IncrementalCostScalingSolver)
        try:
            for network in (net_a, net_b):
                client.begin_round(None)
                round_id = client.ship(network, None)
                assert client.wait(round_id, 10.0)
                assert client.result.total_cost == reference_min_cost(network)
            assert (client.snapshot_ships, client.delta_ships) == (2, 0)
        finally:
            client.close()

    def test_chaos_worker_kill_after_the_send_leaves_the_round_to_the_caller(self):
        rounds = list(perturbed_rounds(seed=60, rounds=3))
        chaos = ChaosPolicy(schedule={"worker_kill": [1]})
        client = WorkerClient(IncrementalCostScalingSolver)
        try:
            for index, (network, changes, expected) in enumerate(rounds):
                client.begin_round(changes)
                round_id = client.ship(network, changes, chaos, index)
                if index == 1:
                    # The payload went out, then the worker was killed: the
                    # round is never answered and counts one failure.
                    assert round_id is None
                    assert not client.alive and client.breaker.failures == 1
                    continue
                assert client.wait(round_id, 10.0)
                client.settle()
                assert client.result.total_cost == expected
            assert chaos.injected.get("worker_kill") == 1
            # Cold start, the killed round's delta, the respawn's snapshot
            # and a delta chained onto it.
            assert (client.snapshot_ships, client.delta_ships) == (2, 2)
            assert client.respawns == 1
            assert client.breaker.is_closed
        finally:
            client.close()

    def test_a_late_worker_skips_a_round_and_a_resync_bridges_it(self):
        rounds = list(perturbed_rounds(seed=74, rounds=4))
        chaos = ChaosPolicy(schedule={"worker_delay": [1]}, delay_seconds=0.5)
        client = WorkerClient(IncrementalCostScalingSolver)
        try:
            network, changes, expected = rounds[0]
            client.begin_round(changes)
            assert client.wait(client.ship(network, changes), 10.0)
            # Round 1 is answered late: the caller gives up on it.
            network, changes, _ = rounds[1]
            client.begin_round(changes)
            late = client.ship(network, changes, chaos, 1)
            assert client.wait(late, 0.05) is False
            # Round 2: the worker still owes round 1, so nothing ships.
            network, changes, _ = rounds[2]
            client.begin_round(changes)
            assert client.ship(network, changes) is None
            assert client.skipped_rounds == 1
            # Once it has answered, round 3 ships a delta composed from the
            # revision its shadow mirrors, over the round it sat out.
            assert client.wait(late, 10.0)
            network, changes, expected = rounds[3]
            client.begin_round(changes)
            round_id = client.ship(network, changes)
            assert client.wait(round_id, 10.0)
            assert client.result.total_cost == expected
            assert (client.snapshot_ships, client.delta_ships) == (1, 2)
            assert client.resync_ships == 1
        finally:
            client.close()

    def test_stamp_round_reports_only_the_rounds_own_ships(self):
        rounds = list(perturbed_rounds(seed=75, rounds=2))
        client = WorkerClient(IncrementalCostScalingSolver)
        stamps = []
        try:
            for network, changes, _ in rounds:
                client.begin_round(changes)
                assert client.wait(client.ship(network, changes), 10.0)
                client.settle()
                stats = SolverStatistics()
                client.stamp_round(stats)
                stamps.append(
                    (stats.snapshot_ships, stats.delta_ships, stats.breaker_open)
                )
        finally:
            client.close()
        assert stamps == [(1, 0, 0), (0, 1, 0), (0, 1, 0)]

    def test_a_churn_heavy_gap_ships_a_snapshot_instead_of_a_resync(self):
        rounds = list(perturbed_rounds(seed=76, rounds=2))
        first, second = rounds[0][0], rounds[1][0]
        # A sat-out round whose batch rewrites the same arcs over and over:
        # far longer than the snapshot it would stand in for.
        storm = list(rounds[1][1]) * (
            3 * (second.num_arcs + second.num_nodes) // max(len(rounds[1][1]), 1)
        )
        skipped = ChangeBatch(storm, first.revision, second.revision)
        assert len(skipped) > 2 * (second.num_arcs + second.num_nodes)
        client = WorkerClient(IncrementalCostScalingSolver)
        try:
            client.begin_round(None)
            assert client.wait(client.ship(first, None), 10.0)
            client.begin_round(skipped)  # served without the worker
            network, changes, expected = rounds[2]
            client.begin_round(changes)
            assert client.wait(client.ship(network, changes), 10.0)
            assert client.result.total_cost == expected
            assert (client.snapshot_ships, client.delta_ships) == (2, 0)
            assert client.resync_ships == 0
        finally:
            client.close()
