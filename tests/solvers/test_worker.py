"""The worker transport (`repro.solvers.worker`) against real subprocesses."""

from __future__ import annotations

import dataclasses

import pytest

from repro.chaos import ChaosPolicy
from repro.solvers.base import SolverResult, SolverStatistics
from repro.solvers.incremental import IncrementalCostScalingSolver
from repro.solvers.relaxation import RelaxationSolver
from repro.solvers.worker import WorkerClient
from tests.conftest import build_scheduling_network
from tests.solvers.test_parallel_executor import perturbed_rounds


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
        # a later round's.
        assert client.wait_idle(10.0)
        assert client.poll(abandoned) is False
        assert client.wait(solve(0), 10.0)
        assert client.result.total_cost == rounds[0][2]
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
        # The killed round is never answered, and nothing is left to wait on.
        assert client.wait(round_id, 5.0) is False
        assert client.wait_idle(0.0)
        # The next round respawns behind the breaker's zero-round backoff.
        client.begin_round(None)
        assert client.ship(build_scheduling_network(seed=72, num_tasks=4), None)
        assert client.respawns == 1
    finally:
        client.close()
