"""Round scripts and a pipe stand-in shared by the solver and chaos tests."""

from __future__ import annotations

from collections import deque

from repro.flow.changes import ChangeBatch
from repro.flow.dimacs import read_dimacs
from repro.solvers.relaxation import RelaxationSolver
from repro.solvers.worker import encode_result
from tests.conftest import build_scheduling_network, reference_min_cost


def perturbed_rounds(seed: int, rounds: int):
    """Yield ``(network, changes, expected_cost)`` rounds of small edits."""
    previous = build_scheduling_network(seed=seed, num_tasks=10)
    yield previous, None, reference_min_cost(previous)
    for index in range(rounds):
        network = previous.copy()
        arc = next(a for a in network.arcs() if a.cost > 0)
        network.set_arc_cost(arc.src, arc.dst, arc.cost + index + 1)
        network.revision = previous.revision + 1
        changes = ChangeBatch.diff(previous, network)
        changes.base_revision = previous.revision
        changes.target_revision = network.revision
        yield network, changes, reference_min_cost(network)
        previous = network


class _InstantWorkerConn:
    """Pipe stand-in whose 'worker' answers each request synchronously, so
    a :class:`~repro.solvers.worker.WorkerClient` attached to it can be
    driven without a subprocess."""

    def __init__(self):
        self.responses = deque()
        self.requests = 0

    def send(self, message):
        kind, round_id, text = message[0], message[1], message[2]
        assert kind == "full"  # no revision chain exists in these tests
        self.requests += 1
        body = encode_result(RelaxationSolver().solve(read_dimacs(text)))
        self.responses.append(("result", round_id, body))

    def poll(self, timeout=0):
        return bool(self.responses)

    def recv(self):
        return self.responses.popleft()

    def close(self):
        pass
