"""Fuzzed reduced-cost-optimality invariant suite for relaxation.

Relaxation's correctness hangs on one state invariant (Table 2 of the
paper): the pseudoflow satisfies *reduced-cost optimality* -- no residual
arc with remaining capacity has negative reduced cost -- before every
internal iteration.  Every dual ascent claims to preserve it (the ascent
delta is the minimum reduced cost leaving the tree) and every augmentation
pushes only along zero-reduced-cost arcs, so a silent violation surfaces
only later as a wrong optimum.  Mirroring the PR 4 epsilon-optimality
harness for cost scaling, this suite makes the invariant *continuously
enforced* under fuzzing:

* An instrumented :class:`RelaxationSolver` (via the solver's
  ``invariant_hook``) asserts reduced-cost optimality -- which for the
  maintained invariant is exactly complementary slackness of the
  pseudoflow -- after **every** dual ascent and augmentation, across
  randomized graphs, warm starts, and multi-round revision-chained change
  batches.
* The typed-array rewrite is pinned against the **old dict/deque-based
  implementation** (embedded below as the reference): both must agree with
  the oracle cost on the equivalence-harness graphs.
* The persistent-residual hand-off is pinned structurally: a patched
  residual must be arc-for-arc equivalent to one freshly built from the
  updated network.
* The worker resync path is pinned against the full-snapshot path: across
  forced chain breaks, a shadow network brought up to date by the
  composed incremental payload must equal the freshly parsed snapshot,
  and a worker-mode sharded cell must ship *no* full snapshot after the
  cold start on a chained replay whose worker sat rounds out.
"""

from __future__ import annotations

import random
import time
from collections import deque

import pytest

from repro.flow.changes import ChangeBatch
from repro.flow.dimacs import read_dimacs, read_incremental, write_dimacs, write_incremental
from repro.flow.graph import FlowNetwork
from repro.flow.validation import assert_epsilon_optimal
from repro.chaos import ChaosPolicy
from repro.core import QuincyPolicy, ShardedScheduler
from repro.solvers import CostScalingSolver, RelaxationSolver, RevisionChainCache
from repro.solvers import worker as worker_module
from repro.solvers.base import InfeasibleProblemError
from repro.solvers.residual import ResidualNetwork
from tests.conftest import make_cluster_state, make_job, reference_min_cost
from tests.solvers.equivalence_harness import generate_network, perturb_network

#: Fuzz seeds for the instrumented and old-vs-new sweeps.
SEEDS = range(12)


# --------------------------------------------------------------------- #
# Reference: the pre-rewrite dict/deque relaxation implementation
# --------------------------------------------------------------------- #
class ReferenceRelaxationSolver:
    """The old implementation's algorithm, kept verbatim in spirit: fresh
    residual per solve, whole-tree re-traversal after every dual ascent.

    Deliberately independent of the production solver's internals so a bug
    in the rewrite cannot hide in shared code.
    """

    def solve_cost(self, network: FlowNetwork) -> int:
        residual = ResidualNetwork(network.copy())
        # Restore reduced-cost optimality (negative-cost test graphs).
        for arc_index in range(residual.num_arcs):
            if residual.arc_residual[arc_index] <= 0:
                continue
            if residual.reduced_cost(arc_index) < 0:
                residual.push(arc_index, residual.arc_residual[arc_index])
        max_cost = max(1, residual.max_cost())
        for source in range(residual.num_nodes):
            while residual.excess[source] > 0:
                self._route(residual, source, max_cost)
        return residual.total_cost()

    def _route(self, residual: ResidualNetwork, source: int, max_cost: int) -> None:
        n = residual.num_nodes
        in_tree = [False] * n
        pred_arc = [None] * n
        tree_nodes = [source]
        in_tree[source] = True
        frontier = deque([source])
        target = -1
        guard = 2 * n * max_cost + n + 16

        while target < 0:
            while frontier:
                u = frontier.popleft()
                for arc_index in residual.adjacency[u]:
                    if residual.arc_residual[arc_index] <= 0:
                        continue
                    v = residual.arc_to[arc_index]
                    if in_tree[v] or residual.reduced_cost(arc_index) != 0:
                        continue
                    in_tree[v] = True
                    pred_arc[v] = arc_index
                    tree_nodes.append(v)
                    if residual.excess[v] < 0:
                        target = v
                        break
                    frontier.append(v)
                if target >= 0:
                    break
            if target >= 0:
                break
            delta = None
            for u in tree_nodes:
                for arc_index in residual.adjacency[u]:
                    if residual.arc_residual[arc_index] <= 0:
                        continue
                    if in_tree[residual.arc_to[arc_index]]:
                        continue
                    rc = residual.reduced_cost(arc_index)
                    if delta is None or rc < delta:
                        delta = rc
            if delta is None:
                raise InfeasibleProblemError("no arc leaves the tree")
            for u in tree_nodes:
                residual.potential[u] += max(0, delta)
            guard -= 1
            if guard < 0:
                raise InfeasibleProblemError("ascent did not converge")
            frontier = deque(tree_nodes)

        amount = min(residual.excess[source], -residual.excess[target])
        node = target
        while node != source:
            arc_index = pred_arc[node]
            amount = min(amount, residual.arc_residual[arc_index])
            node = residual.arc_from[arc_index]
        node = target
        while node != source:
            arc_index = pred_arc[node]
            residual.push(arc_index, amount)
            node = residual.arc_from[arc_index]


def make_instrumented_solver(**kwargs) -> RelaxationSolver:
    """A relaxation solver asserting the invariant after every step."""
    solver = RelaxationSolver(**kwargs)

    def check(residual, event):
        assert_epsilon_optimal(residual, 0)

    solver.invariant_hook = check
    return solver


def assert_networks_structurally_equal(left: FlowNetwork, right: FlowNetwork) -> None:
    """Assert equal node sets/supplies and arc sets/capacities/costs."""
    left_nodes = {n.node_id: n.supply for n in left.nodes()}
    right_nodes = {n.node_id: n.supply for n in right.nodes()}
    assert left_nodes == right_nodes
    left_arcs = {a.key(): (a.capacity, a.cost) for a in left.arcs()}
    right_arcs = {a.key(): (a.capacity, a.cost) for a in right.arcs()}
    assert left_arcs == right_arcs


# --------------------------------------------------------------------- #
# Instrumented solver: invariant asserted after every ascent/augmentation
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
def test_invariant_holds_through_from_scratch_solves(seed):
    rng = random.Random(seed)
    network = generate_network(rng)
    solver = make_instrumented_solver()
    result = solver.solve(network.copy())
    assert result.total_cost == reference_min_cost(network)
    assert result.statistics.augmentations > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_invariant_holds_through_chained_delta_solves(seed):
    """Multi-round churn on the persistent residual keeps the invariant and
    the patched residual stays arc-for-arc equal to a fresh build."""
    rng = random.Random(seed)
    network = generate_network(rng)
    solver = make_instrumented_solver()
    changes = None
    for round_index in range(4):
        expected = reference_min_cost(network)
        result = solver.solve(network.copy(), changes=changes)
        assert result.total_cost == expected, (
            f"seed {seed} round {round_index}: cost {result.total_cost} "
            f"!= oracle {expected}"
        )
        problems = solver.last_residual.consistency_errors(network)
        assert not problems, f"seed {seed} round {round_index}: {problems}"
        network, changes = perturb_network(rng, network)
    assert solver.residual_reuses >= 1


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_invariant_holds_through_warm_starts(seed):
    rng = random.Random(seed)
    network = generate_network(rng)
    solver = make_instrumented_solver()
    first = solver.solve(network.copy())
    changed, _ = perturb_network(rng, network)
    expected = reference_min_cost(changed)
    warm = solver.solve_warm(changed.copy(), first.flows, first.potentials)
    assert warm.total_cost == expected


def test_hook_actually_fires():
    """The instrumentation is not a no-op: a broken invariant is caught."""
    rng = random.Random(1)
    network = generate_network(rng)
    solver = RelaxationSolver()
    events = []
    solver.invariant_hook = lambda residual, event: events.append(event)
    solver.solve(network.copy())
    assert "augment" in events


# --------------------------------------------------------------------- #
# Old-vs-new implementation equality
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
def test_rewrite_matches_old_implementation_cost(seed):
    rng = random.Random(seed)
    network = generate_network(rng)
    expected = reference_min_cost(network)
    old_cost = ReferenceRelaxationSolver().solve_cost(network)
    new_cost = RelaxationSolver().solve(network.copy()).total_cost
    assert old_cost == expected
    assert new_cost == expected


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_rewrite_matches_old_implementation_across_rounds(seed):
    rng = random.Random(seed)
    network = generate_network(rng)
    solver = RelaxationSolver()
    changes = None
    for _ in range(3):
        old_cost = ReferenceRelaxationSolver().solve_cost(network)
        new_cost = solver.solve(network.copy(), changes=changes).total_cost
        assert new_cost == old_cost
        network, changes = perturb_network(rng, network)


# --------------------------------------------------------------------- #
# Worker resync == full snapshot
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", range(6))
def test_resync_payload_reproduces_full_snapshot_state(seed):
    """Across forced chain breaks, applying the composed incremental
    payload to a stale shadow yields exactly the fresh snapshot's state --
    and the relaxation solve on either agrees with the oracle."""
    rng = random.Random(seed)
    network = generate_network(rng)

    # The worker's view: a shadow parsed from the cold-start snapshot.
    shadow = read_dimacs(write_dimacs(network, include_node_types=False))
    shadow.revision = network.revision
    worker_solver = RelaxationSolver()
    worker_solver.solve(shadow)

    cache = RevisionChainCache()
    for _ in range(4):  # chain break: none of these rounds are shipped
        network, batch = perturb_network(rng, network)
        cache.record(batch)

    base_revision = shadow.revision
    composed = cache.compose(base_revision, network.revision)
    assert composed is not None, "recorded chain must compose across the gap"
    text = write_incremental(
        composed, base_revision=base_revision, target_revision=network.revision
    )
    parsed = read_incremental(text)
    for change in parsed:
        change.apply(shadow)
    shadow.revision = network.revision

    fresh = read_dimacs(write_dimacs(network, include_node_types=False))
    assert_networks_structurally_equal(shadow, fresh)

    # Solve exactly as the worker does: hand the parsed payload over as a
    # revision-chained batch so the persistent residual is patched, then
    # check the answer against the oracle and the snapshot path.
    expected = reference_min_cost(network)
    resynced = worker_solver.solve(
        shadow,
        changes=ChangeBatch(
            changes=parsed,
            base_revision=base_revision,
            target_revision=network.revision,
        ),
    )
    assert resynced.total_cost == expected
    assert worker_solver.residual_reuses >= 1, "resync must patch, not rebuild"
    assert RelaxationSolver().solve(fresh).total_cost == expected


def test_revision_chain_cache_gaps_and_bounds(monkeypatch):
    monkeypatch.setattr(worker_module, "BATCH_HISTORY_LIMIT", 3)
    cache = RevisionChainCache()
    batches = []
    for base in range(1, 6):
        batch = ChangeBatch(base_revision=base, target_revision=base + 1)
        cache.record(batch)
        batches.append(batch)
    # Only the 3 most recent entries are retained.
    assert len(cache) == 3
    assert cache.compose(3, 6) == []  # batches 3->4->5->6 retained, all empty
    assert cache.compose(1, 6) is None  # 1->2 was evicted: gap
    assert cache.compose(4, 4) == []
    # Unrevisioned batches are not resyncable and must be ignored.
    cache.record(ChangeBatch(base_revision=None, target_revision=9))
    cache.record(ChangeBatch(base_revision=9, target_revision=None))
    assert len(cache) == 3


def test_forced_chain_breaks_ship_deltas_not_snapshots():
    """End to end on a worker-mode cell: a late worker breaks its chain --
    the gather gives up on round 2, round 3 finds the worker still owing
    round 2 and is served without it -- and the next round the worker
    takes part in must resync with an incremental payload, leaving the
    cold start as the only full DIMACS ship."""
    budget = 0.2
    chaos = ChaosPolicy(schedule={"worker_delay": [2]}, delay_seconds=0.6)
    # One cell: every worker-directed fault aims at it.  The budget bounds
    # the gather, so the delayed round is served by the parent.
    scheduler = ShardedScheduler(
        QuincyPolicy, num_cells=1, workers=True,
        round_deadline_seconds=budget, chaos=chaos,
    )
    state = make_cluster_state(num_machines=8)
    try:
        for round_index in range(6):
            if round_index == 4:
                # Let the late worker answer round 2 before round 4 ships.
                time.sleep(1.5)
            now = 5.0 * round_index
            state.submit_job(
                make_job(job_id=round_index + 1, num_tasks=2, submit_time=now)
            )
            decision = scheduler.schedule_and_apply(state, now)
            manager = scheduler._cells[0].manager
            optimum = CostScalingSolver().solve(manager.network.copy()).total_cost
            assert decision.total_cost == optimum, f"round {round_index}"
        assert chaos.injected.get("worker_delay") == 1
        client = scheduler.clients[0]
        transport = scheduler.cell_transport()[0]
        assert transport["fallback_rounds"] >= 2
        assert client.skipped_rounds >= 1
        assert client.snapshot_ships == 1, (
            "every post-cold-start ship must be incremental "
            f"(full={client.snapshot_ships}, delta={client.delta_ships})"
        )
        assert client.delta_ships >= 2
        assert client.resync_ships >= 1
    finally:
        scheduler.close()
