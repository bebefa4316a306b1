"""Fuzzed epsilon-optimality invariant suite for the price-refine variants.

Cost scaling's correctness hangs on one state invariant: whenever the
solver believes its potentials prove (epsilon-)optimality, no residual arc
with remaining capacity may have reduced cost below ``-epsilon``.  Every
refine, price-refine, and repair step claims to establish or preserve it,
and a silent violation surfaces only rounds later as a wrong optimum --
the hardest kind of bug to attribute.  In the spirit of state-invariant
checking for debugging complex systems (Xiang et al., OSDI operational
debugging literature), this suite makes the invariant *continuously
enforced* under fuzzing: an instrumented solver asserts epsilon-optimality
after every internal step, across randomized graphs and multi-round change
batches, for every price-refine variant.

Covered:

* ``price_refine_spfa`` and ``price_refine_dijkstra`` agree on whether the
  flow is optimal, and both leave 0-optimal potentials on success and
  untouched potentials on failure.
* The instrumented :class:`CostScalingSolver` (epsilon asserted after every
  ``_refine`` phase, price refine, and warm repair) solves fuzzed networks
  from scratch and via warm handoffs.
* The incremental solver's *persistence contract*: after every multi-round
  delta/warm solve the retained residual is 0-optimal -- the precondition
  the next round's ``solve_delta`` builds on.
"""

from __future__ import annotations

import random

import pytest

from repro.flow.changes import ChangeBatch
from repro.flow.validation import (
    assert_epsilon_optimal,
    check_residual_epsilon_optimality,
)
from repro.solvers import (
    IncrementalCostScalingSolver,
    RelaxationSolver,
)
from repro.solvers.base import SolverStatistics
from repro.solvers.cost_scaling import (
    PRICE_REFINE_MODES,
    CostScalingSolver,
    price_refine_dijkstra,
    price_refine_spfa,
)
from repro.solvers.residual import ResidualNetwork
from tests.conftest import reference_min_cost
from tests.solvers.equivalence_harness import generate_network, perturb_network

VARIANTS = ("spfa", "dijkstra")

#: Fuzz seeds for the function-level and solver-level sweeps.
SEEDS = range(12)


class InvariantChecks:
    """Mixin for either cost-scaling class: the epsilon-optimality
    invariant asserted after every internal step that claims to establish
    or preserve it."""

    def _refine(self, residual, epsilon, stats):
        super()._refine(residual, epsilon, stats)
        assert_epsilon_optimal(residual, epsilon)

    def _price_refine(self, residual, stats, seed_arcs=None):
        ok = super()._price_refine(residual, stats, seed_arcs=seed_arcs)
        if ok:
            assert_epsilon_optimal(residual, 0)
        return ok

    def _repair_warm_solution(self, residual, stats):
        super()._repair_warm_solution(residual, stats)
        assert_epsilon_optimal(residual, 0)

    def _route_excesses(self, residual, stats, sources):
        super()._route_excesses(residual, stats, sources)
        assert_epsilon_optimal(residual, 0)


class InvariantCheckingSolver(InvariantChecks, CostScalingSolver):
    """From-scratch and warm-started cost scaling, invariant-checked."""


class InvariantCheckingIncrementalSolver(InvariantChecks, IncrementalCostScalingSolver):
    """Delta / warm / cold incremental cost scaling, invariant-checked."""


def build_warm_residual(network, flows) -> ResidualNetwork:
    """Build a scaled residual carrying ``flows``, zero potentials."""
    residual = ResidualNetwork(network, flows=flows)
    residual.scale_costs(residual.num_nodes + 1)
    return residual


# --------------------------------------------------------------------- #
# Function-level equivalence of the two variants
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", SEEDS)
def test_variants_agree_and_leave_zero_optimal_potentials(seed):
    """Both variants detect optimality identically; success => 0-optimal."""
    rng = random.Random(seed)
    network = generate_network(rng)
    flows = RelaxationSolver().solve(network.copy()).flows

    spfa_residual = build_warm_residual(network, flows)
    dijkstra_residual = build_warm_residual(network, flows)

    stats = SolverStatistics()
    ok_spfa = price_refine_spfa(spfa_residual, stats=stats)
    ok_dijkstra = price_refine_dijkstra(dijkstra_residual, stats=stats)
    assert ok_spfa and ok_dijkstra, (
        f"seed {seed}: refine rejected an optimal relaxation flow "
        f"(spfa={ok_spfa}, dijkstra={ok_dijkstra})"
    )
    assert_epsilon_optimal(spfa_residual, 0)
    assert_epsilon_optimal(dijkstra_residual, 0)
    assert stats.price_refine_passes > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_refine_repairs_only_violations(seed):
    """Seeding from near-valid potentials restores 0-optimality."""
    rng = random.Random(seed)
    network = generate_network(rng)
    result = RelaxationSolver().solve(network.copy())

    residual = build_warm_residual(network, result.flows)
    # Relaxation's potentials are exact under scaling: load them and then
    # perturb a few nodes so a bounded violation set appears.
    residual.load_potentials(result.potentials)
    scale = residual.cost_scale
    for i in range(residual.num_nodes):
        residual.potential[i] *= scale
    indices = rng.sample(range(residual.num_nodes), min(3, residual.num_nodes))
    for i in indices:
        residual.potential[i] += rng.randint(1, 4) * scale

    worst, violated = CostScalingSolver()._scan_violations(residual)
    ok = price_refine_dijkstra(residual, seed_arcs=violated)
    assert ok, f"seed {seed}: seeded refine rejected an optimal flow"
    assert_epsilon_optimal(residual, 0)


def test_dijkstra_detects_negative_cycle_and_leaves_potentials_untouched():
    """A residual with a negative cycle is rejected without side effects."""
    from repro.flow.graph import FlowNetwork, NodeType

    network = FlowNetwork()
    a = network.add_node(NodeType.TASK, supply=0, name="a")
    b = network.add_node(NodeType.MACHINE, name="b")
    network.add_arc(a.node_id, b.node_id, 1, -5)
    network.add_arc(b.node_id, a.node_id, 1, 2)
    residual = ResidualNetwork(network)
    before = list(residual.potential)
    assert not price_refine_dijkstra(residual)
    assert list(residual.potential) == before
    assert not price_refine_spfa(residual)
    assert list(residual.potential) == before


def test_dijkstra_pop_budget_gives_up_without_side_effects():
    """An exhausted ``max_pops`` budget returns False, potentials intact."""
    rng = random.Random(3)
    network = generate_network(rng)
    flows = RelaxationSolver().solve(network.copy()).flows
    residual = build_warm_residual(network, flows)
    before = list(residual.potential)
    assert not price_refine_dijkstra(residual, max_pops=1)
    assert list(residual.potential) == before
    # Without the budget the same refine succeeds.
    assert price_refine_dijkstra(residual)
    assert_epsilon_optimal(residual, 0)


def test_empty_network_both_variants():
    from repro.flow.graph import FlowNetwork

    assert price_refine_spfa(ResidualNetwork(FlowNetwork()))
    assert price_refine_dijkstra(ResidualNetwork(FlowNetwork()))


# --------------------------------------------------------------------- #
# Solver-level: invariant asserted after every internal step
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("mode", PRICE_REFINE_MODES)
@pytest.mark.parametrize("seed", SEEDS)
def test_invariant_holds_through_multi_round_solves(seed, mode):
    """Fuzzed multi-round churn: every refine/price-refine/repair step of
    every round preserves epsilon-optimality, the retained residual honours
    the 0-optimality persistence contract, and costs match the oracle."""
    rng = random.Random(seed)
    network = generate_network(rng)
    solver = InvariantCheckingIncrementalSolver(price_refine=mode)

    changes = None
    for round_index in range(4):
        expected = reference_min_cost(network)
        result = solver.solve(network.copy(), changes=changes)
        assert result.total_cost == expected, (
            f"seed {seed} round {round_index} mode {mode}: cost "
            f"{result.total_cost} != oracle {expected}"
        )
        retained = solver.last_residual
        assert retained is not None
        assert_epsilon_optimal(retained, 0)
        network, changes = perturb_network(rng, network)


@pytest.mark.parametrize("mode", PRICE_REFINE_MODES)
def test_invariant_holds_through_relaxation_handoffs(mode):
    """Post-seed rounds (relaxation wins, cost scaling warm-starts from its
    flow and potentials) keep the invariant for every variant."""
    rng = random.Random(17)
    network = generate_network(rng)
    solver = InvariantCheckingIncrementalSolver(price_refine=mode)

    for round_index in range(3):
        relaxation = RelaxationSolver().solve(network.copy())
        solver.seed(relaxation.flows, relaxation.potentials)
        network, _ = perturb_network(rng, network)
        expected = reference_min_cost(network)
        result = solver.solve(network.copy(), changes=None)
        assert result.total_cost == expected
        retained = solver.last_residual
        assert retained is not None
        assert_epsilon_optimal(retained, 0)


@pytest.mark.parametrize("mode", PRICE_REFINE_MODES)
def test_invariant_holds_through_plain_cold_and_warm_solves(mode):
    """The plain solver under the same checks: a from-scratch ladder, then
    a warm start from a relaxation hand-off on a perturbed network."""
    rng = random.Random(19)
    network = generate_network(rng)
    solver = InvariantCheckingSolver(price_refine=mode)
    assert solver.solve(network.copy()).total_cost == reference_min_cost(network)
    relaxation = RelaxationSolver().solve(network.copy())
    network, _ = perturb_network(rng, network)
    warm = solver.solve_warm(network.copy(), relaxation.flows, relaxation.potentials)
    assert warm.total_cost == reference_min_cost(network)


def test_checker_reports_violations():
    """The checker itself flags a violated residual (it is not a no-op)."""
    rng = random.Random(5)
    network = generate_network(rng)
    residual = ResidualNetwork(network)
    # Skew the tail of the first residual arc (a forward arc with full
    # capacity) hard enough that its reduced cost must turn negative.
    residual.potential[residual.arc_from[0]] += 10_000
    problems = check_residual_epsilon_optimality(residual, 0)
    assert problems, "checker failed to flag a residual with skewed potentials"
    with pytest.raises(AssertionError):
        assert_epsilon_optimal(residual, 0)
