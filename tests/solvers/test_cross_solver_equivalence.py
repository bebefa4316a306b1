"""Randomized cross-solver equivalence suite.

Every MCMF implementation in the repository must agree on the optimal cost
of every network: the four from-scratch algorithms, the incremental
cost-scaling solver fed typed change batches across rounds, and the
speculative dual executor (which races only the rounds that do not chain).
A seeded generator fuzzes graph shapes -- sizes, capacities, negative
costs, and multi-round change batches -- so divergence introduced anywhere
in the solver stack (delta patching, warm starts, the executor's leg
selection and write-back) surfaces as a cost mismatch here.

Tier-1 runs a few dozen seeds on small graphs; the larger randomized sweep
lives in ``benchmarks/bench_equivalence_sweep.py`` (marked ``benchmark``).
"""

from __future__ import annotations

import random

import pytest

from repro.flow.validation import check_feasibility
from repro.solvers import (
    CostScalingSolver,
    CycleCancelingSolver,
    DualAlgorithmExecutor,
    IncrementalCostScalingSolver,
    RelaxationSolver,
    SuccessiveShortestPathSolver,
)
from tests.conftest import reference_min_cost
from tests.solvers.equivalence_harness import generate_network, perturb_network

#: Tier-1 seed set: dozens of fuzzed networks, three rounds of changes each.
TIER1_SEEDS = range(24)


def scratch_costs(network):
    """Optimal cost according to every from-scratch algorithm."""
    return {
        "cost_scaling": CostScalingSolver().solve(network.copy()).total_cost,
        "cost_scaling_dijkstra_refine": CostScalingSolver(
            polish_potentials=True, price_refine="dijkstra"
        ).solve(network.copy()).total_cost,
        "relaxation": RelaxationSolver().solve(network.copy()).total_cost,
        "ssp": SuccessiveShortestPathSolver().solve(network.copy()).total_cost,
        "cycle_canceling": CycleCancelingSolver().solve(network.copy()).total_cost,
    }


def run_equivalence_rounds(seed: int, rounds: int) -> None:
    """Assert all solvers agree on ``rounds`` perturbations of one network."""
    rng = random.Random(seed)
    network = generate_network(rng)

    incremental = IncrementalCostScalingSolver()
    # Same stateful multi-round path, but with the Dijkstra/incremental
    # price refine: its delta patches, seeded warm handoffs, and repairs
    # must agree with every other implementation on every round.
    incremental_dijkstra = IncrementalCostScalingSolver(price_refine="dijkstra")
    executor = DualAlgorithmExecutor()
    changes = None
    for round_index in range(rounds + 1):
        assert network.validate_structure() == []
        expected = reference_min_cost(network)

        for name, cost in scratch_costs(network).items():
            assert cost == expected, (
                f"seed {seed} round {round_index}: {name} found {cost}, "
                f"oracle says {expected}"
            )

        incremental_result = incremental.solve(network.copy(), changes=None)
        assert incremental_result.total_cost == expected, (
            f"seed {seed} round {round_index}: incremental (warm) found "
            f"{incremental_result.total_cost}, oracle says {expected}"
        )

        dijkstra_result = incremental_dijkstra.solve(
            network.copy(), changes=changes
        )
        assert dijkstra_result.total_cost == expected, (
            f"seed {seed} round {round_index}: incremental "
            f"(dijkstra price refine) found {dijkstra_result.total_cost}, "
            f"oracle says {expected}"
        )

        solved = network.copy()
        result = executor.solve(solved, changes=changes)
        assert result.total_cost == expected, (
            f"seed {seed} round {round_index}: executor "
            f"found {result.total_cost}, oracle says {expected}"
        )
        assert check_feasibility(solved) == []

        network, changes = perturb_network(rng, network)


@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_all_solvers_agree_on_fuzzed_networks(seed):
    """Fuzzed networks and change batches: every solver, same optimal cost."""
    run_equivalence_rounds(seed, rounds=3)
