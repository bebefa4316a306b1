"""Tests for the stateful incremental relaxation solver (Section 5.2)."""

from __future__ import annotations

import pytest

from repro.flow.validation import check_feasibility, check_reduced_cost_optimality
from repro.solvers import (
    IncrementalRelaxationSolver,
    RelaxationSolver,
    make_solver,
)

from tests.conftest import (
    build_contended_network,
    build_scheduling_network,
    reference_min_cost,
)


class TestIncrementalRelaxation:
    def test_first_solve_runs_from_scratch_and_is_optimal(self):
        network = build_scheduling_network(seed=2)
        solver = IncrementalRelaxationSolver()
        assert not solver.has_state
        result = solver.solve(network)
        assert result.total_cost == reference_min_cost(network)
        assert solver.has_state

    def test_second_solve_warm_starts_and_stays_optimal(self):
        network = build_scheduling_network(seed=4)
        solver = IncrementalRelaxationSolver()
        solver.solve(network.copy())
        result = solver.solve(network.copy())
        assert result.statistics.warm_start
        assert result.total_cost == reference_min_cost(network)
        assert result.algorithm == "incremental_relaxation"

    def test_warm_start_tracks_graph_changes(self):
        network = build_scheduling_network(seed=6)
        solver = IncrementalRelaxationSolver()
        solver.solve(network.copy())

        changed = network.copy()
        # Make one machine's slots cheaper and another unusable, then re-solve.
        machine_arcs = [
            arc for arc in changed.arcs()
            if changed.node(arc.dst).name.startswith("M")
        ]
        changed.set_arc_cost(machine_arcs[0].src, machine_arcs[0].dst, 0)
        result = solver.solve(changed)
        assert result.total_cost == reference_min_cost(changed)
        assert not check_feasibility(changed)

    def test_result_satisfies_reduced_cost_optimality(self):
        network = build_scheduling_network(seed=8)
        solver = IncrementalRelaxationSolver()
        solver.solve(network)
        second = build_scheduling_network(seed=8)
        result = solver.solve(second)
        violations = check_reduced_cost_optimality(second, result.potentials)
        assert not violations

    def test_reset_discards_state(self):
        solver = IncrementalRelaxationSolver()
        solver.solve(build_scheduling_network(seed=1))
        solver.reset()
        assert not solver.has_state
        result = solver.solve(build_scheduling_network(seed=1))
        assert not result.statistics.warm_start

    def test_seed_installs_external_state(self):
        network = build_scheduling_network(seed=9)
        from_scratch = RelaxationSolver().solve(network.copy())
        solver = IncrementalRelaxationSolver()
        solver.seed(from_scratch.flows, from_scratch.potentials)
        assert solver.has_state
        result = solver.solve(network.copy())
        assert result.statistics.warm_start
        assert result.total_cost == from_scratch.total_cost

    def test_contended_graph_still_optimal_when_warm(self):
        network = build_contended_network(num_tasks=30, num_machines=3)
        solver = IncrementalRelaxationSolver()
        solver.solve(network.copy())
        result = solver.solve(network.copy())
        assert result.total_cost == reference_min_cost(network)

    def test_available_through_make_solver(self):
        solver = make_solver("incremental_relaxation")
        assert isinstance(solver, IncrementalRelaxationSolver)
        assert isinstance(solver, RelaxationSolver)


class TestSingleStatePath:
    """Seeding, resetting, and the post-solve update share one code path,
    and the installed dicts are the only live copy of the solution."""

    def test_state_mutations_drop_underlying_residual(self):
        solver = IncrementalRelaxationSolver()
        network = build_scheduling_network(seed=11)
        solver.solve(network.copy())
        # The post-solve install must already have dropped the residual the
        # underlying solve created: one source of truth, not two.
        assert solver.last_residual is None

        from_scratch = RelaxationSolver().solve(network.copy())
        solver.seed(from_scratch.flows, from_scratch.potentials)
        assert solver.last_residual is None
        assert solver.has_state

        solver.reset()
        assert not solver.has_state
        assert solver.last_residual is None

    def test_seed_copies_its_inputs(self):
        solver = IncrementalRelaxationSolver()
        network = build_scheduling_network(seed=12)
        from_scratch = RelaxationSolver().solve(network.copy())
        flows = dict(from_scratch.flows)
        solver.seed(flows, from_scratch.potentials)
        flows.clear()  # caller's dict must not alias the installed state
        result = solver.solve(network.copy())
        assert result.statistics.warm_start
        assert result.total_cost == from_scratch.total_cost
