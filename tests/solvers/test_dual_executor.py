"""Unit tests for the speculative dual-algorithm executor."""

import dataclasses
import itertools
import random

import pytest

from repro.chaos import ChaosPolicy
from repro.cli import build_parser, serve_command
from repro.core import FirmamentScheduler, ShardedScheduler
from repro.core.policies import QuincyPolicy
from repro.flow.graph import FlowNetwork
from repro.flow.validation import (
    check_feasibility,
    check_residual_epsilon_optimality,
)
from repro.solvers.base import COMPLEXITY_TABLE, PRECONDITION_TABLE, SolverStatistics
from repro.solvers.cost_scaling import CostScalingSolver
from repro.solvers.dual_executor import (
    DELTA_SOLO_THRESHOLD,
    DualAlgorithmExecutor,
)
from repro.solvers.incremental import IncrementalCostScalingSolver
from repro.solvers.parallel_executor import ParallelDualExecutor
from repro.solvers.relaxation import RelaxationSolver
from tests.conftest import (
    build_scheduling_network,
    make_cluster_state,
    reference_min_cost,
)
from tests.core.test_incremental_graph_equivalence import _random_job
from tests.solvers.equivalence_harness import generate_network, perturb_network
from tests.solvers.test_parallel_executor import _InstantWorkerConn


def make_result(algorithm: str, runtime: float, **stats) -> "object":
    from repro.solvers.base import SolverResult

    return SolverResult(
        algorithm=algorithm,
        total_cost=0,
        flows={},
        potentials={},
        runtime_seconds=runtime,
        statistics=SolverStatistics(**stats),
    )


class TestDualExecution:
    def test_winner_is_optimal_and_applied_to_network(self):
        executor = DualAlgorithmExecutor()
        network = build_scheduling_network(seed=41, num_tasks=10)
        expected = reference_min_cost(network)
        detailed = executor.solve_detailed(network)
        assert detailed.winner.total_cost == expected
        assert detailed.relaxation.total_cost == expected
        assert detailed.cost_scaling.total_cost == expected
        assert check_feasibility(network) == []

    def test_effective_runtime_is_min_and_work_is_sum(self):
        executor = DualAlgorithmExecutor()
        network = build_scheduling_network(seed=42, num_tasks=10)
        detailed = executor.solve_detailed(network)
        assert detailed.effective_runtime_seconds == pytest.approx(
            min(
                detailed.relaxation.runtime_seconds,
                detailed.cost_scaling.runtime_seconds,
            )
        )
        assert detailed.total_work_seconds == pytest.approx(
            detailed.relaxation.runtime_seconds + detailed.cost_scaling.runtime_seconds
        )
        assert detailed.winning_algorithm in (
            "relaxation",
            "incremental_cost_scaling",
        )

    def test_solve_returns_winner(self):
        executor = DualAlgorithmExecutor()
        network = build_scheduling_network(seed=43)
        result = executor.solve(network)
        assert result is executor.last_result.winner

    def test_relaxation_win_seeds_incremental_state(self):
        executor = DualAlgorithmExecutor()
        network = build_scheduling_network(seed=44, num_tasks=12)
        detailed = executor.solve_detailed(network)
        if detailed.winning_algorithm == "relaxation":
            assert executor.incremental.has_state

    def test_repeated_solving_stays_optimal(self):
        executor = DualAlgorithmExecutor()
        base = build_scheduling_network(seed=45, num_tasks=10)
        for round_index in range(3):
            network = base.copy()
            # Perturb one cost each round, as monitoring updates would.
            arc = next(a for a in network.arcs() if a.cost > 0)
            network.set_arc_cost(arc.src, arc.dst, arc.cost + round_index)
            expected = reference_min_cost(network)
            result = executor.solve(network)
            assert result.total_cost == expected

    def test_custom_component_solvers_are_used(self):
        relaxation = RelaxationSolver(arc_prioritization=False)
        incremental = IncrementalCostScalingSolver(alpha=9)
        executor = DualAlgorithmExecutor(relaxation=relaxation, incremental=incremental)
        assert executor.relaxation is relaxation
        assert executor.incremental is incremental
        network = build_scheduling_network(seed=46)
        assert executor.solve(network).total_cost == reference_min_cost(network)

    def test_injected_solvers_still_write_flow_on_their_own(self):
        # The executor skips its legs' write-backs per call; a solver it
        # was handed keeps writing its flow when used outside the executor.
        relaxation = RelaxationSolver()
        incremental = IncrementalCostScalingSolver()
        executor = DualAlgorithmExecutor(relaxation=relaxation, incremental=incremental)
        executor.solve(build_scheduling_network(seed=46))
        for solver in (relaxation, incremental):
            network = build_scheduling_network(seed=47)
            result = solver.solve(network)
            assert network.flows() == result.flows


class TestLegSelection:
    """``SpeculativeDualExecutor._speculates``: the cost-scaling leg runs
    every round, alone iff the batch chains onto its residual and fits
    ``delta_solo_threshold``."""

    @pytest.mark.parametrize(
        "executor_class", [DualAlgorithmExecutor, ParallelDualExecutor]
    )
    @pytest.mark.parametrize("chain", ["alive", "broken", "no_batch"])
    @pytest.mark.parametrize(
        "threshold, fits",
        [
            (lambda size: None, False),
            (lambda size: DELTA_SOLO_THRESHOLD, True),  # batch far below it
            (lambda size: size, True),
            (lambda size: size - 1, False),
        ],
        ids=["none", "default", "at", "above"],
    )
    def test_one_rule_picks_the_legs(
        self, monkeypatch, executor_class, chain, threshold, fits
    ):
        rng = random.Random(9)
        first = generate_network(rng)
        network, changes = perturb_network(rng, first)
        size = len(changes)
        assert size >= 1
        if chain == "broken":
            # A round went missing: the batch no longer starts at the
            # revision the cost-scaling residual mirrors.
            network, changes = perturb_network(rng, network)
            size = len(changes)
        elif chain == "no_batch":
            changes = None
        speculates = not (chain == "alive" and fits)

        executor = executor_class()
        conn = None
        try:
            if executor_class is ParallelDualExecutor:
                # Prime on the no-worker path so the cost-scaling leg
                # finishes and keeps its residual, then hand the round
                # under test a worker that answers first.
                with monkeypatch.context() as patch:
                    patch.setattr(executor.worker, "ensure", lambda: False)
                    executor.solve_detailed(first)
                conn = _InstantWorkerConn()
                executor.worker.attach(conn)
            else:
                executor.solve_detailed(first)
            assert executor.solo_delta_rounds == 0  # cold: nothing to chain onto
            executor.delta_solo_threshold = threshold(size)

            calls = []
            for leg in (executor.relaxation, executor.incremental):
                def counted(*args, _solve=leg.solve, _name=leg.name, **kwargs):
                    calls.append(_name)
                    return _solve(*args, **kwargs)

                monkeypatch.setattr(leg, "solve", counted)
            detailed = executor.solve_detailed(network, changes)

            relaxation_runs = (
                conn.requests if conn else calls.count(executor.relaxation.name)
            )
            assert relaxation_runs == int(speculates)
            assert calls.count(executor.incremental.name) == 1
            assert (detailed.relaxation is not None) == speculates
            assert executor.solo_delta_rounds == int(not speculates)
            if conn is None or not speculates:
                assert detailed.cost_scaling is not None
            if detailed.cost_scaling is not None:
                # (The instant worker cancels the parent leg mid-flight.)
                delta_solve = detailed.winner.statistics.delta_solve
                assert delta_solve == int(chain == "alive")
            scratch = CostScalingSolver().solve(network.copy())
            assert detailed.winner.total_cost == scratch.total_cost
            assert network.flows() == detailed.winner.flows
        finally:
            if conn is not None:
                executor.worker.attach(None)
            executor.close()

    def test_default_runs_and_reports_both_legs(self):
        executor = DualAlgorithmExecutor()
        assert executor.delta_solo_threshold is None
        network = build_scheduling_network(seed=61, num_tasks=10)
        detailed = executor.solve_detailed(network)
        assert detailed.relaxation is not None
        assert detailed.cost_scaling is not None
        assert executor.solo_delta_rounds == 0

    def test_delta_solo_threshold_stays_optimal_across_rounds(self):
        executor = DualAlgorithmExecutor(delta_solo_threshold=DELTA_SOLO_THRESHOLD)
        base = build_scheduling_network(seed=64, num_tasks=10)
        for round_index in range(6):
            network = base.copy()
            arc = next(a for a in network.arcs() if a.cost > 0)
            network.set_arc_cost(arc.src, arc.dst, arc.cost + round_index)
            expected = reference_min_cost(network)
            assert executor.solve(network).total_cost == expected
        assert executor.rounds == 6


def rig_race(monkeypatch, executor, relaxation_wins):
    """Decide every round's winner: ``relaxation_wins(round_index)``.

    The legs really solve; only the runtimes the modeled race compares are
    overwritten, so the winner is scripted instead of timing-dependent.
    """
    rounds = itertools.count()
    relaxation_solve = executor.relaxation.solve
    incremental_solve = executor.incremental.solve

    def relaxation(*args, **kwargs):
        result = relaxation_solve(*args, **kwargs)
        result.runtime_seconds = 1.0 if relaxation_wins(next(rounds)) else 3.0
        return result

    def incremental(*args, **kwargs):
        result = incremental_solve(*args, **kwargs)
        result.runtime_seconds = 2.0
        return result

    monkeypatch.setattr(executor.relaxation, "solve", relaxation)
    monkeypatch.setattr(executor.incremental, "solve", incremental)


def churn_rounds(scheduler, rounds, seed=5, num_machines=12):
    """Drive ``scheduler`` through scripted churn on a fresh cluster.

    Every round submits a fuzzed job and completes a few running tasks;
    one machine fails a third of the way in (its node is removed, its
    tasks are evicted) and recovers at two thirds (the node is added
    back).  Yields the round index after each scheduled and applied round.
    """
    rng = random.Random(seed)
    state = make_cluster_state(num_machines=num_machines, machines_per_rack=4)
    for round_index in range(rounds):
        now = round_index * 10.0
        state.submit_job(_random_job(rng, round_index + 1, num_machines, now))
        running = state.running_tasks()
        for task in rng.sample(running, min(len(running), rng.randint(0, 3))):
            state.complete_task(task.task_id, now)
        if round_index == rounds // 3:
            state.fail_machine(3, now)
        if round_index == 2 * rounds // 3:
            state.recover_machine(3, now)
        scheduler.schedule_and_apply(state, now)
        yield round_index


class TestSurvivingDeltaChain:
    """The cost-scaling leg keeps its residual across relaxation wins."""

    def test_alternating_winner_stays_exact(self, monkeypatch):
        scheduler = FirmamentScheduler(QuincyPolicy())
        executor = scheduler.solver
        # Two relaxation wins, one cost scaling win, repeating: a cost
        # scaling win lands on arcs that carried relaxation's flows, and a
        # relaxation win on a leg that keeps its own residual.
        rig_race(monkeypatch, executor, lambda index: index % 3 != 2)
        winners = []
        for round_index in churn_rounds(scheduler, 36):
            network = scheduler.last_network
            winner = executor.last_result.winner
            winners.append(winner.algorithm)
            assert network.flows() == winner.flows, f"round {round_index}"
            assert check_feasibility(network) == [], f"round {round_index}"
            scratch = CostScalingSolver().solve(network.copy())
            assert winner.total_cost == scratch.total_cost, f"round {round_index}"
            residual = executor.incremental.persistent_residual
            assert residual is not None, f"round {round_index}"
            assert residual.revision == network.revision
            assert check_residual_epsilon_optimality(residual, 0) == []
        assert winners.count("relaxation") == 24
        assert winners.count("incremental_cost_scaling") == 12
        # One cold build, then the chain never broke.
        assert executor.incremental.delta_solves == 35
        assert executor.incremental.delta_fallbacks == 0

    def test_steady_state_rounds_are_incremental_on_both_legs(self, monkeypatch):
        scheduler = FirmamentScheduler(QuincyPolicy())
        executor = scheduler.solver
        rig_race(monkeypatch, executor, lambda index: True)

        def no_copy(self):
            raise AssertionError("the inline race copied the flow network")

        monkeypatch.setattr(FlowNetwork, "copy", no_copy)
        for round_index in churn_rounds(scheduler, 12):
            detailed = executor.last_result
            assert detailed.winning_algorithm == "relaxation"
            assert executor.incremental.delta_solves == round_index
            assert executor.relaxation.residual_rebuilds == 1
            # Round-level attribution: the losing leg's flag is folded in.
            assert detailed.winner.statistics.delta_solve == min(round_index, 1)
            if round_index:
                assert detailed.cost_scaling.statistics.price_refine_passes == 0

    def hand_built_rounds(self, count, seed=9):
        rng = random.Random(seed)
        network = generate_network(rng)
        yield network, None
        for _ in range(count - 1):
            network, changes = perturb_network(rng, network)
            yield network, changes

    def assert_reseeded_then_rebuilt(self, executor, rounds):
        """After a round that left the leg without a residual: the
        relaxation win seeded it, so the next round rebuilds (Section 6.2)
        and only the one after that is a delta solve again."""
        incremental = executor.incremental
        assert incremental.persistent_residual is None
        assert incremental.has_state
        before = incremental.delta_solves
        network, changes = next(rounds)
        detailed = executor.solve_detailed(network, changes)
        assert detailed.cost_scaling.statistics.delta_solve == 0
        assert incremental.delta_solves == before
        assert detailed.winner.total_cost == reference_min_cost(network)
        network, changes = next(rounds)
        detailed = executor.solve_detailed(network, changes)
        assert detailed.cost_scaling.statistics.delta_solve == 1
        assert detailed.winner.total_cost == reference_min_cost(network)

    def test_cancelled_parent_leg_still_seeds(self, monkeypatch):
        executor = ParallelDualExecutor()
        executor.worker.attach(_InstantWorkerConn())  # answers first, always
        try:
            detailed = executor.solve_detailed(build_scheduling_network(seed=53))
            assert detailed.winning_algorithm == "relaxation"
            assert detailed.cost_scaling is None
            executor.worker.attach(None)
            # No worker: the following rounds run the inherited inline race.
            monkeypatch.setattr(executor.worker, "ensure", lambda: False)
            rig_race(monkeypatch, executor, lambda index: True)
            self.assert_reseeded_then_rebuilt(executor, self.hand_built_rounds(2))
        finally:
            executor.worker.attach(None)
            executor.close()

    def test_deadline_truncated_leg_still_seeds(self, monkeypatch):
        executor = DualAlgorithmExecutor()
        rig_race(monkeypatch, executor, lambda index: True)
        rounds = self.hand_built_rounds(3)
        executor.incremental.deadline_check = lambda: True
        detailed = executor.solve_detailed(*next(rounds))
        executor.incremental.deadline_check = None
        assert not detailed.cost_scaling.optimal
        self.assert_reseeded_then_rebuilt(executor, rounds)


def serve_scheduler(*flags):
    """The scheduler ``serve`` builds for these flags, from its own factory."""
    return serve_command._build_scheduler(
        build_parser().parse_args(["serve", *flags])
    )


class TestServicePathSingleLeg:
    """``delta_solo_threshold=DELTA_SOLO_THRESHOLD`` on the inline executor
    (what ``serve`` schedules with): a small batch chained onto cost
    scaling's residual runs that leg alone."""

    def test_steady_rounds_are_solo_delta_solves(self):
        scheduler = serve_scheduler()
        executor = scheduler.solver
        assert type(executor) is DualAlgorithmExecutor
        for round_index in churn_rounds(scheduler, 24):
            detailed = executor.last_result
            network = scheduler.last_network
            scratch = CostScalingSolver().solve(network.copy())
            assert detailed.winner.total_cost == scratch.total_cost
            assert check_feasibility(network) == []
            if round_index == 0:
                # Cold: nothing to chain onto, both legs run.
                assert detailed.relaxation is not None
                assert detailed.cost_scaling is not None
                continue
            # One leg, on the delta path: no relaxation run to lose.
            assert detailed.relaxation is None, f"round {round_index}"
            assert executor.incremental.delta_solves == round_index
            assert detailed.winner.statistics.delta_solve == 1
        assert executor.solo_delta_rounds == 23
        assert executor.relaxation.residual_rebuilds == 1

    def test_serve_cells_run_the_sharded_scheduler(self):
        assert isinstance(serve_scheduler("--cells", "2"), ShardedScheduler)

    def test_oversized_or_chain_broken_batch_still_races(self):
        scheduler = FirmamentScheduler(
            QuincyPolicy(),
            solver=DualAlgorithmExecutor(delta_solo_threshold=DELTA_SOLO_THRESHOLD),
            # Round 5's batch is dropped before it reaches the solver.
            chaos=ChaosPolicy(schedule={"chain_break": [5]}),
        )
        executor = scheduler.solver
        rounds = churn_rounds(scheduler, 8)
        for _ in range(3):
            next(rounds)
        assert executor.last_result.relaxation is None
        # Oversized: no batch is small enough for the rule any more.
        executor.delta_solo_threshold = None
        next(rounds)
        assert executor.last_result.relaxation is not None
        assert executor.last_result.cost_scaling.statistics.delta_solve == 1
        executor.delta_solo_threshold = DELTA_SOLO_THRESHOLD
        next(rounds)
        assert executor.last_result.relaxation is None
        # Chain-broken: the manager's batch never reaches the solver.
        next(rounds)
        assert scheduler.graph_manager.chain_breaks_injected == 1
        assert executor.last_result.relaxation is not None
        assert executor.last_result.cost_scaling.statistics.delta_solve == 0
        assert executor.solo_delta_rounds == 3

    def test_default_scheduler_still_races_every_round(self):
        scheduler = FirmamentScheduler(QuincyPolicy())
        for _ in churn_rounds(scheduler, 6):
            detailed = scheduler.solver.last_result
            assert detailed.relaxation is not None
            assert detailed.cost_scaling is not None
        assert scheduler.solver.solo_delta_rounds == 0


class TestLegAttribution:
    def test_relaxation_loser_counters_fold_into_winner(self):
        executor = DualAlgorithmExecutor()
        relaxation = make_result(
            "relaxation", 0.5, relaxation_tree_nodes=40, dual_ascents=7
        )
        cost_scaling = make_result("incremental_cost_scaling", 0.001)
        from repro.solvers.dual_executor import DualExecutionResult

        executor._record_round(
            DualExecutionResult(
                winner=cost_scaling,
                relaxation=relaxation,
                cost_scaling=cost_scaling,
                effective_runtime_seconds=0.001,
                total_work_seconds=0.501,
            )
        )
        assert cost_scaling.statistics.relaxation_tree_nodes == 40
        assert cost_scaling.statistics.dual_ascents == 7


class TestStaticTables:
    def test_complexity_table_covers_all_algorithms(self):
        assert set(COMPLEXITY_TABLE) == {
            "relaxation",
            "cycle_canceling",
            "cost_scaling",
            "successive_shortest_path",
        }

    def test_precondition_table_matches_paper(self):
        assert PRECONDITION_TABLE["cost_scaling"]["feasibility"]
        assert PRECONDITION_TABLE["cost_scaling"]["epsilon_optimality"]
        assert PRECONDITION_TABLE["relaxation"]["reduced_cost_optimality"]
        assert not PRECONDITION_TABLE["relaxation"]["feasibility"]
        assert PRECONDITION_TABLE["cycle_canceling"]["feasibility"]
        assert PRECONDITION_TABLE["successive_shortest_path"]["reduced_cost_optimality"]

    def test_statistics_merge(self):
        first = SolverStatistics(iterations=2, pushes=3)
        second = SolverStatistics(iterations=1, relabels=4, warm_start=True)
        merged = first.merge(second)
        assert merged.iterations == 3
        assert merged.pushes == 3
        assert merged.relabels == 4
        assert merged.warm_start

        # Every field, with distinct values on the two sides, merges by its
        # rule: a sum unless listed here.
        maxed = {"degraded_round", "breaker_open", "straggler_seconds"}
        fast, slow = SolverStatistics(), SolverStatistics()
        for index, field in enumerate(dataclasses.fields(SolverStatistics), 1):
            if field.name == "warm_start":
                values = (False, True)
            else:
                values = (field.default + index, field.default + 100 + 3 * index)
            setattr(fast, field.name, values[0])
            setattr(slow, field.name, values[1])
        assert fast.straggler_seconds < slow.straggler_seconds
        for merged in (fast.merge(slow), slow.merge(fast)):
            for field in dataclasses.fields(SolverStatistics):
                a, b = getattr(fast, field.name), getattr(slow, field.name)
                if field.name == "warm_start":
                    expected = a or b
                elif field.name == "straggler_cell":
                    expected = b  # the slower side's cell
                elif field.name in maxed:
                    expected = max(a, b)
                else:
                    expected = a + b
                assert getattr(merged, field.name) == expected, field.name
        assert not SolverStatistics().merge(SolverStatistics()).warm_start
        # A straggler tie keeps the receiving side's cell.
        left = SolverStatistics(straggler_cell=1, straggler_seconds=0.5)
        right = SolverStatistics(straggler_cell=2, straggler_seconds=0.5)
        assert left.merge(right).straggler_cell == 1
        assert right.merge(left).straggler_cell == 2
