"""Unit tests for the speculative dual-algorithm executor."""

import dataclasses
import itertools
import random
import time
from array import array
from collections import deque

import pytest

from repro.chaos import ChaosPolicy
from repro.cli import build_parser, serve_command
from repro.cluster.state import ClusterState
from repro.cluster.topology import build_topology
from repro.core import FirmamentScheduler, GraphManager, ShardedScheduler
from repro.core.policies import QuincyPolicy
from repro.flow.changes import ArcCostChange, ChangeBatch
from repro.flow.graph import FlowNetwork
from repro.flow.validation import (
    check_feasibility,
    check_residual_epsilon_optimality,
)
from repro.solvers.base import (
    COMPLEXITY_TABLE,
    PRECONDITION_TABLE,
    RoundDeadline,
    SolveAborted,
    SolverStatistics,
)
from repro.solvers.cost_scaling import CostScalingSolver
from repro.solvers.dual_executor import DualAlgorithmExecutor
from repro.solvers.incremental import IncrementalCostScalingSolver
from repro.solvers.relaxation import RelaxationSolver
from repro.solvers.residual import FlowGraph, ResidualNetwork
from tests.conftest import (
    build_scheduling_network,
    make_cluster_state,
    make_job,
    reference_min_cost,
)
from tests.core.test_incremental_graph_equivalence import _random_job
from tests.core.test_steady_round_passes import Workload
from tests.solvers.equivalence_harness import generate_network, perturb_network


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


def cost_storm(rng, base, size):
    """``base`` with ``size`` arc-cost changes, and their revision-chained
    batch (an arc may change more than once; the last change stands)."""
    network = base.copy()
    arcs = [arc for arc in network.arcs() if arc.cost > 0]
    changes = []
    for index in range(size):
        arc = arcs[index % len(arcs)]
        cost = rng.randint(1, 15)
        network.set_arc_cost(arc.src, arc.dst, cost)
        changes.append(ArcCostChange(arc.src, arc.dst, cost))
    network.revision = base.revision + 1
    return network, ChangeBatch(changes, base.revision, network.revision)


class TestLegSelection:
    """The one rule: the cost-scaling leg runs every round, and alone iff
    the round's batch chains onto the residual its previous run kept --
    whatever the batch's size.  Every other round races both legs."""

    @staticmethod
    def round_under_test(chain, size):
        """A primed network and the round under test: ``(first, network,
        changes)``, the batch chained, broken or withheld; a small mixed
        batch or a storm of ``size`` cost changes."""
        rng = random.Random(9)
        first = generate_network(rng)
        base = first
        if chain == "broken":
            # A round went missing: the batch no longer starts at the
            # revision the cost-scaling residual mirrors.
            base, _ = perturb_network(rng, first)
        if size == "small":
            network, changes = perturb_network(rng, base)
        else:
            network, changes = cost_storm(rng, base, int(size))
        if chain == "no_batch":
            changes = None
        return first, network, changes

    @staticmethod
    def count_leg_calls(monkeypatch, executor):
        calls = []
        for leg in (executor.relaxation, executor.incremental):
            def counted(*args, _solve=leg.solve, _name=leg.name, **kwargs):
                calls.append(_name)
                return _solve(*args, **kwargs)

            monkeypatch.setattr(leg, "solve", counted)
        return calls

    # The storms straddle 1 024 changes, where a size cap once made
    # chained rounds race again; the rule has no size term at all.
    @pytest.mark.parametrize("primed_by", ["cost_scaling", "relaxation"])
    @pytest.mark.parametrize("size", ["1", "small", "1024", "1025", "2000"])
    @pytest.mark.parametrize("chain", ["alive", "broken", "no_batch"])
    def test_one_rule_picks_the_legs(self, monkeypatch, chain, size, primed_by):
        first, network, changes = self.round_under_test(chain, size)
        races = chain != "alive"
        executor = DualAlgorithmExecutor()
        # Script the cold round's winner: a relaxation win must leave the
        # cost-scaling leg's residual to chain onto all the same.  Raced
        # rounds after it go to cost scaling.
        rig_race(
            monkeypatch,
            executor,
            lambda index: primed_by == "relaxation" and index == 0,
        )
        primed = executor.solve_detailed(first)
        assert primed.winning_algorithm == (
            "relaxation" if primed_by == "relaxation" else "incremental_cost_scaling"
        )
        assert executor.solo_delta_rounds == 0  # cold: nothing to chain onto

        calls = self.count_leg_calls(monkeypatch, executor)
        detailed = executor.solve_detailed(network, changes)

        expected_calls = [executor.incremental.name]
        if races:
            expected_calls.insert(0, executor.relaxation.name)
        assert calls == expected_calls
        assert (detailed.relaxation is not None) == races
        assert executor.solo_delta_rounds == int(not races)
        assert detailed.cost_scaling.statistics.delta_solve == int(not races)
        assert detailed.winner.statistics.delta_solve == int(not races)
        if not races:
            assert detailed.winner is detailed.cost_scaling
        # A round is charged its winner's runtime and paid every leg it ran.
        assert detailed.effective_runtime_seconds == detailed.winner.runtime_seconds
        assert detailed.total_work_seconds == pytest.approx(
            sum(
                leg.runtime_seconds
                for leg in (detailed.relaxation, detailed.cost_scaling)
                if leg is not None
            )
        )
        scratch = CostScalingSolver().solve(network.copy())
        assert detailed.winner.total_cost == scratch.total_cost
        assert network.flows() == detailed.winner.flows

    def test_default_runs_and_reports_both_legs(self):
        executor = DualAlgorithmExecutor()
        network = build_scheduling_network(seed=61, num_tasks=10)
        detailed = executor.solve_detailed(network)
        assert detailed.relaxation is not None
        assert detailed.cost_scaling is not None
        assert executor.solo_delta_rounds == 0

    @pytest.mark.parametrize("unchained", ["broken", "no_batch", "released"])
    def test_chain_reforms_after_an_unchained_round(self, monkeypatch, unchained):
        rng = random.Random(11)
        networks = [generate_network(rng)]
        batches = [None]
        for _ in range(4):
            network, changes = perturb_network(rng, networks[-1])
            networks.append(network)
            batches.append(changes)
        executor = DualAlgorithmExecutor()
        calls = self.count_leg_calls(monkeypatch, executor)
        relaxation, incremental = executor.relaxation.name, executor.incremental.name

        executor.solve_detailed(networks[0])
        executor.solve_detailed(networks[1], batches[1])
        assert calls == [relaxation, incremental, incremental]
        # The round that does not chain: a skipped revision, no batch, or
        # a residual released since the last solve.
        if unchained == "broken":
            index, changes = 3, batches[3]
        elif unchained == "no_batch":
            index, changes = 2, None
        else:
            executor.incremental.release_residual()
            index, changes = 2, batches[2]
        assert not executor.incremental.can_solve_delta(changes)
        del calls[:]
        detailed = executor.solve_detailed(networks[index], changes)
        assert calls == [relaxation, incremental]
        assert detailed.cost_scaling.statistics.delta_solve == 0
        # The race rebuilt the residual at this round's revision, so the
        # very next batch chains onto it and runs alone again.
        del calls[:]
        detailed = executor.solve_detailed(networks[index + 1], batches[index + 1])
        assert calls == [incremental]
        assert detailed.relaxation is None
        assert detailed.winner.statistics.delta_solve == 1
        assert executor.solo_delta_rounds == 2
        scratch = CostScalingSolver().solve(networks[index + 1].copy())
        assert detailed.winner.total_cost == scratch.total_cost

    def test_an_oversized_chained_batch_from_the_scheduler_runs_solo(self):
        scheduler = FirmamentScheduler(QuincyPolicy())
        executor = scheduler.solver
        state = make_cluster_state(num_machines=12, machines_per_rack=4)
        state.submit_job(make_job(job_id=1, num_tasks=4))
        scheduler.schedule_and_apply(state, 0.0)
        # One job big enough that its round's batch exceeds 1 024 changes.
        state.submit_job(make_job(job_id=2, num_tasks=400, submit_time=10.0))
        scheduler.schedule_and_apply(state, 10.0)
        detailed = executor.last_result
        batch = scheduler.graph_manager.last_changes
        assert batch is not None and len(batch) > 1024
        assert detailed.relaxation is None
        assert detailed.winner is detailed.cost_scaling
        assert detailed.winner.statistics.delta_solve == 1
        assert executor.solo_delta_rounds == 1
        network = scheduler.last_network
        assert network.flows() == detailed.winner.flows
        scratch = CostScalingSolver().solve(network.copy())
        assert detailed.winner.total_cost == scratch.total_cost
        scheduler.close()


def rig_race(monkeypatch, executor, relaxation_wins):
    """Decide every raced round's winner: ``relaxation_wins(race_index)``,
    counting the rounds the relaxation leg ran.

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


def churn_rounds(scheduler, rounds, seed=5, num_machines=12, decisions=None):
    """Drive ``scheduler`` through scripted churn on a fresh cluster.

    Every round submits a fuzzed job and completes a few running tasks;
    one machine fails a third of the way in (its node is removed, its
    tasks are evicted) and recovers at two thirds (the node is added
    back).  Yields the round index after each scheduled and applied round,
    whose decision is appended to ``decisions`` when a list is given.
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
        decision = scheduler.schedule_and_apply(state, now)
        if decisions is not None:
            decisions.append(decision)
        yield round_index


class TestSurvivingDeltaChain:
    """The cost-scaling leg keeps its residual across relaxation wins."""

    def test_alternating_winner_stays_exact(self, monkeypatch):
        # Every third round's batch is dropped, so rounds 0, 2, 5, ... do
        # not chain and race; the rest run cost scaling alone.
        broken = list(range(2, 36, 3))
        scheduler = FirmamentScheduler(
            QuincyPolicy(), chaos=ChaosPolicy(schedule={"chain_break": broken})
        )
        executor = scheduler.solver
        # Of the raced rounds two go to relaxation, one to cost scaling,
        # repeating: a cost scaling win lands on arcs that carried
        # relaxation's flows, and a relaxation win on a leg that keeps its
        # own residual.
        rig_race(monkeypatch, executor, lambda index: index % 3 != 2)
        winners = []
        for round_index in churn_rounds(scheduler, 36):
            network = scheduler.last_network
            detailed = executor.last_result
            winner = detailed.winner
            winners.append(winner.algorithm)
            races = round_index == 0 or round_index in broken
            assert (detailed.relaxation is not None) == races, f"round {round_index}"
            assert network.flows() == winner.flows, f"round {round_index}"
            assert check_feasibility(network) == [], f"round {round_index}"
            scratch = CostScalingSolver().solve(network.copy())
            assert winner.total_cost == scratch.total_cost, f"round {round_index}"
            residual = executor.incremental.last_residual
            assert residual is not None, f"round {round_index}"
            assert residual.revision == network.revision
            assert check_residual_epsilon_optimality(residual, 0) == []
        assert scheduler.graph_manager.chain_breaks_injected == len(broken)
        raced = 1 + len(broken)
        assert executor.solo_delta_rounds == 36 - raced
        assert winners.count("relaxation") == 9
        assert winners.count("incremental_cost_scaling") == 36 - 9
        # One cold build and a rebuild per dropped batch; every round after
        # a relaxation win still chained onto the leg's own residual.
        assert executor.incremental.delta_solves == 36 - raced
        assert executor.incremental.delta_fallbacks == 0

    def test_steady_state_rounds_run_cost_scaling_alone_and_incrementally(
        self, monkeypatch
    ):
        scheduler = FirmamentScheduler(QuincyPolicy())
        executor = scheduler.solver
        rig_race(monkeypatch, executor, lambda index: True)

        def no_copy(self):
            raise AssertionError("the executor copied the flow network")

        monkeypatch.setattr(FlowNetwork, "copy", no_copy)
        for round_index in churn_rounds(scheduler, 12):
            detailed = executor.last_result
            # Only round 1 does not chain, so only round 1 races.
            assert (detailed.relaxation is not None) == (round_index == 0)
            assert detailed.winning_algorithm == (
                "relaxation" if round_index == 0 else "incremental_cost_scaling"
            )
            assert executor.incremental.delta_solves == round_index
            assert executor.relaxation.residual_rebuilds == 1
            assert detailed.winner.statistics.delta_solve == min(round_index, 1)
            if round_index:
                assert detailed.cost_scaling.statistics.price_refine_passes == 0
        assert executor.solo_delta_rounds == 11

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
        assert incremental.last_residual is None
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

    def test_aborted_parent_leg_still_seeds(self, monkeypatch):
        executor = DualAlgorithmExecutor()
        rig_race(monkeypatch, executor, lambda index: True)
        rounds = self.hand_built_rounds(3)
        incremental_solve = executor.incremental.solve

        def aborted(*args, **kwargs):
            raise SolveAborted("leg aborted by test")

        monkeypatch.setattr(executor.incremental, "solve", aborted)
        detailed = executor.solve_detailed(*next(rounds))
        monkeypatch.setattr(executor.incremental, "solve", incremental_solve)
        assert detailed.winning_algorithm == "relaxation"
        assert detailed.cost_scaling is None
        self.assert_reseeded_then_rebuilt(executor, rounds)

    def test_deadline_truncated_leg_still_seeds(self, monkeypatch):
        executor = DualAlgorithmExecutor()
        rig_race(monkeypatch, executor, lambda index: True)
        rounds = self.hand_built_rounds(3)
        executor.incremental.deadline_check = lambda: True
        detailed = executor.solve_detailed(*next(rounds))
        executor.incremental.deadline_check = None
        assert not detailed.cost_scaling.optimal
        self.assert_reseeded_then_rebuilt(executor, rounds)


class TestSimulateKeepsOneGraph:
    """The default scheduler hands the executor its manager's graph: a
    chained round repairs the graph's own residual and writes no flow, a
    relaxation win is handed over on that residual, and the relaxation leg
    keeps nothing past a race."""

    def test_simulate_chained_rounds_build_no_flow_network(self, monkeypatch):
        state = ClusterState(build_topology(64, machines_per_rack=8, slots_per_machine=2))
        scheduler = FirmamentScheduler(QuincyPolicy())
        executor = scheduler.solver
        workload = Workload(state)
        workload.submit(24)
        decision = scheduler.schedule_and_apply(state, workload.now)
        assert executor.last_result.relaxation is not None  # round 1 races
        assert len(decision.placements) == 24
        assert executor.relaxation.last_residual is None

        def refuse(name):
            def build(*args, **kwargs):
                raise AssertionError(f"{name} ran on a chained round")
            return build

        for owner, name in (
            (FlowNetwork, "__init__"),
            (FlowGraph, "copy"),
            (GraphManager, "network_view"),
            (ResidualNetwork, "apply_changes"),
        ):
            monkeypatch.setattr(owner, name, refuse(f"{owner.__name__}.{name}"))
        writes = []
        for owner, name in (
            (FlowGraph, "set_flows"),
            (FlowNetwork, "set_flows"),
            (ResidualNetwork, "load_flows"),
        ):
            def counted(*args, _write=getattr(owner, name), _name=name, **kwargs):
                writes.append(_name)
                return _write(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)
        graph = scheduler.graph_manager.network
        placed = 0
        try:
            for round_index in range(10):
                workload.churn()
                if round_index == 5:
                    victim = max(state.topology.machines, key=state.task_count_on_machine)
                    state.fail_machine(victim, workload.now)
                decision = scheduler.schedule_and_apply(state, workload.now)
                detailed = executor.last_result
                assert detailed.relaxation is None, f"round {round_index}"
                assert detailed.winner.statistics.delta_solve == 1
                assert executor.incremental.last_residual is graph.residual
                assert not decision.unscheduled
                placed += len(decision.placements)
        finally:
            monkeypatch.undo()
        assert writes == []
        assert placed >= 40
        assert executor.solo_delta_rounds == 10
        scratch = CostScalingSolver().solve(scheduler.last_network)
        assert decision.total_cost == scratch.total_cost

    def test_a_relaxation_win_is_handed_over_on_the_graphs_residual(
        self, monkeypatch
    ):
        scheduler = FirmamentScheduler(QuincyPolicy())
        executor = scheduler.solver
        rig_race(monkeypatch, executor, lambda index: True)
        for round_index in churn_rounds(scheduler, 3):
            detailed = executor.last_result
            residual = scheduler.graph_manager.network.residual
            # The winner's flow is the graph's, and the leg that lost the
            # cold race kept the graph's residual, 0-optimal under it.
            assert executor.incremental.last_residual is residual
            assert check_residual_epsilon_optimality(residual, 0) == []
            assert residual.full_flows() == dict(detailed.winner.flows)
            if round_index == 0:
                assert detailed.winning_algorithm == "relaxation"
            else:
                assert detailed.relaxation is None
                assert detailed.winner.statistics.delta_solve == 1
            scratch = CostScalingSolver().solve(scheduler.last_network)
            assert detailed.winner.total_cost == scratch.total_cost
        assert executor.incremental.delta_solves == 2
        assert executor.incremental.delta_fallbacks == 0
        assert executor.relaxation.last_residual is None


def managers_of(scheduler):
    if isinstance(scheduler, ShardedScheduler):
        return [cell.manager for cell in scheduler._cells]
    return [scheduler.graph_manager]


def container_lengths(root):
    """``{path: total length}`` of every container reachable from ``root``
    through the package's own objects (a ``ClusterState`` excepted: it is
    the caller's); the items of one container share its path + ``[]``."""
    lengths = {}
    seen = set()
    stack = [("", root)]
    while stack:
        path, obj = stack.pop()
        if id(obj) in seen or isinstance(obj, ClusterState):
            continue
        seen.add(id(obj))
        if isinstance(obj, (list, tuple, set, frozenset, dict, deque, array)):
            lengths[path] = lengths.get(path, 0) + len(obj)
            items = obj.values() if isinstance(obj, dict) else obj
            stack.extend(
                (path + "[]", item) for item in items
                if not isinstance(item, (int, float, str, bool, type(None)))
            )
        elif type(obj).__module__.startswith("repro."):
            fields = getattr(obj, "__dict__", None)
            if fields is None:
                fields = {
                    name: getattr(obj, name)
                    for name in getattr(type(obj), "__slots__", ())
                    if hasattr(obj, name)
                }
            stack.extend((f"{path}.{name}", value) for name, value in fields.items())
    return lengths


def serve_scheduler(*flags):
    """The scheduler ``serve`` builds for these flags, from its own factory."""
    return serve_command._build_scheduler(
        build_parser().parse_args(["serve", *flags])
    )


class TestServicePathSingleLeg:
    """``serve`` solves a round with one solver: its monolith runs the
    incremental cost-scaling solver every ``--cells`` cell runs, never the
    relaxation leg, under the one deadline rule; and a served scheduler
    keeps no per-round history."""

    def test_relaxation_never_runs_and_every_round_after_the_first_is_a_delta(
        self, monkeypatch
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("serve ran the relaxation leg")

        monkeypatch.setattr(RelaxationSolver, "solve", refuse)
        scheduler = serve_scheduler()
        solver = scheduler.solver
        assert type(solver) is IncrementalCostScalingSolver
        decisions = []
        for round_index in churn_rounds(scheduler, 24, decisions=decisions):
            result = decisions[-1].solver_result
            network = scheduler.last_network
            scratch = CostScalingSolver().solve(network.copy())
            assert result.total_cost == scratch.total_cost, f"round {round_index}"
            assert check_feasibility(network) == []
            assert solver.delta_solves == round_index
            assert result.statistics.delta_solve == int(round_index > 0)
        assert solver.delta_fallbacks == 0

    def test_serve_cells_run_the_sharded_scheduler(self):
        assert isinstance(serve_scheduler("--cells", "2"), ShardedScheduler)

    @pytest.mark.parametrize(
        "flags", [(), ("--cells", "2")], ids=["monolith", "two-inline-cells"]
    )
    def test_a_solve_past_the_hard_deadline_reuses_the_previous_placements(
        self, monkeypatch, flags
    ):
        budget = 0.05
        hard = budget + RoundDeadline(budget).watchdog_period
        scheduler = serve_scheduler("--round-deadline", str(budget), *flags)
        slow = []
        solve_once = IncrementalCostScalingSolver._solve_once

        def outlasting(solver, *args, **kwargs):
            if slow:
                time.sleep(hard + 0.05)  # the repair's next abort poll fires
            return solve_once(solver, *args, **kwargs)

        monkeypatch.setattr(IncrementalCostScalingSolver, "_solve_once", outlasting)
        decisions = []
        try:
            for round_index in churn_rounds(scheduler, 7, decisions=decisions):
                decision = decisions[-1]
                slow[:] = [True] if round_index == 3 else []  # the next round
                if round_index == 4:
                    # No solver finished: nothing moves, the arrivals wait.
                    assert decision.degraded_reason == "round_deadline"
                    assert not (
                        decision.placements or decision.migrations
                        or decision.preemptions
                    )
                    assert decision.unscheduled
                    continue
                assert not decision.degraded, f"round {round_index}"
                solved = [
                    manager for manager in managers_of(scheduler)
                    if manager.network is not None and manager.task_nodes
                ]
                assert decision.total_cost == sum(
                    CostScalingSolver().solve(m.network.copy()).total_cost
                    for m in solved
                ), f"round {round_index}"
                if round_index == 5:
                    # Exact again, and the waiting tasks are placed.
                    assert decision.placements
        finally:
            scheduler.close()

    @pytest.mark.parametrize(
        "flags", [(), ("--cells", "2")], ids=["monolith", "two-inline-cells"]
    )
    def test_the_round_after_a_missed_deadline_places_even_past_the_budget(
        self, monkeypatch, flags
    ):
        """Every rebuild here outlasts the hard deadline: only the delta
        repair may be aborted, so a round that lost its repair is followed
        by a rebuild that finishes, and placements resume."""
        budget = 0.01
        hard = budget + RoundDeadline(budget).watchdog_period
        scheduler = serve_scheduler("--round-deadline", str(budget), *flags)
        rebuild = IncrementalCostScalingSolver._solve_rebuild
        delta = IncrementalCostScalingSolver.solve_delta
        slow_delta = []

        def slow_rebuild(solver, *args, **kwargs):
            time.sleep(hard + 0.02)
            return rebuild(solver, *args, **kwargs)

        def outlasting_delta(solver, *args, **kwargs):
            if slow_delta:
                time.sleep(hard + 0.02)  # the repair's next abort poll fires
            return delta(solver, *args, **kwargs)

        monkeypatch.setattr(IncrementalCostScalingSolver, "_solve_rebuild", slow_rebuild)
        monkeypatch.setattr(IncrementalCostScalingSolver, "solve_delta", outlasting_delta)
        decisions = []
        try:
            for round_index in churn_rounds(scheduler, 8, decisions=decisions):
                decision = decisions[-1]
                slow_delta[:] = [True] if round_index == 3 else []  # the next round
                if round_index == 4:
                    assert decision.degraded_reason == "round_deadline"
                    assert decision.unscheduled
                    continue
                # Every other round places, the cold solves and the
                # rebuilds that ran past the budget included (two cells
                # here take turns, so the cell that missed rebuilds two
                # rounds later).
                assert decision.degraded_reason != "round_deadline", round_index
                assert decision.placements, round_index
        finally:
            scheduler.close()

    def test_worker_cells_solve_without_a_budget_of_their_own(self):
        """A worker-side abort would drop the worker's shadow network: the
        gather bounds a worker cell's round, and only the parent-side
        solvers carry the budget."""
        scheduler = serve_scheduler(
            "--round-deadline", "0.05", "--cells", "2", "--cell-workers"
        )
        scheduler._bind(make_cluster_state(num_machines=8, machines_per_rack=4))
        try:
            for cell, client in zip(scheduler._cells, scheduler.clients):
                assert cell.solver.round_deadline_seconds == 0.05
                worker_solver = client._solver_factory(**client._solver_kwargs)
                assert worker_solver.round_deadline_seconds is None
        finally:
            scheduler.close()

    @pytest.mark.parametrize("flags", [(), ("--cells", "2")], ids=["monolith", "two-cells"])
    def test_steady_rounds_grow_no_container_on_the_scheduler(self, flags):
        """``serve`` runs for as long as it is up: 200 more steady rounds
        must not leave one more entry per round anywhere the scheduler
        holds (the cluster state's own history is the caller's)."""
        state = ClusterState(build_topology(16, machines_per_rack=4, slots_per_machine=2))
        scheduler = serve_scheduler(*flags)
        workload = Workload(state)
        try:
            readings = []
            for round_index in range(300):
                workload.churn()
                scheduler.schedule_and_apply(state, workload.now)
                if round_index in (99, 299):
                    readings.append(container_lengths(scheduler))
        finally:
            scheduler.close()
        before, after = readings
        grown = {
            path: (before.get(path, 0), length)
            for path, length in after.items()
            if length - before.get(path, 0) >= 100
        }
        assert grown == {}


    def test_default_scheduler_races_exactly_the_rounds_that_do_not_chain(self):
        scheduler = FirmamentScheduler(QuincyPolicy())
        for round_index in churn_rounds(scheduler, 6):
            detailed = scheduler.solver.last_result
            assert (detailed.relaxation is not None) == (round_index == 0)
            assert detailed.cost_scaling is not None
        assert scheduler.solver.solo_delta_rounds == 5


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
