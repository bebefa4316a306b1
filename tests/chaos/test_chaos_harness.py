"""Chaos-injection harness: round deadlines, degradation, and recovery.

The suite drives the self-healing round pipeline under every fault class
of :mod:`repro.chaos` and asserts the robustness contract: a run always
completes (degraded rounds are recorded, never stalled), solver-fault
rounds produce the same answers as a fault-free oracle, and with a round
deadline set every round finishes within budget plus the watchdog period
or is recorded degraded with its epsilon-optimality validated.
"""

from __future__ import annotations

import time

import pytest

from repro.chaos import FAULT_KINDS, ChaosPolicy, corrupt_residual_potentials
from repro.core import FirmamentScheduler, QuincyPolicy, ShardedScheduler
from repro.flow.changes import ChangeBatch
from repro.flow.validation import (
    check_feasibility,
    check_residual_epsilon_optimality,
)
from repro.simulation.simulator import ClusterSimulator, SimulationConfig
from repro.solvers import (
    CostScalingSolver,
    DualAlgorithmExecutor,
    IncrementalCostScalingSolver,
    RoundDeadline,
    RoundDeadlineExceeded,
    SolveAborted,
    WorkerCircuitBreaker,
)
from repro.solvers.base import DEFAULT_WATCHDOG_PERIOD
from tests.conftest import (
    build_scheduling_network,
    make_cluster_state,
    make_job,
    reference_min_cost,
)
from tests.solvers.round_helpers import perturbed_rounds

#: The fault classes delivered on the worker transport (the sharded
#: scheduler's cell workers); the others hit solver and graph state.
WORKER_FAULTS = ("worker_kill", "pipe_break", "corrupt_message", "worker_delay")


# --------------------------------------------------------------------- #
# The policy itself
# --------------------------------------------------------------------- #
class TestChaosPolicy:
    def test_seeded_draws_are_deterministic_and_order_independent(self):
        first = ChaosPolicy(seed=11, rates={f: 0.5 for f in FAULT_KINDS})
        second = ChaosPolicy(seed=11, rates={f: 0.5 for f in FAULT_KINDS})
        forward = [
            (f, r, first.fires(f, r)) for f in FAULT_KINDS for r in range(20)
        ]
        # Query the second policy in the reverse order: the draw is keyed
        # on (seed, fault, round), not on call sequence.
        backward = {
            (f, r): second.fires(f, r)
            for f in reversed(FAULT_KINDS)
            for r in reversed(range(20))
        }
        assert all(hit == backward[(f, r)] for f, r, hit in forward)
        assert first.injected == second.injected
        assert first.total_injected > 0

    def test_different_seeds_differ(self):
        rates = {"worker_kill": 0.5}
        a = ChaosPolicy(seed=1, rates=rates)
        b = ChaosPolicy(seed=2, rates=rates)
        assert [a.fires("worker_kill", r) for r in range(64)] != [
            b.fires("worker_kill", r) for r in range(64)
        ]

    def test_schedule_fires_exactly_and_counts(self):
        policy = ChaosPolicy(schedule={"pipe_break": [2, 5], "chain_break": [3]})
        fired = [
            (fault, r)
            for r in range(8)
            for fault in ("pipe_break", "chain_break")
            if policy.fires(fault, r)
        ]
        assert fired == [("pipe_break", 2), ("chain_break", 3), ("pipe_break", 5)]
        assert policy.injected == {"pipe_break": 2, "chain_break": 1}
        assert policy.injected_rounds == {
            "pipe_break": [2, 5],
            "chain_break": [3],
        }
        assert policy.total_injected == 3
        policy.reset_counters()
        assert policy.total_injected == 0

    def test_arms_and_validation(self):
        policy = ChaosPolicy(rates={"worker_delay": 0.1})
        assert policy.arms("worker_delay")
        assert not policy.arms("worker_kill")
        with pytest.raises(ValueError):
            ChaosPolicy(rates={"bogus_fault": 0.5})
        with pytest.raises(ValueError):
            ChaosPolicy(schedule={"bogus_fault": [1]})
        with pytest.raises(ValueError):
            ChaosPolicy(rates={"worker_kill": 1.5})
        with pytest.raises(ValueError):
            ChaosPolicy(delay_seconds=-1.0)
        with pytest.raises(ValueError):
            policy.fires("bogus_fault", 0)


# --------------------------------------------------------------------- #
# Round deadlines and graceful degradation
# --------------------------------------------------------------------- #
class TestRoundDeadline:
    def test_deadline_clock_and_validation(self):
        fake_now = [0.0]
        deadline = RoundDeadline(1.0, watchdog_period=0.5, clock=lambda: fake_now[0])
        assert not deadline.expired() and not deadline.hard_expired()
        fake_now[0] = 1.1
        assert deadline.expired() and not deadline.hard_expired()
        fake_now[0] = 1.6
        assert deadline.hard_expired()
        assert deadline() is True  # __call__ aliases hard_expired
        with pytest.raises(ValueError):
            RoundDeadline(0.0)
        with pytest.raises(ValueError):
            RoundDeadline(1.0, watchdog_period=-0.1)
        # Default watchdog: a quarter of the budget, floored at the global
        # watchdog period.
        assert RoundDeadline(10.0).watchdog_period == pytest.approx(2.5)
        assert RoundDeadline(0.01).watchdog_period == DEFAULT_WATCHDOG_PERIOD

    def test_epsilon_truncation_is_feasible_and_validated(self):
        network = build_scheduling_network(seed=80, num_tasks=12)
        solver = CostScalingSolver()
        solver.deadline_check = lambda: True  # budget exhausted immediately
        result = solver.solve(network)
        # The flow is feasible and epsilon-optimal at the coarser epsilon
        # the ladder stopped at -- degraded, recorded, never a stall.
        assert check_feasibility(network) == []
        assert not result.optimal
        assert result.statistics.deadline_hits == 1
        assert result.statistics.degraded_round == 1
        assert solver.last_degradation is not None
        assert solver.last_degradation["validated"] is True
        assert solver.last_degradation["problems"] == []
        assert solver.last_degradation["epsilon"] >= 1
        assert result.total_cost >= reference_min_cost(network)
        # Without the deadline the same solver is exactly optimal again.
        solver.deadline_check = None
        fresh = build_scheduling_network(seed=80, num_tasks=12)
        assert solver.solve(fresh).total_cost == reference_min_cost(fresh)

    def test_relaxation_ascent_cap_aborts(self):
        executor = DualAlgorithmExecutor()
        executor.relaxation.ascent_cap = 0
        network = build_scheduling_network(seed=81, num_tasks=10)
        result = executor.solve_detailed(network)
        # The capped relaxation leg died; cost scaling served the round.
        assert result.winner.algorithm != "relaxation"
        assert result.winner.total_cost == reference_min_cost(network)
        assert check_feasibility(network) == []

    def test_no_leg_in_budget_raises_round_deadline_exceeded(self, monkeypatch):
        executor = DualAlgorithmExecutor(round_deadline_seconds=0.05)

        def abort(*args, **kwargs):
            raise SolveAborted("leg killed by test")

        monkeypatch.setattr(executor.relaxation, "solve", abort)
        monkeypatch.setattr(executor.incremental, "solve", abort)
        with pytest.raises(RoundDeadlineExceeded):
            executor.solve_detailed(build_scheduling_network(seed=82))
        assert executor.deadline_exceeded_rounds == 1

    def test_round_wall_clock_bounded_under_deadline(self):
        budget = 0.2
        instance = DualAlgorithmExecutor(round_deadline_seconds=budget)
        watchdog = RoundDeadline(budget).watchdog_period
        for network, changes, expected in perturbed_rounds(seed=83, rounds=3):
            started = time.perf_counter()
            try:
                result = instance.solve(network, changes=changes)
            except RoundDeadlineExceeded:
                result = None
            elapsed = time.perf_counter() - started
            # Budget + watchdog is the contract; the extra slack only
            # absorbs CI scheduling jitter around the abort polls.
            assert elapsed <= budget + watchdog + 0.5
            if result is not None and result.optimal:
                assert result.total_cost == expected


class TestSchedulerDegradation:
    class _DeadlineStubSolver:
        """Solver stub whose every solve blows the round budget."""

        accepts_change_batches = False
        round_deadline_seconds = None

        def solve(self, network, changes=None):
            raise RoundDeadlineExceeded("stubbed: no leg finished in budget")

    @staticmethod
    def _monolithic(solver_factory, **options):
        return FirmamentScheduler(QuincyPolicy(), solver=solver_factory(), **options)

    @staticmethod
    def _sharded(solver_factory, **options):
        return ShardedScheduler(
            QuincyPolicy, num_cells=2, solver_factory=solver_factory, **options
        )

    both_schedulers = pytest.mark.parametrize(
        "build", (_monolithic, _sharded), ids=("monolithic", "sharded")
    )

    @both_schedulers
    def test_degraded_round_reuses_previous_placements(self, build):
        state = make_cluster_state(num_machines=4, slots_per_machine=2)
        healthy = FirmamentScheduler(QuincyPolicy())
        state.submit_job(make_job(job_id=1, num_tasks=3, submit_time=0.0))
        healthy.schedule_and_apply(state, now=0.0)
        running_before = {
            t.task_id: t.machine_id for t in state.tasks.values() if t.is_running
        }
        assert running_before  # the healthy round placed tasks

        # A second job arrives, but now every solve blows the budget.
        degraded_scheduler = build(
            self._DeadlineStubSolver, round_deadline_seconds=0.001
        )
        state.submit_job(make_job(job_id=2, num_tasks=2, submit_time=1.0))
        decision = degraded_scheduler.schedule(state, now=1.0)
        assert decision.degraded is True
        assert decision.degraded_reason == "round_deadline"
        # Previous feasible placements are reused: nothing moves, nothing
        # is preempted, the new tasks simply wait a round.
        assert decision.placements == {}
        assert decision.migrations == {}
        assert decision.preemptions == []
        assert set(decision.unscheduled) == {2000, 2001}
        degraded_scheduler.apply(state, decision, now=1.0)
        running_after = {
            t.task_id: t.machine_id for t in state.tasks.values() if t.is_running
        }
        assert running_after == running_before
        # No cell produced a flow: the monolith has no result, the sharded
        # round's merged one says it degraded.
        result = decision.solver_result
        assert result is None or result.statistics.degraded_round == 1

    def test_only_the_dead_cell_degrades(self):
        # Rack 0 (machines 0-1) is cell 0, rack 1 (machines 2-3) is cell 1;
        # job 2 homes to cell 0, job 1 to cell 1, whose solver blows the
        # budget every round.
        state = make_cluster_state(
            num_machines=4, machines_per_rack=2, slots_per_machine=2
        )
        solvers = iter((IncrementalCostScalingSolver(), self._DeadlineStubSolver()))
        scheduler = ShardedScheduler(
            QuincyPolicy,
            num_cells=2,
            solver_factory=lambda: next(solvers),
            balance=False,
            round_deadline_seconds=5.0,
        )
        state.submit_job(make_job(job_id=1, num_tasks=2))
        state.submit_job(make_job(job_id=2, num_tasks=2))
        decision = scheduler.schedule(state, now=0.0)
        # The healthy cell's placements land ...
        assert set(decision.placements) == {2000, 2001}
        assert set(decision.placements.values()) <= {0, 1}
        # ... the dead cell's pending tasks wait a round, and the round
        # says so.
        assert set(decision.unscheduled) == {1000, 1001}
        assert decision.degraded is True
        assert decision.degraded_reason == "round_deadline"
        assert decision.solver_result.statistics.cells_solved == 2
        assert decision.solver_result.statistics.degraded_round == 1

    def test_epsilon_truncated_round_is_marked_degraded(self, monkeypatch):
        state = make_cluster_state(num_machines=4, slots_per_machine=2)
        scheduler = FirmamentScheduler(QuincyPolicy())
        # Kill the relaxation leg and exhaust the cost-scaling budget at
        # once, so the round is deterministically served by a truncated
        # (feasible, coarser-epsilon) cost-scaling result.
        def abort(*args, **kwargs):
            raise SolveAborted("leg killed by test")

        monkeypatch.setattr(scheduler.solver.relaxation, "solve", abort)
        scheduler.solver.incremental.deadline_check = lambda: True
        state.submit_job(make_job(job_id=1, num_tasks=3, submit_time=0.0))
        decision = scheduler.schedule(state, now=0.0)
        assert decision.solver_result.algorithm != "relaxation"
        assert len(decision.placements) == 3
        assert decision.degraded is True
        assert decision.degraded_reason == "epsilon_truncated"
        assert decision.solver_result.statistics.degraded_round == 1

    @both_schedulers
    def test_deadline_requires_capable_solver(self, build):
        with pytest.raises(ValueError, match="deadline"):
            # The monolithic scheduler checks its solver at construction,
            # the sharded one when it builds the per-cell solvers for the
            # first state it is bound to.
            build(CostScalingSolver, round_deadline_seconds=1.0).schedule(
                make_cluster_state(num_machines=4)
            )


# --------------------------------------------------------------------- #
# Solver-state faults: revision-chain breaks and residual corruption
# --------------------------------------------------------------------- #
class TestSolverStateFaults:
    def test_chain_break_forces_recovery_and_stays_optimal(self):
        chaos = ChaosPolicy(schedule={"chain_break": [1, 3]})
        scheduler = FirmamentScheduler(QuincyPolicy(), chaos=chaos)
        state = make_cluster_state(num_machines=6, slots_per_machine=2)
        try:
            for round_index in range(5):
                state.submit_job(
                    make_job(
                        job_id=round_index + 1,
                        num_tasks=2,
                        submit_time=float(round_index),
                    )
                )
                decision = scheduler.schedule_and_apply(state, now=float(round_index))
                assert len(decision.placements) == 2
                assert check_feasibility(scheduler.last_network) == []
            assert scheduler.graph_manager.chain_breaks_injected == 2
            assert chaos.injected.get("chain_break") == 2
        finally:
            scheduler.close()

    def test_corrupt_residual_potentials_violates_zero_optimality(self):
        solver = IncrementalCostScalingSolver()
        network = build_scheduling_network(seed=84, num_tasks=10)
        solver.solve(network)
        residual = solver.last_residual
        assert residual is not None
        assert check_residual_epsilon_optimality(residual, 0) == []
        assert corrupt_residual_potentials(residual, seed=3) is True
        assert check_residual_epsilon_optimality(residual, 0) != []

    def test_residual_corruption_is_caught_and_rebuilt(self, monkeypatch):
        chaos = ChaosPolicy(schedule={"residual_corruption": [1, 3]})
        executor = DualAlgorithmExecutor(chaos=chaos)
        # Kill the relaxation leg so the incremental leg serves (and its
        # persistent residual survives) every round -- which leg wins the
        # modeled race is wall-clock-dependent, and a relaxation win would
        # leave no residual for the corruption to land in.
        def abort(*args, **kwargs):
            raise SolveAborted("leg killed by test")

        monkeypatch.setattr(executor.relaxation, "solve", abort)
        for network, changes, expected in perturbed_rounds(seed=85, rounds=4):
            result = executor.solve(network, changes=changes)
            assert result.total_cost == expected
            assert check_feasibility(network) == []
        # Both injected corruptions were delivered into a live residual,
        # caught by the pre-delta validation, and recovered from by warm
        # rebuild -- placement quality never moved.
        assert chaos.injected.get("residual_corruption") == 2
        assert executor.incremental.residual_validation_failures == 2


# --------------------------------------------------------------------- #
# Fault-free oracle equivalence under transport faults
# --------------------------------------------------------------------- #
def churn_script(state, round_index):
    """One round of scripted churn: a two-task job arrives, and from the
    third round on the oldest running task completes."""
    now = 5.0 * round_index
    state.submit_job(make_job(job_id=round_index + 1, num_tasks=2, submit_time=now))
    running = sorted(state.running_tasks(), key=lambda task: task.task_id)
    if round_index >= 2 and running:
        state.complete_task(running[0].task_id, now)
    return now


def cell_optimum(scheduler):
    """What a from-scratch solve of every cell's network costs."""
    return sum(
        CostScalingSolver().solve(cell.manager.network.copy()).total_cost
        for cell in scheduler._cells
        if cell.manager.network is not None and cell.manager.task_nodes
    )


class TestFaultOracle:
    def test_pipe_breaks_every_round_match_fault_free_flows(self):
        # Break the pipe under every single ship of a one-cell worker-mode
        # scheduler: the worker never participates, so the parent-side
        # incremental solver must produce *exactly* the flows of an inline
        # twin fed the same rounds -- not just the same cost.
        chaos = ChaosPolicy(schedule={"pipe_break": range(16)})
        chaotic = ShardedScheduler(QuincyPolicy, num_cells=1, workers=True, chaos=chaos)
        oracle = ShardedScheduler(QuincyPolicy, num_cells=1)
        chaotic_state = make_cluster_state(num_machines=8)
        oracle_state = make_cluster_state(num_machines=8)
        chaotic._bind(chaotic_state)
        chaotic.clients[0].breaker = breaker = WorkerCircuitBreaker(
            failure_threshold=10**9, backoff_max_rounds=0
        )
        try:
            for round_index in range(6):
                now = churn_script(chaotic_state, round_index)
                churn_script(oracle_state, round_index)
                faulty = chaotic.schedule_and_apply(chaotic_state, now)
                reference = oracle.schedule_and_apply(oracle_state, now)
                assert faulty.placements == reference.placements
                assert faulty.total_cost == reference.total_cost
                assert (
                    chaotic._cells[0].manager.network.copy().flows()
                    == oracle._cells[0].manager.network.copy().flows()
                ), f"round {round_index}"
            assert chaos.injected.get("pipe_break") == 6
            transport = chaotic.cell_transport()[0]
            # Every round was served by the parent-side solver, and every
            # round after the first respawned the worker the break killed.
            assert transport["fallback_rounds"] == 6
            assert transport["respawns"] >= 5
            assert breaker.is_closed
        finally:
            chaotic.close()
            oracle.close()

    def test_mixed_fault_storm_stays_optimal_with_matching_counters(self):
        schedule = {
            "worker_kill": [1, 4],
            "corrupt_message": [2],
            "worker_delay": [3],
        }
        chaos = ChaosPolicy(schedule=schedule, delay_seconds=0.01)
        scheduler = ShardedScheduler(QuincyPolicy, num_cells=2, workers=True, chaos=chaos)
        state = make_cluster_state(num_machines=8)
        try:
            for round_index in range(7):
                now = churn_script(state, round_index)
                decision = scheduler.schedule_and_apply(state, now)
                assert decision.total_cost == cell_optimum(scheduler), (
                    f"round {round_index}"
                )
                for cell in scheduler._cells:
                    if cell.manager.network is not None:
                        assert check_feasibility(cell.manager.network.copy()) == []
            # Every delivered fault is recorded against the round it hit
            # (rounds where the targeted cell sat out deliver nothing, so
            # compare against the policy's own injection log, not the
            # schedule).
            for fault, rounds in chaos.injected_rounds.items():
                assert set(rounds) <= set(schedule[fault])
            assert all(
                transport["breaker_open"] == 0
                for transport in scheduler.cell_transport()
            )
        finally:
            scheduler.close()


# --------------------------------------------------------------------- #
# Fig14-style closed-loop simulations under each fault class
# --------------------------------------------------------------------- #
def chaos_scheduler(fault: str, chaos: ChaosPolicy):
    """The scheduler a fault class reaches: two worker-mode cells for the
    transport faults, the default dual executor for the others."""
    if fault in WORKER_FAULTS:
        return ShardedScheduler(QuincyPolicy, num_cells=2, workers=True, chaos=chaos)
    return FirmamentScheduler(QuincyPolicy(), chaos=chaos)


def chaos_simulator(scheduler):
    state = make_cluster_state(num_machines=6, slots_per_machine=2)
    simulator = ClusterSimulator(state, scheduler, SimulationConfig(max_time=60.0))
    for job_id in range(1, 4):
        simulator.submit_job(
            make_job(
                job_id=job_id,
                num_tasks=4,
                duration=6.0,
                submit_time=float(job_id - 1) * 3.0,
            )
        )
    return state, simulator


def run_chaos_simulation(fault: str):
    chaos = ChaosPolicy(seed=13, rates={fault: 0.6}, delay_seconds=0.01)
    _, simulator = chaos_simulator(chaos_scheduler(fault, chaos))
    try:
        result = simulator.run()
    finally:
        simulator.close()
    return result, chaos


class TestChaosSimulation:
    @pytest.mark.parametrize("fault", FAULT_KINDS)
    def test_simulation_completes_under_each_fault_class(self, fault):
        result, chaos = run_chaos_simulation(fault)
        metrics = result.metrics
        # The run completes: every task placed and finished, zero rounds
        # unserved, no stall regardless of the injected fault class.
        assert metrics.tasks_placed == 12
        assert metrics.tasks_completed == 12
        assert metrics.tasks_unplaced == 0
        assert len(result.schedule_records) >= 1
        # No deadline was configured, so no round may report degradation.
        assert metrics.degraded_round_count() == 0
        assert sum(r.deadline_hits for r in metrics.rounds) == 0

    def test_worker_kill_simulation_actually_injected_and_recovered(self):
        # Deterministic variant: kill a worker on the run's last round
        # (round 2 aims at cell 0, which takes part in it: rounds 0 and 1
        # place the first two jobs in cells 1 and 0).  The kill is
        # synchronous (terminate, join, detach), so the next round cell 0
        # takes part respawns behind the breaker's zero-round backoff.
        chaos = ChaosPolicy(schedule={"worker_kill": [2]})
        scheduler = ShardedScheduler(
            QuincyPolicy, num_cells=2, workers=True, chaos=chaos
        )
        state, simulator = chaos_simulator(scheduler)
        try:
            result = simulator.run()
            assert chaos.injected.get("worker_kill", 0) == 1
            assert result.metrics.tasks_unplaced == 0
            assert result.metrics.tasks_completed == 12
            # The respawn counters thread through ScheduleRecord into
            # MetricsSummary verbatim.
            assert [r.worker_respawns for r in result.metrics.rounds] == [
                r.statistics.worker_respawns for r in result.schedule_records
            ]
            assert [r.breaker_open for r in result.metrics.rounds] == [
                r.statistics.breaker_open for r in result.schedule_records
            ]
            transport = scheduler.cell_transport()[0]
            # The killed round was served by the parent-side solver.
            assert transport["fallback_rounds"] == 1
            assert not scheduler.clients[0].alive
            # One more round, with a job too large for one cell, makes cell
            # 0 take part again: its worker comes back.
            state.submit_job(make_job(job_id=9, num_tasks=12, submit_time=60.0))
            decision = scheduler.schedule_and_apply(state, now=60.0)
            assert decision.solver_result.statistics.worker_respawns == 1
            transport = scheduler.cell_transport()[0]
            assert transport["respawns"] == 1
            assert transport["fallback_rounds"] == 1
            assert scheduler.clients[0].breaker.is_closed
        finally:
            simulator.close()

    def test_deadline_simulation_records_rounds_in_budget_or_degraded(self):
        budget = 0.25
        state = make_cluster_state(num_machines=6, slots_per_machine=2)
        scheduler = FirmamentScheduler(
            QuincyPolicy(), round_deadline_seconds=budget
        )
        simulator = ClusterSimulator(
            state, scheduler, SimulationConfig(max_time=60.0)
        )
        for job_id in range(1, 4):
            simulator.submit_job(
                make_job(job_id=job_id, num_tasks=4, duration=6.0, submit_time=0.0)
            )
        try:
            result = simulator.run()
        finally:
            simulator.close()
        assert result.metrics.tasks_unplaced == 0
        assert result.metrics.tasks_completed == 12
        watchdog = RoundDeadline(budget).watchdog_period
        for record in result.schedule_records:
            # Every round finished within budget + watchdog or was
            # recorded degraded -- never silently late, never a stall.
            assert (
                record.algorithm_runtime <= budget + watchdog
                or record.statistics.degraded_round == 1
            )
        assert [r.degraded_round for r in result.metrics.rounds] == [
            r.statistics.degraded_round for r in result.schedule_records
        ]
