"""Unit and integration tests for the event-driven simulator and metrics."""

from dataclasses import asdict

import pytest

from repro.baselines import SparrowScheduler, SwarmKitScheduler
from repro.core import FirmamentScheduler, LoadSpreadingPolicy, QuincyPolicy
from repro.core.sharding import ShardedScheduler
from repro.simulation.metrics import (
    MetricsSummary,
    collect_metrics,
    input_data_locality,
)
from repro.simulation.simulator import ClusterSimulator, SimulationConfig
from repro.solvers.base import RoundDeadlineExceeded, SolverStatistics
from repro.simulation.trace import GoogleTraceGenerator, TraceConfig
from tests.conftest import make_cluster_state, make_job


class TestSimulatorBasics:
    def test_single_job_runs_to_completion(self):
        state = make_cluster_state(num_machines=4, slots_per_machine=2)
        simulator = ClusterSimulator(
            state, FirmamentScheduler(QuincyPolicy()), SimulationConfig(max_time=100.0)
        )
        simulator.submit_job(make_job(job_id=1, num_tasks=4, duration=5.0, submit_time=1.0))
        result = simulator.run()
        metrics = result.metrics
        assert metrics.tasks_placed == 4
        assert metrics.tasks_completed == 4
        assert metrics.tasks_unplaced == 0
        assert len(result.schedule_records) >= 1
        assert all(t.finish_time is not None for t in state.tasks.values())
        # Response time is at least the task duration.
        assert metrics.response_time_percentile(0) >= 5.0

    def test_placement_latency_includes_solver_runtime(self):
        state = make_cluster_state(num_machines=4, slots_per_machine=2)
        config = SimulationConfig(max_time=50.0, runtime_scale=100.0)
        simulator = ClusterSimulator(state, FirmamentScheduler(QuincyPolicy()), config)
        simulator.submit_job(make_job(job_id=1, num_tasks=3, duration=2.0, submit_time=0.0))
        result = simulator.run()
        # The (scaled) solver runtime shows up as placement latency.
        scaled_runtime = result.schedule_records[0].algorithm_runtime
        assert result.metrics.placement_latency_percentile(50) >= scaled_runtime * 0.5

    def test_relaxation_observability_threads_into_metrics(self):
        """SolverStatistics relaxation counters flow through ScheduleRecord
        into MetricsSummary."""
        state = make_cluster_state(num_machines=4, slots_per_machine=2)
        simulator = ClusterSimulator(
            state, FirmamentScheduler(QuincyPolicy()), SimulationConfig(max_time=100.0)
        )
        simulator.submit_job(make_job(job_id=1, num_tasks=4, duration=5.0, submit_time=1.0))
        result = simulator.run()
        records = result.schedule_records
        assert len(records) >= 1
        # The sequential executor always runs the relaxation leg, so every
        # record carries its tree/ascent counters regardless of the winner.
        assert any(r.statistics.relaxation_tree_nodes > 0 for r in records)
        rounds = result.metrics.rounds
        assert [r.relaxation_tree_nodes for r in rounds] == [
            r.statistics.relaxation_tree_nodes for r in records
        ]
        assert [r.dual_ascents for r in rounds] == [
            r.statistics.dual_ascents for r in records
        ]
        # No worker exists on the sequential executor: no ships recorded.
        assert sum(r.snapshot_ships for r in rounds) == 0
        assert sum(r.delta_ships for r in rounds) == 0
        assert result.metrics.delta_ship_ratio() == 0.0

    def test_delta_ship_ratio(self):
        summary = MetricsSummary(
            rounds=[
                SolverStatistics(snapshot_ships=1),
                SolverStatistics(delta_ships=1),
                SolverStatistics(delta_ships=1),
            ]
        )
        assert summary.delta_ship_ratio() == pytest.approx(2 / 3)
        assert MetricsSummary().delta_ship_ratio() == 0.0

    def test_queue_based_scheduler_places_tasks_one_by_one(self):
        state = make_cluster_state(num_machines=4, slots_per_machine=2)
        scheduler = SparrowScheduler(per_task_decision_seconds=0.01)
        simulator = ClusterSimulator(state, scheduler, SimulationConfig(max_time=50.0))
        simulator.submit_job(make_job(job_id=1, num_tasks=4, duration=2.0, submit_time=0.0))
        result = simulator.run()
        latencies = sorted(result.metrics.placement_latencies)
        assert len(latencies) == 4
        # Tasks placed later in the queue waited longer.
        assert latencies[-1] > latencies[0]

    def test_tasks_queue_when_cluster_is_full(self):
        state = make_cluster_state(num_machines=2, slots_per_machine=1)
        simulator = ClusterSimulator(
            state, FirmamentScheduler(QuincyPolicy()), SimulationConfig(max_time=200.0)
        )
        simulator.submit_job(make_job(job_id=1, num_tasks=6, duration=5.0, submit_time=0.0))
        result = simulator.run()
        # All six tasks eventually completed on two slots.
        assert result.metrics.tasks_completed == 6
        # The last tasks had to wait for at least two full task durations.
        assert result.metrics.placement_latency_percentile(100) >= 10.0

    def test_service_tasks_never_complete(self):
        from repro.cluster.task import JobType

        state = make_cluster_state(num_machines=4, slots_per_machine=2)
        simulator = ClusterSimulator(
            state, FirmamentScheduler(QuincyPolicy()), SimulationConfig(max_time=30.0)
        )
        simulator.submit_job(
            make_job(job_id=1, num_tasks=2, duration=None, job_type=JobType.SERVICE)
        )
        result = simulator.run()
        # batch_only metrics use one consistent population: service tasks
        # are excluded from the placement counters too, not just the
        # completion counters (the old accounting mixed populations).
        assert result.metrics.tasks_placed == 0
        assert result.metrics.tasks_completed == 0
        assert all(t.is_running for t in state.tasks.values())
        # The full-population view still sees the placements.
        full = collect_metrics(state, batch_only=False)
        assert full.tasks_placed == 2
        assert full.tasks_completed == 0

    def test_multiple_jobs_over_time(self):
        state = make_cluster_state(num_machines=6, slots_per_machine=2)
        simulator = ClusterSimulator(
            state, FirmamentScheduler(LoadSpreadingPolicy()), SimulationConfig(max_time=100.0)
        )
        for index in range(5):
            simulator.submit_job(
                make_job(job_id=index + 1, num_tasks=3, duration=4.0, submit_time=index * 3.0)
            )
        result = simulator.run()
        assert result.metrics.tasks_completed == 15
        assert len(result.schedule_records) >= 5

    def test_reschedule_running_flag(self):
        state = make_cluster_state(num_machines=4, slots_per_machine=2)
        job = make_job(job_id=1, num_tasks=2, duration=None)
        state.submit_job(job)
        state.place_task(job.tasks[0].task_id, 0, 0.0)
        state.place_task(job.tasks[1].task_id, 0, 0.0)
        config = SimulationConfig(max_time=5.0, reschedule_running=True)
        simulator = ClusterSimulator(state, FirmamentScheduler(LoadSpreadingPolicy()), config)
        simulator.submit_job(make_job(job_id=2, num_tasks=1, duration=1.0, submit_time=0.5))
        result = simulator.run()
        assert result.schedule_records


def record_rounds(scheduler):
    """Wrap ``scheduler.schedule`` to keep every round's decision beside a
    field-by-field snapshot of its statistics, taken when it was returned
    (``None`` for a round without a solver result)."""
    rounds = []
    schedule = scheduler.schedule

    def recording(state, now):
        decision = schedule(state, now)
        result = decision.solver_result
        rounds.append(
            (decision, None if result is None else asdict(result.statistics))
        )
        return decision

    scheduler.schedule = recording
    return rounds


class DeadlineSolver:
    """Every solve blows the round budget: no round has a result."""

    accepts_change_batches = False
    charges_wall_clock = False
    round_deadline_seconds = None

    def solve(self, network, changes=None):
        raise RoundDeadlineExceeded("stubbed: no leg finished in budget")


class TestRoundRecords:
    """A record's ``statistics`` is the round's solver statistics, carried
    whole: every field reaches the record and ``MetricsSummary.rounds``."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: FirmamentScheduler(QuincyPolicy()),
            lambda: ShardedScheduler(QuincyPolicy, num_cells=2),
            lambda: SparrowScheduler(per_task_decision_seconds=0.01),
        ],
        ids=["monolithic", "two-cells", "baseline"],
    )
    def test_record_statistics_equal_the_rounds_solver_statistics(self, build):
        state = make_cluster_state(num_machines=8, machines_per_rack=4)
        scheduler = build()
        rounds = record_rounds(scheduler)
        simulator = ClusterSimulator(state, scheduler, SimulationConfig(max_time=60.0))
        for job_id in range(1, 5):
            simulator.submit_job(
                make_job(job_id=job_id, num_tasks=3, duration=4.0,
                         submit_time=2.0 * job_id)
            )
        try:
            result = simulator.run()
        finally:
            simulator.close()
        records = result.schedule_records
        assert len(records) == len(rounds) >= 2
        for record, (decision, expected) in zip(records, rounds):
            if expected is None:
                expected = asdict(SolverStatistics())
                assert record.winning_algorithm == ""
            else:
                assert record.statistics is not decision.solver_result.statistics
                assert record.winning_algorithm == decision.solver_result.algorithm
            assert not decision.degraded
            assert asdict(record.statistics) == expected
            assert record.graph_update_seconds == decision.graph_update_seconds
        assert result.metrics.rounds == [r.statistics for r in records]
        solved = [r.statistics.cells_solved for r in records]
        if isinstance(scheduler, ShardedScheduler):
            assert all(1 <= n <= 2 for n in solved)
        else:
            assert solved == [0] * len(records)
        if isinstance(scheduler, SparrowScheduler):
            assert all(expected is None for _, expected in rounds)

    def test_round_without_a_result_is_recorded_degraded(self):
        state = make_cluster_state(num_machines=4, slots_per_machine=2)
        scheduler = FirmamentScheduler(QuincyPolicy(), solver=DeadlineSolver())
        rounds = record_rounds(scheduler)
        simulator = ClusterSimulator(state, scheduler, SimulationConfig(max_time=10.0))
        simulator.submit_job(make_job(job_id=1, num_tasks=2, submit_time=1.0))
        result = simulator.run()
        assert len(result.schedule_records) == len(rounds) == 1
        decision, expected = rounds[0]
        assert decision.degraded_reason == "round_deadline" and expected is None
        record = result.schedule_records[0]
        assert record.statistics == SolverStatistics(degraded_round=1)
        assert record.winning_algorithm == ""
        assert result.metrics.degraded_round_count() == 1


class TestMetrics:
    def test_collect_metrics_from_state(self):
        state = make_cluster_state(num_machines=2, slots_per_machine=2)
        job = make_job(job_id=1, num_tasks=2, duration=5.0)
        state.submit_job(job)
        state.place_task(job.tasks[0].task_id, 0, now=1.0)
        state.complete_task(job.tasks[0].task_id, now=6.0)
        summary = collect_metrics(state, algorithm_runtimes=[0.25, 0.75])
        assert summary.tasks_placed == 1
        assert summary.tasks_completed == 1
        assert summary.tasks_unplaced == 1
        assert summary.placement_latency_percentile(50) == pytest.approx(1.0)
        assert summary.response_time_percentile(50) == pytest.approx(6.0)
        assert summary.mean_algorithm_runtime() == pytest.approx(0.5)
        assert summary.algorithm_runtime_percentile(100) == pytest.approx(0.75)

    def test_job_response_time_requires_all_tasks(self):
        state = make_cluster_state()
        job = make_job(job_id=1, num_tasks=2, duration=5.0)
        state.submit_job(job)
        state.place_task(job.tasks[0].task_id, 0, now=0.0)
        state.complete_task(job.tasks[0].task_id, now=5.0)
        summary = collect_metrics(state)
        assert summary.job_response_times == []

    def test_data_locality_metric(self):
        state = make_cluster_state()
        job = make_job(
            job_id=1, num_tasks=1, input_size_gb=10.0, input_locality={0: 0.8, 1: 0.1}
        )
        state.submit_job(job)
        state.place_task(job.tasks[0].task_id, 0, now=0.0)
        assert input_data_locality(state) == pytest.approx(0.8)
        state.complete_task(job.tasks[0].task_id, now=5.0)
        assert input_data_locality(state) == pytest.approx(0.8)

    def test_data_locality_ignores_tasks_without_input(self):
        state = make_cluster_state()
        job = make_job(job_id=1, num_tasks=1)
        state.submit_job(job)
        state.place_task(job.tasks[0].task_id, 0, now=0.0)
        assert input_data_locality(state) == 0.0

    def test_empty_metrics(self):
        state = make_cluster_state()
        summary = collect_metrics(state)
        assert summary.placement_latencies == []
        assert summary.mean_algorithm_runtime() == 0.0

    def test_evicted_unreplaced_task_counts_as_unplaced(self):
        # An evicted-but-not-replaced task is waiting for placement just
        # like a never-placed one; the old accounting only counted
        # SUBMITTED tasks and understated the backlog.
        state = make_cluster_state(num_machines=2, slots_per_machine=2)
        job = make_job(job_id=1, num_tasks=2, duration=50.0)
        state.submit_job(job)
        state.place_task(job.tasks[0].task_id, 0, now=1.0)
        state.place_task(job.tasks[1].task_id, 0, now=1.0)
        state.fail_machine(0, now=5.0)
        summary = collect_metrics(state)
        assert summary.tasks_unplaced == 2
        # They were placed once, so they still count in tasks_placed.
        assert summary.tasks_placed == 2

    def test_batch_only_filter_shares_one_population(self):
        from repro.cluster.task import JobType

        state = make_cluster_state(num_machines=2, slots_per_machine=4)
        service = make_job(job_id=1, num_tasks=2, duration=None, job_type=JobType.SERVICE)
        batch = make_job(job_id=2, num_tasks=2, duration=5.0)
        state.submit_job(service)
        state.submit_job(batch)
        for task in service.tasks + batch.tasks:
            state.place_task(task.task_id, 0, now=1.0)
        for task in batch.tasks:
            state.complete_task(task.task_id, now=6.0)
        summary = collect_metrics(state, batch_only=True)
        # Placement and completion counters describe the same (batch)
        # denominator; service placements don't leak into one side only.
        assert summary.tasks_placed == 2
        assert summary.tasks_completed == 2
        assert len(summary.placement_latencies) == len(summary.response_times)
        full = collect_metrics(state, batch_only=False)
        assert full.tasks_placed == 4
        assert full.tasks_completed == 2

    def test_data_locality_respects_batch_only_population(self):
        # Regression: input_data_locality used to ignore batch_only, so
        # service tasks counted in the locality metric while being
        # excluded from every other per-task counter of collect_metrics.
        from repro.cluster.task import JobType

        state = make_cluster_state(num_machines=2, slots_per_machine=4)
        service = make_job(
            job_id=1, num_tasks=1, duration=None, job_type=JobType.SERVICE,
            input_size_gb=10.0, input_locality={0: 0.0},
        )
        batch = make_job(
            job_id=2, num_tasks=1, duration=5.0,
            input_size_gb=10.0, input_locality={0: 1.0},
        )
        state.submit_job(service)
        state.submit_job(batch)
        for task in service.tasks + batch.tasks:
            state.place_task(task.task_id, 0, now=1.0)
        # The batch population reads 100% locally; only the service task
        # read remotely.  batch_only metrics must not see the service read.
        assert input_data_locality(state, batch_only=True) == pytest.approx(1.0)
        assert input_data_locality(state, batch_only=False) == pytest.approx(0.5)
        # And collect_metrics threads its flag through: one population for
        # *all* task-level metrics, data locality included.
        assert collect_metrics(state, batch_only=True).data_locality == pytest.approx(1.0)
        assert collect_metrics(state, batch_only=False).data_locality == pytest.approx(0.5)

    def test_data_locality_credits_evicted_task_last_placement(self):
        # A task evicted after running read its input on the machine it
        # actually ran on; charging its bytes with zero possible credit
        # (the old machine_id-only accounting) deflated the metric.
        state = make_cluster_state(num_machines=2, slots_per_machine=2)
        job = make_job(
            job_id=1, num_tasks=1, duration=50.0,
            input_size_gb=10.0, input_locality={0: 0.8},
        )
        state.submit_job(job)
        state.place_task(job.tasks[0].task_id, 0, now=1.0)
        assert input_data_locality(state) == pytest.approx(0.8)
        state.fail_machine(0, now=5.0)
        task = job.tasks[0]
        assert task.machine_id is None and task.is_pending
        # Credited with the last placement, not charged at zero.
        assert input_data_locality(state) == pytest.approx(0.8)

    def test_data_locality_skips_never_placed_tasks(self):
        state = make_cluster_state(num_machines=2, slots_per_machine=2)
        job = make_job(job_id=1, num_tasks=1, input_size_gb=10.0,
                       input_locality={0: 0.8})
        state.submit_job(job)
        # Never ran anywhere: nothing read, nothing charged.
        assert input_data_locality(state) == 0.0


class TestTraceReplayIntegration:
    def test_firmament_keeps_up_with_small_trace(self):
        config = TraceConfig(num_machines=16, slots_per_machine=4,
                             target_utilization=0.4, duration=80.0, seed=21)
        state = make_cluster_state(num_machines=16, machines_per_rack=8, slots_per_machine=4)
        simulator = ClusterSimulator(
            state, FirmamentScheduler(QuincyPolicy()), SimulationConfig(max_time=80.0)
        )
        simulator.submit_jobs(GoogleTraceGenerator(config).generate())
        result = simulator.run()
        assert result.metrics.tasks_placed > 0
        # Placement latencies on a small cluster are far below a second.
        assert result.metrics.placement_latency_percentile(50) < 1.0

    def test_same_trace_same_results_for_deterministic_scheduler(self):
        config = TraceConfig(num_machines=12, duration=60.0, seed=31, service_job_fraction=0.0)

        def run_once():
            state = make_cluster_state(num_machines=12, machines_per_rack=6)
            simulator = ClusterSimulator(
                state, SwarmKitScheduler(), SimulationConfig(max_time=60.0)
            )
            simulator.submit_jobs(GoogleTraceGenerator(config).generate())
            return simulator.run()

        first = run_once()
        second = run_once()
        assert first.metrics.tasks_completed == second.metrics.tasks_completed
        assert first.metrics.response_times == second.metrics.response_times
