"""Event-order fuzz suite for the simulator's conservation invariant.

Real clusters give no ordering guarantee for simultaneous events, so the
simulator must keep its books straight under *every* same-timestamp
interleaving, not just the FIFO order insertion happens to produce.  Each
fuzz case runs the same workload across many ``tie_break_seed`` values (and
both drain modes) and asserts the apply-or-void conservation law after
every run::

    sum(record.num_placements) == applied to state + drift-dropped + voided

via :func:`verify_placement_conservation`, which also cross-checks the
per-record counters against the run totals.
"""

import pytest

from repro.baselines import SparrowScheduler
from repro.core import FirmamentScheduler, LoadSpreadingPolicy, QuincyPolicy
from repro.simulation.simulator import (
    ClusterSimulator,
    SimulationConfig,
    verify_placement_conservation,
)
from repro.simulation.trace import GoogleTraceGenerator, TraceConfig
from tests.conftest import make_cluster_state, make_job

FUZZ_SEEDS = range(8)


def run_and_verify(state, scheduler, config, jobs=(), setup=None):
    """Run a simulation and assert the conservation law; return the result."""
    simulator = ClusterSimulator(state, scheduler, config)
    for job in jobs:
        simulator.submit_job(job)
    if setup is not None:
        setup(simulator)
    try:
        result = simulator.run()
    finally:
        simulator.close()
    tallies = verify_placement_conservation(result)
    assert tallies["recorded"] == (
        tallies["applied"] + tallies["dropped"] + tallies["voided"]
    )
    return result


class TestShuffledInterleavings:
    """Same-timestamp event shuffles must preserve conservation."""

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    @pytest.mark.parametrize("drain", [True, False])
    def test_simultaneous_submissions(self, seed, drain):
        state = make_cluster_state(num_machines=4, slots_per_machine=2)
        # Five jobs all submitted at t=0 plus a burst at t=2: every queue
        # pop at those timestamps is a fuzzed choice.
        jobs = [
            make_job(job_id=j + 1, num_tasks=3, duration=1.5, submit_time=0.0)
            for j in range(5)
        ] + [
            make_job(job_id=j + 6, num_tasks=2, duration=1.0, submit_time=2.0)
            for j in range(3)
        ]
        config = SimulationConfig(max_time=10.0, drain=drain, tie_break_seed=seed)
        result = run_and_verify(state, FirmamentScheduler(QuincyPolicy()), config, jobs)
        assert result.schedule_records

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_completion_races_submission(self, seed):
        # Task durations chosen so completions land exactly on later jobs'
        # submit times; the shuffle decides which the scheduler sees first.
        state = make_cluster_state(num_machines=2, slots_per_machine=1)
        jobs = [
            make_job(job_id=1, num_tasks=2, duration=2.0, submit_time=0.0),
            make_job(job_id=2, num_tasks=2, duration=2.0, submit_time=2.0),
            make_job(job_id=3, num_tasks=2, duration=2.0, submit_time=4.0),
        ]
        config = SimulationConfig(max_time=30.0, tie_break_seed=seed)
        result = run_and_verify(state, SparrowScheduler(), config, jobs)
        assert result.metrics.tasks_completed == 6

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_failure_races_scheduling(self, seed):
        # A machine fails while rounds are in flight; evictions must not
        # break per-round accounting (evicted placements show up as drops
        # or re-placements, never silent losses).
        state = make_cluster_state(num_machines=4, slots_per_machine=2)
        jobs = [
            make_job(job_id=1, num_tasks=6, duration=5.0, submit_time=0.0),
            make_job(job_id=2, num_tasks=4, duration=5.0, submit_time=1.0),
        ]

        def setup(simulator):
            simulator.fail_machine_at(0, 1.0)
            simulator.fail_machine_at(1, 1.0)  # simultaneous with job 2
            simulator.recover_machine_at(0, 6.0)

        config = SimulationConfig(max_time=40.0, tie_break_seed=seed)
        result = run_and_verify(
            state, FirmamentScheduler(LoadSpreadingPolicy()), config, jobs, setup
        )
        assert result.metrics.tasks_completed == 10


class TestStaleCompletions:
    """Completion events from before an eviction must not fire after a restart."""

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    def test_evicted_task_restart_ignores_stale_completion(self, seed):
        state = make_cluster_state(num_machines=2, slots_per_machine=1)
        job = make_job(job_id=1, num_tasks=2, duration=10.0, submit_time=0.0)

        def setup(simulator):
            # Fail one machine mid-run: its task is evicted, restarts later,
            # and the original completion event (placed-at-0 + 10s) must be
            # recognized as stale when it fires.
            simulator.fail_machine_at(0, 3.0)
            simulator.recover_machine_at(0, 5.0)

        config = SimulationConfig(max_time=60.0, tie_break_seed=seed)
        result = run_and_verify(
            state, FirmamentScheduler(LoadSpreadingPolicy()), config, [job], setup
        )
        assert result.metrics.tasks_completed == 2
        for task in state.tasks.values():
            # A restarted task's response time covers its full second run:
            # finish >= restart + duration, so never before t=13.
            assert task.finish_time >= 10.0

    @pytest.mark.parametrize("seed", range(4))
    def test_migration_restart_race(self, seed):
        # reschedule_running lets the flow scheduler migrate running work;
        # migrations requeue completions, so the pre-migration event must
        # be detected as stale.
        state = make_cluster_state(num_machines=4, slots_per_machine=2)
        jobs = [
            make_job(job_id=1, num_tasks=4, duration=6.0, submit_time=0.0),
            make_job(job_id=2, num_tasks=4, duration=6.0, submit_time=0.5),
        ]
        config = SimulationConfig(
            max_time=40.0, reschedule_running=True, tie_break_seed=seed
        )
        result = run_and_verify(
            state, FirmamentScheduler(LoadSpreadingPolicy()), config, jobs
        )
        assert result.metrics.tasks_completed == 8


class TestDrainSemantics:
    """drain vs no-drain end states, and the no-drain void accounting."""

    def _slow_round_result(self, drain, seed=None):
        # runtime_scale stretches each round far past max_time, so the
        # final round's SCHEDULER_DONE always lands outside the window.
        state = make_cluster_state(num_machines=2, slots_per_machine=1)
        jobs = [make_job(job_id=1, num_tasks=4, duration=1.0, submit_time=0.0)]
        config = SimulationConfig(
            max_time=0.5,
            runtime_scale=50_000.0,
            drain=drain,
            tie_break_seed=seed,
        )
        return run_and_verify(state, FirmamentScheduler(QuincyPolicy()), config, jobs)

    @pytest.mark.parametrize("seed", [None, 0, 1, 2])
    def test_no_drain_voids_in_flight_round(self, seed):
        result = self._slow_round_result(drain=False, seed=seed)
        # The in-flight round was voided, not silently lost.
        assert result.rounds_voided >= 1
        assert any(r.voided for r in result.schedule_records)
        voided = [r for r in result.schedule_records if r.voided]
        assert all(r.num_applied == 0 and r.num_dropped == 0 for r in voided)
        # No placement ever landed: the round never completed in-window.
        assert result.placements_applied == 0
        assert all(not t.is_running for t in result.state.tasks.values())

    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_drain_applies_in_flight_round(self, seed):
        result = self._slow_round_result(drain=True, seed=seed)
        # Draining lets the slow round land: its placements are applied and
        # the tasks run to completion past max_time.
        assert result.placements_applied > 0
        assert result.metrics.tasks_completed == 4
        assert result.rounds_voided == 0

    def test_hard_stop_voids_unreachable_rounds(self):
        # Service tasks never complete, so with pending work the simulation
        # can only end at the hard stop; any round queued beyond it must be
        # voided by finalize(), and the total books must still balance.
        from repro.cluster.task import JobType

        state = make_cluster_state(num_machines=2, slots_per_machine=1)
        jobs = [
            make_job(job_id=1, num_tasks=4, duration=None, job_type=JobType.SERVICE),
        ]
        # runtime_scale puts the first round's SCHEDULER_DONE far beyond the
        # hard stop (max_time * 2 + 600), so the run breaks out and
        # finalize() must void it.
        config = SimulationConfig(max_time=10.0, runtime_scale=1e9, drain=True)
        result = run_and_verify(state, FirmamentScheduler(QuincyPolicy()), config, jobs)
        assert result.rounds_voided >= 1

    @pytest.mark.parametrize("seed", FUZZ_SEEDS)
    @pytest.mark.parametrize("drain", [True, False])
    def test_trace_replay_conserves_under_shuffles(self, seed, drain):
        trace = TraceConfig(
            num_machines=8,
            slots_per_machine=4,
            target_utilization=0.6,
            duration=40.0,
            seed=17,
        )
        state = make_cluster_state(num_machines=8, machines_per_rack=4, slots_per_machine=4)
        config = SimulationConfig(max_time=40.0, drain=drain, tie_break_seed=seed)
        simulator = ClusterSimulator(state, FirmamentScheduler(QuincyPolicy()), config)
        simulator.submit_job_stream(GoogleTraceGenerator(trace).iter_jobs())
        try:
            result = simulator.run()
        finally:
            simulator.close()
        tallies = verify_placement_conservation(result)
        assert tallies["applied"] == result.placements_applied
        assert result.metrics.tasks_placed > 0

