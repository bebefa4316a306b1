"""Event-order fuzz suite for the simulator's conservation invariant.

Real clusters give no ordering guarantee for simultaneous events, so the
simulator must keep its books straight under *every* same-timestamp
interleaving, not just the FIFO order insertion happens to produce.  Each
fuzz case runs the same workload across many ``tie_break_seed`` values (and
both drain modes) and asserts the apply-or-void conservation law after
every run::

    sum(record.num_placements) == applied to state + voided

via :func:`verify_placement_conservation`, which also checks that only the
run's last round is voided.
"""

import pytest

from repro.baselines import SparrowScheduler
from repro.core import FirmamentScheduler, LoadSpreadingPolicy, QuincyPolicy
from repro.core.scheduler import SchedulingDecision
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
    assert tallies["recorded"] == tallies["applied"] + tallies["voided"]
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
        # break per-round accounting (evicted placements show up as
        # re-placements, never silent losses).
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
        # final round's charged finish always lands outside the window.
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
        # can only end at the hard stop; a round finishing beyond it must be
        # voided, and the total books must still balance.
        from repro.cluster.task import JobType

        state = make_cluster_state(num_machines=2, slots_per_machine=1)
        jobs = [
            make_job(job_id=1, num_tasks=4, duration=None, job_type=JobType.SERVICE),
        ]
        # runtime_scale puts the first round's finish far beyond the hard
        # stop (max_time * 2 + 600), so the round is voided when decided.
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


#: The stub's rounds report ``runtime / SCALE`` seconds and the runs charge
#: them at ``runtime_scale=SCALE`` (a power of two: the virtual times stay
#: exact).
SCALE = 1024.0


def decided(runtime=1.0, **actions):
    """A scripted round: its actions, charged ``runtime`` virtual seconds."""
    return SchedulingDecision(algorithm_runtime=runtime / SCALE, **actions)


class ScriptedScheduler:
    """A stub scheduler: call ``k`` of ``schedule(state, now)`` returns the
    script's ``k``-th decision (an empty one-second round past its end) and
    records ``(now, pending task ids)``."""

    def __init__(self, *decisions):
        self.decisions = list(decisions)
        self.calls = []

    def schedule(self, state, now):
        call = len(self.calls)
        self.calls.append((now, sorted(state.pending_task_ids())))
        return self.decisions[call] if call < len(self.decisions) else decided()


def run_scripted(state, scheduler, seed, jobs=(), setup=None, **config):
    config = SimulationConfig(runtime_scale=SCALE, tie_break_seed=seed, **config)
    result = run_and_verify(state, scheduler, config, jobs, setup)
    return result, verify_placement_conservation(result)


class TestAtomicRounds:
    """A round is decided and applied at its charged finish; what happens
    inside the solve is admitted after the apply, as in ``serve``."""

    @pytest.mark.parametrize("seed", [None, *FUZZ_SEEDS])
    def test_swap_between_full_machines_applies(self, seed):
        state = make_cluster_state(num_machines=2, slots_per_machine=1)
        job = make_job(job_id=1, num_tasks=2, duration=100.0)
        first, second = (task.task_id for task in job.tasks)
        scheduler = ScriptedScheduler(
            decided(placements={first: 0, second: 1}),
            decided(migrations={first: 1, second: 0}),
        )
        result, tallies = run_scripted(
            state, scheduler, seed, [job],
            max_time=300.0, reschedule_running=True,
        )
        assert tallies["applied"] == 4 and tallies["voided"] == 0
        # Both halves landed at round 2's finish (t=2), and each task ran
        # its whole duration from there: the pre-swap completions were stale.
        assert [state.tasks[t].machine_id for t in (first, second)] == [1, 0]
        assert [state.tasks[t].start_time for t in (first, second)] == [2.0] * 2
        assert min(state.tasks[t].finish_time for t in (first, second)) == 102.0
        assert result.metrics.tasks_completed == 2

    @pytest.mark.parametrize("seed", [None, *FUZZ_SEEDS])
    def test_machine_failing_inside_a_solve_evicts_at_the_finish(self, seed):
        state = make_cluster_state(num_machines=2, slots_per_machine=1)
        job = make_job(job_id=1, num_tasks=1, duration=10.0)
        task_id = job.tasks[0].task_id
        scheduler = ScriptedScheduler(
            decided(2.0, placements={task_id: 0}),
            decided(2.0, placements={task_id: 1}),
        )
        result, tallies = run_scripted(
            state, scheduler, seed, [job],
            setup=lambda simulator: simulator.fail_machine_at(0, 1.0),
            max_time=100.0,
        )
        # Placed at round 1's finish (t=2), evicted there by the failure
        # held from t=1, and placed again by round 2 (finish t=4).
        assert tallies["applied"] == 2
        assert scheduler.calls == [(0.0, [task_id]), (2.0, [task_id])]
        task = state.tasks[task_id]
        assert task.placement_time == 2.0
        assert task.machine_id == 1 and task.finish_time == 14.0

    @pytest.mark.parametrize("seed", [None, *FUZZ_SEEDS])
    def test_completion_inside_a_migrating_solve_is_stale(self, seed):
        state = make_cluster_state(num_machines=2, slots_per_machine=1)
        job = make_job(job_id=1, num_tasks=1, duration=3.0)
        task_id = job.tasks[0].task_id
        # Round 1 places the task at t=1; round 2 starts there and is
        # charged 5 s, so the task's completion at t=4 falls inside it.
        scheduler = ScriptedScheduler(
            decided(placements={task_id: 0}),
            decided(5.0, migrations={task_id: 1}),
        )
        result, tallies = run_scripted(
            state, scheduler, seed, [job],
            max_time=100.0, reschedule_running=True,
        )
        assert tallies["applied"] == 2
        # The migration applied at t=6, the completion queued for the run
        # that started at t=1 was ignored, and the task ran 3 s from t=6.
        task = state.tasks[task_id]
        assert task.machine_id == 1
        assert task.start_time == 6.0 and task.finish_time == 9.0

    @pytest.mark.parametrize("seed", [None, *FUZZ_SEEDS])
    def test_submissions_inside_a_solve_coalesce_into_the_next_round(self, seed):
        state = make_cluster_state(num_machines=4, slots_per_machine=1)
        first = make_job(job_id=1, num_tasks=1, submit_time=0.0)
        # Three submissions streamed in at the instant round 1's charged
        # solve [0, 5] ends: they are inside the solve, so all three are
        # admitted before round 2 starts, whatever the same-time order.
        late = [
            make_job(job_id=job_id, num_tasks=1, submit_time=5.0)
            for job_id in (2, 3, 4)
        ]
        scheduler = ScriptedScheduler(
            decided(5.0, placements={first.tasks[0].task_id: 0})
        )
        result, _ = run_scripted(
            state, scheduler, seed,
            setup=lambda simulator: simulator.submit_job_stream([first, *late]),
            max_time=100.0,
        )
        second = result.schedule_records[1]
        assert second.start_time == 5.0 and second.num_pending_before == 3
        assert scheduler.calls[1] == (
            5.0, sorted(job.tasks[0].task_id for job in late)
        )
