"""Unit tests for the solver-worker circuit breaker's round bookkeeping.

The breaker is pure state: these tests drive it with ``note_round`` /
``allow_attempt`` / ``record_*`` calls alone, no subprocess involved.
"""

import pytest

from repro.solvers.worker_health import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    WorkerCircuitBreaker,
)


def rounds_until_allowed(breaker, limit=100):
    """Advance the round clock until an attempt is allowed; return how many
    rounds that took (0: allowed right away)."""
    for waited in range(limit):
        if breaker.allow_attempt():
            return waited
        breaker.note_round()
    raise AssertionError("no attempt allowed within the limit")


class TestClosedBackoff:
    def test_backoff_doubles_from_one_round(self):
        breaker = WorkerCircuitBreaker(failure_threshold=10**9)
        waits = []
        for _ in range(6):
            breaker.record_failure()
            waits.append(rounds_until_allowed(breaker))
        # The first failure retries at once, then 1, 2, 4, ... rounds.
        assert waits == [0, 1, 2, 4, 8, 16]
        assert breaker.state == BREAKER_CLOSED and breaker.trips == 0

    def test_backoff_is_capped(self):
        breaker = WorkerCircuitBreaker(failure_threshold=10**9, backoff_max_rounds=3)
        waits = []
        for _ in range(5):
            breaker.record_failure()
            waits.append(rounds_until_allowed(breaker))
        assert waits == [0, 1, 2, 3, 3]

    def test_success_resets_the_backoff(self):
        breaker = WorkerCircuitBreaker(failure_threshold=10**9)
        for _ in range(3):
            breaker.record_failure()
            rounds_until_allowed(breaker)
        breaker.record_success()
        assert breaker.consecutive_failures == 0
        breaker.record_failure()
        assert rounds_until_allowed(breaker) == 0


class TestOpenAndProbe:
    def test_threshold_trips_open_until_the_probe_window(self):
        breaker = WorkerCircuitBreaker(failure_threshold=2, probe_interval_rounds=3)
        breaker.record_failure()
        assert breaker.is_closed
        breaker.record_failure()
        assert (breaker.state, breaker.trips) == (BREAKER_OPEN, 1)
        assert rounds_until_allowed(breaker) == 3
        assert (breaker.state, breaker.probes) == (BREAKER_HALF_OPEN, 1)

    def test_failed_probe_reopens_and_a_served_round_recloses(self):
        breaker = WorkerCircuitBreaker(failure_threshold=1, probe_interval_rounds=2)
        breaker.record_failure()
        assert rounds_until_allowed(breaker) == 2
        breaker.record_failure()
        assert breaker.state == BREAKER_OPEN
        assert rounds_until_allowed(breaker) == 2
        breaker.record_success()
        assert breaker.is_closed
        assert (breaker.trips, breaker.probes, breaker.reclosures) == (1, 2, 1)
        assert breaker.failures == 2


@pytest.mark.parametrize(
    "kwargs",
    [
        {"failure_threshold": 0},
        {"backoff_max_rounds": -1},
        {"probe_interval_rounds": 0},
    ],
)
def test_invalid_settings_are_rejected(kwargs):
    with pytest.raises(ValueError):
        WorkerCircuitBreaker(**kwargs)
