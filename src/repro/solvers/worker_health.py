"""Worker health state machine behind every solver subprocess.

Worker failures in practice are bursty (e.g. a fork bomb elsewhere on the
host, a transient fd limit): the subprocess that cannot be spawned now
spawns fine a minute later, so giving up on it for good would be wrong and
retrying every round wasteful.  :class:`WorkerCircuitBreaker` is the
classic three-state breaker, measured in scheduling rounds (the caller's
natural clock — there is no background thread to keep wall-clock timers):

* ``closed`` — the worker is trusted.  Isolated failures respawn with an
  exponential backoff (first failure immediately, then 1, 2, 4, …
  rounds served by the caller's parent-side fallback between attempts).
* ``open`` — ``failure_threshold`` *consecutive* process-level failures
  (spawn failure, worker death, broken pipe; worker error *replies* do
  not count — the process is alive) tripped the breaker.  Rounds are
  served by the fallback, except that every
  ``probe_interval_rounds`` one probe round is allowed to try a respawn.
* ``half_open`` — a probe round is in flight.  A round that completes
  with the pipe intact re-closes the breaker and resets the failure
  count; another process failure re-opens it until the next probe.

The breaker is pure bookkeeping: its one caller,
:class:`~repro.solvers.worker.WorkerClient`, calls :meth:`note_round` once
per round, asks :meth:`allow_attempt` before spawning, and reports
:meth:`record_failure` / :meth:`record_success` as rounds settle.
"""

from __future__ import annotations

__all__ = [
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
    "WorkerCircuitBreaker",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


class WorkerCircuitBreaker:
    """Circuit breaker governing solver-worker (re)spawn attempts.

    Args:
        failure_threshold: Consecutive process failures that trip the
            breaker open.  ``1`` trips on the first failure.
        backoff_base_rounds: Backoff unit for pre-trip respawns: the k-th
            consecutive failure (k >= 2) waits
            ``min(backoff_max_rounds, backoff_base_rounds * 2**(k-2))``
            rounds before the next attempt; the first failure retries
            immediately.
        backoff_max_rounds: Cap on the exponential backoff.
        probe_interval_rounds: While open, one half-open probe spawn is
            allowed every this many rounds.
    """

    def __init__(
        self,
        failure_threshold: int = 2,
        backoff_base_rounds: int = 1,
        backoff_max_rounds: int = 32,
        probe_interval_rounds: int = 8,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if backoff_base_rounds < 0 or backoff_max_rounds < 0:
            raise ValueError("backoff rounds must be >= 0")
        if probe_interval_rounds < 1:
            raise ValueError("probe_interval_rounds must be >= 1")
        self.failure_threshold = failure_threshold
        self.backoff_base_rounds = backoff_base_rounds
        self.backoff_max_rounds = backoff_max_rounds
        self.probe_interval_rounds = probe_interval_rounds
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        #: Lifetime counters for observability/tests.
        self.trips = 0
        self.probes = 0
        self.reclosures = 0
        self.failures = 0
        self._rounds_seen = 0
        self._next_attempt_round = 0

    @property
    def is_closed(self) -> bool:
        return self.state == BREAKER_CLOSED

    def note_round(self) -> None:
        """Advance the breaker's round clock; call once per executor round."""
        self._rounds_seen += 1

    def allow_attempt(self) -> bool:
        """Return True when a (re)spawn attempt is permitted this round."""
        if self.state == BREAKER_HALF_OPEN:
            return True
        if self.state == BREAKER_OPEN:
            if self._rounds_seen >= self._next_attempt_round:
                self.state = BREAKER_HALF_OPEN
                self.probes += 1
                return True
            return False
        return self._rounds_seen >= self._next_attempt_round

    def record_failure(self) -> None:
        """Note a process-level failure (spawn error, death, broken pipe)."""
        self.failures += 1
        self.consecutive_failures += 1
        if self.state == BREAKER_HALF_OPEN:
            # Probe failed: stay open until the next probe window.
            self.state = BREAKER_OPEN
            self._next_attempt_round = self._rounds_seen + self.probe_interval_rounds
            return
        if self.state == BREAKER_CLOSED:
            if self.consecutive_failures >= self.failure_threshold:
                self.state = BREAKER_OPEN
                self.trips += 1
                self._next_attempt_round = self._rounds_seen + self.probe_interval_rounds
            else:
                self._next_attempt_round = self._rounds_seen + self._backoff_rounds()
            return
        # Failure reported while open without an attempt (defensive): treat
        # it like a failed probe.
        self._next_attempt_round = self._rounds_seen + self.probe_interval_rounds

    def record_success(self) -> None:
        """Note a round the worker served with its pipe intact."""
        if self.state != BREAKER_CLOSED:
            self.reclosures += 1
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self._next_attempt_round = self._rounds_seen

    def _backoff_rounds(self) -> int:
        if self.consecutive_failures <= 1:
            return 0
        penalty = self.backoff_base_rounds * (2 ** (self.consecutive_failures - 2))
        return min(self.backoff_max_rounds, penalty)
