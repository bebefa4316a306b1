"""Typed event queue for the cluster simulator.

Mirrors Firmament's own simulator architecture (``src/sim/event_manager.cc``
and ``src/sim/simulator.cc``): the simulation is a single priority queue of
*typed* events -- task submissions, task runtime expirations, machine
additions and removals, and batch-mode scheduler wake-ups -- popped in
timestamp order.  A scheduling round is not an event: it is decided and
applied at one point on the virtual clock, and the events falling inside
its charged solve are popped after the apply.  The :class:`EventManager`
owns nothing but the queue; interpreting an event (mutating cluster state,
invoking the scheduler) is the simulator's job, so the queue can be fuzzed
and inspected independently of the scheduling logic.

Same-timestamp ordering is FIFO by default (insertion order), exactly like
the previous sequence-counter implementation.  Passing ``tie_break_rng``
randomizes the order of same-timestamp events instead: real clusters give
no ordering guarantee for simultaneous events, so the event-order fuzz
suite uses this hook to check that simulation invariants (in particular
the records-vs-applied placement conservation law) hold under *every*
interleaving, not just the one insertion order happens to produce.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import random
from dataclasses import dataclass
from typing import List, Optional, Tuple


class EventType(enum.IntEnum):
    """Event kinds understood by the simulator.

    The names follow Firmament's ``EventDescriptor`` types: a task arrives
    (``TASK_SUBMIT``), a running task's duration expires
    (``TASK_END_RUNTIME``), a machine joins or rejoins the cluster
    (``ADD_MACHINE``), and a machine fails or is decommissioned
    (``REMOVE_MACHINE``).  ``SCHEDULER_WAKE`` is the one addition over
    Firmament's set: a deferred batch-mode scheduler retry fires at the next
    ``min_scheduler_interval`` boundary; it carries no payload and exists
    only to advance the clock to a point where the simulator re-checks
    whether a round should start.
    """

    TASK_SUBMIT = 0
    TASK_END_RUNTIME = 1
    REMOVE_MACHINE = 2
    ADD_MACHINE = 3
    SCHEDULER_WAKE = 4


@dataclass(frozen=True)
class SimulationEvent:
    """One queued event: a timestamp, a type, and a type-specific payload."""

    time: float
    event_type: EventType
    payload: object = None


class EventManager:
    """Priority queue of :class:`SimulationEvent`, popped in time order."""

    def __init__(self, tie_break_rng: Optional[random.Random] = None) -> None:
        """Create an event manager.

        Args:
            tie_break_rng: When provided, events carrying the same timestamp
                are popped in an order randomized by this RNG instead of
                insertion (FIFO) order.  Used by the event-order fuzz suite;
                production runs leave it ``None`` for determinism.
        """
        self._heap: List[Tuple[float, float, int, SimulationEvent]] = []
        self._sequence = itertools.count()
        self._rng = tie_break_rng
        self.num_events_processed = 0

    def add_event(
        self, time: float, event_type: EventType, payload: object = None
    ) -> SimulationEvent:
        """Queue an event and return it."""
        event = SimulationEvent(time=time, event_type=event_type, payload=payload)
        tie = self._rng.random() if self._rng is not None else 0.0
        heapq.heappush(self._heap, (time, tie, next(self._sequence), event))
        return event

    def pop(self) -> Optional[SimulationEvent]:
        """Pop and return the earliest event, or ``None`` when empty."""
        if not self._heap:
            return None
        _, _, _, event = heapq.heappop(self._heap)
        self.num_events_processed += 1
        return event

    def peek_time(self) -> float:
        """Return the timestamp of the next event (``inf`` when empty)."""
        if not self._heap:
            return float("inf")
        return self._heap[0][0]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)
