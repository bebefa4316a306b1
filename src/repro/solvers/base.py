"""Common solver interface, result types, and the paper's static tables.

Every MCMF solver implements :class:`Solver`: it receives a
:class:`~repro.flow.graph.FlowNetwork`, computes a minimum-cost maximum
flow, assigns the flow onto the network's arcs, and returns a
:class:`SolverResult` describing the solution and runtime statistics.

The module also records Table 1 (worst-case complexities) and Table 2
(per-iteration preconditions) from the paper as data so benchmarks and
documentation can render them.
"""

from __future__ import annotations

import abc
import operator
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.flow.graph import FlowNetwork


#: Merge rules a :class:`SolverStatistics` field can declare
#: (``field(metadata=...)``); a field that declares none is summed.
#: ``_SLOWER_SIDE`` takes the value of the side with the larger
#: ``straggler_seconds`` (``self`` on a tie).
_MAX = {"merge": max}
_ANY = {"merge": operator.or_}
_SLOWER_SIDE = {"merge": None}


@dataclass
class SolverStatistics:
    """Counters collected by a solver during one run.

    Not every solver populates every counter; unused counters stay zero.
    This is the one per-round record: the scheduler's ``solver_result``
    carries it, and the simulator's ``ScheduleRecord.statistics`` and
    ``MetricsSummary.rounds`` hold copies of it, so a counter declared here
    (with its merge rule, if not a sum) reaches them with no further edit.
    """

    iterations: int = 0
    augmentations: int = 0
    #: A delta repair's shortest-path searches (a multi-source wave is one).
    searches: int = 0
    pushes: int = 0
    relabels: int = 0
    potential_updates: int = 0
    negative_cycles_canceled: int = 0
    arcs_scanned: int = 0
    #: Open-arc entries a delta repair's searches iterated (residual
    #: out-arcs of the nodes they settled): what a hub costs them.
    entries_iterated: int = 0
    epsilon_phases: int = 0
    warm_start: bool = field(default=False, metadata=_ANY)
    #: Change-application counters of the delta path: arcs and nodes the
    #: solver patched in its persistent residual from the round's change
    #: batch (zero on rebuild rounds).
    arcs_patched: int = 0
    nodes_touched: int = 0
    #: Tasks whose placement the scheduler re-derived from the round's flow
    #: (filled in by the scheduler, not the solver): the tasks touched by a
    #: changed-flow arc or a structural graph change plus those routed
    #: through aggregators; every task on round 1 and rebuild rounds.  A
    #: sharded round sums its cells.
    tasks_reextracted: int = 0
    #: 1 when an incremental cost scaling solve repaired its retained
    #: residual in place (``solve_delta``), 0 when it rebuilt.  Answers "is
    #: the delta chain alive" per round: a change batch being *handed over*
    #: says nothing about whether the solver could use it.  The dual
    #: executors fold the cost-scaling leg's flag into the round's winning
    #: result (like ``price_refine_seconds``); a sharded round sums its
    #: cells.
    delta_solve: int = 0
    #: Wall-clock seconds spent inside price refine during this run, and the
    #: number of label-queue pops its sweeps performed (SPFA dequeues plus
    #: Dijkstra heap settles).  Price refine dominates warm-rebuild rounds,
    #: so both are surfaced through ``ScheduleRecord`` and ``MetricsSummary``
    #: to attribute per-round time; the pop count doubles as the
    #: degeneration detector (a label-correcting pathology shows up as a
    #: pop count orders of magnitude above the node count).
    price_refine_seconds: float = 0.0
    price_refine_passes: int = 0
    #: Relaxation observability (Section 4 / Figure 7-9 attribution): nodes
    #: added across all zero-reduced-cost trees and the number of dual
    #: ascent steps performed.  Zero for the other algorithms.  The dual
    #: executors fold the relaxation leg's counters into the round's
    #: winning result (like ``price_refine_seconds``), so timelines show
    #: the relaxation work every round paid regardless of who won.
    relaxation_tree_nodes: int = 0
    dual_ascents: int = 0
    #: Worker transport accounting of the round (stamped by
    #: :meth:`repro.solvers.worker.WorkerClient.stamp_round`): whether a
    #: sharded cell's solver worker was fed a full DIMACS snapshot or an
    #: incremental delta/resync payload this round (per worker at most one
    #: of the two is 1, a sharded round sums its cells; both zero when no
    #: worker was consulted).
    snapshot_ships: int = 0
    delta_ships: int = 0
    #: Self-healing round pipeline attribution.  ``deadline_hits`` counts
    #: deadline firings that truncated or aborted work this round;
    #: ``degraded_round`` flags a round whose result is deliberately
    #: non-optimal (epsilon-truncated ladder or previous-placement reuse);
    #: ``worker_respawns`` counts solver-worker respawns performed
    #: during the round; ``breaker_open`` flags a round served while a
    #: worker circuit breaker was not closed (parent-side fallback rounds).
    deadline_hits: int = 0
    degraded_round: int = field(default=0, metadata=_MAX)
    worker_respawns: int = 0
    breaker_open: int = field(default=0, metadata=_MAX)
    #: Sharded-round attribution (:mod:`repro.core.sharding`): how many
    #: cells solved this round, which cell's solve took longest (the round's
    #: wall clock in concurrent gather is the straggler's time, so tail
    #: latency is attributed to a specific cell rather than "the cluster"),
    #: that cell's solve seconds, and how many queued/unscheduled tasks the
    #: cross-cell balancer re-homed after the round; ``cells_deferred``
    #: counts the cells left out of the round with dirty marks waiting (a
    #: cell without a pending task sits out while a neighbour places).  All
    #: zero (straggler cell ``-1``) for monolithic schedulers.
    cells_solved: int = 0
    cells_deferred: int = 0
    straggler_cell: int = field(default=-1, metadata=_SLOWER_SIDE)
    straggler_seconds: float = field(default=0.0, metadata=_MAX)
    cross_cell_migrations: int = 0

    def merge(self, other: "SolverStatistics") -> "SolverStatistics":
        """Return statistics combining this run with another, each field by
        the rule it declares (a sum unless stated)."""
        slower = self if self.straggler_seconds >= other.straggler_seconds else other
        return SolverStatistics(**{
            name: getattr(slower, name) if rule is None
            else rule(getattr(self, name), getattr(other, name))
            for name, rule in _MERGE_RULES
        })


#: ``(field name, rule)`` in declaration order, built once: ``rule`` combines
#: the two sides' values, ``None`` takes the slower side's.
_MERGE_RULES: Tuple[Tuple[str, Optional[Callable]], ...] = tuple(
    (f.name, f.metadata.get("merge", operator.add))
    for f in fields(SolverStatistics)
)


@dataclass
class SolverResult:
    """Outcome of a solver run.

    Attributes:
        algorithm: Name of the algorithm that produced the solution.
        total_cost: Cost of the computed min-cost flow.
        flows: Sparse ``{(src, dst): flow}`` mapping of non-zero arc flows.
            The residual-based solvers return a read-only view of the
            flows their residual tracks (nothing is copied per solve), so
            it shows the *latest* solve of a solver that keeps its
            residual: ``dict(result.flows)`` keeps a round's flows.
        potentials: Node potentials (dual variables) keyed by node id.  A
            solver that retains its residual returns a read-only view built
            on first use (:class:`~repro.solvers.residual.RetainedPotentials`);
            copy it to keep it past the solver's next solve.
        runtime_seconds: Wall-clock algorithm runtime.
        statistics: Low-level operation counters.
        optimal: Whether the solution is optimal (False only when a solver
            was deliberately terminated early, Section 5.1).
    """

    algorithm: str
    total_cost: int
    flows: Mapping[Tuple[int, int], int]
    potentials: Mapping[int, int]
    runtime_seconds: float
    statistics: SolverStatistics = field(default_factory=SolverStatistics)
    optimal: bool = True


class Solver(abc.ABC):
    """Abstract base class for min-cost max-flow solvers."""

    #: Human-readable algorithm name; overridden by subclasses.
    name: str = "abstract"
    #: Whether :meth:`solve` takes ``changes=ChangeBatch`` (the round's typed
    #: change batch) to patch persistent state instead of rebuilding it.
    accepts_change_batches: bool = False
    #: Whether :meth:`solve` takes a graph manager's
    #: :class:`~repro.solvers.residual.FlowGraph` and solves its residual in
    #: place (the scheduler then builds no :class:`FlowNetwork` for it).
    solves_in_place: bool = False

    @abc.abstractmethod
    def solve(self, network: FlowNetwork) -> SolverResult:
        """Compute a min-cost max-flow and assign it to ``network``'s arcs."""


class SolverError(RuntimeError):
    """Raised when a solver cannot produce a feasible solution."""


class InfeasibleProblemError(SolverError):
    """Raised when the network admits no feasible flow routing all supply."""


class RoundDeadlineExceeded(SolverError):
    """Raised when a round's latency budget expired with no usable result.

    Soft deadline expiry degrades gracefully (cost scaling stops its
    epsilon ladder at the current coarser epsilon, relaxation caps its
    ascents); this error is the last resort — the hard deadline passed and
    *no* solver produced a feasible flow, so the scheduler must reuse the
    previous round's placements and record a degraded round rather than
    stall (fig10's approximation claim applied to latency).
    """


#: Floor for the deadline watchdog period: the granularity at which
#: cooperative checks are expected to observe an expired budget.
DEFAULT_WATCHDOG_PERIOD = 0.05


class RoundDeadline:
    """Wall-clock budget for one scheduling round, with a grace watchdog.

    ``expired()`` is the *soft* deadline: cooperative ``deadline_check``
    hooks poll it to stop doing optional work (finish the current epsilon
    phase, skip the polish).  ``hard_expired()`` adds one watchdog period
    of grace and is wired into the existing ``abort_check`` machinery to
    cancel a solver outright — so no round overruns its budget by more
    than the watchdog period plus one cooperative-check interval.

    Args:
        budget_seconds: The round's latency budget (> 0).
        watchdog_period: Grace period between the soft and hard deadlines;
            defaults to ``max(DEFAULT_WATCHDOG_PERIOD, 0.25 * budget)``.
        clock: Monotonic clock, injectable for tests.
    """

    def __init__(
        self,
        budget_seconds: float,
        watchdog_period: Optional[float] = None,
        clock=time.monotonic,
    ) -> None:
        if budget_seconds <= 0:
            raise ValueError("budget_seconds must be > 0")
        self.budget_seconds = float(budget_seconds)
        if watchdog_period is None:
            watchdog_period = max(DEFAULT_WATCHDOG_PERIOD, 0.25 * self.budget_seconds)
        if watchdog_period < 0:
            raise ValueError("watchdog_period must be >= 0")
        self.watchdog_period = float(watchdog_period)
        self._clock = clock
        self.started_at = clock()

    def elapsed(self) -> float:
        return self._clock() - self.started_at

    def remaining(self) -> float:
        """Seconds left until the soft deadline (negative once expired)."""
        return self.budget_seconds - self.elapsed()

    def expired(self) -> bool:
        return self.elapsed() >= self.budget_seconds

    def hard_expired(self) -> bool:
        return self.elapsed() >= self.budget_seconds + self.watchdog_period

    def __call__(self) -> bool:
        """Alias for :meth:`expired`, so a deadline is a ``deadline_check``."""
        return self.expired()


class SolveAborted(Exception):
    """Raised when a cooperative abort check cancelled a solver run.

    The dual executor installs a round deadline's
    :meth:`RoundDeadline.hard_expired` as the relaxation leg's abort check,
    and relaxation raises it past its ascent cap, so a leg that cannot
    finish in budget yields the round to the other leg instead of stalling
    it.  A solver whose run was aborted makes no guarantee about its
    internal state; stateful solvers must discard or re-seed their warm
    state.
    """


#: Table 1 of the paper: worst-case time complexities.  ``N`` is the number of
#: nodes, ``M`` the number of arcs, ``C`` the largest arc cost and ``U`` the
#: largest arc capacity.  In scheduling graphs ``M > N > C > U``.
COMPLEXITY_TABLE: Dict[str, str] = {
    "relaxation": "O(M^3 * C * U^2)",
    "cycle_canceling": "O(N * M^2 * C * U)",
    "cost_scaling": "O(N^2 * M * log(N * C))",
    "successive_shortest_path": "O(N^2 * U * log(N))",
}

#: Table 2 of the paper: invariants each algorithm maintains before every
#: internal iteration.  Cost scaling requires both feasibility and
#: epsilon-optimality, which is what makes it hard to incrementalize.
PRECONDITION_TABLE: Dict[str, Dict[str, bool]] = {
    "relaxation": {
        "feasibility": False,
        "reduced_cost_optimality": True,
        "epsilon_optimality": False,
    },
    "cycle_canceling": {
        "feasibility": True,
        "reduced_cost_optimality": False,
        "epsilon_optimality": False,
    },
    "cost_scaling": {
        "feasibility": True,
        "reduced_cost_optimality": False,
        "epsilon_optimality": True,
    },
    "successive_shortest_path": {
        "feasibility": False,
        "reduced_cost_optimality": True,
        "epsilon_optimality": False,
    },
}

