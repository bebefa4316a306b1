"""Sharded multi-cell scheduling: per-cell incremental solvers + balancer.

One min-cost flow network over the whole cluster is the reproduction's hard
scaling ceiling: solver work grows superlinearly with network size, so a
single network cannot reach the paper's 12,500-machine trace no matter how
incremental the per-round work is.  Production clusters answer this by
federating into *cells* (Borg-style; the paper's Firmament deployment
schedules one cell), and this module does the same:

* :class:`CellPartition` splits the cluster into cells by **rack** -- the
  failure domain of :mod:`repro.cluster.topology` -- with a pure function
  of the rack id, so the partition is deterministic, identical across
  processes, and stable under ``add_machine`` / ``remove_machine`` (a
  machine's cell follows its rack; existing machines never move).
* :class:`CellStateView` is a persistent per-cell facade over the shared
  :class:`~repro.cluster.state.ClusterState`: a filtered topology (the
  cell's racks and machines only), the cell's *persistent* task bucket
  (with its pending subset), and a private
  :class:`~repro.cluster.events.DirtyTracker`.  Each cell's
  :class:`~repro.core.graph_manager.GraphManager` consumes its view exactly
  as the monolithic manager consumes the full state, so the entire
  incremental graph path (typed dirty sets, in-place mutation, emitted
  :class:`~repro.flow.changes.ChangeBatch`) is reused unchanged per cell.
* :class:`ShardedScheduler` is the many-cell case of the round pipeline in
  :meth:`repro.core.scheduler.FlowScheduler.schedule` (graph update, solve
  with per-cell deadline degradation, extract + diff, runtime charging all
  live there, shared with the monolithic scheduler).  What is left here is
  what only exists with more than one cell: draining the global dirty
  tracker once per round and *routing* each mark to the owning cell's
  tracker -- which is also what keeps the cells' buckets: a marked task
  enters its home cell's bucket, leaves it when it is no longer
  schedulable, or moves (marked in both cells) when its home changed, so
  a steady round never enumerates the live tasks; the full bucketing pass
  runs only when the marks cannot be trusted, and as the cross-check
  oracle -- homing a task that never had a home (its job-hash cell while
  that has a free slot left, else the cell with the largest surplus), and
  choosing who takes part (``_round_cells``): while any cell has a pending
  task, only the cells that have one; a cell holding nothing but
  completions and placed-task marks keeps them in its tracker -- not
  updated, solved, shipped, extracted or diffed -- until a task arrives
  for it or a round finds nothing pending anywhere, and then consumes the
  union in one chained delta solve.  So a round costs the cells that are
  *placing*, not the cells that exist: their sum when solved **inline**
  (the pipeline's default: deterministic; ``algorithm_runtime`` charges
  the *slowest* cell, modeling concurrent cells the same way the
  sequential dual executor models the race), the slowest one in a pool of
  persistent **worker subprocesses** --
  one incremental cost-scaling solver per cell, each behind a
  :class:`~repro.solvers.worker.WorkerClient` (see
  :mod:`repro.solvers.worker` for the transport and its circuit breaker);
  all cells ship before any gathers, so the round's wall clock approaches
  the slowest cell rather than the sum, and a cell whose worker does not
  answer is served by the pipeline's own per-cell solve (``_solve_cells``);
  and the ``sharded[N]`` merged result with straggler attribution
  (``_round_result``).
* :class:`CrossCellBalancer` runs off the hot path, after the round's
  placements are extracted, for capacity a cell loses *after* its tasks
  were homed: a cell whose queued tasks exceed its free
  capacity (including a task with *no* feasible machine in its home cell)
  hands excess tasks to the cell with the most spare capacity.  A
  migration is nothing but a home-table update plus ordinary dirty marks
  in both cells' trackers, so it rides the incremental graph path like
  any other churn.

Observability: every round's merged
:class:`~repro.solvers.base.SolverStatistics` carries ``cells_solved``,
``cells_deferred`` (cells left out with marks waiting), straggler-cell
attribution (which cell bounded the round and by how much),
and ``cross_cell_migrations``; the simulator's
:class:`~repro.simulation.simulator.ScheduleRecord` and
:class:`~repro.simulation.metrics.MetricsSummary` carry that object.
Per-cell transport
ratios (snapshot vs delta ships, fallback rounds, respawns, breaker state)
are exposed by :meth:`ShardedScheduler.cell_transport`, and each worker
round's ships, respawns and breaker state are stamped on the cell's result
(:meth:`~repro.solvers.worker.WorkerClient.stamp_round`), so the merged
statistics carry the round's totals.

Chaos: the scheduler honours the same :class:`~repro.chaos.ChaosPolicy`
faults as the parallel executor, aimed at one cell per firing round
(``round_index % num_cells``), so a ``worker_kill`` degrades exactly the
affected cell -- its round is served by the parent-side fallback solver and
its own breaker counts the failure -- while every other cell's worker keeps
solving undisturbed.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.cluster.events import DirtyTracker
from repro.cluster.machine import Machine, Rack
from repro.cluster.state import ClusterState
from repro.cluster.task import Task
from repro.cluster.topology import ClusterTopology
from repro.core.graph_manager import GraphConsistencyError, GraphManager
from repro.core.scheduler import (
    CellOutcome,
    FlowScheduler,
    RoundCell,
    SchedulingDecision,
)
from repro.solvers.base import SolverResult, SolverStatistics
from repro.solvers.incremental import IncrementalCostScalingSolver
from repro.solvers.worker import WorkerClient

__all__ = [
    "CellPartition",
    "CellStateView",
    "CellTopologyView",
    "CrossCellBalancer",
    "ShardedScheduler",
]

#: Upper bound on cross-cell migrations per round.  The balancer runs off
#: the hot path and its migrations are ordinary dirty-set churn for *two*
#: cells each, so an unbounded storm (e.g. after a rack failure dumped a
#: whole cell's tasks into the queue) could make the next round's delta
#: work resemble a rebuild.  Rebalancing the tail over a few rounds keeps
#: every round incremental.
MAX_MIGRATIONS_PER_ROUND = 64

#: How long a worker-mode gather waits for a cell's result when no round
#: deadline is configured.  Purely a hang guard: the parent-side fallback
#: serves a cell whose worker misses it (and every later round, until the
#: worker answers), so the bound trades a pathological hang for degraded
#: cell-rounds.
GATHER_TIMEOUT_SECONDS = 300.0


class CellPartition:
    """Deterministic rack-granular partition of the cluster into cells.

    A rack -- the failure domain of the topology -- maps to cell
    ``rack_id % num_cells``.  The mapping is a pure function: two processes
    (or two rounds straddling arbitrary churn) always agree, machines never
    change cells while their rack exists, and newly added machines land in
    their rack's cell without disturbing anyone else.
    """

    def __init__(self, num_cells: int) -> None:
        if num_cells < 1:
            raise ValueError("a partition needs at least one cell")
        self.num_cells = num_cells

    def cell_of_rack(self, rack_id: int) -> int:
        """Cell owning a rack."""
        return rack_id % self.num_cells

    def cell_of_machine(self, machine: Machine) -> int:
        """Cell owning a machine (via its rack)."""
        return machine.rack_id % self.num_cells

    def cell_of_job(self, job_id: int) -> int:
        """Default home cell of a job's tasks.

        Homing by *job* keeps a job's unscheduled aggregator from
        fragmenting across every cell by default; the balancer re-homes
        individual tasks only when load or feasibility demands it.
        """
        return job_id % self.num_cells

    def assignment(self, topology: ClusterTopology) -> Dict[int, int]:
        """``{machine_id: cell}`` for every machine currently in the topology."""
        return {
            machine_id: self.cell_of_machine(machine)
            for machine_id, machine in topology.machines.items()
        }


class CellTopologyView:
    """One cell's slice of the shared topology.

    Filters ``racks`` / ``machines`` to the cell (cached against
    :attr:`ClusterTopology.version`, so steady-state rounds pay a dict
    lookup, not a re-derivation) and answers ``healthy_machines`` from the
    filtered set.  Point lookups (``machine``, ``rack``, ``rack_of``,
    ``machines_in_rack``) delegate to the global topology: the partition is
    rack-granular, so every id a cell's policy or graph manager resolves is
    already in-cell.
    """

    def __init__(self, topology: ClusterTopology, partition: CellPartition, cell: int) -> None:
        self._topology = topology
        self._partition = partition
        self._cell = cell
        self._cached_version: Optional[int] = None
        self._machines: Dict[int, Machine] = {}
        self._racks: Dict[int, Rack] = {}

    def _refresh(self) -> None:
        topology = self._topology
        if self._cached_version == topology.version:
            return
        racks = {
            rack_id: rack
            for rack_id, rack in topology.racks.items()
            if self._partition.cell_of_rack(rack_id) == self._cell
        }
        machines = {}
        all_machines = topology.machines
        for rack in racks.values():
            for machine_id in rack.machine_ids:
                machine = all_machines.get(machine_id)
                if machine is not None:
                    machines[machine_id] = machine
        self._racks = racks
        self._machines = machines
        self._cached_version = topology.version

    @property
    def machines(self) -> Dict[int, Machine]:
        """The cell's machines, keyed by id."""
        self._refresh()
        return self._machines

    @property
    def racks(self) -> Dict[int, Rack]:
        """The cell's racks, keyed by id."""
        self._refresh()
        return self._racks

    @property
    def num_machines(self) -> int:
        return len(self.machines)

    @property
    def num_racks(self) -> int:
        return len(self.racks)

    @property
    def total_slots(self) -> int:
        return sum(m.num_slots for m in self.machines.values())

    @property
    def version(self) -> int:
        return self._topology.version

    def healthy_machines(self) -> List[Machine]:
        """The cell's machines that can currently accept tasks."""
        return [m for m in self.machines.values() if m.is_available]

    def machine(self, machine_id: int) -> Machine:
        return self._topology.machine(machine_id)

    def rack(self, rack_id: int) -> Rack:
        return self._topology.rack(rack_id)

    def rack_of(self, machine_id: int) -> Rack:
        return self._topology.rack_of(machine_id)

    def machines_in_rack(self, rack_id: int) -> List[Machine]:
        return self._topology.machines_in_rack(rack_id)


class CellStateView:
    """Persistent per-cell facade over the shared :class:`ClusterState`.

    The graph manager binds to ``id(state)`` and to the continuity of the
    state's dirty-epoch chain, so the view must be a long-lived object with
    its own :class:`DirtyTracker` (fed by the scheduler's routing) -- a
    per-round throwaway wrapper would make every scope dirty every round.

    Overridden surface: ``topology`` (the cell slice), ``dirty`` (the
    private tracker), and the task reads (``schedulable_task[s]`` /
    ``num_schedulable_tasks`` / ``pending_task[_id]s``), served from the
    cell's *persistent* bucket: the scheduler moves a task in or out while
    it routes the task's dirty mark (:meth:`put` / :meth:`drop`), so a
    steady round neither enumerates the live tasks nor copies the bucket.
    Everything else -- ``tasks``, ``jobs``, slot and resource queries, the
    monitor -- delegates to the shared state: those queries are keyed by
    in-cell ids, and policies resolving a *departed* task need the global
    ``tasks`` history.
    """

    def __init__(self, state: ClusterState, partition: CellPartition, cell: int) -> None:
        self._state = state
        self.cell = cell
        self.topology = CellTopologyView(state.topology, partition, cell)
        self.dirty = DirtyTracker()
        self._bucket: Dict[int, Task] = {}
        self._pending: Dict[int, Task] = {}

    def put(self, task: Task) -> None:
        """Home a task here, or refresh whether it is pending."""
        self._bucket[task.task_id] = task
        if task.is_pending:
            self._pending[task.task_id] = task
        else:
            self._pending.pop(task.task_id, None)

    def drop(self, task_id: int) -> Task:
        """Take a task out of the cell; returns it."""
        self._pending.pop(task_id, None)
        return self._bucket.pop(task_id)

    def clear(self) -> None:
        """Empty the bucket (the scheduler's full pass refills it)."""
        self._bucket.clear()
        self._pending.clear()

    def schedulable_tasks(self) -> List[Task]:
        """The cell's schedulable tasks (all-dirty rounds and oracles)."""
        return list(self._bucket.values())

    def schedulable_task(self, task_id: int) -> Optional[Task]:
        """The task if it is homed here and schedulable, else ``None``."""
        return self._bucket.get(task_id)

    @property
    def num_schedulable_tasks(self) -> int:
        return len(self._bucket)

    def pending_task_ids(self):
        """Ids of the cell's tasks awaiting placement (a live view)."""
        return self._pending.keys()

    def pending_tasks(self) -> List[Task]:
        """The cell's pending tasks, oldest submission first."""
        pending = list(self._pending.values())
        pending.sort(key=lambda t: (t.submit_time, t.task_id))
        return pending

    def __getattr__(self, name: str):
        # Anything not overridden reads through to the shared state
        # (``tasks``, ``jobs``, ``free_slots``, ``spare_resources``,
        # ``monitor``, ...).
        return getattr(self._state, name)


# --------------------------------------------------------------------- #
# Cross-cell balancer
# --------------------------------------------------------------------- #
class CrossCellBalancer:
    """Off-hot-path task migration between cells.

    After a round's placements are known, each cell's *surplus* is its
    remaining free slots minus its queued (unscheduled) demand.  Cells in
    deficit -- including the degenerate case of a task with no feasible
    machine at all in its home cell (zero free slots) -- hand excess
    unscheduled tasks to the cell with the largest surplus.  Deterministic:
    tasks move in task-id order, ties in target choice break toward the
    lowest cell id.  Migrations are bounded per round
    (:data:`MAX_MIGRATIONS_PER_ROUND`) so the next round's delta work stays
    incremental even after a storm.
    """

    def __init__(self, partition: CellPartition) -> None:
        self.partition = partition
        self.total_migrations = 0

    def plan(
        self,
        state: ClusterState,
        decision: SchedulingDecision,
        home_of,
        cell_free: List[int],
    ) -> List[Tuple[int, int, int]]:
        """Plan ``(task_id, from_cell, to_cell)`` migrations for this round.

        ``home_of(task)`` maps a task to its current home cell and
        ``cell_free`` holds the free slots per cell the scheduler keeps
        from the machine marks, so the cost is O(|placed| + |unscheduled|
        + cells) -- off the hot path by construction.
        """
        if not decision.unscheduled:
            return []
        num_cells = self.partition.num_cells
        if num_cells < 2:
            return []

        # Remaining free slots per cell once this round's planned
        # placements land.
        free = list(cell_free)
        machines = state.topology.machines
        for machine_id in decision.placements.values():
            machine = machines.get(machine_id)
            if machine is not None:
                free[self.partition.cell_of_machine(machine)] -= 1
        for task_id, machine_id in decision.migrations.items():
            machine = machines.get(machine_id)
            if machine is not None:
                free[self.partition.cell_of_machine(machine)] -= 1
            task = state.tasks.get(task_id)
            if task is not None and task.machine_id is not None:
                old = machines.get(task.machine_id)
                if old is not None:
                    free[self.partition.cell_of_machine(old)] += 1

        # Queued demand per cell, and the movable tasks behind it.
        demand = [0] * num_cells
        movable: List[Tuple[int, int]] = []  # (task_id, home_cell)
        tasks = state.tasks
        for task_id in sorted(decision.unscheduled):
            task = tasks.get(task_id)
            if task is None or task.is_running:
                continue
            home = home_of(task)
            demand[home] += 1
            movable.append((task_id, home))

        surplus = [free[c] - demand[c] for c in range(num_cells)]
        moves: List[Tuple[int, int, int]] = []
        for task_id, home in movable:
            if len(moves) >= MAX_MIGRATIONS_PER_ROUND:
                break
            if surplus[home] >= 0:
                continue  # the home cell can absorb its own queue
            target = max(
                range(num_cells), key=lambda c: (surplus[c], -c)
            )
            if target == home or surplus[target] <= 0:
                continue  # nowhere better to go
            surplus[home] += 1
            surplus[target] -= 1
            moves.append((task_id, home, target))
        self.total_migrations += len(moves)
        return moves


# --------------------------------------------------------------------- #
# The sharded scheduler
# --------------------------------------------------------------------- #
class ShardedScheduler(FlowScheduler):
    """Flow scheduling over a rack-partitioned cluster, one solver per cell.

    Drop-in for :class:`~repro.core.scheduler.FirmamentScheduler` (same
    ``schedule`` / ``apply`` / ``schedule_and_apply`` / ``close``
    surface), so the simulator, CLI, and testbed drive it
    unchanged.

    Args:
        policy_factory: Zero-argument callable producing a *fresh* policy
            per cell (each cell's graph manager derives its own network, so
            policies must not share per-network caches).  A policy class
            works directly.
        num_cells: Number of cells; racks map to cells by ``rack_id %
            num_cells``.
        workers: ``True`` solves each cell in a persistent subprocess
            (ship all, then gather: wall clock ~ slowest cell).  ``False``
            (default) solves cells inline in cell order and charges the
            *maximum* cell runtime -- fully deterministic, modeling the
            concurrent deployment exactly as the sequential dual executor
            models the race.
        solver_factory: Zero-argument callable producing each cell's
            inline/fallback solver; defaults to
            ``IncrementalCostScalingSolver()``.
        allow_migrations: As in :class:`FirmamentScheduler`.
        balance: Enable the cross-cell balancer.
        round_deadline_seconds: Per-round budget, applied per cell (cells
            are concurrent, so each gets the full budget) as each in-process
            solver's own ``round_deadline_seconds``: a cell whose delta
            repair outlasts the hard deadline is aborted and degrades alone
            -- its pending tasks wait a round while the other cells'
            placements land normally -- and rebuilds next round.  A
            worker-mode cell's worker solves without a budget; the gather
            waits at most the budget before the parent-side solver, under
            the budget, serves the cell.
        chaos: Optional :class:`~repro.chaos.ChaosPolicy`; worker-directed
            faults hit cell ``round_index % num_cells`` only.
    """

    def __init__(
        self,
        policy_factory,
        num_cells: int = 4,
        workers: bool = False,
        solver_factory=None,
        allow_migrations: bool = True,
        balance: bool = True,
        round_deadline_seconds: Optional[float] = None,
        chaos=None,
    ) -> None:
        self.partition = CellPartition(num_cells)
        self.num_cells = num_cells
        self.workers = workers
        self.allow_migrations = allow_migrations
        self.round_deadline_seconds = round_deadline_seconds
        self.chaos = chaos
        self._policy_factory = policy_factory
        self._solver_factory = solver_factory or IncrementalCostScalingSolver
        self.balancer = CrossCellBalancer(self.partition) if balance else None

        self._state: Optional[ClusterState] = None
        self._views: List[CellStateView] = []
        self._cells: List[RoundCell] = []
        #: Per-cell solver workers (spawned on first use in worker mode).
        self.clients: List[WorkerClient] = []
        self._fallback_rounds: List[int] = []
        #: Each cell's last solved ``total_cost``: a cell left out of a
        #: round keeps its network and flow, so its retained cost is exact.
        self._cell_cost: List[int] = []
        #: Cells the current round left out with marks waiting.
        self._cells_deferred = 0
        self._dirty_epoch: Optional[int] = None
        #: Home cell of every schedulable task, and per job the number of
        #: its tasks homed in each cell -- both hold live tasks only: an
        #: entry leaves when routing sees the task leave for good.
        self._task_home: Dict[int, int] = {}
        self._job_cells: Dict[int, Dict[int, int]] = {}
        #: Free slots per cell, and per machine the ``(cell, free slots)``
        #: they were counted from; kept from the machine marks for homing
        #: new tasks (balancer on only).
        self._cell_free: List[int] = []
        self._machine_free: Dict[int, Tuple[int, int]] = {}
        self._round_index = 0
        #: Rounds in which each cell was the straggler (observability).
        self.straggler_rounds: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # Binding and routing
    # ------------------------------------------------------------------ #
    def _bind(self, state: ClusterState) -> None:
        """(Re)attach to a cluster state: fresh views, managers, solvers."""
        self.close()
        self._state = state
        self._views = [
            CellStateView(state, self.partition, cell)
            for cell in range(self.num_cells)
        ]
        self._fallback_rounds = [0] * self.num_cells
        for view in self._views:
            solver = self._solver_factory()
            self._arm_deadline(solver, self.round_deadline_seconds)
            manager = GraphManager(self._policy_factory(), chaos=self.chaos)
            self._cells.append(RoundCell(view.cell, view, manager, solver))
            # A worker's solver has no budget of its own: the gather bounds
            # the round, and a worker that aborted would drop its shadow.
            self.clients.append(WorkerClient(IncrementalCostScalingSolver))
            view.dirty.mark_all()
        self._cell_cost = [0] * self.num_cells
        self._dirty_epoch = None
        self._task_home = {}
        self._job_cells = {}

    def _home_cell(self, task: Task) -> int:
        """Current home cell of a task.

        A running task belongs to the cell of its machine (its continuation
        arc must resolve inside that cell's network); otherwise the task
        sticks to the cell it was last homed in (so preemption does not
        bounce it back to the default mid-flight), and a task that never
        had a home gets one by :meth:`_first_home`.
        """
        if task.is_running and task.machine_id is not None:
            machine = self._state.topology.machines.get(task.machine_id)
            if machine is not None:
                return self.partition.cell_of_machine(machine)
        home = self._task_home.get(task.task_id)
        if home is not None:
            return home
        return self._first_home(task)

    def _first_home(self, task: Task) -> int:
        """Home of a task that never had one: its job-hash cell while that
        cell has a free slot left for it, otherwise -- by the balancer's own
        rule, one round before the balancer could apply it -- the cell with
        the largest surplus, ties to the lowest id.  Without a balancer,
        pure hashing."""
        cell = self.partition.cell_of_job(task.job_id)
        if self.balancer is None:
            return cell
        views = self._views
        # Queued tasks include the ones this round already routed here.
        surplus = [
            free - len(view.pending_task_ids())
            for free, view in zip(self._cell_free, views)
        ]
        if surplus[cell] > 0:
            return cell
        target = max(range(self.num_cells), key=lambda c: (surplus[c], -c))
        return target if surplus[target] > 0 else cell

    def _enter(self, task: Task, cell: int) -> None:
        self._views[cell].put(task)
        counts = self._job_cells.setdefault(task.job_id, {})
        counts[cell] = counts.get(cell, 0) + 1

    def _leave(self, task_id: int, cell: int) -> None:
        task = self._views[cell].drop(task_id)
        counts = self._job_cells[task.job_id]
        counts[cell] -= 1
        if not counts[cell]:
            del counts[cell]
            if not counts:
                del self._job_cells[task.job_id]

    def _count_machine(self, state: ClusterState, machine_id: int) -> None:
        """Bring one machine's share of its cell's free-slot counter up to
        date (a machine that left the topology stops counting)."""
        counted = self._machine_free.pop(machine_id, None)
        if counted is not None:
            self._cell_free[counted[0]] -= counted[1]
        machine = state.topology.machines.get(machine_id)
        if machine is None:
            return
        free = state.free_slots(machine_id)
        if free:
            cell = self.partition.cell_of_machine(machine)
            self._machine_free[machine_id] = (cell, free)
            self._cell_free[cell] += free

    def _route_dirty(self, state: ClusterState) -> None:
        """Drain the global dirty tracker once, route marks to cell trackers.

        Routing a task's mark also keeps the cells' persistent buckets: the
        task enters its home cell's, leaves it when it is not schedulable
        any more, and moves (marked in both cells) when its home changed.
        """
        snapshot = state.dirty.drain()
        chain_intact = (
            self._dirty_epoch is not None
            and snapshot.epoch == self._dirty_epoch + 1
        )
        self._dirty_epoch = snapshot.epoch
        views = self._views
        if snapshot.full or not chain_intact:
            for view in views:
                view.dirty.mark_all()
            self._bucket_tasks(state)
            return
        # Machines first: homing a new task reads the free-slot counters.
        machines = state.topology.machines
        count_free = self.balancer is not None
        for machine_id in snapshot.machines_load:
            if count_free:
                self._count_machine(state, machine_id)
            machine = machines.get(machine_id)
            if machine is None:
                for view in views:
                    view.dirty.mark_machine_load(machine_id)
            else:
                views[
                    self.partition.cell_of_machine(machine)
                ].dirty.mark_machine_load(machine_id)
        for machine_id in snapshot.machines_availability:
            machine = machines.get(machine_id)
            if machine is None:
                for view in views:
                    view.dirty.mark_machine_availability(machine_id)
            else:
                views[
                    self.partition.cell_of_machine(machine)
                ].dirty.mark_machine_availability(machine_id)
        # Known tasks before new ones, so the queue lengths a new task is
        # homed by already reflect last round's placements.
        homes = self._task_home
        arrivals = []
        for task_id in sorted(snapshot.tasks):
            if task_id in homes:
                self._route_task(state, task_id)
            else:
                arrivals.append(task_id)
        for task_id in arrivals:
            self._route_task(state, task_id)
        # A job's mark goes to the cells holding its tasks; a job with none
        # anywhere has no scope in any network.
        for job_id in snapshot.jobs:
            for cell in self._job_cells.get(job_id, ()):
                views[cell].dirty.mark_job(job_id)

    def _route_task(self, state: ClusterState, task_id: int) -> None:
        old = self._task_home.get(task_id)
        task = state.schedulable_task(task_id)
        if task is None:
            # Finished, or vanished with its job: the entry leaves for good.
            if old is not None:
                del self._task_home[task_id]
                self._leave(task_id, old)
                self._views[old].dirty.mark_task(task_id)
            return
        new = self._home_cell(task)
        if old == new:
            self._views[new].put(task)
            self._views[new].dirty.mark_task(task_id)
        else:
            self._move(task, old, new)

    def _move(self, task: Task, old: Optional[int], new: int) -> None:
        """Home a task in ``new``, marking it in both cells: the old one
        drops its node, the new one derives it."""
        task_id = task.task_id
        if old is not None:
            self._leave(task_id, old)
            self._views[old].dirty.mark_task(task_id)
        self._task_home[task_id] = new
        self._enter(task, new)
        self._views[new].dirty.mark_task(task_id)

    def _bucket_tasks(self, state: ClusterState) -> None:
        """The full pass: rebuild every cell's bucket, the home and job
        tables and the free-slot counters from the schedulable set.  Runs
        when the marks cannot be trusted (first round, broken chain,
        overflow) and as the oracle the maintained ones are compared with.
        """
        for view in self._views:
            view.clear()
        self._job_cells = {}
        self._cell_free = [0] * self.num_cells
        self._machine_free = {}
        if self.balancer is not None:
            for machine in state.machines_with_free_slots():
                self._count_machine(state, machine.machine_id)
        homes: Dict[int, int] = {}
        for task in state.schedulable_tasks():
            cell = homes[task.task_id] = self._home_cell(task)
            self._enter(task, cell)
        self._task_home = homes

    def _check_buckets(self, state: ClusterState) -> None:
        """Cross-check: the maintained tables against a full pass."""
        kept = self._routing_tables()
        self._bucket_tasks(state)
        rebuilt = self._routing_tables()
        if kept != rebuilt:
            raise GraphConsistencyError(
                f"maintained routing tables {kept} diverged from the full "
                f"pass {rebuilt}"
            )

    def _routing_tables(self):
        return (
            [dict(view._bucket) for view in self._views],
            [set(view._pending) for view in self._views],
            dict(self._task_home),
            {job: dict(cells) for job, cells in self._job_cells.items()},
            list(self._cell_free),
            dict(self._machine_free),
        )

    # ------------------------------------------------------------------ #
    # Round-pipeline hooks (the round itself is FlowScheduler.schedule)
    # ------------------------------------------------------------------ #
    def _round_cells(self, state: ClusterState) -> List[RoundCell]:
        """Route the round's dirty marks and tasks; return the cells taking
        part: those with something to solve (tasks, or a network that still
        holds some) and -- unless nothing is pending anywhere, a
        re-optimisation round -- something to place.  Cells share no arc,
        so a cell without a pending task could only re-optimise running
        tasks; it is left out whole, its marks waiting in its own tracker
        for one chained update when it next takes part.
        """
        if self._state is not state:
            self._bind(state)
        self._round_index += 1
        self._route_dirty(state)
        if self._cells[0].manager.verify_changes:
            self._check_buckets(state)
        placing = any(view.pending_task_ids() for view in self._views)
        self._cells_deferred = 0
        active: List[RoundCell] = []
        for cell in self._cells:
            view = cell.view
            if not (view.num_schedulable_tasks or cell.manager.task_nodes):
                continue  # an idle cell's tracker just accumulates marks
            if placing and not view.pending_task_ids():
                self._cells_deferred += bool(view.dirty._pending)
                continue
            self._cell_cost[cell.index] = 0  # until its solve reports
            active.append(cell)
        return active

    def _solve_cells(self, cells: List[RoundCell]) -> List[CellOutcome]:
        """Worker mode: ship every cell's round, then gather, so the wall
        clock approaches the slowest cell; inline mode solves in order."""
        if not self.workers:
            return super()._solve_cells(cells)
        chaos_round = self._round_index - 1
        chaos_target = chaos_round % self.num_cells
        shipped: List[Tuple[RoundCell, Optional[int]]] = []
        for cell in cells:
            client = self.clients[cell.index]
            changes = cell.manager.last_changes
            client.begin_round(changes)
            round_id = client.ship(
                cell.manager.network,
                changes,
                self.chaos if cell.index == chaos_target else None,
                chaos_round,
            )
            shipped.append((cell, round_id))

        timeout = self.round_deadline_seconds or GATHER_TIMEOUT_SECONDS
        deadline = time.monotonic() + timeout
        outcomes: List[CellOutcome] = []
        for cell, round_id in shipped:
            client = self.clients[cell.index]
            answered = False
            if round_id is not None:
                answered = client.wait(
                    round_id, max(deadline - time.monotonic(), 0.01)
                )
                client.settle()
            if answered:
                result = client.result
                cell.manager.network.set_flows(result.flows)
                runtime = result.runtime_seconds
            else:
                # Dead, erroring, or slow worker: the parent-side solver
                # serves this cell's round so only this cell degrades to
                # fallback latency -- never to a lost round.
                self._fallback_rounds[cell.index] += 1
                result, runtime = self._solve_cell(cell)
            if result is not None:
                client.stamp_round(result.statistics)
            outcomes.append((cell, result, runtime))
        return outcomes

    def _round_result(
        self,
        state: ClusterState,
        decision: SchedulingDecision,
        outcomes: List[CellOutcome],
    ) -> SolverResult:
        """Rebalance, then merge the cells' results into ``sharded[N]``."""
        migrations = 0
        if self.balancer is not None:
            migrations = self._apply_rebalance(state, decision)

        stats = SolverStatistics()
        optimal = True
        straggler_cell, straggler_seconds = -1, 0.0
        for cell, result, runtime in outcomes:
            if result is not None:
                stats = stats.merge(result.statistics)
                optimal = optimal and result.optimal
                self._cell_cost[cell.index] = result.total_cost
            if runtime >= straggler_seconds:
                straggler_cell, straggler_seconds = cell.index, runtime
        # The whole cluster's flow, the cells left out included.
        decision.total_cost = sum(self._cell_cost)
        stats.cells_solved = len(outcomes)
        stats.cells_deferred = self._cells_deferred
        stats.straggler_cell = straggler_cell
        stats.straggler_seconds = straggler_seconds
        stats.cross_cell_migrations = migrations
        if decision.degraded:
            stats.degraded_round = 1
        if straggler_cell >= 0:
            self.straggler_rounds[straggler_cell] = (
                self.straggler_rounds.get(straggler_cell, 0) + 1
            )
        return SolverResult(
            algorithm=f"sharded[{self.num_cells}]",
            total_cost=decision.total_cost,
            flows={},
            potentials={},
            runtime_seconds=decision.algorithm_runtime,
            statistics=stats,
            optimal=optimal,
        )

    def _apply_rebalance(self, state: ClusterState, decision: SchedulingDecision) -> int:
        """Run the balancer; re-homes are ordinary dirty-set mutations."""
        moves = self.balancer.plan(
            state, decision, self._home_cell, self._cell_free
        )
        views = self._views
        for task_id, source, target in moves:
            task = views[source].schedulable_task(task_id)
            self._move(task, source, target)
            views[source].dirty.mark_job(task.job_id)
            views[target].dirty.mark_job(task.job_id)
        return len(moves)

    # ------------------------------------------------------------------ #
    # Observability and lifecycle
    # ------------------------------------------------------------------ #
    def cell_transport(self) -> List[Dict[str, int]]:
        """Per-cell transport/health counters (worker mode observability).

        One dict per cell: ``snapshot_ships`` / ``delta_ships`` (the
        per-cell delta-ship ratio is ``delta / (delta + snapshot)``),
        ``fallback_rounds`` (rounds the parent served after a worker
        failure, error or timeout), ``respawns``, and ``breaker_open``
        (1 while the cell's worker circuit breaker is not closed).
        """
        return [
            {
                "snapshot_ships": client.snapshot_ships,
                "delta_ships": client.delta_ships,
                "fallback_rounds": fallback_rounds,
                "respawns": client.respawns,
                "breaker_open": 0 if client.breaker.is_closed else 1,
            }
            for client, fallback_rounds in zip(self.clients, self._fallback_rounds)
        ]

    def close(self) -> None:
        """Shut down every cell's worker and solver (idempotent); a later
        round binds afresh."""
        for client in self.clients:
            client.close()
        for cell in self._cells:
            close = getattr(cell.solver, "close", None)
            if callable(close):
                close()
        self.clients = []
        self._cells = []
        self._state = None
