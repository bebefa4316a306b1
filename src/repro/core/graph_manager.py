"""Graph manager: maintains the scheduling flow network across runs.

The graph manager owns the mapping between cluster entities (tasks,
machines, racks, jobs) and flow-network nodes.  Node identifiers are stable
for as long as the entity exists, which is what allows the incremental cost
scaling solver to reuse the previous run's flow (keyed by node-id pairs) as
a warm start.

Updating the network for a new solver run follows the paper's two-pass
scheme (Section 6.3), *driven by cluster change events*:

1. a *statistics pass* gathers the per-entity statistics the policy needs
   (machine load, spare capacity, slot occupancy -- materialized as the
   cheap bookkeeping :class:`~repro.cluster.state.ClusterState` performs),
   and
2. a *policy pass* re-derives arcs -- but only for the entities the cluster
   dirty sets (:class:`~repro.cluster.events.DirtyTracker`) name as
   changed.

Every policy describes its network per entity (see
:mod:`repro.core.policies.base`), so the manager keeps **one persistent
graph mutated in place** -- a :class:`~repro.solvers.residual.FlowGraph`,
whose storage is the residual network an in-place solver repairs -- and
builds it one way: the dirty entities' scopes are re-derived, each desired
arc is added or patched by one call on the graph's residual, whose change
journal yields the round's :class:`~repro.flow.changes.ChangeBatch`
(:meth:`~repro.flow.changes.ChangeBatch.from_journal`) -- no second network
is built and no diff pass runs -- and isolated-node pruning is restricted
to the nodes the journal names and the endpoints of removed arcs.
Per-round update cost is
O(|dirty entities| + |affected arcs| + |waiting-cost ticks due|),
independent of cluster size: the manager never enumerates the live tasks,
machines or arcs on such a round.  Which tasks, jobs and machines the
network covers is persistent state moved by the dirty marks (a marked task
is added, removed or re-derived by asking the state whether it is
schedulable *now*; per-job live counts say when a job's aggregator comes
and goes; machines move on availability marks, racks with the topology's
membership version), and the time-varying waiting cost of the *clean* tasks
is refreshed from a **tick calendar**: ``int(rate * wait)`` moves once per
``1 / rate`` seconds, so the tasks are grouped by ``(rate, submit_time)``
-- the waiting term's only inputs -- and each group sits in a heap under
the time its cost can next move; when that time has come the group's
term is computed once and its members are re-priced in one loop, with the
derivation's own formula, hence the same :class:`ArcCostChange` a refresh
of every task would emit.  (A policy whose tasks share a submit time
re-prices them in the same round -- Quincy's bunched ticks: one job's
tasks, all at once, every ``1 / rate`` seconds.  That is policy, not
plumbing.)

A round whose dirty sets cannot be trusted -- another consumer drained the
tracker, the tracker overflowed, the state object changed, the workload
emptied or refilled, a departed task can no longer be resolved -- is not a
different path: it is the same update with *every* scope dirty
(:meth:`~repro.core.policies.base.DirtyView.everything`): the same update
reads its entity sets off a scan of the state instead of the marks, and
starts the tick calendar afresh.  The first round, and the round after an
update died mid-mutation, are such rounds too: they start from an empty
network and no known entity, so every node and arc is added by the same
scope derivation (as Firmament's own graph manager grows its graph from
empty with the calls every later round makes).  Building a network from
scratch (:meth:`GraphManager._build_full_network`) is only the oracle of
the ``verify_changes`` cross-check -- which also compares the persistent
entity sets with a scan and the restricted diff with the full one -- and,
diffed with :meth:`ChangeBatch.diff`, the benchmarks' rebuild baseline.

What is read *off* the network persists beside it too: the manager keeps
the task-to-machine assignments its flow implies
(:meth:`GraphManager.extract_assignments`) and re-derives, once a round's
flow is in the graph, only the tasks an arc whose flow changed touches
(the residual's flow journal says which), dropping those whose nodes the
round's batch removed; the full Listing-1 walk is that map's
``verify_changes`` oracle.  Turning the map
into a round's actions (:meth:`GraphManager.diff_assignments`) likewise
visits only the tasks that can produce one.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from types import MappingProxyType, SimpleNamespace
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Set, Tuple

from repro.cluster.state import ClusterState
from repro.core.placement import (
    FlowAssignments,
    diff_assignments,
    extract_placements,
)
from repro.core.policies.base import (
    DirtyView,
    PolicyNetworkBuilder,
    SchedulingPolicy,
    waiting_term,
)
from repro.flow.changes import ChangeBatch
from repro.flow.graph import FlowNetwork, NodeType
from repro.solvers.residual import FlowGraph


class GraphConsistencyError(AssertionError):
    """The incremental network diverged from a from-scratch build (cross-check)."""


@dataclass
class GraphUpdateStats:
    """Observability record for one :meth:`GraphManager.update` round."""

    mode: str = "full"  #: ``"full"`` or ``"incremental"``.
    seconds: float = 0.0  #: Wall-clock time of the update.
    nodes_touched: int = 0  #: Nodes added, removed, or supply-changed.
    arcs_patched: int = 0  #: Arcs added, removed, or capacity/cost-patched.
    dirty_tasks: int = 0  #: Task scopes re-derived this round.
    dirty_machines: int = 0  #: Machine scopes re-derived this round.
    #: Tasks the round looked at: the re-derived ones plus the clean ones
    #: whose waiting cost came due on the tick calendar.  Zero on a round
    #: nothing changed in, whatever the cluster's size.
    tasks_examined: int = 0


def _next_tick(rate: float, submit_time: float, now: float) -> float:
    """The first time at which :func:`waiting_term` exceeds its value at
    ``now`` (never, for a cost that does not grow).

    Exact to the float: the term is monotone in time, so the estimate
    ``submit_time + (ticks + 1) / rate`` is walked to the smallest float at
    which the term, *as the cost formula computes it*, has moved.  A
    calendar entry therefore comes due on the very round a refresh of every
    task would re-price it -- not a round late (a skipped change) and not a
    round early (a task examined for nothing).
    """
    if rate <= 0.0:
        return math.inf
    ticks = waiting_term(rate, submit_time, now)
    due = submit_time + (ticks + 1) / rate
    while waiting_term(rate, submit_time, due) <= ticks:
        due = math.nextafter(due, math.inf)
    earlier = math.nextafter(due, -math.inf)
    while waiting_term(rate, submit_time, earlier) > ticks:
        due, earlier = earlier, math.nextafter(earlier, -math.inf)
    return due


class _IncrementalBuilder(PolicyNetworkBuilder):
    """Policy builder over the persistent graph.

    Node accessors re-materialize pruned nodes in the graph's residual (read
    off its columns), so a node a hook touches is back in the network (and
    in the round's journal) before its arcs are patched in.
    """

    def __init__(self, manager: "GraphManager", state: ClusterState, now: float) -> None:
        super().__init__(
            network=manager.network,
            task_nodes=manager._task_nodes,
            machine_nodes=manager._machine_nodes,
            rack_nodes=manager._rack_nodes,
            unscheduled_nodes=manager._unscheduled_nodes,
            sink_node=manager._node_for_sink(),
            aggregator_factory=None,
            aggregator_lookup=manager._aggregator_node_id,
        )
        self._manager = manager
        self._aggregators = manager._aggregator_nodes
        self._residual = manager.network.residual
        self._policy = manager.policy
        self._state = state
        self._now = now
        #: All-dirty rounds only: every arc a scope derived this round, so
        #: the manager can drop what belongs to scopes that no longer exist.
        self.derived: Optional[Set[Tuple[int, int]]] = None

    # The node accessors read the residual's columns: a node a hook names
    # that is not live (never added, or pruned) is added back.

    def machine_node(self, machine_id: int) -> int:
        node_id = self._machine_nodes[machine_id]
        residual = self._residual
        i = residual.index.get(node_id)
        if i is None or not residual.node_alive[i]:
            residual.add_node(node_id, 0, NodeType.MACHINE, machine_id)
        return node_id

    def rack_node(self, rack_id: int) -> int:
        node_id = self._manager._node_for_rack(rack_id)
        residual = self._residual
        i = residual.index.get(node_id)
        if i is None or not residual.node_alive[i]:
            residual.add_node(node_id, 0, NodeType.RACK_AGGREGATOR, rack_id)
        return node_id

    def unscheduled_node(self, job_id: int) -> int:
        node_id = self._unscheduled_nodes[job_id]
        residual = self._residual
        i = residual.index.get(node_id)
        if i is None or not residual.node_alive[i]:
            residual.add_node(node_id, 0, NodeType.UNSCHEDULED_AGGREGATOR, job_id)
        return node_id

    def aggregator(self, key: str, node_type: NodeType = NodeType.OTHER) -> int:
        entry = self._aggregators.get(key)
        if entry is None:
            entry = self._aggregators[key] = (self._manager._allocate(), node_type)
        residual = self._residual
        i = residual.index.get(entry[0])
        if i is None or not residual.node_alive[i]:
            residual.add_node(entry[0], 0, entry[1], key)
        return entry[0]

    def apply_scope(self, key, derive, entity) -> None:
        """Re-derive one scope -- ``derive(state, builder, entity, now)``,
        a policy hook -- and merge its desired arcs into the graph.

        The scope's current arcs come from the policy's structural
        ownership (:meth:`SchedulingPolicy.owned_arcs`); arcs no longer
        desired are removed, and each desired arc is added or patched in
        place by one call (:meth:`ResidualNetwork.put_arc`).
        """
        desired = self._desired = {}
        try:
            derive(self._state, self, entity, self._now)
        finally:
            self._desired = None
        if self.derived is not None:
            self.derived.update(desired)
        residual = self._residual
        for arc in list(self._policy.owned_arcs(self, key)):
            if arc not in desired:
                residual.remove_arc(*arc)
        put = residual.put_arc
        for (src, dst), (capacity, cost) in desired.items():
            put(src, dst, capacity, cost)


class GraphManager:
    """Builds and maintains the flow network for a scheduling policy."""

    def __init__(
        self,
        policy: SchedulingPolicy,
        verify_changes: bool = False,
        chaos=None,
    ) -> None:
        """Create the manager.

        Args:
            policy: Scheduling policy that shapes the flow network.
            verify_changes: Cross-check mode: after every update, the first
                included, build the network from scratch as an oracle and
                assert the persistent network matches it and the
                directly-emitted batch replays the previous network into
                it.  Used by the equivalence tests; adds two O(graph)
                passes per round, so it is off by default.
            chaos: Optional :class:`repro.chaos.ChaosPolicy`; its
                ``chain_break`` fault drops the round's emitted change
                batch, forcing downstream consumers onto their
                broken-revision-chain recovery paths (tests only).
        """
        self.policy = policy
        self.verify_changes = verify_changes
        self.chaos = chaos
        self._chaos_round = 0
        #: Change batches dropped by injected ``chain_break`` faults.
        self.chain_breaks_injected = 0
        self._next_node_id = 0
        self._sink_node: Optional[int] = None
        self._aggregator_nodes: Dict[str, Tuple[int, NodeType]] = {}
        #: The persistent graph; ``None`` until the first update and after
        #: an update that died mid-mutation (the next one starts empty).
        self.network: Optional[FlowGraph] = None
        self._revision = 0
        #: Change batch transforming the previous :meth:`update`'s network
        #: into the latest one; ``None`` after a round that started from an
        #: empty network.
        self.last_changes: Optional[ChangeBatch] = None
        #: Observability record of the most recent update.
        self.last_update_stats = GraphUpdateStats()
        #: Rounds that patched the persistent network / started from an
        #: empty one (the first round, and the round after a failed update).
        self.incremental_updates = 0
        self.full_updates = 0
        self._forget_entities()
        self._dirty_epoch: Optional[int] = None
        self._state_id: Optional[int] = None
        self._pricing_version: Hashable = None
        # The waiting-cost tick calendar.  A task's waiting term depends on
        # its ``(rate, submit_time)`` group only, so ``_tick_groups`` maps a
        # group to ``[due, {task_id: (static cost, unscheduled arc key)}]``
        # -- the decomposed cost its derivation used, and the time the
        # group's term next moves -- and ``_task_group`` names each task's
        # group.  ``_tick_calendar`` is a heap of ``(due, group)``; an entry
        # whose ``due`` is not its group's current one is stale and dropped
        # when popped.
        self._tick_groups: Dict[Tuple[float, float], list] = {}
        self._task_group: Dict[int, Tuple[float, float]] = {}
        self._tick_calendar: List[Tuple[float, Tuple[float, float]]] = []
        self._calendar_now = -math.inf
        self._verify_snapshot: Optional[FlowNetwork] = None
        # The FlowNetwork handed to a solver that takes one (see
        # :meth:`network_view`); ``None`` until one asks.
        self._view: Optional[FlowNetwork] = None
        #: The assignments the network's flow implies, kept beside it and
        #: brought up to date by :meth:`extract_assignments`.
        self.flow_assignments = FlowAssignments()
        # Tasks whose nodes the updates since the last extraction removed (a
        # round without a solver result extracts nothing, so its departures
        # wait for the next one); ``None`` while the maintained map cannot
        # be carried over at all: an all-dirty round (round 1 among them).
        self._departed_tasks: Optional[Set[int]] = None
        # What the next :meth:`diff_assignments` must visit besides the
        # re-extracted and the pending tasks: the tasks re-derived since the
        # last one, and the running tasks that produced an action then (a
        # decision nobody applied is emitted again).  ``None``: every task.
        self._diff_carry: Optional[Set[int]] = None

    # ------------------------------------------------------------------ #
    # Node identity management
    # ------------------------------------------------------------------ #
    def _forget_entities(self) -> None:
        """Know no entity: what a round starting from an empty network has.

        The entity-to-node maps and the entity sets the network reflects
        are persistent truth, moved by the dirty marks (an all-dirty round
        re-reads the sets from the state): schedulable task -> its job, live
        tasks per job, healthy machines, racks (as of a topology version),
        plus the index of which tasks depend on which machines.
        """
        self._task_nodes: Dict[int, int] = {}
        self._machine_nodes: Dict[int, int] = {}
        self._rack_nodes: Dict[int, int] = {}
        self._unscheduled_nodes: Dict[int, int] = {}
        self._task_jobs: Dict[int, int] = {}
        self._job_tasks: Dict[int, int] = {}
        self._machine_ids: Set[int] = set()
        self._rack_ids: Set[int] = set()
        self._topology_version: Optional[int] = None
        self._task_dependencies: Dict[int, Set[Optional[int]]] = {}
        self._machine_dependents: Dict[Optional[int], Set[int]] = {}

    def _allocate(self) -> int:
        node_id = self._next_node_id
        self._next_node_id += 1
        return node_id

    def _node_for_task(self, task_id: int) -> int:
        if task_id not in self._task_nodes:
            self._task_nodes[task_id] = self._allocate()
        return self._task_nodes[task_id]

    def _node_for_machine(self, machine_id: int) -> int:
        if machine_id not in self._machine_nodes:
            self._machine_nodes[machine_id] = self._allocate()
        return self._machine_nodes[machine_id]

    def _node_for_rack(self, rack_id: int) -> int:
        if rack_id not in self._rack_nodes:
            self._rack_nodes[rack_id] = self._allocate()
        return self._rack_nodes[rack_id]

    def _node_for_job(self, job_id: int) -> int:
        if job_id not in self._unscheduled_nodes:
            self._unscheduled_nodes[job_id] = self._allocate()
        return self._unscheduled_nodes[job_id]

    def _node_for_sink(self) -> int:
        if self._sink_node is None:
            self._sink_node = self._allocate()
        return self._sink_node

    def _node_for_aggregator(
        self, network: FlowNetwork, key: str, node_type: NodeType
    ) -> int:
        """Aggregator node id for a key, (re)materialized in a from-scratch
        build's ``network`` (the incremental builder materializes its own)."""
        if key not in self._aggregator_nodes:
            self._aggregator_nodes[key] = (self._allocate(), node_type)
        node_id, stored_type = self._aggregator_nodes[key]
        if not network.has_node(node_id):
            network.add_node(
                node_type=stored_type, supply=0, name=key, ref=key, node_id=node_id
            )
        return node_id

    def _aggregator_node_id(self, key: str) -> Optional[int]:
        """Non-creating aggregator lookup for scope-ownership queries."""
        entry = self._aggregator_nodes.get(key)
        return entry[0] if entry is not None else None

    # ------------------------------------------------------------------ #
    # Mappings needed by placement extraction and the scheduler
    # ------------------------------------------------------------------ #
    @property
    def task_nodes(self) -> Mapping[int, int]:
        """Read-only view of the task id -> flow-network node id mapping,
        valid until the next :meth:`update`."""
        return MappingProxyType(self._task_nodes)

    @property
    def machine_nodes(self) -> Mapping[int, int]:
        """Read-only view of the machine id -> flow-network node id
        mapping, valid until the next :meth:`update`."""
        return MappingProxyType(self._machine_nodes)

    @property
    def sink_node(self) -> Optional[int]:
        """Node id of the sink, once the first network has been built."""
        return self._sink_node

    def network_view(self) -> FlowNetwork:
        """The graph as a :class:`FlowNetwork`, for a solver that takes one
        (relaxation alone, Quincy's): the previous view with the round's batch
        replayed onto it when the batch chains from it -- O(changes), as a
        worker follows its shadow -- and a fresh one from the graph
        otherwise."""
        view, batch = self._view, self.last_changes
        if view is None or batch is None or view.revision != batch.base_revision:
            view = self._view = self.network.copy()
        else:
            batch.apply_to(view)
            view.revision = batch.target_revision
        return view

    def extract_assignments(self) -> Mapping[int, int]:
        """Task-to-machine assignments of the flow a solver just wrote.

        Re-derives only the tasks the arcs whose flow changed since the
        previous extraction touch (see
        :class:`~repro.core.placement.FlowAssignments`); the returned map
        is the maintained one, valid until the next call.  In cross-check
        mode it is compared with the full Listing-1 walk.
        """
        departed, self._departed_tasks = self._departed_tasks, set()
        tracker = self.flow_assignments
        assignments = tracker.update(self.network, self._task_nodes, departed)
        if self.verify_changes:
            problems = tracker.differences(
                extract_placements(
                    self.network.copy(),
                    self._task_nodes,
                    self._machine_nodes,
                    self._sink_node,
                )
            )
            if problems:
                raise GraphConsistencyError(
                    "maintained assignments diverged from the full walk: "
                    + "; ".join(problems[:20])
                )
        return assignments

    def diff_assignments(self, state, allow_migrations: bool, decision) -> None:
        """Fold the extracted assignments into ``decision``, visiting only
        the tasks that can produce an action.

        Those are the tasks :meth:`extract_assignments` just re-derived,
        the ones whose scope was re-derived since the previous diff (their
        state changed), every pending task, and the running tasks the
        previous diff moved -- if that decision was voided they are where
        they were and must be moved again.  Every other task was in place
        then and neither its machine nor its assignment changed.  An
        all-dirty round visits every task, on the same code; in cross-check
        mode the restricted visit is compared with the full one.
        """
        tracker = self.flow_assignments
        carry, self._diff_carry = self._diff_carry, set()
        candidates = None
        if carry is not None and tracker.last_rederived is not None:
            carry.update(tracker.last_rederived, state.pending_task_ids())
            candidates = carry
            if self.verify_changes:
                self._check_restricted_diff(state, allow_migrations, candidates)
        self._diff_carry.update(
            diff_assignments(
                state,
                self._task_nodes,
                tracker.assignments,
                allow_migrations,
                decision,
                candidates,
            )
        )

    def _check_restricted_diff(self, state, allow_migrations: bool, candidates) -> None:
        outcomes = []
        for visit in (candidates, None):
            scratch = SimpleNamespace(
                placements={}, migrations={}, preemptions=[], unscheduled=[]
            )
            diff_assignments(
                state,
                self._task_nodes,
                self.flow_assignments.assignments,
                allow_migrations,
                scratch,
                visit,
            )
            outcomes.append(
                (
                    list(scratch.placements.items()),
                    list(scratch.migrations.items()),
                    scratch.preemptions,
                    scratch.unscheduled,
                )
            )
        if outcomes[0] != outcomes[1]:
            raise GraphConsistencyError(
                f"restricted diff {outcomes[0]} != full diff {outcomes[1]}"
            )

    # ------------------------------------------------------------------ #
    # Network construction
    # ------------------------------------------------------------------ #
    def update(self, state: ClusterState, now: float = 0.0) -> FlowGraph:
        """Update the flow network to reflect the current cluster state.

        Entities that disappeared since the previous run lose their nodes
        (their identifiers are retired, never reused); new entities receive
        fresh nodes.  There is one path: the persistent network is patched
        in place from the cluster dirty sets and :attr:`last_changes` is
        read off the graph's change journal.  The batch carries the two
        revisions it connects so a consumer can verify its derived state
        matches the batch's base before patching.  With no network held
        (the first round, or the round after an update raised) the round
        starts from an empty one at the current revision and no known
        entity -- an all-dirty round reported as ``mode="full"`` -- and
        publishes no batch: nothing downstream holds the empty network it
        would start from, so every consumer starts cold.
        """
        start = time.perf_counter()
        snapshot = self._drain_dirty(state)
        cold = self.network is None
        if cold:
            self._forget_entities()
            self.network = FlowGraph(self._revision)
        try:
            network = self._update_incremental(state, now, snapshot, cold)
        except Exception:
            # The round died mid-mutation: the persistent network is
            # half-patched and this round's dirty events are consumed.
            # Drop both the network (the next round starts from an empty
            # one, with no change batch for the half-mutated state) and the
            # epoch chain, so nothing derived from the wreckage survives.
            self.network = None
            self._dirty_epoch = None
            self.last_changes = None
            raise
        if cold:
            self.last_changes = None
            self.last_update_stats.mode = "full"
            self.full_updates += 1
        else:
            self.incremental_updates += 1
        self.last_update_stats.seconds = time.perf_counter() - start
        if self.verify_changes:
            self._cross_check(state, now)
        self._finish_round(state, network)
        return network

    def _finish_round(self, state: ClusterState, network: FlowGraph) -> None:
        self._state_id = id(state)
        if self.verify_changes:
            self._verify_snapshot = network.copy()
        round_index = self._chaos_round
        self._chaos_round += 1
        if (
            self.chaos is not None
            and self.last_changes is not None
            and self.chaos.fires("chain_break", round_index)
        ):
            # Injected revision-chain break: consumers must fall back to
            # warm rebuild / full-snapshot resync and stay correct.
            self.last_changes = None
            self.chain_breaks_injected += 1

    def _drain_dirty(self, state: ClusterState):
        """Consume the state's dirty tracker.

        Returns the snapshot when this round may trust it, ``None`` when
        every scope must be treated as dirty: there is no chain yet (the
        first round, the round after a failed update), the epoch chain
        broke (another consumer drained events this manager never saw, or
        the state object changed), the tracker overflowed, or the state has
        no tracker.
        """
        tracker = getattr(state, "dirty", None)
        if tracker is None:
            return None
        snapshot = tracker.drain()
        chain_intact = (
            self._dirty_epoch is not None
            and snapshot.epoch == self._dirty_epoch + 1
            and self._state_id == id(state)
        )
        self._dirty_epoch = snapshot.epoch
        return snapshot if chain_intact and not snapshot.full else None

    # ------------------------------------------------------------------ #
    # From-scratch build (cross-check oracle, benchmark rebuild baseline)
    # ------------------------------------------------------------------ #
    def _build_full_network(self, state: ClusterState, now: float, tasks) -> FlowNetwork:
        """Build a fresh network from scratch: the cross-check's oracle and,
        diffed with :meth:`ChangeBatch.diff`, the benchmarks' rebuild
        baseline.  The persistent network is left untouched.

        Retires node-id mappings of disappeared entities and allocates
        mappings for new ones; both operations are idempotent, so running
        this after an update (which already synchronized the mappings)
        reuses the exact same identifiers.
        """
        task_ids = {t.task_id for t in tasks}
        machine_ids = {m.machine_id for m in state.topology.healthy_machines()}
        rack_ids = set(state.topology.racks)
        job_ids = {t.job_id for t in tasks}

        # Retire nodes of entities that no longer exist.
        self._task_nodes = {t: n for t, n in self._task_nodes.items() if t in task_ids}
        self._machine_nodes = {
            m: n for m, n in self._machine_nodes.items() if m in machine_ids
        }
        self._rack_nodes = {r: n for r, n in self._rack_nodes.items() if r in rack_ids}
        self._unscheduled_nodes = {
            j: n for j, n in self._unscheduled_nodes.items() if j in job_ids
        }

        network = FlowNetwork()
        sink = self._node_for_sink()
        network.add_node(
            node_type=NodeType.SINK, supply=-len(tasks), name="S", node_id=sink
        )

        for machine_id in sorted(machine_ids):
            network.add_node(
                node_type=NodeType.MACHINE,
                supply=0,
                name=f"M{machine_id}",
                ref=machine_id,
                node_id=self._node_for_machine(machine_id),
            )
        for rack_id in sorted(rack_ids):
            network.add_node(
                node_type=NodeType.RACK_AGGREGATOR,
                supply=0,
                name=f"R{rack_id}",
                ref=rack_id,
                node_id=self._node_for_rack(rack_id),
            )
        for job_id in sorted(job_ids):
            network.add_node(
                node_type=NodeType.UNSCHEDULED_AGGREGATOR,
                supply=0,
                name=f"U{job_id}",
                ref=job_id,
                node_id=self._node_for_job(job_id),
            )
        for task in tasks:
            network.add_node(
                node_type=NodeType.TASK,
                supply=1,
                name=f"T{task.job_id},{task.task_id}",
                ref=task.task_id,
                node_id=self._node_for_task(task.task_id),
            )

        builder = PolicyNetworkBuilder(
            network=network,
            task_nodes=self._task_nodes,
            machine_nodes=self._machine_nodes,
            rack_nodes=self._rack_nodes,
            unscheduled_nodes=self._unscheduled_nodes,
            sink_node=sink,
            aggregator_factory=lambda key, node_type: self._node_for_aggregator(
                network, key, node_type
            ),
            aggregator_lookup=self._aggregator_node_id,
        )
        desired = builder.collect(lambda b: self.policy.build(state, b, now))
        for (src, dst), (capacity, cost) in desired.items():
            network.add_arc(src, dst, capacity, cost)
        self._prune_isolated_nodes(network)
        return network

    # ------------------------------------------------------------------ #
    # Incremental path (the paper's event-driven two-pass update)
    # ------------------------------------------------------------------ #
    def _update_incremental(
        self, state: ClusterState, now: float, snapshot, cold: bool
    ) -> FlowGraph:
        network = self.network
        residual = network.residual
        residual.maybe_compact()
        policy = self.policy
        lookup = state.schedulable_task
        known = self._task_jobs

        # Which entities joined or left: read off the dirty marks.  Only a
        # round whose marks cannot be trusted scans the state for them.
        moves = None
        if snapshot is not None and known and state.num_schedulable_tasks:
            # Emptiness transitions change the whole network shape (an empty
            # workload prunes everything, including the sink), so they take
            # the scan too.
            moves = self._entity_moves_from_marks(state, snapshot)
        all_dirty = moves is None
        if all_dirty:
            tasks = state.schedulable_tasks()
            moves = self._entity_moves_from_scan(state, tasks)
        (
            live_tasks,
            added_tasks,
            removed_tasks,
            departed_tasks,
            added_machines,
            removed_machines,
            removed_racks,
        ) = moves
        added_jobs, removed_jobs = self._move_tasks(added_tasks, removed_tasks)
        machine_ids = self._machine_ids
        num_tasks = len(known)

        pricing_version = policy.pricing_version()
        if all_dirty:
            dirty = DirtyView.everything(state, tasks)
            dirty_tasks = dirty.tasks
        else:
            dirty_machines_avail = (
                snapshot.machines_availability | added_machines | removed_machines
            )
            dirty_tasks = {t for t in snapshot.tasks if t in known}
            if dirty_machines_avail:
                # ``None`` collects the tasks that depend on the healthy set
                # as a whole (a machine that just joined has no dependents
                # of its own yet).
                for machine_id in (None, *dirty_machines_avail):
                    dependents = self._machine_dependents.get(machine_id)
                    if dependents:
                        dirty_tasks.update(t for t in dependents if t in known)
            if pricing_version != self._pricing_version:
                dirty_tasks = set(known)
            job_tasks = self._job_tasks
            dirty = DirtyView(
                tasks=dirty_tasks | departed_tasks,
                jobs={j for j in snapshot.jobs if j in job_tasks} | added_jobs,
                machines_availability=dirty_machines_avail,
                machines_load=snapshot.machines_load | dirty_machines_avail,
            )
        self._pricing_version = pricing_version

        # 1. Retire nodes of entities that no longer exist.
        for task_id in sorted(removed_tasks):
            residual.remove_node(self._task_nodes.pop(task_id))
            self._drop_task_dependencies(task_id)
            self._leave_tick_group(task_id)
        for nodes, ids in (
            (self._machine_nodes, removed_machines),
            (self._unscheduled_nodes, removed_jobs),
            (self._rack_nodes, removed_racks),
        ):
            for entity_id in sorted(ids):
                node_id = nodes.pop(entity_id)
                if residual.has_node(node_id):
                    residual.remove_node(node_id)

        # 2. Sink supply tracks the number of schedulable tasks.
        sink = self._node_for_sink()
        if residual.has_node(sink):
            residual.set_supply(sink, -num_tasks)
        else:
            residual.add_node(sink, -num_tasks, NodeType.SINK)

        # 3. Nodes for new entities (racks materialize on access).
        for machine_id in sorted(added_machines):
            node_id = self._node_for_machine(machine_id)
            if not residual.has_node(node_id):
                residual.add_node(node_id, 0, NodeType.MACHINE, machine_id)
        for job_id in sorted(added_jobs):
            node_id = self._node_for_job(job_id)
            if not residual.has_node(node_id):
                residual.add_node(node_id, 0, NodeType.UNSCHEDULED_AGGREGATOR, job_id)
        task_nodes = self._task_nodes
        for task_id in sorted(added_tasks):
            node_id = task_nodes.get(task_id)
            if node_id is None:
                node_id = task_nodes[task_id] = self._allocate()
            residual.add_node(node_id, 1, NodeType.TASK, task_id)

        # 4. Re-derive the dirty scopes: machines (backbone), policy
        # aggregators, then tasks.
        builder = _IncrementalBuilder(self, state, now)
        apply_scope = builder.apply_scope
        if all_dirty:
            builder.derived = set()
        for machine_id in sorted(dirty.machines_availability & machine_ids):
            apply_scope(
                ("machine", machine_id),
                policy.arcs_for_machine,
                state.topology.machine(machine_id),
            )
        for key in policy.dirty_aggregators(state, dirty, now, builder):
            apply_scope(key, policy.refresh_aggregator, key)
        if all_dirty:
            self._tick_groups.clear()
            self._task_group.clear()
            self._tick_calendar.clear()
        arcs_for_task = policy.arcs_for_task
        dependencies = policy.task_machine_dependencies
        for task_id in sorted(dirty_tasks):
            task = live_tasks.get(task_id) or lookup(task_id)
            builder.unscheduled_terms = None
            apply_scope(("task", task_id), arcs_for_task, task)
            self._record_task_dependencies(task_id, dependencies(state, task))
            self._join_tick_group(task, builder.unscheduled_terms, now)
        if all_dirty:
            # Whatever no scope derived belongs to a scope that no
            # longer exists (a class without members, a retired
            # machine's chains, everything once the workload is empty).
            for arc in list(residual.arc_position):
                if arc not in builder.derived:
                    residual.remove_arc(*arc)

        # 5. Time-varying costs (waiting time): a clean task's unscheduled
        # cost moves only when ``int(rate * wait)`` does, and the tick
        # calendar names the groups for which that is due.
        ticked = self._refresh_waiting_costs(residual, now, dirty_tasks)

        # 6. Incremental prune: only the nodes the journal names and the
        # endpoints of removed arcs can have become isolated.
        supply, index, alive = residual.supply, residual.index, residual.node_alive
        for node_id in sorted(residual.prune_candidates()):
            i = index[node_id]
            if alive[i] and supply[i] == 0 and residual.is_isolated(node_id):
                residual.remove_node(node_id)

        base_revision = self._revision
        self._revision += 1
        network.revision = self._revision
        stats = GraphUpdateStats(
            mode="incremental",
            nodes_touched=len(residual.node_journal),
            arcs_patched=len(residual.arc_journal),
            dirty_tasks=len(dirty_tasks),
            dirty_machines=len(dirty.machines_availability),
            tasks_examined=len(dirty_tasks) + ticked,
        )
        if cold:
            residual.take_journal()
        else:
            self.last_changes = ChangeBatch.from_journal(
                residual, base_revision, self._revision
            )
        if all_dirty:
            self._departed_tasks = None
        elif self._departed_tasks is not None:
            self._departed_tasks |= removed_tasks

        if all_dirty:
            self._diff_carry = None
        elif self._diff_carry is not None:
            self._diff_carry |= dirty_tasks
            self._diff_carry -= removed_tasks
        self.last_update_stats = stats
        return network

    def _entity_moves_from_marks(self, state: ClusterState, snapshot):
        """Entities that joined or left since the last round, per the marks.

        Every mutator marks what it touches, so a task can only have joined
        or left the schedulable set if it is marked (the view says which, by
        whether it is schedulable *now*), a machine the healthy set if its
        availability is, and racks only move with the topology's membership
        version -- on which the machines are re-read too, the one case that
        costs the cell's size.  The marked tasks that are schedulable come
        first, by id, so the derivation does not look them up again.
        Returns ``None`` when a departed task can no longer be resolved
        through ``state.tasks`` (its job was removed): policies look such
        tasks up, so the round is an all-dirty one.
        """
        lookup = state.schedulable_task
        known = self._task_jobs
        live_tasks: Dict[int, object] = {}
        added_tasks: Dict[int, object] = {}
        removed_tasks: Set[int] = set()
        departed_tasks: Set[int] = set()
        for task_id in snapshot.tasks:
            task = lookup(task_id)
            if task is None:
                departed_tasks.add(task_id)
                if task_id in known:
                    removed_tasks.add(task_id)
                continue
            live_tasks[task_id] = task
            if task_id not in known:
                added_tasks[task_id] = task
        if not departed_tasks <= state.tasks.keys():
            return None

        topology = state.topology
        machine_ids = self._machine_ids
        if topology.version != self._topology_version:
            added_machines, removed_machines, removed_racks = self._topology_moves(
                topology
            )
        else:
            added_machines, removed_machines, removed_racks = set(), set(), set()
            machines = topology.machines
            for machine_id in snapshot.machines_availability:
                machine = machines.get(machine_id)
                if machine is not None and machine.is_available:
                    if machine_id not in machine_ids:
                        added_machines.add(machine_id)
                elif machine_id in machine_ids:
                    removed_machines.add(machine_id)
            machine_ids -= removed_machines
            machine_ids |= added_machines
        return (
            live_tasks,
            added_tasks,
            removed_tasks,
            departed_tasks,
            added_machines,
            removed_machines,
            removed_racks,
        )

    def _entity_moves_from_scan(self, state: ClusterState, tasks):
        """:meth:`_entity_moves_from_marks` by comparing the state's full
        entity sets with the persistent ones (all-dirty rounds)."""
        known = self._task_jobs
        task_by_id = {t.task_id: t for t in tasks}
        added_tasks = {
            task_id: task for task_id, task in task_by_id.items() if task_id not in known
        }
        removed_tasks = known.keys() - task_by_id.keys()
        return (
            task_by_id,
            added_tasks,
            removed_tasks,
            set(),
            *self._topology_moves(state.topology),
        )

    def _topology_moves(self, topology):
        """Move the persistent machine and rack sets to the topology's
        membership by re-reading it; returns the machines that joined, the
        machines that left and the racks that left."""
        previous_machines, previous_racks = self._machine_ids, self._rack_ids
        self._machine_ids = {m.machine_id for m in topology.healthy_machines()}
        self._rack_ids = set(topology.racks)
        self._topology_version = topology.version
        return (
            self._machine_ids - previous_machines,
            previous_machines - self._machine_ids,
            previous_racks - self._rack_ids,
        )

    def _move_tasks(self, added_tasks, removed_tasks):
        """Apply task arrivals and departures to the persistent task and
        per-job live counts; returns the jobs that gained their first live
        task and those that lost their last."""
        known = self._task_jobs
        counts = self._job_tasks
        before: Dict[int, int] = {}
        for task_id in removed_tasks:
            job_id = known.pop(task_id)
            before.setdefault(job_id, counts[job_id])
            counts[job_id] -= 1
        for task_id, task in added_tasks.items():
            job_id = known[task_id] = task.job_id
            before.setdefault(job_id, counts.get(job_id, 0))
            counts[job_id] = counts.get(job_id, 0) + 1
        added_jobs, removed_jobs = set(), set()
        for job_id, count in before.items():
            if not counts[job_id]:
                del counts[job_id]
                if count:
                    removed_jobs.add(job_id)
            elif not count:
                added_jobs.add(job_id)
        return added_jobs, removed_jobs

    def _refresh_waiting_costs(self, residual, now: float, rederived: Set[int]) -> int:
        """Re-price the clean tasks whose waiting cost is due to move.

        A due group's waiting term is computed once, and each member not
        re-derived this round (the derivation priced it at ``now``) is
        re-priced with the formula the derivation uses, so the round's cost
        changes are exactly those a refresh of every task would emit.  Time
        running backwards can *lower* costs, which the calendar does not
        schedule: that round re-prices every task and rebuilds the
        calendar.  Returns the number of tasks re-evaluated.
        """
        groups = self._tick_groups
        calendar = self._tick_calendar
        if now < self._calendar_now:
            due = list(groups)
            calendar.clear()
            rederived = ()
        else:
            due = []
            while calendar and calendar[0][0] <= now:
                tick, key = heappop(calendar)
                group = groups.get(key)
                if group is not None and group[0] == tick:
                    group[0] = None  # a duplicate entry is stale now
                    due.append(key)
        self._calendar_now = now
        arc_position = residual.arc_position
        arc_cost = residual.arc_cost
        scale = residual.cost_scale
        examined = 0
        for key in due:
            rate, submit_time = key
            group = groups[key]
            waiting = waiting_term(rate, submit_time, now)
            for task_id, (static, arc) in group[1].items():
                if task_id in rederived:
                    continue
                examined += 1
                position = arc_position.get(arc)
                cost = static + waiting
                if position is not None and arc_cost[2 * position] != cost * scale:
                    residual.patch_cost(position, cost)
            tick = group[0] = _next_tick(rate, submit_time, now)
            if tick != math.inf:
                heappush(calendar, (tick, key))
        return examined

    def _join_tick_group(self, task, terms: Tuple[int, float], now: float) -> None:
        """Keep the decomposed unscheduled cost a task was just derived with
        (``terms``, see :meth:`SchedulingPolicy.unscheduled_cost_terms`) in
        its tick group, creating the group -- and its calendar entry, at
        the time its waiting term next moves -- if it is new.  A group
        that is due this round keeps its entry: its other members are
        re-priced by :meth:`_refresh_waiting_costs`."""
        static, rate = terms
        task_id = task.task_id
        key = (rate, task.submit_time)
        previous = self._task_group.get(task_id)
        if previous != key:
            if previous is not None:
                self._leave_tick_group(task_id)
            self._task_group[task_id] = key
        group = self._tick_groups.get(key)
        if group is None:
            tick = _next_tick(rate, task.submit_time, now)
            group = self._tick_groups[key] = [tick, {}]
            if tick != math.inf:
                heappush(self._tick_calendar, (tick, key))
        group[1][task_id] = (
            static,
            (self._task_nodes[task_id], self._unscheduled_nodes[task.job_id]),
        )

    def _leave_tick_group(self, task_id: int) -> None:
        key = self._task_group.pop(task_id, None)
        if key is not None:
            members = self._tick_groups[key][1]
            del members[task_id]
            if not members:
                del self._tick_groups[key]

    # ------------------------------------------------------------------ #
    # Dependency bookkeeping (machine availability -> dependent tasks)
    # ------------------------------------------------------------------ #
    def _record_task_dependencies(
        self, task_id: int, machines: Iterable[Optional[int]]
    ) -> None:
        previous = self._task_dependencies.get(task_id)
        if previous:
            for machine_id in previous:
                dependents = self._machine_dependents.get(machine_id)
                if dependents is not None:
                    dependents.discard(task_id)
        current = set(machines)
        self._task_dependencies[task_id] = current
        for machine_id in current:
            self._machine_dependents.setdefault(machine_id, set()).add(task_id)

    def _drop_task_dependencies(self, task_id: int) -> None:
        previous = self._task_dependencies.pop(task_id, None)
        if previous:
            for machine_id in previous:
                dependents = self._machine_dependents.get(machine_id)
                if dependents is not None:
                    dependents.discard(task_id)

    # ------------------------------------------------------------------ #
    # Cross-check mode
    # ------------------------------------------------------------------ #
    def _cross_check(self, state: ClusterState, now: float) -> None:
        """Assert the update matches a from-scratch build."""
        tasks = state.schedulable_tasks()
        scanned = (
            {t.task_id: t.job_id for t in tasks},
            dict(Counter(t.job_id for t in tasks)),
            {m.machine_id for m in state.topology.healthy_machines()},
            set(state.topology.racks),
        )
        kept = (self._task_jobs, self._job_tasks, self._machine_ids, self._rack_ids)
        if kept != scanned:
            raise GraphConsistencyError(
                f"persistent entity sets {kept} diverged from a scan {scanned}"
            )
        rebuilt = self._build_full_network(state, now, tasks)
        problems = self.network.copy().structurally_equal(rebuilt)
        if problems:
            raise GraphConsistencyError(
                "incremental network diverged from a from-scratch build: "
                + "; ".join(problems[:20])
            )
        if self._verify_snapshot is not None and self.last_changes is not None:
            replayed = self._verify_snapshot.copy()
            self.last_changes.apply_to(replayed)
            problems = replayed.structurally_equal(rebuilt)
            if problems:
                raise GraphConsistencyError(
                    "directly-emitted change batch does not replay the "
                    "previous network into the rebuild: "
                    + "; ".join(problems[:20])
                )

    def _prune_isolated_nodes(self, network: FlowNetwork) -> None:
        """Drop zero-supply nodes with no arcs (unused racks or aggregators).

        Keeping them would be harmless for correctness but would make the
        solvers iterate over dead nodes.  The incremental path prunes from
        the candidate set recorded by its change builder instead of scanning
        every node.
        """
        isolated = [
            node.node_id
            for node in network.nodes()
            if node.supply == 0
            and not network.outgoing(node.node_id)
            and not network.incoming(node.node_id)
        ]
        for node_id in isolated:
            network.remove_node(node_id)
