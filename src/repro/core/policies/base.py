"""Scheduling policy API: per-entity derivation of the flow network.

A policy translates cluster state and monitoring data into the arcs (and
policy-specific aggregator nodes) of the scheduling flow network.  The
:class:`~repro.core.graph_manager.GraphManager` owns node identity -- task,
machine, rack, unscheduled-aggregator and sink nodes keep stable identifiers
across scheduling runs so that incremental solvers can warm-start -- and
hands the policy a :class:`PolicyNetworkBuilder` restricted to the
operations a policy needs.

A policy describes its network one *derivation scope* at a time.  Every arc
belongs to exactly one scope, owned by a task, a machine, or an aggregator
key, and the policy answers five questions about scopes
(:meth:`SchedulingPolicy.arcs_for_task`,
:meth:`~SchedulingPolicy.arcs_for_machine`,
:meth:`~SchedulingPolicy.refresh_aggregator`,
:meth:`~SchedulingPolicy.dirty_aggregators`,
:meth:`~SchedulingPolicy.owned_arcs`).  :class:`SchedulingPolicy` itself
owns the scopes every policy shares -- a task's unscheduled and
continuation arcs, a machine's arc to the sink, a job's unscheduled
aggregator -- so a concrete policy only prices what is its own.  There is
no second way to describe a network: :meth:`SchedulingPolicy.build` is the
same derivation with every scope dirty (:meth:`DirtyView.everything`).

Costs are integers.  Policies express them in a common abstract unit
("cost units"); the helpers on :class:`SchedulingPolicy` convert data sizes
and waiting times into that unit so that the trade-off between waiting,
data transfer, and preemption is consistent across policies.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.cluster.state import ClusterState
from repro.cluster.task import Task
from repro.flow.graph import FlowNetwork, NodeType

#: An arc's ``(src, dst)`` node ids: how scope ownership names arcs.
ArcKey = Tuple[int, int]


def waiting_term(rate: float, submit_time: float, now: float) -> int:
    """The time-varying part of a task's unscheduled cost (see
    :meth:`SchedulingPolicy.unscheduled_cost_terms`): ``int(rate * wait)``
    for a positive wait, else 0."""
    wait = now - submit_time
    return int(rate * wait) if wait > 0.0 else 0


@dataclass
class DirtyView:
    """The scopes invalidated this round, as sets of entity ids.

    Handed to :meth:`SchedulingPolicy.dirty_aggregators`.  ``tasks`` holds
    the live tasks whose scope is re-derived plus the tasks that just left
    the schedulable set (still resolvable through ``state.tasks``, so a
    policy can attribute their aggregator scopes); the machine sets may
    name machines that just left.
    """

    tasks: Set[int]
    jobs: Set[int]
    machines_availability: Set[int]
    machines_load: Set[int]

    @classmethod
    def everything(cls, state: ClusterState, tasks: Sequence[Task]) -> "DirtyView":
        """Every scope of the current state is dirty.

        An empty workload has no scopes at all: with no task to route,
        every scope derives to nothing and the network is empty.
        """
        if not tasks:
            return cls(set(), set(), set(), set())
        machines = {m.machine_id for m in state.topology.healthy_machines()}
        return cls(
            tasks={t.task_id for t in tasks},
            jobs={t.job_id for t in tasks},
            machines_availability=machines,
            machines_load=machines,
        )


class PolicyNetworkBuilder:
    """Facade handed to policies for adding aggregators and arcs.

    The builder exposes the pre-created nodes (tasks, machines, racks,
    per-job unscheduled aggregators, sink) by entity identifier and lets the
    policy create policy-specific aggregator nodes keyed by an arbitrary
    string, so their identity is also stable across scheduling runs.

    Arcs a hook emits are *collected* (:meth:`collect`), not applied: the
    graph manager decides what to do with a scope's desired arc set -- add
    it to a fresh network, or diff it against the scope's current arcs.
    """

    def __init__(
        self,
        network: FlowNetwork,
        task_nodes: Dict[int, int],
        machine_nodes: Dict[int, int],
        rack_nodes: Dict[int, int],
        unscheduled_nodes: Dict[int, int],
        sink_node: int,
        aggregator_factory,
        aggregator_lookup=None,
    ) -> None:
        self.network = network
        self._task_nodes = task_nodes
        self._machine_nodes = machine_nodes
        self._rack_nodes = rack_nodes
        self._unscheduled_nodes = unscheduled_nodes
        self._sink_node = sink_node
        self._aggregator_factory = aggregator_factory
        self._aggregator_lookup = aggregator_lookup
        self._desired: Optional[Dict[Tuple[int, int], Tuple[int, int]]] = None
        #: Scratch space shared by a policy's per-entity hooks, so a grouping
        #: or statistics pass computed for one dirty entity can be reused
        #: for the others.  It is per-round because the graph manager makes
        #: a fresh builder for every update.
        self.round_cache: Dict[object, object] = {}
        #: ``(static, rate)`` of the unscheduled arc the last task scope
        #: emitted (:meth:`SchedulingPolicy.unscheduled_cost_terms`), which
        #: the graph manager's waiting-cost calendar keeps.
        self.unscheduled_terms: Optional[Tuple[int, float]] = None

    @property
    def sink(self) -> int:
        """Node id of the single sink."""
        return self._sink_node

    def task_node(self, task_id: int) -> int:
        """Node id of a task."""
        return self._task_nodes[task_id]

    def machine_node(self, machine_id: int) -> int:
        """Node id of a machine."""
        return self._machine_nodes[machine_id]

    def rack_node(self, rack_id: int) -> int:
        """Node id of a rack aggregator."""
        return self._rack_nodes[rack_id]

    def unscheduled_node(self, job_id: int) -> int:
        """Node id of a job's unscheduled aggregator."""
        return self._unscheduled_nodes[job_id]

    def aggregator(self, key: str, node_type: NodeType = NodeType.OTHER) -> int:
        """Return (creating on first use) a policy-specific aggregator node.

        The aggregator keeps the same node id for as long as the policy keeps
        requesting the same key, which preserves warm-start validity.
        """
        return self._aggregator_factory(key, node_type)

    # ------------------------------------------------------------------ #
    # Scope-ownership queries (side-effect-free)
    # ------------------------------------------------------------------ #
    # On the incremental builder the accessors above re-add pruned nodes to
    # the network; asking "which arcs does this scope own" must not, so
    # :meth:`SchedulingPolicy.owned_arcs` uses the peek variants and the
    # arc queries below, which treat an unmapped or pruned node as owning
    # nothing.

    def peek_machine_node(self, machine_id: int) -> Optional[int]:
        """Machine node id without materializing it, ``None`` if unmapped."""
        return self._machine_nodes.get(machine_id)

    def peek_rack_node(self, rack_id: int) -> Optional[int]:
        """Rack node id without materializing it, ``None`` if unmapped."""
        return self._rack_nodes.get(rack_id)

    def peek_rack_ids(self) -> List[int]:
        """Ids of the racks that have a node, without materializing one."""
        return list(self._rack_nodes)

    def peek_unscheduled_node(self, job_id: int) -> Optional[int]:
        """Unscheduled node id without materializing it, ``None`` if unmapped."""
        return self._unscheduled_nodes.get(job_id)

    def find_aggregator(self, key: str) -> Optional[int]:
        """An aggregator's node id without creating it, ``None`` when the
        key was never requested."""
        if self._aggregator_lookup is None:
            return None
        return self._aggregator_lookup(key)

    def outgoing(self, node_id: Optional[int]) -> List[ArcKey]:
        """``(src, dst)`` of the arcs out of a node; none for an unmapped or
        pruned node."""
        if node_id is None:
            return []
        return self.network.residual.incident_keys(node_id)

    def incoming(self, node_id: Optional[int], src_type: NodeType) -> List[ArcKey]:
        """``(src, dst)`` of the arcs into a node from nodes of one type;
        none for an unmapped or pruned node."""
        if node_id is None:
            return []
        residual = self.network.residual
        keys = residual.incident_keys(node_id, incoming=True)
        return [k for k in keys if residual.node_types[residual.index[k[0]]] is src_type]

    def has_arc(self, src: Optional[int], dst: Optional[int]) -> bool:
        """Whether the network has an arc between the two nodes."""
        return (src, dst) in self.network.residual.arc_position

    # ------------------------------------------------------------------ #
    # Arc emission
    # ------------------------------------------------------------------ #
    def add_arc(self, src: int, dst: int, capacity: int, cost: int) -> None:
        """Emit an arc into the scope being collected.

        Emitting the same arc twice merges: widest capacity, cheapest cost.
        """
        if capacity <= 0:
            return
        if self._desired is None:
            raise RuntimeError("add_arc outside a derivation scope")
        cost = int(cost)
        existing = self._desired.get((src, dst))
        if existing is not None:
            capacity = max(existing[0], capacity)
            cost = min(existing[1], cost)
        self._desired[(src, dst)] = (capacity, cost)

    def collect(self, derive) -> Dict[Tuple[int, int], Tuple[int, int]]:
        """Run ``derive(builder)`` and return the arcs it emitted, as
        ``(src, dst) -> (capacity, cost)`` in emission order."""
        self._desired = {}
        try:
            derive(self)
            return self._desired
        finally:
            self._desired = None


class SchedulingPolicy(abc.ABC):
    """Base class for flow-network scheduling policies."""

    #: Human-readable policy name.
    name: str = "abstract"

    #: Cost units per GB of data that must be transferred across the network.
    cost_per_gb: int = 10

    #: Cost units added per second a task has been waiting (the longer a
    #: task waits, the more attractive scheduling it anywhere becomes).
    wait_time_cost_per_second: float = 0.5

    #: Baseline cost of leaving a task unscheduled for another round.
    base_unscheduled_cost: int = 100

    #: Extra cost of preempting an already running task.
    preemption_penalty: int = 50

    #: Additional unscheduled cost per priority level.  Higher-priority tasks
    #: (e.g. service tasks, priority 10, vs batch tasks, priority 1) are more
    #: expensive to leave waiting, so under slot scarcity the min-cost flow
    #: preempts lower-priority work in their favour -- the paper's priority
    #: preemption (Section 3.3) expressed purely through costs.  The default
    #: makes the service/batch priority gap of the Google-like trace (10 vs
    #: 1) outweigh the preemption penalty, while equal-priority tasks never
    #: preempt each other.
    priority_unscheduled_weight: int = 10

    #: Constant added to every arc that would start (or move) a task on a
    #: machine, representing task startup and migration overhead.  It keeps a
    #: running task's continuation arc strictly cheaper than re-placing the
    #: task somewhere equally good, so continuous rescheduling does not
    #: migrate tasks without a real benefit.
    placement_base_cost: int = 2

    def build(self, state: ClusterState, builder: PolicyNetworkBuilder, now: float) -> None:
        """Derive the whole network: every machine, aggregator and task
        scope is dirty.

        Called by the graph manager after it created nodes for every task,
        machine, rack, and job.  Not a policy hook -- a policy describes
        its scopes below and this walks all of them, in the order the graph
        manager re-derives dirty ones.
        """
        tasks = state.schedulable_tasks()
        dirty = DirtyView.everything(state, tasks)
        for machine_id in sorted(dirty.machines_availability):
            machine = state.topology.machine(machine_id)
            self.arcs_for_machine(state, builder, machine, now)
        for key in self.dirty_aggregators(state, dirty, now, builder):
            self.refresh_aggregator(state, builder, key, now)
        for task in tasks:
            self.arcs_for_task(state, builder, task, now)

    # ------------------------------------------------------------------ #
    # Per-entity derivation hooks
    # ------------------------------------------------------------------ #
    # The graph manager re-runs a scope's hook only when its entity is
    # dirty, diffs the emitted arcs against the scope's current arcs (per
    # :meth:`owned_arcs`), and patches the persistent network.  The
    # defaults below derive the arcs every policy has; a policy extends
    # them (``super()`` plus its own arcs) and adds aggregator scopes of
    # its own.  Every task must keep a path to the sink, which the shared
    # unscheduled arc guarantees.

    def arcs_for_task(
        self, state: ClusterState, builder: PolicyNetworkBuilder, task: Task, now: float
    ) -> None:
        """Emit every arc out of one task's node (the task's scope).

        Shared part: the unscheduled / preemption arc, and for a running
        task the continuation arc to its current machine.
        """
        task_node = builder.task_node(task.task_id)
        static, rate = builder.unscheduled_terms = self.unscheduled_cost_terms(task)
        builder.add_arc(
            task_node,
            builder.unscheduled_node(task.job_id),
            1,
            static + waiting_term(rate, task.submit_time, now),
        )
        if task.is_running and task.machine_id is not None:
            builder.add_arc(
                task_node,
                builder.machine_node(task.machine_id),
                1,
                self.continuation_cost(task),
            )

    def arcs_for_machine(
        self, state: ClusterState, builder: PolicyNetworkBuilder, machine, now: float
    ) -> None:
        """Emit the arcs owned by one healthy machine.

        Re-derived when the machine's *availability* changes, so only arcs
        that do not depend on its load belong here.  Shared part: the arc
        to the sink, one unit per slot.
        """
        builder.add_arc(
            builder.machine_node(machine.machine_id),
            builder.sink,
            machine.num_slots,
            0,
        )

    def refresh_aggregator(
        self, state: ClusterState, builder: PolicyNetworkBuilder, key: Tuple, now: float
    ) -> None:
        """Emit the arcs owned by one aggregator scope key.

        Keys are whatever :meth:`dirty_aggregators` yields; the policy
        defines their meaning (e.g. ``("rack", rack_id)``).  Shared part:
        ``("job", job_id)``, the job's unscheduled aggregator draining to
        the sink.
        """
        kind, job_id = key[0], key[1]
        if kind != "job":
            raise NotImplementedError(f"unknown scope {key!r}")
        job = state.jobs.get(job_id)
        if job is not None:
            builder.add_arc(
                builder.unscheduled_node(job_id), builder.sink, job.num_tasks, 0
            )

    def dirty_aggregators(
        self, state: ClusterState, dirty: DirtyView, now: float, builder: PolicyNetworkBuilder
    ) -> List[Tuple]:
        """Return the aggregator scope keys invalidated by the dirty sets.

        ``builder`` is the round's builder -- its ``round_cache`` lets the
        enumeration share grouping passes with the refresh hooks.  Shared
        part: the scopes of the dirty jobs.
        """
        return [("job", job_id) for job_id in sorted(dirty.jobs)]

    def owned_arcs(self, builder: PolicyNetworkBuilder, key: Tuple) -> Iterable[ArcKey]:
        """Return the ``(src, dst)`` of the arcs currently in the network
        that belong to a scope.

        Ownership is structural -- derived from the network itself, through
        the builder's side-effect-free queries -- so it stays correct
        across pruning and all-dirty rounds without bookkeeping.  Shared
        part: a task owns every arc out of its node, a machine every arc
        out of its node (the sink arc), a job every arc out of its
        unscheduled aggregator.  A policy whose machines or aggregators own
        further arcs extends this.
        """
        kind, ident = key[0], key[1]
        if kind == "task":
            return builder.outgoing(builder.task_node(ident))
        if kind == "machine":
            return builder.outgoing(builder.peek_machine_node(ident))
        if kind == "job":
            return builder.outgoing(builder.peek_unscheduled_node(ident))
        raise NotImplementedError(f"unknown scope {key!r}")

    def task_machine_dependencies(
        self, state: ClusterState, task: Task
    ) -> Iterable[Optional[int]]:
        """Machine ids whose *availability* affects this task's arc set.

        When one of these machines joins or leaves the schedulable set, the
        task's scope must be re-derived even though the task itself did not
        change.  ``None`` stands for the healthy set as a whole -- any
        machine, including one that joins later -- and is the default, the
        conservative answer.
        """
        return (None,)

    def current_machine_only(self, state: ClusterState, task: Task) -> Iterable[int]:
        """:meth:`task_machine_dependencies` of a policy whose task scope
        names no machine beyond the shared continuation arc."""
        if task.machine_id is not None:
            return (task.machine_id,)
        return ()

    def pricing_version(self) -> Hashable:
        """Version of the pricing inputs that raise no dirty event.

        A policy that prices task arcs from state the cluster's dirty
        tracker does not see (e.g. a knowledge base) returns a value that
        moves whenever that state does; the graph manager then re-derives
        every task scope instead of trusting the dirty sets.
        """
        return None

    def unscheduled_cost_terms(self, task: Task) -> Tuple[int, float]:
        """Decompose :meth:`unscheduled_cost` into ``(static, rate)``.

        The unscheduled cost at time ``now`` is
        ``static + waiting_term(rate, task.submit_time, now)``.  Waiting
        cost grows with ``now`` even for untouched tasks; with the cost
        decomposed the graph manager keeps the terms the derivation used
        and re-prices a clean task's unscheduled arc by pure arithmetic
        when its waiting term moves (no attribute chasing, no policy
        call).  The task scope prices its unscheduled arc from these
        terms, so a policy changes that price by overriding this method.
        """
        static = self.base_unscheduled_cost
        static += self.priority_unscheduled_weight * max(0, task.priority)
        if task.is_running:
            static += self.preemption_penalty
        return static, self.wait_time_cost_per_second

    # ------------------------------------------------------------------ #
    # Cost helpers shared by the concrete policies
    # ------------------------------------------------------------------ #
    def unscheduled_cost(self, task: Task, now: float) -> int:
        """Cost of leaving a pending task unscheduled (or preempting a
        running one), growing with the task's waiting time and priority.

        Defined through :meth:`unscheduled_cost_terms` so the incremental
        refresh of waiting costs and the full build agree by construction.
        """
        static, rate = self.unscheduled_cost_terms(task)
        return static + waiting_term(rate, task.submit_time, now)

    def transfer_cost(self, task: Task, locality_fraction: float) -> int:
        """Cost of transferring the non-local part of a task's input data."""
        remote_gb = task.input_size_gb * max(0.0, 1.0 - locality_fraction)
        return int(round(remote_gb * self.cost_per_gb))

    def continuation_cost(self, task: Task) -> int:
        """Cost of keeping a running task on its current machine.

        Kept slightly above zero so that migrations with a genuinely better
        destination still win, but continuation is strongly preferred.
        """
        return 1


class RequestAggregatorPolicy(SchedulingPolicy):
    """Shared derivation for policies with one request aggregator per
    task class (Section 3.2; Figure 6c).

    Tasks with similar requests connect to one aggregator ``RA<class>``,
    which has an arc to every machine that can take one more task of the
    class.  A concrete policy says which class a task is in and what the
    arc from a class to one machine looks like; the scopes follow from
    that: ``("class", class_key)`` owns all of a class's machine arcs and
    is re-derived when its membership changes, ``("class_machine",
    class_key, machine_id)`` owns the single arc to one machine and is
    re-derived when only that machine's load or availability changed --
    O(classes x dirty machines), not O(classes x machines).
    """

    #: Cost of the arc from a task to its request aggregator.
    aggregator_arc_cost: int = 0

    @abc.abstractmethod
    def request_class(self, task: Task) -> Hashable:
        """Return the request class (aggregator identity) of a task."""

    @abc.abstractmethod
    def class_machine_arc(
        self,
        state: ClusterState,
        builder: PolicyNetworkBuilder,
        class_key: Hashable,
        num_members: int,
        machine,
    ) -> Optional[Tuple[int, int]]:
        """Return ``(capacity, cost)`` of the arc from a class with
        ``num_members`` schedulable tasks to a healthy machine, or ``None``
        when one more task of the class does not fit there."""

    @staticmethod
    def _aggregator_key(class_key: Hashable) -> str:
        return f"RA{class_key}"

    def _aggregator(self, builder: PolicyNetworkBuilder, class_key: Hashable) -> int:
        return builder.aggregator(
            self._aggregator_key(class_key), NodeType.REQUEST_AGGREGATOR
        )

    def class_members(
        self, state: ClusterState, builder: PolicyNetworkBuilder
    ) -> Dict[Hashable, List[Task]]:
        """Group schedulable tasks by request class, once per round."""
        members = builder.round_cache.get("class_members")
        if members is None:
            members = {}
            for task in state.schedulable_tasks():
                members.setdefault(self.request_class(task), []).append(task)
            builder.round_cache["class_members"] = members
        return members

    def arcs_for_task(self, state, builder, task, now) -> None:
        """Emit one task's aggregator arc plus the shared task arcs."""
        builder.add_arc(
            builder.task_node(task.task_id),
            self._aggregator(builder, self.request_class(task)),
            1,
            self.aggregator_arc_cost,
        )
        super().arcs_for_task(state, builder, task, now)

    def refresh_aggregator(self, state, builder, key, now) -> None:
        """Emit a ``("class", ...)`` or ``("class_machine", ...)`` scope."""
        kind, class_key = key[0], key[1]
        if kind not in ("class", "class_machine"):
            super().refresh_aggregator(state, builder, key, now)
            return
        members = self.class_members(state, builder).get(class_key)
        if not members:
            return
        if kind == "class":
            machines = state.topology.healthy_machines()
        else:
            machine = state.topology.machines.get(key[2])
            if machine is None or not machine.is_available:
                return
            machines = (machine,)
        aggregator = self._aggregator(builder, class_key)
        for machine in machines:
            arc = self.class_machine_arc(state, builder, class_key, len(members), machine)
            if arc is not None:
                builder.add_arc(aggregator, builder.machine_node(machine.machine_id), *arc)

    def dirty_aggregators(self, state, dirty, now, builder):
        """Classes of dirty tasks in full (their membership may have
        changed); every other class only towards the load-dirty machines."""
        full_classes = set()
        for task_id in dirty.tasks:
            task = state.tasks.get(task_id)
            if task is not None:
                full_classes.add(self.request_class(task))
        keys = [("class", class_key) for class_key in sorted(full_classes)]
        machines = state.topology.machines
        dirty_machines = sorted(
            machine_id
            for machine_id in dirty.machines_load
            if machine_id in machines and machines[machine_id].is_available
        )
        if dirty_machines:
            for class_key in sorted(set(self.class_members(state, builder)) - full_classes):
                for machine_id in dirty_machines:
                    keys.append(("class_machine", class_key, machine_id))
        return keys + super().dirty_aggregators(state, dirty, now, builder)

    def owned_arcs(self, builder, key):
        """A class owns the arcs out of its aggregator; a class-machine
        scope the one arc between the two."""
        kind = key[0]
        if kind not in ("class", "class_machine"):
            return super().owned_arcs(builder, key)
        aggregator = builder.find_aggregator(self._aggregator_key(key[1]))
        if kind == "class":
            return builder.outgoing(aggregator)
        arc = (aggregator, builder.peek_machine_node(key[2]))
        return [arc] if builder.has_arc(*arc) else []

    task_machine_dependencies = SchedulingPolicy.current_machine_only
