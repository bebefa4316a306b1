"""Task placement extraction from an optimal flow (Listing 1 of the paper).

After the MCMF solver returns, the flow on the network's arcs implies which
task is assigned to which machine, but -- because Firmament permits arbitrary
aggregator nodes -- a task's flow may traverse several intermediate nodes on
its way to a machine.  The extraction algorithm starts from the machine
nodes and propagates "machine tokens" backwards along flow-carrying arcs;
when a token reaches a task node, that task is assigned to the token's
machine.  Tasks whose flow drains through an unscheduled aggregator receive
no token and remain unscheduled (or are preempted if they were running).

In the common case the algorithm touches every flow-carrying arc exactly
once, i.e. it extracts all placements in a single pass over the graph.

That pass is O(cluster) every round, although between two rounds of a
running scheduler almost every task's unit of flow stays on the arc it was
on.  :class:`FlowAssignments` therefore keeps the assignment map *beside*
the graph manager's persistent network and re-derives, per round, only the
tasks the round can have moved: those whose node is the source of an arc
whose flow a writer changed (:attr:`FlowNetwork.flow_changes`), plus every
task whose unit did not leave on an arc straight to a machine; tasks whose
nodes the round's change batch removed are dropped.  Any other task left on
``task -> machine`` with flow 1 last round and still does -- had that arc
been removed, emptied or capped, the task's one unit would now leave on
another arc, whose flow would have *risen* -- and for such a task the token
walk can only answer that machine again.  The re-derivation is a *forward*
path decomposition (the task's unit is followed downstream, with per-arc
use counts, until it reaches a machine or the sink), so it needs no reverse
maps: nodes carry their task and machine ids as ``ref``.
:func:`extract_placements` remains as the oracle the maintained map is
checked against (``GraphManager(verify_changes=True)`` and the tests).

:func:`diff_assignments` then turns the extracted assignments into the
round's actions by comparing them with where each task currently is --
for the tasks that can produce an action, which the caller names.
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.flow.graph import FlowNetwork, NodeType


class FlowAssignments:
    """Task-to-machine assignments of a persistent network's flow,
    maintained across rounds at a cost proportional to what changed."""

    def __init__(self) -> None:
        #: ``{task_id: machine_id}`` of the flow last read; tasks the flow
        #: leaves unscheduled are absent.
        self.assignments: Dict[int, int] = {}
        #: Tasks whose unit did not leave on an arc straight to a machine
        #: (it crossed an aggregator, or drained to the sink unscheduled).
        #: Aggregator arcs are shared, so these are re-derived together,
        #: every round.
        self.indirect: Set[int] = set()
        #: How many tasks the most recent :meth:`update` re-derived, and
        #: which (ascending ids); ``None`` when it re-derived every task.
        self.last_reextracted = 0
        self.last_rederived: Optional[List[int]] = None

    def update(
        self,
        network: FlowNetwork,
        task_nodes: Mapping[int, int],
        departed_tasks: Optional[Iterable[int]],
    ) -> Dict[int, int]:
        """Bring the map up to the flow now on ``network``; returns it.

        Args:
            network: The persistent network, flows written by the round's
                solver.  Its :attr:`~FlowNetwork.flow_changes` are consumed.
            task_nodes: Task id to node id of the tasks in the network.
            departed_tasks: Tasks whose nodes were removed since the
                previous call; ``None`` when the map cannot be carried over
                (another network, an all-dirty round), which means every
                task is re-derived.
        """
        changed = network.take_flow_changes()
        assignments = self.assignments
        indirect = self.indirect
        if departed_tasks is None:
            assignments.clear()
            indirect.clear()
            rederive = sorted(task_nodes)
            self.last_rederived = None
        else:
            for task_id in departed_tasks:
                assignments.pop(task_id, None)
                indirect.discard(task_id)
            suspects = set(indirect)
            find_node = network.find_node
            for src, _dst in changed:
                node = find_node(src)
                if node is not None and node.node_type is NodeType.TASK:
                    suspects.add(node.ref)
            self.last_rederived = rederive = sorted(suspects)
        self.last_reextracted = len(rederive)

        # Forward path decomposition.  Only a task's first arc is its own;
        # every later arc may be shared, so units already routed over it
        # are counted.  Task-id order makes the split of a shared arc's
        # flow among its tasks the same whichever subset is re-derived.
        used: Dict[Tuple[int, int], int] = {}
        node_of = network.node
        outgoing = network.iter_outgoing
        longest_path = network.num_nodes
        for task_id in rederive:
            node_id = task_nodes[task_id]
            machine = None
            for hops in range(longest_path):
                for arc in outgoing(node_id):
                    if arc.flow <= 0:
                        continue
                    if hops:
                        key = (arc.src, arc.dst)
                        units = used.get(key, 0)
                        if units >= arc.flow:
                            continue
                        used[key] = units + 1
                    break
                else:
                    break  # no unit leaves here: not a conserved flow
                node = node_of(arc.dst)
                if node.node_type is NodeType.MACHINE:
                    machine = node.ref
                    break
                if node.node_type is NodeType.SINK:
                    break
                node_id = arc.dst
            else:
                raise RuntimeError(
                    f"the flow of task {task_id} does not reach a machine or "
                    "the sink: the network's flow has a cycle"
                )
            if machine is None:
                assignments.pop(task_id, None)
                indirect.add(task_id)
            else:
                assignments[task_id] = machine
                if hops:
                    indirect.add(task_id)
                else:
                    indirect.discard(task_id)
        return assignments

    def differences(self, oracle: Mapping[int, int]) -> List[str]:
        """How the maintained map departs from a full walk's (empty: not).

        Both read the same flow, so they must agree on *which* tasks are
        assigned, on how many each machine receives, and exactly on every
        directly routed task; which of the tasks sharing an aggregator
        gets which of its machines is the decomposition's free choice.
        """
        mine = self.assignments
        problems = []
        if mine.keys() != oracle.keys():
            problems.append(
                f"assigned only here {sorted(mine.keys() - oracle.keys())}, "
                f"only in the full walk {sorted(oracle.keys() - mine.keys())}"
            )
        if Counter(mine.values()) != Counter(oracle.values()):
            problems.append("per-machine task counts differ")
        for task_id, machine in mine.items():
            if task_id not in self.indirect and oracle.get(task_id) != machine:
                problems.append(
                    f"directly routed task {task_id}: {machine} here, "
                    f"{oracle.get(task_id)} in the full walk"
                )
        return problems


def extract_placements(
    network: FlowNetwork,
    task_nodes: Mapping[int, int],
    machine_nodes: Mapping[int, int],
    sink_node: int,
) -> Dict[int, int]:
    """Extract task-to-machine assignments from the optimal flow.

    Args:
        network: The flow network with the solver's flow assigned to arcs.
        task_nodes: Mapping from task id to its node id.
        machine_nodes: Mapping from machine id to its node id.
        sink_node: Node id of the sink.

    Returns:
        Mapping from task id to assigned machine id.  Tasks that the optimal
        flow leaves unscheduled are absent from the mapping.
    """
    node_to_task = {node_id: task_id for task_id, node_id in task_nodes.items()}
    node_to_machine = {node_id: machine_id for machine_id, node_id in machine_nodes.items()}

    # Machine tokens available at each node, initialized at machine nodes
    # with one token per unit of flow the machine sends to the sink.
    destinations: Dict[int, List[int]] = {}
    to_visit: deque = deque()
    queued = set()
    for machine_id, node_id in machine_nodes.items():
        if not network.has_node(node_id):
            continue
        outgoing_flow = sum(
            arc.flow for arc in network.outgoing(node_id) if arc.dst == sink_node
        )
        if outgoing_flow > 0:
            destinations[node_id] = [machine_id] * outgoing_flow
            to_visit.append(node_id)
            queued.add(node_id)

    # Per-arc count of tokens already moved across it (never exceeds flow).
    moved: Dict[Tuple[int, int], int] = {}
    mappings: Dict[int, int] = {}

    while to_visit:
        node_id = to_visit.popleft()
        queued.discard(node_id)
        available = destinations.get(node_id)
        if not available:
            continue
        node = network.node(node_id)
        if node.node_type is NodeType.TASK:
            task_id = node_to_task.get(node_id)
            if task_id is not None and available:
                mappings[task_id] = available.pop()
            continue
        # Distribute tokens to the sources of incoming flow-carrying arcs.
        for arc in network.incoming(node_id):
            if not available:
                break
            already_moved = moved.get(arc.key(), 0)
            want = arc.flow - already_moved
            if want <= 0:
                continue
            take = min(want, len(available))
            if take <= 0:
                continue
            destinations.setdefault(arc.src, []).extend(
                available.pop() for _ in range(take)
            )
            moved[arc.key()] = already_moved + take
            if arc.src not in queued:
                to_visit.append(arc.src)
                queued.add(arc.src)
    return mappings


def in_network_order(task_ids: Iterable[int], task_nodes: Mapping[int, int]) -> List[int]:
    """Those of ``task_ids`` the network covers, in the order ``task_nodes``
    iterates them (ascending node id: nodes are allocated monotonically)."""
    return sorted(
        (task_id for task_id in task_ids if task_id in task_nodes),
        key=task_nodes.__getitem__,
    )


def diff_assignments(
    state,
    task_nodes: Mapping[int, int],
    assignments: Mapping[int, int],
    allow_migrations: bool,
    decision,
    candidates: Optional[Iterable[int]] = None,
) -> List[int]:
    """Fold flow assignments into a decision's placements, migrations,
    preemptions and unscheduled list.

    A task contributes iff it is pending, or runs somewhere other than
    where the flow wants it.  ``candidates`` names the tasks that can: the
    caller passes those whose assignment or state may have changed since
    the previous diff, every pending task, and the running tasks that
    contributed then (see :meth:`GraphManager.diff_assignments
    <repro.core.graph_manager.GraphManager.diff_assignments>`).  They are
    visited :func:`in_network_order`, so the decision lists every action in
    the same order as the full pass.

    Args:
        state: The :class:`~repro.cluster.state.ClusterState` the round ran
            against.
        task_nodes: The task ids the solved network covered (a sharded
            scheduler calls this once per cell).
        assignments: ``{task_id: machine_id}`` of the round's flow.
        allow_migrations: When False, running tasks stay where they are
            whatever the flow says.
        decision: The :class:`~repro.core.scheduler.SchedulingDecision` to
            add to.
        candidates: Task ids to visit; ``None`` visits every task.

    Returns:
        The running tasks that produced a migration or a preemption.
    """
    visit = task_nodes if candidates is None else in_network_order(candidates, task_nodes)
    moved: List[int] = []
    tasks = state.tasks
    for task_id in visit:
        task = tasks.get(task_id)
        if task is None:
            continue
        assigned_machine = assignments.get(task_id)
        if task.is_running:
            if not allow_migrations or assigned_machine == task.machine_id:
                continue  # pinned, or already where the flow wants it
            if assigned_machine is None:
                decision.preemptions.append(task_id)
            else:
                decision.migrations[task_id] = assigned_machine
            moved.append(task_id)
        elif assigned_machine is None:
            decision.unscheduled.append(task_id)
        else:
            decision.placements[task_id] = assigned_machine
    return moved
