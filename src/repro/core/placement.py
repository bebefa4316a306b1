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

:func:`diff_assignments` then turns the extracted assignments into the
round's actions by comparing them with where each task currently is.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Mapping, Optional, Tuple

from repro.flow.graph import FlowNetwork, NodeType


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


def diff_assignments(
    state,
    task_nodes: Mapping[int, int],
    assignments: Dict[int, int],
    allow_migrations: bool,
    decision,
) -> None:
    """Fold flow assignments into a decision's placements, migrations,
    preemptions and unscheduled list.

    Args:
        state: The :class:`~repro.cluster.state.ClusterState` the round ran
            against.
        task_nodes: The task ids the solved network covered (a sharded
            scheduler calls this once per cell).
        assignments: ``{task_id: machine_id}`` from
            :func:`extract_placements`.
        allow_migrations: When False, running tasks stay where they are
            whatever the flow says.
        decision: The :class:`~repro.core.scheduler.SchedulingDecision` to
            add to.
    """
    for task_id in task_nodes:
        task = state.tasks.get(task_id)
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
        elif assigned_machine is None:
            decision.unscheduled.append(task_id)
        else:
            decision.placements[task_id] = assigned_machine


def unscheduled_tasks(
    network: FlowNetwork,
    task_nodes: Mapping[int, int],
    placements: Dict[int, int],
) -> List[int]:
    """Return task ids whose flow the solver routed to an unscheduled aggregator."""
    return [task_id for task_id in task_nodes if task_id not in placements]
