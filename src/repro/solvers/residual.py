"""Compact, persistent residual-network representation for the MCMF solvers.

Nodes are renumbered ``0..n-1`` and every original arc is stored as a pair
of directed residual arcs (forward at an even index, its reverse at the
following odd index), so that the reverse of arc ``k`` is always ``k ^ 1``.
Arc attributes live in parallel ``array('q')`` columns rather than Python
lists of boxed ints, and per-node adjacency is a flat list of arc indices
with a *current-arc* cursor (:attr:`ResidualNetwork.current_arc`) that cost
scaling's discharge loop resumes from.

Beside its adjacency each node keeps its *open arcs*
(:attr:`ResidualNetwork.open_arcs`): the entries of its adjacency whose
residual capacity is positive, in adjacency order (ascending arc index), no
duplicates.  The repair's shortest-path searches walk these, so a hub costs
the arcs that can carry flow out of it, not every task that has an arc into
it.  The mutators (:meth:`~ResidualNetwork.push`, the arc and node patches,
:meth:`~ResidualNetwork.load_flows`, :meth:`~ResidualNetwork.compact`) keep
the lists exact; a loop that writes ``arc_residual`` itself (the scaling
ladder's discharge, a warm repair's saturation, relaxation's path pushes)
marks them stale (:meth:`~ResidualNetwork.invalidate_open_arcs`), and
:meth:`~ResidualNetwork.refresh_open_arcs` rebuilds them in one pass before
the next search.

The structure is *persistent* across scheduling rounds (paper, Section 5.2
-- solver work proportional to the change, not the graph):

* its mutators patch it in place -- node, arc, supply, capacity and cost
  changes, or a whole :class:`~repro.flow.changes.ChangeBatch`
  (:meth:`ResidualNetwork.apply_changes`) -- recording what a repair must
  look at; removed arcs become *dead slots* (zero residual both ways,
  never traversed), compacted away once they dominate;
* costs may be held in scaled units between runs
  (:attr:`ResidualNetwork.cost_scale`), so an incremental cost-scaling
  solver keeps its exact scaled potentials without an O(arcs) rescale;
* a dirty-flow journal serves each extraction in O(changed arcs).

A graph manager keeps its network in one residual (:class:`FlowGraph`):
a round's mutations go straight into it, journaled (first-touch origins),
so a :class:`~repro.flow.changes.ChangeBatch` is read off the change
journal where one is wanted, an in-place solver repairs exactly what they
touched (however many updates made them), and the placements are read off
the flow journal.
A :class:`FlowNetwork` is built from it (:meth:`ResidualNetwork.to_network`)
only where one is the interface: the oracles, DIMACS snapshots, and
solvers that take one.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from collections.abc import Mapping as MappingABC
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.flow.changes import ADDED, REMOVED
from repro.flow.graph import FlowNetwork, NodeType
from repro.solvers.base import SolveAborted

#: Arcs loaded between two polls of the construction abort hook (the build
#: loop's per-arc cost is a few microseconds, so this keeps cancellation
#: latency around a millisecond at negligible polling overhead).
CONSTRUCTION_CHECK_INTERVAL = 256


class ResidualNetwork:
    """Array-based residual graph with node excesses and potentials.

    Attributes (hot-loop storage, intentionally public):
        arc_from / arc_to / arc_residual / arc_cost: parallel ``array('q')``
            columns indexed by residual arc.
        adjacency: per-node lists of outgoing residual arc indices.
        open_arcs: per node, the entries of ``adjacency`` with positive
            residual capacity, in the same order; not maintained while
            ``open_arcs_stale`` is set.
        current_arc: per-node scan cursor into ``adjacency`` (the classic
            push/relabel current-arc heuristic; reset on relabel).
        excess / potential / supply: per-node integer columns.
        cost_scale: integer factor the stored ``arc_cost`` values (and
            potentials) are multiplied by; 1 for a freshly built network.
        node_types / node_refs: per-node role and scheduler entity (what a
            :class:`~repro.flow.graph.Node` carries besides its supply).
        revision: identity of the :class:`FlowNetwork` snapshot this
            residual mirrors (used to validate delta patches).
    """

    def __init__(
        self,
        network: Optional[FlowNetwork] = None,
        flows: Optional[Mapping[Tuple[int, int], int]] = None,
        abort_check=None,
    ) -> None:
        """Build the residual network from a flow network.

        ``network`` is only read: its arcs' own ``flow`` values are ignored.
        Without one the residual starts empty (the mutators grow it).

        Args:
            network: The scheduling flow network.
            flows: Optional warm-start solution keyed by arc endpoints,
                possibly a previous round's: each arc's flow is clamped to
                its current capacity and loaded into the residual
                capacities, and the node excesses are reduced accordingly.
                Arcs it does not name start at zero flow, as every arc does
                without it (every source then carries its full supply as
                excess).  A negative flow raises ``ValueError``.
            abort_check: Optional cooperative cancellation hook polled every
                few hundred arcs during construction (the build is O(graph)
                with no other polling opportunity); returning True raises
                :class:`~repro.solvers.base.SolveAborted`.
        """
        nodes = list(network.nodes()) if network is not None else []
        self.node_ids: List[int] = [node.node_id for node in nodes]
        self.index: Dict[int, int] = {nid: i for i, nid in enumerate(self.node_ids)}
        self.num_nodes: int = len(self.node_ids)

        self.supply: List[int] = [node.supply for node in nodes]
        self.excess: List[int] = list(self.supply)
        self.node_types: List[NodeType] = [node.node_type for node in nodes]
        self.node_refs: List[object] = [node.ref for node in nodes]

        self.potential: List[int] = [0] * self.num_nodes
        self.node_alive: bytearray = bytearray(b"\x01" * self.num_nodes)
        self.current_arc: List[int] = [0] * self.num_nodes
        #: Per node, the entries of its adjacency list that are dead slots
        #: (removed arcs, until a compaction drops them): its live degree
        #: is ``len(adjacency[i]) - dead_entries[i]``.
        self.dead_entries: List[int] = [0] * self.num_nodes

        # Residual arcs: forward arc 2k pairs with backward arc 2k+1.
        self.arc_from: array = array("q")
        self.arc_to: array = array("q")
        self.arc_residual: array = array("q")
        self.arc_cost: array = array("q")
        self.adjacency: List[List[int]] = [[] for _ in range(self.num_nodes)]
        self.open_arcs: List[List[int]] = [[] for _ in range(self.num_nodes)]
        #: Set while the open-arc lists may disagree with ``arc_residual``
        #: (a loop wrote it directly): the mutators stop maintaining them,
        #: and :meth:`refresh_open_arcs` rebuilds them.
        self.open_arcs_stale: bool = False
        # Original arc endpoints for forward arcs, used to write flow back.
        # ``None`` marks a dead (removed) arc pair slot.
        self.forward_arc_keys: List[Optional[Tuple[int, int]]] = []
        # (src, dst) -> forward pair position, for O(1) delta patching.
        self.arc_position: Dict[Tuple[int, int], int] = {}

        self.cost_scale: int = 1
        #: Whether any arc may carry a negative cost (conservative: set on
        #: load/patch of a negative cost, only cleared by a compaction's
        #: full rescan).  A from-scratch solver with all-zero potentials
        #: skips its reduced-cost restoration scan when this is False.
        self.has_negative_costs: bool = False
        self.revision: Optional[int] = getattr(network, "revision", None)
        self.dead_arc_pairs: int = 0
        self.dead_nodes: int = 0
        #: Counters of the patch :meth:`take_dirty` last took (surfaced via
        #: ``SolverStatistics``).
        self.last_arcs_patched: int = 0
        self.last_nodes_touched: int = 0
        #: Node indices whose excess the mutators moved since the repair
        #: last consumed them.  A residual that was feasible before the
        #: patch can have a non-zero excess only there, so the repair
        #: collects its sources from this set.
        self.last_excess_moved: set = set()
        #: Forward pair positions whose capacity, cost or existence the
        #: mutators changed since :meth:`take_dirty` (only these can have
        #: acquired a negative reduced cost).
        self.pending_dirty: set = set()
        self._arcs_touched = 0
        self._nodes_touched = 0
        #: Number of patches taken (:meth:`take_dirty`) or dropped
        #: (:meth:`load_flows`) so far; lets a :class:`RetainedPotentials`
        #: view, or a solver retaining the residual, notice a later one.
        self.patches_applied: int = 0
        #: Arc keys whose extracted flow moved since
        #: :meth:`take_flow_changes` (``None``: nobody reads them).
        self.flow_changes: Optional[set] = None
        #: The mutators' change journal since :meth:`take_journal`
        #: (``None``: nobody reads it): each touched node id's supply at
        #: first touch, each touched arc key's ``(capacity, cost)`` at
        #: first touch, in original units (a solve may rescale the stored
        #: costs before the journal is read) -- or
        #: :data:`~repro.flow.changes.ADDED` /
        #: :data:`~repro.flow.changes.REMOVED`.  An entity
        #: added and removed in between leaves no entry.
        self.node_journal: Optional[Dict[int, object]] = None
        self.arc_journal: Optional[Dict[Tuple[int, int], object]] = None
        self._max_cost_cache: Optional[int] = None
        # Dirty-flow journal: forward pair positions whose flow changed since
        # the last extraction, plus a cache of the last extracted non-zero
        # flows.  A ``None`` journal means "not tracking" -- extraction then
        # scans all live arcs and (re)primes the journal, diffing against
        # the cache of the extraction before.  Mutation paths that bypass
        # :meth:`push` (the inlined hot loops of the scaling ladder) must call
        # :meth:`invalidate_flow_journal`.
        self._flow_journal: Optional[set] = None
        self._flows_cache: Optional[Dict[Tuple[int, int], int]] = None
        # Cost of the cached flows in stored (scaled) units, kept equal to
        # sum(cache[key] * arc_cost[forward(key)]) through every mutation
        # of either, so total_cost() is O(1) while the journal tracks.
        self._flow_cost: int = 0

        if network is None:
            return
        ops_until_check = CONSTRUCTION_CHECK_INTERVAL
        for arc in network.arcs():
            if abort_check is not None:
                ops_until_check -= 1
                if ops_until_check <= 0:
                    ops_until_check = CONSTRUCTION_CHECK_INTERVAL
                    if abort_check():
                        raise SolveAborted(
                            "residual construction cancelled by abort check"
                        )
            self.put_arc(arc.src, arc.dst, arc.capacity, arc.cost)
        # What the network holds is no patch for a repair to look at.
        self.pending_dirty = set()
        self._arcs_touched = 0
        if flows:
            self.load_flows(flows)

    # ------------------------------------------------------------------ #
    # Basic queries
    # ------------------------------------------------------------------ #
    @property
    def num_arcs(self) -> int:
        """Number of residual arc slots (twice the original arc pair slots)."""
        return len(self.arc_to)

    def reverse(self, arc_index: int) -> int:
        """Return the index of the reverse residual arc."""
        return arc_index ^ 1

    def is_forward(self, arc_index: int) -> bool:
        """Return True when the residual arc corresponds to an original arc."""
        return arc_index % 2 == 0

    def reduced_cost(self, arc_index: int) -> int:
        """Return the reduced cost of a residual arc under current potentials."""
        u = self.arc_from[arc_index]
        v = self.arc_to[arc_index]
        return self.arc_cost[arc_index] - self.potential[u] + self.potential[v]

    def push(self, arc_index: int, amount: int) -> None:
        """Push ``amount`` units of flow along a residual arc.

        Updates residual capacities of the arc and its reverse as well as the
        excesses of the endpoints, and the open-arc lists an arc leaves or
        joins.
        """
        if amount < 0:
            raise ValueError("push amount must be non-negative")
        if amount > self.arc_residual[arc_index]:
            raise ValueError(
                f"push of {amount} exceeds residual capacity "
                f"{self.arc_residual[arc_index]} on arc {arc_index}"
            )
        if not amount:
            return
        u = self.arc_from[arc_index]
        v = self.arc_to[arc_index]
        residual = self.arc_residual
        left = residual[arc_index] - amount
        residual[arc_index] = left
        opened = not residual[arc_index ^ 1]
        residual[arc_index ^ 1] += amount
        self.excess[u] -= amount
        self.excess[v] += amount
        if self._flow_journal is not None:
            self._flow_journal.add(arc_index >> 1)
        if not self.open_arcs_stale:
            if not left:
                arcs = self.open_arcs[u]
                del arcs[bisect_left(arcs, arc_index)]
            if opened:
                insort(self.open_arcs[v], arc_index ^ 1)

    def total_excess(self) -> int:
        """Return the sum of positive node excesses (remaining supply)."""
        return sum(e for e in self.excess if e > 0)

    def source_indices(self) -> List[int]:
        """Return node indices with positive excess."""
        return [i for i, e in enumerate(self.excess) if e > 0]

    def violated_arcs(self, epsilon: int = 0) -> Tuple[int, List[int]]:
        """Scan for epsilon-optimality violations under current potentials.

        Returns ``(worst, indices)``: the magnitude of the worst reduced
        cost below ``-epsilon`` on a residual arc with remaining capacity,
        and the indices of every such arc (empty when the stored
        potentials prove epsilon-optimality).  The index list is exactly
        the seed set the incremental (Dijkstra) price refine needs: by
        construction it covers every violated arc.
        """
        arc_residual = self.arc_residual
        arc_cost = self.arc_cost
        arc_from = self.arc_from
        arc_to = self.arc_to
        potential = self.potential
        worst = 0
        violated: List[int] = []
        for arc_index in range(len(arc_residual)):
            if arc_residual[arc_index] <= 0:
                continue
            rc = (
                arc_cost[arc_index]
                - potential[arc_from[arc_index]]
                + potential[arc_to[arc_index]]
            )
            if rc < -epsilon:
                violated.append(arc_index)
                if -rc > worst:
                    worst = -rc
        return worst, violated

    def max_cost(self) -> int:
        """Return an upper bound on the largest absolute arc cost (in the
        stored cost units).

        The value is cached and maintained through mutations: cost patches
        and arc additions raise it in O(1) when they exceed it, so a
        persistent residual never pays an O(arcs) rescan per round.  The
        bound is exact after a full scan or a compaction and can only
        overestimate when the arc that held the maximum is removed or its
        cost lowered -- every caller (relaxation's ascent guard, cost
        scaling's initial epsilon and potential bound) is safe under an
        upper bound.
        """
        if self._max_cost_cache is None:
            self._max_cost_cache = (
                max(abs(c) for c in self.arc_cost) if len(self.arc_cost) else 0
            )
        return self._max_cost_cache

    # ------------------------------------------------------------------ #
    # Cost scaling support
    # ------------------------------------------------------------------ #
    def scale_costs(self, multiplier: int) -> None:
        """Multiply every arc cost (and the stored scale) by ``multiplier``."""
        if multiplier == 1:
            return
        arc_cost = self.arc_cost
        for arc_index in range(len(arc_cost)):
            arc_cost[arc_index] *= multiplier
        self.cost_scale *= multiplier
        self._flow_cost *= multiplier
        if self._max_cost_cache is not None:
            self._max_cost_cache *= multiplier

    def reset_current_arcs(self) -> None:
        """Reset every node's current-arc cursor to the start of its list."""
        self.current_arc = [0] * self.num_nodes

    # ------------------------------------------------------------------ #
    # Delta patching: the mutators
    # ------------------------------------------------------------------ #
    # Each mutator patches the structure in place (costs in original units,
    # stored times :attr:`cost_scale`), keeps the carried flow where it stays
    # valid -- a capacity cut or a removed arc hands its flow back to the
    # endpoints as excess, for the repair to re-route -- and records what a
    # repair must look at: :attr:`pending_dirty` and
    # :attr:`last_excess_moved`.  A mutation that does not match the
    # structure raises ``ValueError`` / ``KeyError``.

    def add_node(
        self, node_id: int, supply: int = 0, node_type=NodeType.OTHER, ref=None
    ) -> None:
        """Add (or revive) a node; its supply becomes excess to route."""
        i = self.index.get(node_id)
        if i is None:
            i = self.index[node_id] = self.num_nodes
            self.node_ids.append(node_id)
            self.supply.append(supply)
            self.excess.append(supply)
            self.potential.append(0)
            self.node_alive.append(1)
            self.current_arc.append(0)
            self.dead_entries.append(0)
            self.adjacency.append([])
            self.open_arcs.append([])
            self.node_types.append(node_type)
            self.node_refs.append(ref)
            self.num_nodes += 1
        elif self.node_alive[i]:
            raise ValueError(f"node {node_id} already exists in the residual")
        else:
            self.node_alive[i] = 1
            self.dead_nodes -= 1
            self.supply[i] = supply
            self.excess[i] = supply
            self.potential[i] = 0
            self.current_arc[i] = 0
            self.node_types[i] = node_type
            self.node_refs[i] = ref
        self.last_excess_moved.add(i)
        self._nodes_touched += 1
        journal = self.node_journal
        if journal is not None and node_id not in journal:
            journal[node_id] = ADDED

    def remove_node(self, node_id: int) -> None:
        """Remove a node with its incident arcs (one walk of its adjacency:
        the arcs out of it, and via their reverse halves the arcs into it)."""
        i = self.index[node_id]
        if not self.node_alive[i]:
            raise ValueError(f"node {node_id} is already removed")
        keys = self.forward_arc_keys
        for arc_index in self.adjacency[i]:
            if keys[arc_index >> 1] is not None:
                self._remove_arc_pair(arc_index >> 1)
        # Retiring the node retires its supply; a consistent batch leaves the
        # node balanced once its arcs' flow has been returned.
        self.excess[i] -= self.supply[i]
        self.supply[i] = 0
        if self.excess[i] != 0:
            raise ValueError(
                f"node {node_id} still has excess {self.excess[i]} after removal; "
                "the change batch is inconsistent with the stored flow"
            )
        self.node_alive[i] = 0
        self.potential[i] = 0
        self.dead_nodes += 1
        self._nodes_touched += 1
        journal = self.node_journal
        if journal is not None:
            if journal.get(node_id) is ADDED:
                del journal[node_id]
            else:
                journal[node_id] = REMOVED

    def set_supply(self, node_id: int, supply: int) -> None:
        """Set a live node's supply; the difference becomes excess."""
        i = self.index[node_id]
        if not self.node_alive[i]:
            raise ValueError(f"supply change on removed node {node_id}")
        delta = supply - self.supply[i]
        if delta:
            journal = self.node_journal
            if journal is not None and node_id not in journal:
                journal[node_id] = self.supply[i]
            self.supply[i] = supply
            self.excess[i] += delta
            self.last_excess_moved.add(i)
            self._nodes_touched += 1

    def add_arc(self, src: int, dst: int, capacity: int, cost: int) -> None:
        """Add an arc (zero flow) between live nodes."""
        if (src, dst) in self.arc_position:
            raise ValueError(f"arc {src}->{dst} already exists in the residual")
        self.put_arc(src, dst, capacity, cost)

    def put_arc(self, src: int, dst: int, capacity: int, cost: int) -> None:
        """Make ``src -> dst`` an arc of ``capacity`` at ``cost``: patch what
        differs (capacity first, then cost), or add it (zero flow, between
        live nodes) -- what a graph update does with each arc a derivation
        emits, in one call."""
        key = (src, dst)
        position = self.arc_position.get(key)
        if position is not None:
            forward = 2 * position
            residual = self.arc_residual
            if residual[forward] + residual[forward + 1] != capacity:
                self.set_arc_capacity(src, dst, capacity)
            if self.arc_cost[forward] != cost * self.cost_scale:
                self.patch_cost(position, cost)
            return
        if capacity < 0:
            raise ValueError("arc capacity must be non-negative")
        u = self.index[src]
        v = self.index[dst]
        if not (self.node_alive[u] and self.node_alive[v]):
            raise ValueError(f"arc {src}->{dst} references a removed node")
        cost *= self.cost_scale
        # A forward/reverse pair of residual arcs, the flow zero.
        forward = len(self.arc_to)
        self.arc_from.append(u)
        self.arc_to.append(v)
        self.arc_residual.append(capacity)
        self.arc_cost.append(cost)
        self.adjacency[u].append(forward)
        if capacity and not self.open_arcs_stale:
            self.open_arcs[u].append(forward)  # the highest index yet
        self.arc_from.append(v)
        self.arc_to.append(u)
        self.arc_residual.append(0)
        self.arc_cost.append(-cost)
        self.adjacency[v].append(forward + 1)
        position = self.arc_position[key] = forward >> 1
        self.forward_arc_keys.append(key)
        self.pending_dirty.add(position)
        self._arcs_touched += 1
        journal = self.arc_journal
        if journal is not None and key not in journal:
            journal[key] = ADDED
        if cost < 0:
            self.has_negative_costs = True
            cost = -cost
        if self._max_cost_cache is not None and cost > self._max_cost_cache:
            self._max_cost_cache = cost

    def remove_arc(self, src: int, dst: int) -> None:
        """Remove an arc."""
        self._remove_arc_pair(self.arc_position[(src, dst)])
        self._arcs_touched += 1

    def set_arc_capacity(self, src: int, dst: int, capacity: int) -> None:
        """Change an arc's capacity."""
        key = (src, dst)
        position = self.arc_position[key]
        journal = self.arc_journal
        if journal is not None and key not in journal:
            forward = 2 * position
            journal[key] = (
                self.arc_residual[forward] + self.arc_residual[forward + 1],
                self.arc_cost[forward] // self.cost_scale,
            )
        self._patch_capacity(position, capacity)
        self.pending_dirty.add(position)
        self._arcs_touched += 1

    def patch_cost(self, position: int, cost: int) -> None:
        """Change the cost of the arc at a forward pair position."""
        forward = 2 * position
        journal = self.arc_journal
        if journal is not None:
            key = self.forward_arc_keys[position]
            if key not in journal:
                journal[key] = (
                    self.arc_residual[forward] + self.arc_residual[forward + 1],
                    self.arc_cost[forward] // self.cost_scale,
                )
        cost *= self.cost_scale
        if self._flows_cache is not None:
            carried = self._flows_cache.get(self.forward_arc_keys[position])
            if carried:
                self._flow_cost += carried * (cost - self.arc_cost[forward])
        self.arc_cost[forward] = cost
        self.arc_cost[forward + 1] = -cost
        self.pending_dirty.add(position)
        self._arcs_touched += 1
        if cost < 0:
            self.has_negative_costs = True
            cost = -cost
        if self._max_cost_cache is not None and cost > self._max_cost_cache:
            self._max_cost_cache = cost

    def prune_candidates(self) -> set:
        """The nodes the change journal names plus the endpoints of the
        arcs it records as removed: the only nodes that can have become
        isolated since it was taken."""
        candidates = set(self.node_journal)
        for key, origin in self.arc_journal.items():
            if origin is REMOVED:
                candidates.update(key)
        return candidates

    def take_journal(self) -> Tuple[Dict[int, object], Dict[Tuple[int, int], object]]:
        """Hand over the change journal (nodes, arcs) and start a new one."""
        taken = self.node_journal, self.arc_journal
        self.node_journal, self.arc_journal = {}, {}
        return taken

    def take_dirty(self) -> List[int]:
        """The forward pair positions whose capacity, cost or existence the
        mutators changed since the last call, sorted -- only these can have
        acquired a negative reduced cost -- and the patch's counters
        (:attr:`last_arcs_patched`, :attr:`last_nodes_touched`)."""
        dirty = sorted(self.pending_dirty)
        self.pending_dirty = set()
        self.last_arcs_patched, self._arcs_touched = self._arcs_touched, 0
        self.last_nodes_touched, self._nodes_touched = self._nodes_touched, 0
        self.patches_applied += 1
        return dirty

    def apply_changes(self, batch) -> List[int]:
        """Replay a change batch (any iterable of
        :class:`~repro.flow.changes.GraphChange`) through the mutators:
        how a holder of its own residual -- a worker's shadow, a dual
        executor's legs -- follows a graph it does not own.  Returns
        :meth:`take_dirty` of the batch."""
        from repro.flow import changes as ch

        self.maybe_compact()
        self.last_excess_moved = set()
        self.pending_dirty = set()
        for change in batch:
            kind = type(change)
            if kind is ch.ArcCostChange:
                self.patch_cost(self.arc_position[(change.src, change.dst)], change.new_cost)
            elif kind is ch.SupplyChange:
                node_id = change.node_id
                self.set_supply(node_id, self.supply[self.index[node_id]] + change.delta)
            elif kind is ch.ArcCapacityChange:
                self.set_arc_capacity(change.src, change.dst, change.new_capacity)
            elif kind is ch.ArcAddition:
                self.add_arc(change.src, change.dst, change.capacity, change.cost)
            elif kind is ch.ArcRemoval:
                self.remove_arc(change.src, change.dst)
            elif kind is ch.NodeAddition:
                if change.node_id is None:
                    raise ValueError("a NodeAddition needs an explicit node_id here")
                self.add_node(change.node_id, change.supply, change.node_type, change.ref)
                for dst, capacity, cost in change.arcs_out:
                    self.add_arc(change.node_id, dst, capacity, cost)
                for src, capacity, cost in change.arcs_in:
                    self.add_arc(src, change.node_id, capacity, cost)
            elif kind is ch.NodeRemoval:
                self.remove_node(change.node_id)
            else:
                raise ValueError(f"unsupported change type {kind.__name__}")
        return self.take_dirty()

    # ------------------------------------------------------------------ #
    # Graph reads (the graph manager's and the policies')
    # ------------------------------------------------------------------ #
    def has_node(self, node_id: int) -> bool:
        """Whether a live node has this identifier."""
        i = self.index.get(node_id)
        return i is not None and bool(self.node_alive[i])

    def arc_capacity(self, position: int) -> int:
        return self.arc_residual[2 * position] + self.arc_residual[2 * position + 1]

    def incident_keys(self, node_id: int, incoming: bool = False) -> List[Tuple[int, int]]:
        """``(src, dst)`` of a node's live outgoing (incoming) arcs, in the
        order they were added; none for an unknown or removed node."""
        i = self.index.get(node_id)
        found = []
        if i is None or not self.node_alive[i]:
            return found
        keys = self.forward_arc_keys
        for arc in self.adjacency[i]:
            if (arc & 1) == incoming and keys[arc >> 1] is not None:
                found.append(keys[arc >> 1])
        return found

    def is_isolated(self, node_id: int) -> bool:
        """Whether a node has no live incident arc (stops at the first)."""
        keys = self.forward_arc_keys
        for arc in self.adjacency[self.index[node_id]]:
            if keys[arc >> 1] is not None:
                return False
        return True

    def to_network(self) -> FlowNetwork:
        """The live nodes and arcs as a :class:`FlowNetwork`, with flows
        and revision (original cost units)."""
        network = FlowNetwork()
        for i, node_id in enumerate(self.node_ids):
            if self.node_alive[i]:
                network.add_node(
                    self.node_types[i], self.supply[i], ref=self.node_refs[i], node_id=node_id
                )
        for position, key in enumerate(self.forward_arc_keys):
            if key is not None:
                cost = self.arc_cost[2 * position] // self.cost_scale
                arc = network.add_arc(*key, self.arc_capacity(position), cost)
                arc.flow = self.arc_residual[2 * position + 1]
        network.revision = self.revision
        return network

    def _patch_capacity(self, position: int, new_capacity: int) -> None:
        forward = 2 * position
        flow = self.arc_residual[forward + 1]
        if new_capacity < flow:
            # Clamp the carried flow; the clamped-off units return to the
            # endpoints as excess/deficit for the repair step to re-route.
            returned = flow - new_capacity
            self._return_flow(forward, returned)
            flow = new_capacity
            self.arc_residual[forward + 1] = flow
            if self._flow_journal is not None:
                self._flow_journal.add(position)
            self._sync_open_arc(forward + 1)
        self.arc_residual[forward] = new_capacity - flow
        self._sync_open_arc(forward)

    def _sync_open_arc(self, arc_index: int) -> None:
        """Make ``arc_index``'s entry in its tail's open-arc list match its
        residual capacity (a no-op while the lists are stale)."""
        if self.open_arcs_stale:
            return
        arcs = self.open_arcs[self.arc_from[arc_index]]
        i = bisect_left(arcs, arc_index)
        listed = i < len(arcs) and arcs[i] == arc_index
        if self.arc_residual[arc_index] > 0:
            if not listed:
                arcs.insert(i, arc_index)
        elif listed:
            del arcs[i]

    def invalidate_open_arcs(self) -> None:
        """Mark the open-arc lists stale: called by any loop that writes
        ``arc_residual`` without going through :meth:`push` or the
        mutators.  The mutators then leave the lists alone until
        :meth:`refresh_open_arcs` rebuilds them."""
        self.open_arcs_stale = True

    def refresh_open_arcs(self) -> None:
        """Rebuild stale open-arc lists from ``arc_residual``: one pass over
        the adjacency, before a search walks them."""
        if self.open_arcs_stale:
            residual = self.arc_residual
            self.open_arcs = [
                [arc for arc in arcs if residual[arc] > 0] for arcs in self.adjacency
            ]
            self.open_arcs_stale = False

    def _return_flow(self, forward: int, amount: int) -> None:
        """Hand ``amount`` units carried by a forward arc back to its endpoints."""
        u = self.arc_from[forward]
        v = self.arc_to[forward]
        self.excess[u] += amount
        self.excess[v] -= amount
        self.last_excess_moved.add(u)
        self.last_excess_moved.add(v)

    def _remove_arc_pair(self, position: int) -> None:
        key = self.forward_arc_keys[position]
        if key is None:
            raise ValueError(f"arc pair {position} is already removed")
        forward = 2 * position
        flow = self.arc_residual[forward + 1]
        if flow:
            self._return_flow(forward, flow)
        # The slot dies: purge its cached flow (and that flow's cost) and
        # drop any pending journal entry -- the position no longer maps to a
        # live key.
        if self._flows_cache is not None:
            cached = self._flows_cache.pop(key, 0)
            self._flow_cost -= cached * self.arc_cost[forward]
        if self._flow_journal is not None:
            self._flow_journal.discard(position)
        # Dead slot: zero residual in both directions means no traversal ever
        # touches it again (it leaves the open-arc lists); zero cost keeps
        # the max-cost cache an upper bound.
        u, v = self.arc_from[forward], self.arc_to[forward]
        if not self.open_arcs_stale:
            if self.arc_residual[forward]:
                arcs = self.open_arcs[u]
                del arcs[bisect_left(arcs, forward)]
            if flow:
                arcs = self.open_arcs[v]
                del arcs[bisect_left(arcs, forward + 1)]
        self.arc_residual[forward] = 0
        self.arc_residual[forward + 1] = 0
        self.arc_cost[forward] = 0
        self.arc_cost[forward + 1] = 0
        self.forward_arc_keys[position] = None
        del self.arc_position[key]
        self.dead_arc_pairs += 1
        self.dead_entries[u] += 1
        self.dead_entries[v] += 1
        journal = self.arc_journal
        if journal is not None:
            if journal.get(key) is ADDED:
                del journal[key]
            else:
                journal[key] = REMOVED

    def maybe_compact(self) -> None:
        """Compact away dead slots once they dominate the arrays.

        Amortized O(1) per change: a compaction costs O(nodes + arcs) but
        only triggers after a proportional number of removals.
        """
        pairs = len(self.forward_arc_keys)
        if (self.dead_arc_pairs * 2 <= pairs or pairs < 64) and (
            self.dead_nodes * 2 <= self.num_nodes or self.num_nodes < 64
        ):
            return
        self.compact()

    def compact(self) -> None:
        """Rebuild the arrays without dead node/arc slots (same node ids).

        Pair positions and node indices are renumbered, so the pending
        journal entries and the pending patch are carried over through the
        same remap; the flows cache is keyed by arc endpoints and does not
        notice.  The round after a compaction therefore still repairs and
        extracts only what it changed.
        """
        keep = [i for i in range(self.num_nodes) if self.node_alive[i]]
        remap = {old: new for new, old in enumerate(keep)}
        self.node_ids = [self.node_ids[i] for i in keep]
        self.index = {nid: i for i, nid in enumerate(self.node_ids)}
        self.supply = [self.supply[i] for i in keep]
        self.excess = [self.excess[i] for i in keep]
        self.potential = [self.potential[i] for i in keep]
        self.node_types = [self.node_types[i] for i in keep]
        self.node_refs = [self.node_refs[i] for i in keep]
        self.last_excess_moved = {
            remap[i] for i in self.last_excess_moved if i in remap
        }
        self.num_nodes = len(keep)
        self.node_alive = bytearray(b"\x01" * self.num_nodes)
        self.current_arc = [0] * self.num_nodes
        self.adjacency = [[] for _ in range(self.num_nodes)]
        # Rebuilt exact from the residuals below, stale or not.
        self.open_arcs = [[] for _ in range(self.num_nodes)]
        self.open_arcs_stale = False
        self.dead_entries = [0] * self.num_nodes
        self.dead_nodes = 0

        old_residual = self.arc_residual
        old_cost = self.arc_cost
        old_from = self.arc_from
        old_to = self.arc_to
        old_keys = self.forward_arc_keys
        self.arc_from = array("q")
        self.arc_to = array("q")
        self.arc_residual = array("q")
        self.arc_cost = array("q")
        self.forward_arc_keys = []
        self.arc_position = {}
        self.dead_arc_pairs = 0
        # The full walk below makes the conservative negative-cost flag
        # exact again (the max-cost cache stays a valid upper bound).
        self.has_negative_costs = False
        for position, key in enumerate(old_keys):
            if key is None:
                continue
            forward = 2 * position
            if old_cost[forward] < 0:
                self.has_negative_costs = True
            u = remap[old_from[forward]]
            v = remap[old_to[forward]]
            new_position = len(self.forward_arc_keys)
            self.arc_from.append(u)
            self.arc_to.append(v)
            self.arc_residual.append(old_residual[forward])
            self.arc_cost.append(old_cost[forward])
            self.adjacency[u].append(2 * new_position)
            if old_residual[forward]:
                self.open_arcs[u].append(2 * new_position)
            self.arc_from.append(v)
            self.arc_to.append(u)
            self.arc_residual.append(old_residual[forward + 1])
            self.arc_cost.append(old_cost[forward + 1])
            self.adjacency[v].append(2 * new_position + 1)
            if old_residual[forward + 1]:
                self.open_arcs[v].append(2 * new_position + 1)
            self.forward_arc_keys.append(key)
            self.arc_position[key] = new_position
        arc_position = self.arc_position
        if self._flow_journal is not None:
            # Dead positions already left the journal with their arcs.
            self._flow_journal = {
                arc_position[old_keys[position]] for position in self._flow_journal
            }
        self.pending_dirty = {
            arc_position[old_keys[position]]
            for position in self.pending_dirty
            if old_keys[position] is not None
        }

    # ------------------------------------------------------------------ #
    # Potentials / warm start
    # ------------------------------------------------------------------ #
    def load_potentials(self, potentials: Mapping[int, int]) -> None:
        """Load node potentials keyed by original node identifiers."""
        for node_id, value in potentials.items():
            if node_id in self.index:
                self.potential[self.index[node_id]] = value

    def export_potentials(self) -> Dict[int, int]:
        """Export node potentials keyed by original node identifiers."""
        return {
            nid: self.potential[i]
            for nid, i in self.index.items()
            if self.node_alive[i]
        }

    # ------------------------------------------------------------------ #
    # Result extraction (dirty-flow journal)
    # ------------------------------------------------------------------ #
    def invalidate_flow_journal(self) -> None:
        """Stop O(changed) flow tracking; the next extraction scans all arcs.

        Must be called by any code path that mutates ``arc_residual``
        without going through :meth:`push` or the delta-patching helpers
        (the inlined discharge loops of the scaling ladder do this).  The
        last extraction's cache is kept: the scan that re-primes the
        journal diffs against it to tell which flows moved.
        """
        self._flow_journal = None

    @property
    def flow_journal_active(self) -> bool:
        """Whether extractions are currently served from the journal."""
        return self._flow_journal is not None and self._flows_cache is not None

    def _sync_flow_journal(self) -> Optional[Dict[Tuple[int, int], int]]:
        """Fold pending journal entries into the flows cache.

        Returns the up-to-date cache, or ``None`` when tracking is off.
        The arcs whose cached flow moved join :attr:`flow_changes`.
        """
        journal = self._flow_journal
        cache = self._flows_cache
        if journal is None or cache is None:
            return None
        if journal:
            arc_residual = self.arc_residual
            arc_cost = self.arc_cost
            keys = self.forward_arc_keys
            changes = self.flow_changes
            moved_cost = 0
            for position in journal:
                key = keys[position]
                if key is None:
                    continue
                flow = arc_residual[2 * position + 1]
                moved = flow - cache.get(key, 0)
                if not moved:
                    continue
                moved_cost += moved * arc_cost[2 * position]
                if flow:
                    cache[key] = flow
                else:
                    del cache[key]
                if changes is not None:
                    changes.add(key)
            self._flow_cost += moved_cost
            journal.clear()
        return cache

    def full_flows(self) -> Dict[Tuple[int, int], int]:
        """Extract the flow by scanning every live arc (journal bypass).

        The journal-equivalence tests compare this against :meth:`flows`;
        production code calls :meth:`flows`, which re-primes the journal
        from this scan whenever tracking was invalidated.
        """
        result: Dict[Tuple[int, int], int] = {}
        arc_residual = self.arc_residual
        for position, key in enumerate(self.forward_arc_keys):
            if key is None:
                continue
            flow = arc_residual[2 * position + 1]
            if flow:
                result[key] = flow
        return result

    def flows(self) -> Mapping[Tuple[int, int], int]:
        """Return the computed flow as a ``{(src, dst): flow}`` mapping.

        The mapping is a read-only view of the cache of non-zero flows this
        residual maintains -- nothing is copied -- so it shows the flow of
        the *latest* extraction: a reader that needs a round's flows after
        the residual has been solved again copies them (``dict(...)``)
        first.  With an active journal only the positions whose flow
        changed since the previous extraction are visited; without one, a
        full scan of the live arcs primes the cache, so a persistent
        residual's subsequent delta rounds are served incrementally.
        """
        cache = self._sync_flow_journal()
        if cache is None:
            previous = self._flows_cache or {}
            cache = self._flows_cache = self.full_flows()
            self._flow_journal = set()
            if self.flow_changes is not None:
                self.flow_changes.update(
                    key for key in previous.keys() | cache.keys()
                    if previous.get(key) != cache.get(key)
                )
            arc_cost = self.arc_cost
            arc_position = self.arc_position
            self._flow_cost = sum(
                flow * arc_cost[2 * arc_position[key]] for key, flow in cache.items()
            )
        return MappingProxyType(cache)

    def take_flow_changes(self) -> set:
        """The arc keys whose flow moved since the previous call (which
        starts :attr:`flow_changes` recording), up to the latest flow."""
        self.flows()
        changes = self.flow_changes or set()
        self.flow_changes = set()
        return changes

    def load_flows(self, flows: Mapping[Tuple[int, int], int]) -> None:
        """Make ``flows`` the residual's flow (clamped to capacity; arcs it
        does not name carry zero): a warm start's, or that of a solver that
        did not solve this residual.  Only the arcs whose flow moves are
        touched (found against the flows cache) and journaled; the pending
        patch is dropped, as nobody repairs it now."""
        current = dict(self.flows())
        residual = self.arc_residual
        for key in current.keys() | flows.keys():
            position = self.arc_position.get(key)
            if position is None:
                continue
            flow = flows.get(key, 0)
            if flow < 0:
                raise ValueError(f"arc {key[0]}->{key[1]} has negative flow {flow}")
            forward = 2 * position
            flow = min(flow, self.arc_capacity(position))
            moved = flow - residual[forward + 1]
            if moved:
                residual[forward] -= moved
                residual[forward + 1] = flow
                self.excess[self.arc_from[forward]] -= moved
                self.excess[self.arc_to[forward]] += moved
                self._flow_journal.add(position)
                self._sync_open_arc(forward)
                self._sync_open_arc(forward + 1)
        self.last_excess_moved = set()
        self.drop_patch()

    def drop_patch(self) -> None:
        """Forget the pending patch: nobody repairs it now (another
        solver's flow was loaded, or the round's change record was lost),
        so a solver that retained this residual must rebuild."""
        self.pending_dirty = set()
        self.patches_applied += 1

    def total_cost(self) -> int:
        """Return the total cost of the current flow (in original units).

        O(journaled arcs) while the journal tracks the flow: the cost is
        kept beside the flows cache (folded in with every journaled flow
        move, adjusted by cost patches and removals of flow-carrying arcs).
        Without a journal, the extraction that primes one sums it.
        """
        self.flows()
        return self._flow_cost // self.cost_scale

    # ------------------------------------------------------------------ #
    # Consistency checking (used by the delta-equivalence tests)
    # ------------------------------------------------------------------ #
    def consistency_errors(self, network: Optional[FlowNetwork] = None) -> List[str]:
        """Return discrepancies between this residual and ``network``.

        A delta-patched residual must be arc-for-arc equivalent to one
        freshly built from the updated flow network: same live nodes and
        supplies, same arcs with the same capacities and (unscaled) costs,
        and internally consistent cost/flow/excess bookkeeping -- open-arc
        lists included, unless they are marked stale.  Without a network
        only the internal bookkeeping is checked.
        """
        problems = [] if network is None else self.to_network().structurally_equal(network)
        if not self.open_arcs_stale:
            residual = self.arc_residual
            for i, arcs in enumerate(self.adjacency):
                expected = [arc for arc in arcs if residual[arc] > 0]
                if self.open_arcs[i] != expected:
                    problems.append(
                        f"node {self.node_ids[i]} open arcs {self.open_arcs[i]} != "
                        f"{expected}, its adjacency entries with residual capacity"
                    )
        balance = list(self.supply)  # excess = supply - outflow + inflow
        for position, key in enumerate(self.forward_arc_keys):
            if key is None:
                continue
            forward = 2 * position
            cost, flow = self.arc_cost[forward], self.arc_residual[forward + 1]
            if cost % self.cost_scale or self.arc_cost[forward + 1] != -cost:
                problems.append(f"arc {key} costs are not scaled negations")
            if self.arc_residual[forward] < 0 or flow < 0:
                problems.append(f"arc {key} has negative residual capacity")
            balance[self.arc_from[forward]] -= flow
            balance[self.arc_to[forward]] += flow
        for i in range(self.num_nodes):
            if self.node_alive[i] and balance[i] != self.excess[i]:
                problems.append(
                    f"node {self.node_ids[i]} excess {self.excess[i]} != "
                    f"supply-flow balance {balance[i]}"
                )
        return problems


class RetainedPotentials(MappingABC):
    """Unscaled node potentials of a retained residual, built on first read.

    A persistent solver returns this as ``SolverResult.potentials`` instead
    of paying an |nodes|-sized dict on every solve that almost no caller
    reads.  The values are those of the solve that created the view; a
    first read after the residual was patched for a later solve raises
    rather than return that later solve's potentials, so a reader that
    wants them past the round copies (``dict(view)``) before the next one.
    """

    def __init__(self, residual: ResidualNetwork) -> None:
        self._residual: Optional[ResidualNetwork] = residual
        self._patches = residual.patches_applied
        self._values: Optional[Dict[int, int]] = None

    def _read(self) -> Dict[int, int]:
        if self._values is None:
            residual = self._residual
            if residual.patches_applied != self._patches:
                raise RuntimeError(
                    "potentials of an earlier solve read after the retained "
                    "residual was patched again; copy them within the round"
                )
            scale = residual.cost_scale
            self._values = {
                node_id: value // scale
                for node_id, value in residual.export_potentials().items()
            }
            self._residual = None
        return self._values

    def __getitem__(self, node_id: int) -> int:
        return self._read()[node_id]

    def __iter__(self) -> Iterator[int]:
        return iter(self._read())

    def __len__(self) -> int:
        return len(self._read())


class FlowGraph:
    """A graph manager's flow network, held in one :class:`ResidualNetwork`.

    Its mutations patch :attr:`residual` in place and are journaled (a
    batch is :meth:`~repro.flow.changes.ChangeBatch.from_journal`, built
    only where one is read; residuals that only replay batches keep no
    journal), a solver that
    :attr:`~repro.solvers.base.Solver.solves_in_place` repairs that same
    residual, and the placements are read off its flow journal.  Counts
    have a network's meaning (live nodes and arcs); the rest of the
    :class:`FlowNetwork` interface (``nodes()``, ``arcs()``, ...) is a
    :class:`FlowNetwork` built for it, by name (:meth:`copy`) -- the
    interface of the oracles, DIMACS snapshots and tests, not of a round.
    """

    def __init__(self, revision: Optional[int] = None) -> None:
        self.residual = ResidualNetwork()
        self.residual.revision = revision
        self.residual.flow_changes = set()
        self.residual.take_journal()  # starts the change journal

    @property
    def revision(self) -> Optional[int]:
        return self.residual.revision

    @revision.setter
    def revision(self, value: Optional[int]) -> None:
        self.residual.revision = value

    @property
    def num_nodes(self) -> int:
        return self.residual.num_nodes - self.residual.dead_nodes

    @property
    def num_arcs(self) -> int:
        return len(self.residual.arc_position)

    def has_node(self, node_id: int) -> bool:
        return self.residual.has_node(node_id)

    def set_flows(self, flows: Mapping[Tuple[int, int], int]) -> None:
        """Make another solver's flow the graph's: a raced round's winner, a
        worker's answer (:meth:`ResidualNetwork.load_flows`)."""
        self.residual.load_flows(flows)

    def copy(self) -> FlowNetwork:
        """The graph as a :class:`FlowNetwork`: nodes, arcs, flows, revision."""
        return self.residual.to_network()
