"""Compact, persistent residual-network representation for the MCMF solvers.

The scheduler-facing :class:`~repro.flow.graph.FlowNetwork` is an object
graph optimized for incremental mutation by scheduling policies.  The
solvers instead operate on this array-based residual network: nodes are
renumbered ``0..n-1`` and every original arc is stored as a pair of directed
residual arcs (forward at an even index, its reverse at the following odd
index), so that the reverse of arc ``k`` is always ``k ^ 1``.

Arc attributes live in parallel ``array('q')`` columns (64-bit signed
integers) rather than Python lists of boxed ints, and per-node adjacency is
a flat list of arc indices with a *current-arc* cursor
(:attr:`ResidualNetwork.current_arc`) that cost scaling's discharge loop
uses to resume scanning where it left off.

Two features make the structure *persistent* across scheduling rounds
(paper, Section 5.2 -- solver work proportional to the change, not the
graph):

* :meth:`ResidualNetwork.apply_changes` patches the structure in place from
  a typed :class:`~repro.flow.changes.ChangeBatch` (supply, capacity, and
  cost changes, node/arc additions and removals) instead of requiring a
  rebuild from the :class:`FlowNetwork` object graph.  Removed arcs become
  *dead slots* (zero residual in both directions, never traversed); the
  arrays are compacted automatically once dead slots dominate.
* Costs may be held in scaled units between runs
  (:attr:`ResidualNetwork.cost_scale`), so an incremental cost-scaling
  solver can keep its exact scaled potentials without an O(arcs) rescale
  per round.

The representation also supports warm starts: an existing flow and set of
node potentials can be loaded so the incremental solvers resume from the
previous scheduling run's solution rather than from scratch.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping as MappingABC
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.flow.graph import FlowNetwork
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
        current_arc: per-node scan cursor into ``adjacency`` (the classic
            push/relabel current-arc heuristic; reset on relabel).
        excess / potential / supply: per-node integer columns.
        cost_scale: integer factor the stored ``arc_cost`` values (and
            potentials) are multiplied by; 1 for a freshly built network.
        revision: identity of the :class:`FlowNetwork` snapshot this
            residual mirrors (used to validate delta patches).
    """

    def __init__(
        self,
        network: FlowNetwork,
        use_existing_flow: bool = False,
        abort_check=None,
    ) -> None:
        """Build the residual network from a flow network.

        Args:
            network: The scheduling flow network.
            use_existing_flow: When True the arcs' current ``flow`` values are
                loaded into the residual capacities and the node excesses are
                reduced accordingly (warm start); otherwise flow starts at
                zero and every source node carries its full supply as excess.
            abort_check: Optional cooperative cancellation hook polled every
                few hundred arcs during construction (the build is O(graph)
                with no other polling opportunity); returning True raises
                :class:`~repro.solvers.base.SolveAborted`.
        """
        self.node_ids: List[int] = list(network.node_ids())
        self.index: Dict[int, int] = {nid: i for i, nid in enumerate(self.node_ids)}
        self.num_nodes: int = len(self.node_ids)

        self.supply: List[int] = [0] * self.num_nodes
        self.excess: List[int] = [0] * self.num_nodes
        for node in network.nodes():
            i = self.index[node.node_id]
            self.supply[i] = node.supply
            self.excess[i] = node.supply

        self.potential: List[int] = [0] * self.num_nodes
        self.node_alive: bytearray = bytearray(b"\x01" * self.num_nodes)
        self.current_arc: List[int] = [0] * self.num_nodes

        # Residual arcs: forward arc 2k pairs with backward arc 2k+1.
        self.arc_from: array = array("q")
        self.arc_to: array = array("q")
        self.arc_residual: array = array("q")
        self.arc_cost: array = array("q")
        self.adjacency: List[List[int]] = [[] for _ in range(self.num_nodes)]
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
        #: Change-application counters of the most recent
        #: :meth:`apply_changes` call (surfaced via ``SolverStatistics``).
        self.last_arcs_patched: int = 0
        self.last_nodes_touched: int = 0
        #: Node indices whose excess the most recent :meth:`apply_changes`
        #: moved.  A residual that was feasible before the patch can have a
        #: non-zero excess only there, so the repair collects its sources
        #: from this set instead of enumerating every node.
        self.last_excess_moved: set = set()
        #: Number of :meth:`apply_changes` calls so far; lets a
        #: :class:`RetainedPotentials` view notice it outlived its solve.
        self.patches_applied: int = 0
        self._max_cost_cache: Optional[int] = None
        # Dirty-flow journal: forward pair positions whose flow changed since
        # the last extraction, plus a cache of the last extracted non-zero
        # flows.  ``None`` means "not tracking" -- extraction then scans all
        # live arcs and (re)primes the journal.  Mutation paths that bypass
        # :meth:`push` (the inlined hot loops of the scaling ladder) must call
        # :meth:`invalidate_flow_journal`.
        self._flow_journal: Optional[set] = None
        self._flows_cache: Optional[Dict[Tuple[int, int], int]] = None
        # Cost of the cached flows in stored (scaled) units, kept equal to
        # sum(cache[key] * arc_cost[forward(key)]) through every mutation
        # of either, so total_cost() is O(1) while the journal tracks.
        self._flow_cost: int = 0
        # The token this residual left in ``FlowNetwork.flow_writer`` when it
        # last wrote a network; dropped as soon as journal entries are
        # folded away without having been written (see write_flow_back).
        self._write_token: Optional[object] = None

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
            u = self.index[arc.src]
            v = self.index[arc.dst]
            flow = arc.flow if use_existing_flow else 0
            if flow < 0 or flow > arc.capacity:
                raise ValueError(
                    f"arc {arc.src}->{arc.dst} has invalid warm-start flow {flow}"
                )
            position = self._add_arc_pair(u, v, arc.capacity, arc.cost, flow)
            if arc.cost < 0:
                self.has_negative_costs = True
            self.forward_arc_keys.append((arc.src, arc.dst))
            self.arc_position[(arc.src, arc.dst)] = position
            if use_existing_flow and flow:
                self.excess[u] -= flow
                self.excess[v] += flow

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def _add_arc_pair(self, u: int, v: int, capacity: int, cost: int, flow: int) -> int:
        """Append a forward/reverse arc pair; return the pair position."""
        forward_index = len(self.arc_to)
        self.arc_from.append(u)
        self.arc_to.append(v)
        self.arc_residual.append(capacity - flow)
        self.arc_cost.append(cost)
        self.adjacency[u].append(forward_index)

        self.arc_from.append(v)
        self.arc_to.append(u)
        self.arc_residual.append(flow)
        self.arc_cost.append(-cost)
        self.adjacency[v].append(forward_index + 1)
        return forward_index // 2

    def _add_node_slot(self, node_id: int, supply: int) -> int:
        """Append (or revive) a node slot for ``node_id``; return its index."""
        if node_id in self.index:
            i = self.index[node_id]
            if self.node_alive[i]:
                raise ValueError(f"node {node_id} already exists in the residual")
            self.node_alive[i] = 1
            self.dead_nodes -= 1
            self.supply[i] = supply
            self.excess[i] = supply
            self.potential[i] = 0
            self.current_arc[i] = 0
            self.last_excess_moved.add(i)
            return i
        i = self.num_nodes
        self.node_ids.append(node_id)
        self.index[node_id] = i
        self.supply.append(supply)
        self.excess.append(supply)
        self.potential.append(0)
        self.node_alive.append(1)
        self.current_arc.append(0)
        self.adjacency.append([])
        self.num_nodes += 1
        self.last_excess_moved.add(i)
        return i

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
        excesses of the endpoints.
        """
        if amount < 0:
            raise ValueError("push amount must be non-negative")
        if amount > self.arc_residual[arc_index]:
            raise ValueError(
                f"push of {amount} exceeds residual capacity "
                f"{self.arc_residual[arc_index]} on arc {arc_index}"
            )
        u = self.arc_from[arc_index]
        v = self.arc_to[arc_index]
        self.arc_residual[arc_index] -= amount
        self.arc_residual[arc_index ^ 1] += amount
        self.excess[u] -= amount
        self.excess[v] += amount
        if self._flow_journal is not None and amount:
            self._flow_journal.add(arc_index >> 1)

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

    def reset_to_zero_flow(self) -> None:
        """Return the residual to the zero-flow, zero-potential start state.

        From-scratch solvers that keep a *persistent* residual between
        rounds (the relaxation fast path) patch the structure with
        :meth:`apply_changes` and then reset the carried solution instead
        of rebuilding the whole object from the flow network: forward
        residuals return to the arcs' capacities, every node's excess
        returns to its supply, and potentials and scan cursors are zeroed.
        The reset is pure array arithmetic -- no dict rebuilds, no object
        traversal -- which is what makes reuse cheaper than reconstruction.

        The dirty-flow journal survives: every arc whose carried flow is
        being dropped is recorded as dirty, so a following solve still
        extracts its result in O(changed + non-zero) instead of O(arcs).
        """
        arc_residual = self.arc_residual
        journal = self._flow_journal
        for position, key in enumerate(self.forward_arc_keys):
            if key is None:
                continue
            forward = 2 * position
            flow = arc_residual[forward + 1]
            if flow:
                arc_residual[forward] += flow
                arc_residual[forward + 1] = 0
                if journal is not None:
                    journal.add(position)
        supply = self.supply
        excess = self.excess
        potential = self.potential
        node_alive = self.node_alive
        for i in range(self.num_nodes):
            excess[i] = supply[i] if node_alive[i] else 0
            potential[i] = 0
        self.reset_current_arcs()

    # ------------------------------------------------------------------ #
    # Delta patching
    # ------------------------------------------------------------------ #
    def apply_changes(self, batch) -> List[int]:
        """Patch the residual in place from a change batch.

        Accepts a :class:`~repro.flow.changes.ChangeBatch` (or any iterable
        of :class:`~repro.flow.changes.GraphChange` objects) whose costs are
        expressed in *original* (unscaled) units; they are multiplied by
        :attr:`cost_scale` on the way in, so a persistent scaled residual
        stays consistent.

        The previous flow is preserved where it remains valid: capacity
        reductions clamp the carried flow and return the difference to the
        endpoints' excesses, and removing an arc (or a node with its
        incident arcs) returns the arc's flow the same way.  The caller is
        responsible for re-routing the resulting excesses (that is the
        repair step of incremental cost scaling).

        Returns:
            Sorted list of *dirty* forward pair positions: arcs whose
            capacity, cost, or existence changed (including every arc
            incident to an added node).  Only these can have acquired a
            negative reduced cost, so optimality repair may restrict its
            violation scan to them.

        Raises:
            ValueError / KeyError: when the batch does not match the
                residual's current structure (e.g. patching an unknown arc).
        """
        from repro.flow import changes as ch

        self._maybe_compact()
        self.patches_applied += 1
        self.last_excess_moved = set()
        dirty: set = set()
        scale = self.cost_scale
        arcs_patched = 0
        nodes_touched = 0

        for change in batch:
            if isinstance(change, (ch.SupplyChange, ch.NodeAddition, ch.NodeRemoval)):
                nodes_touched += 1
            else:
                arcs_patched += 1
            if isinstance(change, ch.SupplyChange):
                i = self.index[change.node_id]
                if not self.node_alive[i]:
                    raise ValueError(f"supply change on removed node {change.node_id}")
                self.supply[i] += change.delta
                self.excess[i] += change.delta
                self.last_excess_moved.add(i)
            elif isinstance(change, ch.ArcCostChange):
                key = (change.src, change.dst)
                position = self.arc_position[key]
                cost = change.new_cost * scale
                if self._flows_cache is not None:
                    cached = self._flows_cache.get(key)
                    if cached:
                        self._flow_cost += cached * (cost - self.arc_cost[2 * position])
                self.arc_cost[2 * position] = cost
                self.arc_cost[2 * position + 1] = -cost
                dirty.add(position)
                if cost < 0:
                    self.has_negative_costs = True
                if self._max_cost_cache is not None:
                    scaled = cost if cost >= 0 else -cost
                    if scaled > self._max_cost_cache:
                        self._max_cost_cache = scaled
            elif isinstance(change, ch.ArcCapacityChange):
                position = self.arc_position[(change.src, change.dst)]
                self._patch_capacity(position, change.new_capacity)
                dirty.add(position)
            elif isinstance(change, ch.ArcAddition):
                dirty.add(
                    self._patch_add_arc(
                        change.src, change.dst, change.capacity, change.cost
                    )
                )
            elif isinstance(change, ch.ArcRemoval):
                position = self.arc_position[(change.src, change.dst)]
                self._remove_arc_pair(position)
            elif isinstance(change, ch.NodeAddition):
                if change.node_id is None:
                    raise ValueError(
                        "NodeAddition must carry an explicit node_id to be "
                        "applied to a residual network"
                    )
                self._add_node_slot(change.node_id, change.supply)
                for dst, capacity, cost in change.arcs_out:
                    dirty.add(self._patch_add_arc(change.node_id, dst, capacity, cost))
                for src, capacity, cost in change.arcs_in:
                    dirty.add(self._patch_add_arc(src, change.node_id, capacity, cost))
            elif isinstance(change, ch.NodeRemoval):
                self._patch_remove_node(change.node_id)
            else:
                raise ValueError(f"unsupported change type {type(change).__name__}")

        self.last_arcs_patched = arcs_patched
        self.last_nodes_touched = nodes_touched
        return sorted(dirty)

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
        self.arc_residual[forward] = new_capacity - flow

    def _return_flow(self, forward: int, amount: int) -> None:
        """Hand ``amount`` units carried by a forward arc back to its endpoints."""
        u = self.arc_from[forward]
        v = self.arc_to[forward]
        self.excess[u] += amount
        self.excess[v] -= amount
        self.last_excess_moved.add(u)
        self.last_excess_moved.add(v)

    def _patch_add_arc(self, src: int, dst: int, capacity: int, cost: int) -> int:
        key = (src, dst)
        if key in self.arc_position:
            raise ValueError(f"arc {src}->{dst} already exists in the residual")
        u = self.index[src]
        v = self.index[dst]
        if not (self.node_alive[u] and self.node_alive[v]):
            raise ValueError(f"arc {src}->{dst} references a removed node")
        position = self._add_arc_pair(u, v, capacity, cost * self.cost_scale, 0)
        if cost < 0:
            self.has_negative_costs = True
        self.forward_arc_keys.append(key)
        self.arc_position[key] = position
        if self._max_cost_cache is not None:
            scaled = abs(cost * self.cost_scale)
            if scaled > self._max_cost_cache:
                self._max_cost_cache = scaled
        return position

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
        # touches it again; zero cost keeps the max-cost cache an upper bound.
        self.arc_residual[forward] = 0
        self.arc_residual[forward + 1] = 0
        self.arc_cost[forward] = 0
        self.arc_cost[forward + 1] = 0
        self.forward_arc_keys[position] = None
        del self.arc_position[key]
        self.dead_arc_pairs += 1

    def _patch_remove_node(self, node_id: int) -> None:
        i = self.index[node_id]
        if not self.node_alive[i]:
            raise ValueError(f"node {node_id} is already removed")
        # Remove every live incident arc first (both the arcs out of the node
        # and, via their reverse halves in our adjacency, the arcs into it).
        for arc_index in self.adjacency[i]:
            position = arc_index >> 1
            if self.forward_arc_keys[position] is not None:
                self._remove_arc_pair(position)
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

    def _maybe_compact(self) -> None:
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

        Pair positions are renumbered, so the pending journal entries are
        carried over through the same remap; the flows cache is keyed by
        arc endpoints and does not notice.  The round after a compaction
        therefore still writes and extracts only what it changed.
        """
        keep = [i for i in range(self.num_nodes) if self.node_alive[i]]
        remap = {old: new for new, old in enumerate(keep)}
        self.node_ids = [self.node_ids[i] for i in keep]
        self.index = {nid: i for i, nid in enumerate(self.node_ids)}
        self.supply = [self.supply[i] for i in keep]
        self.excess = [self.excess[i] for i in keep]
        self.potential = [self.potential[i] for i in keep]
        self.num_nodes = len(keep)
        self.node_alive = bytearray(b"\x01" * self.num_nodes)
        self.current_arc = [0] * self.num_nodes
        self.adjacency = [[] for _ in range(self.num_nodes)]
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
            self.arc_from.append(v)
            self.arc_to.append(u)
            self.arc_residual.append(old_residual[forward + 1])
            self.arc_cost.append(old_cost[forward + 1])
            self.adjacency[v].append(2 * new_position + 1)
            self.forward_arc_keys.append(key)
            self.arc_position[key] = new_position
        if self._flow_journal is not None:
            # Dead positions already left the journal with their arcs.
            arc_position = self.arc_position
            self._flow_journal = {
                arc_position[old_keys[position]] for position in self._flow_journal
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
        (the inlined discharge loops of the scaling ladder do this).
        """
        self._flow_journal = None
        self._flows_cache = None

    @property
    def flow_journal_active(self) -> bool:
        """Whether extractions are currently served from the journal."""
        return self._flow_journal is not None and self._flows_cache is not None

    def _sync_flow_journal(
        self, written: bool = False
    ) -> Optional[Dict[Tuple[int, int], int]]:
        """Fold pending journal entries into the flows cache.

        Returns the up-to-date cache, or ``None`` when tracking is off.
        Entries folded away without having been ``written`` to the network
        end this residual's claim to be that network's exact last writer.
        """
        journal = self._flow_journal
        cache = self._flows_cache
        if journal is None or cache is None:
            return None
        if journal:
            if not written:
                self._write_token = None
            arc_residual = self.arc_residual
            arc_cost = self.arc_cost
            keys = self.forward_arc_keys
            moved_cost = 0
            for position in journal:
                key = keys[position]
                if key is None:
                    continue
                flow = arc_residual[2 * position + 1]
                moved_cost += (flow - cache.get(key, 0)) * arc_cost[2 * position]
                if flow:
                    cache[key] = flow
                else:
                    cache.pop(key, None)
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

    def write_flow_back(self, network: FlowNetwork) -> None:
        """Write the computed flow back onto the original network's arcs.

        When this residual was the last to write ``network`` and has
        journaled every flow it moved since (the steady state of a
        persistent solver on the graph manager's persistent network), the
        rest of the network already carries its flow: only the journaled
        arcs are written, O(changed), and the ones whose value moved are
        reported in :attr:`FlowNetwork.flow_changes`.  Any other write --
        a fresh residual, a network someone else wrote in between, an
        invalidated journal -- visits every live arc and leaves the
        changed set unknown.
        """
        arc_residual = self.arc_residual
        keys = self.forward_arc_keys
        find_arc = network.find_arc
        if (
            self.flow_journal_active
            and self._write_token is not None
            and network.flow_writer is self._write_token
        ):
            changed = network.flow_changes
            for position in self._flow_journal:
                key = keys[position]
                arc = find_arc(*key) if key is not None else None
                if arc is None:
                    continue
                flow = arc_residual[2 * position + 1]
                if arc.flow != flow:
                    arc.flow = flow
                    if changed is not None:
                        changed.add(key)
        else:
            for position, key in enumerate(keys):
                arc = find_arc(*key) if key is not None else None
                if arc is not None:
                    arc.flow = arc_residual[2 * position + 1]
            network.forget_flow_changes()
            self._write_token = network.flow_writer = object()
        self._sync_flow_journal(written=True)

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
            cache = self._flows_cache = self.full_flows()
            self._flow_journal = set()
            arc_cost = self.arc_cost
            arc_position = self.arc_position
            self._flow_cost = sum(
                flow * arc_cost[2 * arc_position[key]] for key, flow in cache.items()
            )
        return MappingProxyType(cache)

    def total_cost(self) -> int:
        """Return the total cost of the current flow (in original units).

        O(journaled arcs) while the journal tracks the flow: the cost is
        kept beside the flows cache (folded in with every journaled flow
        move, adjusted by cost patches and removals of flow-carrying arcs).
        Summed over every live arc otherwise.
        """
        if self._sync_flow_journal() is not None:
            return self._flow_cost // self.cost_scale
        total = 0
        arc_cost = self.arc_cost
        arc_residual = self.arc_residual
        for position, key in enumerate(self.forward_arc_keys):
            if key is None:
                continue
            flow = arc_residual[2 * position + 1]
            if flow:
                total += flow * arc_cost[2 * position]
        return total // self.cost_scale

    # ------------------------------------------------------------------ #
    # Consistency checking (used by the delta-equivalence tests)
    # ------------------------------------------------------------------ #
    def consistency_errors(self, network: FlowNetwork) -> List[str]:
        """Return discrepancies between this residual and ``network``.

        A delta-patched residual must be arc-for-arc equivalent to one
        freshly built from the updated flow network: same live node set and
        supplies, same arcs with the same capacities and (unscaled) costs,
        and internally consistent flow/excess bookkeeping.
        """
        problems: List[str] = []
        live_ids = {nid for nid, i in self.index.items() if self.node_alive[i]}
        network_ids = set(network.node_ids())
        if live_ids != network_ids:
            problems.append(
                f"node sets differ: residual-only {sorted(live_ids - network_ids)}, "
                f"network-only {sorted(network_ids - live_ids)}"
            )
        for nid in live_ids & network_ids:
            if self.supply[self.index[nid]] != network.node(nid).supply:
                problems.append(
                    f"node {nid} supply {self.supply[self.index[nid]]} != "
                    f"network supply {network.node(nid).supply}"
                )
        network_keys = {arc.key() for arc in network.arcs()}
        if set(self.arc_position) != network_keys:
            problems.append(
                f"arc sets differ: residual-only "
                f"{sorted(set(self.arc_position) - network_keys)}, network-only "
                f"{sorted(network_keys - set(self.arc_position))}"
            )
        for key, position in self.arc_position.items():
            if key not in network_keys:
                continue
            arc = network.arc(*key)
            forward = 2 * position
            capacity = self.arc_residual[forward] + self.arc_residual[forward + 1]
            if capacity != arc.capacity:
                problems.append(
                    f"arc {key} capacity {capacity} != network {arc.capacity}"
                )
            if self.arc_cost[forward] != arc.cost * self.cost_scale:
                problems.append(
                    f"arc {key} cost {self.arc_cost[forward]} != scaled network "
                    f"cost {arc.cost * self.cost_scale}"
                )
            if self.arc_cost[forward + 1] != -self.arc_cost[forward]:
                problems.append(f"arc {key} reverse cost is not the negation")
            if self.arc_residual[forward] < 0 or self.arc_residual[forward + 1] < 0:
                problems.append(f"arc {key} has negative residual capacity")
        # Excess bookkeeping: excess = supply - outflow + inflow.
        balance = list(self.supply)
        for position, key in enumerate(self.forward_arc_keys):
            if key is None:
                continue
            flow = self.arc_residual[2 * position + 1]
            if flow:
                balance[self.arc_from[2 * position]] -= flow
                balance[self.arc_to[2 * position]] += flow
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
