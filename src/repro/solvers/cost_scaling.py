"""Cost scaling MCMF algorithm (Goldberg-Tarjan), as used by Quincy.

Cost scaling maintains a feasible flow at all times and iteratively tightens
a relaxed complementary-slackness condition called *epsilon-optimality*: a
flow is epsilon-optimal when no residual arc has reduced cost below
``-epsilon``.  Each phase divides epsilon by a constant *alpha* factor and
re-establishes epsilon-optimality with push/relabel operations; once
epsilon drops below ``1/n`` the flow is optimal.

This implementation includes the two features the paper relies on:

* the tunable **alpha factor** (the paper finds alpha = 9 is ~30 % faster
  than cs2's default of 2 on scheduling graphs, Section 7.2), and
* the **price refine** heuristic (:func:`price_refine`), used in Section 6.2
  to convert the potentials left behind by a relaxation run into potentials
  that satisfy complementary slackness, so that a following incremental cost
  scaling run can start from a small epsilon.

Performance architecture
========================

The solver is the hottest code in the repository, so its inner loops avoid
every avoidable indirection:

* The push/relabel *discharge* loop (:meth:`CostScalingSolver._refine`)
  keeps a **current-arc cursor** per node
  (:attr:`~repro.solvers.residual.ResidualNetwork.current_arc`): a
  discharge resumes scanning the adjacency list where the previous one
  stopped instead of restarting at the front.  The cursor is only reset
  when the node is relabeled, which is exactly when previously scanned
  arcs can become admissible again (a relabel of ``u`` is the only event
  that lowers the reduced cost of ``u``'s outgoing arcs; pushes and other
  nodes' relabels only raise them).
* Reduced costs are computed **inline** from local aliases of the arc
  arrays (``arc_cost[a] - pot_u + potential[arc_to[a]]``); no method call
  or attribute lookup happens per scanned arc.
* Price refine comes in two variants selected by the solver's
  ``price_refine`` mode (``"spfa"``, ``"dijkstra"``, or ``"auto"``):
  :func:`price_refine_spfa` runs a deque-based label-correcting sweep
  (SLF-ordered SPFA) over the residual adjacency instead of a dense
  ``n``-pass Bellman-Ford, while :func:`price_refine_dijkstra` runs a
  best-first (binary-heap) correction pass *seeded from the current
  potentials*: only arcs whose reduced cost is negative enter the heap, and
  labels propagate with set-once semantics wherever reduced costs are
  non-negative -- which is everywhere except the violated arcs themselves.
  Seeding makes the Dijkstra variant **incremental**: a warm rebuild that
  carries the previous round's potentials repairs labels only around the
  arcs the round's changes violated instead of relabeling the whole
  network from scratch.
* ``max_cost`` / epsilon bounds read the residual network's **cached**
  maximum cost rather than rescanning every arc each phase.
* The delta repair's shortest-path searches walk each node's **open arcs**
  (:attr:`~repro.solvers.residual.ResidualNetwork.open_arcs`, its
  adjacency entries with residual capacity, in order) instead of its whole
  adjacency: a hub such as the cluster aggregator costs the few arcs that
  can carry flow out of it, not one entry per task with an arc into it.

Incremental (delta) solving
===========================

Beyond warm starts from a previous solution (:meth:`solve_warm`), the
solver supports the fully incremental path of the paper's Section 5.2:
:meth:`solve_delta` takes a *persistent* residual network left behind by
the previous run (still in scaled cost units, with exact potentials that
prove the previous optimum) and a typed
:class:`~repro.flow.changes.ChangeBatch`.  The batch is patched into the
residual in place -- O(|changes|) -- and only the patched ("dirty") arcs
can violate reduced-cost optimality, so the repair saturates those and
re-routes the resulting excesses along shortest reduced-cost paths.
Per-round work is therefore proportional to the size of the change and the
repair paths, never to the graph.

The persistence contract: a residual handed to :meth:`solve_delta` must be
**0-optimal** (no residual arc with negative reduced cost).  Solves that
finish through the epsilon ladder only guarantee 1-optimality in scaled
units, so a solver created with ``polish_potentials=True`` runs price
refine once at the end of such runs to restore exact potentials before the
residual is retained.
"""

from __future__ import annotations

import math
import time
from collections import deque
from heapq import heappop, heappush
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.flow.changes import ChangeBatch
from repro.flow.graph import FlowNetwork
from repro.flow.validation import check_residual_epsilon_optimality
from repro.solvers.base import (
    InfeasibleProblemError,
    SolveAborted,
    Solver,
    SolverResult,
    SolverStatistics,
)
from repro.solvers.residual import FlowGraph, ResidualNetwork, RetainedPotentials

#: Default alpha scaling factor used by Goldberg's cs2 solver (and Quincy).
DEFAULT_ALPHA = 2

#: Alpha factor the paper found best for scheduling graphs (Section 7.2).
TUNED_ALPHA = 9

#: How many discharge/augment operations run between two calls of the
#: cooperative abort check.  Each check is one pipe poll (a syscall); at this
#: granularity the overhead is far below 1 % of the hot-loop work while the
#: cancellation latency stays in the sub-millisecond range.
ABORT_CHECK_INTERVAL = 2048

#: Finer check interval for price refine's label-correcting sweep, whose
#: per-operation cost is a couple of microseconds: ~0.5 ms of cancellation
#: latency at ~1 % polling overhead.
PRICE_REFINE_CHECK_INTERVAL = 256

#: Price-refine variants accepted by the solvers and the CLI.  ``"auto"``
#: picks per call: the Dijkstra variant when a bounded violation set seeds
#: the refine (incremental mode), the deque sweep for full recomputations.
PRICE_REFINE_MODES = ("spfa", "dijkstra", "auto")

#: Heap-settle budget of *seeded* Dijkstra refines, as a multiple of the
#: seed (violated-arc) count with a floor for tiny seed sets.  Successful
#: incremental repairs settle roughly one label per violated arc, while a
#: residual that harbours a negative cycle grinds labels down until the
#: walk-length bound fires.  Both seeded call sites fall back to the
#: optimality repair on False, which is correct for any violation, so
#: giving up early only trades refine time for repair time instead of
#: burning it on cycle detection.
SEEDED_REFINE_POP_BUDGET_FACTOR = 4
SEEDED_REFINE_POP_BUDGET_FLOOR = 256

#: Under ``"auto"``, a seeded refine only uses the Dijkstra variant while
#: the violated arcs number at most ``max(floor, nodes / divisor)``.  Few
#: violations mean a local repair (a handful of set-once settles); a
#: violation count approaching the node count means the seed potentials
#: are globally stale, repair propagation goes wide, heap reinsertion
#: churn replaces the set-once behaviour, and the canonical SPFA sweep
#: recomputes from scratch faster.  (An unseeded full refine always takes
#: the sweep: without usable potentials most arc weights are negative,
#: which strips the heap of its set-once guarantee on every label.)
AUTO_SEED_MAX_VIOLATION_FLOOR = 32
AUTO_SEED_NODE_DIVISOR = 8

#: A delta repair routes its sources in waves while this many hold excess,
#: if its first search walked this many live adjacency entries (crossed a
#: hub): the crossovers ``benchmarks/bench_wave_crossover.py`` measures.
WAVE_MIN_SOURCES = 8
WAVE_MIN_WALK = 256


def price_refine_spfa(residual: ResidualNetwork, abort_check=None, stats=None) -> bool:
    """Recompute node potentials that prove optimality of the current flow.

    Runs a deque-based label-correcting sweep (SPFA) over the residual
    network: all nodes start at distance zero, modelling a virtual source
    connected to every node with zero-cost arcs, and labels are corrected
    along residual arcs until a fixpoint.  If the residual network has no
    negative-cost cycle -- which holds whenever the current flow is
    optimal, e.g. when it was produced by a relaxation run -- the negated
    distances are valid potentials under which no residual arc has negative
    reduced cost.

    Compared to the textbook dense Bellman-Ford (n passes over every arc),
    the sweep only revisits nodes whose label actually improved, which on
    scheduling graphs converges after a few sparse passes.

    Args:
        residual: The residual network whose potentials to recompute.
        abort_check: Optional cooperative cancellation hook, polled every
            :data:`PRICE_REFINE_CHECK_INTERVAL` dequeued labels; returning
            True raises :class:`~repro.solvers.base.SolveAborted`.  Price
            refine dominates the warm-start path's runtime, so a hard
            deadline that cannot cancel it would fire tens of milliseconds
            late.
        stats: Optional :class:`~repro.solvers.base.SolverStatistics`;
            dequeued labels are accumulated into ``price_refine_passes``.

    Returns:
        True when new potentials were installed (flow was optimal), False
        when a negative cycle makes the current flow non-optimal, in which
        case the potentials are left untouched.
    """
    n = residual.num_nodes
    if n == 0:
        return True
    adjacency = residual.adjacency
    arc_residual = residual.arc_residual
    arc_cost = residual.arc_cost
    arc_to = residual.arc_to

    dist = [0] * n
    queue = deque(range(n))
    in_queue = bytearray(b"\x01" * n)
    # Edge count of the walk realizing each label: without a negative cycle
    # every improving walk is simple (at most n edges counting the virtual
    # source hop), so a longer walk proves a negative cycle.  This triggers
    # after O(cycle) relaxations instead of the O(n * m) an enqueue-count
    # bound needs.
    hops = [0] * n

    pops = 0
    ops_until_check = PRICE_REFINE_CHECK_INTERVAL
    while queue:
        if abort_check is not None:
            ops_until_check -= 1
            if ops_until_check <= 0:
                ops_until_check = PRICE_REFINE_CHECK_INTERVAL
                if abort_check():
                    raise SolveAborted("price refine cancelled by abort check")
        u = queue.popleft()
        pops += 1
        in_queue[u] = 0
        du = dist[u]
        hu = hops[u]
        for a in adjacency[u]:
            if arc_residual[a] <= 0:
                continue
            v = arc_to[a]
            nd = du + arc_cost[a]
            if nd < dist[v]:
                dist[v] = nd
                hops[v] = hu + 1
                if hops[v] > n:
                    if stats is not None:
                        stats.price_refine_passes += pops
                    return False
                if not in_queue[v]:
                    # Smallest-label-first: process promising labels before
                    # stale large ones.  Plain FIFO SPFA degenerates to
                    # near O(n * m) label churn on the post-seed residuals
                    # of large accelerated-trace rounds (tens of millions
                    # of corrections); SLF keeps the sweep near-linear.
                    if queue and nd <= dist[queue[0]]:
                        queue.appendleft(v)
                    else:
                        queue.append(v)
                    in_queue[v] = 1
    potential = residual.potential
    for i in range(n):
        potential[i] = -dist[i]
    if stats is not None:
        stats.price_refine_passes += pops
    return True


#: Backwards-compatible name: the SPFA sweep was the only price refine
#: before the Dijkstra variant landed, exported as plain ``price_refine``.
price_refine = price_refine_spfa


def price_refine_dijkstra(
    residual: ResidualNetwork,
    abort_check=None,
    seed_arcs: Optional[Iterable[int]] = None,
    stats=None,
    max_pops: Optional[int] = None,
) -> bool:
    """Repair the *current* potentials into optimality-proving ones.

    Where :func:`price_refine_spfa` discards the stored potentials and
    recomputes canonical ones from scratch, this variant treats them as a
    starting point: it seeks per-node corrections ``h <= 0`` such that
    ``potential + h`` leaves no residual arc with negative reduced cost.
    The corrections satisfy the difference constraints ``h(u) <= h(v) +
    reduced_cost(u, v)`` over residual arcs, solved as a shortest-path
    fixpoint with a binary heap: only the *violated* arcs (negative reduced
    cost under the current potentials) seed the heap, and every label
    settles permanently on the first pop wherever reduced costs are
    non-negative -- which, for an epsilon-optimal residual, is everywhere
    except the violated arcs themselves.  A residual that is already
    0-optimal therefore costs one scan and zero heap operations, and a
    residual violated only around a change batch's patched arcs repairs
    labels only in the region those arcs can reach -- the incremental
    refine mode.

    Args:
        residual: The residual network whose potentials to repair.
        abort_check: Cooperative cancellation hook, polled every
            :data:`PRICE_REFINE_CHECK_INTERVAL` operations.
        seed_arcs: Optional iterable of residual arc indices to restrict
            the violation scan to.  Callers that know which arcs changed
            (delta patches, a just-computed violation scan) pass them so
            the refine never touches the rest of the graph; ``None`` scans
            every residual arc.  Correctness requires every violated arc to
            be covered by the seeds.
        stats: Optional :class:`~repro.solvers.base.SolverStatistics`;
            heap settles are accumulated into ``price_refine_passes``.
        max_pops: Optional give-up budget on heap settles.  A successful
            incremental repair settles roughly one label per violated arc;
            a run far beyond that is almost certainly grinding toward the
            walk-length bound around a negative cycle, and a caller whose
            False-path (optimality repair) is correct for *any* violation
            can bail out much earlier than cycle detection proper.  Do not
            set it where False is treated as proof of non-optimality.

    Returns:
        True when corrected potentials were installed (flow optimal),
        False when a negative residual cycle exists -- labels on such a
        cycle decrease forever, detected by the same walk-length bound the
        SPFA sweep uses -- or the ``max_pops`` budget ran out; either way
        the potentials are left untouched.
    """
    n = residual.num_nodes
    if n == 0:
        return True
    adjacency = residual.adjacency
    arc_residual = residual.arc_residual
    arc_cost = residual.arc_cost
    arc_to = residual.arc_to
    arc_from = residual.arc_from
    potential = residual.potential

    h = [0] * n
    hops = [0] * n
    heap: List[Tuple[int, int]] = []
    pops = 0

    if seed_arcs is None:
        seed_arcs = range(len(arc_residual))
    ops_until_check = PRICE_REFINE_CHECK_INTERVAL
    for a in seed_arcs:
        if abort_check is not None:
            ops_until_check -= 1
            if ops_until_check <= 0:
                ops_until_check = PRICE_REFINE_CHECK_INTERVAL
                if abort_check():
                    raise SolveAborted("price refine cancelled by abort check")
        if arc_residual[a] <= 0:
            continue
        u = arc_from[a]
        cand = h[arc_to[a]] + arc_cost[a] - potential[u] + potential[arc_to[a]]
        if cand < h[u]:
            h[u] = cand
            hops[u] = hops[arc_to[a]] + 1
            heappush(heap, (cand, u))

    while heap:
        if abort_check is not None:
            ops_until_check -= 1
            if ops_until_check <= 0:
                ops_until_check = PRICE_REFINE_CHECK_INTERVAL
                if abort_check():
                    raise SolveAborted("price refine cancelled by abort check")
        d, x = heappop(heap)
        if d > h[x]:
            continue  # stale heap entry; a smaller label was pushed later
        pops += 1
        if max_pops is not None and pops > max_pops:
            if stats is not None:
                stats.price_refine_passes += pops
            return False
        hx = hops[x]
        px = potential[x]
        # A settled (lowered) label at x tightens the constraints of the
        # residual arcs *into* x: for each incoming arc (t, x) -- the
        # reverse half of an arc in x's adjacency -- the tail's correction
        # must obey h(t) <= h(x) + reduced_cost(t, x).
        for a in adjacency[x]:
            ra = a ^ 1
            if arc_residual[ra] <= 0:
                continue
            t = arc_to[a]
            cand = d + arc_cost[ra] - potential[t] + px
            if cand < h[t]:
                h[t] = cand
                nh = hx + 1
                hops[t] = nh
                if nh > n:
                    if stats is not None:
                        stats.price_refine_passes += pops
                    return False
                heappush(heap, (cand, t))

    for i in range(n):
        if h[i]:
            potential[i] += h[i]
    if stats is not None:
        stats.price_refine_passes += pops
    return True


class CostScalingSolver(Solver):
    """Goldberg-Tarjan cost scaling (push/relabel with epsilon scaling)."""

    name = "cost_scaling"

    def __init__(
        self,
        alpha: int = DEFAULT_ALPHA,
        max_phases: Optional[int] = None,
        polish_potentials: bool = False,
        price_refine: str = "auto",
    ) -> None:
        """Create the solver.

        Args:
            alpha: Epsilon division factor between scaling phases (>= 2).
            max_phases: Optional limit on the number of scaling phases; used
                by the approximate-solution experiment (Figure 10).  ``None``
                runs to optimality.
            polish_potentials: Run price refine after solves that finish
                through the epsilon ladder, so the residual network is left
                0-optimal and can be retained for delta solving.  Off by
                default (a plain Quincy-style solver does not pay for it).
            price_refine: Price-refine variant (:data:`PRICE_REFINE_MODES`):
                ``"spfa"`` always runs the deque-based label-correcting
                sweep, ``"dijkstra"`` the heap-based incremental repair,
                and ``"auto"`` (default) picks per call -- Dijkstra when a
                seeded violation set is small relative to the graph
                (at most ``max(32, nodes / 8)`` violated arcs), the SPFA
                sweep for widely-violated potentials and for unseeded
                full recomputations.
        """
        if alpha < 2:
            raise ValueError("alpha must be at least 2")
        if price_refine not in PRICE_REFINE_MODES:
            raise ValueError(
                f"unknown price refine mode {price_refine!r}; "
                f"choose from {PRICE_REFINE_MODES}"
            )
        self.alpha = alpha
        self.max_phases = max_phases
        self.polish_potentials = polish_potentials
        self.price_refine = price_refine
        #: Optional cooperative cancellation hook: a zero-argument callable
        #: polled every :data:`ABORT_CHECK_INTERVAL` operations inside the
        #: long-running loops.  Returning True raises
        #: :class:`~repro.solvers.base.SolveAborted`, cancelling the run
        #: (a round deadline's hard expiry aborts a delta repair through
        #: it).  ``None`` (the default) adds no per-operation work.
        self.abort_check: Optional[callable] = None
        #: Exact scaled potentials of the most recent run, for warm starts.
        #: ``None`` while the run's residual is retained (they live there;
        #: :meth:`release_residual` materialises them).
        self.last_scaled_potentials: Optional[Dict[int, int]] = None
        self.last_scale: Optional[int] = None
        #: The residual network of the most recent run, retained in scaled
        #: cost units for :meth:`solve_delta` (None until the first solve).
        self.last_residual: Optional[ResidualNetwork] = None
        #: Optional soft-deadline hook: a zero-argument callable polled at
        #: epsilon-phase boundaries.  Returning True stops the scaling
        #: ladder at the *current* coarser epsilon instead of running to
        #: epsilon = 1: the flow stays feasible and epsilon-optimal (the
        #: paper's fig10 approximation), the result is flagged
        #: ``optimal=False``, and :attr:`last_degradation` records the
        #: epsilon together with an inline
        #: ``check_residual_epsilon_optimality`` validation.  ``None`` (the
        #: default) adds no per-phase work.
        self.deadline_check: Optional[callable] = None
        #: Details of the most recent deadline-truncated ladder:
        #: ``{"epsilon": int, "validated": bool, "problems": [...]}``;
        #: None when the last run finished its ladder (or never ran one).
        self.last_degradation: Optional[Dict] = None
        #: Optional instrumentation hook called as ``hook(residual,
        #: "augment")`` after every augmentation of the repair (the same
        #: contract as :attr:`RelaxationSolver.invariant_hook`): the
        #: directed bound test installs one to assert 0-optimality between
        #: the augmentations of a multi-source repair.  ``None`` (the
        #: default) costs one predicate check per augmentation.
        self.invariant_hook = None
        # Scratch columns of the repair's shortest-path searches, shared by
        # every augmentation and validated by a stamp instead of being
        # reallocated (three n-sized lists per augmentation otherwise).
        self._search_mark: List[int] = []
        self._search_dist: List[int] = []
        self._search_pred: List[int] = []
        self._search_stamp: int = 0

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def solve(self, network: FlowNetwork, write_back: bool = True) -> SolverResult:
        """Compute a min-cost max-flow from scratch.

        ``write_back=False`` leaves ``network``'s arcs alone (a dual
        executor writes the round's winning flows itself); the same flag
        exists on :meth:`solve_warm` and :meth:`solve_delta`.  A solver
        that :attr:`solves_in_place` solves a :class:`FlowGraph`'s own
        residual, from zero flow and potentials, and leaves the result
        there.
        """
        start = time.perf_counter()
        self.last_degradation = None
        residual = self._in_place(network)
        if residual is not None:
            residual.load_flows({})
            residual.potential = [0] * residual.num_nodes
        else:
            residual = ResidualNetwork(network, abort_check=self.abort_check)
        stats = SolverStatistics()
        # At least n + 1 (a residual solved before may hold more already).
        residual.scale_costs(-(-self._cost_scale(residual) // residual.cost_scale))

        # Establish a feasible flow first (costs ignored): route all supply.
        self.establish_feasible_flow(residual, stats)

        epsilon = max(1, residual.max_cost())
        truncated = self._run_phases(residual, epsilon, stats)
        if not truncated:
            self._polish(residual, stats)

        return self._finish(
            network,
            residual,
            stats,
            start,
            write_back,
            optimal=self.max_phases is None and not truncated,
        )

    def solve_warm(
        self,
        network: FlowNetwork,
        warm_flows: Mapping[Tuple[int, int], int],
        warm_potentials: Optional[Mapping[int, int]] = None,
        apply_price_refine: bool = True,
        warm_scaled_potentials: Optional[Dict[int, int]] = None,
        warm_scale: Optional[int] = None,
        write_back: bool = True,
    ) -> SolverResult:
        """Re-optimize starting from a previous solution.

        The warm flow is loaded arc by arc into a fresh residual (clamped
        to the arc's current capacity; ``network`` is written only by the
        write-back; a :class:`FlowGraph`'s own residual takes it in place)
        and node potentials are recovered -- from the previous
        run's scaled potentials if available, via the price-refine heuristic
        (Section 6.2) otherwise.  Optimality is then repaired cheaply:
        residual arcs whose reduced cost turned negative are saturated, and
        the resulting excesses (together with any new task supply) are routed
        along shortest reduced-cost paths, which preserves reduced-cost
        optimality.  Scaling phases only run as a fallback, starting from an
        epsilon sized to the worst remaining violation rather than from the
        maximum arc cost.

        Args:
            network: The (already updated) flow network to solve.
            warm_flows: Flow of the previous solution keyed by arc endpoints.
            warm_potentials: Node potentials of the previous solution in
                original (unscaled) cost units, e.g. from a relaxation run.
            apply_price_refine: Derive complementary-slackness potentials
                from the warm flow when no scaled potentials are available.
                With this disabled and no usable potentials, the solver falls
                back to zero potentials -- the "naive handoff" the paper's
                Figure 13 compares against.
            warm_scaled_potentials: Potentials in the scaled units of a
                previous cost-scaling run (takes precedence; avoids rounding
                losses across runs).
            warm_scale: The cost scale those potentials were computed under.
        """
        start = time.perf_counter()
        self.last_degradation = None
        self._check_abort()
        residual = self._in_place(network)
        if residual is not None:
            residual.load_flows(warm_flows)
        else:
            residual = ResidualNetwork(
                network, flows=warm_flows, abort_check=self.abort_check
            )
        stats = SolverStatistics(warm_start=True)

        # Choose the new scale as an integer multiple of the previous one
        # (and of the residual's own) so the stored potentials transfer
        # exactly (no rounding, hence no spurious epsilon-optimality).
        unit = residual.cost_scale
        if warm_scaled_potentials is not None and warm_scale:
            unit = math.lcm(unit, warm_scale)
        scale = unit * max(1, -(-self._cost_scale(residual) // unit))  # ceil
        residual.scale_costs(scale // residual.cost_scale)

        have_good_potentials = True
        refine_proved_optimal = False
        refine_failed = False
        optimal = True
        if warm_scaled_potentials is not None and warm_scale:
            multiplier = scale // warm_scale
            for node_id, value in warm_scaled_potentials.items():
                if node_id in residual.index:
                    residual.potential[residual.index[node_id]] = value * multiplier
        elif apply_price_refine:
            if self._handoff_refine(residual, stats, warm_potentials):
                stats.potential_updates += 1
                refine_proved_optimal = True
            else:
                # The handoff refine is deterministic: retrying it below
                # with the same potentials and seeds would fail identically,
                # so remember the outcome and go straight to repair (with
                # the handed-off potentials loaded) or, without any, to the
                # naive from-scratch path.
                refine_failed = True
                if warm_potentials is not None:
                    residual.load_potentials(warm_potentials)
                    for i in range(residual.num_nodes):
                        residual.potential[i] *= scale
                else:
                    have_good_potentials = False
        elif warm_potentials is not None:
            residual.load_potentials(warm_potentials)
            for i in range(residual.num_nodes):
                residual.potential[i] *= scale
        else:
            # Naive handoff: no usable potentials.  This is the slow path
            # Figure 13 compares price refine against.
            have_good_potentials = False

        if have_good_potentials:
            # With (near-)optimal potentials the changes are repaired
            # directly, without re-running the scaling ladder: residual arcs
            # whose reduced cost turned negative (cost changes) are
            # saturated, then every remaining excess (new tasks, surpluses
            # and deficits left by removals and the saturation step) is
            # routed along shortest reduced-cost paths.  Both steps preserve
            # reduced-cost optimality, so the repaired feasible flow is
            # optimal, and the work done is proportional to the size of the
            # change batch rather than to the graph.  A completely unchanged
            # problem needs no repair at all.
            if refine_proved_optimal:
                # The refine just certified 0-optimality; rescanning every
                # arc would only recompute (0, []).
                violation, violated = 0, []
            else:
                violation, violated = self._scan_violations(residual)
            excess = residual.total_excess()
            if (
                0 < violation <= scale
                and excess == 0
                and not refine_failed
                and self._price_refine(residual, stats, seed_arcs=violated)
            ):
                # The warm flow is still feasible and the violation is small
                # enough to be a rounding artifact: the previous run's
                # potentials were merely 1-optimal (in scaled units) rather
                # than exact.  Price refine re-derives potentials that prove
                # the flow optimal, so no repair work is needed (Section 6.2
                # applies the same heuristic to relaxation hand-offs).
                # Larger violations mean the graph genuinely changed (the
                # flow is likely non-optimal, price refine would grind to a
                # negative cycle), so those go straight to the repair path.
                stats.potential_updates += 1
                violation = 0
            if violation > 0 or excess > 0:
                self._repair_warm_solution(residual, stats)
                stats.epsilon_phases += 1
        else:
            # Naive handoff: no usable potentials, so behave like Quincy's
            # from-scratch solver except for reusing the warm flow -- route
            # all supply ignoring costs, then run the full scaling ladder
            # starting from the worst observed violation.
            self.establish_feasible_flow(residual, stats)
            violation = self._max_violation(residual)
            if violation > 0:
                optimal = not self._run_phases(residual, max(1, violation), stats)
            if optimal:
                self._polish(residual, stats)

        return self._finish(network, residual, stats, start, write_back, optimal)

    def solve_delta(
        self,
        residual: ResidualNetwork,
        network: FlowNetwork,
        changes: ChangeBatch,
        write_back: bool = True,
    ) -> SolverResult:
        """Re-optimize a persistent residual network after a change batch.

        This is the paper's incremental path proper: no residual network is
        constructed.  ``residual`` is the structure retained by the previous
        run (scaled costs, exact potentials proving the previous optimum,
        the previous flow loaded); ``changes`` transforms the previous flow
        network into ``network``.  The batch is patched in place and only
        the patched arcs are checked for optimality violations; an arrival
        through a hub is routed in a few searches (:meth:`_route_excesses`).  A
        :class:`FlowGraph`'s residual was patched by its own mutations: the
        patch taken is theirs, and the batch is not replayed.

        Raises:
            ValueError / KeyError: when the batch does not apply to the
                residual (caller should fall back to a rebuild).
            InfeasibleProblemError: when the updated network admits no
                feasible routing (the residual is garbage afterwards and
                must be discarded).
        """
        start = time.perf_counter()
        self.last_degradation = None
        stats = SolverStatistics(warm_start=True)
        if self._in_place(network) is residual:
            dirty = residual.take_dirty()
        else:
            dirty = residual.apply_changes(changes)
            residual.revision = (
                changes.target_revision
                if changes.target_revision is not None
                else getattr(network, "revision", None)
            )
        stats.arcs_patched = residual.last_arcs_patched
        stats.nodes_touched = residual.last_nodes_touched

        # Only dirty arcs can have acquired a negative reduced cost: every
        # untouched arc kept its cost, capacity, and endpoint potentials,
        # and the retained residual was 0-optimal.  Saturate the violating
        # dirty arcs, then route every excess along shortest reduced-cost
        # paths (which keeps reduced costs non-negative everywhere).
        # The retained residual carried a feasible flow, so an excess can
        # only sit where the patch moved one or where a saturating push
        # lands: the sources are collected from those, never by enumerating
        # the nodes.
        excess = residual.excess
        arc_residual, arc_cost = residual.arc_residual, residual.arc_cost
        arc_from, arc_to = residual.arc_from, residual.arc_to
        potential = residual.potential
        pushed_into: List[int] = []
        repaired = False
        for position in dirty:
            for arc_index in (2 * position, 2 * position + 1):
                if arc_residual[arc_index] <= 0:
                    continue
                if (
                    arc_cost[arc_index]
                    - potential[arc_from[arc_index]]
                    + potential[arc_to[arc_index]]
                    < 0
                ):
                    residual.push(arc_index, arc_residual[arc_index])
                    pushed_into.append(arc_to[arc_index])
                    stats.pushes += 1
                    repaired = True
        sources = sorted(
            {i for i in chain(residual.last_excess_moved, pushed_into) if excess[i] > 0}
        )
        residual.last_excess_moved = set()
        if sources:
            self._route_excesses(residual, stats, sources)
            repaired = True
        if repaired:
            stats.epsilon_phases += 1

        return self._finish(network, residual, stats, start, write_back)

    # ------------------------------------------------------------------ #
    # Warm-start repair
    # ------------------------------------------------------------------ #
    def _repair_warm_solution(
        self, residual: ResidualNetwork, stats: SolverStatistics
    ) -> None:
        """Restore feasibility and optimality of a warm-started solution.

        The warm flow is feasible for the *previous* problem and the warm
        potentials certify its optimality there.  Graph changes leave two
        kinds of damage: residual arcs whose reduced cost is now negative
        (cost decreases, capacity increases) and node excesses/deficits (new
        or removed tasks, capacity decreases clamping flow).  Saturating the
        violating arcs restores reduced-cost optimality at the price of new
        excesses; routing every excess to a deficit along shortest
        reduced-cost paths (Dijkstra with potential updates, exactly as in
        successive shortest path) then restores feasibility while keeping
        reduced cost optimality, so the result is an optimal flow.
        """
        # The saturation below writes arc_residual directly.
        residual.invalidate_flow_journal()
        residual.invalidate_open_arcs()
        arc_residual = residual.arc_residual
        arc_cost = residual.arc_cost
        arc_from = residual.arc_from
        arc_to = residual.arc_to
        potential = residual.potential
        excess = residual.excess
        for arc_index in range(len(arc_residual)):
            r = arc_residual[arc_index]
            if r <= 0:
                continue
            u = arc_from[arc_index]
            v = arc_to[arc_index]
            if arc_cost[arc_index] - potential[u] + potential[v] < 0:
                arc_residual[arc_index] = 0
                arc_residual[arc_index ^ 1] += r
                excess[u] -= r
                excess[v] += r
                stats.pushes += 1
        self._route_excesses(residual, stats, residual.source_indices())

    def _route_excesses(
        self, residual: ResidualNetwork, stats: SolverStatistics, sources: List[int]
    ) -> None:
        """Route the excess of ``sources`` (ascending node indices covering
        every positive excess) to deficits along cheapest paths: one search
        for the last source; in waves if that first one crossed a hub
        (:data:`WAVE_MIN_WALK`) while :data:`WAVE_MIN_SOURCES` hold excess.
        The searches walk the residual's open-arc lists, rebuilt first if a
        loop left them stale."""
        self._grow_search_columns(residual)
        residual.refresh_open_arcs()
        excess, augment = residual.excess, self._augment_along_reduced_costs
        waves = None  # the first search's verdict
        while sources:
            if excess[sources[-1]] <= 0:
                sources.pop()
                continue
            self._check_abort()
            if waves and len(sources) >= WAVE_MIN_SOURCES and self._route_wave(
                residual, sources, stats
            ):
                sources = [s for s in sources if excess[s] > 0]
                continue
            routed, walked = augment(residual, sources[-1], stats)
            waves = walked >= WAVE_MIN_WALK if waves is None else waves
            if routed == 0:
                raise InfeasibleProblemError(
                    "warm-start repair could not route all supply to a "
                    "deficit node; the updated flow network is infeasible"
                )
            if self.invariant_hook is not None:
                self.invariant_hook(residual, "augment")

    def _route_wave(
        self, residual: ResidualNetwork, sources: List[int], stats: SolverStatistics
    ) -> int:
        """One search from every source at distance 0 (otherwise
        :meth:`_augment_along_reduced_costs`'), settling the plateau at the
        nearest deficit's distance ``D`` only until the arcs labelling
        deficits there carry what the sources with an arc of at most ``D``
        need; then a depth-first blocking flow along the label-setting arcs
        still tight, through settled nodes, with cursors in the pred column
        and range ends in the dist column.  Returns the amount routed."""
        open_arcs, arc_residual = residual.open_arcs, residual.arc_residual
        arc_cost, arc_to = residual.arc_cost, residual.arc_to
        potential, excess = residual.potential, residual.excess
        mark, dist, cursor = self._search_mark, self._search_dist, self._search_pred
        stamp = self._search_stamp + 2  # labelled; then settled, on path, dead
        self._search_stamp = stamp + 2
        settled_stamp, on_path, dead = stamp + 1, stamp + 2, stamp + 3
        plateau = deque(s for s in sources if excess[s] > 0)
        for s in plateau:
            mark[s], dist[s] = stamp, 0
        heap, settled, kept, exits = [], [], [], []  # exits: (cheapest, excess)
        reach = covered = need_reach = -1
        d = need = arcs_scanned = 0
        while True:
            while plateau:
                u = plateau.popleft()
                if mark[u] == settled_stamp or reach == d and excess[u] > 0:
                    continue  # a source not settled before D waits a wave
                mark[u], cursor[u] = settled_stamp, len(kept)
                settled.append(u)
                pot_u, cheapest = potential[u], math.inf
                for arc_index in open_arcs[u]:
                    r = arc_residual[arc_index]
                    v = arc_to[arc_index]
                    mark_v = mark[v]
                    if mark_v == settled_stamp:
                        continue
                    arcs_scanned += 1
                    new_dist = d + arc_cost[arc_index] - pot_u + potential[v]
                    if new_dist < cheapest:
                        cheapest = new_dist
                    if excess[v] < 0:
                        if reach < 0 or new_dist < reach:
                            reach, covered = new_dist, 0
                        if new_dist == reach:
                            kept.append(arc_index)
                            covered += min(r, -excess[v])
                    elif mark_v != stamp or new_dist <= dist[v]:
                        kept.append(arc_index)
                        if mark_v != stamp or new_dist < dist[v]:
                            mark[v], dist[v] = stamp, new_dist
                            if new_dist == d:
                                plateau.append(v)
                            else:
                                heappush(heap, (new_dist, v))
                if excess[u] > 0:  # a source: its cheapest arc out
                    exits.append((cheapest, excess[u]))
                    need += excess[u] if cheapest <= need_reach else 0
                if reach != need_reach:
                    need_reach = reach
                    need = sum(e for cheapest, e in exits if cheapest <= reach)
                if reach == d and covered >= need:
                    plateau.clear()
            while heap and mark[heap[0][1]] == settled_stamp:
                heappop(heap)
            if not heap or reach >= 0 and (
                heap[0][0] > reach or heap[0][0] == reach and covered >= need
            ):
                break
            d, u = heappop(heap)
            plateau.append(u)
        stats.iterations += len(settled) + (reach >= 0)
        stats.arcs_scanned += arcs_scanned
        stats.entries_iterated += sum(map(len, map(open_arcs.__getitem__, settled)))
        stats.searches += 1
        if reach < 0:
            return 0
        for k, u in enumerate(settled, 1):
            potential[u] += reach - dist[u]
            dist[u] = cursor[settled[k]] if k < len(settled) else len(kept)
        stats.potential_updates += 1

        routed = 0
        for source in sources:
            if mark[source] != settled_stamp:
                continue
            path, arcs, mark[source] = [source], [], on_path  # arcs join path
            while path and excess[source] > 0:
                u = path[-1]
                i, end, pot_u = cursor[u], dist[u], potential[u]
                while i < end:
                    arc_index = kept[i]
                    v = arc_to[arc_index]
                    if (
                        arc_residual[arc_index] > 0
                        and arc_cost[arc_index] - pot_u + potential[v] == 0
                        and (excess[v] < 0 or mark[v] == settled_stamp)
                    ):
                        break
                    i += 1
                cursor[u] = i
                if i == end:
                    mark[path.pop()] = dead
                    del arcs[-1:]
                    continue
                arcs.append(arc_index)
                if excess[v] >= 0:
                    mark[v] = on_path
                    path.append(v)
                    continue
                amount = min(map(arc_residual.__getitem__, arcs))
                amount = min(amount, excess[source], -excess[v])
                for arc_index in arcs:
                    residual.push(arc_index, amount)
                routed += amount
                stats.augmentations += 1
                if self.invariant_hook is not None:
                    self.invariant_hook(residual, "augment")
                for u in path[1:]:  # back to the source; cursors remember
                    mark[u] = settled_stamp
                del path[1:], arcs[:]
            for u in path:
                mark[u] = settled_stamp
        return routed

    def _grow_search_columns(self, residual: ResidualNetwork) -> None:
        """Size the searches' stamped scratch columns to ``residual``; they
        grow, are never cleared (see :meth:`_augment_along_reduced_costs`)."""
        missing = residual.num_nodes - len(self._search_mark)
        if missing > 0:
            self._search_mark.extend([0] * missing)
            self._search_dist.extend([0] * missing)
            self._search_pred.extend([0] * missing)

    def _augment_along_reduced_costs(
        self, residual: ResidualNetwork, source: int, stats: SolverStatistics
    ) -> int:
        """Send flow from ``source`` to the nearest deficit by reduced cost.

        Returns the amount routed (zero when no deficit is reachable) and
        the live adjacency entries of the settled nodes (walked).  The
        search walks their open arcs (those with residual capacity), in
        adjacency order.
        Potentials are updated with the Dijkstra distances so reduced costs
        stay non-negative for subsequent augmentations.  One search, one path (:meth:`_route_wave`: many).

        The work is proportional to the searched region, not the graph:
        labels live in scratch columns validated by a per-search stamp
        (``mark[v] == stamp`` labelled, ``stamp + 1`` settled, anything
        lower stale), and only settled nodes have their potential moved.
        The textbook update lowers every node by ``min(dist, target_dist)``;
        reduced costs only see potential *differences*, so raising the
        settled nodes by ``target_dist - dist`` and leaving the rest alone
        is the same update shifted by the constant ``target_dist``.

        The search covers the region a change touched, not the plateau
        behind it.  A 0-optimal residual is mostly one plateau of
        zero-reduced-cost arcs (every arc carrying flow below its capacity
        is tight both ways), so most deficits tie the distance of thousands
        of other nodes, and a search that waits for the deficit to be
        *popped* first settles every node that precedes it among the ties.
        Two rules keep that from happening:

        * A deficit is never expanded, only remembered: the search ends as
          soon as the key ``d`` being processed reaches the nearest
          labelled deficit's distance -- at once when a relaxed arc labels
          one at ``d`` itself, since no unsettled node can be nearer.
        * Nodes tying ``d`` are settled breadth-first over the
          zero-reduced-cost arcs (a deque, no heap round trip), so what gets
          settled before the deficit is labelled is bounded by the hop
          radius of the shortest such path -- a rack, not the cluster --
          where heap order would walk the ties by node index.

        The settled-only update stays exact: every unsettled node is at
        distance >= ``target_dist`` (shift 0), the node whose scan was cut
        short sits at ``target_dist`` itself (shift 0, so its unrelaxed arcs
        keep their reduced cost), hence reduced costs stay >= 0 on every
        residual arc and only the choice among equally cheap paths differs.
        """
        open_arcs = residual.open_arcs
        arc_residual = residual.arc_residual
        arc_cost = residual.arc_cost
        arc_from = residual.arc_from
        arc_to = residual.arc_to
        potential = residual.potential
        excess = residual.excess

        mark = self._search_mark
        dist = self._search_dist
        pred_arc = self._search_pred
        self._search_stamp = stamp = self._search_stamp + 2
        settled_stamp = stamp + 1
        mark[source] = stamp
        dist[source] = 0
        heap: List[Tuple[int, int]] = [(0, source)]
        plateau: deque = deque()
        settled: List[int] = []
        target = -1  # the nearest deficit labelled so far
        found = False
        arcs_scanned = 0

        while heap and not found:
            d, u = heappop(heap)
            if mark[u] == settled_stamp:
                continue
            if target >= 0 and dist[target] <= d:
                break
            # Settle everything at distance d reachable over zero-reduced-
            # cost arcs breadth-first, without a heap round trip per node.
            plateau.append(u)
            while plateau and not found:
                u = plateau.popleft()
                mark[u] = settled_stamp
                settled.append(u)
                pot_u = potential[u]
                for arc_index in open_arcs[u]:
                    v = arc_to[arc_index]
                    mark_v = mark[v]
                    if mark_v == settled_stamp:
                        continue
                    arcs_scanned += 1
                    new_dist = d + arc_cost[arc_index] - pot_u + potential[v]
                    if mark_v != stamp or new_dist < dist[v]:
                        mark[v] = stamp
                        dist[v] = new_dist
                        pred_arc[v] = arc_index
                        if excess[v] < 0:
                            # Deficits are never expanded, only remembered.
                            if target < 0 or new_dist < dist[target]:
                                target = v
                            if new_dist == d:
                                found = True
                                break
                        elif new_dist == d:
                            plateau.append(v)
                        else:
                            heappush(heap, (new_dist, v))
        stats.iterations += len(settled) + (target >= 0)
        stats.arcs_scanned += arcs_scanned
        stats.searches += 1
        entries = sum(map(len, map(open_arcs.__getitem__, settled)))
        if found:  # the last settled node's walk stopped at the deficit
            arcs = open_arcs[settled[-1]]
            entries -= len(arcs) - 1 - arcs.index(arc_index)
        stats.entries_iterated += entries
        # Live entries only: what a hub is does not depend on when its
        # removed arcs' slots are compacted away.
        adjacency = residual.adjacency
        walked = sum(map(len, map(adjacency.__getitem__, settled))) - sum(
            map(residual.dead_entries.__getitem__, settled)
        )

        if target < 0:
            return 0, walked

        target_dist = dist[target]
        for u in settled:
            potential[u] += target_dist - dist[u]
        stats.potential_updates += 1

        amount = min(excess[source], -excess[target])
        node = target
        while node != source:
            arc_index = pred_arc[node]
            r = arc_residual[arc_index]
            if r < amount:
                amount = r
            node = arc_from[arc_index]

        node = target
        while node != source:
            arc_index = pred_arc[node]
            residual.push(arc_index, amount)
            node = arc_from[arc_index]
        stats.augmentations += 1
        return amount, walked

    # ------------------------------------------------------------------ #
    # Result assembly and state retention
    # ------------------------------------------------------------------ #
    def _finish(
        self,
        network: FlowNetwork,
        residual: ResidualNetwork,
        stats: SolverStatistics,
        start: float,
        write_back: bool,
        optimal: bool = True,
    ) -> SolverResult:
        """Record warm-start state, write flow back (unless an executor
        owns the write-back), and build the result.

        When the solver polishes potentials, the residual is retained in
        scaled units (for a later :meth:`solve_delta`) and exposed as
        :attr:`last_residual`.  Without polishing, solves that went through
        the epsilon ladder leave the residual only 1-optimal in scaled
        units, which would violate :meth:`solve_delta`'s 0-optimality
        precondition -- so nothing is retained.  Result costs and
        potentials are converted to original units on the way out.
        """
        scale = residual.cost_scale
        if self.polish_potentials and self.max_phases is None and optimal:
            # The retained residual *is* the warm-start state: its scaled
            # potentials are read off it if it is ever released
            # (:meth:`release_residual`), and the result's unscaled ones on
            # first use -- no |nodes|-sized dict per solve.
            self.last_residual = residual
            self.last_scaled_potentials = None
            self.last_scale = scale
            potentials: Mapping[int, int] = RetainedPotentials(residual)
        else:
            self.last_residual = None
            self._record_scaled_state(residual)
            potentials = {
                node_id: value // scale
                for node_id, value in self.last_scaled_potentials.items()
            }
        if write_back and self._in_place(network) is None:
            network.set_flows(residual.flows())
        runtime = time.perf_counter() - start
        return SolverResult(
            algorithm=self.name,
            total_cost=residual.total_cost(),
            flows=residual.flows(),
            potentials=potentials,
            runtime_seconds=runtime,
            statistics=stats,
            optimal=optimal,
        )

    def _in_place(self, network) -> Optional[ResidualNetwork]:
        """The residual a solve works on in place: a :class:`FlowGraph`'s,
        when this solver :attr:`solves_in_place`."""
        if self.solves_in_place and isinstance(network, FlowGraph):
            return network.residual
        return None

    def discard_warm_state(self) -> None:
        """Forget the retained residual and every potential of the last run."""
        self.last_residual = None
        self.last_scaled_potentials = None
        self.last_scale = None

    def release_residual(self) -> None:
        """Stop retaining the residual, keeping its scaled potentials.

        The next solve then rebuilds warm from
        :attr:`last_scaled_potentials` / :attr:`last_scale`; this is the one
        place a retained residual's potentials become a dict.
        """
        residual = self.last_residual
        if residual is not None:
            self._record_scaled_state(residual)
            self.last_residual = None

    def _polish(self, residual: ResidualNetwork, stats: SolverStatistics) -> None:
        """Restore exact (0-optimal) potentials after the epsilon ladder.

        The ladder stops at epsilon = 1 in scaled units, which proves
        optimality of the *flow* but leaves residual arcs with reduced cost
        -1.  Delta solving requires strict 0-optimality (its Dijkstra-based
        repair assumes non-negative reduced costs on untouched arcs), so a
        persistent solver runs one price refine to re-derive exact
        potentials.  Skipped for truncated (``max_phases``) runs, whose
        flow is not optimal.
        """
        if not self.polish_potentials or self.max_phases is not None:
            return
        if self._price_refine(residual, stats):
            stats.potential_updates += 1

    # ------------------------------------------------------------------ #
    # Price refine dispatch
    # ------------------------------------------------------------------ #
    def _resolve_refine_variant(
        self,
        residual: ResidualNetwork,
        seed_arcs: Optional[Sequence[int]],
    ) -> str:
        """Pick the price-refine variant for one call (``auto`` resolution).

        A bounded violation set favours the Dijkstra variant: its work is
        proportional to the violated region, while the SPFA sweep relabels
        the whole network regardless.  The choice is guarded by the
        violation count relative to the node count
        (:data:`AUTO_SEED_MAX_VIOLATION_FLOOR` /
        :data:`AUTO_SEED_NODE_DIVISOR`) -- widely violated potentials are
        globally stale and the canonical sweep recomputes from scratch
        faster.  Unseeded full refines always take the sweep.
        """
        mode = self.price_refine
        if mode != "auto":
            return mode
        if seed_arcs is not None and len(seed_arcs) <= max(
            AUTO_SEED_MAX_VIOLATION_FLOOR,
            residual.num_nodes // AUTO_SEED_NODE_DIVISOR,
        ):
            return "dijkstra"
        return "spfa"

    def _price_refine(
        self,
        residual: ResidualNetwork,
        stats: SolverStatistics,
        seed_arcs: Optional[Sequence[int]] = None,
    ) -> bool:
        """Run the configured price-refine variant, timing it into ``stats``.

        ``seed_arcs`` (residual arc indices covering every possible
        violation) arms the incremental mode; the SPFA variant ignores it
        and recomputes canonical potentials from scratch, so both variants
        stay interchangeable at every call site.
        """
        variant = self._resolve_refine_variant(residual, seed_arcs)
        max_pops = None
        if seed_arcs is not None:
            # Both seeded call sites treat False as "run the optimality
            # repair instead", which is correct for any violation, so the
            # seeded refine may give up long before cycle detection proper.
            max_pops = max(
                SEEDED_REFINE_POP_BUDGET_FLOOR,
                SEEDED_REFINE_POP_BUDGET_FACTOR * len(seed_arcs),
            )
        start = time.perf_counter()
        try:
            if variant == "spfa":
                return price_refine_spfa(residual, self.abort_check, stats=stats)
            return price_refine_dijkstra(
                residual,
                self.abort_check,
                seed_arcs=seed_arcs,
                stats=stats,
                max_pops=max_pops,
            )
        finally:
            stats.price_refine_seconds += time.perf_counter() - start

    def _handoff_refine(
        self,
        residual: ResidualNetwork,
        stats: SolverStatistics,
        warm_potentials: Optional[Dict[int, int]],
    ) -> bool:
        """Derive complementary-slackness potentials for a warm handoff.

        The SPFA variant recomputes canonical potentials from scratch,
        ignoring any handed-off ones (the pre-Dijkstra behaviour).  The
        Dijkstra variant instead *loads* the previous round's potentials
        when the caller handed some over -- they are exact under scaling,
        so only arcs the inter-round graph changes violated seed the
        repair, and the refine's work is proportional to the drift instead
        of the network (the incremental refine mode).  On failure
        (negative residual cycle: the warm flow is no longer optimal) the
        potentials are left as loaded; the caller's fallback chain loads
        the same values and proceeds to the repair path.
        """
        if warm_potentials is not None and self.price_refine != "spfa":
            # The load + violation scan is part of deriving the potentials,
            # so it is charged to the price-refine attribution as well.
            start = time.perf_counter()
            residual.load_potentials(warm_potentials)
            potential = residual.potential
            scale = residual.cost_scale
            for i in range(residual.num_nodes):
                potential[i] *= scale
            _, violated = self._scan_violations(residual)
            stats.price_refine_seconds += time.perf_counter() - start
            if not violated:
                return True
            return self._price_refine(residual, stats, seed_arcs=violated)
        return self._price_refine(residual, stats)

    def _record_scaled_state(self, residual: ResidualNetwork) -> None:
        """Remember the exact scaled potentials for the next warm start."""
        self.last_scaled_potentials = residual.export_potentials()
        self.last_scale = residual.cost_scale

    # ------------------------------------------------------------------ #
    # Cost scaling internals
    # ------------------------------------------------------------------ #
    def _cost_scale(self, residual: ResidualNetwork) -> int:
        """Return the integer factor by which costs are multiplied.

        Scaling costs by ``n + 1`` makes 1-optimality in scaled units imply
        ``1/(n+1)``-optimality in original units, which guarantees optimality
        for integer costs.
        """
        return residual.num_nodes + 1

    def _max_violation(self, residual: ResidualNetwork) -> int:
        """Return the magnitude of the worst negative reduced cost on a
        residual arc with remaining capacity (zero when epsilon-optimal for
        epsilon = 0)."""
        return self._scan_violations(residual)[0]

    def _scan_violations(
        self, residual: ResidualNetwork
    ) -> Tuple[int, List[int]]:
        """Scan for 0-optimality violations under the current potentials.

        Returns ``(worst, violated)`` from
        :meth:`~repro.solvers.residual.ResidualNetwork.violated_arcs`; the
        index list doubles as the seed set of the incremental price refine
        -- by construction it covers every violated arc, which is exactly
        the precondition the seeded repair needs.
        """
        return residual.violated_arcs()

    def _check_abort(self) -> None:
        """Raise :class:`SolveAborted` when the cancellation hook fires."""
        check = self.abort_check
        if check is not None and check():
            raise SolveAborted("cost scaling run cancelled by abort check")

    def _run_phases(
        self, residual: ResidualNetwork, initial_epsilon: int, stats: SolverStatistics
    ) -> bool:
        """Run scaling phases from ``initial_epsilon`` down to 1.

        Returns True when :attr:`deadline_check` fired and the ladder was
        cut short at a coarser epsilon.  At least one phase always runs, so
        a deadline-truncated result is still a feasible, epsilon-optimal
        flow; the truncation epsilon is validated inline with
        :func:`~repro.flow.validation.check_residual_epsilon_optimality`
        and recorded in :attr:`last_degradation`.
        """
        epsilon = initial_epsilon
        phases = 0
        deadline = self.deadline_check
        while True:
            self._check_abort()
            self._refine(residual, epsilon, stats)
            phases += 1
            stats.epsilon_phases += 1
            if epsilon <= 1:
                break
            if self.max_phases is not None and phases >= self.max_phases:
                break
            if deadline is not None and deadline():
                stats.deadline_hits += 1
                stats.degraded_round = 1
                problems = check_residual_epsilon_optimality(residual, epsilon)
                self.last_degradation = {
                    "epsilon": epsilon,
                    "validated": not problems,
                    "problems": problems,
                }
                return True
            epsilon = max(1, epsilon // self.alpha)
        return False

    def establish_feasible_flow(
        self, residual: ResidualNetwork, stats: SolverStatistics
    ) -> None:
        """Route all positive excess to deficit nodes, ignoring costs.

        Uses breadth-first augmentation; this corresponds to the max-flow
        computation that precedes cost optimization (cycle canceling runs
        the same pass).  Raises :class:`InfeasibleProblemError` when supply
        cannot be routed.
        """
        self._grow_search_columns(residual)
        arc_residual = residual.arc_residual
        arc_from = residual.arc_from
        arc_to = residual.arc_to
        adjacency = residual.adjacency
        excess = residual.excess
        pred_arc = self._search_pred
        # into_deficit[u]: u's residual arcs into a deficit node.  A push
        # can only saturate its path's last arc (the rest of the path is
        # not a deficit, nor is any node a reverse arc enters), and a
        # deficit that fills up takes its in-arcs out, so the count stays
        # exact for the whole pass.
        into_deficit = [0] * residual.num_nodes
        for node in range(residual.num_nodes):
            if excess[node] < 0:
                for arc_index in adjacency[node]:
                    if arc_residual[arc_index ^ 1] > 0:
                        into_deficit[arc_to[arc_index]] += 1
        for source in range(residual.num_nodes):
            while excess[source] > 0:
                self._check_abort()
                target = self._bfs_path_to_deficit(
                    residual, source, into_deficit, stats
                )
                if target < 0:
                    raise InfeasibleProblemError(
                        "cannot route all supply to the sink; scheduling graphs "
                        "must always provide unscheduled aggregator capacity"
                    )
                path: List[int] = []
                node = target
                while node != source:
                    arc_index = pred_arc[node]
                    path.append(arc_index)
                    node = arc_from[arc_index]
                amount = min(excess[source], -excess[target])
                amount = min(amount, min(arc_residual[arc_index] for arc_index in path))
                for arc_index in reversed(path):
                    residual.push(arc_index, amount)
                stats.augmentations += 1
                if arc_residual[path[0]] == 0:
                    into_deficit[arc_from[path[0]]] -= 1
                if excess[target] == 0:
                    for arc_index in adjacency[target]:
                        if arc_residual[arc_index ^ 1] > 0:
                            into_deficit[arc_to[arc_index]] -= 1

    def _bfs_path_to_deficit(
        self,
        residual: ResidualNetwork,
        source: int,
        into_deficit: List[int],
        stats: SolverStatistics,
    ) -> int:
        """The deficit a breadth-first search from ``source`` labels first,
        or -1 if none is reachable; its path is left in ``_search_pred``.

        The search runs a level at a time and expands a level only when
        none of its nodes has an arc into a deficit (``into_deficit``);
        otherwise the first such node's first such arc ends it.  That is
        the deficit, and the predecessor arcs, a FIFO search that checked
        each node as it popped it would reach, but without walking what it
        queues meanwhile: on a scheduling graph, every task routed so far
        and the cluster aggregator's arcs to every rack.
        """
        arc_residual = residual.arc_residual
        arc_to = residual.arc_to
        adjacency = residual.adjacency
        excess = residual.excess
        mark = self._search_mark
        pred_arc = self._search_pred
        # Stamps advance by two, as in the repair (which also uses stamp + 1).
        self._search_stamp = stamp = self._search_stamp + 2
        mark[source] = stamp
        level = [source]
        arcs_scanned = 0
        while level:
            for u in level:
                if not into_deficit[u]:
                    continue
                for arc_index in adjacency[u]:
                    if arc_residual[arc_index] <= 0:
                        continue
                    arcs_scanned += 1
                    v = arc_to[arc_index]
                    if excess[v] < 0:
                        pred_arc[v] = arc_index
                        stats.arcs_scanned += arcs_scanned
                        return v
            frontier = level
            level = []
            for u in frontier:
                for arc_index in adjacency[u]:
                    if arc_residual[arc_index] <= 0:
                        continue
                    arcs_scanned += 1
                    v = arc_to[arc_index]
                    if mark[v] != stamp:
                        mark[v] = stamp
                        pred_arc[v] = arc_index
                        level.append(v)
        stats.arcs_scanned += arcs_scanned
        return -1

    def _refine(
        self, residual: ResidualNetwork, epsilon: int, stats: SolverStatistics
    ) -> None:
        """Re-establish epsilon-optimality of the current feasible flow.

        This is the hot loop of the solver: saturate every residual arc
        with negative reduced cost, then discharge active (positive-excess)
        nodes with push/relabel.  The discharge resumes each node's
        adjacency scan at its current-arc cursor and computes reduced costs
        inline from local aliases; see the module docstring for why the
        cursor is only reset on relabel.
        """
        # The loops below write arc_residual directly (inlined pushes), so
        # any dirty-flow tracking on the residual is no longer sound, nor
        # are its open-arc lists.
        residual.invalidate_flow_journal()
        residual.invalidate_open_arcs()
        arc_residual = residual.arc_residual
        arc_cost = residual.arc_cost
        arc_from = residual.arc_from
        arc_to = residual.arc_to
        potential = residual.potential
        excess = residual.excess
        adjacency = residual.adjacency
        num_nodes = residual.num_nodes

        # Saturate every residual arc with negative reduced cost.  This makes
        # the pseudo-flow 0-optimal for the current potentials but creates
        # excesses and deficits that the push/relabel loop drains.
        pushes = 0
        for arc_index in range(len(arc_residual)):
            r = arc_residual[arc_index]
            if r <= 0:
                continue
            u = arc_from[arc_index]
            v = arc_to[arc_index]
            if arc_cost[arc_index] - potential[u] + potential[v] < 0:
                arc_residual[arc_index] = 0
                arc_residual[arc_index ^ 1] += r
                excess[u] -= r
                excess[v] += r
                pushes += 1

        residual.reset_current_arcs()
        current_arc = residual.current_arc

        active = deque(i for i in range(num_nodes) if excess[i] > 0)
        in_queue = bytearray(num_nodes)
        for i in active:
            in_queue[i] = 1

        # Generous potential-increase bound used purely as an infeasibility
        # safety net; feasible scheduling graphs never get close to it.
        max_increase = 4 * (num_nodes + 2) * (epsilon + residual.max_cost() + 1)
        bound = [p + max_increase for p in potential]

        relabels = 0
        arcs_scanned = 0
        abort_check = self.abort_check
        ops_until_check = ABORT_CHECK_INTERVAL
        while active:
            if abort_check is not None:
                ops_until_check -= 1
                if ops_until_check <= 0:
                    ops_until_check = ABORT_CHECK_INTERVAL
                    if abort_check():
                        raise SolveAborted(
                            "cost scaling refine cancelled by abort check"
                        )
            u = active.popleft()
            in_queue[u] = 0
            e = excess[u]
            if e <= 0:
                continue
            adj = adjacency[u]
            degree = len(adj)
            i = current_arc[u]
            pot_u = potential[u]
            while True:
                if i >= degree:
                    # Relabel: raise u's potential just enough to create an
                    # admissible arc, then rescan from the front (the only
                    # event that can make previously scanned arcs
                    # admissible again).
                    best = None
                    for a in adj:
                        if arc_residual[a] > 0:
                            candidate = arc_cost[a] + potential[arc_to[a]]
                            if best is None or candidate < best:
                                best = candidate
                    arcs_scanned += degree
                    if best is None:
                        raise InfeasibleProblemError(
                            f"node {u} has excess but no outgoing residual arcs"
                        )
                    pot_u = best + epsilon
                    potential[u] = pot_u
                    relabels += 1
                    if pot_u > bound[u]:
                        raise InfeasibleProblemError(
                            "potential of a node grew without bound during "
                            "refine; the flow network admits no feasible routing"
                        )
                    i = 0
                    continue
                a = adj[i]
                arcs_scanned += 1
                r = arc_residual[a]
                if r > 0:
                    v = arc_to[a]
                    if arc_cost[a] - pot_u + potential[v] < 0:
                        amount = e if e < r else r
                        arc_residual[a] = r - amount
                        arc_residual[a ^ 1] += amount
                        e -= amount
                        ev = excess[v] + amount
                        excess[v] = ev
                        pushes += 1
                        if ev > 0 and not in_queue[v]:
                            active.append(v)
                            in_queue[v] = 1
                        if e == 0:
                            break
                        i += 1
                        continue
                i += 1
            excess[u] = 0
            current_arc[u] = i

        stats.pushes += pushes
        stats.relabels += relabels
        stats.arcs_scanned += arcs_scanned
