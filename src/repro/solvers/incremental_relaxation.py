"""Incremental relaxation: warm-starting the relaxation algorithm.

Section 5.2 of the paper observes that relaxation *ought* to be a better
candidate for incremental operation than cost scaling -- it only needs
reduced-cost optimality to hold, which graph changes rarely destroy -- but
that in practice it often is not: the warm solution already contains large
zero-reduced-cost trees, and every new source must re-traverse them, so
incremental relaxation "can also be slower incrementally than when running
from scratch".  Firmament therefore pairs relaxation (from scratch) with
*incremental cost scaling*, not incremental relaxation, in its speculative
dual executor.

:class:`IncrementalRelaxationSolver` exists to make that design decision
reproducible: it is the stateful warm-starting
:class:`~repro.solvers.relaxation.RelaxationSolver` that Firmament chose not
to use, and ``benchmarks/bench_ablation_incremental_relaxation.py`` measures
it against the from-scratch solver on both uncontested and contended graphs.

Its warm state has exactly one source of truth: the ``(flows, potentials)``
pair installed through :meth:`~IncrementalRelaxationSolver._install_state`,
the single code path behind :meth:`~IncrementalRelaxationSolver.seed`,
:meth:`~IncrementalRelaxationSolver.reset`, and the post-solve update.  The
persistent residual the solver inherits carries flow and potential state of
its own, so every state installation also drops it -- two independently
mutated copies of the same solution is how warm-start bugs are born.  A warm
solve hands the stale flow to the residual it builds, never to the network
being solved.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

from repro.flow.graph import FlowNetwork
from repro.solvers.base import SolverResult
from repro.solvers.relaxation import RelaxationSolver


class IncrementalRelaxationSolver(RelaxationSolver):
    """Stateful relaxation solver that warm-starts from its previous run."""

    name = "incremental_relaxation"

    #: Every solve builds its residual from the warm state: :meth:`solve`
    #: takes no change batch.
    accepts_change_batches = False

    def __init__(self, arc_prioritization: bool = True) -> None:
        """Create the solver.

        Args:
            arc_prioritization: Enable the Section 5.3.1 tree-growth heuristic.
        """
        super().__init__(arc_prioritization=arc_prioritization)
        #: The remembered solution, or ``None`` for a cold start.  Only
        #: ever written by :meth:`_install_state`.
        self._warm_state: Optional[
            Tuple[Dict[Tuple[int, int], int], Dict[int, int]]
        ] = None

    def _install_state(
        self,
        flows: Optional[Mapping[Tuple[int, int], int]],
        potentials: Optional[Mapping[int, int]],
    ) -> None:
        """Install (or clear, with ``flows=None``) the warm-start state.

        The one code path through which seeding, resetting, and the
        post-solve update all go; it also drops the persistent residual so
        the installed dicts remain the single authoritative copy of the
        solution.
        """
        if flows is None:
            self._warm_state = None
        else:
            self._warm_state = (dict(flows), dict(potentials or {}))
        self.invalidate_residual()

    def reset(self) -> None:
        """Discard the remembered solution; the next solve runs from scratch."""
        self._install_state(None, None)

    def seed(self, flows: Dict[Tuple[int, int], int], potentials: Dict[int, int]) -> None:
        """Install an externally produced solution as the warm-start state."""
        self._install_state(flows, potentials)

    @property
    def has_state(self) -> bool:
        """Return whether a previous solution is available for warm starting."""
        return self._warm_state is not None

    def solve(self, network: FlowNetwork) -> SolverResult:
        """Solve the network, reusing the previous solution when available."""
        if self.has_state:
            result = self.solve_warm(network, *self._warm_state)
        else:
            result = super().solve(network)
        self._install_state(result.flows, result.potentials)
        return result
