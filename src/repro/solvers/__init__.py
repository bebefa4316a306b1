"""Min-cost max-flow solvers used by the Firmament scheduler.

The package provides four from-scratch MCMF algorithms (Section 4 of the
paper), an incremental variant of cost scaling (Section 5.2), the
problem-specific heuristics of Section 5.3, and the speculative
dual-algorithm executor of Section 6.1:

* :class:`~repro.solvers.cycle_canceling.CycleCancelingSolver`
* :class:`~repro.solvers.successive_shortest_path.SuccessiveShortestPathSolver`
* :class:`~repro.solvers.cost_scaling.CostScalingSolver` (with the alpha
  scaling factor and the price-refine heuristic)
* :class:`~repro.solvers.relaxation.RelaxationSolver` (with the
  arc-prioritization heuristic)
* :class:`~repro.solvers.incremental.IncrementalCostScalingSolver`
* :class:`~repro.solvers.incremental_relaxation.IncrementalRelaxationSolver`
  (the warm-start variant Section 5.2 argues against; kept for the ablation)

  Both are subclasses of the solver they make incremental, and each is the
  one owner of its warm state: a warm start loads the previous flow into
  the residual it builds and never writes the network being solved.
* :class:`~repro.solvers.dual_executor.DualAlgorithmExecutor` (incremental
  cost scaling alone on a round whose batch chains onto its residual; the
  two legs raced back to back, with the race modeled, on every other
  round)
* :class:`~repro.solvers.worker.WorkerClient` /
  :func:`~repro.solvers.worker.serve_solver` (the out-of-process solver
  transport of the sharded scheduler's ``--cell-workers``)

All solvers share the :class:`~repro.solvers.base.Solver` interface: they
take a :class:`~repro.flow.graph.FlowNetwork`, assign an optimal flow to its
arcs, and return a :class:`~repro.solvers.base.SolverResult` with
statistics; incremental cost scaling also solves a graph manager's
:class:`~repro.solvers.residual.FlowGraph` in place.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": (
        "COMPLEXITY_TABLE", "PRECONDITION_TABLE", "RoundDeadline",
        "RoundDeadlineExceeded", "SolveAborted", "Solver", "SolverResult",
        "SolverStatistics",
    ),
    "cycle_canceling": ("CycleCancelingSolver",),
    "successive_shortest_path": ("SuccessiveShortestPathSolver",),
    "cost_scaling": (
        "PRICE_REFINE_MODES", "CostScalingSolver", "price_refine_dijkstra",
        "price_refine_spfa",
    ),
    "relaxation": ("RelaxationSolver",),
    "incremental": ("IncrementalCostScalingSolver",),
    "incremental_relaxation": ("IncrementalRelaxationSolver",),
    "dual_executor": ("DualAlgorithmExecutor", "DualExecutionResult"),
    "worker": ("RevisionChainCache", "WorkerClient"),
    "worker_health": ("WorkerCircuitBreaker",),
})

#: ``make_solver`` name -> solver class name.
_SOLVER_CLASSES = {
    "cycle_canceling": "CycleCancelingSolver",
    "successive_shortest_path": "SuccessiveShortestPathSolver",
    "cost_scaling": "CostScalingSolver",
    "relaxation": "RelaxationSolver",
    "incremental_cost_scaling": "IncrementalCostScalingSolver",
    "incremental_relaxation": "IncrementalRelaxationSolver",
    "firmament_dual": "DualAlgorithmExecutor",
}


def make_solver(name: str, **kwargs) -> "Solver":
    """Construct a solver by name.

    Recognized names: ``cycle_canceling``, ``successive_shortest_path``,
    ``cost_scaling``, ``relaxation``, ``incremental_cost_scaling``,
    ``incremental_relaxation``, ``firmament_dual`` (the dual executor).
    """
    if name not in _SOLVER_CLASSES:
        raise ValueError(
            f"unknown solver {name!r}; choose from {sorted(_SOLVER_CLASSES)}"
        )
    return __getattr__(_SOLVER_CLASSES[name])(**kwargs)
