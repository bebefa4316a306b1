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
* :class:`~repro.solvers.dual_executor.DualAlgorithmExecutor` (sequential,
  models the race) and
  :class:`~repro.solvers.parallel_executor.ParallelDualExecutor` (races a
  relaxation worker subprocess against parent-side incremental cost
  scaling for real)
* :class:`~repro.solvers.worker.WorkerClient` /
  :func:`~repro.solvers.worker.serve_solver` (the one out-of-process solver
  transport, used by the parallel executor and the sharded scheduler)

All solvers share the :class:`~repro.solvers.base.Solver` interface: they
take a :class:`~repro.flow.graph.FlowNetwork`, assign an optimal flow to its
arcs (every write reports the arcs it moved in
:attr:`~repro.flow.graph.FlowNetwork.flow_changes`), and return a
:class:`~repro.solvers.base.SolverResult` with statistics.
"""

from repro.solvers.base import (
    COMPLEXITY_TABLE,
    PRECONDITION_TABLE,
    RoundDeadline,
    RoundDeadlineExceeded,
    SolveAborted,
    Solver,
    SolverResult,
    SolverStatistics,
)
from repro.solvers.cycle_canceling import CycleCancelingSolver
from repro.solvers.successive_shortest_path import SuccessiveShortestPathSolver
from repro.solvers.cost_scaling import (
    PRICE_REFINE_MODES,
    CostScalingSolver,
    price_refine_dijkstra,
    price_refine_spfa,
)
from repro.solvers.relaxation import RelaxationSolver
from repro.solvers.incremental import IncrementalCostScalingSolver
from repro.solvers.incremental_relaxation import IncrementalRelaxationSolver
from repro.solvers.dual_executor import DualAlgorithmExecutor, DualExecutionResult
from repro.solvers.parallel_executor import ParallelDualExecutor
from repro.solvers.worker import RevisionChainCache, WorkerClient
from repro.solvers.worker_health import WorkerCircuitBreaker

__all__ = [
    "COMPLEXITY_TABLE",
    "PRECONDITION_TABLE",
    "PRICE_REFINE_MODES",
    "RevisionChainCache",
    "price_refine_dijkstra",
    "price_refine_spfa",
    "RoundDeadline",
    "RoundDeadlineExceeded",
    "SolveAborted",
    "WorkerCircuitBreaker",
    "WorkerClient",
    "Solver",
    "SolverResult",
    "SolverStatistics",
    "CycleCancelingSolver",
    "SuccessiveShortestPathSolver",
    "CostScalingSolver",
    "RelaxationSolver",
    "IncrementalCostScalingSolver",
    "IncrementalRelaxationSolver",
    "DualAlgorithmExecutor",
    "DualExecutionResult",
    "ParallelDualExecutor",
]


def make_solver(name: str, **kwargs) -> Solver:
    """Construct a solver by name.

    Recognized names: ``cycle_canceling``, ``successive_shortest_path``,
    ``cost_scaling``, ``relaxation``, ``incremental_cost_scaling``,
    ``incremental_relaxation``, ``firmament_dual`` (sequential dual
    executor), ``firmament_dual_parallel`` (subprocess-racing executor).
    """
    registry = {
        "cycle_canceling": CycleCancelingSolver,
        "successive_shortest_path": SuccessiveShortestPathSolver,
        "cost_scaling": CostScalingSolver,
        "relaxation": RelaxationSolver,
        "incremental_cost_scaling": IncrementalCostScalingSolver,
        "incremental_relaxation": IncrementalRelaxationSolver,
        "firmament_dual": DualAlgorithmExecutor,
        "firmament_dual_parallel": ParallelDualExecutor,
    }
    if name not in registry:
        raise ValueError(f"unknown solver {name!r}; choose from {sorted(registry)}")
    return registry[name](**kwargs)

