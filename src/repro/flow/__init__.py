"""Flow-network substrate used by the Firmament scheduler.

This package contains the data structures shared by the scheduler and the
min-cost max-flow solvers:

* :mod:`repro.flow.graph` -- the directed flow network (nodes, arcs,
  capacities, costs, supplies) that scheduling policies build and solvers
  consume.
* :mod:`repro.flow.changes` -- typed graph-change records (supply, capacity,
  and cost changes) and the Table-3 classification of which changes break
  feasibility or optimality of an existing solution.
* :mod:`repro.flow.validation` -- checkers for flow feasibility,
  reduced-cost optimality, and epsilon-optimality used in tests and by the
  incremental solvers.
* :mod:`repro.flow.dimacs` -- DIMACS min-cost-flow serialization plus the
  incremental-change text format used towards an out-of-process solver.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "graph": ("Arc", "FlowNetwork", "Node", "NodeType"),
    "changes": (
        "ArcAddition", "ArcCapacityChange", "ArcCostChange", "ArcRemoval",
        "ChangeBatch", "ChangeEffect", "GraphChange", "NodeAddition",
        "NodeRemoval", "SupplyChange", "apply_changes", "classify_arc_change",
    ),
    "dimacs": (
        "DimacsFormatError", "read_dimacs", "read_incremental",
        "write_dimacs", "write_incremental",
    ),
    "validation": (
        "check_epsilon_optimality", "check_feasibility",
        "check_reduced_cost_optimality", "flow_cost",
    ),
})
