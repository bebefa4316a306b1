"""Firmament scheduler core: policies, graph manager, placement extraction.

The scheduler follows the architecture of Figure 4 in the paper: the
scheduling policy turns cluster state and monitoring data into a flow
network (via the :class:`~repro.core.graph_manager.GraphManager`), an MCMF
solver computes the optimal flow, and the placements implied by that flow
are extracted with the Listing-1 traversal and applied to the cluster.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "graph_manager": (
        "GraphConsistencyError", "GraphManager", "GraphUpdateStats",
    ),
    "placement": ("extract_placements",),
    "scheduler": ("FirmamentScheduler", "SchedulingDecision"),
    "sharding": (
        "CellPartition", "CellStateView", "CellTopologyView",
        "CrossCellBalancer", "ShardedScheduler",
    ),
    "policies": (
        "CpuMemoryPolicy", "LoadSpreadingPolicy", "NetworkAwarePolicy",
        "QuincyPolicy", "RandomPlacementPolicy", "SchedulingPolicy",
        "ShortestJobFirstPolicy",
    ),
})
