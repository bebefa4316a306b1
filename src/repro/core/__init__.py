"""Firmament scheduler core: policies, graph manager, placement extraction.

The scheduler follows the architecture of Figure 4 in the paper: the
scheduling policy turns cluster state and monitoring data into a flow
network (via the :class:`~repro.core.graph_manager.GraphManager`), an MCMF
solver computes the optimal flow, and the placements implied by that flow
are extracted with the Listing-1 traversal and applied to the cluster.
"""

from repro.core.graph_manager import (
    GraphConsistencyError,
    GraphManager,
    GraphUpdateStats,
)
from repro.core.placement import extract_placements
from repro.core.scheduler import FirmamentScheduler, SchedulingDecision
from repro.core.sharding import (
    CellPartition,
    CellStateView,
    CellTopologyView,
    CrossCellBalancer,
    ShardedScheduler,
)
from repro.core.policies import (
    CpuMemoryPolicy,
    LoadSpreadingPolicy,
    NetworkAwarePolicy,
    QuincyPolicy,
    RandomPlacementPolicy,
    SchedulingPolicy,
    ShortestJobFirstPolicy,
)

__all__ = [
    "GraphConsistencyError",
    "GraphManager",
    "GraphUpdateStats",
    "extract_placements",
    "FirmamentScheduler",
    "SchedulingDecision",
    "CellPartition",
    "CellStateView",
    "CellTopologyView",
    "CrossCellBalancer",
    "ShardedScheduler",
    "CpuMemoryPolicy",
    "LoadSpreadingPolicy",
    "NetworkAwarePolicy",
    "QuincyPolicy",
    "RandomPlacementPolicy",
    "SchedulingPolicy",
    "ShortestJobFirstPolicy",
]
