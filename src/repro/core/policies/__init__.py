"""Scheduling policies: flow-network generators.

A scheduling policy decides the structure and the costs of the flow network
(Section 3.3 of the paper).  Every policy describes its network per entity
through the hooks of :class:`~repro.core.policies.base.SchedulingPolicy`,
which also derives the arcs all policies share.  Three illustrative policies
are provided, mirroring the ones the paper uses:

* :class:`~repro.core.policies.load_spreading.LoadSpreadingPolicy` -- a
  trivial policy that balances the task count per machine through a single
  cluster aggregator (Figure 6a); used to exercise MCMF edge cases.
* :class:`~repro.core.policies.quincy.QuincyPolicy` -- Quincy's original
  data-locality policy with cluster and rack aggregators and preference arcs
  (Figure 6b); used for the head-to-head comparison with Quincy.
* :class:`~repro.core.policies.network_aware.NetworkAwarePolicy` -- avoids
  overcommitting machine network bandwidth using request aggregators and
  dynamically maintained arcs (Figure 6c); used in the testbed experiments.

Three further cost models exercise Firmament's policy API beyond the
paper's figures (the open-source scheduler ships analogous models):

* :class:`~repro.core.policies.cpu_memory.CpuMemoryPolicy` -- Borg-style
  multi-dimensional CPU/RAM feasibility checking with per-equivalence-class
  request aggregators.
* :class:`~repro.core.policies.shortest_job_first.ShortestJobFirstPolicy` --
  prices arcs by expected runtime from the knowledge base so short tasks win
  scarce slots.
* :class:`~repro.core.policies.random_placement.RandomPlacementPolicy` -- a
  seeded-random placement-quality floor and solver stress generator.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("PolicyNetworkBuilder", "SchedulingPolicy"),
    "load_spreading": ("LoadSpreadingPolicy",),
    "quincy": ("QuincyPolicy",),
    "network_aware": ("NetworkAwarePolicy",),
    "cpu_memory": ("CpuMemoryPolicy",),
    "shortest_job_first": ("ShortestJobFirstPolicy",),
    "random_placement": ("RandomPlacementPolicy",),
})
