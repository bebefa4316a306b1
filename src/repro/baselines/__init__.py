"""Comparator schedulers used in the paper's evaluation.

These re-implement the *placement decision rules* of the schedulers the
paper compares against (Section 7.5 and Section 8), behind a single
queue-based interface so the simulator and testbed harness can drive any of
them interchangeably with Firmament:

* :class:`~repro.baselines.sparrow.SparrowScheduler` -- distributed
  power-of-two-choices batch sampling (placements are effectively random
  with respect to data locality and network load).
* :class:`~repro.baselines.swarmkit.SwarmKitScheduler` -- Docker SwarmKit's
  spread strategy: fewest running tasks first.
* :class:`~repro.baselines.kubernetes.KubernetesScheduler` -- filter plus
  score (least-requested and balanced-allocation terms).
* :class:`~repro.baselines.mesos.MesosScheduler` -- offer-based first fit
  over a random subset of machines.
* :func:`~repro.baselines.quincy.make_quincy_scheduler` -- Quincy itself:
  Firmament restricted to the Quincy policy and a from-scratch cost-scaling
  solver (what the original system used via cs2).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "base": ("QueueBasedScheduler",),
    "sparrow": ("SparrowScheduler",),
    "swarmkit": ("SwarmKitScheduler",),
    "kubernetes": ("KubernetesScheduler",),
    "mesos": ("MesosScheduler",),
    "quincy": ("make_quincy_scheduler",),
})
