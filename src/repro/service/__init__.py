"""Scheduler-as-a-service front end.

The simulator drives the scheduler from a synthetic event queue; this
package drives it from *live clients*.  :class:`SchedulerService` exposes
the flow-based schedulers over a JSON-lines TCP protocol: concurrent
clients submit jobs and machine events, the service coalesces everything
that arrived since the previous round into ordinary
:class:`~repro.cluster.state.ClusterState` mutations (admission cost stays
O(|changes|) through the existing dirty-tracking path), runs a budgeted
scheduling round, and streams per-client placement / preemption
notifications back with backpressure.

Since ISSUE 10 the service is optionally *crash-safe*: a
:class:`DurabilityLayer` write-ahead-logs every admission batch and
applied round, snapshots the full cluster state periodically, and
:func:`recover` rebuilds an equivalent service after ``kill -9`` by
replaying the log through the same appliers the live service changes its
state with -- with duplicate resubmissions deduplicated by client-supplied
idempotency keys and ``accepted == placed + pending + rejected``
preserved across the crash boundary.

The package is pure stdlib (``asyncio`` + ``json`` + ``struct``); no new
dependencies.

Modules:

* :mod:`repro.service.server` -- the service itself.
* :mod:`repro.service.durability` -- write-ahead log, snapshots, recovery.
* :mod:`repro.service.loadgen` -- closed-loop load generator used by the
  service tests and ``benchmarks/bench_service_slo.py``.
"""

from repro.service.durability import (
    DurabilityLayer,
    Ledger,
    RecoveredState,
    RecoveryError,
    recover,
    restore_cluster_state,
    snapshot_cluster_state,
)
from repro.service.server import SchedulerService, ServiceConfig, ServiceStats

__all__ = [
    "DurabilityLayer",
    "Ledger",
    "RecoveredState",
    "RecoveryError",
    "SchedulerService",
    "ServiceConfig",
    "ServiceStats",
    "recover",
    "restore_cluster_state",
    "snapshot_cluster_state",
]
