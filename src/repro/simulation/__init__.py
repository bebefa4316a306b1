"""Trace-driven cluster simulation (the paper's "Fauxmaster"-style setup).

The simulator replays a workload -- either a synthetic Google-like trace or
one of the purpose-built experiment workloads -- against a real scheduler
instance: the scheduler's actual code runs and its measured algorithm
runtime is charged as virtual time, exactly as the paper's simulator runs
Firmament's real scheduling logic against simulated machines.

Event semantics
    The engine mirrors Firmament's own simulator (``simulator.cc`` /
    ``event_manager.cc``): a single typed event queue
    (:class:`~repro.simulation.events.EventManager`) popped in timestamp
    order, interpreted by a :class:`~repro.simulation.simulator.SimulatorBridge`
    that mutates cluster state and drives the scheduler off the event
    clock.  Event kinds: ``TASK_SUBMIT``, ``TASK_END_RUNTIME``,
    ``ADD_MACHINE``, ``REMOVE_MACHINE``, ``SCHEDULER_DONE`` (an in-flight
    round's algorithm runtime elapsing), and ``SCHEDULER_WAKE`` (a deferred
    batch-mode retry).  Same-timestamp events are FIFO unless a
    ``tie_break_seed`` randomizes the interleaving (the fuzz suite's hook).

Drain and void rules
    Every recorded scheduler round is either *applied* or explicitly
    *voided* -- never silently lost.  With ``drain=True`` (default) the
    run continues past ``max_time`` until queued work settles, applying
    in-flight rounds.  With ``drain=False``, events past ``max_time`` are
    skipped, but a skipped ``SCHEDULER_DONE`` voids its round: the record
    is marked ``voided`` and the run's ``rounds_voided`` counter
    increments.  The invariant -- recorded placements == applied +
    drift-dropped + voided -- is checked by
    :func:`~repro.simulation.simulator.verify_placement_conservation`.

Ingestion schema
    :mod:`repro.simulation.ingest` maps column-schema CSV traces
    (Google/Alibaba presets or a custom :class:`TraceSchema`) onto
    streaming ``Iterator[Job]`` producers; the synthetic
    :meth:`GoogleTraceGenerator.iter_jobs` honours the same contract, and
    ``ClusterSimulator.submit_job_stream`` consumes either without
    materializing the workload.
"""

from repro.simulation.events import EventManager, EventType, SimulationEvent
from repro.simulation.simulator import (
    ClusterSimulator,
    SimulationConfig,
    SimulationResult,
    verify_placement_conservation,
)
from repro.simulation.trace import GoogleTraceGenerator, TraceConfig
from repro.simulation.ingest import (
    ALIBABA_SCHEMA,
    GOOGLE_SCHEMA,
    SCHEMAS,
    TraceSchema,
    read_trace,
    write_jobs_csv,
)
from repro.simulation.workload import (
    fill_cluster_to_utilization,
    make_job_of_short_tasks,
    make_single_large_job,
)
from repro.simulation.metrics import (
    MetricsSummary,
    collect_metrics,
    input_data_locality,
)
from repro.simulation.failures import FailureEvent, FailureInjector, FailureSchedule

__all__ = [
    "ClusterSimulator",
    "SimulationConfig",
    "SimulationResult",
    "EventManager",
    "EventType",
    "SimulationEvent",
    "verify_placement_conservation",
    "FailureEvent",
    "FailureInjector",
    "FailureSchedule",
    "GoogleTraceGenerator",
    "TraceConfig",
    "ALIBABA_SCHEMA",
    "GOOGLE_SCHEMA",
    "SCHEMAS",
    "TraceSchema",
    "read_trace",
    "write_jobs_csv",
    "fill_cluster_to_utilization",
    "make_job_of_short_tasks",
    "make_single_large_job",
    "MetricsSummary",
    "collect_metrics",
    "input_data_locality",
]
