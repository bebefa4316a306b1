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
    order, interpreted by a :class:`~repro.simulation.simulator.ClusterSimulator`
    that mutates cluster state and drives the scheduler off the event
    clock.  Event kinds: ``TASK_SUBMIT``, ``TASK_END_RUNTIME``,
    ``ADD_MACHINE``, ``REMOVE_MACHINE`` and ``SCHEDULER_WAKE`` (a deferred
    batch-mode retry).  Same-timestamp events are FIFO unless a
    ``tie_break_seed`` randomizes the interleaving (the fuzz suite's hook).
    A round is atomic, as in ``serve``: it is decided and applied at its
    charged finish (``start + algorithm_runtime * runtime_scale``), through
    :func:`~repro.core.scheduler.apply_decision`, and every event falling
    inside the charged solve is admitted after the apply, all of them
    before the next round starts.

Drain and void rules
    Every recorded scheduler round is either *applied* or *voided* --
    never silently lost.  With ``drain=True`` (default) the run continues
    past ``max_time`` until queued work settles, admitting everything but
    submissions.  With ``drain=False``, events past ``max_time`` are
    skipped.  A round whose finish falls outside the window (past
    ``max_time`` without draining, or past the hard stop) is voided when it
    is decided -- the record is marked ``voided`` and counted in
    ``rounds_voided`` -- and it is the run's last round.  The invariant --
    recorded placements == applied + voided -- is checked by
    :func:`~repro.simulation.simulator.verify_placement_conservation`.

Ingestion schema
    :mod:`repro.simulation.ingest` maps column-schema CSV traces
    (Google/Alibaba presets or a custom :class:`TraceSchema`) onto
    streaming ``Iterator[Job]`` producers; the synthetic
    :meth:`GoogleTraceGenerator.iter_jobs` honours the same contract, and
    ``ClusterSimulator.submit_job_stream`` consumes either without
    materializing the workload.
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "simulator": (
        "ClusterSimulator", "SimulationConfig", "SimulationResult",
        "verify_placement_conservation",
    ),
    "events": ("EventManager", "EventType", "SimulationEvent"),
    "failures": ("FailureEvent", "FailureInjector", "FailureSchedule"),
    "trace": ("GoogleTraceGenerator", "TraceConfig"),
    "ingest": (
        "ALIBABA_SCHEMA", "GOOGLE_SCHEMA", "SCHEMAS", "TraceSchema",
        "read_trace", "write_jobs_csv",
    ),
    "workload": (
        "fill_cluster_to_utilization", "make_job_of_short_tasks",
        "make_single_large_job",
    ),
    "metrics": ("MetricsSummary", "collect_metrics", "input_data_locality"),
})
