"""Per-layer metrics: server spans joined to client stamps on the task id.

The traced server's spans and the client's send / ack / placement stamps
share one clock (``time.monotonic()``), so a placement is a chain of edges

    due -> [inbox wait] -> schedule span -> apply span -> [notify] -> receipt

and a slow placement is a long edge, not a log hunt.  Every metric of
``PER_LAYER`` is always reported; a layer the workload does not exercise
reads 0.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Tuple

from estimators import percentile, self_times

# Span fields, as ``traced_serve.Recorder`` writes them.
_ID, _PARENT, _NAME, _ROUND, _START, _END, _CPU, _ATTRS = range(8)
_ROUND_SPANS = ("sched.schedule", "shard.schedule")

#: Span-duration metrics, each reported as a ``.p50`` and a ``.p95`` in ms.
_SPREADS = (
    "svc.ack_ms", "svc.inbox_wait_ms", "svc.notify_ms",
    "sched.schedule_ms", "sched.self_ms", "sched.apply_ms",
    "graph.update_ms",
    "solver.solve_ms", "solver.relax_ms", "solver.cs_ms",
    "shard.schedule_ms", "shard.straggler_ms", "shard.self_ms",
    "wal.admit_ms", "wal.round_ms", "wal.snapshot_ms",
)

#: name -> unit of every per-layer metric, in print order.
PER_LAYER: Dict[str, str] = {
    f"{name}.{quantile}": "ms"
    for name in _SPREADS for quantile in ("p50", "p95")
} | {
    "svc.rounds_per_s": "1/s",
    "svc.tasks_per_round": "count",
    "svc.round_busy_ratio": "ratio",
    "svc.self_cpu_ms_per_task": "ms",
    "svc.evicted_clients": "count",
    "svc.error_events": "count",
    "sched.unscheduled_per_round": "count",
    "sched.degraded_rounds": "count",
    "graph.arcs_patched_per_round": "count",
    "graph.full_rebuild_ratio": "ratio",
    "solver.race_waste_ratio": "ratio",
    "solver.delta_solve_ratio": "ratio",
    "solver.price_refine_ms": "ms",
    "shard.cells_solved_per_round": "count",
    "shard.cross_cell_migrations": "count",
    "wal.snapshots": "count",
    "wal.bytes_per_task": "bytes",
    "wal.busy_ratio": "ratio",
    "cluster.mutate_us": "us",
    "cluster.mutations_per_round": "count",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
    "trace.missing": "count",
    "trace.attr_errors": "count",
}


def _ms(span: Sequence[Any]) -> float:
    return (span[_END] - span[_START]) * 1000.0


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def report(
    doc: Dict[str, Any],
    samples: List[Dict[str, float]],
    window: Tuple[float, float],
    cpu_seconds: float,
    placed_in_window: int,
    final_stats: Dict[str, Any],
    error_events: int,
    overhead_ratio: float,
) -> Dict[str, float]:
    """Compute every ``PER_LAYER`` metric of one traced run.

    Args:
        doc: The traced server's span document.
        samples: One dict per task due in the window and placed:
            ``task_id``, ``due``, ``sent``, ``acked``, ``placed``
            (monotonic seconds).
        window: ``(start, end)`` of the measured window, monotonic.
        cpu_seconds: Server process CPU consumed inside the window.
        placed_in_window: First placements received inside the window.
        final_stats: The server's ``stats`` reply at drain.
        error_events: ``error`` events the client received.
        overhead_ratio: Traced over untraced ``place_p50_ms``, minus one.
    """
    start, end = window
    length = end - start
    every = doc["spans"]
    spans = [s for s in every if start <= s[_START] < end]
    own = self_times([(s[_ID], s[_PARENT], s[_START], s[_END]) for s in every])
    by_name: Dict[str, List[list]] = {}
    for span in spans:
        by_name.setdefault(span[_NAME], []).append(span)
    children: Dict[int, List[list]] = {}
    for span in spans:
        children.setdefault(span[_PARENT], []).append(span)

    def named(*names: str) -> List[list]:
        return [s for name in names for s in by_name.get(name, ())]

    out = dict.fromkeys(PER_LAYER, 0.0)

    def spread(metric: str, values: Sequence[float]) -> None:
        if values:
            out[metric + ".p50"] = percentile(values, 50)
            out[metric + ".p95"] = percentile(values, 95)

    # -- the task's path: join client stamps to the round that placed it --
    schedule_of = {s[_ROUND]: s for s in every if s[_NAME] in _ROUND_SPANS}
    apply_of: Dict[int, list] = {}
    for span in every:
        if span[_NAME] == "sched.apply":
            for task_id in span[_ATTRS].get("placed", ()):
                apply_of.setdefault(task_id, span)
    acks, waits, notifies, accounted = [], [], [], []
    for sample in samples:
        acks.append((sample["acked"] - sample["sent"]) * 1000.0)
        applied = apply_of.get(sample["task_id"])
        scheduled = schedule_of.get(applied[_ROUND]) if applied else None
        if scheduled is None:
            continue
        wait = scheduled[_START] - sample["due"]
        notify = sample["placed"] - applied[_END]
        waits.append(wait * 1000.0)
        notifies.append(notify * 1000.0)
        explained = (
            wait + notify
            + (scheduled[_END] - scheduled[_START])
            + (applied[_END] - applied[_START])
        )
        accounted.append(_ratio(explained, sample["placed"] - sample["due"]))
    spread("svc.ack_ms", acks)
    spread("svc.inbox_wait_ms", waits)
    spread("svc.notify_ms", notifies)
    if accounted:
        out["trace.accounted_ratio"] = percentile(accounted, 50)

    # -- service: rounds, busy share, CPU outside every span --------------
    rounds = named(*_ROUND_SPANS)
    applies = named("sched.apply")
    roots = [s for s in spans if s[_PARENT] == 0]
    out["svc.rounds_per_s"] = _ratio(len(rounds), length)
    out["svc.tasks_per_round"] = _mean(
        [len(s[_ATTRS].get("placed", ())) for s in applies]
    )
    out["svc.round_busy_ratio"] = _ratio(
        sum(s[_END] - s[_START] for s in roots), length
    )
    out["svc.self_cpu_ms_per_task"] = _ratio(
        (cpu_seconds - sum(s[_CPU] for s in roots)) * 1000.0, placed_in_window
    )
    out["svc.evicted_clients"] = float(final_stats.get("evicted_clients", 0))
    out["svc.error_events"] = float(error_events)

    # -- scheduler, graph, solvers ----------------------------------------
    monolithic = named("sched.schedule")
    spread("sched.schedule_ms", [_ms(s) for s in monolithic])
    spread("sched.self_ms", [own[s[_ID]] * 1000.0 for s in monolithic])
    spread("sched.apply_ms", [_ms(s) for s in applies])
    out["sched.unscheduled_per_round"] = _mean(
        [s[_ATTRS].get("unscheduled", 0) for s in rounds]
    )
    out["sched.degraded_rounds"] = float(
        sum(1 for s in rounds if s[_ATTRS].get("degraded"))
    )

    updates = named("graph.update")
    spread("graph.update_ms", [_ms(s) for s in updates])
    out["graph.arcs_patched_per_round"] = _ratio(
        sum(s[_ATTRS].get("arcs_patched", 0) for s in updates), len(rounds)
    )
    out["graph.full_rebuild_ratio"] = _ratio(
        sum(1 for s in updates if s[_ATTRS].get("mode") == "full"), len(updates)
    )

    races = named("solver.solve")
    spread("solver.solve_ms", [_ms(s) for s in races])
    spread("solver.relax_ms", [_ms(s) for s in named("solver.relax")])
    spread("solver.cs_ms", [_ms(s) for s in named("solver.cs")])
    wasted = 0.0
    for race in races:
        legs = [_ms(leg) for leg in children.get(race[_ID], ())
                if leg[_NAME] in ("solver.relax", "solver.cs")]
        if len(legs) == 2:
            wasted += max(legs)
    out["solver.race_waste_ratio"] = _ratio(wasted, sum(_ms(s) for s in races))
    solves = races or named("solver.cs")
    out["solver.delta_solve_ratio"] = _ratio(
        sum(1 for s in solves if s[_ATTRS].get("delta")), len(solves)
    )
    out["solver.price_refine_ms"] = _mean(
        [s[_ATTRS].get("price_refine_s", 0.0) * 1000.0 for s in rounds]
    )

    # -- sharding -----------------------------------------------------------
    sharded = named("shard.schedule")
    spread("shard.schedule_ms", [_ms(s) for s in sharded])
    spread("shard.self_ms", [own[s[_ID]] * 1000.0 for s in sharded])
    spread("shard.straggler_ms", [
        max((_ms(cell) for cell in children.get(s[_ID], ())
             if cell[_NAME] == "solver.cs"), default=0.0)
        for s in sharded
    ])
    out["shard.cells_solved_per_round"] = _mean(
        [s[_ATTRS].get("cells_solved", 0) for s in sharded]
    )
    out["shard.cross_cell_migrations"] = float(
        sum(s[_ATTRS].get("migrations", 0) for s in sharded)
    )

    # -- durability -----------------------------------------------------------
    appends = named("wal.admit", "wal.round")
    snapshots = named("wal.snapshot")
    spread("wal.admit_ms", [_ms(s) for s in named("wal.admit")])
    spread("wal.round_ms", [_ms(s) for s in named("wal.round")])
    spread("wal.snapshot_ms", [_ms(s) for s in snapshots])
    out["wal.snapshots"] = float(len(snapshots))
    totals = [s[_ATTRS]["bytes_total"] for s in appends
              if "bytes_total" in s[_ATTRS]]
    if totals:
        out["wal.bytes_per_task"] = _ratio(
            max(totals) - min(totals), placed_in_window
        )
    out["wal.busy_ratio"] = _ratio(
        sum(s[_END] - s[_START] for s in appends + snapshots), length
    )

    # -- cluster state ----------------------------------------------------------
    mutations = named(
        "cluster.submit_job", "cluster.place_task", "cluster.complete_task"
    )
    out["cluster.mutate_us"] = _mean([_ms(s) * 1000.0 for s in mutations])
    out["cluster.mutations_per_round"] = _ratio(len(mutations), len(rounds))

    out["trace.overhead_ratio"] = overhead_ratio
    out["trace.missing"] = float(len(doc["missing"]))
    out["trace.attr_errors"] = float(doc["attr_errors"])
    return out
