"""``serve`` with spans recorded around every layer, from the outside.

``run.py --trace 1`` spawns this file in place of ``python -m
repro.cli.main``, with the same flags and the same process topology.  It
wraps the layers' public methods at class level, by dotted name, and then
calls the real ``repro.cli.main`` entry in its own process -- the traced
server *is* the program, not a reconstruction of it.  Nothing under
``src/`` knows about tracing.

A span records its name, ``time.monotonic()`` start and end (system-wide
on Linux, so they join with the client's stamps), the ``thread_time`` it
consumed, its parent on the same thread, the id of the scheduling round
it belongs to, and a few counts read off the call's arguments and result.
Spans stay in memory and are written to ``--spans-out`` after the server
has drained.

A wrap target that no longer exists is skipped and listed under
``missing``; an attribute reader that no longer fits is counted under
``attr_errors``.  A later refactor therefore thins the per-layer view
instead of breaking the benchmark.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

AttrReader = Callable[[tuple, dict, Any], Dict[str, Any]]


def _decision_attrs(args, kwargs, decision) -> Dict[str, Any]:
    attrs = {
        "unscheduled": len(decision.unscheduled),
        "degraded": bool(decision.degraded),
    }
    result = decision.solver_result
    if result is not None:
        stats = result.statistics
        attrs["price_refine_s"] = stats.price_refine_seconds
        attrs["cells_solved"] = stats.cells_solved
        attrs["migrations"] = stats.cross_cell_migrations
    return attrs


def _apply_attrs(args, kwargs, _result) -> Dict[str, Any]:
    decision = kwargs["decision"] if "decision" in kwargs else args[2]
    return {"placed": list(decision.placements)}


def _update_attrs(args, kwargs, _result) -> Dict[str, Any]:
    stats = args[0].last_update_stats
    return {"mode": stats.mode, "arcs_patched": stats.arcs_patched}


def _solve_attrs(args, kwargs, _result) -> Dict[str, Any]:
    changes = kwargs.get("changes", args[2] if len(args) > 2 else None)
    return {"delta": changes is not None}


def _wal_attrs(args, kwargs, _result) -> Dict[str, Any]:
    return {"bytes_total": args[0].bytes_appended}


#: (dotted target, span name, starts a round, attribute reader).
TARGETS: List[Tuple[str, str, bool, Optional[AttrReader]]] = [
    ("repro.core.scheduler.FirmamentScheduler.schedule",
     "sched.schedule", True, _decision_attrs),
    ("repro.core.scheduler.FirmamentScheduler.apply",
     "sched.apply", False, _apply_attrs),
    ("repro.core.sharding.ShardedScheduler.schedule",
     "shard.schedule", True, _decision_attrs),
    ("repro.core.sharding.ShardedScheduler.apply",
     "sched.apply", False, _apply_attrs),
    ("repro.core.graph_manager.GraphManager.update",
     "graph.update", False, _update_attrs),
    ("repro.solvers.dual_executor.DualAlgorithmExecutor.solve",
     "solver.solve", False, _solve_attrs),
    ("repro.solvers.relaxation.RelaxationSolver.solve",
     "solver.relax", False, None),
    ("repro.solvers.incremental.IncrementalCostScalingSolver.solve",
     "solver.cs", False, _solve_attrs),
    ("repro.service.durability.DurabilityLayer.log_admission",
     "wal.admit", False, _wal_attrs),
    ("repro.service.durability.DurabilityLayer.log_round",
     "wal.round", False, _wal_attrs),
    ("repro.service.durability.DurabilityLayer.write_snapshot",
     "wal.snapshot", False, None),
    ("repro.cluster.state.ClusterState.submit_job",
     "cluster.submit_job", False, None),
    ("repro.cluster.state.ClusterState.place_task",
     "cluster.place_task", False, None),
    ("repro.cluster.state.ClusterState.complete_task",
     "cluster.complete_task", False, None),
]


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: ``[id, parent, name, round, start, end, cpu_seconds, attrs]``.
        self.spans: List[list] = []
        self.missing: List[str] = []
        self.attr_errors = 0
        self._ids = itertools.count(1)
        self._round = 0
        self._local = threading.local()

    def _stack(self) -> List[int]:
        """Ids of the spans open on the calling thread, outermost first."""
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def wrap(self, func: Callable, name: str, new_round: bool,
             read_attrs: Optional[AttrReader]) -> Callable:
        """Return ``func`` wrapped in a span named ``name``."""
        recorder = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = recorder._stack()
            if new_round:
                recorder._round += 1
            span = [next(recorder._ids), stack[-1] if stack else 0, name,
                    recorder._round, 0.0, 0.0, 0.0, {}]
            stack.append(span[0])
            cpu_start = time.thread_time()
            span[4] = time.monotonic()
            try:
                result = func(*args, **kwargs)
            finally:
                span[5] = time.monotonic()
                span[6] = time.thread_time() - cpu_start
                stack.pop()
                recorder.spans.append(span)
            if read_attrs is not None:
                try:
                    span[7] = read_attrs(args, kwargs, result)
                except Exception:
                    # The layer's shape changed under the reader: keep the
                    # span, lose its counts, and say so.
                    recorder.attr_errors += 1
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap every resolvable target at class level; list the rest."""
        for dotted, name, new_round, read_attrs in targets:
            module_name, class_name, method = dotted.rsplit(".", 2)
            try:
                owner = getattr(importlib.import_module(module_name), class_name)
                func = getattr(owner, method)
            except (ImportError, AttributeError):
                self.missing.append(dotted)
                continue
            setattr(owner, method, self.wrap(func, name, new_round, read_attrs))

    def dump(self, path: str) -> None:
        """Write everything recorded so far as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "missing": self.missing,
                "attr_errors": self.attr_errors,
                "spans": self.spans,
            }, handle)


def main(argv: Optional[List[str]] = None) -> int:
    """Install the wrappers, run the real CLI, write the spans."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans-out", required=True, metavar="FILE")
    parser.add_argument(
        "--wrap-extra", action="append", default=[], metavar="DOTTED",
        help="one more module.Class.method to wrap (the self-test passes a "
             "name that does not exist)",
    )
    args, serve_argv = parser.parse_known_args(argv)

    recorder = Recorder()
    recorder.install(
        TARGETS + [(dotted, "extra", False, None) for dotted in args.wrap_extra]
    )
    from repro.cli.main import main as cli_main

    try:
        return cli_main(serve_argv)
    finally:
        recorder.dump(args.spans_out)


if __name__ == "__main__":
    sys.exit(main())
