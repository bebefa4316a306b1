"""Crash-recovery timing: WAL append/replay rates and snapshot sizes.

The durability layer (:mod:`repro.service.durability`) buys crash safety
with exactly two mechanical costs: two framed appends and one fsync per
round (the ``round`` record's sync covers the ``admit`` record before it),
and a periodic full-state snapshot.  This benchmark measures both
directly, without a service in the way:

* **WAL append rate** -- framed ``admit``/``round`` records appended to a
  real segment file round by round, fsync on (the production cost) and
  off (pure serialization, isolating disk latency), with the syncs and
  the WAL milliseconds each round paid;
* **log replay rate** -- :func:`repro.service.durability.recover` replays
  the same records through the service's two appliers; the replayed
  state must equal an in-memory oracle that applied the identical
  operations (``ClusterState.__eq__``), and the conservation counters
  must balance;
* **snapshot size and restore time at 128/512 machines** -- a half-loaded
  cluster snapshotted through :meth:`DurabilityLayer.write_snapshot`
  (temp file + atomic rename, fsync on), then restored and compared
  ``==`` to the original.

The assertions pin correctness (equivalence, counts), never absolute
speed -- the printed rates are the EXPERIMENTS.md numbers.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from benchmarks.common import bench_scale, build_cluster_state, make_job
from repro.analysis.reporting import format_table
from repro.service.durability import (
    COMPLETE,
    SUBMIT,
    AdmitRecord,
    DurabilityLayer,
    Ledger,
    RoundRecord,
    recover,
    snapshot_cluster_state,
)

#: Jobs in the replay workload; each contributes one admit record (with the
#: previous job's completions) and one round record (its placements).
NUM_JOBS = 64 * bench_scale()
TASKS_PER_JOB = 4

#: Snapshot-size grid (ISSUE 10: 128 and 512 machines).
SNAPSHOT_MACHINES = (128, 512)


def _workload(num_machines: int) -> List[Tuple[str, Dict]]:
    """Build the record stream: admit (prior completions + submit) then
    round (placements), slots recycled so the cluster never overflows."""
    records: List[Tuple[str, Dict]] = []
    prev_completions: List[Tuple[int, float]] = []
    for index in range(NUM_JOBS):
        now_admit = index * 0.01
        now_round = now_admit + 0.005
        job = make_job(
            job_id=index + 1,
            num_tasks=TASKS_PER_JOB,
            task_id_offset=(index + 1) * 1000,
        )
        events = [(COMPLETE, completion) for completion in prev_completions]
        events.append((SUBMIT, (f"bench-{index}", job)))
        records.append(("admit", AdmitRecord(now_admit, events).to_payload()))
        machine_id = index % num_machines
        placements = {task.task_id: machine_id for task in job.tasks}
        records.append(
            ("round", RoundRecord(now_round, placements).to_payload())
        )
        prev_completions = [(task.task_id, now_round) for task in job.tasks]
    return records


def _oracle_state(num_machines: int):
    """Apply the same workload in memory: the replay-equivalence baseline."""
    state = build_cluster_state(num_machines)
    prev: List[Tuple[int, float]] = []
    for index in range(NUM_JOBS):
        now_admit = index * 0.01
        now_round = now_admit + 0.005
        for task_id, start in prev:
            state.complete_task(task_id, now_admit)
        job = make_job(
            job_id=index + 1,
            num_tasks=TASKS_PER_JOB,
            task_id_offset=(index + 1) * 1000,
        )
        state.submit_job(job)
        machine_id = index % num_machines
        for task in job.tasks:
            state.place_task(task.task_id, machine_id, now_round)
        prev = [(task.task_id, now_round) for task in job.tasks]
    return state


def _append_all(layer: DurabilityLayer, records) -> float:
    start = time.perf_counter()
    for kind, payload in records:
        if kind == "admit":
            layer.log_admission(payload)
        else:
            layer.log_round(payload)
    return time.perf_counter() - start


def test_wal_append_and_replay_rates(tmp_path, benchmark):
    """Append rate (fsync on/off) and replay rate, with replay equivalence."""
    num_machines = 128
    records = _workload(num_machines)

    rates = {}
    for fsync in (True, False):
        directory = tmp_path / ("fsync-on" if fsync else "fsync-off")
        layer = DurabilityLayer(directory, fsync=fsync)
        layer.write_snapshot(
            snapshot_cluster_state(build_cluster_state(num_machines)),
            Ledger(), 0.0,
        )
        elapsed = _append_all(layer, records)
        layer.close()
        rates[fsync] = (
            len(records) / elapsed,
            layer.bytes_appended / elapsed,
            layer.syncs / NUM_JOBS,
            elapsed * 1000 / NUM_JOBS,
        )
    # Group commit: one sync per (admit, round) pair, none with fsync off.
    assert rates[True][2] == 1.0 and rates[False][2] == 0.0

    # Replay the fsync'd directory and prove equivalence to the oracle.
    replay_start = time.perf_counter()
    recovered = recover(tmp_path / "fsync-on")
    replay_elapsed = time.perf_counter() - replay_start
    assert recovered.replayed_records == len(records)
    assert not recovered.torn_tail_dropped
    assert recovered.state == _oracle_state(num_machines)
    ledger = recovered.ledger
    assert ledger.accepted == NUM_JOBS * TASKS_PER_JOB
    assert ledger.placed == NUM_JOBS * TASKS_PER_JOB
    assert ledger.completions == (NUM_JOBS - 1) * TASKS_PER_JOB
    assert ledger.rounds == NUM_JOBS

    replay_rate = recovered.replayed_records / max(replay_elapsed, 1e-9)
    print()
    print(
        f"WAL rates ({NUM_JOBS} jobs x {TASKS_PER_JOB} tasks = "
        f"{len(records)} records, {num_machines} machines)"
    )
    print(format_table(
        ["path", "records/s", "MiB/s", "syncs/round", "WAL ms/round"],
        [
            ["append, fsync on", f"{rates[True][0]:.0f}",
             f"{rates[True][1] / (1 << 20):.2f}",
             f"{rates[True][2]:.2f}", f"{rates[True][3]:.3f}"],
            ["append, fsync off", f"{rates[False][0]:.0f}",
             f"{rates[False][1] / (1 << 20):.2f}",
             f"{rates[False][2]:.2f}", f"{rates[False][3]:.3f}"],
            ["replay (recover)", f"{replay_rate:.0f}", "-", "-", "-"],
        ],
    ))

    # pytest-benchmark kernel: one round's WAL work on the serving path --
    # the admit append, the round append and the one sync behind both.
    layer = DurabilityLayer(tmp_path / "kernel", fsync=True)
    layer.write_snapshot(
        snapshot_cluster_state(build_cluster_state(8)), Ledger(), 0.0
    )
    admit, applied = records[0][1], records[1][1]

    def one_round() -> None:
        layer.log_admission(admit)
        layer.log_round(applied)

    try:
        benchmark(one_round)
    finally:
        layer.close()


def test_snapshot_size_and_restore_at_scale(tmp_path):
    """Snapshot bytes, write time, and restore time at 128/512 machines."""
    rows = []
    for num_machines in SNAPSHOT_MACHINES:
        state = build_cluster_state(num_machines, utilization=0.5)
        layer = DurabilityLayer(tmp_path / f"m{num_machines}", fsync=True)
        write_start = time.perf_counter()
        path = layer.write_snapshot(
            snapshot_cluster_state(state), Ledger(),
            clock=1.0,
        )
        write_elapsed = time.perf_counter() - write_start
        layer.close()
        size = path.stat().st_size

        restore_start = time.perf_counter()
        recovered = recover(tmp_path / f"m{num_machines}")
        restore_elapsed = time.perf_counter() - restore_start
        assert recovered.replayed_records == 0
        assert recovered.state == state, (
            f"snapshot round trip diverged at {num_machines} machines"
        )
        rows.append([
            str(num_machines),
            str(len(state.tasks)),
            f"{size / 1024:.1f}",
            f"{write_elapsed * 1000:.1f}",
            f"{restore_elapsed * 1000:.1f}",
        ])

    print()
    print("Snapshot size and restore time (50% slot utilization, fsync on)")
    print(format_table(
        ["machines", "tasks", "size [KiB]", "write [ms]", "restore [ms]"],
        rows,
    ))
