"""Crash-recovery timing: WAL append/replay rates and snapshot sizes.

The durability layer (:mod:`repro.service.durability`) buys crash safety
with exactly two mechanical costs: two framed appends and one fsync per
round (the ``round`` record's sync covers the ``admit`` record before it),
and a periodic full-state snapshot, written from the state itself with
each finished job encoded once.  This benchmark measures both directly,
without a service in the way:

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
  ``==`` to the original;
* **snapshot cost against history (ROADMAP item 9(a))** -- at 500, 5 000
  and 20 000 finished 4-task jobs behind ten running ones: the file's
  bytes, the CPU ms of the first snapshot (which encodes every job) and
  of a steady one (which reuses the finished jobs' encodings), and the
  ``tracemalloc`` peak a steady snapshot allocates above what it found.
  The file must be the oracle's: ``json.dumps`` of
  :func:`snapshot_cluster_state` and the ledger, byte for byte.

The assertions pin correctness (equivalence, counts, bytes), never
absolute speed -- the printed rates are the EXPERIMENTS.md numbers.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
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
)
from tests.service.test_durability import oracle_bytes

#: Jobs in the replay workload; each contributes one admit record (with the
#: previous job's completions) and one round record (its placements).
NUM_JOBS = 64 * bench_scale()
TASKS_PER_JOB = 4

#: Snapshot-size grid (ISSUE 10: 128 and 512 machines).
SNAPSHOT_MACHINES = (128, 512)

#: Finished jobs behind the history-growth table, and the running ones.
HISTORY_JOBS = (500, 5_000, 20_000)
LIVE_JOBS = 10


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
        layer.write_snapshot(build_cluster_state(num_machines), Ledger(), 0.0)
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
    layer.write_snapshot(build_cluster_state(8), Ledger(), 0.0)
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
        path = layer.write_snapshot(state, Ledger(), clock=1.0)
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


def _history(num_jobs: int):
    """``num_jobs`` finished jobs behind ``LIVE_JOBS`` running ones, each
    of ``TASKS_PER_JOB`` tasks, and the ledger a service would hold."""
    state = build_cluster_state(128)
    ledger = Ledger()
    machines = len(state.topology.machines)
    for index in range(num_jobs + LIVE_JOBS):
        job = make_job(
            job_id=index + 1,
            num_tasks=TASKS_PER_JOB,
            task_id_offset=(index + 1) * 1000,
            submit_time=float(index),
        )
        state.submit_job(job)
        ledger.accepted += TASKS_PER_JOB
        ledger.idempotency[f"bench-{index}"] = job.job_id
        for task in job.tasks:
            state.place_task(task.task_id, index % machines, now=index + 0.5)
            ledger.placed_ids.add(task.task_id)
        if index < num_jobs:
            for task in job.tasks:
                state.complete_task(task.task_id, now=index + 1.0)
                ledger.completions += 1
    ledger.placed = len(ledger.placed_ids)
    return state, ledger


def _cpu_ms(write) -> float:
    start = time.process_time()
    write()
    return (time.process_time() - start) * 1000


def test_snapshot_cost_against_history(tmp_path):
    """Bytes, CPU ms and temporary memory of a snapshot as history grows."""
    rows = []
    for num_jobs in HISTORY_JOBS:
        state, ledger = _history(num_jobs)
        layer = DurabilityLayer(tmp_path / f"h{num_jobs}", fsync=False)

        def write():
            return layer.write_snapshot(state, ledger, clock=1.0)

        first_ms = _cpu_ms(write)
        steady_ms = statistics.median(_cpu_ms(write) for _ in range(3))
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            path = write()
            temporary = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        layer.close()
        assert path.read_bytes() == oracle_bytes(layer, state, ledger, 1.0), (
            f"snapshot at {num_jobs} finished jobs is not the oracle's"
        )
        rows.append([
            str(num_jobs),
            f"{path.stat().st_size / 1024:.0f}",
            f"{first_ms:.1f}",
            f"{steady_ms:.1f}",
            f"{temporary / (1 << 20):.2f}",
        ])

    print()
    print(
        f"Snapshot cost against history ({TASKS_PER_JOB}-task jobs, "
        f"{LIVE_JOBS} running, fsync off)"
    )
    print(format_table(
        ["finished jobs", "size [KiB]", "first [CPU ms]", "steady [CPU ms]",
         "steady temp peak [MiB]"],
        rows,
    ))
