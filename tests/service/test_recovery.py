"""Recovery-equivalence harness: ``kill -9`` the server, restart with
``--recover``, and prove the recovered service is equivalent to a
fault-free oracle run of the same client script (ISSUE 10 tentpole).

Each matrix case arms a :class:`~repro.chaos.CrashInjector` inside a real
``serve`` subprocess (``--chaos-crash POINT:HIT[:TEAR]``), so the process
dies by SIGKILL at a chosen instant of the durability protocol -- while
appending the admission record (optionally tearing it), between applying
admitted records, while appending the round record, between that append
and the return of the round's sync (the record whole, or cut back to a
prefix as a power loss may leave an unsynced tail), or mid-snapshot.  One
extra case kills from outside at a random-ish time.  The client then
restarts the server against the same state directory, blindly resubmits
every job under its original idempotency key, and asserts:

* every job ends up with exactly its task count placed -- never more
  (no double placement of deduplicated resubmissions), matching the
  fault-free oracle;
* ``accepted == placed + pending + rejected`` holds at the recovered
  server's drain (exit code 0);
* a torn final record is reported dropped, never half-applied.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

JOBS = 6
TASKS_PER_JOB = 2


def serve_argv(state_dir, extra=()):
    return [
        sys.executable, "-m", "repro.cli.main", "serve",
        "--machines", "8",
        "--round-interval", "0.01",
        "--time-scale", "0.01",
        "--snapshot-interval-rounds", "2",
        "--serve-seconds", "60",
        "--state-dir", str(state_dir),
        *extra,
    ]


def spawn_server(state_dir, extra=()):
    env = dict(os.environ)
    repo_src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
    )
    env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        serve_argv(state_dir, extra),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    port = None
    preamble = []
    while True:
        line = proc.stdout.readline()
        if not line:
            # Died before the handshake (e.g. crash during the initial
            # snapshot); the caller decides whether that was expected.
            return proc, None, preamble
        line = line.strip()
        preamble.append(line)
        if line.startswith("serving on "):
            port = int(line.rsplit(":", 1)[1])
            return proc, port, preamble


class Client:
    """Minimal blocking JSON-lines client for the harness."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=20)
        self.file = self.sock.makefile("r", encoding="utf-8")

    def send(self, payload) -> None:
        self.sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")

    def recv(self):
        line = self.file.readline()
        if not line:
            raise ConnectionError("server hung up")
        return json.loads(line)

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass


def submit_and_wait(client: Client, key: str, request_id: int):
    """Submit one keyed job and wait until all its tasks are placed.

    Returns ``(task_ids, placed_ids)``.  Raises ConnectionError if the
    server dies mid-exchange (the crash cases).
    """
    client.send({
        "op": "submit", "tasks": TASKS_PER_JOB, "job_type": "service",
        "key": key, "id": request_id,
    })
    task_ids: set = set()
    placed: set = set()
    acked = False
    while not acked or placed != task_ids:
        event = client.recv()
        kind = event.get("event")
        if kind == "ack" and event.get("id") == request_id:
            acked = True
            assert not event.get("error"), event
            task_ids = set(event.get("task_ids", []))
            placed |= set(event.get("placed_task_ids", []))
        elif kind == "placement":
            assert event["task_id"] not in placed, (
                f"task {event['task_id']} placed twice"
            )
            if event["task_id"] in task_ids or not acked:
                placed.add(event["task_id"])
    return task_ids, placed


def drive_workload(port: int):
    """Submit the whole keyed workload; stop at the first connection loss.

    Returns ``(completed_keys, ledger_or_None)``: keys whose placements
    were all observed before any crash.
    """
    completed = []
    client = Client(port)
    try:
        for index in range(JOBS):
            submit_and_wait(client, f"job-{index}", index)
            completed.append(f"job-{index}")
        client.send({"op": "ledger", "id": 100})
        while True:
            event = client.recv()
            if event.get("event") == "ledger":
                return completed, event
    except (ConnectionError, OSError):
        return completed, None
    finally:
        client.close()


def resubmit_all_and_finish(port: int):
    """Blindly resubmit every key, await full placement, return the ledger
    and final stats from the recovered server."""
    client = Client(port)
    try:
        for index in range(JOBS):
            submit_and_wait(client, f"job-{index}", 200 + index)
        client.send({"op": "ledger", "id": 300})
        ledger = None
        while ledger is None:
            event = client.recv()
            if event.get("event") == "ledger":
                ledger = event
        client.send({"op": "stats", "id": 301})
        stats = None
        while stats is None:
            event = client.recv()
            if event.get("event") == "stats":
                stats = event
        client.send({"op": "shutdown", "id": 302})
        client.recv()  # shutdown ack
        return ledger, stats
    finally:
        client.close()


def oracle_ledger(tmp_path):
    """Fault-free run of the same workload: the equivalence baseline."""
    state_dir = tmp_path / "oracle"
    proc, port, _ = spawn_server(state_dir)
    assert port is not None
    try:
        completed, ledger = drive_workload(port)
        assert len(completed) == JOBS
        assert ledger is not None
        client = Client(port)
        client.send({"op": "shutdown", "id": 1})
        client.recv()
        client.close()
        assert proc.wait(timeout=30) == 0
        return ledger
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def assert_equivalent(ledger, stats, oracle):
    """The recovered end state matches the fault-free oracle."""
    assert set(ledger["keys"]) == set(oracle["keys"])
    for key, entry in ledger["keys"].items():
        assert len(entry["task_ids"]) == TASKS_PER_JOB, (key, entry)
        assert sorted(entry["placed"]) == sorted(entry["task_ids"]), (
            f"{key}: placed {entry['placed']} != tasks {entry['task_ids']}"
        )
        oracle_entry = oracle["keys"][key]
        assert len(entry["placed"]) == len(oracle_entry["placed"])
    assert stats["conserved"], stats
    assert stats["accepted"] == JOBS * TASKS_PER_JOB
    assert stats["placed"] == JOBS * TASKS_PER_JOB
    assert stats["pending"] == 0 and stats["rejected"] == 0


#: The seeded SIGKILL matrix: (crash spec, whether a torn tail must be
#: reported dropped by recovery).  Hits are chosen so each point actually
#: fires mid-workload: the initial start() snapshot is mid_snapshot hit 1,
#: so hit 3 lands on a steady-state snapshot; admissions/rounds begin at
#: hit 1 once clients submit.
CRASH_MATRIX = [
    ("admit_append:2", False),
    ("admit_append:3:10", True),
    ("round_append:2", False),
    ("round_append:3:6", True),
    ("round_sync:2", False),
    ("round_sync:3:6", True),
    ("mid_drain:2", False),
    ("mid_snapshot:3", False),
]


@pytest.mark.parametrize("spec,expect_torn", CRASH_MATRIX)
def test_sigkill_then_recover_matches_oracle(tmp_path, spec, expect_torn):
    oracle = oracle_ledger(tmp_path)
    state_dir = tmp_path / "crash"

    proc, port, _ = spawn_server(state_dir, extra=["--chaos-crash", spec])
    assert port is not None, "server must survive startup for this matrix"
    completed_before = []
    try:
        completed_before, _ = drive_workload(port)
        # The armed crash point must actually have fired: SIGKILL, not a
        # graceful exit.
        proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL, (
            f"expected SIGKILL death, got rc={proc.returncode}"
        )
        assert len(completed_before) < JOBS, (
            "crash fired too late to interrupt the workload"
        )
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    # Restart against the same state dir and finish the workload.
    proc2, port2, preamble = spawn_server(state_dir, extra=["--recover"])
    assert port2 is not None, f"recovery failed: {preamble}"
    recovery_line = next(
        (line for line in preamble if line.startswith("recovered from")), None
    )
    assert recovery_line is not None, preamble
    if expect_torn:
        assert "torn tail dropped" in recovery_line, recovery_line
    try:
        ledger, stats = resubmit_all_and_finish(port2)
        assert_equivalent(ledger, stats, oracle)
        assert proc2.wait(timeout=30) == 0, proc2.stderr.read()
    finally:
        if proc2.poll() is None:
            proc2.kill()
            proc2.wait()


def test_external_sigkill_then_recover_matches_oracle(tmp_path):
    """No injector: kill -9 from outside at an arbitrary busy moment."""
    oracle = oracle_ledger(tmp_path)
    state_dir = tmp_path / "crash"
    proc, port, _ = spawn_server(state_dir)
    assert port is not None
    try:
        client = Client(port)
        # Fire the first half of the workload without waiting, then kill
        # while the server is mid-flight.
        for index in range(JOBS):
            client.send({
                "op": "submit", "tasks": TASKS_PER_JOB,
                "job_type": "service", "key": f"job-{index}", "id": index,
            })
        time.sleep(0.05)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        client.close()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    proc2, port2, preamble = spawn_server(state_dir, extra=["--recover"])
    assert port2 is not None, f"recovery failed: {preamble}"
    try:
        ledger, stats = resubmit_all_and_finish(port2)
        assert_equivalent(ledger, stats, oracle)
        assert proc2.wait(timeout=30) == 0
    finally:
        if proc2.poll() is None:
            proc2.kill()
            proc2.wait()


def test_loadgen_drives_load_across_the_crash(tmp_path):
    """The loadgen satellite: reconnect-and-resubmit with idempotency keys
    keeps a multi-client closed loop running across a kill -9 + recovery,
    with no double placement."""
    import asyncio

    from repro.service.loadgen import run_loadgen

    state_dir = tmp_path / "state"
    # Deterministic crash: the server SIGKILLs itself while appending the
    # 3rd admission record -- guaranteed mid-workload with no timing
    # races, even if both clients' submissions coalesce pairwise (two
    # closed-loop clients x 4 sequential jobs = at least 4 admit batches).
    proc, port, _ = spawn_server(
        state_dir, extra=["--chaos-crash", "admit_append:3"]
    )
    assert port is not None
    endpoint_box = {"port": port}

    async def scenario():
        loadgen_task = asyncio.create_task(run_loadgen(
            "127.0.0.1", endpoint_box["port"],
            clients=2, jobs_per_client=4, tasks_per_job=4,
            duration=None, job_type="service",
            idempotency_keys=True, reconnect=True,
            endpoint=lambda: ("127.0.0.1", endpoint_box["port"]),
        ))
        await asyncio.get_running_loop().run_in_executor(None, proc.wait)
        assert proc.returncode == -signal.SIGKILL
        proc2, port2, preamble = await asyncio.get_running_loop().run_in_executor(
            None, lambda: spawn_server(state_dir, extra=["--recover"])
        )
        assert port2 is not None, f"recovery failed: {preamble}"
        endpoint_box["port"] = port2
        try:
            result = await asyncio.wait_for(loadgen_task, timeout=60)
        finally:
            if proc2.poll() is None:
                proc2.kill()
                proc2.wait()
        return result

    try:
        result = asyncio.run(scenario())
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    assert result.errors == 0, result
    assert result.tasks_placed == 2 * 4 * 4
    assert result.reconnects >= 1, "the crash window missed the loadgen run"
    stats = result.service_stats
    assert stats is not None and stats["conserved"], stats
