#!/usr/bin/env python3
"""Where a cold start's set-up time goes: launch -> handshake -> prefill placed.

    python3 benchmarks/setup_probe.py --workload steady_small --pairs 6 \\
        --launches 7 [--baseline-src OTHER/src]

launches ``python -m repro.cli.main serve`` with the e2e benchmark's
server flags for a workload (``benchmarks/e2e/loadgen.py``), waits for its
``serving on`` line, submits the workload's prefill job and waits until
every task of it is placed; then shuts the server down.  Each launch gives
two intervals:

* **launch -> handshake**: interpreter start, imports, argument parsing,
  cluster and scheduler construction (the import closure lives here);
* **handshake -> placed**: the prefill request and the service's first
  rounds -- the from-scratch solve lives here.

Their sum is what ``benchmarks/e2e/run.py`` reports as ``setup_s`` (that
one also subtracts host steal).  The server runs with
``PYTHONDONTWRITEBYTECODE=1`` and no ``__pycache__`` is written, as in a
fresh checkout: every launch compiles what it imports.

With ``--baseline-src`` each pair launches the other tree's ``src`` and
this checkout's, alternating which goes first, and a pair's reading per
tree is the median of ``--launches`` launches; the table gives the
quartiles of those pair medians and how many pairs this checkout won.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "e2e"))

from loadgen import WORKLOADS, Workload, prefill_request  # noqa: E402

SRC = HERE.parent / "src"


def launch(src: Path, workload: Workload) -> Tuple[float, float]:
    """One cold start: (launch -> handshake, handshake -> prefill placed) s."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [
        sys.executable, "-m", "repro.cli.main", "serve",
        "--machines", str(workload.machines),
        "--slots-per-machine", str(workload.slots),
        "--serve-seconds", "60",
    ]
    if workload.cells:
        command += ["--cells", str(workload.cells)]
    state_dir = None
    if workload.durable:
        state_dir = tempfile.mkdtemp(prefix="setup-probe-")
        command += ["--state-dir", state_dir]
    start = time.monotonic()
    server = subprocess.Popen(
        command, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
    )
    try:
        line = server.stdout.readline().decode()
        handshake = time.monotonic()
        if not line.startswith("serving on "):
            raise RuntimeError(f"no handshake from {src}: {line!r}")
        host, port = line.split()[-1].rsplit(":", 1)
        with socket.create_connection((host, int(port))) as connection:
            stream = connection.makefile("rwb")
            stream.write(prefill_request(workload).line)
            stream.flush()
            waiting = None
            while waiting is None or waiting:
                event = json.loads(stream.readline())
                if event.get("event") == "ack":
                    waiting = set(event["task_ids"])
                elif event.get("event") == "placement":
                    waiting.discard(event["task_id"])
            placed = time.monotonic()
            stream.write(b'{"op": "shutdown"}\n')
            stream.flush()
        server.communicate(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.communicate()
        if state_dir is not None:
            shutil.rmtree(state_dir, ignore_errors=True)
    return handshake - start, placed - handshake


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return f"{1e3 * values[0]:.0f}"
    low, mid, high = statistics.quantiles(values, n=4)
    return f"{1e3 * low:.0f} / {1e3 * mid:.0f} / {1e3 * high:.0f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="steady_small")
    parser.add_argument("--pairs", type=int, default=6)
    parser.add_argument("--launches", type=int, default=7,
                        help="launches per tree and pair; a pair reads their median")
    parser.add_argument("--baseline-src", type=Path, default=None,
                        help="another tree's src directory to alternate with")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    trees = {"this": SRC}
    if args.baseline_src is not None:
        trees = {"baseline": args.baseline_src.resolve(), "this": SRC}
    # tree -> interval -> one median per pair
    readings: Dict[str, Dict[str, List[float]]] = {
        tree: {"handshake": [], "placed": [], "total": []} for tree in trees
    }
    for pair in range(args.pairs):
        order = list(trees) if pair % 2 == 0 else list(trees)[::-1]
        launches = {tree: [] for tree in trees}
        for _ in range(args.launches):
            for tree in order:
                launches[tree].append(launch(trees[tree], workload))
        for tree, samples in launches.items():
            handshake = statistics.median(h for h, _ in samples)
            placed = statistics.median(p for _, p in samples)
            total = statistics.median(h + p for h, p in samples)
            for name, value in (("handshake", handshake), ("placed", placed),
                                ("total", total)):
                readings[tree][name].append(value)
    print(f"{args.workload}: {args.pairs} pairs x {args.launches} launches per tree, "
          "ms as p25 / p50 / p75 of the pair medians")
    print(f"{'tree':10} {'launch->handshake':>22} {'handshake->placed':>22} "
          f"{'launch->placed':>22}")
    for tree, series in readings.items():
        print(f"{tree:10} {quartiles(series['handshake']):>22} "
              f"{quartiles(series['placed']):>22} {quartiles(series['total']):>22}")
    if args.baseline_src is not None:
        for name in ("handshake", "placed", "total"):
            wins = sum(
                this < base for this, base in
                zip(readings["this"][name], readings["baseline"][name])
            )
            print(f"this tree lower on {name}: {wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
