#!/usr/bin/env python3
"""A/A check: is the benchmark steady enough for the bounds it declares?

    python3 benchmarks/e2e/aa.py [--runs 10] [--sets 2] [--workload W ...]

Runs ``BENCHMARK.json``'s command ``--runs`` times per workload and set,
every run with another ``--seed``, on one and the same commit.  For every
end-to-end metric and workload it prints

* the *spread* of each set: the distance between the first and third
  quartile of the runs (``statistics.quantiles(values, n=4)``) as a share
  of their median -- it must stay within the metric's bound (``setup_s``
  excepted), and a third of the bound is the target;
* the *shift*: how much worse the second set's median is than the
  first's -- it must stay within the bound for every metric.

Exits non-zero if either is exceeded or any run is incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent.parent


def one_run(spec: dict, workload: str, seed: int) -> dict:
    """Run the benchmark command once and parse its result line."""
    command = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    if done.returncode != 0:
        raise SystemExit(
            f"{' '.join(command)} exited {done.returncode}:\n"
            f"{done.stdout}\n{done.stderr}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"incorrect run: {workload} seed {seed}: {result}")
    return {name: entry["value"] for name, entry in result["metrics"].items()}


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--out", help="also write the raw values as JSON")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    #: values[set][workload][metric] -> one value per run.
    values: List[Dict[str, Dict[str, List[float]]]] = []
    for index in range(args.sets):
        collected = {w: {m["name"]: [] for m in metrics} for w in workloads}
        for run in range(args.runs):
            seed = 1000 * index + run + 1
            for workload in workloads:
                result = one_run(spec, workload, seed)
                for name, value in result.items():
                    collected[workload][name].append(value)
                print(f"set {index + 1} seed {seed} {workload}: " + "  ".join(
                    f"{name}={value:.4g}" for name, value in result.items()
                ), flush=True)
        values.append(collected)
    if args.out:
        Path(args.out).write_text(json.dumps(values, indent=1))

    failures = 0
    header = "| workload | metric | bound | " + " | ".join(
        f"median {i + 1} | spread {i + 1}" for i in range(args.sets)
    ) + " | shift |"
    print("\n" + header)
    print("|" + "---|" * (header.count("|") - 1))
    for workload in workloads:
        for metric in metrics:
            name, bound = metric["name"], metric["bound"]
            sets = [collected[workload][name] for collected in values]
            medians = [statistics.median(runs) for runs in sets]
            spreads = [spread(runs) for runs in sets]
            shift = (medians[-1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                shift = -shift
            bad = shift > bound or (
                name != "setup_s" and any(s > bound for s in spreads)
            )
            failures += bad
            cells = " | ".join(
                f"{median:.4g} | {s:.3f}" for median, s in zip(medians, spreads)
            )
            print(f"| {workload} | {name} | {bound} | {cells} | {shift:+.3f} |"
                  + (" **exceeded**" if bad else ""))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
