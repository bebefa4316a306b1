"""Self-test of the end-to-end benchmark (``pytest benchmarks/e2e``, < 20 s).

Not part of tier-1 (``pytest.ini`` collects ``tests/`` only).  Checks the
estimators against hand-computed arrays and runs a 3 s miniature of
``steady_small`` through the real command, untraced and traced.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from estimators import percentile, self_times, slice_quartile  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_percentile_interpolates_between_closest_ranks():
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    # rank 0.95 * 3 = 2.85: 30 + 0.85 * (40 - 30)
    assert percentile([10, 20, 30, 40], 95) == pytest.approx(38.5)
    assert percentile([10, 20, 30, 40], 0) == 10
    assert percentile([10, 20, 30, 40], 100) == 40
    assert percentile([7], 95) == 7
    with pytest.raises(ValueError):
        percentile([], 50)


def test_slice_quartile_takes_the_first_quartile_of_per_slice_percentiles():
    samples = [
        (0.1, 1.0), (0.9, 3.0),              # slice 0: p50 = 2
        (1.5, 10.0),                         # slice 1: p50 = 10
        (2.0, 4.0), (2.5, 6.0), (2.9, 8.0),  # slice 2: p50 = 6
        (-0.5, 99.0), (3.0, 99.0),           # outside [0, 3)
    ]
    value, counts = slice_quartile(samples, 0.0, 3.0, 3, 50)
    # first quartile of [2, 6, 10]: rank 0.25 * 2 = 0.5 -> 2 + 0.5 * (6 - 2)
    assert value == 4.0
    assert counts == [2, 1, 3]
    # Noisy slices move a pooled p95 but not the quartile over slices.
    noisy = [(t + 0.5, 1.0) for t in range(6)] + [(4.6, 100.0), (5.6, 100.0)]
    assert slice_quartile(noisy, 0.0, 6.0, 6, 95)[0] == 1.0
    with pytest.raises(ValueError):
        slice_quartile(samples, 0.0, 5.0, 5, 50)  # slice [4, 5) is empty


def test_self_time_counts_overlapping_children_once():
    spans = [
        (1, 0, 0.0, 10.0),   # root
        (2, 1, 1.0, 4.0),    # child
        (3, 1, 3.0, 6.0),    # child overlapping the first: union [1, 6]
        (4, 1, 8.0, 12.0),   # child running past the parent: clipped to 10
        (5, 2, 2.0, 3.0),    # grandchild
        (6, 99, 0.0, 1.0),   # parent unknown: a root
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[2] == pytest.approx(2.0)
    assert own[3] == pytest.approx(3.0)
    assert own[5] == pytest.approx(1.0)
    assert own[6] == pytest.approx(1.0)


def _run(*extra):
    command = [sys.executable, str(HERE / "run.py"), "--workload",
               "steady_small", "--seed", "7", "--seconds", "3", *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"], done.stdout


def _assert_reported(declared, metrics, stdout):
    assert set(metrics) == {entry["name"] for entry in declared}
    for entry in declared:
        reported = metrics[entry["name"]]
        assert reported["unit"] == entry["unit"]
        assert math.isfinite(reported["value"])
        assert f"{entry['name']} = " in stdout


def test_miniature_run_reports_every_end_to_end_metric():
    metrics, stdout = _run("--trace", "0")
    _assert_reported(SPEC["end_to_end"], metrics, stdout)
    assert all(entry["value"] > 0 for entry in metrics.values())


def test_traced_run_survives_a_wrap_target_that_does_not_exist():
    metrics, stdout = _run(
        "--trace", "1", "--wrap-extra", "repro.core.scheduler.Gone.schedule"
    )
    _assert_reported(SPEC["per_layer"], metrics, stdout)
    assert metrics["trace.missing"]["value"] == 1
    assert "repro.core.scheduler.Gone.schedule" in stdout
    assert metrics["sched.schedule_ms.p50"]["value"] > 0
    assert metrics["trace.accounted_ratio"]["value"] > 0.8
