"""Extended randomized cross-solver equivalence sweep (benchmark tier).

The tier-1 suite (``tests/solvers/test_cross_solver_equivalence.py``) runs a
few dozen seeds with three change rounds each.  This sweep pushes the same
harness much further -- more seeds and deeper perturbation chains -- and is
collected only when named
explicitly (every item under ``benchmarks/`` carries the ``benchmark``
marker).  Scale with ``REPRO_BENCH_SCALE``.
"""

from __future__ import annotations

import pytest

from benchmarks.common import bench_scale
from tests.solvers.test_cross_solver_equivalence import run_equivalence_rounds

SEEDS = range(100, 100 + 50 * bench_scale())


@pytest.mark.parametrize("seed", SEEDS)
def test_equivalence_sweep(seed):
    """Deep fuzz: every solver and the dual executor, eight change rounds."""
    run_equivalence_rounds(seed, rounds=8)
