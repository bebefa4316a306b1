"""Reproduction of *Firmament: Fast, Centralized Cluster Scheduling at Scale*.

The package is organized around the paper's architecture (Figure 4):

* :mod:`repro.flow` -- the flow-network substrate (graph, changes,
  validation, DIMACS serialization).
* :mod:`repro.solvers` -- min-cost max-flow algorithms, incremental cost
  scaling, and the speculative dual-algorithm executor.
* :mod:`repro.core` -- the Firmament scheduler: scheduling policies, the
  graph manager that maintains the flow network, placement extraction, and
  the scheduler loop itself.
* :mod:`repro.cluster` -- the cluster-manager substrate (machines, racks,
  jobs, tasks, events, monitoring, resource vectors, knowledge base).
* :mod:`repro.simulation` -- the trace-driven simulator, synthetic
  Google-like workload generator, and machine-failure injection.
* :mod:`repro.baselines` -- queue-based comparator schedulers (Sparrow,
  SwarmKit, Kubernetes, Mesos, Quincy).
* :mod:`repro.testbed` -- the 40-machine local-cluster model used for the
  placement-quality experiments (Section 7.5).
* :mod:`repro.analysis` -- CDF/percentile helpers, report formatting, and
  CSV/JSON result exports.
* :mod:`repro.cli` -- the ``firmament-repro`` command-line interface
  (``solve``, ``simulate``, ``trace``, ``serve``).
* :mod:`repro.chaos` -- seeded, deterministic fault injection for the
  round pipeline (worker kills, pipe breaks, revision-chain breaks,
  residual corruption) behind zero-cost no-op defaults.

A subpackage re-exports its public names through :func:`lazy_exports`:
importing it loads none of its modules, and a name loads its own module on
first use, so a process compiles only the modules it runs.
"""

import importlib
import sys
from typing import Mapping, Sequence

__version__ = "1.1.0"

__all__ = [
    "flow",
    "solvers",
    "core",
    "cluster",
    "simulation",
    "baselines",
    "testbed",
    "analysis",
    "cli",
    "chaos",
]


def lazy_exports(package: str, exports: Mapping[str, Sequence[str]]):
    """PEP 562 hooks that re-export names of ``package``'s submodules.

    ``exports`` maps each submodule (relative name) to the public names it
    defines.  A name's submodule is imported on the name's first use, so
    importing the package imports none of them.  Returns ``__all__``,
    ``__getattr__`` and ``__dir__`` for the package to bind.
    """
    owner = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name):
        if name not in owner:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{owner[name]}"), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted({*vars(sys.modules[package]), *owner})

    return list(owner), __getattr__, __dir__
