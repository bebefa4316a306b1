"""Command-line interface for the Firmament reproduction.

The ``firmament-repro`` entry point groups four subcommands:

* ``solve`` -- read a flow network in DIMACS min-cost-flow format and solve
  it with any of the implemented MCMF algorithms
  (:mod:`repro.cli.solve_command`).
* ``simulate`` -- run a synthetic Google-like trace against the Firmament
  scheduler or one of the baseline schedulers and print the metrics the
  paper's figures report (:mod:`repro.cli.simulate_command`).
* ``trace`` -- generate a synthetic trace and print or export its workload
  statistics (:mod:`repro.cli.trace_command`).
* ``serve`` -- run the scheduler as a service: concurrent clients submit
  jobs over a JSON-lines TCP protocol and stream placement notifications
  back (:mod:`repro.cli.serve_command`).

The scheduler-selection flags ``simulate`` and ``serve`` share are declared
once, in :mod:`repro.cli.scheduler_options`.

Every subcommand is importable and callable with an argument list, so the
test suite exercises the CLI without spawning processes.
"""

from repro.cli.main import build_parser, main

__all__ = ["build_parser", "main"]
