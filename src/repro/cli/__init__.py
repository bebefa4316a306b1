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
test suite exercises the CLI without spawning processes.  ``build_parser``
and ``main`` are re-exported from :mod:`repro.cli.main` on first access
(PEP 562), so importing the package does not import that module and
``python -m repro.cli.main`` executes it once, without runpy's warning.
A process that imported ``repro.cli.main`` by name first finds that module
under the package attribute ``main``; ``from repro.cli.main import main``
names the function either way.
"""

__all__ = ["build_parser", "main"]


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.cli.main import build_parser, main

    globals().update(build_parser=build_parser, main=main)
    return globals()[name]
