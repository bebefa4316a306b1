"""Top-level argument parsing for the ``firmament-repro`` command."""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Iterable, Optional, Sequence

from repro.solvers.base import SolverError

#: Subcommand -> the module that registers and runs it.
COMMANDS = {
    "solve": "repro.cli.solve_command",
    "simulate": "repro.cli.simulate_command",
    "trace": "repro.cli.trace_command",
    "serve": "repro.cli.serve_command",
}


def build_parser(commands: Iterable[str] = COMMANDS) -> argparse.ArgumentParser:
    """Build the top-level parser with ``commands`` (default: all) registered."""
    parser = argparse.ArgumentParser(
        prog="firmament-repro",
        description=(
            "Reproduction of Firmament (OSDI 2016): solve scheduling flow "
            "networks, simulate cluster scheduling, and inspect synthetic traces."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", metavar="command")
    for command in commands:
        importlib.import_module(COMMANDS[command]).register(subparsers)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the CLI and return a process exit code."""
    argv = list(argv) if argv is not None else sys.argv[1:]
    # A command line that names its subcommand loads only that one's module.
    named = argv[:1] if argv[:1] and argv[0] in COMMANDS else COMMANDS
    parser = build_parser(named)
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except (ValueError, OSError, SolverError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - direct module execution
    sys.exit(main())
