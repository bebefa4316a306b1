"""``firmament-repro solve``: solve a DIMACS flow network from the shell."""

from __future__ import annotations

import argparse
import sys
from typing import TextIO

from repro.solvers.cost_scaling import PRICE_REFINE_MODES

#: Algorithms whose constructor accepts a ``price_refine`` variant.
PRICE_REFINE_ALGORITHMS = frozenset({"cost_scaling", "incremental_cost_scaling"})

#: Algorithm names accepted by ``--algorithm``.  ``firmament_dual`` is the
#: speculative dual executor; its price-refine variant rides in on an
#: injected cost-scaling leg.
ALGORITHMS = (
    "relaxation",
    "cost_scaling",
    "incremental_cost_scaling",
    "successive_shortest_path",
    "cycle_canceling",
    "firmament_dual",
)


def register(subparsers) -> None:
    """Register the ``solve`` subcommand."""
    parser = subparsers.add_parser(
        "solve",
        help="solve a DIMACS min-cost-flow problem with a chosen MCMF algorithm",
        description=(
            "Read a flow network in DIMACS min-cost-flow format and print the "
            "optimal flow cost, the non-zero arc flows, and solver statistics. "
            "Solves one network at a time; for cluster-scale scheduling that "
            "shards the flow problem into per-cell networks solved "
            "concurrently, see `simulate --cells`."
        ),
    )
    parser.add_argument(
        "input",
        nargs="?",
        default="-",
        help="path to the DIMACS file ('-' or omitted reads standard input)",
    )
    parser.add_argument(
        "--algorithm",
        choices=ALGORITHMS,
        default="relaxation",
        help="MCMF algorithm to use (default: relaxation)",
    )
    parser.add_argument(
        "--price-refine",
        choices=PRICE_REFINE_MODES,
        default="auto",
        help=(
            "price-refine variant for the cost-scaling based algorithms: "
            "'spfa' (deque-based sweep), 'dijkstra' (heap-based incremental "
            "repair), or 'auto' (default; per-call choice); ignored by "
            "algorithms that never run price refine"
        ),
    )
    parser.add_argument(
        "--print-flows",
        action="store_true",
        help="print every arc that carries flow in the optimal solution",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="write the solved network (with flows) back out as DIMACS comments",
    )
    parser.set_defaults(handler=run)


def run(args: argparse.Namespace) -> int:
    """Execute the ``solve`` subcommand."""
    from repro.flow.dimacs import read_dimacs, write_dimacs
    from repro.flow.validation import check_feasibility
    from repro.solvers import IncrementalCostScalingSolver, make_solver

    text = _read_input(args.input)
    network = read_dimacs(text)
    solver_kwargs = {}
    price_refine = getattr(args, "price_refine", "auto")
    if args.algorithm in PRICE_REFINE_ALGORITHMS:
        solver_kwargs["price_refine"] = price_refine
    if args.algorithm == "firmament_dual":
        solver_kwargs["incremental"] = IncrementalCostScalingSolver(
            price_refine=price_refine
        )
    result = make_solver(args.algorithm, **solver_kwargs).solve(network)

    violations = check_feasibility(network)
    print(f"algorithm:  {result.algorithm}")
    print(f"nodes:      {network.num_nodes}")
    print(f"arcs:       {network.num_arcs}")
    print(f"total cost: {result.total_cost}")
    print(f"runtime:    {result.runtime_seconds * 1000.0:.2f} ms")
    print(f"feasible:   {'yes' if not violations else 'NO: ' + violations[0]}")

    if args.print_flows:
        print("flows:")
        for (src, dst), flow in sorted(result.flows.items()):
            print(f"  {src} -> {dst}: {flow}")

    if args.output:
        with open(args.output, "w", encoding="utf-8") as stream:
            stream.write(write_dimacs(network))
            stream.write("c solution flows\n")
            for (src, dst), flow in sorted(result.flows.items()):
                stream.write(f"c f {src} {dst} {flow}\n")
    return 0 if not violations else 1


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as stream:
        return stream.read()
