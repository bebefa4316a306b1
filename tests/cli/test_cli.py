"""Tests for the ``firmament-repro`` command-line interface."""

from __future__ import annotations

import csv

import pytest

from repro.cli import build_parser, main
from repro.flow.dimacs import write_dimacs

from tests.conftest import build_scheduling_network


@pytest.fixture
def dimacs_file(tmp_path):
    network = build_scheduling_network(seed=4)
    path = tmp_path / "problem.dimacs"
    path.write_text(write_dimacs(network), encoding="utf-8")
    return path


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["solve", "some.dimacs"])
        assert args.command == "solve"
        args = parser.parse_args(["simulate", "--machines", "4"])
        assert args.command == "simulate"
        args = parser.parse_args(["trace", "--duration", "10"])
        assert args.command == "trace"

    def test_trace_schema_choices_are_the_ingest_schemas(self):
        # Declared by name, so parsing a command line loads no simulator.
        from repro.cli.simulate_command import TRACE_SCHEMAS
        from repro.simulation.ingest import SCHEMAS

        assert TRACE_SCHEMAS == tuple(sorted(SCHEMAS))

    @pytest.mark.parametrize("command", ["simulate", "serve"])
    def test_round_deadline_help_says_what_still_races(self, command):
        import argparse

        subparsers = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        option = next(
            action for action in subparsers.choices[command]._actions
            if "--round-deadline" in action.option_strings
        )
        # Only rounds that do not chain race a relaxation leg; serve never
        # races.
        assert "do not chain" in option.help
        assert "every serve round" in option.help

    def test_no_command_prints_help_and_fails(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out.lower()

    def test_module_entry_point_runs_once(self):
        # The package re-exports main lazily, so runpy finds repro.cli.main
        # unimported and executes it once, without a RuntimeWarning.
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        repo_src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
        )
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        completed = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.cli.main",
             "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert completed.returncode == 0, completed.stderr
        assert "simulate" in completed.stdout


class TestSolveCommand:
    def test_solve_prints_cost_and_succeeds(self, dimacs_file, capsys):
        assert main(["solve", str(dimacs_file)]) == 0
        output = capsys.readouterr().out
        assert "total cost:" in output
        assert "relaxation" in output

    def test_solve_with_explicit_algorithm_and_flows(self, dimacs_file, capsys):
        assert main(["solve", str(dimacs_file), "--algorithm", "cost_scaling",
                     "--print-flows"]) == 0
        output = capsys.readouterr().out
        assert "cost_scaling" in output
        assert "->" in output

    def test_solve_writes_output_file(self, dimacs_file, tmp_path, capsys):
        out_path = tmp_path / "solution.dimacs"
        assert main(["solve", str(dimacs_file), "--output", str(out_path)]) == 0
        content = out_path.read_text(encoding="utf-8")
        assert content.startswith("c DIMACS")
        assert "c solution flows" in content

    def test_all_algorithms_agree_on_cost(self, dimacs_file, capsys):
        costs = set()
        for algorithm in ("relaxation", "cost_scaling", "successive_shortest_path"):
            assert main(["solve", str(dimacs_file), "--algorithm", algorithm]) == 0
            output = capsys.readouterr().out
            cost_line = [l for l in output.splitlines() if l.startswith("total cost")][0]
            costs.add(int(cost_line.split(":")[1]))
        assert len(costs) == 1

    def test_dual_executor_algorithms_match_relaxation_cost(self, dimacs_file, capsys):
        costs = set()
        for algorithm in ("relaxation", "firmament_dual"):
            assert main(["solve", str(dimacs_file), "--algorithm", algorithm]) == 0
            output = capsys.readouterr().out
            cost_line = [l for l in output.splitlines() if l.startswith("total cost")][0]
            costs.add(int(cost_line.split(":")[1]))
        assert len(costs) == 1

    def test_missing_file_reports_error(self, capsys):
        assert main(["solve", "/nonexistent/problem.dimacs"]) == 1
        assert "error" in capsys.readouterr().err.lower()


class TestSimulateCommand:
    def test_small_firmament_simulation(self, capsys):
        code = main([
            "simulate", "--machines", "8", "--duration", "60",
            "--utilization", "0.5", "--seed", "1",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "placement latency" in output
        assert "firmament" in output

    def test_summary_names_no_executor(self, capsys):
        code = main([
            "simulate", "--machines", "8", "--duration", "30",
            "--utilization", "0.5", "--seed", "1",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "algorithm runtime" in output
        assert not any(
            line.strip().startswith("executor") for line in output.splitlines()
        )

    def test_baseline_scheduler_simulation(self, capsys):
        code = main([
            "simulate", "--machines", "6", "--duration", "40",
            "--scheduler", "sparrow", "--seed", "2",
        ])
        assert code == 0
        assert "sparrow" in capsys.readouterr().out

    def test_failure_injection_reported(self, capsys):
        code = main([
            "simulate", "--machines", "8", "--duration", "120",
            "--failure-mtbf", "20", "--seed", "3",
        ])
        assert code == 0
        assert "machine failures injected" in capsys.readouterr().out

    def test_invalid_machine_count_fails(self, capsys):
        assert main(["simulate", "--machines", "0"]) == 1
        assert "error" in capsys.readouterr().err.lower()

    def test_invalid_utilization_fails(self, capsys):
        assert main(["simulate", "--machines", "4", "--utilization", "2.0"]) == 1
        assert "error" in capsys.readouterr().err.lower()

    def test_round_deadline_reported_in_summary(self, capsys):
        # PR 6's round_deadline_seconds reachable from the CLI: a generous
        # budget never degrades a small run, but the summary must report it.
        code = main([
            "simulate", "--machines", "8", "--duration", "40",
            "--utilization", "0.5", "--seed", "1", "--round-deadline", "30",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "round deadline" in output
        assert "degraded rounds: 0" in output

    def test_round_deadline_sharded_accepted(self, capsys):
        code = main([
            "simulate", "--machines", "8", "--duration", "30",
            "--utilization", "0.5", "--seed", "1",
            "--cells", "2", "--round-deadline", "30",
        ])
        assert code == 0
        assert "degraded rounds" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "extra, sharded",
        [((), False), (("--scheduler", "sparrow"), False), (("--cells", "2"), True)],
        ids=["monolithic", "sparrow", "two-cells"],
    )
    def test_sharded_summary_only_when_a_cell_solved(self, capsys, extra, sharded):
        code = main([
            "simulate", "--machines", "16", "--duration", "30", "--seed", "1",
            *extra,
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert ("cross-cell migrations:" in output) is sharded
        assert ("deferred cell-rounds:" in output) is sharded

    def test_round_deadline_rejected_for_baselines(self, capsys):
        assert main([
            "simulate", "--machines", "4", "--scheduler", "sparrow",
            "--round-deadline", "1",
        ]) == 1
        assert "--round-deadline" in capsys.readouterr().err


class TestSchedulerKnobForwarding:
    """Regression: solver knobs must reach the sharded per-cell solvers
    and impossible knob combinations must fail loudly, not silently."""

    def test_cells_forward_round_deadline(self):
        from repro.cli.simulate_command import _make_scheduler

        scheduler = _make_scheduler(
            "firmament", "quincy", cells=2, round_deadline_seconds=0.5,
        )
        assert scheduler.round_deadline_seconds == 0.5

    def test_cells_with_baseline_scheduler_fails_loudly(self, capsys):
        # Pre-fix, --cells was silently ignored for non-firmament
        # schedulers and the run reported baseline numbers as sharded.
        assert main([
            "simulate", "--machines", "4", "--duration", "10",
            "--scheduler", "sparrow", "--cells", "2",
        ]) == 1
        assert "--cells" in capsys.readouterr().err

    def test_cell_workers_without_cells_fails_loudly(self, capsys):
        assert main([
            "simulate", "--machines", "4", "--duration", "10",
            "--cell-workers",
        ]) == 1
        assert "--cell-workers" in capsys.readouterr().err

    def test_executor_flag_is_gone(self, capsys):
        # One dual executor is left, so there is nothing to choose.
        with pytest.raises(SystemExit) as raised:
            main(["simulate", "--machines", "4", "--executor", "parallel"])
        assert raised.value.code == 2
        assert "--executor" in capsys.readouterr().err

    def test_parallel_dual_algorithm_is_gone(self, dimacs_file, capsys):
        with pytest.raises(SystemExit) as raised:
            main([
                "solve", str(dimacs_file), "--algorithm", "firmament_dual_parallel",
            ])
        assert raised.value.code == 2
        assert "firmament_dual_parallel" in capsys.readouterr().err

    def test_sharded_cli_run_with_knobs_succeeds(self, capsys):
        code = main([
            "simulate", "--machines", "8", "--duration", "30",
            "--utilization", "0.5", "--seed", "1",
            "--cells", "2",
        ])
        assert code == 0
        assert "cells: 2" in capsys.readouterr().out


class TestTraceCommand:
    def test_trace_summary(self, capsys):
        assert main(["trace", "--machines", "20", "--duration", "60", "--seed", "5"]) == 0
        output = capsys.readouterr().out
        assert "jobs:" in output
        assert "job size [tasks]" in output

    def test_trace_csv_export(self, tmp_path, capsys):
        csv_path = tmp_path / "trace.csv"
        assert main([
            "trace", "--machines", "20", "--duration", "60",
            "--seed", "5", "--csv", str(csv_path),
        ]) == 0
        with open(csv_path, newline="", encoding="utf-8") as stream:
            rows = list(csv.reader(stream))
        assert rows[0][0] == "job_id"
        assert len(rows) > 1


class TestServeSignals:
    """SIGTERM/SIGINT drain the service gracefully instead of killing it
    mid-round (ISSUE 10 satellite)."""

    def _spawn_serve(self, extra=()):
        import os
        import subprocess
        import sys

        env = dict(os.environ)
        repo_src = os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
        )
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli.main", "serve",
                "--machines", "4", "--round-interval", "0.01",
                "--time-scale", "0.01", "--serve-seconds", "30",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        handshake = proc.stdout.readline().strip()
        assert handshake.startswith("serving on "), handshake
        return proc, int(handshake.rsplit(":", 1)[1])

    def test_sigterm_drains_and_reports_conservation(self):
        import json
        import signal
        import socket

        proc, port = self._spawn_serve()
        try:
            # Leave work in flight so the drain actually has something to
            # account for.
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                sock.sendall(
                    json.dumps({"op": "submit", "tasks": 3, "id": 1,
                                "job_type": "service"}).encode() + b"\n"
                )
                reply = json.loads(sock.makefile("r").readline())
                assert reply["event"] == "ack" and reply["accepted"] == 3
                proc.send_signal(signal.SIGTERM)
                returncode = proc.wait(timeout=30)
            output = proc.stdout.read()
            assert returncode == 0, (output, proc.stderr.read())
            assert "draining on SIGTERM" in output
            assert "service drained" in output
            assert "conservation: accepted == placed + pending + rejected" in output
            assert "accepted: 3" in output
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()

    def test_sigint_takes_the_same_drain_path(self):
        import signal

        proc, _port = self._spawn_serve()
        try:
            proc.send_signal(signal.SIGINT)
            returncode = proc.wait(timeout=30)
            output = proc.stdout.read()
            assert returncode == 0, (output, proc.stderr.read())
            assert "draining on SIGINT" in output
            assert "service drained" in output
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
            proc.stderr.close()
