"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--workload", "tasks"])
        assert args.policy == "lff"
        assert args.cpus == 1
        assert not args.paper_scale

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "nonesuch"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_faults_run_defaults(self):
        args = build_parser().parse_args(["faults", "run"])
        assert args.workload == "all"
        assert args.fault == "all"
        assert args.scale == "smoke"

    def test_faults_subcommand_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["faults"])

    def test_cli_surface_is_exactly_the_tested_options(self):
        """Every (subcommand, option) pair the parser accepts.  A new
        knob must show up here as a deliberate diff."""

        def surface(parser, prefix=()):
            pairs = set()
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, sub in action.choices.items():
                        pairs |= surface(sub, prefix + (name,))
                elif not isinstance(action, argparse._HelpAction):
                    flag = (action.option_strings or [action.dest])[0]
                    pairs.add((" ".join(prefix), flag))
            return pairs

        workload = {"--workload", "--cpus", "--paper-scale", "--seed",
                    "--backend"}
        sweep = {"--jobs", "--cache-dir"}
        expected = {
            "run": workload | {"--policy", "--report"},
            "compare": workload,
            "trace": {"--app", "--seed", "--backend"},
            "model": {"--lines", "--initial", "--q", "--misses"},
            "experiment": sweep | {"name", "--backend"},
            "faults run": sweep | {"--workload", "--fault", "--policy",
                                   "--scale", "--seed"},
            "analyze": {"--workload", "--pass", "--baseline",
                        "--write-baseline", "--update-baseline",
                        "--strict-baseline", "--waive", "--waive-reason"},
            "lint": {"paths"},
            "mc": sweep | {"--fixture", "--budget", "--no-chaos",
                           "--skip-model"},
            "bench run": {"--suite", "--out"},
            "bench compare": {"--baseline", "--new", "--max-regress"},
        }
        assert surface(build_parser()) == {
            (command, flag)
            for command, flags in expected.items()
            for flag in flags
        }


class TestCommands:
    def test_model_command(self, capsys):
        assert main(["model", "--lines", "256", "--initial", "50",
                     "--q", "0.5", "--misses", "0", "100"]) == 0
        out = capsys.readouterr().out
        assert "running (case 1)" in out
        assert "n=100" in out

    def test_run_command_small(self, capsys):
        # keep it quick: the small default tasks workload on one cpu
        assert main(["run", "--workload", "tsp", "--policy", "fcfs"]) == 0
        out = capsys.readouterr().out
        assert "tsp" in out
        assert "E-misses" in out

    def test_run_report_is_deterministic(self, capsys):
        argv = ["run", "--workload", "tsp", "--policy", "fcfs", "--report"]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        lines = outputs[0].splitlines()
        cpu_header = lines.index("Per-cpu totals") + 1
        assert lines[cpu_header].split()[0] == "cpu"
        assert lines[cpu_header + 2].split()[0] == "0"  # cpu 0's row
        threads = [line for line in lines if line.startswith("tsp-node-")]
        assert len(threads) == 8  # the heaviest-threads table

    def test_trace_command(self, capsys):
        assert main(["trace", "--app", "fmm"]) == 0
        out = capsys.readouterr().out
        assert "fmm" in out
        assert "pred/obs" in out

    def test_compare_command(self, capsys):
        assert main(["compare", "--workload", "tsp"]) == 0
        out = capsys.readouterr().out
        assert "fcfs" in out and "lff" in out and "crt" in out

    def test_experiment_table3(self, capsys):
        assert main(["experiment", "table3"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out

    def test_faults_run_command(self, capsys):
        # one workload x one fault class x one policy keeps it quick
        assert main(["faults", "run", "--workload", "tasks",
                     "--fault", "counter_zero", "--policy", "fcfs"]) == 0
        out = capsys.readouterr().out
        assert "counter_zero" in out
        assert "identical" in out
        assert "honoured the hint contract" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--workload", "tasks", "--cpus", "4",
             "--backend", "analytic"],
            ["compare", "--workload", "tasks", "--cpus", "2",
             "--backend", "analytic"],
            ["experiment", "fig9", "--backend", "analytic"],
        ],
    )
    def test_multicpu_analytic_is_refused(self, capsys, argv):
        """The analytic backend has no coherence and is checked only on
        1-cpu FCFS: multi-cpu runs exit non-zero with one line that
        points at the trust envelope, before any simulation starts."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert "docs/MODEL.md" in lines[0]

    def test_one_cpu_analytic_still_runs(self, capsys):
        assert main(["run", "--workload", "tsp", "--policy", "fcfs",
                     "--backend", "analytic"]) == 0
        assert "tsp" in capsys.readouterr().out
