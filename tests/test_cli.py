"""Tests for the command-line interface."""

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
            ["experiment", "fig9", "--machine-backend", "analytic"],
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
