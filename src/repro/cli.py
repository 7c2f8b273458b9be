"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``run``        one workload under one policy, printing the counters;
- ``compare``    one workload under FCFS/LFF/CRT side by side;
- ``trace``      a monitored app's footprint trace vs the model;
- ``model``      evaluate the closed-form model directly;
- ``experiment`` regenerate a paper table/figure by name;
- ``faults run`` the fault-injection campaign (robustness contract);
- ``analyze``    annotation lint / lock-order / race passes (byte-stable);
- ``lint``       the repro-lint determinism pass over the simulator source;
- ``mc``         the schedule model checker (DPOR) + symbolic cache-model
  verification (MC001-MC005);
- ``bench``      the performance-regression harness: ``run`` a suite to
  ``BENCH_<suite>.json`` (re-recording a checked-in baseline is a
  ``run`` over it), ``compare`` two result files with noise-aware
  thresholds.

The sweep commands (``faults run``, ``experiment``, ``mc``) take
``--jobs N`` to shard over a process pool via :mod:`repro.parallel`;
output is bit-identical to ``--jobs 1`` (docs/PARALLEL.md).
``--cache-dir`` makes the sweep resumable via the content-addressed
result cache without changing the output.

Everything except ``bench`` (which measures host wall time) is
deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import List, Optional

import numpy as np

from repro.core.model import SharedStateModel
from repro.machine.configs import E5000_8CPU, ULTRA1
from repro.sched import SCHEDULERS
from repro.sim.driver import run_monitored, run_performance
from repro.sim.report import format_series, format_table
from repro.workloads import (
    ANOMALOUS_APPS,
    MONITORED_APPS,
    PERFORMANCE_WORKLOADS,
    MergeParams,
    PhotoParams,
    ServerParams,
    TasksParams,
    TspParams,
)

_PARAMS = {
    "tasks": TasksParams,
    "merge": MergeParams,
    "photo": PhotoParams,
    "tsp": TspParams,
    "server": ServerParams,
}

_EXPERIMENTS = {}


def _shard_progress(outcome, done, total) -> None:
    """Progress line per finished shard (stderr, never in the report)."""
    status = "ok" if outcome.ok else f"FAILED ({outcome.error})"
    retries = (
        f" [attempt {outcome.attempts}]" if outcome.attempts > 1 else ""
    )
    where = " (cached)" if outcome.cached else ""
    print(
        f"  [{done}/{total}] {outcome.shard.key}: {status}{retries}{where}",
        file=sys.stderr,
    )


def _result_cache(args):
    """The :class:`~repro.parallel.ResultCache` named by ``--cache-dir``,
    or None when the flag is absent."""
    if args.cache_dir is None:
        return None
    from repro.parallel import ResultCache

    return ResultCache(args.cache_dir)


def _experiment_registry():
    """Lazy experiment table (imports are heavy enough to defer).

    Every entry takes the ``--jobs`` value, the ``machine_backend`` and
    the result ``cache``; each ignores what it does not use.
    """
    if _EXPERIMENTS:
        return _EXPERIMENTS
    from repro.experiments.fig4 import run_fig4
    from repro.experiments.fig5 import format_fig5, run_fig5
    from repro.experiments.fig6 import format_fig6, run_fig6
    from repro.experiments.fig7 import format_fig7, run_fig7
    from repro.experiments.fig8 import format_fig8, run_fig8
    from repro.experiments.fig9 import format_fig9, run_fig9
    from repro.experiments.table3 import format_table3, run_table3
    from repro.experiments.table5 import format_table5, run_table5
    from repro.experiments.fairness import (
        format_fairness_sweep,
        run_fairness_sweep,
    )
    from repro.experiments.inference_exp import (
        format_inference_comparison,
        run_inference_comparison,
    )
    from repro.experiments.offline import (
        format_offline_comparison,
        run_offline_comparison,
    )

    def fig4_text(jobs=1, **kw):
        panels = run_fig4()
        rows = [
            (panel, curve.label, 100.0 * curve.mean_relative_error)
            for panel, curves in panels.items()
            for curve in curves
        ]
        return format_table(
            ["panel", "curve", "rel.err %"], rows, title="Figure 4"
        )

    _EXPERIMENTS.update(
        {
            "fig4": fig4_text,
            "fig5": lambda jobs=1, machine_backend="sim", **kw: format_fig5(
                run_fig5(backend=machine_backend)
            ),
            "fig6": lambda jobs=1, machine_backend="sim", **kw: format_fig6(
                run_fig6(backend=machine_backend)
            ),
            "fig7": lambda jobs=1, machine_backend="sim", **kw: format_fig7(
                run_fig7(backend=machine_backend)
            ),
            "fig8": lambda jobs=1, machine_backend="sim", **kw: format_fig8(
                run_fig8(backend=machine_backend)
            ),
            "fig9": lambda jobs=1, machine_backend="sim", **kw: format_fig9(
                run_fig9(backend=machine_backend)
            ),
            "table3": lambda jobs=1, **kw: format_table3(run_table3()),
            "table5": lambda jobs=1, **kw: format_table5(run_table5()),
            "fairness": lambda jobs=1, **kw: format_fairness_sweep(
                run_fairness_sweep()
            ),
            "inference": lambda jobs=1, **kw: format_inference_comparison(
                run_inference_comparison()
            ),
            "offline": lambda jobs=1, **kw: format_offline_comparison(
                run_offline_comparison(
                    jobs=jobs,
                    progress=_shard_progress if jobs > 1 else None,
                    **kw,
                )
            ),
        }
    )
    return _EXPERIMENTS


def _config(cpus: int):
    if cpus == 1:
        return ULTRA1
    if cpus == 8:
        return E5000_8CPU
    return ULTRA1.with_cpus(cpus)


def _workload(name: str, paper_scale: bool):
    cls = PERFORMANCE_WORKLOADS[name]
    params_cls = _PARAMS[name]
    params = params_cls.paper_scale() if paper_scale else params_cls()
    return cls(params)


def _analytic_refused(command: str, flag: str, cpus: int) -> int:
    """Exit 2 with one line: the analytic backend models no coherence and
    its accuracy is checked only on 1-cpu FCFS, so the CLI will not price
    a multi-cpu run with it."""
    print(
        f"repro {command}: {flag} analytic is unchecked on {cpus} cpus "
        "(no coherence; validated on 1-cpu FCFS only), see docs/MODEL.md "
        "'When to trust it'",
        file=sys.stderr,
    )
    return 2


def _cmd_run(args) -> int:
    if args.backend == "analytic" and args.cpus > 1:
        return _analytic_refused("run", "--backend", args.cpus)
    if args.report:
        from repro.machine.smp import Machine
        from repro.sim.analysis import run_report
        from repro.threads.runtime import Runtime

        machine = Machine(
            _config(args.cpus), seed=args.seed, backend=args.backend
        )
        runtime = Runtime(machine, SCHEDULERS[args.policy]())
        _workload(args.workload, args.paper_scale).build(runtime)
        runtime.run()
        print(run_report(machine, runtime))
        return 0
    result = run_performance(
        _workload(args.workload, args.paper_scale),
        _config(args.cpus),
        SCHEDULERS[args.policy](),
        seed=args.seed,
        backend=args.backend,
    )
    print(
        format_table(
            ["workload", "policy", "cpus", "cycles", "E-misses", "MPI",
             "switches"],
            [
                (
                    result.workload,
                    result.scheduler,
                    result.num_cpus,
                    result.cycles,
                    result.l2_misses,
                    result.mpi,
                    result.context_switches,
                )
            ],
            title="run",
        )
    )
    return 0


def _cmd_compare(args) -> int:
    if args.backend == "analytic" and args.cpus > 1:
        return _analytic_refused("compare", "--backend", args.cpus)
    rows = []
    base = None
    for policy in ("fcfs", "static", "lff", "crt"):
        result = run_performance(
            _workload(args.workload, args.paper_scale),
            _config(args.cpus),
            SCHEDULERS[policy](),
            seed=args.seed,
            backend=args.backend,
        )
        if base is None:
            base = result
        rows.append(
            (
                policy,
                result.l2_misses,
                100.0 * result.misses_eliminated_vs(base),
                result.speedup_vs(base),
            )
        )
    print(
        format_table(
            ["policy", "E-misses", "eliminated %", "rel perf"],
            rows,
            title=f"{args.workload} on {args.cpus} cpu(s)",
        )
    )
    return 0


def _cmd_trace(args) -> int:
    apps = {**MONITORED_APPS, **ANOMALOUS_APPS}
    result = run_monitored(apps[args.app](), seed=args.seed,
                           backend=args.backend)
    print(
        format_table(
            ["app", "lang", "misses", "observed", "predicted", "pred/obs",
             "MAE"],
            [
                (
                    result.app,
                    result.language,
                    int(result.misses[-1]),
                    int(result.observed[-1]),
                    float(result.predicted[-1]),
                    result.final_ratio,
                    result.mean_absolute_error,
                )
            ],
            title="footprint trace",
        )
    )
    print("observed :", format_series(result.misses, result.observed))
    print("predicted:", format_series(result.misses, result.predicted))
    return 0


def _cmd_model(args) -> int:
    model = SharedStateModel(args.lines)
    misses = np.asarray(args.misses, dtype=np.int64)
    rows = [
        ("running (case 1)", *(f"{v:.1f}" for v in
                               np.atleast_1d(model.expected_running(args.initial, misses)))),
        ("independent (case 2)", *(f"{v:.1f}" for v in
                                   np.atleast_1d(model.expected_independent(args.initial, misses)))),
        (f"dependent q={args.q} (case 3)",
         *(f"{v:.1f}" for v in
           np.atleast_1d(model.expected_dependent(args.initial, args.q, misses)))),
    ]
    print(
        format_table(
            ["case"] + [f"n={n}" for n in misses],
            rows,
            title=f"E[F] for N={args.lines}, S0={args.initial}",
        )
    )
    return 0


def _cmd_experiment(args) -> int:
    if args.name == "fig9" and args.backend == "analytic":
        return _analytic_refused(
            "experiment fig9", "--backend", E5000_8CPU.num_cpus
        )
    registry = _experiment_registry()
    print(
        registry[args.name](
            jobs=args.jobs,
            machine_backend=args.backend,
            cache=_result_cache(args),
        )
    )
    return 0


def _cmd_faults_run(args) -> int:
    from repro.faults import (
        FAULT_CLASSES,
        campaign_workloads,
        format_campaign,
        run_campaign,
    )

    workloads = campaign_workloads(args.scale)
    workload_names = list(workloads)
    if args.workload != "all":
        if args.workload not in workloads:
            print(
                "repro faults run: unknown workload %r (choose from %s)"
                % (args.workload, ", ".join(sorted(workloads) + ["all"])),
                file=sys.stderr,
            )
            return 2
        workload_names = [args.workload]
    if args.fault != "all" and args.fault not in FAULT_CLASSES:
        print(
            "repro faults run: unknown fault class %r (choose from %s)"
            % (args.fault, ", ".join(sorted(FAULT_CLASSES) + ["all"])),
            file=sys.stderr,
        )
        return 2
    fault_classes = (
        list(FAULT_CLASSES) if args.fault == "all" else [args.fault]
    )
    rows = run_campaign(
        scale=args.scale,
        workload_names=workload_names,
        policies=tuple(args.policy or ("fcfs", "lff")),
        fault_classes=fault_classes,
        seed=args.seed,
        jobs=args.jobs,
        progress=_shard_progress if args.jobs > 1 else None,
        cache=_result_cache(args),
    )
    print(format_campaign(rows))
    return 0 if all(r.ok for r in rows) else 1


def _cmd_analyze(args) -> int:
    from repro.analysis import (
        lint_workload_names,
        run_analysis,
        write_baseline,
    )

    names = lint_workload_names()
    if args.workload:
        unknown = [w for w in args.workload if w not in names]
        if unknown:
            print(
                "repro analyze: unknown workload(s) %s (choose from %s)"
                % (", ".join(unknown), ", ".join(names)),
                file=sys.stderr,
            )
            return 2
        names = args.workload
    passes = tuple(args.passes or ())
    report = run_analysis(
        workloads=names,
        passes=passes if passes else ("annotations", "locks", "races"),
        baseline_path=args.baseline,
    )
    if args.waive:
        from repro.analysis.diagnostics import add_waiver

        if args.baseline is None or not args.waive_reason:
            print(
                "repro analyze: --waive needs --baseline FILE and "
                "--waive-reason TEXT",
                file=sys.stderr,
            )
            return 2
        error = add_waiver(args.baseline, report, args.waive, args.waive_reason)
        if error is not None:
            print(f"repro analyze: {error}", file=sys.stderr)
            return 1
        print(f"waived {args.waive}: {args.waive_reason}")
        return 0
    if args.update_baseline:
        from repro.analysis.diagnostics import refresh_baseline

        if args.baseline is None:
            print(
                "repro analyze: --update-baseline needs --baseline FILE",
                file=sys.stderr,
            )
            return 2
        blocking = refresh_baseline(args.baseline, report)
        if blocking:
            print(
                "repro analyze: refusing to update the baseline -- "
                f"{len(blocking)} new error-severity finding(s) would be "
                "buried:",
                file=sys.stderr,
            )
            for diag in blocking:
                print(f"  {diag.render()}", file=sys.stderr)
            return 1
        print(
            f"updated {args.baseline} with {len(report.diagnostics)} "
            "fingerprint(s)"
        )
        return 0
    if args.write_baseline:
        if args.baseline is None:
            print(
                "repro analyze: --write-baseline needs --baseline FILE",
                file=sys.stderr,
            )
            return 2
        from repro.analysis.diagnostics import load_waivers

        write_baseline(args.baseline, report, waivers=load_waivers(args.baseline))
        print(f"wrote {len(report.diagnostics)} fingerprint(s) to {args.baseline}")
        return 0
    print(report.render())
    failed = bool(report.new_diagnostics())
    if args.strict_baseline:
        stale = report.stale_fingerprints()
        if stale:
            print(
                f"repro analyze: {len(stale)} stale baseline "
                "fingerprint(s) no longer produced by any pass "
                "(regenerate with --update-baseline):",
                file=sys.stderr,
            )
            for fp in stale:
                print(f"  {fp}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


def _cmd_mc(args) -> int:
    from repro.analysis.mc import (
        BUDGETS,
        FIXTURES,
        explore_all,
        format_mc_report,
        verify_cache_model,
    )

    fixtures = args.fixture or None
    if fixtures:
        unknown = [f for f in fixtures if f not in FIXTURES]
        if unknown:
            print(
                "repro mc: unknown fixture(s) %s (choose from %s)"
                % (", ".join(unknown), ", ".join(sorted(FIXTURES))),
                file=sys.stderr,
            )
            return 2
    results, diagnostics = explore_all(
        BUDGETS[args.budget],
        fixtures=fixtures,
        chaos=not args.no_chaos,
        jobs=args.jobs,
        progress=_shard_progress if args.jobs > 1 else None,
        cache=_result_cache(args),
    )
    stats = None
    if not args.skip_model:
        model_diags, stats = verify_cache_model()
        diagnostics = sorted(
            list(diagnostics) + model_diags, key=lambda d: d.sort_key
        )
    print(format_mc_report(results, stats, diagnostics))
    incomplete = [r.label for r in results if not r.complete]
    if incomplete:
        print(
            "warning: exploration incomplete (budget exhausted) for: "
            + ", ".join(incomplete),
            file=sys.stderr,
        )
    return 1 if diagnostics else 0


def _parse_regress(text: str) -> float:
    """Parse a regression threshold written as a percentage: '40%' means
    0.4.  A bare number is rejected, since '1' could mean 1% or 100%,
    and so is 'nan%'/'inf%', under which nothing would ever regress."""
    raw = text.strip()
    if not raw.endswith("%"):
        raise ValueError("threshold must be written as N%")
    value = float(raw[:-1]) / 100.0
    if not math.isfinite(value) or value < 0.0:
        raise ValueError("threshold must be a finite non-negative N%")
    return value


def _cmd_bench_run(args) -> int:
    from repro.bench import (
        default_baseline_path,
        format_suite,
        run_suite,
        suite_names,
        write_suite,
    )

    if args.suite not in suite_names():
        print(
            "repro bench run: unknown suite %r (choose from %s)"
            % (args.suite, ", ".join(suite_names())),
            file=sys.stderr,
        )
        return 2
    result = run_suite(
        args.suite,
        progress=lambda name: print(f"  running {name} ...", file=sys.stderr),
    )
    out = args.out or default_baseline_path(args.suite)
    write_suite(out, result)
    print(format_suite(result))
    print(f"wrote {out}")
    return 0


def _cmd_bench_compare(args) -> int:
    from repro.bench import (
        SchemaError,
        compare,
        format_comparison,
        load_suite,
        run_suite,
        suite_names,
    )

    try:
        threshold = _parse_regress(args.max_regress)
    except ValueError:
        print(
            f"repro bench compare: bad --max-regress {args.max_regress!r}",
            file=sys.stderr,
        )
        return 2
    try:
        baseline = load_suite(args.baseline)
    except (OSError, SchemaError) as exc:
        print(f"repro bench compare: {exc}", file=sys.stderr)
        return 2
    if args.new is not None:
        try:
            fresh = load_suite(args.new)
        except (OSError, SchemaError) as exc:
            print(f"repro bench compare: {exc}", file=sys.stderr)
            return 2
    else:
        # no fresh file given: re-run the baseline's suite now
        if baseline.suite not in suite_names():
            print(
                "repro bench compare: baseline names unknown suite "
                f"{baseline.suite!r}; pass --new FILE",
                file=sys.stderr,
            )
            return 2
        fresh = run_suite(
            baseline.suite,
            progress=lambda name: print(
                f"  running {name} ...", file=sys.stderr
            ),
        )
    result = compare(baseline, fresh, max_regress=threshold)
    print(format_comparison(result))
    return 0 if result.ok else 1


def _cmd_lint(args) -> int:
    from repro.analysis import lint_paths

    try:
        found = lint_paths(args.paths or None)
    except FileNotFoundError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    for diag in found:
        print(diag.render())
    print(f"-- repro-lint: {len(found)} finding(s)")
    return 1 if found else 0


def _add_backend_flag(p) -> None:
    """The ``--backend`` flag of the simulation-running commands: it
    selects the *cache model*."""
    from repro.machine.backend import BACKEND_NAMES, DEFAULT_BACKEND

    p.add_argument(
        "--backend", choices=BACKEND_NAMES, default=DEFAULT_BACKEND,
        help="cache backend: 'sim' replays every reference through the "
        "simulated hierarchy with coherence, 'analytic' prices misses "
        "with the closed-form reuse-distance model and no coherence -- "
        "faster, approximate within the bounds the analytic-oracle CI "
        "job pins on 1-cpu FCFS, and refused for multi-cpu runs "
        "(--cpus > 1, experiment fig9; docs/MODEL.md 'When to trust it')",
    )


def _add_sweep_flags(p) -> None:
    """The ``--jobs`` and ``--cache-dir`` flags the sharded sweep
    commands share."""
    p.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for the sharded sweep; the output is "
        "bit-identical to --jobs 1",
    )
    p.add_argument(
        "--cache-dir", dest="cache_dir", metavar="DIR",
        help="content-addressed result cache directory: finished "
        "cells are skipped on re-run (resumable sweeps)",
    )


def _add_workload_flags(p) -> None:
    """The workload, machine-size and seed flags ``run`` and
    ``compare`` share."""
    p.add_argument("--workload", choices=sorted(PERFORMANCE_WORKLOADS),
                   required=True)
    p.add_argument("--cpus", type=int, default=1)
    p.add_argument("--paper-scale", action="store_true")
    p.add_argument("--seed", type=int, default=0)


class _LintHelpFormatter(argparse.HelpFormatter):
    """Names the default lint targets from ``DEFAULT_TARGETS`` when
    ``repro lint --help`` prints, so the text cannot drift from what the
    linter walks and building the parser imports no analysis code."""

    def _get_help_string(self, action):
        text = super()._get_help_string(action)
        if action.dest == "paths":
            from repro.analysis.determinism import DEFAULT_TARGETS

            text += " (default: " + ", ".join(DEFAULT_TARGETS) + ")"
        return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Thread-locality scheduling reproduction (ASPLOS 1998)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one workload under one policy")
    _add_workload_flags(run_p)
    run_p.add_argument("--policy", choices=sorted(SCHEDULERS), default="lff")
    run_p.add_argument(
        "--report", action="store_true",
        help="print the full post-run analysis instead of one row",
    )
    _add_backend_flag(run_p)
    run_p.set_defaults(func=_cmd_run)

    cmp_p = sub.add_parser("compare", help="FCFS vs LFF vs CRT")
    _add_workload_flags(cmp_p)
    _add_backend_flag(cmp_p)
    cmp_p.set_defaults(func=_cmd_compare)

    trace_p = sub.add_parser("trace", help="footprint trace of one app")
    trace_p.add_argument(
        "--app",
        choices=sorted({**MONITORED_APPS, **ANOMALOUS_APPS}),
        required=True,
    )
    trace_p.add_argument("--seed", type=int, default=0)
    _add_backend_flag(trace_p)
    trace_p.set_defaults(func=_cmd_trace)

    model_p = sub.add_parser("model", help="evaluate the closed-form model")
    model_p.add_argument("--lines", type=int, default=8192)
    model_p.add_argument("--initial", type=float, default=0.0)
    model_p.add_argument("--q", type=float, default=0.5)
    model_p.add_argument("--misses", type=int, nargs="+",
                         default=[0, 1000, 4000, 16000])
    model_p.set_defaults(func=_cmd_model)

    exp_p = sub.add_parser("experiment", help="regenerate a table/figure")
    exp_p.add_argument(
        "name",
        choices=[
            "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "table3", "table5", "fairness", "inference", "offline",
        ],
    )
    _add_sweep_flags(exp_p)
    _add_backend_flag(exp_p)
    exp_p.set_defaults(func=_cmd_experiment)

    faults_p = sub.add_parser(
        "faults", help="fault injection: hints must never affect correctness"
    )
    faults_sub = faults_p.add_subparsers(dest="faults_command", required=True)
    faults_run_p = faults_sub.add_parser(
        "run", help="run the fault campaign and report per-cell outcomes"
    )
    # choices are resolved lazily at run time; listed here for --help only
    faults_run_p.add_argument(
        "--workload",
        default="all",
        help="campaign workload name, or 'all' "
        "(randomwalk/tasks/merge/photo/tsp)",
    )
    faults_run_p.add_argument(
        "--fault",
        default="all",
        help="fault class name (see repro.faults.FAULT_CLASSES), or 'all'",
    )
    faults_run_p.add_argument(
        "--policy",
        action="append",
        choices=sorted(SCHEDULERS),
        help="policy to exercise (repeatable; default: fcfs and lff)",
    )
    faults_run_p.add_argument(
        "--scale", choices=("smoke", "default"), default="smoke"
    )
    faults_run_p.add_argument("--seed", type=int, default=0)
    _add_sweep_flags(faults_run_p)
    faults_run_p.set_defaults(func=_cmd_faults_run)

    analyze_p = sub.add_parser(
        "analyze",
        help="annotation lint, lock-order, and race analysis passes",
    )
    analyze_p.add_argument(
        "--workload",
        action="append",
        help="workload to analyze (repeatable; default: all)",
    )
    analyze_p.add_argument(
        "--pass",
        dest="passes",
        action="append",
        choices=("annotations", "locks", "races"),
        help="run only this pass (repeatable; default: all three)",
    )
    analyze_p.add_argument(
        "--baseline",
        help="baseline file of accepted diagnostic fingerprints",
    )
    analyze_p.add_argument(
        "--write-baseline", action="store_true",
        help="accept all current findings into --baseline and exit",
    )
    analyze_p.add_argument(
        "--update-baseline", action="store_true",
        help="regenerate --baseline from current findings, refusing if "
        "new error-severity findings would be buried",
    )
    analyze_p.add_argument(
        "--strict-baseline", action="store_true",
        help="also fail on stale baseline entries the current run no "
        "longer produces",
    )
    analyze_p.add_argument(
        "--waive", metavar="FINGERPRINT",
        help="record a waive reason for one accepted finding in "
        "--baseline (requires --waive-reason)",
    )
    analyze_p.add_argument(
        "--waive-reason", metavar="TEXT",
        help="justification stored with --waive",
    )
    analyze_p.set_defaults(func=_cmd_analyze)

    lint_p = sub.add_parser(
        "lint",
        help="repro-lint: determinism pass over the simulator source",
        formatter_class=_LintHelpFormatter,
    )
    lint_p.add_argument(
        "paths", nargs="*",
        help="files or directories (under src/, else the working directory)",
    )
    lint_p.set_defaults(func=_cmd_lint)

    mc_p = sub.add_parser(
        "mc",
        help="exhaustive schedule model checker (DPOR) + symbolic "
        "cache-model verification",
    )
    mc_p.add_argument(
        "--fixture", action="append",
        help="fixture to explore (repeatable; default: all registered)",
    )
    mc_p.add_argument(
        "--budget", choices=("small", "full"), default="small",
        help="exploration budget (full raises the preemption bound to 1)",
    )
    mc_p.add_argument(
        "--no-chaos", action="store_true",
        help="skip the re-exploration under corrupted annotations",
    )
    mc_p.add_argument(
        "--skip-model", action="store_true",
        help="skip the symbolic cache-model sweep",
    )
    _add_sweep_flags(mc_p)
    mc_p.set_defaults(func=_cmd_mc)

    bench_p = sub.add_parser(
        "bench",
        help="performance-regression harness (docs/BENCHMARKS.md)",
    )
    bench_sub = bench_p.add_subparsers(dest="bench_command", required=True)

    bench_run_p = bench_sub.add_parser(
        "run", help="run a suite and write BENCH_<suite>.json"
    )
    bench_run_p.add_argument(
        "--suite", default="smoke",
        help="suite name (smoke, hotpaths, ...; default: smoke)",
    )
    bench_run_p.add_argument(
        "--out",
        help="output JSON path (default: BENCH_<suite>.json in the cwd)",
    )
    # no --jobs/--cache-dir: concurrent benchmarks contend for cores,
    # and a cached timing would report a past machine state
    bench_run_p.set_defaults(func=_cmd_bench_run)

    bench_cmp_p = bench_sub.add_parser(
        "compare",
        help="diff two BENCH_*.json files; exit 1 on median regression",
    )
    bench_cmp_p.add_argument(
        "--baseline", required=True,
        help="checked-in baseline BENCH_*.json",
    )
    bench_cmp_p.add_argument(
        "--new",
        help="fresh results JSON (default: re-run the baseline's suite now)",
    )
    bench_cmp_p.add_argument(
        "--max-regress", default="25%",
        help="median-regression threshold as a percentage, e.g. '40%%' "
        "(default: 25%%)",
    )
    bench_cmp_p.set_defaults(func=_cmd_bench_compare)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
