"""Simulation driver, per-thread footprint tracing, and metrics.

This package plays the role of the paper's Shade-based measurement
apparatus (section 3): it observes what the hardware counters cannot --
"the information about the association between cache lines and threads is
lost.  Hardware simulations that preserve such association are
necessary."  The tracer is measurement-only; schedulers never see it.
"""

from repro.sim.analysis import run_report, thread_summaries, cpu_summaries
from repro.sim.driver import run_monitored, run_performance
from repro.sim.metrics import MonitoredResult, PerfResult, mpi_series
from repro.sim.report import format_table
from repro.sim.tracer import FootprintTracer

__all__ = [
    "FootprintTracer",
    "cpu_summaries",
    "run_report",
    "thread_summaries",
    "MonitoredResult",
    "PerfResult",
    "format_table",
    "mpi_series",
    "run_monitored",
    "run_performance",
]
