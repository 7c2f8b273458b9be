"""A finished run is freed by reference counting alone.

A sweep builds one machine per cell.  If the objects of a run form a
reference cycle, the run outlives its result until the cyclic collector
happens to run, and dead runs of a few MB each pile up.  These tests run
with the collector disabled and check that dropping a run's result frees
its machine and its cache hierarchies at once.
"""

import gc
import weakref
from dataclasses import replace

import pytest

from repro.machine.configs import SMALL
from repro.sched.fcfs import FCFSScheduler
from repro.sched.locality import make_lff
from repro.sim import driver
from repro.workloads import MergeMonitored, TasksParams, TasksWorkload

SMP = replace(SMALL, name="small-smp", num_cpus=4)


@pytest.fixture
def machines(monkeypatch):
    """Per machine the drivers build: weak references to it and to each
    of its cpus' cache hierarchies."""
    runs = []

    class Recorded(driver.Machine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runs.append([weakref.ref(self)]
                        + [weakref.ref(cpu.hierarchy) for cpu in self.cpus])

    monkeypatch.setattr(driver, "Machine", Recorded)
    return runs


def _freed(runs):
    return len(runs) == 1 and all(ref() is None for ref in runs[0])


@pytest.fixture
def no_gc():
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.mark.parametrize("backend", ["sim", "analytic"])
@pytest.mark.parametrize("engine", ["stepped", "event"])
@pytest.mark.parametrize("make_scheduler", [FCFSScheduler, make_lff],
                         ids=["fcfs", "lff"])
def test_performance_run_freed(machines, no_gc, engine, backend,
                               make_scheduler):
    result = driver.run_performance(
        TasksWorkload(TasksParams(num_tasks=8, periods=2)),
        SMP,
        make_scheduler(),
        engine=engine,
        backend=backend,
    )
    assert result.l2_misses > 0
    del result
    assert _freed(machines)


def test_l1_hierarchy_run_freed(machines, no_gc):
    """Inclusion enforcement between the L1s and the E-cache."""
    driver.run_performance(
        TasksWorkload(TasksParams(num_tasks=8, periods=2)),
        replace(SMP, model_l1=True),
        FCFSScheduler(),
    )
    assert _freed(machines)


@pytest.mark.parametrize("backend", ["sim", "analytic"])
def test_monitored_run_freed(machines, no_gc, backend):
    result = driver.run_monitored(
        MergeMonitored(num_elements=2000), SMALL, backend=backend
    )
    assert result.misses.size > 0
    del result
    assert _freed(machines)
