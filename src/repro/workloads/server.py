"""The `server` workload: a sparse, mostly-blocked request mix.

The paper's motivating setting is a multiprogrammed server whose thread
population far exceeds the processor count and whose threads spend most
of their lifetime *blocked* -- waiting on I/O, timers, or clients --
punctuated by short bursts that touch a small per-request state
(section 2).  ``tasks`` stresses the cache-affinity model with dense
wake/touch/block cycles; ``server`` stresses the *scheduling loop
itself*: with the default parameters well over 90% of all simulated
cycles have every thread asleep, so a quantum-stepped simulator burns
almost all its wall time idling cpus forward one tick at a time.

That makes this the reference fixture for idle-cpu parking in the
scheduling loop (docs/MODEL.md "The scheduling loop"): parked cpus jump
simulated time across the sleep gaps, and the ``bench_engine_event``
benchmark gates an order-of-magnitude wall-time win over the never-park
mode on exactly this shape -- while the counters stay bit-identical.

Each request thread staggers in, then alternates short touch bursts
over its private region with long sleeps.  States are disjoint, so as
with ``tasks`` no sharing annotations apply and any locality win is the
counter-driven model's alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.threads.events import Compute, Sleep, touch_region
from repro.workloads.base import Workload


@dataclass(frozen=True)
class ServerParams:
    """A sparse request mix: many threads, mostly asleep.

    The defaults give a ~96-97% idle fraction on a 32-cpu machine --
    the ``bench_engine_event`` fixture; ``paper_scale()`` is the same
    shape with more requests and more service periods.
    """

    num_requests: int = 96
    footprint_lines: int = 8  # per-request state (small: service is short)
    burst: int = 12  # touches per service period
    periods: int = 2  # service periods per request
    compute_per_touch: int = 40
    sleep_cycles: int = 700_000  # inter-arrival gap: the sparse part
    stagger_cycles: int = 6_000  # spreads initial arrivals out

    @staticmethod
    def paper_scale() -> "ServerParams":
        return ServerParams(
            num_requests=400,
            burst=30,
            periods=4,
            sleep_cycles=400_000,
            stagger_cycles=2_000,
        )


class ServerWorkload(Workload):
    """Staggered request threads: short touch bursts, long sleeps."""

    name = "server"

    def __init__(self, params: ServerParams = ServerParams()):
        self.params = params
        self.tids: List[int] = []

    def build(self, runtime) -> None:
        p = self.params
        for i in range(p.num_requests):
            region = runtime.alloc_lines(f"req-{i}", p.footprint_lines)

            def body(region=region, i=i):
                yield Sleep(i * p.stagger_cycles + 1)
                for _ in range(p.periods):
                    for _ in range(p.burst):
                        yield touch_region(region)
                        yield Compute(p.compute_per_touch)
                    yield Sleep(p.sleep_cycles)

            tid = runtime.at_create(body, name=f"req-{i}")
            runtime.declare_state(tid, [region])
            self.tids.append(tid)
