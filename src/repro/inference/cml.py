"""A Cache-Miss-Lookaside-style device (after Bershad et al. [5]).

The real CML buffer sits between the cache and memory and records a miss
history at page granularity in a small, fixed-size hardware table.  This
simulation attaches one device per processor E-cache:

- every E-cache miss appends a :class:`PageMissRecord` (page number plus
  the thread the OS last told the device about) to a bounded ring;
- software drains the ring at context switches -- the same moment the
  paper's runtime reads the PICs.

Fixed capacity is the honest hardware constraint: under miss bursts the
ring overwrites its oldest entries and the software sees a *sample* of
the miss stream, so inference built on it must tolerate loss.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.machine.processor import Processor


@dataclass(frozen=True)
class PageMissRecord:
    """One CML entry: the missing page and the thread running at the time."""

    page: int
    tid: int


class CMLBuffer:
    """Bounded per-processor page-miss history.

    Configured for user-mode misses only (the PCR-style user/supervisor
    selection of section 2.2): supervisor-mode traffic -- the scheduler's
    own data structures -- is invisible, or every thread would appear to
    share the kernel's pages.
    """

    def __init__(self, cpu: Processor, lines_per_page: int, capacity: int = 256,
                 machine=None):
        if capacity <= 0:
            raise ValueError("the device needs at least one entry")
        self.capacity = capacity
        self.lines_per_page = lines_per_page
        self._machine = machine
        self._ring: Deque[PageMissRecord] = deque(maxlen=capacity)
        self._current_tid: Optional[int] = None
        self.recorded = 0
        self.dropped = 0
        cpu.l2.on_install(self._on_miss_lines)

    def set_current_thread(self, tid: Optional[int]) -> None:
        """OS-side: tell the device whose misses it is now seeing."""
        self._current_tid = tid

    def _on_miss_lines(self, plines: List[int]) -> None:
        if self._current_tid is None:
            return  # idle / untracked traffic (e.g. setup-phase touches)
        if self._machine is not None and self._machine.kernel_mode:
            return  # supervisor-mode traffic: not monitored
        tid = self._current_tid
        lpp = self.lines_per_page
        for page in sorted({pline // lpp for pline in plines}):
            if len(self._ring) == self.capacity:
                self.dropped += 1
            self._ring.append(PageMissRecord(page, tid))
            self.recorded += 1

    def drain(self) -> List[PageMissRecord]:
        """Software-side: read and clear the ring (context-switch time)."""
        entries = list(self._ring)
        self._ring.clear()
        return entries

    def __len__(self) -> int:
        return len(self._ring)
