"""Virtual address space and region allocation.

The paper's threads are "units of (possibly parallel) execution with
independent lifetimes and separate stacks that share the address space"
(section 2.3).  Workloads in this reproduction allocate named *regions*
(stacks, heap objects, shared arrays) out of one :class:`AddressSpace` and
touch them through the simulated cache hierarchy.

Addresses are plain integers.  A *line* is the unit of cache residency
(64 bytes on the UltraSPARC-1, Table 1) and a *page* is the unit of virtual
memory placement (8 KiB on Solaris/UltraSPARC).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

import numpy as np

#: Default line size in bytes (UltraSPARC-1 E-cache line, Table 1).
LINE_BYTES = 64
#: Default page size in bytes (Solaris on UltraSPARC).
PAGE_BYTES = 8192


def as_lines(lines) -> List[int]:
    """A batch of line numbers as a plain ``list`` of ints.

    The simulated touch path (VM, caches, directory, listeners) works on
    lists: most batches are a line or a few contiguous runs, where list
    operations cost less than one numpy call.  A list passes through
    as is; anything else (an array, a range) is converted once.
    """
    if lines.__class__ is list:
        return lines
    return np.asarray(lines, dtype=np.int64).tolist()


class AllocationError(Exception):
    """Raised when an :class:`AddressSpace` cannot satisfy an allocation."""


@dataclass(frozen=True)
class Region:
    """A contiguous, named range of virtual addresses.

    Regions are the granularity at which workloads declare thread state and
    issue memory touches.  They are immutable; sub-ranges are expressed with
    :meth:`slice`.
    """

    name: str
    base: int
    size: int
    line_bytes: int = LINE_BYTES

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"region {self.name!r} must have positive size")
        if self.base < 0:
            raise ValueError(f"region {self.name!r} must have non-negative base")

    @property
    def end(self) -> int:
        """One past the last byte of the region."""
        return self.base + self.size

    @property
    def first_line(self) -> int:
        """Virtual line number of the first line overlapping the region."""
        return self.base // self.line_bytes

    @property
    def last_line(self) -> int:
        """Virtual line number of the last line overlapping the region."""
        return (self.end - 1) // self.line_bytes

    @property
    def num_lines(self) -> int:
        """Number of distinct cache lines the region overlaps."""
        return self.last_line - self.first_line + 1

    def lines(self) -> np.ndarray:
        """All virtual line numbers covered by the region, ascending."""
        return np.arange(self.first_line, self.last_line + 1, dtype=np.int64)

    def line_slice(self, start_line: int, count: int) -> np.ndarray:
        """Virtual line numbers for ``count`` lines starting at region-relative
        line index ``start_line``.

        The range is clamped to the region, so callers may over-ask near the
        end without error.
        """
        lo = self.first_line + max(0, start_line)
        hi = min(self.last_line + 1, lo + max(0, count))
        return np.arange(lo, hi, dtype=np.int64)

    def slice(self, offset: int, size: int, name: Optional[str] = None) -> "Region":
        """A sub-region of ``size`` bytes starting ``offset`` bytes in."""
        if offset < 0 or size <= 0 or offset + size > self.size:
            raise ValueError(
                f"slice [{offset}, {offset + size}) outside region {self.name!r} "
                f"of size {self.size}"
            )
        return Region(
            name=name or f"{self.name}[{offset}:{offset + size}]",
            base=self.base + offset,
            size=size,
            line_bytes=self.line_bytes,
        )

    def contains(self, addr: int) -> bool:
        """Whether ``addr`` falls inside the region."""
        return self.base <= addr < self.end

    def __len__(self) -> int:
        return self.size


@dataclass
class AddressSpace:
    """A shared virtual address space with a page-aligned bump allocator.

    All threads of a workload share one address space (the paper's
    programming model).  Allocation is page aligned so that distinct regions
    never share a page; this keeps the virtual-memory placement policies
    honest (a page belongs to exactly one region) and mirrors how the
    paper's workloads lay out stacks and heap arenas.
    """

    line_bytes: int = LINE_BYTES
    page_bytes: int = PAGE_BYTES
    base: int = PAGE_BYTES  # leave page 0 unmapped, as real systems do
    _next: int = field(init=False)
    _regions: Dict[str, Region] = field(init=False, default_factory=dict)

    def __post_init__(self) -> None:
        if self.page_bytes % self.line_bytes != 0:
            raise ValueError("page size must be a multiple of line size")
        self._next = self.base

    @property
    def lines_per_page(self) -> int:
        """Cache lines per virtual page."""
        return self.page_bytes // self.line_bytes

    def allocate(self, name: str, size: int) -> Region:
        """Allocate a page-aligned region of at least ``size`` bytes.

        Region names must be unique within the address space; reusing a name
        is almost always a workload bug, so it raises.
        """
        if size <= 0:
            raise AllocationError(f"cannot allocate {size} bytes for {name!r}")
        if name in self._regions:
            raise AllocationError(f"region name {name!r} already allocated")
        base = self._next
        span = -(-size // self.page_bytes) * self.page_bytes  # round up
        self._next = base + span
        region = Region(name=name, base=base, size=size, line_bytes=self.line_bytes)
        self._regions[name] = region
        return region

    def allocate_lines(self, name: str, num_lines: int) -> Region:
        """Allocate a region spanning exactly ``num_lines`` cache lines."""
        return self.allocate(name, num_lines * self.line_bytes)

    def region(self, name: str) -> Region:
        """Look up a previously allocated region by name."""
        return self._regions[name]

    def regions(self) -> List[Region]:
        """All allocated regions in allocation order."""
        return list(self._regions.values())

    def __iter__(self) -> Iterator[Region]:
        return iter(self._regions.values())

    def __contains__(self, name: str) -> bool:
        return name in self._regions

    @property
    def bytes_allocated(self) -> int:
        """Total bytes reserved (including page-alignment padding)."""
        return self._next - self.base

    def page_of(self, addr: int) -> int:
        """Virtual page number containing ``addr``."""
        return addr // self.page_bytes

    def line_of(self, addr: int) -> int:
        """Virtual line number containing ``addr``."""
        return addr // self.line_bytes
