"""Cache simulators with per-line residency reporting.

The paper's measurement apparatus is a cache simulator that "understands"
context switches and preserves the association between cache lines and
threads, because hardware counters alone lose that association (section 3).
These simulators therefore report exactly which physical lines each access
batch installed and evicted, so an external tracer can maintain observed
per-thread footprints without the cache knowing anything about threads.

Two organisations are provided:

- :class:`DirectMappedCache` -- the organisation the analytical model
  targets ("large off-chip physical direct-mapped caches", section 2.1).
- :class:`SetAssociativeCache` -- the extension the paper mentions but does
  not build ("the developed model can be extended to the associative cache
  case"); used by the associativity ablation bench.

Caches operate on *physical line numbers* (already translated by
:class:`repro.machine.vm.VirtualMemory`).
"""

from __future__ import annotations

import math
from typing import Callable, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.machine.address import as_lines

#: Listener signature: called with a list of physical line numbers.
LineListener = Callable[[List[int]], None]


def _net_effect(installed, evicted) -> Tuple[List[int], List[int]]:
    """Reduce raw install/evict logs of one batch to their net residency
    effect.

    Within a batch a line can be installed and then evicted (or evicted
    and reinstalled); listeners receive whole batches, so they must see
    only the net change or their residency bookkeeping would depend on
    intra-batch ordering that batching discards.  Residency is binary, so
    the net change per line is +1, -1 or 0.
    """
    counts = {}
    for pline in installed:
        counts[pline] = counts.get(pline, 0) + 1
    for pline in evicted:
        counts[pline] = counts.get(pline, 0) - 1
    net_in = [p for p, c in counts.items() if c > 0]
    net_out = [p for p, c in counts.items() if c < 0]
    return net_in, net_out


class AccessResult(NamedTuple):
    """Outcome of one access batch.

    ``installed``/``evicted`` are the *net* residency changes of the batch
    (see :func:`_net_effect`); ``miss_lines`` is the raw, ordered sequence
    of missed lines (length ``misses``), which the hierarchy forwards to
    the next level.  All three hold physical line numbers.  A named tuple
    rather than a frozen dataclass: one is built per touch, and a frozen
    dataclass's ``__init__`` costs about three times as much.
    """

    refs: int
    hits: int
    misses: int
    installed: List[int]
    evicted: List[int]
    writebacks: int = 0
    miss_lines: Sequence[int] = ()


class CacheStats:
    """Cumulative counters shared by both cache organisations."""

    def __init__(self) -> None:
        self.refs = 0
        self.hits = 0
        self.misses = 0
        self.writebacks = 0
        self.invalidations = 0

    @property
    def miss_rate(self) -> float:
        """Fraction of references that missed (0 if no references yet)."""
        return self.misses / self.refs if self.refs else 0.0

    def snapshot(self) -> dict:
        """A plain-dict copy, convenient for reports."""
        return {
            "refs": self.refs,
            "hits": self.hits,
            "misses": self.misses,
            "writebacks": self.writebacks,
            "invalidations": self.invalidations,
        }


class _BaseCache:
    """Residency bookkeeping and listener plumbing common to both caches."""

    def __init__(self, size_bytes: int, line_bytes: int) -> None:
        if size_bytes <= 0 or line_bytes <= 0:
            raise ValueError("cache and line sizes must be positive")
        if size_bytes % line_bytes != 0:
            raise ValueError("cache size must be a whole number of lines")
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.num_lines = size_bytes // line_bytes
        self.stats = CacheStats()
        self._install_listeners: List[LineListener] = []
        self._evict_listeners: List[LineListener] = []

    def on_install(self, listener: LineListener) -> None:
        """Register a callback invoked with each batch of installed lines."""
        self._install_listeners.append(listener)

    def on_evict(self, listener: LineListener) -> None:
        """Register a callback invoked with each batch of evicted lines.

        Invalidations are reported through the same callback: for footprint
        accounting, a line leaving the cache is a line leaving the cache.
        """
        self._evict_listeners.append(listener)

    def _notify(self, installed: List[int], evicted: List[int]) -> None:
        if installed:
            for listener in self._install_listeners:
                listener(installed)
        if evicted:
            for listener in self._evict_listeners:
                listener(evicted)

    # -- interface subclasses must implement ------------------------------

    def access(self, plines, write: bool = False) -> AccessResult:
        """Access a batch of physical lines (a list or an array) in order;
        returns the outcome."""
        raise NotImplementedError

    def invalidate(self, plines) -> int:
        """Drop any resident copies of ``plines``; returns how many were."""
        raise NotImplementedError

    def resident_lines(self) -> np.ndarray:
        """Physical line numbers currently resident (unsorted)."""
        raise NotImplementedError

    def contains(self, pline: int) -> bool:
        """Whether a single physical line is resident."""
        raise NotImplementedError

    def flush(self) -> int:
        """Evict everything (used to flush state before a monitored phase,
        as the paper does for its 'work' threads in section 3.3); returns
        the number of lines evicted."""
        raise NotImplementedError


class DirectMappedCache(_BaseCache):
    """A physically indexed, physically tagged direct-mapped cache.

    The state lives in plain Python lists.  A batch is priced piece by
    piece, each piece ending at a frame boundary, at the end of the index
    space, or at the end of the batch:

    - a piece whose lines are all resident is one list compare of the
      residency slice against the piece;
    - a piece that is one contiguous run of lines, none of them resident,
      is installed by slice assignment, with the writebacks counted from
      the dirty slice;
    - anything else -- a mixed run, scattered lines, a single line -- goes
      through :meth:`_replay`, the ordered per-reference loop.

    Pieces are priced in batch order, and a run piece never wraps the
    index space, so no two of its lines share an index: the outcome
    (including the order of ``miss_lines`` and of evictions) is the
    per-reference loop's, line for line.  ``frame_lines`` only decides
    where pieces are cut: a run of virtual lines is a run of physical
    lines only up to a page-frame boundary, so the hierarchy passes the
    page size in lines.  The raw install/evict logs are reduced with
    :func:`_net_effect` only when the batch actually reinstalls a line it
    evicted (or evicts one it installed); otherwise raw is net.
    """

    def __init__(
        self, size_bytes: int, line_bytes: int = 64, frame_lines: int = 0
    ) -> None:
        super().__init__(size_bytes, line_bytes)
        # pieces are cut at multiples of this: at every frame boundary
        # and at the end of the index space (frame_lines=0: no frames)
        self._cut = math.gcd(frame_lines, self.num_lines)
        #: per index: resident physical line (-1 = empty) and dirty flag
        self._resident: List[int] = [-1] * self.num_lines
        self._dirty: List[bool] = [False] * self.num_lines

    def index_of(self, pline: int) -> int:
        """Cache index a physical line maps to."""
        return pline % self.num_lines

    def access(self, plines, write: bool = False) -> AccessResult:
        lines = as_lines(plines)
        refs = len(lines)
        n = self.num_lines
        cut = self._cut
        resident = self._resident
        dirty = self._dirty
        installed: List[int] = []
        evicted: List[int] = []
        writebacks = 0
        j = 0
        while j < refs:
            pline = lines[j]
            i = pline % n
            count = min(refs - j, cut - pline % cut)
            if count == 1:
                writebacks += self._replay((pline,), write, installed, evicted)
                j += 1
                continue
            piece = lines[j:j + count]
            j += count
            old = resident[i:i + count]
            if old == piece:  # every line hits
                if write:
                    dirty[i:i + count] = [True] * count
                continue
            last = pline + count - 1
            if piece[-1] == last and piece == list(range(pline, last + 1)):
                # a resident line sits at its own index, so it can only
                # equal the piece line at the same position
                empty = old.count(-1)
                if empty == count or set(old).isdisjoint(piece):
                    # every line misses; only resident lines are dirty
                    if empty < count:
                        writebacks += dirty[i:i + count].count(True)
                        evicted += (
                            old if empty == 0 else [p for p in old if p >= 0]
                        )
                    resident[i:i + count] = piece
                    dirty[i:i + count] = [write] * count
                    installed += piece
                    continue
            writebacks += self._replay(piece, write, installed, evicted)
        misses = len(installed)
        if evicted and not set(evicted).isdisjoint(installed):
            net_in, net_out = _net_effect(installed, evicted)
        else:
            net_in, net_out = installed, evicted
        stats = self.stats
        stats.refs += refs
        stats.hits += refs - misses
        stats.misses += misses
        stats.writebacks += writebacks
        self._notify(net_in, net_out)
        return AccessResult(
            refs=refs,
            hits=refs - misses,
            misses=misses,
            installed=net_in,
            evicted=net_out,
            writebacks=writebacks,
            miss_lines=installed,
        )

    def _replay(self, lines, write: bool, installed: List[int],
                evicted: List[int]) -> int:
        """The per-reference loop: access ``lines`` in order, appending to
        the raw install/evict logs; returns the writebacks."""
        n = self.num_lines
        resident = self._resident
        dirty = self._dirty
        writebacks = 0
        for pline in lines:
            i = pline % n
            old = resident[i]
            if old == pline:
                if write:
                    dirty[i] = True
                continue
            if old >= 0:
                evicted.append(old)
                if dirty[i]:
                    writebacks += 1
            resident[i] = pline
            dirty[i] = write
            installed.append(pline)
        return writebacks

    def invalidate(self, plines) -> int:
        n = self.num_lines
        resident = self._resident
        dirty = self._dirty
        victims: List[int] = []
        for pline in as_lines(plines):
            i = pline % n
            if resident[i] == pline:
                resident[i] = -1
                dirty[i] = False
                victims.append(pline)
        if not victims:
            return 0
        self.stats.invalidations += len(victims)
        self._notify([], victims)
        return len(victims)

    def resident_lines(self) -> np.ndarray:
        return np.array([p for p in self._resident if p >= 0], dtype=np.int64)

    def contains(self, pline: int) -> bool:
        return self._resident[pline % self.num_lines] == pline

    def flush(self) -> int:
        victims = [p for p in self._resident if p >= 0]
        self._resident = [-1] * self.num_lines
        self._dirty = [False] * self.num_lines
        self._notify([], victims)
        return len(victims)


class SetAssociativeCache(_BaseCache):
    """An LRU set-associative cache (the model-extension case).

    ``ways=1`` degenerates to direct-mapped behaviour and is checked against
    :class:`DirectMappedCache` by the property tests.

    The simulator state is kept in plain per-set Python lists rather than
    numpy arrays: the access loop is inherently per-reference (LRU state
    changes between references), and element-wise numpy operations on
    ``ways``-sized rows cost an order of magnitude more than list
    scans at the associativities that occur in practice (2-16).  The
    ``cache_assoc_access`` benchmark in ``repro.bench`` guards this.
    """

    def __init__(self, size_bytes: int, line_bytes: int = 64, ways: int = 4) -> None:
        super().__init__(size_bytes, line_bytes)
        if ways <= 0 or self.num_lines % ways != 0:
            raise ValueError("ways must divide the number of lines")
        self.ways = ways
        self.num_sets = self.num_lines // ways
        # per set: tags (-1 = empty), dirty flags, LRU stamps
        self._tags: List[List[int]] = [
            [-1] * ways for _ in range(self.num_sets)
        ]
        self._dirty: List[List[bool]] = [
            [False] * ways for _ in range(self.num_sets)
        ]
        self._stamp: List[List[int]] = [
            [0] * ways for _ in range(self.num_sets)
        ]
        self._clock = 0

    def access(self, plines, write: bool = False) -> AccessResult:
        lines = as_lines(plines)
        hits = 0
        installed: List[int] = []
        evicted: List[int] = []
        writebacks = 0
        num_sets = self.num_sets
        tags = self._tags
        dirty = self._dirty
        stamp = self._stamp
        clock = self._clock
        for pline in lines:
            s = pline % num_sets
            clock += 1
            row = tags[s]
            try:
                w = row.index(pline)
                hits += 1
            except ValueError:
                try:
                    w = row.index(-1)
                except ValueError:
                    srow = stamp[s]
                    w = srow.index(min(srow))
                    evicted.append(row[w])
                    if dirty[s][w]:
                        writebacks += 1
                row[w] = pline
                dirty[s][w] = False
                installed.append(pline)
            stamp[s][w] = clock
            if write:
                dirty[s][w] = True
        self._clock = clock
        net_in, net_out = _net_effect(installed, evicted)
        result = AccessResult(
            refs=len(lines),
            hits=hits,
            misses=len(installed),
            installed=net_in,
            evicted=net_out,
            writebacks=writebacks,
            miss_lines=installed,
        )
        stats = self.stats
        stats.refs += result.refs
        stats.hits += result.hits
        stats.misses += result.misses
        stats.writebacks += result.writebacks
        self._notify(result.installed, result.evicted)
        return result

    def invalidate(self, plines) -> int:
        victims: List[int] = []
        for pline in as_lines(plines):
            s = pline % self.num_sets
            row = self._tags[s]
            try:
                w = row.index(pline)
            except ValueError:
                continue
            row[w] = -1
            self._dirty[s][w] = False
            victims.append(pline)
        self.stats.invalidations += len(victims)
        self._notify([], victims)
        return len(victims)

    def resident_lines(self) -> np.ndarray:
        flat = [tag for row in self._tags for tag in row if tag >= 0]
        return np.asarray(flat, dtype=np.int64)

    def contains(self, pline: int) -> bool:
        return pline in self._tags[pline % self.num_sets]

    def flush(self) -> int:
        victims = [tag for row in self._tags for tag in row if tag >= 0]
        ways = self.ways
        for s in range(self.num_sets):
            self._tags[s] = [-1] * ways
            self._dirty[s] = [False] * ways
            self._stamp[s] = [0] * ways
        self._notify([], victims)
        return len(victims)
