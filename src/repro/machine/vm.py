"""Virtual-to-physical page placement.

The UltraSPARC E-cache is physically indexed and tagged while workloads
generate virtual addresses, so page placement decides which cache bins a
page's lines land in.  The paper implements "a variant of the hierarchical
page mapping policy suggested by Kessler and Hill [13] ... shown to perform
better than a naive (arbitrary) page placement" (section 3.1).  Both
policies are provided here; the hierarchical one is the default everywhere,
and the naive one backs the page-placement ablation bench.

Pages are mapped lazily, on first touch (a simulated page fault), exactly
like a demand-paged VM system.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.machine.address import LINE_BYTES, PAGE_BYTES, as_lines


class PlacementPolicy:
    """Chooses a physical frame for a faulting virtual page.

    Policies see the *cache geometry* (number of page-sized bins in the
    cache) because that is what page coloring is about; they do not see
    cache contents.
    """

    def __init__(
        self,
        num_bins: int,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
    ):
        if num_bins <= 0:
            raise ValueError("cache must have at least one page bin")
        self.num_bins = num_bins
        #: the tiebreak stream: either the machine's generator, or one
        #: derived from the explicit ``seed`` parameter -- never an
        #: implicit constant buried in the implementation
        self.rng = rng if rng is not None else np.random.default_rng(seed)

    def choose_bin(self, vpage: int) -> int:
        """Pick the cache bin (page color) for a faulting page."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget per-run state (bin usage counts)."""


class NaivePlacement(PlacementPolicy):
    """Arbitrary placement: a uniformly random bin per fault.

    This is the baseline Kessler and Hill improve upon; kept for the
    ablation bench.
    """

    def choose_bin(self, vpage: int) -> int:
        return int(self.rng.integers(self.num_bins))


class KesslerHillPlacement(PlacementPolicy):
    """Hierarchical page placement (Kessler & Hill 1992, section 3.1).

    A fault descends a binary tree over groups of cache bins, at each level
    taking the half with the lighter aggregate load, and finally picks the
    least-loaded bin in the reached leaf group (rotating the tiebreak so
    identical fault sequences do not align onto identical bins).  The
    effect is to spread pages evenly over cache bins and so reduce conflict
    misses -- which the paper relies on to justify the model's
    uniform-mapping assumption, and which "was shown to perform better than
    a naive (arbitrary) page placement".
    """

    #: bins per color group: a page may be placed in any bin of its
    #: virtual color's group, wherever the current load is lightest
    leaf_group: int = 4

    def __init__(
        self,
        num_bins: int,
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
    ):
        super().__init__(num_bins, rng, seed=seed)
        self._bin_load: List[int] = [0] * num_bins

    def choose_bin(self, vpage: int) -> int:
        # Page coloring picks the group (so virtual locality maps to
        # distinct bins, like the static policy); the load comparison picks
        # the bin within the group (the hierarchical refinement); a random
        # tie-break stops two identical allocation sequences from landing
        # on identical bins.
        preferred = vpage % self.num_bins
        lo = (preferred // self.leaf_group) * self.leaf_group
        hi = min(lo + self.leaf_group, self.num_bins)
        loads = self._bin_load[lo:hi]
        lightest = min(loads)
        candidates = [
            b for b, load in zip(range(lo, hi), loads) if load == lightest
        ]
        best = candidates[int(self.rng.integers(len(candidates)))]
        self._bin_load[best] += 1
        return best

    def reset(self) -> None:
        self._bin_load = [0] * self.num_bins


class VirtualMemory:
    """Demand-paged virtual memory with pluggable placement.

    Frames are unbounded (the paper notes all runs fit in RAM); what matters
    is the *color* of the frame each page gets, i.e. which cache bin its
    lines index into.  A frame is identified by a physical page number whose
    low bits encode its bin:  ``ppage % num_bins == bin``.
    """

    def __init__(
        self,
        cache_bytes: int,
        page_bytes: int = PAGE_BYTES,
        line_bytes: int = LINE_BYTES,
        policy: Optional[PlacementPolicy] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        if cache_bytes % page_bytes != 0:
            raise ValueError("cache size must be a whole number of pages")
        self.page_bytes = page_bytes
        self.line_bytes = line_bytes
        self.lines_per_page = page_bytes // line_bytes
        self.num_bins = cache_bytes // page_bytes
        self.policy = policy or KesslerHillPlacement(self.num_bins, rng=rng)
        if self.policy.num_bins != self.num_bins:
            raise ValueError("placement policy built for a different cache geometry")
        self._v2p: Dict[int, int] = {}
        self._p2v: Dict[int, int] = {}
        self._next_frame_in_bin: List[int] = list(range(self.num_bins))
        self.page_faults = 0

    def translate_page(self, vpage: int) -> int:
        """Physical page for ``vpage``, faulting it in if necessary."""
        ppage = self._v2p.get(vpage)
        if ppage is None:
            ppage = self._fault(vpage)
        return ppage

    def _fault(self, vpage: int) -> int:
        self.page_faults += 1
        color = self.policy.choose_bin(vpage)
        ppage = self._next_frame_in_bin[color]
        self._next_frame_in_bin[color] += self.num_bins
        self._v2p[vpage] = ppage
        self._p2v[ppage] = vpage
        return ppage

    def translate_lines(self, vlines) -> List[int]:
        """Translate virtual line numbers (a list or an array) to a list
        of physical lines.

        A batch that is one ascending run of lines is translated once per
        page: each page's piece of the run is one ``range`` of physical
        lines.  Any other batch takes one list pass.  Either way missing
        pages fault in ascending virtual page order, so the placement
        policy sees the same fault sequence (and draws the same
        tie-breaks) however the batch is ordered.
        """
        lines = as_lines(vlines)
        lpp = self.lines_per_page
        v2p = self._v2p
        first = lines[0] if lines else 0
        end = first + len(lines)
        if lines == list(range(first, end)):
            plines: List[int] = []
            v = first
            while v < end:
                vpage = v // lpp
                stop = min(end, (vpage + 1) * lpp)
                ppage = v2p.get(vpage)
                if ppage is None:
                    ppage = self._fault(vpage)
                offset = (ppage - vpage) * lpp
                plines += range(v + offset, stop + offset)
                v = stop
            return plines
        pages = [v // lpp for v in lines]
        for vpage in sorted(set(pages).difference(v2p)):
            self._fault(vpage)
        return [(v2p[p] - p) * lpp + v for p, v in zip(pages, lines)]

    def reverse_line(self, pline: int) -> Optional[int]:
        """Virtual line for a physical line, or ``None`` if unmapped."""
        lpp = self.lines_per_page
        vpage = self._p2v.get(pline // lpp)
        if vpage is None:
            return None
        return vpage * lpp + pline % lpp

    def reverse_lines(self, plines) -> List[int]:
        """Batch :meth:`reverse_line`; unmapped lines map to ``-1``."""
        lpp = self.lines_per_page
        p2v = self._p2v
        vlines = []
        for pline in as_lines(plines):
            vpage = p2v.get(pline // lpp)
            vlines.append(-1 if vpage is None else vpage * lpp + pline % lpp)
        return vlines

    @property
    def mapped_pages(self) -> int:
        """Number of virtual pages currently mapped."""
        return len(self._v2p)
