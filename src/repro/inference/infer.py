"""Inferring ``at_share`` coefficients from CML page-miss histories.

The inference keeps a bounded page *signature* per thread -- the set of
pages the CML recently saw it miss on.  At each context switch it drains
the blocking cpu's CML, updates the blocker's signature, and compares it
against the signatures of threads that share at least one page (found
through an inverted page->threads index, so the cost scales with the
pages actually drained, not the thread count).

For two threads a and b with signatures P(a), P(b), the paper's
coefficient q_ab = "the portion of a's state shared with b" is estimated
as ``|P(a) & P(b)| / |P(a)|``, smoothed exponentially across switches to
ride out CML sampling loss.  Estimates above ``min_q`` are written into
the *same* dependency graph user annotations populate, so the unmodified
LFF/CRT machinery consumes them -- "some sharing patterns could be
inferred without user intervention" (section 7).

This is an estimate of *page*-granularity sharing; false sharing within a
page inflates q, which is the known cost of CML granularity the paper
inherits from [5].

A miss-only device has a visibility problem: once one thread reloads a
shared page, its partners hit on it and the sharing never reaches the
CML.  The paper anticipates the fix -- "repeated trial runs with judicial
unmapping of pages at the context switch time may be another viable
alternative for identifying shared pages" -- implemented here as the
*probe*: at each context switch the inference invalidates a small random
sample of just-missed pages, so the next thread to touch them takes a
recordable miss.  ``probe_pages`` bounds the per-switch cost.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Set

import numpy as np

from repro.inference.cml import CMLBuffer
from repro.threads.runtime import Observer, Runtime


class _Signature:
    """A bounded, recency-ordered page set."""

    def __init__(self, max_pages: int):
        self.max_pages = max_pages
        self._pages: "OrderedDict[int, None]" = OrderedDict()

    def add(self, page: int) -> None:
        if page in self._pages:
            self._pages.move_to_end(page)
        else:
            self._pages[page] = None
            if len(self._pages) > self.max_pages:
                self._pages.popitem(last=False)

    def pages(self) -> Set[int]:
        return set(self._pages)

    def __len__(self) -> int:
        return len(self._pages)

    def __contains__(self, page: int) -> bool:
        return page in self._pages


class SharingInference(Observer):
    """Observer that turns CML histories into dependency-graph edges."""

    def __init__(
        self,
        runtime: Runtime,
        capacity: int = 256,
        signature_pages: int = 64,
        min_q: float = 0.2,
        min_pages: int = 2,
        smoothing: float = 0.5,
        probe_pages: int = 2,
        max_out_degree: int = 8,
        seed: int = 0,
    ):
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        if probe_pages < 0:
            raise ValueError("probe_pages must be non-negative")
        self.runtime = runtime
        self.signature_pages = signature_pages
        self.min_q = min_q
        self.min_pages = min_pages
        self.smoothing = smoothing
        self.probe_pages = probe_pages
        self.max_out_degree = max_out_degree
        self._rng = np.random.default_rng(seed)
        self.probes = 0
        lpp = runtime.machine.vm.lines_per_page
        self.devices = [
            CMLBuffer(cpu, lpp, capacity=capacity, machine=runtime.machine)
            for cpu in runtime.machine.cpus
        ]
        self._signatures: Dict[int, _Signature] = {}
        # inverted index: page -> tids whose signature holds it
        self._page_owners: Dict[int, Set[int]] = {}
        # smoothed q estimates, (src, dst) -> value
        self._estimates: Dict[tuple, float] = {}
        # last value actually written to the graph, (src, dst) -> value
        self._written: Dict[tuple, float] = {}
        self.edges_written = 0
        runtime.add_observer(self)

    # -- observer hooks --------------------------------------------------------

    def on_dispatch(self, cpu: int, thread) -> None:
        self.devices[cpu].set_current_thread(thread.tid)

    def on_block(self, cpu: int, thread, misses: int, finished: bool) -> None:
        device = self.devices[cpu]
        device.set_current_thread(None)
        records = device.drain()
        touched_pages = set()
        for record in records:
            self._observe(record.tid, record.page)
            touched_pages.add(record.page)
        if finished:
            self._forget(thread.tid)
        else:
            self._update_edges(thread.tid)
        self._probe(cpu, touched_pages)

    def _probe(self, cpu: int, pages: Set[int]) -> None:
        """The paper's "judicial unmapping": invalidate a sampled page so
        the next thread touching it takes a miss the CML can record."""
        if not self.probe_pages or not pages:
            return
        lpp = self.runtime.machine.vm.lines_per_page
        chosen = self._rng.choice(
            sorted(pages), size=min(self.probe_pages, len(pages)),
            replace=False,
        )
        for page in chosen.tolist():
            lines = np.arange(page * lpp, (page + 1) * lpp, dtype=np.int64)
            self.runtime.machine.cpus[cpu].hierarchy.invalidate(lines)
            # the unmap itself costs a TLB shootdown's worth of work
            self.runtime.machine.compute(cpu, 50)
            self.probes += 1

    # -- signature bookkeeping ----------------------------------------------------

    def _observe(self, tid: int, page: int) -> None:
        signature = self._signatures.get(tid)
        if signature is None:
            signature = _Signature(self.signature_pages)
            self._signatures[tid] = signature
        before = len(signature)
        had = page in signature
        signature.add(page)
        if not had:
            self._page_owners.setdefault(page, set()).add(tid)
            if len(signature) == before:  # an old page was evicted
                self._rebuild_owner_entries(tid, signature)

    def _rebuild_owner_entries(self, tid: int, signature: _Signature) -> None:
        current = signature.pages()
        for page, owners in list(self._page_owners.items()):
            if tid in owners and page not in current:
                owners.discard(tid)
                if not owners:
                    del self._page_owners[page]

    def _forget(self, tid: int) -> None:
        signature = self._signatures.pop(tid, None)
        if signature is not None:
            for page in signature.pages():
                owners = self._page_owners.get(page)
                if owners is not None:
                    owners.discard(tid)
                    if not owners:
                        del self._page_owners[page]
        for key in [k for k in self._estimates if tid in k]:
            del self._estimates[key]
        for key in [k for k in self._written if tid in k]:
            del self._written[key]

    # -- edge inference ----------------------------------------------------------

    def _update_edges(self, tid: int) -> None:
        signature = self._signatures.get(tid)
        if signature is None or len(signature) < self.min_pages:
            return
        my_pages = signature.pages()
        # candidates: threads sharing at least one page with us
        candidates: Set[int] = set()
        for page in my_pages:
            candidates |= self._page_owners.get(page, set())
        candidates.discard(tid)
        for other in sorted(candidates):
            other_sig = self._signatures.get(other)
            if other_sig is None or len(other_sig) < self.min_pages:
                continue
            other_pages = other_sig.pages()
            overlap = len(my_pages & other_pages)
            # q_ab: the portion of a's state shared with b, both directions
            self._emit(tid, other, overlap / len(my_pages))
            self._emit(other, tid, overlap / len(other_pages))

    def _emit(self, src: int, dst: int, sample: float) -> None:
        key = (src, dst)
        previous = self._estimates.get(key, 0.0)
        value = (1 - self.smoothing) * previous + self.smoothing * sample
        self._estimates[key] = value
        if value >= self.min_q:
            last = self._written.get(key)
            if last is not None and abs(value - last) < 0.1:
                return  # hysteresis: avoid re-annotating on every switch
            if (
                last is None
                and self.runtime.graph.out_degree(src) >= self.max_out_degree
            ):
                return  # keep O(d) context-switch cost bounded
            src_thread = self.runtime.threads.get(src)
            dst_thread = self.runtime.threads.get(dst)
            if (
                src_thread is None
                or dst_thread is None
                or not src_thread.alive
                or not dst_thread.alive
            ):
                return
            self.runtime.at_share(src, dst, min(1.0, value))
            self._written[key] = value
            self.edges_written += 1

    # -- introspection -----------------------------------------------------------

    def estimate(self, src: int, dst: int) -> float:
        """Current smoothed q estimate for an ordered pair."""
        return self._estimates.get((src, dst), 0.0)

    def signature_size(self, tid: int) -> int:
        """Pages currently in a thread's signature."""
        signature = self._signatures.get(tid)
        return 0 if signature is None else len(signature)
