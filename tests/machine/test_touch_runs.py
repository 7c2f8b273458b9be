"""The run-priced touch path against a line-at-a-time reference.

A batch that is one run of virtual lines is translated once per page, and
the E-cache prices it piece by piece: an all-hit piece is one list
compare, an all-miss run one slice assignment.  These tests replay the
same batches through the per-reference loop and a per-line translation
and require the same cache state, counts, raw miss order, net effect,
listener payloads, page-fault order and frames.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.machine.cache import DirectMappedCache, _net_effect
from repro.machine.vm import KesslerHillPlacement, PlacementPolicy, VirtualMemory

#: a small cache, so runs wrap its index space and frames share colours
NUM_LINES = 64
#: lines per page: the cache holds 8 page-sized bins
PAGE_LINES = 8
LINE_BYTES = 64


class OneColour(PlacementPolicy):
    """Every page in bin 0: each page of a run lands on the same indices."""

    def choose_bin(self, vpage: int) -> int:
        return 0


class ReferenceCache:
    """The per-reference loop, one line at a time."""

    def __init__(self, num_lines: int) -> None:
        self.resident = [-1] * num_lines
        self.dirty = [False] * num_lines
        self.refs = self.hits = self.misses = self.writebacks = 0

    def access(self, lines, write):
        """Returns the raw miss order, the net effect and the writebacks."""
        n = len(self.resident)
        installed, evicted, writebacks = [], [], 0
        for pline in lines:
            i = pline % n
            old = self.resident[i]
            if old == pline:
                if write:
                    self.dirty[i] = True
                continue
            if old >= 0:
                evicted.append(old)
                writebacks += self.dirty[i]
            self.resident[i] = pline
            self.dirty[i] = write
            installed.append(pline)
        self.refs += len(lines)
        self.misses += len(installed)
        self.hits += len(lines) - len(installed)
        self.writebacks += writebacks
        return installed, _net_effect(installed, evicted), writebacks


def reference_translate(vm: VirtualMemory, vlines):
    """Fault the batch's missing pages in ascending order, then map each
    line on its own."""
    lpp = vm.lines_per_page
    for vpage in sorted({v // lpp for v in vlines}):
        vm.translate_page(vpage)
    return [vm.translate_page(v // lpp) * lpp + v % lpp for v in vlines]


def make_vm(one_colour: bool) -> VirtualMemory:
    bins = NUM_LINES // PAGE_LINES
    rng = np.random.default_rng(3)
    policy = OneColour(bins, rng=rng) if one_colour else KesslerHillPlacement(
        bins, rng=rng
    )
    return VirtualMemory(
        cache_bytes=NUM_LINES * LINE_BYTES,
        page_bytes=PAGE_LINES * LINE_BYTES,
        line_bytes=LINE_BYTES,
        policy=policy,
    )


_RUN = st.builds(
    lambda start, count: list(range(start, start + count)),
    st.integers(0, 200),
    st.integers(1, 100),
)
_SCATTERED = st.lists(st.integers(0, 200), min_size=1, max_size=12)
#: one to three runs or scattered lists back to back: a repeated run
#: with a conflicting one between reinstalls lines within the batch
_BATCH = st.lists(st.one_of(_RUN, _SCATTERED), min_size=1, max_size=3).map(
    lambda parts: [line for part in parts for line in part]
)
_STEPS = st.lists(st.tuples(_BATCH, st.booleans()), min_size=1, max_size=12)


def check_same(cache, reference, result, raw, net, writebacks, payloads):
    assert cache._resident == reference.resident
    assert cache._dirty == reference.dirty
    stats = cache.stats
    assert (stats.refs, stats.hits, stats.misses, stats.writebacks) == (
        reference.refs, reference.hits, reference.misses,
        reference.writebacks,
    )
    assert result.misses == len(raw)
    assert result.writebacks == writebacks
    assert list(result.miss_lines) == raw
    assert (result.installed, result.evicted) == net
    assert payloads == ([net[0]] if net[0] else [], [net[1]] if net[1] else [])


def traced_cache():
    cache = DirectMappedCache(
        NUM_LINES * LINE_BYTES, LINE_BYTES, frame_lines=PAGE_LINES
    )
    payloads = ([], [])
    cache.on_install(lambda plines: payloads[0].append(list(plines)))
    cache.on_evict(lambda plines: payloads[1].append(list(plines)))
    return cache, payloads


@given(steps=_STEPS)
@settings(max_examples=200, deadline=None)
@example(steps=[(list(range(60, 70)), True), (list(range(60, 70)), False)])
@example(steps=[(list(range(0, 8)) + list(range(64, 72)) + list(range(0, 8)),
                 True)])
def test_physical_batches_match_per_line(steps):
    """Physical batches: runs that wrap the index space, in-batch
    reinstalls, mixed hits and misses, scattered lines."""
    cache, payloads = traced_cache()
    reference = ReferenceCache(NUM_LINES)
    for plines, write in steps:
        payloads[0].clear()
        payloads[1].clear()
        result = cache.access(plines, write=write)
        raw, net, writebacks = reference.access(plines, write)
        check_same(cache, reference, result, raw, net, writebacks, payloads)


@given(steps=_STEPS, one_colour=st.booleans())
@settings(max_examples=200, deadline=None)
@example(steps=[(list(range(4, 30)), True), (list(range(4, 30)), True)],
         one_colour=True)
def test_virtual_batches_match_per_line(steps, one_colour):
    """Virtual batches through the VM: runs that cross pages (onto
    same-colour frames with ``one_colour``) fault and translate exactly
    as line-by-line translation does."""
    vm, ref_vm = make_vm(one_colour), make_vm(one_colour)
    cache, payloads = traced_cache()
    reference = ReferenceCache(NUM_LINES)
    for vlines, write in steps:
        plines = vm.translate_lines(vlines)
        ref_plines = reference_translate(ref_vm, vlines)
        assert plines == ref_plines
        assert list(vm._v2p.items()) == list(ref_vm._v2p.items())
        assert vm.page_faults == ref_vm.page_faults
        payloads[0].clear()
        payloads[1].clear()
        result = cache.access(plines, write=write)
        raw, net, writebacks = reference.access(ref_plines, write)
        check_same(cache, reference, result, raw, net, writebacks, payloads)
