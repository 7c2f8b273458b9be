"""Property-based tests (hypothesis) on core invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.markov import expected_footprint_markov
from repro.core.model import SharedStateModel
from repro.core.priorities import CRTScheme, LFFScheme, PrecomputedTables
from repro.core.sharing import SharingGraph
from repro.machine.cache import DirectMappedCache, SetAssociativeCache, _net_effect


# -- the analytical model -----------------------------------------------------


@given(
    n_lines=st.integers(2, 512),
    s0=st.floats(0, 1, exclude_max=False),
    q=st.floats(0, 1),
    misses=st.integers(0, 5000),
)
def test_model_footprints_stay_in_bounds(n_lines, s0, q, misses):
    model = SharedStateModel(n_lines)
    initial = s0 * n_lines
    value = model.expected_dependent(initial, q, misses)
    assert -1e-9 <= value <= n_lines + 1e-9


@given(
    n_lines=st.integers(2, 256),
    s0=st.floats(0, 1),
    q=st.floats(0, 1),
    n1=st.integers(0, 1000),
    n2=st.integers(0, 1000),
)
def test_model_is_a_semigroup_in_misses(n_lines, s0, q, n1, n2):
    """Applying n1 then n2 misses equals applying n1+n2 at once (the
    closed form composes)."""
    model = SharedStateModel(n_lines)
    initial = s0 * n_lines
    step = model.expected_dependent(
        model.expected_dependent(initial, q, n1), q, n2
    )
    joint = model.expected_dependent(initial, q, n1 + n2)
    assert step == pytest.approx(joint, rel=1e-9, abs=1e-9)


@given(
    n_lines=st.integers(2, 40),
    q=st.floats(0, 1),
    s0=st.integers(0, 40),
    misses=st.integers(0, 60),
)
@settings(max_examples=40, deadline=None)
def test_markov_chain_matches_closed_form(n_lines, q, s0, misses):
    s0 = min(s0, n_lines)
    model = SharedStateModel(n_lines)
    exact = expected_footprint_markov(n_lines, q, s0, misses)
    closed = model.expected_dependent(float(s0), q, misses)
    assert exact == pytest.approx(closed, abs=1e-7)


@given(
    n_lines=st.integers(2, 256),
    s_a=st.floats(0, 1),
    s_b=st.floats(0, 1),
    misses=st.integers(0, 2000),
)
def test_case2_preserves_footprint_order(n_lines, s_a, s_b, misses):
    """Decay is monotone: larger footprints stay larger."""
    model = SharedStateModel(n_lines)
    a = model.expected_independent(s_a * n_lines, misses)
    b = model.expected_independent(s_b * n_lines, misses)
    assert (a <= b) == (s_a * n_lines <= s_b * n_lines) or a == pytest.approx(b)


# -- priority schemes -----------------------------------------------------------


@given(
    footprints=st.lists(
        st.integers(1, 8000), min_size=2, max_size=6, unique=True
    ),
    extra_misses=st.integers(0, 5000),
)
@settings(max_examples=50, deadline=None)
def test_lff_priority_order_equals_footprint_order(footprints, extra_misses):
    """For any set of blocking histories, LFF priorities sort exactly like
    materialised expected footprints."""
    model = SharedStateModel(8192)
    scheme = LFFScheme(model, SharingGraph(), 1)
    for tid, n in enumerate(footprints):
        scheme.on_dispatch(0, tid)
        scheme.on_block(0, tid, n)
    if extra_misses:
        scheme.on_dispatch(0, 999)
        scheme.on_block(0, 999, extra_misses)
    tids = list(range(len(footprints)))
    by_priority = sorted(tids, key=lambda t: scheme.entry(0, t).priority)
    by_footprint = sorted(tids, key=lambda t: scheme.current_footprint(0, t))
    # allow ties from the integer-rounded log table
    def footprint_key(t):
        return round(scheme.current_footprint(0, t))

    assert [footprint_key(t) for t in by_priority] == sorted(
        footprint_key(t) for t in by_footprint
    )


@given(n=st.integers(0, 100_000))
def test_pow_k_table_matches_direct_computation(n):
    t = PrecomputedTables(256)
    expected = (255 / 256) ** n
    if n > t.max_power:
        assert t.pow_k(n) == 0.0
    else:
        assert t.pow_k(n) == pytest.approx(expected, rel=1e-9)


# -- cache simulators -----------------------------------------------------------


@given(
    accesses=st.lists(st.integers(0, 200), min_size=1, max_size=300),
)
@settings(max_examples=50, deadline=None)
def test_direct_mapped_residency_invariant(accesses):
    """After any access sequence: a line is resident iff it was the last
    line mapped to its index."""
    cache = DirectMappedCache(16 * 64, 64)
    last_at_index = {}
    for line in accesses:
        cache.access(np.asarray([line], dtype=np.int64))
        last_at_index[line % 16] = line
    for idx, line in last_at_index.items():
        assert cache.contains(line)
    assert cache.resident_lines().size == len(last_at_index)


@given(
    batch=st.lists(st.integers(0, 100), min_size=1, max_size=100),
)
@settings(max_examples=50, deadline=None)
def test_batched_equals_serial_counts(batch):
    """One big batch produces the same hit/miss totals as line-at-a-time."""
    batched = DirectMappedCache(16 * 64, 64)
    arr = np.asarray(batch, dtype=np.int64)
    result = batched.access(arr)
    serial = DirectMappedCache(16 * 64, 64)
    hits = misses = 0
    for line in batch:
        r = serial.access(np.asarray([line], dtype=np.int64))
        hits += r.hits
        misses += r.misses
    assert (result.hits, result.misses) == (hits, misses)
    assert sorted(batched.resident_lines()) == sorted(serial.resident_lines())


@given(
    batch=st.lists(st.integers(0, 100), min_size=1, max_size=80),
)
@settings(max_examples=50, deadline=None)
def test_net_effect_reconstructs_residency(batch):
    """Accumulating net install/evict events reproduces cache contents."""
    cache = DirectMappedCache(16 * 64, 64)
    resident = set()
    cache.on_install(resident.update)
    cache.on_evict(resident.difference_update)
    cache.access(np.asarray(batch, dtype=np.int64))
    assert resident == set(cache.resident_lines().tolist())


@given(
    accesses=st.lists(st.integers(0, 120), min_size=1, max_size=200),
    ways=st.sampled_from([1, 2, 4]),
)
@settings(max_examples=40, deadline=None)
def test_assoc_cache_never_exceeds_capacity(accesses, ways):
    cache = SetAssociativeCache(16 * 64, 64, ways=ways)
    for line in accesses:
        cache.access(np.asarray([line], dtype=np.int64))
    assert cache.resident_lines().size <= cache.num_lines
    # no duplicates resident
    lines = cache.resident_lines().tolist()
    assert len(lines) == len(set(lines))


@given(
    installed=st.lists(st.integers(0, 20), max_size=30),
    evicted=st.lists(st.integers(0, 20), max_size=30),
)
def test_net_effect_partition(installed, evicted):
    """Net lists are disjoint and only contain mentioned lines."""
    net_in, net_out = _net_effect(installed, evicted)
    set_in, set_out = set(net_in), set(net_out)
    assert set_in.isdisjoint(set_out)
    assert set_in <= set(installed)
    assert set_out <= set(evicted)


# -- sharing graph ----------------------------------------------------------------


@given(
    edges=st.lists(
        st.tuples(
            st.integers(0, 10), st.integers(0, 10), st.floats(0.01, 1.0)
        ),
        max_size=40,
    )
)
def test_sharing_graph_out_degree_consistency(edges):
    graph = SharingGraph()
    for src, dst, q in edges:
        if src != dst:
            graph.share(src, dst, q)
    total = sum(graph.out_degree(t) for t in range(11))
    assert total == graph.num_edges()
    for src, dst, q in graph.edges():
        assert graph.coefficient(src, dst) == q
