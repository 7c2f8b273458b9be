"""Analytical reuse-distance cache backend (the fast path for sweeps).

The replay hierarchy answers "how many of these touches miss" by
simulating every reference through residency arrays, a VM translation
layer, and a coherence directory.  That faithfulness is what the paper's
accuracy experiments need -- and what caps sweeps far below the paper's
1024-thread scale.  This module is the escape hatch the paper's own
model (section 2.4 + appendix) proves exists: for a direct-mapped cache
of ``N`` lines where each miss evicts a given resident line with
probability ``1/N``, a line last touched ``d`` *misses* ago is still
resident with probability

    p_survive(d) = k ** d,      k = (N - 1) / N

so the expected miss count of a touch batch is a closed-form function of
each line's **reuse distance measured in expected misses** -- no
per-reference replay, no residency state, just one clock and one
last-touch timestamp per line (the same quantity Gysi et al.'s
analytical fully-associative model and Barai et al.'s shared-cache
reuse-profile model are built on).

Mechanics, per touch batch:

- distinct lines are looked up in a per-cpu ``last_clock`` array
  (virtual lines -- the analytic backend skips address translation);
- reuse distances ``d = clock - last_clock[line]`` feed the survival
  form above; never-seen lines are compulsory misses (``p = 0``);
- the batch's expected misses ``sum(1 - p)`` advance the clock, and the
  distances are folded into a log-bucketed :class:`ReuseHistogram`
  (per-cpu; interval-level deltas come from snapshotting it at
  scheduling boundaries);
- the fractional expectation is converted to the integer miss count the
  counters need by emitting ``round(clock) - emitted`` -- the reported
  integer stream tracks the expectation within one miss at all times
  instead of accumulating rounding bias.

What the model deliberately ignores (and therefore where it errs):

- **conflict structure**: survival is uniform-eviction, so pathological
  direct-mapped conflicts (two hot lines sharing an index) are averaged
  away; the simulator sees them, the analytic backend does not;
- **coherence**: invalidations from other cpus' writes are not modelled
  (the paper's model makes the same choice, section 3.4: the PICs could
  not count invalidations) -- on multi-cpu write-sharing workloads the
  analytic backend under-counts misses;
- **intra-batch eviction**: a batch's own misses do not thin the batch's
  earlier lines (negligible while batches are small next to the cache).

The cross-check that keeps this honest is the simulated oracle:
``repro.sim.oracle`` sweeps the fixture workloads under both backends
and pins per-workload relative-error bounds (the ``analytic-oracle`` CI
job fails when a change regresses them).  See docs/MODEL.md "The
analytic backend".
"""

from __future__ import annotations

import math

import numpy as np

from repro.machine.cache import AccessResult, CacheStats
from repro.machine.configs import MachineConfig

#: log2 buckets for reuse distances in expected-miss space; bucket ``i``
#: holds distances in ``[2**i - 1, 2**(i+1) - 1)``, so bucket 0 is the
#: exact-reuse case (``d == 0`` -- guaranteed hits) and 40 buckets cover
#: any distance a realistic sweep can accumulate
_HIST_BUCKETS = 40


class ReuseHistogram:
    """Log-bucketed reuse distances plus a compulsory-miss tally.

    Distances are in expected-miss space, so the histogram *is* the
    miss-probability profile: a distance-``d`` touch hits with
    ``k ** d``.  Buckets are log2 because the survival form is
    exponential -- linear binning would waste resolution where nothing
    changes and blur it where everything does.
    """

    def __init__(self, num_buckets: int = _HIST_BUCKETS) -> None:
        self.buckets = np.zeros(num_buckets, dtype=np.int64)
        #: touches to never-before-seen lines (infinite reuse distance)
        self.compulsory = 0

    def add(self, distances: np.ndarray) -> None:
        """Fold a batch of reuse distances (floats, >= 0) in."""
        if distances.size == 0:
            return
        idx = np.log2(distances + 1.0).astype(np.int64)
        np.clip(idx, 0, self.buckets.size - 1, out=idx)
        self.buckets += np.bincount(idx, minlength=self.buckets.size)

    def add_compulsory(self, count: int) -> None:
        self.compulsory += count

    @property
    def total(self) -> int:
        """All touches recorded (finite-distance + compulsory)."""
        return int(self.buckets.sum()) + self.compulsory

    def snapshot(self) -> "ReuseHistogram":
        """An independent copy (for interval deltas)."""
        copy = ReuseHistogram(self.buckets.size)
        copy.buckets = self.buckets.copy()
        copy.compulsory = self.compulsory
        return copy

    def delta(self, earlier: "ReuseHistogram") -> "ReuseHistogram":
        """The touches recorded since ``earlier`` was snapshotted."""
        out = ReuseHistogram(self.buckets.size)
        out.buckets = self.buckets - earlier.buckets
        out.compulsory = self.compulsory - earlier.compulsory
        return out


class AnalyticCache:
    """One cpu's E-cache, reduced to a miss clock and last-touch stamps.

    State is three scalars plus one float per *virtual line ever seen*
    (grown geometrically); every operation is a handful of vectorised
    passes over the batch's distinct lines.
    """

    def __init__(self, num_lines: int) -> None:
        if num_lines < 1:
            raise ValueError("cache must have at least one line")
        self.num_lines = num_lines
        self.stats = CacheStats()
        self.hist = ReuseHistogram()
        # k = (N-1)/N; a one-line cache degenerates to k = 0 (every miss
        # evicts the only line), handled as a special case in access()
        self._logk = (
            math.log((num_lines - 1) / num_lines) if num_lines > 1 else 0.0
        )
        #: cumulative expected misses -- the reuse-distance clock
        self.clock = 0.0
        #: integer misses reported so far (trails the clock by < 1)
        self._emitted = 0
        #: last-touch clock per virtual line; -1 = never seen
        self._last = np.full(1024, -1.0)

    # -- bookkeeping -------------------------------------------------------

    def _ensure(self, max_line: int) -> None:
        if max_line < self._last.size:
            return
        size = self._last.size
        while size <= max_line:
            size *= 2
        grown = np.full(size, -1.0)
        grown[: self._last.size] = self._last
        self._last = grown

    def _survival(self, distances: np.ndarray) -> np.ndarray:
        """Residency probability of lines last touched ``d`` misses ago."""
        if self.num_lines == 1:
            return (distances <= 0.0).astype(float)
        return np.exp(distances * self._logk)

    # -- the access path ---------------------------------------------------

    def access(self, lines, write: bool = False) -> AccessResult:
        """Price one touch batch (a list or an array of lines); integer
        hits/misses, no line events."""
        lines = np.asarray(lines, dtype=np.int64)
        refs = int(lines.size)
        if refs == 0:
            return AccessResult(0, 0, 0, [], [])
        if refs == 1 or bool(np.all(lines[1:] > lines[:-1])):
            distinct = lines  # already strictly ascending (region touches)
        else:
            distinct = np.unique(lines)
        self._ensure(int(distinct[-1]))
        prev = self._last[distinct]
        seen = prev >= 0.0
        num_seen = int(np.count_nonzero(seen))
        if num_seen:
            dist = self.clock - prev[seen]
            hit_mass = float(self._survival(dist).sum())
            self.hist.add(dist)
        else:
            hit_mass = 0.0
        self.hist.add_compulsory(distinct.size - num_seen)
        # duplicates within the batch re-touch a just-touched line
        # (distance 0): guaranteed hits, no clock movement
        self.clock += float(distinct.size) - hit_mass
        self._last[distinct] = self.clock
        # integerise against the cumulative expectation, not the batch:
        # the carry keeps the reported stream within one miss of the
        # clock no matter how fractional individual batches are
        target = int(round(self.clock))
        misses = min(refs, max(0, target - self._emitted))
        self._emitted += misses
        hits = refs - misses
        self.stats.refs += refs
        self.stats.hits += hits
        self.stats.misses += misses
        return AccessResult(refs, hits, misses, [], [])

    # -- footprints --------------------------------------------------------

    def expected_resident(self, lines: np.ndarray) -> float:
        """Expected number of ``lines`` still resident (sum of survivals).

        The analytic stand-in for the tracer's observed footprint: the
        tracer counts installed-and-not-evicted lines, this sums each
        line's survival probability since its last touch.
        """
        if lines.size == 0:
            return 0.0
        inside = lines[lines < self._last.size]
        if inside.size == 0:
            return 0.0
        prev = self._last[inside]
        seen = prev >= 0.0
        if not np.any(seen):
            return 0.0
        return float(self._survival(self.clock - prev[seen]).sum())

    # -- protocol compatibility (listeners are never fed) ------------------

    def on_install(self, listener: object) -> None:
        """Accepted for interface parity; the analytic cache emits no
        per-line events (it has no notion of which lines are resident)."""

    def on_evict(self, listener: object) -> None:
        """Accepted for interface parity; see :meth:`on_install`."""

    def invalidate(self, lines: np.ndarray) -> int:
        """Forget lines (coherence): they become compulsory again."""
        if lines.size == 0:
            return 0
        inside = lines[lines < self._last.size]
        known = int(np.count_nonzero(self._last[inside] >= 0.0))
        self._last[inside] = -1.0
        self.stats.invalidations += known
        return known

    def flush(self) -> int:
        """Forget everything; returns expected lines resident (rounded)."""
        known = self._last >= 0.0
        resident = 0
        if np.any(known):
            resident = int(
                round(
                    float(
                        self._survival(self.clock - self._last[known]).sum()
                    )
                )
            )
        self._last.fill(-1.0)
        return resident


class AnalyticHierarchy:
    """Drop-in :class:`HierarchyBackend`: a single analytic E-cache level.

    L1s are not modelled (the paper's analysis targets the E-cache;
    ``model_l1`` is ignored here), instruction fetches share the unified
    cache exactly as in the replay hierarchy, and ``l2`` exposes the
    :class:`~repro.machine.cache.CacheStats` every report reads.
    """

    def __init__(self, config: MachineConfig) -> None:
        self.config = config
        self.l2 = AnalyticCache(config.l2_lines)

    def access_data(
        self, plines: np.ndarray, write: bool = False
    ) -> AccessResult:
        return self.l2.access(plines, write=write)

    def access_instructions(self, plines: np.ndarray) -> AccessResult:
        return self.l2.access(plines, write=False)

    def invalidate(self, plines: np.ndarray) -> int:
        return self.l2.invalidate(plines)

    def flush(self) -> int:
        return self.l2.flush()

    def expected_resident(self, vlines: np.ndarray) -> float:
        """Expected resident count of ``vlines`` (footprint estimation)."""
        return self.l2.expected_resident(vlines)
