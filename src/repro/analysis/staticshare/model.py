"""The static sharing vocabulary: regions, spawn units, predicted edges.

The inference never executes a workload, so its objects name *source
constructs*, not runtime instances:

- a :class:`RegionDef` is one ``runtime.alloc``/``alloc_lines`` call
  site -- possibly standing for many runtime regions when it sits in a
  loop or a thread body;
- a :class:`SpawnUnit` is one ``at_create`` call site -- possibly
  standing for many threads (``multi``);
- a :class:`PredictedEdge` says two units' threads are expected to
  share state, with a confidence *tier*:

  ========== ========================================================
  tier       evidence
  ========== ========================================================
  definite   both units unconditionally touch a common region
             instance on every execution of their bodies
  conditional at least one side's touch sits behind a branch, or the
             common instance is reached through a per-execution
             allocation handed across a spawn (alias-approximate)
  heuristic  weaker evidence only (text-level matches); never drives
             SA diagnostics on its own
  ========== ========================================================

Everything is ordered and rendered deterministically: units sort by
id, edges by (src, dst), and ids embed source order, so two runs over
the same source are byte-identical -- the same property the dynamic
report gates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

__all__ = [
    "TIER_DEFINITE",
    "TIER_CONDITIONAL",
    "TIER_HEURISTIC",
    "TIERS",
    "RegionDef",
    "SpawnUnit",
    "PredictedEdge",
    "ShareSiteRef",
    "StaticPrediction",
]

TIER_DEFINITE = "definite"
TIER_CONDITIONAL = "conditional"
TIER_HEURISTIC = "heuristic"
#: confidence order, strongest first
TIERS = (TIER_DEFINITE, TIER_CONDITIONAL, TIER_HEURISTIC)


@dataclass(frozen=True)
class RegionDef:
    """One static allocation site (``runtime.alloc*`` call)."""

    #: instance key: ``attr:<name>`` for ``self.X`` regions,
    #: ``local:<func>:<name>`` for function locals
    key: str
    #: the allocation's name argument when it is (or starts with) a
    #: string literal, e.g. ``merge-array`` or ``tsp-node-``
    label: Optional[str]
    #: size in cache lines when statically evaluable, else None
    lines: Optional[int]
    #: qualified name of the function containing the allocation
    function: str
    lineno: int
    #: allocated inside a loop/comprehension (one instance per iteration)
    in_loop: bool

    def render(self) -> str:
        label = self.label if self.label is not None else "?"
        size = f"{self.lines} line(s)" if self.lines is not None else "? lines"
        loop = " [loop]" if self.in_loop else ""
        return f"{self.key}  '{label}'  {size}  ({self.function}:{self.lineno}){loop}"


@dataclass(frozen=True)
class SpawnUnit:
    """One static ``at_create`` call site."""

    unit_id: str
    #: the thread-name argument's constant value, when fully constant
    name_exact: Optional[str]
    #: leading constant part of a computed thread name (f-string / concat)
    name_prefix: str
    #: qualified name of the body function the site spawns
    body: str
    #: body parameter name -> region instance keys bound at the site
    bindings: Mapping[str, Tuple[str, ...]]
    #: qualified name of the function containing the spawn site
    function: str
    lineno: int
    #: the site can create more than one thread (loop, comprehension, or
    #: a body function that itself executes more than once)
    multi: bool

    @property
    def display(self) -> str:
        """The name threads from this unit carry, as a glob-ish pattern."""
        if self.name_exact is not None:
            return self.name_exact
        if self.name_prefix:
            return self.name_prefix + "*"
        return self.unit_id

    def match_strength(self, thread_name: str) -> int:
        """Longest-match score for resolving overlapping name patterns."""
        if self.name_exact is not None and thread_name == self.name_exact:
            return 1 + len(self.name_exact)  # exact beats any prefix
        if self.name_prefix and thread_name.startswith(self.name_prefix):
            return len(self.name_prefix)
        return 0

    def render(self) -> str:
        multi = " [multi]" if self.multi else ""
        return (
            f"{self.unit_id}  '{self.display}'  body={self.body}  "
            f"({self.function}:{self.lineno}){multi}"
        )


@dataclass(frozen=True)
class ShareSiteRef:
    """One statically-resolved ``at_share`` call: which unit pairs it
    annotates (the cross product of the resolved src/dst unit sets)."""

    function: str
    lineno: int
    src_units: Tuple[str, ...]
    dst_units: Tuple[str, ...]
    q_literal: Optional[float]


@dataclass(frozen=True)
class PredictedEdge:
    """Two spawn units expected to share state, with evidence."""

    src: str
    dst: str
    src_display: str
    dst_display: str
    tier: str
    #: labels (or keys) of the shared region instances, sorted
    regions: Tuple[str, ...]
    #: statically-estimated sharing coefficient |shared|/|src footprint|,
    #: when every involved region size is statically known
    q_static: Optional[float]

    def render(self) -> str:
        q = f"q~{self.q_static:.2f}" if self.q_static is not None else "q=?"
        via = ", ".join(self.regions)
        return (
            f"{self.src_display} -> {self.dst_display}  [{self.tier}] "
            f"{q}  via {via}"
        )


@dataclass
class StaticPrediction:
    """Everything the inference learned about one workload module."""

    workload: str
    path: str
    class_name: str
    units: Dict[str, SpawnUnit] = field(default_factory=dict)
    regions: Dict[str, RegionDef] = field(default_factory=dict)
    #: (src_unit, dst_unit) -> edge, both directions present
    edges: Dict[Tuple[str, str], PredictedEdge] = field(default_factory=dict)
    #: directed unit pairs some resolved ``at_share`` covers
    annotated_pairs: Dict[Tuple[str, str], ShareSiteRef] = field(
        default_factory=dict
    )
    #: region key -> unit ids whose threads touch it (sorted)
    touchers: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: per-unit footprint in lines, None when any size is unknown
    footprints: Dict[str, Optional[int]] = field(default_factory=dict)

    def annotated(self, a: str, b: str) -> bool:
        """Whether either direction of the pair carries an annotation."""
        return (a, b) in self.annotated_pairs or (b, a) in self.annotated_pairs

    def unit_for_thread(self, thread_name: str) -> Optional[str]:
        """The unit whose name pattern best matches a runtime thread."""
        best: Optional[str] = None
        best_score = 0
        for unit_id in sorted(self.units):
            score = self.units[unit_id].match_strength(thread_name)
            if score > best_score:
                best, best_score = unit_id, score
        return best

    def edges_at(self, *tiers: str) -> List[PredictedEdge]:
        wanted = tiers or TIERS
        return [
            self.edges[key]
            for key in sorted(self.edges)
            if self.edges[key].tier in wanted
        ]
