"""``repro-lint``: the determinism pass over the simulator's own source.

Every result in this repository rests on one property: a (workload,
config, policy, seed) tuple replays bit-identically.  The fault campaign
asserts it dynamically; this pass guards the three ways Python code
quietly breaks it:

- ``DT001`` an unseeded ``np.random.default_rng()`` -- fresh OS entropy
  per run;
- ``DT002`` ``default_rng(<literal>)`` buried inside an implementation:
  deterministic, but the seed is invisible to callers and cannot be
  varied per run -- plumb it as a parameter (the satellite fixes for
  ``machine/vm.py`` and ``workloads/photo.py`` are the model);
- ``DT003`` wall-clock reads (``time.time``, ``perf_counter``,
  ``datetime.now`` ...) feeding host timing into simulated results;
- ``DT004`` iteration over a value of set type in places where order can
  leak into scheduling or results (``for x in some_set``, or feeding a
  set to ``np.fromiter``); ``sorted(...)`` launders.
- ``DT005`` iteration over a dict keyed by ``id(...)``: insertion order
  follows memory layout, so ``for k in d`` / ``d.items()`` over such a
  dict can leak address-space nondeterminism into scheduling or results.
  Keyed *lookups* (``seen[id(t)]``) are fine; only iteration fires.
- ``DT006`` a raw timer read (``time.perf_counter()`` and friends)
  inside a subsystem that owns an *audited clock*, anywhere other than
  that clock module.  The bench harness must read time only through
  ``repro/bench/clock.py`` (:func:`repro.bench.clock.perf_clock`); one
  reader per subsystem is what lets tests substitute a fake clock.
  Outside those subsystems the same reads stay ``DT003``.

``DT007`` is retired (see :data:`repro.analysis.diagnostics.RETIRED`).

Suppress a finding by appending ``# repro-lint: ignore`` to its line.

This is a linear AST lint with a per-function view of local names
assigned from set-valued expressions; it does not do interprocedural
inference, so it is tuned to catch the honest mistakes (set literals,
``set()`` builders, set algebra) with near-zero noise rather than every
theoretical ordering leak.
"""

from __future__ import annotations

import ast
import os
from typing import List, Optional, Set

from repro.analysis.diagnostics import Diagnostic

#: default lint targets, relative to the package root's parent (``src``)
DEFAULT_TARGETS = (
    "repro/sched",
    "repro/sim",
    "repro/machine",
    "repro/threads",
    "repro/bench",
    "repro/parallel",
)

SUPPRESS_MARK = "repro-lint: ignore"

#: the audited clock modules: the only files of their subsystems allowed
#: to read the host clock (everything else must call through them)
AUDITED_TIMER_FILES = ("repro/bench/clock.py",)

#: subsystems with an audited clock: raw timer reads there are DT006
_AUDITED_SUBSYSTEMS = (
    ("repro/bench/", "repro.bench.clock.perf_clock"),
)

_WALL_CLOCK = {
    ("time", "time"),
    ("time", "monotonic"),
    ("time", "perf_counter"),
    ("time", "process_time"),
    ("time", "clock"),
    ("datetime", "now"),
    ("datetime", "today"),
    ("datetime", "utcnow"),
    ("date", "today"),
}

#: bare-name timer calls (``from time import perf_counter``); only the
#: distinctive names -- a bare ``time()`` is too generic to flag safely
_WALL_CLOCK_BARE = {"perf_counter", "process_time", "monotonic"}

_SET_LAUNDERERS = {"sorted", "list", "tuple", "min", "max", "sum", "len"}


def _attr_pair(func: ast.AST) -> Optional[tuple]:
    """(base, attr) for calls like ``time.time()`` / ``datetime.now()``."""
    if isinstance(func, ast.Attribute):
        base = func.value
        if isinstance(base, ast.Name):
            return (base.id, func.attr)
        if isinstance(base, ast.Attribute):
            return (base.attr, func.attr)
    return None


def _is_default_rng(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id == "default_rng"
    if isinstance(func, ast.Attribute):
        return func.attr == "default_rng"
    return False


def _is_id_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "id"
    )


class _SetTracker(ast.NodeVisitor):
    """Track, per function scope, which local names hold set values (and
    which hold dicts keyed by ``id(...)``)."""

    def __init__(self) -> None:
        self.set_names: Set[str] = set()
        self.id_dict_names: Set[str] = set()

    def is_setish(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return True
            if isinstance(func, ast.Attribute) and func.attr in (
                "union",
                "intersection",
                "difference",
                "symmetric_difference",
            ):
                return self.is_setish(func.value)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self.is_setish(node.left) or self.is_setish(node.right)
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        return False

    def is_id_dict(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Dict):
            return any(k is not None and _is_id_call(k) for k in node.keys)
        if isinstance(node, ast.Name):
            return node.id in self.id_dict_names
        return False


class _FileLinter(ast.NodeVisitor):
    def __init__(self, rel_path: str, source_lines: List[str]) -> None:
        self.rel_path = rel_path
        self.source_lines = source_lines
        self.found: List[Diagnostic] = []
        self._trackers: List[_SetTracker] = [_SetTracker()]
        norm = rel_path.replace(os.sep, "/")
        self._audited_clock_api: Optional[str] = None
        for prefix, clock_api in _AUDITED_SUBSYSTEMS:
            if norm.startswith(prefix):
                self._audited_clock_api = clock_api
        self._audited_timer = norm in AUDITED_TIMER_FILES

    # -- helpers -----------------------------------------------------------

    def _suppressed(self, lineno: int) -> bool:
        if 1 <= lineno <= len(self.source_lines):
            return SUPPRESS_MARK in self.source_lines[lineno - 1]
        return False

    def _wall_clock_hit(self, lineno: int, desc: str) -> None:
        """Route a raw timer read to DT003 or DT006 by location.

        Inside a subsystem that owns an audited clock (the bench
        harness) the read is legitimate *only* in
        that clock module; elsewhere in the subsystem it is DT006.
        Everywhere else it remains the DT003 host-timing leak.
        """
        if self._audited_clock_api is not None:
            if self._audited_timer:
                return
            self._emit(
                "DT006",
                lineno,
                f"raw timer read {desc} bypasses this subsystem's "
                f"audited clock; route it through "
                f"{self._audited_clock_api}",
            )
            return
        self._emit(
            "DT003",
            lineno,
            f"wall-clock read {desc} leaks host timing "
            "into a deterministic simulation",
        )

    def _emit(self, code: str, lineno: int, message: str) -> None:
        if self._suppressed(lineno):
            return
        self.found.append(
            Diagnostic(
                code=code,
                message=message,
                anchor=f"{self.rel_path}:{lineno}",
                source="repro-lint",
            )
        )

    @property
    def _tracker(self) -> _SetTracker:
        return self._trackers[-1]

    # -- visitors ----------------------------------------------------------

    def visit_FunctionDef(self, node) -> None:
        self._trackers.append(_SetTracker())
        self.generic_visit(node)
        self._trackers.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._tracker.is_setish(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._tracker.set_names.add(target.id)
        else:
            # reassignment to a non-set value clears the mark
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._tracker.set_names.discard(target.id)
        if self._tracker.is_id_dict(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._tracker.id_dict_names.add(target.id)
        for target in node.targets:
            # d[id(x)] = ... marks d as an id-keyed dict from here on
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Name)
                and _is_id_call(target.slice)
            ):
                self._tracker.id_dict_names.add(target.value.id)
        self.generic_visit(node)

    def _check_id_dict_iteration(self, iter_node: ast.AST) -> None:
        """DT005 for ``for k in d`` / ``d.items()`` over an id-keyed dict."""
        target = iter_node
        if (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Attribute)
            and iter_node.func.attr in ("items", "keys", "values")
        ):
            target = iter_node.func.value
        if self._tracker.is_id_dict(target):
            self._emit(
                "DT005",
                iter_node.lineno,
                "iterating a dict keyed by id(...) follows memory layout, "
                "not a stable order; key by tid or sort explicitly",
            )

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if _is_default_rng(node):
            if not node.args and not node.keywords:
                self._emit(
                    "DT001",
                    node.lineno,
                    "default_rng() without a seed draws fresh OS entropy "
                    "every run",
                )
            elif node.args and isinstance(node.args[0], ast.Constant):
                self._emit(
                    "DT002",
                    node.lineno,
                    f"default_rng({node.args[0].value!r}) hides the seed "
                    "inside the implementation; plumb it as a parameter",
                )
        pair = _attr_pair(node.func)
        if pair in _WALL_CLOCK:
            self._wall_clock_hit(node.lineno, f"{pair[0]}.{pair[1]}()")
        elif (
            isinstance(node.func, ast.Name)
            and node.func.id in _WALL_CLOCK_BARE
        ):
            self._wall_clock_hit(node.lineno, f"{node.func.id}()")
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "fromiter"
            and node.args
            and self._tracker.is_setish(node.args[0])
        ):
            self._emit(
                "DT004",
                node.lineno,
                "np.fromiter over a set captures arbitrary ordering; "
                "wrap the argument in sorted(...)",
            )
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if self._tracker.is_setish(node.iter):
            self._emit(
                "DT004",
                node.iter.lineno,
                "iteration over a set has arbitrary order; wrap in "
                "sorted(...) if order can reach results or scheduling",
            )
        self._check_id_dict_iteration(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        if self._tracker.is_setish(node.iter):
            self._emit(
                "DT004",
                node.iter.lineno,
                "comprehension over a set has arbitrary order; wrap in "
                "sorted(...) if order can reach results or scheduling",
            )
        self._check_id_dict_iteration(node.iter)
        self.generic_visit(node)


def lint_file(path: str, rel_path: str) -> List[Diagnostic]:
    """Lint one Python source file."""
    with open(path, "r", encoding="utf-8") as fh:
        source = fh.read()
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return [
            Diagnostic(
                code="DT000",
                message=f"file does not parse: {exc.msg}",
                anchor=f"{rel_path}:{exc.lineno or 1}",
                source="repro-lint",
            )
        ]
    linter = _FileLinter(rel_path, source.splitlines())
    linter.visit(tree)
    return linter.found


def lint_paths(
    paths: Optional[List[str]] = None, root: Optional[str] = None
) -> List[Diagnostic]:
    """Lint ``paths`` (files or directories) under ``root``.

    ``root`` defaults to the directory containing the ``repro`` package
    (the ``src`` tree), so anchors come out repo-relative.  A target
    that does not exist raises :class:`FileNotFoundError`: walking it
    would lint nothing and pass.
    """
    if root is None:
        root = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    targets = list(paths) if paths else list(DEFAULT_TARGETS)
    found: List[Diagnostic] = []
    for target in targets:
        full = target if os.path.isabs(target) else os.path.join(root, target)
        if os.path.isfile(full):
            files = [full]
        elif not os.path.isdir(full):
            raise FileNotFoundError(f"no such lint target: {target}")
        else:
            files = sorted(
                os.path.join(dirpath, name)
                for dirpath, _dirs, names in os.walk(full)
                for name in names
                if name.endswith(".py")
            )
        for path in files:
            rel = os.path.relpath(path, root)
            found.extend(lint_file(path, rel))
    found.sort(key=lambda d: d.sort_key)
    return found
