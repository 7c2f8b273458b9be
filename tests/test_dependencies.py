"""Import hygiene: every ``repro`` module runs on the declared dependencies.

A fresh interpreter imports every module of the package; any third-party
top-level package that this pulls in must be listed in
``[project].dependencies`` in ``pyproject.toml``, or ``import repro``
breaks on a clean install.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import sysconfig
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: prints {top-level module: [file or directory, ...]} for every
#: top-level module that importing all of ``repro`` adds to a bare
#: interpreter (``.pth`` hooks such as ``_distutils_hack`` load earlier
#: and are not counted); ``repro.__main__`` is skipped, it runs the CLI
PROBE = r"""
import importlib, json, pkgutil, sys
preloaded = {name.partition(".")[0] for name in sys.modules}
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    if info.name != "repro.__main__":
        importlib.import_module(info.name)
added = {name.partition(".")[0] for name in sys.modules} - preloaded
where = {}
for name in sorted(added - {"repro"}):
    spec = getattr(sys.modules.get(name), "__spec__", None)
    origin = getattr(spec, "origin", None)
    locations = list(getattr(spec, "submodule_search_locations", None) or [])
    where[name] = ([origin] if origin else []) + locations
print(json.dumps(where))
"""


def _declared() -> set:
    """Import names of ``[project].dependencies`` in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]\n(.*?)(?=^\[)", text, re.M | re.S)
    assert project, "pyproject.toml has no [project] table"
    deps = re.search(r"^dependencies\s*=\s*\[(.*?)\]", project.group(1), re.M | re.S)
    assert deps, "[project] declares no dependencies list"
    names = re.findall(r"""["']\s*([A-Za-z0-9_.\-]+)""", deps.group(1))
    return {name.lower().replace("-", "_") for name in names}


def _is_stdlib(paths: list) -> bool:
    """Built-in or frozen, or a file of the standard library proper."""
    info = sysconfig.get_paths()
    stdlib = [os.path.realpath(info[k]) for k in ("stdlib", "platstdlib")]
    site = [os.path.realpath(info[k]) for k in ("purelib", "platlib")]

    def under(path: str, roots: list) -> bool:
        return any(path == r or path.startswith(r + os.sep) for r in roots)

    if not paths or paths[0] in ("built-in", "frozen"):
        return True
    real = [os.path.realpath(p) for p in paths]
    return all(under(p, stdlib) and not under(p, site) for p in real)


def test_every_module_imports_on_declared_dependencies():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    child = subprocess.run(
        [sys.executable, "-c", PROBE],
        cwd=str(ROOT / "src"), env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    added = json.loads(child.stdout.splitlines()[-1])
    third_party = {name for name, paths in added.items() if not _is_stdlib(paths)}
    undeclared = sorted(third_party - _declared())
    assert not undeclared, (
        f"importing repro loads undeclared packages {undeclared}; "
        "declare them in [project].dependencies or drop the import"
    )


def test_declared_dependencies_parse():
    assert _declared() == {"numpy"}
