"""The reachability rule (DESIGN.md, "What stays under src/"), as a test.

A module under ``src/repro`` stays if the paper names it, a committed
number reads it, or a tool a CI job runs imports it.  All three arrive
through the same doors: the CLI, the two benchmark trees and the
examples.  This walks every ``import`` statement (function-level ones
included) from those roots and fails for a module nothing reaches --
one whose only reader is its own test.

Two rules keep the graph honest.  ``from pkg import Name`` is an edge
to the submodule ``pkg/__init__.py`` took ``Name`` from, not to the
package.  And a package ``__init__`` propagates nothing by itself:
``storage/__init__`` re-exports most of its package for convenience,
which would otherwise "reach" all of it for whoever imports one name.
"""

from __future__ import annotations

import ast
import pathlib

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: module -> why it stays although no root imports it.  Empty: a new
#: entry needs a reader the walk cannot see, and says which.
ALLOWED: dict[str, str] = {}


def _is_test_file(path: pathlib.Path) -> bool:
    return ("tests" in path.parts or path.name.startswith("test_")
            or path.name == "conftest.py")


def _roots() -> list[tuple[pathlib.Path, str | None]]:
    """``(file, its repro module or None)`` for every place a reader
    may live."""
    roots = [(SRC / "repro" / "cli.py", "repro.cli"),
             (SRC / "repro" / "__main__.py", "repro.__main__")]
    for tree in ("bench", "benchmarks", "examples"):
        roots += [(path, None) for path in sorted((REPO / tree).rglob("*.py"))
                  if not _is_test_file(path.relative_to(REPO))]
    return roots


def _modules() -> dict[str, pathlib.Path]:
    out = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        out[".".join(parts)] = path
    return out


MODULES = _modules()


def _is_package(module: str) -> bool:
    return MODULES[module].name == "__init__.py"


def _imports(path: pathlib.Path, module: str | None):
    """Every ``(target, name)`` the file imports; ``name`` is ``None``
    for a plain ``import target``.  ``module`` anchors relative imports
    (``None`` for a root outside the package: its relative imports
    cannot land in ``repro``)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            target = node.module or ""
            if node.level:
                if module is None:
                    continue
                base = module.split(".")
                if not _is_package(module):
                    base = base[:-1]
                base = base[:len(base) - (node.level - 1)]
                target = ".".join(base + ([target] if target else []))
            for alias in node.names:
                yield target, alias.name


def _resolve(target: str, name: str | None) -> str | None:
    """The ``repro`` module an import lands on, or ``None``."""
    if target not in MODULES:
        return None
    if name is None:
        return target
    if f"{target}.{name}" in MODULES:
        return f"{target}.{name}"
    if _is_package(target):
        for origin, exported in _imports(MODULES[target], target):
            if exported == name and origin != target:
                return _resolve(origin, name)
    return target


def _reached() -> set[str]:
    todo = _roots()
    reached = {module for _path, module in todo if module}
    while todo:
        path, module = todo.pop()
        for target, name in _imports(path, module):
            found = _resolve(target, name)
            if found is None or found in reached:
                continue
            reached.add(found)
            if not _is_package(found):
                todo.append((MODULES[found], found))
    return reached


def test_a_name_from_a_package_lands_on_its_defining_module():
    assert _resolve("repro.storage", "StorageServer") == \
        "repro.storage.server"
    assert _resolve("repro", "SharoesFilesystem") == "repro.fs.client"
    assert _resolve("repro.obs", "export") == "repro.obs.export"
    assert _resolve("json", "loads") is None


def test_every_module_has_a_reader_outside_its_tests():
    reached = _reached()
    unreached = sorted(module for module in MODULES
                       if not _is_package(module)
                       and module not in reached
                       and module not in ALLOWED)
    assert unreached == [], (
        "no root (cli, bench/, benchmarks/, examples/) imports "
        f"{unreached}: delete the module with its tests, or give it a "
        "reader")
    stale = sorted(module for module in ALLOWED
                   if module not in MODULES or module in reached)
    assert stale == [], f"allow-list entries nothing needs: {stale}"
