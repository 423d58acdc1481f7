"""The reachability rule (DESIGN.md, "What stays under src/"), as a test.

A module under ``src/repro`` stays if the paper names it, a committed
number reads it, or a tool a CI job runs imports it.  All three arrive
through the same doors: the CLI, the two benchmark trees (the paper's
figure and ablation modules included) and the examples.  This walks
every ``import`` statement (function-level ones included) from those
roots and fails for a module nothing reaches -- one whose only reader
is its own test.

The same rule holds for names: every function, class and method
defined under ``src/repro`` must be read by name somewhere in ``src/``,
``bench/``, ``benchmarks/`` or ``examples/`` outside its own
definition (see :func:`test_every_name_has_a_reader_outside_its_tests`).

Two rules keep the graph honest.  ``from pkg import Name`` is an edge
to the submodule ``pkg/__init__.py`` took ``Name`` from, not to the
package.  And a package ``__init__`` propagates nothing by itself:
``storage/__init__`` re-exports most of its package for convenience,
which would otherwise "reach" all of it for whoever imports one name.
"""

from __future__ import annotations

import ast
import pathlib
import re

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"

#: module -> why it stays although no root imports it.  Empty: a new
#: entry needs a reader the walk cannot see, and says which.
ALLOWED: dict[str, str] = {}


def _is_test_file(path: pathlib.Path) -> bool:
    """A unit test or fixture file.  ``benchmarks/test_*.py`` are not:
    they are the paper's figures and ablations."""
    return "tests" in path.parts or path.name == "conftest.py"


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


# -- the same rule for names ---------------------------------------------------

#: qualified name -> who reads it although no root names it.  Every
#: entry names its reader; a test is a reader only for a reference or a
#: fixture the tests need from ``src/``.
_REFERENCE = ("the *nix reference (paper section III) that "
              "tests/test_property_semantics.py checks CAP enforcement "
              "against")
_AES = ("AES-CBC stays (DESIGN.md section 7): tests/test_aes.py runs the "
        "block cipher's NIST vectors through it")
_TAMPER = ("tamper-test fixture: tests/test_client_revocation.py and "
           "tests/test_security.py forge SSP-side ciphertext with it")
ALLOWED_NAMES: dict[str, str] = {
    "repro.baselines.base.make_baseline_volume":
        "test fixture: tests/test_migration_baselines.py mounts each "
        "baseline with it",
    "repro.caps.model.supported_bits":
        "Figure 5's expressible modes as a predicate: the property "
        "suites (test_property_semantics, test_layout_census) draw their "
        "mode pools from it",
    "repro.crypto.aes.encrypt_cbc": _AES,
    "repro.crypto.aes.decrypt_cbc": _AES,
    "repro.crypto.aes.generate_key": _AES,
    "repro.fs.permissions.ReferenceEvaluator": _REFERENCE,
    "repro.fs.permissions.ReferenceEvaluator.can_traverse_to": _REFERENCE,
    "repro.fs.permissions.ReferenceEvaluator.can_modify_dir": _REFERENCE,
    "repro.fs.permissions.ReferenceEvaluator.can_read_file": _REFERENCE,
    "repro.fs.permissions.ReferenceEvaluator.can_write_file": _REFERENCE,
    "repro.fs.sealed.open_unverified": _TAMPER,
    "repro.fs.sealed.replace_ciphertext": _TAMPER,
    "repro.storage.resilient.SlowServer":
        "test fixture: the server registry of "
        "tests/test_server_conformance.py",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _docstrings(tree: ast.AST) -> set[int]:
    """``id`` of every docstring constant in ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first.value))
    return out


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in node.targets)


def _reads(tree: ast.AST) -> set[str]:
    """Every name the file reads: a ``Name``, an ``Attribute``, a
    keyword, or an identifier inside a string literal (``bench/`` names
    its patch targets in strings).  Docstrings and ``__all__`` are not
    reads, and neither is a definition reading its own name."""
    docstrings = _docstrings(tree)
    out: set[str] = set()

    def visit(node: ast.AST, inside: frozenset[str]) -> None:
        if _is_all(node):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            # Decorators, bases, defaults and annotations are read
            # where the definition stands; only the body is inside it.
            for child in ast.iter_child_nodes(node):
                if child not in node.body:
                    visit(child, inside)
            inside = inside | {node.name}
            node = ast.Module(body=node.body, type_ignores=[])
        names: list[str] = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.keyword) and node.arg:
            names = [node.arg]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            names = _IDENTIFIER.findall(node.value)
        out.update(name for name in names if name not in inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return out


def _definitions(path: pathlib.Path):
    """``(qualified name, name)`` of every module-level function and
    class in ``path`` and every method of its classes."""
    module = ".".join(path.relative_to(SRC).with_suffix("").parts)

    def walk(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield f"{prefix}.{node.name}", node.name
                if isinstance(node, ast.ClassDef):
                    yield from walk(node.body, f"{prefix}.{node.name}")

    yield from walk(ast.parse(path.read_text()).body, module)


def _name_readers() -> set[str]:
    reads: set[str] = set()
    for tree in ("src", "bench", "benchmarks", "examples"):
        for path in sorted((REPO / tree).rglob("*.py")):
            if not _is_test_file(path.relative_to(REPO)):
                reads |= _reads(ast.parse(path.read_text()))
    return reads


def test_a_read_is_any_mention_but_a_definition_or_all():
    tree = ast.parse(
        '__all__ = ["exported"]\n'
        'def recurse():\n    """mentions documented"""\n    recurse()\n'
        '@traced("decorated")\ndef decorated():\n'
        '    obj.attribute(keyword=1)\n'
        '    patch("module.in_a_string")\n')
    assert _reads(tree) >= {"decorated", "obj", "attribute", "keyword",
                            "module", "in_a_string"}
    assert not _reads(tree) & {"exported", "documented", "recurse"}


def test_every_name_has_a_reader_outside_its_tests():
    reads = _name_readers()
    defined = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        for qualified, name in _definitions(path):
            if not (name.startswith("__") and name.endswith("__")):
                defined[qualified] = name
    unread = sorted(qualified for qualified, name in defined.items()
                    if name not in reads and qualified not in ALLOWED_NAMES)
    assert unread == [], (
        "nothing in src/, bench/, benchmarks/ or examples/ reads "
        f"{unread}: delete each with its tests, or give it a reader")
    stale = sorted(qualified for qualified in ALLOWED_NAMES
                   if qualified not in defined
                   or defined[qualified] in reads)
    assert stale == [], f"allow-list entries nothing needs: {stale}"
