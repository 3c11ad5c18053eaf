#!/usr/bin/env python3
"""Fail on cross-package private imports and test-only imports inside
``src/repro``.

A statement like ``from repro.bstar.placer import _CostModel`` written
outside ``repro/bstar`` couples one package to another's internals —
exactly the reach-in that made the old portfolio ranking depend on a
placer-private cost class.  This checker walks every module under
``src/repro`` with :mod:`ast` and reports each ``from X import _name``
whose source module lives in a *different* package (directory) than the
importing file.  Dunder names (``__version__``) are exempt, as are
imports within one package — a module may share private helpers with
its own neighbors.

It also reports every ``import tests`` / ``from tests... import``: the
reference implementations in ``tests/oracles.py`` exist to prove the
library's fast paths equal them, so only tests and benchmarks may use
them; the library itself must never depend on its test tree.

Run standalone (CI lint job)::

    python tools/check_private_imports.py

or through the tier-1 suite (``tests/test_private_imports.py``).
Exit code 0 means clean; 1 lists every violation.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SRC = REPO_ROOT / "src"


def _module_parts(path: Path, src: Path) -> tuple[str, ...]:
    """Dotted-path components of a module file relative to ``src``."""
    rel = path.relative_to(src).with_suffix("")
    parts = rel.parts
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return parts


def _package_of(parts: tuple[str, ...], is_package: bool) -> tuple[str, ...]:
    """The package (directory) a module lives in."""
    return parts if is_package else parts[:-1]


def _resolve_from_import(
    node: ast.ImportFrom, package: tuple[str, ...]
) -> tuple[str, ...] | None:
    """Absolute dotted parts of the module a ``from``-import targets.

    Returns ``None`` for absolute imports from outside the scanned tree
    (stdlib, third-party) and for over-relative imports (left to the
    interpreter to reject).
    """
    if node.level == 0:
        return tuple(node.module.split(".")) if node.module else None
    base = package
    # level 1 is the current package; each extra level climbs one parent
    for _ in range(node.level - 1):
        if not base:
            return None
        base = base[:-1]
    if node.module:
        return base + tuple(node.module.split("."))
    return base


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_test_module(dotted: str | None) -> bool:
    """Whether a dotted module path lies in the test tree."""
    return (dotted or "").split(".")[0] == "tests"


def check_file(path: Path, src: Path, top: str) -> list[str]:
    """Violation messages for one module file."""
    parts = _module_parts(path, src)
    package = _package_of(parts, path.name == "__init__.py")
    tree = ast.parse(path.read_text(), filename=str(path))
    rel = path.relative_to(src.parent)
    violations: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_test_module(alias.name):
                    violations.append(
                        f"{rel}:{node.lineno}: test-only import: import {alias.name}"
                    )
            continue
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and _is_test_module(node.module):
            violations.append(
                f"{rel}:{node.lineno}: test-only import: from {node.module} import "
                + ", ".join(a.name for a in node.names)
            )
            continue
        private = [a.name for a in node.names if _is_private(a.name)]
        if not private:
            continue
        target = _resolve_from_import(node, package)
        if target is None or target[:1] != (top,):
            continue  # stdlib / third-party: not ours to police
        # the imported name may itself be a submodule (from pkg import
        # _mod); either way the *source package* is the target module's
        # own directory, compared against the importer's directory
        source_pkg = target if (src.joinpath(*target)).is_dir() else target[:-1]
        if source_pkg == package:
            continue  # same package: private sharing among neighbors is fine
        for name in private:
            violations.append(
                f"{rel}:{node.lineno}: cross-package private import: "
                f"from {'.'.join(target)} import {name}"
            )
    return violations


def scan(src: Path = DEFAULT_SRC, top: str = "repro") -> list[str]:
    """All violations under ``src/<top>``, sorted by location."""
    violations: list[str] = []
    for path in sorted((src / top).rglob("*.py")):
        violations.extend(check_file(path, src, top))
    return violations


def main(argv: list[str] | None = None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    src = Path(args[0]) if args else DEFAULT_SRC
    violations = scan(src)
    if violations:
        print(f"{len(violations)} forbidden import(s):")
        for message in violations:
            print(f"  {message}")
        return 1
    print("no cross-package private imports, no test-only imports")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
