"""Tier-1 wiring for ``tools/check_private_imports.py``.

The unified cost layer exists precisely so no package has to reach
into another's underscore names (the portfolio once imported
``bstar.placer._CostModel``); this test keeps the tree clean forever
and pins the checker's own detection logic against synthetic trees.
The same checker keeps the library off its test tree: the reference
implementations in ``tests/oracles.py`` are for tests and benchmarks
only.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_private_imports  # noqa: E402


class TestRepoIsClean:
    def test_src_has_no_cross_package_private_imports(self):
        assert check_private_imports.scan() == []

    def test_main_exit_code_clean(self, capsys):
        assert check_private_imports.main([]) == 0
        assert "no cross-package private imports" in capsys.readouterr().out

    def test_workloads_package_is_covered(self):
        """The checker discovers packages by walking src/repro — newly
        added packages (here: workloads) must actually be visited, and a
        violation planted in one must be flagged (checked on a copy)."""
        src = REPO_ROOT / "src"
        scanned = sorted((src / "repro" / "workloads").rglob("*.py"))
        assert scanned, "repro/workloads not found where the checker scans"
        for path in scanned:
            # check_file on the real files: clean, and no crash
            assert check_private_imports.check_file(path, src, "repro") == []

    def test_planted_workloads_violation_is_flagged(self, tmp_path):
        src = _write_tree(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/circuit/__init__.py": "_hidden = 1\n",
                "repro/workloads/__init__.py": "",
                "repro/workloads/registry.py": (
                    "from ..circuit import _hidden\n"
                ),
            },
        )
        violations = check_private_imports.scan(src)
        assert len(violations) == 1
        assert "repro/workloads/registry.py" in violations[0].replace("\\", "/")


def _write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, content in files.items():
        path = root / "src" / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(content)
    return root / "src"


class TestDetection:
    def test_flags_cross_package_private_import(self, tmp_path, capsys):
        src = _write_tree(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/alpha/__init__.py": "",
                "repro/alpha/mod.py": "_secret = 1\n",
                "repro/beta/__init__.py": "from ..alpha.mod import _secret\n",
            },
        )
        violations = check_private_imports.scan(src)
        assert len(violations) == 1
        assert "from repro.alpha.mod import _secret" in violations[0]
        assert check_private_imports.main([str(src)]) == 1
        assert "_secret" in capsys.readouterr().out

    def test_absolute_form_is_flagged_too(self, tmp_path):
        src = _write_tree(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/alpha/__init__.py": "_x = 1\n",
                "repro/beta/__init__.py": "from repro.alpha import _x\n",
            },
        )
        assert len(check_private_imports.scan(src)) == 1

    def test_same_package_private_import_is_fine(self, tmp_path):
        src = _write_tree(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/alpha/__init__.py": "",
                "repro/alpha/helpers.py": "_shared = 2\n",
                "repro/alpha/mod.py": "from .helpers import _shared\n",
            },
        )
        assert check_private_imports.scan(src) == []

    def test_public_and_external_imports_are_ignored(self, tmp_path):
        src = _write_tree(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/alpha/__init__.py": "public = 1\n",
                "repro/beta/__init__.py": (
                    "from os.path import _joinrealpath  # stdlib: not ours\n"
                    "from ..alpha import public\n"
                    "from dataclasses import dataclass\n"
                ),
            },
        )
        assert check_private_imports.scan(src) == []

    def test_planted_test_tree_imports_are_flagged(self, tmp_path, capsys):
        src = _write_tree(
            tmp_path,
            {
                "repro/__init__.py": "",
                "repro/alpha/__init__.py": "from tests.oracles import pack_sizes\n",
                "repro/alpha/mod.py": "import tests.oracles\n",
                "repro/beta/__init__.py": "import tests\n",
                # a library module merely *named* like the test tree is fine
                "repro/beta/tests_util.py": "from .. import alpha\n",
            },
        )
        violations = check_private_imports.scan(src)
        assert len(violations) == 3
        assert all("test-only import" in v for v in violations)
        assert any("from tests.oracles import pack_sizes" in v for v in violations)
        assert check_private_imports.main([str(src)]) == 1
        assert "3 forbidden import(s)" in capsys.readouterr().out

    def test_dunder_names_are_exempt(self, tmp_path):
        src = _write_tree(
            tmp_path,
            {
                "repro/__init__.py": "__version__ = '1'\n",
                "repro/alpha/__init__.py": "from .. import __version__\n",
            },
        )
        assert check_private_imports.scan(src) == []
